//! The one wire layer. CYCLOSA nodes only exchange sealed byte records
//! between enclaves, so every protocol message implements [`Message`],
//! usually through [`impl_message!`](crate::impl_message): its fields in
//! order, integers little-endian, a [`Counted`] list as a one-byte count
//! and its items, a `Vec` as items up to the end of the payload.
//!
//! Decoding never panics and never truncates: the receiver drops a short
//! payload ([`WireError::Truncated`]) or one with bytes left over
//! ([`WireError::TrailingBytes`]) whole. Binary encodings are canonical:
//! whatever decodes re-encodes to exactly its bytes. Each crate's tests
//! hold its messages to these rules with [`check_messages`].

use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a payload did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended inside a field.
    Truncated,
    /// Bytes remained after the message.
    TrailingBytes,
    /// A field outside its alphabet or range: an unknown enum tag or
    /// flag, a malformed number, non-UTF-8 text.
    BadTag,
    /// A payload longer than its bound.
    OverLength,
}

/// A value with a byte form on the wire.
pub trait Message: Sized {
    /// Appends the value to `w`.
    fn encode(&self, w: &mut Writer);

    /// Reads one value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// The value's payload bytes.
    fn to_bytes(&self) -> Vec<u8> {
        // Room for every fixed-size message and a typical request.
        let mut w = Writer(Vec::with_capacity(64));
        self.encode(&mut w);
        w.0
    }

    /// Decodes a whole payload: one value and nothing after it.
    fn from_bytes(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader(payload);
        let value = Self::decode(&mut r)?;
        r.0.is_empty()
            .then_some(value)
            .ok_or(WireError::TrailingBytes)
    }
}

/// Implements [`Message`](crate::wire::Message) for a struct as its
/// fields (names, or `0` for a newtype), each through its own `Message`
/// impl, in the order listed — which must be the wire order.
#[macro_export]
macro_rules! impl_message {
    ($ty:ty { $($field:tt),* $(,)? }) => {
        impl $crate::wire::Message for $ty {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                $($crate::wire::Message::encode(&self.$field, w);)*
            }

            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $($field: $crate::wire::Message::decode(r)?),* })
            }
        }
    };
}

/// Builds one payload.
pub struct Writer(Vec<u8>);

/// Text fields (the deployment's request header) are written with
/// `write!`, which cannot fail on a `Writer`.
impl std::fmt::Write for Writer {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        self.0.extend_from_slice(text.as_bytes());
        Ok(())
    }
}

/// Reads one payload front to back; a read past its end is
/// [`WireError::Truncated`], never a panic.
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk().ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    /// Takes every byte left: an opaque run that ends the message.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }
}

macro_rules! impl_integer {
    ($($ty:ty),*) => {
        $(impl Message for $ty {
            fn encode(&self, w: &mut Writer) {
                w.0.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.take().map(<$ty>::from_le_bytes)
            }
        })*
    };
}
impl_integer!(u8, u32, u64);

/// A list that ends the payload (a gossip buffer, a pulled view): its
/// items with no count. A payload that ends inside an item is rejected
/// whole, never cut back to its complete items.
impl<T: Message> Message for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.iter().for_each(|item| item.encode(w));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut items = Vec::new();
        while !r.0.is_empty() {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

/// A list inside a message: a one-byte count, then the items. Encoding
/// more than 255 items panics; senders bound their lists (piggyback
/// limits, sample sizes) well below that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counted<T>(pub Vec<T>);

impl<T: Message> Message for Counted<T> {
    #[expect(
        clippy::expect_used,
        reason = "the documented bound: senders cap every counted list well below 255 items"
    )]
    fn encode(&self, w: &mut Writer) {
        let count = u8::try_from(self.0.len()).expect("a counted list holds at most 255 items");
        count.encode(w);
        self.0.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        (0..u8::decode(r)?)
            .map(|_| T::decode(r))
            .collect::<Result<_, _>>()
            .map(Counted)
    }
}

/// The hostile-input harness every `Message` impl is held to. For the
/// `samples` (well-formed values), with inputs drawn from `seed`:
///
/// * each sample round-trips;
/// * decoding panics on no input: every truncation of each sample's
///   encoding, extensions by 1–8 zero and random bytes, seeded byte
///   flips, and random payloads;
/// * every input that decodes re-encodes to exactly its own bytes — so a
///   ragged payload is never cut back to a valid prefix, and trailing
///   bytes are never ignored.
///
/// # Panics
///
/// On the first violated property, naming the input.
pub fn check_messages<T: Message + PartialEq + Debug>(samples: &[T], seed: u64) {
    check(samples, seed, true);
}

/// [`check_messages`] without the canonical-encoding property, for a
/// message carrying opaque content that decoding drops (the deployment's
/// request text).
pub fn check_opaque_messages<T: Message + PartialEq + Debug>(samples: &[T], seed: u64) {
    check(samples, seed, false);
}

fn check<T: Message + PartialEq + Debug>(samples: &[T], seed: u64, canonical: bool) {
    assert!(!samples.is_empty(), "the harness needs samples");
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut inputs: Vec<Vec<u8>> = Vec::new();
    for sample in samples {
        let bytes = sample.to_bytes();
        assert_eq!(
            T::from_bytes(&bytes).as_ref(),
            Ok(sample),
            "{sample:?} does not round-trip"
        );
        inputs.extend((0..bytes.len()).map(|cut| bytes[..cut].to_vec()));
        for extra in 1..=8 {
            let mut zeros = bytes.clone();
            zeros.resize(bytes.len() + extra, 0);
            let mut noise = zeros.clone();
            rng.fill_bytes(&mut noise[bytes.len()..]);
            inputs.extend([zeros, noise]);
        }
        if !bytes.is_empty() {
            for _ in 0..64 {
                let mut flipped = bytes.clone();
                flipped[rng.gen_index(bytes.len())] ^= 1 << rng.gen_index(8);
                inputs.push(flipped);
            }
        }
        let longest = 2 * bytes.len() + 8;
        for _ in 0..64 {
            let mut random = vec![0; rng.gen_index(longest + 1)];
            rng.fill_bytes(&mut random);
            inputs.push(random);
        }
    }
    for input in &inputs {
        let decoded = catch_unwind(AssertUnwindSafe(|| T::from_bytes(input)));
        assert!(decoded.is_ok(), "decoding {input:02x?} panicked");
        if let (true, Ok(Ok(value))) = (canonical, decoded) {
            assert_eq!(
                &value.to_bytes(),
                input,
                "{input:02x?} decodes to {value:?}, which encodes otherwise"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A message with every field kind of the layer.
    #[derive(Debug, PartialEq)]
    struct Sample {
        flag: u8,
        small: u32,
        big: u64,
        counted: Counted<u64>,
        tail: Vec<u64>,
    }
    crate::impl_message!(Sample {
        flag,
        small,
        big,
        counted,
        tail
    });

    fn sample(counted: usize, tail: usize) -> Sample {
        Sample {
            flag: 0xA5,
            small: u32::MAX,
            big: 0x0102_0304_0506_0708,
            counted: Counted((0..counted as u64).collect()),
            tail: (0..tail as u64).map(|i| u64::MAX - i).collect(),
        }
    }

    #[test]
    fn integers_are_little_endian_and_fields_in_order() {
        let bytes = sample(1, 1).to_bytes();
        assert_eq!(&bytes[..5], &[0xA5, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(&bytes[5..13], &[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(&bytes[13..22], &[1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes.len(), 30);
    }

    #[test]
    fn short_and_long_payloads_are_rejected() {
        let bytes = sample(2, 0).to_bytes();
        assert_eq!(
            Sample::from_bytes(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
        assert_eq!(Sample::from_bytes(&[]), Err(WireError::Truncated));
        // Three stray bytes are a truncated tail item.
        let mut ragged = bytes.clone();
        ragged.extend([1, 2, 3]);
        assert_eq!(Sample::from_bytes(&ragged), Err(WireError::Truncated));
        assert_eq!(u64::from_bytes(&[0; 9]), Err(WireError::TrailingBytes));
    }

    #[test]
    fn every_field_kind_passes_the_harness() {
        check_messages(
            &[sample(0, 0), sample(3, 0), sample(0, 2), sample(255, 4)],
            1,
        );
        check_messages(&[0, 1, u64::MAX], 2);
        let lists = [Vec::new(), vec![7_u32, 0, u32::MAX]];
        check_messages(&lists, 3);
        check_messages(&lists.map(Counted), 4);
    }

    #[test]
    #[should_panic(expected = "at most 255")]
    fn an_overlong_counted_list_is_refused_at_the_sender() {
        let _ = sample(256, 0).to_bytes();
    }
}
