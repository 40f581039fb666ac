//! The Poly1305 one-time authenticator (RFC 8439).
//!
//! Arithmetic is carried out modulo `2^130 - 5` on three 64-bit limbs with
//! `u128` intermediate products. The implementation favours clarity: every
//! multiplication is a schoolbook product followed by a fold of the bits
//! above position 130 (multiplied by 5, since `2^130 ≡ 5 (mod p)`).

/// Key size in bytes (the `r || s` pair).
pub(crate) const KEY_LEN: usize = 32;

/// Tag size in bytes.
pub(crate) const TAG_LEN: usize = 16;

/// A Poly1305 authenticator instance.
#[derive(Debug, Clone)]
pub(crate) struct Poly1305 {
    /// Clamped multiplier `r` (two limbs, < 2^124).
    r: [u64; 2],
    /// Final addend `s` (two limbs).
    s: [u64; 2],
    /// Accumulator (three limbs, kept < 2^131 between blocks).
    h: [u64; 3],
    /// Buffered partial block.
    buffer: [u8; 16],
    buffer_len: usize,
}

impl Poly1305 {
    /// Creates an authenticator from a 32-byte one-time key.
    pub(crate) fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut r0 = u64::from_le_bytes(key[0..8].try_into().expect("slice of 8"));
        let mut r1 = u64::from_le_bytes(key[8..16].try_into().expect("slice of 8"));
        // Clamping per RFC 8439 §2.5: clear the top four bits of bytes
        // 3, 7, 11, 15 and the bottom two bits of bytes 4, 8, 12.
        r0 &= 0x0FFF_FFFC_0FFF_FFFF;
        r1 &= 0x0FFF_FFFC_0FFF_FFFC;
        let s0 = u64::from_le_bytes(key[16..24].try_into().expect("slice of 8"));
        let s1 = u64::from_le_bytes(key[24..32].try_into().expect("slice of 8"));
        Self {
            r: [r0, r1],
            s: [s0, s1],
            h: [0; 3],
            buffer: [0; 16],
            buffer_len: 0,
        }
    }

    /// Absorbs message bytes.
    pub(crate) fn update(&mut self, data: &[u8]) {
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (16 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 16 {
                let block = self.buffer;
                self.process_block(&block, false);
                self.buffer_len = 0;
            }
        }
        while input.len() >= 16 {
            let block: [u8; 16] = input[..16].try_into().expect("slice of 16");
            self.process_block(&block, false);
            input = &input[16..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the computation and returns the 16-byte tag.
    pub(crate) fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffer_len > 0 {
            // Final partial block: append a single 0x01 byte then zeros.
            let mut block = [0u8; 16];
            block[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
            block[self.buffer_len] = 0x01;
            let len = self.buffer_len;
            self.process_partial_block(&block, len);
        }

        // Fully reduce h modulo 2^130 - 5.
        let mut h = fold130(self.h);
        h = fold130(h);
        // Conditionally subtract p: if h + 5 >= 2^130, the reduced value is
        // (h + 5) mod 2^130.
        let (g0, c0) = h[0].overflowing_add(5);
        let (g1, c1) = h[1].overflowing_add(c0 as u64);
        let g2 = h[2].wrapping_add(c1 as u64);
        if g2 >> 2 != 0 {
            h = [g0, g1, g2 & 0x3];
        }

        // tag = (h + s) mod 2^128.
        let (t0, carry) = h[0].overflowing_add(self.s[0]);
        let t1 = h[1].wrapping_add(self.s[1]).wrapping_add(carry as u64);

        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&t0.to_le_bytes());
        tag[8..].copy_from_slice(&t1.to_le_bytes());
        tag
    }

    fn process_block(&mut self, block: &[u8; 16], _partial: bool) {
        let c0 = u64::from_le_bytes(block[0..8].try_into().expect("slice of 8"));
        let c1 = u64::from_le_bytes(block[8..16].try_into().expect("slice of 8"));
        self.accumulate([c0, c1, 1]);
    }

    fn process_partial_block(&mut self, padded: &[u8; 16], _len: usize) {
        let c0 = u64::from_le_bytes(padded[0..8].try_into().expect("slice of 8"));
        let c1 = u64::from_le_bytes(padded[8..16].try_into().expect("slice of 8"));
        // No 2^128 bit for the padded final block: the 0x01 terminator is
        // already inside the 16 bytes.
        self.accumulate([c0, c1, 0]);
    }

    /// h = ((h + c) * r) mod 2^130-5 (partially reduced to < 2^131).
    fn accumulate(&mut self, c: [u64; 3]) {
        // h += c
        let (h0, carry0) = self.h[0].overflowing_add(c[0]);
        let (h1a, carry1a) = self.h[1].overflowing_add(c[1]);
        let (h1, carry1b) = h1a.overflowing_add(carry0 as u64);
        let h2 = self.h[2]
            .wrapping_add(c[2])
            .wrapping_add((carry1a as u64) + (carry1b as u64));
        let h = [h0, h1, h2];

        // product = h * r (3 limbs x 2 limbs -> 5 limbs)
        let r = self.r;
        let mut p = [0u128; 5];
        for (i, &hi) in h.iter().enumerate() {
            for (j, &rj) in r.iter().enumerate() {
                p[i + j] += (hi as u128) * (rj as u128);
            }
        }
        // Carry propagation into 64-bit limbs.
        let mut limbs = [0u64; 5];
        let mut carry: u128 = 0;
        for i in 0..5 {
            let v = p[i] + carry;
            limbs[i] = v as u64;
            carry = v >> 64;
        }
        debug_assert_eq!(carry, 0, "product exceeded 320 bits");

        // Reduce modulo 2^130 - 5: result = low 130 bits + 5 * (bits >= 130).
        let lo = [limbs[0], limbs[1], limbs[2] & 0x3];
        let hi = [
            (limbs[2] >> 2) | (limbs[3] << 62),
            (limbs[3] >> 2) | (limbs[4] << 62),
            limbs[4] >> 2,
        ];
        // h = lo + 5 * hi
        let mut acc = [0u128; 3];
        for i in 0..3 {
            acc[i] = lo[i] as u128 + 5 * (hi[i] as u128);
        }
        let mut out = [0u64; 3];
        let mut carry: u128 = 0;
        for i in 0..3 {
            let v = acc[i] + carry;
            out[i] = v as u64;
            carry = v >> 64;
        }
        debug_assert_eq!(carry, 0);
        self.h = out;
    }
}

/// Folds the bits of `h` above position 130 back into the low 130 bits
/// (multiplied by 5).
fn fold130(h: [u64; 3]) -> [u64; 3] {
    let lo = [h[0], h[1], h[2] & 0x3];
    let hi = h[2] >> 2;
    let v0 = lo[0] as u128 + 5 * hi as u128;
    let c = v0 >> 64;
    let v1 = lo[1] as u128 + c;
    let c = v1 >> 64;
    let v2 = lo[2] as u128 + c;
    [v0 as u64, v1 as u64, v2 as u64]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, hex};

    /// One-shot tag of `data` under `key`.
    fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }

    #[test]
    fn rfc8439_vector() {
        // RFC 8439 §2.5.2.
        let key: [u8; 32] =
            from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .unwrap()
                .try_into()
                .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        let tag = mac(&key, msg);
        assert_eq!(hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn rfc8439_appendix_a3_vector_2() {
        // RFC 8439 Appendix A.3 test vector #2: r = 0, s = key2 text, any msg
        // gives tag = s... actually with r = 0 the accumulator stays 0 and
        // the tag equals s.
        let mut key = [0u8; 32];
        key[16..32].copy_from_slice(&from_hex("36e5f6b5c5e06070f0efca96227a863e").unwrap());
        let msg = b"Any submission to the IETF intended by the Contributor for publication";
        let tag = mac(&key, msg);
        assert_eq!(hex(&tag), "36e5f6b5c5e06070f0efca96227a863e");
    }

    #[test]
    fn empty_message_tag_is_s() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let tag = mac(&key, b"");
        // h stays 0, so the tag is exactly s (bytes 16..32 of the key).
        assert_eq!(&tag[..], &key[16..32]);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [0x5Au8; 32];
        let data: Vec<u8> = (0..200u8).collect();
        let oneshot = mac(&key, &data);
        let mut p = Poly1305::new(&key);
        // Irregular chunking exercises the buffering logic.
        for chunk in data.chunks(7) {
            p.update(chunk);
        }
        assert_eq!(p.finalize(), oneshot);
    }

    #[test]
    fn different_messages_different_tags() {
        let key = [0x33u8; 32];
        assert_ne!(mac(&key, b"query A"), mac(&key, b"query B"));
    }

    #[test]
    fn verify_detects_tampering() {
        let key = [0x11u8; 32];
        let tag = mac(&key, b"message");
        assert!(crate::ct_eq(&mac(&key, b"message"), &tag));
        assert!(!crate::ct_eq(&mac(&key, b"Message"), &tag));
        let mut bad_tag = tag;
        bad_tag[0] ^= 1;
        assert!(!crate::ct_eq(&mac(&key, b"message"), &bad_tag));
    }

    #[test]
    fn exact_multiple_of_block_size() {
        let key = [0x77u8; 32];
        let data = vec![0xEE; 64];
        let a = mac(&key, &data);
        let mut p = Poly1305::new(&key);
        p.update(&data[..16]);
        p.update(&data[16..64]);
        assert_eq!(p.finalize(), a);
    }
}
