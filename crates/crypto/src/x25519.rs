//! X25519 Diffie–Hellman over Curve25519 (RFC 7748).
//!
//! Each CYCLOSA enclave derives one X25519 handshake key and binds its public
//! half into the attestation quote of every handshake; the shared secret of a
//! handshake is fed through HKDF to derive the per-direction AEAD channel
//! keys.
//!
//! # Field arithmetic
//!
//! An element of GF(2^255 − 19) is five limbs in radix 2^51 (the 64-bit
//! curve25519-donna layout); products are accumulated in `u128`. Limbs are
//! not carried back below 2^51 after every operation. Instead each
//! operation accepts and returns a stated limb bound, and the ladder only
//! chains operations whose bounds fit:
//!
//! | operation            | accepts (every limb)   | returns (every limb)   |
//! |----------------------|------------------------|------------------------|
//! | `from_bytes`         | —                      | < 2^51                 |
//! | `add`                | < 2^53                 | < 2^54 (no carry)      |
//! | `sub(a, b)`          | `a` < 2^54, `b` < 2^52 | < 2^52                 |
//! | `mul`, `square`      | < 2^54                 | < 2^52                 |
//! | `mul_small(s < 2^17)`| < 2^54                 | < 2^52                 |
//! | `to_bytes`           | < 2^54                 | canonical, below p     |
//!
//! `sub` computes `a + 4p − b` (so nothing underflows) and makes one
//! straight carry pass. `mul` pre-multiplies the limbs that wrap past 2^255
//! by 19, and `square` needs 15 products instead of 25; both end in the same
//! fixed carry chain. Products of limbs below 2^54 sum to less than 2^115,
//! which leaves the `u128` accumulators room to spare.
//!
//! `invert` is Fermat's x^(p − 2) along the standard addition chain: 254
//! squarings and 11 multiplications through x^(2^k − 1) for k = 5, 10, 20,
//! 40, 50, 100, 200 and 250. The Montgomery ladder swaps its two points
//! with a mask rather than a branch, so it does not branch on key bits.

/// Length of public keys, secret keys and shared secrets in bytes.
pub const KEY_LEN: usize = 32;

const MASK51: u64 = (1u64 << 51) - 1;

/// An element of the field GF(2^255 − 19), as five radix-2^51 limbs (see
/// the module documentation for the bound each operation keeps).
#[derive(Debug, Clone, Copy)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |range: std::ops::Range<usize>| -> u64 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[range]);
            u64::from_le_bytes(buf)
        };
        Fe([
            load(0..8) & MASK51,
            (load(6..14) >> 3) & MASK51,
            (load(12..20) >> 6) & MASK51,
            (load(19..27) >> 1) & MASK51,
            (load(24..32) >> 12) & MASK51,
        ])
    }

    fn to_bytes(self) -> [u8; 32] {
        // After one carry pass the value is below 2^255 + 2^9 < 2p, so it
        // is at least p exactly when adding 19 carries out of bit 255.
        let mut h = Fe::carry(self.0).0;
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        // Subtract q·p: add 19·q, carry all the way and drop bit 255.
        h[0] += 19 * q;
        h[1] += h[0] >> 51;
        h[0] &= MASK51;
        h[2] += h[1] >> 51;
        h[1] &= MASK51;
        h[3] += h[2] >> 51;
        h[2] &= MASK51;
        h[4] += h[3] >> 51;
        h[3] &= MASK51;
        h[4] &= MASK51;
        // Pack the 255 bits into 32 bytes.
        let w0 = h[0] | (h[1] << 51);
        let w1 = (h[1] >> 13) | (h[2] << 38);
        let w2 = (h[2] >> 26) | (h[3] << 25);
        let w3 = (h[3] >> 39) | (h[4] << 12);
        let mut out = [0u8; 32];
        out[0..8].copy_from_slice(&w0.to_le_bytes());
        out[8..16].copy_from_slice(&w1.to_le_bytes());
        out[16..24].copy_from_slice(&w2.to_le_bytes());
        out[24..32].copy_from_slice(&w3.to_le_bytes());
        out
    }

    /// One straight carry pass, the top carry folded back as ×19: limbs
    /// below 2^55 come out below 2^51, limb 0 below 2^51 + 2^9.
    fn carry(l: [u64; 5]) -> Fe {
        let [mut l0, mut l1, mut l2, mut l3, mut l4] = l;
        l1 += l0 >> 51;
        l0 &= MASK51;
        l2 += l1 >> 51;
        l1 &= MASK51;
        l3 += l2 >> 51;
        l2 &= MASK51;
        l4 += l3 >> 51;
        l3 &= MASK51;
        l0 += 19 * (l4 >> 51);
        l4 &= MASK51;
        Fe([l0, l1, l2, l3, l4])
    }

    fn add(self, other: Fe) -> Fe {
        let mut l = self.0;
        for (limb, other_limb) in l.iter_mut().zip(other.0) {
            *limb += other_limb;
        }
        Fe(l)
    }

    fn sub(self, other: Fe) -> Fe {
        // Add 4p (limb-wise constants) before subtracting so the limbs never
        // underflow: every limb of 4p exceeds 2^52 > `other`'s limbs.
        const FOUR_P: [u64; 5] = [
            0x1F_FFFF_FFFF_FFB4,
            0x1F_FFFF_FFFF_FFFC,
            0x1F_FFFF_FFFF_FFFC,
            0x1F_FFFF_FFFF_FFFC,
            0x1F_FFFF_FFFF_FFFC,
        ];
        let mut l = [0u64; 5];
        for i in 0..5 {
            l[i] = self.0[i] + FOUR_P[i] - other.0[i];
        }
        Fe::carry(l)
    }

    fn mul(self, rhs: Fe) -> Fe {
        let [f0, f1, f2, f3, f4] = self.0;
        let [g0, g1, g2, g3, g4] = rhs.0;
        // Limb products at 2^255 and above come back multiplied by 19.
        let (g1_19, g2_19, g3_19, g4_19) = (19 * g1, 19 * g2, 19 * g3, 19 * g4);
        reduce_wide([
            m(f0, g0) + m(f1, g4_19) + m(f2, g3_19) + m(f3, g2_19) + m(f4, g1_19),
            m(f0, g1) + m(f1, g0) + m(f2, g4_19) + m(f3, g3_19) + m(f4, g2_19),
            m(f0, g2) + m(f1, g1) + m(f2, g0) + m(f3, g4_19) + m(f4, g3_19),
            m(f0, g3) + m(f1, g2) + m(f2, g1) + m(f3, g0) + m(f4, g4_19),
            m(f0, g4) + m(f1, g3) + m(f2, g2) + m(f3, g1) + m(f4, g0),
        ])
    }

    fn square(self) -> Fe {
        let [f0, f1, f2, f3, f4] = self.0;
        let (f0_2, f1_2) = (2 * f0, 2 * f1);
        let (f3_19, f4_19) = (19 * f3, 19 * f4);
        let (f3_38, f4_38) = (2 * f3_19, 2 * f4_19);
        reduce_wide([
            m(f0, f0) + m(f1, f4_38) + m(f2, f3_38),
            m(f0_2, f1) + m(f2, f4_38) + m(f3, f3_19),
            m(f0_2, f2) + m(f1, f1) + m(f3, f4_38),
            m(f0_2, f3) + m(f1_2, f2) + m(f4, f4_19),
            m(f0_2, f4) + m(f1_2, f3) + m(f2, f2),
        ])
    }

    /// `self` squared `k ≥ 1` times.
    fn pow2k(self, k: u32) -> Fe {
        let mut x = self.square();
        for _ in 1..k {
            x = x.square();
        }
        x
    }

    fn mul_small(self, scalar: u64) -> Fe {
        reduce_wide(self.0.map(|limb| m(limb, scalar)))
    }

    /// The multiplicative inverse (zero for zero): x^(p − 2) with
    /// p − 2 = 2^255 − 21, where `tN` below is x^(2^N − 1).
    fn invert(self) -> Fe {
        let x2 = self.square();
        let x9 = x2.pow2k(2).mul(self);
        let x11 = x9.mul(x2);
        let t5 = x11.square().mul(x9);
        let t10 = t5.pow2k(5).mul(t5);
        let t20 = t10.pow2k(10).mul(t10);
        let t40 = t20.pow2k(20).mul(t20);
        let t50 = t40.pow2k(10).mul(t10);
        let t100 = t50.pow2k(50).mul(t50);
        let t200 = t100.pow2k(100).mul(t100);
        let t250 = t200.pow2k(50).mul(t50);
        // (2^250 − 1) · 2^5 + 11 = 2^255 − 21.
        t250.pow2k(5).mul(x11)
    }
}

/// The full product of two limbs.
fn m(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

/// The fixed carry chain ending `mul`, `square` and `mul_small`. From
/// limbs below 2^54 every accumulator is below 2^115 and the top one, which
/// has no ×19 term, below 2^111; the limbs returned are below 2^51, except
/// limb 1, which may exceed it by less than 2^13.
fn reduce_wide(r: [u128; 5]) -> Fe {
    let [r0, mut r1, mut r2, mut r3, mut r4] = r;
    r1 += r0 >> 51;
    r2 += r1 >> 51;
    r3 += r2 >> 51;
    r4 += r3 >> 51;
    // The carry out of limb 4 is below 2^60, so 19 times it fits a u64.
    let l0 = (r0 as u64 & MASK51) + 19 * (r4 >> 51) as u64;
    Fe([
        l0 & MASK51,
        (r1 as u64 & MASK51) + (l0 >> 51),
        r2 as u64 & MASK51,
        r3 as u64 & MASK51,
        r4 as u64 & MASK51,
    ])
}

/// Swaps `a` and `b` when `swap` is 1 and keeps them when it is 0, through
/// a mask instead of a branch on `swap`.
fn cswap(a: &mut Fe, b: &mut Fe, swap: u64) {
    let mask = swap.wrapping_neg();
    for (x, y) in a.0.iter_mut().zip(b.0.iter_mut()) {
        let t = mask & (*x ^ *y);
        *x ^= t;
        *y ^= t;
    }
}

/// Clamps a 32-byte scalar per RFC 7748 §5.
fn clamp_scalar(mut scalar: [u8; 32]) -> [u8; 32] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// The X25519 function: multiplies the point with u-coordinate `u` by the
/// clamped `scalar` and returns the resulting u-coordinate.
pub fn x25519(scalar: [u8; 32], u: [u8; 32]) -> [u8; 32] {
    let k = clamp_scalar(scalar);
    let mut u_bytes = u;
    u_bytes[31] &= 127; // mask the unused high bit per RFC 7748
    let x1 = Fe::from_bytes(&u_bytes);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= k_t;
        cswap(&mut x2, &mut x3, swap);
        cswap(&mut z2, &mut z3, swap);
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121_665)));
    }
    cswap(&mut x2, &mut x3, swap);
    cswap(&mut z2, &mut z3, swap);
    x2.mul(z2.invert()).to_bytes()
}

/// The standard base point (u = 9).
pub fn base_point() -> [u8; 32] {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
}

/// A long-term or ephemeral X25519 secret key, together with its public
/// key: the base-point multiplication is done once, when the secret is
/// built, and every later [`StaticSecret::public_key`] returns the copy (a
/// handshake asks for it several times per side).
#[derive(Clone)]
pub struct StaticSecret {
    scalar: [u8; 32],
    public: PublicKey,
}

/// Prints the public half only.
impl std::fmt::Debug for StaticSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticSecret")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl StaticSecret {
    /// Builds a secret key from 32 bytes of keying material (clamped
    /// internally, so any byte string is acceptable).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self {
            scalar: bytes,
            public: PublicKey(x25519(bytes, base_point())),
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Performs Diffie–Hellman with a peer public key.
    pub fn diffie_hellman(&self, peer: &PublicKey) -> SharedSecret {
        SharedSecret(x25519(self.scalar, peer.0))
    }
}

/// An X25519 public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub [u8; 32]);

impl PublicKey {
    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// The result of an X25519 Diffie–Hellman exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedSecret(pub [u8; 32]);

impl SharedSecret {
    /// Raw secret bytes (feed these through HKDF before use as keys).
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns `true` if the secret is all zeroes, which signals a
    /// contributory-behaviour failure (low-order peer point).
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, hex};

    fn arr(hexstr: &str) -> [u8; 32] {
        from_hex(hexstr).unwrap().try_into().unwrap()
    }

    /// SplitMix64: a seeded stream of test inputs without a dependency.
    struct Inputs(u64);

    impl Inputs {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// An element whose limbs are uniform below 2^bits, except that
        /// every eighth one has every limb at 2^bits − 1.
        fn fe(&mut self, bits: u32) -> Fe {
            let top = (1u64 << bits) - 1;
            let edge = self.next().is_multiple_of(8);
            Fe([(); 5].map(|()| if edge { top } else { self.next() & top }))
        }
    }

    /// Test-local arithmetic on plain little-endian integers: a schoolbook
    /// product and a reduction mod p that folds 2^255 ≡ 19, sharing
    /// nothing with the limb kernel.
    mod reference {
        /// An integer below 2^512, little-endian words.
        pub type Wide = [u64; 8];

        pub fn from_limbs(limbs: [u64; 5]) -> Wide {
            let mut w = [0u64; 8];
            for (i, &limb) in limbs.iter().enumerate() {
                let (word, shift) = (51 * i / 64, 51 * i % 64);
                let mut carry = u128::from(limb) << shift;
                for x in w[word..].iter_mut() {
                    let s = u128::from(*x) + (carry & u128::from(u64::MAX));
                    *x = s as u64;
                    carry = (carry >> 64) + (s >> 64);
                }
            }
            w
        }

        pub fn from_bytes(bytes: &[u8; 32]) -> Wide {
            let mut w = [0u64; 8];
            for (word, chunk) in w.iter_mut().zip(bytes.chunks_exact(8)) {
                *word = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            w
        }

        pub fn add(a: &Wide, b: &Wide) -> Wide {
            let mut out = [0u64; 8];
            let mut carry = 0u128;
            for i in 0..8 {
                let s = u128::from(a[i]) + u128::from(b[i]) + carry;
                out[i] = s as u64;
                carry = s >> 64;
            }
            out
        }

        /// The product of two integers below 2^256.
        pub fn mul(a: &Wide, b: &Wide) -> Wide {
            assert!(a[4..].iter().chain(&b[4..]).all(|&w| w == 0));
            let mut out = [0u64; 8];
            for i in 0..4 {
                let mut carry = 0u128;
                for j in 0..4 {
                    let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(out[i + j]) + carry;
                    out[i + j] = t as u64;
                    carry = t >> 64;
                }
                out[i + 4] = carry as u64;
            }
            out
        }

        /// The canonical encoding of `w mod p`.
        pub fn reduce(mut w: Wide) -> [u8; 32] {
            loop {
                // hi = w >> 255, lo = w mod 2^255; w ← lo + 19·hi.
                let mut hi = [0u64; 8];
                for i in 0..5 {
                    hi[i] = (w[i + 3] >> 63) | w.get(i + 4).map_or(0, |x| x << 1);
                }
                if hi == [0; 8] {
                    break;
                }
                w[3] &= u64::MAX >> 1;
                w[4..].fill(0);
                let mut carry = 0u128;
                for i in 0..8 {
                    let s = u128::from(w[i]) + 19 * u128::from(hi[i]) + carry;
                    w[i] = s as u64;
                    carry = s >> 64;
                }
            }
            // Now w < 2^255 < 2p: w ≥ p exactly when w + 19 reaches 2^255.
            let mut plus19 = w;
            let mut carry = 19u128;
            for word in plus19.iter_mut() {
                let s = u128::from(*word) + carry;
                *word = s as u64;
                carry = s >> 64;
            }
            if plus19[3] >> 63 == 1 {
                plus19[3] &= u64::MAX >> 1;
                w = plus19;
            }
            let mut out = [0u8; 32];
            for (chunk, word) in out.chunks_exact_mut(8).zip(w) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            out
        }

        pub fn canonical(limbs: [u64; 5]) -> [u8; 32] {
            reduce(from_limbs(limbs))
        }

        /// The canonical encoding of `a · b mod p`.
        pub fn product(a: [u64; 5], b: [u64; 5]) -> [u8; 32] {
            let (a, b) = (canonical(a), canonical(b));
            reduce(mul(&from_bytes(&a), &from_bytes(&b)))
        }
    }

    fn limbs_below(fe: Fe, bits: u32) -> bool {
        fe.0.iter().all(|&l| l < 1u64 << bits)
    }

    /// x^(p − 2) by plain square-and-multiply over the bits of 2^255 − 21.
    fn pow_p_minus_2(x: Fe) -> Fe {
        let mut result = Fe::ONE;
        for bit in (0..255).rev() {
            result = result.square();
            // 2^255 − 21: every bit set except bits 2 and 4.
            if bit != 2 && bit != 4 {
                result = result.mul(x);
            }
        }
        result
    }

    #[test]
    fn field_roundtrip_and_identities() {
        let a = Fe::from_bytes(&[42u8; 32]);
        assert_eq!(Fe::from_bytes(&a.to_bytes()).to_bytes(), a.to_bytes());
        assert_eq!(a.mul(Fe::ONE).to_bytes(), a.to_bytes());
        assert_eq!(a.sub(a).to_bytes(), Fe::ZERO.to_bytes());
        let inv = a.invert();
        assert_eq!(a.mul(inv).to_bytes(), Fe::ONE.to_bytes());
    }

    #[test]
    fn to_bytes_is_canonical_at_and_above_p() {
        // p + j for j in 0..19 (p + 18 = 2^255 − 1) encodes as j.
        for j in 0..19u8 {
            let mut bytes = [0xFFu8; 32];
            bytes[0] = 0xED + j;
            bytes[31] = 0x7F;
            let mut expected = [0u8; 32];
            expected[0] = j;
            assert_eq!(Fe::from_bytes(&bytes).to_bytes(), expected, "p + {j}");
        }
        // Any limbs up to the 2^54 − 1 bound `to_bytes` accepts.
        let mut inputs = Inputs(1);
        for _ in 0..2_000 {
            let x = inputs.fe(54);
            assert_eq!(x.to_bytes(), reference::canonical(x.0), "{x:?}");
        }
    }

    #[test]
    fn mul_and_square_match_a_schoolbook_reference_at_their_input_bound() {
        let mut inputs = Inputs(2);
        for _ in 0..2_000 {
            let (x, y) = (inputs.fe(54), inputs.fe(54));
            let product = x.mul(y);
            assert!(limbs_below(product, 52), "{product:?}");
            assert_eq!(product.to_bytes(), reference::product(x.0, y.0));
            let square = x.square();
            assert!(limbs_below(square, 52), "{square:?}");
            assert_eq!(square.to_bytes(), x.mul(x).to_bytes());
            let small = x.mul_small(121_665);
            assert!(limbs_below(small, 52), "{small:?}");
            assert_eq!(
                small.to_bytes(),
                reference::product(x.0, [121_665, 0, 0, 0, 0])
            );
        }
    }

    #[test]
    fn add_and_sub_round_trip_at_their_limb_bounds() {
        let mut inputs = Inputs(3);
        for _ in 0..2_000 {
            // add: both operands up to 2^53 − 1, the sum up to 2^54 − 2.
            let (x, y) = (inputs.fe(53), inputs.fe(53));
            let sum = x.add(y);
            assert!(limbs_below(sum, 54));
            let expected = reference::add(&reference::from_limbs(x.0), &reference::from_limbs(y.0));
            assert_eq!(sum.to_bytes(), reference::reduce(expected));
            // sub: the minuend up to 2^54 − 1, the subtrahend up to 2^52 − 1.
            let (a, b) = (inputs.fe(54), inputs.fe(52));
            let difference = a.sub(b);
            assert!(limbs_below(difference, 52), "{difference:?}");
            let back = reference::add(
                &reference::from_bytes(&difference.to_bytes()),
                &reference::from_limbs(b.0),
            );
            assert_eq!(reference::reduce(back), reference::canonical(a.0));
            assert_eq!(difference.add(b).to_bytes(), a.to_bytes());
        }
    }

    #[test]
    fn invert_matches_square_and_multiply() {
        assert_eq!(Fe::ZERO.invert().to_bytes(), [0u8; 32]);
        let mut inputs = Inputs(4);
        for _ in 0..64 {
            let x = inputs.fe(52);
            let inverse = x.invert();
            assert_eq!(inverse.to_bytes(), pow_p_minus_2(x).to_bytes());
            assert_eq!(x.mul(inverse).to_bytes(), Fe::ONE.to_bytes());
        }
    }

    #[test]
    fn rfc7748_vector_1() {
        let scalar = arr("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = arr("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let out = x25519(scalar, u);
        assert_eq!(
            hex(&out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar = arr("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = arr("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let out = x25519(scalar, u);
        assert_eq!(
            hex(&out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    /// RFC 7748 §5.2: k = u = 9, then k ← X25519(k, u), u ← the old k.
    #[test]
    fn rfc7748_iterated_vector_1_and_1000() {
        let mut k = base_point();
        let mut u = k;
        for iteration in 1..=1_000 {
            (k, u) = (x25519(k, u), k);
            if iteration == 1 {
                assert_eq!(
                    hex(&k),
                    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
                );
            }
        }
        assert_eq!(
            hex(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn rfc7748_alice_bob_key_agreement() {
        let alice_secret = arr("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_secret = arr("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice = StaticSecret::from_bytes(alice_secret);
        let bob = StaticSecret::from_bytes(bob_secret);
        assert_eq!(
            hex(alice.public_key().as_bytes()),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(bob.public_key().as_bytes()),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = alice.diffie_hellman(&bob.public_key());
        let shared_b = bob.diffie_hellman(&alice.public_key());
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex(shared_a.as_bytes()),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn random_key_agreement_matches() {
        // Any two secrets must agree on the shared secret.
        for seed in 0u8..4 {
            let a = StaticSecret::from_bytes([seed + 1; 32]);
            let b = StaticSecret::from_bytes([seed + 101; 32]);
            let s1 = a.diffie_hellman(&b.public_key());
            let s2 = b.diffie_hellman(&a.public_key());
            assert_eq!(s1, s2);
            assert!(!s1.is_zero());
        }
    }

    #[test]
    fn debug_output_shows_the_public_key_and_not_the_scalar() {
        let secret = StaticSecret::from_bytes([0xA7u8; 32]);
        let printed = format!("{secret:?}");
        assert!(printed.contains(&format!("{:?}", secret.public_key())));
        // 0xA7 = 167: the scalar's bytes would print as a run of `167`s.
        assert!(!printed.contains("167, 167"), "{printed}");
    }

    #[test]
    fn low_order_point_yields_zero_secret() {
        let a = StaticSecret::from_bytes([7u8; 32]);
        let zero_point = PublicKey([0u8; 32]);
        assert!(a.diffie_hellman(&zero_point).is_zero());
    }

    #[test]
    fn clamping_makes_distinct_scalars_equivalent() {
        // Bits cleared by clamping must not change the result.
        let mut s1 = [0x55u8; 32];
        let mut s2 = s1;
        s1[0] |= 0x07; // low bits are cleared by the clamp
        s2[0] &= !0x07;
        let u = base_point();
        assert_eq!(x25519(s1, u), x25519(s2, u));
    }
}
