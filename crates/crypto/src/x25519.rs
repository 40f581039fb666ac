//! X25519 Diffie–Hellman over Curve25519 (RFC 7748).
//!
//! Each CYCLOSA enclave generates an ephemeral X25519 key pair during the
//! attestation handshake; the resulting shared secret is fed through HKDF to
//! derive the per-direction AEAD channel keys. Field arithmetic uses five
//! 51-bit limbs with `u128` intermediate products — a clear, well-known
//! representation that trades a little speed for readability.

/// Length of public keys, secret keys and shared secrets in bytes.
pub const KEY_LEN: usize = 32;

const MASK51: u64 = (1u64 << 51) - 1;

/// An element of the field GF(2^255 − 19), as five 51-bit limbs.
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
        let mut h = self.weak_reduce().0;
        // Compute the carry that results from adding 19: if it propagates
        // past the top limb the value is >= p and must be reduced once more.
        let mut q = (h[0].wrapping_add(19)) >> 51;
        q = (h[1].wrapping_add(q)) >> 51;
        q = (h[2].wrapping_add(q)) >> 51;
        q = (h[3].wrapping_add(q)) >> 51;
        q = (h[4].wrapping_add(q)) >> 51;
        h[0] = h[0].wrapping_add(19 * q);
        let mut carry = h[0] >> 51;
        h[0] &= MASK51;
        for limb in h.iter_mut().skip(1) {
            *limb = limb.wrapping_add(carry);
            carry = *limb >> 51;
            *limb &= MASK51;
        }
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

    /// Propagates carries so that all limbs fit in 52 bits.
    fn weak_reduce(self) -> Fe {
        let mut l = self.0;
        let mut carry = l[0] >> 51;
        l[0] &= MASK51;
        for limb in l.iter_mut().skip(1) {
            *limb = limb.wrapping_add(carry);
            carry = *limb >> 51;
            *limb &= MASK51;
        }
        l[0] = l[0].wrapping_add(19 * carry);
        let carry = l[0] >> 51;
        l[0] &= MASK51;
        l[1] = l[1].wrapping_add(carry);
        Fe(l)
    }

    fn add(self, other: Fe) -> Fe {
        let mut l = self.0;
        for (limb, other_limb) in l.iter_mut().zip(other.0) {
            *limb += other_limb;
        }
        Fe(l).weak_reduce()
    }

    fn sub(self, other: Fe) -> Fe {
        // Add 4p (limb-wise constants) before subtracting so the limbs never
        // underflow; valid because inputs are kept below 2^52 per limb.
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
        Fe(l).weak_reduce()
    }

    fn mul(self, other: Fe) -> Fe {
        let f = self.0;
        let g = other.0;
        let m = |a: u64, b: u64| (a as u128) * (b as u128);
        let r0 =
            m(f[0], g[0]) + 19 * (m(f[1], g[4]) + m(f[2], g[3]) + m(f[3], g[2]) + m(f[4], g[1]));
        let r1 =
            m(f[0], g[1]) + m(f[1], g[0]) + 19 * (m(f[2], g[4]) + m(f[3], g[3]) + m(f[4], g[2]));
        let r2 =
            m(f[0], g[2]) + m(f[1], g[1]) + m(f[2], g[0]) + 19 * (m(f[3], g[4]) + m(f[4], g[3]));
        let r3 = m(f[0], g[3]) + m(f[1], g[2]) + m(f[2], g[1]) + m(f[3], g[0]) + 19 * m(f[4], g[4]);
        let r4 = m(f[0], g[4]) + m(f[1], g[3]) + m(f[2], g[2]) + m(f[3], g[1]) + m(f[4], g[0]);
        carry_reduce([r0, r1, r2, r3, r4])
    }

    fn square(self) -> Fe {
        self.mul(self)
    }

    fn mul_small(self, scalar: u64) -> Fe {
        let f = self.0;
        let r: [u128; 5] = [
            (f[0] as u128) * scalar as u128,
            (f[1] as u128) * scalar as u128,
            (f[2] as u128) * scalar as u128,
            (f[3] as u128) * scalar as u128,
            (f[4] as u128) * scalar as u128,
        ];
        carry_reduce(r)
    }

    /// Computes the multiplicative inverse via Fermat's little theorem
    /// (exponentiation to p − 2).
    fn invert(self) -> Fe {
        // p - 2 = 2^255 - 21, little-endian bytes: 0xeb, 0xff × 30, 0x7f.
        let mut exponent = [0xffu8; 32];
        exponent[0] = 0xeb;
        exponent[31] = 0x7f;
        let mut result = Fe::ONE;
        // Square-and-multiply, scanning bits from the most significant.
        for bit in (0..255).rev() {
            result = result.square();
            if (exponent[bit / 8] >> (bit % 8)) & 1 == 1 {
                result = result.mul(self);
            }
        }
        result
    }
}

/// Carries a 5-limb `u128` accumulator back into 51-bit limbs (with the
/// 2^255 ≡ 19 fold).
fn carry_reduce(r: [u128; 5]) -> Fe {
    let mut l = [0u64; 5];
    let mut carry: u128 = 0;
    for i in 0..5 {
        let v = r[i] + carry;
        l[i] = (v as u64) & MASK51;
        carry = v >> 51;
    }
    // carry is at most ~2^77/2^51; fold it back through the 19 multiplier.
    let mut acc = (l[0] as u128) + carry * 19;
    l[0] = (acc as u64) & MASK51;
    acc >>= 51;
    let mut i = 1;
    while acc != 0 && i < 5 {
        acc += l[i] as u128;
        l[i] = (acc as u64) & MASK51;
        acc >>= 51;
        i += 1;
    }
    if acc != 0 {
        // Extremely rare final wrap-around.
        l[0] += (acc as u64) * 19;
    }
    Fe(l).weak_reduce()
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
    let mut swap = 0u8;

    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        if swap == 1 {
            std::mem::swap(&mut x2, &mut x3);
            std::mem::swap(&mut z2, &mut z3);
        }
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
    if swap == 1 {
        std::mem::swap(&mut x2, &mut x3);
        std::mem::swap(&mut z2, &mut z3);
    }
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

    #[test]
    fn field_roundtrip_and_identities() {
        let a = Fe::from_bytes(&[42u8; 32]);
        assert_eq!(Fe::from_bytes(&a.to_bytes()).to_bytes(), a.to_bytes());
        assert_eq!(a.mul(Fe::ONE).to_bytes(), a.weak_reduce().to_bytes());
        assert_eq!(a.sub(a).to_bytes(), Fe::ZERO.to_bytes());
        let inv = a.invert();
        assert_eq!(a.mul(inv).to_bytes(), Fe::ONE.to_bytes());
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
