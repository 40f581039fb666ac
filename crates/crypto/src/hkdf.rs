//! HKDF-SHA-256 (RFC 5869).
//!
//! Used to derive:
//! * per-direction channel keys from the X25519 shared secret established
//!   after remote attestation,
//! * enclave sealing keys from the (simulated) hardware root key and the
//!   enclave measurement,
//! * the simulated attestation service's report keys.

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;

/// Maximum output length allowed by RFC 5869 (255 blocks).
pub(crate) const MAX_OUTPUT_LEN: usize = 255 * DIGEST_LEN;

/// HKDF-Extract: derives a pseudo-random key from input keying material.
pub(crate) fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    HmacSha256::mac(salt, ikm)
}

/// HKDF-Expand: expands a pseudo-random key into `N` bytes of output
/// keying material, bound to `info`.
///
/// # Panics
///
/// Panics if `N > MAX_OUTPUT_LEN`.
pub(crate) fn expand<const N: usize>(prk: &[u8], info: &[u8]) -> [u8; N] {
    assert!(N <= MAX_OUTPUT_LEN, "HKDF output too long ({N} bytes)");
    let mut okm = [0u8; N];
    let mut previous = [0u8; DIGEST_LEN];
    // At most 255 blocks, so the one-byte counter 1..=255 never wraps.
    for (counter, chunk) in (1..=u8::MAX).zip(okm.chunks_mut(DIGEST_LEN)) {
        let mut h = HmacSha256::new(prk);
        if counter > 1 {
            h.update(&previous);
        }
        h.update(info);
        h.update(&[counter]);
        previous = h.finalize();
        chunk.copy_from_slice(&previous[..chunk.len()]);
    }
    okm
}

/// Convenience one-shot HKDF (extract then expand).
pub fn derive<const N: usize>(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; N] {
    expand(&extract(salt, ikm), info)
}

/// Derives a fixed-size 32-byte key, the common case for AEAD keys.
pub fn derive_key(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; 32] {
    derive(salt, ikm, info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, hex};

    // RFC 5869 Appendix A test vectors (SHA-256).
    #[test]
    fn rfc5869_case_1() {
        let ikm = vec![0x0b; 22];
        let salt = from_hex("000102030405060708090a0b0c").unwrap();
        let info = from_hex("f0f1f2f3f4f5f6f7f8f9").unwrap();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm: [u8; 42] = expand(&prk, &info);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_2_long() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let okm: [u8; 82] = derive(&salt, &ikm, &info);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn rfc5869_case_3_empty_salt_info() {
        let ikm = vec![0x0b; 22];
        let okm: [u8; 42] = derive(&[], &ikm, &[]);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn derive_key_is_prefix_of_longer_output() {
        let key = derive_key(b"salt", b"ikm", b"info");
        let longer: [u8; 64] = derive(b"salt", b"ikm", b"info");
        assert_eq!(&key[..], &longer[..32]);
    }

    #[test]
    fn different_info_different_keys() {
        let a = derive_key(b"salt", b"ikm", b"client->relay");
        let b = derive_key(b"salt", b"ikm", b"relay->client");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn expand_rejects_oversized_output() {
        let prk = extract(b"salt", b"ikm");
        let _: [u8; MAX_OUTPUT_LEN + 1] = expand(&prk, b"");
    }
}
