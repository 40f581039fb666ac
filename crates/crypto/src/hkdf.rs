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

/// HKDF-Expand: expands a pseudo-random key into `len` bytes of output
/// keying material, bound to `info`.
///
/// # Panics
///
/// Panics if `len > MAX_OUTPUT_LEN`.
pub(crate) fn expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= MAX_OUTPUT_LEN, "HKDF output too long ({len} bytes)");
    let mut okm = Vec::with_capacity(len);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter: u8 = 1;
    while okm.len() < len {
        let mut h = HmacSha256::new(prk);
        h.update(&previous);
        h.update(info);
        h.update(&[counter]);
        let block = h.finalize();
        let take = (len - okm.len()).min(DIGEST_LEN);
        okm.extend_from_slice(&block[..take]);
        previous = block.to_vec();
        counter = counter.wrapping_add(1);
    }
    okm
}

/// Convenience one-shot HKDF (extract then expand).
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    expand(&extract(salt, ikm), info, len)
}

/// Derives a fixed-size 32-byte key, the common case for AEAD keys.
pub fn derive_key(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; 32] {
    let okm = derive(salt, ikm, info, 32);
    let mut key = [0u8; 32];
    key.copy_from_slice(&okm);
    key
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
        let okm = expand(&prk, &info, 42);
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
        let okm = derive(&salt, &ikm, &info, 82);
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
        let okm = derive(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn derive_key_is_prefix_of_longer_output() {
        let key = derive_key(b"salt", b"ikm", b"info");
        let longer = derive(b"salt", b"ikm", b"info", 64);
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
        let _ = expand(&prk, b"", MAX_OUTPUT_LEN + 1);
    }
}
