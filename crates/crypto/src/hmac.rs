//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used by the HKDF key-derivation, by the handshake key-confirmation
//! messages, and by the simulated Intel Attestation Service in `cyclosa-sgx`
//! to sign attestation verification reports.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// An incremental HMAC-SHA-256 computation.
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer_key_pad: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub(crate) fn new(key: &[u8]) -> Self {
        // Keys longer than one block are hashed first, shorter keys are
        // zero-padded, per RFC 2104.
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block_key[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut inner_pad = [0u8; BLOCK_LEN];
        let mut outer_pad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            inner_pad[i] = block_key[i] ^ 0x36;
            outer_pad[i] = block_key[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&inner_pad);
        Self {
            inner,
            outer_key_pad: outer_pad,
        }
    }

    /// Absorbs message data.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the computation and returns the 32-byte tag.
    pub(crate) fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.outer_key_pad);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verifies a tag in constant time.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        crate::ct_eq(&Self::mac(key, data), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, hex};

    // Test vectors from RFC 4231.
    #[test]
    fn rfc4231_case_1() {
        let key = vec![0x0b; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&HmacSha256::mac(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let key = b"Jefe";
        let data = b"what do ya want for nothing?";
        assert_eq!(
            hex(&HmacSha256::mac(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = vec![0xaa; 20];
        let data = vec![0xdd; 50];
        assert_eq!(
            hex(&HmacSha256::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key = from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819").unwrap();
        let data = vec![0xcd; 50];
        assert_eq!(
            hex(&HmacSha256::mac(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = vec![0xaa; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&HmacSha256::mac(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = vec![0xaa; 131];
        let data: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            hex(&HmacSha256::mac(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"secret key";
        let mut h = HmacSha256::new(key);
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), HmacSha256::mac(key, b"part one part two"));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = HmacSha256::mac(b"k", b"msg");
        assert!(HmacSha256::verify(b"k", b"msg", &tag));
        assert!(!HmacSha256::verify(b"k", b"msg2", &tag));
        assert!(!HmacSha256::verify(b"k2", b"msg", &tag));
        assert!(!HmacSha256::verify(b"k", b"msg", &tag[..16]));
    }
}
