//! The ChaCha20-Poly1305 AEAD construction (RFC 8439 §2.8).
//!
//! Every message that leaves a CYCLOSA enclave — query forwarding requests,
//! relayed responses, attestation transcripts — is protected by this AEAD
//! under keys derived from the attested X25519 handshake.

use crate::chacha20::{ChaCha20, NONCE_LEN};
use crate::poly1305::{Poly1305, TAG_LEN};

/// Errors returned by the AEAD open operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// The ciphertext is shorter than the authentication tag.
    CiphertextTooShort,
    /// The authentication tag did not verify (wrong key, nonce, associated
    /// data, or tampered ciphertext).
    TagMismatch,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::CiphertextTooShort => write!(f, "ciphertext shorter than the tag"),
            AeadError::TagMismatch => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for AeadError {}

/// A ChaCha20-Poly1305 AEAD cipher keyed with a 256-bit key.
#[derive(Debug, Clone)]
pub struct ChaCha20Poly1305 {
    cipher: ChaCha20,
}

impl ChaCha20Poly1305 {
    /// Creates an AEAD instance from a 32-byte key.
    pub fn new(key: &[u8; 32]) -> Self {
        Self {
            cipher: ChaCha20::new(key),
        }
    }

    /// Encrypts `plaintext` and authenticates it together with `aad`.
    /// Returns `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut ciphertext = Vec::with_capacity(plaintext.len() + TAG_LEN);
        ciphertext.extend_from_slice(plaintext);
        self.cipher.apply_keystream(nonce, 1, &mut ciphertext);
        let tag = self.compute_tag(nonce, aad, &ciphertext);
        ciphertext.extend_from_slice(&tag);
        ciphertext
    }

    /// Verifies and decrypts `ciphertext || tag` produced by [`Self::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`AeadError::CiphertextTooShort`] if the input cannot contain
    /// a tag and [`AeadError::TagMismatch`] if authentication fails.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        ciphertext_and_tag: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, AeadError> {
        if ciphertext_and_tag.len() < TAG_LEN {
            return Err(AeadError::CiphertextTooShort);
        }
        let split = ciphertext_and_tag.len() - TAG_LEN;
        let (ciphertext, tag) = ciphertext_and_tag.split_at(split);
        let expected = self.compute_tag(nonce, aad, ciphertext);
        if !crate::ct_eq(&expected, tag) {
            return Err(AeadError::TagMismatch);
        }
        let mut plaintext = ciphertext.to_vec();
        self.cipher.apply_keystream(nonce, 1, &mut plaintext);
        Ok(plaintext)
    }

    /// Derives the one-time Poly1305 key (block 0 of the keystream) and
    /// computes the RFC 8439 MAC over `aad || pad || ciphertext || pad ||
    /// len(aad) || len(ciphertext)`.
    fn compute_tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let block0 = self.cipher.block(nonce, 0);
        let mut poly_key = [0u8; 32];
        poly_key.copy_from_slice(&block0[..32]);
        let mut mac = Poly1305::new(&poly_key);
        mac.update(aad);
        mac.update(zero_pad(aad.len()));
        mac.update(ciphertext);
        mac.update(zero_pad(ciphertext.len()));
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.finalize()
    }
}

/// Returns the padding needed to round `len` up to a multiple of 16.
fn zero_pad(len: usize) -> &'static [u8] {
    static ZEROS: [u8; 16] = [0; 16];
    &ZEROS[..(16 - (len % 16)) % 16]
}

/// Builds a 12-byte nonce from a 32-bit channel id and a 64-bit sequence
/// number. Each (key, direction) pair uses its own sequence counter so that
/// nonces never repeat under the same key.
pub(crate) fn nonce_from_sequence(channel_id: u32, sequence: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&channel_id.to_le_bytes());
    nonce[4..].copy_from_slice(&sequence.to_le_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, hex};

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2.
        let key: [u8; 32] =
            from_hex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .unwrap()
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = from_hex("070000004041424344454647")
            .unwrap()
            .try_into()
            .unwrap();
        let aad = from_hex("50515253c0c1c2c3c4c5c6c7").unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, plaintext, &aad);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(
            hex(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");
        // Round trip.
        assert_eq!(
            aead.open(&nonce, &sealed, &aad).unwrap(),
            plaintext.to_vec()
        );
    }

    #[test]
    fn open_rejects_tampered_ciphertext() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let nonce = [2u8; 12];
        let mut sealed = aead.seal(&nonce, b"real query", b"");
        sealed[0] ^= 0x01;
        assert_eq!(aead.open(&nonce, &sealed, b""), Err(AeadError::TagMismatch));
    }

    #[test]
    fn open_rejects_wrong_aad() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let nonce = [2u8; 12];
        let sealed = aead.seal(&nonce, b"real query", b"relay-3");
        assert_eq!(
            aead.open(&nonce, &sealed, b"relay-4"),
            Err(AeadError::TagMismatch)
        );
    }

    #[test]
    fn open_rejects_wrong_nonce_or_key() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let sealed = aead.seal(&[2u8; 12], b"msg", b"");
        assert!(aead.open(&[3u8; 12], &sealed, b"").is_err());
        let other = ChaCha20Poly1305::new(&[9u8; 32]);
        assert!(other.open(&[2u8; 12], &sealed, b"").is_err());
    }

    #[test]
    fn open_rejects_truncated_input() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        assert_eq!(
            aead.open(&[0u8; 12], &[0u8; 5], b""),
            Err(AeadError::CiphertextTooShort)
        );
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let aead = ChaCha20Poly1305::new(&[4u8; 32]);
        let nonce = [9u8; 12];
        let sealed = aead.seal(&nonce, b"", b"header");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(
            aead.open(&nonce, &sealed, b"header").unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn nonce_from_sequence_is_unique_per_sequence() {
        let a = nonce_from_sequence(7, 1);
        let b = nonce_from_sequence(7, 2);
        let c = nonce_from_sequence(8, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn aead_error_display() {
        assert!(AeadError::TagMismatch.to_string().contains("tag"));
        assert!(AeadError::CiphertextTooShort
            .to_string()
            .contains("shorter"));
    }
}
