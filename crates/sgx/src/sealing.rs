//! Data sealing: encrypting enclave state for untrusted storage.
//!
//! CYCLOSA keeps its table of past queries inside enclave memory (paper
//! §IV). A node that restarts would lose that table; sealing lets the
//! enclave persist it to untrusted disk such that only the *same enclave
//! code on the same platform* can recover it — exactly the SGX sealing
//! policy (`MRENCLAVE` + platform key).

use crate::enclave::Enclave;
use cyclosa_crypto::aead::{AeadError, ChaCha20Poly1305};
use cyclosa_crypto::sha256::Sha256;

/// Errors returned when unsealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The blob was produced by a different enclave identity or platform, or
    /// has been tampered with.
    Unsealable,
    /// The blob is malformed (truncated header).
    Malformed,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Unsealable => write!(f, "sealed blob cannot be opened by this enclave"),
            SealError::Malformed => write!(f, "sealed blob is malformed"),
        }
    }
}

impl std::error::Error for SealError {}

impl From<AeadError> for SealError {
    fn from(_: AeadError) -> Self {
        SealError::Unsealable
    }
}

/// A sealed blob: ciphertext bound to an enclave identity and platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    /// AEAD nonce derived from the payload digest (sealing is one-shot; the
    /// same plaintext sealed twice produces the same blob, which is
    /// acceptable for state snapshots).
    nonce: [u8; 12],
    /// Ciphertext and tag.
    ciphertext: Vec<u8>,
    /// Associated-data label describing the sealed content.
    label: Vec<u8>,
}

/// Seals `plaintext` under the enclave's sealing key.
///
/// The `label` is authenticated but not encrypted (it tells the untrusted
/// host what the blob is, e.g. `"past-queries-table"`).
pub fn seal<T>(enclave: &Enclave<T>, label: &[u8], plaintext: &[u8]) -> SealedBlob {
    let key = enclave.seal_key();
    let aead = ChaCha20Poly1305::new(&key);
    let digest = Sha256::digest_parts(&[b"seal-nonce", label, plaintext]);
    let mut nonce = [0u8; 12];
    nonce.copy_from_slice(&digest[..12]);
    let ciphertext = aead.seal(&nonce, plaintext, label);
    SealedBlob {
        nonce,
        ciphertext,
        label: label.to_vec(),
    }
}

/// Unseals a blob previously produced by [`seal`] on the same platform with
/// the same enclave measurement.
///
/// # Errors
///
/// Returns [`SealError::Unsealable`] when the blob was sealed by a different
/// enclave/platform or has been modified.
pub fn unseal<T>(enclave: &Enclave<T>, blob: &SealedBlob) -> Result<Vec<u8>, SealError> {
    if blob.ciphertext.len() < 16 {
        return Err(SealError::Malformed);
    }
    let key = enclave.seal_key();
    let aead = ChaCha20Poly1305::new(&key);
    Ok(aead.open(&blob.nonce, &blob.ciphertext, &blob.label)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::Platform;

    #[test]
    fn seal_unseal_roundtrip() {
        let platform = Platform::new(5);
        let enclave = platform.create_enclave(b"cyclosa", ());
        let blob = seal(
            &enclave,
            b"past-queries",
            b"cheap flights geneva\nweather lyon",
        );
        assert!(!blob.ciphertext.is_empty());
        assert_eq!(blob.label, b"past-queries");
        let opened = unseal(&enclave, &blob).unwrap();
        assert_eq!(opened, b"cheap flights geneva\nweather lyon");
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let enclave_a = Platform::new(1).create_enclave(b"cyclosa", ());
        let enclave_b = Platform::new(2).create_enclave(b"cyclosa", ());
        let blob = seal(&enclave_a, b"state", b"secret table");
        assert_eq!(
            unseal(&enclave_b, &blob).unwrap_err(),
            SealError::Unsealable
        );
    }

    #[test]
    fn different_measurement_cannot_unseal() {
        let platform = Platform::new(1);
        let enclave_a = platform.create_enclave(b"cyclosa-v1", ());
        let enclave_b = platform.create_enclave(b"cyclosa-v2", ());
        let blob = seal(&enclave_a, b"state", b"secret table");
        assert_eq!(
            unseal(&enclave_b, &blob).unwrap_err(),
            SealError::Unsealable
        );
    }

    #[test]
    fn tampered_blob_is_rejected() {
        let platform = Platform::new(1);
        let enclave = platform.create_enclave(b"cyclosa", ());
        let mut blob = seal(&enclave, b"state", b"secret table");
        let last = blob.ciphertext.len() - 1;
        blob.ciphertext[last] ^= 0xFF;
        assert_eq!(unseal(&enclave, &blob).unwrap_err(), SealError::Unsealable);
    }

    #[test]
    fn label_is_authenticated() {
        let platform = Platform::new(1);
        let enclave = platform.create_enclave(b"cyclosa", ());
        let mut blob = seal(&enclave, b"past-queries", b"data");
        blob.label = b"fake-label".to_vec();
        assert_eq!(unseal(&enclave, &blob).unwrap_err(), SealError::Unsealable);
    }

    #[test]
    fn truncated_blob_is_malformed() {
        let platform = Platform::new(1);
        let enclave = platform.create_enclave(b"cyclosa", ());
        let mut blob = seal(&enclave, b"state", b"data");
        blob.ciphertext.truncate(4);
        assert_eq!(unseal(&enclave, &blob).unwrap_err(), SealError::Malformed);
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let platform = Platform::new(1);
        let enclave = platform.create_enclave(b"cyclosa", ());
        let blob = seal(&enclave, b"empty", b"");
        assert_eq!(unseal(&enclave, &blob).unwrap(), Vec::<u8>::new());
    }
}
