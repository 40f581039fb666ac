//! Enclave identity: measurements of enclave code and signers.
//!
//! On real SGX hardware, `MRENCLAVE` is a SHA-256 over the enclave's initial
//! memory contents and `MRSIGNER` identifies the key that signed the enclave.
//! The simulation computes the same kind of digest over a *code identity*
//! byte string (crate name, version and a build tag), which is what CYCLOSA
//! checks during remote attestation: "the quote is checked for a known hash
//! value" (paper §V-D).

use cyclosa_crypto::sha256::{hex, Sha256};

/// A 256-bit enclave measurement (the `MRENCLAVE` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Measurement([u8; 32]);

impl Measurement {
    /// Computes a measurement from an arbitrary code-identity byte string.
    pub fn from_code_identity(identity: &[u8]) -> Self {
        Self(Sha256::digest_parts(&[b"cyclosa-mrenclave-v1", identity]))
    }

    /// The measurement of the reference CYCLOSA enclave built by this
    /// workspace — the value every honest node expects its peers to run.
    pub fn cyclosa_reference() -> Self {
        Self::from_code_identity(b"cyclosa-enclave/0.1.0/reference-build")
    }

    /// A measurement representing an unknown / tampered enclave build, used
    /// by tests and by Byzantine-node experiments.
    pub fn rogue(tag: &str) -> Self {
        Self::from_code_identity(format!("rogue-enclave/{tag}").as_bytes())
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hexadecimal rendering (for logs and reports).
    pub(crate) fn to_hex(self) -> String {
        hex(&self.0)
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", &self.to_hex()[..16])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_deterministic() {
        let a = Measurement::from_code_identity(b"build-1");
        let b = Measurement::from_code_identity(b"build-1");
        let c = Measurement::from_code_identity(b"build-2");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn reference_differs_from_rogue() {
        assert_ne!(Measurement::cyclosa_reference(), Measurement::rogue("evil"));
        assert_ne!(Measurement::rogue("a"), Measurement::rogue("b"));
    }

    #[test]
    fn hex_and_display() {
        let m = Measurement::cyclosa_reference();
        assert_eq!(m.to_hex().len(), 64);
        assert_eq!(format!("{m}").len(), 16);
    }
}
