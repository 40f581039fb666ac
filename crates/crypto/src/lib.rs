//! Cryptographic primitives for the CYCLOSA reproduction.
//!
//! The paper links an SGX-compatible mbedTLS into the enclave so that relayed
//! queries are never visible in plaintext outside an enclave (paper §V-F).
//! This crate provides the equivalent building blocks, implemented from
//! scratch against their RFC test vectors so that the reproduction has no
//! external cryptography dependency:
//!
//! * [`sha256`] — the SHA-256 hash (FIPS 180-4), also used for enclave
//!   measurements in `cyclosa-sgx`.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), used for key confirmation and the
//!   simulated attestation signatures.
//! * [`hkdf`] — HKDF (RFC 5869), used to derive channel and sealing keys.
//! * [`chacha20`] / [`poly1305`] / [`aead`] — the ChaCha20-Poly1305 AEAD
//!   (RFC 8439) protecting every inter-enclave and enclave-to-engine record.
//! * [`x25519`] — Diffie–Hellman over Curve25519 (RFC 7748) for the
//!   attested key exchange between enclaves.
//! * [`channel`] — a small record protocol combining the above: an
//!   ephemeral X25519 handshake bound to attestation evidence, then
//!   AEAD-protected records with sequence-number nonces.
//!
//! # Security note
//!
//! These implementations favour clarity over side-channel resistance; they
//! are intended for the simulation environment of this reproduction, not for
//! protecting real traffic.
//!
//! # Example
//!
//! ```
//! use cyclosa_crypto::aead::ChaCha20Poly1305;
//!
//! let key = [7u8; 32];
//! let cipher = ChaCha20Poly1305::new(&key);
//! let nonce = [0u8; 12];
//! let sealed = cipher.seal(&nonce, b"query: neuchatel weather", b"header");
//! let opened = cipher.open(&nonce, &sealed, b"header").unwrap();
//! assert_eq!(opened, b"query: neuchatel weather");
//! ```

#![forbid(unsafe_code, dead_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod channel;
pub mod hkdf;
pub mod hmac;
pub mod poly1305;
pub mod sha256;
pub mod x25519;

/// Constant-time byte-slice equality.
///
/// Returns `false` when the lengths differ. Used for MAC and key-confirmation
/// comparisons so that the comparison time does not leak the first differing
/// byte position.
pub(crate) fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_matches_equality() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }
}
