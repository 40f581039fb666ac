//! Remote attestation: quotes, the simulated attestation service, and the
//! binding of attestation evidence to secure channels.
//!
//! Paper §V-D: while bootstrapping, a CYCLOSA client challenges every
//! connecting enclave to send a *quote* — a structure containing the hash of
//! the enclave code and key material — which is (1) checked against a known
//! hash value and (2) forwarded to the Intel Attestation Service (IAS) to
//! verify that it originates from a genuine SGX platform.
//!
//! The simulation reproduces that flow with symmetric primitives:
//!
//! * each [`crate::enclave::Platform`] owns a *quoting key* (the EPID
//!   analogue) that is provisioned to the [`AttestationService`];
//! * a [`Quote`] carries the enclave measurement, caller-chosen report data
//!   (CYCLOSA binds the X25519 public key here) and an HMAC under the
//!   quoting key;
//! * the service checks the HMAC against the set of provisioned platforms
//!   and returns a `QuoteVerdict`;
//! * relying parties additionally check the measurement against the set of
//!   known-good CYCLOSA builds before accepting a channel.

use crate::enclave::Enclave;
use crate::measurement::Measurement;
use cyclosa_crypto::hmac::HmacSha256;
use std::collections::BTreeSet;

/// Report data length (binds caller data, e.g. a public key, into a quote).
pub(crate) const REPORT_DATA_LEN: usize = 64;

/// Errors arising during attestation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestationError {
    /// The quote signature does not verify under any provisioned platform.
    UnknownPlatform,
    /// The quote signature is invalid (forged or corrupted quote).
    InvalidSignature,
    /// The enclave measurement is not in the relying party's allow-list.
    UnknownMeasurement,
    /// The quote could not be decoded.
    Malformed,
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestationError::UnknownPlatform => write!(f, "quote from an unprovisioned platform"),
            AttestationError::InvalidSignature => write!(f, "quote signature verification failed"),
            AttestationError::UnknownMeasurement => {
                write!(f, "enclave measurement not in the allow-list")
            }
            AttestationError::Malformed => write!(f, "malformed quote"),
        }
    }
}

impl std::error::Error for AttestationError {}

/// An enclave quote: the evidence a node presents during the handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Measurement of the quoted enclave.
    pub(crate) measurement: Measurement,
    /// Identifier of the platform that produced the quote.
    pub(crate) platform_id: [u8; 16],
    /// Caller-provided data bound into the quote (e.g. a handshake key).
    pub(crate) report_data: [u8; REPORT_DATA_LEN],
    /// Authentication tag under the platform's quoting key.
    pub(crate) signature: [u8; 32],
}

impl Quote {
    /// Serializes the quote to bytes (used as handshake evidence).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 16 + REPORT_DATA_LEN + 32);
        out.extend_from_slice(self.measurement.as_bytes());
        out.extend_from_slice(&self.platform_id);
        out.extend_from_slice(&self.report_data);
        out.extend_from_slice(&self.signature);
        out
    }

    fn signed_payload(
        measurement: &Measurement,
        platform_id: &[u8; 16],
        report_data: &[u8],
    ) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32 + 16 + REPORT_DATA_LEN);
        payload.extend_from_slice(b"cyclosa-quote-v1");
        payload.extend_from_slice(measurement.as_bytes());
        payload.extend_from_slice(platform_id);
        payload.extend_from_slice(report_data);
        payload
    }
}

/// Produces a quote for `enclave` binding `report_data` (truncated or
/// zero-padded to `REPORT_DATA_LEN`).
pub fn generate_quote<T>(enclave: &Enclave<T>, report_data: &[u8]) -> Quote {
    let mut data = [0u8; REPORT_DATA_LEN];
    let take = report_data.len().min(REPORT_DATA_LEN);
    data[..take].copy_from_slice(&report_data[..take]);
    let measurement = enclave.measurement();
    let platform_id = enclave.platform_id();
    let payload = Quote::signed_payload(&measurement, &platform_id, &data);
    let signature = HmacSha256::mac(&enclave.quoting_key(), &payload);
    Quote {
        measurement,
        platform_id,
        report_data: data,
        signature,
    }
}

/// The verdict issued by the attestation service for one quote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QuoteVerdict {
    /// The quote is genuine (valid signature from a provisioned platform).
    Genuine,
    /// The quote is not genuine.
    Rejected(AttestationError),
}

/// A simulated Intel Attestation Service.
///
/// Platforms are *provisioned* (their quoting keys registered) before they
/// can produce verifiable quotes, mirroring EPID provisioning.
#[derive(Debug, Default)]
pub struct AttestationService {
    /// Quoting keys by platform id.
    provisioned: Vec<([u8; 16], [u8; 32])>,
    /// Measurements the relying parties accept.
    allowed_measurements: BTreeSet<Measurement>,
}

impl AttestationService {
    /// Creates an empty service with no provisioned platforms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a platform's quoting key (EPID provisioning analogue).
    pub fn provision_platform(&mut self, platform: &crate::enclave::Platform) {
        let entry = (platform.platform_id(), platform.quoting_key());
        if !self.provisioned.iter().any(|(id, _)| *id == entry.0) {
            self.provisioned.push(entry);
        }
    }

    /// Adds a measurement to the allow-list of known CYCLOSA builds.
    pub fn allow_measurement(&mut self, measurement: Measurement) {
        self.allowed_measurements.insert(measurement);
    }

    /// Verifies that a quote was produced by a genuine provisioned platform.
    pub(crate) fn verify_genuine(&self, quote: &Quote) -> QuoteVerdict {
        let Some((_, key)) = self
            .provisioned
            .iter()
            .find(|(id, _)| *id == quote.platform_id)
        else {
            return QuoteVerdict::Rejected(AttestationError::UnknownPlatform);
        };
        let payload =
            Quote::signed_payload(&quote.measurement, &quote.platform_id, &quote.report_data);
        if HmacSha256::verify(key, &payload, &quote.signature) {
            QuoteVerdict::Genuine
        } else {
            QuoteVerdict::Rejected(AttestationError::InvalidSignature)
        }
    }

    /// Full relying-party check: the platform must be genuine *and* the
    /// measurement must be a known CYCLOSA build.
    ///
    /// # Errors
    ///
    /// Returns the specific [`AttestationError`] explaining the rejection.
    pub fn verify_for_cyclosa(&self, quote: &Quote) -> Result<(), AttestationError> {
        match self.verify_genuine(quote) {
            QuoteVerdict::Genuine => {}
            QuoteVerdict::Rejected(e) => return Err(e),
        }
        if !self.allowed_measurements.contains(&quote.measurement) {
            return Err(AttestationError::UnknownMeasurement);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::Platform;

    fn setup() -> (Platform, AttestationService) {
        let platform = Platform::new(77);
        let mut service = AttestationService::new();
        service.provision_platform(&platform);
        service.allow_measurement(Measurement::from_code_identity(b"cyclosa"));
        (platform, service)
    }

    #[test]
    fn genuine_quote_verifies() {
        let (platform, service) = setup();
        let enclave = platform.create_enclave(b"cyclosa", ());
        let quote = generate_quote(&enclave, b"handshake public key bytes");
        assert_eq!(service.verify_genuine(&quote), QuoteVerdict::Genuine);
        assert!(service.verify_for_cyclosa(&quote).is_ok());
    }

    #[test]
    fn unprovisioned_platform_is_rejected() {
        let (_, service) = setup();
        let rogue_platform = Platform::new(666);
        let enclave = rogue_platform.create_enclave(b"cyclosa", ());
        let quote = generate_quote(&enclave, b"");
        assert_eq!(
            service.verify_for_cyclosa(&quote),
            Err(AttestationError::UnknownPlatform)
        );
    }

    #[test]
    fn unknown_measurement_is_rejected() {
        let (platform, service) = setup();
        let enclave = platform.create_enclave(b"not-cyclosa", ());
        let quote = generate_quote(&enclave, b"");
        assert_eq!(service.verify_genuine(&quote), QuoteVerdict::Genuine);
        assert_eq!(
            service.verify_for_cyclosa(&quote),
            Err(AttestationError::UnknownMeasurement)
        );
    }

    #[test]
    fn forged_signature_is_rejected() {
        let (platform, service) = setup();
        let enclave = platform.create_enclave(b"cyclosa", ());
        let mut quote = generate_quote(&enclave, b"key");
        quote.signature[0] ^= 1;
        assert_eq!(
            service.verify_genuine(&quote),
            QuoteVerdict::Rejected(AttestationError::InvalidSignature)
        );
    }

    #[test]
    fn tampered_report_data_is_rejected() {
        let (platform, service) = setup();
        let enclave = platform.create_enclave(b"cyclosa", ());
        let mut quote = generate_quote(&enclave, b"alice's key");
        quote.report_data[0] ^= 1;
        assert_ne!(service.verify_genuine(&quote), QuoteVerdict::Genuine);
    }

    #[test]
    fn quote_serialization_roundtrip() {
        let (platform, _) = setup();
        let enclave = platform.create_enclave(b"cyclosa", ());
        let quote = generate_quote(&enclave, b"report");
        let bytes = quote.to_bytes();
        let (measurement, rest) = bytes.split_at(32);
        let (platform_id, rest) = rest.split_at(16);
        let (report_data, signature) = rest.split_at(REPORT_DATA_LEN);
        assert_eq!(measurement, quote.measurement.as_bytes());
        assert_eq!(platform_id, quote.platform_id);
        assert_eq!(report_data, quote.report_data);
        assert_eq!(signature, quote.signature);
    }

    #[test]
    fn report_data_longer_than_field_is_truncated() {
        let (platform, _) = setup();
        let enclave = platform.create_enclave(b"cyclosa", ());
        let long = vec![0xAB; 200];
        let quote = generate_quote(&enclave, &long);
        assert_eq!(&quote.report_data[..], &long[..REPORT_DATA_LEN]);
    }

    #[test]
    fn provisioning_is_idempotent() {
        let (platform, mut service) = setup();
        service.provision_platform(&platform);
        service.provision_platform(&platform);
        assert_eq!(service.provisioned.len(), 1);
    }

    #[test]
    fn error_display() {
        assert!(AttestationError::UnknownMeasurement
            .to_string()
            .contains("allow-list"));
        assert!(AttestationError::InvalidSignature
            .to_string()
            .contains("signature"));
    }
}
