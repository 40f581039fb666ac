//! An attestation-bound secure channel.
//!
//! CYCLOSA nodes only exchange queries after mutually attesting their
//! enclaves (paper §V-D). The handshake implemented here mirrors that flow:
//!
//! 1. the initiator sends its ephemeral X25519 public key together with its
//!    attestation *evidence* (an opaque byte string produced by
//!    `cyclosa-sgx`, e.g. a quote);
//! 2. the responder replies with its own key and evidence plus a key
//!    confirmation tag computed over the handshake transcript;
//! 3. both sides derive two directional ChaCha20-Poly1305 keys with HKDF,
//!    bound to the transcript hash (and therefore to the exchanged
//!    evidence — swapping the evidence breaks the confirmation tag).
//!
//! Whether the evidence is *acceptable* (correct measurement, genuine
//! platform) is decided by the caller — the SGX simulation layer — before
//! the handshake is completed; this module only guarantees that the keys are
//! cryptographically bound to whatever evidence was exchanged.

use crate::aead::{nonce_from_sequence, AeadError, ChaCha20Poly1305};
use crate::hkdf;
use crate::hmac::HmacSha256;
use crate::sha256::Sha256;
use crate::x25519::{PublicKey, StaticSecret};

/// Errors produced by the handshake or the record layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The peer's key confirmation tag did not verify.
    KeyConfirmationFailed,
    /// The Diffie–Hellman exchange produced an all-zero shared secret
    /// (low-order public key).
    DegenerateSharedSecret,
    /// A record failed authentication or was replayed / reordered.
    Record(AeadError),
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::KeyConfirmationFailed => write!(f, "key confirmation tag mismatch"),
            ChannelError::DegenerateSharedSecret => {
                write!(f, "degenerate (all-zero) Diffie-Hellman shared secret")
            }
            ChannelError::Record(e) => write!(f, "record protection failure: {e}"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<AeadError> for ChannelError {
    fn from(e: AeadError) -> Self {
        ChannelError::Record(e)
    }
}

/// First handshake message (initiator → responder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HandshakeInit {
    /// The initiator's ephemeral public key.
    pub(crate) public_key: PublicKey,
    /// Opaque attestation evidence (e.g. an SGX quote).
    pub(crate) evidence: Vec<u8>,
}

/// Second handshake message (responder → initiator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HandshakeResponse {
    /// The responder's ephemeral public key.
    pub(crate) public_key: PublicKey,
    /// Opaque attestation evidence of the responder.
    pub(crate) evidence: Vec<u8>,
    /// HMAC over the transcript proving the responder derived the same keys.
    pub(crate) confirmation: [u8; 32],
}

/// Initiator side of the handshake.
#[derive(Debug)]
pub(crate) struct HandshakeInitiator {
    secret: StaticSecret,
    evidence: Vec<u8>,
}

impl HandshakeInitiator {
    /// Creates an initiator from an ephemeral secret and its attestation
    /// evidence, returning the first message to send.
    pub(crate) fn new(secret: StaticSecret, evidence: Vec<u8>) -> (Self, HandshakeInit) {
        let msg = HandshakeInit {
            public_key: secret.public_key(),
            evidence: evidence.clone(),
        };
        (Self { secret, evidence }, msg)
    }

    /// Processes the responder's reply, verifying key confirmation and the
    /// binding to both parties' evidence.
    ///
    /// # Errors
    ///
    /// Fails when the shared secret is degenerate or the confirmation tag
    /// does not verify.
    pub(crate) fn finish(
        self,
        response: &HandshakeResponse,
    ) -> Result<SecureChannel, ChannelError> {
        let shared = self.secret.diffie_hellman(&response.public_key);
        if shared.is_zero() {
            return Err(ChannelError::DegenerateSharedSecret);
        }
        let transcript = transcript_hash(
            &self.secret.public_key(),
            &response.public_key,
            &self.evidence,
            &response.evidence,
        );
        let keys = DerivedKeys::derive(shared.as_bytes(), &transcript);
        if !HmacSha256::verify(&keys.confirm_key, &transcript, &response.confirmation) {
            return Err(ChannelError::KeyConfirmationFailed);
        }
        Ok(SecureChannel::new(keys, Role::Initiator))
    }
}

/// Responder side of the handshake.
#[derive(Debug)]
pub(crate) struct HandshakeResponder;

impl HandshakeResponder {
    /// Processes the initiator's message and produces both the response and
    /// the responder's channel.
    ///
    /// # Errors
    ///
    /// Fails when the shared secret is degenerate.
    pub(crate) fn respond(
        secret: StaticSecret,
        evidence: Vec<u8>,
        init: &HandshakeInit,
    ) -> Result<(HandshakeResponse, SecureChannel), ChannelError> {
        let shared = secret.diffie_hellman(&init.public_key);
        if shared.is_zero() {
            return Err(ChannelError::DegenerateSharedSecret);
        }
        let transcript = transcript_hash(
            &init.public_key,
            &secret.public_key(),
            &init.evidence,
            &evidence,
        );
        let keys = DerivedKeys::derive(shared.as_bytes(), &transcript);
        let confirmation = HmacSha256::mac(&keys.confirm_key, &transcript);
        let response = HandshakeResponse {
            public_key: secret.public_key(),
            evidence,
            confirmation,
        };
        Ok((response, SecureChannel::new(keys, Role::Responder)))
    }
}

fn transcript_hash(
    initiator: &PublicKey,
    responder: &PublicKey,
    init_evidence: &[u8],
    resp_evidence: &[u8],
) -> [u8; 32] {
    Sha256::digest_parts(&[
        b"cyclosa-handshake-v1",
        initiator.as_bytes(),
        responder.as_bytes(),
        &(init_evidence.len() as u64).to_le_bytes(),
        init_evidence,
        &(resp_evidence.len() as u64).to_le_bytes(),
        resp_evidence,
    ])
}

#[derive(Debug, Clone)]
struct DerivedKeys {
    initiator_to_responder: [u8; 32],
    responder_to_initiator: [u8; 32],
    confirm_key: [u8; 32],
    channel_id: u32,
}

impl DerivedKeys {
    fn derive(shared: &[u8; 32], transcript: &[u8; 32]) -> Self {
        let prk = hkdf::extract(transcript, shared);
        Self {
            initiator_to_responder: hkdf::expand(&prk, b"cyclosa channel initiator->responder"),
            responder_to_initiator: hkdf::expand(&prk, b"cyclosa channel responder->initiator"),
            confirm_key: hkdf::expand(&prk, b"cyclosa key confirmation"),
            channel_id: u32::from_le_bytes(hkdf::expand(&prk, b"cyclosa channel id")),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Initiator,
    Responder,
}

/// An established bidirectional secure channel.
///
/// Records must be delivered in order per direction (the simulation's network
/// layer guarantees this); each direction uses an independent key and a
/// monotonically increasing sequence number as the AEAD nonce.
#[derive(Debug)]
pub struct SecureChannel {
    send: ChaCha20Poly1305,
    recv: ChaCha20Poly1305,
    channel_id: u32,
    send_seq: u64,
    recv_seq: u64,
}

impl SecureChannel {
    fn new(keys: DerivedKeys, role: Role) -> Self {
        let (send_key, recv_key) = match role {
            Role::Initiator => (keys.initiator_to_responder, keys.responder_to_initiator),
            Role::Responder => (keys.responder_to_initiator, keys.initiator_to_responder),
        };
        Self {
            send: ChaCha20Poly1305::new(&send_key),
            recv: ChaCha20Poly1305::new(&recv_key),
            channel_id: keys.channel_id,
            send_seq: 0,
            recv_seq: 0,
        }
    }

    /// A stable identifier derived from the handshake, equal on both ends.
    pub fn channel_id(&self) -> u32 {
        self.channel_id
    }

    /// Encrypts and authenticates `plaintext` with the given associated data.
    pub fn seal(&mut self, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let nonce = nonce_from_sequence(self.channel_id, self.send_seq);
        self.send_seq += 1;
        self.send.seal(&nonce, plaintext, aad)
    }

    /// Verifies and decrypts the next incoming record.
    ///
    /// # Errors
    ///
    /// Returns an error if the record is tampered with, replayed or received
    /// out of order (the receive sequence number would not match).
    pub fn open(&mut self, record: &[u8], aad: &[u8]) -> Result<Vec<u8>, ChannelError> {
        let nonce = nonce_from_sequence(self.channel_id, self.recv_seq);
        let plaintext = self.recv.open(&nonce, record, aad)?;
        self.recv_seq += 1;
        Ok(plaintext)
    }
}

/// Establishes a pair of connected channels in one call — convenient for
/// tests and for the in-process simulation where both ends live in the same
/// address space.
pub fn channel_pair(
    initiator_secret: StaticSecret,
    initiator_evidence: Vec<u8>,
    responder_secret: StaticSecret,
    responder_evidence: Vec<u8>,
) -> Result<(SecureChannel, SecureChannel), ChannelError> {
    let (initiator, init_msg) = HandshakeInitiator::new(initiator_secret, initiator_evidence);
    let (response, responder_channel) =
        HandshakeResponder::respond(responder_secret, responder_evidence, &init_msg)?;
    let initiator_channel = initiator.finish(&response)?;
    Ok((initiator_channel, responder_channel))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secrets() -> (StaticSecret, StaticSecret) {
        (
            StaticSecret::from_bytes([11u8; 32]),
            StaticSecret::from_bytes([22u8; 32]),
        )
    }

    #[test]
    fn handshake_establishes_matching_channels() {
        let (a, b) = secrets();
        let (mut alice, mut bob) =
            channel_pair(a, b"alice quote".to_vec(), b, b"bob quote".to_vec()).unwrap();
        assert_eq!(alice.channel_id(), bob.channel_id());

        let record = alice.seal(b"forward: swiss mountain weather", b"fwd");
        let opened = bob.open(&record, b"fwd").unwrap();
        assert_eq!(opened, b"forward: swiss mountain weather");

        let reply = bob.seal(b"results page 1", b"rsp");
        assert_eq!(alice.open(&reply, b"rsp").unwrap(), b"results page 1");
    }

    #[test]
    fn sequence_numbers_produce_distinct_records() {
        let (a, b) = secrets();
        let (mut alice, mut bob) = channel_pair(a, vec![], b, vec![]).unwrap();
        let r1 = alice.seal(b"same payload", b"");
        let r2 = alice.seal(b"same payload", b"");
        assert_ne!(r1, r2, "nonce reuse would leak equality of payloads");
        assert_eq!(bob.open(&r1, b"").unwrap(), b"same payload");
        assert_eq!(bob.open(&r2, b"").unwrap(), b"same payload");
        assert_eq!(alice.send_seq, 2);
    }

    #[test]
    fn replayed_record_is_rejected() {
        let (a, b) = secrets();
        let (mut alice, mut bob) = channel_pair(a, vec![], b, vec![]).unwrap();
        let record = alice.seal(b"query", b"");
        assert!(bob.open(&record, b"").is_ok());
        assert!(matches!(
            bob.open(&record, b""),
            Err(ChannelError::Record(_))
        ));
    }

    #[test]
    fn out_of_order_record_is_rejected() {
        let (a, b) = secrets();
        let (mut alice, mut bob) = channel_pair(a, vec![], b, vec![]).unwrap();
        let _r1 = alice.seal(b"first", b"");
        let r2 = alice.seal(b"second", b"");
        assert!(matches!(bob.open(&r2, b""), Err(ChannelError::Record(_))));
    }

    #[test]
    fn evidence_tampering_breaks_confirmation() {
        let (a, b) = secrets();
        let (initiator, init_msg) = HandshakeInitiator::new(a, b"genuine enclave".to_vec());
        let (mut response, _responder_channel) =
            HandshakeResponder::respond(b, b"responder quote".to_vec(), &init_msg).unwrap();
        // A man in the middle substituting the responder's evidence is
        // detected because the confirmation tag covers the transcript.
        response.evidence = b"forged quote".to_vec();
        assert_eq!(
            initiator.finish(&response).unwrap_err(),
            ChannelError::KeyConfirmationFailed
        );
    }

    #[test]
    fn low_order_peer_key_is_rejected() {
        let (_, b) = secrets();
        let init = HandshakeInit {
            public_key: PublicKey([0u8; 32]),
            evidence: vec![],
        };
        assert_eq!(
            HandshakeResponder::respond(b, vec![], &init).unwrap_err(),
            ChannelError::DegenerateSharedSecret
        );
    }

    #[test]
    fn channels_with_different_peers_do_not_interoperate() {
        let (a, b) = secrets();
        let c = StaticSecret::from_bytes([33u8; 32]);
        let (mut alice, _bob) = channel_pair(a, vec![], b, vec![]).unwrap();
        let (_x, mut carol) =
            channel_pair(StaticSecret::from_bytes([44u8; 32]), vec![], c, vec![]).unwrap();
        let record = alice.seal(b"secret", b"");
        assert!(carol.open(&record, b"").is_err());
    }

    #[test]
    fn every_truncation_of_a_record_is_rejected() {
        let (a, b) = secrets();
        let (mut alice, mut bob) = channel_pair(a, vec![], b, vec![]).unwrap();
        let record = alice.seal(b"forward: swiss mountain weather", b"fwd");
        for len in (0..record.len()).rev() {
            assert!(
                bob.open(&record[..len], b"fwd").is_err(),
                "a {len}-byte prefix of a {}-byte record opened",
                record.len()
            );
        }
        assert_eq!(
            bob.open(&record, b"fwd").unwrap(),
            b"forward: swiss mountain weather"
        );
    }

    #[test]
    fn a_record_spliced_from_a_second_session_is_rejected() {
        // The same two secrets, a second handshake with other evidence: the
        // transcript differs, so the keys do, and its records do not open
        // in the first session even at the same sequence number.
        let (a, b) = secrets();
        let (mut alice, mut bob) =
            channel_pair(a, b"quote 1".to_vec(), b, b"bob quote".to_vec()).unwrap();
        let (a, b) = secrets();
        let (mut alice_again, _) =
            channel_pair(a, b"quote 2".to_vec(), b, b"bob quote".to_vec()).unwrap();
        let spliced = alice_again.seal(b"query", b"");
        assert!(matches!(
            bob.open(&spliced, b""),
            Err(ChannelError::Record(_))
        ));
        let genuine = alice.seal(b"query", b"");
        assert_eq!(bob.open(&genuine, b"").unwrap(), b"query");
    }

    #[test]
    fn a_rejected_record_does_not_advance_the_receive_sequence() {
        let (a, b) = secrets();
        let (mut alice, mut bob) = channel_pair(a, vec![], b, vec![]).unwrap();
        let first = alice.seal(b"first", b"");
        let second = alice.seal(b"second", b"");
        let (a, b) = secrets();
        let (mut other_session, _) = channel_pair(a, b"other".to_vec(), b, vec![]).unwrap();
        let mut flipped = first.clone();
        flipped[0] ^= 0x01;
        let rejected = [
            Vec::new(),
            first[..first.len() - 1].to_vec(),
            flipped,
            second.clone(),
            other_session.seal(b"first", b""),
        ];
        for record in &rejected {
            assert!(bob.open(record, b"").is_err());
            assert!(bob.open(&first, b"wrong aad").is_err());
        }
        assert_eq!(bob.open(&first, b"").unwrap(), b"first");
        assert!(bob.open(&first, b"").is_err(), "a replay is rejected");
        assert_eq!(bob.open(&second, b"").unwrap(), b"second");
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ChannelError::KeyConfirmationFailed
            .to_string()
            .contains("confirmation"));
        assert!(ChannelError::DegenerateSharedSecret
            .to_string()
            .contains("zero"));
    }
}
