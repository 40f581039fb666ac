//! TOR-style onion routing (paper §II-A1, Fig. 1).
//!
//! The query is wrapped in three layers of encryption, one per relay; each
//! relay peels its layer and forwards the rest, and the exit node submits
//! the plaintext query to the search engine on behalf of the user. The
//! engine therefore sees the exact query text but not the user's identity —
//! unlinkability without indistinguishability.

use cyclosa_crypto::aead::{AeadError, ChaCha20Poly1305};
use cyclosa_crypto::hkdf;
use cyclosa_mechanism::{
    Mechanism, MechanismProperties, ObservedRequest, ProtectionOutcome, Query, ResultsDelivery,
    SourceIdentity,
};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

/// Number of relays in a standard circuit.
pub(crate) const CIRCUIT_LENGTH: usize = 3;

/// A TOR-like circuit: an ordered list of per-hop symmetric keys
/// (established in the real protocol through telescoping Diffie–Hellman;
/// the key-exchange machinery lives in `cyclosa-crypto` and is exercised by
/// the CYCLOSA core crate, so the circuit model here focuses on the onion
/// layering itself).
#[derive(Debug, Clone)]
pub(crate) struct OnionCircuit {
    hop_keys: Vec<[u8; 32]>,
}

impl OnionCircuit {
    /// Builds a circuit of `hops` relays with keys derived from fresh
    /// randomness.
    pub(crate) fn build<R: Rng + ?Sized>(hops: usize, rng: &mut R) -> Self {
        assert!(hops >= 1, "a circuit needs at least one hop");
        let hop_keys = (0..hops)
            .map(|i| {
                let seed: [u8; 32] = rng.gen_bytes();
                hkdf::derive_key(b"tor-hop-key", &seed, &[i as u8])
            })
            .collect();
        Self { hop_keys }
    }

    /// Wraps a payload in one encryption layer per hop (innermost layer is
    /// the exit node's).
    pub(crate) fn wrap(&self, payload: &[u8]) -> Vec<u8> {
        let mut onion = payload.to_vec();
        for (i, key) in self.hop_keys.iter().enumerate().rev() {
            let aead = ChaCha20Poly1305::new(key);
            onion = aead.seal(&hop_nonce(i), &onion, b"onion-layer");
        }
        onion
    }

    /// Peels the layer of hop `hop` (0 = entry relay). Returns the inner
    /// onion (or the plaintext payload at the exit node).
    ///
    /// # Errors
    ///
    /// Returns an error if the layer does not authenticate (tampering or
    /// wrong relay).
    pub(crate) fn peel(&self, hop: usize, onion: &[u8]) -> Result<Vec<u8>, AeadError> {
        let aead = ChaCha20Poly1305::new(&self.hop_keys[hop]);
        aead.open(&hop_nonce(hop), onion, b"onion-layer")
    }

    /// Convenience: peels all layers in order, as the relays would.
    pub(crate) fn peel_all(&self, onion: &[u8]) -> Result<Vec<u8>, AeadError> {
        let mut current = onion.to_vec();
        for hop in 0..self.hop_keys.len() {
            current = self.peel(hop, &current)?;
        }
        Ok(current)
    }
}

fn hop_nonce(hop: usize) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[0] = hop as u8;
    nonce
}

/// The TOR baseline mechanism.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tor;

impl Tor {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

impl Mechanism for Tor {
    fn name(&self) -> &'static str {
        "TOR"
    }

    fn properties(&self) -> MechanismProperties {
        MechanismProperties {
            unlinkability: true,
            indistinguishability: false,
            accuracy: true,
            scalability: true,
        }
    }

    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        // Exercise the full onion path: wrap at the client, peel at each
        // relay, and hand the plaintext to the engine from the exit node.
        let circuit = OnionCircuit::build(CIRCUIT_LENGTH, rng);
        let onion = circuit.wrap(query.text.as_bytes());
        #[expect(
            clippy::expect_used,
            reason = "peeling the onion this circuit just wrapped returns the query's own UTF-8 bytes"
        )]
        let text = circuit
            .peel_all(&onion)
            .ok()
            .and_then(|plaintext| String::from_utf8(plaintext).ok())
            .expect("honest relays peel the query's text");
        ProtectionOutcome {
            observed: vec![ObservedRequest {
                source: SourceIdentity::Anonymous,
                text,
                carries_real_query: true,
            }],
            delivery: ResultsDelivery::ExactQuery,
            // client → entry → middle → exit, plus the response path.
            relay_messages: (CIRCUIT_LENGTH as u32) * 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::{QueryId, UserId};

    #[test]
    fn onion_wrap_and_peel_roundtrip() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let circuit = OnionCircuit::build(3, &mut rng);
        assert_eq!(circuit.hop_keys.len(), 3);
        let onion = circuit.wrap(b"what is the tallest mountain in switzerland");
        // Each layer strictly shrinks towards the payload.
        let after_entry = circuit.peel(0, &onion).unwrap();
        assert!(after_entry.len() < onion.len());
        let after_middle = circuit.peel(1, &after_entry).unwrap();
        let payload = circuit.peel(2, &after_middle).unwrap();
        assert_eq!(payload, b"what is the tallest mountain in switzerland");
        assert_eq!(circuit.peel_all(&onion).unwrap(), payload);
    }

    #[test]
    fn relays_cannot_peel_out_of_order() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let circuit = OnionCircuit::build(3, &mut rng);
        let onion = circuit.wrap(b"secret");
        // The middle relay cannot remove the entry relay's layer.
        assert!(circuit.peel(1, &onion).is_err());
        assert!(circuit.peel(2, &onion).is_err());
    }

    #[test]
    fn tampered_onion_is_rejected() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let circuit = OnionCircuit::build(2, &mut rng);
        let mut onion = circuit.wrap(b"secret");
        onion[0] ^= 1;
        assert!(circuit.peel(0, &onion).is_err());
    }

    #[test]
    fn tor_hides_identity_but_not_content() {
        let mut tor = Tor::new();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let q = Query::new(QueryId(1), UserId(3), "hiv test anonymous clinic");
        let outcome = tor.protect(&q, &mut rng);
        assert_eq!(outcome.engine_requests(), 1);
        assert_eq!(outcome.exposed_requests(), 0);
        assert_eq!(outcome.observed[0].text, q.text);
        assert_eq!(outcome.delivery, ResultsDelivery::ExactQuery);
        assert!(outcome.relay_messages >= 6);
        assert!(tor.properties().unlinkability);
        assert!(!tor.properties().indistinguishability);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_circuit_rejected() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let _ = OnionCircuit::build(0, &mut rng);
    }
}
