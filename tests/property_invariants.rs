//! Property-based tests of cross-crate invariants.
//!
//! The build environment has no networked crate registry, so instead of
//! `proptest` these properties are exercised by a seeded randomized
//! harness: every case is drawn from a deterministic generator, so a
//! failure reproduces exactly and prints the case index that triggered it.

use cyclosa::config::ProtectionConfig;
use cyclosa::past_queries::PastQueryTable;
use cyclosa::sensitivity::SensitivityAnalyzer;
use cyclosa_crypto::aead::ChaCha20Poly1305;
use cyclosa_crypto::channel::channel_pair;
use cyclosa_crypto::x25519::StaticSecret;
use cyclosa_sgx::enclave::Platform;
use cyclosa_sgx::sealing;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use cyclosa_util::smoothing::exponential_smoothing;

const CASES: usize = 64;

fn random_bytes(rng: &mut Xoshiro256StarStar, max_len: usize) -> Vec<u8> {
    let len = rng.gen_index(max_len + 1);
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn random_words(rng: &mut Xoshiro256StarStar, max_words: usize) -> String {
    let words = 1 + rng.gen_index(max_words);
    (0..words)
        .map(|_| {
            let len = 2 + rng.gen_index(7);
            (0..len)
                .map(|_| (b'a' + rng.gen_range(0, 26) as u8) as char)
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// AEAD round-trips for arbitrary payloads and associated data, and any
/// single-bit corruption is rejected.
#[test]
fn aead_roundtrip_and_tamper_detection() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xAEAD);
    for case in 0..CASES {
        let key: [u8; 32] = rng.gen_bytes();
        let nonce: [u8; 12] = rng.gen_bytes();
        let payload = random_bytes(&mut rng, 512);
        let aad = random_bytes(&mut rng, 64);
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, &payload, &aad);
        assert_eq!(
            aead.open(&nonce, &sealed, &aad).unwrap(),
            payload,
            "case {case}"
        );
        let mut tampered = sealed.clone();
        let index = rng.gen_index(tampered.len());
        tampered[index] ^= 1 << rng.gen_range(0, 8);
        assert!(
            aead.open(&nonce, &tampered, &aad).is_err(),
            "case {case} accepted tampering"
        );
    }
}

/// Sealing round-trips on the same enclave and never opens on a different
/// platform.
#[test]
fn sealing_binds_to_the_platform() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EA1);
    for case in 0..CASES {
        let seed_a = rng.next_u64();
        let seed_b = rng.next_u64();
        if seed_a == seed_b {
            continue;
        }
        let data = random_bytes(&mut rng, 256);
        let enclave_a = Platform::new(seed_a).create_enclave(b"cyclosa", ());
        let enclave_b = Platform::new(seed_b).create_enclave(b"cyclosa", ());
        let blob = sealing::seal(&enclave_a, b"state", &data);
        assert_eq!(
            sealing::unseal(&enclave_a, &blob).unwrap(),
            data,
            "case {case}"
        );
        assert!(
            sealing::unseal(&enclave_b, &blob).is_err(),
            "case {case} unsealed elsewhere"
        );
    }
}

/// Secure channels deliver arbitrary message sequences in order.
#[test]
fn channel_delivers_message_sequences() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC4A7);
    for case in 0..CASES {
        let a = StaticSecret::from_bytes(rng.gen_bytes());
        let b = StaticSecret::from_bytes(rng.gen_bytes());
        let (mut alice, mut bob) =
            channel_pair(a, b"quote-a".to_vec(), b, b"quote-b".to_vec()).unwrap();
        let count = 1 + rng.gen_index(7);
        for _ in 0..count {
            let message = random_bytes(&mut rng, 128);
            let record = alice.seal(&message, b"aad");
            assert_eq!(bob.open(&record, b"aad").unwrap(), message, "case {case}");
        }
    }
}

/// The adaptive protection always picks k within [0, kmax], and the
/// linkability score stays within [0, 1].
#[test]
fn adaptive_k_stays_in_range() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xADA7);
    for case in 0..CASES {
        let k_max = 1 + rng.gen_index(11);
        let config = ProtectionConfig { k_max };
        let mut analyzer = SensitivityAnalyzer::linkability_only(&config);
        let history: Vec<String> = (0..rng.gen_index(20))
            .map(|_| random_words(&mut rng, 4))
            .collect();
        analyzer.record_own_queries(history.iter().map(|s| s.as_str()));
        let query = random_words(&mut rng, 5);
        let assessment = analyzer.assess(&query);
        assert!(
            assessment.k <= k_max,
            "case {case}: k {} > kmax {k_max}",
            assessment.k
        );
        assert!(
            (0.0..=1.0).contains(&assessment.linkability),
            "case {case}: linkability {}",
            assessment.linkability
        );
    }
}

/// The past-query table never exceeds its capacity and fake draws only
/// return stored entries.
#[test]
fn past_query_table_respects_capacity() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7AB1E);
    for case in 0..CASES {
        let capacity = 1 + rng.gen_index(49);
        let mut table = PastQueryTable::new(capacity);
        let queries: Vec<String> = (0..rng.gen_index(100))
            .map(|_| random_words(&mut rng, 3))
            .collect();
        table.record_all(queries.iter().map(|s| s.as_str()));
        assert!(
            table.len() <= capacity,
            "case {case}: {} > {capacity}",
            table.len()
        );
        let draw = rng.gen_index(20);
        for fake in table.draw_fakes(draw, &mut rng) {
            assert!(
                table.iter().any(|q| q == fake),
                "case {case}: fake not stored"
            );
        }
    }
}

/// Exponential smoothing of values in [0, 1] stays bounded by the extremes
/// of its input.
#[test]
fn smoothing_is_bounded() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x500D);
    for case in 0..CASES {
        let values: Vec<f64> = (0..1 + rng.gen_index(49)).map(|_| rng.next_f64()).collect();
        let alpha = 0.05 + rng.next_f64() * 0.95;
        let score = exponential_smoothing(&values, alpha);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            score >= min - 1e-9 && score <= max + 1e-9,
            "case {case}: {score} outside [{min}, {max}]"
        );
    }
}
