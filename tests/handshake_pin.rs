//! Seeded pin of everything the attested handshake produces.
//!
//! The digests below were captured before the X25519 field arithmetic was
//! rebuilt and before each enclave kept its handshake key instead of
//! re-deriving it per handshake. Equality pins that neither change moved a
//! bit: the scalar multiplication on every kind of input (random,
//! non-canonical `u ≥ p`, bit 255 set, the low-order points 0 and 1), the
//! RFC 7748 §5.2 iterated vector, every node's channel public key, and the
//! channel ids, records and enclave transition counts of attested pairs.

use cyclosa::node::{attested_channel_pair, CyclosaNode};
use cyclosa_crypto::sha256::hex;
use cyclosa_crypto::x25519::x25519;
use cyclosa_sgx::attestation::AttestationService;
use cyclosa_sgx::measurement::Measurement;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(digest: &mut u64, value: u64) {
    *digest ^= value;
    *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
}

fn fnv_bytes(digest: &mut u64, bytes: &[u8]) {
    fnv(digest, bytes.len() as u64);
    for &byte in bytes {
        fnv(digest, u64::from(byte));
    }
}

/// p = 2^255 − 19, little-endian.
const P: [u8; 32] = {
    let mut p = [0xFFu8; 32];
    p[0] = 0xED;
    p[31] = 0x7F;
    p
};

/// The `u` inputs of pair `i`: most are uniform 32-byte strings (so half
/// have bit 255 set); the rest walk the edge cases one after the other.
fn u_input(i: usize, rng: &mut Xoshiro256StarStar) -> [u8; 32] {
    let mut u = [0u8; 32];
    rng.fill_bytes(&mut u);
    match i % 8 {
        // u = 0 and u = 1 (low-order points).
        0 => [0u8; 32],
        1 => {
            let mut one = [0u8; 32];
            one[0] = 1;
            one
        }
        // u in [p, 2^255): non-canonical encodings of 0..19.
        2 => {
            let mut v = P;
            v[0] = v[0].wrapping_add(u[0] % 19);
            v
        }
        // The same with bit 255 set, which X25519 must ignore.
        3 => {
            let mut v = P;
            v[0] = v[0].wrapping_add(u[0] % 19);
            v[31] |= 0x80;
            v
        }
        // Every limb at its maximum: 2^256 − 1.
        4 => [0xFFu8; 32],
        _ => u,
    }
}

#[test]
fn x25519_outputs_match_the_pre_rebuild_digest() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7255_1900);
    let mut digest = FNV_OFFSET;
    for i in 0..640 {
        let mut scalar = [0u8; 32];
        rng.fill_bytes(&mut scalar);
        let u = u_input(i, &mut rng);
        fnv_bytes(&mut digest, &x25519(scalar, u));
    }
    println!("x25519 digest = {digest:#018X}");
    assert_eq!(digest, PIN_X25519);
}

/// RFC 7748 §5.2: k = u = 9, then k ← X25519(k, u), u ← old k.
#[test]
fn rfc7748_iterated_vector_at_one_and_one_thousand() {
    let mut k = [0u8; 32];
    k[0] = 9;
    let mut u = k;
    for iteration in 1..=1_000 {
        let next = x25519(k, u);
        u = k;
        k = next;
        if iteration == 1 {
            assert_eq!(
                hex(&k),
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
            );
        }
    }
    assert_eq!(
        hex(&k),
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
    );
}

#[test]
fn channel_public_keys_match_the_pre_rebuild_digest() {
    let mut digest = FNV_OFFSET;
    for id in 0..16 {
        let mut node = CyclosaNode::builder(id).build();
        fnv_bytes(&mut digest, node.channel_public_key().as_bytes());
    }
    println!("channel public key digest = {digest:#018X}");
    assert_eq!(digest, PIN_CHANNEL_PUBLIC_KEYS);
}

/// Nodes take part in several pairs, in both roles, so a key kept from
/// one handshake is reused by the next.
#[test]
fn attested_pairs_match_the_pre_rebuild_digest() {
    let mut nodes: Vec<CyclosaNode> = (0..6).map(|id| CyclosaNode::builder(id).build()).collect();
    let mut service = AttestationService::new();
    service.allow_measurement(Measurement::cyclosa_reference());
    for node in &nodes {
        service.provision_platform(node.platform());
    }
    let mut digest = FNV_OFFSET;
    for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 0), (2, 1), (4, 5), (5, 3)] {
        let (initiator, responder) = if a < b {
            let (left, right) = nodes.split_at_mut(b);
            (&mut left[a], &mut right[0])
        } else {
            let (left, right) = nodes.split_at_mut(a);
            (&mut right[0], &mut left[b])
        };
        let (mut init, mut resp) =
            attested_channel_pair(initiator, responder, &service).expect("attested");
        assert_eq!(init.channel_id(), resp.channel_id());
        fnv(&mut digest, u64::from(init.channel_id()));
        for round in 0..2u8 {
            let forward = init.seal(&[b'q', round, a as u8, b as u8], b"fwd");
            let reply = resp.seal(&[b'r', round, b as u8, a as u8], b"rsp");
            fnv_bytes(&mut digest, &forward);
            fnv_bytes(&mut digest, &reply);
            assert_eq!(resp.open(&forward, b"fwd").unwrap()[0], b'q');
            assert_eq!(init.open(&reply, b"rsp").unwrap()[0], b'r');
        }
    }
    for node in &nodes {
        let stats = node.enclave_stats();
        fnv(&mut digest, stats.ecalls);
        fnv(&mut digest, stats.ocalls);
        fnv(&mut digest, stats.simulated_ns);
    }
    println!("attested pair digest = {digest:#018X}");
    assert_eq!(digest, PIN_ATTESTED_PAIRS);
}

const PIN_X25519: u64 = 0x5DB3_D62B_EA75_14FF;
const PIN_CHANNEL_PUBLIC_KEYS: u64 = 0x2050_A0D1_4BA8_772C;
const PIN_ATTESTED_PAIRS: u64 = 0xA336_B39D_974A_49A0;
