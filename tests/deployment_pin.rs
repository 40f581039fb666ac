//! Seeded pin of everything the message-level deployment produces.
//!
//! The client/relay/engine triple used to exist three times (Fig. 8a in
//! `cyclosa::deployment`, the churn/partition experiment and the soak
//! driver); it is now `cyclosa_chaos::deployment`. The digests below were
//! captured from the *three-copy* code: equality pins that the fold moved
//! code, not a single latency, ledger entry, engine counter or trace byte
//! — on the sequential simulator and on 1/2/4/8 shards.

use cyclosa_chaos::adversary::{AdversaryConfig, ByzantinePolicy};
use cyclosa_chaos::churn::ChurnModel;
use cyclosa_chaos::deployment::{
    run_end_to_end_latency_on, ChurnTelemetry, EndToEndConfig, EngineChoice,
};
use cyclosa_chaos::experiment::{run_churn_experiment_on, ChurnConfig, MembershipProbeConfig};
use cyclosa_chaos::partition::{run_partition_experiment_on, PartitionConfig};
use cyclosa_chaos::soak::{run_soak_on, SoakConfig};
use cyclosa_chaos::ChaosPlan;
use cyclosa_net::time::SimTime;
use cyclosa_telemetry::export::to_jsonl;
use cyclosa_telemetry::metrics::Registry;
use cyclosa_telemetry::TraceSink;

const PIN_END_TO_END: u64 = 0x98CB_55F6_84E7_36EC;
const PIN_CHURN_STORMY_ADAPTIVE: u64 = 0xB9BB_630A_B95F_471C;
const PIN_CHURN_MEMBERSHIP: u64 = 0x3AC5_52AD_7513_9CCC;
const PIN_CHURN_DROP_REAL_QUERIES: u64 = 0xF38F_94D8_9FEF_76EC;
const PIN_PARTITION: u64 = 0xE6CF_2974_AA35_7741;
const PIN_SOAK: u64 = 0xFAE6_2AAA_1B16_0A95;
const PIN_TRACED_CHURN_JSONL: (usize, u64) = (18_628, 0x0441_0ADC_D2F2_4912);
const PIN_TRACED_SOAK_JSONL: (usize, u64) = (831_242, 0x9147_BEC4_B0E1_A9AE);

/// FNV-1a over the bytes of `text`.
fn digest(text: &str) -> u64 {
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in text.bytes() {
        digest ^= u64::from(byte);
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

const ENGINES: [EngineChoice; 5] = [
    EngineChoice::Sequential,
    EngineChoice::Sharded(1),
    EngineChoice::Sharded(2),
    EngineChoice::Sharded(4),
    EngineChoice::Sharded(8),
];

/// The default configuration, then the seeds `repro --seed 2018` gives
/// Fig. 8a and the five `k` of Fig. 8b.
fn end_to_end_configs() -> Vec<EndToEndConfig> {
    let mut configs = vec![
        EndToEndConfig::default(),
        EndToEndConfig {
            seed: 2018 ^ 0x8A,
            ..EndToEndConfig::default()
        },
    ];
    for k in [0u64, 1, 3, 5, 7] {
        configs.push(EndToEndConfig {
            k: k as usize,
            seed: 2018 ^ (0x8B + k),
            ..EndToEndConfig::default()
        });
    }
    configs
}

fn small() -> ChurnConfig {
    ChurnConfig {
        relays: 20,
        k: 3,
        queries: 40,
        ..ChurnConfig::default()
    }
}

fn stormy_adaptive() -> ChurnConfig {
    ChurnConfig {
        failure_rate: 0.4,
        adaptive: true,
        ..small()
    }
}

fn membership() -> ChurnConfig {
    ChurnConfig {
        failure_rate: 0.4,
        recover: true,
        adaptive: true,
        membership: Some(MembershipProbeConfig {
            probe_period: SimTime::from_millis(500),
            suspicion_timeout: SimTime::from_millis(1500),
            probes_per_round: 6,
        }),
        ..small()
    }
}

fn drop_real_queries() -> ChurnConfig {
    ChurnConfig {
        failure_rate: 0.2,
        adaptive: true,
        adversary: Some(AdversaryConfig {
            fraction: 0.25,
            policy: ByzantinePolicy::DropRealQueries { probability: 0.8 },
            activate_at: SimTime::ZERO,
        }),
        ..small()
    }
}

fn partition_config() -> PartitionConfig {
    PartitionConfig {
        base: ChurnConfig {
            relays: 30,
            queries: 80,
            failure_rate: 0.0,
            adaptive: true,
            blacklist_ttl: Some(SimTime::from_secs(8)),
            ..ChurnConfig::default()
        },
        split_at: SimTime::from_secs(10),
        merge_at: SimTime::from_secs(25),
        ..PartitionConfig::default()
    }
}

/// The stressed configuration of `benchmarks/src/workloads/soak.rs` at
/// 2 000 queries (its `--quick` size; the digest is the one
/// `soak_sparse_seq` prints there).
fn soak_config() -> SoakConfig {
    SoakConfig {
        relays: 60,
        k: 3,
        queries: 2_000,
        seed: 2018,
        churn: Some(ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_secs(120),
            mean_downtime: SimTime::from_secs(20),
        }),
        adversary: Some(AdversaryConfig {
            fraction: 0.2,
            policy: ByzantinePolicy::Collude,
            activate_at: SimTime::from_secs(5),
        }),
        min_answered_fraction: 0.9,
        ..SoakConfig::default()
    }
}

#[test]
fn end_to_end_latencies_match_the_three_copy_era_digest() {
    let quiet = ChurnTelemetry::default();
    for choice in ENGINES {
        let printed: String = end_to_end_configs()
            .iter()
            .map(|config| {
                let mut engine = choice.build(config.seed, None);
                let latencies = run_end_to_end_latency_on(&mut *engine, config, &quiet);
                format!("{latencies:?}\n")
            })
            .collect();
        assert_eq!(digest(&printed), PIN_END_TO_END, "{choice:?}");
    }
}

#[test]
fn churn_outcomes_match_the_three_copy_era_digests() {
    let quiet = ChurnTelemetry::default();
    for (name, config, pin) in [
        (
            "stormy-adaptive",
            stormy_adaptive(),
            PIN_CHURN_STORMY_ADAPTIVE,
        ),
        ("membership", membership(), PIN_CHURN_MEMBERSHIP),
        (
            "drop-real-queries",
            drop_real_queries(),
            PIN_CHURN_DROP_REAL_QUERIES,
        ),
    ] {
        for choice in ENGINES {
            let mut engine = choice.build(config.seed, None);
            let outcome = run_churn_experiment_on(&mut *engine, &config, &ChaosPlan::new(), &quiet);
            assert_eq!(digest(&format!("{outcome:?}")), pin, "{name} on {choice:?}");
        }
    }
}

#[test]
fn partition_outcome_matches_the_three_copy_era_digest() {
    let (config, quiet) = (partition_config(), ChurnTelemetry::default());
    for choice in ENGINES {
        let mut engine = choice.build(config.base.seed, None);
        let outcome = run_partition_experiment_on(&mut *engine, &config, &quiet);
        assert_eq!(digest(&format!("{outcome:?}")), PIN_PARTITION, "{choice:?}");
    }
}

#[test]
fn soak_outcome_matches_the_three_copy_era_digest() {
    let (config, quiet) = (soak_config(), ChurnTelemetry::default());
    for choice in ENGINES {
        let mut engine = choice.build(config.seed, None);
        let outcome = run_soak_on(&mut *engine, &config, &quiet.trace);
        assert_eq!(digest(&format!("{outcome:?}")), PIN_SOAK, "{choice:?}");
    }
}

#[test]
fn traced_timelines_match_the_three_copy_era_bytes() {
    let observed = || ChurnTelemetry {
        trace: TraceSink::enabled(),
        metrics: Some(Registry::new()),
    };
    let config = stormy_adaptive();
    for choice in [EngineChoice::Sequential, EngineChoice::Sharded(4)] {
        let telemetry = observed();
        let mut engine = choice.build(config.seed, telemetry.metrics.as_ref());
        run_churn_experiment_on(&mut *engine, &config, &ChaosPlan::new(), &telemetry);
        let jsonl = to_jsonl(&telemetry.trace.events());
        assert_eq!(
            (jsonl.len(), digest(&jsonl)),
            PIN_TRACED_CHURN_JSONL,
            "churn timeline on {choice:?}"
        );
    }
    let config = soak_config();
    for choice in [EngineChoice::Sequential, EngineChoice::Sharded(2)] {
        let telemetry = ChurnTelemetry {
            metrics: None,
            ..observed()
        };
        let mut engine = choice.build(config.seed, telemetry.metrics.as_ref());
        run_soak_on(&mut *engine, &config, &telemetry.trace);
        let jsonl = to_jsonl(&telemetry.trace.events());
        assert_eq!(
            (jsonl.len(), digest(&jsonl)),
            PIN_TRACED_SOAK_JSONL,
            "soak timeline on {choice:?}"
        );
    }
}
