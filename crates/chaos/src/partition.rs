//! The partition experiment: the churn latency deployment of
//! [`crate::experiment`] re-run across a **network split that later
//! re-merges** — the hardest realistic failure mode for CYCLOSA's healing
//! paths, because nothing crashes: every node stays up, yet a whole slice
//! of the relay population becomes unreachable for a window and then
//! comes back.
//!
//! The split is pure link-group loss ([`crate::plan::ChaosPlan::partition`]
//! over `cyclosa_net::engine::LinkGroupSchedule`), so the run stays
//! bit-identical across engines and shard counts even when the partition
//! boundary crosses shard boundaries. The client-side story under test:
//!
//! * **Degrade gracefully inside a minority partition.** A client cut off
//!   with a minority of the relays keeps answering what it can: real
//!   queries entrusted to unreachable relays time out, the relay is
//!   blacklisted and the query resubmitted through a relay on the
//!   client's own side. The per-query [`AnsweredQuery::achieved_k`]
//!   ledger dips while fakes on cross-partition relays are presumed lost.
//! * **Recover after the merge.** Blacklist entries carry a probation TTL
//!   ([`crate::experiment::ChurnConfig::blacklist_ttl`]); once it lapses
//!   after the merge, queries spread over the whole population again, top
//!   fakes back up, and the `achieved_k` ledger returns to the
//!   failure-free level — the gated point of `BENCH_churn.json`.
//!
//! [`PartitionOutcome`] slices the run into pre-split / during / post-merge
//! phases by query issue time so the dip and the recovery are directly
//! comparable to a failure-free baseline.

use crate::deployment::{client_id, relay_id, ChurnTelemetry};
use crate::experiment::{run_churn_experiment_on, AnsweredQuery, ChurnConfig, ChurnOutcome};
use crate::plan::ChaosPlan;
use cyclosa_net::engine::Engine;
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_util::stats::Summary;

/// Healing slack after the merge: queries issued in
/// `[merge_at, merge_at + SETTLE)` are attributed to the transition (the
/// `during` phase) rather than to `post_merge`, because retries of queries
/// launched inside the partition are still blacklisting relays for a
/// retry-timeout or two after the merge. The post-merge phase therefore
/// measures the recovered steady state.
pub const SETTLE: SimTime = SimTime::from_secs(6);

/// Configuration of the partition experiment: the churn deployment of
/// [`ChurnConfig`] plus one scripted split/re-merge window. The client is
/// caught in the minority component; the search engine stays reachable
/// from both sides, like a public service outside the partitioned overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// The underlying deployment (relays, `k`, queries, seed, healing
    /// parameters). `failure_rate` is usually `0.0` here — the partition
    /// itself is the fault — and `blacklist_ttl` should be finite so the
    /// client forgives cross-partition relays after the merge.
    pub base: ChurnConfig,
    /// Fraction of the relay population in the minority component
    /// (clamped to keep both sides non-empty).
    pub minority_fraction: f64,
    /// When the population splits.
    pub split_at: SimTime,
    /// When the components re-merge (must be after `split_at`).
    pub merge_at: SimTime,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            base: ChurnConfig {
                failure_rate: 0.0,
                adaptive: true,
                blacklist_ttl: Some(SimTime::from_secs(10)),
                ..ChurnConfig::default()
            },
            minority_fraction: 0.3,
            split_at: SimTime::from_secs(15),
            merge_at: SimTime::from_secs(35),
        }
    }
}

impl PartitionConfig {
    /// The relays on the minority side: the first
    /// `round(minority_fraction × relays)` relay ids, clamped so both
    /// sides keep at least one relay.
    pub fn minority_relays(&self) -> Vec<NodeId> {
        let count = ((self.base.relays as f64 * self.minority_fraction).round() as usize)
            .clamp(1, self.base.relays - 1);
        (0..count).map(relay_id).collect()
    }

    /// The two node groups of the split, the client in the minority.
    pub(crate) fn groups(&self) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut minority = self.minority_relays();
        let majority: Vec<NodeId> = (minority.len()..self.base.relays).map(relay_id).collect();
        minority.push(client_id(self.base.relays));
        (minority, majority)
    }

    /// The scripted split/re-merge as a [`ChaosPlan`] of link faults.
    ///
    /// # Panics
    ///
    /// Panics if `merge_at <= split_at`.
    pub(crate) fn plan(&self) -> ChaosPlan {
        let (minority, majority) = self.groups();
        ChaosPlan::new().partition(&[&minority, &majority], self.split_at, self.merge_at)
    }
}

/// Aggregates over the answered queries whose *issue* time falls in one
/// phase of the run (pre-split, during the partition, post-merge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// Queries issued in the phase.
    pub issued: usize,
    /// Of those, queries that were eventually answered (possibly in a
    /// later phase — attribution is by issue time).
    pub answered: usize,
    /// Mean `achieved_k` over the answered queries (0 when none were).
    pub mean_achieved_k: f64,
    /// Median end-to-end latency over the answered queries, seconds.
    pub median_latency_s: f64,
}

cyclosa_util::impl_to_json!(PhaseSummary {
    issued,
    answered,
    mean_achieved_k,
    median_latency_s,
});

impl PhaseSummary {
    fn over(queries: &[&AnsweredQuery], issued: usize) -> Self {
        let latencies: Vec<f64> = queries.iter().map(|q| q.latency_s).collect();
        let mean_achieved_k = if queries.is_empty() {
            0.0
        } else {
            queries.iter().map(|q| q.achieved_k as f64).sum::<f64>() / queries.len() as f64
        };
        Self {
            issued,
            answered: queries.len(),
            mean_achieved_k,
            median_latency_s: Summary::from_samples(&latencies).median,
        }
    }
}

/// What one partition run produced: the raw churn outcome plus the
/// per-phase slicing.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// The underlying churn outcome (latencies, retries, ledger, engine
    /// stats).
    pub churn: ChurnOutcome,
    /// Queries issued before the split.
    pub pre_split: PhaseSummary,
    /// Queries issued while the partition was in force or inside the
    /// post-merge settle window (the transition).
    pub during: PhaseSummary,
    /// Queries issued after the merge had settled.
    pub post_merge: PhaseSummary,
}

/// When a query with this sequence number was issued (the churn
/// experiment's cadence, shared through [`ChurnConfig::issued_at`] so
/// phase attribution can never drift from the actual schedule).
fn issued_at(seq: usize) -> SimTime {
    ChurnConfig::issued_at(seq)
}

/// Runs the partition experiment on `engine` — any [`Engine`], see
/// [`crate::deployment::EngineChoice`]: the churn deployment with the
/// scripted split/re-merge applied on top, sliced into phases.
///
/// The underlying churn run's causal events, forwarding-path spans and
/// fault annotations flow into `telemetry.trace` — ready for the SLO
/// monitor (see [`crate::slo`]) to turn the split window's `achieved_k`
/// dips into privacy burn alerts. Telemetry never perturbs the outcome.
///
/// # Panics
///
/// Panics if `merge_at <= split_at` or the window lies outside the span
/// over which queries are issued (there would be no during/post phase to
/// measure).
pub fn run_partition_experiment_on<E: Engine + ?Sized>(
    engine: &mut E,
    config: &PartitionConfig,
    telemetry: &ChurnTelemetry,
) -> PartitionOutcome {
    let settled_at = config.merge_at + SETTLE;
    assert!(
        settled_at < config.base.horizon(),
        "queries must still be issued after the post-merge settle window"
    );
    let outcome = run_churn_experiment_on(engine, &config.base, &config.plan(), telemetry);
    let phase_queries = |from: SimTime, to: SimTime| -> Vec<&AnsweredQuery> {
        outcome
            .answered_queries
            .iter()
            .filter(|q| {
                let at = issued_at(q.seq);
                at >= from && at < to
            })
            .collect()
    };
    let issued_in = |from: SimTime, to: SimTime| -> usize {
        (0..config.base.queries)
            .filter(|seq| {
                let at = issued_at(*seq);
                at >= from && at < to
            })
            .count()
    };
    let horizon = config.base.horizon();
    let pre_split = PhaseSummary::over(
        &phase_queries(SimTime::ZERO, config.split_at),
        issued_in(SimTime::ZERO, config.split_at),
    );
    let during = PhaseSummary::over(
        &phase_queries(config.split_at, settled_at),
        issued_in(config.split_at, settled_at),
    );
    let post_merge = PhaseSummary::over(
        &phase_queries(settled_at, horizon),
        issued_in(settled_at, horizon),
    );
    PartitionOutcome {
        churn: outcome,
        pre_split,
        during,
        post_merge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::EngineChoice;

    fn run_on(choice: EngineChoice, config: &PartitionConfig) -> PartitionOutcome {
        let quiet = ChurnTelemetry::default();
        let mut engine = choice.build(config.base.seed, None);
        run_partition_experiment_on(&mut *engine, config, &quiet)
    }

    fn run_partition_experiment(config: &PartitionConfig) -> PartitionOutcome {
        run_on(EngineChoice::Sequential, config)
    }

    fn small() -> PartitionConfig {
        PartitionConfig {
            base: ChurnConfig {
                relays: 30,
                k: 3,
                queries: 80,
                failure_rate: 0.0,
                adaptive: true,
                blacklist_ttl: Some(SimTime::from_secs(8)),
                ..ChurnConfig::default()
            },
            minority_fraction: 0.3,
            split_at: SimTime::from_secs(10),
            merge_at: SimTime::from_secs(25),
        }
    }

    #[test]
    fn groups_cover_relays_and_place_client_by_side() {
        let config = small();
        let (minority, majority) = config.groups();
        assert_eq!(config.minority_relays().len(), 9);
        assert!(minority.contains(&NodeId(31)), "client rides the minority");
        assert!(!majority.contains(&NodeId(0)), "engine outside the split");
        assert_eq!(minority.len() + majority.len(), 31);
    }

    #[test]
    fn minority_client_degrades_during_the_split_and_recovers_after() {
        let outcome = run_partition_experiment(&small());
        assert_eq!(outcome.churn.clamped_samples, 0);
        // Before the split everything is nominal: every query answered at
        // the full dilution target.
        assert_eq!(outcome.pre_split.answered, outcome.pre_split.issued);
        assert!((outcome.pre_split.mean_achieved_k - 3.0).abs() < 1e-9);
        // During the split the minority client degrades but keeps serving
        // what its side can carry.
        assert!(
            outcome.during.mean_achieved_k < outcome.pre_split.mean_achieved_k,
            "the achieved_k ledger must dip during the split ({} vs {})",
            outcome.during.mean_achieved_k,
            outcome.pre_split.mean_achieved_k
        );
        assert!(
            outcome.during.answered > 0,
            "the minority side must keep answering"
        );
        assert!(
            outcome.churn.retries > 0,
            "cross-partition relays must force resubmissions"
        );
        // After the merge the blacklist probation lapses and the ledger
        // recovers to the failure-free level.
        assert_eq!(outcome.post_merge.answered, outcome.post_merge.issued);
        assert!(
            (outcome.post_merge.mean_achieved_k - outcome.pre_split.mean_achieved_k).abs() < 1e-9,
            "post-merge achieved_k must recover ({} vs {})",
            outcome.post_merge.mean_achieved_k,
            outcome.pre_split.mean_achieved_k
        );
    }

    #[test]
    fn partition_matches_the_failure_free_ledger_after_the_merge() {
        // The gated property: the post-merge phase of a partitioned run is
        // indistinguishable (in achieved_k) from the same phase of a run
        // that never split.
        let config = small();
        let partitioned = run_partition_experiment(&config);
        let quiet = ChurnTelemetry::default();
        let calm = run_churn_experiment_on(
            &mut *EngineChoice::Sequential.build(config.base.seed, None),
            &config.base,
            &ChaosPlan::new(),
            &quiet,
        );
        let calm_mean = calm
            .answered_queries
            .iter()
            .map(|q| q.achieved_k as f64)
            .sum::<f64>()
            / calm.answered_queries.len() as f64;
        assert!((partitioned.post_merge.mean_achieved_k - calm_mean).abs() < 1e-9);
    }

    #[test]
    fn sharded_partition_run_is_bit_identical_to_sequential() {
        let config = small();
        let sequential = run_partition_experiment(&config);
        for shards in [2, 4] {
            assert_eq!(
                run_on(EngineChoice::Sharded(shards), &config),
                sequential,
                "partition outcome diverged with {shards} shards"
            );
        }
    }

    #[test]
    #[should_panic(expected = "after the post-merge settle window")]
    fn merge_beyond_the_horizon_is_rejected() {
        let config = PartitionConfig {
            merge_at: SimTime::from_secs(10_000),
            ..small()
        };
        let _ = run_partition_experiment(&config);
    }
}
