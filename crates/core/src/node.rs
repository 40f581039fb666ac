//! A CYCLOSA node: browser-extension front end, SGX enclave, peer discovery
//! and the relay role.
//!
//! Every participant runs the same software (paper §IV): it is a *client*
//! when the local user searches, and a *relay* (proxy) when it forwards
//! other users' queries. The split between trusted and untrusted code
//! follows the paper:
//!
//! * **outside the enclave** — the sensitivity analysis over the local
//!   user's own data (the client machine is trusted);
//! * **inside the enclave** — the table of other users' past queries, the
//!   choice of fake queries, the forwarding logic and all key material used
//!   for the attestation-gated channels.

use crate::config::{ProtectionConfig, PAST_QUERY_CAPACITY};
use crate::past_queries::PastQueryTable;
use crate::sensitivity::{SensitivityAnalyzer, SensitivityAssessment};
use cyclosa_crypto::channel::{channel_pair, ChannelError, SecureChannel};
use cyclosa_crypto::x25519::StaticSecret;
use cyclosa_net::time::SimTime;
use cyclosa_nlp::categorizer::{CategorizerMethod, QueryCategorizer};
use cyclosa_peer_sampling::{PeerId, PeerSamplingNode};
use cyclosa_sgx::attestation::{generate_quote, AttestationError, AttestationService, Quote};
use cyclosa_sgx::enclave::{Enclave, Platform, TransitionStats};
use cyclosa_telemetry::{EventName, NodeTracer};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

/// Errors surfaced by the node API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The peer view is empty, so no relay can be selected.
    NoPeersAvailable,
    /// The query contained no content terms.
    EmptyQuery,
    /// The peer's attestation evidence was rejected.
    Attestation(AttestationError),
    /// The secure-channel handshake failed.
    Channel(ChannelError),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::NoPeersAvailable => write!(f, "no peers available to relay the query"),
            NodeError::EmptyQuery => write!(f, "query has no content terms"),
            NodeError::Attestation(e) => write!(f, "attestation failed: {e}"),
            NodeError::Channel(e) => write!(f, "secure channel failed: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<AttestationError> for NodeError {
    fn from(e: AttestationError) -> Self {
        NodeError::Attestation(e)
    }
}

impl From<ChannelError> for NodeError {
    fn from(e: ChannelError) -> Self {
        NodeError::Channel(e)
    }
}

/// The state protected by the node's enclave: the table of other users'
/// past queries and the key material of the attested channels.
#[derive(Debug)]
struct TrustedState {
    past_queries: PastQueryTable,
    /// The channel identity and the handshake key derived from it.
    keys: EnclaveKeys,
}

/// One relay assignment of a planned query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The peer that will forward this query to the engine.
    pub relay: PeerId,
    /// The query text to forward.
    pub query: String,
    /// Whether this is the user's real query (`false` for fakes).
    pub is_real: bool,
}

/// The plan produced for one user query: the sensitivity assessment plus
/// the per-relay assignments of the real and fake queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The sensitivity assessment that determined `k`.
    pub assessment: SensitivityAssessment,
    /// Index of this plan in the node's planning order (the slot of
    /// [`NodeStats::achieved_k`] the repair path keeps up to date).
    sequence: u64,
    /// The peer-sampling round count when the plan's relays were last
    /// chosen — the reference point for the eager staleness refresh.
    planned_at_round: u64,
    assignments: Vec<Assignment>,
}

impl QueryPlan {
    /// All relay assignments (the real query plus `k` fakes, each to a
    /// different relay when enough peers are known).
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Index of this plan in the node's planning order.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Number of fake assignments currently alive in the plan — the `k`
    /// the plan actually achieves after any churn repairs.
    pub fn achieved_k(&self) -> usize {
        self.assignments.iter().filter(|a| !a.is_real).count()
    }
}

/// Statistics of a node's activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Queries planned on behalf of the local user.
    pub(crate) queries_planned: u64,
    /// Fake queries generated.
    pub(crate) fakes_generated: u64,
    /// Queries relayed on behalf of other users.
    pub queries_relayed: u64,
    /// Relays replaced after failing to answer (the churn healing path).
    pub(crate) relays_reselected: u64,
    /// Fresh fakes drawn by plan repair to top a plan back up to its
    /// sensitivity target after a relay died carrying fakes.
    pub(crate) fakes_topped_up: u64,
    /// The subset of top-ups triggered *proactively* by membership
    /// liveness signals (a relay declared dead before any retry timeout
    /// noticed — see [`CyclosaNode::top_up_dead_relay_fakes`]), rather
    /// than by a failed real-query delivery.
    pub(crate) fakes_topped_up_proactive: u64,
    /// Repairs that could not restore the full target (view exhausted):
    /// the query went out with weaker dilution than assessed.
    pub(crate) plans_degraded: u64,
    /// Plans eagerly refreshed because the peer view aged past the
    /// staleness threshold before any relay visibly failed
    /// (see [`CyclosaNode::refresh_stale_plan`]).
    pub(crate) plans_refreshed: u64,
    /// Per planned query (in planning order): the number of fake
    /// assignments alive after the latest repair — the privacy level each
    /// query actually travelled with.
    pub achieved_k: Vec<usize>,
}

/// Builder for [`CyclosaNode`].
#[derive(Debug)]
pub struct NodeBuilder {
    node_id: u64,
    platform_seed: u64,
    protection: ProtectionConfig,
    categorizer: QueryCategorizer,
    method: CategorizerMethod,
}

impl NodeBuilder {
    fn new(node_id: u64) -> Self {
        Self {
            node_id,
            platform_seed: node_id ^ 0x5EED_5EED,
            protection: ProtectionConfig::default(),
            categorizer: QueryCategorizer::new(),
            method: CategorizerMethod::Combined,
        }
    }

    /// Sets the protection configuration.
    pub fn protection(mut self, protection: ProtectionConfig) -> Self {
        self.protection = protection;
        self
    }

    /// Supplies the semantic categorizer (dictionaries for the user's
    /// sensitive topics).
    pub fn categorizer(mut self, categorizer: QueryCategorizer) -> Self {
        self.categorizer = categorizer;
        self
    }

    /// Selects the categorizer method (Table II compares the three).
    pub fn method(mut self, method: CategorizerMethod) -> Self {
        self.method = method;
        self
    }

    /// Overrides the SGX platform seed (each physical machine has one).
    pub fn platform_seed(mut self, seed: u64) -> Self {
        self.platform_seed = seed;
        self
    }

    /// Builds the node (creates and initializes its enclave).
    pub fn build(self) -> CyclosaNode {
        let platform = Platform::new(self.platform_seed);
        let identity_seed = cyclosa_crypto::hkdf::derive_key(
            b"cyclosa-node-identity",
            &self.node_id.to_le_bytes(),
            b"x25519",
        );
        let state = TrustedState {
            past_queries: PastQueryTable::new(PAST_QUERY_CAPACITY),
            keys: EnclaveKeys::new(identity_seed),
        };
        let mut enclave = platform.create_enclave(b"cyclosa-enclave/0.1.0/reference-build", state);
        #[expect(
            clippy::expect_used,
            reason = "Enclave::initialize has no failure case: it returns Ok on every call"
        )]
        enclave.initialize().expect("fresh enclave initializes");
        let analyzer = SensitivityAnalyzer::new(self.categorizer, self.method, &self.protection);
        CyclosaNode {
            id: PeerId(self.node_id),
            platform,
            enclave,
            peer_sampling: PeerSamplingNode::new(PeerId(self.node_id)),
            analyzer,
            stats: NodeStats::default(),
            tracer: NodeTracer::default(),
        }
    }
}

/// Why a node's enclave calls cannot fail: `NodeBuilder::build`
/// initializes the enclave, and nothing de-initializes it.
const ENCLAVE_LIVE: &str =
    "NodeBuilder::build initializes the enclave and nothing de-initializes it";

/// A CYCLOSA participant (client + relay).
#[derive(Debug)]
pub struct CyclosaNode {
    id: PeerId,
    platform: Platform,
    enclave: Enclave<TrustedState>,
    peer_sampling: PeerSamplingNode,
    analyzer: SensitivityAnalyzer,
    stats: NodeStats,
    tracer: NodeTracer,
}

impl CyclosaNode {
    /// Starts building a node with the given identifier.
    pub fn builder(node_id: u64) -> NodeBuilder {
        NodeBuilder::new(node_id)
    }

    /// The node's overlay identifier.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Node activity counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// One ecall into the node's enclave touching `touched_bytes`: runs
    /// `body` on the trusted state and returns its result (the modelled
    /// cost lands in the enclave's transition stats).
    #[expect(
        clippy::expect_used,
        reason = "NodeBuilder::build initializes the enclave and nothing de-initializes it"
    )]
    fn ecall<R>(&mut self, touched_bytes: usize, body: impl FnOnce(&mut TrustedState) -> R) -> R {
        self.enclave
            .ecall(touched_bytes, body)
            .expect(ENCLAVE_LIVE)
            .0
    }

    /// One ocall out of the node's enclave transferring `transferred_bytes`.
    #[expect(
        clippy::expect_used,
        reason = "NodeBuilder::build initializes the enclave and nothing de-initializes it"
    )]
    fn ocall(&mut self, transferred_bytes: usize) {
        self.enclave.ocall(transferred_bytes).expect(ENCLAVE_LIVE);
    }

    /// Installs a trace emitter. Planning, repair and refresh then emit
    /// causal `plan.*` events (assessment, fake draws, assignments, every
    /// repair and top-up) keyed by the plan's sequence number. Tracing is
    /// purely observational — it draws no randomness and never changes
    /// what the node does; the default tracer is disabled and emission is
    /// a no-op.
    #[cfg_attr(
        not(test),
        expect(
            dead_code,
            reason = "ROADMAP item 3(a) (the traced full-stack population) calls it"
        )
    )]
    pub(crate) fn install_tracer(&mut self, tracer: NodeTracer) {
        self.tracer = tracer;
    }

    /// Updates the tracer's notion of the current simulated time. Called
    /// by the behaviour driving this node before planning or repairing,
    /// so events land at the right point on the timeline.
    #[cfg_attr(
        not(test),
        expect(
            dead_code,
            reason = "ROADMAP item 3(a) (the traced full-stack population) calls it"
        )
    )]
    pub(crate) fn set_trace_now(&mut self, now: SimTime) {
        self.tracer.set_now(now);
    }

    /// The SGX platform hosting this node (provision it at the attestation
    /// service during bootstrap).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The enclave's transition counters, including the resident
    /// protected-memory high-water mark (`peak_resident_bytes`) that
    /// long-horizon soak runs assert against their EPC budget.
    pub fn enclave_stats(&self) -> TransitionStats {
        self.enclave.stats()
    }

    /// Number of past queries currently stored inside the enclave.
    pub fn past_query_count(&mut self) -> usize {
        self.ecall(0, |state| state.past_queries.len())
    }

    /// Mutable access to the peer-sampling protocol instance (driven by the
    /// deployment's gossip rounds).
    pub(crate) fn peer_sampling_mut(&mut self) -> &mut PeerSamplingNode {
        &mut self.peer_sampling
    }

    /// Read access to the peer-sampling instance.
    pub fn peer_sampling(&self) -> &PeerSamplingNode {
        &self.peer_sampling
    }

    /// Seeds the enclave's fake-query table with trending queries
    /// (paper §V-D: Google-Trends-style bootstrap).
    pub fn bootstrap_with_seed_queries<'a>(&mut self, queries: impl IntoIterator<Item = &'a str>) {
        let queries: Vec<String> = queries.into_iter().map(|q| q.to_owned()).collect();
        let bytes: usize = queries.iter().map(|q| q.len()).sum();
        let resident = self.ecall(bytes, move |state| {
            for q in &queries {
                state.past_queries.record(q);
            }
            state.past_queries.resident_bytes()
        });
        self.enclave.set_resident_bytes(resident);
    }

    /// Seeds the peer view from a public directory (paper §V-D).
    pub fn bootstrap_peers(&mut self, peers: impl IntoIterator<Item = PeerId>) {
        self.peer_sampling.bootstrap(peers);
    }

    /// Records the local user's own search history (used only by the
    /// linkability assessment, outside the enclave).
    pub fn record_own_history<'a>(&mut self, queries: impl IntoIterator<Item = &'a str>) {
        self.analyzer.record_own_queries(queries);
    }

    /// Plans the protection of one user query: assesses its sensitivity,
    /// draws `k` fake queries inside the enclave and assigns the real and
    /// fake queries to `k + 1` distinct relays from the current random view.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::EmptyQuery`] for queries without content terms
    /// and [`NodeError::NoPeersAvailable`] when the peer view is empty.
    pub fn plan_query(
        &mut self,
        query: &str,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<QueryPlan, NodeError> {
        if !cyclosa_nlp::text::has_content_terms(query) {
            return Err(NodeError::EmptyQuery);
        }
        // The sequence number of the plan this call will produce; fixed
        // here so the trace events below can carry it.
        let sequence = self.stats.achieved_k.len() as u64;
        let assessment = self.analyzer.assess(query);
        if self.tracer.is_enabled() {
            self.tracer.emit(
                self.tracer
                    .event(EventName::PlanAssess)
                    .query(sequence)
                    .attr("k", assessment.k)
                    .attr("semantic", assessment.semantic)
                    .attr("linkability", assessment.linkability),
            );
        }
        let relays = self.peer_sampling.random_peers(rng, assessment.k + 1);
        if relays.is_empty() {
            return Err(NodeError::NoPeersAvailable);
        }
        // Draw the fake queries inside the enclave (they are other users'
        // past queries and must not leak outside in plaintext on relays; on
        // the local node they are only used to build outgoing requests).
        let fake_count = assessment.k.min(relays.len().saturating_sub(1));
        let query_owned = query.to_owned();
        let fakes = self.ecall(query.len() + 64 * fake_count, {
            let mut draw_rng = rng.fork(0xFA4E);
            move |state| state.past_queries.draw_fakes(fake_count, &mut draw_rng)
        });
        if self.tracer.is_enabled() {
            self.tracer.emit(
                self.tracer
                    .event(EventName::PlanFakesDrawn)
                    .query(sequence)
                    .attr("count", fakes.len()),
            );
        }

        // Assign the real query and the fakes to distinct relays; the relay
        // carrying the real query is chosen uniformly among them. `relays`
        // always holds at least `fakes.len() + 1` peers (the fake count is
        // capped at `relays.len() - 1` above), so the loop below places the
        // real query in every case: `real_position < fakes.len() + 1` and
        // every other slot in the window consumes one fake.
        let mut assignments = Vec::with_capacity(fakes.len() + 1);
        let real_position = rng.gen_index(fakes.len() + 1);
        let mut fake_iter = fakes.into_iter();
        for (i, relay) in relays.iter().copied().enumerate().take(fake_iter.len() + 1) {
            if i == real_position {
                assignments.push(Assignment {
                    relay,
                    query: query_owned.clone(),
                    is_real: true,
                });
            } else if let Some(fake) = fake_iter.next() {
                assignments.push(Assignment {
                    relay,
                    query: fake,
                    is_real: false,
                });
            }
        }
        debug_assert!(
            assignments.iter().filter(|a| a.is_real).count() == 1,
            "the assignment loop must place exactly one real query"
        );

        // The user's own query enters the local linkability history.
        self.analyzer.record_own_query(query);
        let fake_count = assignments.iter().filter(|a| !a.is_real).count();
        self.stats.queries_planned += 1;
        self.stats.fakes_generated += fake_count as u64;
        self.stats.achieved_k.push(fake_count);
        if self.tracer.is_enabled() {
            for assignment in &assignments {
                self.tracer.emit(
                    self.tracer
                        .event(EventName::PlanAssign)
                        .query(sequence)
                        .attr("relay", assignment.relay.0)
                        .attr("real", assignment.is_real),
                );
            }
            self.tracer.emit(
                self.tracer
                    .event(EventName::PlanCreate)
                    .query(sequence)
                    .attr("achieved_k", fake_count)
                    .attr("relays", assignments.len()),
            );
        }
        Ok(QueryPlan {
            assessment,
            sequence,
            planned_at_round: self.peer_sampling.rounds(),
            assignments,
        })
    }

    /// Heals a [`QueryPlan`] after `failed` stopped answering: the dead
    /// relay is blacklisted in the peer view (paper §IV: clients blacklist
    /// unresponsive proxies) and the plan is repaired so the privacy
    /// target keeps holding *through* churn, not just at plan time:
    ///
    /// * the **real query**, if `failed` carried it, moves to a fresh relay
    ///   drawn distinct from the plan's surviving relays when enough peers
    ///   are known (it will be resubmitted there);
    /// * **fakes** the dead relay carried died with it — they never reached
    ///   the engine, so they no longer dilute the real query. The repair
    ///   re-assesses the surviving plan against `assessment.k` and tops the
    ///   shortfall up with fresh fakes drawn from the enclave past-query
    ///   table (on a forked RNG stream, so repairs stay deterministic),
    ///   each assigned to its own relay not already carrying part of the
    ///   plan.
    ///
    /// [`NodeStats::achieved_k`] records, per planned query, the fake count
    /// the plan holds after the latest repair; `NodeStats::plans_degraded`
    /// counts repairs that could not restore the full target.
    ///
    /// Returns the relay now carrying the real query when `failed` carried
    /// it, the first top-up relay when only fakes were lost (`None` when
    /// the view was too exhausted to redraw any), or `None` when the plan
    /// did not reference `failed` at all (the peer is blacklisted either
    /// way).
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::NoPeersAvailable`] when the *real* query needs a
    /// replacement but no usable peer remains in the view. A fake-only
    /// shortfall never errors: the plan degrades (and is counted as such)
    /// so the query itself stays answerable.
    pub fn reselect_relay(
        &mut self,
        plan: &mut QueryPlan,
        failed: PeerId,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<Option<PeerId>, NodeError> {
        self.peer_sampling.blacklist(failed);
        if !plan.assignments.iter().any(|a| a.relay == failed) {
            return Ok(None);
        }

        // Move the real query first: it must survive, on a relay distinct
        // from every other assignment of the plan when the view allows.
        let real_failed = plan
            .assignments
            .iter()
            .any(|a| a.is_real && a.relay == failed);
        let mut primary = None;
        if real_failed {
            let replacement = self.draw_distinct_relay(plan, rng)?;
            for assignment in plan.assignments.iter_mut() {
                if assignment.is_real {
                    assignment.relay = replacement;
                }
            }
            primary = Some(replacement);
        }
        // Fakes on the dead relay are lost in flight; drop them before the
        // shortfall count so the top-up redraws them afresh.
        plan.assignments.retain(|a| a.is_real || a.relay != failed);

        let topped_up = self.top_up_fakes(plan, rng);
        if primary.is_none() {
            primary = topped_up.first().copied();
        }
        let achieved = plan.achieved_k();
        if achieved < plan.assessment.k {
            self.stats.plans_degraded += 1;
        }
        if let Some(slot) = self.stats.achieved_k.get_mut(plan.sequence as usize) {
            *slot = achieved;
        }
        // Counted only once the repair went through — a NoPeersAvailable
        // bail-out above replaced nothing.
        self.stats.relays_reselected += 1;
        if self.tracer.is_enabled() {
            if !topped_up.is_empty() {
                self.tracer.emit(
                    self.tracer
                        .event(EventName::PlanTopUp)
                        .query(plan.sequence)
                        .attr("count", topped_up.len()),
                );
            }
            self.tracer.emit(
                self.tracer
                    .event(EventName::PlanRepair)
                    .query(plan.sequence)
                    .attr("failed", failed.0)
                    .attr("real_moved", real_failed)
                    .attr("achieved_k", achieved)
                    .attr("degraded", achieved < plan.assessment.k),
            );
        }
        Ok(primary)
    }

    /// Proactively repairs a plan whose relay `dead` was declared dead by
    /// the membership layer (SWIM suspicion expiry) **without** ever
    /// failing a real-query delivery for this node. The relay-side
    /// fake-liveness gap: a relay that only carried *fakes* produces no
    /// retry timeout when it dies — the real query is answered elsewhere
    /// and the plan silently travels with weaker dilution than assessed.
    /// This method closes that gap: the dead relay is blacklisted, its
    /// fake assignments are dropped, and the shortfall is topped up with
    /// fresh fakes on distinct live relays, exactly like the
    /// failure-driven [`CyclosaNode::reselect_relay`] repair path.
    ///
    /// A real query on `dead` is deliberately *not* moved here — that is
    /// the retry path's job (`reselect_relay`), which also re-sends it.
    ///
    /// Returns the relays that received proactive top-ups (empty when
    /// the plan held no fakes on `dead`, or the view was exhausted).
    /// Top-ups count into both [`NodeStats::fakes_topped_up`] and
    /// [`NodeStats::fakes_topped_up_proactive`], and emit a
    /// `plan.top_up` trace event with `proactive: true`.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "ROADMAP item 2 (the sans-I/O node) calls it")
    )]
    pub(crate) fn top_up_dead_relay_fakes(
        &mut self,
        plan: &mut QueryPlan,
        dead: PeerId,
        rng: &mut Xoshiro256StarStar,
    ) -> Vec<PeerId> {
        self.peer_sampling.blacklist(dead);
        if !plan
            .assignments
            .iter()
            .any(|a| !a.is_real && a.relay == dead)
        {
            return Vec::new();
        }
        plan.assignments.retain(|a| a.is_real || a.relay != dead);
        let topped_up = self.top_up_fakes(plan, rng);
        self.stats.fakes_topped_up_proactive += topped_up.len() as u64;
        let achieved = plan.achieved_k();
        if achieved < plan.assessment.k {
            self.stats.plans_degraded += 1;
        }
        if let Some(slot) = self.stats.achieved_k.get_mut(plan.sequence as usize) {
            *slot = achieved;
        }
        if self.tracer.is_enabled() {
            self.tracer.emit(
                self.tracer
                    .event(EventName::PlanTopUp)
                    .query(plan.sequence)
                    .attr("count", topped_up.len())
                    .attr("proactive", true)
                    .attr("dead", dead.0)
                    .attr("achieved_k", achieved),
            );
        }
        topped_up
    }

    /// Eagerly refreshes a long-lived plan whose relay choices have gone
    /// stale: when the peer view has aged `max_view_age` or more gossip
    /// rounds since the plan's relays were chosen, every assignment whose
    /// relay has meanwhile dropped out of the view is moved to a fresh
    /// view peer not already carrying part of the plan — *before* a retry
    /// timeout forces a repair. The complement of the failure-driven
    /// [`CyclosaNode::reselect_relay`] path: nothing is blacklisted (the
    /// relay may be healthy, the view simply rotated past it) and no
    /// fakes are redrawn (the assignments keep their queries, only the
    /// carriers change).
    ///
    /// Returns the number of assignments moved (0 when the plan is still
    /// fresh or every relay is still in view). Once the age check has
    /// run, the plan's staleness clock resets — the relays were verified
    /// against the current view either way. A refresh that moves at
    /// least one assignment counts into [`NodeStats::plans_refreshed`]
    /// and emits a `plan.refresh` trace event.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "ROADMAP item 2 (the sans-I/O node) calls it")
    )]
    pub(crate) fn refresh_stale_plan(
        &mut self,
        plan: &mut QueryPlan,
        max_view_age: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> usize {
        let rounds = self.peer_sampling.rounds();
        let view_age = rounds.saturating_sub(plan.planned_at_round);
        if view_age < max_view_age {
            return 0;
        }
        let mut moved = 0;
        for i in 0..plan.assignments.len() {
            let relay = plan.assignments[i].relay;
            if self.peer_sampling.view().contains(relay) {
                continue;
            }
            let candidates = self.view_peers_outside(plan);
            if candidates.is_empty() {
                break;
            }
            plan.assignments[i].relay = candidates[rng.gen_index(candidates.len())];
            moved += 1;
        }
        plan.planned_at_round = rounds;
        if moved > 0 {
            self.stats.plans_refreshed += 1;
            if self.tracer.is_enabled() {
                self.tracer.emit(
                    self.tracer
                        .event(EventName::PlanRefresh)
                        .query(plan.sequence)
                        .attr("view_age", view_age)
                        .attr("moved", moved),
                );
            }
        }
        moved
    }

    /// The view's peers, in view order, that carry no assignment of `plan`.
    fn view_peers_outside(&self, plan: &QueryPlan) -> Vec<PeerId> {
        let mut peers = self.peer_sampling.view().peers();
        peers.retain(|p| plan.assignments.iter().all(|a| a.relay != *p));
        peers
    }

    /// Draws one relay for the real query, preferring peers not already
    /// carrying part of `plan`; falls back to any live peer only when the
    /// view is too small to keep the plan's relays distinct. The failed
    /// relay is no candidate: it has been blacklisted out of the view.
    fn draw_distinct_relay(
        &self,
        plan: &QueryPlan,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<PeerId, NodeError> {
        let candidates = self.view_peers_outside(plan);
        if candidates.is_empty() {
            let fallback = self.peer_sampling.random_peers(rng, 1);
            fallback.first().copied().ok_or(NodeError::NoPeersAvailable)
        } else {
            Ok(candidates[rng.gen_index(candidates.len())])
        }
    }

    /// Re-assesses `plan` against its sensitivity target and tops the fake
    /// shortfall up: fresh fakes drawn from the enclave past-query table on
    /// a forked RNG stream, each assigned to a distinct relay not already
    /// carrying part of the plan. Returns the relays that received top-ups
    /// (empty when the plan is already at target or the view is exhausted).
    fn top_up_fakes(&mut self, plan: &mut QueryPlan, rng: &mut Xoshiro256StarStar) -> Vec<PeerId> {
        let shortfall = plan.assessment.k.saturating_sub(plan.achieved_k());
        if shortfall == 0 {
            return Vec::new();
        }
        let mut candidates = self.view_peers_outside(plan);
        let draw = shortfall.min(candidates.len());
        if draw == 0 {
            return Vec::new();
        }
        let fakes = self.ecall(64 * draw, {
            let mut draw_rng = rng.fork(0x70FF);
            move |state| state.past_queries.draw_fakes(draw, &mut draw_rng)
        });
        let mut topped_up = Vec::with_capacity(fakes.len());
        for fake in fakes {
            let relay = candidates.swap_remove(rng.gen_index(candidates.len()));
            plan.assignments.push(Assignment {
                relay,
                query: fake,
                is_real: false,
            });
            self.stats.fakes_generated += 1;
            self.stats.fakes_topped_up += 1;
            topped_up.push(relay);
            if candidates.is_empty() {
                break;
            }
        }
        topped_up
    }

    /// Handles a query received as a relay: stores it in the in-enclave
    /// past-query table and returns the text to forward to the search
    /// engine (the node never learns whether it is real or fake).
    pub fn relay_query(&mut self, query: &str) -> String {
        let query_owned = query.to_owned();
        let resident = self.ecall(query.len() + 64, move |state| {
            state.past_queries.record(&query_owned);
            state.past_queries.resident_bytes()
        });
        self.enclave.set_resident_bytes(resident);
        // Leaving the enclave towards the network stack is an ocall.
        self.ocall(query.len());
        self.stats.queries_relayed += 1;
        query.to_owned()
    }

    /// Produces an attestation quote binding `report_data` (typically the
    /// node's handshake public key) to this enclave.
    pub(crate) fn quote(&self, report_data: &[u8]) -> Quote {
        generate_quote(&self.enclave, report_data)
    }

    /// The node's channel public key (derived inside the enclave).
    pub fn channel_public_key(&mut self) -> cyclosa_crypto::x25519::PublicKey {
        self.ecall(32, |state| state.keys.identity.public_key())
    }
}

/// The key material inside a node's enclave.
#[derive(Debug)]
struct EnclaveKeys {
    /// The long-term channel identity.
    identity: StaticSecret,
    /// The handshake key, derived from the identity on the enclave's first
    /// handshake and used for every later one (see [`handshake_key`]).
    handshake: Option<StaticSecret>,
}

impl EnclaveKeys {
    fn new(identity_seed: [u8; 32]) -> Self {
        Self {
            identity: StaticSecret::from_bytes(identity_seed),
            handshake: None,
        }
    }
}

/// Establishes a mutually attested secure channel between two nodes,
/// verifying both quotes against the attestation `service` before the
/// handshake completes (paper §V-D).
///
/// # Errors
///
/// Fails when either quote is rejected or the cryptographic handshake fails.
pub fn attested_channel_pair(
    initiator: &mut CyclosaNode,
    responder: &mut CyclosaNode,
    service: &AttestationService,
) -> Result<(SecureChannel, SecureChannel), NodeError> {
    // Each side fetches its handshake key from its enclave and binds the
    // public part into a quote.
    let initiator_secret = handshake_key(initiator);
    let responder_secret = handshake_key(responder);
    let initiator_quote = initiator.quote(initiator_secret.public_key().as_bytes());
    let responder_quote = responder.quote(responder_secret.public_key().as_bytes());
    // Each side verifies the peer's quote with the attestation service.
    service.verify_for_cyclosa(&responder_quote)?;
    service.verify_for_cyclosa(&initiator_quote)?;
    // The handshake binds the quotes into the transcript, so any later
    // substitution is detected.
    let (init_channel, resp_channel) = channel_pair(
        initiator_secret,
        initiator_quote.to_bytes(),
        responder_secret,
        responder_quote.to_bytes(),
    )?;
    Ok((init_channel, resp_channel))
}

/// The node's handshake key, the X25519 secret whose public half its quotes
/// bind. It is one key per enclave, used with every peer: a pure function
/// of the channel identity, the node id and the measurement, none of which
/// changes after `build`. It is derived inside the enclave on the first
/// call and kept there; every call is one ecall all the same, so transition
/// counts and modelled time do not depend on which call derived it.
fn handshake_key(node: &mut CyclosaNode) -> StaticSecret {
    let node_id = node.id().0;
    let measurement = *node.enclave.measurement().as_bytes();
    node.ecall(64, move |state| {
        let EnclaveKeys {
            identity,
            handshake,
        } = &mut state.keys;
        handshake
            .get_or_insert_with(|| {
                StaticSecret::from_bytes(cyclosa_crypto::hkdf::derive_key(
                    b"cyclosa-ephemeral",
                    identity.public_key().as_bytes(),
                    &[&node_id.to_le_bytes()[..], &measurement[..]].concat(),
                ))
            })
            .clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_sgx::measurement::Measurement;

    /// The assignment carrying the real query.
    fn real_assignment(plan: &QueryPlan) -> &Assignment {
        plan.assignments()
            .iter()
            .find(|a| a.is_real)
            .expect("plans always contain the real query")
    }

    /// The fake-query texts of the plan.
    fn fake_queries(plan: &QueryPlan) -> impl Iterator<Item = &str> {
        plan.assignments()
            .iter()
            .filter(|a| !a.is_real)
            .map(|a| a.query.as_str())
    }

    fn node(id: u64, k_max: usize) -> CyclosaNode {
        let mut node = CyclosaNode::builder(id)
            .protection(ProtectionConfig::with_k_max(k_max))
            .build();
        node.bootstrap_with_seed_queries([
            "trending sneakers deal",
            "football league fixtures",
            "netflix series trailer",
            "cheap flights geneva",
            "laptop discount coupon",
            "museum opening hours",
            "sourdough starter recipe",
            "marathon training plan",
        ]);
        node.bootstrap_peers((100..130).map(PeerId));
        node
    }

    #[test]
    fn plan_assigns_distinct_relays_and_contains_real_query() {
        let mut node = node(1, 5);
        node.record_own_history(["zurich train timetable", "zurich airport parking"]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let plan = node.plan_query("zurich train strike", &mut rng).unwrap();
        assert!(plan.assessment.k >= 1);
        let relays: std::collections::BTreeSet<_> =
            plan.assignments().iter().map(|a| a.relay).collect();
        assert_eq!(
            relays.len(),
            plan.assignments().len(),
            "relays must be distinct"
        );
        assert_eq!(plan.assignments().iter().filter(|a| a.is_real).count(), 1);
        assert_eq!(real_assignment(&plan).query, "zurich train strike");
        assert_eq!(fake_queries(&plan).count(), plan.assignments().len() - 1);
        assert_eq!(node.stats().queries_planned, 1);
    }

    #[test]
    fn unlinkable_non_sensitive_query_travels_alone() {
        let mut node = node(2, 7);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let plan = node
            .plan_query("museum opening tomorrow", &mut rng)
            .unwrap();
        assert_eq!(plan.assessment.k, 0);
        assert_eq!(plan.assignments().len(), 1);
        assert!(plan.assignments()[0].is_real);
    }

    #[test]
    fn planning_requires_peers_and_content() {
        let mut lonely = CyclosaNode::builder(3).build();
        lonely.bootstrap_with_seed_queries(["seed query"]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        assert_eq!(
            lonely.plan_query("anything at all", &mut rng).unwrap_err(),
            NodeError::NoPeersAvailable
        );
        let mut node = node(4, 3);
        assert_eq!(
            node.plan_query("the of", &mut rng).unwrap_err(),
            NodeError::EmptyQuery
        );
    }

    #[test]
    fn relayed_queries_feed_the_fake_table() {
        let mut node = node(5, 3);
        let before = node.past_query_count();
        let forwarded = node.relay_query("hiv test anonymous clinic");
        assert_eq!(forwarded, "hiv test anonymous clinic");
        assert_eq!(node.past_query_count(), before + 1);
        assert_eq!(node.stats().queries_relayed, 1);
        assert!(node.enclave_stats().simulated_ns > 0);
    }

    #[test]
    fn fakes_are_drawn_from_the_past_query_table() {
        let mut node = node(6, 4);
        node.record_own_history(["cheap flights geneva", "cheap flights geneva paris"]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let plan = node.plan_query("cheap flights geneva", &mut rng).unwrap();
        let seeds = [
            "trending sneakers deal",
            "football league fixtures",
            "netflix series trailer",
            "cheap flights geneva",
            "laptop discount coupon",
            "museum opening hours",
            "sourdough starter recipe",
            "marathon training plan",
        ];
        for fake in fake_queries(&plan) {
            assert!(seeds.contains(&fake), "fake {fake} not from the table");
        }
    }

    #[test]
    fn reselect_relay_heals_the_plan_and_blacklists_the_dead_relay() {
        let mut node = node(20, 5);
        node.record_own_history(["zurich train timetable", "zurich airport parking"]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(20);
        let mut plan = node.plan_query("zurich train strike", &mut rng).unwrap();
        assert!(plan.assignments().len() >= 2);
        let failed = real_assignment(&plan).relay;
        let replacement = node
            .reselect_relay(&mut plan, failed, &mut rng)
            .unwrap()
            .expect("the failed relay was part of the plan");
        assert_ne!(replacement, failed);
        assert!(
            plan.assignments().iter().all(|a| a.relay != failed),
            "no assignment may still point at the dead relay"
        );
        let relays: std::collections::BTreeSet<_> =
            plan.assignments().iter().map(|a| a.relay).collect();
        assert_eq!(relays.len(), plan.assignments().len(), "still distinct");
        assert!(
            !node.peer_sampling().view().contains(failed),
            "dead relay must leave the view"
        );
        assert_eq!(node.stats().relays_reselected, 1);
    }

    #[test]
    fn membership_death_tops_up_fakes_proactively() {
        let mut node = node(30, 5);
        node.record_own_history(["zurich train timetable", "zurich airport parking"]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let mut plan = node.plan_query("zurich train strike", &mut rng).unwrap();
        let target = plan.achieved_k();
        assert!(target >= 1, "need at least one fake to kill");
        let dead = plan
            .assignments()
            .iter()
            .find(|a| !a.is_real)
            .expect("plan has fakes")
            .relay;
        let topped = node.top_up_dead_relay_fakes(&mut plan, dead, &mut rng);
        assert!(!topped.is_empty(), "the dead relay carried a fake");
        assert_eq!(plan.achieved_k(), target, "fake count must be restored");
        assert!(plan.assignments().iter().all(|a| a.relay != dead));
        assert!(
            !node.peer_sampling().view().contains(dead),
            "dead relay must leave the view"
        );
        let stats = node.stats();
        assert_eq!(stats.fakes_topped_up_proactive, topped.len() as u64);
        assert_eq!(stats.fakes_topped_up, topped.len() as u64);
        assert_eq!(
            stats.relays_reselected, 0,
            "no real query moved: this is not a reselection"
        );
        // A relay carrying only the real query triggers nothing here.
        let real_relay = real_assignment(&plan).relay;
        let before = node.stats().clone();
        assert!(node
            .top_up_dead_relay_fakes(&mut plan, real_relay, &mut rng)
            .is_empty());
        assert_eq!(
            node.stats().fakes_topped_up_proactive,
            before.fakes_topped_up_proactive
        );
    }

    #[test]
    fn losing_a_fake_relay_tops_the_plan_back_up() {
        let mut node = node(30, 5);
        node.record_own_history(["zurich train timetable", "zurich airport parking"]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(30);
        let mut plan = node.plan_query("zurich train strike", &mut rng).unwrap();
        let target = plan.achieved_k();
        assert!(target >= 1, "need at least one fake to kill");
        assert_eq!(node.stats().achieved_k, vec![target]);
        let failed = plan
            .assignments()
            .iter()
            .find(|a| !a.is_real)
            .expect("plan has fakes")
            .relay;
        let topped = node
            .reselect_relay(&mut plan, failed, &mut rng)
            .unwrap()
            .expect("the failed relay carried a fake");
        assert_ne!(topped, failed);
        assert_eq!(plan.achieved_k(), target, "fake count must be restored");
        assert!(plan.assignments().iter().all(|a| a.relay != failed));
        let relays: std::collections::BTreeSet<_> =
            plan.assignments().iter().map(|a| a.relay).collect();
        assert_eq!(relays.len(), plan.assignments().len(), "still distinct");
        let stats = node.stats();
        assert_eq!(stats.fakes_topped_up, 1);
        assert_eq!(stats.plans_degraded, 0);
        assert_eq!(stats.achieved_k[plan.sequence() as usize], target);
        // The redrawn fake comes from the enclave table.
        let seeds = [
            "trending sneakers deal",
            "football league fixtures",
            "netflix series trailer",
            "cheap flights geneva",
            "laptop discount coupon",
            "museum opening hours",
            "sourdough starter recipe",
            "marathon training plan",
        ];
        for fake in fake_queries(&plan) {
            assert!(
                seeds.contains(&fake),
                "topped-up fake {fake} not from table"
            );
        }
    }

    #[test]
    fn fake_only_shortfall_degrades_without_error_when_view_is_exhausted() {
        // Exactly as many peers as the plan needs: once a fake's relay
        // dies, no unused peer remains to top up from — the plan degrades
        // (counted) instead of failing the whole query.
        let mut node = CyclosaNode::builder(31)
            .protection(ProtectionConfig::with_k_max(5))
            .build();
        node.bootstrap_with_seed_queries([
            "trending sneakers deal",
            "football league fixtures",
            "netflix series trailer",
        ]);
        node.record_own_history(["zurich train timetable", "zurich airport parking"]);
        node.bootstrap_peers([PeerId(100), PeerId(101), PeerId(102)]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let mut plan = node.plan_query("zurich train strike", &mut rng).unwrap();
        let before = plan.achieved_k();
        assert!(before >= 1, "need a fake to lose");
        let failed = plan
            .assignments()
            .iter()
            .find(|a| !a.is_real)
            .expect("plan has fakes")
            .relay;
        // Exhaust the unused peers so the top-up has nowhere to go.
        for peer in [PeerId(100), PeerId(101), PeerId(102)] {
            if plan.assignments().iter().all(|a| a.relay != peer) {
                node.peer_sampling_mut().blacklist(peer);
            }
        }
        let result = node.reselect_relay(&mut plan, failed, &mut rng).unwrap();
        assert_eq!(result, None, "nothing to top up from");
        assert_eq!(plan.achieved_k(), before - 1, "plan degraded by one fake");
        assert!(node.stats().plans_degraded >= 1);
        assert_eq!(
            node.stats().achieved_k[plan.sequence() as usize],
            before - 1
        );
        // The real query is still alive on a live relay.
        assert!(real_assignment(&plan).relay != failed);
    }

    #[test]
    fn assignment_loop_always_places_the_real_query() {
        // The former fallback append after the assignment loop was dead
        // code: the fake count is capped at `relays.len() - 1`, so the loop
        // window always covers the drawn real position. Pin that reasoning
        // across many seeds and view sizes, including starved views.
        for seed in 0..100u64 {
            let mut wide = node(1000 + seed, 5);
            wide.record_own_history(["zurich train timetable", "zurich airport parking"]);
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let plan = wide.plan_query("zurich train strike", &mut rng).unwrap();
            assert_eq!(plan.assignments().iter().filter(|a| a.is_real).count(), 1);
            assert_eq!(plan.assignments().len(), plan.achieved_k() + 1);

            let mut narrow = CyclosaNode::builder(2000 + seed)
                .protection(ProtectionConfig::with_k_max(7))
                .build();
            narrow.bootstrap_with_seed_queries(["seed query one", "seed query two"]);
            narrow.record_own_history(["repeat me", "repeat me again"]);
            narrow.bootstrap_peers([PeerId(100), PeerId(101)]);
            let plan = narrow.plan_query("repeat me", &mut rng).unwrap();
            assert_eq!(plan.assignments().iter().filter(|a| a.is_real).count(), 1);
        }
    }

    #[test]
    fn reselect_relay_is_a_noop_for_relays_outside_the_plan() {
        let mut node = node(21, 3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let mut plan = node.plan_query("cheap flights geneva", &mut rng).unwrap();
        let before = plan.clone();
        // PeerId(129) is in the view but (most likely) not in this plan;
        // pick one definitely outside the plan instead.
        let outside = (100..130)
            .map(PeerId)
            .find(|p| plan.assignments().iter().all(|a| a.relay != *p))
            .expect("view is larger than the plan");
        assert_eq!(node.reselect_relay(&mut plan, outside, &mut rng), Ok(None));
        assert_eq!(plan, before, "plan untouched");
        assert!(!node.peer_sampling().view().contains(outside));
    }

    #[test]
    fn reselect_relay_fails_only_when_the_view_is_exhausted() {
        let mut node = CyclosaNode::builder(22).build();
        node.bootstrap_with_seed_queries(["seed query one", "seed query two"]);
        node.bootstrap_peers([PeerId(100), PeerId(101)]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(22);
        let mut plan = node.plan_query("anything at all", &mut rng).unwrap();
        // Kill every relay the node knows, one after the other.
        let mut last_error = None;
        for peer in [PeerId(100), PeerId(101)] {
            if let Err(e) = node.reselect_relay(&mut plan, peer, &mut rng) {
                last_error = Some(e);
            }
        }
        assert_eq!(
            last_error,
            Some(NodeError::NoPeersAvailable),
            "an empty view must surface as NoPeersAvailable"
        );
    }

    #[test]
    fn attested_channel_requires_provisioned_platform() {
        let mut alice = node(7, 3);
        let mut bob = node(8, 3);
        let mut service = AttestationService::new();
        service.allow_measurement(Measurement::cyclosa_reference());
        // Nothing provisioned yet: the handshake is refused.
        assert!(matches!(
            attested_channel_pair(&mut alice, &mut bob, &service),
            Err(NodeError::Attestation(_))
        ));
        service.provision_platform(&alice.platform().clone());
        service.provision_platform(&bob.platform().clone());
        let (mut a, mut b) = attested_channel_pair(&mut alice, &mut bob, &service).unwrap();
        let record = a.seal(b"forward: erotic stories", b"fwd");
        assert_eq!(b.open(&record, b"fwd").unwrap(), b"forward: erotic stories");
    }

    #[test]
    fn rogue_enclave_is_rejected() {
        let mut alice = node(9, 3);
        // Bob runs a tampered build: same platform provisioning, different
        // measurement.
        let mut bob = CyclosaNode::builder(10).build();
        bob.bootstrap_peers([PeerId(1)]);
        let mut service = AttestationService::new();
        service.provision_platform(&alice.platform().clone());
        service.provision_platform(&bob.platform().clone());
        // Only allow a measurement that matches neither node...
        service.allow_measurement(Measurement::rogue("other-build"));
        assert!(matches!(
            attested_channel_pair(&mut alice, &mut bob, &service),
            Err(NodeError::Attestation(AttestationError::UnknownMeasurement))
        ));
    }

    #[test]
    fn explicit_handshake_variant_matches() {
        let mut alice = node(11, 3);
        let mut bob = node(12, 3);
        let mut service = AttestationService::new();
        service.allow_measurement(Measurement::from_code_identity(
            b"cyclosa-enclave/0.1.0/reference-build",
        ));
        service.provision_platform(&alice.platform().clone());
        service.provision_platform(&bob.platform().clone());
        // `attested_channel_pair` runs the explicit two-message handshake
        // (`channel_pair`); here the responder's end speaks first.
        let (mut a, mut b) = attested_channel_pair(&mut alice, &mut bob, &service).unwrap();
        let record = b.seal(b"response page", b"rsp");
        assert_eq!(a.open(&record, b"rsp").unwrap(), b"response page");
    }

    #[test]
    fn error_display() {
        assert!(NodeError::NoPeersAvailable.to_string().contains("peers"));
        assert!(NodeError::EmptyQuery.to_string().contains("content"));
    }

    #[test]
    fn stale_plan_refresh_moves_dropped_relays_to_view_peers() {
        let mut node = node(40, 5);
        node.record_own_history(["zurich train timetable", "zurich airport parking"]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(40);
        let mut plan = node.plan_query("zurich train strike", &mut rng).unwrap();
        assert_eq!(plan.planned_at_round, 0);
        let before = plan.clone();

        // Fresh plan, aged view: threshold not reached → untouched.
        assert_eq!(node.refresh_stale_plan(&mut plan, 3, &mut rng), 0);
        assert_eq!(plan, before);

        // Rotate one of the plan's relays out of the view and age past
        // the threshold; the refresh must re-home exactly that
        // assignment, without blacklisting and without redrawing fakes.
        let rotated_out = plan.assignments()[0].relay;
        let old_query = plan.assignments()[0].query.clone();
        node.peer_sampling_mut().blacklist(rotated_out);
        for _ in 0..3 {
            node.peer_sampling_mut().increase_ages();
        }
        let moved = node.refresh_stale_plan(&mut plan, 3, &mut rng);
        assert_eq!(moved, 1);
        assert_ne!(plan.assignments()[0].relay, rotated_out);
        assert_eq!(plan.assignments()[0].query, old_query, "query unchanged");
        assert_eq!(plan.achieved_k(), before.achieved_k(), "no fakes redrawn");
        let relays: std::collections::BTreeSet<_> =
            plan.assignments().iter().map(|a| a.relay).collect();
        assert_eq!(relays.len(), plan.assignments().len(), "still distinct");
        assert_eq!(plan.planned_at_round, 3, "staleness clock reset");
        assert_eq!(node.stats().plans_refreshed, 1);

        // Immediately after the refresh the plan is fresh again.
        assert_eq!(node.refresh_stale_plan(&mut plan, 3, &mut rng), 0);
    }

    /// Every `plan.*` name has an emitter: planning, a fake relay's
    /// failure (top-up and repair), a membership death (proactive top-up)
    /// and a stale-plan refresh emit the whole family.
    #[test]
    fn every_plan_event_has_an_emitter() {
        let sink = cyclosa_telemetry::TraceSink::enabled();
        let mut node = node(60, 5);
        node.install_tracer(NodeTracer::new(sink.clone(), 60));
        node.record_own_history(["zurich train timetable", "zurich airport parking"]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(60);
        let mut plan = node.plan_query("zurich train strike", &mut rng).unwrap();
        let fake_relay = |plan: &QueryPlan| {
            plan.assignments()
                .iter()
                .find(|a| !a.is_real)
                .expect("plan has fakes")
                .relay
        };
        let failed = fake_relay(&plan);
        node.reselect_relay(&mut plan, failed, &mut rng).unwrap();
        let dead = fake_relay(&plan);
        node.top_up_dead_relay_fakes(&mut plan, dead, &mut rng);
        let rotated_out = plan.assignments()[0].relay;
        node.peer_sampling_mut().blacklist(rotated_out);
        node.peer_sampling_mut().increase_ages();
        node.refresh_stale_plan(&mut plan, 1, &mut rng);

        let events = sink.events();
        for name in EventName::ALL.iter().filter(|n| n.family() == "plan.") {
            assert!(
                events.iter().any(|e| e.name == name.as_str()),
                "no {name:?} emitted"
            );
        }
    }

    #[test]
    fn traced_planning_emits_causal_events_and_does_not_perturb() {
        use cyclosa_telemetry::{NodeTracer, TraceSink};

        let plan_and_repair = |node: &mut CyclosaNode, seed: u64| {
            node.record_own_history(["zurich train timetable", "zurich airport parking"]);
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let mut plan = node.plan_query("zurich train strike", &mut rng).unwrap();
            let failed = real_assignment(&plan).relay;
            node.reselect_relay(&mut plan, failed, &mut rng).unwrap();
            plan
        };

        let mut plain = node(50, 5);
        let expected = plan_and_repair(&mut plain, 50);

        let sink = TraceSink::enabled();
        let mut traced = node(50, 5);
        traced.install_tracer(NodeTracer::new(sink.clone(), 50));
        traced.set_trace_now(SimTime::from_millis(7));
        let observed = plan_and_repair(&mut traced, 50);

        assert_eq!(observed, expected, "tracing changed the plan");
        assert_eq!(traced.stats(), plain.stats());

        let events = sink.events();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"plan.assess"));
        assert!(names.contains(&"plan.fakes_drawn"));
        assert!(names.contains(&"plan.assign"));
        assert!(names.contains(&"plan.create"));
        assert!(names.contains(&"plan.repair"));
        assert!(events.iter().all(|e| e.actor == 50));
        assert!(events.iter().all(|e| e.at == SimTime::from_millis(7)));
        assert!(events.iter().all(|e| e.query == Some(0)));
        let repair = events.iter().find(|e| e.name == "plan.repair").unwrap();
        assert!(repair
            .attrs
            .iter()
            .any(|(k, v)| *k == "real_moved" && *v == cyclosa_telemetry::AttrValue::Bool(true)));
    }
}
