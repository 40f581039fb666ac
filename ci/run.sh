#!/usr/bin/env bash
# Every CI check, written once. `.github/workflows/ci.yml` runs each of its
# jobs through this script, and it runs the same offline:
#
#   ci/run.sh <job>...     # the named jobs, in order
#   ci/run.sh local        # every job but scale-smoke and soak-acceptance,
#                          # then clean-tree
#
# Jobs: build-and-test, scale-smoke, docs, bench-smoke, chaos-smoke,
# soak-smoke, soak-acceptance, telemetry-smoke, clean-tree.
#
# Nothing tracked is written: regenerated records and artifacts go under
# target/ci/ and are diffed against the committed files, and a file seeded
# with a mutation is restored from a saved copy, also when the run is cut
# short. A failing check exits non-zero and names itself on stderr.
set -eEuo pipefail
cd "$(dirname "$0")/.."

OUT=target/ci
mkdir -p "$OUT"

CHECK=setup
check() {
    CHECK=$1
    echo "--- ci: $CHECK"
}
fail() {
    echo "ci: FAILED: $CHECK${1:+: $1}" >&2
    exit 1
}
trap 'echo "ci: FAILED: $CHECK" >&2' ERR

# Runs `$@` and requires it to exit with status 2 (a refused command line).
refused() {
    local status=0
    "$@" > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        fail "$* exited $status, expected 2"
    fi
}

# A seeded mutation: `seed FILE` saves FILE and appends stdin to it;
# `unseed` (also run on exit) puts the saved bytes back.
SEEDED=
seed() {
    SEEDED=$1
    cp "$SEEDED" "$OUT/seeded.orig"
    cat >> "$SEEDED"
}
unseed() {
    if [ -n "$SEEDED" ]; then
        cp "$OUT/seeded.orig" "$SEEDED"
        SEEDED=
    fi
}
trap unseed EXIT
trap 'exit 130' INT TERM

# Runs clippy over the lib of package $1 on the seeded tree, restores the
# file, and requires clippy to fail with each of the messages $2...
seeded_clippy_fails() {
    local package=$1 status=0 out banned
    shift
    out=$(cargo clippy -p "$package" --lib -- -D warnings 2>&1) || status=$?
    unseed
    echo "$out" | grep -E '^error' || true
    if [ "$status" -eq 0 ]; then
        fail "clippy accepted the seeded code"
    fi
    for banned in "$@"; do
        if ! echo "$out" | grep -qF "$banned"; then
            fail "clippy failed without a \"$banned\" error"
        fi
    done
}

job_build_and_test() {
    check "format"
    cargo fmt --check

    check "clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings

    # Library and bin code cannot panic on expect/unwrap/panic!/
    # unreachable!: a site that must stay states its invariant in
    # #[expect(clippy::..., reason = "...")], and #[allow] is refused
    # outright. Tests and examples are out of this check's scope.
    check "clippy (panic-free library and bin code)"
    cargo clippy --workspace --lib --bins -- -D warnings -D clippy::expect_used \
        -D clippy::unwrap_used -D clippy::panic -D clippy::unreachable \
        -D clippy::allow_attributes -D clippy::allow_attributes_without_reason

    # Every message these crates send goes through cyclosa_net::wire; a
    # hand-rolled little-endian codec there is a second wire layer.
    check "one wire layer (no hand-coded integers in peer-sampling or chaos)"
    if git grep -nE 'from_le_bytes|to_le_bytes' -- crates/peer-sampling/src crates/chaos/src; then
        fail "a hand-coded integer codec"
    fi

    # Clippy's #[expect(clippy::disallowed_*, reason)] sanctions the
    # wall-clock and hash-collection sites. Two forms clippy accepts would
    # hollow that out: an inner #![expect(...)]/#![allow(...)] naming a
    # disallowed_* lint sanctions a whole module or crate (perl reads each
    # file whole, as rustfmt may split the attribute over lines), and an
    # empty reason states nothing. benchmarks/, which times code, is its
    # own workspace and out of scope.
    check "disallowed-lint sanctions are per item and reasoned"
    if git grep -nE 'reason *= *""' -- crates src tests examples; then
        fail "an empty reason sanctions nothing"
    fi
    if ! git ls-files -z -- crates src tests examples | xargs -0 perl -0777 -ne \
        'if (/#!\[\s*(?:expect|allow)\s*\([^\]]*clippy::disallowed_/) { print "$ARGV\n"; $bad = 1 } END { exit $bad }'; then
        fail "an inner attribute in the file above names clippy::disallowed_*: sanction the item instead"
    fi

    # The ban still bites: a bare HashMap and an Instant::now() seeded into
    # the event core must fail clippy with both disallowed_* errors, so an
    # edit of clippy.toml that weakens the ban fails here.
    check "the disallowed_* ban still bites (seeded mutation)"
    seed crates/net/src/sim.rs <<'SEEDED'
/// Seeded: a bare std hash map.
pub fn seeded_state() -> std::collections::HashMap<u64, u64> { std::collections::HashMap::new() }
/// Seeded: a wall-clock read.
pub fn seeded_stopwatch() -> std::time::Instant { std::time::Instant::now() }
SEEDED
    seeded_clippy_fails cyclosa-net 'disallowed type `std::collections::HashMap`' \
        'disallowed method `std::time::Instant::now`'

    # Trace events are built from an EventName; TraceEvent::new, which
    # takes a bare string, is banned the same way. A name outside the
    # schema seeded through it into the core must fail clippy.
    check "the TraceEvent::new ban still bites (seeded mutation)"
    seed crates/core/src/node.rs <<'SEEDED'
/// Seeded: an event named outside the schema.
pub fn seeded_event() -> cyclosa_telemetry::TraceEvent { cyclosa_telemetry::TraceEvent::new(SimTime::ZERO, 0, "plan.zzz") }
SEEDED
    seeded_clippy_fails cyclosa 'disallowed method `cyclosa_telemetry::trace::TraceEvent::new`'

    check "build (release)"
    cargo build --release --workspace

    # Every table and figure of the paper at Small scale, as JSON. Each
    # number is a pure function of the seed, so the regenerated record
    # must equal the committed one byte for byte: the Fig. 5-8 paths the
    # workload, protection and load-experiment settings feed cannot move
    # unnoticed.
    check "per-figure record equals BENCH_repro.json"
    ./target/release/repro --scale small --json all > "$OUT/BENCH_repro.json"
    diff -u BENCH_repro.json "$OUT/BENCH_repro.json"
    # The Fig. 5/6 attacks run on every core the process may use; pinned
    # to one core they take the one-thread path, which must give the same
    # bytes.
    check "per-figure record on one core equals BENCH_repro.json"
    taskset -c 0 ./target/release/repro --scale small --json all > "$OUT/BENCH_repro_1core.json"
    diff -u BENCH_repro.json "$OUT/BENCH_repro_1core.json"

    # Clippy compiles the examples; this runs each of them (under 0.2 s
    # apiece in release), so the public surface they drive keeps working
    # end to end. Any non-zero exit fails the check. Every example is
    # deterministic, so their stdout, in file order and each under a
    # "== name ==" header, must equal the committed EXAMPLES.txt byte for
    # byte.
    check "every example runs and prints EXAMPLES.txt"
    local example name
    for example in examples/*.rs; do
        name="$(basename "$example" .rs)"
        echo "== $name =="
        cargo run --release --quiet --example "$name"
    done > "$OUT/EXAMPLES.txt"
    diff -u EXAMPLES.txt "$OUT/EXAMPLES.txt"

    # Every cyclosa-bench bin reads its command line through
    # cyclosa_bench::cli: usage and exit 0 for --help, "error: ..." and
    # exit 2 for a flag it does not know. A bin that is not wired to the
    # reader fails here; the chaos/soak/telemetry smoke jobs are the
    # end-to-end check that every real flag still parses.
    check "command-line contract of the six bench bins"
    local bin
    for bin in churn soak scale repro observe trace_check; do
        ./target/release/$bin --help > /dev/null
        refused ./target/release/$bin --no-such-flag
    done
    # A gate without its failure-free baseline is refused before anything
    # runs.
    refused ./target/release/churn --rates 0.1 --gate 1

    check "test"
    cargo test --workspace -q

    # The search kernel's differential suite (new scorer vs the old
    # map-based one kept under tests/), the attack kernel's (SimAttack's
    # pruned inverted index vs its own full scan and the seed's
    # string-keyed scan, scores bit for bit, decisions at five thresholds,
    # after interleaved learning and on exact ties), the result-page pins,
    # the deployment pins (every Fig. 8a/8b, churn, partition and soak
    # outcome on the sequential engine and 1/2/4/8 shards), the event
    # core's pins (one every-branch raw-Engine scenario, digests from
    # before the two engines shared their code; the 20 000-node ping with
    # its queue 2 × 10^4 deep, digest from the BinaryHeap queue; every
    # delivery instant of a 2 000-link hub and many small senders, digest
    # from the engine-wide link table), the net crate's own tests
    # optimised (the per-sender link lists against a copy of that table,
    # and the guard that one sender to 10^5 destinations × 4 rounds stays
    # under 5 s), the sharded == sequential suite (with its 160 generated
    # window-protocol scenarios, each compared cut by cut on 2/3/4/8/16
    # shards) and the runtime crate's own tests (the barrier's
    # 10^5-generation lockstep runs, the shard-identity and panic tests),
    # all with the optimizations the benchmark and the repro bins run
    # under, which is where ordering bugs show. Then the peer-sampling
    # pins of the paths BENCH_churn.json never reaches — the engine
    # shuffle and the engine Brahms overlay under Sybil attack at a seed
    # other than 2018, each on the sequential engine and 2/4 shards, a
    # shuffle overlay with every fault at once (kill, revive, rejoin,
    # bridged partition, eager cadence, live histograms), SWIM timelines
    # with a crash and an incarnation forgery, and converge_peer_views
    # over 20 CyclosaNodes. Then the handshake pin (X25519 on random and
    # non-canonical inputs, the RFC 7748 iterated vector, channel keys,
    # records and enclave transitions of attested pairs, captured before
    # the field kernel was rebuilt), and the crypto crate's own tests
    # optimised, where the RFC 7748 1 000-iteration vector is cheap. Then
    # the attack pin (the bytes of `repro --scale small --json fig5` and
    # every plain and 4-way OR-group SimAttack decision on the Small test
    # log at thresholds 0.3/0.5/0.7, captured from the kernel that
    # smoothed every candidate before max-score pruning).
    check "search and attack kernel equivalence and pins (release)"
    cargo test --release --test search_equivalence --test search_pin --test kernel_equivalence \
        --test attack_pin --test deployment_pin --test engine_pin --test runtime_determinism \
        --test handshake_pin
    cargo test --release -p cyclosa-net
    cargo test --release -p cyclosa-runtime
    cargo test --release --test simulator_pin
    cargo test --release -p cyclosa-crypto
    cargo test --release -p cyclosa-nlp
    cargo test --release -p cyclosa-attack
}

# The bin exits 1 when the two shard counts report different event
# counts, delivered counts or final instants, so this is also a
# 10^5-node inline-vs-sharded identity check of the event queue, and at
# 10^6 nodes (one round, some 0.8 GB) of the per-sender link lists.
job_scale_smoke() {
    check "scalability smoke (100k and 1M nodes, shard counts must agree)"
    cargo run --release -p cyclosa-bench --bin scale -- --nodes 100000 --shards 1,4 --rounds 2
    cargo run --release -p cyclosa-bench --bin scale -- --nodes 1000000 --shards 1,2 --rounds 1
}

job_docs() {
    # Broken intra-doc links and malformed rustdoc fail the build.
    check "rustdoc (deny warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

job_bench_smoke() {
    # The repository benchmark (BENCHMARK.json, benchmarks/) at tiny
    # sizes: all six workloads with every correctness check on — each
    # workload's digest must repeat across repetitions, the 2-shard soak's
    # outcome must equal the sequential one (sharded == sequential through
    # the window rendezvous), no operation may fail. Timings are not
    # compared with anything; this job keeps the checks a perf change is
    # measured under from rotting. Under 20 s once built.
    check "benchmark correctness smoke (all workloads, --quick)"
    benchmarks/run.sh --quick

    # The full-stack checks (every page a user is shown equals the
    # engine's reference_results, no request reaches the engine under its
    # issuer's address) once more on a second seed.
    check "full-stack correctness smoke (second seed)"
    benchmarks/run.sh --quick --workload node_fullstack --seed 7

    # The package's own tests: BENCHMARK.json and the metric tables stay
    # in step, ping_dense_seq and ping_dense_sharded print one digest,
    # every workload runs clean at quick sizes.
    check "benchmark package tests"
    cargo test --offline --manifest-path benchmarks/Cargo.toml
}

job_chaos_smoke() {
    # Small-population run of the churn robustness curves: the bin asserts
    # sharded-vs-sequential bit-identity under mid-run faults (partition
    # windows included) before reporting, sweeps the fixed-k AND
    # adaptive-k mechanisms plus the partition grid (minority fraction ×
    # duration), and fails (--gate) if adaptive attack accuracy at the
    # highest failure rate drifts more than 1.5 points above the
    # failure-free baseline OR any partition point's post-merge achieved_k
    # fails to recover to the failure-free ledger. 120 queries keep the
    # partition window + settle inside the horizon.
    # --membership adds the shuffle-vs-SWIM overlay comparison and its
    # gates: the SWIM overlay must quarantine the far side during the
    # split, re-knit the merged partition with ZERO bridge peers within
    # the healing budget, and suspicion-driven probation must not regress
    # post-merge achieved_k versus TTL probation.
    # --adversary adds the Sybil sweep: the identical identity-budget
    # attack replayed against the naive shuffle sampler and the Brahms
    # sampler (engine overlays; the heaviest fraction is re-run on the
    # sharded engine and must give equal views), converted into SimAttack
    # accuracy through a colluding-relay coalition sized by each sampler's
    # measured view poisoning. Its gates: at every Sybil fraction >= 20%
    # the Brahms view's attacker share stays within 0.15 of the global
    # share and the Brahms accuracy drift sits >= 5 points below the naive
    # sampler's, with the naive poisoned view strictly above Brahms at the
    # heaviest point.
    check "churn robustness smoke (adaptive-vs-fixed + partitions + membership + adversary, gated)"
    cargo run --release -p cyclosa-bench --bin churn -- --relays 30 --queries 120 \
        --rates 0,0.1,0.3,0.5 --partition-fractions 0.3 --partition-durations 15,30 --shards 4 \
        --membership --adversary --gate 1.5 --json --out "$OUT/BENCH_churn.json"
    cat "$OUT/BENCH_churn.json"

    # The command above is the one that produced the committed record, and
    # every number in it is a pure function of the seed: any byte of
    # difference is a behaviour change nobody declared.
    check "regenerated churn record equals BENCH_churn.json"
    diff -u BENCH_churn.json "$OUT/BENCH_churn.json"
}

job_soak_smoke() {
    # Short-horizon run of the long-horizon soak driver: diurnal load with
    # flash crowds, exponential churn and a 20% colluding coalition,
    # replayed over 50k queries. --gate fails the check on any in-run
    # invariant violation (achieved_k ledger, probation breach, plan
    # distinctness), a clamped latency sample, query-conservation
    # mismatch, a resident-footprint leak past the budget, or an answered
    # fraction below the floor — and the outcome must be bit-identical
    # across 1/2/4/8 engine shards. The full acceptance horizon (10^6
    # queries) is the soak-acceptance job.
    check "soak smoke (diurnal + churn + collusion, 4 shard counts, gated)"
    cargo run --release -p cyclosa-bench --bin soak -- --queries 50000 --churn 120,20 \
        --adversary 0.2 --policy collude --shards 1,2,4,8 --gate --json \
        --out "$OUT/BENCH_soak_smoke.json"
    cat "$OUT/BENCH_soak_smoke.json"

    # The soak invariants also run as integration tests at a
    # debug-friendly horizon; stretch them here to a mid-size horizon in
    # release mode (SOAK_QUERIES scales the in-test horizons).
    check "soak invariant tests (stretched horizon)"
    SOAK_QUERIES=20000 cargo test --release --test soak_invariants
}

# The acceptance record is contract in every field but wall time: the
# README's 10^6-query command, on 2 shards, must reproduce the committed
# BENCH_soak.json with the wall fields removed. About 30 s on 2 cores.
job_soak_acceptance() {
    check "acceptance soak record equals BENCH_soak.json (non-wall fields)"
    cargo run --release -p cyclosa-bench --bin soak -- --queries 1000000 --churn 120,20 \
        --adversary 0.2 --policy collude --shards 2 --gate --json \
        --out "$OUT/BENCH_soak_check.json"
    local wall='del(.sequential_wall_s, .shards_verified)'
    diff -u <(jq -S "$wall" BENCH_soak.json) <(jq -S "$wall" "$OUT/BENCH_soak_check.json")
}

job_telemetry_smoke() {
    # Traced churn run: the bin re-runs the heaviest swept rate with the
    # trace sink and metrics registry on and the 4-shard engine profiling
    # itself, asserts the observed outcome is bit-identical to the
    # untraced one, and exports the timeline (JSONL + Chrome trace) plus
    # the metrics snapshot.
    check "traced churn smoke (observation must not perturb)"
    cargo run --release -p cyclosa-bench --bin churn -- --relays 30 --queries 120 \
        --rates 0,0.3,0.5 --shards 4 --trace "$OUT/trace.jsonl" --metrics "$OUT/metrics.json"
    cat "$OUT/metrics.json"

    # The snapshot carries the deployment histograms and no gauges.
    check "metrics snapshot carries the deployment histograms"
    grep -q '"client.end_to_end_ns"' "$OUT/metrics.json"
    grep -q '"relay.service_ns"' "$OUT/metrics.json"
    if grep -q '"gauges"' "$OUT/metrics.json"; then
        fail "metrics.json has a gauges section"
    fi

    # The engine never sees the trace sink, which orders the timeline when
    # it is read: the same command on one shard (which runs inline, with
    # no worker thread) must write the same bytes.
    check "timeline is engine-independent (4 shards vs 1)"
    cargo run --release -p cyclosa-bench --bin churn -- --relays 30 --queries 120 \
        --rates 0,0.3,0.5 --shards 1 --trace "$OUT/trace_1shard.jsonl" \
        --metrics "$OUT/metrics_1shard.json"
    cmp "$OUT/trace.jsonl" "$OUT/trace_1shard.jsonl"

    # Schema gate: both exports must re-parse, and the timeline must
    # contain the causal story — a fault-forced repair, an injected fault,
    # an answered-query span, and (at 50% failures) the privacy SLO's burn
    # alerts.
    check "validate trace exports"
    cargo run --release -p cyclosa-bench --bin trace_check -- --jsonl "$OUT/trace.jsonl" \
        --chrome "$OUT/trace.chrome.json" --require-event query.repair \
        --require-event fault.leave --require-event query.answered \
        --require-event slo.privacy.burn

    # Analysis report over the stressed artifact: critical paths, rollup
    # sketches, slowest-query causal chains, SLO pass.
    check "observe report (stressed run)"
    cargo run --release -p cyclosa-bench --bin observe -- --trace "$OUT/trace.jsonl" \
        --metrics "$OUT/metrics.json" --out "$OUT/OBSERVE_report.json"

    # Failure-free baseline: a traced run with no injected faults must
    # record zero privacy-SLO violations — every answered query keeps
    # achieved_k == assessed_k. --gate-privacy fails the check otherwise.
    check "traced failure-free baseline"
    cargo run --release -p cyclosa-bench --bin churn -- --relays 30 --queries 120 --rates 0 \
        --shards 4 --trace "$OUT/trace_baseline.jsonl" --metrics "$OUT/metrics_baseline.json"

    check "privacy-SLO gate (baseline must be violation-free)"
    cargo run --release -p cyclosa-bench --bin observe -- --trace "$OUT/trace_baseline.jsonl" \
        --out "$OUT/OBSERVE_baseline.json" --gate-privacy
}

# A check that starts writing tracked files fails here instead of passing
# against its own output.
job_clean_tree() {
    check "the tree is clean"
    local dirty
    dirty=$(git status --porcelain)
    if [ -n "$dirty" ]; then
        echo "$dirty" >&2
        fail "the files above are modified or untracked"
    fi
}

job_local() {
    job_build_and_test
    job_docs
    job_bench_smoke
    job_chaos_smoke
    job_soak_smoke
    job_telemetry_smoke
    job_clean_tree
}

if [ "$#" -eq 0 ]; then
    sed -n '2,15s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
for job in "$@"; do
    if ! declare -F "job_${job//-/_}" > /dev/null; then
        echo "ci: unknown job \"$job\"" >&2
        exit 2
    fi
done
for job in "$@"; do
    "job_${job//-/_}"
done
echo "--- ci: passed: $*"
