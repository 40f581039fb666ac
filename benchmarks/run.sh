#!/usr/bin/env bash
# One command for the whole benchmark: build it (release, offline), run
# every workload in fresh processes (untraced runs, then one traced run
# each), merge the records into one results file under a host fingerprint
# and print every metric as `workload name value unit`.
#
#   benchmarks/run.sh                      # all six workloads, 5 runs each
#   benchmarks/run.sh --quick              # tiny sizes, every check, < 20 s
#   benchmarks/run.sh --seed 7 --workload ping_dense_seq --runs 10
#   benchmarks/run.sh --out results/before.json
#
# Exits non-zero when any correctness check fails. Compare two results
# files with `cyclosa-perf compare A.json B.json` (see README.md).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
exec "${CARGO_TARGET_DIR:-target}/release/cyclosa-perf" suite "$@"
