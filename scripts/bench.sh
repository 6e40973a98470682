#!/usr/bin/env bash
# Benchmark gates (DESIGN.md §11, §13).
#
# Runs the fixed bench suites against their JSON ledgers:
#   payload_bench -> BENCH_6.json  (zero-copy payload plane)
#   elastic_bench -> BENCH_8.json  (ring lookup + 4→8→4 rebalance +
#                                   store read amplification)
#   mixed_tenants -> BENCH_9.json  (multi-tenant isolation: slowdown
#                                   under a skewed neighbour, fairness,
#                                   simulated KV QPS ceiling)
#   obs_plane     -> BENCH_10.json (telemetry plane: recorder tick /
#                                   Prometheus render / SLO eval cost,
#                                   <=5% hot-path overhead contract,
#                                   deterministic SLO health scenario;
#                                   also archives results/scrape.prom)
# The first ever run of each suite seeds its `baseline` section (kept
# verbatim forever); every later run rewrites `current`. Pass `--check`
# to fail if a gated key regresses past `--tolerance`× baseline — the
# deterministic ratio/count keys; wall-clock keys are recorded only.
#
# Usage:
#   scripts/bench.sh                     # refresh `current` in both ledgers
#   scripts/bench.sh --check             # also enforce the regression gates
#   scripts/bench.sh --check --tolerance 2.5
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p diesel-bench \
  --bin payload_bench --bin elastic_bench --bin mixed_tenants --bin obs_plane
target/release/payload_bench "$@"
target/release/elastic_bench "$@"
target/release/mixed_tenants "$@"
target/release/obs_plane "$@"
