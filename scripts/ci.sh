#!/usr/bin/env bash
# CI gate: tier-1 verification (ROADMAP.md) + formatting + lints.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== lockdep: full suite under DIESEL_LOCKDEP=fail =="
# The lock-order witness (DESIGN.md §12) panics on the first acquisition
# that closes a cycle in the lock-order graph, so any ABBA inversion
# introduced anywhere in the tree is a deterministic red build here —
# not a flaky timeout in production.
DIESEL_LOCKDEP=fail cargo test -q --workspace

echo "== determinism: inline executor (DIESEL_EXEC_WORKERS=1) =="
# The concurrency contract (DESIGN.md §9): worker count is a performance
# knob, never a behaviour knob. Run the suite fully inline…
DIESEL_EXEC_WORKERS=1 cargo test -q --test determinism

echo "== determinism: multi-worker stress (DIESEL_EXEC_WORKERS=8) =="
# …and under real scheduling pressure; both must yield identical bytes.
DIESEL_EXEC_WORKERS=8 cargo test -q --test determinism

echo "== elastic membership: mid-epoch 4→8→4 under lockdep =="
# The elastic-membership scenario (DESIGN.md §13): a warm cache grows
# and shrinks mid-epoch while training reads stream through it. Run it
# with the lock-order witness armed, inline and under scheduling
# pressure — batches must stay byte-identical to a static run and the
# rebalance must never deadlock against concurrent reads.
DIESEL_LOCKDEP=fail DIESEL_EXEC_WORKERS=1 \
    cargo test -q --test determinism mid_epoch_resize_keeps_batches_byte_identical
DIESEL_LOCKDEP=fail DIESEL_EXEC_WORKERS=8 \
    cargo test -q --test determinism mid_epoch_resize_keeps_batches_byte_identical

echo "== multi-tenant: isolation + determinism under lockdep =="
# The multi-tenant plane (DESIGN.md §14): two tenants over one shared
# TenantCacheMap. Tenant A's nodes die and its backing chunks are
# corrupted mid-epoch; tenant B's batches must stay byte-identical and
# its residency untouched — inline and under scheduling pressure, with
# the lock-order witness armed (tenant map + DRR lanes are ranked locks).
DIESEL_LOCKDEP=fail DIESEL_EXEC_WORKERS=1 \
    cargo test -q --test determinism two_tenant_epochs_are_byte_identical_across_worker_counts
DIESEL_LOCKDEP=fail DIESEL_EXEC_WORKERS=8 \
    cargo test -q --test determinism two_tenant_epochs_are_byte_identical_across_worker_counts
DIESEL_LOCKDEP=fail \
    cargo test -q --test fault_tolerance tenant_a_corruption_leaves_tenant_b_byte_identical

echo "== tracing: determinism =="
# Trace export obeys the same replayability contract as the data path:
# two identical MockClock'd single-worker runs → byte-identical JSON.
cargo test -q --test determinism traced_epochs_export_byte_identical_chrome_json

echo "== tracing: traced-epoch smoke =="
# One fully traced epoch through channel+cache+server+store; the bench
# itself asserts the JSON parses and at least one client read span has
# a server.handle descendant, exiting nonzero otherwise.
trace_out="$(mktemp /tmp/diesel-trace.XXXXXX.json)"
cargo run -q --release -p diesel-bench --bin loader_pipeline -- --trace "$trace_out"
rm -f "$trace_out"

echo "== telemetry plane: deterministic recorder + SLO under lockdep =="
# The §15 acceptance scenario, with the lock-order witness armed: two
# MockClock'd multi-tenant replays must produce byte-identical flight
# recordings, the induced overload must emit the exact breach→recover
# event sequence, and ServerRequest::Scrape must round-trip through the
# Prometheus parser — all deterministic, so any diff is a real bug.
DIESEL_LOCKDEP=fail cargo test -q --test telemetry

echo "== bench gates (payload + elastic + mixed tenants + obs plane) =="
# Perf ratchets (DESIGN.md §11, §13, §14, §15): rerun the fixed suites
# and fail if any key drifts past tolerance× the recorded baselines in
# BENCH_6.json (zero-copy payload plane), BENCH_8.json (ring lookup,
# 4→8→4 rebalance wall time, store read amplification), BENCH_9.json
# (multi-tenant isolation: light-tenant slowdown under a 10× neighbour,
# fairness ratio, simulated KV QPS ceiling) and BENCH_10.json (telemetry
# plane: recorder tick / Prometheus render / SLO eval cost, plus the
# hard <=5% hot-path overhead and SLO-health contracts asserted inside
# the suite itself). Only the deterministic ratio/count keys are gated
# (store read amplification, recorder overhead ratio, the mixed-tenant
# keys): wall-clock keys are measured and written to `current`, and
# their regressions are caught by the BENCHMARK.json per-layer metrics
# compared against the parent commit, not by an absolute baseline.
scripts/bench.sh --check --tolerance 2.5

# obs_plane archives the deterministic scenario's Prometheus scrape and
# already re-parsed it; keep the artifact honest here too.
test -s results/scrape.prom || { echo "missing results/scrape.prom"; exit 1; }

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc =="
# Public docs must build warning-free (broken intra-doc links, missing
# docs on public items, etc. are errors).
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "== manifests: every diesel-* dependency is named =="
# A crate's [dependencies] may list a workspace crate only if its src/
# names it (`diesel_<name>`); edges nothing uses hide the real layering.
unused=0
for manifest in crates/*/Cargo.toml; do
    src="$(dirname "$manifest")/src"
    for dep in $(awk '/^\[/{deps=($0=="[dependencies]")} deps&&/^diesel-/{sub(/[ .=].*/,""); print}' "$manifest"); do
        grep -rq "${dep//-/_}" "$src" || { echo "$manifest: $dep is never named under $src"; unused=1; }
    done
done
[ "$unused" -eq 0 ]

echo "== modules: every module file has a caller =="
# A module's top-level `pub` items are invisible to rustc's dead-code
# lint, and a `pub use` in lib.rs is not a caller: at least one of them
# (declared before the file's first #[cfg(test)]) must be named in some
# other .rs file on a line that is not a re-export, `pub mod` or comment.
orphans=0
for f in crates/*/src/*.rs; do
    case "${f##*/}" in lib.rs|main.rs) continue ;; esac
    names="$(awk '/#\[cfg\(test\)\]/{exit} /^pub (struct|enum|trait|fn|type|const) /{sub(/[^A-Za-z0-9_].*/,"",$3); print $3}' "$f" | paste -sd'|')"
    [ -n "$names" ] || continue
    find crates src tests examples -name '*.rs' ! -path "$f" -print0 | xargs -0 awk -v re="(^|[^A-Za-z0-9_])($names)([^A-Za-z0-9_]|\$)" '
        FNR==1{u=0} /^[ \t]*pub use /{u=1} u{if(/;/)u=0; next}
        /^[ \t]*(pub mod |\/\/)/{next} $0~re{found=1; exit} END{exit !found}' ||
        { echo "$f: no pub item ($names) is named outside the file"; orphans=1; }
done
[ "$orphans" -eq 0 ]

echo "== diesel-lint =="
# Fails on any non-baselined R1–R6 finding; --baseline-check enforces the
# ratchet (lint-baseline.txt may only ever shrink). The full unfiltered
# report is kept as a build artifact for dashboards and archaeology.
mkdir -p results
# The artifact run exits 1 whenever any (baselined) finding exists; only
# the ratchet below gates.
cargo run -q -p diesel-lint --offline -- --workspace --json > results/lint-report.json || true
cargo run -q -p diesel-lint --offline -- --workspace --baseline lint-baseline.txt --baseline-check

echo "CI gate passed."
