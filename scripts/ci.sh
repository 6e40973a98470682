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
# not a flaky timeout in production. The same run holds the witness's
# cost gate: diesel-util's `lockdep::tests::a_known_order_takes_no_graph_lock`
# fails if an order a thread has already recorded locks the global graph.
DIESEL_LOCKDEP=fail cargo test -q --workspace

echo "== lockdep: the witness's own tests under DIESEL_LOCKDEP=off =="
# `off` is a mode a user can choose, so the witness's own tests must hold
# there too: each records the orders it inverts under a thread-scoped
# mode, never under the process mode.
DIESEL_LOCKDEP=off cargo test -q -p diesel-util
DIESEL_LOCKDEP=off cargo test -q --test lockdep

echo "== determinism: inline executor (DIESEL_EXEC_WORKERS=1) =="
# The concurrency contract (DESIGN.md §9): worker count is a performance
# knob, never a behaviour knob. Run the suite fully inline…
DIESEL_EXEC_WORKERS=1 cargo test -q --test determinism

echo "== determinism: multi-worker stress (DIESEL_EXEC_WORKERS=8) =="
# …and under real scheduling pressure; both must yield identical bytes.
DIESEL_EXEC_WORKERS=8 cargo test -q --test determinism

echo "== tenant isolation: determinism under lockdep =="
# Failure containment the paper's way (DESIGN.md §14): one TaskCache per
# task. Two tenants' caches share one backing store and one registry;
# tenant A's nodes die and its backing chunks are corrupted mid-epoch,
# and tenant B's batches must stay byte-identical and its residency
# untouched — inline and under scheduling pressure, with the lock-order
# witness armed over the store and registry locks the two caches share.
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

echo "== examples: each one runs and checks itself =="
# The examples assert what they print, so a broken one fails the gate;
# they are also product roots for the scan below.
for example in quickstart failure_recovery memory_constrained distributed_training; do
    cargo run --release --offline -q --example "$example"
done

echo "== fig10b: the client's stat over a 200 k-file table =="
# The one paper figure that measures the client's metadata table for
# real, at a scale no test reaches; it asserts that every lookup hits.
cargo run --release --offline -q -p diesel-bench --bin fig10b

echo "== dlcmd: every verb over a scratch store =="
# The CLI is a product root too: import a generated tree, read it back
# byte for byte, run each inspection verb, then delete and purge. Every
# file lives under one mktemp directory, so no tracked file changes.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
dlcmd() { cargo run --release --offline -q -p diesel-core --bin dlcmd -- --store "$work/store" "$@"; }
mkdir -p "$work/src/a/b"
for i in 1 2 3 4 5; do seq 1 $((i * 300)) > "$work/src/a/f$i.txt"; done
echo top > "$work/src/top.txt"
echo deep > "$work/src/a/b/deep.txt"
dlcmd put "$work/src" ds
dlcmd get ds "$work/out"
diff -r "$work/src" "$work/out"
dlcmd cat ds a/b/deep.txt | cmp - "$work/src/a/b/deep.txt"
# Every directory is listed exactly once, however many files and chunks
# imply it.
dlcmd ls ds | diff - <(printf '%s\n' 'd          -  a/' 'f          4  top.txt')
dlcmd ls ds a | diff - <(printf '%s\n' 'd          -  b/' \
    'f       1092  f1.txt' 'f       2292  f2.txt' 'f       3492  f3.txt' \
    'f       4893  f4.txt' 'f       6393  f5.txt')
# A dataset name with a `/` would share keys with another dataset (`a/b`'s
# file `y` is `a`'s file `b/y`), so the server refuses it before writing
# anything, and `ds` lists as before: directories, then files, each in
# name order.
if dlcmd put "$work/src" a/b > /dev/null 2>&1; then
    echo "dlcmd put into a dataset named a/b succeeded"
    exit 1
fi
# Every verb reaches the server through a client or its request dispatch,
# which makes the same check: `ds/a` names no dataset, and no verb may
# answer for, or delete, `ds`'s file a/b/deep.txt through it. `ls` lists
# the loaded snapshot, so a path no file lies under, or a file, is no
# directory to list.
for verb in "stat ds/a b/deep.txt" "cat ds/a b/deep.txt" "rm ds/a b/deep.txt" "ls ds/a" \
    "ls ds nope" "ls ds top.txt"; do
    if dlcmd $verb > /dev/null 2>&1; then
        echo "dlcmd $verb succeeded"
        exit 1
    fi
done
dlcmd cat ds a/b/deep.txt | cmp - "$work/src/a/b/deep.txt"
dlcmd ls ds | diff - <(printf '%s\n' 'd          -  a/' 'f          4  top.txt')
dlcmd stat ds top.txt
dlcmd du ds
dlcmd datasets
dlcmd stats > /dev/null
dlcmd snapshot ds "$work/ds.snap"
dlcmd trace ds "$work/trace.json" > /dev/null
[ -s "$work/trace.json" ]
dlcmd rm ds a/f1.txt
if dlcmd cat ds a/f1.txt > /dev/null 2>&1; then
    echo "dlcmd cat of a deleted file succeeded"
    exit 1
fi
dlcmd purge ds
dlcmd cat ds top.txt | cmp - "$work/src/top.txt"
# A crash mid-write can leave a chunk short. Recovery runs before every
# verb, so it skips such a torn chunk instead of failing: import the tree
# again as `torn` (one chunk), cut that chunk inside its 54-byte fixed
# header, and the verbs over `ds` still work while stderr reports the
# quarantined chunk.
dlcmd put "$work/src" torn > /dev/null
torn=("$work/store"/torn%2F*)
[ "${#torn[@]}" -eq 1 ]
truncate -s 40 "${torn[0]}"
dlcmd ls ds 2> "$work/ls.err" | diff - <(printf '%s\n' 'd          -  a/' 'f          4  top.txt')
dlcmd cat ds top.txt 2> "$work/cat.err" | cmp - "$work/src/top.txt"
for err in "$work/ls.err" "$work/cat.err"; do
    grep -qx 'dlcmd: torn: 1 torn chunk(s) quarantined' "$err"
done

echo "== paired runs: scripts/paired.sh self-test =="
# scripts/paired.sh runs the paired protocol a performance change is
# judged by (parent and change built once each, alternating runs,
# medians, quartiles and pairs won). Its self-test pairs this build with
# itself for one pair at smoke scale and fails on a missing metric or a
# failed operation.
scripts/paired.sh --self-test

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc =="
# Public docs must build warning-free (broken intra-doc links, missing
# docs on public items, etc. are errors).
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "== manifests: every diesel-* dependency and every dev-dependency is named =="
# A crate's [dependencies] may list a workspace crate only if its src/
# names it (`diesel_<name>`); edges nothing uses hide the real layering.
# Every [dev-dependencies] entry must be named under its src/, tests/,
# benches/ or examples/.
unused=0
for manifest in crates/*/Cargo.toml; do
    crate="$(dirname "$manifest")"
    for dep in $(awk '/^\[/{deps=($0=="[dependencies]")} deps&&/^diesel-/{sub(/[ .=].*/,""); print}' "$manifest"); do
        grep -rq "${dep//-/_}" "$crate/src" || { echo "$manifest: $dep is never named under $crate/src"; unused=1; }
    done
    dirs=()
    for d in src tests benches examples; do [ -d "$crate/$d" ] && dirs+=("$crate/$d"); done
    for dep in $(awk '/^\[/{deps=($0=="[dev-dependencies]")} deps&&/^[a-z]/{sub(/[ .=].*/,""); print}' "$manifest"); do
        grep -rq "${dep//-/_}" "${dirs[@]}" || { echo "$manifest: dev-dependency $dep is never named"; unused=1; }
    done
done
[ "$unused" -eq 0 ]

echo "== modules + items: every pub item has a product-root caller =="
# `pub` items are invisible to rustc's dead-code lint, and a `pub use` is
# not a caller; neither is the workspace's tests/ directory nor a crate's
# own tests/. A caller is code a product root reaches: the `dlcmd`
# binary, a `diesel-bench` figure bin, a `diesel-benchmark` workload, or
# an example the stanza above runs. A `pub fn|struct|enum|trait|type|const`
# declared outside `#[cfg(test)]` under crates/*/src (not crates/benchmark,
# not bin/) must be named in another .rs file under crates/*/src, src/ or
# examples/, or in its own file's non-test code, on a line that is not a
# re-export, `pub mod` or comment; and every module file needs a
# top-level pub item that is named in another file or exempted. A
# textual scan: a name shared with a called item hides an uncalled one.
find crates src examples -name '*.rs' -not -path 'crates/*/tests/*' | sort | xargs awk '
    BEGIN {
        # Exemptions, one reason each (at most ten).
        x["crates/core/src/client.rs: overwrite"]         # Table 3 API surface (§5): in-place file update
        x["crates/core/src/client.rs: connect_channel"]   # Table 3 DL_connect over a caller-built channel
        x["crates/cache/src/task_cache.rs: set_verify_on_load"] # §4.2 corruption detection: safety code, on in tests/corruption.rs
        x["crates/obs/src/copies.rs: copied_total"]       # zero-copy invariant probe read by tests/zero_copy.rs
        x["crates/obs/src/copies.rs: copied_at"]          # zero-copy invariant probe read by tests/zero_copy.rs
        x["crates/obs/src/lockdep.rs: cycles_reported"]   # lock-order invariant probe read by tests/lockdep.rs
        x["crates/net/src/fault.rs: FaultPolicy"]         # seeded net fault injectors, kept for composed fault schedules (ROADMAP item 5)
        x["crates/net/src/fault.rs: FaultChannel"]        # seeded net fault injectors, kept for composed fault schedules (ROADMAP item 5)
    }
    FNR==1 { use=0; test=0; skip=0; armed=0; base=FILENAME; sub(/.*\//,"",base)
             cand=(FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/benchmark\/|\/bin\//)
             module=(cand && base!="lib.rs" && base!="main.rs") }
    { line=$0; sub(/\/\/.*/,"",line) }
    line ~ /^[ \t]*pub use / { use=1 }
    use { if (line ~ /;/) use=0; next }
    line ~ /^[ \t]*pub mod / { next }
    # `#[cfg(test)] mod` opens the test region (to end of file); on any
    # other item it hides just that item, braces balanced.
    cand && line ~ /^[ \t]*#\[cfg\(test\)\]/ { armed=1; next }
    armed && line ~ /^[ \t]*(#\[.*\])?[ \t]*$/ { next }
    armed { armed=0; if (line ~ /^[ \t]*(pub )?mod /) test=1; else { skip=1; depth=0; opened=0 } }
    { hidden=skip }
    skip { o=gsub(/\{/,"{",line); c=gsub(/\}/,"}",line); depth+=o-c; if (o) opened=1
           if ((opened && depth<=0) || (!opened && line ~ /;/)) skip=0 }
    {
        live=(cand && !test && !hidden)
        if (live && match(line, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|trait|type|const) [A-Za-z_][A-Za-z0-9_]*/)) {
            t=substr(line, RSTART, RLENGTH); sub(/.* /,"",t)
            n=++ndecl; dfile[n]=FILENAME; dname[n]=t; dtop[n]=(module && line ~ /^pub /)
            decls[FILENAME SUBSEP t]++
        }
        m=split(line, tok, /[^A-Za-z0-9_]+/)
        for (i=1;i<=m;i++) { t=tok[i]; if (t=="") continue
            if (!((t SUBSEP FILENAME) in seen)) { seen[t SUBSEP FILENAME]=1; nfiles[t]++ }
            if (live) own[FILENAME SUBSEP t]++
        }
    }
    END {
        for (n=1;n<=ndecl;n++) { f=dfile[n]; t=dname[n]; elsewhere=(nfiles[t]>1)
            if (dtop[n]) { names[f]=names[f] " " t; if (elsewhere || (f ": " t) in x) modok[f]=1 }
            if (elsewhere || own[f SUBSEP t]>decls[f SUBSEP t] || (f ": " t) in x) continue
            print f ": " t; bad=1
        }
        for (f in names) if (!(f in modok)) { print f ": no pub item (" names[f] " ) is named outside the file"; bad=1 }
        exit bad
    }'

echo "== diesel-lint =="
# Lock discipline (R3), lock order (R5) and copy hygiene (R6): any
# finding fails. Panic-freedom and determinism are clippy's, above.
cargo run -q -p diesel-lint --offline -- --workspace

echo "CI gate passed."
