#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree.
#
#   scripts/paired.sh <parent-rev> <workload> <pairs> <first-seed> [seconds]
#   scripts/paired.sh --self-test
#
# Builds diesel-benchmark once for <parent-rev>, offline, in a git
# worktree under `mktemp -d`, and once for the working tree. Then runs
# <pairs> pairs of untraced <workload> runs of [seconds] (default 18, as
# BENCHMARK.json sets) on consecutive seeds from <first-seed>, and
# alternates which side runs first: the parent in even pairs, the change
# in odd ones. For each end-to-end metric of BENCHMARK.json it prints,
# in CHANGES.md's format, each side's median [first–third quartile],
# the change in the median, how many pairs the change won (a tie counts
# for neither) and every run, parent→change. Tracked files stay as they
# are: the worktree and both binaries live under the temporary
# directory, which is removed on exit.
#
# --self-test pairs the working tree's build with itself for one pair at
# the benchmark's smoke scale (`--smoke`, every workload at ≈1 % sizes)
# and fails unless every workload reports every end-to-end metric with
# no failed operation on either side.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '4,5p' "$0" | sed 's/^#  *//' >&2
    exit 2
}

work="$(mktemp -d)"
worktree=""
cleanup() {
    if [ -n "$worktree" ]; then
        git worktree remove --force "$worktree" 2>/dev/null || true
        git worktree prune
    fi
    rm -rf "$work"
}
trap cleanup EXIT

# Build diesel-benchmark in the tree at $1, into target directory $2,
# and copy the binary to $3: the copy is what runs.
build() {
    (cd "$1" && CARGO_TARGET_DIR="$2" \
        cargo build --release --offline --quiet --package diesel-benchmark) >&2
    cp "$2/release/diesel-benchmark" "$3"
}
# The working tree builds where cargo would build it anyway.
here="$(pwd)/${CARGO_TARGET_DIR:-target}"
case "${CARGO_TARGET_DIR:-}" in /*) here="$CARGO_TARGET_DIR" ;; esac

# The end-to-end table of workload $2 in the benchmark output $1, as
# `<metric> <value>` lines, then `failed <failed> <attempted>`.
table() {
    awk -v w="$2" '
        /^== / { on = ($2 == w && $3 == "(end-to-end,"); next }
        on && $1 == "failed" { print "failed", $3, $6; on = 0; next }
        on && NF >= 3 { print $1, $2 }
    ' "$1"
}

# BENCHMARK.json's end-to-end metrics as `<name> <lower|higher>` lines.
metrics() {
    awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 } on' BENCHMARK.json |
        sed -n 's/.*"name": "\([a-z_]*\)".*"better": "\([a-z]*\)".*/\1 \2/p'
}

# Summarize the records on stdin — `<pair> <seed> <side> <metric>
# <value>` — for workload $1.
summarize() {
    awk -v workload="$1" -v spec="$(metrics | tr '\n' ' ')" '
        function floor(x,   f) { f = int(x); return f > x ? f - 1 : f }
        function group(s,   neg, whole, frac, out) {
            neg = s ~ /^-/; sub(/^-/, "", s)
            whole = s; frac = ""
            if (index(s, ".")) { whole = substr(s, 1, index(s, ".") - 1); frac = substr(s, index(s, ".")) }
            out = ""
            while (length(whole) > 3) {
                out = " " substr(whole, length(whole) - 2) out
                whole = substr(whole, 1, length(whole) - 3)
            }
            return (neg ? "-" : "") whole out frac
        }
        # Four significant digits, at most four decimals (the benchmark
        # prints no more); thousands grouped, 100 000 and up in k.
        function fmt(v,   a, d) {
            a = v < 0 ? -v : v
            if (a >= 100000) return group(sprintf("%.1f", v / 1000)) " k"
            if (a >= 1000) return group(sprintf("%.0f", v))
            d = a > 0 ? 3 - floor(log(a) / log(10)) : 4
            if (d > 4) d = 4
            if (d < 0) d = 0
            return sprintf("%." d "f", v)
        }
        # The p-quantile of x[1..n], linear between order statistics.
        function quantile(x, n, p,   s, i, j, t, h, lo) {
            for (i = 1; i <= n; i++) s[i] = x[i]
            for (i = 2; i <= n; i++) {
                t = s[i]
                for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
                s[j + 1] = t
            }
            h = (n - 1) * p + 1; lo = int(h)
            return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
        }
        {
            if (!($1 in seed)) { seed[$1] = $2; pairs++ }
            if ($4 == "failed") { failed[$3] += $5; attempted[$3] += $6; next }
            value[$1, $3, $4] = $5
        }
        END {
            first = seed[0]; last = seed[pairs - 1]
            printf "*`%s`, %d pair%s, seed%s %s, failed ops %d/%d → %d/%d:*\n", workload, pairs,
                pairs == 1 ? "" : "s", pairs == 1 ? "" : "s", first == last ? first : first "–" last,
                failed["parent"], attempted["parent"], failed["change"], attempted["change"]
            m = split(spec, words, " ")
            for (k = 1; k + 1 <= m; k += 2) {
                name = words[k]; lower = words[k + 1] == "lower"
                n = 0; won = 0; runs = ""
                for (i = 0; i < pairs; i++) {
                    if (!((i, "parent", name) in value) || !((i, "change", name) in value)) continue
                    a = value[i, "parent", name]; b = value[i, "change", name]
                    n++; p[n] = a; c[n] = b
                    if ((lower && b < a) || (!lower && b > a)) won++
                    runs = runs (n > 1 ? ", " : "") fmt(a) "→" fmt(b)
                }
                if (n == 0) { missing++; print "`" name "` missing"; continue }
                mp = quantile(p, n, 0.5); mc = quantile(c, n, 0.5)
                delta = mp != 0 ? sprintf("%+.1f %%", (mc - mp) / mp * 100) : "n/a"
                printf "`%s` %s [%s–%s] → %s [%s–%s] (%s, %d of %d); runs %s\n", name,
                    fmt(mp), fmt(quantile(p, n, 0.25)), fmt(quantile(p, n, 0.75)),
                    fmt(mc), fmt(quantile(c, n, 0.25)), fmt(quantile(c, n, 0.75)),
                    delta, won, n, runs
            }
            exit missing > 0 || failed["parent"] + failed["change"] > 0
        }
    '
}

if [ "${1:-}" = "--self-test" ]; then
    [ $# -eq 1 ] || usage
    build . "$here" "$work/change"
    "$work/change" --smoke > "$work/a.out"
    "$work/change" --smoke > "$work/b.out"
    for workload in $(sed -n 's/^workloads: //p' <("$work/change" --help 2>&1 || true)); do
        {
            table "$work/a.out" "$workload" | sed "s/^/0 11 parent /"
            table "$work/b.out" "$workload" | sed "s/^/0 11 change /"
        } | summarize "$workload"
    done
    exit 0
fi

[ $# -ge 4 ] && [ $# -le 5 ] || usage
parent="$1" workload="$2" pairs="$3" first_seed="$4" seconds="${5:-18}"
rev="$(git rev-parse --verify "$parent^{commit}")"
worktree="$work/parent-tree"
git worktree add --quiet --detach "$worktree" "$rev"
# Build both sides against the same dependency versions.
[ -f Cargo.lock ] && cp Cargo.lock "$worktree/Cargo.lock"
echo "building ${rev:0:12} (parent) and the working tree" >&2
build "$worktree" "$worktree/target" "$work/parent"
build . "$here" "$work/change"

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        out="$work/$side-$i.out"
        "$work/$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$out"
        table "$out" "$workload" | sed "s/^/$i $seed $side /" >> "$work/records"
        echo "pair $((i + 1))/$pairs seed $seed: $side done" >&2
    done
done
summarize "$workload" < "$work/records"
