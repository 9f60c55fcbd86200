#!/usr/bin/env bash
# Alternating A/B runs of one ledger workload: a parent revision against
# this checkout (working-tree edits included).
#
# The parent is checked out into a temporary git worktree and built into its
# own CARGO_TARGET_DIR (<target>/ab/<rev>, kept between runs); the change
# builds into this checkout's target directory. Each side runs through
# ledger/run.sh, the benchmark's entry point; odd pairs run the parent
# first, even pairs the change. Extra arguments go to the ledger after the
# defaults `--seed 1 --trace 0` (so `--seed 2` or `--trace 1` override them).
#
# For every metric row the ledger prints, it reports each side's median and
# quartiles and how many pairs the change won (ties count for neither), in
# the direction BENCHMARK.json gives; rows reading 0 on both sides in every
# pair are skipped (a traced run prints other workloads' layers as 0).
# The verdict is "gain" when at least 10 pairs ran, the change won at least
# 9 in 10 of them and the medians differ by more than the parent's
# interquartile range (with fewer pairs, "ahead"); for an end-to-end metric
# it is "worse" when
# the change's median is worse than the parent's by more than the metric's
# bound, and "within bound" otherwise. Failed operations are summed per side.
#
# Usage: scripts/ab.sh <parent-rev> <workload> [pairs] [seconds] [ledger flags...]
#        (default 10 pairs of BENCHMARK.json's run_seconds)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
    sed -n 's/^# Usage: //p' "$0" >&2
    exit 2
fi
root="$PWD"
rev="$(git rev-parse --verify --short "$1^{commit}")"
workload="$2"
pairs="${3:-10}"
secs="${4:-$(awk -F'[:,]' '/"run_seconds"/ {print $2 + 0}' BENCHMARK.json)}"
shift $(($# < 4 ? $# : 4))
flags=(--workload "$workload" --seconds "$secs" --seed 1 --trace 0 "$@")

change_target="${CARGO_TARGET_DIR:-target}"
[[ "$change_target" = /* ]] || change_target="$root/$change_target"
parent_target="$change_target/ab/$rev"
tree="$(mktemp -d "${TMPDIR:-/tmp}/ab-$rev.XXXXXX")"
log="$(mktemp "${TMPDIR:-/tmp}/ab-runs.XXXXXX")"
cleanup() {
    git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
    rm -f "$log"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tree" "$rev"

# run <side> <pair>: one ledger run, its metric rows appended to the log as
# `side pair name value`.
run() {
    local dir target
    if [[ "$1" == parent ]]; then dir="$tree" target="$parent_target"; else dir="$root" target="$change_target"; fi
    (cd "$dir" && CARGO_TARGET_DIR="$target" bash ledger/run.sh "${flags[@]}") |
        awk -v side="$1" -v pair="$2" '
            $4 == "median" || $1 == "ops_failed" {print side, pair, $1, $3}' >> "$log"
}

echo "$workload: $pairs pairs of ${secs} s, ledger flags ${flags[*]:2}"
echo "parent $rev vs change $(git describe --always --dirty)"
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then run parent "$pair"; run change "$pair"; else run change "$pair"; run parent "$pair"; fi
    echo "pair $pair done" >&2
done

# better/bound per metric name from BENCHMARK.json's end_to_end and per_layer
# rows, then the summary.
awk '/"better"/ {
        split($0, q, "\"");
        bound = "";
        if (match($0, /"bound": *[0-9.]+/)) { bound = substr($0, RSTART, RLENGTH); sub(/.*: */, "", bound) }
        print "spec", q[4], q[12], bound
     }' BENCHMARK.json | cat - "$log" | awk -v pairs="$pairs" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function f(x) { return x >= 1e4 ? sprintf("%.0f", x) : sprintf("%.4g", x) }
    # Quantile p of the sorted a[1..n], linearly interpolated.
    function q(a, n, p,    h, l) {
        h = 1 + (n - 1) * p; l = int(h);
        return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l]);
    }
    $1 == "spec" { better[$2] = $3; bound[$2] = $4; next }
    $3 == "ops_failed" { failed[$1] += $4; next }
    {
        if (!($3 in seen)) { seen[$3] = 1; names[++nnames] = $3 }
        v[$1, $3, $2] = $4
    }
    END {
        printf "%-28s %-30s %-40s %-6s %s\n", "metric", "parent median [q1 - q3]", "change median [q1 - q3]", "won", "verdict"
        for (m = 1; m <= nnames; m++) {
            name = names[m]; n = 0; wins = 0; measured = 0; delete pa; delete ch
            for (p = 1; p <= pairs; p++) {
                if (!(("parent", name, p) in v) || !(("change", name, p) in v)) continue
                a = v["parent", name, p]; b = v["change", name, p]; n++
                pa[n] = a; ch[n] = b
                if (a != 0 || b != 0) measured = 1
                if (better[name] == "higher" ? b > a : better[name] == "lower" ? b < a : 0) wins++
            }
            if (!measured) continue
            sort(pa, n); sort(ch, n)
            pm = q(pa, n, 0.5); cm = q(ch, n, 0.5); iqr = q(pa, n, 0.75) - q(pa, n, 0.25)
            delta = pm != 0 ? sprintf(" (%+.1f %%)", (cm - pm) / pm * 100) : ""
            gained = better[name] == "higher" ? cm - pm > iqr : better[name] == "lower" ? pm - cm > iqr : 0
            if (better[name] == "") verdict = "no direction in BENCHMARK.json"
            else if (wins >= 0.9 * n && gained) verdict = n >= 10 ? "gain" : "ahead (a gain needs 10 pairs)"
            else if (bound[name] == "") verdict = "no gain"
            else if (better[name] == "higher" ? cm < pm * (1 - bound[name]) : cm > pm * (1 + bound[name])) verdict = "worse"
            else verdict = "within bound"
            printf "%-28s %-30s %-40s %-6s %s\n", name,
                sprintf("%s [%s - %s]", f(pm), f(q(pa, n, 0.25)), f(q(pa, n, 0.75))),
                sprintf("%s [%s - %s]%s", f(cm), f(q(ch, n, 0.25)), f(q(ch, n, 0.75)), delta),
                wins "/" n, verdict
        }
        printf "failed ops: parent %d, change %d\n", failed["parent"], failed["change"]
    }'
