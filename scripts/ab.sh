#!/usr/bin/env bash
# Alternating A/B runs of one ledger workload: a parent revision against
# this checkout (working-tree edits included).
#
# Both sides build and run from one source tree at one path,
# <target>/ab/src, each into its own target directory (<target>/ab/parent
# and <target>/ab/change, kept between runs): a source path is compiled
# into the binaries, so two trees at two paths build two different
# programs even from one commit. Before each run the tree is unpacked from
# that side's snapshot — the parent's commit, or this checkout's tracked
# and untracked files as they are now — with file times kept, so cargo
# rebuilds nothing after each side's first run. Each side runs through
# ledger/run.sh, the benchmark's entry point; odd pairs run the parent
# first, even pairs the change. The sha256 of both ledger binaries is
# printed: an A/A comparison (the parent against a checkout of itself)
# must show two equal hashes. Extra arguments go to the ledger after the
# defaults `--seed 1 --trace 0` (so `--seed 2` or `--trace 1` override
# them). Two comparisons must not run at once from one checkout.
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

target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$root/$target"
src="$target/ab/src"
work="$(mktemp -d "${TMPDIR:-/tmp}/ab-$rev.XXXXXX")"
log="$work/runs"
trap 'rm -rf "$work"' EXIT
git archive --format=tar -o "$work/parent.tar" "$rev"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' file; do if [[ -e "$file" ]]; then printf '%s\0' "$file"; fi; done |
    tar --null --files-from=- -cf "$work/change.tar"

# run <side> <pair>: one ledger run, its metric rows appended to the log as
# `side pair name value`.
run() {
    rm -rf "$src" && mkdir -p "$src" && tar -xf "$work/$1.tar" -C "$src"
    (cd "$src" && CARGO_TARGET_DIR="$target/ab/$1" bash ledger/run.sh "${flags[@]}") |
        awk -v side="$1" -v pair="$2" '
            $4 == "median" || $1 == "ops_failed" {print side, pair, $1, $3}' >> "$log"
}

echo "$workload: $pairs pairs of ${secs} s, ledger flags ${flags[*]:2}"
echo "parent $rev vs change $(git describe --always --dirty)"
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then run parent "$pair"; run change "$pair"; else run change "$pair"; run parent "$pair"; fi
    echo "pair $pair done" >&2
done
for side in parent change; do
    echo "$side ledger sha256 $(sha256sum < "$target/ab/$side/release/ledger" | cut -d' ' -f1)"
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
