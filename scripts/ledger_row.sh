#!/usr/bin/env bash
# One trajectory row per PR: runs every workload BENCHMARK.json lists
# through the benchmark's own entry point three times and appends
#   {git_rev, date, nproc, seconds, runs, load_1m, ops_per_s: {<workload>: <median>, ...}}
# as one JSON line to BENCH_ledger.jsonl at the root. `load_1m` is the
# host's 1-minute load average (/proc/loadavg) before the first run: a row
# taken on a loaded host says so. Plain printf / awk over the ledger's
# `ops_per_s 1/s <value>` lines — no jq.
#
# Fails, appending nothing, if any run reports failed operations or a
# workload's median ops_per_s falls below 0.75 x the newest row taken with
# the same nproc (the contract's 25 % bound; rows from other core counts do
# not compare; rows before the median was kept hold one run each).
#
# Usage: scripts/ledger_row.sh [seconds]   (default: BENCHMARK.json's run_seconds)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_ledger.jsonl"
SECS="${1:-$(awk -F'[:,]' '/"run_seconds"/ {print $2 + 0}' BENCHMARK.json)}"
NPROC="$(nproc)"
RUNS=3
LOAD="$(awk '{print $1}' /proc/loadavg)"
GIT_REV="$(git rev-parse --short HEAD)"
# A row taken before the commit it describes exists says so.
git diff --quiet HEAD -- . ":!$OUT" || GIT_REV="$GIT_REV+dirty"

workloads="$(awk '/"workloads"/ {on = 1; next}
                  on && /^ *\]/ {exit}
                  on {split($0, q, "\""); print q[4]}' BENCHMARK.json)"
prev="$(grep "\"nproc\": $NPROC," "$OUT" 2>/dev/null | tail -n 1 || true)"

status=0
fields=""
for w in $workloads; do
    runs=""
    for run in $(seq "$RUNS"); do
        report="$(bash ledger/run.sh --workload "$w" --seed 1 --seconds "$SECS" --trace 0)"
        ops="$(awk '$1 == "ops_per_s" {printf "%.3f", $3}' <<< "$report")"
        failed="$(awk '$1 == "ops_failed" {print $3}' <<< "$report")"
        echo "$w run $run: ops_per_s $ops, ops_failed $failed"
        if [[ -z "$ops" || "$failed" != 0 ]]; then
            echo "FAIL: $w reported failed operations (or no ops_per_s line)" >&2
            status=1
        fi
        runs="$runs $ops"
    done
    ops="$(tr ' ' '\n' <<< "$runs" | grep . | sort -g |
        awk '{v[NR] = $1} END {if (NR) print v[int((NR + 1) / 2)]}' || true)"
    echo "$w: median ops_per_s $ops of $RUNS runs"
    old="$(grep -o "\"$w\": [0-9.e+-]*" <<< "$prev" | awk '{print $2}' || true)"
    if [[ -n "$old" && -n "$ops" ]] && awk -v n="$ops" -v o="$old" 'BEGIN {exit !(n < 0.75 * o)}'; then
        echo "FAIL: $w median ops_per_s $ops is below 0.75 x the previous row's $old (nproc $NPROC)" >&2
        status=1
    fi
    fields="$fields${fields:+, }\"$w\": $ops"
done

row="$(printf '{"git_rev": "%s", "date": "%s", "nproc": %s, "seconds": %s, "runs": %s, "load_1m": %s, "ops_per_s": {%s}}' \
    "$GIT_REV" "$(date -u +%Y-%m-%d)" "$NPROC" "$SECS" "$RUNS" "$LOAD" "$fields")"
echo "$row"
if [[ "$status" != 0 ]]; then
    echo "row not appended to $OUT" >&2
    exit "$status"
fi
echo "$row" >> "$OUT"
