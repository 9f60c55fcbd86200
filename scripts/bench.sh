#!/usr/bin/env bash
# Mission-bench regression record: runs the `missions` harness and appends
# one labelled run (ms/mission per scheme + one Figure-7 sweep point) to a
# JSON file. Dependency-free — cargo plus the repo's own harness, no jq.
#
# Usage: scripts/bench.sh [label] [samples] [json-path]
#   label      stored with the run (default: "run")
#   samples    timed missions per configuration (default: 10)
#   json-path  record to append to (default: BENCH_missions.json at the root)
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:-run}"
SAMPLES="${2:-10}"
JSON="${3:-BENCH_missions.json}"
# cargo runs bench binaries with the package directory as cwd; hand the
# harness an absolute path so the record lands where the caller asked.
case "$JSON" in
    /*) ;;
    *) JSON="$PWD/$JSON" ;;
esac

# Stamp the run with the current commit so re-benching the same revision
# replaces its record instead of stacking duplicates.
GIT_REV="${BENCH_GIT_REV:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"

BENCH_LABEL="$LABEL" BENCH_SAMPLES="$SAMPLES" BENCH_JSON="$JSON" \
    BENCH_GIT_REV="$GIT_REV" \
    cargo bench -q --bench missions

# Fleet scaling: missions/s and latency percentiles at 1/100/1k/10k
# tenants multiplexed over one shared runtime. Appends to the same
# record's "fleet" section. BENCH_FLEET_TENANTS caps the largest scale —
# check.sh smokes it small.
BENCH_LABEL="$LABEL" BENCH_JSON="$JSON" BENCH_GIT_REV="$GIT_REV" \
    BENCH_FLEET_TENANTS="${BENCH_FLEET_TENANTS:-}" \
    cargo bench -q --bench fleet

# Unmasked regimes: AT detection latency and escape rate across a fixed
# acceptance-test coverage ladder (100% → 0%) at constant bad-message
# pressure. Appends to the same record's "regimes" section.
# BENCH_REGIME_SEEDS (missions per coverage level, default 32) shrinks
# it — check.sh smokes it small.
BENCH_LABEL="$LABEL" BENCH_JSON="$JSON" BENCH_GIT_REV="$GIT_REV" \
    BENCH_REGIME_SEEDS="${BENCH_REGIME_SEEDS:-}" \
    cargo bench -q --bench regimes

# Optional: wall-clock a small deterministic chaos sweep against the live
# three-process cluster. Machines without the cluster binaries (a
# bench-only checkout, or a target dir built before the chaos crate
# existed) skip this cleanly — the mission-bench record above is complete
# without it.
CHAOS_BIN="target/release/synergy-chaos"
NODE_BIN="target/release/synergy-node"
if [[ -x "$CHAOS_BIN" && -x "$NODE_BIN" ]]; then
    echo "==> chaos sweep timing (8 campaigns, base seed 1)"
    time "$CHAOS_BIN" --seeds 8 --base-seed 1 --node-bin "$NODE_BIN" > /dev/null
else
    echo "skip: chaos sweep ($CHAOS_BIN or $NODE_BIN not built; run 'cargo build --release' to enable)"
fi

echo "OK: run '$LABEL' ($SAMPLES samples) recorded in $JSON"
