#!/usr/bin/env bash
# Repo quality gate: formatting, lints, and the tier-1 build/test pass.
# Run from anywhere; everything happens at the workspace root, offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> every crate forbids unsafe code"
# Byte buffers are built and shared in safe Rust only (no `assume_init` on a
# freshly allocated one); the attribute is what holds every crate to that.
missing_forbid="$(git grep -L 'forbid(unsafe_code)' -- 'crates/*/src/lib.rs' || true)"
if [[ -n "$missing_forbid" ]]; then
    echo "no #![forbid(unsafe_code)] in:" >&2
    echo "$missing_forbid" >&2
    exit 1
fi

echo "==> adapted TB has one interpreter"
# The live runtimes drive the host's own TB engine; the second interpreter
# of TbAction is gone, not hidden (names spelt in halves so this line does
# not find itself).
if git grep -nE 'Tb''Runtime|Tb''Effect|tb_''runtime' -- crates tests examples scripts; then
    echo "the deleted TB runtime is referenced again" >&2
    exit 1
fi

echo "==> one benchmark: the ledger"
# The cargo-bench harnesses, their JSON record and its driver script are
# gone, not hidden; the paper's outputs are `repro <name>` (names spelt in
# halves so this line does not find itself).
if git grep -nE 'Bench''Record|BENCH_''(JSON|LABEL|SAMPLES|GIT_REV|FLEET_TENANTS|REGIME_SEEDS)|scripts/''bench\.sh|\[\[''bench\]\]' -- crates tests examples scripts .github Cargo.toml; then
    echo "the deleted cargo-bench harnesses are referenced again" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> ledger: the benchmark package builds and tests against these crates"
# ledger/ is a workspace of its own that calls the crates' public API
# (DeltaPatch::diff, Checkpoint::encode/decode, CheckpointPayload::{into,
# from}_checkpoint, DeltaStable::open_with_retention, crc32, ...); a break
# there must fail here, not in the benchmark pipeline.
cargo build --release --offline --manifest-path ledger/Cargo.toml
cargo test -q --offline --manifest-path ledger/Cargo.toml

echo "==> ledger smoke: the benchmark's entry point runs three short workloads"
# The command BENCHMARK.json names, as the benchmark pipeline invokes it;
# its last line is the machine-read verdict. ckpt_k16 replays deltas;
# ckpt_k1 reloads 32 full 256 KiB images through every CRC guard and checks
# them equal to what was committed, with zero orphans; sim_sweep runs 250
# seeded missions a block through the simulator's event path and requires
# every checker verdict to hold and every block to repeat the first one's
# events and device stream.
for ledger_workload in ckpt_k16 ckpt_k1 sim_sweep; do
    ledger_verdict="$(bash ledger/run.sh --workload "$ledger_workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    case "$ledger_verdict" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *)
            echo "ledger smoke failed on $ledger_workload: $ledger_verdict" >&2
            exit 1
            ;;
    esac
done

echo "==> chaos smoke: 4 fixed-seed campaigns against the live cluster"
# Deterministic and fast (≤30 s even on slow machines): the release build
# above produced the cluster binaries, and base seed 7 is the same fixed
# spec family the chaos crate's own smoke test replays.
./target/release/synergy-chaos --seeds 4 --base-seed 7 --jobs 2

echo "==> archive smoke: delta-chain, wipe-rehydration and archive-fault campaigns"
# Base seed 1's first 8 campaigns draw every archive axis: delta cadences
# k ∈ {1,2,4}, a mid-run wiped data directory rehydrated from the archive
# tier, object-store outages, and faulty PUTs — each run byte-checked
# against the simulator reference like every other campaign.
./target/release/synergy-chaos --seeds 8 --base-seed 1 --jobs 4

echo "==> unmasked-regime smoke: 4 seeds per regime + live Byzantine campaigns"
# Sweeps the four unmasked regimes (caught / escape / resync / byzantine)
# in the simulator and runs the live-cluster Byzantine campaigns, each
# classified into exactly one RegimeVerdict; fails on any silent escape,
# any worse-than-expected verdict, or a non-reproducible row.
./target/release/synergy-chaos --regime --seeds 4 --base-seed 5 --jobs 2

echo "==> middleware demo: wall-clock TB and a takeover on real threads"
# The one caller of the wall-clock TB drive outside the test modules; it
# asserts the takeover and that the survivors committed stable checkpoints.
cargo run --release -q -p synergy-middleware --example middleware_demo > /dev/null

echo "==> fleet smoke: 100 seeded tenants, 4 verified against solo runs"
# Deterministic: seeded missions, and --verify re-runs a sample of tenants
# as standalone simulator missions and diffs device streams byte-for-byte.
./target/release/synergy-fleet --tenants 100 --seed 7 --duration-secs 30 --verify 4 > /dev/null

# ROADMAP item 3's ratchet: the workspace is meant to shrink. 43 009 at
# c807614, 41 589 after PR 23, 41 300 after PR 24, 40 545 after PR 25;
# every CHANGES.md entry ends with before -> after.
echo "==> tracked Rust lines: $(git ls-files '*.rs' | xargs cat | wc -l)"

echo "OK: fmt, clippy, tier-1, ledger and smokes all passed"
