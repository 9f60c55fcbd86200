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

echo "==> every crate exports only what its users name"
# An item stays `pub` only when something outside its library uses it or a
# public signature exposes it; the lint (an error under clippy -D warnings
# below) flags every `pub` no crate root re-exports, so a test-only
# accessor shows up as dead code instead of hiding behind `pub`.
missing_unreachable="$(git grep -L 'warn(unreachable_pub)' -- 'crates/*/src/lib.rs' || true)"
if [[ -n "$missing_unreachable" ]]; then
    echo "no #![warn(unreachable_pub)] in:" >&2
    echo "$missing_unreachable" >&2
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

echo "==> two runtimes: the simulator and the process cluster"
# The in-process threaded deployment, its channel transport and its crate
# are gone, not hidden; the node loop lives in synergy-cluster (names spelt
# in halves so this line does not find itself).
if git grep -nE 'synergy-''middleware|Threaded''Net|Middleware''Config' -- crates tests examples scripts .github Cargo.toml; then
    echo "the deleted in-process deployment is referenced again" >&2
    exit 1
fi

echo "==> one checkpoint store on the live cluster"
# Every node runs the delta chain, a k=1 chain being the full-image store;
# the legacy store and its k = 0 branches are gone, not hidden (names spelt
# in halves so this line does not find itself).
if git grep -nE 'Node''Store|NodeStore::''Legacy|delta_k (==|>) ''0' -- crates/cluster crates/chaos; then
    echo "the deleted legacy checkpoint store is referenced again" >&2
    exit 1
fi

echo "==> no capability that only its own tests run"
# The N-component containment layer and its example, the simulator's
# never-configured link faults and per-link overrides, the TB resync knob
# with one value in use, and the cluster node's second backpressure loop,
# overdrive control tag, ring-size flag and second status struct are gone,
# not hidden (names spelt in halves so this line does not find itself).
if git grep -nE 'mdcd::gen''eral|pipeline_gu''ard|set_link_fa''ults|set_default_fa''ults|Route''Decision|with_resync_thr''eshold|Cluster''Wire|CtrlMsg::''Blast|Blas''ted|Node''Status|wire_queue''_bytes|wire-queue''-bytes' -- crates tests examples scripts .github Cargo.toml; then
    echo "a deleted test-only capability is referenced again" >&2
    exit 1
fi

echo "==> no tenant tag on the wire"
# An envelope is sender, sequence, destination and body; the fleet's
# MissionId is a slot key on SystemConfig, never stamped on a message
# (names spelt in halves so this line does not find itself).
if git grep -nE 'with_''mission|set_''mission|env\.''mission' -- crates tests examples; then
    echo "the tenant tag is on the wire again" >&2
    exit 1
fi

echo "==> one sweep"
# Many seeded runs go through synergy::sweep; bench and chaos keep no
# scoped-thread loop of their own (spelt in halves, as above).
if git grep -n 'thread::''scope' -- crates/bench crates/chaos; then
    echo "a hand-rolled parallel loop is back in bench or chaos" >&2
    exit 1
fi

echo "==> scripts parse"
# ab.sh runs for minutes and ledger_row.sh appends to the trajectory, so
# neither runs here; a syntax error in either still fails the gate.
for script in scripts/ab.sh scripts/ledger_row.sh; do
    bash -n "$script"
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps, warnings denied"
# Public docs link only to public items: a narrowed item leaves no
# dangling or private intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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

echo "==> ledger smoke: the benchmark's entry point runs four short workloads"
# The command BENCHMARK.json names, as the benchmark pipeline invokes it;
# its last line is the machine-read verdict. ckpt_k16 replays deltas;
# ckpt_k1 reloads 32 full 256 KiB images through every CRC guard and checks
# them equal to what was committed, with zero orphans; sim_sweep runs 250
# seeded missions a block through the simulator's event path and requires
# every checker verdict to hold and every block to repeat the first one's
# events and device stream; wire_stream pushes 200 000 envelopes a block
# through two loopback reactors and requires each delivered once, in
# order, and acknowledged exactly once.
for ledger_workload in ckpt_k16 ckpt_k1 sim_sweep wire_stream; do
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
# spec family the chaos crate's own smoke test replays; its first four
# rot a record at both layers, the frame and the chain link behind it.
./target/release/synergy-chaos --seeds 4 --base-seed 7 --jobs 2

echo "==> archive smoke: delta-chain, wipe-rehydration and archive-fault campaigns"
# Base seed 1's first 8 campaigns draw every archive axis: chain cadences
# k ∈ {1,2,4} (every campaign runs the chain; k=1 is the full-image
# store), a mid-run wiped data directory rehydrated from the archive tier,
# object-store outages, and faulty PUTs — each run byte-checked against
# the simulator reference like every other campaign.
./target/release/synergy-chaos --seeds 8 --base-seed 1 --jobs 4

echo "==> unmasked-regime smoke: 4 seeds per regime + live Byzantine campaigns"
# Sweeps the four unmasked regimes (caught / escape / resync / byzantine)
# in the simulator and runs the live-cluster Byzantine campaigns, each
# classified into exactly one RegimeVerdict; fails on any silent escape,
# any worse-than-expected verdict, or a non-reproducible row.
./target/release/synergy-chaos --regime --seeds 4 --base-seed 5 --jobs 2

# ROADMAP item 3's ratchet: the workspace is meant to shrink. 43 009 at
# c807614, 41 589 after PR 23, 41 300 after PR 24, 40 545 after PR 25;
# 40 866 at 1fa848a, 40 094 with the in-process threaded deployment gone,
# 40 038 with one checkpoint store on the live cluster, 39 033 with the
# test-only capabilities and three of four handle twins gone, 39 225 with
# reactor pacing as a table-tested function, 38 717 with the tenant tag
# off the wire, the fleet driver gone and one sweep, 38 476 with every
# crate exporting only what its users name, 38 255 with one send path and
# one status type on a cluster node; every CHANGES.md entry ends with
# before -> after.
echo "==> tracked Rust lines: $(git ls-files '*.rs' | xargs cat | wc -l)"

echo "OK: fmt, clippy, tier-1, ledger and smokes all passed"
