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
# overdrive control tag, ring-size flag and second status struct, the
# object-store archive tier with its wipe axis, flags and status counters,
# the cluster reference's crash-instant scan with its fixed restart
# delay and the fleet test's copy of it, the node's second command
# vocabulary, its wall-clock drive and the in-process takeover harness, the
# explorer's private process model, the node's second driver around its
# host with the planted-forgery path (a control tag and a storage-trait
# method that only the Byzantine injection used), the per-scheme
# strategy objects a Scheme match serves, the wire's piggybacked-ack
# knob nothing set, the ack tracker's deep-copying accessor and its
# unused codec impl, the simulator's second fault plan, the node-index
# error a NodeId rules out, the chaos runner's per-group disable
# methods and their toggle copy (one FaultGroup table serves them), the
# chaos crate's twin of the cluster mission and its field copy, the
# cluster's timeout struct and the node's checkpoint-interval flag that
# every caller set to one value, and the link layer's lost-frame log are
# gone, not hidden (names spelt in halves so this line does not find
# itself).
if git grep -nE 'Campaign''Spec|cluster''_config\(|Cluster''Timeouts|tb-''interval-ms|Lost''Frame|Node''OutOfRange|Regime''Plan|disable''_bitrot|active''_toggles|\.un''acked\(\)|codec_struct!\(Ack''Tracker|max_piggy''_acks|Scheme''Policy|policy''_for|Node''Runner|replace''_latest|corrupt_latest''_checkpoint|CtrlMsg::''Corrupt|mdcd::gen''eral|pipeline_gu''ard|set_link_fa''ults|set_default_fa''ults|Route''Decision|with_resync_thr''eshold|Cluster''Wire|CtrlMsg::''Blast|Blas''ted|Node''Status|wire_queue''_bytes|wire-queue''-bytes|Tiered''Store|Object''Store|Archive''FaultPlan|Archive''Handle|archive''-dir|chaos''-archive|archive''_pending|rehy''drat|no''-archive|epsilon''_scan|EPSI''LON_|crash''_epsilon|Sim''Reference|simulate''_reference|RESTART_DELAY''_MS|find_mid_checkpoint''_crash|Node''Cmd|Tb''Drive|Sup''Event|Mem''Net|Rollback''Outcome|spawn_net''_pump|Volatile''Snap|body''_tag' -- crates tests examples scripts .github Cargo.toml; then
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

echo "==> a stable record is serialized when it is read"
# The host builds every stable record with Checkpoint::deferred; the eager
# encode through a caller's scratch buffer and the payload method that
# called it from the host are gone, not hidden (names spelt in halves so
# this line does not find itself).
if git grep -nE 'to_checkpoint''_with|encode_with''_scratch' -- crates tests examples scripts; then
    echo "an eager stable encode is back" >&2
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

echo "==> two-crash scan: no restore from an abandoned timeline"
# 1 200 Coordinated missions with mid-round crashes in two consecutive
# rounds (DESIGN.md §8, decision 7): a second crash that tears a rewrite of
# an abandoned epoch must not restore the abandoned record. Only ROADMAP
# item 0's seed 105 may fail; a release build runs all of it in a second.
cargo test --release -q -p synergy --test recovery_integration -- \
    --ignored two_crash_scan_fails_only_on_item_0_seeds

echo "==> software-only scan: every takeover's cut holds"
# 22 000 Coordinated missions, each a design fault armed at 5, 15, ..., 105 s
# and no crash (DESIGN.md §8, decisions 5 and 9): the takeover's cut step
# replays the receipts a rollback dropped that the cut reflects as sent,
# and an undone send still in flight is void. No run may fail; a release
# build runs it in about 4 s.
cargo test --release -q -p synergy --test recovery_integration -- \
    --ignored software_only_scan_holds

echo "==> composed-fault grid: no takeover on a down host, no loss after one"
# 31 500 Coordinated missions, each a design fault and a crash of P2's node
# (DESIGN.md §8, decisions 8 and 9): an AT failure detected while the
# crashed node waits out its restart must wait for the global rollback, and
# a crash after a takeover must find its cut whole. Only ROADMAP item 0's
# seed 105 may fail, before the takeover and with item 0's signature (every
# violation names P1act); a release build runs it in about 8 s.
cargo test --release -q -p synergy --test recovery_integration -- \
    --ignored composed_fault_grid_fails_only_on_item_0_seeds

echo "==> ledger: the benchmark package builds and tests against these crates"
# ledger/ is a workspace of its own that calls the crates' public API
# (DeltaPatch::diff, Checkpoint::encode/decode, CheckpointPayload::{into,
# from}_checkpoint, DeltaStable::open_with_retention, crc32, ...); a break
# there must fail here, not in the benchmark pipeline.
cargo build --release --offline --manifest-path ledger/Cargo.toml
cargo test -q --offline --manifest-path ledger/Cargo.toml

echo "==> ledger smoke: the benchmark's entry point runs five short workloads"
# The command BENCHMARK.json names, as the benchmark pipeline invokes it;
# its last line is the machine-read verdict. ckpt_k16 replays deltas;
# ckpt_k1 reloads 32 full 256 KiB images through every CRC guard and checks
# them equal to what was committed, with zero orphans; sim_sweep runs 250
# seeded missions a block through the simulator's event path and requires
# every checker verdict to hold and every block to repeat the first one's
# events and device stream; sim_dense does the same for one long mission
# a block with delta accounting on, whose stable bytes must repeat too;
# wire_stream pushes 200 000 envelopes a block through two loopback
# reactors and requires each delivered once, in order, and acknowledged
# exactly once.
for ledger_workload in ckpt_k16 ckpt_k1 sim_sweep sim_dense wire_stream; do
    ledger_verdict="$(bash ledger/run.sh --workload "$ledger_workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    case "$ledger_verdict" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *)
            echo "ledger smoke failed on $ledger_workload: $ledger_verdict" >&2
            exit 1
            ;;
    esac
done

echo "==> long lockstep missions match the reference"
# 24 produces reach the two timeline edges the chaos families (5-9
# produces) never draw: round 7 at t = 11.9 leaves 0.1 s before produce 12,
# and round 10 falls exactly on produce 17, which the orchestrator runs
# first. synergy-cluster exits non-zero on any device-stream mismatch.
for kill_epoch in 7 11; do
    ./target/release/synergy-cluster --seed 1 --steps 24 --kill-epoch "$kill_epoch"
done

echo "==> chaos smoke: 4 fixed-seed campaigns against the live cluster"
# Deterministic and fast (≤30 s even on slow machines): the release build
# above produced the cluster binaries, and base seed 7 is the same fixed
# spec family the chaos crate's own smoke test replays; its first four
# rot a record at both layers, the frame and the chain link behind it.
./target/release/synergy-chaos --seeds 4 --base-seed 7 --jobs 2

echo "==> delta-chain smoke: chain cadences and rot at both layers"
# Base seed 1's first 8 campaigns draw chain cadences k ∈ {1,2,4} (every
# campaign runs the chain; k=1 is the full-image store) and rot at both
# layers — a record's disk frame and the chain link behind a valid one —
# each run byte-checked against the simulator reference like every other
# campaign.
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
# one status type on a cluster node, 36 840 with one store stack and one
# restore procedure on a node, 36 764 with one crash type placed by TB
# round in both runtimes and no crash-instant scan, 36 488 with a node as
# one loop over its protocol steps, 37 014 at c3d2839 (PRs 41–42), 36 974 with
# the explorer over the simulator's hosts, 37 200 with stable records
# serialized when read (+226, tests mostly), 37 117 with both runtimes
# driving the host directly and one Byzantine injector, 37 008 with a host
# as one process, Scheme as the policy and each recovery step written
# once (the paper-table test moved to config.rs), 36 998 with one MDCD
# core under the three role engines (the engines' non-test code 929 ->
# 787 lines, most of the saving spent on the admission table test and the
# survivor and campaign-order tests), 37 112 with one shared envelope per
# protocol message (+114: +80 tests of the tracker's order and of the
# sharing, +34 for transport acks that stay free of an allocation),
# 36 944 with one fault vocabulary (one simulator FaultPlan, NodeId for
# every faulted node, one chaos FaultGroup table, one StableStore API),
# 36 611 with a live mission described once (one ClusterConfig, Δ, the
# control timeouts and the retransmit budget as constants, one crash),
# 36 712 with liveness kept once in the slots (+104 lines of tests: the
# composed-fault grid and the restart-window pins; non-test Rust −3),
# 36 908 with one cut step for both recoveries (+196: +126 of tests, the
# item-23 pins, the software-only scan, the explorer's item-23 script and
# its pinned counterexample; +27 non-test in core/src/system for the replay
# and the void rule, +37 in the explorer for invariant 3's cut check, +6
# in the reactor's connector);
# every CHANGES.md entry ends with before -> after. The
# ceiling is a gate: a change that must raise it edits the number and
# says why in CHANGES.md.
rust_ceiling=36908
rust_lines="$(git ls-files '*.rs' | xargs cat | wc -l)"
echo "==> tracked Rust lines: $rust_lines (ceiling $rust_ceiling)"
if ((rust_lines > rust_ceiling)); then
    echo "tracked Rust lines grew past the ratchet's ceiling" >&2
    exit 1
fi

echo "OK: fmt, clippy, tier-1, ledger and smokes all passed"
