#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the ledger (a package of its
# own) into the target directory, and beside it the cluster/chaos release
# binaries when the workload asked for drives them as subprocesses, then
# runs the ledger with the caller's arguments. Run from the root of a
# checkout.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml
case " $* " in
  *" --all "* | *" cluster_lockstep "* | *" chaos_sweep "*)
    cargo build --release --offline --quiet -p synergy-cluster -p synergy-chaos
    ;;
esac
exec "$target/release/ledger" "$@"
