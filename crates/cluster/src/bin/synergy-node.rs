//! One cluster node process; spawned by the `synergy-cluster` orchestrator.
//!
//! ```text
//! synergy-node --pid <1|2|3> --seed <u64> --data-dir <path> \
//!              --ctrl <host:port> --archive-dir <path> \
//!              [--tb-interval-ms <u64>] [--delta-k <u32>] \
//!              [--chaos-link <hex>] [--chaos-disk <hex>] \
//!              [--chaos-archive <hex>]
//! ```

use std::process::ExitCode;

use synergy_cluster::{run_node, NodeOpts};

fn main() -> ExitCode {
    let opts = match NodeOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("synergy-node: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_node(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("synergy-node (pid {}): {e}", opts.pid);
            ExitCode::FAILURE
        }
    }
}
