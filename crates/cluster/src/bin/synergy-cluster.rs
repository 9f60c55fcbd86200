//! The cluster orchestrator binary: runs a seeded three-process TCP
//! mission with one scheduled SIGKILL, restarts the victim from its
//! on-disk checkpoints, and checks the device-output stream against a
//! simulator run of the same seed and fault plan.
//!
//! ```text
//! synergy-cluster [--seed <u64>] [--steps <u32>] [--kill-epoch <u64>]
//!                 [--data-dir <path>]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use synergy::{CrashEvent, CrashKind, Mission, NodeId};
use synergy_cluster::{Cluster, ClusterConfig, DELTA_SECS};

struct Args {
    seed: u64,
    steps: u32,
    kill_epoch: Option<u64>,
    data_dir: PathBuf,
}

/// `v`, the value given to `flag`, parsed as a `T`.
fn parse<T: FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        seed: 11,
        steps: 8,
        kill_epoch: Some(3),
        data_dir: std::env::temp_dir().join(format!("synergy-cluster-{}", std::process::id())),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => out.seed = parse(&flag, value()?)?,
            "--steps" => out.steps = parse(&flag, value()?)?,
            "--kill-epoch" => {
                let v: u64 = parse(&flag, value()?)?;
                out.kill_epoch = (v != 0).then_some(v);
            }
            "--data-dir" => out.data_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn node_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let sibling = me.with_file_name("synergy-node");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!("synergy-node not found next to {}", me.display()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("synergy-cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    let node_bin = match node_bin() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("synergy-cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    let victim = NodeId::P2;
    println!(
        "mission: seed {}, {} produces, Δ = {DELTA_SECS}s{}",
        args.seed,
        args.steps,
        args.kill_epoch
            .map(|k| format!(", SIGKILL {victim} in round {k}"))
            .unwrap_or_default()
    );
    let created = !args.data_dir.exists();
    let mut cfg = ClusterConfig::new(args.seed, args.steps);
    cfg.crash = args.kill_epoch.map(|epoch| CrashEvent {
        victim,
        epoch,
        kind: CrashKind::MidRound,
    });
    let reference = cfg.reference();
    let report = match Cluster::launch(cfg, &node_bin, &args.data_dir).and_then(Cluster::run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("synergy-cluster: mission failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("device stream: {} messages", report.device_payloads.len());
    if let Some(kill) = &report.kill {
        println!(
            "kill round {}: staged write torn = {}, victim recovered epoch {:?} \
             ({} torn write detected), global rollback to line {}",
            kill.epoch,
            kill.victim_began_writing,
            kill.reload_epoch,
            kill.reload_torn_writes,
            kill.line,
        );
    }

    let reference = Mission::new(reference).run();
    let mut ok = true;
    if report.device_payloads == reference.device_stream {
        println!(
            "verified: device stream matches the simulator reference ({} payloads)",
            reference.device_stream.len()
        );
    } else {
        eprintln!(
            "MISMATCH: cluster device stream differs from the simulator \
             ({} vs {} payloads)",
            report.device_payloads.len(),
            reference.device_stream.len()
        );
        ok = false;
    }
    if !reference.verdicts.all_hold() {
        eprintln!("MISMATCH: simulator verdicts failed");
        ok = false;
    }
    // Remove only what the run created: the orchestrator's `node-<index>`
    // directories, and the data directory if it was not there before.
    for node in NodeId::ALL {
        let _ = std::fs::remove_dir_all(args.data_dir.join(format!("node-{}", node.index())));
    }
    if created {
        let _ = std::fs::remove_dir(&args.data_dir);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
