//! `cluster_lockstep` and `chaos_sweep`: the live three-process runtime,
//! driven as its users drive it — the release binaries as subprocesses.
//!
//! `cluster_lockstep` is the cluster end to end: spawn, hello, control
//! round-trips, reactor wire, two-phase stable writes, SIGKILL + reload +
//! epoch line + rollback, and the binary's own cross-check against the
//! simulator. `chaos_sweep` is the same layer under link/disk/crash/archive
//! cocktails with quiesce instead of barriers; it is paced by settle and
//! quiesce waits rather than CPU, which is what a user of the chaos runner
//! feels.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

use crate::report::{Layers, Value};
use crate::stats::{median, Laps};
use crate::trace::Tracer;
use crate::{Block, Env, Run, Workload};

/// A sibling of the ledger executable; a missing one is fatal.
fn sibling(env: &Env, name: &str) -> Result<PathBuf, String> {
    let path = env.bin_dir.join(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{name} not found beside the ledger in {}; build it with \
             `cargo build --release -p synergy-cluster -p synergy-chaos`",
            env.bin_dir.display()
        ))
    }
}

/// Runs `bin` with `args` to its end, returning its output and wall time.
fn run(bin: &Path, args: &[String]) -> Result<(Output, f64), String> {
    let started = Instant::now();
    let output = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    Ok((output, started.elapsed().as_secs_f64() * 1e3))
}

// ---------------------------------------------------------------------
// cluster_lockstep
// ---------------------------------------------------------------------

const STEPS: u32 = 64;
/// The shorter mission behind `cluster.fixed_ms` / `cluster.ms_per_step`.
const SHORT_STEPS: u32 = 16;
const WARM_UP_STEPS: u32 = 4;
/// Fault-free, then one SIGKILL of `P2` in round 3; with the name of the
/// device-stream length each must reproduce in every block.
const KILL_EPOCHS: [(u64, &str); 2] = [
    (0, "cluster.device_payloads_fault_free"),
    (3, "cluster.device_payloads_kill"),
];

/// The `cluster_lockstep` workload.
pub struct Cluster {
    bin: PathBuf,
    seed: u64,
    data_dir: PathBuf,
    /// `op_ms` of every block, fault-free and kill runs apart.
    fault_free_ms: Vec<f64>,
    kill_ms: Vec<f64>,
}

impl Cluster {
    /// One `synergy-cluster` mission; `Ok(Err(_))` is a failed operation.
    fn mission(&self, steps: u32, kill_epoch: u64) -> Result<(f64, Result<u64, String>), String> {
        let args = [
            "--seed".to_string(),
            self.seed.to_string(),
            "--steps".to_string(),
            steps.to_string(),
            "--kill-epoch".to_string(),
            kill_epoch.to_string(),
            "--data-dir".to_string(),
            self.data_dir
                .join(format!("k{kill_epoch}"))
                .display()
                .to_string(),
        ];
        let (output, ms) = run(&self.bin, &args)?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let payloads = stdout
            .lines()
            .find_map(|l| l.strip_prefix("device stream: "))
            .and_then(|rest| rest.split(' ').next()?.parse::<u64>().ok());
        let verified = stdout.lines().any(|l| l.starts_with("verified:"));
        let checked = match payloads {
            Some(n) if output.status.success() && verified => Ok(n),
            _ => Err(format!(
                "kill epoch {kill_epoch}: {}, verified line {}: {}",
                output.status,
                if verified { "present" } else { "absent" },
                String::from_utf8_lossy(&output.stderr).trim()
            )),
        };
        Ok((ms, checked))
    }
}

impl Workload for Cluster {
    const MIN_BLOCKS: usize = 5;

    fn setup(env: &Env, _laps: &mut Laps) -> Result<Cluster, String> {
        let cluster = Cluster {
            bin: sibling(env, "synergy-cluster")?,
            seed: env.seed,
            data_dir: env.data_dir.join("cluster"),
            fault_free_ms: Vec::new(),
            kill_ms: Vec::new(),
        };
        sibling(env, "synergy-node")?;
        // Warm-up: a four-step mission pages the binaries in and waits for
        // few `fsync`s, so `setup_s` is not the shared disk's.
        let (_, checked) = cluster.mission(WARM_UP_STEPS, 0)?;
        checked.map_err(|e| format!("warm-up mission: {e}"))?;
        Ok(cluster)
    }

    fn block(&mut self, tr: &mut Tracer) -> Result<Block, String> {
        let mut block = Block::default();
        let started = Instant::now();
        for (kill_epoch, payloads_name) in KILL_EPOCHS {
            let (ms, checked) = tr.span("cluster.mission", kill_epoch, |_| {
                self.mission(STEPS, kill_epoch)
            })?;
            block.op_ms.push(ms);
            match checked {
                Ok(payloads) => block.guard.push((payloads_name, payloads)),
                Err(e) => block.failures.push(e),
            }
            if kill_epoch == 0 {
                self.fault_free_ms.push(ms);
            } else {
                self.kill_ms.push(ms);
            }
        }
        block.wall_s = started.elapsed().as_secs_f64();
        block.piece_ms = block.op_ms.clone();
        block.op_pieces = vec![1; KILL_EPOCHS.len()];
        block.ops = KILL_EPOCHS.len() as u64;
        block
            .guard
            .push(("ops_failed", block.failures.len() as u64));
        Ok(block)
    }

    fn layers(&mut self, _run: &Run<'_>, out: &mut Layers) -> Result<(), String> {
        // Intercept and slope of mission time over its length, from extra
        // fault-free runs at a quarter of the steps.
        let mut short_ms = Vec::new();
        for _ in 0..3 {
            let (ms, checked) = self.mission(SHORT_STEPS, 0)?;
            checked.map_err(|e| format!("{SHORT_STEPS}-step mission: {e}"))?;
            short_ms.push(ms);
        }
        let (long, short) = (median(&self.fault_free_ms), median(&short_ms));
        let per_step = (long - short) / f64::from(STEPS - SHORT_STEPS);
        out.exact("cluster.ms_per_step", per_step);
        out.exact(
            "cluster.fixed_ms",
            short - per_step * f64::from(SHORT_STEPS),
        );
        out.exact("cluster.kill_overhead_ms", median(&self.kill_ms) - long);
        Ok(())
    }

    fn notes(&self) -> Vec<(String, String)> {
        vec![
            ("steps".to_string(), STEPS.to_string()),
            ("kill_epochs".to_string(), "0 (none), 3".to_string()),
        ]
    }
}

// ---------------------------------------------------------------------
// chaos_sweep
// ---------------------------------------------------------------------

/// Campaigns per sweep, one at a time (`--jobs 1`).
const CAMPAIGNS: u64 = 6;
/// The campaign set. Campaign cost is heavy-tailed across campaign seeds
/// (coefficient of variation 0.47 over 40 seeds, single campaigns from 0.33
/// to 2.0 s), so a sweep drawn from `--seed` would measure the draw, not
/// the program: the set is fixed, and `--seed` names only the data root.
const BASE_SEED: u64 = 1;
/// Campaigns per regime of the `--regime` run behind
/// `chaos.regime_campaigns_per_s`.
const REGIME_SEEDS: u64 = 4;

/// The `chaos_sweep` workload.
pub struct Chaos {
    bin: PathBuf,
    data_root: PathBuf,
    campaign_ms: Vec<f64>,
    converged: u64,
}

/// What one `synergy-chaos` sweep printed.
struct Sweep {
    wall_ms: f64,
    /// The `(NNN ms)` of every campaign row.
    campaign_ms: Vec<f64>,
    /// `n/N` of the sweep summary, if it was printed.
    summary: Option<(u64, u64)>,
    exit_ok: bool,
}

impl Chaos {
    fn sweep(&self, campaigns: u64) -> Result<Sweep, String> {
        let args = [
            "--seeds".to_string(),
            campaigns.to_string(),
            "--base-seed".to_string(),
            BASE_SEED.to_string(),
            "--jobs".to_string(),
            "1".to_string(),
            "--data-root".to_string(),
            self.data_root.display().to_string(),
        ];
        let (output, wall_ms) = run(&self.bin, &args)?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let campaign_ms = stdout
            .lines()
            .filter(|l| l.starts_with("campaign "))
            .filter_map(|l| {
                let (_, tail) = l.rsplit_once('(')?;
                tail.strip_suffix(" ms)")?.parse::<f64>().ok()
            })
            .collect();
        let summary = stdout
            .lines()
            .find_map(|l| l.strip_prefix("sweep summary: "))
            .and_then(|rest| {
                let (n, total) = rest.split(' ').next()?.split_once('/')?;
                Some((n.parse().ok()?, total.parse().ok()?))
            });
        Ok(Sweep {
            wall_ms,
            campaign_ms,
            summary,
            exit_ok: output.status.success(),
        })
    }
}

impl Workload for Chaos {
    // A sweep is 3.5 s; two traced and two untraced ones are enough to set
    // spans beside the sweep, and the untraced run's length adds a third.
    const MIN_BLOCKS: usize = 2;

    fn setup(env: &Env, _laps: &mut Laps) -> Result<Chaos, String> {
        let chaos = Chaos {
            bin: sibling(env, "synergy-chaos")?,
            data_root: env.data_dir.join(format!("chaos-{}", env.seed)),
            campaign_ms: Vec::new(),
            converged: 0,
        };
        sibling(env, "synergy-node")?;
        // Warm-up: one campaign, enough to page the binaries in.
        let warm_up = chaos.sweep(1)?;
        if !warm_up.exit_ok || warm_up.summary != Some((1, 1)) {
            return Err("warm-up campaign did not converge".to_string());
        }
        Ok(chaos)
    }

    fn block(&mut self, tr: &mut Tracer) -> Result<Block, String> {
        let sweep = tr.span("chaos.sweep", 0, |_| self.sweep(CAMPAIGNS))?;
        let mut block = Block {
            wall_s: sweep.wall_ms / 1e3,
            ops: CAMPAIGNS,
            // Campaign rows are whole milliseconds; what the sweep's caller
            // sees of one campaign is its share of the sweep.
            op_ms: vec![sweep.wall_ms / CAMPAIGNS as f64],
            ..Block::default()
        };
        // The summary counts; an exit status that contradicts it, or no
        // summary at all, leaves nothing to trust.
        self.converged = match sweep.summary {
            Some((n, CAMPAIGNS)) if sweep.exit_ok == (n == CAMPAIGNS) => n,
            _ => 0,
        };
        for _ in self.converged..CAMPAIGNS {
            block.failures.push(format!(
                "campaign not converged (sweep summary {:?}, exit ok: {})",
                sweep.summary, sweep.exit_ok
            ));
        }
        self.campaign_ms.extend_from_slice(&sweep.campaign_ms);
        block.guard = vec![
            ("chaos.converged", self.converged),
            ("ops_failed", block.failures.len() as u64),
        ];
        Ok(block)
    }

    /// A campaign's share of the fastest sweep.
    fn op_ms_p50(&self, _blocks: &[Block], floor_wall_ms: f64) -> Option<f64> {
        Some(floor_wall_ms / CAMPAIGNS as f64)
    }

    fn layers(&mut self, _run: &Run<'_>, out: &mut Layers) -> Result<(), String> {
        out.set("chaos.campaign_ms_p50", Value::median_of(&self.campaign_ms));
        out.exact("chaos.converged", self.converged as f64);

        let args = [
            "--regime".to_string(),
            "--seeds".to_string(),
            REGIME_SEEDS.to_string(),
            "--base-seed".to_string(),
            BASE_SEED.to_string(),
            "--data-root".to_string(),
            self.data_root.display().to_string(),
        ];
        let (output, ms) = run(&self.bin, &args)?;
        if !output.status.success() {
            return Err(format!(
                "synergy-chaos --regime: {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        // Four simulator regimes of `REGIME_SEEDS` campaigns each, plus the
        // three live Byzantine campaigns the mode always runs.
        let campaigns = (4 * REGIME_SEEDS + 3) as f64;
        out.exact("chaos.regime_campaigns_per_s", campaigns / (ms / 1e3));
        Ok(())
    }

    fn notes(&self) -> Vec<(String, String)> {
        vec![
            ("campaigns_per_sweep".to_string(), CAMPAIGNS.to_string()),
            ("base_seed".to_string(), BASE_SEED.to_string()),
        ]
    }
}
