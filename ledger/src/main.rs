//! `ledger` — the repository's benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ledger --all             --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in its own process (`--all` spawns one
//! process per workload, in turn): closed-loop batches, B equal blocks over
//! the same seeded inputs for `--seconds` seconds, every block cut into the
//! same small pieces, the end-to-end times built from the fastest repeat of
//! every piece. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics from blocks run alternately with and without spans.
//! See `README.md` beside this package for the method and how to read it.

mod alloc;
mod ckpt;
mod fleet;
mod probes;
mod procs;
mod report;
mod sim;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{Layers, RunRecord, Value, END_TO_END};
use stats::{floor, median, percentile, with_rest, Laps};
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Workload names, in `--all` order: the [`LISTED`] ones `BENCHMARK.json`
/// names, then the three it does not because they cannot hold its bounds on
/// a shared host (README, "Workloads"); those are run by hand.
const WORKLOADS: [&str; 8] = [
    "sim_sweep",
    "sim_dense",
    "ckpt_k1",
    "ckpt_k16",
    "wire_stream",
    "fleet_2k",
    "cluster_lockstep",
    "chaos_sweep",
];

/// How many of [`WORKLOADS`], from the front, `BENCHMARK.json` lists.
const LISTED: usize = 5;

/// Set-ups timed per untraced run, spread evenly over its `--seconds`;
/// `setup_s` is built from the fastest repeat of every piece of them.
const SETUP_REPEATS: usize = 10;

/// What a workload is given to build its inputs and find its surroundings.
pub struct Env {
    /// The workload being run.
    pub workload: &'static str,
    /// `--seed`: the same seed gives the same inputs.
    pub seed: u64,
    /// Directory of this executable; the cluster binaries are its siblings.
    pub bin_dir: PathBuf,
    /// A directory of this run's own for stores and cluster state, inside
    /// the build's target directory (the benchmark writes nowhere else).
    pub data_dir: PathBuf,
}

/// One timed block: the same operations over the same inputs every time.
#[derive(Default)]
pub struct Block {
    /// Whether spans were recorded (never for an end-to-end metric).
    pub traced: bool,
    /// Allocations during the block (traced blocks only).
    pub allocations: u64,
    /// Wall time of the block's operations.
    pub wall_s: f64,
    /// Operations attempted.
    pub ops: u64,
    /// One line per operation whose output check failed.
    pub failures: Vec<String>,
    /// Per-operation time as its caller sees it.
    pub op_ms: Vec<f64>,
    /// The block's wall time cut into consecutive pieces, the same pieces
    /// in every block (whatever they leave uncovered is added as one more).
    pub piece_ms: Vec<f64>,
    /// How many consecutive pieces each timed operation is made of, in
    /// order; pieces after the last operation's belong to none.
    pub op_pieces: Vec<u32>,
    /// Values that must be identical in every block of a run.
    pub guard: Vec<(&'static str, u64)>,
}

/// What a workload's `layers` sees of the finished run.
pub struct Run<'a> {
    /// Every timed block, in order.
    pub blocks: &'a [Block],
    /// The spans of the traced blocks.
    pub tracer: &'a Tracer,
}

impl Run<'_> {
    /// `op_ms` of the untraced blocks, pooled.
    pub fn untraced_op_ms(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .filter(|b| !b.traced)
            .flat_map(|b| b.op_ms.iter().copied())
            .collect()
    }

    /// Median duration of the spans named `name`, in units of `ns_per_unit`.
    pub fn span_median(&self, name: &str, ns_per_unit: f64) -> Value {
        let scaled: Vec<f64> = self
            .tracer
            .durations_ns(name)
            .iter()
            .map(|ns| ns / ns_per_unit)
            .collect();
        Value::median_of(&scaled)
    }

    /// Allocations per operation over the traced blocks.
    pub fn allocs_per_op(&self) -> f64 {
        let (allocs, ops) = self
            .blocks
            .iter()
            .filter(|b| b.traced)
            .fold((0u64, 0u64), |(a, o), b| (a + b.allocations, o + b.ops));
        allocs as f64 / ops.max(1) as f64
    }
}

/// One of the eight workloads.
pub trait Workload: Sized {
    /// Fewest timed blocks of an untraced run (a traced run doubles it).
    const MIN_BLOCKS: usize = 3;

    /// Builds the inputs from `env.seed`, creates stores and directories,
    /// and runs the untimed warm-up block, cutting its own wall time into
    /// `laps` (the same pieces on every call). Its duration is `setup_s`.
    fn setup(env: &Env, laps: &mut Laps) -> Result<Self, String>;

    /// Runs one block, recording spans around every call into a layer.
    fn block(&mut self, tr: &mut Tracer) -> Result<Block, String>;

    /// Fills the per-layer metrics of a traced run.
    fn layers(&mut self, run: &Run<'_>, out: &mut Layers) -> Result<(), String>;

    /// `op_ms_p50`, where an operation is not a run of consecutive pieces:
    /// from every block and the block's wall time with every piece at its
    /// fastest repeat.
    fn op_ms_p50(&self, _blocks: &[Block], _floor_wall_ms: f64) -> Option<f64> {
        None
    }

    /// Output checks of the warm-up block that failed.
    fn setup_failures(&self) -> &[String] {
        &[]
    }

    /// Extra fields for the per-workload JSON file.
    fn notes(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut all = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => all = true,
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                out.workload = Some(known.ok_or_else(|| {
                    format!("unknown workload {name}; one of {}", WORKLOADS.join(", "))
                })?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if all == out.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".to_string());
    }
    Ok(out)
}

/// Removes the run's data directory when the run ends, however it ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one workload and prints its result; the generic part of a run.
fn drive<W: Workload>(env: &Env, args: &Args, out_dir: &std::path::Path) -> Result<(), String> {
    // Set-ups and timed blocks share the run's `--seconds`: an untraced run
    // sets up again at every tenth of it, so that the set-ups meet the
    // host in as many moods as the blocks do. A traced run sets up once and
    // alternates untraced and traced blocks.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let min_blocks = if args.trace {
        2 * W::MIN_BLOCKS
    } else {
        W::MIN_BLOCKS
    };
    let mut tracer = Tracer::with_capacity(if args.trace { 1 << 16 } else { 0 });
    let mut workload: Option<W> = None;
    let mut setups: Vec<Vec<f64>> = Vec::with_capacity(repeats);
    let mut failures: Vec<String> = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let seconds = args.seconds as f64;
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if setups.len() < repeats && elapsed >= setups.len() as f64 * seconds / repeats as f64 {
            drop(workload.take());
            let setting_up = Instant::now();
            let mut laps = Laps::start();
            let fresh = W::setup(env, &mut laps)?;
            let total_ms = setting_up.elapsed().as_secs_f64() * 1e3;
            setups.push(with_rest(laps.ms, total_ms));
            failures.extend_from_slice(fresh.setup_failures());
            workload = Some(fresh);
            continue;
        }
        if blocks.len() >= min_blocks && elapsed >= seconds {
            break;
        }
        let traced = args.trace && blocks.len() % 2 == 1;
        tracer.set_on(traced);
        if traced {
            alloc::arm();
        }
        let result = workload
            .as_mut()
            .expect("the first set-up is due at once")
            .block(&mut tracer);
        let allocations = alloc::disarm();
        let mut block = result?;
        block.traced = traced;
        block.allocations = allocations;
        blocks.push(block);
    }
    let mut workload = workload.expect("the first set-up is due at once");
    tracer.set_on(false);

    // Determinism guard: simulated statistics and exact counts must not
    // differ between blocks; a mismatch is never averaged away.
    let guard = blocks[0].guard.clone();
    for (i, b) in blocks.iter().enumerate() {
        if b.guard != guard {
            return Err(format!(
                "determinism guard: block {i} reads {:?}, block 0 read {guard:?}",
                b.guard
            ));
        }
    }

    failures.extend(blocks.iter().flat_map(|b| b.failures.iter().cloned()));
    let attempted: u64 = blocks.iter().map(|b| b.ops).sum();
    let failed = failures.len() as u64;

    let rows = if args.trace {
        let mut layers = Layers::default();
        let run = Run {
            blocks: &blocks,
            tracer: &tracer,
        };
        workload.layers(&run, &mut layers)?;
        let walls = |traced: bool| -> Vec<f64> {
            blocks
                .iter()
                .filter(|b| b.traced == traced)
                .map(|b| b.wall_s)
                .collect()
        };
        let (plain, spanned) = (stats::median(&walls(false)), stats::median(&walls(true)));
        layers.exact(
            "ledger.trace_overhead_pct",
            (spanned - plain) / plain * 100.0,
        );
        layers.exact("ledger.failed_share", failed as f64 / attempted as f64);
        layers.exact("ledger.blocks", blocks.len() as f64);
        let trace_path = out_dir.join(format!("trace-{}.json", env.workload));
        std::fs::write(&trace_path, tracer.to_json(env.workload))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        layers.rows(!WORKLOADS[..LISTED].contains(&env.workload))
    } else {
        // Contention from other machines on the host only ever adds time,
        // in bursts, so the steady figure is what the block (or the set-up)
        // costs with every piece at its fastest repeat; the median and
        // quartile distance of the raw repeats stay beside it in the JSON
        // file.
        let setup_s: Vec<f64> = setups.iter().map(|s| s.iter().sum::<f64>() / 1e3).collect();
        let floor_setup_ms: f64 = floor(&setups)?.iter().sum();
        let cut: Vec<Vec<f64>> = blocks
            .iter()
            .map(|b| with_rest(b.piece_ms.clone(), b.wall_s * 1e3))
            .collect();
        let pieces = floor(&cut)?;
        let floor_wall_ms: f64 = pieces.iter().sum();
        let op_ms_p50 = workload
            .op_ms_p50(&blocks, floor_wall_ms)
            .unwrap_or_else(|| {
                let mut rest = pieces.as_slice();
                let ops: Vec<f64> = blocks[0]
                    .op_pieces
                    .iter()
                    .map(|&n| {
                        let (op, tail) = rest.split_at(n as usize);
                        rest = tail;
                        op.iter().sum()
                    })
                    .collect();
                median(&ops)
            });
        let per_s: Vec<f64> = blocks.iter().map(|b| b.ops as f64 / b.wall_s).collect();
        let p50: Vec<f64> = blocks.iter().map(|b| percentile(&b.op_ms, 50.0)).collect();
        let values = [
            Value::beside(floor_setup_ms / 1e3, &setup_s),
            Value::beside(blocks[0].ops as f64 / (floor_wall_ms / 1e3), &per_s),
            Value::beside(op_ms_p50, &p50),
            Value::exact(peak_rss_mb()?),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    if let Some((name, _, v)) = rows.iter().find(|(_, _, v)| !v.value.is_finite()) {
        return Err(format!("{name} is not a finite number ({})", v.value));
    }

    // The series behind the best block, so a reader can see the bursts.
    let mut notes = workload.notes();
    let series: Vec<String> = blocks
        .iter()
        .map(|b| format!("{:.4}", b.ops as f64 / b.wall_s))
        .collect();
    notes.push(("ops_per_s_by_block".to_string(), series.join(" ")));
    let record = RunRecord {
        workload: env.workload,
        seed: env.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        data_dir: &env.data_dir.display().to_string(),
        blocks: blocks.len(),
        attempted,
        failed,
        failures: &failures,
        notes: &notes,
        guard: &guard,
    };
    let suffix = if args.trace { "-layers" } else { "" };
    let json_path = out_dir.join(format!("{}{suffix}.json", env.workload));
    std::fs::write(&json_path, report::run_json(&record, &rows))
        .map_err(|e| format!("write {}: {e}", json_path.display()))?;

    println!(
        "workload {} seed {} blocks {}",
        env.workload,
        env.seed,
        blocks.len()
    );
    for (name, unit, v) in &rows {
        println!(
            "{name} {unit} {} median {} iqr {} n {}",
            v.value, v.median, v.iqr, v.samples
        );
    }
    println!("ops_attempted count {attempted}");
    println!("ops_failed count {failed}");
    for f in &failures {
        println!("failed: {f}");
    }
    println!(
        "{}",
        report::result_line(failed == 0, attempted, failed, &rows)
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    let Some(workload) = args.workload else {
        // `--all`: one process per workload, so peak memory and caches of
        // one never colour the next.
        for name in WORKLOADS {
            let status = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("workload {name} ended with {status}"));
            }
        }
        return Ok(());
    };

    // `<target>/release/ledger` → outputs under `<target>/ledger/`.
    let out_dir = bin_dir.parent().unwrap_or(&bin_dir).join("ledger");
    let data_dir = out_dir
        .join("data")
        .join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&data_dir)
        .map_err(|e| format!("create {}: {e}", data_dir.display()))?;
    let _cleanup = DataDir(data_dir.clone());
    let env = Env {
        workload,
        seed: args.seed,
        bin_dir,
        data_dir,
    };
    match workload {
        "sim_sweep" | "sim_dense" => drive::<sim::Sim>(&env, args, &out_dir),
        "fleet_2k" => drive::<fleet::Fleet>(&env, args, &out_dir),
        "ckpt_k1" | "ckpt_k16" => drive::<ckpt::Ckpt>(&env, args, &out_dir),
        "wire_stream" => drive::<wire::Wire>(&env, args, &out_dir),
        "cluster_lockstep" => drive::<procs::Cluster>(&env, args, &out_dir),
        "chaos_sweep" => drive::<procs::Chaos>(&env, args, &out_dir),
        other => unreachable!("parse_args admitted {other}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; it must name exactly the listed
    /// workloads, in order.
    #[test]
    fn benchmark_json_names_the_listed_workloads() {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest.find("\"workloads\"").expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let mut rest = body;
        for name in &WORKLOADS[..LISTED] {
            let row = format!("{{\"name\": \"{name}\"");
            let at = rest
                .find(&row)
                .unwrap_or_else(|| panic!("workloads lack {row}"));
            rest = &rest[at + row.len()..];
        }
        assert_eq!(body.matches("\"name\"").count(), LISTED);
    }
}
