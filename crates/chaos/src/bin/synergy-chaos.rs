//! The fault-campaign runner: generates deterministic campaigns from a
//! base seed, runs each against a live three-process cluster, verifies the
//! device stream byte-for-byte against a simulator reference, and shrinks
//! the first failure to the smallest fault cocktail that reproduces it.
//!
//! ```text
//! synergy-chaos [--seeds <n>] [--base-seed <u64>] [--jobs <n>]
//!               [--data-root <path>] [--node-bin <path>] [--regime]
//!               [--no-link] [--no-disk] [--no-crash] [--no-bitrot]
//!               [--no-deltarot] [--no-archive] [--no-corrupt]
//! ```
//!
//! Exit status is nonzero iff any campaign diverged or aborted. There is
//! no hang mode: every orchestrator interaction is deadline-bounded, so a
//! stuck campaign surfaces as a structured abort in the table.
//!
//! `--regime` switches to the **unmasked-regime** sweep: `--seeds`
//! simulator campaigns per regime (AT catches, seeded escapes, resync
//! violations, Byzantine-lite), each classified into a verdict class, plus
//! live-cluster Byzantine campaigns whose divergence against the simulator
//! reference must document the escape. Here divergence in the Byzantine
//! campaigns is the *expected* outcome; the sweep fails on silent escapes,
//! on a verdict class worse than the regime's design target, or on
//! nondeterminism.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use synergy::RegimeVerdict;
use synergy_chaos::{
    outcome_verdict, regime, run_campaign, shrink_failure, CampaignOutcome, CampaignResult,
    CampaignSpec, CampaignToggles, RegimeKind,
};

struct Args {
    seeds: u64,
    base_seed: u64,
    jobs: usize,
    data_root: PathBuf,
    node_bin: Option<PathBuf>,
    toggles: CampaignToggles,
    regime: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        seeds: 8,
        base_seed: 1,
        jobs: 4,
        data_root: std::env::temp_dir().join(format!("synergy-chaos-{}", std::process::id())),
        node_bin: None,
        toggles: CampaignToggles::default(),
        regime: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seeds" => out.seeds = value()?.parse().map_err(|e| format!("{e}"))?,
            "--base-seed" => out.base_seed = value()?.parse().map_err(|e| format!("{e}"))?,
            "--jobs" => {
                out.jobs = value()?.parse().map_err(|e| format!("{e}"))?;
                if out.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--data-root" => out.data_root = PathBuf::from(value()?),
            "--node-bin" => out.node_bin = Some(PathBuf::from(value()?)),
            "--no-link" => out.toggles.link = false,
            "--no-disk" => out.toggles.disk = false,
            "--no-crash" => out.toggles.crash = false,
            "--no-bitrot" => out.toggles.bitrot = false,
            "--no-deltarot" => out.toggles.deltarot = false,
            "--no-archive" => out.toggles.archive = false,
            "--no-corrupt" => out.toggles.corrupt = false,
            "--regime" => out.regime = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

/// The node binary: an explicit `--node-bin`, else a sibling of this
/// executable — `synergy-node` from a full workspace build, falling back
/// to this package's own `synergy-chaos-node`.
fn node_bin(explicit: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(p) = explicit {
        return p
            .exists()
            .then_some(p.clone())
            .ok_or_else(|| format!("--node-bin {} does not exist", p.display()));
    }
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    for name in ["synergy-node", "synergy-chaos-node"] {
        let sibling = me.with_file_name(name);
        if sibling.exists() {
            return Ok(sibling);
        }
    }
    Err(format!(
        "no node binary (synergy-node or synergy-chaos-node) next to {}",
        me.display()
    ))
}

fn outcome_cell(outcome: &CampaignOutcome) -> String {
    match outcome {
        CampaignOutcome::Converged => "converged".to_string(),
        CampaignOutcome::Diverged {
            cluster_len,
            sim_len,
            first_diff,
            first_offset,
        } => match (first_diff, first_offset) {
            (Some(i), Some(o)) => {
                format!("DIVERGED at payload {i} byte +{o} ({cluster_len} vs {sim_len})")
            }
            (Some(i), None) => format!("DIVERGED at payload {i} ({cluster_len} vs {sim_len})"),
            _ => format!("DIVERGED on length ({cluster_len} vs {sim_len})"),
        },
        CampaignOutcome::Aborted { reason } => format!("ABORTED: {reason}"),
    }
}

fn print_result(index: u64, r: &CampaignResult) {
    let faults = r
        .faults
        .as_ref()
        .map(|f| {
            format!(
                "drops={} dups={} lost={} retries={} torn={} corrupt={} uploads={} rehydrated={} rollbacks={:?}",
                f.chaos_drops,
                f.chaos_dups,
                f.chaos_lost,
                f.stable_retries,
                f.torn_writes,
                f.corrupt_records,
                f.archive_uploads,
                f.rehydrated,
                f.rollback_epochs
            )
        })
        .unwrap_or_else(|| "-".to_string());
    println!(
        "campaign {index:>3}  seed {:<6} steps {}  [{}]  {:<9}  {}  ({} ms)",
        r.spec.seed,
        r.spec.steps,
        r.spec.cocktail(),
        if r.outcome.is_converged() {
            "converged"
        } else {
            "FAILED"
        },
        faults,
        r.wall.as_millis()
    );
    if !r.outcome.is_converged() {
        println!("             -> {}", outcome_cell(&r.outcome));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("synergy-chaos: {e}");
            return ExitCode::FAILURE;
        }
    };
    let node_bin = match node_bin(args.node_bin.clone()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("synergy-chaos: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.data_root) {
        eprintln!("synergy-chaos: create {}: {e}", args.data_root.display());
        return ExitCode::FAILURE;
    }
    if args.regime {
        return run_regime_mode(&args, &node_bin);
    }
    println!(
        "sweep: {} campaigns from base seed {}, {} jobs, node binary {}",
        args.seeds,
        args.base_seed,
        args.jobs,
        node_bin.display()
    );

    let next = AtomicU64::new(0);
    let results: Mutex<Vec<(u64, CampaignResult)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..args.jobs.min(args.seeds.max(1) as usize) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= args.seeds {
                    break;
                }
                let spec = CampaignSpec::generate(args.base_seed, index, args.toggles);
                let result = run_campaign(&spec, &node_bin, &args.data_root);
                print_result(index, &result);
                results.lock().expect("results lock").push((index, result));
            });
        }
    });
    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|(index, _)| *index);

    let converged = results
        .iter()
        .filter(|(_, r)| r.outcome.is_converged())
        .count();
    println!(
        "\nsweep summary: {converged}/{} campaigns converged (device streams byte-identical \
         to the simulator reference)",
        results.len()
    );

    let first_failure = results.iter().find(|(_, r)| !r.outcome.is_converged());
    if let Some((index, failed)) = first_failure {
        println!(
            "\nfirst divergent seed: {} (campaign {index}); shrinking the fault cocktail…",
            failed.spec.seed
        );
        let shrink = shrink_failure(&failed.spec, &failed.outcome, &node_bin, &args.data_root);
        print_shrink_report(args.base_seed, *index, &shrink);
        println!(
            "node state kept under {} for autopsy",
            args.data_root.display()
        );
        return ExitCode::FAILURE;
    }
    let _ = std::fs::remove_dir_all(&args.data_root);
    ExitCode::SUCCESS
}

/// The unmasked-regime sweep: four simulator regime lattices (one sweep
/// per [`RegimeKind`], `--seeds` campaigns each, all four in parallel),
/// then live-cluster Byzantine campaigns whose divergence against the
/// simulator reference is the expected, documented escape.
fn run_regime_mode(args: &Args, node_bin: &std::path::Path) -> ExitCode {
    println!(
        "unmasked-regime sweep: {} campaigns per regime from base seed {}",
        args.seeds, args.base_seed
    );
    let mut failed = false;

    let sweeps: Vec<regime::RegimeSweep> = std::thread::scope(|scope| {
        let handles: Vec<_> = RegimeKind::ALL
            .iter()
            .map(|&kind| scope.spawn(move || regime::run_sweep(kind, args.base_seed, args.seeds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("regime sweep thread"))
            .collect()
    });

    println!(
        "\n{:<10} {:>5} {:>7} {:>9} {:>8} {:>8} {:>8} {:>8} {:>12} {:>11}",
        "regime",
        "runs",
        "masked",
        "recovered",
        "flagged",
        "escaped",
        "catches",
        "misses",
        "latency(s)",
        "escape-rate"
    );
    for sweep in &sweeps {
        let s = sweep.summary();
        println!(
            "{:<10} {:>5} {:>7} {:>9} {:>8} {:>8} {:>8} {:>8} {:>12} {:>11.5}",
            s.kind.name(),
            s.runs,
            s.masked,
            s.recovered,
            s.flagged,
            s.escaped,
            s.at_catches,
            s.at_escapes,
            s.mean_detection_latency_secs
                .map_or_else(|| "-".to_string(), |l| format!("{l:.3}")),
            s.escape_rate
        );
        let silent = sweep.silent_escape_rows();
        if !silent.is_empty() {
            eprintln!(
                "FAIL [{}]: silent escapes — AT misses without oracle localization in campaigns {silent:?}",
                sweep.kind
            );
            failed = true;
        }
        let worse = sweep.worse_than_expected_rows();
        if !worse.is_empty() {
            eprintln!(
                "FAIL [{}]: campaigns {worse:?} classified worse than the design target {}",
                sweep.kind,
                sweep.kind.expected()
            );
            failed = true;
        }
        if let Err(index) = sweep.recheck_determinism() {
            eprintln!(
                "FAIL [{}]: campaign {index} did not reproduce bit-for-bit on replay",
                sweep.kind
            );
            failed = true;
        }
    }

    // The live-cluster leg: Byzantine-lite campaigns where the cluster's
    // divergence from the simulator reference *is* the documented escape.
    println!("\nlive-cluster Byzantine campaigns (expected class: documented-escape)");
    for index in 0..3u64 {
        let spec = CampaignSpec::generate_byzantine(args.base_seed, index);
        let result = run_campaign(&spec, node_bin, &args.data_root);
        let verdict = outcome_verdict(&result.outcome);
        println!(
            "byzantine {index}  seed {:<6} steps {}  [{}]  {}  -> {}  ({} ms)",
            spec.seed,
            spec.steps,
            spec.cocktail(),
            verdict,
            outcome_cell(&result.outcome),
            result.wall.as_millis()
        );
        if verdict != RegimeVerdict::DocumentedEscape {
            eprintln!(
                "FAIL [byzantine-cluster {index}]: expected documented-escape, got {verdict}"
            );
            failed = true;
        }
    }

    if failed {
        println!(
            "\nregime sweep FAILED; node state kept under {} for autopsy",
            args.data_root.display()
        );
        ExitCode::FAILURE
    } else {
        println!("\nregime sweep passed: every campaign classified, no silent escapes");
        let _ = std::fs::remove_dir_all(&args.data_root);
        ExitCode::SUCCESS
    }
}

/// The minimal-cocktail report. Everything needed to reproduce the failure
/// without this process's state: the (base seed, campaign index) pair that
/// regenerates the spec, the `--no-*` flags matching the removed groups,
/// the verdict class the failure belongs to, and — for divergences — the
/// first divergent payload and byte offset.
fn print_shrink_report(base_seed: u64, index: u64, shrink: &synergy_chaos::ShrinkReport) {
    println!(
        "minimal failing spec: seed {} steps {} [{}]",
        shrink.spec.seed,
        shrink.spec.steps,
        shrink.spec.cocktail()
    );
    println!(
        "verdict class: {}  (preserved while shrinking)",
        outcome_verdict(&shrink.outcome)
    );
    println!("minimal outcome: {}", outcome_cell(&shrink.outcome));
    if let CampaignOutcome::Diverged {
        first_diff: Some(i),
        first_offset: Some(o),
        ..
    } = shrink.outcome
    {
        println!("first divergent/escaped payload: msg[{i}]+{o}");
    }
    let flags = if shrink.removed.is_empty() {
        "(none — every fault group is load-bearing)".to_string()
    } else {
        shrink
            .removed
            .iter()
            .map(|g| format!("--no-{g}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "reproduce: --base-seed {base_seed} --seeds {} {flags}  (campaign {index})",
        index + 1
    );
}
