//! The fault-campaign runner: generates deterministic campaigns from a
//! base seed, runs each against a live three-process cluster, verifies the
//! device stream byte-for-byte against a simulator reference, and shrinks
//! the first failure to the smallest fault cocktail that reproduces it.
//!
//! ```text
//! synergy-chaos [--seeds <n>] [--base-seed <u64>] [--jobs <n>]
//!               [--data-root <path>] [--node-bin <path>] [--regime]
//!               [--no-link] [--no-disk] [--no-crash] [--no-bitrot]
//!               [--no-deltarot] [--no-corrupt]
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

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use synergy::{sweep, RegimeVerdict};
use synergy_chaos::{
    cocktail, generate, generate_byzantine, outcome_verdict, regime, run_campaign, shrink_failure,
    CampaignOutcome, CampaignResult, CampaignToggles, FaultGroup, RegimeKind,
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

/// `v`, the value given to `flag`, parsed as a `T`.
fn parse<T: FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
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
            "--seeds" => {
                out.seeds = parse(&flag, value()?)?;
                if out.seeds == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
            }
            "--base-seed" => out.base_seed = parse(&flag, value()?)?,
            "--jobs" => {
                out.jobs = parse(&flag, value()?)?;
                if out.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--data-root" => out.data_root = PathBuf::from(value()?),
            "--node-bin" => out.node_bin = Some(PathBuf::from(value()?)),
            "--regime" => out.regime = true,
            other => match FaultGroup::from_flag(other) {
                Some(group) => out.toggles.disable(group),
                None => return Err(format!("unknown flag {other}")),
            },
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
            first,
        } => match first {
            Some(e) => format!(
                "DIVERGED at payload {} byte +{} ({cluster_len} vs {sim_len})",
                e.index, e.offset
            ),
            None => format!("DIVERGED on length ({cluster_len} vs {sim_len})"),
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
                "drops={} dups={} lost={} retries={} torn={} corrupt={} rollbacks={:?}",
                f.chaos_drops,
                f.chaos_dups,
                f.chaos_lost,
                f.stable_retries,
                f.torn_writes,
                f.corrupt_records,
                f.rollback_epochs
            )
        })
        .unwrap_or_else(|| "-".to_string());
    println!(
        "campaign {index:>3}  seed {:<6} steps {}  [{}]  {:<9}  {}  ({} ms)",
        r.config.seed,
        r.config.steps,
        cocktail(&r.config),
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
    // Only a data root this run created is removed; one that was there
    // keeps whatever else it holds.
    let created = !args.data_root.exists();
    if let Err(e) = std::fs::create_dir_all(&args.data_root) {
        eprintln!("synergy-chaos: create {}: {e}", args.data_root.display());
        return ExitCode::FAILURE;
    }
    if args.regime {
        return run_regime_mode(&args, &node_bin, created);
    }
    println!(
        "sweep: {} campaigns from base seed {}, {} jobs, node binary {}",
        args.seeds,
        args.base_seed,
        args.jobs,
        node_bin.display()
    );

    // Campaign indices stand in for seeds: each one regenerates its mission.
    let indices: Vec<u64> = (0..args.seeds).collect();
    let results = sweep(&indices, args.jobs, |index| {
        let cfg = generate(args.base_seed, index, args.toggles);
        run_campaign(&cfg, &node_bin, &args.data_root)
    });
    // In campaign order, whatever order the jobs finished in.
    for (index, result) in (0u64..).zip(&results) {
        print_result(index, result);
    }

    let converged = results.iter().filter(|r| r.outcome.is_converged()).count();
    println!(
        "\nsweep summary: {converged}/{} campaigns converged (device streams byte-identical \
         to the simulator reference)",
        results.len()
    );

    let first_failure = (0u64..)
        .zip(&results)
        .find(|(_, r)| !r.outcome.is_converged());
    if let Some((index, failed)) = first_failure {
        println!(
            "\nfirst divergent seed: {} (campaign {index}); shrinking the fault cocktail…",
            failed.config.seed
        );
        let shrink = shrink_failure(&failed.config, &failed.outcome, &node_bin, &args.data_root);
        print_shrink_report(args.base_seed, index, &shrink);
        println!(
            "node state kept under {} for autopsy",
            args.data_root.display()
        );
        return ExitCode::FAILURE;
    }
    // Every campaign converged, so each already removed its run directory.
    if created {
        let _ = std::fs::remove_dir(&args.data_root);
    }
    ExitCode::SUCCESS
}

/// The unmasked-regime sweep: four simulator regime lattices (one sweep
/// per [`RegimeKind`], `--seeds` campaigns each, one job per kind),
/// then live-cluster Byzantine campaigns whose divergence against the
/// simulator reference is the expected, documented escape.
fn run_regime_mode(args: &Args, node_bin: &Path, created: bool) -> ExitCode {
    println!(
        "unmasked-regime sweep: {} campaigns per regime from base seed {}",
        args.seeds, args.base_seed
    );
    let mut failed = false;

    let kinds: Vec<u64> = (0..RegimeKind::ALL.len() as u64).collect();
    let sweeps = sweep(&kinds, kinds.len(), |kind| {
        regime::run_sweep(RegimeKind::ALL[kind as usize], args.base_seed, args.seeds)
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
    let mut run_dirs = Vec::new();
    for index in 0..3u64 {
        let cfg = generate_byzantine(args.base_seed, index);
        let result = run_campaign(&cfg, node_bin, &args.data_root);
        let verdict = outcome_verdict(&result.outcome);
        println!(
            "byzantine {index}  seed {:<6} steps {}  [{}]  {}  -> {}  ({} ms)",
            cfg.seed,
            cfg.steps,
            cocktail(&cfg),
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
        run_dirs.push(result.run_dir);
    }

    if failed {
        println!(
            "\nregime sweep FAILED; node state kept under {} for autopsy",
            args.data_root.display()
        );
        ExitCode::FAILURE
    } else {
        println!("\nregime sweep passed: every campaign classified, no silent escapes");
        // A diverged campaign keeps its run directory; here divergence was
        // the expected outcome, so nothing is left to examine.
        for dir in run_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        if created {
            let _ = std::fs::remove_dir(&args.data_root);
        }
        ExitCode::SUCCESS
    }
}

/// The minimal-cocktail report. Everything needed to reproduce the failure
/// without this process's state: the (base seed, campaign index) pair that
/// regenerates the mission, the `--no-*` flags matching the removed groups,
/// the verdict class the failure belongs to, and — for divergences — the
/// first divergent payload and byte offset.
fn print_shrink_report(base_seed: u64, index: u64, shrink: &synergy_chaos::ShrinkReport) {
    println!(
        "minimal failing spec: seed {} steps {} [{}]",
        shrink.config.seed,
        shrink.config.steps,
        cocktail(&shrink.config)
    );
    println!(
        "verdict class: {}  (preserved while shrinking)",
        outcome_verdict(&shrink.outcome)
    );
    println!("minimal outcome: {}", outcome_cell(&shrink.outcome));
    if let CampaignOutcome::Diverged { first: Some(e), .. } = shrink.outcome {
        println!("first divergent/escaped payload: {e}");
    }
    let flags = if shrink.removed.is_empty() {
        "(none — every fault group is load-bearing)".to_string()
    } else {
        shrink
            .removed
            .iter()
            .map(|g| format!("--no-{}", g.name()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "reproduce: --base-seed {base_seed} --seeds {} {flags}  (campaign {index})",
        index + 1
    );
}
