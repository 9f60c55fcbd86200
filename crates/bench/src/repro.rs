//! The paper's evaluation as one table: every figure, table and result this
//! crate regenerates, by its `results/` file stem.
//!
//! `repro <name>` prints an entry's output, byte-identical to
//! `results/<name>.txt`; `tests/results_pinned.rs` holds every entry to its
//! committed file. DESIGN.md §4 maps each entry to the paper.

use std::fmt::Write as _;

use synergy::explorer::{default_scenario, explore, Step};
use synergy::{
    model, run_regime_mission, scenario, sweep, Mission, RegimeReport, Scheme, SystemConfig,
};
use synergy_clocks::SyncParams;
use synergy_des::{SimDuration, Summary, Trace};
use synergy_tb::{blocking_period, TbVariant};

use crate::{host_jobs, render_table, rollback_distances, Fig7Params};

/// `writeln!` into an entry's `String`, which cannot fail.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!($($arg)*).expect("writing to a String cannot fail")
    };
}

/// One reproducible output: its `results/` file stem, what it reproduces,
/// and the function that writes it.
pub type Entry = (&'static str, &'static str, fn(&mut String));

/// Every output `repro` regenerates, in paper order.
#[rustfmt::skip]
pub const TABLE: &[Entry] = &[
    ("fig1_trace", "Figure 1: original MDCD checkpoint establishment", fig1_trace),
    ("fig2_violations", "Figure 2: hazards of time-based checkpointing", fig2_violations),
    ("fig3_trace", "Figure 3: modified MDCD protocol", fig3_trace),
    ("fig4_naive_combination", "Figure 4: naive combination vs coordination", fig4_naive_combination),
    ("fig6_cases", "Figure 6: coordinated stable-checkpoint cases", fig6_cases),
    ("table1_blocking", "Table 1: original vs adapted TB", table1_blocking),
    ("fig7_rollback", "Figure 7: rollback distance vs internal rate", fig7_rollback),
    ("ablations", "beyond-paper ablations (Δ, external rate, blocking)", ablations),
    ("explore_interleavings", "bounded model checking of MDCD", explore_interleavings),
    ("regimes", "unmasked regimes: AT coverage ladder", regimes),
];

/// Writes the events of `trace` whose kind starts with one of `kinds`.
fn write_events(out: &mut String, trace: &Trace, kinds: &[&str]) {
    for e in trace.events() {
        if kinds.iter().any(|k| e.kind.starts_with(k)) {
            outln!(out, "{e}");
        }
    }
}

/// Writes a rendered table followed by a blank line.
fn write_table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    out.push_str(&render_table(headers, rows));
    out.push('\n');
}

/// The checkpoint, message and AT events of Figures 1 and 3.
const MDCD_KINDS: &[&str] = &["ckpt", "msg.send", "msg.recv", "at."];

/// **Figure 1**: message-driven confidence-driven checkpoint establishment
/// under the original MDCD protocol, as a per-process timeline.
fn fig1_trace(out: &mut String) {
    let report = scenario::fig1_original_mdcd();
    out.push_str("Figure 1 — original MDCD checkpoint establishment\n\n");
    write_events(out, &report.trace, MDCD_KINDS);
    outln!(out, "\ncounts: {:?}", report.counts);
    out.push_str("Type-1 checkpoints before contamination, Type-2 after validation;\n");
    out.push_str("P1act (original protocol) takes no checkpoints; AT on external messages only.\n");
}

/// **Figure 2**: the two hazards of time-based checkpointing — consistency
/// violation by a post-checkpoint send, recoverability violation by an
/// in-transit message — and the mechanisms that fix them.
fn fig2_violations(out: &mut String) {
    let r = scenario::fig2_tb_hazards();
    out.push_str("Figure 2 — global-state hazards of time-based checkpointing\n\n");
    out.push_str("(a) without countermeasures:\n");
    outln!(
        out,
        "    m1 (sent after Pa's checkpoint, read before Pb's) violates consistency: {}",
        r.consistency_violated_without_blocking
    );
    outln!(
        out,
        "    m2 (in transit across the checkpoint line) violates recoverability:   {}",
        r.recoverability_violated_without_log
    );
    out.push_str("\n(b) with the Neves-Fuchs countermeasures:\n");
    outln!(
        out,
        "    post-checkpoint blocking period restores consistency:   {}",
        r.blocking_restores_consistency
    );
    outln!(
        out,
        "    unacknowledged-message logging restores recoverability: {}",
        r.logging_restores_recoverability
    );
}

/// **Figure 3**: the modified MDCD protocol on Figure 1's message pattern —
/// pseudo checkpoints appear at `P1act`, Type-2 checkpoints disappear.
fn fig3_trace(out: &mut String) {
    let modified = scenario::fig3_modified_mdcd();
    out.push_str("Figure 3 — modified MDCD protocol (coordination-ready)\n\n");
    write_events(out, &modified.trace, MDCD_KINDS);
    let original = scenario::fig1_original_mdcd();
    out.push_str("\nside-by-side counts (same message schedule):\n");
    outln!(out, "  original (Fig. 1): {:?}", original.counts);
    outln!(out, "  modified (Fig. 3): {:?}", modified.counts);
    out.push_str("\nmodification: P1act gains pseudo checkpoints (driven by its pseudo dirty\n");
    out.push_str("bit), Type-2 checkpoints are eliminated, knowledge updates are preserved.\n");
}

/// **Figure 4**: naively combining the original MDCD and TB protocols,
/// versus the coordinated scheme, under identical workloads and faults.
fn fig4_naive_combination(out: &mut String) {
    out.push_str("Figure 4 — consequence of simple combination (20 seeded runs/scheme)\n\n");
    let r = scenario::fig4_naive_vs_coordinated(20);
    outln!(
        out,
        "  naive combination:  {}/{} runs violated a global-state property",
        r.naive_violations,
        r.runs
    );
    outln!(
        out,
        "  coordinated scheme: {}/{} runs violated a global-state property",
        r.coordinated_violations,
        r.runs
    );
    out.push('\n');
    out.push_str("the naive TB timer persists whatever state it finds — often potentially\n");
    out.push_str("contaminated (Fig. 4(a)) — so after a hardware fault the system can no\n");
    out.push_str("longer recover from a subsequent software error; coordination always\n");
    out.push_str("restores non-contaminated, mutually consistent states.\n");
    assert!(r.naive_violations > 0, "expected naive violations");
    assert_eq!(r.coordinated_violations, 0, "coordination must stay clean");
}

/// **Figure 6**: the four coordinated stable-checkpoint establishment cases
/// — contents chosen by the dirty bit, adjusted by `passed_AT`
/// notifications inside the blocking period.
fn fig6_cases(out: &mut String) {
    let r = scenario::fig6_cases();
    out.push_str("Figure 6 — stable-storage checkpoint establishment under coordination\n\n");
    outln!(
        out,
        "(a) clean P2 saves its current state:                       {}",
        r.p2_clean_saves_current
    );
    outln!(
        out,
        "(b) dirty P2 replaces the in-flight copy on passed_AT:      {}",
        r.p2_dirty_replaces_on_passed_at
    );
    outln!(
        out,
        "(c) pseudo-clean P1act saves its current state:             {}",
        r.act_clean_saves_current
    );
    outln!(
        out,
        "(d) pseudo-dirty P1act copies its pseudo checkpoint:        {}",
        r.act_dirty_copies_volatile
    );
    for (name, trace) in &r.traces {
        outln!(out, "\n--- scenario {name} ---");
        write_events(out, trace, &["tb.", "ckpt", "at."]);
    }
}

/// Blocking durations (ms) measured from simulation, split by the dirty bit
/// at the timer: (clean, dirty, replacements, commits).
fn measured_blocking(scheme: Scheme, seeds: u64) -> (Summary, Summary, u64, u64) {
    let mut clean = Summary::new();
    let mut dirty = Summary::new();
    let mut replacements = 0;
    let mut commits = 0;
    for seed in 0..seeds {
        let outcome = Mission::new(
            SystemConfig::builder()
                .scheme(scheme)
                .seed(seed)
                .duration_secs(300.0)
                .internal_rate_per_min(2.0)
                .external_rate_per_min(2.0)
                .tb_interval_secs(10.0)
                .build(),
        )
        .run();
        replacements += outcome.metrics.stable_replacements;
        commits += outcome.metrics.stable_commits;
        let mut last_dirty: Option<bool> = None;
        for e in outcome.trace.events() {
            if e.kind == "tb.timer" {
                last_dirty = Some(e.detail.contains("dirty=1"));
            } else if e.kind == "tb.blocking" {
                let secs: f64 = e
                    .detail
                    .trim_start_matches("for ")
                    .trim_end_matches('s')
                    .parse()
                    .unwrap_or(0.0);
                match last_dirty {
                    Some(true) => dirty.push(secs * 1e3),
                    Some(false) => clean.push(secs * 1e3),
                    None => {}
                }
            }
        }
    }
    (clean, dirty, replacements, commits)
}

/// **Table 1**: original vs adapted TB protocol — blocking period lengths,
/// checkpoint contents, messages blocked, purpose — with both the
/// closed-form values and durations measured from simulation.
fn table1_blocking(out: &mut String) {
    let sync = SyncParams::new(SimDuration::from_micros(500), 1e-4);
    let tmin = SimDuration::from_micros(200);
    let tmax = SimDuration::from_millis(2);
    let elapsed = SimDuration::from_secs(60);

    out.push_str("Table 1 — original vs adapted TB protocol\n");
    out.push_str("  (δ=500µs, ρ=1e-4, tmin=200µs, tmax=2ms, τ=60s since resync)\n\n");

    let bp = |variant, dirty| {
        let d = blocking_period(variant, sync, elapsed, tmin, tmax, dirty);
        format!("{:.3} ms", d.as_secs_f64() * 1e3)
    };
    let rows = vec![
        vec![
            "blocking period (formula)".to_string(),
            format!("τ = δ+2ρτ−tmin = {}", bp(TbVariant::Original, true)),
            format!(
                "τ(0) = {} / τ(1) = δ+2ρτ+tmax = {}",
                bp(TbVariant::Adapted, false),
                bp(TbVariant::Adapted, true)
            ),
        ],
        vec![
            "checkpoint contents".to_string(),
            "current state".to_string(),
            "current state (clean) or most recent volatile checkpoint (dirty)".to_string(),
        ],
        vec![
            "messages blocked".to_string(),
            "all".to_string(),
            "all but passed_AT notifications".to_string(),
        ],
        vec![
            "purpose of blocking".to_string(),
            "consistency".to_string(),
            "consistency and recoverability".to_string(),
        ],
    ];
    write_table(out, &["attribute", "original TB", "adapted TB"], &rows);

    out.push_str("measured from simulation (5 seeds, Δ=10s):\n");
    let (clean_n, dirty_n, repl_n, commits_n) = measured_blocking(Scheme::Naive, 5);
    let (clean_c, dirty_c, repl_c, commits_c) = measured_blocking(Scheme::Coordinated, 5);
    let rows = vec![
        vec![
            "original TB (naive scheme)".to_string(),
            format!("{:.3} ms", clean_n.mean()),
            format!("{:.3} ms", dirty_n.mean()),
            format!("{repl_n}"),
            format!("{commits_n}"),
        ],
        vec![
            "adapted TB (coordinated)".to_string(),
            format!("{:.3} ms", clean_c.mean()),
            format!("{:.3} ms", dirty_c.mean()),
            format!("{repl_c}"),
            format!("{commits_c}"),
        ],
    ];
    write_table(
        out,
        &[
            "variant",
            "blocking (clean)",
            "blocking (dirty)",
            "replacements",
            "commits",
        ],
        &rows,
    );
    out.push_str("note: original TB blocks the same duration regardless of the dirty bit;\n");
    out.push_str(
        "adapted TB lengthens dirty-process blocking by tmax+tmin to catch in-flight passed_AT.\n",
    );
}

/// **Figure 7**: expected rollback distance `E[D_co]` vs `E[D_wt]` as a
/// function of the internal message rate.
fn fig7_rollback(out: &mut String) {
    let params = Fig7Params {
        seeds: 20,
        duration_secs: 900.0,
        external_per_min: 2.0,
        tb_interval_secs: 2.0,
    };
    out.push_str("Figure 7 — expected rollback distance vs internal message rate\n");
    outln!(
        out,
        "  parameters: Δ={}s, external rate {}/min/component, {} seeds/point, {}s missions",
        params.tb_interval_secs,
        params.external_per_min,
        params.seeds,
        params.duration_secs
    );
    out.push('\n');
    let lambda_v = 2.0 * params.external_per_min / 60.0; // both components validate
    let rows: Vec<Vec<String>> = (60..=200)
        .step_by(20)
        .map(|rate| {
            let rate = f64::from(rate);
            let co = rollback_distances(Scheme::Coordinated, rate, params);
            let wt = rollback_distances(Scheme::WriteThrough, rate, params);
            let model_co = model::expected_rollback_coordinated(
                lambda_v,
                rate / 3600.0,
                params.tb_interval_secs,
            );
            vec![
                format!("{rate:.0}"),
                format!("{:.2}", co.mean()),
                format!("±{:.2}", co.ci95_half_width()),
                format!("{:.2}", wt.mean()),
                format!("±{:.2}", wt.ci95_half_width()),
                format!("{model_co:.2}"),
                format!("{:.2}", model::expected_rollback_write_through(lambda_v)),
                format!("{:.1}x", wt.mean() / co.mean().max(1e-9)),
            ]
        })
        .collect();
    write_table(
        out,
        &[
            "rate/h",
            "E[Dco] (s)",
            "ci95",
            "E[Dwt] (s)",
            "ci95",
            "model co",
            "model wt",
            "improvement",
        ],
        &rows,
    );
    out.push_str("paper claim: E[Dco] significantly below E[Dwt] across the sweep;\n");
    out.push_str(
        "E[Dwt] is set by the (external) validation rate, E[Dco] by Δ and the dirty fraction.\n",
    );
}

/// Hardware rollback distances over 12 seeded 600 s missions.
fn distances(scheme: Scheme, delta: f64, ext_per_min: f64, int_per_min: f64) -> Summary {
    let seeds: Vec<u64> = (0..12).collect();
    let per_seed = sweep(&seeds, host_jobs(), |seed| {
        let fault = 300.0 + 37.0 * (seed as f64 % 5.0);
        let o = Mission::new(
            SystemConfig::builder()
                .scheme(scheme)
                .seed(seed)
                .duration_secs(600.0)
                .internal_rate_per_min(int_per_min)
                .external_rate_per_min(ext_per_min)
                .tb_interval_secs(delta)
                .hardware_fault_at_secs(fault)
                .trace(false)
                .build(),
        )
        .run();
        o.metrics.hardware_rollback_distances()
    });
    per_seed.into_iter().flatten().collect()
}

/// Beyond-paper ablations (DESIGN.md §4): rollback distance vs TB interval
/// `Δ` (the model's crossover `Δ = 2/(λi+λv)` separates where coordination
/// wins) and vs external (validation) rate; blocking overhead vs internal
/// message rate.
fn ablations(out: &mut String) {
    out.push_str("Ablation 1 — rollback distance vs TB interval Δ (λi=1/min, λext=2/min)\n\n");
    let lambda_i = 1.0 / 60.0;
    let lambda_v = 2.0 * 2.0 / 60.0;
    let crossover = model::crossover_interval(lambda_v, lambda_i);
    outln!(out, "  model crossover: Δ = 2/(λi+λv) = {crossover:.1}s\n");
    let mut rows = Vec::new();
    for delta in [1.0, 2.0, 5.0, 10.0, 20.0, 40.0] {
        let co = distances(Scheme::Coordinated, delta, 2.0, 1.0);
        let wt = distances(Scheme::WriteThrough, delta, 2.0, 1.0);
        rows.push(vec![
            format!("{delta:.0}"),
            format!("{:.2}", co.mean()),
            format!("{:.2}", wt.mean()),
            format!("{:.2}x", wt.mean() / co.mean().max(1e-9)),
        ]);
    }
    write_table(
        out,
        &["Δ (s)", "E[Dco] (s)", "E[Dwt] (s)", "improvement"],
        &rows,
    );

    out.push_str(
        "\nAblation 2 — rollback distance vs external (validation) rate (Δ=2s, λi=1/min)\n\n",
    );
    let mut rows = Vec::new();
    for ext in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let co = distances(Scheme::Coordinated, 2.0, ext, 1.0);
        let wt = distances(Scheme::WriteThrough, 2.0, ext, 1.0);
        rows.push(vec![
            format!("{ext:.1}"),
            format!("{:.2}", co.mean()),
            format!("{:.2}", wt.mean()),
            format!("{:.2}x", wt.mean() / co.mean().max(1e-9)),
        ]);
    }
    write_table(
        out,
        &["ext rate (/min)", "E[Dco] (s)", "E[Dwt] (s)", "improvement"],
        &rows,
    );

    out.push_str(
        "\nAblation 3 — blocking overhead vs internal rate (coordinated, Δ=10s, 300s)\n\n",
    );
    let mut rows = Vec::new();
    for int_rate in [1.0, 10.0, 60.0, 120.0] {
        let o = Mission::new(
            SystemConfig::builder()
                .scheme(Scheme::Coordinated)
                .seed(5)
                .duration_secs(300.0)
                .internal_rate_per_min(int_rate)
                .external_rate_per_min(2.0)
                .tb_interval_secs(10.0)
                .trace(false)
                .build(),
        )
        .run();
        let m = o.metrics;
        rows.push(vec![
            format!("{int_rate:.0}"),
            format!("{}", m.blocking_periods),
            format!("{:.2}", m.blocking_total.as_secs_f64() * 1e3),
            format!("{:.4}%", 100.0 * m.blocking_total.as_secs_f64() / 300.0),
            format!("{}", m.stable_replacements),
        ]);
    }
    write_table(
        out,
        &[
            "int rate (/min)",
            "blocking periods",
            "total blocked (ms)",
            "% of mission",
            "replacements",
        ],
        &rows,
    );
}

/// Bounded model checking of the MDCD error-containment layer — the paper's
/// stated "formal validation" direction (§5), made executable: every network
/// interleaving of several scripted workloads, with dirty-bit truthfulness,
/// checkpoint cleanliness and recovery safety checked in every reachable
/// state.
fn explore_interleavings(out: &mut String) {
    out.push_str("Bounded exhaustive exploration of MDCD interleavings\n\n");
    let scenarios: Vec<(&str, Vec<Step>)> = vec![
        ("figure 1/3 pattern", default_scenario()),
        (
            "two validation cycles + trailing traffic",
            vec![
                Step::Component1 { external: false },
                Step::Component2 { external: false },
                Step::Component1 { external: true },
                Step::Component2 { external: false },
                Step::Component1 { external: false },
                Step::Component2 { external: true },
                Step::Component1 { external: false },
            ],
        ),
        (
            "peer-led contamination",
            vec![
                Step::Component2 { external: false },
                Step::Component2 { external: false },
                Step::Component1 { external: false },
                Step::Component1 { external: false },
                Step::Component2 { external: true },
                Step::Component1 { external: true },
            ],
        ),
        (
            "validation storm",
            vec![
                Step::Component1 { external: true },
                Step::Component1 { external: true },
                Step::Component1 { external: false },
                Step::Component2 { external: true },
                Step::Component1 { external: true },
            ],
        ),
    ];
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (name, scenario) in &scenarios {
        let report = explore(scenario, 5_000_000);
        all_ok &= report.all_hold();
        rows.push(vec![
            name.to_string(),
            scenario.len().to_string(),
            report.states.to_string(),
            report.transitions.to_string(),
            report.violations.len().to_string(),
            if report.truncated { "yes" } else { "no" }.to_string(),
        ]);
        for v in report.violations.iter().take(3) {
            outln!(out, "  VIOLATION in '{name}': {v}");
        }
    }
    write_table(
        out,
        &[
            "scenario",
            "steps",
            "states",
            "transitions",
            "violations",
            "truncated",
        ],
        &rows,
    );
    outln!(
        out,
        "verdict: {}",
        if all_ok {
            "every reachable state of every scenario satisfies all invariants"
        } else {
            "VIOLATIONS FOUND"
        }
    );
    assert!(all_ok);
}

/// The unmasked-regime ladder (DESIGN.md §15): AT detection latency and
/// escape rate as acceptance-test coverage falls from 100 % to 0 %, at a
/// fixed bad-message plan. Seed `BASE_SEED + i` runs at every coverage
/// level, so the fault arrivals are identical and only the AT knob moves.
/// Escapes are counted against the oracle run the regime pipeline diffs
/// internally; a seed that under-documents its escapes aborts the run.
fn regimes(out: &mut String) {
    const BASE_SEED: u64 = 9000;
    const SEEDS: u64 = 32;
    const BAD_AFTER_SECS: f64 = 30.0;
    const BAD_RATE: f64 = 0.6;
    const COVERAGE_PCT: [u32; 5] = [100, 75, 50, 25, 0];

    out.push_str("Unmasked regimes — AT detection latency and escape rate vs AT coverage\n");
    outln!(
        out,
        "  ({SEEDS} seeds from {BASE_SEED}, 120s missions, 60 int/min, 6 ext/min, \
         bad messages from {BAD_AFTER_SECS}s at rate {BAD_RATE})\n"
    );
    let seeds: Vec<u64> = (BASE_SEED..BASE_SEED + SEEDS).collect();
    let mut rows = Vec::new();
    for pct in COVERAGE_PCT {
        let reports = sweep(&seeds, host_jobs(), |seed| {
            let report = run_regime_mission(
                &SystemConfig::builder()
                    .seed(seed)
                    .duration_secs(120.0)
                    .internal_rate_per_min(60.0)
                    .external_rate_per_min(6.0)
                    .trace(false)
                    .bad_messages(BAD_AFTER_SECS, BAD_RATE)
                    .at_coverage(f64::from(pct) / 100.0)
                    .build(),
            );
            assert!(
                report.escapes.len() as u64 >= report.at_escapes,
                "seed {seed} at coverage {pct}%: {} AT misses but only {} documented — \
                 silent escapes invalidate the run",
                report.at_escapes,
                report.escapes.len(),
            );
            report
        });
        let sum = |f: fn(&RegimeReport) -> u64| reports.iter().map(f).sum::<u64>();
        let misses = sum(|r| r.at_escapes);
        let latencies: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.detection_latency_secs)
            .collect();
        rows.push(vec![
            format!("{pct}%"),
            sum(|r| r.at_catches).to_string(),
            misses.to_string(),
            sum(|r| r.escapes.len() as u64).to_string(),
            match latencies.len() {
                0 => "n/a".to_string(),
                n => format!("{:.3} s", latencies.iter().sum::<f64>() / n as f64),
            },
            // Every mission delivers device messages; max(1) only guards
            // the division.
            format!(
                "{:.5}",
                misses as f64 / sum(|r| r.device_messages as u64).max(1) as f64
            ),
        ]);
    }
    let headers = [
        "AT coverage",
        "catches",
        "misses",
        "documented",
        "mean detection latency",
        "escape rate",
    ];
    write_table(out, &headers, &rows);
}
