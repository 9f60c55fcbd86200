//! Deterministic reproductions of the paper's illustrative figures.
//!
//! Each function scripts the exact message pattern of one figure and returns
//! a structured report plus the full event trace; `synergy-bench`'s
//! `repro` entries render these as per-process timelines, and the
//! integration tests assert the structural claims each figure makes.

use crate::config::{Scheme, SystemConfig};
use crate::system::{Mission, System};
use synergy_des::{SimDuration, Trace};

/// Checkpoint/AT counts extracted from a scenario trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Type-1 volatile checkpoints.
    pub type1: usize,
    /// Type-2 volatile checkpoints.
    pub type2: usize,
    /// `P1act` pseudo checkpoints.
    pub pseudo: usize,
    /// Successful acceptance tests.
    pub at_passes: usize,
}

impl TraceCounts {
    /// Extracts counts from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        TraceCounts {
            type1: trace.by_kind("ckpt.type-1").count(),
            type2: trace.by_kind("ckpt.type-2").count(),
            pseudo: trace.by_kind("ckpt.pseudo").count(),
            at_passes: trace.by_kind("at.pass").count(),
        }
    }
}

/// Report of a scripted MDCD trace scenario (Figures 1 and 3).
#[derive(Clone, Debug)]
pub struct MdcdTraceReport {
    /// Extracted counts.
    pub counts: TraceCounts,
    /// The full trace for rendering.
    pub trace: Trace,
}

/// The message pattern shared by Figures 1 and 3: two internal exchanges,
/// a validation at `P1act`, more internal traffic, then a validation at
/// `P2`.
fn figure_1_3_script(scheme: Scheme) -> MdcdTraceReport {
    let mut builder = SystemConfig::builder()
        .scheme(scheme)
        .seed(1)
        .duration_secs(12.0)
        .no_workload()
        .fixed_delay(SimDuration::from_millis(5))
        .perfect_clocks()
        // Keep TB timers out of the window so only MDCD activity shows.
        .tb_interval_secs(1_000.0);
    for (at, component, external) in [
        (1.0, 1, false), // m1: P1act -> P2 (P2 takes B_k, Type-1)
        (2.0, 2, false), // m2: P2 -> replicas (P1sdw takes A_j, Type-1)
        (3.0, 1, true),  // M2: AT at P1act passes; Type-2s under the original
        (4.0, 1, false), // m4: contaminates P2 again (B_k+2)
        (5.0, 2, false), // m5: contaminates P1sdw again
        (6.0, 2, true),  // M1: AT at P2 passes (B_k+3)
    ] {
        builder = builder.scripted_send(at, component, external);
    }
    let outcome = Mission::new(builder.build()).run();
    MdcdTraceReport {
        counts: TraceCounts::from_trace(&outcome.trace),
        trace: outcome.trace,
    }
}

/// Figure 1: message-driven confidence-driven checkpoint establishment under
/// the **original** MDCD protocol.
pub fn fig1_original_mdcd() -> MdcdTraceReport {
    figure_1_3_script(Scheme::MdcdOnly)
}

/// Figure 3: the **modified** MDCD protocol on the same message pattern —
/// pseudo checkpoints appear, Type-2 checkpoints are eliminated.
pub fn fig3_modified_mdcd() -> MdcdTraceReport {
    figure_1_3_script(Scheme::Coordinated)
}

/// Report of the Figure 2 analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fig2Report {
    /// Without blocking, `m1` (sent after the sender's checkpoint, read
    /// before the receiver's) violates consistency.
    pub consistency_violated_without_blocking: bool,
    /// Without unacked-message logging, in-transit `m2` violates
    /// recoverability.
    pub recoverability_violated_without_log: bool,
    /// Post-checkpoint blocking removes the consistency violation.
    pub blocking_restores_consistency: bool,
    /// Saving unacknowledged messages makes `m2` restorable.
    pub logging_restores_recoverability: bool,
}

/// Figure 2: why time-based checkpointing needs a blocking period (for
/// consistency) and unacknowledged-message logging (for recoverability).
///
/// The scenario is evaluated analytically on the exact timings of the
/// figure: process `Pa` checkpoints at its timer `Ta`, process `Pb` at
/// `Tb = Ta + skew` (clock deviation), with message delays inside
/// `[tmin, tmax]`.
pub fn fig2_tb_hazards() -> Fig2Report {
    // Timings (seconds): the figure's qualitative schedule made concrete.
    let ta = 10.000; // Pa's checkpoint
    let skew = 0.004; // Pb's timer fires 4ms later
    let tb = ta + skew;
    let delay = 0.002; // message delivery delay
    let tmin = 0.002;

    // m1: Pa sends right after its checkpoint; Pb reads it before its own.
    let m1_sent = ta + 0.001;
    let m1_read = m1_sent + delay; // 10.003 < tb
    let m1_in_pa_ckpt = m1_sent < ta; // false: sent after the checkpoint
    let m1_in_pb_ckpt = m1_read < tb; // true: read before the checkpoint
    let consistency_violated = m1_in_pb_ckpt && !m1_in_pa_ckpt;

    // With blocking, Pa may not send before every other timer has expired:
    // the earliest send is ta + blocking, arriving after tb.
    let blocking: f64 = skew + 2.0 * 0.0 /* drift */ - tmin + tmin; // δ' ≥ skew
    let m1_blocked_sent = ta + blocking.max(skew);
    let m1_blocked_read = m1_blocked_sent + delay;
    let blocking_restores = m1_blocked_read >= tb;

    // m2: Pb sends before its checkpoint; Pa reads it after its own
    // checkpoint completed — an in-transit message on the recovery line.
    let m2_sent = tb - 0.001;
    let m2_read = m2_sent + delay; // after ta
    let m2_in_pb_ckpt = m2_sent < tb; // true
    let m2_in_pa_ckpt = m2_read < ta; // false
    let recoverability_violated = m2_in_pb_ckpt && !m2_in_pa_ckpt;

    // The Neves-Fuchs fix: m2 is unacknowledged when Pb's checkpoint is
    // taken (the ack cannot return before tb), so it is saved and re-sent.
    let ack_back = m2_read + delay;
    let logged = ack_back > tb;

    Fig2Report {
        consistency_violated_without_blocking: consistency_violated,
        recoverability_violated_without_log: recoverability_violated,
        blocking_restores_consistency: blocking_restores,
        logging_restores_recoverability: logged,
    }
}

/// Report of the Figure 4 comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fig4Report {
    /// Runs of the naive combination that violated a validity property.
    pub naive_violations: usize,
    /// Runs of the coordinated scheme that violated any property.
    pub coordinated_violations: usize,
    /// Total runs per scheme.
    pub runs: usize,
}

/// Figure 4: simply combining the original MDCD and TB protocols loses
/// non-contaminated states, while the coordinated scheme never does.
///
/// Both schemes face identical workloads and a hardware fault; the naive
/// combination checkpoints whatever state its timer finds (often
/// contaminated), so a fraction of runs violate validity, whereas the
/// coordinated scheme must come through every run clean.
pub fn fig4_naive_vs_coordinated(runs: usize) -> Fig4Report {
    let mut report = Fig4Report {
        runs,
        ..Fig4Report::default()
    };
    for seed in 0..runs as u64 {
        let run = |scheme: Scheme| {
            Mission::new(
                SystemConfig::builder()
                    .scheme(scheme)
                    .seed(seed)
                    .duration_secs(120.0)
                    .internal_rate_per_min(60.0)
                    .external_rate_per_min(2.0)
                    .tb_interval_secs(10.0)
                    .hardware_fault_at_secs(75.0)
                    .trace(false)
                    .build(),
            )
            .run()
        };
        if !run(Scheme::Naive).verdicts.all_hold() {
            report.naive_violations += 1;
        }
        if !run(Scheme::Coordinated).verdicts.all_hold() {
            report.coordinated_violations += 1;
        }
    }
    report
}

/// Report of the Figure 6 coordinated-checkpointing cases.
#[derive(Clone, Debug)]
pub struct Fig6Report {
    /// (a) A clean `P2` saves its current state.
    pub p2_clean_saves_current: bool,
    /// (b) A dirty `P2` begins with its volatile copy and **replaces** it
    /// with the current state when a `passed_AT` lands inside the blocking
    /// period.
    pub p2_dirty_replaces_on_passed_at: bool,
    /// (c) A pseudo-clean `P1act` saves its current state.
    pub act_clean_saves_current: bool,
    /// (d) A pseudo-dirty `P1act` copies its pseudo checkpoint.
    pub act_dirty_copies_volatile: bool,
    /// Traces of the sub-scenarios, for rendering.
    pub traces: Vec<(&'static str, Trace)>,
}

/// Figure 6: how the adapted TB protocol chooses (and adjusts) stable
/// checkpoint contents in coordination with the MDCD dirty bits.
pub fn fig6_cases() -> Fig6Report {
    let base = || {
        SystemConfig::builder()
            .scheme(Scheme::Coordinated)
            .seed(3)
            .duration_secs(11.0)
            .no_workload()
            .fixed_delay(SimDuration::from_millis(2))
            .tb_interval_secs(10.0)
    };
    let has = |trace: &Trace, actor: &str, kind: &str, needle: &str| {
        trace
            .by_actor(actor)
            .any(|e| e.kind.starts_with(kind) && e.detail.contains(needle))
    };

    // Cases (a) + (c): nobody sends anything; every process is clean at the
    // 10s timer and saves its current state.
    let quiet = Mission::new(base().build()).run();
    let p2_clean = has(&quiet.trace, "P2", "tb.write", "stable-current");
    let act_clean = has(&quiet.trace, "P1act", "tb.write", "stable-current");

    // Case (d): one internal message at 9.5s sets P1act's pseudo bit and
    // contaminates P2, so both copy their volatile checkpoints at the timer.
    let dirty = Mission::new(base().scripted_send(9.5, 1, false).build()).run();
    let act_dirty = has(&dirty.trace, "P1act", "tb.write", "stable-volatile-copy");

    // Case (b): P2 is dirty when its timer fires, but P1act passes an AT
    // right before the timer; the passed_AT notification lands inside P2's
    // blocking period and flips the in-flight write to the current state.
    let replace = Mission::new(
        base()
            .scripted_send(9.0, 1, false) // contaminate P2
            .scripted_send(9.9995, 1, true) // AT at P1act; broadcast in flight
            .build(),
    )
    .run();
    let p2_replaced = has(&replace.trace, "P2", "tb.replace", "current state");

    Fig6Report {
        p2_clean_saves_current: p2_clean,
        p2_dirty_replaces_on_passed_at: p2_replaced,
        act_clean_saves_current: act_clean,
        act_dirty_copies_volatile: act_dirty,
        traces: vec![
            ("(a)/(c) all clean", quiet.trace),
            ("(d) dirty copies volatile", dirty.trace),
            ("(b) passed_AT during blocking", replace.trace),
        ],
    }
}

/// Builds the scripted system used by the Figure 1/3 scenarios without
/// running it (integration tests drive it step by step).
pub fn fig1_system() -> System {
    System::new(
        SystemConfig::builder()
            .scheme(Scheme::MdcdOnly)
            .seed(1)
            .duration_secs(12.0)
            .no_workload()
            .fixed_delay(SimDuration::from_millis(5))
            .perfect_clocks()
            .scripted_send(1.0, 1, false)
            .build(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_type2_and_no_pseudo() {
        let report = fig1_original_mdcd();
        assert!(report.counts.type1 >= 3, "{:?}", report.counts);
        assert!(report.counts.type2 >= 3, "{:?}", report.counts);
        assert_eq!(report.counts.pseudo, 0, "{:?}", report.counts);
        assert_eq!(report.counts.at_passes, 2);
    }

    #[test]
    fn fig3_has_pseudo_and_no_type2() {
        let report = fig3_modified_mdcd();
        assert!(report.counts.pseudo >= 2, "{:?}", report.counts);
        assert_eq!(report.counts.type2, 0, "{:?}", report.counts);
        assert!(report.counts.type1 >= 3, "{:?}", report.counts);
        assert_eq!(report.counts.at_passes, 2);
    }

    #[test]
    fn fig1_fig3_share_type1_structure() {
        // The modification changes checkpoint *kinds*, not the
        // contamination structure.
        let original = fig1_original_mdcd();
        let modified = fig3_modified_mdcd();
        assert_eq!(original.counts.type1, modified.counts.type1);
    }

    #[test]
    fn fig2_hazards_and_fixes() {
        let r = fig2_tb_hazards();
        assert!(r.consistency_violated_without_blocking);
        assert!(r.recoverability_violated_without_log);
        assert!(r.blocking_restores_consistency);
        assert!(r.logging_restores_recoverability);
    }

    #[test]
    fn fig6_all_four_cases_hold() {
        let r = fig6_cases();
        assert!(r.p2_clean_saves_current, "case (a)");
        assert!(r.p2_dirty_replaces_on_passed_at, "case (b)");
        assert!(r.act_clean_saves_current, "case (c)");
        assert!(r.act_dirty_copies_volatile, "case (d)");
    }

    #[test]
    fn fig4_naive_violates_coordinated_does_not() {
        let r = fig4_naive_vs_coordinated(6);
        assert!(r.naive_violations > 0, "{r:?}");
        assert_eq!(r.coordinated_violations, 0, "{r:?}");
    }
}
