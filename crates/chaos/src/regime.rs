//! Unmasked-regime sweeps: seeded simulator campaigns per fault regime.
//!
//! The cluster sweep ([`campaign`](crate::campaign)) checks that *masked*
//! faults leave the device stream byte-identical to the reference. This
//! module sweeps the four ways a run can **leave** the masked regime
//! (DESIGN.md §15) and verifies that each campaign lands in exactly one
//! [`RegimeVerdict`] class with its evidence attached:
//!
//! * [`Caught`](RegimeKind::Caught) — bad messages at full AT coverage:
//!   the acceptance test detects, the shadow takes over.
//! * [`Escape`](RegimeKind::Escape) — bad messages under a seeded AT
//!   false-negative knob: escapes are counted and localized against an
//!   oracle run, never silent.
//! * [`Resync`](RegimeKind::Resync) — a clock resynchronization leaves one
//!   node outside the δ envelope; any later epoch line is provably stale.
//! * [`Byzantine`](RegimeKind::Byzantine) — a node serves value-flipped
//!   checkpoints behind valid CRCs; the restored lie surfaces only in the
//!   oracle diff.
//!
//! Every campaign is fully determined by `(base_seed, index)`: parameters
//! come from the labelled `"regime-campaign-<kind>"` stream, the mission
//! seed is `base_seed + index` (wrapping), and re-running any row
//! reproduces its report bit for bit — which
//! [`RegimeSweep::recheck_determinism`] asserts by replaying a row.

use synergy::{
    run_regime_mission, HardwareFault, NodeId, RegimeReport, RegimeVerdict, SystemConfig,
};
use synergy_des::{DetRng, SimDuration, SimTime};

/// Which unmasked regime a sweep exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegimeKind {
    /// Bad messages at full acceptance-test coverage (detected takeover).
    Caught,
    /// Bad messages under a lowered AT coverage knob (documented escapes).
    Escape,
    /// Clock-resync violations of the δ bound (flagged, epoch line stale).
    Resync,
    /// Byzantine-lite valid-CRC checkpoint corruption (documented escape).
    Byzantine,
}

impl RegimeKind {
    /// Every regime, in sweep order.
    pub const ALL: [RegimeKind; 4] = [
        RegimeKind::Caught,
        RegimeKind::Escape,
        RegimeKind::Resync,
        RegimeKind::Byzantine,
    ];

    /// Stable machine-readable name (also the RNG stream suffix).
    pub fn name(self) -> &'static str {
        match self {
            RegimeKind::Caught => "caught",
            RegimeKind::Escape => "escape",
            RegimeKind::Resync => "resync",
            RegimeKind::Byzantine => "byzantine",
        }
    }

    /// The verdict class the regime is designed to drive runs into. Not
    /// every seed reaches it (a low-rate draw can mask), but no seed may
    /// land in a *worse* class than this.
    pub fn expected(self) -> RegimeVerdict {
        match self {
            RegimeKind::Caught => RegimeVerdict::DetectedAndRecovered,
            RegimeKind::Escape => RegimeVerdict::DocumentedEscape,
            RegimeKind::Resync => RegimeVerdict::DetectedAndFlagged,
            RegimeKind::Byzantine => RegimeVerdict::DocumentedEscape,
        }
    }

    /// Builds campaign `index` of the sweep rooted at `base_seed`: a
    /// 120-second mission (60 internal + 6 external msgs/min) with this
    /// regime's axes drawn from the `"regime-campaign-<name>"` stream.
    pub fn config(self, base_seed: u64, index: u64) -> SystemConfig {
        let root = DetRng::new(base_seed);
        let mut rng = root.stream_indexed(&format!("regime-campaign-{}", self.name()), index);
        let builder = SystemConfig::builder()
            .seed(base_seed.wrapping_add(index))
            .duration_secs(120.0)
            .internal_rate_per_min(60.0)
            .external_rate_per_min(6.0)
            .trace(false);
        match self {
            RegimeKind::Caught => {
                let after = rng.gen_range(30.0..60.0);
                let rate = rng.gen_range(0.5..1.0);
                builder.bad_messages(after, rate).at_coverage(1.0).build()
            }
            RegimeKind::Escape => {
                let after = rng.gen_range(30.0..60.0);
                let rate = rng.gen_range(0.3..0.8);
                let coverage = rng.gen_range(0.0..0.5);
                builder
                    .bad_messages(after, rate)
                    .at_coverage(coverage)
                    .build()
            }
            RegimeKind::Resync => {
                let after = rng.gen_range(30.0..60.0);
                let excess = SimDuration::from_micros(rng.gen_range(200u64..=800));
                let node = NodeId::ALL[rng.gen_range(0u64..3) as usize];
                builder.resync_violation(after, excess, node).build()
            }
            RegimeKind::Byzantine => {
                let node = NodeId::ALL[rng.gen_range(0u64..3) as usize];
                let at = rng.gen_range(30.0..50.0);
                let crash_at = at + rng.gen_range(10.0..30.0);
                builder
                    .byzantine_flip(at, node)
                    .hardware_fault(HardwareFault {
                        at: SimTime::from_secs_f64(crash_at),
                        node,
                    })
                    .build()
            }
        }
    }
}

impl std::fmt::Display for RegimeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One campaign of a sweep: its index, the mission seed it resolved to,
/// and the classified report.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimeRow {
    /// Campaign index within the sweep.
    pub index: u64,
    /// Mission seed (`base_seed + index`, wrapping).
    pub seed: u64,
    /// The classified regime report.
    pub report: RegimeReport,
}

/// A finished sweep of one regime.
#[derive(Clone, Debug)]
pub struct RegimeSweep {
    /// The regime swept.
    pub kind: RegimeKind,
    /// Root seed of the sweep.
    pub base_seed: u64,
    /// One row per campaign, in index order.
    pub rows: Vec<RegimeRow>,
}

/// Runs one campaign of a regime sweep.
pub(crate) fn run_row(kind: RegimeKind, base_seed: u64, index: u64) -> RegimeRow {
    let cfg = kind.config(base_seed, index);
    RegimeRow {
        index,
        seed: cfg.seed,
        report: run_regime_mission(&cfg),
    }
}

/// Runs `count` campaigns of `kind` rooted at `base_seed`.
pub fn run_sweep(kind: RegimeKind, base_seed: u64, count: u64) -> RegimeSweep {
    RegimeSweep {
        kind,
        base_seed,
        rows: (0..count).map(|i| run_row(kind, base_seed, i)).collect(),
    }
}

impl RegimeSweep {
    /// Aggregates the sweep into per-verdict counts and rates.
    pub fn summary(&self) -> RegimeSummary {
        let mut s = RegimeSummary {
            kind: self.kind,
            runs: self.rows.len() as u64,
            ..RegimeSummary::default_for(self.kind)
        };
        let mut latencies = Vec::new();
        for row in &self.rows {
            let r = &row.report;
            match r.verdict {
                RegimeVerdict::Masked => s.masked += 1,
                RegimeVerdict::DetectedAndRecovered => s.recovered += 1,
                RegimeVerdict::DetectedAndFlagged => s.flagged += 1,
                RegimeVerdict::DocumentedEscape => s.escaped += 1,
            }
            s.at_catches += r.at_catches;
            s.at_escapes += r.at_escapes;
            s.escapes_documented += r.escapes.len() as u64;
            s.resync_violations += r.resync_violations;
            s.stale_epoch_lines += r.stale_epoch_lines;
            s.byz_corruptions += r.byz_corruptions;
            s.device_messages += r.device_messages as u64;
            if let Some(lat) = r.detection_latency_secs {
                latencies.push(lat);
            }
        }
        if !latencies.is_empty() {
            s.mean_detection_latency_secs =
                Some(latencies.iter().sum::<f64>() / latencies.len() as f64);
        }
        if s.device_messages > 0 {
            s.escape_rate = s.at_escapes as f64 / s.device_messages as f64;
        }
        s
    }

    /// Row indices whose escapes went **silent**: the AT missed more
    /// corrupt payloads than the oracle diff documented. Must be empty —
    /// every escape is counted and localized, or the sweep fails.
    pub fn silent_escape_rows(&self) -> Vec<u64> {
        self.rows
            .iter()
            .filter(|row| (row.report.escapes.len() as u64) < row.report.at_escapes)
            .map(|row| row.index)
            .collect()
    }

    /// Row indices that classified into a verdict class *worse* than the
    /// regime's design target ([`RegimeKind::expected`]). Milder is fine
    /// (a low-rate draw can stay masked); worse means the lattice leaks.
    pub fn worse_than_expected_rows(&self) -> Vec<u64> {
        let ceiling = self.kind.expected();
        self.rows
            .iter()
            .filter(|row| row.report.verdict > ceiling)
            .map(|row| row.index)
            .collect()
    }

    /// Replays row 0 from scratch and checks it reproduces bit for bit.
    /// Returns the offending index on mismatch.
    pub fn recheck_determinism(&self) -> Result<(), u64> {
        match self.rows.first() {
            None => Ok(()),
            Some(row) => {
                let replay = run_row(self.kind, self.base_seed, row.index);
                if replay == *row {
                    Ok(())
                } else {
                    Err(row.index)
                }
            }
        }
    }
}

/// Aggregated counts for one regime sweep (the chaos table row and the
/// bench `"regimes"` section both render from this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegimeSummary {
    /// The regime swept.
    pub kind: RegimeKind,
    /// Campaigns run.
    pub runs: u64,
    /// Campaigns that stayed fully masked.
    pub masked: u64,
    /// Campaigns classified detected-and-recovered.
    pub recovered: u64,
    /// Campaigns classified detected-and-flagged.
    pub flagged: u64,
    /// Campaigns classified documented-escape.
    pub escaped: u64,
    /// Total corrupt payloads the AT caught.
    pub at_catches: u64,
    /// Total corrupt payloads the AT missed.
    pub at_escapes: u64,
    /// Total escapes localized against oracle device streams.
    pub escapes_documented: u64,
    /// Total δ-bound violations flagged.
    pub resync_violations: u64,
    /// Total recoveries whose epoch line was provably stale.
    pub stale_epoch_lines: u64,
    /// Total valid-CRC checkpoint corruptions served.
    pub byz_corruptions: u64,
    /// Total device messages across observed runs.
    pub device_messages: u64,
    /// Mean true-time latency from regime activation to first AT catch,
    /// over the campaigns that caught anything.
    pub mean_detection_latency_secs: Option<f64>,
    /// AT escapes per delivered device message.
    pub escape_rate: f64,
}

impl RegimeSummary {
    fn default_for(kind: RegimeKind) -> Self {
        RegimeSummary {
            kind,
            runs: 0,
            masked: 0,
            recovered: 0,
            flagged: 0,
            escaped: 0,
            at_catches: 0,
            at_escapes: 0,
            escapes_documented: 0,
            resync_violations: 0,
            stale_epoch_lines: 0,
            byz_corruptions: 0,
            device_messages: 0,
            mean_detection_latency_secs: None,
            escape_rate: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_deterministic_per_index() {
        for kind in RegimeKind::ALL {
            let a = kind.config(11, 3);
            let b = kind.config(11, 3);
            assert_eq!(a.faults, b.faults, "{kind} fault plan must reproduce");
            assert_eq!(a.seed, 14);
            assert!(a.faults.is_unmasked(), "{kind} must arm an axis");
        }
    }

    #[test]
    fn the_mission_seed_wraps_past_the_last_base_seed() {
        for kind in RegimeKind::ALL {
            assert_eq!(kind.config(u64::MAX, 1).seed, 0, "{kind}");
        }
    }

    #[test]
    fn generated_configs_pass_plan_validation() {
        for kind in RegimeKind::ALL {
            assert_eq!(kind.config(9, 1).validate(), Ok(()));
        }
    }

    #[test]
    fn distinct_kinds_arm_distinct_axes() {
        let caught = RegimeKind::Caught.config(5, 0).faults;
        assert!(caught.bad_messages.is_some() && caught.byzantine.is_none());
        let escape = RegimeKind::Escape.config(5, 0).faults;
        let cov = escape.at_coverage.expect("escape arms the coverage knob");
        assert!(cov.coverage < 0.5);
        let resync = RegimeKind::Resync.config(5, 0).faults;
        assert!(resync.resync_violation.is_some() && resync.bad_messages.is_none());
        let byz = RegimeKind::Byzantine.config(5, 0);
        let plan = byz.faults.byzantine.expect("byzantine arms the flip");
        // The paired hardware fault must hit the corrupted node, or the lie
        // is never restored.
        assert_eq!(byz.faults.hardware.len(), 1);
        assert_eq!(byz.faults.hardware[0].node, plan.node);
        assert!(byz.faults.hardware[0].at > plan.at);
    }

    #[test]
    fn small_caught_sweep_detects_and_never_escapes() {
        let sweep = run_sweep(RegimeKind::Caught, 7, 4);
        let s = sweep.summary();
        assert_eq!(s.runs, 4);
        assert!(s.at_catches > 0, "full coverage must catch something");
        assert_eq!(s.at_escapes, 0, "full coverage never escapes");
        assert!(sweep.silent_escape_rows().is_empty());
        assert!(sweep.worse_than_expected_rows().is_empty());
        assert_eq!(sweep.recheck_determinism(), Ok(()));
    }

    #[test]
    fn small_escape_sweep_documents_every_miss() {
        let sweep = run_sweep(RegimeKind::Escape, 7, 4);
        let s = sweep.summary();
        assert!(s.at_escapes > 0, "a sub-0.5 coverage sweep must miss");
        assert!(
            s.escapes_documented >= s.at_escapes,
            "every AT miss must be localized against the oracle"
        );
        assert!(sweep.silent_escape_rows().is_empty());
    }
}
