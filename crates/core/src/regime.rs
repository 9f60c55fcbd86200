//! The unmasked-regime fault lattice (DESIGN.md §15).
//!
//! Every scenario before this module stayed inside the *masked* regime: the
//! acceptance test catches what the fault plan injects, recovery re-converges,
//! and the checkers stay green. This module parameterizes the four ways the
//! paper's synergy can leave that regime:
//!
//! 1. **Bad messages the AT catches** ([`BadMessagePlan`]) — the upgraded
//!    `P1act` emits corrupt external payloads at a seeded rate; the acceptance
//!    test detects them and the shadow takes over (detected, not masked).
//! 2. **AT false negatives** ([`AtCoveragePlan`]) — a seeded coverage knob on
//!    the acceptance test lets a fraction of corrupt payloads escape to the
//!    device; the device stream is diffed against an oracle run (same config,
//!    regime cleared) to count and localize every escape.
//! 3. **Clock-resync violations** ([`ResyncViolationPlan`]) — a resynchronization
//!    leaves one clock outside the δ/ρ envelope the blocking-period formula
//!    assumes, so any epoch line computed at a subsequent hardware recovery is
//!    provably stale.
//! 4. **Byzantine-lite value corruption** ([`ByzantinePlan`]) — a node flips
//!    checkpoint payload bytes *behind a valid CRC* (the record is re-encoded,
//!    so every integrity check passes); the corruption surfaces only in the
//!    device stream after the checkpoint is restored.
//!
//! Each campaign classifies into exactly one [`RegimeVerdict`]. The verdict is
//! evidence-based: injection-site counters on [`Verdicts`] plus the oracle
//! device-stream diff, never an assumption about what *should* have happened.

use std::fmt;

use synergy_des::{DetRng, SimDuration, SimTime};
use synergy_storage::Checkpoint;

use crate::checkers::Verdicts;
use crate::faults::{FaultPlanError, NodeId};
use crate::payload::CheckpointPayload;

/// XOR mask applied to the corrupted byte of a bad external payload. Chosen to
/// flip bits the checksum fold is sensitive to, so a full-coverage acceptance
/// test always catches the corruption.
pub(crate) const CORRUPTION_MASK: u8 = 0x3C;

/// Bad-message injection through the upgraded `P1act`: after `after`, each
/// external payload the active process produces is corrupted with probability
/// `rate` (drawn from the seeded `"regime"` stream).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BadMessagePlan {
    /// True time after which the software fault starts emitting bad payloads.
    pub after: SimTime,
    /// Per-external-message corruption probability in `[0, 1]`.
    pub rate: f64,
}

/// Acceptance-test coverage knob. With probability `1 - coverage` the AT
/// misses a corrupt payload (a false negative) and the corruption escapes to
/// the device. Absent this plan, coverage is the real AT's: 1.0 for the
/// checksum-breaking corruption [`BadMessagePlan`] injects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AtCoveragePlan {
    /// Probability in `[0, 1]` that the AT catches a corrupt payload.
    pub coverage: f64,
}

/// A clock resynchronization that fails its contract: after `after`, each
/// resync leaves `node`'s clock `excess` *beyond* the δ envelope, violating
/// the drift bound the blocking-period formula (paper §3.2) assumes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResyncViolationPlan {
    /// True time after which resynchronizations start failing.
    pub after: SimTime,
    /// How far beyond δ the victim clock lands (must be positive to violate).
    pub excess: SimDuration,
    /// Index of the node whose clock the failed resync skews.
    pub node: usize,
}

/// Byzantine-lite value corruption: at `at`, flip value bytes inside `node`'s
/// latest stable checkpoint and re-encode the record so its CRC (and every
/// downstream integrity check) remains valid. Pair with a hardware fault after
/// `at` so recovery restores the corrupted state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ByzantinePlan {
    /// True time of the corruption.
    pub at: SimTime,
    /// Index of the node whose stable store is corrupted.
    pub node: usize,
}

/// The full unmasked-regime plan carried by `SystemConfig`. All axes default
/// to `None`; a plan with every axis `None` is the masked regime and changes
/// nothing about a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RegimePlan {
    /// Bad-message injection through the active process.
    pub bad_messages: Option<BadMessagePlan>,
    /// AT false-negative knob (only meaningful alongside `bad_messages`).
    pub at_coverage: Option<AtCoveragePlan>,
    /// Failed clock resynchronizations.
    pub resync_violation: Option<ResyncViolationPlan>,
    /// Valid-CRC checkpoint corruption.
    pub byzantine: Option<ByzantinePlan>,
}

impl RegimePlan {
    /// The masked regime: no injection on any axis.
    pub fn none() -> Self {
        RegimePlan::default()
    }

    /// True if any axis is armed (the run can leave the masked regime).
    pub fn is_unmasked(&self) -> bool {
        self.bad_messages.is_some()
            || self.at_coverage.is_some()
            || self.resync_violation.is_some()
            || self.byzantine.is_some()
    }

    /// True if classifying this plan's runs needs an oracle device stream:
    /// corruption can reach the device only via AT false negatives or
    /// valid-CRC checkpoint corruption.
    pub(crate) fn needs_oracle(&self) -> bool {
        self.byzantine.is_some()
            || (self.bad_messages.is_some() && self.at_coverage.is_some_and(|c| c.coverage < 1.0))
    }

    /// Structural validation: probabilities in `[0, 1]`, node indices mapped
    /// by [`NodeId`], violation excess positive.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found; plans are small enough
    /// that one error at a time is fine.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        if let Some(b) = &self.bad_messages {
            check_rate("bad-message rate", b.rate)?;
        }
        if let Some(c) = &self.at_coverage {
            check_rate("AT coverage", c.coverage)?;
        }
        if let Some(r) = &self.resync_violation {
            if NodeId::from_index(r.node).is_none() {
                return Err(FaultPlanError::NodeOutOfRange { node: r.node });
            }
            if r.excess == SimDuration::ZERO {
                return Err(FaultPlanError::RateOutOfRange {
                    what: "resync excess (must be positive)",
                    value: 0.0,
                });
            }
        }
        if let Some(b) = &self.byzantine {
            if NodeId::from_index(b.node).is_none() {
                return Err(FaultPlanError::NodeOutOfRange { node: b.node });
            }
        }
        Ok(())
    }
}

fn check_rate(what: &'static str, value: f64) -> Result<(), FaultPlanError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultPlanError::RateOutOfRange { what, value })
    }
}

/// The Byzantine-lite corruption primitive: decode `ckpt`'s payload, flip
/// value bits in the application state (`acc ^= CORRUPTION_MASK`), and
/// re-encode the record under the same sequence number and label — so its
/// CRC, and every downstream integrity check, is freshly *valid*. Returns
/// `None` when the payload or application state does not decode (the record
/// is left alone; a format flip would be caught, which is not this regime).
pub fn corrupt_checkpoint_value(ckpt: &Checkpoint) -> Option<Checkpoint> {
    let mut payload = CheckpointPayload::from_checkpoint(ckpt).ok()?;
    let mut state = crate::app::CounterApp::decode_state(&payload.app)?;
    state.acc ^= u64::from(CORRUPTION_MASK);
    payload.app = synergy_codec::to_bytes(&state).ok()?.into();
    payload
        .to_checkpoint(ckpt.seq(), ckpt.label().to_string())
        .ok()
}

/// One corrupt external payload that reached the device: where in the stream,
/// and the first byte that differs from the oracle run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EscapeRecord {
    /// Zero-based index in the device message stream.
    pub index: usize,
    /// Offset of the first divergent byte within that payload (payload length
    /// if one stream's payload is a strict prefix of the other's).
    pub offset: usize,
}

impl fmt::Display for EscapeRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg[{}]+{}", self.index, self.offset)
    }
}

/// Diffs an observed device stream against an oracle stream, returning one
/// [`EscapeRecord`] per divergent message. A length mismatch between streams
/// is reported as a single record at the first missing/extra index.
pub(crate) fn diff_device_streams(observed: &[Vec<u8>], oracle: &[Vec<u8>]) -> Vec<EscapeRecord> {
    let mut escapes = Vec::new();
    let shared = observed.len().min(oracle.len());
    for (index, (got, want)) in observed.iter().zip(oracle.iter()).enumerate() {
        if got != want {
            let offset = got
                .iter()
                .zip(want.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| got.len().min(want.len()));
            escapes.push(EscapeRecord { index, offset });
        }
    }
    if observed.len() != oracle.len() {
        escapes.push(EscapeRecord {
            index: shared,
            offset: 0,
        });
    }
    escapes
}

/// Filters a device-stream diff down to records carrying the injected
/// corruption signature: same length, exactly one differing byte, and that
/// byte flipped by [`CORRUPTION_MASK`].
///
/// A takeover re-times the workload, so the observed trajectory can diverge
/// from the oracle for benign reasons after the shadow promotes; those diffs
/// touch the value *and* checksum bytes at once and never match the
/// single-byte-xor signature, while an escaped corrupt payload (payload-only
/// flip, application state untouched) always does.
pub(crate) fn filter_injected_escapes(
    diff: Vec<EscapeRecord>,
    observed: &[Vec<u8>],
    oracle: &[Vec<u8>],
) -> Vec<EscapeRecord> {
    diff.into_iter()
        .filter(|rec| {
            let (Some(got), Some(want)) = (observed.get(rec.index), oracle.get(rec.index)) else {
                return false;
            };
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want.iter())
                    .filter(|(a, b)| a != b)
                    .all(|(a, b)| a == &(b ^ CORRUPTION_MASK))
                && got.iter().zip(want.iter()).filter(|(a, b)| a != b).count() == 1
        })
        .collect()
}

/// How a run under an unmasked-regime plan resolved. Exactly one verdict per
/// campaign; precedence runs worst-first (an escape outranks a flag outranks a
/// recovery), so a campaign that both recovered and leaked is an escape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RegimeVerdict {
    /// Nothing left the masked regime: no catches, no flags, no escapes.
    Masked,
    /// Faults were caught by the acceptance test and the system recovered
    /// (shadow takeover or hardware restart); no escapes, no open flags.
    DetectedAndRecovered,
    /// A property violation was detected and flagged by the checkers (e.g.
    /// the δ bound or a stale epoch line) — detection without full recovery,
    /// or a catch that never completed recovery.
    DetectedAndFlagged,
    /// Corrupt data reached the device (or survived behind a valid CRC) and
    /// was counted and localized against the oracle. Never silent.
    DocumentedEscape,
}

impl RegimeVerdict {
    /// Classifies a finished run from its evidence: the regime counters on
    /// `verdicts` plus whether any recovery (software or hardware) completed.
    pub(crate) fn classify(verdicts: &Verdicts, recovered: bool) -> Self {
        if verdicts.at_escapes > 0 || !verdicts.escapes.is_empty() {
            RegimeVerdict::DocumentedEscape
        } else if !verdicts.all_hold() {
            RegimeVerdict::DetectedAndFlagged
        } else if verdicts.at_catches > 0 {
            if recovered {
                RegimeVerdict::DetectedAndRecovered
            } else {
                RegimeVerdict::DetectedAndFlagged
            }
        } else {
            RegimeVerdict::Masked
        }
    }

    /// Stable machine-readable name (used in chaos reports and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            RegimeVerdict::Masked => "masked",
            RegimeVerdict::DetectedAndRecovered => "detected-and-recovered",
            RegimeVerdict::DetectedAndFlagged => "detected-and-flagged",
            RegimeVerdict::DocumentedEscape => "documented-escape",
        }
    }

    /// Inverse of [`name`](Self::name), for reproducing a campaign from a
    /// shrinker report.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "masked" => Some(RegimeVerdict::Masked),
            "detected-and-recovered" => Some(RegimeVerdict::DetectedAndRecovered),
            "detected-and-flagged" => Some(RegimeVerdict::DetectedAndFlagged),
            "documented-escape" => Some(RegimeVerdict::DocumentedEscape),
            _ => None,
        }
    }
}

impl fmt::Display for RegimeVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Host-side injection state for the bad-message / AT-coverage axes. Lives on
/// the active `ProcessHost` only; draws come from the seeded `"regime"`
/// stream so sweeps are deterministic per (seed, plan).
#[derive(Debug)]
pub(crate) struct RegimeInjector {
    rate: f64,
    coverage: f64,
    armed: bool,
    rng: DetRng,
}

impl RegimeInjector {
    /// Builds an injector from the plan's knobs; `coverage` defaults to the
    /// real AT (1.0) when no [`AtCoveragePlan`] is present.
    pub(crate) fn new(rate: f64, coverage: f64, rng: DetRng) -> Self {
        RegimeInjector {
            rate,
            coverage,
            armed: false,
            rng,
        }
    }

    /// Arms the injector (called when the plan's `after` instant passes).
    pub(crate) fn arm(&mut self) {
        self.armed = true;
    }

    /// Draws whether the next external payload is corrupted. Always draws
    /// once armed (keeping the stream position independent of outcomes).
    pub(crate) fn draw_corrupt(&mut self) -> bool {
        self.armed && self.rng.gen_bool(self.rate)
    }

    /// Draws whether the acceptance test catches a corrupt payload (a miss is
    /// a false negative: the corruption escapes to the device).
    pub(crate) fn draw_caught(&mut self) -> bool {
        self.rng.gen_bool(self.coverage)
    }
}

/// Aggregated evidence and verdict for one regime run (and its oracle twin
/// when the plan needs one). Everything a report needs to be reproducible:
/// counters, localized escapes, and detection latency.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimeReport {
    /// The single verdict this run classifies into.
    pub verdict: RegimeVerdict,
    /// Corrupt payloads the acceptance test caught.
    pub at_catches: u64,
    /// Corrupt payloads the acceptance test missed (false negatives).
    pub at_escapes: u64,
    /// Resynchronizations that left the fleet outside the δ bound.
    pub resync_violations: u64,
    /// Hardware recoveries whose epoch line was computed under a violated
    /// clock bound (provably stale).
    pub stale_epoch_lines: u64,
    /// Valid-CRC checkpoint corruptions injected.
    pub byz_corruptions: u64,
    /// Escapes localized against the oracle device stream.
    pub escapes: Vec<EscapeRecord>,
    /// True-time latency from regime activation to the first AT catch.
    pub detection_latency_secs: Option<f64>,
    /// Device messages delivered in the observed run.
    pub device_messages: usize,
    /// Checker violations flagged (count; details stay on `Verdicts`).
    pub violations: usize,
}

/// Runs one mission under its regime plan and classifies the outcome.
///
/// When the plan can leak corrupt data past every detector
/// (`RegimePlan::needs_oracle`), a fault-free oracle twin of the same
/// configuration runs alongside and its device stream is diffed against the
/// observed one; each divergence is counted and localized as an
/// [`EscapeRecord`] so escapes are documented, never silent.
pub fn run_regime_mission(cfg: &crate::config::SystemConfig) -> RegimeReport {
    let outcome = crate::system::Mission::new(cfg.clone()).run();
    let mut verdicts = outcome.verdicts;
    if cfg.regime.needs_oracle() {
        let oracle = crate::system::Mission::new(cfg.oracle()).run();
        let diff = diff_device_streams(&outcome.device_stream, &oracle.device_stream);
        // A Byzantine lie surfaces as arbitrary post-recovery divergence, so
        // every diff record is evidence. Payload-only escapes must match the
        // corruption signature — anything else is takeover-retiming noise.
        let escapes = if cfg.regime.byzantine.is_some() {
            diff
        } else {
            filter_injected_escapes(diff, &outcome.device_stream, &oracle.device_stream)
        };
        verdicts.escapes.extend(escapes);
    }
    let recovered = outcome.metrics.software_recoveries + outcome.metrics.hardware_recoveries > 0;
    let verdict = RegimeVerdict::classify(&verdicts, recovered);
    RegimeReport {
        verdict,
        at_catches: verdicts.at_catches,
        at_escapes: verdicts.at_escapes,
        resync_violations: verdicts.resync_violations,
        stale_epoch_lines: verdicts.stale_epoch_lines,
        byz_corruptions: verdicts.byz_corruptions,
        escapes: verdicts.escapes,
        detection_latency_secs: outcome.metrics.regime_detection_secs,
        device_messages: outcome.device_messages,
        violations: verdicts.violations.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::Violation;

    fn verdicts() -> Verdicts {
        Verdicts::default()
    }

    #[test]
    fn masked_run_classifies_masked() {
        assert_eq!(
            RegimeVerdict::classify(&verdicts(), false),
            RegimeVerdict::Masked
        );
        // A masked-regime recovery (plain hardware fault) is still masked:
        // nothing was *detected* by the AT and nothing was flagged.
        assert_eq!(
            RegimeVerdict::classify(&verdicts(), true),
            RegimeVerdict::Masked
        );
    }

    #[test]
    fn at_hit_with_recovery_is_detected_and_recovered() {
        let mut v = verdicts();
        v.at_catches = 3;
        assert_eq!(
            RegimeVerdict::classify(&v, true),
            RegimeVerdict::DetectedAndRecovered
        );
    }

    #[test]
    fn at_hit_without_recovery_is_flagged_not_recovered() {
        let mut v = verdicts();
        v.at_catches = 1;
        assert_eq!(
            RegimeVerdict::classify(&v, false),
            RegimeVerdict::DetectedAndFlagged
        );
    }

    #[test]
    fn at_escape_outranks_catch_and_recovery() {
        let mut v = verdicts();
        v.at_catches = 5;
        v.at_escapes = 1;
        assert_eq!(
            RegimeVerdict::classify(&v, true),
            RegimeVerdict::DocumentedEscape
        );
    }

    #[test]
    fn localized_escape_alone_is_documented_escape() {
        let mut v = verdicts();
        v.escapes.push(EscapeRecord {
            index: 4,
            offset: 16,
        });
        assert_eq!(
            RegimeVerdict::classify(&v, true),
            RegimeVerdict::DocumentedEscape
        );
    }

    #[test]
    fn violation_is_detected_and_flagged() {
        let mut v = verdicts();
        v.violations.push(Violation {
            property: "clock-sync",
            detail: "deviation beyond delta".into(),
        });
        v.resync_violations = 1;
        assert_eq!(
            RegimeVerdict::classify(&v, true),
            RegimeVerdict::DetectedAndFlagged
        );
    }

    #[test]
    fn verdict_names_roundtrip() {
        for v in [
            RegimeVerdict::Masked,
            RegimeVerdict::DetectedAndRecovered,
            RegimeVerdict::DetectedAndFlagged,
            RegimeVerdict::DocumentedEscape,
        ] {
            assert_eq!(RegimeVerdict::parse(v.name()), Some(v));
        }
        assert_eq!(RegimeVerdict::parse("nonsense"), None);
    }

    #[test]
    fn diff_localizes_divergent_bytes() {
        let oracle = vec![vec![1u8, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
        let mut observed = oracle.clone();
        observed[1][2] ^= CORRUPTION_MASK;
        let escapes = diff_device_streams(&observed, &oracle);
        assert_eq!(
            escapes,
            vec![EscapeRecord {
                index: 1,
                offset: 2
            }]
        );
    }

    #[test]
    fn diff_reports_length_mismatch_once() {
        let oracle = vec![vec![1u8], vec![2]];
        let observed = vec![vec![1u8]];
        let escapes = diff_device_streams(&observed, &oracle);
        assert_eq!(
            escapes,
            vec![EscapeRecord {
                index: 1,
                offset: 0
            }]
        );
    }

    #[test]
    fn diff_of_identical_streams_is_empty() {
        let s = vec![vec![9u8, 9], vec![8, 8]];
        assert!(diff_device_streams(&s, &s).is_empty());
    }

    #[test]
    fn prefix_payload_reports_offset_at_shared_length() {
        let oracle = vec![vec![1u8, 2, 3]];
        let observed = vec![vec![1u8, 2]];
        let escapes = diff_device_streams(&observed, &oracle);
        assert_eq!(
            escapes,
            vec![EscapeRecord {
                index: 0,
                offset: 2
            }]
        );
    }

    #[test]
    fn plan_validation_rejects_bad_rates_and_nodes() {
        let mut plan = RegimePlan::none();
        assert!(plan.validate().is_ok());
        assert!(!plan.is_unmasked());

        plan.bad_messages = Some(BadMessagePlan {
            after: SimTime::from_secs_f64(1.0),
            rate: 1.5,
        });
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::RateOutOfRange { .. })
        ));
        plan.bad_messages = None;

        plan.byzantine = Some(ByzantinePlan {
            at: SimTime::from_secs_f64(1.0),
            node: 7,
        });
        assert_eq!(
            plan.validate(),
            Err(FaultPlanError::NodeOutOfRange { node: 7 })
        );
        plan.byzantine = None;

        plan.resync_violation = Some(ResyncViolationPlan {
            after: SimTime::from_secs_f64(1.0),
            excess: SimDuration::from_nanos(0),
            node: 0,
        });
        assert!(plan.validate().is_err());
    }

    #[test]
    fn oracle_needed_only_when_escapes_are_possible() {
        let mut plan = RegimePlan::none();
        assert!(!plan.needs_oracle());
        plan.bad_messages = Some(BadMessagePlan {
            after: SimTime::from_secs_f64(1.0),
            rate: 0.5,
        });
        // Full-coverage AT: corruption cannot reach the device.
        assert!(!plan.needs_oracle());
        plan.at_coverage = Some(AtCoveragePlan { coverage: 0.4 });
        assert!(plan.needs_oracle());
        plan.at_coverage = Some(AtCoveragePlan { coverage: 1.0 });
        assert!(!plan.needs_oracle());
        plan.byzantine = Some(ByzantinePlan {
            at: SimTime::from_secs_f64(2.0),
            node: 2,
        });
        assert!(plan.needs_oracle());
    }

    #[test]
    fn injector_draws_are_deterministic_per_seed() {
        let draws = |seed: u64| {
            let root = DetRng::new(seed);
            let mut inj = RegimeInjector::new(0.5, 0.5, root.stream("regime"));
            inj.arm();
            (0..32)
                .map(|_| (inj.draw_corrupt(), inj.draw_caught()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn unarmed_injector_never_corrupts() {
        let root = DetRng::new(1);
        let mut inj = RegimeInjector::new(1.0, 1.0, root.stream("regime"));
        assert!(!inj.draw_corrupt());
        inj.arm();
        assert!(inj.draw_corrupt());
    }
}
