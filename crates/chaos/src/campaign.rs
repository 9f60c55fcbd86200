//! One campaign end-to-end: launch the live cluster on the mission's fault
//! cocktail, run it, replay the same seed and crash schedule in the
//! [`synergy`] simulator, and compare device streams **byte for byte**.
//!
//! Three outcomes:
//!
//! * [`Converged`](CampaignOutcome::Converged) — the streams are
//!   identical: every injected fault was masked exactly as the layering
//!   argument predicts.
//! * [`Diverged`](CampaignOutcome::Diverged) — the cluster completed but
//!   its observable surface differs from the reference; the runner then
//!   [shrinks](shrink_failure) the mission to the smallest fault cocktail
//!   that still reproduces the failure.
//! * [`Aborted`](CampaignOutcome::Aborted) — the orchestrator gave up with
//!   a structured [`ClusterError`](synergy_cluster::ClusterError) (quiesce
//!   deadline, unscheduled death, control timeout). Never a hang: every
//!   orchestrator interaction is deadline-bounded.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use synergy::regime::diff_device_streams;
use synergy::{EscapeRecord, Mission, RegimeVerdict};
use synergy_cluster::{Cluster, ClusterConfig, ClusterReport};

use crate::plan::FaultGroup;

/// How a campaign ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignOutcome {
    /// Cluster and simulator device streams are byte-identical.
    Converged,
    /// Both completed, but the observable surfaces differ.
    Diverged {
        /// Payload count from the live cluster.
        cluster_len: usize,
        /// Payload count from the simulator reference.
        sim_len: usize,
        /// The first differing payload within both streams and its first
        /// differing byte — the escaped-payload localization a shrink
        /// report carries; `None` when the streams differ only in length.
        first: Option<EscapeRecord>,
    },
    /// The orchestrator aborted with a structured error.
    Aborted {
        /// The rendered [`ClusterError`](synergy_cluster::ClusterError).
        reason: String,
    },
}

impl CampaignOutcome {
    /// Whether the campaign converged.
    pub fn is_converged(&self) -> bool {
        matches!(self, CampaignOutcome::Converged)
    }
}

/// Fault accounting aggregated from a finished cluster mission.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Attempt-level drops injected by the chaos wire (all nodes).
    pub chaos_drops: u64,
    /// Ack frames duplicated by the chaos wire.
    pub chaos_dups: u64,
    /// Frames the link layer gave up on (must be zero for convergence).
    pub chaos_lost: u64,
    /// Retry attempts against transiently failing stable backends.
    pub stable_retries: u64,
    /// Torn writes detected on victim reload.
    pub torn_writes: u64,
    /// Committed records rejected by CRC on reload (bit-rot).
    pub corrupt_records: u64,
    /// Completed kill → restart → rollback cycles.
    pub recoveries: u64,
    /// Rollback distance of each recovery, in grid epochs.
    pub rollback_epochs: Vec<u64>,
}

/// Aggregates the fault counters of a finished mission: chaos wire and
/// stable-retry totals from the final status sweep, torn/corrupt counts
/// from the kill report (the reload observations, counted once for the
/// crash rather than re-read from the restarted victim's status).
pub(crate) fn fault_summary(report: &ClusterReport) -> FaultSummary {
    let mut s = FaultSummary::default();
    for (_, status) in &report.final_status {
        s.chaos_drops += status.chaos_drops;
        s.chaos_dups += status.chaos_dups;
        s.chaos_lost += status.chaos_lost;
        s.stable_retries += status.stable_retries;
    }
    if let Some(kill) = &report.kill {
        s.torn_writes = kill.reload_torn_writes;
        s.corrupt_records = kill.reload_corrupt_records;
        s.rollback_epochs.push(kill.rollback_epochs);
    }
    s.recoveries = u64::from(report.kill.is_some());
    s
}

/// One campaign's full record.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The mission that ran.
    pub config: ClusterConfig,
    /// How it ended.
    pub outcome: CampaignOutcome,
    /// Fault accounting (absent when the mission aborted before reporting).
    pub faults: Option<FaultSummary>,
    /// Wall-clock duration of the cluster run.
    pub wall: Duration,
    /// Where the campaign's node state lives under the data root: removed
    /// on convergence, kept for autopsy otherwise.
    pub run_dir: PathBuf,
}

/// The [`RegimeVerdict`] class a campaign outcome maps to.
///
/// A converged campaign is the masked regime: every injected fault was
/// absorbed without touching the observable surface. A divergence is a
/// documented escape — corrupted or missing device bytes got past every
/// checker, and the byte diff is the evidence. An abort is detected-and-
/// flagged: the orchestrator saw the failure (quiesce deadline, protocol
/// violation) and stopped with a structured error instead of letting bad
/// output through.
pub fn outcome_verdict(outcome: &CampaignOutcome) -> RegimeVerdict {
    match outcome {
        CampaignOutcome::Converged => RegimeVerdict::Masked,
        CampaignOutcome::Diverged { .. } => RegimeVerdict::DocumentedEscape,
        CampaignOutcome::Aborted { .. } => RegimeVerdict::DetectedAndFlagged,
    }
}

/// A fresh per-run data directory: campaigns (and shrink re-runs of the
/// same campaign) must never share node state on disk.
fn unique_run_dir(data_root: &Path, seed: u64) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    data_root.join(format!(
        "run-{seed}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn compare_streams(cluster: &[Vec<u8>], sim: &[Vec<u8>]) -> CampaignOutcome {
    if cluster == sim {
        return CampaignOutcome::Converged;
    }
    let shared = cluster.len().min(sim.len());
    CampaignOutcome::Diverged {
        cluster_len: cluster.len(),
        sim_len: sim.len(),
        first: diff_device_streams(cluster, sim)
            .into_iter()
            .find(|e| e.index < shared),
    }
}

/// Runs one campaign: live cluster, simulator reference, byte comparison.
///
/// The run directory is removed on convergence and kept on failure so a
/// diverged or aborted campaign leaves its node state behind for autopsy.
pub fn run_campaign(cfg: &ClusterConfig, node_bin: &Path, data_root: &Path) -> CampaignResult {
    let run_dir = unique_run_dir(data_root, cfg.seed);
    let started = Instant::now();
    let reference = cfg.reference();
    let report = Cluster::launch(cfg.clone(), node_bin, &run_dir).and_then(Cluster::run);
    let wall = started.elapsed();
    let (outcome, faults) = match report {
        Err(e) => (
            CampaignOutcome::Aborted {
                reason: e.to_string(),
            },
            None,
        ),
        Ok(report) => {
            let reference = Mission::new(reference).run();
            (
                compare_streams(&report.device_payloads, &reference.device_stream),
                Some(fault_summary(&report)),
            )
        }
    };
    if outcome.is_converged() {
        let _ = std::fs::remove_dir_all(&run_dir);
    }
    CampaignResult {
        config: cfg.clone(),
        outcome,
        faults,
        wall,
        run_dir,
    }
}

/// A minimal reproduction found by [`shrink_failure`].
#[derive(Clone, Debug)]
pub struct ShrinkReport {
    /// The minimal mission that still reproduces the failure class.
    pub config: ClusterConfig,
    /// The outcome of the minimal mission's run.
    pub outcome: CampaignOutcome,
    /// Fault groups removed during shrinking, in removal order. Each
    /// group's `--no-<name>` runner flag disables it, so the minimal
    /// cocktail is reproducible from the report alone: re-run the
    /// original (base seed, index) with these groups disabled.
    pub removed: Vec<FaultGroup>,
}

/// Greedily shrinks a failing campaign: tries to drop each fault group
/// the mission carries, in [`FaultGroup::ALL`] order (link → disk → bit-rot
/// → chain-rot → corrupt → crash), and
/// keeps any removal whose re-run lands in the **same verdict class**
/// ([`outcome_verdict`]) as the original failure — a divergence must
/// still diverge, an abort must still abort. Shrinking that swaps the
/// failure class would "minimize" to a different bug. The chain cadence
/// is mission shape, not a fault group, so a failure shrinks at the `k`
/// it was drawn with.
///
/// At most six re-runs — bounded, like everything else in the runner.
pub fn shrink_failure(
    cfg: &ClusterConfig,
    failing_outcome: &CampaignOutcome,
    node_bin: &Path,
    data_root: &Path,
) -> ShrinkReport {
    let class = outcome_verdict(failing_outcome);
    let mut current = cfg.clone();
    let mut outcome = failing_outcome.clone();
    let mut removed = Vec::new();
    for group in FaultGroup::ALL {
        if !group.is_in(&current) {
            continue;
        }
        let mut candidate = current.clone();
        group.remove_from(&mut candidate);
        let result = run_campaign(&candidate, node_bin, data_root);
        if outcome_verdict(&result.outcome) == class {
            current = candidate;
            outcome = result.outcome;
            removed.push(group);
        }
    }
    ShrinkReport {
        config: current,
        outcome,
        removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy::CrashKind;
    use synergy_cluster::{KillReport, WireStatus};

    fn status(drops: u64, retries: u64) -> WireStatus {
        WireStatus {
            stable_epoch: Some(2),
            chaos_drops: drops,
            chaos_dups: 1,
            stable_retries: retries,
            ..WireStatus::default()
        }
    }

    #[test]
    fn fault_summary_aggregates_nodes_and_kills() {
        let report = ClusterReport {
            device_payloads: vec![vec![1], vec![2]],
            kill: Some(KillReport {
                epoch: 2,
                kind: CrashKind::MidRound,
                victim_began_writing: true,
                reload_epoch: Some(1),
                reload_torn_writes: 1,
                reload_corrupt_records: 1,
                line: 1,
                rollback_epochs: 1,
                rollbacks: vec![(1, Some(1), 0), (2, Some(1), 0), (3, Some(1), 0)],
            }),
            final_status: vec![(1, status(4, 2)), (2, status(3, 0)), (3, status(0, 1))],
        };
        let s = fault_summary(&report);
        assert_eq!(s.chaos_drops, 7);
        assert_eq!(s.chaos_dups, 3);
        assert_eq!(s.chaos_lost, 0);
        assert_eq!(s.stable_retries, 3);
        assert_eq!(s.torn_writes, 1);
        assert_eq!(s.corrupt_records, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.rollback_epochs, vec![1]);
    }

    #[test]
    fn identical_streams_converge() {
        let a = vec![vec![1, 2], vec![3]];
        assert!(compare_streams(&a, &a).is_converged());
    }

    #[test]
    fn divergence_reports_the_first_differing_payload() {
        let cluster = vec![vec![1], vec![0, 9], vec![3]];
        let sim = vec![vec![1], vec![0, 2], vec![3]];
        match compare_streams(&cluster, &sim) {
            CampaignOutcome::Diverged {
                cluster_len,
                sim_len,
                first,
            } => {
                assert_eq!((cluster_len, sim_len), (3, 3));
                assert_eq!(
                    first,
                    Some(EscapeRecord {
                        index: 1,
                        offset: 1
                    })
                );
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn payload_length_mismatch_localizes_to_the_shorter_length() {
        let cluster = vec![vec![1, 2, 3]];
        let sim = vec![vec![1, 2]];
        match compare_streams(&cluster, &sim) {
            CampaignOutcome::Diverged { first, .. } => {
                assert_eq!(
                    first,
                    Some(EscapeRecord {
                        index: 0,
                        offset: 2
                    })
                );
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn length_mismatch_diverges_without_an_index_when_prefixes_agree() {
        let cluster = vec![vec![1], vec![2]];
        let sim = vec![vec![1], vec![2], vec![3]];
        match compare_streams(&cluster, &sim) {
            CampaignOutcome::Diverged {
                cluster_len,
                sim_len,
                first,
            } => {
                assert_eq!((cluster_len, sim_len), (2, 3));
                assert_eq!(first, None);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn outcomes_map_onto_verdict_classes() {
        assert_eq!(
            outcome_verdict(&CampaignOutcome::Converged),
            RegimeVerdict::Masked
        );
        assert_eq!(
            outcome_verdict(&CampaignOutcome::Diverged {
                cluster_len: 1,
                sim_len: 1,
                first: Some(EscapeRecord {
                    index: 0,
                    offset: 8
                }),
            }),
            RegimeVerdict::DocumentedEscape
        );
        assert_eq!(
            outcome_verdict(&CampaignOutcome::Aborted {
                reason: "quiesce deadline".into()
            }),
            RegimeVerdict::DetectedAndFlagged
        );
    }
}
