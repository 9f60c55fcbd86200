//! Run metrics: checkpoint counts, recoveries, rollback distances, overhead.

use synergy_des::{SimDuration, SimTime};
use synergy_mdcd::{CheckpointKind, RecoveryDecision};
use synergy_net::ProcessId;

/// Why a rollback happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollbackCause {
    /// A node crash forced a global rollback to stable checkpoints.
    Hardware,
    /// An acceptance-test failure triggered MDCD error recovery.
    Software,
}

/// One rollback observation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RollbackRecord {
    /// The process that rolled back (or forward).
    pub process: ProcessId,
    /// What triggered it.
    pub cause: RollbackCause,
    /// Local decision taken.
    pub decision: RecoveryDecision,
    /// Computation undone, in seconds: recovery instant minus the timestamp
    /// of the restored state (zero for roll-forward).
    pub distance_secs: f64,
    /// When the recovery happened.
    pub at: SimTime,
}

/// Aggregated counters for one mission.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Volatile checkpoints established, by kind.
    pub type1_ckpts: u64,
    /// Type-2 volatile checkpoints (original protocol only).
    pub type2_ckpts: u64,
    /// `P1act` pseudo checkpoints (modified protocol only).
    pub pseudo_ckpts: u64,
    /// Stable checkpoints committed.
    pub stable_commits: u64,
    /// Adapted-TB abort-and-replace events inside blocking periods.
    pub stable_replacements: u64,
    /// Stable writes torn by crashes.
    pub torn_writes: u64,
    /// Acceptance tests run.
    pub at_runs: u64,
    /// Acceptance tests failed.
    pub at_failures: u64,
    /// Application messages handed to the transport.
    pub messages_sent: u64,
    /// Application messages delivered to applications.
    pub messages_delivered: u64,
    /// Messages re-sent during recoveries (unacked replay + shadow log).
    pub messages_resent: u64,
    /// Receive-log entries replayed at hardware recoveries.
    pub messages_replayed: u64,
    /// Total blocking time across processes.
    pub blocking_total: SimDuration,
    /// Number of blocking periods entered.
    pub blocking_periods: u64,
    /// Timer resynchronizations performed.
    pub resyncs: u64,
    /// Bytes a full-image-per-commit scheme writes to stable storage
    /// (the serialized checkpoint state, summed over commits). Only
    /// accounted when
    /// [`checkpoint_delta_k`](crate::SystemConfigBuilder::checkpoint_delta_k)
    /// is set; zero otherwise.
    pub stable_bytes_full: u64,
    /// Bytes the incremental chain format writes for the same commits
    /// (full image every `k`, dirty-region deltas between). Zero unless
    /// delta accounting is enabled.
    pub stable_bytes_delta: u64,
    /// Completed software (MDCD) recoveries.
    pub software_recoveries: u64,
    /// Completed hardware (global rollback) recoveries.
    pub hardware_recoveries: u64,
    /// Every rollback observation.
    pub rollbacks: Vec<RollbackRecord>,
    /// Messages held at engines during blocking periods and released later.
    pub dirty_fallbacks: u64,
    /// True-time latency from unmasked-regime activation to the first
    /// acceptance-test catch, when both happened.
    pub regime_detection_secs: Option<f64>,
}

impl RunMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        RunMetrics::default()
    }

    /// Adds a volatile-checkpoint observation.
    pub(crate) fn count_volatile(&mut self, kind: CheckpointKind) {
        match kind {
            CheckpointKind::Type1 => self.type1_ckpts += 1,
            CheckpointKind::Type2 => self.type2_ckpts += 1,
            CheckpointKind::Pseudo => self.pseudo_ckpts += 1,
        }
    }

    /// Total volatile checkpoints.
    pub fn volatile_total(&self) -> u64 {
        self.type1_ckpts + self.type2_ckpts + self.pseudo_ckpts
    }

    /// Rollback distances (seconds) due to hardware faults.
    pub fn hardware_rollback_distances(&self) -> Vec<f64> {
        self.rollbacks
            .iter()
            .filter(|r| r.cause == RollbackCause::Hardware)
            .map(|r| r.distance_secs)
            .collect()
    }

    /// Mean hardware rollback distance (seconds); `None` with no samples.
    pub fn mean_hardware_rollback(&self) -> Option<f64> {
        let d = self.hardware_rollback_distances();
        if d.is_empty() {
            None
        } else {
            Some(d.iter().sum::<f64>() / d.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volatile_counting_by_kind() {
        let mut m = RunMetrics::new();
        m.count_volatile(CheckpointKind::Type1);
        m.count_volatile(CheckpointKind::Type1);
        m.count_volatile(CheckpointKind::Pseudo);
        assert_eq!(m.type1_ckpts, 2);
        assert_eq!(m.pseudo_ckpts, 1);
        assert_eq!(m.volatile_total(), 3);
    }

    #[test]
    fn hardware_rollback_stats() {
        let mut m = RunMetrics::new();
        assert_eq!(m.mean_hardware_rollback(), None);
        for (cause, d) in [
            (RollbackCause::Hardware, 4.0),
            (RollbackCause::Software, 100.0),
            (RollbackCause::Hardware, 6.0),
        ] {
            m.rollbacks.push(RollbackRecord {
                process: ProcessId(1),
                cause,
                decision: RecoveryDecision::RollBack,
                distance_secs: d,
                at: SimTime::ZERO,
            });
        }
        assert_eq!(m.hardware_rollback_distances(), vec![4.0, 6.0]);
        assert_eq!(m.mean_hardware_rollback(), Some(5.0));
    }
}
