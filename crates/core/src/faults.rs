//! Scheduled fault injection.
//!
//! A [`FaultPlan`] is every fault one simulated mission injects: the
//! design fault, crashes placed by instant or by checkpoint round, and the
//! four unmasked-regime axes ([`crate::regime`]). Every fault that names a
//! node names it by [`NodeId`], so no plan can point outside the system.
//! A [`CrashEvent`] means the same thing in the simulator and on the live
//! cluster: it names a protocol point, not an instant. The cluster kills
//! its victim at checkpoint round `epoch` of the orchestrator's grid, and
//! the simulator crashes the victim's node when that node's own TB timer
//! for round `epoch` fires. The time-placed [`HardwareFault`] list is the
//! simulator's alone: the paper's sweeps crash at any instant.

use core::fmt;

use synergy_des::{SimDuration, SimTime};
use synergy_net::ProcessId;

use crate::regime::{AtCoveragePlan, BadMessagePlan, ByzantinePlan, ResyncViolationPlan};

/// The three nodes of the paper's system: what every fault and every host
/// names a node by.
///
/// Both hardware-fault consumers share this type: the simulator's injector
/// (crash a modelled node) and the cluster runtime's kill scheduler
/// (SIGKILL a real OS process). Input from outside (a CLI index) enters
/// through [`from_index`](Self::from_index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// Node 0, hosting `P1act` (the active variant of component 1).
    P1Act = 0,
    /// Node 1, hosting `P1sdw` (the shadow variant of component 1).
    P1Sdw = 1,
    /// Node 2, hosting `P2` (component 2).
    P2 = 2,
}

impl NodeId {
    /// All nodes, in index order.
    pub const ALL: [NodeId; 3] = [NodeId::P1Act, NodeId::P1Sdw, NodeId::P2];

    /// The node's index (`0 = P1act, 1 = P1sdw, 2 = P2`), which also
    /// indexes the clock fleet.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The node hosting fault-plan index `index`, or `None` when out of
    /// range.
    pub fn from_index(index: usize) -> Option<NodeId> {
        NodeId::ALL.get(index).copied()
    }

    /// The process this node hosts in the canonical layout
    /// ([`Topology::processes`](crate::system::Topology::processes)).
    pub fn pid(self) -> ProcessId {
        let processes = crate::system::Topology::canonical().processes();
        let hosted = processes.into_iter().find(|&(.., node)| node == self);
        hosted.expect("every node hosts a process").0
    }

    /// The name of the process hosted on this node.
    pub fn process_name(self) -> &'static str {
        crate::system::process_name(self.pid())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}({})", self.index(), self.process_name())
    }
}

/// Activation of the low-confidence version's design fault: every external
/// message `P1act` produces after `at` fails its acceptance test until
/// recovery replaces the version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoftwareFault {
    /// Activation instant.
    pub at: SimTime,
}

/// A transient hardware fault crashing one node: volatile storage is lost,
/// any in-flight stable write is torn, and the system performs a global
/// rollback to stable checkpoints after the configured recovery delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HardwareFault {
    /// Crash instant.
    pub at: SimTime,
    /// The node that crashes.
    pub node: NodeId,
}

/// When, relative to its checkpoint round, a crash hits the victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// The victim dies idle, before the round begins: no torn write; the
    /// survivors still complete the full round.
    RoundStart,
    /// The victim dies mid-round, after its stable write is staged and
    /// before it commits, leaving the write torn.
    MidRound,
    /// [`MidRound`](CrashKind::MidRound), then the *restarted* victim dies
    /// again before the rollback starts: a crash during recovery. The torn
    /// write is counted once (the first reload consumes it). The second
    /// crash hits a restarted, still-idle victim, so the device sees
    /// nothing different and the simulator runs it as `MidRound`.
    DoubleKill,
}

/// One crash placed by checkpoint round: `victim` dies in round `epoch`
/// at the point `kind` selects, and the system rolls back globally to the
/// epoch line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node that crashes.
    pub victim: NodeId,
    /// The checkpoint round (grid epoch `g`, deadline `g·Δ`) the crash
    /// lands in.
    pub epoch: u64,
    /// Placement of the crash relative to the round.
    pub kind: CrashKind,
}

/// The fault schedule of one mission. The default plan injects nothing;
/// the four regime axes default to `None`, the masked regime, and a plan
/// with all four `None` runs byte-identically to one without them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// At most one software-fault activation (guarded operation ends at the
    /// first takeover).
    pub software: Option<SoftwareFault>,
    /// Any number of hardware faults, in any order.
    pub hardware: Vec<HardwareFault>,
    /// Crashes placed by checkpoint round, the cluster's fault vocabulary.
    pub rounds: Vec<CrashEvent>,
    /// Regime axis 1: bad-message injection through the active process.
    pub bad_messages: Option<BadMessagePlan>,
    /// Regime axis 2: the AT false-negative knob (only meaningful alongside
    /// `bad_messages`).
    pub at_coverage: Option<AtCoveragePlan>,
    /// Regime axis 3: failed clock resynchronizations.
    pub resync_violation: Option<ResyncViolationPlan>,
    /// Regime axis 4: valid-CRC checkpoint corruption.
    pub byzantine: Option<ByzantinePlan>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if any regime axis is armed (the run can leave the masked
    /// regime).
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

    /// Validates what the types leave open: probabilities in `[0, 1]` and
    /// a positive resync-violation excess.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError::RateOutOfRange`] found; plans
    /// are small enough that one error at a time is fine.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        if let Some(b) = &self.bad_messages {
            check_rate("bad-message rate", b.rate)?;
        }
        if let Some(c) = &self.at_coverage {
            check_rate("AT coverage", c.coverage)?;
        }
        match self.resync_violation {
            Some(r) if r.excess == SimDuration::ZERO => Err(FaultPlanError::RateOutOfRange {
                what: "resync excess (must be positive)",
                value: 0.0,
            }),
            _ => Ok(()),
        }
    }
}

fn check_rate(what: &'static str, value: f64) -> Result<(), FaultPlanError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultPlanError::RateOutOfRange { what, value })
    }
}

/// Structural problems in a [`FaultPlan`], reported as typed errors rather
/// than panics so callers (chaos generator, regime sweeps) can propagate
/// them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A probability or magnitude knob is outside its valid range.
    RateOutOfRange {
        /// Which knob.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A crash placed in a checkpoint round the mission never runs.
    RoundNeverFires {
        /// The offending round.
        epoch: u64,
        /// Why no such round runs.
        why: &'static str,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::RateOutOfRange { what, value } => {
                write!(f, "{what} out of range: {value}")
            }
            FaultPlanError::RoundNeverFires { epoch, why } => {
                write!(f, "crash in checkpoint round {epoch} never fires: {why}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        let p = FaultPlan::none();
        assert!(p.software.is_none());
        assert!(p.hardware.is_empty());
        assert!(p.rounds.is_empty());
        assert!(!p.is_unmasked());
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn node_id_round_trips_the_index_mapping() {
        for node in NodeId::ALL {
            assert_eq!(NodeId::from_index(node.index()), Some(node));
        }
        assert_eq!(NodeId::P1Act.index(), 0);
        assert_eq!(NodeId::P1Sdw.index(), 1);
        assert_eq!(NodeId::P2.index(), 2);
        assert_eq!(NodeId::from_index(3), None);
        assert_eq!(NodeId::ALL.map(|n| n.pid().0), [1, 2, 3]);
        assert_eq!(NodeId::P2.process_name(), "P2");
        assert_eq!(NodeId::P2.to_string(), "node2(P2)");
    }
}
