//! Scheduled fault injection.

use core::fmt;

use synergy_des::SimTime;

/// The three nodes of the paper's system, naming the `usize` indices used
/// by [`HardwareFault::node`].
///
/// Both hardware-fault consumers share this mapping: the simulator's
/// injector (crash a modelled node) and the cluster runtime's kill scheduler
/// (SIGKILL a real OS process), so a [`FaultPlan`] means the same thing in
/// either world.
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

    /// The node's fault-plan index (`0 = P1act, 1 = P1sdw, 2 = P2`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The node hosting fault-plan index `index`, or `None` when out of
    /// range.
    pub fn from_index(index: usize) -> Option<NodeId> {
        NodeId::ALL.get(index).copied()
    }

    /// The name of the process hosted on this node.
    pub fn process_name(self) -> &'static str {
        match self {
            NodeId::P1Act => "P1act",
            NodeId::P1Sdw => "P1sdw",
            NodeId::P2 => "P2",
        }
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
    /// Node index — see [`NodeId`] for the mapping
    /// (`0 = P1act, 1 = P1sdw, 2 = P2`).
    pub node: usize,
}

impl HardwareFault {
    /// A crash of `node` at `at`.
    pub fn on(node: NodeId, at: SimTime) -> Self {
        HardwareFault {
            at,
            node: node.index(),
        }
    }

    /// The crashed node as a [`NodeId`], if the index is valid.
    pub(crate) fn node_id(&self) -> Option<NodeId> {
        NodeId::from_index(self.node)
    }
}

/// The fault schedule of one mission.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// At most one software-fault activation (guarded operation ends at the
    /// first takeover).
    pub software: Option<SoftwareFault>,
    /// Any number of hardware faults, in any order.
    pub hardware: Vec<HardwareFault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Validates node indices, returning a structured error instead of
    /// aborting so chaos/cluster callers can surface malformed plans.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::NodeOutOfRange`] if any hardware fault names
    /// a node outside the [`NodeId`] mapping.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for f in &self.hardware {
            if f.node_id().is_none() {
                return Err(FaultPlanError::NodeOutOfRange { node: f.node });
            }
        }
        Ok(())
    }
}

/// Structural problems in a [`FaultPlan`] or regime plan, reported as typed
/// errors rather than panics so callers (chaos generator, cluster
/// orchestrator, CLI flag parsing) can propagate them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A fault names a node index outside the [`NodeId`] mapping.
    NodeOutOfRange {
        /// The offending index.
        node: usize,
    },
    /// A probability or magnitude knob is outside its valid range.
    RateOutOfRange {
        /// Which knob.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NodeOutOfRange { node } => {
                write!(f, "node index {node} out of range (valid: 0..=2)")
            }
            FaultPlanError::RateOutOfRange { what, value } => {
                write!(f, "{what} out of range: {value}")
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
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn node_id_round_trips_the_index_mapping() {
        for node in NodeId::ALL {
            assert_eq!(NodeId::from_index(node.index()), Some(node));
            let f = HardwareFault::on(node, SimTime::from_secs_f64(1.0));
            assert_eq!(f.node, node.index());
            assert_eq!(f.node_id(), Some(node));
        }
        assert_eq!(NodeId::P1Act.index(), 0);
        assert_eq!(NodeId::P1Sdw.index(), 1);
        assert_eq!(NodeId::P2.index(), 2);
        assert_eq!(NodeId::from_index(3), None);
        assert_eq!(NodeId::P2.process_name(), "P2");
        assert_eq!(NodeId::P2.to_string(), "node2(P2)");
    }

    #[test]
    fn bad_node_rejected_as_typed_error() {
        let p = FaultPlan {
            software: None,
            hardware: vec![HardwareFault {
                at: SimTime::ZERO,
                node: 9,
            }],
        };
        let err = p.validate().unwrap_err();
        assert_eq!(err, FaultPlanError::NodeOutOfRange { node: 9 });
        assert!(err.to_string().contains("out of range"));
    }
}
