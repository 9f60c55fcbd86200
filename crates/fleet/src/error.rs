//! Typed errors of the fleet tenant manager.

use std::fmt;

use synergy::MissionId;

use crate::lifecycle::TenantState;

/// Everything that can go wrong while operating the fleet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The fleet is at its slot budget: attaching one more tenant would
    /// exceed the configured admission limit.
    AdmissionRejected {
        /// The configured slot budget the attach ran into.
        limit: usize,
    },
    /// No resident tenant carries this mission id.
    UnknownMission(MissionId),
    /// A tenant with this mission id is already resident.
    AlreadyAttached(MissionId),
    /// The requested lifecycle step is not a legal transition.
    IllegalTransition {
        /// The tenant whose transition was rejected.
        mission: MissionId,
        /// Its current state.
        from: TenantState,
        /// The state the caller asked for.
        to: TenantState,
    },
    /// The manager is shutting down and admits no new work.
    ShuttingDown,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::AdmissionRejected { limit } => {
                write!(f, "admission rejected: fleet is at its {limit}-slot budget")
            }
            FleetError::UnknownMission(m) => write!(f, "no tenant attached as {m}"),
            FleetError::AlreadyAttached(m) => write!(f, "tenant {m} is already attached"),
            FleetError::IllegalTransition { mission, from, to } => {
                write!(f, "tenant {mission}: illegal transition {from} -> {to}")
            }
            FleetError::ShuttingDown => write!(f, "fleet is shutting down"),
        }
    }
}

impl std::error::Error for FleetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_usefully() {
        let e = FleetError::AdmissionRejected { limit: 8 };
        assert!(e.to_string().contains("8-slot"));
        let e = FleetError::IllegalTransition {
            mission: MissionId(3),
            from: TenantState::Detached,
            to: TenantState::Active,
        };
        assert!(e.to_string().contains("M3"));
        assert!(e.to_string().contains("detached -> active"));
    }
}
