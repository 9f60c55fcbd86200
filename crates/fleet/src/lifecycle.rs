//! The tenant lifecycle state machine.
//!
//! Modeled on the slot-based tenant managers of multi-tenant storage
//! services (one slot per tenant, every state change a checked
//! transition): a tenant is **attached** into a slot, runs to
//! **completion** (or is restarted along the way), and is **detached**
//! when its slot is released. Illegal edges are rejected with
//! [`FleetError::IllegalTransition`] instead of silently corrupting the
//! slot map.
//!
//! ```text
//!            attach                    mission over
//! Attaching ────────► Active ───────────────────────► Completed
//!                      │  ▲ ▲                            │
//!           backpressure│  │ │ drained / dropped          │
//!                      ▼  │ │                            │
//!                    Stalled                             │
//!                      │  │                              │
//!              restart │  │ restart      restart         │
//!                      ▼  ▼                              │
//!                    Restarting ◄────────────────────────┤
//!                      │                                 │
//!                      ▼          detach                 ▼
//!                    Active ... ─────────► Detaching ► Detached
//! ```

use std::fmt;

use synergy::MissionId;

use crate::error::FleetError;

/// Where a tenant is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TenantState {
    /// Slot claimed, engines being built; not yet scheduled.
    Attaching,
    /// Runnable: the scheduler grants this tenant event quanta.
    Active,
    /// Device sink pushed back; the tenant retries with backoff and is
    /// skipped by the scheduler until its retry deadline.
    Stalled,
    /// Being torn down and rebuilt from its config template.
    Restarting,
    /// The mission ran to its end of simulated time; report harvested,
    /// engines dropped. The slot stays occupied until detach.
    Completed,
    /// Being removed from the slot map.
    Detaching,
    /// Gone; the slot has been released. Terminal.
    Detached,
}

impl TenantState {
    /// Whether `self -> to` is a legal lifecycle edge.
    pub fn may_transition(self, to: TenantState) -> bool {
        use TenantState::*;
        matches!(
            (self, to),
            (Attaching, Active)
                | (Active, Stalled | Restarting | Detaching | Completed)
                | (Stalled, Active | Restarting | Detaching)
                | (Restarting, Active)
                | (Completed, Restarting | Detaching)
                | (Detaching, Detached)
        )
    }

    /// Whether the scheduler still visits this tenant each pass — to step
    /// it (`Active`) or to retry its stalled device delivery (`Stalled`).
    pub fn is_runnable(self) -> bool {
        matches!(self, TenantState::Active | TenantState::Stalled)
    }
}

impl fmt::Display for TenantState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TenantState::Attaching => "attaching",
            TenantState::Active => "active",
            TenantState::Stalled => "stalled",
            TenantState::Restarting => "restarting",
            TenantState::Completed => "completed",
            TenantState::Detaching => "detaching",
            TenantState::Detached => "detached",
        })
    }
}

/// Applies `to` to `state` if legal, or reports the rejected edge.
pub fn transition(
    mission: MissionId,
    state: &mut TenantState,
    to: TenantState,
) -> Result<(), FleetError> {
    if state.may_transition(to) {
        *state = to;
        Ok(())
    } else {
        Err(FleetError::IllegalTransition {
            mission,
            from: *state,
            to,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::TenantState::*;
    use super::*;

    #[test]
    fn the_happy_path_is_legal() {
        let mission = MissionId(1);
        let mut s = Attaching;
        for next in [Active, Completed, Detaching, Detached] {
            transition(mission, &mut s, next).unwrap();
        }
        assert_eq!(s, Detached);
    }

    #[test]
    fn stall_and_restart_loops_are_legal() {
        let mission = MissionId(2);
        let mut s = Active;
        transition(mission, &mut s, Stalled).unwrap();
        transition(mission, &mut s, Active).unwrap();
        transition(mission, &mut s, Restarting).unwrap();
        transition(mission, &mut s, Active).unwrap();
        // A completed tenant can be restarted for another round...
        transition(mission, &mut s, Completed).unwrap();
        transition(mission, &mut s, Restarting).unwrap();
        transition(mission, &mut s, Active).unwrap();
        // ...and a stalled one restarted out of its stall.
        transition(mission, &mut s, Stalled).unwrap();
        transition(mission, &mut s, Restarting).unwrap();
    }

    #[test]
    fn illegal_edges_are_rejected_without_moving() {
        let mission = MissionId(3);
        for (from, to) in [
            (Detached, Active),
            (Completed, Active),
            (Attaching, Completed),
            (Detaching, Active),
            (Stalled, Completed),
        ] {
            let mut s = from;
            let err = transition(mission, &mut s, to).unwrap_err();
            assert_eq!(
                err,
                FleetError::IllegalTransition { mission, from, to },
                "{from} -> {to}"
            );
            assert_eq!(s, from, "state must not move on a rejected edge");
        }
    }

    #[test]
    fn runnability_follows_state() {
        assert!(Active.is_runnable());
        assert!(Stalled.is_runnable());
        for s in [Attaching, Restarting, Completed, Detaching, Detached] {
            assert!(!s.is_runnable(), "{s}");
        }
    }
}
