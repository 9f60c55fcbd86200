//! A uniform wrapper over the three per-role MDCD engines.

use synergy_mdcd::{
    Action, ActiveEngine, EngineSnapshot, Event, MdcdConfig, PeerEngine, ProcessRole,
    RecoveryDecision, ShadowEngine, TakeoverPlan,
};
use synergy_net::ProcessId;

/// One of the three MDCD engines, dispatched uniformly by the system driver.
#[derive(Clone, Debug)]
pub enum RoleEngine {
    /// `P1act`.
    Active(ActiveEngine),
    /// `P1sdw`.
    Shadow(ShadowEngine),
    /// `P2`.
    Peer(PeerEngine),
}

impl RoleEngine {
    /// Builds the engine for `role` in the canonical three-process layout.
    pub fn new(
        role: ProcessRole,
        cfg: MdcdConfig,
        active: ProcessId,
        shadow: ProcessId,
        peer: ProcessId,
    ) -> Self {
        match role {
            ProcessRole::Active => RoleEngine::Active(ActiveEngine::new(cfg, active, shadow, peer)),
            ProcessRole::Shadow => RoleEngine::Shadow(ShadowEngine::new(cfg, shadow, peer)),
            ProcessRole::Peer => RoleEngine::Peer(PeerEngine::new(cfg, peer, active, shadow)),
        }
    }

    /// The role this engine plays.
    pub fn role(&self) -> ProcessRole {
        match self {
            RoleEngine::Active(_) => ProcessRole::Active,
            RoleEngine::Shadow(s) => {
                if s.is_promoted() {
                    ProcessRole::Active
                } else {
                    ProcessRole::Shadow
                }
            }
            RoleEngine::Peer(_) => ProcessRole::Peer,
        }
    }

    /// Feeds one event, appending the engine's actions to `out`.
    pub fn handle_into(&mut self, event: Event, out: &mut Vec<Action>) {
        match self {
            RoleEngine::Active(e) => e.handle_into(event, out),
            RoleEngine::Shadow(e) => e.handle_into(event, out),
            RoleEngine::Peer(e) => e.handle_into(event, out),
        }
    }

    /// The dirty bit as defined for this role.
    pub fn dirty_bit(&self) -> bool {
        match self {
            RoleEngine::Active(e) => e.dirty_bit(),
            RoleEngine::Shadow(e) => e.dirty_bit(),
            RoleEngine::Peer(e) => e.dirty_bit(),
        }
    }

    /// The bit the adapted TB protocol consults when choosing checkpoint
    /// contents (pseudo dirty bit for `P1act`, paper footnote 2).
    pub fn checkpoint_bit(&self) -> bool {
        match self {
            RoleEngine::Active(e) => e.checkpoint_bit(),
            RoleEngine::Shadow(e) => e.checkpoint_bit(),
            RoleEngine::Peer(e) => e.checkpoint_bit(),
        }
    }

    /// Captures engine control state.
    pub fn snapshot(&self) -> EngineSnapshot {
        match self {
            RoleEngine::Active(e) => e.snapshot(),
            RoleEngine::Shadow(e) => e.snapshot(),
            RoleEngine::Peer(e) => e.snapshot(),
        }
    }

    /// Restores engine control state.
    pub fn restore(&mut self, snapshot: &EngineSnapshot) {
        match self {
            RoleEngine::Active(e) => e.restore(snapshot),
            RoleEngine::Shadow(e) => e.restore(snapshot),
            RoleEngine::Peer(e) => e.restore(snapshot),
        }
    }

    /// The local software-recovery decision (shadow and peer only).
    pub fn recovery_decision(&self) -> Option<RecoveryDecision> {
        match self {
            RoleEngine::Active(_) => None,
            RoleEngine::Shadow(e) => Some(e.recovery_decision()),
            RoleEngine::Peer(e) => Some(e.recovery_decision()),
        }
    }

    /// Promotes a shadow engine (panics on other roles).
    pub fn take_over(&mut self) -> TakeoverPlan {
        match self {
            RoleEngine::Shadow(e) => e.take_over(),
            other => panic!("take_over on non-shadow role {:?}", other.role()),
        }
    }

    /// Access the peer engine (for retargeting after takeover).
    pub fn as_peer_mut(&mut self) -> Option<&mut PeerEngine> {
        match self {
            RoleEngine::Peer(e) => Some(e),
            _ => None,
        }
    }

    /// Acceptance tests executed by this engine.
    pub fn at_runs(&self) -> u64 {
        match self {
            RoleEngine::Active(e) => e.at_runs(),
            RoleEngine::Shadow(e) => e.at_runs(),
            RoleEngine::Peer(e) => e.at_runs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACT: ProcessId = ProcessId(1);
    const SDW: ProcessId = ProcessId(2);
    const PEER: ProcessId = ProcessId(3);

    fn role(r: ProcessRole) -> RoleEngine {
        RoleEngine::new(r, MdcdConfig::modified(), ACT, SDW, PEER)
    }

    #[test]
    fn roles_report_themselves() {
        assert_eq!(role(ProcessRole::Active).role(), ProcessRole::Active);
        assert_eq!(role(ProcessRole::Shadow).role(), ProcessRole::Shadow);
        assert_eq!(role(ProcessRole::Peer).role(), ProcessRole::Peer);
    }

    #[test]
    fn promoted_shadow_reports_active() {
        let mut e = role(ProcessRole::Shadow);
        e.take_over();
        assert_eq!(e.role(), ProcessRole::Active);
    }

    #[test]
    fn active_has_no_local_recovery_decision() {
        assert!(role(ProcessRole::Active).recovery_decision().is_none());
        assert!(role(ProcessRole::Peer).recovery_decision().is_some());
    }

    #[test]
    #[should_panic(expected = "take_over on non-shadow")]
    fn takeover_panics_on_peer() {
        role(ProcessRole::Peer).take_over();
    }

    #[test]
    fn checkpoint_bit_for_active_is_pseudo() {
        let e = role(ProcessRole::Active);
        assert!(e.dirty_bit(), "P1act always dirty");
        assert!(!e.checkpoint_bit(), "pseudo bit starts clean");
    }
}
