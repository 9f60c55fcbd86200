//! The error-containment engine of `P1sdw` (Appendix A, Fig. 9).

use synergy_net::{Envelope, MsgSeqNo, ProcessId};

use crate::actions::Action;
use crate::events::{Event, OutboundMessage};
use crate::log::MessageLog;
use crate::shared::{Core, Role};
use crate::snapshot::EngineSnapshot;
use crate::types::{CheckpointKind, MdcdConfig, RecoveryDecision};

/// The shadow's takeover output.
#[derive(Clone, Debug, PartialEq)]
pub struct TakeoverPlan {
    /// Messages to (re-)send now that the shadow is active: the logged
    /// messages beyond the last validated sequence number.
    pub resend: Vec<Envelope>,
}

/// The engine hosted next to the high-confidence shadow version `P1sdw`.
///
/// During guarded operation every outgoing message of the shadow is
/// suppressed and logged; on an acceptance-test failure elsewhere the shadow
/// [`take_over`](ShadowEngine::take_over)s the active role, re-sending the
/// suppressed messages that were never validated.
///
/// # Example
///
/// ```rust
/// use synergy_mdcd::{Event, MdcdConfig, OutboundMessage, RecoveryDecision, ShadowEngine};
/// use synergy_net::{Endpoint, ProcessId};
///
/// let mut sdw = ShadowEngine::new(MdcdConfig::modified(), ProcessId(2), ProcessId(3));
/// // Shadow computes the same outputs as P1act, but they are suppressed:
/// let mut actions = Vec::new();
/// sdw.handle_into(
///     Event::AppSend(OutboundMessage {
///         to: Endpoint::Process(ProcessId(3)),
///         payload: vec![1],
///         external: false,
///         at_pass: true,
///     }),
///     &mut actions,
/// );
/// assert!(actions.is_empty());
/// assert_eq!(sdw.logged(), 1);
/// // An error is detected; the clean shadow rolls forward and takes over:
/// assert_eq!(sdw.recovery_decision(), RecoveryDecision::RollForward);
/// let plan = sdw.take_over();
/// assert_eq!(plan.resend.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ShadowEngine {
    core: Core,
    peer: ProcessId,
    log: MessageLog,
    promoted: bool,
}

impl ShadowEngine {
    /// Creates the engine for shadow process `id`, interacting with `peer`.
    pub fn new(cfg: MdcdConfig, id: ProcessId, peer: ProcessId) -> Self {
        ShadowEngine {
            core: Core::new(cfg, id, false),
            peer,
            log: MessageLog::new(),
            promoted: false,
        }
    }

    /// The shadow's dirty bit.
    pub fn dirty_bit(&self) -> bool {
        self.core.dirty
    }

    /// The bit the adapted TB protocol consults for checkpoint contents.
    pub fn checkpoint_bit(&self) -> bool {
        self.core.dirty
    }

    /// `VR_act`: last known-valid message sequence number of `P1act`.
    pub fn vr_act(&self) -> MsgSeqNo {
        self.core.vr_act
    }

    /// Number of suppressed messages currently logged.
    pub fn logged(&self) -> usize {
        self.log.len()
    }

    /// Whether the shadow has taken over the active role.
    pub fn is_promoted(&self) -> bool {
        self.promoted
    }

    /// Number of acceptance tests executed (only after promotion).
    pub fn at_runs(&self) -> u64 {
        self.core.at_runs
    }

    /// The local recovery decision when a software error is detected
    /// (paper §2.1): dirty → roll back, clean → roll forward.
    pub fn recovery_decision(&self) -> RecoveryDecision {
        self.core.recovery_decision()
    }

    /// Promotes the shadow to the active role, returning the suppressed
    /// messages to re-send (those not yet covered by a validation).
    ///
    /// Call **after** any rollback decided by
    /// [`recovery_decision`](Self::recovery_decision) has been applied via
    /// [`restore`](Self::restore), so the plan reflects the recovered state.
    pub fn take_over(&mut self) -> TakeoverPlan {
        self.promoted = true;
        self.core.hold.reset();
        let resend = self.log.entries_after(self.core.vr_act).cloned().collect();
        self.log = MessageLog::new();
        TakeoverPlan { resend }
    }

    /// Captures the engine control state for a checkpoint.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            log: self.log.to_vec(),
            promoted: self.promoted,
            ..self.core.snapshot()
        }
    }

    /// Restores control state from a checkpoint (`ndc` excluded; see
    /// [`EngineSnapshot`]).
    pub fn restore(&mut self, snapshot: &EngineSnapshot) {
        self.core.restore(snapshot);
        self.log.restore(snapshot.log.iter().cloned());
        self.promoted = snapshot.promoted;
    }

    /// Feeds one event, appending the actions to execute, in order, to
    /// `out`.
    pub fn handle_into(&mut self, event: Event, out: &mut Vec<Action>) {
        self.step(event, out);
    }
}

impl Role for ShadowEngine {
    fn core(&mut self) -> &mut Core {
        &mut self.core
    }

    fn checkpoint(&self, kind: CheckpointKind) -> Action {
        Action::TakeCheckpoint {
            kind,
            engine: self.snapshot(),
        }
    }

    /// Suppresses and logs (Fig. 9) until a takeover; the promoted shadow
    /// is the (high-confidence) active `P1` and sends as `P2` does, its
    /// `passed_AT` going to the peer. Unlike `P2`'s, its validation takes
    /// no Type-2 checkpoint under the original protocol.
    fn send(&mut self, m: OutboundMessage, out: &mut Vec<Action>) {
        if !self.promoted {
            let envelope = self.core.number(m.to, m.payload, m.external);
            self.log.push(envelope);
        } else if !m.external {
            out.push(Action::Send(self.core.number(m.to, m.payload, false)));
        } else if let Some(sent) = self.send_checked(m, false, out) {
            out.push(self.core.passed_at(self.peer, sent));
        }
    }

    /// `memory_reclamation(msg_log)`: validated entries are never re-sent.
    fn reclaim(&mut self, upto: MsgSeqNo) {
        self.log.reclaim_up_to(upto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::testkit::{self, feed};
    use synergy_net::{CkptSeqNo, DeviceId, Endpoint, MessageBody};

    const SELF: ProcessId = ProcessId(2);
    const ACT: ProcessId = ProcessId(1);
    const PEER: ProcessId = ProcessId(3);

    fn engine(cfg: MdcdConfig) -> ShadowEngine {
        ShadowEngine::new(cfg, SELF, PEER)
    }

    fn app_send(payload: u8, external: bool) -> Event {
        let to = if external {
            Endpoint::Device(DeviceId(0))
        } else {
            Endpoint::Process(PEER)
        };
        testkit::send(to, payload, external, true)
    }

    fn from_peer(seq: u64, dirty: bool) -> Event {
        testkit::app(PEER, seq, SELF, 0, dirty)
    }

    fn passed_at(sn: u64, ndc: u64) -> Event {
        testkit::passed_at(ACT, SELF, sn, ndc)
    }

    #[test]
    fn outgoing_messages_are_suppressed_and_logged() {
        let mut e = engine(MdcdConfig::modified());
        assert!(feed(&mut e, app_send(1, false)).is_empty());
        assert!(feed(&mut e, app_send(2, true)).is_empty());
        assert_eq!(e.logged(), 2);
    }

    #[test]
    fn dirty_message_triggers_type1_checkpoint_once() {
        let mut e = engine(MdcdConfig::modified());
        let first = feed(&mut e, from_peer(1, true));
        assert!(matches!(
            first[0],
            Action::TakeCheckpoint {
                kind: CheckpointKind::Type1,
                ..
            }
        ));
        assert!(matches!(first[1], Action::DeliverToApp(_)));
        assert!(e.dirty_bit());
        let second = feed(&mut e, from_peer(2, true));
        assert_eq!(second.len(), 1, "already dirty: no second checkpoint");
    }

    #[test]
    fn type1_snapshot_is_clean() {
        let mut e = engine(MdcdConfig::modified());
        let actions = feed(&mut e, from_peer(1, true));
        match &actions[0] {
            Action::TakeCheckpoint { engine, .. } => assert!(!engine.dirty),
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn clean_message_does_not_contaminate() {
        let mut e = engine(MdcdConfig::modified());
        let actions = feed(&mut e, from_peer(1, false));
        assert_eq!(actions.len(), 1);
        assert!(!e.dirty_bit());
    }

    #[test]
    fn passed_at_resets_dirty_updates_vr_and_reclaims_log() {
        let mut e = engine(MdcdConfig::modified());
        for p in 1..=3 {
            feed(&mut e, app_send(p, false));
        }
        feed(&mut e, from_peer(1, true));
        assert!(e.dirty_bit());
        feed(&mut e, passed_at(2, 0));
        assert!(!e.dirty_bit());
        assert_eq!(e.vr_act(), MsgSeqNo(2));
        assert_eq!(e.logged(), 1, "entries <= VR reclaimed");
    }

    #[test]
    fn stale_passed_at_is_dropped_early_one_deferred_or_accepted() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, Event::StableCheckpointCommitted(CkptSeqNo(3)));
        feed(&mut e, from_peer(1, true));
        // Stale (past-epoch) notification: the Fig. 4(b) hazard — dropped.
        feed(&mut e, passed_at(1, 2));
        assert!(e.dirty_bit(), "stale Ndc must not reset the dirty bit");
        // Early (future-epoch) notification while idle: knowledge update.
        feed(&mut e, passed_at(1, 4));
        assert!(!e.dirty_bit());
    }

    #[test]
    fn early_passed_at_during_blocking_is_deferred_past_commit() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, from_peer(1, true));
        feed(&mut e, Event::BlockingStarted);
        // The sender already committed epoch 1; we are still writing ours.
        feed(&mut e, passed_at(1, 1));
        assert!(e.dirty_bit(), "must not adjust the in-flight epoch");
        feed(&mut e, Event::StableCheckpointCommitted(CkptSeqNo(1)));
        feed(&mut e, Event::BlockingEnded);
        assert!(!e.dirty_bit(), "deferred validation applies after commit");
        assert_eq!(e.vr_act(), MsgSeqNo(1));
    }

    #[test]
    fn original_variant_takes_type2_and_ignores_ndc() {
        let mut e = engine(MdcdConfig::original());
        feed(&mut e, from_peer(1, true));
        let actions = feed(&mut e, passed_at(1, 99));
        assert!(matches!(
            actions[0],
            Action::TakeCheckpoint {
                kind: CheckpointKind::Type2,
                ..
            }
        ));
        assert!(!e.dirty_bit());
    }

    #[test]
    fn takeover_resends_only_unvalidated_entries() {
        let mut e = engine(MdcdConfig::modified());
        for p in 1..=4 {
            feed(&mut e, app_send(p, false));
        }
        feed(&mut e, passed_at(2, 0)); // entries 1,2 validated
        let plan = e.take_over();
        let seqs: Vec<u64> = plan.resend.iter().map(|m| m.id.seq.0).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert!(e.is_promoted());
    }

    #[test]
    fn recovery_decision_follows_dirty_bit() {
        let mut e = engine(MdcdConfig::modified());
        assert_eq!(e.recovery_decision(), RecoveryDecision::RollForward);
        feed(&mut e, from_peer(1, true));
        assert_eq!(e.recovery_decision(), RecoveryDecision::RollBack);
    }

    #[test]
    fn rollback_then_takeover_uses_restored_log() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, app_send(1, false));
        // Contamination point: Type-1 checkpoint with 1 logged entry.
        let ckpt = feed(&mut e, from_peer(1, true));
        let snap = match &ckpt[0] {
            Action::TakeCheckpoint { engine, .. } => engine.clone(),
            _ => panic!("expected checkpoint"),
        };
        // More suppressed messages while dirty.
        feed(&mut e, app_send(2, false));
        feed(&mut e, app_send(3, false));
        assert_eq!(e.recovery_decision(), RecoveryDecision::RollBack);
        e.restore(&snap);
        let plan = e.take_over();
        let seqs: Vec<u64> = plan.resend.iter().map(|m| m.id.seq.0).collect();
        assert_eq!(seqs, vec![1], "post-checkpoint sends are not replayed");
    }

    #[test]
    fn promoted_shadow_sends_directly() {
        let mut e = engine(MdcdConfig::modified());
        e.take_over();
        let actions = feed(&mut e, app_send(1, false));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Send(env) => match &env.body {
                MessageBody::Application { dirty, .. } => assert!(!dirty),
                other => panic!("expected application body, got {other:?}"),
            },
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn promoted_clean_shadow_skips_at_on_external() {
        let mut e = engine(MdcdConfig::modified());
        e.take_over();
        let actions = feed(&mut e, app_send(1, true));
        assert_eq!(actions.len(), 1, "no AT, no passed_AT while clean");
        assert!(actions[0].is_send());
        assert_eq!(e.at_runs(), 0);
    }

    #[test]
    fn promoted_dirty_shadow_runs_at_and_broadcasts() {
        let mut e = engine(MdcdConfig::modified());
        e.take_over();
        feed(&mut e, from_peer(1, true)); // becomes dirty again
        let actions = feed(&mut e, app_send(1, true));
        assert!(matches!(actions[0], Action::AtPerformed { pass: true }));
        let passed: usize = actions
            .iter()
            .filter(|a| matches!(a, Action::Send(env) if env.body.is_passed_at()))
            .count();
        assert_eq!(passed, 1);
        assert!(!e.dirty_bit());
    }

    /// Under the original protocol a promoted shadow's own validation takes
    /// no Type-2 checkpoint, unlike `P2`'s
    /// (`peer::tests::original_variant_type2_on_own_at_pass`): it runs the
    /// AT, clears its bit and vouches for its message, nothing more.
    #[test]
    fn promoted_shadow_takes_no_type2_on_its_own_validation() {
        let mut e = engine(MdcdConfig::original());
        e.take_over();
        feed(&mut e, from_peer(1, true));
        let actions = feed(&mut e, app_send(1, true));
        assert!(matches!(actions[0], Action::AtPerformed { pass: true }));
        assert!(!actions.iter().any(Action::is_checkpoint), "{actions:?}");
        assert_eq!(actions.iter().filter(|a| a.is_send()).count(), 2);
        assert!(!e.dirty_bit());
    }

    #[test]
    fn blocking_holds_app_but_not_passed_at_in_modified() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, Event::BlockingStarted);
        assert!(feed(&mut e, from_peer(1, true)).is_empty());
        feed(&mut e, passed_at(1, 0));
        assert!(!e.dirty_bit(), "passed_AT processed during blocking");
        let released = feed(&mut e, Event::BlockingEnded);
        // The held dirty message now contaminates: Type-1 + delivery.
        assert_eq!(released.len(), 2);
        assert!(released[0].is_checkpoint());
    }

    #[test]
    fn snapshot_roundtrip_preserves_log() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, app_send(1, false));
        feed(&mut e, from_peer(1, true));
        let snap = e.snapshot();
        let mut other = engine(MdcdConfig::modified());
        other.restore(&snap);
        assert_eq!(other.dirty_bit(), e.dirty_bit());
        assert_eq!(other.logged(), e.logged());
        assert_eq!(other.vr_act(), e.vr_act());
    }
}
