//! The error-containment engine of `P2` (Appendix A, Fig. 10).

use synergy_net::{Endpoint, Envelope, MsgSeqNo, ProcessId};

use crate::actions::Action;
use crate::events::{Event, OutboundMessage};
use crate::shared::{Core, Role};
use crate::snapshot::EngineSnapshot;
use crate::types::{CheckpointKind, MdcdConfig, RecoveryDecision, Variant};

/// The engine hosted next to the second application component `P2`.
///
/// `P2` broadcasts its internal messages to both replicas of `P1` (so active
/// and shadow compute on identical inputs), runs an acceptance test on its
/// external messages only while potentially contaminated, and tracks
/// `msg_SN_P1act` — the last message received from `P1act` — so its own
/// validations can vouch for those messages too.
///
/// # Example
///
/// ```rust
/// use synergy_mdcd::{Event, MdcdConfig, PeerEngine};
/// use synergy_net::{Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId};
///
/// let mut p2 = PeerEngine::new(MdcdConfig::modified(), ProcessId(3), ProcessId(1), ProcessId(2));
/// // A (dirty) message from P1act contaminates P2: Type-1 checkpoint first.
/// let mut actions = Vec::new();
/// p2.handle_into(
///     Event::Deliver(Envelope::new(
///         MsgId { from: ProcessId(1), seq: MsgSeqNo(1) },
///         ProcessId(3),
///         MessageBody::Application { payload: vec![1], dirty: true },
///     )),
///     &mut actions,
/// );
/// assert!(actions[0].is_checkpoint());
/// assert!(p2.dirty_bit());
/// ```
#[derive(Clone, Debug)]
pub struct PeerEngine {
    core: Core,
    active: ProcessId,
    shadow: ProcessId,
}

impl PeerEngine {
    /// Creates the engine for process `id`, interacting with the `active`
    /// process and its `shadow`.
    pub fn new(cfg: MdcdConfig, id: ProcessId, active: ProcessId, shadow: ProcessId) -> Self {
        PeerEngine {
            core: Core::new(cfg, id, false),
            active,
            shadow,
        }
    }

    /// `P2`'s dirty bit.
    pub fn dirty_bit(&self) -> bool {
        self.core.dirty
    }

    /// The bit the adapted TB protocol consults for checkpoint contents.
    pub fn checkpoint_bit(&self) -> bool {
        self.core.dirty
    }

    /// `msg_SN_P1act`: the peer's record of the active process's sequence.
    pub fn vr_act(&self) -> MsgSeqNo {
        self.core.vr_act
    }

    /// Number of acceptance tests executed.
    pub fn at_runs(&self) -> u64 {
        self.core.at_runs
    }

    /// Retargets the engine at a new active process (shadow takeover): the
    /// promoted shadow becomes the active endpoint and no shadow remains.
    pub fn retarget_active(&mut self, new_active: ProcessId) {
        self.active = new_active;
        self.shadow = new_active;
    }

    /// The local recovery decision when a software error is detected.
    pub fn recovery_decision(&self) -> RecoveryDecision {
        self.core.recovery_decision()
    }

    /// Captures the engine control state for a checkpoint.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.core.snapshot()
    }

    /// Restores control state from a checkpoint (`ndc` excluded; see
    /// [`EngineSnapshot`]).
    pub fn restore(&mut self, snapshot: &EngineSnapshot) {
        self.core.restore(snapshot);
    }

    /// Feeds one event, returning the actions to execute in order:
    /// [`handle_into`](Self::handle_into) over a fresh vector.
    ///
    /// Its one caller is the benchmark's MDCD delivery probe
    /// (`ledger/src/probes.rs`); it goes when that probe moves to
    /// `handle_into` in the next benchmark change.
    pub fn handle(&mut self, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        self.handle_into(event, &mut out);
        out
    }

    /// Feeds one event, appending the actions to execute, in order, to
    /// `out`.
    pub fn handle_into(&mut self, event: Event, out: &mut Vec<Action>) {
        self.step(event, out);
    }

    /// Both replicas of `P1`, or the one that is left after a takeover.
    fn replicas(&self) -> impl Iterator<Item = ProcessId> {
        let shadow = (self.shadow != self.active).then_some(self.shadow);
        std::iter::once(self.active).chain(shadow)
    }
}

impl Role for PeerEngine {
    fn core(&mut self) -> &mut Core {
        &mut self.core
    }

    fn checkpoint(&self, kind: CheckpointKind) -> Action {
        Action::TakeCheckpoint {
            kind,
            engine: self.snapshot(),
        }
    }

    fn send(&mut self, m: OutboundMessage, out: &mut Vec<Action>) {
        if m.external {
            // The original protocol's validation establishes a Type-2
            // checkpoint at the validating process too.
            let type2 = self.core.cfg.variant == Variant::Original;
            if self.send_checked(m, type2, out).is_some() {
                // Broadcast passed_AT carrying *P1act's* validated sequence
                // number: P2 passing its AT vouches for every message it has
                // received from P1act (key assumption, paper §2.1).
                for dest in self.replicas() {
                    out.push(self.core.passed_at(dest, self.core.vr_act));
                }
            }
            return;
        }
        // Internal messages are broadcast to both replicas so active and
        // shadow compute on identical inputs; each copy gets its own
        // sequence number for independent ack tracking.
        let mut payload = m.payload;
        let mut replicas = self.replicas().peekable();
        while let Some(dest) = replicas.next() {
            // The last copy takes the application's buffer itself.
            let payload = match replicas.peek() {
                Some(_) => payload.clone(),
                None => std::mem::take(&mut payload),
            };
            let envelope = self.core.number(Endpoint::Process(dest), payload, false);
            out.push(Action::Send(envelope));
        }
    }

    /// Tracks `msg_SN_P1act`.
    fn received(&mut self, envelope: &Envelope) {
        self.core.vr_act = envelope.id.seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::testkit::{self, feed};
    use synergy_net::{CkptSeqNo, DeviceId, MessageBody};

    const SELF: ProcessId = ProcessId(3);
    const ACT: ProcessId = ProcessId(1);
    const SDW: ProcessId = ProcessId(2);

    fn engine(cfg: MdcdConfig) -> PeerEngine {
        PeerEngine::new(cfg, SELF, ACT, SDW)
    }

    fn from_active(seq: u64) -> Event {
        testkit::app(ACT, seq, SELF, 9, true)
    }

    fn external(pass: bool) -> Event {
        testkit::send(DeviceId(0), 0xAA, true, pass)
    }

    fn internal(payload: u8) -> Event {
        testkit::send(ACT, payload, false, true)
    }

    fn passed_at(sn: u64, ndc: u64) -> Event {
        testkit::passed_at(ACT, SELF, sn, ndc)
    }

    #[test]
    fn internal_sends_broadcast_to_both_replicas() {
        let mut e = engine(MdcdConfig::modified());
        let actions = feed(&mut e, internal(1));
        let dests: Vec<Endpoint> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(env) => Some(env.to),
                _ => None,
            })
            .collect();
        assert_eq!(
            dests,
            vec![Endpoint::Process(ACT), Endpoint::Process(SDW)],
            "both replicas must see identical inputs"
        );
    }

    #[test]
    fn first_dirty_reception_takes_type1_and_tracks_sn() {
        let mut e = engine(MdcdConfig::modified());
        let actions = feed(&mut e, from_active(4));
        assert!(actions[0].is_checkpoint());
        assert!(e.dirty_bit());
        assert_eq!(e.vr_act(), MsgSeqNo(4));
    }

    #[test]
    fn clean_external_send_skips_at() {
        let mut e = engine(MdcdConfig::modified());
        let actions = feed(&mut e, external(true));
        assert_eq!(actions.len(), 1);
        assert!(actions[0].is_send());
        assert_eq!(e.at_runs(), 0);
    }

    #[test]
    fn dirty_external_send_runs_at_and_vouches_for_active() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, from_active(7));
        let actions = feed(&mut e, external(true));
        assert!(matches!(actions[0], Action::AtPerformed { pass: true }));
        assert!(!e.dirty_bit());
        let passed: Vec<&Envelope> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(env) if env.body.is_passed_at() => Some(env),
                _ => None,
            })
            .collect();
        assert_eq!(passed.len(), 2);
        for p in &passed {
            match p.body {
                MessageBody::PassedAt { msg_sn, .. } => {
                    assert_eq!(msg_sn, MsgSeqNo(7), "vouches for P1act's messages");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn at_failure_reports_software_error() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, from_active(1));
        let actions = feed(&mut e, external(false));
        assert!(actions.contains(&Action::SoftwareErrorDetected));
        assert!(e.dirty_bit(), "failed AT leaves the state contaminated");
    }

    #[test]
    fn passed_at_ndc_guard_drops_stale_accepts_current_and_early() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, Event::StableCheckpointCommitted(CkptSeqNo(2)));
        feed(&mut e, from_active(1));
        // Stale epoch: dropped (Fig. 4(b) protection).
        feed(&mut e, passed_at(3, 1));
        assert!(e.dirty_bit());
        // Current epoch: accepted.
        feed(&mut e, passed_at(3, 2));
        assert!(!e.dirty_bit());
        assert_eq!(e.vr_act(), MsgSeqNo(3));
        // Early epoch while idle: accepted (knowledge update only).
        feed(&mut e, from_active(4));
        feed(&mut e, passed_at(4, 5));
        assert!(!e.dirty_bit());
    }

    #[test]
    fn early_passed_at_during_blocking_is_deferred() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, from_active(1));
        feed(&mut e, Event::BlockingStarted);
        feed(&mut e, passed_at(1, 1));
        assert!(e.dirty_bit(), "in-flight epoch must not be adjusted");
        feed(&mut e, Event::StableCheckpointCommitted(CkptSeqNo(1)));
        feed(&mut e, Event::BlockingEnded);
        assert!(!e.dirty_bit());
    }

    #[test]
    fn original_variant_type2_on_passed_at() {
        let mut e = engine(MdcdConfig::original());
        feed(&mut e, from_active(1));
        let actions = feed(&mut e, passed_at(1, 42));
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
    fn original_variant_type2_on_own_at_pass() {
        let mut e = engine(MdcdConfig::original());
        feed(&mut e, from_active(1));
        let actions = feed(&mut e, external(true));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::TakeCheckpoint {
                    kind: CheckpointKind::Type2,
                    ..
                }
            )),
            "own validation also checkpoints under the original protocol"
        );
    }

    #[test]
    fn blocking_holds_app_messages() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, Event::BlockingStarted);
        assert!(feed(&mut e, from_active(1)).is_empty());
        assert!(!e.dirty_bit(), "held message has not contaminated yet");
        let released = feed(&mut e, Event::BlockingEnded);
        assert_eq!(released.len(), 2);
        assert!(e.dirty_bit());
    }

    #[test]
    fn passed_at_during_blocking_prevents_wrong_contamination_view() {
        // Fig. 6(b): dirty P2 blocking; a passed_AT from the current epoch
        // arrives inside the blocking period and must reset the dirty bit so
        // the TB driver can switch checkpoint contents.
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, from_active(1));
        feed(&mut e, Event::BlockingStarted);
        assert!(e.dirty_bit());
        feed(&mut e, passed_at(1, 0));
        assert!(!e.dirty_bit());
    }

    #[test]
    fn retarget_active_after_takeover_sends_single_copy() {
        let mut e = engine(MdcdConfig::modified());
        e.retarget_active(SDW);
        let actions = feed(&mut e, internal(1));
        let sends = actions.iter().filter(|a| a.is_send()).count();
        assert_eq!(sends, 1, "no shadow remains after takeover");
    }

    #[test]
    fn promoted_clean_sender_does_not_recontaminate() {
        let mut e = engine(MdcdConfig::modified());
        e.retarget_active(SDW);
        let clean = testkit::app(SDW, 1, SELF, 1, false);
        let actions = feed(&mut e, clean);
        assert_eq!(actions.len(), 1, "no checkpoint for a clean message");
        assert!(!e.dirty_bit());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, from_active(5));
        let snap = e.snapshot();
        let mut other = engine(MdcdConfig::modified());
        other.restore(&snap);
        assert_eq!(other.dirty_bit(), e.dirty_bit());
        assert_eq!(other.vr_act(), e.vr_act());
    }

    #[test]
    fn recovery_decision_follows_dirty_bit() {
        let mut e = engine(MdcdConfig::modified());
        assert_eq!(e.recovery_decision(), RecoveryDecision::RollForward);
        feed(&mut e, from_active(1));
        assert_eq!(e.recovery_decision(), RecoveryDecision::RollBack);
    }
}
