//! The error-containment engine of `P2` (Appendix A, Fig. 10).

use synergy_net::{CkptSeqNo, Endpoint, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId};

use crate::actions::Action;
use crate::active::CTRL_SEQ_BASE;
use crate::events::{Event, OutboundMessage};
use crate::hold::HoldQueue;
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
/// let actions = p2.handle(Event::Deliver(Envelope::new(
///     MsgId { from: ProcessId(1), seq: MsgSeqNo(1) },
///     ProcessId(3),
///     MessageBody::Application { payload: vec![1], dirty: true },
/// )));
/// assert!(actions[0].is_checkpoint());
/// assert!(p2.dirty_bit());
/// ```
#[derive(Clone, Debug)]
pub struct PeerEngine {
    cfg: MdcdConfig,
    id: ProcessId,
    active: ProcessId,
    shadow: ProcessId,
    dirty: bool,
    msg_sn: MsgSeqNo,
    ctrl_sn: u64,
    /// `msg_SN_P1act`: last message sequence number received from (or
    /// validated for) the active process.
    vr_act: MsgSeqNo,
    ndc: CkptSeqNo,
    hold: HoldQueue,
    at_runs: u64,
}

impl PeerEngine {
    /// Creates the engine for process `id`, interacting with the `active`
    /// process and its `shadow`.
    pub fn new(cfg: MdcdConfig, id: ProcessId, active: ProcessId, shadow: ProcessId) -> Self {
        PeerEngine {
            cfg,
            id,
            active,
            shadow,
            dirty: false,
            msg_sn: MsgSeqNo(0),
            ctrl_sn: 0,
            vr_act: MsgSeqNo(0),
            ndc: CkptSeqNo(0),
            hold: HoldQueue::new(),
            at_runs: 0,
        }
    }

    /// `P2`'s dirty bit.
    pub fn dirty_bit(&self) -> bool {
        self.dirty
    }

    /// The bit the adapted TB protocol consults for checkpoint contents.
    pub fn checkpoint_bit(&self) -> bool {
        self.dirty
    }

    /// `msg_SN_P1act`: the peer's record of the active process's sequence.
    pub fn vr_act(&self) -> MsgSeqNo {
        self.vr_act
    }

    /// Number of acceptance tests executed.
    pub fn at_runs(&self) -> u64 {
        self.at_runs
    }

    /// Retargets the engine at a new active process (shadow takeover): the
    /// promoted shadow becomes the active endpoint and no shadow remains.
    pub fn retarget_active(&mut self, new_active: ProcessId) {
        self.active = new_active;
        self.shadow = new_active;
    }

    /// The local recovery decision when a software error is detected.
    pub fn recovery_decision(&self) -> RecoveryDecision {
        if self.dirty {
            RecoveryDecision::RollBack
        } else {
            RecoveryDecision::RollForward
        }
    }

    /// Captures the engine control state for a checkpoint.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            dirty: self.dirty,
            pseudo_dirty: None,
            msg_sn: self.msg_sn,
            vr_act: self.vr_act,
            ndc: self.ndc,
            log: Vec::new(),
            promoted: false,
        }
    }

    /// Restores control state from a checkpoint (`ndc` excluded; see
    /// [`EngineSnapshot`]).
    pub fn restore(&mut self, snapshot: &EngineSnapshot) {
        self.dirty = snapshot.dirty;
        self.msg_sn = snapshot.msg_sn;
        self.vr_act = snapshot.vr_act;
        self.hold.reset();
    }

    /// Feeds one event, returning the actions to execute in order:
    /// [`handle_into`](Self::handle_into) over a fresh vector.
    pub fn handle(&mut self, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        self.handle_into(event, &mut out);
        out
    }

    /// Feeds one event, appending the actions to execute, in order, to
    /// `out`.
    pub fn handle_into(&mut self, event: Event, out: &mut Vec<Action>) {
        match event {
            Event::AppSend(m) => {
                if self.hold.is_blocking() {
                    self.hold.hold(Event::AppSend(m));
                } else if m.external {
                    self.send_external(m, out);
                } else {
                    self.send_internal(m, out);
                }
            }
            Event::Deliver(envelope) => self.deliver(envelope, out),
            Event::BlockingStarted => self.hold.start(),
            Event::BlockingEnded => {
                self.hold.end();
                while let Some(held) = self.hold.pop() {
                    self.handle_into(held, out);
                }
            }
            Event::StableCheckpointCommitted(seq) => self.ndc = seq,
        }
    }

    /// Both replicas of `P1`, or the one that is left after a takeover.
    fn replicas(&self) -> impl Iterator<Item = ProcessId> {
        let shadow = (self.shadow != self.active).then_some(self.shadow);
        std::iter::once(self.active).chain(shadow)
    }

    fn send_external(&mut self, m: OutboundMessage, out: &mut Vec<Action>) {
        if self.dirty {
            self.at_runs += 1;
            out.push(Action::AtPerformed { pass: m.at_pass });
            if !m.at_pass {
                out.push(Action::SoftwareErrorDetected);
                return;
            }
            self.dirty = false;
            if self.cfg.variant == Variant::Original {
                // Original protocol: validation establishes a Type-2
                // checkpoint at the validating process too.
                out.push(Action::TakeCheckpoint {
                    kind: CheckpointKind::Type2,
                    engine: self.snapshot(),
                });
            }
            self.msg_sn = self.msg_sn.next();
            out.push(Action::Send(Envelope::new(
                MsgId {
                    from: self.id,
                    seq: self.msg_sn,
                },
                m.to,
                MessageBody::External { payload: m.payload },
            )));
            // Broadcast passed_AT carrying *P1act's* validated sequence
            // number: P2 passing its AT vouches for every message it has
            // received from P1act (key assumption, paper §2.1).
            for dest in self.replicas() {
                self.ctrl_sn += 1;
                out.push(Action::Send(Envelope::new(
                    MsgId {
                        from: self.id,
                        seq: MsgSeqNo(CTRL_SEQ_BASE + self.ctrl_sn),
                    },
                    Endpoint::Process(dest),
                    MessageBody::PassedAt {
                        msg_sn: self.vr_act,
                        ndc: self.ndc,
                    },
                )));
            }
        } else {
            // Outgoing message from a clean state: no AT needed.
            self.msg_sn = self.msg_sn.next();
            out.push(Action::Send(Envelope::new(
                MsgId {
                    from: self.id,
                    seq: self.msg_sn,
                },
                m.to,
                MessageBody::External { payload: m.payload },
            )));
        }
    }

    fn send_internal(&mut self, m: OutboundMessage, out: &mut Vec<Action>) {
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
            self.msg_sn = self.msg_sn.next();
            out.push(Action::Send(Envelope::new(
                MsgId {
                    from: self.id,
                    seq: self.msg_sn,
                },
                Endpoint::Process(dest),
                MessageBody::Application {
                    payload,
                    dirty: self.dirty,
                },
            )));
        }
    }

    fn deliver(&mut self, envelope: Envelope, out: &mut Vec<Action>) {
        match &envelope.body {
            MessageBody::PassedAt { msg_sn, ndc } => {
                if self.cfg.variant == Variant::Original {
                    if self.hold.is_blocking() {
                        self.hold.hold(Event::Deliver(envelope));
                        return;
                    }
                    self.vr_act = *msg_sn;
                    self.dirty = false;
                    out.push(Action::TakeCheckpoint {
                        kind: CheckpointKind::Type2,
                        engine: self.snapshot(),
                    });
                    return;
                }
                // Same-epoch or early-while-idle notifications are
                // accepted; early-while-blocking ones are deferred past the
                // commit; stale ones (Fig. 4(b)) are dropped.
                if *ndc == self.ndc || (*ndc > self.ndc && !self.hold.is_blocking()) {
                    self.vr_act = *msg_sn;
                    self.dirty = false;
                } else if *ndc > self.ndc {
                    self.hold.hold(Event::Deliver(envelope));
                }
            }
            MessageBody::Application { dirty: m_dirty, .. } => {
                if self.hold.is_blocking() {
                    self.hold.hold(Event::Deliver(envelope));
                    return;
                }
                self.vr_act = envelope.id.seq;
                // Fig. 10 tests only `dirty_bit == 0` because P1act's
                // piggybacked bit is constantly 1; we also honour the
                // piggybacked bit so a promoted (clean) shadow does not
                // re-contaminate the peer.
                if *m_dirty && !self.dirty {
                    out.push(Action::TakeCheckpoint {
                        kind: CheckpointKind::Type1,
                        engine: self.snapshot(),
                    });
                    self.dirty = true;
                }
                out.push(Action::DeliverToApp(envelope));
            }
            MessageBody::External { .. } | MessageBody::Ack { .. } => {
                debug_assert!(false, "driver must not route {envelope} to an MDCD engine");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_net::DeviceId;

    const SELF: ProcessId = ProcessId(3);
    const ACT: ProcessId = ProcessId(1);
    const SDW: ProcessId = ProcessId(2);

    fn engine(cfg: MdcdConfig) -> PeerEngine {
        PeerEngine::new(cfg, SELF, ACT, SDW)
    }

    fn from_active(seq: u64) -> Event {
        Event::Deliver(Envelope::new(
            MsgId {
                from: ACT,
                seq: MsgSeqNo(seq),
            },
            SELF,
            MessageBody::Application {
                payload: vec![9],
                dirty: true,
            },
        ))
    }

    fn external(pass: bool) -> Event {
        Event::AppSend(OutboundMessage {
            to: Endpoint::Device(DeviceId(0)),
            payload: vec![0xAA],
            external: true,
            at_pass: pass,
        })
    }

    fn internal(payload: u8) -> Event {
        Event::AppSend(OutboundMessage {
            to: Endpoint::Process(ACT),
            payload: vec![payload],
            external: false,
            at_pass: true,
        })
    }

    fn passed_at(sn: u64, ndc: u64) -> Event {
        Event::Deliver(Envelope::new(
            MsgId {
                from: ACT,
                seq: MsgSeqNo(CTRL_SEQ_BASE + 1),
            },
            SELF,
            MessageBody::PassedAt {
                msg_sn: MsgSeqNo(sn),
                ndc: CkptSeqNo(ndc),
            },
        ))
    }

    #[test]
    fn internal_sends_broadcast_to_both_replicas() {
        let mut e = engine(MdcdConfig::modified());
        let actions = e.handle(internal(1));
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
        let actions = e.handle(from_active(4));
        assert!(actions[0].is_checkpoint());
        assert!(e.dirty_bit());
        assert_eq!(e.vr_act(), MsgSeqNo(4));
    }

    #[test]
    fn clean_external_send_skips_at() {
        let mut e = engine(MdcdConfig::modified());
        let actions = e.handle(external(true));
        assert_eq!(actions.len(), 1);
        assert!(actions[0].is_send());
        assert_eq!(e.at_runs(), 0);
    }

    #[test]
    fn dirty_external_send_runs_at_and_vouches_for_active() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(from_active(7));
        let actions = e.handle(external(true));
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
        e.handle(from_active(1));
        let actions = e.handle(external(false));
        assert!(actions.contains(&Action::SoftwareErrorDetected));
        assert!(e.dirty_bit(), "failed AT leaves the state contaminated");
    }

    #[test]
    fn passed_at_ndc_guard_drops_stale_accepts_current_and_early() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(Event::StableCheckpointCommitted(CkptSeqNo(2)));
        e.handle(from_active(1));
        // Stale epoch: dropped (Fig. 4(b) protection).
        e.handle(passed_at(3, 1));
        assert!(e.dirty_bit());
        // Current epoch: accepted.
        e.handle(passed_at(3, 2));
        assert!(!e.dirty_bit());
        assert_eq!(e.vr_act(), MsgSeqNo(3));
        // Early epoch while idle: accepted (knowledge update only).
        e.handle(from_active(4));
        e.handle(passed_at(4, 5));
        assert!(!e.dirty_bit());
    }

    #[test]
    fn early_passed_at_during_blocking_is_deferred() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(from_active(1));
        e.handle(Event::BlockingStarted);
        e.handle(passed_at(1, 1));
        assert!(e.dirty_bit(), "in-flight epoch must not be adjusted");
        e.handle(Event::StableCheckpointCommitted(CkptSeqNo(1)));
        e.handle(Event::BlockingEnded);
        assert!(!e.dirty_bit());
    }

    #[test]
    fn original_variant_type2_on_passed_at() {
        let mut e = engine(MdcdConfig::original());
        e.handle(from_active(1));
        let actions = e.handle(passed_at(1, 42));
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
        e.handle(from_active(1));
        let actions = e.handle(external(true));
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
        e.handle(Event::BlockingStarted);
        assert!(e.handle(from_active(1)).is_empty());
        assert!(!e.dirty_bit(), "held message has not contaminated yet");
        let released = e.handle(Event::BlockingEnded);
        assert_eq!(released.len(), 2);
        assert!(e.dirty_bit());
    }

    #[test]
    fn passed_at_during_blocking_prevents_wrong_contamination_view() {
        // Fig. 6(b): dirty P2 blocking; a passed_AT from the current epoch
        // arrives inside the blocking period and must reset the dirty bit so
        // the TB driver can switch checkpoint contents.
        let mut e = engine(MdcdConfig::modified());
        e.handle(from_active(1));
        e.handle(Event::BlockingStarted);
        assert!(e.dirty_bit());
        e.handle(passed_at(1, 0));
        assert!(!e.dirty_bit());
    }

    #[test]
    fn retarget_active_after_takeover_sends_single_copy() {
        let mut e = engine(MdcdConfig::modified());
        e.retarget_active(SDW);
        let actions = e.handle(internal(1));
        let sends = actions.iter().filter(|a| a.is_send()).count();
        assert_eq!(sends, 1, "no shadow remains after takeover");
    }

    #[test]
    fn promoted_clean_sender_does_not_recontaminate() {
        let mut e = engine(MdcdConfig::modified());
        e.retarget_active(SDW);
        let clean = Event::Deliver(Envelope::new(
            MsgId {
                from: SDW,
                seq: MsgSeqNo(1),
            },
            SELF,
            MessageBody::Application {
                payload: vec![1],
                dirty: false,
            },
        ));
        let actions = e.handle(clean);
        assert_eq!(actions.len(), 1, "no checkpoint for a clean message");
        assert!(!e.dirty_bit());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(from_active(5));
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
        e.handle(from_active(1));
        assert_eq!(e.recovery_decision(), RecoveryDecision::RollBack);
    }
}
