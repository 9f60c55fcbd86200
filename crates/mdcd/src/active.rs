//! The error-containment engine of `P1act` (Appendix A, Fig. 8).

use synergy_net::{CkptSeqNo, Endpoint, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId};

use crate::actions::Action;
use crate::events::{Event, OutboundMessage};
use crate::hold::HoldQueue;
use crate::snapshot::EngineSnapshot;
use crate::types::{CheckpointKind, MdcdConfig, Variant};

/// Sequence-number namespace for control messages (`passed_AT`), disjoint
/// from the application message counter so [`MsgId`]s stay unique without
/// perturbing the replica-aligned application sequence.
pub(crate) const CTRL_SEQ_BASE: u64 = 1 << 63;

/// The engine hosted next to the low-confidence active version `P1act`.
///
/// `P1act`'s dirty bit is constantly 1 during guarded operation; under the
/// modified protocol it additionally maintains a *pseudo dirty bit* that is
/// cleared on every validation and set right before the first internal send
/// after a validation, driving its *pseudo checkpoints* (paper §3).
///
/// # Example
///
/// ```rust
/// use synergy_mdcd::{Action, ActiveEngine, Event, MdcdConfig, OutboundMessage};
/// use synergy_net::{DeviceId, Endpoint, ProcessId};
///
/// let mut p1 = ActiveEngine::new(
///     MdcdConfig::modified(),
///     ProcessId(1), // self
///     ProcessId(2), // shadow
///     ProcessId(3), // peer
/// );
/// // First internal send after a validation point: pseudo checkpoint first.
/// let actions = p1.handle(Event::AppSend(OutboundMessage {
///     to: Endpoint::Process(ProcessId(3)),
///     payload: vec![1],
///     external: false,
///     at_pass: true,
/// }));
/// assert!(actions[0].is_checkpoint());
/// assert!(actions[1].is_send());
/// ```
#[derive(Clone, Debug)]
pub struct ActiveEngine {
    cfg: MdcdConfig,
    id: ProcessId,
    shadow: ProcessId,
    peer: ProcessId,
    /// Constantly 1 during guarded operation (paper §3).
    pseudo_dirty: bool,
    msg_sn: MsgSeqNo,
    ctrl_sn: u64,
    ndc: CkptSeqNo,
    hold: HoldQueue,
    halted: bool,
    at_runs: u64,
}

impl ActiveEngine {
    /// Creates the engine for process `id`, escorted by `shadow`, talking to
    /// `peer`.
    pub fn new(cfg: MdcdConfig, id: ProcessId, shadow: ProcessId, peer: ProcessId) -> Self {
        ActiveEngine {
            cfg,
            id,
            shadow,
            peer,
            pseudo_dirty: false,
            msg_sn: MsgSeqNo(0),
            ctrl_sn: 0,
            ndc: CkptSeqNo(0),
            hold: HoldQueue::new(),
            halted: false,
            at_runs: 0,
        }
    }

    /// `P1act`'s dirty bit: constantly 1 during guarded operation.
    pub fn dirty_bit(&self) -> bool {
        true
    }

    /// The pseudo dirty bit (meaningful under [`Variant::Modified`] only).
    pub fn pseudo_dirty_bit(&self) -> bool {
        self.pseudo_dirty
    }

    /// The bit the adapted TB protocol consults when choosing checkpoint
    /// contents for this process (paper §4.2, footnote 2: `P1act` uses its
    /// pseudo dirty bit).
    pub fn checkpoint_bit(&self) -> bool {
        match self.cfg.variant {
            Variant::Modified => self.pseudo_dirty,
            Variant::Original => true,
        }
    }

    /// Current outgoing application sequence number.
    pub fn msg_sn(&self) -> MsgSeqNo {
        self.msg_sn
    }

    /// Whether the engine stopped after a detected software error.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of acceptance tests executed.
    pub fn at_runs(&self) -> u64 {
        self.at_runs
    }

    /// Captures the engine control state for a checkpoint.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            dirty: true,
            pseudo_dirty: Some(self.pseudo_dirty),
            msg_sn: self.msg_sn,
            vr_act: MsgSeqNo(0),
            ndc: self.ndc,
            log: Vec::new(),
            promoted: false,
        }
    }

    /// Restores control state from a checkpoint (`ndc` is deliberately not
    /// restored — see [`EngineSnapshot`]). Blocking context and held traffic
    /// are discarded; the engine resumes un-halted.
    pub fn restore(&mut self, snapshot: &EngineSnapshot) {
        self.pseudo_dirty = snapshot.pseudo_dirty.unwrap_or(false);
        self.msg_sn = snapshot.msg_sn;
        self.hold.reset();
        self.halted = false;
    }

    /// Feeds one event, returning the actions for the driver to execute in
    /// order: [`handle_into`](Self::handle_into) over a fresh vector.
    pub fn handle(&mut self, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        self.handle_into(event, &mut out);
        out
    }

    /// Feeds one event, appending the actions for the driver to execute, in
    /// order, to `out` — a driver that keeps one buffer pays for no vector
    /// per event.
    pub fn handle_into(&mut self, event: Event, out: &mut Vec<Action>) {
        if self.halted {
            return;
        }
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

    fn send_external(&mut self, m: OutboundMessage, out: &mut Vec<Action>) {
        self.at_runs += 1;
        out.push(Action::AtPerformed { pass: m.at_pass });
        if !m.at_pass {
            // `error_recovery(P1sdw, P2); exit(error)`
            self.halted = true;
            out.push(Action::SoftwareErrorDetected);
            return;
        }
        if self.cfg.variant == Variant::Modified {
            self.pseudo_dirty = false;
        } else if self.cfg.active_type2 {
            // Write-through baseline: P1act takes a Type-2 checkpoint on its
            // own validation so it, too, has something to persist.
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
        // Broadcast `passed_AT` with the validated sequence number and the
        // local Ndc.
        for dest in [self.shadow, self.peer] {
            out.push(Action::Send(self.passed_at(dest)));
        }
    }

    fn send_internal(&mut self, m: OutboundMessage, out: &mut Vec<Action>) {
        if self.cfg.variant == Variant::Modified && !self.pseudo_dirty {
            // First internal message since the last validation: establish the
            // pseudo checkpoint *before* the send so it is consistent with
            // the Type-1 checkpoint the receiver takes before reading it.
            out.push(Action::TakeCheckpoint {
                kind: CheckpointKind::Pseudo,
                engine: self.snapshot(),
            });
            self.pseudo_dirty = true;
        }
        self.msg_sn = self.msg_sn.next();
        out.push(Action::Send(Envelope::new(
            MsgId {
                from: self.id,
                seq: self.msg_sn,
            },
            m.to,
            MessageBody::Application {
                payload: m.payload,
                // `m = append(m, dirty_bit)` — constantly 1 for P1act.
                dirty: true,
            },
        )));
    }

    fn deliver(&mut self, envelope: Envelope, out: &mut Vec<Action>) {
        match &envelope.body {
            MessageBody::PassedAt { ndc, .. } => {
                match self.cfg.variant {
                    Variant::Modified => {
                        if *ndc == self.ndc || (*ndc > self.ndc && !self.hold.is_blocking()) {
                            // Same epoch, or an early notification from a
                            // sender that already committed while we are
                            // idle: knowledge update only, nothing to
                            // wrongly adjust.
                            self.pseudo_dirty = false;
                        } else if *ndc > self.ndc {
                            // Early notification during our blocking period:
                            // it belongs to the next epoch — defer past the
                            // commit rather than losing the validation.
                            self.hold.hold(Event::Deliver(envelope));
                        }
                        // *ndc < self.ndc: a stale in-transit notification
                        // (the Fig. 4(b) hazard) — dropped.
                    }
                    Variant::Original => {
                        if self.hold.is_blocking() {
                            self.hold.hold(Event::Deliver(envelope));
                        } else if self.cfg.active_type2 {
                            out.push(Action::TakeCheckpoint {
                                kind: CheckpointKind::Type2,
                                engine: self.snapshot(),
                            });
                        }
                    }
                }
            }
            MessageBody::Application { .. } => {
                if self.hold.is_blocking() {
                    self.hold.hold(Event::Deliver(envelope));
                } else {
                    // P1act is permanently dirty; reception never changes
                    // confidence, so no checkpoint is needed.
                    out.push(Action::DeliverToApp(envelope));
                }
            }
            MessageBody::External { .. } | MessageBody::Ack { .. } => {
                debug_assert!(false, "driver must not route {envelope} to an MDCD engine");
            }
        }
    }

    fn passed_at(&mut self, to: ProcessId) -> Envelope {
        self.ctrl_sn += 1;
        Envelope::new(
            MsgId {
                from: self.id,
                seq: MsgSeqNo(CTRL_SEQ_BASE + self.ctrl_sn),
            },
            Endpoint::Process(to),
            MessageBody::PassedAt {
                msg_sn: self.msg_sn,
                ndc: self.ndc,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SELF: ProcessId = ProcessId(1);
    const SHADOW: ProcessId = ProcessId(2);
    const PEER: ProcessId = ProcessId(3);

    fn engine(cfg: MdcdConfig) -> ActiveEngine {
        ActiveEngine::new(cfg, SELF, SHADOW, PEER)
    }

    fn internal(payload: u8) -> Event {
        Event::AppSend(OutboundMessage {
            to: Endpoint::Process(PEER),
            payload: vec![payload],
            external: false,
            at_pass: true,
        })
    }

    fn external(pass: bool) -> Event {
        Event::AppSend(OutboundMessage {
            to: Endpoint::Device(synergy_net::DeviceId(0)),
            payload: vec![0xEE],
            external: true,
            at_pass: pass,
        })
    }

    fn passed_at(ndc: u64, sn: u64) -> Event {
        Event::Deliver(Envelope::new(
            MsgId {
                from: PEER,
                seq: MsgSeqNo(CTRL_SEQ_BASE + 99),
            },
            SELF,
            MessageBody::PassedAt {
                msg_sn: MsgSeqNo(sn),
                ndc: CkptSeqNo(ndc),
            },
        ))
    }

    #[test]
    fn pseudo_checkpoint_only_before_first_internal_send() {
        let mut e = engine(MdcdConfig::modified());
        assert!(!e.pseudo_dirty_bit());
        let first = e.handle(internal(1));
        assert!(matches!(
            first[0],
            Action::TakeCheckpoint {
                kind: CheckpointKind::Pseudo,
                ..
            }
        ));
        assert!(e.pseudo_dirty_bit());
        // Second internal send: no new checkpoint.
        let second = e.handle(internal(2));
        assert_eq!(second.len(), 1);
        assert!(second[0].is_send());
    }

    #[test]
    fn pseudo_checkpoint_snapshot_predates_the_send() {
        let mut e = engine(MdcdConfig::modified());
        let actions = e.handle(internal(1));
        match &actions[0] {
            Action::TakeCheckpoint { engine, .. } => {
                assert_eq!(engine.pseudo_dirty, Some(false), "snapshot is pre-send");
                assert_eq!(engine.msg_sn, MsgSeqNo(0));
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
        assert_eq!(e.msg_sn(), MsgSeqNo(1));
    }

    #[test]
    fn at_pass_resets_pseudo_bit_and_broadcasts() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(internal(1));
        assert!(e.pseudo_dirty_bit());
        let actions = e.handle(external(true));
        assert!(matches!(actions[0], Action::AtPerformed { pass: true }));
        assert!(!e.pseudo_dirty_bit());
        let sends: Vec<&Envelope> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(env) => Some(env),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 3, "device message + 2 passed_AT");
        let passed: Vec<_> = sends.iter().filter(|s| s.body.is_passed_at()).collect();
        assert_eq!(passed.len(), 2);
        // passed_AT carries the post-increment msg_SN covering the external
        // message just validated.
        for p in passed {
            match p.body {
                MessageBody::PassedAt { msg_sn, ndc } => {
                    assert_eq!(msg_sn, MsgSeqNo(2));
                    assert_eq!(ndc, CkptSeqNo(0));
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn at_failure_halts_and_reports() {
        let mut e = engine(MdcdConfig::modified());
        let actions = e.handle(external(false));
        assert!(actions.contains(&Action::SoftwareErrorDetected));
        assert!(e.is_halted());
        assert!(e.handle(internal(1)).is_empty(), "halted engine is inert");
    }

    #[test]
    fn passed_at_with_matching_ndc_resets_pseudo_bit() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(internal(1));
        assert!(e.pseudo_dirty_bit());
        e.handle(passed_at(0, 1));
        assert!(!e.pseudo_dirty_bit());
    }

    #[test]
    fn passed_at_with_stale_ndc_is_ignored() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(Event::StableCheckpointCommitted(CkptSeqNo(2)));
        e.handle(internal(1));
        e.handle(passed_at(1, 1)); // stale epoch
        assert!(e.pseudo_dirty_bit());
        e.handle(passed_at(2, 1)); // current epoch
        assert!(!e.pseudo_dirty_bit());
    }

    #[test]
    fn app_messages_held_during_blocking_passed_at_processed() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(internal(1));
        e.handle(Event::BlockingStarted);
        let app = Envelope::new(
            MsgId {
                from: PEER,
                seq: MsgSeqNo(1),
            },
            SELF,
            MessageBody::Application {
                payload: vec![7],
                dirty: false,
            },
        );
        assert!(e.handle(Event::Deliver(app.clone())).is_empty(), "held");
        // passed_AT flows through the blockade (Table 1: all but passed_AT).
        e.handle(passed_at(0, 1));
        assert!(!e.pseudo_dirty_bit());
        let released = e.handle(Event::BlockingEnded);
        assert_eq!(released, vec![Action::DeliverToApp(app)]);
    }

    #[test]
    fn original_variant_blocks_even_passed_at() {
        let mut e = engine(MdcdConfig::write_through());
        e.handle(Event::BlockingStarted);
        assert!(
            e.handle(passed_at(0, 1)).is_empty(),
            "held under original TB"
        );
        let released = e.handle(Event::BlockingEnded);
        assert!(
            matches!(
                released[0],
                Action::TakeCheckpoint {
                    kind: CheckpointKind::Type2,
                    ..
                }
            ),
            "write-through P1act takes a Type-2 checkpoint once unblocked"
        );
    }

    #[test]
    fn original_variant_never_takes_pseudo_checkpoints() {
        let mut e = engine(MdcdConfig::original());
        let actions = e.handle(internal(1));
        assert_eq!(actions.len(), 1);
        assert!(actions[0].is_send());
        assert!(e.checkpoint_bit(), "original P1act is always dirty for TB");
    }

    #[test]
    fn sequence_numbers_count_internal_and_external_sends() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(internal(1));
        e.handle(external(true));
        e.handle(internal(2));
        assert_eq!(e.msg_sn(), MsgSeqNo(3));
        assert_eq!(e.at_runs(), 1);
    }

    #[test]
    fn restore_resets_control_state_but_not_ndc() {
        let mut e = engine(MdcdConfig::modified());
        e.handle(Event::StableCheckpointCommitted(CkptSeqNo(5)));
        let actions = e.handle(internal(1));
        let snap = match &actions[0] {
            Action::TakeCheckpoint { engine, .. } => engine.clone(),
            _ => panic!("expected checkpoint"),
        };
        e.handle(internal(2));
        e.restore(&snap);
        assert!(!e.pseudo_dirty_bit());
        assert_eq!(e.msg_sn(), MsgSeqNo(0));
        // Ndc survives the rollback: next matching passed_AT still works.
        e.handle(internal(1));
        e.handle(passed_at(5, 1));
        assert!(!e.pseudo_dirty_bit());
    }

    #[test]
    fn dirty_bit_is_constant_one() {
        let mut e = engine(MdcdConfig::modified());
        assert!(e.dirty_bit());
        e.handle(passed_at(0, 1));
        assert!(e.dirty_bit(), "validation clears pseudo bit, not dirty bit");
    }
}
