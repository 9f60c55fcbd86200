//! The state and the protocol steps the three role engines share
//! (Appendix A, Figs. 8–10). Each rule the roles have in common is written
//! here once; `active.rs`, `shadow.rs` and `peer.rs` keep what differs by
//! role.

use std::cmp::Ordering;

use synergy_net::{CkptSeqNo, Endpoint, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId};

use crate::actions::Action;
use crate::events::{Event, OutboundMessage};
use crate::hold::HoldQueue;
use crate::snapshot::EngineSnapshot;
use crate::types::{CheckpointKind, MdcdConfig, RecoveryDecision, Variant};

/// Sequence-number namespace for control messages (`passed_AT`), disjoint
/// from the application message counter so [`MsgId`]s stay unique without
/// perturbing the replica-aligned application sequence.
pub(crate) const CTRL_SEQ_BASE: u64 = 1 << 63;

/// The control state every role keeps.
#[derive(Clone, Debug, Default)]
pub(crate) struct Core {
    pub(crate) cfg: MdcdConfig,
    id: ProcessId,
    /// The dirty bit; `P1act` holds it at its constant 1.
    pub(crate) dirty: bool,
    pub(crate) msg_sn: MsgSeqNo,
    ctrl_sn: u64,
    /// `VR_act` / `msg_SN_P1act`: the last message of `P1act` known valid
    /// (`P1act` leaves it at 0).
    pub(crate) vr_act: MsgSeqNo,
    ndc: CkptSeqNo,
    pub(crate) hold: HoldQueue,
    pub(crate) at_runs: u64,
}

impl Core {
    pub(crate) fn new(cfg: MdcdConfig, id: ProcessId, dirty: bool) -> Self {
        Core {
            cfg,
            id,
            dirty,
            ..Core::default()
        }
    }

    /// The control state every role checkpoints; roles add their own.
    pub(crate) fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            dirty: self.dirty,
            msg_sn: self.msg_sn,
            vr_act: self.vr_act,
            ndc: self.ndc,
            ..EngineSnapshot::default()
        }
    }

    /// Restores the shared control state (`ndc` excluded; see
    /// [`EngineSnapshot`]) and discards the blocking context.
    pub(crate) fn restore(&mut self, snapshot: &EngineSnapshot) {
        self.dirty = snapshot.dirty;
        self.msg_sn = snapshot.msg_sn;
        self.vr_act = snapshot.vr_act;
        self.hold.reset();
    }

    /// Paper §2.1: dirty → roll back, clean → roll forward.
    pub(crate) fn recovery_decision(&self) -> RecoveryDecision {
        if self.dirty {
            RecoveryDecision::RollBack
        } else {
            RecoveryDecision::RollForward
        }
    }

    /// Numbers the next outgoing message (`msg_SN++`); an internal one
    /// piggybacks the dirty bit (`m = append(m, dirty_bit)`).
    pub(crate) fn number(&mut self, to: Endpoint, payload: Vec<u8>, external: bool) -> Envelope {
        self.msg_sn = self.msg_sn.next();
        let body = if external {
            MessageBody::External { payload }
        } else {
            MessageBody::Application {
                payload,
                dirty: self.dirty,
            }
        };
        let id = MsgId {
            from: self.id,
            seq: self.msg_sn,
        };
        Envelope::new(id, to, body)
    }

    /// A `passed_AT` to `to` vouching for `msg_sn` and carrying the local
    /// `Ndc`, numbered in the control namespace.
    pub(crate) fn passed_at(&mut self, to: ProcessId, msg_sn: MsgSeqNo) -> Action {
        self.ctrl_sn += 1;
        let id = MsgId {
            from: self.id,
            seq: MsgSeqNo(CTRL_SEQ_BASE + self.ctrl_sn),
        };
        let ndc = self.ndc;
        Action::Send(Envelope::new(id, to, MessageBody::PassedAt { msg_sn, ndc }))
    }

    /// Runs `AT(m)` on an external message and reports a failure as a
    /// software error; returns the verdict.
    pub(crate) fn run_at(&mut self, pass: bool, out: &mut Vec<Action>) -> bool {
        self.at_runs += 1;
        out.push(Action::AtPerformed { pass });
        if !pass {
            out.push(Action::SoftwareErrorDetected);
        }
        pass
    }

    /// Admits a `passed_AT`: returns the `msg_sn` it validates, or `None`
    /// when it is dropped or held. Under the modified protocol (paper §3)
    /// a stale `Ndc` is dropped (the Fig. 4(b) hazard), a current one is
    /// read even inside a blocking period, and an early one — the sender
    /// already committed the next epoch — is read while idle and held past
    /// our own commit while blocking. The original protocol holds every
    /// notification during a blocking period and reads it otherwise.
    fn admit(&mut self, msg_sn: MsgSeqNo, ndc: CkptSeqNo, envelope: Envelope) -> Option<MsgSeqNo> {
        match (self.cfg.variant, ndc.cmp(&self.ndc)) {
            (Variant::Modified, Ordering::Less) => None,
            (Variant::Modified, Ordering::Equal) => Some(msg_sn),
            _ if !self.hold.is_blocking() => Some(msg_sn),
            _ => {
                self.hold.hold(Event::Deliver(envelope));
                None
            }
        }
    }
}

/// What a role engine adds to its [`Core`]. The hooks run on an un-halted
/// engine outside a blocking period; the provided methods are the steps
/// more than one role runs.
pub(crate) trait Role {
    fn core(&mut self) -> &mut Core;

    /// A checkpoint of the role's whole control state, as of now.
    fn checkpoint(&self, kind: CheckpointKind) -> Action;

    /// An application send.
    fn send(&mut self, m: OutboundMessage, out: &mut Vec<Action>);

    /// An admitted `passed_AT`: `P1act`'s messages up to `msg_sn` are
    /// valid. At `P1sdw` and `P2`, `VR_act` advances and the dirty bit
    /// clears; the original protocol then takes a Type-2 checkpoint.
    fn validated(&mut self, msg_sn: MsgSeqNo, out: &mut Vec<Action>) {
        self.reclaim(msg_sn);
        let core = self.core();
        core.vr_act = msg_sn;
        core.dirty = false;
        if core.cfg.variant == Variant::Original {
            out.push(self.checkpoint(CheckpointKind::Type2));
        }
    }

    /// Drops what a validation up to `upto` makes unneeded.
    fn reclaim(&mut self, _upto: MsgSeqNo) {}

    /// Notes an application message about to be read.
    fn received(&mut self, _envelope: &Envelope) {}

    /// Whether the engine ignores every event.
    fn halted(&self) -> bool {
        false
    }

    /// One event: application traffic is held during a blocking period and
    /// released in order after it, a `passed_AT` goes through admission,
    /// and a commit sets `Ndc`.
    fn step(&mut self, event: Event, out: &mut Vec<Action>) {
        if self.halted() {
            return;
        }
        let core = self.core();
        match event {
            Event::AppSend(m) if core.hold.is_blocking() => core.hold.hold(Event::AppSend(m)),
            Event::AppSend(m) => self.send(m, out),
            Event::Deliver(envelope) => match &envelope.body {
                MessageBody::PassedAt { msg_sn, ndc } => {
                    if let Some(msg_sn) = core.admit(*msg_sn, *ndc, envelope) {
                        self.validated(msg_sn, out);
                    }
                }
                MessageBody::Application { .. } if core.hold.is_blocking() => {
                    core.hold.hold(Event::Deliver(envelope));
                }
                MessageBody::Application { dirty, .. } => {
                    let dirty = *dirty;
                    self.received(&envelope);
                    self.receive(dirty, envelope, out);
                }
                MessageBody::External { .. } | MessageBody::Ack { .. } => {
                    debug_assert!(false, "driver must not route {envelope} to an MDCD engine");
                }
            },
            Event::BlockingStarted => core.hold.start(),
            Event::BlockingEnded => {
                core.hold.end();
                while let Some(held) = self.core().hold.pop() {
                    self.step(held, out);
                }
            }
            Event::StableCheckpointCommitted(seq) => core.ndc = seq,
        }
    }

    /// Reads an application message: a piggybacked dirty bit contaminates
    /// a clean state, so a Type-1 checkpoint goes first. Fig. 10 tests
    /// only the receiver's bit because `P1act`'s is constantly 1; honouring
    /// the sender's too keeps a promoted (clean) shadow from
    /// re-contaminating the peer, and `P1act`, permanently dirty, never
    /// checkpoints here.
    fn receive(&mut self, m_dirty: bool, envelope: Envelope, out: &mut Vec<Action>) {
        if m_dirty && !self.core().dirty {
            out.push(self.checkpoint(CheckpointKind::Type1));
            self.core().dirty = true;
        }
        out.push(Action::DeliverToApp(envelope));
    }

    /// `P2`'s external send (Fig. 10), which a promoted shadow runs too:
    /// the AT runs only while dirty, and a pass clears the bit (with a
    /// Type-2 checkpoint when `type2`) before the message goes out.
    /// Returns the message's number when it was validated, for the
    /// caller's `passed_AT` broadcast.
    fn send_checked(
        &mut self,
        m: OutboundMessage,
        type2: bool,
        out: &mut Vec<Action>,
    ) -> Option<MsgSeqNo> {
        let validated = self.core().dirty;
        if validated {
            if !self.core().run_at(m.at_pass, out) {
                return None;
            }
            self.core().dirty = false;
            if type2 {
                out.push(self.checkpoint(CheckpointKind::Type2));
            }
        }
        let core = self.core();
        out.push(Action::Send(core.number(m.to, m.payload, true)));
        validated.then_some(core.msg_sn)
    }
}

/// Event builders and a feeder for the engines' unit tests.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;

    /// Feeds `event`, collecting the actions it produces.
    pub(crate) fn feed(engine: &mut dyn Role, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        engine.step(event, &mut out);
        out
    }

    /// The application asks to send `payload`.
    pub(crate) fn send(
        to: impl Into<Endpoint>,
        payload: u8,
        external: bool,
        at_pass: bool,
    ) -> Event {
        Event::AppSend(OutboundMessage {
            to: to.into(),
            payload: vec![payload],
            external,
            at_pass,
        })
    }

    /// Delivers message `seq` from `from` to `to`.
    pub(crate) fn deliver(from: ProcessId, seq: u64, to: ProcessId, body: MessageBody) -> Event {
        let id = MsgId {
            from,
            seq: MsgSeqNo(seq),
        };
        Event::Deliver(Envelope::new(id, to, body))
    }

    /// Delivers a `passed_AT` for `msg_sn` at `ndc`.
    pub(crate) fn passed_at(from: ProcessId, to: ProcessId, msg_sn: u64, ndc: u64) -> Event {
        let body = MessageBody::PassedAt {
            msg_sn: MsgSeqNo(msg_sn),
            ndc: CkptSeqNo(ndc),
        };
        deliver(from, CTRL_SEQ_BASE + 1, to, body)
    }

    /// Delivers application message `seq` carrying `payload`.
    pub(crate) fn app(from: ProcessId, seq: u64, to: ProcessId, payload: u8, dirty: bool) -> Event {
        let payload = vec![payload];
        deliver(from, seq, to, MessageBody::Application { payload, dirty })
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{app, feed, passed_at, send};
    use super::*;
    use crate::{ActiveEngine, PeerEngine, ShadowEngine};

    const ACT: ProcessId = ProcessId(1);
    const SDW: ProcessId = ProcessId(2);
    const PEER: ProcessId = ProcessId(3);
    /// Every engine's `Ndc` when the notification arrives.
    const NDC: u64 = 2;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Outcome {
        Accepted,
        Dropped,
        /// Nothing until `BlockingEnded`, then accepted.
        Held,
    }
    use Outcome::{Accepted, Dropped, Held};

    /// `(case, notification Ndc, blocking, modified, original)`.
    const TABLE: [(&str, u64, bool, Outcome, Outcome); 6] = [
        ("stale", NDC - 1, false, Dropped, Accepted),
        ("stale", NDC - 1, true, Dropped, Held),
        ("same-epoch", NDC, false, Accepted, Accepted),
        ("same-epoch", NDC, true, Accepted, Held),
        ("early", NDC + 1, false, Accepted, Accepted),
        ("early", NDC + 1, true, Held, Held),
    ];

    fn type2(actions: &[Action]) -> bool {
        let is_type2 = |a: &Action| {
            matches!(
                a,
                Action::TakeCheckpoint {
                    kind: CheckpointKind::Type2,
                    ..
                }
            )
        };
        actions.iter().any(is_type2)
    }

    /// Whether `e` has taken a validation: under the modified protocol its
    /// checkpoint bit (`P1act`'s pseudo bit) is clean, under the original
    /// one `actions` hold a Type-2 checkpoint.
    fn validated(e: &dyn Role, variant: Variant, actions: &[Action]) -> bool {
        match (variant, e.checkpoint(CheckpointKind::Type1)) {
            (Variant::Original, _) => type2(actions),
            (Variant::Modified, Action::TakeCheckpoint { engine, .. }) => {
                !engine.pseudo_dirty.unwrap_or(engine.dirty)
            }
            (Variant::Modified, other) => panic!("not a checkpoint: {other:?}"),
        }
    }

    /// The one `passed_AT` admission step, driven through all three roles
    /// under both variants (the original one with `P1act`'s write-through
    /// Type-2 checkpoints, so that its validation shows). Each engine is
    /// first made dirty (`P1act`: pseudo-dirty) at `Ndc` = [`NDC`].
    #[test]
    fn passed_at_admission_is_one_rule_for_every_role_and_variant() {
        for cfg in [MdcdConfig::modified(), MdcdConfig::write_through()] {
            for (case, ndc, blocking, modified, original) in TABLE {
                let roles: [(&str, Box<dyn Role>, Event); 3] = [
                    (
                        "P1act",
                        Box::new(ActiveEngine::new(cfg, ACT, SDW, PEER)),
                        send(PEER, 1, false, true),
                    ),
                    (
                        "P1sdw",
                        Box::new(ShadowEngine::new(cfg, SDW, PEER)),
                        app(PEER, 1, SDW, 1, true),
                    ),
                    (
                        "P2",
                        Box::new(PeerEngine::new(cfg, PEER, ACT, SDW)),
                        app(ACT, 1, PEER, 1, true),
                    ),
                ];
                for (role, mut e, contaminate) in roles {
                    let at = format!(
                        "{:?} {role}: {case} passed_AT, blocking {blocking}",
                        cfg.variant
                    );
                    feed(&mut *e, Event::StableCheckpointCommitted(CkptSeqNo(NDC)));
                    feed(&mut *e, contaminate);
                    assert!(!validated(&*e, cfg.variant, &[]), "{at}: starts dirty");
                    if blocking {
                        feed(&mut *e, Event::BlockingStarted);
                    }
                    let actions = feed(&mut *e, passed_at(ACT, SDW, 1, ndc));
                    let now = validated(&*e, cfg.variant, &actions);
                    let released = match blocking {
                        true => feed(&mut *e, Event::BlockingEnded),
                        false => Vec::new(),
                    };
                    let outcome = match (now, validated(&*e, cfg.variant, &released)) {
                        (true, _) => Accepted,
                        (false, true) => Held,
                        (false, false) => Dropped,
                    };
                    let expected = match cfg.variant {
                        Variant::Modified => modified,
                        Variant::Original => original,
                    };
                    assert_eq!(outcome, expected, "{at}");
                    if cfg.variant == Variant::Modified {
                        let any = type2(&actions) || type2(&released);
                        assert!(!any, "{at}: Type-2 is eliminated");
                    }
                }
            }
        }
    }
}
