//! The error-containment engine of `P1act` (Appendix A, Fig. 8).

use synergy_net::{MsgSeqNo, ProcessId};

use crate::actions::Action;
use crate::events::{Event, OutboundMessage};
use crate::shared::{Core, Role};
use crate::snapshot::EngineSnapshot;
use crate::types::{CheckpointKind, MdcdConfig, Variant};

/// The engine hosted next to the low-confidence active version `P1act`.
///
/// `P1act`'s dirty bit is constantly 1 during guarded operation; under the
/// modified protocol it additionally keeps a *validated horizon*, the
/// highest of its sequence numbers known valid, and its *pseudo dirty bit*
/// is `msg_sn > horizon` (paper §3). A *pseudo checkpoint* precedes every
/// internal send: the one taken while clean starts the recovery line, the
/// later ones are kept so that a `passed_AT` vouching for only part of the
/// sends can move the line to the checkpoint taken at its horizon.
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
/// // An internal send: pseudo checkpoint first.
/// let mut actions = Vec::new();
/// p1.handle_into(
///     Event::AppSend(OutboundMessage {
///         to: Endpoint::Process(ProcessId(3)),
///         payload: vec![1],
///         external: false,
///         at_pass: true,
///     }),
///     &mut actions,
/// );
/// assert!(actions[0].is_checkpoint());
/// assert!(actions[1].is_send());
/// ```
#[derive(Clone, Debug)]
pub struct ActiveEngine {
    core: Core,
    shadow: ProcessId,
    peer: ProcessId,
    horizon: MsgSeqNo,
    halted: bool,
}

impl ActiveEngine {
    /// Creates the engine for process `id`, escorted by `shadow`, talking to
    /// `peer`.
    pub fn new(cfg: MdcdConfig, id: ProcessId, shadow: ProcessId, peer: ProcessId) -> Self {
        ActiveEngine {
            core: Core::new(cfg, id, true),
            shadow,
            peer,
            horizon: MsgSeqNo(0),
            halted: false,
        }
    }

    /// `P1act`'s dirty bit: constantly 1 during guarded operation.
    pub fn dirty_bit(&self) -> bool {
        true
    }

    /// The pseudo dirty bit, `msg_sn > horizon` (meaningful under
    /// [`Variant::Modified`] only, and 0 under the original protocol).
    pub fn pseudo_dirty_bit(&self) -> bool {
        self.core.cfg.variant == Variant::Modified && self.core.msg_sn > self.horizon
    }

    /// The validated horizon: every send up to it is known valid. While
    /// the engine is pseudo-dirty, its recovery line is the pseudo
    /// checkpoint taken at this `msg_sn`, before send `horizon + 1`.
    pub fn horizon(&self) -> MsgSeqNo {
        self.horizon
    }

    /// The bit the adapted TB protocol consults when choosing checkpoint
    /// contents for this process (paper §4.2, footnote 2: `P1act` uses its
    /// pseudo dirty bit).
    pub fn checkpoint_bit(&self) -> bool {
        match self.core.cfg.variant {
            Variant::Modified => self.pseudo_dirty_bit(),
            Variant::Original => true,
        }
    }

    /// Current outgoing application sequence number.
    pub fn msg_sn(&self) -> MsgSeqNo {
        self.core.msg_sn
    }

    /// Whether the engine stopped after a detected software error.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of acceptance tests executed.
    pub fn at_runs(&self) -> u64 {
        self.core.at_runs
    }

    /// Captures the engine control state for a checkpoint, the pseudo
    /// dirty bit derived from the horizon.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            pseudo_dirty: Some(self.pseudo_dirty_bit()),
            ..self.core.snapshot()
        }
    }

    /// Restores control state from a checkpoint (`ndc` is deliberately not
    /// restored — see [`EngineSnapshot`]). A restored state is a recovery
    /// line, so the horizon is its `msg_sn`. Blocking context and held
    /// traffic are discarded; the engine resumes un-halted.
    pub fn restore(&mut self, snapshot: &EngineSnapshot) {
        self.core.restore(snapshot);
        self.core.dirty = true; // even from the initial state's snapshot
        self.horizon = snapshot.msg_sn;
        self.halted = false;
    }

    /// Feeds one event, appending the actions for the driver to execute, in
    /// order, to `out` — a driver that keeps one buffer pays for no vector
    /// per event.
    pub fn handle_into(&mut self, event: Event, out: &mut Vec<Action>) {
        self.step(event, out);
    }
}

impl Role for ActiveEngine {
    fn core(&mut self) -> &mut Core {
        &mut self.core
    }

    fn checkpoint(&self, kind: CheckpointKind) -> Action {
        Action::TakeCheckpoint {
            kind,
            engine: self.snapshot(),
        }
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn send(&mut self, m: OutboundMessage, out: &mut Vec<Action>) {
        if m.external {
            if !self.core.run_at(m.at_pass, out) {
                // `error_recovery(P1sdw, P2); exit(error)`
                self.halted = true;
                return;
            }
            self.validated(self.core.msg_sn, out);
            out.push(Action::Send(self.core.number(m.to, m.payload, true)));
            if self.core.cfg.variant == Variant::Modified {
                // The AT vouches for the external message too.
                self.horizon = self.core.msg_sn;
            }
            // Broadcast `passed_AT` with the validated sequence number and
            // the local Ndc.
            for dest in [self.shadow, self.peer] {
                out.push(self.core.passed_at(dest, self.core.msg_sn));
            }
            return;
        }
        if self.core.cfg.variant == Variant::Modified {
            // The pseudo checkpoint goes *before* the send, so it is
            // consistent with the Type-1 checkpoint the receiver takes
            // before reading it; one before each send gives every horizon
            // a `passed_AT` may name its line.
            out.push(self.checkpoint(CheckpointKind::Pseudo));
        }
        out.push(Action::Send(self.core.number(m.to, m.payload, false)));
    }

    /// A validation — its own AT passing or an admitted `passed_AT` —
    /// moves the horizon up to the vouched `msg_sn` (never past the
    /// engine's own); one at or below the horizon changes nothing. The
    /// dirty bit stays 1. The write-through baseline instead takes a
    /// Type-2 checkpoint, so `P1act`, too, has something to persist.
    fn validated(&mut self, msg_sn: MsgSeqNo, out: &mut Vec<Action>) {
        if self.core.cfg.variant == Variant::Modified {
            self.horizon = self.horizon.max(msg_sn.min(self.core.msg_sn));
        } else if self.core.cfg.active_type2 {
            out.push(self.checkpoint(CheckpointKind::Type2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::testkit::{self, feed};
    use synergy_net::{CkptSeqNo, Envelope, MessageBody};

    const SELF: ProcessId = ProcessId(1);
    const SHADOW: ProcessId = ProcessId(2);
    const PEER: ProcessId = ProcessId(3);

    fn engine(cfg: MdcdConfig) -> ActiveEngine {
        ActiveEngine::new(cfg, SELF, SHADOW, PEER)
    }

    fn internal(payload: u8) -> Event {
        testkit::send(PEER, payload, false, true)
    }

    fn external(pass: bool) -> Event {
        testkit::send(synergy_net::DeviceId(0), 0xEE, true, pass)
    }

    fn passed_at(ndc: u64, sn: u64) -> Event {
        testkit::passed_at(PEER, SELF, sn, ndc)
    }

    /// The `msg_sn` and pseudo bit of the pseudo checkpoint `actions`
    /// open with.
    fn pseudo(actions: &[Action]) -> (MsgSeqNo, Option<bool>) {
        match &actions[0] {
            Action::TakeCheckpoint {
                kind: CheckpointKind::Pseudo,
                engine,
            } => (engine.msg_sn, engine.pseudo_dirty),
            other => panic!("expected a pseudo checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn pseudo_checkpoint_snapshot_predates_the_send() {
        let mut e = engine(MdcdConfig::modified());
        let actions = feed(&mut e, internal(1));
        assert_eq!(pseudo(&actions), (MsgSeqNo(0), Some(false)), "pre-send");
        assert_eq!(e.msg_sn(), MsgSeqNo(1));
    }

    #[test]
    fn a_pseudo_checkpoint_precedes_every_internal_send() {
        let mut e = engine(MdcdConfig::modified());
        assert!(!e.pseudo_dirty_bit());
        // The first one is of a clean state and starts the line (above);
        // the next ones reflect unvalidated sends and are kept behind it.
        feed(&mut e, internal(1));
        assert!(e.pseudo_dirty_bit());
        for sn in 1..3 {
            let next = feed(&mut e, internal(2));
            assert_eq!(next.len(), 2);
            assert_eq!(pseudo(&next), (MsgSeqNo(sn), Some(true)));
            assert!(next[1].is_send());
        }
        assert_eq!(e.horizon(), MsgSeqNo(0));
    }

    /// ROADMAP item 0's crossing: `P2` vouches for `sn1` while `P1act` has
    /// sent up to `sn3`. The engine stays pseudo-dirty, and its line is the
    /// checkpoint taken before `sn2`, whose snapshot is at `sn1`.
    #[test]
    fn a_passed_at_below_msg_sn_moves_the_line_and_stays_pseudo_dirty() {
        let mut e = engine(MdcdConfig::modified());
        let checkpoints: Vec<_> = (1..=3)
            .map(|p| pseudo(&feed(&mut e, internal(p))))
            .collect();
        assert!(feed(&mut e, passed_at(0, 1)).is_empty());
        assert!(e.pseudo_dirty_bit(), "sn2 and sn3 are still unvalidated");
        assert_eq!(e.horizon(), MsgSeqNo(1));
        let line = checkpoints.iter().find(|(sn, _)| *sn == e.horizon());
        assert_eq!(line, Some(&(MsgSeqNo(1), Some(true))), "taken before sn2");
        // A notice at or below the horizon changes nothing.
        for stale in [1, 0] {
            feed(&mut e, passed_at(0, stale));
            assert_eq!(e.horizon(), MsgSeqNo(1), "passed_AT({stale})");
            assert!(e.pseudo_dirty_bit());
        }
        // One that covers the engine's own msg_sn clears the bit; so does
        // its own AT pass, which also vouches for the external message.
        feed(&mut e, passed_at(0, 3));
        assert!(!e.pseudo_dirty_bit());
        feed(&mut e, internal(4));
        feed(&mut e, external(true));
        assert_eq!((e.msg_sn(), e.horizon()), (MsgSeqNo(5), MsgSeqNo(5)));
        assert!(!e.pseudo_dirty_bit());
        // A notice can never vouch past the engine's own numbering.
        feed(&mut e, internal(5));
        feed(&mut e, passed_at(0, 99));
        assert_eq!(e.horizon(), MsgSeqNo(6));
    }

    #[test]
    fn at_pass_resets_pseudo_bit_and_broadcasts() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, internal(1));
        assert!(e.pseudo_dirty_bit());
        let actions = feed(&mut e, external(true));
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
        let actions = feed(&mut e, external(false));
        assert!(actions.contains(&Action::SoftwareErrorDetected));
        assert!(e.is_halted());
        assert!(
            feed(&mut e, internal(1)).is_empty(),
            "halted engine is inert"
        );
    }

    #[test]
    fn passed_at_with_matching_ndc_resets_pseudo_bit() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, internal(1));
        assert!(e.pseudo_dirty_bit());
        feed(&mut e, passed_at(0, 1));
        assert!(!e.pseudo_dirty_bit());
    }

    #[test]
    fn passed_at_with_stale_ndc_is_ignored() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, Event::StableCheckpointCommitted(CkptSeqNo(2)));
        feed(&mut e, internal(1));
        feed(&mut e, passed_at(1, 1)); // stale epoch
        assert!(e.pseudo_dirty_bit());
        feed(&mut e, passed_at(2, 1)); // current epoch
        assert!(!e.pseudo_dirty_bit());
    }

    #[test]
    fn app_messages_held_during_blocking_passed_at_processed() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, internal(1));
        feed(&mut e, Event::BlockingStarted);
        let app = testkit::app(PEER, 1, SELF, 7, false);
        assert!(feed(&mut e, app.clone()).is_empty(), "held");
        // passed_AT flows through the blockade (Table 1: all but passed_AT).
        feed(&mut e, passed_at(0, 1));
        assert!(!e.pseudo_dirty_bit());
        let released = feed(&mut e, Event::BlockingEnded);
        let Event::Deliver(app) = app else {
            unreachable!("an app message is a delivery")
        };
        assert_eq!(released, vec![Action::DeliverToApp(app)]);
    }

    #[test]
    fn original_variant_blocks_even_passed_at() {
        let mut e = engine(MdcdConfig::write_through());
        feed(&mut e, Event::BlockingStarted);
        assert!(
            feed(&mut e, passed_at(0, 1)).is_empty(),
            "held under original TB"
        );
        let released = feed(&mut e, Event::BlockingEnded);
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
        let actions = feed(&mut e, internal(1));
        assert_eq!(actions.len(), 1);
        assert!(actions[0].is_send());
        assert!(e.checkpoint_bit(), "original P1act is always dirty for TB");
    }

    #[test]
    fn sequence_numbers_count_internal_and_external_sends() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, internal(1));
        feed(&mut e, external(true));
        feed(&mut e, internal(2));
        assert_eq!(e.msg_sn(), MsgSeqNo(3));
        assert_eq!(e.at_runs(), 1);
    }

    #[test]
    fn restore_resets_control_state_but_not_ndc() {
        let mut e = engine(MdcdConfig::modified());
        feed(&mut e, Event::StableCheckpointCommitted(CkptSeqNo(5)));
        let actions = feed(&mut e, internal(1));
        let snap = match &actions[0] {
            Action::TakeCheckpoint { engine, .. } => engine.clone(),
            _ => panic!("expected checkpoint"),
        };
        feed(&mut e, internal(2));
        e.restore(&snap);
        assert!(!e.pseudo_dirty_bit());
        assert_eq!(e.msg_sn(), MsgSeqNo(0));
        assert_eq!(e.horizon(), MsgSeqNo(0), "a restored state is a line");
        // Ndc survives the rollback: next matching passed_AT still works.
        feed(&mut e, internal(1));
        feed(&mut e, passed_at(5, 1));
        assert!(!e.pseudo_dirty_bit());
    }

    #[test]
    fn dirty_bit_is_constant_one() {
        let mut e = engine(MdcdConfig::modified());
        assert!(e.dirty_bit());
        feed(&mut e, passed_at(0, 1));
        assert!(e.dirty_bit(), "validation clears pseudo bit, not dirty bit");
    }
}
