//! Global-state consistency and recoverability checkers.
//!
//! These encode the paper's correctness properties (§2.1) as machine checks
//! over the set of *restored* checkpoint payloads at a hardware recovery:
//!
//! * **Consistency** — a message reflected as received must be reflected as
//!   sent by its sender;
//! * **Recoverability** — a message reflected as sent must be reflected as
//!   received or be restorable (present in the sender's saved unacked set);
//! * **Validity (self)** — restored control states must be
//!   non-contaminated: every restored dirty / pseudo-dirty bit is 0, so a
//!   subsequent software error remains recoverable (this is what the naive
//!   combination breaks, Fig. 4(a));
//! * **Validity (ground truth)** — no restored state reflects a message
//!   from the active process that was never covered by a successful
//!   acceptance test.

use core::fmt;

use synergy_mdcd::ProcessRole;
use synergy_net::{MsgSeqNo, ProcessId};

use crate::app::{CounterApp, ReceiptRecord};
use crate::payload::{CheckpointPayload, SentRecord};

/// One property violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which property was violated.
    pub property: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.property, self.detail)
    }
}

/// The accumulated verdicts of every check run during a mission.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Verdicts {
    /// Violations found, in discovery order.
    pub violations: Vec<Violation>,
    /// How many global checks were executed.
    pub checks_run: u64,
    /// Unmasked-regime evidence: corrupt external payloads the acceptance
    /// test caught (each triggers detected takeover, not silent masking).
    pub at_catches: u64,
    /// Corrupt external payloads the acceptance test missed (seeded false
    /// negatives); each one reaches the device.
    pub at_escapes: u64,
    /// Resynchronizations that left the clock fleet outside the δ bound.
    pub resync_violations: u64,
    /// Hardware recoveries whose epoch line was computed while the clock
    /// bound was violated (the line is provably stale).
    pub stale_epoch_lines: u64,
    /// Byzantine-lite valid-CRC checkpoint corruptions injected.
    pub byz_corruptions: u64,
    /// Escapes localized against an oracle device stream, in stream order.
    pub escapes: Vec<crate::regime::EscapeRecord>,
}

impl Verdicts {
    /// Whether every executed check held.
    pub fn all_hold(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of a specific property.
    pub fn of(&self, property: &str) -> Vec<&Violation> {
        self.violations
            .iter()
            .filter(|v| v.property == property)
            .collect()
    }

    /// Merges another set of verdicts into this one (used both within a run
    /// and to accumulate parallel seed sweeps).
    pub(crate) fn merge(&mut self, other: Verdicts) {
        self.violations.extend(other.violations);
        self.checks_run += other.checks_run;
        self.at_catches += other.at_catches;
        self.at_escapes += other.at_escapes;
        self.resync_violations += other.resync_violations;
        self.stale_epoch_lines += other.stale_epoch_lines;
        self.byz_corruptions += other.byz_corruptions;
        self.escapes.extend(other.escapes);
    }
}

/// A restored process state to check: role, payload, and role metadata.
#[derive(Clone, Debug)]
pub(crate) struct RestoredState {
    /// The process.
    pub pid: ProcessId,
    /// Its role in the guarded configuration.
    pub role: ProcessRole,
    /// Whether this process's application state was (ever) installed by a
    /// state transfer rather than built purely from messages — set when the
    /// middleware re-initializes the shadow from the restored active after
    /// a global rollback. Message-history checks do not apply to such
    /// states.
    pub synthetic_history: bool,
    /// The payload it restored.
    pub payload: CheckpointPayload,
}

/// The `(process, seq)` identities of one list of messages — a state's
/// receipts by sender, its sent records by destination, or its saved
/// unacked messages by sender — sorted once so each membership question is
/// a binary search instead of a scan of the list.
#[derive(Debug)]
pub(crate) struct MsgSet(Vec<(ProcessId, MsgSeqNo)>);

impl MsgSet {
    fn new(ids: impl IntoIterator<Item = (ProcessId, MsgSeqNo)>) -> Self {
        let mut ids: Vec<_> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        MsgSet(ids)
    }

    /// The `(destination, seq)` of every record in `sent`: what a state
    /// reflects as sent, the one question both the consistency check and
    /// receive-log replay ask of a sender.
    pub(crate) fn sent(sent: &[SentRecord]) -> Self {
        MsgSet::new(sent.iter().map(|r| (r.to, r.seq)))
    }

    /// Whether `(pid, seq)` is in the set.
    pub(crate) fn contains(&self, pid: ProcessId, seq: MsgSeqNo) -> bool {
        self.0.binary_search(&(pid, seq)).is_ok()
    }
}

/// One restored state, indexed once per check: its application image
/// decoded, and each message list it reflects as a [`MsgSet`].
struct Indexed<'a> {
    state: &'a RestoredState,
    /// The receipts the decoded image reflects, in image order; `None` when
    /// the image does not decode.
    receipts: Option<Vec<ReceiptRecord>>,
    /// `receipts` by `(sender, seq)`.
    received: MsgSet,
    /// The sent records by `(destination, seq)`.
    sent: MsgSet,
    /// The saved unacked messages by `(sender, seq)`: another sender's
    /// entry never makes this state's message restorable.
    unacked: MsgSet,
}

impl<'a> Indexed<'a> {
    fn new(state: &'a RestoredState) -> Self {
        let receipts = CounterApp::decode_state(&state.payload.app).map(|app| app.received);
        let received = MsgSet::new(receipts.iter().flatten().map(|r| (r.from, r.seq)));
        Indexed {
            state,
            receipts,
            received,
            sent: MsgSet::sent(&state.payload.sent),
            unacked: MsgSet::new(state.payload.unacked.iter().map(|e| (e.id.from, e.id.seq))),
        }
    }

    fn pid(&self) -> ProcessId {
        self.state.pid
    }
}

/// The first indexed state of process `pid`, if it is part of the cut.
fn find<'s, 'a>(states: &'s [Indexed<'a>], pid: ProcessId) -> Option<&'s Indexed<'a>> {
    states.iter().find(|s| s.pid() == pid)
}

/// Checks validity-concerned global consistency and recoverability over a
/// set of restored states.
#[derive(Clone, Debug)]
pub(crate) struct GlobalChecker {
    /// The active process (its sequence numbers are the validated domain).
    pub active: ProcessId,
}

impl GlobalChecker {
    /// Creates a checker for a system whose active process is `active`.
    pub(crate) fn new(active: ProcessId) -> Self {
        GlobalChecker { active }
    }

    /// Runs every check against `states`, given the ground-truth highest
    /// validated sequence number of the active process. Each state is
    /// indexed once ([`Indexed`]), so the message-history checks cost
    /// O(n log n) in the cut's message count rather than O(n²) with an
    /// image decode per sent record.
    pub(crate) fn check(&self, states: &[RestoredState], global_validated: MsgSeqNo) -> Verdicts {
        let mut v = Verdicts {
            checks_run: 1,
            ..Verdicts::default()
        };
        let indexed: Vec<Indexed<'_>> = states.iter().map(Indexed::new).collect();
        self.check_consistency(&indexed, &mut v);
        self.check_recoverability(&indexed, &mut v);
        self.check_self_validity(states, &mut v);
        self.check_ground_truth_validity(&indexed, global_validated, &mut v);
        v
    }

    /// Whether message-history checks apply to this process. The shadow's
    /// inbound traffic consists of replicated copies of the peer's
    /// broadcasts, regenerable from the active's stream by construction;
    /// after a global rollback the middleware re-initializes the shadow
    /// from the restored active state (a state transfer), making its
    /// message history synthetic. The paper's validity-concerned
    /// properties therefore bind the active↔peer relationship, while the
    /// shadow is held to its dirty-bit validity (`validity-self`) and the
    /// suppressed-log mechanism exercised at software recovery.
    fn history_checked(&self, state: &RestoredState) -> bool {
        state.role != ProcessRole::Shadow && !state.synthetic_history
    }

    /// Consistency: received ⇒ sent.
    fn check_consistency(&self, states: &[Indexed<'_>], v: &mut Verdicts) {
        for receiver in states.iter().filter(|s| self.history_checked(s.state)) {
            let Some(receipts) = &receiver.receipts else {
                v.violations.push(Violation {
                    property: "consistency",
                    detail: format!("{}: undecodable app state", receiver.pid()),
                });
                continue;
            };
            for receipt in receipts {
                let Some(sender) = find(states, receipt.from) else {
                    continue; // external sender not part of the snapshot
                };
                if !sender.sent.contains(receiver.pid(), receipt.seq) {
                    v.violations.push(Violation {
                        property: "consistency",
                        detail: format!(
                            "{} reflects {}:{} as received but {}'s state does not reflect it as sent",
                            receiver.pid(),
                            receipt.from,
                            receipt.seq,
                            sender.pid()
                        ),
                    });
                }
            }
        }
    }

    /// Recoverability: sent ⇒ received or restorable.
    fn check_recoverability(&self, states: &[Indexed<'_>], v: &mut Verdicts) {
        for sender in states {
            for sent in sender.state.payload.sent.iter() {
                let Some(receiver) = find(states, sent.to) else {
                    continue;
                };
                // An undecodable receiver is reported by the consistency
                // check already.
                if !self.history_checked(receiver.state) || receiver.receipts.is_none() {
                    continue;
                }
                let received = receiver.received.contains(sender.pid(), sent.seq);
                let restorable = sender.unacked.contains(sender.pid(), sent.seq);
                if !received && !restorable {
                    v.violations.push(Violation {
                        property: "recoverability",
                        detail: format!(
                            "{} reflects {} -> {} as sent; not received and not restorable",
                            sender.pid(),
                            sent.seq,
                            sent.to
                        ),
                    });
                }
            }
        }
    }

    /// Restored control states must be non-contaminated so a later software
    /// error remains recoverable (Fig. 4(a) is the counterexample).
    fn check_self_validity(&self, states: &[RestoredState], v: &mut Verdicts) {
        for s in states {
            let snap = &s.payload.engine;
            let contaminated = match s.role {
                // P1act's actual dirty bit is constantly 1; its pseudo bit
                // is the relevant confidence indicator.
                ProcessRole::Active => snap.pseudo_dirty.unwrap_or(false),
                ProcessRole::Shadow | ProcessRole::Peer => snap.dirty,
            };
            if contaminated {
                v.violations.push(Violation {
                    property: "validity-self",
                    detail: format!(
                        "{} ({}) restored a potentially contaminated state: a subsequent \
                         software error could not be recovered",
                        s.pid, s.role
                    ),
                });
            }
        }
    }

    /// No restored state may reflect an unvalidated message from the active
    /// process.
    fn check_ground_truth_validity(
        &self,
        states: &[Indexed<'_>],
        global_validated: MsgSeqNo,
        v: &mut Verdicts,
    ) {
        for s in states {
            if s.pid() == self.active {
                continue;
            }
            for receipt in s.receipts.iter().flatten() {
                if receipt.from == self.active && receipt.seq > global_validated {
                    v.violations.push(Violation {
                        property: "validity-ground-truth",
                        detail: format!(
                            "{} restored a state reflecting unvalidated message {}:{} \
                             (highest validated: {})",
                            s.pid(),
                            receipt.from,
                            receipt.seq,
                            global_validated
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use synergy_des::SimTime;
    use synergy_mdcd::EngineSnapshot;
    use synergy_net::MessageBody;

    const ACT: ProcessId = ProcessId(1);
    const SDW: ProcessId = ProcessId(2);
    const PEER: ProcessId = ProcessId(3);

    fn state(
        pid: ProcessId,
        role: ProcessRole,
        received: Vec<(ProcessId, u64)>,
        sent: Vec<(ProcessId, u64)>,
        dirty: bool,
    ) -> RestoredState {
        let mut app = CounterApp::new(0);
        for (from, seq) in received {
            app.on_message(from, MsgSeqNo(seq), &[1]);
        }
        let engine = EngineSnapshot {
            dirty,
            pseudo_dirty: if role == ProcessRole::Active {
                Some(dirty)
            } else {
                None
            },
            ..EngineSnapshot::default()
        };
        RestoredState {
            pid,
            role,
            synthetic_history: false,
            payload: CheckpointPayload::new(
                app.snapshot(),
                engine,
                Vec::new(),
                sent.into_iter()
                    .map(|(to, seq)| SentRecord {
                        to,
                        seq: MsgSeqNo(seq),
                    })
                    .collect::<Vec<_>>(),
                SimTime::ZERO,
            ),
        }
    }

    fn checker() -> GlobalChecker {
        GlobalChecker::new(ACT)
    }

    #[test]
    fn clean_matching_snapshot_passes() {
        let states = vec![
            state(ACT, ProcessRole::Active, vec![], vec![(PEER, 1)], false),
            state(SDW, ProcessRole::Shadow, vec![], vec![], false),
            state(PEER, ProcessRole::Peer, vec![(ACT, 1)], vec![], false),
        ];
        let v = checker().check(&states, MsgSeqNo(1));
        assert!(v.all_hold(), "{:?}", v.violations);
        assert_eq!(v.checks_run, 1);
    }

    #[test]
    fn orphan_receipt_violates_consistency() {
        let states = vec![
            state(ACT, ProcessRole::Active, vec![], vec![], false),
            state(SDW, ProcessRole::Shadow, vec![], vec![], false),
            // PEER claims to have received ACT:5, ACT never reflects it.
            state(PEER, ProcessRole::Peer, vec![(ACT, 5)], vec![], false),
        ];
        let v = checker().check(&states, MsgSeqNo(9));
        assert_eq!(v.of("consistency").len(), 1);
    }

    #[test]
    fn lost_unrestorable_message_violates_recoverability() {
        let states = vec![
            state(ACT, ProcessRole::Active, vec![], vec![(PEER, 3)], false),
            state(SDW, ProcessRole::Shadow, vec![], vec![], false),
            state(PEER, ProcessRole::Peer, vec![], vec![], false),
        ];
        let v = checker().check(&states, MsgSeqNo(9));
        assert_eq!(v.of("recoverability").len(), 1);
    }

    #[test]
    fn unacked_copy_restores_recoverability() {
        let mut sender = state(ACT, ProcessRole::Active, vec![], vec![(PEER, 3)], false);
        sender
            .payload
            .unacked
            .push(std::sync::Arc::new(synergy_net::Envelope::new(
                synergy_net::MsgId {
                    from: ACT,
                    seq: MsgSeqNo(3),
                },
                PEER,
                MessageBody::Application {
                    payload: vec![],
                    dirty: true,
                },
            )));
        let states = vec![
            sender,
            state(SDW, ProcessRole::Shadow, vec![], vec![], false),
            state(PEER, ProcessRole::Peer, vec![], vec![], false),
        ];
        let v = checker().check(&states, MsgSeqNo(9));
        assert!(v.of("recoverability").is_empty());
    }

    #[test]
    fn dirty_restored_state_violates_self_validity() {
        let states = vec![
            state(ACT, ProcessRole::Active, vec![], vec![], false),
            state(SDW, ProcessRole::Shadow, vec![], vec![], false),
            state(PEER, ProcessRole::Peer, vec![], vec![], true),
        ];
        let v = checker().check(&states, MsgSeqNo(0));
        assert_eq!(v.of("validity-self").len(), 1);
    }

    #[test]
    fn unvalidated_receipt_violates_ground_truth() {
        let states = vec![
            state(ACT, ProcessRole::Active, vec![], vec![(PEER, 7)], false),
            state(SDW, ProcessRole::Shadow, vec![], vec![], false),
            state(PEER, ProcessRole::Peer, vec![(ACT, 7)], vec![], false),
        ];
        // Only seqs <= 5 were ever validated.
        let v = checker().check(&states, MsgSeqNo(5));
        assert_eq!(v.of("validity-ground-truth").len(), 1);
    }

    #[test]
    fn shadow_message_history_is_exempt() {
        // After a state transfer the shadow's receipts are synthetic; only
        // its dirty bit is checked.
        let states = vec![
            state(ACT, ProcessRole::Active, vec![], vec![], false),
            state(SDW, ProcessRole::Shadow, vec![(PEER, 9)], vec![], false),
            state(PEER, ProcessRole::Peer, vec![], vec![(SDW, 3)], false),
        ];
        let v = checker().check(&states, MsgSeqNo(9));
        assert!(v.all_hold(), "{:?}", v.violations);
    }

    #[test]
    fn violation_order_and_details_are_pinned_on_a_cut_through_every_branch() {
        const SYN: ProcessId = ProcessId(4);
        const BAD: ProcessId = ProcessId(5);
        const OUTSIDE: ProcessId = ProcessId(9);
        let unacked = |from: ProcessId, seq: u64| {
            std::sync::Arc::new(synergy_net::Envelope::new(
                synergy_net::MsgId {
                    from,
                    seq: MsgSeqNo(seq),
                },
                PEER,
                MessageBody::Application {
                    payload: vec![],
                    dirty: false,
                },
            ))
        };
        let mut act = state(
            ACT,
            ProcessRole::Active,
            // A duplicate receipt, one PEER never sent, one from outside.
            vec![(PEER, 1), (PEER, 1), (PEER, 2), (OUTSIDE, 4)],
            // A duplicate sent record; PEER:3 is saved unacked, PEER:2 only
            // under PEER's name; SYN and BAD are not history-checked.
            vec![
                (PEER, 1),
                (PEER, 1),
                (PEER, 2),
                (PEER, 3),
                (SYN, 11),
                (BAD, 12),
            ],
            true,
        );
        act.payload.unacked = vec![unacked(ACT, 3), unacked(PEER, 2)];
        let mut syn = state(SYN, ProcessRole::Peer, vec![(ACT, 8)], vec![], false);
        syn.synthetic_history = true;
        let mut bad = state(BAD, ProcessRole::Peer, vec![], vec![], false);
        bad.payload.app = vec![1, 2, 3].into();
        let states = vec![
            act,
            state(
                SDW,
                ProcessRole::Shadow,
                vec![(PEER, 7)],
                vec![(PEER, 6)],
                true,
            ),
            state(
                PEER,
                ProcessRole::Peer,
                vec![(ACT, 1), (ACT, 1), (ACT, 9), (SDW, 6)],
                vec![(ACT, 1), (ACT, 5), (ACT, 5)],
                false,
            ),
            syn,
            bad,
        ];
        let v = checker().check(&states, MsgSeqNo(3));
        let got: Vec<String> = v.violations.iter().map(ToString::to_string).collect();
        let contaminated = "restored a potentially contaminated state: a subsequent software \
                            error could not be recovered";
        assert_eq!(
            got,
            [
                "[consistency] P1 reflects P3:sn2 as received but P3's state does not reflect \
                 it as sent"
                    .to_string(),
                "[consistency] P3 reflects P1:sn9 as received but P1's state does not reflect \
                 it as sent"
                    .to_string(),
                "[consistency] P5: undecodable app state".to_string(),
                "[recoverability] P1 reflects sn2 -> P3 as sent; not received and not restorable"
                    .to_string(),
                "[recoverability] P3 reflects sn5 -> P1 as sent; not received and not restorable"
                    .to_string(),
                "[recoverability] P3 reflects sn5 -> P1 as sent; not received and not restorable"
                    .to_string(),
                format!("[validity-self] P1 (P1act) {contaminated}"),
                format!("[validity-self] P2 (P1sdw) {contaminated}"),
                "[validity-ground-truth] P3 restored a state reflecting unvalidated message \
                 P1:sn9 (highest validated: sn3)"
                    .to_string(),
                "[validity-ground-truth] P4 restored a state reflecting unvalidated message \
                 P1:sn8 (highest validated: sn3)"
                    .to_string(),
            ]
        );
        assert_eq!(v.checks_run, 1);
    }

    #[test]
    fn verdict_merge_accumulates() {
        let mut a = Verdicts {
            checks_run: 1,
            at_catches: 2,
            at_escapes: 1,
            ..Verdicts::default()
        };
        let b = Verdicts {
            checks_run: 2,
            violations: vec![Violation {
                property: "consistency",
                detail: "x".into(),
            }],
            ..Verdicts::default()
        };
        a.merge(b);
        assert_eq!(a.checks_run, 3);
        assert!(!a.all_hold());
        assert_eq!(a.at_catches, 2);
        assert_eq!(a.at_escapes, 1);
    }

    #[test]
    fn verdict_merge_accumulates_regime_counters_across_sweeps() {
        // Model a parallel seed sweep: each seed yields its own Verdicts and
        // the sweep driver folds them together with merge().
        use crate::regime::EscapeRecord;
        let per_seed = [
            Verdicts {
                at_catches: 3,
                resync_violations: 1,
                ..Verdicts::default()
            },
            Verdicts {
                at_escapes: 2,
                stale_epoch_lines: 1,
                byz_corruptions: 1,
                escapes: vec![EscapeRecord {
                    index: 5,
                    offset: 16,
                }],
                ..Verdicts::default()
            },
            Verdicts {
                at_catches: 1,
                at_escapes: 1,
                escapes: vec![EscapeRecord {
                    index: 0,
                    offset: 8,
                }],
                ..Verdicts::default()
            },
        ];
        let mut total = Verdicts::default();
        for v in per_seed {
            total.merge(v);
        }
        assert_eq!(total.at_catches, 4);
        assert_eq!(total.at_escapes, 3);
        assert_eq!(total.resync_violations, 1);
        assert_eq!(total.stale_epoch_lines, 1);
        assert_eq!(total.byz_corruptions, 1);
        assert_eq!(
            total.escapes,
            vec![
                EscapeRecord {
                    index: 5,
                    offset: 16
                },
                EscapeRecord {
                    index: 0,
                    offset: 8
                },
            ]
        );
    }
}
