//! Property tests over random event sequences fed to the MDCD engines.
//!
//! Stimulus sequences are generated with the workspace's deterministic RNG
//! ([`DetRng`]), so every case is reproducible from its printed seed: each
//! failure message carries `case=N`, and re-running the test replays the
//! identical sequence.

use synergy_des::DetRng;
use synergy_mdcd::{
    Action, ActiveEngine, CheckpointKind, Event, MdcdConfig, OutboundMessage, PeerEngine,
    ShadowEngine,
};
use synergy_net::{
    CkptSeqNo, DeviceId, Endpoint, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId,
};

const ACT: ProcessId = ProcessId(1);
const SDW: ProcessId = ProcessId(2);
const PEER: ProcessId = ProcessId(3);

/// Abstract stimulus applied to an engine under test.
#[derive(Clone, Debug)]
enum Stim {
    SendInternal,
    SendExternal { at_pass: bool },
    RecvApp { dirty: bool },
    RecvPassedAt { matching_ndc: bool },
    BlockingStart,
    BlockingEnd,
    Commit,
}

/// Draws one stimulus, uniform over the seven variants (bool payloads fair).
fn random_stim(rng: &mut DetRng) -> Stim {
    match rng.gen_range(0u64..7) {
        0 => Stim::SendInternal,
        1 => Stim::SendExternal {
            at_pass: rng.gen_bool(0.5),
        },
        2 => Stim::RecvApp {
            dirty: rng.gen_bool(0.5),
        },
        3 => Stim::RecvPassedAt {
            matching_ndc: rng.gen_bool(0.5),
        },
        4 => Stim::BlockingStart,
        5 => Stim::BlockingEnd,
        _ => Stim::Commit,
    }
}

/// Draws a sequence of 1..max_len stimuli.
fn random_stims(rng: &mut DetRng, max_len: u64) -> Vec<Stim> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| random_stim(rng)).collect()
}

/// Runs one `handle_into` call, collecting the actions it appends.
fn collect(handle_into: impl FnOnce(&mut Vec<Action>)) -> Vec<Action> {
    let mut out = Vec::new();
    handle_into(&mut out);
    out
}

struct Driver {
    peer_seq: u64,
    act_seq: u64,
    ctrl: u64,
    ndc: u64,
    blocking: bool,
}

impl Driver {
    fn new() -> Self {
        Driver {
            peer_seq: 0,
            act_seq: 0,
            ctrl: 0,
            ndc: 0,
            blocking: false,
        }
    }

    /// Converts a stimulus into a concrete event for an engine whose inbound
    /// application traffic comes from `from`.
    fn event(&mut self, stim: &Stim, from: ProcessId) -> Option<Event> {
        match stim {
            Stim::SendInternal => Some(Event::AppSend(OutboundMessage {
                to: Endpoint::Process(PEER),
                payload: vec![1],
                external: false,
                at_pass: true,
            })),
            Stim::SendExternal { at_pass } => Some(Event::AppSend(OutboundMessage {
                to: Endpoint::Device(DeviceId(0)),
                payload: vec![2],
                external: true,
                at_pass: *at_pass,
            })),
            Stim::RecvApp { dirty } => {
                let seq = if from == ACT {
                    self.act_seq += 1;
                    self.act_seq
                } else {
                    self.peer_seq += 1;
                    self.peer_seq
                };
                Some(Event::Deliver(Envelope::new(
                    MsgId {
                        from,
                        seq: MsgSeqNo(seq),
                    },
                    PEER,
                    MessageBody::Application {
                        payload: vec![3],
                        dirty: *dirty,
                    },
                )))
            }
            Stim::RecvPassedAt { matching_ndc } => {
                self.ctrl += 1;
                let ndc = if *matching_ndc {
                    self.ndc
                } else {
                    self.ndc + 7
                };
                Some(Event::Deliver(Envelope::new(
                    MsgId {
                        from: ACT,
                        seq: MsgSeqNo((1 << 63) + self.ctrl),
                    },
                    PEER,
                    MessageBody::PassedAt {
                        msg_sn: MsgSeqNo(self.act_seq),
                        ndc: CkptSeqNo(ndc),
                    },
                )))
            }
            Stim::BlockingStart => {
                if self.blocking {
                    return None;
                }
                self.blocking = true;
                Some(Event::BlockingStarted)
            }
            Stim::BlockingEnd => {
                if !self.blocking {
                    return None;
                }
                self.blocking = false;
                Some(Event::BlockingEnded)
            }
            Stim::Commit => {
                self.ndc += 1;
                Some(Event::StableCheckpointCommitted(CkptSeqNo(self.ndc)))
            }
        }
    }
}

/// Peer invariants: every 0→1 dirty transition is guarded by a Type-1
/// checkpoint whose snapshot is clean; checkpoint actions always precede
/// the delivery in the same action list; `msg_sn` never decreases.
#[test]
fn peer_engine_invariants() {
    let mut rng = DetRng::new(0xE1).stream("peer-invariants");
    for case in 0..200 {
        let stims = random_stims(&mut rng, 60);
        let mut engine = PeerEngine::new(MdcdConfig::modified(), PEER, ACT, SDW);
        let mut driver = Driver::new();
        let mut last_sn = 0u64;
        for stim in &stims {
            let Some(event) = driver.event(stim, ACT) else {
                continue;
            };
            let dirty_before = engine.dirty_bit();
            let actions = collect(|out| engine.handle_into(event, out));
            // Dirty transition 0 -> 1 must produce a clean Type-1 snapshot.
            if !dirty_before && engine.dirty_bit() {
                let ckpt = actions.iter().find_map(|a| match a {
                    Action::TakeCheckpoint {
                        kind: CheckpointKind::Type1,
                        engine,
                    } => Some(engine),
                    _ => None,
                });
                let snap = ckpt.unwrap_or_else(|| {
                    panic!("case={case}: contamination must be guarded by a Type-1 checkpoint")
                });
                assert!(!snap.dirty, "case={case}: Type-1 snapshot must be clean");
            }
            // A Type-1 checkpoint is always immediately followed by the
            // delivery it guards (also inside batched BlockingEnded
            // releases).
            for (i, a) in actions.iter().enumerate() {
                if matches!(
                    a,
                    Action::TakeCheckpoint {
                        kind: CheckpointKind::Type1,
                        ..
                    }
                ) {
                    assert!(
                        matches!(actions.get(i + 1), Some(Action::DeliverToApp(_))),
                        "case={case}: Type-1 checkpoint must guard the next delivery"
                    );
                }
            }
            let sn = engine.snapshot().msg_sn.0;
            assert!(sn >= last_sn, "case={case}: msg_sn must be monotone");
            last_sn = sn;
        }
    }
}

/// Shadow invariants: nothing is ever sent before promotion; the log
/// never contains validated entries; takeover re-sends exactly the
/// unvalidated suffix.
#[test]
fn shadow_engine_invariants() {
    let mut rng = DetRng::new(0xE1).stream("shadow-invariants");
    for case in 0..200 {
        let stims = random_stims(&mut rng, 60);
        let mut engine = ShadowEngine::new(MdcdConfig::modified(), SDW, PEER);
        let mut driver = Driver::new();
        for stim in &stims {
            let Some(event) = driver.event(stim, PEER) else {
                continue;
            };
            let actions = collect(|out| engine.handle_into(event, out));
            for a in &actions {
                assert!(
                    !a.is_send(),
                    "case={case}: un-promoted shadow must stay silent: {a:?}"
                );
            }
        }
        let vr = engine.vr_act();
        let plan = engine.take_over();
        for env in &plan.resend {
            assert!(
                env.id.seq > vr,
                "case={case}: validated entries must not be re-sent"
            );
        }
    }
}

/// Active invariants: a pseudo checkpoint precedes every internal send and
/// predates it, its pseudo bit says whether it was taken above the
/// validated horizon, and the horizon only rises, never past `msg_sn`.
/// Notices vouch for a random sequence number up to one past the engine's
/// own, so crossings (ROADMAP item 0) and stale notices both occur.
#[test]
fn active_engine_invariants() {
    let mut rng = DetRng::new(0xE1).stream("active-invariants");
    for case in 0..200 {
        let stims = random_stims(&mut rng, 60);
        let mut engine = ActiveEngine::new(MdcdConfig::modified(), ACT, SDW, PEER);
        let mut driver = Driver::new();
        for stim in &stims {
            let Some(mut event) = driver.event(stim, PEER) else {
                continue;
            };
            if let Event::Deliver(env) = &mut event {
                if let MessageBody::PassedAt { msg_sn, .. } = &mut env.body {
                    *msg_sn = MsgSeqNo(rng.gen_range(0..engine.msg_sn().0 + 2));
                }
            }
            let horizon_before = engine.horizon();
            let halted_before = engine.is_halted();
            let actions = collect(|out| engine.handle_into(event, out));
            if halted_before {
                assert!(
                    actions.is_empty(),
                    "case={case}: halted engine must be inert"
                );
                continue;
            }
            for (i, action) in actions.iter().enumerate() {
                let Action::TakeCheckpoint { kind, engine: snap } = action else {
                    continue;
                };
                assert_eq!(*kind, CheckpointKind::Pseudo, "case={case}");
                let Some(Action::Send(env)) = actions.get(i + 1) else {
                    panic!("case={case}: a pseudo checkpoint precedes a send");
                };
                assert!(matches!(env.body, MessageBody::Application { .. }));
                assert_eq!(env.id.seq, snap.msg_sn.next(), "case={case}: predates");
                if !matches!(stim, Stim::BlockingEnd) {
                    // A release can validate between held sends.
                    let bit = Some(snap.msg_sn > horizon_before);
                    assert_eq!(snap.pseudo_dirty, bit, "case={case}");
                }
            }
            let sends = actions.iter().filter(|a| {
                matches!(a, Action::Send(e) if matches!(e.body, MessageBody::Application { .. }))
            });
            let checkpoints = actions.iter().filter(|a| a.is_checkpoint());
            assert_eq!(sends.count(), checkpoints.count(), "case={case}");
            let horizon = engine.horizon();
            assert!(horizon_before <= horizon && horizon <= engine.msg_sn());
            assert_eq!(engine.pseudo_dirty_bit(), engine.msg_sn() > horizon);
            assert!(engine.dirty_bit(), "case={case}: P1act is constantly dirty");
        }
    }
}

/// Blocking never drops traffic: everything held during a blocking
/// period is released, in order, at BlockingEnded.
#[test]
fn blocking_preserves_all_deliveries() {
    let mut rng = DetRng::new(0xE1).stream("blocking-preserves");
    for case in 0..100 {
        let n = rng.gen_range(1u64..20) as usize;
        let mut engine = PeerEngine::new(MdcdConfig::modified(), PEER, ACT, SDW);
        engine.handle_into(Event::BlockingStarted, &mut Vec::new());
        for seq in 1..=n as u64 {
            let held = collect(|out| {
                engine.handle_into(
                    Event::Deliver(Envelope::new(
                        MsgId {
                            from: ACT,
                            seq: MsgSeqNo(seq),
                        },
                        PEER,
                        MessageBody::Application {
                            payload: vec![0],
                            dirty: true,
                        },
                    )),
                    out,
                )
            });
            assert!(held.is_empty(), "case={case}");
        }
        let released = collect(|out| engine.handle_into(Event::BlockingEnded, out));
        let delivered: Vec<u64> = released
            .iter()
            .filter_map(|a| match a {
                Action::DeliverToApp(env) => Some(env.id.seq.0),
                _ => None,
            })
            .collect();
        let expected: Vec<u64> = (1..=n as u64).collect();
        assert_eq!(delivered, expected, "case={case}");
    }
}
