//! Recovery: epoch-line selection, torn-write handling, volatile rollback
//! and unacked/receive-log replay.
//!
//! The decision logic is exposed as pure functions ([`epoch_line`],
//! [`filter_replays`], [`volatile_copy_payload`], [`prune_unacked`]) so it
//! can be unit-tested without a full [`System`]; the two recovery
//! procedures (software takeover, global hardware rollback) orchestrate
//! them over the hosts.

use std::sync::Arc;

use synergy_des::SimTime;
use synergy_mdcd::{EngineSnapshot, Event as MdcdEvent, ProcessRole, RecoveryDecision};
use synergy_net::{AckTracker, CkptSeqNo, Endpoint, Envelope, MessageBody, MsgSeqNo, ProcessId};
use synergy_storage::{Checkpoint, Stable, StableStore};
use synergy_tb::{Event as TbEvent, TbEngine};

use crate::app::{Application, CounterApp};
use crate::checkers::{GlobalChecker, RestoredState, Violation};
use crate::metrics::{RollbackCause, RollbackRecord};
use crate::payload::CheckpointPayload;
use crate::system::host::ProcessHost;
use crate::system::System;

/// The newest stable epoch committed by *every* live process.
///
/// TB stable checkpoints are epoch-numbered, and a crash can tear one
/// process's in-flight write while its peers commit theirs
/// ([`StableStore::crash`] discards the torn record); the mutually
/// consistent recovery line is therefore the minimum over the live
/// processes' newest committed epochs. A process with no committed
/// checkpoint contributes epoch 0 (restart from the initial state).
pub fn epoch_line<'a>(live: impl Iterator<Item = &'a StableStore>) -> Option<u64> {
    live.map(|s| s.latest().map_or(0, |c| c.seq())).min()
}

/// Builds the stable payload for a dirty process's volatile-copy write.
///
/// Two recoverability amendments ride on the copied state (DESIGN.md §8,
/// decisions 4 and 5): the currently unacknowledged messages are saved —
/// but only those the copied state reflects as sent, so recovery cannot
/// re-send messages the restored state never produced — and the receipts
/// delivered after the copied state are attached for driver-filtered
/// replay (their senders may already hold the acknowledgments).
pub fn volatile_copy_payload(
    vol: &Checkpoint,
    acks: &AckTracker,
    recv_log: &[Arc<Envelope>],
) -> CheckpointPayload {
    let p = CheckpointPayload::from_checkpoint(vol).expect("volatile checkpoints decode");
    amend_volatile_copy(p, acks, recv_log)
}

/// The amendment half of [`volatile_copy_payload`], for callers that already
/// hold the decoded payload (the host caches the image of its latest
/// volatile checkpoint precisely to skip the decode on the TB hot path).
pub fn amend_volatile_copy(
    mut p: CheckpointPayload,
    acks: &AckTracker,
    recv_log: &[Arc<Envelope>],
) -> CheckpointPayload {
    let horizon = p.engine.msg_sn;
    p.unacked = acks
        .unacked_shared()
        .into_iter()
        .filter(|e| e.id.seq <= horizon)
        .collect();
    p.replay = recv_log.to_vec();
    p
}

/// Drops acknowledgment tracking for messages beyond `horizon`: per the
/// restored state, they were never sent.
pub fn prune_unacked(acks: &mut AckTracker, horizon: MsgSeqNo) {
    let kept: Vec<Arc<Envelope>> = acks
        .unacked_shared()
        .into_iter()
        .filter(|e| e.id.seq <= horizon)
        .collect();
    acks.restore(kept);
}

/// Selects the receive-log entries to replay into a restored cut.
///
/// A message delivered after the copied state but acknowledged before the
/// sender's stable write is reflected as sent by the sender's restored
/// state yet absent from both the receiver's state and the unacked set.
/// The receiver saved it in its receive log; replay exactly those entries
/// the restored cut reflects as sent — and, for the original active
/// process's output, only validated ones, since anything else would
/// re-contaminate a restored-clean state. Returns `(receiver, envelope)`
/// pairs in restored-cut order.
pub fn filter_replays(
    restored: &[(ProcessId, CheckpointPayload)],
    original_active: ProcessId,
    global_validated: MsgSeqNo,
) -> Vec<(ProcessId, Arc<Envelope>)> {
    let sent_reflected = |env: &Envelope| {
        restored.iter().any(|(pid, p)| {
            *pid == env.from()
                && p.sent
                    .iter()
                    .any(|r| Endpoint::Process(r.to) == env.to && r.seq == env.id.seq)
        })
    };
    let mut replays = Vec::new();
    for (pid, payload) in restored {
        for env in &payload.replay {
            if !sent_reflected(env) {
                continue;
            }
            if env.from() == original_active && env.id.seq > global_validated {
                continue;
            }
            replays.push((*pid, Arc::clone(env)));
        }
    }
    replays
}

impl<S: Stable> ProcessHost<S> {
    /// Restores this host from its most recent volatile checkpoint;
    /// returns the rollback distance in seconds, or `None` when no
    /// volatile checkpoint exists.
    pub fn rollback_to_volatile(&mut self, now: SimTime) -> Option<f64> {
        let ckpt = self.volatile.latest_shared()?;
        let payload = match self.volatile_image() {
            Some(img) => img.clone(),
            None => CheckpointPayload::from_checkpoint(&ckpt).expect("volatile decodes"),
        };
        let distance = now
            .saturating_duration_since(payload.state_time())
            .as_secs_f64();
        self.app.restore(&payload.app);
        self.engine.restore(&payload.engine);
        self.restore_sent_log(&payload.sent);
        self.recv_log.clear();
        prune_unacked(&mut self.acks, payload.engine.msg_sn);
        // If a TB blocking period is in progress, the restored engine must
        // re-enter it (restore cleared the hold state).
        if self.tb.as_ref().is_some_and(TbEngine::is_blocking) {
            let mut actions = Vec::new();
            self.engine
                .handle_into(MdcdEvent::BlockingStarted, &mut actions);
            debug_assert!(actions.is_empty());
        }
        Some(distance)
    }

    /// Installs a restored stable payload: application, engine, sent log
    /// and saved unacked set. Pre-crash volatile checkpoints and receive
    /// logs belong to the abandoned timeline and are discarded.
    pub fn restore_from_payload(&mut self, payload: &CheckpointPayload) {
        self.app.restore(&payload.app);
        self.engine.restore(&payload.engine);
        self.restore_sent_log(&payload.sent);
        self.acks.restore(payload.unacked.iter().map(Arc::clone));
        self.wipe_volatile();
        self.recv_log.clear();
    }
}

// ----------------------------------------------------------------------
// Software (MDCD) recovery
// ----------------------------------------------------------------------

impl System {
    pub(super) fn software_recovery(&mut self, now: SimTime) {
        if self.software_recovered {
            return;
        }
        self.software_recovered = true;
        self.metrics.software_recoveries += 1;
        self.sim.record(
            self.system_actor,
            "recovery.software",
            "AT failure: shadow takeover",
        );
        let act = self
            .index_of_pid(self.topology.active)
            .expect("active host");
        let sdw = self
            .index_of_pid(self.topology.shadow)
            .expect("shadow host");
        let peer = self.index_of_pid(self.topology.peer).expect("peer host");
        // The active is dead; its in-flight messages are discarded on
        // delivery.
        self.hosts[act].up = false;
        self.hosts[act].dead = true;

        // Local decisions + rollbacks for shadow and peer.
        for i in [sdw, peer] {
            let decision = self.hosts[i]
                .engine
                .recovery_decision()
                .expect("shadow/peer decide locally");
            let distance = match decision {
                RecoveryDecision::RollBack => self.rollback_host(i, now),
                RecoveryDecision::RollForward => 0.0,
            };
            self.metrics.rollbacks.push(RollbackRecord {
                process: self.hosts[i].pid,
                cause: RollbackCause::Software,
                decision,
                distance_secs: distance,
                at: now,
            });
            self.sim.record_with(self.host_actors[i], || {
                (
                    "recovery.decision",
                    format!("{decision} ({distance:.3}s undone)"),
                )
            });
        }

        // Shadow takes over and re-sends unvalidated suppressed messages.
        let plan = self.hosts[sdw].engine.take_over();
        if let Some(p) = self.hosts[peer].engine.as_peer_mut() {
            p.retarget_active(self.topology.shadow);
        }
        let resend = plan.resend;
        self.metrics.messages_resent += resend.len() as u64;
        for env in resend {
            self.send_from(sdw, env, now);
        }

        // Check the recovered (volatile) cut.
        let mut states: Vec<RestoredState> = Vec::with_capacity(2);
        for i in [sdw, peer] {
            let payload = self.hosts[i].current_payload(now);
            let host = &self.hosts[i];
            states.push(RestoredState {
                pid: host.pid,
                role: host.engine.role(),
                synthetic_history: host.synthetic_history,
                payload,
            });
        }
        let checker = GlobalChecker::new(self.topology.active);
        let v = checker.check(&states, self.global_validated);
        self.verdicts.merge(v);
    }

    /// [`ProcessHost::rollback_to_volatile`] with the driver's violation
    /// accounting for the impossible missing-checkpoint case.
    fn rollback_host(&mut self, i: usize, now: SimTime) -> f64 {
        match self.hosts[i].rollback_to_volatile(now) {
            Some(distance) => distance,
            None => {
                self.verdicts.violations.push(Violation {
                    property: "validity-self",
                    detail: format!(
                        "{} must roll back but has no volatile checkpoint",
                        self.hosts[i].pid
                    ),
                });
                0.0
            }
        }
    }

    // ------------------------------------------------------------------
    // Hardware fault + global rollback recovery
    // ------------------------------------------------------------------

    pub(super) fn on_hardware_crash(&mut self, _now: SimTime, node: usize) {
        let Some(i) = self.index_of_node(node) else {
            return;
        };
        if self.hosts[i].dead {
            return; // crashing a dead node changes nothing
        }
        self.sim.record_with(self.host_actors[i], || {
            ("fault.hardware", format!("node {node} crashed"))
        });
        let host = &mut self.hosts[i];
        host.up = false;
        host.wipe_volatile();
        if host.stable.is_writing() {
            self.metrics.torn_writes += 1;
        }
        host.stable.crash();
        self.crash_pending.push(i);
        self.sim.schedule_in(
            self.cfg.restart_delay,
            self.system_actor,
            super::dispatch::Ev::HardwareRecover,
        );
    }

    pub(super) fn on_hardware_recover(&mut self, now: SimTime) {
        if self.crash_pending.is_empty() {
            return;
        }
        self.crash_pending.clear();
        self.metrics.hardware_recoveries += 1;
        self.sim.record(
            self.system_actor,
            "recovery.hardware",
            "global rollback to stable checkpoints",
        );
        // All pre-crash traffic and control events are void.
        self.net_inc += 1;

        // Pick the recovery line: the epoch line under TB schemes;
        // write-through checkpoints are taken at each process's own
        // validations (no epochs), so each restores its newest record,
        // whose mutual consistency FIFO delivery of the `passed_AT`
        // broadcast provides.
        let recovery_epoch: Option<u64> = if self.policy().epoch_line_recovery() {
            epoch_line(self.hosts.iter().filter(|h| !h.dead).map(|h| &h.stable))
        } else {
            None
        };

        // Regime axis 3: the epoch-line argument (paper §3.2) assumes every
        // blocking period ran under the δ/ρ envelope. If the last
        // resynchronization violated that bound, the line just computed is
        // provably stale — flag it rather than silently trusting it.
        if self.sync_violated {
            self.verdicts.stale_epoch_lines += 1;
            self.verdicts.violations.push(crate::checkers::Violation {
                property: "epoch-line-stale",
                detail: format!(
                    "epoch line {:?} computed under violated clock bound \
                     (post-resync deviation exceeded delta)",
                    recovery_epoch
                ),
            });
            self.sim.record_with(self.system_actor, || {
                (
                    "regime.stale-epoch",
                    format!("epoch line {recovery_epoch:?} is stale"),
                )
            });
        }

        // Restore every live process from stable storage and gather the
        // restored cut for checking.
        let mut restored_payloads: Vec<(usize, CheckpointPayload)> = Vec::new();
        let mut resend: Vec<(usize, Arc<Envelope>)> = Vec::new();
        for i in 0..self.hosts.len() {
            if self.hosts[i].dead {
                continue;
            }
            self.hosts[i].up = true;
            self.hosts[i].tb_epoch += 1;
            // A live host may have been mid-blocking with a stable write in
            // flight; the global rollback supersedes that establishment.
            self.hosts[i].abort_stable();
            let mut chosen = match recovery_epoch {
                Some(epoch) => self.hosts[i].stable.latest_at_or_before(epoch).cloned(),
                None => self.hosts[i].stable.latest_shared(),
            };
            // Regime axis 4: a Byzantine-lite node serves value-flipped
            // checkpoints behind valid CRCs — the lie is applied at read
            // time, so it survives any number of clean commits since the
            // arming instant. Nothing between here and the device can see
            // it; only the oracle device-stream diff does.
            if let Some(byz) = self.cfg.regime.byzantine {
                if byz.node == self.hosts[i].node && now >= byz.at {
                    if let Some(corrupt) = chosen
                        .as_ref()
                        .and_then(crate::regime::corrupt_checkpoint_value)
                    {
                        self.verdicts.byz_corruptions += 1;
                        self.sim.record_with(self.system_actor, || {
                            (
                                "regime.byzantine",
                                format!(
                                    "{} served value-flipped checkpoint {} to recovery",
                                    self.hosts[i].pid,
                                    corrupt.seq()
                                ),
                            )
                        });
                        chosen = Some(corrupt);
                    }
                }
            }
            let restored_seq = chosen.as_ref().map_or(0, |c| c.seq());
            let payload = match chosen {
                Some(ckpt) => CheckpointPayload::from_checkpoint(&ckpt).expect("stable decodes"),
                None => {
                    // No stable checkpoint yet: restart from the initial
                    // state (all progress lost).
                    let fresh = CounterApp::new(self.cfg.seed ^ 0xA5A5);
                    CheckpointPayload::new(
                        fresh.snapshot(),
                        EngineSnapshot::default(),
                        Vec::new(),
                        Vec::new(),
                        SimTime::ZERO,
                    )
                }
            };
            let distance = now
                .saturating_duration_since(payload.state_time())
                .as_secs_f64();
            self.metrics.rollbacks.push(RollbackRecord {
                process: self.hosts[i].pid,
                cause: RollbackCause::Hardware,
                decision: RecoveryDecision::RollBack,
                distance_secs: distance,
                at: now,
            });
            self.hosts[i].restore_from_payload(&payload);
            for env in &payload.unacked {
                resend.push((i, Arc::clone(env)));
            }
            restored_payloads.push((i, payload.clone()));
            // Align the engine's Ndc with the recovered stable epoch and
            // restart the TB timers.
            if self.hosts[i].tb.is_some() {
                let ndc = CkptSeqNo(restored_seq);
                let mut actions =
                    self.hosts[i].engine_event(MdcdEvent::StableCheckpointCommitted(ndc), now);
                self.apply_host_actions(i, &mut actions, now);
                let node = self.hosts[i].node;
                let now_local = self.clocks.read(node, now);
                let mut actions =
                    self.hosts[i].tb_event(TbEvent::Restarted { now_local, ndc }, now);
                self.apply_host_actions(i, &mut actions, now);
            }
            self.sim.record_with(self.host_actors[i], || {
                (
                    "recovery.restore",
                    format!("stable state from {}", payload.state_time()),
                )
            });
        }

        // Replay receive logs attached to volatile-copy checkpoints into
        // the restored cut (see `filter_replays`).
        let restored_by_pid: Vec<(ProcessId, CheckpointPayload)> = restored_payloads
            .iter()
            .map(|(i, p)| (self.hosts[*i].pid, p.clone()))
            .collect();
        let replays = filter_replays(
            &restored_by_pid,
            self.topology.active,
            self.global_validated,
        );
        for (pid, env) in replays {
            let Some(i) = self.index_of_pid(pid) else {
                continue;
            };
            if let MessageBody::Application { payload, .. } = &env.body {
                self.hosts[i]
                    .app
                    .on_message(env.from(), env.id.seq, payload);
                self.metrics.messages_replayed += 1;
                self.sim
                    .record_with(self.host_actors[i], || ("msg.replay", env.to_string()));
            }
        }

        // Check the restored cut (post-replay) before any realignment.
        let restored: Vec<RestoredState> = restored_payloads
            .iter()
            .map(|(i, payload)| {
                let mut p = payload.clone();
                p.app = self.hosts[*i].app.snapshot().into();
                RestoredState {
                    pid: self.hosts[*i].pid,
                    role: self.hosts[*i].engine.role(),
                    synthetic_history: self.hosts[*i].synthetic_history,
                    payload: p,
                }
            })
            .collect();
        let checker = GlobalChecker::new(self.topology.active);
        let v = checker.check(&restored, self.global_validated);
        self.verdicts.merge(v);

        // Re-send saved unacknowledged messages (the TB recoverability
        // rule).
        self.metrics.messages_resent += resend.len() as u64;
        for (i, env) in resend {
            self.route_only((*env).clone(), now);
            self.sim
                .record_with(self.host_actors[i], || ("msg.resend", env.to_string()));
        }

        let (Some(act), Some(sdw)) = (
            self.index_of_pid(self.topology.active),
            self.index_of_pid(self.topology.shadow),
        ) else {
            return;
        };
        // Guarded operation restarts from a common state: the shadow is
        // refreshed from the restored active replica (DESIGN.md §2 — the
        // GSU middleware re-initializes both versions from one state when
        // (re)entering guarded operation).
        if !self.hosts[act].dead && !self.hosts[sdw].dead {
            let act_state = self.hosts[act].app.snapshot();
            let act_sn = self.hosts[act].engine.snapshot().msg_sn;
            let shadow = &mut self.hosts[sdw];
            shadow.app.restore(&act_state);
            let mut snap = shadow.engine.snapshot();
            snap.msg_sn = act_sn;
            snap.vr_act = act_sn;
            snap.dirty = false;
            snap.log.clear();
            shadow.engine.restore(&snap);
            shadow.synthetic_history = true;
            self.sim.record(
                self.host_actors[sdw],
                "recovery.refresh",
                "shadow re-aligned to restored active state",
            );
        }
        // A dead active means the shadow must remain (or become) promoted.
        if self.hosts[act].dead && self.hosts[sdw].engine.role() != ProcessRole::Active {
            let plan = self.hosts[sdw].engine.take_over();
            if let Some(peer) = self.index_of_pid(self.topology.peer) {
                if let Some(p) = self.hosts[peer].engine.as_peer_mut() {
                    p.retarget_active(self.topology.shadow);
                }
            }
            self.metrics.messages_resent += plan.resend.len() as u64;
            for env in plan.resend {
                self.send_from(sdw, env, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_net::MsgId;

    const ACT: ProcessId = ProcessId(1);
    const SDW: ProcessId = ProcessId(2);
    const PEER: ProcessId = ProcessId(3);

    fn payload_at(t: u64) -> CheckpointPayload {
        CheckpointPayload::new(
            vec![t as u8],
            EngineSnapshot::default(),
            Vec::new(),
            Vec::new(),
            SimTime::from_nanos(t),
        )
    }

    fn store_with_commits(epochs: &[u64]) -> StableStore {
        let mut s = StableStore::new();
        for &e in epochs {
            let ckpt = payload_at(e).into_checkpoint(e, "stable-current").unwrap();
            s.begin_write(ckpt).unwrap();
            s.commit_write().unwrap();
        }
        s
    }

    fn app_env(from: ProcessId, seq: u64, to: ProcessId) -> Envelope {
        Envelope::new(
            MsgId {
                from,
                seq: MsgSeqNo(seq),
            },
            to,
            MessageBody::Application {
                payload: vec![1],
                dirty: false,
            },
        )
    }

    #[test]
    fn epoch_line_rolls_back_to_a_torn_writers_last_commit() {
        // Three processes commit epochs 1 and 2; one tears its epoch-3
        // write in the crash while the other two commit theirs. The
        // recovery line is epoch 2 — the newest epoch everyone holds.
        let a = store_with_commits(&[1, 2, 3]);
        let mut b = store_with_commits(&[1, 2]);
        let ckpt = payload_at(3).into_checkpoint(3, "stable-current").unwrap();
        b.begin_write(ckpt).unwrap();
        b.crash(); // torn: epoch 3 never committed
        let c = store_with_commits(&[1, 2, 3]);
        assert_eq!(b.latest().map(|c| c.seq()), Some(2), "torn write discarded");
        assert_eq!(epoch_line([&a, &b, &c].into_iter()), Some(2));
    }

    #[test]
    fn epoch_line_of_aligned_stores_is_their_epoch() {
        let stores = [
            store_with_commits(&[1, 2]),
            store_with_commits(&[1, 2]),
            store_with_commits(&[1, 2]),
        ];
        assert_eq!(epoch_line(stores.iter()), Some(2));
    }

    #[test]
    fn epoch_line_with_an_empty_store_is_zero() {
        // A process that never committed forces a restart from the
        // initial state for everyone.
        let stores = [store_with_commits(&[1, 2, 3]), StableStore::new()];
        assert_eq!(epoch_line(stores.iter()), Some(0));
        assert_eq!(epoch_line(std::iter::empty()), None);
    }

    #[test]
    fn replay_keeps_only_sent_reflected_entries() {
        // P2's receive log holds three messages from the active; the
        // active's restored state reflects seqs 1..=3 as sent, but only
        // seqs 1..=2 are validated. Seq 9 was never reflected as sent.
        let mut act = payload_at(10);
        act.sent = [1u64, 2, 3]
            .iter()
            .map(|&seq| crate::payload::SentRecord {
                to: PEER,
                seq: MsgSeqNo(seq),
            })
            .collect();
        let mut p2 = payload_at(10);
        p2.replay = vec![
            app_env(ACT, 1, PEER),
            app_env(ACT, 2, PEER),
            app_env(ACT, 3, PEER), // beyond the validation horizon
            app_env(ACT, 9, PEER), // not reflected as sent
            app_env(SDW, 1, PEER), // sender not in the restored cut
        ]
        .into_iter()
        .map(Arc::new)
        .collect();
        let restored = vec![(ACT, act), (PEER, p2)];
        let replays = filter_replays(&restored, ACT, MsgSeqNo(2));
        let seqs: Vec<u64> = replays.iter().map(|(_, e)| e.id.seq.0).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert!(replays.iter().all(|(pid, _)| *pid == PEER));
    }

    #[test]
    fn replay_of_non_active_senders_ignores_the_validation_horizon() {
        // The validated-only guard protects restored-clean states from the
        // active's unvalidated output; peer traffic replays whenever the
        // restored cut reflects it as sent.
        let mut peer = payload_at(10);
        peer.sent = vec![crate::payload::SentRecord {
            to: ACT,
            seq: MsgSeqNo(5),
        }]
        .into();
        let mut act = payload_at(10);
        act.replay = vec![Arc::new(app_env(PEER, 5, ACT))];
        let restored = vec![(ACT, act), (PEER, peer)];
        let replays = filter_replays(&restored, ACT, MsgSeqNo(0));
        assert_eq!(replays.len(), 1);
        assert_eq!(replays[0].0, ACT);
        assert_eq!(replays[0].1.id.seq, MsgSeqNo(5));
    }

    #[test]
    fn volatile_copy_attaches_filtered_unacked_and_receive_log() {
        // The copied state's horizon is msg_sn = 2: unacked seqs 3 and 4
        // were never sent per the restored state and must not ride along.
        let mut p = payload_at(7);
        p.engine.msg_sn = MsgSeqNo(2);
        let vol = p.into_checkpoint(1, "type-1").unwrap();
        let mut acks = AckTracker::new();
        for seq in 1..=4 {
            acks.on_send(app_env(ACT, seq, PEER));
        }
        let recv_log = vec![Arc::new(app_env(PEER, 8, ACT))];
        let copy = volatile_copy_payload(&vol, &acks, &recv_log);
        let unacked: Vec<u64> = copy.unacked.iter().map(|e| e.id.seq.0).collect();
        assert_eq!(unacked, vec![1, 2]);
        assert_eq!(copy.replay.len(), 1);
        assert_eq!(copy.replay[0].id.seq, MsgSeqNo(8));
    }

    #[test]
    fn prune_unacked_respects_the_horizon() {
        let mut acks = AckTracker::new();
        for seq in 1..=5 {
            acks.on_send(app_env(ACT, seq, PEER));
        }
        prune_unacked(&mut acks, MsgSeqNo(3));
        let kept: Vec<u64> = acks.unacked().iter().map(|e| e.id.seq.0).collect();
        assert_eq!(kept, vec![1, 2, 3]);
    }
}
