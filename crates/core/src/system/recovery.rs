//! Recovery: epoch-line selection, torn-write handling, volatile rollback
//! and unacked/receive-log replay.
//!
//! The decision logic is exposed as pure functions ([`epoch_line`],
//! [`filter_replays`], [`amend_volatile_copy`], [`prune_unacked`]) so it
//! can be unit-tested without a full [`System`]; the two recovery
//! procedures (software takeover, global hardware rollback) orchestrate
//! them over the hosts and both end in one cut step, [`settle_cut`]. The
//! simulator and the interleaving explorer both run software recovery's
//! `recover_locally`, `take_over` and cut step, and the simulator and the
//! cluster node each call [`ProcessHost::restore_stable`] once — select
//! the checkpoint at the line, serve it value-flipped on a Byzantine-lite
//! node, install it, realign `Ndc`, restart TB.

use std::sync::Arc;

use synergy_clocks::LocalTime;
use synergy_des::SimTime;
use synergy_mdcd::{EngineSnapshot, Event as MdcdEvent, ProcessRole, RecoveryDecision};
use synergy_net::{AckTracker, CkptSeqNo, Endpoint, Envelope, MessageBody, MsgSeqNo, ProcessId};
use synergy_storage::{Checkpoint, CheckpointError, Stable};
use synergy_tb::{Event as TbEvent, TbEngine};

use crate::app::Application;
use crate::checkers::{GlobalChecker, MsgSet, RestoredState, Verdicts, Violation};
use crate::faults::NodeId;
use crate::metrics::{RollbackCause, RollbackRecord};
use crate::payload::CheckpointPayload;
use crate::system::host::{HostAction, ProcessHost};
use crate::system::{Liveness, System};

/// The newest stable epoch committed by *every* live process, given each
/// live process's newest committed epoch.
///
/// TB stable checkpoints are epoch-numbered, and a crash can tear one
/// process's in-flight write while its peers commit theirs (the store
/// discards the torn record); the mutually consistent recovery line is
/// therefore the minimum over the live processes' newest committed epochs.
/// A process with no committed checkpoint (`None`) contributes epoch 0
/// (restart from the initial state). `None` when no process is live.
pub fn epoch_line(newest: impl IntoIterator<Item = Option<u64>>) -> Option<u64> {
    newest.into_iter().map(|epoch| epoch.unwrap_or(0)).min()
}

/// Committed records the simulator's in-memory stable store keeps per host.
///
/// The line selects a host's newest record or the one before it. Between a
/// crash and the recovery (one restart delay, shorter than the TB interval
/// Δ) the survivors complete at most one round the victim did not: a victim
/// whose write tore holds epoch `e − 1` against their `e`, one that died
/// idle holds `e` against at most `e + 1`. The victim's newest epoch is
/// therefore the line, and a survivor is at most one record past it. No
/// record of an abandoned timeline sits between, because a restore discards
/// everything above the epoch it restores. The third record is slack. A
/// line that needs a record the store no longer holds is a
/// `stable-history` violation, never a silent restart from the initial
/// state.
pub(crate) const STABLE_RETENTION: usize = 3;

/// Builds the stable payload for a dirty process's volatile-copy write from
/// its volatile checkpoint `p`.
///
/// Two recoverability amendments ride on the copied state (DESIGN.md §8,
/// decisions 4 and 5): the currently unacknowledged messages are saved —
/// but only those the copied state reflects as sent, so recovery cannot
/// re-send messages the restored state never produced — and the receipts
/// delivered after the copied state are attached for driver-filtered
/// replay (their senders may already hold the acknowledgments).
pub(crate) fn amend_volatile_copy(
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
pub(crate) fn prune_unacked(acks: &mut AckTracker, horizon: MsgSeqNo) {
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
pub(crate) fn filter_replays(
    restored: &[RestoredState],
    original_active: ProcessId,
    global_validated: MsgSeqNo,
) -> Vec<(ProcessId, Arc<Envelope>)> {
    let sent: Vec<MsgSet> = restored
        .iter()
        .map(|s| MsgSet::sent(&s.payload.sent))
        .collect();
    let sent_reflected = |env: &Envelope| {
        let Endpoint::Process(to) = env.to else {
            return false;
        };
        restored
            .iter()
            .zip(&sent)
            .any(|(s, sent)| s.pid == env.from() && sent.contains(to, env.id.seq))
    };
    let mut replays = Vec::new();
    for s in restored {
        for env in &s.payload.replay {
            if !sent_reflected(env) {
                continue;
            }
            if env.from() == original_active && env.id.seq > global_validated {
                continue;
            }
            replays.push((s.pid, Arc::clone(env)));
        }
    }
    replays
}

/// The cut step both recovery procedures end in (DESIGN.md §8, decision
/// 5): each recovered host beside the payload it recovered to, whose
/// `replay` holds the receive log its restore dropped. Replays into each
/// host what [`filter_replays`] keeps, then checks the cut as replay left
/// it. Returns the replays, in order, and the verdicts.
pub(crate) fn settle_cut<S: Stable>(
    cut: Vec<(&mut ProcessHost<S>, CheckpointPayload)>,
    active: ProcessId,
    global_validated: MsgSeqNo,
) -> (Vec<(ProcessId, Arc<Envelope>)>, Verdicts) {
    let (mut hosts, mut states): (Vec<_>, Vec<_>) = cut
        .into_iter()
        .map(|(host, payload)| {
            let state = RestoredState {
                pid: host.pid,
                role: host.engine.role(),
                synthetic_history: host.synthetic_history,
                payload,
            };
            (host, state)
        })
        .unzip();
    let replays = filter_replays(&states, active, global_validated);
    for (host, state) in hosts.iter_mut().zip(&mut states) {
        for (_, env) in replays.iter().filter(|(pid, _)| *pid == state.pid) {
            host.replay(env);
        }
        state.payload.app = host.app.snapshot().into();
    }
    let verdicts = GlobalChecker::new(active).check(&states, global_validated);
    (replays, verdicts)
}

impl<S: Stable> ProcessHost<S> {
    /// The local half of software recovery on a surviving shadow or peer:
    /// decides, then rolls back to the most recent volatile checkpoint or
    /// rolls forward. Returns the decision, the seconds of progress undone
    /// and the receive log a rollback drops, for [`settle_cut`] to replay;
    /// `None` when the host must roll back but holds no volatile checkpoint
    /// (it is then left as it was).
    pub(crate) fn recover_locally(
        &mut self,
        now: SimTime,
    ) -> Option<(RecoveryDecision, f64, Vec<Arc<Envelope>>)> {
        let decision = self
            .engine
            .recovery_decision()
            .expect("shadow/peer decide locally");
        if decision == RecoveryDecision::RollForward {
            return Some((decision, 0.0, Vec::new()));
        }
        let payload = self.volatile_image.clone()?;
        let distance = now
            .saturating_duration_since(payload.state_time())
            .as_secs_f64();
        let dropped = self.install(&payload);
        prune_unacked(&mut self.acks, payload.engine.msg_sn);
        // If a TB blocking period is in progress, the restored engine must
        // re-enter it (restore cleared the hold state).
        if self.tb.as_ref().is_some_and(TbEngine::is_blocking) {
            let mut actions = Vec::new();
            self.engine
                .handle_into(MdcdEvent::BlockingStarted, &mut actions);
            debug_assert!(actions.is_empty());
        }
        Some((decision, distance, dropped))
    }

    /// Replays a receipt the recovered state lost, as its delivery did:
    /// into the application and the receive log.
    fn replay(&mut self, env: &Arc<Envelope>) {
        if let MessageBody::Application { payload, .. } = &env.body {
            self.app.on_message(env.from(), env.id.seq, payload);
            self.recv_log.push(Arc::clone(env));
        }
    }

    /// The takeover, run on the shadow: promotes it to active and retargets
    /// `peer` at it. Returns the suppressed messages beyond the last
    /// validation, which the promoted shadow must (re-)send.
    pub(crate) fn take_over(&mut self, peer: &mut ProcessHost<S>) -> Vec<Envelope> {
        let plan = self.engine.take_over();
        if let Some(p) = peer.engine.as_peer_mut() {
            p.retarget_active(self.pid);
        }
        plan.resend
    }

    /// The per-process half of a global rollback to `line`: selects the
    /// stable record at the line, serves it value-flipped when `byzantine`
    /// says this node lies (regime axis 4,
    /// [`corrupt_checkpoint_value`](crate::regime::corrupt_checkpoint_value)),
    /// and installs it. `line` is an epoch, or `None` to restore the newest
    /// record (write-through checkpoints carry no epochs). A TB host
    /// appends what restarting TB at `now_local` asks of the driver to
    /// `out`; re-sending the restored payload's `unacked` is the caller's,
    /// who orders the resends against its own recovery steps.
    ///
    /// The flip happens at read time and only on the copy recovery
    /// installs: every committed record keeps its bytes and CRC, so the lie
    /// survives any number of clean commits since the fault armed, and
    /// nothing between the store and the device can see it.
    ///
    /// # Errors
    ///
    /// The selected record does not decode as a checkpoint payload; the
    /// host is then left as it was.
    pub fn restore_stable(
        &mut self,
        line: Option<u64>,
        byzantine: bool,
        now: SimTime,
        now_local: LocalTime,
        out: &mut Vec<HostAction>,
    ) -> Result<StableRestore, CheckpointError> {
        let (chosen, violation) = match self.stable_at_line_checked(line) {
            Ok(chosen) => (chosen, None),
            Err(violation) => (None, Some(violation)),
        };
        let lie = chosen
            .as_ref()
            .filter(|_| byzantine)
            .and_then(crate::regime::corrupt_checkpoint_value);
        let flipped = lie.is_some();
        let (epoch, payload) = self.install_stable(lie.or(chosen), now, now_local, out)?;
        Ok(StableRestore {
            epoch,
            payload,
            flipped,
            violation,
        })
    }

    /// The stable checkpoint a global rollback to `line` restores: the
    /// newest committed one at or below the line, or the newest record
    /// when `line` is `None`. Every epoch from a host's last restore up to
    /// its newest was committed and the line is at most that newest, so a
    /// line above zero with nothing at or below it needs a record the store
    /// evicted. That is a `stable-history` violation, not a restart from the
    /// initial state.
    fn stable_at_line_checked(&self, line: Option<u64>) -> Result<Option<Checkpoint>, Violation> {
        let chosen = match line {
            Some(epoch) => self.stable.latest_at_or_before_shared(epoch),
            None => self.stable.latest_shared(),
        };
        match line {
            Some(epoch) if epoch > 0 && chosen.is_none() => Err(Violation {
                property: "stable-history",
                detail: format!(
                    "{} holds no record at or below epoch line {epoch} (newest {:?}): \
                     the record the line selects was evicted",
                    self.pid,
                    self.stable.latest_seq()
                ),
            }),
            _ => Ok(chosen),
        }
    }

    /// Restores this host from `chosen`, or from the application's initial
    /// state when nothing was selected: drops the in-flight stable write
    /// and pending retries, discards the committed records above the
    /// restored epoch, installs the payload, and — on a host that runs TB —
    /// realigns MDCD's `Ndc` with the restored epoch and restarts TB at
    /// `now_local`. Returns the restored epoch and payload.
    fn install_stable(
        &mut self,
        chosen: Option<Checkpoint>,
        now: SimTime,
        now_local: LocalTime,
        out: &mut Vec<HostAction>,
    ) -> Result<(Option<u64>, CheckpointPayload), CheckpointError> {
        let restored_epoch = chosen.as_ref().map(Checkpoint::seq);
        let payload = match &chosen {
            Some(ckpt) => CheckpointPayload::from_checkpoint(ckpt)?,
            // Nothing at or below the line: restart from the initial state
            // (all progress lost).
            None => CheckpointPayload::new(
                self.initial_app.snapshot(),
                EngineSnapshot::default(),
                Vec::new(),
                Vec::new(),
                SimTime::ZERO,
            ),
        };
        // Global recovery supersedes the write in flight and whatever
        // awaited retry, and abandons the timeline above the restored
        // epoch: the epochs after it are taken again, and a record left
        // behind would be selected as the new timeline's once a rewrite of
        // its epoch tears.
        self.abort_stable();
        self.discard_stable_above(restored_epoch.unwrap_or(0));
        // The saved unacked set is tracked again; pre-crash volatile
        // checkpoints and receive logs belong to the abandoned timeline.
        self.install(&payload);
        self.acks.restore(payload.unacked.iter().map(Arc::clone));
        self.volatile_image = None;
        // The engine's restore leaves `Ndc` alone; align it with the
        // restored epoch, or every `passed_AT` until the next commit
        // compares stale. Then restart the TB timers.
        if self.tb.is_some() {
            let ndc = CkptSeqNo(restored_epoch.unwrap_or(0));
            self.engine_step(MdcdEvent::StableCheckpointCommitted(ndc), now, out);
            self.tb_step(TbEvent::Restarted { now_local, ndc }, now, out);
        }
        Ok((restored_epoch, payload))
    }
}

/// What [`ProcessHost::restore_stable`] restored.
#[derive(Debug)]
pub struct StableRestore {
    /// Epoch of the restored record; `None` when nothing at or below the
    /// line was retained and the host restarted from its initial state.
    pub epoch: Option<u64>,
    /// The installed payload.
    pub payload: CheckpointPayload,
    /// Whether the record was served value-flipped (Byzantine-lite).
    pub flipped: bool,
    /// The `stable-history` violation of a line whose record the store
    /// evicted; the host then restarted from its initial state.
    pub violation: Option<Violation>,
}

// ----------------------------------------------------------------------
// Software (MDCD) recovery
// ----------------------------------------------------------------------

impl System {
    pub(super) fn software_recovery(&mut self, now: SimTime) {
        let [act, sdw, peer] = self.role_indices();
        if self.slots[act].liveness == Liveness::Retired {
            return;
        }
        self.metrics.software_recoveries += 1;
        self.sim.record(
            self.system_actor,
            "recovery.software",
            "AT failure: shadow takeover",
        );
        // Retired, the active's in-flight messages are discarded on delivery.
        self.slots[act].liveness = Liveness::Retired;
        // A down host has nothing to roll back, and its restart's global
        // rollback supersedes any local line (DESIGN.md §8, decision 8).
        if self.slots.iter().any(|s| s.liveness == Liveness::Down) {
            return;
        }

        // Local decisions + rollbacks for shadow and peer. The sends above
        // the recovered send counter are undone, and those still in flight
        // are void (decision 9).
        let mut dropped = Vec::with_capacity(2);
        for i in [sdw, peer] {
            let (decision, distance, log) = match self.hosts[i].recover_locally(now) {
                Some(step) => step,
                None => {
                    self.verdicts.violations.push(Violation {
                        property: "validity-self",
                        detail: format!(
                            "{} must roll back but has no volatile checkpoint",
                            self.hosts[i].pid
                        ),
                    });
                    (RecoveryDecision::RollBack, 0.0, Vec::new())
                }
            };
            self.slots[i].incarnation += 1;
            self.slots[i].undone_above = self.hosts[i].engine.snapshot().msg_sn;
            dropped.push((i, log));
            self.metrics.rollbacks.push(RollbackRecord {
                process: self.hosts[i].pid,
                cause: RollbackCause::Software,
                decision,
                distance_secs: distance,
                at: now,
            });
            self.sim.record_with(self.slots[i].actor, || {
                (
                    "recovery.decision",
                    format!("{decision} ({distance:.3}s undone)"),
                )
            });
        }

        self.promote_shadow(sdw, peer, now);

        // The recovered cut, after the takeover so that the promoted shadow's
        // history is checked, and the receipts each rollback dropped.
        let mut cut = vec![None; self.hosts.len()];
        for (i, log) in dropped {
            let mut payload = self.hosts[i].current_payload(now);
            payload.replay = log;
            cut[i] = Some(payload);
        }
        self.close_cut(cut);
    }

    /// Ends both recovery procedures: [`settle_cut`] over the hosts `cut`
    /// holds a payload for (by host index), each replay counted and traced.
    fn close_cut(&mut self, cut: Vec<Option<CheckpointPayload>>) {
        let hosts = self.hosts.iter_mut().zip(cut);
        let cut = hosts.filter_map(|(h, p)| Some((h, p?))).collect();
        let (replays, verdicts) = settle_cut(cut, self.topology.active, self.global_validated);
        self.metrics.messages_replayed += replays.len() as u64;
        for (pid, env) in replays {
            let actor = self.slots[self.index_of_pid(pid).expect("in the cut")].actor;
            self.sim
                .record_with(actor, || ("msg.replay", env.to_string()));
        }
        self.verdicts.merge(verdicts);
    }

    /// The shadow takes over ([`ProcessHost::take_over`]) and re-sends the
    /// unvalidated messages it suppressed.
    pub(super) fn promote_shadow(&mut self, sdw: usize, peer: usize, now: SimTime) {
        let [shadow, peer] = self
            .hosts
            .get_disjoint_mut([sdw, peer])
            .expect("shadow and peer are two hosts");
        let resend = shadow.take_over(peer);
        let resend: Vec<_> = resend.into_iter().map(|e| shadow.note_send(e)).collect();
        self.metrics.messages_resent += resend.len() as u64;
        for env in resend {
            self.forward_send(sdw, env, now);
        }
    }

    // ------------------------------------------------------------------
    // Hardware fault + global rollback recovery
    // ------------------------------------------------------------------

    pub(super) fn on_hardware_crash(&mut self, _now: SimTime, node: NodeId) {
        let Some(i) = self.index_of_node(node) else {
            return;
        };
        if self.slots[i].liveness == Liveness::Retired {
            return; // crashing a retired node changes nothing
        }
        self.sim.record_with(self.slots[i].actor, || {
            ("fault.hardware", format!("node {} crashed", node.index()))
        });
        self.slots[i].liveness = Liveness::Down;
        let host = &mut self.hosts[i];
        host.volatile_image = None;
        if host.stable.is_writing() {
            self.metrics.torn_writes += 1;
        }
        host.stable.crash();
        self.sim.schedule_in(
            self.cfg.restart_delay,
            self.system_actor,
            super::dispatch::Ev::HardwareRecover,
        );
    }

    pub(super) fn on_hardware_recover(&mut self, now: SimTime) {
        if !self.slots.iter().any(|s| s.liveness == Liveness::Down) {
            return;
        }
        self.metrics.hardware_recoveries += 1;
        self.sim.record(
            self.system_actor,
            "recovery.hardware",
            "global rollback to stable checkpoints",
        );
        // All pre-crash traffic and control events are void.
        self.net_inc += 1;

        // Pick the recovery line: the epoch line under TB schemes, whose
        // checkpoints are numbered by epoch and whose crash can tear one
        // process's in-flight write while its peers commit theirs;
        // write-through checkpoints are taken at each process's own
        // validations (no epochs), so each restores its newest record,
        // whose mutual consistency FIFO delivery of the `passed_AT`
        // broadcast provides.
        let recovery_epoch: Option<u64> = if self.cfg.scheme.tb_variant().is_some() {
            epoch_line(
                self.hosts
                    .iter()
                    .zip(&self.slots)
                    .filter(|(_, slot)| slot.liveness != Liveness::Retired)
                    .map(|(h, _)| h.stable.latest_seq()),
            )
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
        let mut cut = vec![None; self.hosts.len()];
        let mut resend: Vec<(usize, Arc<Envelope>)> = Vec::new();
        for i in 0..self.hosts.len() {
            if self.slots[i].liveness == Liveness::Retired {
                continue;
            }
            self.slots[i].liveness = Liveness::Up;
            self.slots[i].tb_epoch += 1;
            // Regime axis 4: a Byzantine-lite node serves value-flipped
            // checkpoints behind valid CRCs from the arming instant on. Only
            // the oracle device-stream diff can see the lie.
            let byzantine = self
                .cfg
                .faults
                .byzantine
                .is_some_and(|byz| byz.node == self.hosts[i].node && now >= byz.at);
            let now_local = self.clocks.read(self.hosts[i].node.index(), now);
            let mut actions = std::mem::take(&mut self.actions);
            let StableRestore {
                epoch: restored_epoch,
                payload,
                flipped,
                violation,
            } = self.hosts[i]
                .restore_stable(recovery_epoch, byzantine, now, now_local, &mut actions)
                .expect("stable decodes");
            self.verdicts.violations.extend(violation);
            if flipped {
                self.verdicts.byz_corruptions += 1;
                self.sim.record_with(self.system_actor, || {
                    (
                        "regime.byzantine",
                        format!(
                            "{} served value-flipped checkpoint {} to recovery",
                            self.hosts[i].pid,
                            restored_epoch.expect("a flip restores a record")
                        ),
                    )
                });
            }
            // The restore discarded the records above its epoch; delta
            // accounting follows, as `DeltaStable` does.
            if let Some(codecs) = &mut self.ckpt_codecs {
                codecs[i].discard_above(restored_epoch.unwrap_or(0));
            }
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
            self.apply_host_actions(i, &mut actions, now);
            self.actions = actions;
            for env in &payload.unacked {
                resend.push((i, Arc::clone(env)));
            }
            self.sim.record_with(self.slots[i].actor, || {
                (
                    "recovery.restore",
                    format!("stable state from {}", payload.state_time()),
                )
            });
            cut[i] = Some(payload);
        }

        // Replay the receive logs attached to volatile-copy checkpoints
        // and check the cut, before any resend or realignment.
        self.close_cut(cut);

        // Re-send saved unacknowledged messages (the TB recoverability
        // rule).
        self.metrics.messages_resent += resend.len() as u64;
        for (i, env) in resend {
            self.route_only(Arc::clone(&env), now);
            self.sim
                .record_with(self.slots[i].actor, || ("msg.resend", env.to_string()));
        }

        let [act, sdw, peer] = self.role_indices();
        // Guarded operation restarts from a common state: the shadow is
        // refreshed from the restored active replica (DESIGN.md §2 — the
        // GSU middleware re-initializes both versions from one state when
        // (re)entering guarded operation).
        let retired = |s: usize| self.slots[s].liveness == Liveness::Retired;
        if !retired(act) && !retired(sdw) {
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
                self.slots[sdw].actor,
                "recovery.refresh",
                "shadow re-aligned to restored active state",
            );
        }
        // A retired active means the shadow must remain (or become) promoted:
        // a crash whose epoch line predates the takeover restored it as a
        // shadow.
        if retired(act) && self.hosts[sdw].engine.role() != ProcessRole::Active {
            self.promote_shadow(sdw, peer, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CounterApp;
    use crate::config::Scheme;
    use crate::system::host::{HostEvent, Topology};
    use synergy_clocks::SyncParams;
    use synergy_des::SimDuration;
    use synergy_net::MsgId;
    use synergy_storage::StableStore;
    use synergy_tb::{TbConfig, TbVariant};

    const ACT: ProcessId = ProcessId(1);
    const SDW: ProcessId = ProcessId(2);
    const PEER: ProcessId = ProcessId(3);

    /// A payload taken at `t`, whose image is the state of a `CounterApp`
    /// salted with `t`.
    fn payload_at(t: u64) -> CheckpointPayload {
        CheckpointPayload::new(
            CounterApp::new(t).snapshot(),
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
        assert_eq!(b.latest_seq(), Some(2), "torn write discarded");
        assert_eq!(epoch_line([&a, &b, &c].map(Stable::latest_seq)), Some(2));
    }

    #[test]
    fn epoch_line_of_aligned_stores_is_their_epoch() {
        let stores = [
            store_with_commits(&[1, 2]),
            store_with_commits(&[1, 2]),
            store_with_commits(&[1, 2]),
        ];
        assert_eq!(epoch_line(stores.iter().map(Stable::latest_seq)), Some(2));
    }

    #[test]
    fn epoch_line_with_an_empty_store_is_zero() {
        // A process that never committed forces a restart from the
        // initial state for everyone.
        let stores = [store_with_commits(&[1, 2, 3]), StableStore::new()];
        assert_eq!(epoch_line(stores.iter().map(Stable::latest_seq)), Some(0));
        assert_eq!(epoch_line([]), None);
    }

    const SALT: u64 = 41;

    fn tb_config() -> TbConfig {
        TbConfig::new(
            TbVariant::Adapted,
            SimDuration::from_secs(1),
            SyncParams::new(SimDuration::from_micros(500), 0.0),
            SimDuration::from_micros(50),
            SimDuration::from_millis(2),
        )
    }

    /// `P2` over the in-memory store, under adapted TB when `tb` says so.
    fn host(tb: bool) -> ProcessHost {
        let (scheme, tb) = if tb {
            (Scheme::Coordinated, Some(tb_config()))
        } else {
            (Scheme::MdcdOnly, None)
        };
        let topology = Topology::canonical();
        let app = CounterApp::new(SALT);
        ProcessHost::new(
            ProcessRole::Peer,
            PEER,
            NodeId::P2,
            topology,
            scheme,
            app,
            tb,
        )
    }

    fn commit<S: Stable>(host: &mut ProcessHost<S>, payload: CheckpointPayload, epoch: u64) {
        let ckpt = payload.into_checkpoint(epoch, "stable-current").unwrap();
        host.stable.begin_write(ckpt).unwrap();
        host.stable.commit_write().unwrap();
    }

    /// An honest restore at `line`, at local time 0.
    fn restore(
        host: &mut ProcessHost,
        line: u64,
    ) -> (Option<u64>, CheckpointPayload, Vec<HostAction>) {
        let mut out = Vec::new();
        let restored = host
            .restore_stable(Some(line), false, SimTime::ZERO, LocalTime::ZERO, &mut out)
            .unwrap();
        assert!(!restored.flipped);
        (restored.epoch, restored.payload, out)
    }

    #[test]
    fn a_line_below_every_commit_restarts_from_the_initial_state() {
        let mut h = host(true);
        commit(&mut h, payload_at(5), 2);
        commit(&mut h, payload_at(6), 3);
        restore(&mut h, 3);
        assert_eq!(h.engine.snapshot().ndc, CkptSeqNo(3));
        let (epoch, _, _) = restore(&mut h, 1);
        assert_eq!(epoch, None, "nothing at or below the line");
        assert_eq!(h.app.snapshot(), CounterApp::new(SALT).snapshot());
        assert_eq!(h.engine.snapshot().ndc, CkptSeqNo(0));
    }

    #[test]
    fn a_line_three_records_back_is_a_stable_history_violation() {
        let mut h = host(true);
        for epoch in 1..=4 {
            commit(&mut h, payload_at(epoch), epoch);
        }
        // The store keeps epochs 2..=4: two records back is the slack.
        let selected = |line| {
            h.stable_at_line_checked(Some(line))
                .map(|c| c.map(|c| c.seq()))
        };
        assert_eq!(selected(4), Ok(Some(4)));
        assert_eq!(selected(2), Ok(Some(2)));
        let evicted = selected(1).unwrap_err();
        assert_eq!(evicted.property, "stable-history");
        assert_eq!(
            evicted.detail,
            "P3 holds no record at or below epoch line 1 (newest Some(4)): \
             the record the line selects was evicted"
        );
        assert_eq!(selected(0), Ok(None), "line 0 is the initial state");
        let mut out = Vec::new();
        let restored = h
            .restore_stable(Some(1), false, SimTime::ZERO, LocalTime::ZERO, &mut out)
            .unwrap();
        assert_eq!(restored.violation, Some(evicted), "reported by the restore");
        assert_eq!(
            restored.epoch, None,
            "which restarts from the initial state"
        );
    }

    #[test]
    fn a_restore_discards_the_abandoned_records_above_its_epoch() {
        let mut h = host(true);
        for epoch in 1..=3 {
            commit(&mut h, payload_at(epoch), epoch);
        }
        let (epoch, _, _) = restore(&mut h, 2);
        assert_eq!(epoch, Some(2));
        assert_eq!(h.stable.latest_seq(), Some(2), "epoch 3 is abandoned");
        restore(&mut h, 0);
        assert_eq!(h.stable.latest_seq(), None, "line 0 abandons every record");
    }

    #[test]
    fn a_refused_discard_lands_before_the_next_write() {
        let dir = std::env::temp_dir().join(format!("synergy-discard-{}", std::process::id()));
        let disk = synergy_storage::DiskStableStore::open(&dir).unwrap();
        let app = CounterApp::new(SALT);
        let topology = Topology::canonical();
        let mut h = ProcessHost::with_stable(
            ProcessRole::Peer,
            PEER,
            NodeId::P2,
            topology,
            Scheme::Coordinated,
            app,
            Some(tb_config()),
            disk,
        );
        for epoch in 1..=3 {
            commit(&mut h, payload_at(epoch), epoch);
        }
        // Epoch 3's record file cannot be unlinked while a directory with
        // files in it stands in its place.
        let third = dir.join(synergy_storage::DiskStableStore::record_file_name(2));
        std::fs::remove_file(&third).unwrap();
        std::fs::create_dir_all(third.join("blocker")).unwrap();
        let mut out = Vec::new();
        h.restore_stable(Some(2), false, SimTime::ZERO, LocalTime::ZERO, &mut out)
            .unwrap();
        assert!(h.stable_pending(), "the refused discard is queued");
        assert_eq!(h.stable.latest_seq(), Some(3), "and its record still held");
        h.retry_stable(SimTime::ZERO, &mut out);
        assert!(h.stable_pending(), "refused again");
        std::fs::remove_dir_all(&third).unwrap();
        std::fs::write(&third, b"").unwrap();
        h.retry_stable(SimTime::ZERO, &mut out);
        assert!(!h.stable_pending());
        assert_eq!(h.stable.latest_seq(), Some(2));
        assert!(!third.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_restore_drops_the_write_in_flight_and_the_queued_retry() {
        let mut h = host(true);
        commit(&mut h, payload_at(5), 1);
        // A write already in flight makes the TB round's own begin fail,
        // which queues it for retry.
        let stray = payload_at(6).into_checkpoint(2, "stable-current").unwrap();
        h.stable.begin_write(stray).unwrap();
        let deadline = h.tb.as_ref().unwrap().next_deadline();
        let timer = HostEvent::TimerExpired { deadline };
        h.handle_into(timer, SimTime::ZERO, &mut Vec::new());
        assert!(h.stable.is_writing() && h.stable_pending());
        let (epoch, _, _) = restore(&mut h, 1);
        assert_eq!(epoch, Some(1));
        assert!(!h.stable.is_writing(), "the write in flight is aborted");
        assert!(!h.stable_pending(), "the retry queue is cleared");
    }

    #[test]
    fn the_restored_payload_carries_the_saved_unacked_set() {
        let mut h = host(true);
        let mut saved = payload_at(5);
        saved.unacked = [1, 2].map(|seq| Arc::new(app_env(PEER, seq, ACT))).to_vec();
        commit(&mut h, saved, 1);
        let (_, payload, _) = restore(&mut h, 1);
        let seqs = |envs: &[Arc<Envelope>]| envs.iter().map(|e| e.id.seq.0).collect::<Vec<_>>();
        assert_eq!(seqs(&payload.unacked), vec![1, 2]);
        assert_eq!(seqs(&h.acks.unacked_shared()), vec![1, 2], "tracked again");
    }

    #[test]
    fn a_tb_host_restarts_its_timer_and_a_plain_host_asks_for_nothing() {
        let mut tb = host(true);
        commit(&mut tb, payload_at(5), 1);
        let (_, _, out) = restore(&mut tb, 1);
        assert!(
            matches!(out[..], [HostAction::ScheduleTimer { .. }]),
            "{out:?}"
        );
        assert_eq!(tb.engine.snapshot().ndc, CkptSeqNo(1));
        let mut plain = host(false);
        commit(&mut plain, payload_at(5), 1);
        let (epoch, _, out) = restore(&mut plain, 1);
        assert_eq!(epoch, Some(1));
        assert!(out.is_empty(), "{out:?}");
    }

    /// A restored cut of the given payloads, every process in the role of
    /// `P2`.
    fn cut<const N: usize>(payloads: [(ProcessId, CheckpointPayload); N]) -> Vec<RestoredState> {
        let state = |(pid, payload)| RestoredState {
            pid,
            role: ProcessRole::Peer,
            synthetic_history: false,
            payload,
        };
        payloads.into_iter().map(state).collect()
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
        let restored = cut([(ACT, act), (PEER, p2)]);
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
        let restored = cut([(ACT, act), (PEER, peer)]);
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
        let mut acks = AckTracker::new();
        for seq in 1..=4 {
            acks.on_send(app_env(ACT, seq, PEER));
        }
        let recv_log = vec![Arc::new(app_env(PEER, 8, ACT))];
        let copy = amend_volatile_copy(p, &acks, &recv_log);
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
        let kept: Vec<u64> = acks.unacked_shared().iter().map(|e| e.id.seq.0).collect();
        assert_eq!(kept, vec![1, 2, 3]);
    }
}
