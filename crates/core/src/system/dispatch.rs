//! The discrete-event loop: routes fired events to hosts and applies the
//! environment side of their actions.
//!
//! This layer is intentionally thin. Everything protocol-shaped lives in
//! [`ProcessHost`](super::ProcessHost); dispatch owns only the
//! environment — the scheduler, network, clocks, metrics, trace — and, in
//! each host's slot, the liveness behind the staleness filters (network
//! incarnations, retired senders, undone sends, TB epochs) that need a view
//! across hosts.

use std::sync::Arc;

use synergy_clocks::LocalTime;
use synergy_des::{ActorId, SimTime};
use synergy_net::{Endpoint, Envelope, MessageBody, MsgId, ProcessId};
use synergy_storage::Stable;

use crate::app::Application;
use crate::faults::{CrashKind, NodeId};
use crate::system::host::{HostAction, HostEvent};
use crate::system::{Liveness, System};

/// A scheduled simulation event.
#[derive(Debug, Clone)]
pub(super) enum Ev {
    /// A protocol envelope arrives at an endpoint (`inc` voids
    /// pre-recovery traffic; `sent_in` is the sender's incarnation, which
    /// voids a send its local rollback undid).
    Deliver {
        env: Arc<Envelope>,
        inc: u64,
        sent_in: u64,
    },
    /// A transport ack of `of`, sent by `from`, arrives (`inc` likewise).
    Ack {
        from: ProcessId,
        of: MsgId,
        inc: u64,
    },
    /// A TB timer deadline (voided when `epoch` is stale).
    TbTimer { deadline: LocalTime, epoch: u64 },
    /// A TB blocking period's end (voided when `epoch` is stale).
    BlockingOver { epoch: u64 },
    /// A workload arrival for one component.
    Tick {
        component: u8,
        external: bool,
        scripted: bool,
    },
    /// The design fault arms.
    SoftwareFaultActivate,
    /// The unmasked-regime bad-message injector arms.
    RegimeArm,
    /// A Byzantine-lite node flips value bytes in its latest stable
    /// checkpoint behind a valid CRC.
    ByzantineCorrupt { node: NodeId },
    /// A node loses power.
    HardwareCrash { node: NodeId },
    /// The system-wide restart after a crash.
    HardwareRecover,
    /// The clock fleet resynchronizes.
    Resync,
    /// End of mission.
    End,
}

impl System {
    pub(super) fn dispatch(&mut self, actor: ActorId, now: SimTime, ev: Ev) {
        match ev {
            Ev::End => self.finished = true,
            Ev::Deliver { env, sent_in, .. } if self.undone(&env, sent_in) => self
                .sim
                .record_with(actor, || ("msg.void", env.to_string())),
            Ev::Deliver { env, inc, .. } => self.on_deliver(actor, now, env, inc),
            Ev::Ack { from, of, inc } => {
                if let Some(i) = self.receiver(actor, from, inc) {
                    self.drive_host(i, HostEvent::Ack(of), now);
                }
            }
            Ev::TbTimer { deadline, epoch } => self.on_tb_timer(actor, now, deadline, epoch),
            Ev::BlockingOver { epoch } => self.on_blocking_over(actor, now, epoch),
            Ev::Tick {
                component,
                external,
                scripted,
            } => self.on_tick(now, component, external, scripted),
            Ev::SoftwareFaultActivate => {
                self.sim
                    .record(self.system_actor, "fault.software", "design fault armed");
                if let Some(i) = self.index_of_pid(self.topology.active) {
                    self.hosts[i].app.set_faulty(true);
                }
            }
            Ev::RegimeArm => {
                self.sim.record(
                    self.system_actor,
                    "regime.arm",
                    "bad-message injector armed",
                );
                self.regime_armed_at = Some(now);
                if let Some(i) = self.index_of_pid(self.topology.active) {
                    self.hosts[i].arm_regime();
                }
            }
            // The node does not corrupt its store at rest: it serves
            // value-flipped checkpoints behind valid CRCs whenever a
            // recovery reads from it (`on_hardware_recover`), so the lie
            // survives any number of clean commits. This stamps the arming.
            Ev::ByzantineCorrupt { node } => self.sim.record_with(self.system_actor, || {
                let detail =
                    format!("{node} now serves value-flipped checkpoints behind valid CRCs");
                ("regime.byzantine", detail)
            }),
            Ev::HardwareCrash { node } => self.on_hardware_crash(now, node),
            Ev::HardwareRecover => self.on_hardware_recover(now),
            Ev::Resync => self.on_resync(now),
        }
    }

    fn on_deliver(&mut self, actor: ActorId, now: SimTime, env: Arc<Envelope>, inc: u64) {
        if actor == self.device_actor && inc == self.net_inc {
            self.sim
                .record_with(self.device_actor, || ("device.recv", env.to_string()));
            self.device_log.push((now, Arc::unwrap_or_clone(env)));
        } else if let Some(i) = self.receiver(actor, env.from(), inc) {
            self.drive_host(i, HostEvent::Deliver(env), now);
        }
    }

    /// Whether `env`, sent in its sender's incarnation `sent_in`, is an
    /// application message a later local rollback of the sender undid
    /// (DESIGN.md §8, decision 9).
    fn undone(&self, env: &Envelope, sent_in: u64) -> bool {
        matches!(env.body, MessageBody::Application { .. })
            && self.index_of_pid(env.from()).is_some_and(|s| {
                let slot = &self.slots[s];
                sent_in != slot.incarnation && env.id.seq > slot.undone_above
            })
    }

    /// The host that takes an arrival at `actor` from `from`: none for
    /// pre-recovery traffic, at a crashed node (the message is lost), or
    /// from a process retired by takeover (the message is stale).
    fn receiver(&self, actor: ActorId, from: ProcessId, inc: u64) -> Option<usize> {
        let i = self.host_index(actor).filter(|_| inc == self.net_inc)?;
        let retired = |s: usize| self.slots[s].liveness == Liveness::Retired;
        let up = self.slots[i].liveness == Liveness::Up;
        (up && !self.index_of_pid(from).is_some_and(retired)).then_some(i)
    }

    fn on_tb_timer(&mut self, actor: ActorId, now: SimTime, deadline: LocalTime, epoch: u64) {
        let Some(i) = self.host_index(actor) else {
            return;
        };
        let slot = &mut self.slots[i];
        if slot.liveness != Liveness::Up || epoch != slot.tb_epoch {
            return;
        }
        slot.timer_event = None;
        let node = self.hosts[i].node;
        let crash = self.round_crash(node, deadline);
        if crash != Some(CrashKind::RoundStart) {
            self.drive_host(i, HostEvent::TimerExpired { deadline }, now);
        }
        // A mid-round crash lands after the timer staged the write and
        // started blocking: the write is torn.
        if crash.is_some() {
            self.on_hardware_crash(now, node);
        }
    }

    /// The crash planned for `node` in the round whose timer deadline is
    /// `deadline`: round `g` is the deadline `g·Δ` on the node's own clock,
    /// a grid the TB engine keeps across restarts.
    fn round_crash(&self, node: NodeId, deadline: LocalTime) -> Option<CrashKind> {
        let rounds = &self.cfg.faults.rounds;
        if rounds.is_empty() {
            return None;
        }
        let round = deadline.as_nanos() / self.cfg.tb_interval.as_nanos();
        rounds
            .iter()
            .find(|c| c.victim == node && c.epoch == round)
            .map(|c| c.kind)
    }

    fn on_blocking_over(&mut self, actor: ActorId, now: SimTime, epoch: u64) {
        let Some(i) = self.host_index(actor) else {
            return;
        };
        if self.slots[i].liveness != Liveness::Up || epoch != self.slots[i].tb_epoch {
            return;
        }
        self.drive_host(i, HostEvent::BlockingElapsed, now);
    }

    fn on_tick(&mut self, now: SimTime, component: u8, external: bool, scripted: bool) {
        // Schedule the next arrival of this stream first (scripted sends
        // are one-shot).
        if !scripted {
            if let Some((_, _, stream)) = self
                .arrivals
                .iter_mut()
                .find(|(c, e, _)| *c == component && *e == external)
            {
                let gap = stream.next_interarrival();
                self.sim.schedule_in(
                    gap,
                    self.system_actor,
                    Ev::Tick {
                        component,
                        external,
                        scripted: false,
                    },
                );
            }
        }
        let targets = if component == 1 {
            [Some(self.topology.active), Some(self.topology.shadow)]
        } else {
            [Some(self.topology.peer), None]
        };
        for pid in targets.into_iter().flatten() {
            let up = |&i: &usize| self.slots[i].liveness == Liveness::Up;
            if let Some(i) = self.index_of_pid(pid).filter(up) {
                self.drive_host(i, HostEvent::Produce { external }, now);
            }
        }
    }

    /// Feeds `event` to host `i` and applies what it asks for. The host
    /// writes into the system's one action buffer, which goes back empty.
    pub(super) fn drive_host(&mut self, i: usize, event: HostEvent, now: SimTime) {
        let mut actions = std::mem::take(&mut self.actions);
        self.hosts[i].handle_into(event, now, &mut actions);
        self.apply_host_actions(i, &mut actions, now);
        self.actions = actions;
    }

    /// Applies host actions in order and empties `actions`; runs software
    /// recovery last when the host flagged a detected design fault.
    pub(super) fn apply_host_actions(
        &mut self,
        i: usize,
        actions: &mut Vec<HostAction>,
        now: SimTime,
    ) {
        let mut software_error = false;
        for action in actions.drain(..) {
            match action {
                HostAction::Send(env) => self.forward_send(i, env, now),
                HostAction::SendAck(ack) => self.route_ack(ack, now),
                HostAction::Delivered => self.metrics.messages_delivered += 1,
                HostAction::AtPerformed { pass } => {
                    self.metrics.at_runs += 1;
                    if pass {
                        self.sim.record(self.slots[i].actor, "at.pass", "");
                    } else {
                        self.metrics.at_failures += 1;
                        self.sim.record(self.slots[i].actor, "at.fail", "");
                    }
                }
                HostAction::SoftwareErrorDetected => software_error = true,
                HostAction::VolatileSaved { kind } => {
                    self.metrics.count_volatile(kind);
                    self.sim
                        .record_with(self.slots[i].actor, || (format!("ckpt.{kind}"), "volatile"));
                }
                HostAction::WriteThroughCommitted => {
                    self.metrics.stable_commits += 1;
                    self.account_stable_commit(i);
                    self.sim
                        .record(self.slots[i].actor, "ckpt.stable", "write-through type-2");
                }
                HostAction::StableWriteBegun {
                    label,
                    expected_dirty,
                    fallback,
                } => {
                    if fallback {
                        self.metrics.dirty_fallbacks += 1;
                    }
                    self.sim.record_with(self.slots[i].actor, || {
                        (
                            "tb.write",
                            format!("{label} expected_dirty={}", u8::from(expected_dirty)),
                        )
                    });
                }
                HostAction::StableReplaced => {
                    self.metrics.stable_replacements += 1;
                    self.sim.record(
                        self.slots[i].actor,
                        "tb.replace",
                        "dirty cleared in blocking: switch to current state",
                    );
                }
                HostAction::StableCommitted { ndc } => {
                    self.metrics.stable_commits += 1;
                    self.account_stable_commit(i);
                    self.sim.record_with(self.slots[i].actor, || {
                        ("ckpt.stable", format!("committed {ndc}"))
                    });
                }
                HostAction::BlockingStarted { duration } => {
                    self.metrics.blocking_periods += 1;
                    self.metrics.blocking_total += duration;
                    let epoch = self.slots[i].tb_epoch;
                    // Blocking is defined on the local clock; translate its
                    // end into true time through this node's clock.
                    let node = self.hosts[i].node;
                    let end_local = self.clocks.read(node.index(), now) + duration;
                    let end_true = self.clocks.when_local(node.index(), end_local).max(now);
                    self.sim
                        .schedule_at(end_true, self.slots[i].actor, Ev::BlockingOver { epoch });
                }
                HostAction::ScheduleTimer { at } => self.schedule_tb_timer(i, at, now),
                HostAction::ResyncRequested => {
                    if !self.resync_pending {
                        self.resync_pending = true;
                        // One message round-trip of latency for the
                        // resynchronization protocol.
                        self.sim
                            .schedule_in(self.cfg.tmax, self.system_actor, Ev::Resync);
                    }
                }
                HostAction::RegimeCorrupted { caught, offset } => {
                    if caught {
                        self.verdicts.at_catches += 1;
                        if self.metrics.regime_detection_secs.is_none() {
                            let armed = self.regime_armed_at.unwrap_or(now);
                            self.metrics.regime_detection_secs =
                                Some(now.saturating_duration_since(armed).as_secs_f64());
                        }
                        self.sim.record_with(self.slots[i].actor, || {
                            ("regime.at-catch", format!("corrupt byte at +{offset}"))
                        });
                    } else {
                        self.verdicts.at_escapes += 1;
                        self.sim.record_with(self.slots[i].actor, || {
                            (
                                "regime.at-escape",
                                format!("false negative, corrupt byte at +{offset}"),
                            )
                        });
                    }
                }
                HostAction::Record { kind, detail } => {
                    self.sim.record(self.slots[i].actor, kind, detail);
                }
            }
        }
        if software_error {
            self.software_recovery(now);
        }
    }

    /// Accounts the freshly committed stable checkpoint of host `i` through
    /// the incremental chain format, when delta accounting is enabled. Uses
    /// the size-only measurement path: steady state costs a refcount bump of
    /// the committed image, no materialized regions.
    fn account_stable_commit(&mut self, i: usize) {
        let Some(codecs) = &mut self.ckpt_codecs else {
            return;
        };
        let Some(ckpt) = self.hosts[i].stable.latest_shared() else {
            return;
        };
        let cost = codecs[i].measure_committed(&ckpt);
        self.metrics.stable_bytes_full += cost.full_bytes;
        self.metrics.stable_bytes_delta += cost.encoded_bytes;
    }

    /// The environment side of a protocol send: ground truth, metrics,
    /// trace, routing.
    pub(super) fn forward_send(&mut self, i: usize, env: Arc<Envelope>, now: SimTime) {
        if let MessageBody::PassedAt { msg_sn, .. } = env.body {
            self.global_validated = self.global_validated.max(msg_sn);
        }
        self.metrics.messages_sent += 1;
        self.sim
            .record_with(self.slots[i].actor, || ("msg.send", env.to_string()));
        self.route_only(env, now);
    }

    pub(super) fn route_only(&mut self, env: Arc<Envelope>, now: SimTime) {
        if let Some((at, actor)) = self.route(&env, now) {
            let inc = self.net_inc;
            let sent_in = self
                .index_of_pid(env.from())
                .map_or(0, |s| self.slots[s].incarnation);
            let ev = Ev::Deliver { env, inc, sent_in };
            self.sim.schedule_at(at, actor, ev);
        }
    }

    /// Routes a transport ack; its event carries what the receiver reads.
    fn route_ack(&mut self, ack: Envelope, now: SimTime) {
        if let (Some((at, actor)), MessageBody::Ack { of }) = (self.route(&ack, now), ack.body) {
            let (from, inc) = (ack.id.from, self.net_inc);
            self.sim.schedule_at(at, actor, Ev::Ack { from, of, inc });
        }
    }

    /// When and at which actor `env` arrives; `None` for an unknown process,
    /// before the network draws a delay.
    fn route(&mut self, env: &Envelope, now: SimTime) -> Option<(SimTime, ActorId)> {
        let actor = match env.to {
            Endpoint::Process(p) => self.slots[self.index_of_pid(p)?].actor,
            Endpoint::Device(_) => self.device_actor,
        };
        Some((self.net.route(now, env), actor))
    }

    pub(super) fn schedule_tb_timer(&mut self, i: usize, at_local: LocalTime, now: SimTime) {
        let node = self.hosts[i].node.index();
        let fire = self.clocks.when_local(node, at_local).max(now);
        let epoch = self.slots[i].tb_epoch;
        let id = self.sim.schedule_at(
            fire,
            self.slots[i].actor,
            Ev::TbTimer {
                deadline: at_local,
                epoch,
            },
        );
        self.slots[i].timer_event = Some(id);
    }

    pub(super) fn on_resync(&mut self, now: SimTime) {
        self.resync_pending = false;
        self.metrics.resyncs += 1;
        self.clocks.resync_all(now);
        self.sim
            .record(self.system_actor, "clocks.resync", "fleet resynchronized");
        // Regime axis 3: a failed resynchronization leaves one clock beyond
        // the δ envelope. Inject, then *detect* — the deviation check is the
        // flag the verdict classifier keys on.
        if let Some(plan) = self.cfg.faults.resync_violation {
            if now >= plan.after {
                self.clocks.inject_skew(plan.node.index(), plan.excess, now);
            }
        }
        let deviation = self.clocks.max_pairwise_deviation(now);
        if deviation > self.clocks.params().delta {
            self.sync_violated = true;
            self.verdicts.resync_violations += 1;
            self.verdicts.violations.push(crate::checkers::Violation {
                property: "clock-sync",
                detail: format!(
                    "post-resync deviation {:.1}us exceeds delta {:.1}us",
                    deviation.as_secs_f64() * 1e6,
                    self.clocks.params().delta.as_secs_f64() * 1e6
                ),
            });
            self.sim.record_with(self.system_actor, || {
                (
                    "regime.resync-violation",
                    format!("deviation {:.1}us > delta", deviation.as_secs_f64() * 1e6),
                )
            });
        } else {
            self.sync_violated = false;
        }
        // Timer deadlines are local-clock values; after slewing, their true
        // fire times change — reschedule every pending timer.
        for i in 0..self.hosts.len() {
            if self.hosts[i].tb.is_none() {
                continue;
            }
            let now_local = self.clocks.read(self.hosts[i].node.index(), now);
            let mut actions = std::mem::take(&mut self.actions);
            let resynced = synergy_tb::Event::ResyncCompleted { now_local };
            self.hosts[i].tb_step(resynced, now, &mut actions);
            self.apply_host_actions(i, &mut actions, now);
            self.actions = actions;
            let deadline = self.hosts[i].tb.as_ref().expect("checked").next_deadline();
            if let Some(old) = self.slots[i].timer_event.take() {
                self.sim.cancel(old);
            }
            if self.slots[i].liveness == Liveness::Up {
                self.schedule_tb_timer(i, deadline, now);
            }
        }
    }
}
