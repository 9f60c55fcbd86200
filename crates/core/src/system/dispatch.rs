//! The discrete-event loop: routes fired events to hosts and applies the
//! environment side of their actions.
//!
//! This layer is intentionally thin. Everything protocol-shaped lives in
//! [`ProcessHost`](super::ProcessHost); dispatch owns only the
//! environment — the scheduler, network, clocks, metrics, trace — and the
//! staleness filters (network incarnations, dead senders, TB epochs) that
//! need a view across hosts.

use synergy_clocks::LocalTime;
use synergy_des::{ActorId, SimTime};
use synergy_net::{Endpoint, Envelope, MessageBody, RouteDecision};

use crate::app::Application;
use crate::system::host::{HostAction, HostEvent};
use crate::system::System;

/// A scheduled simulation event.
#[derive(Debug, Clone)]
pub(super) enum Ev {
    /// An envelope arrives at an endpoint (`inc` voids pre-recovery
    /// traffic).
    Deliver { env: Envelope, inc: u64 },
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
    ByzantineCorrupt { node: usize },
    /// A node loses power.
    HardwareCrash { node: usize },
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
            Ev::Deliver { env, inc } => self.on_deliver(actor, now, env, inc),
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
            Ev::ByzantineCorrupt { node } => self.on_byzantine_corrupt(now, node),
            Ev::HardwareCrash { node } => self.on_hardware_crash(now, node),
            Ev::HardwareRecover => self.on_hardware_recover(now),
            Ev::Resync => self.on_resync(now),
        }
    }

    fn on_deliver(&mut self, actor: ActorId, now: SimTime, env: Envelope, inc: u64) {
        if inc != self.net_inc {
            return; // pre-recovery traffic
        }
        if actor == self.device_actor {
            self.sim
                .record_with(self.device_actor, || ("device.recv", env.to_string()));
            self.device_log.push((now, env));
            return;
        }
        let Some(i) = self.host_index(actor) else {
            return;
        };
        if !self.hosts[i].up {
            return; // crashed node: message lost
        }
        // Messages from a process dead by takeover are stale.
        if let Some(s) = self.index_of_pid(env.from()) {
            if self.hosts[s].dead {
                return;
            }
        }
        self.drive_host(i, HostEvent::Deliver(env), now);
    }

    fn on_tb_timer(&mut self, actor: ActorId, now: SimTime, deadline: LocalTime, epoch: u64) {
        let Some(i) = self.host_index(actor) else {
            return;
        };
        let host = &mut self.hosts[i];
        if !host.up || host.dead || epoch != host.tb_epoch {
            return;
        }
        host.timer_event = None;
        self.drive_host(i, HostEvent::TimerExpired { deadline }, now);
    }

    fn on_blocking_over(&mut self, actor: ActorId, now: SimTime, epoch: u64) {
        let Some(i) = self.host_index(actor) else {
            return;
        };
        if !self.hosts[i].up || epoch != self.hosts[i].tb_epoch {
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
            let Some(i) = self.index_of_pid(pid) else {
                continue;
            };
            if !self.hosts[i].up || self.hosts[i].dead {
                continue;
            }
            self.drive_host(i, HostEvent::Produce { external }, now);
        }
    }

    /// Feeds `event` to host `i` and applies what it asks for. The host
    /// writes into the system's one action buffer, which goes back empty.
    fn drive_host(&mut self, i: usize, event: HostEvent, now: SimTime) {
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
                HostAction::SendAck(env) => self.route_only(env, now),
                HostAction::Delivered => self.metrics.messages_delivered += 1,
                HostAction::AtPerformed { pass } => {
                    self.metrics.at_runs += 1;
                    if pass {
                        self.sim.record(self.host_actors[i], "at.pass", "");
                    } else {
                        self.metrics.at_failures += 1;
                        self.sim.record(self.host_actors[i], "at.fail", "");
                    }
                }
                HostAction::SoftwareErrorDetected => software_error = true,
                HostAction::VolatileSaved { kind } => {
                    self.metrics.count_volatile(kind);
                    self.sim
                        .record_with(self.host_actors[i], || (format!("ckpt.{kind}"), "volatile"));
                }
                HostAction::WriteThroughCommitted => {
                    self.metrics.stable_commits += 1;
                    self.account_stable_commit(i);
                    self.sim
                        .record(self.host_actors[i], "ckpt.stable", "write-through type-2");
                }
                HostAction::StableWriteBegun {
                    label,
                    expected_dirty,
                    fallback,
                } => {
                    if fallback {
                        self.metrics.dirty_fallbacks += 1;
                    }
                    self.sim.record_with(self.host_actors[i], || {
                        (
                            "tb.write",
                            format!("{label} expected_dirty={}", u8::from(expected_dirty)),
                        )
                    });
                }
                HostAction::StableReplaced => {
                    self.metrics.stable_replacements += 1;
                    self.sim.record(
                        self.host_actors[i],
                        "tb.replace",
                        "dirty cleared in blocking: switch to current state",
                    );
                }
                HostAction::StableCommitted { ndc } => {
                    self.metrics.stable_commits += 1;
                    self.account_stable_commit(i);
                    self.sim.record_with(self.host_actors[i], || {
                        ("ckpt.stable", format!("committed {ndc}"))
                    });
                }
                HostAction::BlockingStarted { duration } => {
                    self.metrics.blocking_periods += 1;
                    self.metrics.blocking_total += duration;
                    let host = &self.hosts[i];
                    let epoch = host.tb_epoch;
                    // Blocking is defined on the local clock; translate its
                    // end into true time through this node's clock.
                    let node = host.node;
                    let end_local = self.clocks.read(node, now) + duration;
                    let end_true = self.clocks.when_local(node, end_local).max(now);
                    self.sim
                        .schedule_at(end_true, self.host_actors[i], Ev::BlockingOver { epoch });
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
                        self.sim.record_with(self.host_actors[i], || {
                            ("regime.at-catch", format!("corrupt byte at +{offset}"))
                        });
                    } else {
                        self.verdicts.at_escapes += 1;
                        self.sim.record_with(self.host_actors[i], || {
                            (
                                "regime.at-escape",
                                format!("false negative, corrupt byte at +{offset}"),
                            )
                        });
                    }
                }
                HostAction::Record { kind, detail } => {
                    self.sim.record(self.host_actors[i], kind, detail);
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

    /// Sends an envelope on behalf of host `i`, performing the host's
    /// send-side bookkeeping first (recovery resends).
    pub(super) fn send_from(&mut self, i: usize, env: Envelope, now: SimTime) {
        self.hosts[i].note_send(&env);
        self.forward_send(i, env, now);
    }

    /// The environment side of a protocol send: ground truth, metrics,
    /// trace, routing.
    fn forward_send(&mut self, i: usize, env: Envelope, now: SimTime) {
        if let MessageBody::PassedAt { msg_sn, .. } = env.body {
            self.global_validated = self.global_validated.max(msg_sn);
        }
        self.metrics.messages_sent += 1;
        self.sim
            .record_with(self.host_actors[i], || ("msg.send", env.to_string()));
        self.route_only(env, now);
    }

    pub(super) fn route_only(&mut self, env: Envelope, now: SimTime) {
        let actor = match env.to {
            Endpoint::Process(p) => match self.index_of_pid(p) {
                Some(idx) => self.host_actors[idx],
                None => return,
            },
            Endpoint::Device(_) => self.device_actor,
        };
        match self.net.route(now, &env) {
            RouteDecision::Deliver { at, duplicate_at } => {
                let inc = self.net_inc;
                // The envelope moves into its delivery; only a link-level
                // duplicate needs a copy of it (scheduled second, as the
                // later of the two event ids).
                let copy = duplicate_at.map(|dup| (dup, env.clone()));
                self.sim
                    .schedule_at(at.max(now), actor, Ev::Deliver { env, inc });
                if let Some((dup, env)) = copy {
                    self.sim
                        .schedule_at(dup.max(now), actor, Ev::Deliver { env, inc });
                }
            }
            RouteDecision::Dropped => {}
        }
    }

    pub(super) fn schedule_tb_timer(&mut self, i: usize, at_local: LocalTime, now: SimTime) {
        let node = self.hosts[i].node;
        let fire = self.clocks.when_local(node, at_local).max(now);
        let epoch = self.hosts[i].tb_epoch;
        let id = self.sim.schedule_at(
            fire,
            self.host_actors[i],
            Ev::TbTimer {
                deadline: at_local,
                epoch,
            },
        );
        self.hosts[i].timer_event = Some(id);
    }

    /// Marks `node` as Byzantine from this instant on. The node does not
    /// corrupt its store at rest — it *serves* value-flipped checkpoints
    /// (still behind valid CRCs) whenever a recovery reads from it, so the
    /// lie survives however many clean commits land in between. The flip
    /// itself happens in [`System::on_hardware_recover`]; this event only
    /// stamps the arming instant into the trace.
    fn on_byzantine_corrupt(&mut self, _now: SimTime, node: usize) {
        self.sim.record_with(self.system_actor, || {
            (
                "regime.byzantine",
                format!(
                    "{} now serves value-flipped checkpoints behind valid CRCs",
                    crate::faults::NodeId::from_index(node)
                        .map_or("?".to_string(), |n| n.to_string()),
                ),
            )
        });
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
        if let Some(plan) = self.cfg.regime.resync_violation {
            if now >= plan.after {
                self.clocks.inject_skew(plan.node, plan.excess, now);
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
            let node = self.hosts[i].node;
            let now_local = self.clocks.read(node, now);
            let mut actions =
                self.hosts[i].tb_event(synergy_tb::Event::ResyncCompleted { now_local }, now);
            self.apply_host_actions(i, &mut actions, now);
            let deadline = self.hosts[i].tb.as_ref().expect("checked").next_deadline();
            if let Some(old) = self.hosts[i].timer_event.take() {
                self.sim.cancel(old);
            }
            if self.hosts[i].up && !self.hosts[i].dead {
                self.schedule_tb_timer(i, deadline, now);
            }
        }
    }
}
