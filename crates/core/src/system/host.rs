//! One guarded process: the MDCD engine, optional TB engine, application,
//! stores and acknowledgment bookkeeping of a single process, behind a
//! sans-io `handle_into(event, now, &mut Vec<HostAction>)` surface.
//!
//! A [`ProcessHost`] owns everything that belongs to one process and
//! nothing that belongs to the environment: it never touches clocks, the
//! network, the scheduler, metrics or the trace. Drivers (the simulator's
//! dispatch layer, or the threaded middleware runtime) feed it
//! [`HostEvent`]s and interpret the [`HostAction`]s it appends to their
//! buffer — routing envelopes, scheduling timers, counting metrics and
//! recording trace lines. Action order is the exact trace order of the
//! protocol. The engines below the host append to buffers the host keeps
//! in the same way, so an event allocates for what it produces (envelopes,
//! checkpoint images), never for the lists that carry it.

use std::collections::VecDeque;
use std::sync::Arc;

use synergy_clocks::LocalTime;
use synergy_des::{EventId, SimDuration, SimTime};
use synergy_mdcd::{
    Action as MdcdAction, CheckpointKind, EngineSnapshot, Event as MdcdEvent, OutboundMessage,
    ProcessRole,
};
use synergy_net::{
    AckTracker, CkptSeqNo, DeviceId, Endpoint, Envelope, MessageBody, MissionId, MsgId, MsgSeqNo,
    ProcessId,
};
use synergy_storage::{Checkpoint, Stable, StableStore, VolatileStore};
use synergy_tb::{Action as TbAction, ContentsChoice, Event as TbEvent, TbConfig, TbEngine};

use crate::app::{Application, CounterApp};
use crate::config::Scheme;
use crate::payload::{CheckpointPayload, SentRecord};
use crate::roles::RoleEngine;
use crate::system::policy::{policy_for, SchemePolicy};
use crate::system::recovery;

/// Sequence-number namespace for transport acks (disjoint from both the
/// application counter and the engines' control counter).
pub(crate) const ACK_SEQ_BASE: u64 = 1 << 62;

/// The process layout a host participates in. Hosts are topology-agnostic:
/// they address their peers through these ids, never through positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// The (original) active replica; the engines keep broadcasting to
    /// this id even after a takeover.
    pub active: ProcessId,
    /// The shadow replica.
    pub shadow: ProcessId,
    /// The peer component.
    pub peer: ProcessId,
    /// The external device endpoint.
    pub device: DeviceId,
}

impl Topology {
    /// The paper's canonical layout: `P1act`, `P1sdw`, `P2` and one device.
    pub fn canonical() -> Self {
        Topology {
            active: super::P1ACT,
            shadow: super::P1SDW,
            peer: super::P2,
            device: super::DEVICE,
        }
    }
}

/// An input a driver feeds to one host.
#[derive(Debug, Clone)]
pub enum HostEvent {
    /// A network delivery (application, control, or transport ack).
    Deliver(Envelope),
    /// The application produces one message.
    Produce {
        /// Whether the message is external (device-bound, acceptance
        /// tested).
        external: bool,
    },
    /// The TB timer fired, exactly at its local-clock deadline.
    TimerExpired {
        /// The local deadline the timer was set for.
        deadline: LocalTime,
    },
    /// The TB blocking period's local duration elapsed.
    BlockingElapsed,
}

/// An effect the driver must perform on behalf of the host, in order.
#[derive(Debug, Clone)]
pub enum HostAction {
    /// Route a protocol envelope (already counted in the host's send
    /// bookkeeping).
    Send(Envelope),
    /// Route a transport acknowledgment (not a protocol send: no trace
    /// line, no send metric).
    SendAck(Envelope),
    /// One application message was delivered to the local application.
    Delivered,
    /// An acceptance test ran.
    AtPerformed {
        /// Whether it passed.
        pass: bool,
    },
    /// The acceptance test exposed the design fault; the driver must run
    /// software recovery after applying the remaining actions.
    SoftwareErrorDetected,
    /// A volatile checkpoint was saved.
    VolatileSaved {
        /// Which checkpoint kind the engine established.
        kind: CheckpointKind,
    },
    /// A write-through Type-2 checkpoint was committed to stable storage.
    WriteThroughCommitted,
    /// A TB stable write began.
    StableWriteBegun {
        /// `"stable-current"` or `"stable-volatile-copy"`.
        label: &'static str,
        /// The dirty value the TB engine observed at its timer.
        expected_dirty: bool,
        /// A dirty process had no volatile checkpoint and fell back to its
        /// current state (cannot happen through the engines).
        fallback: bool,
    },
    /// The in-flight stable write was replaced with the current state
    /// (dirty bit cleared inside the blocking period).
    StableReplaced,
    /// The in-flight stable write committed.
    StableCommitted {
        /// The committed epoch (`Ndc`).
        ndc: CkptSeqNo,
    },
    /// A blocking period started; the driver schedules its end after the
    /// local-clock `duration`.
    BlockingStarted {
        /// Blocking length on the local clock.
        duration: SimDuration,
    },
    /// (Re)arm the TB timer at a local-clock deadline.
    ScheduleTimer {
        /// The local deadline.
        at: LocalTime,
    },
    /// The TB engine wants the clock fleet resynchronized.
    ResyncRequested,
    /// The unmasked-regime injector corrupted an external payload before
    /// the acceptance test ran.
    RegimeCorrupted {
        /// Whether the (coverage-limited) acceptance test caught it. A miss
        /// is a false negative: the corrupt payload escapes to the device.
        caught: bool,
        /// Byte offset of the flipped byte within the payload.
        offset: usize,
    },
    /// A trace line, interleaved exactly where the protocol emitted it.
    Record {
        /// Trace kind (e.g. `"msg.recv"`).
        kind: &'static str,
        /// Trace detail.
        detail: String,
    },
}

/// A stable-store operation a durable backend refused, waiting for
/// [`ProcessHost::retry_stable`].
enum PendingStable {
    /// `begin_write` failed; retry with this checkpoint.
    Begin(Checkpoint),
    /// `commit_write` failed, or queued behind a pending begin: the
    /// in-flight write still needs committing as epoch `ndc`.
    Commit(CkptSeqNo),
}

/// One process: application + MDCD engine + optional TB engine + stores.
/// The simulator keeps the in-memory [`StableStore`]; the live runtimes
/// bring a durable backend through [`with_stable`](Self::with_stable).
pub struct ProcessHost<S: Stable = StableStore> {
    /// This process's id.
    pub pid: ProcessId,
    /// The mission (tenant) this host belongs to. Everything the host
    /// sends — protocol envelopes and transport acks — is stamped with
    /// this tag, so any number of hosts can share one transport route.
    /// Single-mission deployments stay on [`MissionId::SOLO`].
    pub mission: MissionId,
    /// The node this process runs on (indexes the clock fleet).
    pub node: usize,
    /// The layout this host addresses its peers through.
    pub topology: Topology,
    /// The guarded application.
    pub app: CounterApp,
    /// The role-specific MDCD engine.
    pub engine: RoleEngine,
    /// The TB engine, when the scheme runs one.
    pub tb: Option<TbEngine>,
    /// Volatile (in-memory) checkpoint store; wiped by crashes.
    pub volatile: VolatileStore,
    /// Stable (crash-surviving) checkpoint store.
    pub stable: S,
    /// Retry attempts made against a failing stable backend.
    pub stable_retries: u64,
    /// Outstanding-acknowledgment tracker (the TB recoverability rule).
    pub acks: AckTracker,
    /// Application messages sent, as reflected by checkpoints.
    pub sent_log: Vec<SentRecord>,
    /// Whether the node is powered (false between a crash and recovery).
    pub up: bool,
    /// Whether the process is permanently out of service (takeover).
    pub dead: bool,
    /// Volatile checkpoint sequence counter.
    pub volatile_seq: u64,
    /// Write-through stable checkpoint sequence counter.
    pub wt_stable_seq: u64,
    /// Transport-ack sequence counter.
    pub ack_sn: u64,
    /// Bumped on recovery to void stale TB timer/blocking events.
    pub tb_epoch: u64,
    /// The pending TB timer event, if the driver tracks one.
    pub timer_event: Option<EventId>,
    /// When the current blocking period started (true time).
    pub blocking_started_at: Option<SimTime>,
    /// Set once this process's state has been installed by a state
    /// transfer (shadow refresh); message-history checks then no longer
    /// apply to it.
    pub synthetic_history: bool,
    /// Application messages delivered since the last volatile checkpoint;
    /// attached to volatile-copy stable writes so recovery can replay
    /// receipts the copied state predates (DESIGN.md §8, decision 5).
    pub recv_log: Vec<Arc<Envelope>>,
    /// Application messages delivered over this host's lifetime.
    pub delivered: u64,
    policy: &'static dyn SchemePolicy,
    /// Mirrors the driver's trace switch: when false, the host neither
    /// formats trace details nor emits [`HostAction::Record`] at all.
    tracing: bool,
    /// Shared snapshot of `sent_log`, built lazily and invalidated on every
    /// append, so back-to-back checkpoints bundle the same buffer.
    sent_snapshot: Option<Arc<[SentRecord]>>,
    /// Decoded image of `volatile.latest()`, kept beside the store so the
    /// adapted-TB dirty copy and volatile rollback reuse the payload the
    /// host just encoded instead of decoding it back out of the bytes.
    volatile_image: Option<CheckpointPayload>,
    /// Reusable serialization buffer: the application image, then the
    /// checkpoint payload around it, are each encoded here and copied once
    /// into their shared buffer.
    scratch: Vec<u8>,
    /// Where the MDCD engine writes its actions; empty between events.
    mdcd_actions: Vec<MdcdAction>,
    /// Where the TB engine writes its actions; empty between events.
    tb_actions: Vec<TbAction>,
    /// Stable operations the backend refused, oldest first. The TB engine
    /// moved on when it issued them, so each must still land for disk and
    /// engine to agree again. Always empty over the in-memory store.
    pending: VecDeque<PendingStable>,
    /// Unmasked-regime injector (bad external payloads + AT coverage),
    /// present only on the original active host of a regime run.
    regime: Option<crate::regime::RegimeInjector>,
}

impl ProcessHost {
    /// Builds the host for `role` at `pid` on `node` over the in-memory
    /// stable store. All replicas of one system must share the application
    /// `app`'s seed so they produce identical streams.
    pub fn new(
        role: ProcessRole,
        pid: ProcessId,
        node: usize,
        topology: Topology,
        scheme: Scheme,
        app: CounterApp,
        tb: Option<TbConfig>,
    ) -> Self {
        ProcessHost::with_stable(
            role,
            pid,
            node,
            topology,
            scheme,
            app,
            tb,
            StableStore::new(),
        )
    }
}

impl<S: Stable> ProcessHost<S> {
    /// [`new`](ProcessHost::new) over the caller's stable backend.
    #[allow(clippy::too_many_arguments)]
    pub fn with_stable(
        role: ProcessRole,
        pid: ProcessId,
        node: usize,
        topology: Topology,
        scheme: Scheme,
        app: CounterApp,
        tb: Option<TbConfig>,
        stable: S,
    ) -> Self {
        let policy = policy_for(scheme);
        ProcessHost {
            pid,
            mission: MissionId::SOLO,
            node,
            topology,
            engine: RoleEngine::new(
                role,
                policy.mdcd_config(),
                topology.active,
                topology.shadow,
                topology.peer,
            ),
            tb: tb.map(TbEngine::new),
            app,
            volatile: VolatileStore::new(),
            stable,
            stable_retries: 0,
            acks: AckTracker::new(),
            sent_log: Vec::new(),
            up: true,
            dead: false,
            volatile_seq: 0,
            wt_stable_seq: 0,
            ack_sn: 0,
            tb_epoch: 0,
            timer_event: None,
            blocking_started_at: None,
            synthetic_history: false,
            recv_log: Vec::new(),
            delivered: 0,
            policy,
            tracing: true,
            sent_snapshot: None,
            volatile_image: None,
            scratch: Vec::new(),
            mdcd_actions: Vec::new(),
            tb_actions: Vec::new(),
            pending: VecDeque::new(),
            regime: None,
        }
    }

    /// Installs the unmasked-regime injector (driver-side, at system build).
    pub fn set_regime(&mut self, injector: crate::regime::RegimeInjector) {
        self.regime = Some(injector);
    }

    /// Arms the installed regime injector (the plan's `after` instant
    /// passed); no-op on hosts without one.
    pub fn arm_regime(&mut self) {
        if let Some(inj) = self.regime.as_mut() {
            inj.arm();
        }
    }

    /// Discards volatile checkpoints (node crash, stable restore) together
    /// with the cached decoded image.
    pub(crate) fn wipe_volatile(&mut self) {
        self.volatile.wipe();
        self.volatile_image = None;
    }

    /// The decoded image of the latest volatile checkpoint, if cached.
    pub(crate) fn volatile_image(&self) -> Option<&CheckpointPayload> {
        self.volatile_image.as_ref()
    }

    /// The scheme policy this host runs under.
    pub fn policy(&self) -> &'static dyn SchemePolicy {
        self.policy
    }

    /// Tells the host whether its driver records traces. Disabled hosts
    /// skip every [`HostAction::Record`] (and the formatting behind it).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Assigns the host to a mission (tenant). Call once at construction
    /// time, before any traffic: the tag becomes part of every envelope
    /// the host sends and of every checkpoint's unacked records.
    pub fn set_mission(&mut self, mission: MissionId) {
        self.mission = mission;
    }

    /// A shared view of the sent log, reused until the next append.
    pub fn sent_shared(&mut self) -> Arc<[SentRecord]> {
        self.sent_snapshot
            .get_or_insert_with(|| self.sent_log.as_slice().into())
            .clone()
    }

    /// Appends to the sent log, invalidating the shared snapshot.
    fn push_sent(&mut self, rec: SentRecord) {
        self.sent_log.push(rec);
        self.sent_snapshot = None;
    }

    /// Replaces the sent log wholesale (recovery restores), adopting the
    /// payload's shared buffer as the snapshot.
    pub(crate) fn restore_sent_log(&mut self, sent: &Arc<[SentRecord]>) {
        self.sent_log = sent.to_vec();
        self.sent_snapshot = Some(Arc::clone(sent));
    }

    /// The application state, encoded through the scratch buffer into a
    /// shared one of exactly its size.
    fn app_image(&mut self) -> Arc<[u8]> {
        self.app.snapshot_into(&mut self.scratch);
        self.scratch.as_slice().into()
    }

    /// A checkpoint payload of the current state at `now`.
    pub fn current_payload(&mut self, now: SimTime) -> CheckpointPayload {
        let sent = self.sent_shared();
        CheckpointPayload::new(
            self.app_image(),
            self.engine.snapshot(),
            self.acks.unacked_shared(),
            sent,
            now,
        )
    }

    /// Feeds one event, appending the effects the driver must apply, in
    /// order, to `out`.
    pub fn handle_into(&mut self, event: HostEvent, now: SimTime, out: &mut Vec<HostAction>) {
        match event {
            HostEvent::Deliver(env) => self.on_deliver(env, now, out),
            HostEvent::Produce { external } => self.on_produce(external, now, out),
            HostEvent::TimerExpired { deadline } => self.on_timer(deadline, now, out),
            HostEvent::BlockingElapsed => self.tb_step(TbEvent::BlockingElapsed, now, out),
        }
    }

    /// Starts the TB timers (mission bootstrap).
    pub fn start_tb(&mut self, now: SimTime) -> Vec<HostAction> {
        let mut out = Vec::new();
        if let Some(tb) = self.tb.as_mut() {
            let mut actions = tb.start();
            self.apply_tb(&mut actions, now, &mut out);
        }
        out
    }

    /// Feeds one MDCD engine event directly (recovery realigns `Ndc` with
    /// the restored epoch this way).
    pub fn engine_event(&mut self, event: MdcdEvent, now: SimTime) -> Vec<HostAction> {
        let mut out = Vec::new();
        self.engine_step(event, now, &mut out);
        out
    }

    /// Feeds one TB engine event directly (recovery restarts, resync).
    pub fn tb_event(&mut self, event: TbEvent, now: SimTime) -> Vec<HostAction> {
        let mut out = Vec::new();
        self.tb_step(event, now, &mut out);
        out
    }

    /// One MDCD engine step: the engine fills the host's buffer, the host
    /// applies and empties it.
    fn engine_step(&mut self, event: MdcdEvent, now: SimTime, out: &mut Vec<HostAction>) {
        let mut actions = std::mem::take(&mut self.mdcd_actions);
        self.engine.handle_into(event, &mut actions);
        self.apply_mdcd(&mut actions, now, out);
        self.mdcd_actions = actions;
    }

    /// One TB engine step, likewise; nothing on a host without TB.
    fn tb_step(&mut self, event: TbEvent, now: SimTime, out: &mut Vec<HostAction>) {
        let Some(tb) = self.tb.as_mut() else {
            return;
        };
        let mut actions = std::mem::take(&mut self.tb_actions);
        tb.handle_into(event, &mut actions);
        self.apply_tb(&mut actions, now, out);
        self.tb_actions = actions;
    }

    /// Send-side bookkeeping for an envelope leaving this host outside the
    /// engine path (recovery resends): the sent log and ack tracking.
    pub fn note_send(&mut self, env: &Envelope) {
        if let (MessageBody::Application { .. }, Endpoint::Process(p)) = (&env.body, env.to) {
            self.push_sent(SentRecord {
                to: p,
                seq: env.id.seq,
            });
            self.acks.on_send(env.clone());
        }
    }

    fn on_deliver(&mut self, env: Envelope, now: SimTime, out: &mut Vec<HostAction>) {
        if let MessageBody::Ack { of } = env.body {
            self.acks.on_ack(of);
            return;
        }
        if self.tracing {
            out.push(HostAction::Record {
                kind: "msg.recv",
                detail: env.to_string(),
            });
        }
        let bit_before = self.engine.checkpoint_bit();
        self.engine_step(MdcdEvent::Deliver(env), now, out);
        let cleared = bit_before && !self.engine.checkpoint_bit();
        if cleared && self.tb.as_ref().is_some_and(TbEngine::is_blocking) {
            self.tb_step(TbEvent::DirtyCleared, now, out);
        }
    }

    fn on_produce(&mut self, external: bool, now: SimTime, out: &mut Vec<HostAction>) {
        let (mut payload, to): (Vec<u8>, Endpoint) = if external {
            (
                self.app.produce_external(),
                Endpoint::Device(self.topology.device),
            )
        } else {
            let dest = match self.engine.role() {
                // The engine broadcasts internal peer traffic itself.
                ProcessRole::Peer => Endpoint::Process(self.topology.active),
                _ => Endpoint::Process(self.topology.peer),
            };
            (self.app.produce_internal(), dest)
        };
        let mut at_pass = self.app.acceptance_test(&payload);
        // Unmasked-regime injection: corrupt the external payload before
        // the AT runs, then apply the seeded coverage knob. A catch flows
        // through the ordinary `at_pass = false` path (detected takeover);
        // a miss is a false negative and the corruption rides to the device.
        if external && !payload.is_empty() {
            if let Some(inj) = self.regime.as_mut() {
                if inj.draw_corrupt() {
                    let offset = payload.len() - 1;
                    payload[offset] ^= crate::regime::CORRUPTION_MASK;
                    // A miss is a false negative: the coverage knob
                    // overrides the real AT's (correct) rejection and the
                    // corrupt payload rides to the device.
                    let caught = inj.draw_caught();
                    at_pass = !caught;
                    out.push(HostAction::RegimeCorrupted { caught, offset });
                }
            }
        }
        let message = OutboundMessage {
            to,
            payload,
            external,
            at_pass,
        };
        self.engine_step(MdcdEvent::AppSend(message), now, out);
    }

    fn on_timer(&mut self, deadline: LocalTime, now: SimTime, out: &mut Vec<HostAction>) {
        if self.tb.is_none() {
            return;
        }
        let dirty = self.engine.checkpoint_bit();
        if self.tracing {
            out.push(HostAction::Record {
                kind: "tb.timer",
                detail: format!("dirty={} local={deadline}", u8::from(dirty)),
            });
        }
        // The timer fired exactly at its local deadline.
        let fired = TbEvent::TimerExpired {
            now_local: deadline,
            dirty,
        };
        self.tb_step(fired, now, out);
    }

    /// Applies and empties `actions`.
    fn apply_mdcd(
        &mut self,
        actions: &mut Vec<MdcdAction>,
        now: SimTime,
        out: &mut Vec<HostAction>,
    ) {
        for action in actions.drain(..) {
            match action {
                MdcdAction::Send(mut env) => {
                    // The engines are mission-blind; the host boundary is
                    // where the tenant tag goes on.
                    env.mission = self.mission;
                    self.note_send(&env);
                    out.push(HostAction::Send(env));
                }
                MdcdAction::TakeCheckpoint { kind, engine } => {
                    self.take_volatile(kind, engine, now, out);
                }
                MdcdAction::DeliverToApp(env) => {
                    let from = env.from();
                    let id = env.id;
                    if let MessageBody::Application { payload, .. } = &env.body {
                        self.app.on_message(from, id.seq, payload);
                        self.recv_log.push(Arc::new(env));
                        self.delivered += 1;
                        out.push(HostAction::Delivered);
                    }
                    // Transport-level acknowledgment back to the sender.
                    self.ack_sn += 1;
                    let ack = Envelope::new(
                        MsgId {
                            from: self.pid,
                            seq: MsgSeqNo(ACK_SEQ_BASE + self.ack_sn),
                        },
                        from,
                        MessageBody::Ack { of: id },
                    )
                    .with_mission(self.mission);
                    out.push(HostAction::SendAck(ack));
                }
                MdcdAction::AtPerformed { pass } => out.push(HostAction::AtPerformed { pass }),
                MdcdAction::SoftwareErrorDetected => {
                    out.push(HostAction::SoftwareErrorDetected);
                }
            }
        }
    }

    fn take_volatile(
        &mut self,
        kind: CheckpointKind,
        engine: EngineSnapshot,
        now: SimTime,
        out: &mut Vec<HostAction>,
    ) {
        self.volatile_seq += 1;
        let sent = self.sent_shared();
        let payload = CheckpointPayload::new(self.app_image(), engine, Vec::new(), sent, now);
        let ckpt = payload
            .to_checkpoint_with(self.volatile_seq, kind.as_str(), &mut self.scratch)
            .expect("payload encodes");
        self.volatile.save(ckpt);
        self.recv_log.clear();
        out.push(HostAction::VolatileSaved { kind });
        // Write-through baseline: Type-2 checkpoints are persisted, with the
        // unacknowledged messages a stable checkpoint owes.
        if self.policy.stable_on_validation() && kind == CheckpointKind::Type2 {
            self.wt_stable_seq += 1;
            let mut stable = payload.clone();
            stable.unacked = self.acks.unacked_shared();
            let ckpt = stable
                .to_checkpoint_with(self.wt_stable_seq, "stable-type2", &mut self.scratch)
                .expect("payload encodes");
            self.stable
                .begin_write(ckpt)
                .expect("no concurrent WT write");
            self.stable.commit_write().expect("just begun");
            out.push(HostAction::WriteThroughCommitted);
        }
        // The image mirrors exactly what the saved checkpoint decodes to.
        self.volatile_image = Some(payload);
    }

    /// Applies and empties `actions`.
    fn apply_tb(&mut self, actions: &mut Vec<TbAction>, now: SimTime, out: &mut Vec<HostAction>) {
        for action in actions.drain(..) {
            match action {
                TbAction::BeginStableWrite {
                    contents,
                    expected_dirty,
                } => self.begin_stable_write(contents, expected_dirty, now, out),
                TbAction::StartBlocking { duration } => {
                    self.blocking_started_at = Some(now);
                    out.push(HostAction::BlockingStarted { duration });
                    self.engine_step(MdcdEvent::BlockingStarted, now, out);
                    if self.tracing {
                        out.push(HostAction::Record {
                            kind: "tb.blocking",
                            detail: format!("for {duration}"),
                        });
                    }
                }
                TbAction::ReplaceWithCurrentState => {
                    let payload = self.current_payload(self.blocking_started_at.unwrap_or(now));
                    let seq = self.tb.as_ref().map_or(0, |tb| tb.ndc().0) + 1;
                    let ckpt = payload
                        .to_checkpoint_with(seq, "stable-replaced", &mut self.scratch)
                        .expect("payload encodes");
                    // A refused begin of this round is the queue's last
                    // entry and nothing is in flight: swap what the retry
                    // will write. A backend that refuses the rewrite keeps
                    // the volatile copy in flight, unreported.
                    if let Some(PendingStable::Begin(queued)) = self.pending.back_mut() {
                        *queued = ckpt;
                    } else if self.stable.replace_in_progress(ckpt).is_err() {
                        continue;
                    }
                    out.push(HostAction::StableReplaced);
                }
                TbAction::CommitStableWrite { ndc } => {
                    self.blocking_started_at = None;
                    // MDCD must not hear of an epoch the disk does not
                    // hold: a refused commit, or one behind a queued begin,
                    // waits for `retry_stable`.
                    if self.pending.is_empty() && self.stable.commit_write().is_ok() {
                        self.stable_committed(ndc, now, out);
                    } else {
                        self.pending.push_back(PendingStable::Commit(ndc));
                    }
                }
                TbAction::ScheduleTimer { at } => out.push(HostAction::ScheduleTimer { at }),
                TbAction::RequestResync => out.push(HostAction::ResyncRequested),
            }
        }
    }

    fn begin_stable_write(
        &mut self,
        contents: ContentsChoice,
        expected_dirty: bool,
        now: SimTime,
        out: &mut Vec<HostAction>,
    ) {
        let (payload, fallback) = match contents {
            ContentsChoice::CurrentState => (self.current_payload(now), false),
            ContentsChoice::VolatileCopy => match (&self.volatile_image, self.volatile.latest()) {
                // Cached image: the dirty copy is refcount bumps, no decode.
                (Some(img), Some(_)) => (
                    recovery::amend_volatile_copy(img.clone(), &self.acks, &self.recv_log),
                    false,
                ),
                (None, Some(vol)) => (
                    recovery::volatile_copy_payload(vol, &self.acks, &self.recv_log),
                    false,
                ),
                // Defensive: a dirty bit without a volatile checkpoint
                // (cannot happen through the engines).
                _ => (self.current_payload(now), true),
            },
        };
        let seq = self.tb.as_ref().map_or(0, |tb| tb.ndc().0) + 1;
        let label = match contents {
            ContentsChoice::CurrentState => "stable-current",
            ContentsChoice::VolatileCopy => "stable-volatile-copy",
        };
        let ckpt = payload
            .to_checkpoint_with(seq, label, &mut self.scratch)
            .expect("payload encodes");
        // `begin_write` consumes the checkpoint; a refused one is encoded
        // again for the queue, so the path that succeeds clones nothing.
        if !self.pending.is_empty() || self.stable.begin_write(ckpt).is_err() {
            let again = payload
                .to_checkpoint_with(seq, label, &mut self.scratch)
                .expect("payload encodes");
            self.pending.push_back(PendingStable::Begin(again));
        }
        out.push(HostAction::StableWriteBegun {
            label,
            expected_dirty,
            fallback,
        });
    }

    /// The in-flight write is durable as epoch `ndc`: report it, hand MDCD
    /// the new `Ndc` and end its blocking period.
    fn stable_committed(&mut self, ndc: CkptSeqNo, now: SimTime, out: &mut Vec<HostAction>) {
        out.push(HostAction::StableCommitted { ndc });
        self.engine_step(MdcdEvent::StableCheckpointCommitted(ndc), now, out);
        self.engine_step(MdcdEvent::BlockingEnded, now, out);
    }

    /// Whether a stable operation the backend refused awaits retry.
    pub fn stable_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Retries the refused stable operations in order, stopping at the first
    /// that fails again; a commit that lands appends what it would have
    /// appended on time. How often to call this is the driver's policy.
    pub fn retry_stable(&mut self, now: SimTime, out: &mut Vec<HostAction>) {
        while let Some(op) = self.pending.front() {
            self.stable_retries += 1;
            let landed = match op {
                PendingStable::Begin(ckpt) => self.stable.begin_write(ckpt.clone()),
                PendingStable::Commit(_) => self.stable.commit_write(),
            };
            if landed.is_err() {
                break;
            }
            if let Some(PendingStable::Commit(ndc)) = self.pending.pop_front() {
                self.stable_committed(ndc, now, out);
            }
        }
    }

    /// Global recovery supersedes the checkpoint being established: drops
    /// the in-flight write and whatever awaited retry.
    pub fn abort_stable(&mut self) {
        self.blocking_started_at = None;
        self.pending.clear();
        self.stable.abort_write();
    }
}
