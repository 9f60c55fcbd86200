//! One guarded process: the MDCD engine, optional TB engine, application,
//! stores and acknowledgment bookkeeping of a single process, behind a
//! sans-io `handle_into(event, now, &mut Vec<HostAction>)` surface.
//!
//! A [`ProcessHost`] owns everything that belongs to one process and
//! nothing that belongs to the environment: it never touches clocks, the
//! network, the scheduler, metrics or the trace, and it keeps no driver
//! state (whether its node is powered, whether a takeover retired it, which
//! timer event is pending). Drivers (the simulator's
//! dispatch layer, the cluster's node loop, or the interleaving
//! [`explorer`](crate::explorer)) feed it [`HostEvent`]s and
//! interpret the [`HostAction`]s it appends to their buffer — routing
//! envelopes, scheduling timers, counting metrics and recording trace
//! lines. Action order is the exact trace order of the
//! protocol. The engines below the host append to buffers the host keeps
//! in the same way, so an event allocates for what it produces (envelopes,
//! checkpoint images), never for the lists that carry it.

use std::collections::VecDeque;
use std::sync::Arc;

use synergy_clocks::LocalTime;
use synergy_des::{SimDuration, SimTime};
use synergy_mdcd::{
    Action as MdcdAction, CheckpointKind, EngineSnapshot, Event as MdcdEvent, OutboundMessage,
    ProcessRole,
};
use synergy_net::{
    AckTracker, CkptSeqNo, DeviceId, Endpoint, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId,
};
use synergy_storage::{Checkpoint, Stable, StableStore};
use synergy_tb::{Action as TbAction, ContentsChoice, Event as TbEvent, TbConfig, TbEngine};

use crate::app::{Application, CounterApp};
use crate::config::Scheme;
use crate::faults::NodeId;
use crate::payload::{CheckpointPayload, SentRecord};
use crate::roles::RoleEngine;
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

    /// Each process of the layout with its role and the node it runs on:
    /// the active on node 0, the shadow on node 1, the peer on node 2.
    pub fn processes(&self) -> [(ProcessId, ProcessRole, NodeId); 3] {
        [
            (self.active, ProcessRole::Active, NodeId::P1Act),
            (self.shadow, ProcessRole::Shadow, NodeId::P1Sdw),
            (self.peer, ProcessRole::Peer, NodeId::P2),
        ]
    }
}

/// An input a driver feeds to one host.
#[derive(Debug, Clone)]
pub enum HostEvent {
    /// A protocol delivery (application or `passed_AT`); an application
    /// message is the allocation the sender's [`AckTracker`] holds.
    Deliver(Arc<Envelope>),
    /// A transport acknowledgment of this host's message.
    Ack(MsgId),
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

impl From<Envelope> for HostEvent {
    /// The event an envelope off a wire is: an ack, or a delivery.
    fn from(env: Envelope) -> Self {
        match env.body {
            MessageBody::Ack { of } => HostEvent::Ack(of),
            _ => HostEvent::Deliver(Arc::new(env)),
        }
    }
}

/// An effect the driver must perform on behalf of the host, in order.
#[derive(Debug, Clone)]
pub enum HostAction {
    /// Route a protocol envelope (already counted in the host's send
    /// bookkeeping, whose ack tracker shares it).
    Send(Arc<Envelope>),
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
#[derive(Clone)]
enum PendingStable {
    /// `begin_write` failed; retry with this checkpoint.
    Begin(Checkpoint),
    /// `commit_write` failed, or queued behind a pending begin: the
    /// in-flight write still needs committing as epoch `ndc`.
    Commit(CkptSeqNo),
    /// A rollback's `discard_above` failed: the abandoned timeline's
    /// records above this epoch must go before the next write lands.
    Discard(u64),
}

/// One process: application + MDCD engine + optional TB engine + stores.
/// The simulator keeps the in-memory [`StableStore`]; the live runtimes
/// bring a durable backend through [`with_stable`](Self::with_stable).
#[derive(Clone)]
pub struct ProcessHost<S: Stable = StableStore> {
    /// This process's id.
    pub pid: ProcessId,
    /// The node this process runs on (its index indexes the clock fleet).
    pub node: NodeId,
    /// The layout this host addresses its peers through.
    pub topology: Topology,
    /// The guarded application.
    pub app: CounterApp,
    /// The application as the host was built: a stable restore with no
    /// checkpoint at or below the line restarts from its state.
    pub(crate) initial_app: CounterApp,
    /// The role-specific MDCD engine.
    pub engine: RoleEngine,
    /// The TB engine, when the scheme runs one.
    pub tb: Option<TbEngine>,
    /// Stable (crash-surviving) checkpoint store.
    pub stable: S,
    /// Retry attempts made against a failing stable backend.
    pub stable_retries: u64,
    /// Outstanding-acknowledgment tracker (the TB recoverability rule).
    pub acks: AckTracker,
    /// Application messages sent, as reflected by checkpoints.
    pub sent_log: Vec<SentRecord>,
    /// Volatile checkpoint sequence counter.
    pub volatile_seq: u64,
    /// Write-through stable checkpoint sequence counter.
    pub wt_stable_seq: u64,
    /// Transport-ack sequence counter.
    pub ack_sn: u64,
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
    /// The delivery being stepped: the receive log keeps its allocation if
    /// the engine releases it in the same step.
    delivering: Option<Arc<Envelope>>,
    /// Application messages delivered over this host's lifetime.
    pub delivered: u64,
    /// The scheme this process runs under.
    scheme: Scheme,
    /// Mirrors the driver's trace switch: when false, the host neither
    /// formats trace details nor emits [`HostAction::Record`] at all.
    tracing: bool,
    /// Shared snapshot of `sent_log`, built lazily and invalidated on every
    /// append, so back-to-back checkpoints bundle the same buffer.
    sent_snapshot: Option<Arc<[SentRecord]>>,
    /// The latest volatile checkpoint, wiped by crashes. RAM holds the
    /// payload itself: nothing reads a volatile checkpoint back from bytes,
    /// so it is never serialized. The adapted-TB dirty copy and volatile
    /// rollback share its buffers.
    pub(crate) volatile_image: Option<CheckpointPayload>,
    /// Reusable serialization buffer: the application image is encoded
    /// here and copied once into its shared buffer.
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
    /// stable store, which keeps the three newest committed records (all a
    /// global rollback's line can select; see [`epoch_line`]). All replicas
    /// of one system must share the application `app`'s seed so they
    /// produce identical streams.
    ///
    /// [`epoch_line`]: crate::system::epoch_line
    pub fn new(
        role: ProcessRole,
        pid: ProcessId,
        node: NodeId,
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
            StableStore::with_retention(recovery::STABLE_RETENTION),
        )
    }
}

impl<S: Stable> ProcessHost<S> {
    /// [`new`](ProcessHost::new) over the caller's stable backend.
    #[allow(clippy::too_many_arguments)]
    pub fn with_stable(
        role: ProcessRole,
        pid: ProcessId,
        node: NodeId,
        topology: Topology,
        scheme: Scheme,
        app: CounterApp,
        tb: Option<TbConfig>,
        stable: S,
    ) -> Self {
        ProcessHost {
            pid,
            node,
            topology,
            engine: RoleEngine::new(
                role,
                scheme.mdcd_config(),
                topology.active,
                topology.shadow,
                topology.peer,
            ),
            tb: tb.map(TbEngine::new),
            initial_app: app.clone(),
            app,
            stable,
            stable_retries: 0,
            acks: AckTracker::new(),
            sent_log: Vec::new(),
            volatile_seq: 0,
            wt_stable_seq: 0,
            ack_sn: 0,
            blocking_started_at: None,
            synthetic_history: false,
            recv_log: Vec::new(),
            delivering: None,
            delivered: 0,
            scheme,
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
    pub(crate) fn set_regime(&mut self, injector: crate::regime::RegimeInjector) {
        self.regime = Some(injector);
    }

    /// Arms the installed regime injector (the plan's `after` instant
    /// passed); no-op on hosts without one.
    pub(crate) fn arm_regime(&mut self) {
        if let Some(inj) = self.regime.as_mut() {
            inj.arm();
        }
    }

    /// Tells the host whether its driver records traces. Disabled hosts
    /// skip every [`HostAction::Record`] (and the formatting behind it).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// A shared view of the sent log, reused until the next append.
    pub(crate) fn sent_shared(&mut self) -> Arc<[SentRecord]> {
        self.sent_snapshot
            .get_or_insert_with(|| self.sent_log.as_slice().into())
            .clone()
    }

    /// Installs a recovered payload's application, engine and sent log
    /// (adopting its shared buffer as the snapshot). Returns the receive
    /// log, whose receipts the installed state predates.
    pub(crate) fn install(&mut self, payload: &CheckpointPayload) -> Vec<Arc<Envelope>> {
        self.app.restore(&payload.app);
        self.engine.restore(&payload.engine);
        self.sent_log = payload.sent.to_vec();
        self.sent_snapshot = Some(Arc::clone(&payload.sent));
        std::mem::take(&mut self.recv_log)
    }

    /// The application state, encoded through the scratch buffer into a
    /// shared one of exactly its size.
    fn app_image(&mut self) -> Arc<[u8]> {
        self.app.snapshot_into(&mut self.scratch);
        self.scratch.as_slice().into()
    }

    /// A checkpoint payload of the current state at `now`.
    pub(crate) fn current_payload(&mut self, now: SimTime) -> CheckpointPayload {
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
            HostEvent::Ack(of) => _ = self.acks.on_ack(of),
            HostEvent::Produce { external } => self.on_produce(external, now, out),
            HostEvent::TimerExpired { deadline } => self.on_timer(deadline, now, out),
            HostEvent::BlockingElapsed => self.tb_step(TbEvent::BlockingElapsed, now, out),
        }
    }

    /// Starts the TB timers (mission bootstrap), appending what that asks
    /// of the driver to `out`.
    pub fn start_tb(&mut self, now: SimTime, out: &mut Vec<HostAction>) {
        if let Some(tb) = self.tb.as_mut() {
            let mut actions = tb.start();
            self.apply_tb(&mut actions, now, out);
        }
    }

    /// One MDCD engine step: the engine fills the host's buffer, the host
    /// applies and empties it.
    pub(crate) fn engine_step(
        &mut self,
        event: MdcdEvent,
        now: SimTime,
        out: &mut Vec<HostAction>,
    ) {
        let mut actions = std::mem::take(&mut self.mdcd_actions);
        self.engine.handle_into(event, &mut actions);
        self.apply_mdcd(&mut actions, now, out);
        self.mdcd_actions = actions;
    }

    /// One TB engine step, likewise; nothing on a host without TB. Clock
    /// resynchronization feeds its event here directly.
    pub(crate) fn tb_step(&mut self, event: TbEvent, now: SimTime, out: &mut Vec<HostAction>) {
        let Some(tb) = self.tb.as_mut() else {
            return;
        };
        let mut actions = std::mem::take(&mut self.tb_actions);
        tb.handle_into(event, &mut actions);
        self.apply_tb(&mut actions, now, out);
        self.tb_actions = actions;
    }

    /// Send-side bookkeeping for an envelope leaving this host, from its
    /// engine or a takeover resend: the sent log and ack tracking. Returns
    /// the envelope in the one allocation the tracker, the network and the
    /// receiver's log share.
    pub(crate) fn note_send(&mut self, env: Envelope) -> Arc<Envelope> {
        let env = Arc::new(env);
        if let (MessageBody::Application { .. }, Endpoint::Process(p)) = (&env.body, env.to) {
            let seq = env.id.seq;
            self.sent_log.push(SentRecord { to: p, seq });
            self.sent_snapshot = None; // the shared view is stale
            self.acks.on_send(Arc::clone(&env));
        }
        env
    }

    fn on_deliver(&mut self, env: Arc<Envelope>, now: SimTime, out: &mut Vec<HostAction>) {
        if self.tracing {
            out.push(HostAction::Record {
                kind: "msg.recv",
                detail: env.to_string(),
            });
        }
        let bit_before = self.engine.checkpoint_bit();
        // The engine takes its own copy; the receive log keeps the shared one.
        self.delivering = Some(Arc::clone(&env));
        self.engine_step(MdcdEvent::Deliver(Envelope::clone(&env)), now, out);
        self.delivering = None;
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
                MdcdAction::Send(env) => out.push(HostAction::Send(self.note_send(env))),
                MdcdAction::TakeCheckpoint { kind, engine } => {
                    self.take_volatile(kind, engine, now, out);
                }
                MdcdAction::DeliverToApp(env) => {
                    let from = env.from();
                    let id = env.id;
                    if let MessageBody::Application { payload, .. } = &env.body {
                        self.app.on_message(from, id.seq, payload);
                        let shared = self.delivering.take_if(|d| d.id == id);
                        self.recv_log.push(shared.unwrap_or_else(|| Arc::new(env)));
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
                    );
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
        self.recv_log.clear();
        out.push(HostAction::VolatileSaved { kind });
        // Write-through baseline: Type-2 checkpoints are persisted, with the
        // unacknowledged messages a stable checkpoint owes.
        if self.scheme == Scheme::WriteThrough && kind == CheckpointKind::Type2 {
            self.wt_stable_seq += 1;
            let mut stable = payload.clone();
            stable.unacked = self.acks.unacked_shared();
            let ckpt = stable.into_deferred_checkpoint(self.wt_stable_seq, "stable-type2");
            self.stable
                .begin_write(ckpt)
                .expect("no concurrent WT write");
            self.stable.commit_write().expect("just begun");
            out.push(HostAction::WriteThroughCommitted);
        }
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
                    let ckpt = payload.into_deferred_checkpoint(seq, "stable-replaced");
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
            ContentsChoice::VolatileCopy => match &self.volatile_image {
                // The dirty copy is refcount bumps of the volatile payload.
                Some(img) => (
                    recovery::amend_volatile_copy(img.clone(), &self.acks, &self.recv_log),
                    false,
                ),
                // Defensive: a dirty bit without a volatile checkpoint
                // (cannot happen through the engines).
                None => (self.current_payload(now), true),
            },
        };
        let seq = self.tb.as_ref().map_or(0, |tb| tb.ndc().0) + 1;
        let label = match contents {
            ContentsChoice::CurrentState => "stable-current",
            ContentsChoice::VolatileCopy => "stable-volatile-copy",
        };
        let ckpt = payload.into_deferred_checkpoint(seq, label);
        // Behind a queued operation the write waits its turn. The backend
        // gets a clone, which shares the record's cell: a refused begin
        // queues the record itself, and its retry reuses whatever bytes
        // the first attempt produced.
        if !self.pending.is_empty() || self.stable.begin_write(ckpt.clone()).is_err() {
            self.pending.push_back(PendingStable::Begin(ckpt));
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
                PendingStable::Discard(epoch) => self.stable.discard_above(*epoch),
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

    /// Discards the committed records above `epoch`; a discard the backend
    /// refuses is queued ahead of every later write.
    pub(crate) fn discard_stable_above(&mut self, epoch: u64) {
        if self.stable.discard_above(epoch).is_err() {
            self.pending.push_back(PendingStable::Discard(epoch));
        }
    }
}
