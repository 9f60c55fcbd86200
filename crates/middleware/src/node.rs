//! One process thread, hosting the same [`ProcessHost`] the simulator
//! drives: application + MDCD engine + TB engine + stores + ack bookkeeping.
//!
//! The thread is a driver in the sense of
//! [`synergy::system::host`]: it feeds [`HostEvent`]s from its input
//! channel and interprets the [`HostAction`]s the host appends against the
//! real transport. Adapted TB runs inside the host, exactly as under the
//! simulator; what the runner adds is the clock ([`TbDrive`]) that says when
//! the TB timer expires and when a blocking period has elapsed, and the
//! policy for retrying a stable write the backend refused.
//!
//! The runner is generic over its [`Transport`] and its host's [`Stable`]
//! backend so the same loop serves both drivers: the in-process threaded
//! middleware ([`ThreadedNet`](synergy_net::threaded::ThreadedNet) +
//! in-memory store, wall-clock TB) and the multi-process cluster runtime
//! ([`ReactorTransport`](synergy_net::ReactorTransport) + on-disk store,
//! commanded TB rounds).

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use synergy::app::{Application, CounterApp};
use synergy::payload::CheckpointPayload;
use synergy::system::{HostAction, HostEvent, ProcessHost, Topology};
use synergy::Scheme;
use synergy_clocks::LocalTime;
use synergy_des::SimTime;
use synergy_mdcd::{EngineSnapshot, Event, ProcessRole, RecoveryDecision};
use synergy_net::{CkptSeqNo, Envelope, MissionId, ProcessId, Transport};
use synergy_storage::{Checkpoint, Stable};
use synergy_tb::{Event as TbEvent, TbConfig};

use crate::supervisor::SupEvent;
use crate::{P1ACT, P1SDW};

/// Who tells a node's TB engine what time it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TbDrive {
    /// Real time (the threaded middleware): the timer and the blocking
    /// period the host asks for become `Instant`s and the node loop feeds
    /// their expiry when due. Thread clocks share one time base, so `δ` and
    /// `ρ` are inputs to the blocking-period formula, not measured.
    WallClock,
    /// The cluster orchestrator: a round begins on [`NodeCmd::BeginCkpt`]
    /// and commits on [`NodeCmd::CommitCkpt`], every node fed its exact
    /// grid point — the cluster agrees on epoch numbering without measuring
    /// clocks, and a mission is deterministic enough to compare against a
    /// simulator run.
    Commanded,
}

/// Everything a node thread can receive on its (single) input channel:
/// transport deliveries forwarded by its network pump, and control commands.
#[derive(Debug)]
pub enum NodeInput {
    /// An envelope delivered by the transport.
    Net(Envelope),
    /// A control command.
    Cmd(NodeCmd),
}

/// Commands a node thread accepts.
#[derive(Debug)]
pub enum NodeCmd {
    /// Produce one application message.
    Produce {
        /// Whether the message is external (acceptance-tested).
        external: bool,
    },
    /// Arm/disarm the design fault (active process only; others ignore it).
    SetFaulty(bool),
    /// Shadow only: decide, restore if needed, promote, re-send.
    TakeOver,
    /// Peer only: the promoted shadow is the new active endpoint.
    RetargetActive(ProcessId),
    /// The process is dead (active after takeover).
    Halt,
    /// Commanded TB: begin one stable-checkpoint round now. Replies whether
    /// a stable write is in flight afterwards.
    BeginCkpt(Sender<bool>),
    /// Commanded TB: end the round's blocking period and commit. Replies
    /// with the newest committed epoch.
    CommitCkpt(Sender<Option<u64>>),
    /// Global rollback to the newest stable checkpoint at or before the
    /// epoch line, re-sending saved unacknowledged messages (paper §2.2).
    Rollback {
        /// The epoch line (minimum committed epoch across the cluster).
        epoch: u64,
        /// Where to report the outcome.
        reply: Sender<RollbackOutcome>,
    },
    /// Report live status. Because commands and deliveries share one FIFO
    /// channel, a `Status` round-trip doubles as a barrier: everything sent
    /// to the node before it has been processed once the reply arrives.
    Status(Sender<NodeStatus>),
    /// Unmasked-regime hook (Byzantine-lite): flip value bytes inside the
    /// latest committed stable checkpoint, re-encoding it behind a valid
    /// CRC. Replies with the corrupted epoch, or `None` when the store is
    /// empty or the backend cannot rewrite committed history.
    Corrupt(Sender<Option<u64>>),
    /// Stop the thread.
    Shutdown,
}

/// What a [`NodeCmd::Rollback`] did; the default is "left untouched".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RollbackOutcome {
    /// Epoch of the checkpoint the node restored, or `None` when nothing at
    /// or before the line was retained (node left untouched).
    pub restored_epoch: Option<u64>,
    /// Saved unacknowledged messages re-sent during recovery.
    pub resent: usize,
}

/// A live snapshot of one node.
#[derive(Clone, Debug)]
pub struct NodeStatus {
    /// The process.
    pub pid: ProcessId,
    /// Its current role.
    pub role: ProcessRole,
    /// The MDCD dirty bit.
    pub dirty: bool,
    /// Whether a shadow has been promoted.
    pub promoted: bool,
    /// Suppressed messages currently logged (shadow only).
    pub logged: usize,
    /// Volatile checkpoints established.
    pub ckpts: u64,
    /// Acceptance tests executed.
    pub at_runs: u64,
    /// Application messages delivered to the application.
    pub delivered: u64,
    /// Whether the node has been halted.
    pub halted: bool,
    /// Stable checkpoints committed under adapted TB (0 when disabled).
    pub stable_commits: u64,
    /// Epoch of the newest committed stable checkpoint, if any.
    pub stable_epoch: Option<u64>,
    /// Torn stable writes the store has recorded (including tears detected
    /// while reloading a durable store after a crash).
    pub torn_writes: u64,
    /// Retry attempts against a transiently failing stable backend.
    pub stable_retries: u64,
    /// Messages currently awaiting acknowledgment.
    pub unacked: usize,
}

/// Final per-node accounting.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// The process.
    pub pid: ProcessId,
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Volatile checkpoints established.
    pub ckpts: u64,
    /// Acceptance tests executed.
    pub at_runs: u64,
    /// Whether the node ended promoted (shadow) or halted (active).
    pub promoted: bool,
    /// Stable checkpoints committed under adapted TB (0 when disabled).
    pub stable_commits: u64,
    /// Adapted-TB in-flight content replacements.
    pub stable_replacements: u64,
}

/// Forwards transport deliveries for `pid` into the node's input channel so
/// the run loop has a single blocking receive. The pump thread exits when
/// either side hangs up (transport torn down or node gone).
pub fn spawn_net_pump(pid: ProcessId, net_rx: Receiver<Envelope>, input_tx: Sender<NodeInput>) {
    std::thread::Builder::new()
        .name(format!("synergy-node-{pid}-net"))
        .spawn(move || {
            while let Ok(env) = net_rx.recv() {
                if input_tx.send(NodeInput::Net(env)).is_err() {
                    break;
                }
            }
        })
        .expect("spawn net pump thread");
}

/// The node event loop: one [`ProcessHost`] driven from an input channel
/// against a real transport.
pub struct NodeRunner<T: Transport, S: Stable> {
    /// The tenant this runner serves; deliveries carrying any other tag
    /// are discarded at the loop boundary (per-tenant isolation guard).
    mission: MissionId,
    host: ProcessHost<S>,
    net: Arc<T>,
    input_rx: Receiver<NodeInput>,
    sup_tx: Sender<SupEvent>,
    /// Zero of the host's virtual and local time.
    started: Instant,
    halted: bool,
    dead_senders: Vec<ProcessId>,
    /// TB runs under [`TbDrive::WallClock`]: the two deadlines below get set.
    wall_clock: bool,
    /// When the TB timer the host scheduled is due.
    next_timer: Option<Instant>,
    /// When the current blocking period has elapsed.
    blocking_until: Option<Instant>,
    /// Where the host writes its actions; empty between inputs.
    actions: Vec<HostAction>,
    stable_commits: u64,
    stable_replacements: u64,
    seed: u64,
}

impl<T: Transport, S: Stable> NodeRunner<T, S> {
    /// Builds a runner for `pid` whose host checkpoints into `stable`,
    /// under adapted TB when `tb` says so and on whose clock. The caller
    /// owns endpoint registration and the delivery pump (see
    /// [`spawn_net_pump`]); restoring a previously persisted checkpoint
    /// (process restart) happens afterwards via [`NodeCmd::Rollback`].
    pub fn new(
        pid: ProcessId,
        seed: u64,
        net: Arc<T>,
        input_rx: Receiver<NodeInput>,
        sup_tx: Sender<SupEvent>,
        stable: S,
        tb: Option<(TbConfig, TbDrive)>,
    ) -> Self {
        let (role, node) = match pid {
            p if p == P1ACT => (ProcessRole::Active, 0),
            p if p == P1SDW => (ProcessRole::Shadow, 1),
            _ => (ProcessRole::Peer, 2),
        };
        let (tb, drive) = tb.unzip();
        let mut host = ProcessHost::with_stable(
            role,
            pid,
            node,
            Topology::canonical(),
            Scheme::Coordinated,
            CounterApp::new(seed ^ 0xA5A5),
            tb,
            stable,
        );
        // No trace consumer exists in the threaded runtime; skip building
        // Record actions at the source.
        host.set_tracing(false);
        let mut runner = NodeRunner {
            mission: MissionId::SOLO,
            host,
            net,
            input_rx,
            sup_tx,
            started: Instant::now(),
            halted: false,
            dead_senders: Vec::new(),
            wall_clock: drive == Some(TbDrive::WallClock),
            next_timer: None,
            blocking_until: None,
            actions: Vec::new(),
            stable_commits: 0,
            stable_replacements: 0,
            seed,
        };
        runner.with_host(|host, now, out| out.extend(host.start_tb(now)));
        runner
    }

    /// Assigns the runner (and its host) to a mission: outgoing traffic is
    /// stamped with the tag and deliveries of other tenants are ignored.
    /// Call before [`run`](Self::run).
    #[must_use]
    pub fn with_mission(mut self, mission: MissionId) -> Self {
        self.mission = mission;
        self.host.set_mission(mission);
        self
    }

    /// Runs the loop until shutdown; returns the final accounting.
    pub fn run(mut self) -> NodeReport {
        loop {
            // Bound the wait by the next TB deadline so wall-clock timers
            // fire on time (a commanded runner has none).
            let timeout = [self.next_timer, self.blocking_until]
                .into_iter()
                .flatten()
                .min()
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(50));
            match self.input_rx.recv_timeout(timeout) {
                Ok(NodeInput::Net(env)) => self.on_envelope(env),
                Ok(NodeInput::Cmd(NodeCmd::Shutdown)) | Err(RecvTimeoutError::Disconnected) => {
                    break
                }
                Ok(NodeInput::Cmd(cmd)) => self.on_cmd(cmd),
                Err(RecvTimeoutError::Timeout) => {}
            }
            self.tick_tb();
        }
        NodeReport {
            pid: self.host.pid,
            delivered: self.host.delivered,
            ckpts: self.host.volatile_seq,
            at_runs: self.host.engine.at_runs(),
            promoted: self.host.engine.role() == ProcessRole::Active
                && self.host.pid == self.host.topology.shadow,
            stable_commits: self.stable_commits,
            stable_replacements: self.stable_replacements,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Runs one step of the host at the current time into the runner's
    /// action buffer and applies what it appended.
    fn with_host(&mut self, step: impl FnOnce(&mut ProcessHost<S>, SimTime, &mut Vec<HostAction>)) {
        let now = self.now();
        let mut actions = std::mem::take(&mut self.actions);
        step(&mut self.host, now, &mut actions);
        self.apply(&mut actions);
        self.actions = actions;
    }

    fn feed(&mut self, event: HostEvent) {
        self.with_host(|host, now, out| host.handle_into(event, now, out));
    }

    /// Starts one checkpoint round, as if the host's timer expired exactly
    /// on its deadline grid. Ignored while a round is already blocking.
    fn begin_round(&mut self) {
        if let Some(tb) = self.host.tb.as_ref().filter(|tb| !tb.is_blocking()) {
            let deadline = tb.next_deadline();
            self.feed(HostEvent::TimerExpired { deadline });
        }
    }

    /// Ends the round's blocking period, which commits the in-flight
    /// write. Ignored when no round is blocking.
    fn end_round(&mut self) {
        self.blocking_until = None;
        if self.host.tb.as_ref().is_some_and(|tb| tb.is_blocking()) {
            self.feed(HostEvent::BlockingElapsed);
        }
    }

    /// Fires what the wall clock says is due, then gives a refused stable
    /// write one more try.
    fn tick_tb(&mut self) {
        let now = Instant::now();
        if self.blocking_until.is_some_and(|b| now >= b) {
            self.end_round();
        }
        if self.blocking_until.is_none() && self.next_timer.take_if(|t| now >= *t).is_some() {
            self.begin_round();
        }
        if self.host.stable_pending() {
            self.with_host(|host, now, out| host.retry_stable(now, out));
        }
    }

    /// Retries failed stable operations a bounded number of times — the
    /// flaky-disk masking loop. A backend that keeps failing past the budget
    /// leaves the host pending; the orchestrator sees the lag via
    /// `stable_epoch` and aborts the campaign rather than hanging.
    fn retry_stable_bounded(&mut self) {
        const STABLE_RETRY_BUDGET: u32 = 8;
        let mut attempts = 0;
        while self.host.stable_pending() && attempts < STABLE_RETRY_BUDGET {
            self.with_host(|host, now, out| host.retry_stable(now, out));
            attempts += 1;
            if self.host.stable_pending() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    fn on_envelope(&mut self, env: Envelope) {
        // A shared transport can only misroute across tenants if a
        // registration bug aliases two missions; the runner still never
        // lets foreign traffic reach its engines.
        if env.mission != self.mission {
            return;
        }
        if self.halted || self.dead_senders.contains(&env.from()) {
            return;
        }
        self.feed(HostEvent::Deliver(env));
    }

    /// The local side of a takeover/retarget: decide, roll back to the
    /// volatile checkpoint if the decision says so, and stop listening to
    /// the failed active.
    fn rollback_if_decided(&mut self) {
        let decision = self
            .host
            .engine
            .recovery_decision()
            .unwrap_or(RecoveryDecision::RollForward);
        if decision == RecoveryDecision::RollBack {
            let _ = self.host.rollback_to_volatile(self.now());
        }
        self.dead_senders.push(self.host.topology.active);
    }

    /// Hardware-error recovery: restore the node from the stable checkpoint
    /// the epoch line selects — the newest committed one with sequence
    /// number `<= epoch` — restart TB from it and re-send its saved
    /// unacknowledged messages. A node without TB is left untouched.
    fn rollback_to_line(&mut self, epoch: u64) -> RollbackOutcome {
        let Some(tb) = self.host.tb.as_ref() else {
            return RollbackOutcome::default();
        };
        let now_local = if self.wall_clock {
            LocalTime::from_nanos(self.now().as_nanos())
        } else {
            tb.next_deadline()
        };
        // Global recovery supersedes the write in flight and whatever
        // awaited retry.
        self.host.abort_stable();
        self.blocking_until = None;
        let restored = self.host.stable.latest_at_or_before_shared(epoch);
        let restored_epoch = restored.as_ref().map(Checkpoint::seq);
        let ndc = CkptSeqNo(restored_epoch.unwrap_or(0));
        let payload = match &restored {
            Some(ckpt) => match CheckpointPayload::from_checkpoint(ckpt) {
                Ok(p) => p,
                Err(_) => return RollbackOutcome::default(),
            },
            // No committed checkpoint at or below the line: the epoch line
            // is 0 and the mission restarts from the initial state, exactly
            // as the simulator's hardware recovery does.
            None => CheckpointPayload::new(
                CounterApp::new(self.seed ^ 0xA5A5).snapshot(),
                EngineSnapshot::default(),
                Vec::new(),
                Vec::new(),
                SimTime::ZERO,
            ),
        };
        self.host.restore_from_payload(&payload);
        // The engine's restore leaves `Ndc` alone; align it with the
        // restored epoch, as the simulator's hardware recovery does, or
        // every `passed_AT` until the next commit compares stale. Then
        // restart the TB timers.
        self.with_host(|host, now, out| {
            out.extend(host.engine_event(Event::StableCheckpointCommitted(ndc), now));
            out.extend(host.tb_event(TbEvent::Restarted { now_local, ndc }, now));
        });
        for env in &payload.unacked {
            self.net.send((**env).clone());
        }
        RollbackOutcome {
            restored_epoch,
            resent: payload.unacked.len(),
        }
    }

    /// Byzantine-lite injection (unmasked-regime axis 4): flips value bytes
    /// inside the latest *committed* checkpoint and re-encodes the record in
    /// place, so its CRC — and every integrity check between here and the
    /// next recovery — remains valid. Returns the corrupted epoch, or `None`
    /// when nothing is committed, the payload does not decode, or the
    /// backend cannot rewrite committed history (delta chains).
    fn corrupt_latest_checkpoint(&mut self) -> Option<u64> {
        let ckpt = self.host.stable.latest_shared()?;
        let corrupted = synergy::regime::corrupt_checkpoint_value(&ckpt)?;
        self.host
            .stable
            .replace_latest(corrupted)
            .then(|| ckpt.seq())
    }

    fn on_cmd(&mut self, cmd: NodeCmd) {
        match cmd {
            NodeCmd::Produce { external } => {
                if self.halted {
                    return;
                }
                self.feed(HostEvent::Produce { external });
            }
            NodeCmd::SetFaulty(on) => self.host.app.set_faulty(on),
            NodeCmd::TakeOver => {
                self.rollback_if_decided();
                let plan = self.host.engine.take_over();
                for mut env in plan.resend {
                    env.mission = self.mission;
                    self.host.note_send(&env);
                    self.net.send(env);
                }
                let _ = self
                    .sup_tx
                    .send(SupEvent::TakeoverDone { by: self.host.pid });
            }
            NodeCmd::RetargetActive(new_active) => {
                self.rollback_if_decided();
                if let Some(peer) = self.host.engine.as_peer_mut() {
                    peer.retarget_active(new_active);
                }
            }
            NodeCmd::Halt => self.halted = true,
            NodeCmd::BeginCkpt(tx) => {
                self.begin_round();
                self.retry_stable_bounded();
                let _ = tx.send(self.host.stable.is_writing());
            }
            NodeCmd::CommitCkpt(tx) => {
                self.end_round();
                self.retry_stable_bounded();
                let _ = tx.send(self.host.stable.latest_seq());
            }
            NodeCmd::Rollback { epoch, reply } => {
                let _ = reply.send(self.rollback_to_line(epoch));
            }
            NodeCmd::Corrupt(tx) => {
                let _ = tx.send(self.corrupt_latest_checkpoint());
            }
            NodeCmd::Status(tx) => {
                let snap = self.host.engine.snapshot();
                let _ = tx.send(NodeStatus {
                    pid: self.host.pid,
                    role: self.host.engine.role(),
                    dirty: self.host.engine.dirty_bit(),
                    promoted: snap.promoted,
                    logged: snap.log.len(),
                    ckpts: self.host.volatile_seq,
                    at_runs: self.host.engine.at_runs(),
                    delivered: self.host.delivered,
                    halted: self.halted,
                    stable_commits: self.stable_commits,
                    stable_epoch: self.host.stable.latest_seq(),
                    torn_writes: self.host.stable.stats().torn_writes,
                    stable_retries: self.host.stable_retries,
                    unacked: self.host.acks.len(),
                });
            }
            NodeCmd::Shutdown => unreachable!("handled by the select loop"),
        }
    }

    /// Applies and empties `actions`.
    fn apply(&mut self, actions: &mut Vec<HostAction>) {
        for action in actions.drain(..) {
            match action {
                HostAction::Send(env) | HostAction::SendAck(env) => self.net.send(env),
                HostAction::SoftwareErrorDetected => {
                    self.halted = self.host.pid == self.host.topology.active;
                    let _ = self.sup_tx.send(SupEvent::SoftwareError {
                        detected_by: self.host.pid,
                    });
                }
                HostAction::ScheduleTimer { at } if self.wall_clock => {
                    self.next_timer = Some(self.started + Duration::from_nanos(at.as_nanos()));
                }
                HostAction::BlockingStarted { duration } if self.wall_clock => {
                    self.blocking_until =
                        Some(Instant::now() + Duration::from_nanos(duration.as_nanos()));
                }
                HostAction::StableCommitted { .. } => self.stable_commits += 1,
                HostAction::StableReplaced => self.stable_replacements += 1,
                // Deliveries, checkpoints and acceptance tests are already
                // counted by the host and nothing here reads trace lines; a
                // commanded runner is told when timer and blocking period
                // end; thread clocks share a time base and the commanded
                // grid is synthetic, so resynchronization is a no-op.
                HostAction::Delivered
                | HostAction::AtPerformed { .. }
                | HostAction::RegimeCorrupted { .. }
                | HostAction::VolatileSaved { .. }
                | HostAction::WriteThroughCommitted
                | HostAction::StableWriteBegun { .. }
                | HostAction::ScheduleTimer { .. }
                | HostAction::BlockingStarted { .. }
                | HostAction::ResyncRequested
                | HostAction::Record { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use synergy_net::{MessageBody, MsgId, MsgSeqNo};
    use synergy_storage::{DiskFault, DiskFaultPlan, DiskOp, FaultyStable, StableStore};

    use crate::{MiddlewareConfig, P2};

    struct NullNet;

    impl Transport for NullNet {
        fn send(&self, _: Envelope) {}
    }

    /// `P2` under commanded TB over `stable`, driven by calling the loop's
    /// own handlers: `begin_round` feeds `TimerExpired { deadline:
    /// tb.next_deadline() }`, `end_round` feeds `BlockingElapsed`.
    fn commanded<S: Stable>(stable: S) -> NodeRunner<NullNet, S> {
        let tb = MiddlewareConfig::default().with_tb_interval(Duration::from_secs(1));
        let tb = tb.tb_config().map(|tb| (tb, TbDrive::Commanded));
        let (_, input_rx) = channel();
        let (sup_tx, _) = channel();
        NodeRunner::new(P2, 7, Arc::new(NullNet), input_rx, sup_tx, stable, tb)
    }

    /// `n` whole rounds, each committing one epoch.
    fn rounds<S: Stable>(r: &mut NodeRunner<NullNet, S>, n: u32) {
        for _ in 0..n {
            r.begin_round();
            r.end_round();
        }
    }

    fn from_active(seq: u64, body: MessageBody) -> Envelope {
        let id = MsgId {
            from: P1ACT,
            seq: MsgSeqNo(seq),
        };
        Envelope::new(id, P2, body)
    }

    /// A dirty application message from `P1act`: contaminates `P2`, which
    /// takes its Type-1 volatile checkpoint first.
    fn dirty_app(seq: u64) -> Envelope {
        let body = MessageBody::Application {
            payload: vec![seq as u8],
            dirty: true,
        };
        from_active(seq, body)
    }

    fn passed_at(msg_sn: u64, ndc: u64) -> Envelope {
        let body = MessageBody::PassedAt {
            msg_sn: MsgSeqNo(msg_sn),
            ndc: CkptSeqNo(ndc),
        };
        from_active((1 << 40) + msg_sn, body)
    }

    fn mdcd_ndc<S: Stable>(r: &NodeRunner<NullNet, S>) -> CkptSeqNo {
        r.host.engine.snapshot().ndc
    }

    fn fails(seq: u64, op: DiskOp, times: u32) -> DiskFault {
        DiskFault { seq, op, times }
    }

    fn app_of(ckpt: Option<Checkpoint>) -> Arc<[u8]> {
        let ckpt = ckpt.expect("committed");
        let payload = CheckpointPayload::from_checkpoint(&ckpt);
        payload.expect("decodes").app
    }

    #[test]
    fn commanded_rounds_commit_in_lockstep() {
        let mut r = commanded(StableStore::new());
        assert!(r.next_timer.is_none(), "nothing fires on its own");
        r.tick_tb();
        assert!(!r.host.stable.is_writing());
        for round in 1..=3u64 {
            r.begin_round();
            assert!(r.host.stable.is_writing());
            // MDCD was told the blocking period started: it holds traffic.
            r.on_envelope(dirty_app(round));
            assert_eq!(r.host.delivered, round - 1);
            // Re-beginning mid-round is ignored, not an engine panic.
            r.begin_round();
            assert_eq!(r.stable_commits, round - 1);
            r.end_round();
            assert_eq!(mdcd_ndc(&r), CkptSeqNo(round));
            assert_eq!(r.host.delivered, round, "commit ends MDCD's blocking");
            assert_eq!(r.host.stable.latest_seq(), Some(round));
        }
        assert_eq!(r.stable_commits, 3);
        // Committing with no round open is ignored.
        r.end_round();
        assert_eq!(r.stable_commits, 3);
    }

    #[test]
    fn injected_stable_faults_are_retried_not_swallowed() {
        let plan = DiskFaultPlan {
            faults: vec![
                fails(1, DiskOp::Begin, 1),
                fails(2, DiskOp::Commit, 1),
                fails(3, DiskOp::Begin, 1),
            ],
        };
        let mut r = commanded(FaultyStable::new(StableStore::new(), plan));
        // Round 1: the begin fails; a retry lands it before the commit.
        r.begin_round();
        assert!(
            !r.host.stable.is_writing(),
            "failed begin left nothing in flight"
        );
        assert!(r.host.stable_pending());
        r.with_host(|host, now, out| host.retry_stable(now, out));
        assert!(r.host.stable.is_writing());
        assert_eq!(r.stable_commits, 0, "begin retry commits nothing");
        r.end_round();
        assert_eq!((r.stable_commits, mdcd_ndc(&r)), (1, CkptSeqNo(1)));
        // Round 2: the commit fails; StableCommitted and what it tells MDCD
        // must be deferred to the successful retry, never emitted for a
        // write that is not durable.
        rounds(&mut r, 1);
        assert_eq!(r.stable_commits, 1, "no StableCommitted while disk lags");
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(1), "no MDCD event while disk lags");
        assert_eq!(r.host.stable.latest_seq(), Some(1));
        assert!(r.host.stable_pending());
        r.with_host(|host, now, out| host.retry_stable(now, out));
        assert_eq!((r.stable_commits, mdcd_ndc(&r)), (2, CkptSeqNo(2)));
        assert!(!r.host.stable_pending());
        assert_eq!(r.host.stable.latest_seq(), Some(2));
        assert!(r.host.stable_retries >= 2);
        // Round 3: the begin of a dirty process's volatile copy fails, and
        // the passed_AT lands inside the blocking period: nothing is in
        // flight to replace, so the queued contents are swapped.
        r.on_envelope(dirty_app(1));
        r.begin_round();
        assert!(r.host.stable_pending());
        r.on_envelope(passed_at(1, 2));
        assert_eq!(r.stable_replacements, 1);
        r.end_round();
        r.retry_stable_bounded();
        assert_eq!(r.stable_commits, 3);
        let latest = app_of(r.host.stable.latest_shared());
        assert_eq!(*latest, *r.host.app.snapshot(), "current state won");
    }

    #[test]
    fn rollback_discards_pending_stable_operations() {
        let plan = DiskFaultPlan {
            faults: vec![fails(2, DiskOp::Begin, 99)],
        };
        let mut r = commanded(FaultyStable::new(StableStore::new(), plan));
        rounds(&mut r, 1);
        // Epoch 2's begin fails persistently; global recovery supersedes it.
        r.begin_round();
        assert!(r.host.stable_pending());
        assert_eq!(r.rollback_to_line(1).restored_epoch, Some(1));
        assert!(!r.host.stable_pending(), "rollback clears the retry queue");
    }

    #[test]
    fn commanded_runtime_runs_unchanged_over_the_delta_chain_store() {
        use synergy_archive::{ChainRecord, ChainWalker, DeltaStable, StableHistory};
        let mut r = commanded(DeltaStable::open(StableStore::new(), 4));
        for round in 1..=6u64 {
            let dirty = round % 2 == 0;
            if dirty {
                r.on_envelope(dirty_app(round));
            }
            r.begin_round();
            // Replace mid-round on even (dirty) epochs: the delta layer must
            // re-diff against the same base, exactly like a plain store
            // swaps bytes.
            if dirty {
                r.on_envelope(passed_at(round, round - 1));
            }
            r.end_round();
            assert_eq!(mdcd_ndc(&r), CkptSeqNo(round));
        }
        assert_eq!(r.stable_commits, 6);
        assert_eq!(r.stable_replacements, 3);
        let stats = r.host.stable.delta_stats();
        assert_eq!(stats.full_records, 2, "k=4 over 6 commits");
        assert_eq!(stats.delta_records, 4);
        let latest = app_of(r.host.stable.latest_shared());
        assert_eq!(
            *latest,
            *r.host.app.snapshot(),
            "payload survives the chain"
        );
        // Global rollback walks the chain transparently and the next round
        // continues from the restored epoch.
        assert_eq!(r.rollback_to_line(3).restored_epoch, Some(3));
        let third = app_of(r.host.stable.latest_at_or_before_shared(3));
        assert_ne!(*third, *latest, "epoch 3 predates two receipts");
        assert_eq!(*third, *r.host.app.snapshot());
        rounds(&mut r, 1);
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(4));
        assert_eq!(r.host.stable.latest_seq(), Some(4));
        // The chain the inner store actually holds replays byte-identically
        // to the live view, post-rollback seq reuse included.
        let mut walker = ChainWalker::new();
        let mut replayed = None;
        for rec in r.host.stable.inner().committed_records() {
            let chain: ChainRecord =
                synergy_codec::from_bytes(&rec.shared_data()).expect("chain record decodes");
            if let Some(image) = walker.feed(rec.seq(), &chain) {
                replayed = Some(image);
            }
        }
        assert_eq!(walker.orphans(), 0);
        assert_eq!(
            replayed.expect("chain replays"),
            r.host
                .stable
                .latest_shared()
                .expect("committed")
                .shared_data(),
        );
    }

    #[test]
    fn commanded_rollback_selects_epoch_line_and_restarts() {
        let mut r = commanded(StableStore::new());
        rounds(&mut r, 3);
        // A fourth round begins but the node "crashes" before commit.
        r.begin_round();
        assert!(r.host.stable.is_writing());
        let restored = r.rollback_to_line(2).restored_epoch;
        assert_eq!(restored, Some(2), "newest checkpoint at or before the line");
        assert!(!r.host.stable.is_writing(), "rollback aborts the write");
        // The next round continues the sequence from the restored epoch.
        rounds(&mut r, 1);
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(3));
        assert_eq!(r.host.stable.latest_seq(), Some(3));
        let restored = r.rollback_to_line(0).restored_epoch;
        assert_eq!(restored, None, "epoch 0 retains nothing");
    }

    #[test]
    fn restarted_node_learns_ndc_from_the_restored_epoch() {
        let mut first = commanded(StableStore::new());
        rounds(&mut first, 2);
        // A new incarnation over what the old one left on disk.
        let mut r = commanded(first.host.stable);
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(0));
        let (reply, outcome) = channel();
        r.on_cmd(NodeCmd::Rollback { epoch: 2, reply });
        assert_eq!(outcome.recv().unwrap().restored_epoch, Some(2));
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(2), "passed_AT would compare stale");
    }
}
