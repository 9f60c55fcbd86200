//! The node event loop: one thread hosting the same [`ProcessHost`] the
//! simulator drives — application + MDCD engine + TB engine + stores + ack
//! bookkeeping.
//!
//! The loop is a driver in the sense of [`synergy::system::host`]: it feeds
//! [`HostEvent`]s from its input channel and interprets the [`HostAction`]s
//! the host appends against a [`Transport`]. Adapted TB runs inside the
//! host, exactly as under the simulator; what the runner adds is the clock
//! ([`TbDrive`]) that says when the TB timer expires and when a blocking
//! period has elapsed, and the policy for retrying a stable write the
//! backend refused.
//!
//! `synergy-node` runs one runner over the reactor and an on-disk store
//! under [`TbDrive::Commanded`]. The crate's tests wire three runners in one
//! process over the test-only `MemNet` under [`TbDrive::WallClock`], with
//! the test thread playing the takeover supervisor.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use synergy::app::{Application, CounterApp};
use synergy::system::{HostAction, HostEvent, ProcessHost, Topology};
use synergy::Scheme;
use synergy_clocks::LocalTime;
use synergy_des::SimTime;
use synergy_mdcd::{ProcessRole, RecoveryDecision};
use synergy_net::{Envelope, ProcessId, Transport};
use synergy_storage::{CheckpointError, Stable};
use synergy_tb::TbConfig;

use crate::ctrl::WireStatus;

/// Who tells a node's TB engine what time it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TbDrive {
    /// Real time: the timer and the blocking period the host asks for
    /// become `Instant`s and the node loop feeds their expiry when due.
    /// Runners in one process share one time base, so `δ` and `ρ` are
    /// inputs to the blocking-period formula, not measured. Only the
    /// in-process tests run it.
    WallClock,
    /// The cluster orchestrator: a round begins on [`NodeCmd::BeginCkpt`]
    /// and commits on [`NodeCmd::CommitCkpt`], every node fed its exact
    /// grid point — the cluster agrees on epoch numbering without measuring
    /// clocks, and a mission is deterministic enough to compare against a
    /// simulator run.
    Commanded,
}

/// Everything a node thread can receive on its (single) input channel:
/// transport deliveries and control commands.
#[derive(Debug)]
pub(crate) enum NodeInput {
    /// An envelope delivered by the transport.
    Net(Envelope),
    /// A control command.
    Cmd(NodeCmd),
}

/// Commands a node thread accepts. The four software-recovery commands
/// (`SetFaulty`, `TakeOver`, `RetargetActive`, `Halt`) have no control
/// message yet; only the in-process tests send them.
#[derive(Debug)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum NodeCmd {
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
        /// Where to report the outcome, or why the restore target at the
        /// line does not decode.
        reply: Sender<Result<RollbackOutcome, CheckpointError>>,
    },
    /// Report live status: the loop fills the fields it owns and leaves
    /// the wire and chaos counters at zero for the node process.
    /// Because commands and deliveries share one FIFO channel, a `Status`
    /// round-trip doubles as a barrier: everything sent to the node before
    /// it has been processed once the reply arrives.
    Status(Sender<WireStatus>),
    /// Unmasked-regime hook (Byzantine-lite): flip value bytes inside the
    /// latest committed stable checkpoint, re-encoding it behind a valid
    /// CRC. Replies with the corrupted epoch, or `None` when the store is
    /// empty or the backend cannot rewrite committed history.
    Corrupt(Sender<Option<u64>>),
    /// Stop the thread.
    Shutdown,
}

/// What a [`NodeCmd::Rollback`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RollbackOutcome {
    /// Epoch of the checkpoint the node restored, or `None` when nothing at
    /// or before the line was retained: the node restarted from the initial
    /// state, as the simulator does at epoch line 0.
    pub restored_epoch: Option<u64>,
    /// Saved unacknowledged messages re-sent during recovery.
    pub resent: usize,
}

/// Events a runner reports to whoever plays the takeover supervisor: the
/// cluster node discards them; the in-process tests halt the active,
/// promote the shadow and retarget the peer on the first error.
#[derive(Debug)]
pub(crate) enum SupEvent {
    /// An acceptance test failed at this node (the recovery procedure is
    /// the same whoever detected the error).
    SoftwareError,
    /// The shadow finished its takeover.
    TakeoverDone,
}

/// Forwards transport deliveries for `pid` into the node's input channel so
/// the run loop has a single blocking receive. The pump thread exits when
/// either side hangs up (transport torn down or node gone).
pub(crate) fn spawn_net_pump(
    pid: ProcessId,
    net_rx: Receiver<Envelope>,
    input_tx: Sender<NodeInput>,
) {
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
pub(crate) struct NodeRunner<T: Transport, S: Stable> {
    pub(crate) host: ProcessHost<S>,
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
    pub(crate) next_timer: Option<Instant>,
    /// When the current blocking period has elapsed.
    blocking_until: Option<Instant>,
    /// Where the host writes its actions; empty between inputs.
    actions: Vec<HostAction>,
    pub(crate) stable_commits: u64,
    pub(crate) stable_replacements: u64,
}

impl<T: Transport, S: Stable> NodeRunner<T, S> {
    /// Builds a runner for `pid` whose host checkpoints into `stable`,
    /// under adapted TB when `tb` says so and on whose clock. The caller
    /// owns endpoint registration and the delivery pump (see
    /// [`spawn_net_pump`]); restoring a previously persisted checkpoint
    /// (process restart) happens afterwards via [`NodeCmd::Rollback`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not one of the canonical topology's three
    /// processes (`NodeOpts::from_args` rejects any other `--pid`).
    pub(crate) fn new(
        pid: ProcessId,
        seed: u64,
        net: Arc<T>,
        input_rx: Receiver<NodeInput>,
        sup_tx: Sender<SupEvent>,
        stable: S,
        tb: Option<(TbConfig, TbDrive)>,
    ) -> Self {
        let topology = Topology::canonical();
        let (role, node) = match pid {
            p if p == topology.active => (ProcessRole::Active, 0),
            p if p == topology.shadow => (ProcessRole::Shadow, 1),
            p if p == topology.peer => (ProcessRole::Peer, 2),
            other => panic!("{other} is not a process of the canonical topology"),
        };
        let (tb, drive) = tb.unzip();
        let mut host = ProcessHost::with_stable(
            role,
            pid,
            node,
            topology,
            Scheme::Coordinated,
            CounterApp::new(seed ^ 0xA5A5),
            tb,
            stable,
        );
        // No trace consumer exists in a live runtime; skip building Record
        // actions at the source.
        host.set_tracing(false);
        let mut runner = NodeRunner {
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
        };
        runner.with_host(|host, now, out| out.extend(host.start_tb(now)));
        runner
    }

    /// Runs the loop until shutdown or until every input sender is gone.
    pub(crate) fn run(mut self) {
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
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Runs one step of the host at the current time into the runner's
    /// action buffer, applies what it appended and returns what the step
    /// returned.
    pub(crate) fn with_host<R>(
        &mut self,
        step: impl FnOnce(&mut ProcessHost<S>, SimTime, &mut Vec<HostAction>) -> R,
    ) -> R {
        let now = self.now();
        let mut actions = std::mem::take(&mut self.actions);
        let result = step(&mut self.host, now, &mut actions);
        self.apply(&mut actions);
        self.actions = actions;
        result
    }

    fn feed(&mut self, event: HostEvent) {
        self.with_host(|host, now, out| host.handle_into(event, now, out));
    }

    /// Starts one checkpoint round, as if the host's timer expired exactly
    /// on its deadline grid. Ignored while a round is already blocking.
    pub(crate) fn begin_round(&mut self) {
        if let Some(tb) = self.host.tb.as_ref().filter(|tb| !tb.is_blocking()) {
            let deadline = tb.next_deadline();
            self.feed(HostEvent::TimerExpired { deadline });
        }
    }

    /// Ends the round's blocking period, which commits the in-flight
    /// write. Ignored when no round is blocking.
    pub(crate) fn end_round(&mut self) {
        self.blocking_until = None;
        if self.host.tb.as_ref().is_some_and(|tb| tb.is_blocking()) {
            self.feed(HostEvent::BlockingElapsed);
        }
    }

    /// Fires what the wall clock says is due, then gives a refused stable
    /// write one more try.
    pub(crate) fn tick_tb(&mut self) {
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
    pub(crate) fn retry_stable_bounded(&mut self) {
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

    pub(crate) fn on_envelope(&mut self, env: Envelope) {
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
    /// number `<= epoch` — through the host's one restore procedure, then
    /// re-send its saved unacknowledged messages.
    ///
    /// # Errors
    ///
    /// The selected checkpoint does not decode as a payload; the node is
    /// then left as it was.
    pub(crate) fn rollback_to_line(
        &mut self,
        epoch: u64,
    ) -> Result<RollbackOutcome, CheckpointError> {
        let now_local = match self.host.tb.as_ref() {
            Some(tb) if !self.wall_clock => tb.next_deadline(),
            _ => LocalTime::from_nanos(self.now().as_nanos()),
        };
        let chosen = self.host.stable_at_line(Some(epoch));
        let (restored_epoch, payload) =
            self.with_host(|host, now, out| host.install_stable(chosen, now, now_local, out))?;
        self.blocking_until = None;
        for env in &payload.unacked {
            self.net.send((**env).clone());
        }
        Ok(RollbackOutcome {
            restored_epoch,
            resent: payload.unacked.len(),
        })
    }

    /// Byzantine-lite injection (unmasked-regime axis 4): flips value bytes
    /// inside the latest *committed* checkpoint and re-encodes the record in
    /// place, so its CRC — and every integrity check between here and the
    /// next recovery, a chain store's link included — remains valid.
    /// Returns the corrupted epoch, or `None` when nothing is committed, the
    /// payload does not decode, or the backend refuses the rewrite (a write
    /// in flight).
    fn corrupt_latest_checkpoint(&mut self) -> Option<u64> {
        let ckpt = self.host.stable.latest_shared()?;
        let corrupted = synergy::regime::corrupt_checkpoint_value(&ckpt)?;
        self.host
            .stable
            .replace_latest(corrupted)
            .then(|| ckpt.seq())
    }

    pub(crate) fn on_cmd(&mut self, cmd: NodeCmd) {
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
                for env in plan.resend {
                    self.host.note_send(&env);
                    self.net.send(env);
                }
                let _ = self.sup_tx.send(SupEvent::TakeoverDone);
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
                let _ = tx.send(WireStatus {
                    dirty: self.host.engine.dirty_bit(),
                    promoted: snap.promoted,
                    logged: snap.log.len() as u64,
                    volatile_ckpts: self.host.volatile_seq,
                    at_runs: self.host.engine.at_runs(),
                    delivered: self.host.delivered,
                    stable_epoch: self.host.stable.latest_seq(),
                    torn_writes: self.host.stable.stats().torn_writes,
                    stable_retries: self.host.stable_retries,
                    unacked: self.host.acks.len() as u64,
                    ..WireStatus::default()
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
                    let _ = self.sup_tx.send(SupEvent::SoftwareError);
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
                // end; runners in one process share a time base and the
                // commanded grid is synthetic, so resynchronization is a
                // no-op.
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

/// A test-only in-memory [`Transport`]: `send` pushes the envelope as
/// [`NodeInput::Net`] straight into the destination's channel — a runner's
/// input channel, or the device's. Per-link FIFO holds because an mpsc
/// channel keeps one thread's sends in order.
#[cfg(test)]
pub(crate) struct MemNet(
    pub(crate) std::collections::HashMap<synergy_net::Endpoint, Sender<NodeInput>>,
);

#[cfg(test)]
impl Transport for MemNet {
    fn send(&self, env: Envelope) {
        // A hung-up receiver is a stopped runner: drop, as a wire would.
        let _ = self.0[&env.to].send(NodeInput::Net(env));
    }
}
