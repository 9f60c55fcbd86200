//! A node's protocol steps: the same [`ProcessHost`] the simulator drives
//! (application + MDCD + TB engines + stores + ack bookkeeping), each step
//! feeding it one [`HostEvent`] and applying the [`HostAction`]s it appends
//! against a [`Transport`]. The runner owns no channel, thread or clock:
//! `node::run_node`'s loop calls its steps, and a checkpoint round begins
//! and commits when the orchestrator commands it, every node fed its exact
//! grid point, so a mission is deterministic enough to compare against a
//! simulator run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use synergy::app::CounterApp;
use synergy::system::{HostAction, HostEvent, ProcessHost, Topology};
use synergy::Scheme;
use synergy_des::SimTime;
use synergy_mdcd::ProcessRole;
use synergy_net::{Envelope, ProcessId, Transport};
use synergy_storage::{CheckpointError, Stable};
use synergy_tb::TbConfig;

use crate::ctrl::WireStatus;

/// One node's [`ProcessHost`] and the steps the control protocol drives it
/// through, against a real transport.
pub(crate) struct NodeRunner<T: Transport, S: Stable> {
    pub(crate) host: ProcessHost<S>,
    net: Arc<T>,
    /// Zero of the host's virtual time.
    started: Instant,
    /// Where the host writes its actions; empty between steps.
    actions: Vec<HostAction>,
    pub(crate) stable_commits: u64,
    pub(crate) stable_replacements: u64,
}

impl<T: Transport, S: Stable> NodeRunner<T, S> {
    /// Builds a runner for `pid` whose host checkpoints into `stable` under
    /// adapted TB. The caller owns endpoint registration and feeds
    /// deliveries through [`on_envelope`](Self::on_envelope); restoring a
    /// previously persisted checkpoint (process restart) happens afterwards
    /// via [`rollback_to_line`](Self::rollback_to_line).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not one of the canonical topology's three
    /// processes (`NodeOpts::from_args` rejects any other `--pid`).
    pub(crate) fn new(pid: ProcessId, seed: u64, net: Arc<T>, stable: S, tb: TbConfig) -> Self {
        let topology = Topology::canonical();
        let (role, node) = match pid {
            p if p == topology.active => (ProcessRole::Active, 0),
            p if p == topology.shadow => (ProcessRole::Shadow, 1),
            p if p == topology.peer => (ProcessRole::Peer, 2),
            other => panic!("{other} is not a process of the canonical topology"),
        };
        let mut host = ProcessHost::with_stable(
            role,
            pid,
            node,
            topology,
            Scheme::Coordinated,
            CounterApp::new(seed ^ 0xA5A5),
            Some(tb),
            stable,
        );
        // No trace consumer exists in a live runtime; skip building Record
        // actions at the source.
        host.set_tracing(false);
        let mut runner = NodeRunner {
            host,
            net,
            started: Instant::now(),
            actions: Vec::new(),
            stable_commits: 0,
            stable_replacements: 0,
        };
        runner.with_host(|host, now, out| out.extend(host.start_tb(now)));
        runner
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Runs one step of the host at the current time into the runner's
    /// action buffer, applies what it appended and returns what the step
    /// returned.
    fn with_host<R>(
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

    /// Produces one application message (`external`: acceptance-tested).
    pub(crate) fn produce(&mut self, external: bool) {
        self.feed(HostEvent::Produce { external });
    }

    pub(crate) fn on_envelope(&mut self, env: Envelope) {
        self.feed(HostEvent::Deliver(env));
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
        if self.host.tb.as_ref().is_some_and(|tb| tb.is_blocking()) {
            self.feed(HostEvent::BlockingElapsed);
        }
    }

    /// Gives the stable operations the backend refused one more try, when
    /// there are any.
    pub(crate) fn retry_stable(&mut self) {
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
            self.retry_stable();
            attempts += 1;
            if self.host.stable_pending() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// Hardware-error recovery (paper §2.2): restore the node from the
    /// stable checkpoint the epoch line selects — the newest committed one
    /// with sequence number `<= epoch` — through the host's one restore
    /// procedure, then re-send its saved unacknowledged messages. Returns
    /// the restored epoch (`None` when nothing at or before the line was
    /// retained: the node restarted from the initial state, as the
    /// simulator does at epoch line 0) and how many messages it re-sent.
    ///
    /// # Errors
    ///
    /// The selected checkpoint does not decode as a payload; the node is
    /// then left as it was.
    pub(crate) fn rollback_to_line(
        &mut self,
        epoch: u64,
    ) -> Result<(Option<u64>, usize), CheckpointError> {
        let now_local = self
            .host
            .tb
            .as_ref()
            .expect("a node always runs adapted TB")
            .next_deadline();
        let chosen = self.host.stable_at_line(Some(epoch));
        let (restored_epoch, payload) =
            self.with_host(|host, now, out| host.install_stable(chosen, now, now_local, out))?;
        for env in &payload.unacked {
            self.net.send((**env).clone());
        }
        Ok((restored_epoch, payload.unacked.len()))
    }

    /// Byzantine-lite injection (unmasked-regime axis 4): flips value bytes
    /// inside the latest *committed* checkpoint and re-encodes the record in
    /// place, so its CRC — and every integrity check between here and the
    /// next recovery, a chain store's link included — remains valid.
    /// Returns the corrupted epoch, or `None` when nothing is committed, the
    /// payload does not decode, or the backend refuses the rewrite (a write
    /// in flight).
    pub(crate) fn corrupt_latest_checkpoint(&mut self) -> Option<u64> {
        let ckpt = self.host.stable.latest_shared()?;
        let corrupted = synergy::regime::corrupt_checkpoint_value(&ckpt)?;
        self.host
            .stable
            .replace_latest(corrupted)
            .then(|| ckpt.seq())
    }

    /// The status fields the protocol state owns; the wire and chaos
    /// counters are left at zero for the node process to fill.
    pub(crate) fn status(&self) -> WireStatus {
        let snap = self.host.engine.snapshot();
        WireStatus {
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
        }
    }

    /// Applies and empties `actions`.
    fn apply(&mut self, actions: &mut Vec<HostAction>) {
        for action in actions.drain(..) {
            match action {
                HostAction::Send(env) | HostAction::SendAck(env) => self.net.send(env),
                HostAction::StableCommitted { .. } => self.stable_commits += 1,
                HostAction::StableReplaced => self.stable_replacements += 1,
                // Deliveries, checkpoints and acceptance tests are already
                // counted by the host and nothing here reads trace lines;
                // no design fault is armed on a node, so no acceptance test
                // fails; the orchestrator says when a round begins and when
                // its blocking period ends; and the commanded grid is
                // synthetic, so resynchronization is a no-op.
                HostAction::Delivered
                | HostAction::AtPerformed { .. }
                | HostAction::SoftwareErrorDetected
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
