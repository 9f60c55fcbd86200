//! The simulated three-node guarded system, in three layers.
//!
//! - [`host`]: one guarded process — MDCD engine, optional TB engine,
//!   application, stores — behind a sans-io `handle(event) -> actions`
//!   surface ([`ProcessHost`]).
//! - [`dispatch`](self): the discrete-event loop, reduced to routing fired
//!   events to hosts and applying the environment side of their actions.
//! - `recovery`: epoch-line selection, the host-level recovery steps (the
//!   local rollback, the takeover, the stable restore) and the one cut step
//!   (receive-log replay, then the global check) both procedures end in.
//!
//! A host is one process and nothing else. Whether its node is powered,
//! whether a takeover retired it, and which TB timer event is pending are
//! the simulator's bookkeeping, kept here beside the host
//! (`System::slots`); the cluster node and the explorer drive hosts that
//! carry none of it. Scheme differences (which MDCD configuration, which
//! TB variant, write-through or not) are answered by
//! [`Scheme`](crate::config::Scheme)'s own methods.
//!
//! Topology (paper §2.1): node 0 runs `P1act`, node 1 runs `P1sdw`, node 2
//! runs `P2`; one device endpoint models the external world. Hosts are
//! addressed by [`ProcessId`], actor or node and found by scanning the
//! three of them — no layer assumes which slot a process sits in, and none
//! hashes to find out.

mod dispatch;
pub mod host;
mod recovery;

use synergy_clocks::ClockFleet;
use synergy_des::{ActorId, DetRng, EventId, SimTime, Simulator, Trace};
use synergy_mdcd::ProcessRole;
use synergy_net::{DelayModel, DeviceId, Envelope, MsgSeqNo, ProcessId, SimNetwork};
use synergy_tb::TbConfig;

use crate::app::CounterApp;
use crate::checkers::Verdicts;
use crate::config::SystemConfig;
use crate::faults::NodeId;
use crate::metrics::RunMetrics;
use crate::workload::ArrivalStream;

use dispatch::Ev;
pub use host::{HostAction, HostEvent, ProcessHost, Topology};
pub(crate) use recovery::settle_cut;
pub use recovery::{epoch_line, StableRestore};

/// `P1act`'s process id.
pub const P1ACT: ProcessId = ProcessId(1);
/// `P1sdw`'s process id.
pub const P1SDW: ProcessId = ProcessId(2);
/// `P2`'s process id.
pub const P2: ProcessId = ProcessId(3);
/// The external device.
pub const DEVICE: DeviceId = DeviceId(0);

/// The paper's name for a process id in the canonical layout (`P1act`,
/// `P1sdw`, `P2`), or `"?"` for ids outside it.
pub fn process_name(pid: ProcessId) -> &'static str {
    Topology::canonical()
        .processes()
        .into_iter()
        .find(|&(p, ..)| p == pid)
        .map_or("?", |(_, role, _)| role.name())
}

/// The running simulation. For scripted scenarios use the fine-grained
/// accessors; for statistical runs prefer [`Mission`].
pub struct System {
    cfg: SystemConfig,
    sim: Simulator<Ev>,
    net: SimNetwork,
    clocks: ClockFleet,
    topology: Topology,
    hosts: Vec<ProcessHost>,
    /// What the simulator keeps beside each host, in host order.
    slots: Vec<Slot>,
    /// Where hosts write their actions; dispatch applies and empties it
    /// after every host call, so one buffer serves the whole mission.
    actions: Vec<HostAction>,
    device_actor: ActorId,
    system_actor: ActorId,
    device_log: Vec<(SimTime, Envelope)>,
    arrivals: Vec<(u8, bool, ArrivalStream)>,
    metrics: RunMetrics,
    verdicts: Verdicts,
    global_validated: MsgSeqNo,
    net_inc: u64,
    resync_pending: bool,
    finished: bool,
    /// When the unmasked-regime bad-message axis armed (for detection
    /// latency).
    regime_armed_at: Option<SimTime>,
    /// Whether the most recent resynchronization left the fleet outside the
    /// δ bound — any epoch line computed while this holds is stale.
    sync_violated: bool,
    /// Per-host incremental-checkpoint codecs, present when
    /// [`SystemConfig::checkpoint_delta_k`] is set. Accounting only: they
    /// measure what each stable commit would cost through the chain format,
    /// without touching the stores or the schedule.
    ckpt_codecs: Option<Vec<synergy_archive::CheckpointCodec>>,
}

/// The simulator's bookkeeping for one host: its actor, and the liveness
/// that crashes, recoveries and the takeover change.
struct Slot {
    actor: ActorId,
    liveness: Liveness,
    /// Bumped on recovery to void stale TB timer/blocking events.
    tb_epoch: u64,
    /// The pending TB timer event.
    timer_event: Option<EventId>,
    /// Bumped by the one local recovery and stamped on each send: a message
    /// stamped before it and numbered above `undone_above`, the recovered
    /// send counter, is undone.
    incarnation: u64,
    undone_above: MsgSeqNo,
}

/// Whether a host runs: the one record of it, read by every staleness
/// filter and both recovery procedures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Liveness {
    Up,
    /// Powered off, between a crash and the global rollback.
    Down,
    /// Out of service for good: the takeover retired it.
    Retired,
}

impl Slot {
    fn new(actor: ActorId) -> Self {
        Slot {
            actor,
            liveness: Liveness::Up,
            tb_epoch: 0,
            timer_event: None,
            incarnation: 0,
            undone_above: MsgSeqNo(0),
        }
    }
}

impl System {
    /// Builds a system from `cfg` (faults validated, workload scheduled).
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate().expect("invalid mission config");
        // Pending-event count is bounded by in-flight messages + per-host
        // timers + workload streams — tens, not thousands; 64 skips the
        // heap's early regrowth without committing real memory.
        let mut sim: Simulator<Ev> = Simulator::with_capacity(64);
        if !cfg.trace {
            sim.trace().disable();
        }
        let a_act = sim.register_actor("P1act");
        let a_sdw = sim.register_actor("P1sdw");
        let a_p2 = sim.register_actor("P2");
        let device_actor = sim.register_actor("device");
        let system_actor = sim.register_actor("system");

        let root = DetRng::new(cfg.seed);
        let net = SimNetwork::new(
            DelayModel::uniform(cfg.tmin, cfg.tmax),
            root.stream("network"),
        );
        let clocks = ClockFleet::generate(3, cfg.sync, &root);

        let topology = Topology::canonical();
        let tb_cfg = cfg
            .scheme
            .tb_variant()
            .map(|variant| TbConfig::new(variant, cfg.tb_interval, cfg.sync, cfg.tmin, cfg.tmax));
        // All three applications share one salt: the replicas must produce
        // identical streams, and the restart-from-scratch path reconstructs
        // the same initial state.
        let mut hosts: Vec<ProcessHost> = topology
            .processes()
            .into_iter()
            .map(|(pid, role, node)| {
                let app = CounterApp::new(cfg.seed ^ 0xA5A5);
                let mut host = ProcessHost::new(role, pid, node, topology, cfg.scheme, app, tb_cfg);
                host.set_tracing(cfg.trace);
                host
            })
            .collect();
        // The bad-message/AT-coverage axes live on the *original* active
        // host only: the upgraded low-confidence version is the one that can
        // emit bad payloads; the shadow that may replace it is clean.
        if let Some(bad) = cfg.faults.bad_messages {
            let coverage = cfg.faults.at_coverage.map_or(1.0, |c| c.coverage);
            hosts[0].set_regime(crate::regime::RegimeInjector::new(
                bad.rate,
                coverage,
                root.stream("regime"),
            ));
        }
        let mut sys = System {
            sim,
            net,
            clocks,
            topology,
            hosts,
            slots: vec![Slot::new(a_act), Slot::new(a_sdw), Slot::new(a_p2)],
            actions: Vec::new(),
            device_actor,
            system_actor,
            device_log: Vec::new(),
            arrivals: Vec::new(),
            metrics: RunMetrics::new(),
            verdicts: Verdicts::default(),
            global_validated: MsgSeqNo(0),
            net_inc: 0,
            resync_pending: false,
            finished: false,
            regime_armed_at: None,
            sync_violated: false,
            ckpt_codecs: cfg
                .checkpoint_delta_k
                .map(|k| vec![synergy_archive::CheckpointCodec::new(k); 3]),
            cfg,
        };
        sys.bootstrap(root);
        sys
    }

    fn bootstrap(&mut self, root: DetRng) {
        // Workload streams: component 1 drives both replicas, component 2
        // drives P2; internal and external arrivals are independent streams.
        for (component, external) in [(1u8, false), (1, true), (2, false), (2, true)] {
            let rate = if external {
                self.cfg.external_rate_hz
            } else {
                self.cfg.internal_rate_hz
            };
            if rate <= 0.0 {
                continue;
            }
            let label = format!("workload:c{component}:ext{external}");
            let mut stream = ArrivalStream::new(rate, root.stream(&label));
            let first = stream.next_interarrival();
            self.arrivals.push((component, external, stream));
            self.sim.schedule_in(
                first,
                self.system_actor,
                Ev::Tick {
                    component,
                    external,
                    scripted: false,
                },
            );
        }
        // TB timers.
        let now = self.sim.now();
        let mut actions = std::mem::take(&mut self.actions);
        for i in 0..self.hosts.len() {
            self.hosts[i].start_tb(now, &mut actions);
            self.apply_host_actions(i, &mut actions, now);
        }
        self.actions = actions;
        // Scripted sends (one-shot: no arrival stream exists for them, so
        // on_tick does not reschedule).
        for s in self.cfg.scripted_sends.clone() {
            self.sim.schedule_at(
                s.at,
                self.system_actor,
                Ev::Tick {
                    component: s.component,
                    external: s.external,
                    scripted: true,
                },
            );
        }
        // Faults.
        if let Some(sw) = self.cfg.faults.software {
            self.sim
                .schedule_at(sw.at, self.system_actor, Ev::SoftwareFaultActivate);
        }
        for hw in self.cfg.faults.hardware.clone() {
            self.sim.schedule_at(
                hw.at,
                self.system_actor,
                Ev::HardwareCrash { node: hw.node },
            );
        }
        // Unmasked-regime injections.
        if let Some(bad) = self.cfg.faults.bad_messages {
            self.sim
                .schedule_at(bad.after, self.system_actor, Ev::RegimeArm);
        }
        if let Some(byz) = self.cfg.faults.byzantine {
            self.sim.schedule_at(
                byz.at,
                self.system_actor,
                Ev::ByzantineCorrupt { node: byz.node },
            );
        }
        if let Some(rv) = self.cfg.faults.resync_violation {
            // Force a resynchronization attempt at the violation instant —
            // the demand-driven TB resync may never fire in a short mission,
            // and the regime models this *particular* resync going wrong.
            self.sim
                .schedule_at(rv.after, self.system_actor, Ev::Resync);
        }
        let end = SimTime::ZERO + self.cfg.duration;
        self.sim.schedule_at(end, self.system_actor, Ev::End);
    }

    // ------------------------------------------------------------------
    // Host lookup (a scan of three entries; unknown keys find nothing)
    // ------------------------------------------------------------------

    fn host_index(&self, actor: ActorId) -> Option<usize> {
        self.slots.iter().position(|s| s.actor == actor)
    }

    fn index_of_pid(&self, pid: ProcessId) -> Option<usize> {
        self.hosts.iter().position(|h| h.pid == pid)
    }

    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.hosts.iter().position(|h| h.node == node)
    }

    /// The hosts of `P1act`, `P1sdw` and `P2`, in that order.
    fn role_indices(&self) -> [usize; 3] {
        let t = self.topology;
        [t.active, t.shadow, t.peer]
            .map(|pid| self.index_of_pid(pid).expect("every role has a host"))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Checker verdicts collected so far.
    pub fn verdicts(&self) -> &Verdicts {
        &self.verdicts
    }

    /// The run trace.
    pub fn trace(&self) -> &Trace {
        self.sim.trace_ref()
    }

    /// External messages received by the device, in arrival order.
    pub fn device_log(&self) -> &[(SimTime, Envelope)] {
        &self.device_log
    }

    /// Payload bytes of every external message the device received, in
    /// arrival order (the stream the oracle diff operates on).
    pub fn device_stream(&self) -> Vec<Vec<u8>> {
        let envelopes = self.device_log.iter().map(|(_, env)| env.clone());
        envelopes.filter_map(external_payload).collect()
    }

    /// Whether the shadow has taken over.
    pub fn shadow_promoted(&self) -> bool {
        self.index_of_pid(self.topology.shadow)
            .is_some_and(|i| self.hosts[i].engine.role() == ProcessRole::Active)
    }

    /// Application state of host `i` (0 = act, 1 = sdw, 2 = P2).
    pub fn app_state(&self, i: usize) -> &crate::app::CounterState {
        self.hosts[i].app.state()
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Runs until the configured duration elapses:
    /// [`step_events`](Self::step_events) with no budget.
    pub fn run(&mut self) {
        self.step_events(usize::MAX);
    }

    /// Whether the mission has run to its configured end (or drained its
    /// event queue).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Advances the mission by at most `budget` discrete events and
    /// returns how many actually fired.
    ///
    /// A caller that interleaves missions grants each a bounded quantum
    /// of virtual-time progress, so one mission's recovery (rollback,
    /// replay, retransmissions — all just events) never holds its thread
    /// for longer than one quantum. A return value below `budget` means
    /// the mission [`finished`](Self::finished): `Ev::End` is always
    /// queued, so a mission ends there or when its queue drains.
    pub fn step_events(&mut self, budget: usize) -> usize {
        let mut fired_count = 0;
        while fired_count < budget && !self.finished {
            let Some(fired) = self.sim.step() else {
                self.finished = true;
                break;
            };
            self.dispatch(fired.actor, fired.time, fired.event);
            fired_count += 1;
        }
        fired_count
    }
}

/// A configured end-to-end run.
pub struct Mission {
    system: System,
}

/// Everything a finished mission reports.
#[derive(Debug)]
pub struct MissionOutcome {
    /// Aggregated counters and rollback observations.
    pub metrics: RunMetrics,
    /// Global-state checker verdicts.
    pub verdicts: Verdicts,
    /// External messages that reached the device.
    pub device_messages: usize,
    /// Payload bytes of those messages, in arrival order — the stream the
    /// unmasked-regime oracle diff counts and localizes escapes against.
    pub device_stream: Vec<Vec<u8>>,
    /// Whether the shadow took over during the mission.
    pub shadow_promoted: bool,
    /// The recorded trace (empty if tracing was disabled).
    pub trace: Trace,
}

/// The external payload an envelope carries, if it carries one.
fn external_payload(env: Envelope) -> Option<Vec<u8>> {
    match env.body {
        synergy_net::MessageBody::External { payload } => Some(payload),
        _ => None,
    }
}

impl Mission {
    /// Prepares a mission.
    pub fn new(config: SystemConfig) -> Self {
        Mission {
            system: System::new(config),
        }
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> MissionOutcome {
        self.system.run();
        let shadow_promoted = self.system.shadow_promoted();
        let System {
            metrics,
            verdicts,
            device_log,
            sim,
            ..
        } = self.system;
        MissionOutcome {
            metrics,
            verdicts,
            device_messages: device_log.len(),
            device_stream: device_log
                .into_iter()
                .filter_map(|(_, env)| external_payload(env))
                .collect(),
            shadow_promoted,
            trace: sim.into_trace(),
        }
    }
}

#[cfg(test)]
mod tests;
