//! The cluster orchestrator: spawns the three `synergy-node` processes,
//! drives the mission grid (produces + commanded checkpoint rounds), kills
//! and restarts victims per the crash schedule, and coordinates the
//! paper's global rollback across real OS processes.
//!
//! The mission is laid out on the same grid a simulator run uses: external
//! produces fire at `t = 1, 2, …, steps` (grid seconds) and checkpoint
//! round `g` runs at `t = g·Δ`. The orchestrator replays that timeline in
//! *logical* order — every command is a lockstep control round-trip — so a
//! cluster run is comparable event-for-event with a [`synergy`] simulation
//! of the same seed and fault plan ([`ClusterConfig::reference`]).
//!
//! # Hardening
//!
//! Every external interaction is bounded so a faulted cluster ends in a
//! structured [`ClusterError`], never a hang:
//!
//! * `Hello` accept loops poll the spawned child with `try_wait`, so a
//!   node that dies before announcing itself is reported as
//!   [`ClusterError::NodeDied`] immediately instead of after the timeout.
//! * Control streams carry both read and write timeouts (20 s); a
//!   command that fails mid-roundtrip is attributed to the node,
//!   distinguishing a dead process ([`ClusterError::NodeDied`]) from a
//!   wedged one ([`ClusterError::Ctrl`]).
//! * Victim restarts retry with linear backoff up to three spawn attempts
//!   before giving up (the shared [`synergy_net::retry::Backoff`]
//!   schedule).
//! * Every status sweep checks [`WireStatus::backpressure`]: a frame
//!   dropped on a live route is unrecoverable (per-link FIFO is broken),
//!   so the mission fails fast as [`ClusterError::Backpressure`] instead
//!   of timing out in quiesce.
//! * [`Cluster::quiesce`] is the heartbeat: repeated full-cluster status
//!   sweeps until two consecutive snapshots are identical with no unacked
//!   messages and an empty chaos queue — or the quiesce deadline passes
//!   and the mission aborts with the last snapshot in the error.

use std::fmt;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use synergy::config::ScriptedSend;
use synergy::system::epoch_line;
use synergy::{CrashEvent, CrashKind, NodeId, Scheme, SystemConfig};
use synergy_archive::{ChainRecord, RecordKind};
use synergy_des::{SimDuration, SimTime};
use synergy_net::retry::Backoff;
use synergy_net::{DeviceId, Endpoint, LinkFaultPlan, MessageBody, ProcessId, ReactorTransport};
use synergy_storage::{Checkpoint, DiskFaultPlan, DiskStableStore};

use crate::ctrl::{recv_ctrl, send_ctrl, CtrlMsg, CtrlReply, WireStatus};
use crate::node::plan_to_hex;

/// The checkpoint grid spacing Δ of every live mission, in grid seconds:
/// round `g` runs at `t = g·Δ`, and over the at most nine produces a chaos
/// campaign draws every grid point sits at least 0.2 s from a produce.
pub const DELTA_SECS: f64 = 1.7;

/// How long a spawned node has to connect and send its `Hello`.
const HELLO_TIMEOUT: Duration = Duration::from_secs(20);

/// Read/write timeout on every control round-trip.
const CTRL_TIMEOUT: Duration = Duration::from_secs(20);

/// Pause between quiesce probes, and the final device-drain window.
const SETTLE: Duration = Duration::from_millis(50);

/// A structured, attributable mission failure. Every variant names what
/// gave up and why, so a non-converging campaign reports instead of hangs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// Spawning or greeting a node failed.
    Launch {
        /// What failed.
        detail: String,
    },
    /// A control round-trip failed while the node process was still alive.
    Ctrl {
        /// The unresponsive node.
        pid: u32,
        /// What failed.
        detail: String,
    },
    /// A node process died outside the crash schedule (or before `Hello`).
    NodeDied {
        /// The dead node.
        pid: u32,
        /// Exit status and context.
        detail: String,
    },
    /// The cluster failed to settle within the quiesce deadline.
    Quiesce {
        /// The last status snapshot observed.
        detail: String,
    },
    /// An expected device message never arrived.
    Device {
        /// What was expected.
        detail: String,
    },
    /// A node answered with the wrong reply type.
    Protocol {
        /// What was received.
        detail: String,
    },
    /// A node's live wire dropped frames because a route stayed
    /// backpressured past its retry budget. Per-link FIFO is broken from
    /// that point, so the mission fails fast instead of diverging.
    Backpressure {
        /// The node whose wire dropped frames.
        pid: u32,
        /// Frames lost on live routes.
        dropped: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Launch { detail } => write!(f, "launch failed: {detail}"),
            ClusterError::Ctrl { pid, detail } => write!(f, "pid {pid} control failure: {detail}"),
            ClusterError::NodeDied { pid, detail } => write!(f, "pid {pid} died: {detail}"),
            ClusterError::Quiesce { detail } => write!(f, "quiesce failed: {detail}"),
            ClusterError::Device { detail } => write!(f, "device stream failure: {detail}"),
            ClusterError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            ClusterError::Backpressure { pid, dropped } => write!(
                f,
                "pid {pid} dropped {dropped} frame(s) to backpressure on a live route"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The layer a masked bit-rot injection targets in a victim's oldest
/// committed record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rot {
    /// Flip a bit in the record file itself: the disk frame's CRC refuses
    /// it on reload.
    Frame,
    /// Corrupt the chain record *behind* a valid disk frame (an image byte
    /// or a delta's image CRC, re-framed cleanly): only the chain-link
    /// verification one layer up refuses it.
    Chain,
}

/// One live mission: its shape and every fault it carries. Where the
/// mission runs — the node binary and the data directory — is
/// [`Cluster::launch`]'s to say.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Mission seed, shared by every node (and the reference simulation).
    pub seed: u64,
    /// External produces fire at grid seconds `1..=steps`.
    pub steps: u32,
    /// The scheduled hardware fault, if any.
    pub crash: Option<CrashEvent>,
    /// Precede every external produce with an *internal* produce (a
    /// component-1 → P2 application message), generating the acked
    /// process-to-process traffic the TB recoverability rule — and the
    /// chaos wire's ack-duplication — act on.
    pub internal_traffic: bool,
    /// Link-fault plan shipped to every node's data plane.
    pub link_plan: LinkFaultPlan,
    /// Per-node stable-storage fault plans, indexed by node; missing
    /// entries are inert.
    pub disk_plans: Vec<DiskFaultPlan>,
    /// Rot the crash victim's *oldest* committed record before its
    /// restart, at the layer [`Rot`] names. Only when the victim holds ≥ 2
    /// records and a later full image, so the newest record — the
    /// rollback's restore target — still replays and the device stream is
    /// unchanged.
    pub rot: Option<Rot>,
    /// Checkpoint-chain cadence shipped to every node (`--delta-k`, at
    /// least 1): full image every `delta_k` stable commits, CRC-chained
    /// deltas between. The default 1 makes every record a full image.
    pub delta_k: u32,
    /// Byzantine-lite value corruption (unmasked regime, axis 4): node
    /// `corrupt` is told it lies in the crash's global rollback, and
    /// restores the record at the epoch line with its value bytes flipped
    /// behind a valid CRC, while the records on its disk stay honest — the
    /// simulator's read-time flip. Unlike `rot`, this is *designed* to
    /// change the device stream (corrupting node 0 poisons the active's
    /// state, whose payloads reach the device), and the campaign's diff
    /// against the simulator reference documents the escape.
    pub corrupt: Option<NodeId>,
}

impl ClusterConfig {
    /// A fault-free mission with inert chaos plans; callers add the crash
    /// and fault plans as needed.
    pub fn new(seed: u64, steps: u32) -> Self {
        ClusterConfig {
            seed,
            steps,
            crash: None,
            internal_traffic: false,
            link_plan: LinkFaultPlan::inert(seed),
            disk_plans: Vec::new(),
            rot: None,
            delta_k: 1,
            corrupt: None,
        }
    }

    /// The simulator reference of this mission: a [`synergy`] mission of
    /// the same seed, produces, checkpoint grid and crash schedule, whose
    /// device stream the cluster run must reproduce byte for byte.
    ///
    /// Faults injected below the protocol layer — link drops masked by
    /// retransmission, transient fsync failures masked by bounded retry,
    /// bit-rot below the rollback line masked by the CRC-skip reload — are
    /// invisible to the device by design, so the reference needs only the
    /// crash schedule.
    ///
    /// The timeline is [`Cluster::run`]'s: the rounds `grid_rounds(s)`
    /// run before produce `s`. A round's timer fires when its node's clock
    /// reads `g·Δ`, up to the clocks' furthest lead early, so a produce
    /// due at or just before the next round's grid point is scripted that
    /// lead plus one network delay ahead of it. A crash's recovery lands
    /// halfway between its round and the next produce or round, so the
    /// survivors have committed the round and nothing else has happened:
    /// the cluster's lockstep rollback.
    pub fn reference(&self) -> SystemConfig {
        let mut cfg = SystemConfig::builder()
            .scheme(Scheme::Coordinated)
            .seed(self.seed)
            .duration_secs(f64::from(self.steps) + 1.0)
            .tb_interval_secs(DELTA_SECS)
            .no_workload()
            .trace(false)
            .build();
        let lead = (cfg.sync.deviation_bound(cfg.duration) + cfg.tmax).as_secs_f64();
        let produce_at = |s: u32| f64::from(s).min((grid_rounds(s) + 1) as f64 * DELTA_SECS - lead);
        for s in 1..=self.steps {
            let at = SimTime::from_secs_f64(produce_at(s));
            let send = |external| ScriptedSend {
                at,
                component: 1,
                external,
            };
            // Internal before external at the same instant, the cluster's
            // command order; the DES queue fires ties FIFO.
            if self.internal_traffic {
                cfg.scripted_sends.push(send(false));
            }
            cfg.scripted_sends.push(send(true));
        }
        if let Some(c) = self.crash {
            let round = c.epoch as f64 * DELTA_SECS;
            let next_produce = (1..=self.steps)
                .find(|&s| grid_rounds(s) >= c.epoch)
                .map_or(f64::INFINITY, produce_at);
            let gap = next_produce.min(round + DELTA_SECS) - round;
            cfg.restart_delay = SimDuration::from_secs_f64(gap / 2.0);
        }
        cfg.faults.rounds = self.crash.into_iter().collect();
        cfg
    }
}

/// What one scheduled crash produced.
#[derive(Clone, Debug)]
pub struct KillReport {
    /// The checkpoint round during which the victim died.
    pub epoch: u64,
    /// Placement of the kill.
    pub kind: CrashKind,
    /// Whether the victim confirmed a staged (in-flight) stable write
    /// before the kill — the write the kill tears ([`CrashKind::MidRound`]
    /// and [`CrashKind::DoubleKill`] only).
    pub victim_began_writing: bool,
    /// Newest committed epoch the restarted victim recovered from disk.
    pub reload_epoch: Option<u64>,
    /// Torn writes the restarted victim detected while reloading.
    pub reload_torn_writes: u64,
    /// Committed records the restarted victim rejected by CRC (bit-rot).
    pub reload_corrupt_records: u64,
    /// The epoch line the orchestrator computed for the global rollback.
    pub line: u64,
    /// Rollback distance in grid epochs: the torn round minus the line.
    pub rollback_epochs: u64,
    /// Per-node rollback outcomes: `(pid, restored_epoch, resent)`.
    pub rollbacks: Vec<(u32, Option<u64>, u64)>,
}

/// Everything a finished cluster mission reports.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Device-bound external payloads, in arrival order.
    pub device_payloads: Vec<Vec<u8>>,
    /// The kill/restart observation of the scheduled crash, if one ran.
    pub kill: Option<KillReport>,
    /// Final per-node statuses `(pid, status)` — including the chaos
    /// counters each node's fault wrappers accumulated.
    pub final_status: Vec<(u32, WireStatus)>,
}

struct NodeHandle {
    pid: u32,
    index: usize,
    child: Child,
    ctrl: TcpStream,
    data_addr: String,
    /// Committed epoch as tracked through control replies (`Committed`,
    /// `Hello` on restart, `RolledBack`).
    epoch: Option<u64>,
}

impl NodeHandle {
    /// One bounded control round-trip, with the failure attributed: a dead
    /// process is [`ClusterError::NodeDied`], a live-but-unresponsive one
    /// is [`ClusterError::Ctrl`].
    fn roundtrip(&mut self, msg: &CtrlMsg) -> Result<CtrlReply, ClusterError> {
        let attempt = send_ctrl(&mut self.ctrl, msg).and_then(|()| recv_ctrl(&mut self.ctrl));
        attempt.map_err(|e| match self.child.try_wait() {
            Ok(Some(status)) => ClusterError::NodeDied {
                pid: self.pid,
                detail: format!("{msg:?} failed ({e}); process exited with {status}"),
            },
            _ => ClusterError::Ctrl {
                pid: self.pid,
                detail: format!("{msg:?} got no reply within {CTRL_TIMEOUT:?}: {e}"),
            },
        })
    }
}

/// What a node announces on (re)connect.
struct HelloInfo {
    ctrl: TcpStream,
    data_port: u16,
    epoch: Option<u64>,
    torn_writes: u64,
    corrupt_records: u64,
}

/// Accepts one node's control connection and reads its `Hello`, polling
/// the spawned child so an early death is reported immediately.
fn accept_hello(
    listener: &TcpListener,
    child: &mut Child,
    expected_pid: u32,
) -> Result<HelloInfo, ClusterError> {
    let sock = |e: io::Error| ClusterError::Launch {
        detail: format!("control listener: {e}"),
    };
    let deadline = Instant::now() + HELLO_TIMEOUT;
    listener.set_nonblocking(true).map_err(sock)?;
    let mut stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(ClusterError::NodeDied {
                        pid: expected_pid,
                        detail: format!("exited with {status} before sending Hello"),
                    });
                }
                if Instant::now() >= deadline {
                    return Err(ClusterError::Launch {
                        detail: format!(
                            "pid {expected_pid} sent no Hello within {HELLO_TIMEOUT:?}"
                        ),
                    });
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(sock(e)),
        }
    };
    listener.set_nonblocking(false).map_err(sock)?;
    stream.set_nodelay(true).map_err(sock)?;
    stream.set_read_timeout(Some(CTRL_TIMEOUT)).map_err(sock)?;
    stream.set_write_timeout(Some(CTRL_TIMEOUT)).map_err(sock)?;
    match recv_ctrl::<CtrlReply>(&mut stream) {
        Ok(CtrlReply::Hello {
            pid,
            data_port,
            epoch,
            torn_writes,
            corrupt_records,
        }) => {
            if pid != expected_pid {
                return Err(ClusterError::Protocol {
                    detail: format!("expected Hello from pid {expected_pid}, got pid {pid}"),
                });
            }
            Ok(HelloInfo {
                ctrl: stream,
                data_port,
                epoch,
                torn_writes,
                corrupt_records,
            })
        }
        Ok(other) => Err(ClusterError::Protocol {
            detail: format!("expected Hello, got {other:?}"),
        }),
        Err(e) => match child.try_wait() {
            Ok(Some(status)) => Err(ClusterError::NodeDied {
                pid: expected_pid,
                detail: format!("connected but exited with {status} before Hello: {e}"),
            }),
            _ => Err(ClusterError::Launch {
                detail: format!("pid {expected_pid} Hello read failed: {e}"),
            }),
        },
    }
}

/// A running three-process cluster mission.
pub struct Cluster {
    cfg: ClusterConfig,
    node_bin: PathBuf,
    data_root: PathBuf,
    ctrl_listener: TcpListener,
    ctrl_addr: String,
    device_net: ReactorTransport,
    device_rx: std::sync::mpsc::Receiver<synergy_net::Envelope>,
    device_addr: String,
    nodes: Vec<NodeHandle>,
}

/// Commanded checkpoint rounds a mission of `steps` produces executes:
/// grid rounds `g ≥ 1` with `g·Δ < steps`. [`Cluster::run`] runs the rounds
/// due before produce `s` as `grid_rounds(s)`.
pub fn grid_rounds(steps: u32) -> u64 {
    let mut g = 0u64;
    while DELTA_SECS * ((g + 1) as f64) < f64::from(steps) {
        g += 1;
    }
    g
}

impl Cluster {
    /// Spawns `node_bin` as the three node processes, each keeping its
    /// stable storage under `data_root/node-<index>`, and wires the full
    /// route table.
    ///
    /// # Errors
    ///
    /// A crash scheduled outside the mission's checkpoint rounds
    /// (`1..=grid_rounds(steps)`), before any process is spawned; then
    /// process-spawn, socket, or control-protocol failures — all bounded
    /// by the control timeouts.
    pub fn launch(
        cfg: ClusterConfig,
        node_bin: &Path,
        data_root: &Path,
    ) -> Result<Self, ClusterError> {
        // A crash no round reaches would never fire, and the run would
        // report a fault-free mission as verified.
        let rounds = grid_rounds(cfg.steps);
        if let Some(crash) = cfg.crash.filter(|c| !(1..=rounds).contains(&c.epoch)) {
            return Err(ClusterError::Launch {
                detail: format!(
                    "crash epoch {} outside checkpoint rounds 1..={rounds} of a {}-step mission",
                    crash.epoch, cfg.steps
                ),
            });
        }
        let sock = |e: io::Error| ClusterError::Launch {
            detail: format!("orchestrator sockets: {e}"),
        };
        let ctrl_listener = TcpListener::bind("127.0.0.1:0").map_err(sock)?;
        let ctrl_addr = ctrl_listener.local_addr().map_err(sock)?.to_string();
        let device_net = ReactorTransport::bind("127.0.0.1:0").map_err(sock)?;
        let device_rx = device_net.register(Endpoint::Device(DeviceId(0)));
        let device_addr = device_net.local_addr().to_string();

        let mut cluster = Cluster {
            cfg,
            node_bin: node_bin.to_path_buf(),
            data_root: data_root.to_path_buf(),
            ctrl_listener,
            ctrl_addr,
            device_net,
            device_rx,
            device_addr,
            nodes: Vec::new(),
        };
        for node in NodeId::ALL {
            let pid = node.pid().0;
            let mut child = cluster.spawn_child(node)?;
            let hello = match accept_hello(&cluster.ctrl_listener, &mut child, pid) {
                Ok(h) => h,
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(e);
                }
            };
            if hello.epoch.is_some() || hello.torn_writes != 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(ClusterError::Protocol {
                    detail: format!("fresh node {node} reports prior state"),
                });
            }
            cluster.nodes.push(NodeHandle {
                pid,
                index: node.index(),
                child,
                ctrl: hello.ctrl,
                data_addr: format!("127.0.0.1:{}", hello.data_port),
                epoch: None,
            });
        }
        cluster.distribute_routes()?;
        Ok(cluster)
    }

    fn spawn_child(&self, node: NodeId) -> Result<Child, ClusterError> {
        let data_dir = self.data_root.join(format!("node-{}", node.index()));
        std::fs::create_dir_all(&data_dir).map_err(|e| ClusterError::Launch {
            detail: format!("create {}: {e}", data_dir.display()),
        })?;
        let mut cmd = Command::new(&self.node_bin);
        cmd.arg("--pid")
            .arg(node.pid().0.to_string())
            .arg("--seed")
            .arg(self.cfg.seed.to_string())
            .arg("--data-dir")
            .arg(&data_dir)
            .arg("--ctrl")
            .arg(&self.ctrl_addr);
        if !self.cfg.link_plan.is_inert() {
            cmd.arg("--chaos-link")
                .arg(plan_to_hex(&self.cfg.link_plan));
        }
        if let Some(plan) = self.cfg.disk_plans.get(node.index()) {
            if !plan.is_inert() {
                cmd.arg("--chaos-disk").arg(plan_to_hex(plan));
            }
        }
        cmd.arg("--delta-k").arg(self.cfg.delta_k.to_string());
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| ClusterError::Launch {
                detail: format!("spawn {} for {node}: {e}", self.node_bin.display()),
            })
    }

    /// Sends every node the full route table (peers + device).
    fn distribute_routes(&mut self) -> Result<(), ClusterError> {
        let routes: Vec<(Endpoint, String)> = self
            .nodes
            .iter()
            .map(|n| (Endpoint::Process(ProcessId(n.pid)), n.data_addr.clone()))
            .chain(std::iter::once((
                Endpoint::Device(DeviceId(0)),
                self.device_addr.clone(),
            )))
            .collect();
        for i in 0..self.nodes.len() {
            for (endpoint, addr) in &routes {
                let reply = self.nodes[i].roundtrip(&CtrlMsg::SetRoute {
                    endpoint: *endpoint,
                    addr: addr.clone(),
                })?;
                expect_done(reply)?;
            }
        }
        Ok(())
    }

    /// Verifies every node process is still running (dead-node detection
    /// between control interactions).
    pub fn ensure_alive(&mut self) -> Result<(), ClusterError> {
        for node in &mut self.nodes {
            if let Ok(Some(status)) = node.child.try_wait() {
                return Err(ClusterError::NodeDied {
                    pid: node.pid,
                    detail: format!("exited with {status} outside the crash schedule"),
                });
            }
        }
        Ok(())
    }

    /// One full-cluster status sweep. Fails fast with
    /// [`ClusterError::Backpressure`] if any node's wire dropped a frame on
    /// a live route — the loss is permanent, so no later sweep can succeed.
    pub fn status_all(&mut self) -> Result<Vec<(u32, WireStatus)>, ClusterError> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            let reply = node.roundtrip(&CtrlMsg::Status)?;
            out.push((node.pid, checked_status(node.pid, reply)?));
        }
        Ok(out)
    }

    /// Status round-trip on every node: a cluster-wide command barrier.
    fn barrier(&mut self) -> Result<(), ClusterError> {
        self.status_all().map(|_| ())
    }

    /// Waits until the cluster is settled: two consecutive identical
    /// status snapshots with every `unacked` and chaos `net_queued`
    /// counter at zero. With link faults active this is the barrier that
    /// lets injected delays, retransmissions, and partition heals drain
    /// before a checkpoint round or a kill.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Quiesce`] (carrying the last snapshot) if the
    /// deadline passes; control errors from the status sweeps.
    pub fn quiesce(&mut self) -> Result<Vec<(u32, WireStatus)>, ClusterError> {
        /// How long the cluster may take to settle.
        const QUIESCE: Duration = Duration::from_secs(30);
        let deadline = Instant::now() + QUIESCE;
        let mut prev: Option<Vec<(u32, WireStatus)>> = None;
        loop {
            let snap = self.status_all()?;
            let drained = snap
                .iter()
                .all(|(_, s)| s.unacked == 0 && s.net_queued == 0);
            if drained && prev.as_ref() == Some(&snap) {
                return Ok(snap);
            }
            if Instant::now() >= deadline {
                return Err(ClusterError::Quiesce {
                    detail: format!("not settled within {QUIESCE:?}; last snapshot: {snap:?}"),
                });
            }
            prev = Some(snap);
            std::thread::sleep(SETTLE);
        }
    }

    /// SIGKILLs one node process (and reaps it). Public for fault-campaign
    /// regression tests that need an out-of-schedule death.
    ///
    /// # Errors
    ///
    /// Kill/wait failures on the child process.
    pub fn kill_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        let handle = &mut self.nodes[node.index()];
        handle
            .child
            .kill()
            .and_then(|()| handle.child.wait().map(|_| ()))
            .map_err(|e| ClusterError::Launch {
                detail: format!("kill pid {}: {e}", handle.pid),
            })
    }

    /// One commanded checkpoint round on every node.
    fn checkpoint_round(&mut self) -> Result<(), ClusterError> {
        self.begin_round(None, None)?;
        self.commit_round(None)
    }

    /// Sends `BeginCkpt` to every node but `skip`. Each must stage a
    /// write, except `record`, whose answer is returned instead (`false`
    /// when no node is named).
    fn begin_round(
        &mut self,
        skip: Option<usize>,
        record: Option<usize>,
    ) -> Result<bool, ClusterError> {
        let mut recorded = false;
        for node in self.nodes.iter_mut().filter(|n| Some(n.index) != skip) {
            let reply = node.roundtrip(&CtrlMsg::BeginCkpt)?;
            let writing = matches!(reply, CtrlReply::Began { writing: true });
            if Some(node.index) == record {
                recorded = writing;
            } else if !writing {
                return Err(ClusterError::Protocol {
                    detail: format!("pid {}: round did not stage a write: {reply:?}", node.pid),
                });
            }
        }
        Ok(recorded)
    }

    /// Sends `CommitCkpt` to every node but `skip`, tracking each one's
    /// committed epoch.
    fn commit_round(&mut self, skip: Option<usize>) -> Result<(), ClusterError> {
        for node in self.nodes.iter_mut().filter(|n| Some(n.index) != skip) {
            match node.roundtrip(&CtrlMsg::CommitCkpt)? {
                CtrlReply::Committed { epoch } => node.epoch = epoch,
                other => {
                    return Err(ClusterError::Protocol {
                        detail: format!("pid {}: bad commit reply {other:?}", node.pid),
                    })
                }
            }
        }
        Ok(())
    }

    /// Rots the victim's **oldest** committed record at the `rot` layer,
    /// when it holds at least two records and a full image after the
    /// oldest: the newest record — the rollback line's restore target —
    /// still replays, so the reload masks the rot and the device stream is
    /// unchanged. Otherwise it injects nothing.
    fn inject_rot(&self, victim: usize, rot: Rot) -> Result<(), ClusterError> {
        let dir = self.data_root.join(format!("node-{victim}"));
        let fail = |e: &dyn fmt::Display| ClusterError::Launch {
            detail: format!("{rot:?} rot injection in {}: {e}", dir.display()),
        };
        let mut records: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| fail(&e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(DiskStableStore::parse_record_file_name)
                    .is_some()
            })
            .collect();
        records.sort();
        let mut decoded = Vec::with_capacity(records.len());
        for path in &records {
            let Some(ckpt) = DiskStableStore::read_record_file(path) else {
                return Ok(());
            };
            let Ok(record) = ckpt.decode::<ChainRecord>() else {
                return Ok(());
            };
            decoded.push((ckpt, record));
        }
        if decoded.len() < 2
            || !decoded[1..]
                .iter()
                .any(|(_, r)| r.kind() == RecordKind::Full)
        {
            return Ok(());
        }
        let (target, (ckpt, record)) = (&records[0], &decoded[0]);
        match rot {
            Rot::Frame => {
                let mut bytes = std::fs::read(target).map_err(|e| fail(&e))?;
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                std::fs::write(target, bytes).map_err(|e| fail(&e))?;
            }
            Rot::Chain => {
                let corrupted = match record.clone() {
                    ChainRecord::Full { chain_crc, image } => {
                        let mut bytes = image.to_vec();
                        if bytes.is_empty() {
                            return Ok(());
                        }
                        let mid = bytes.len() / 2;
                        bytes[mid] ^= 0x01;
                        ChainRecord::Full {
                            chain_crc,
                            image: bytes.into(),
                        }
                    }
                    ChainRecord::Delta {
                        base_seq,
                        chain_crc,
                        mut patch,
                    } => {
                        // Rot the reconstructed-image CRC: the frame stays
                        // valid, the chain link no longer verifies.
                        patch.image_crc ^= 0x1;
                        ChainRecord::Delta {
                            base_seq,
                            chain_crc,
                            patch,
                        }
                    }
                };
                let rewritten =
                    Checkpoint::encode(ckpt.seq(), ckpt.taken_at(), ckpt.label(), &corrupted)
                        .map_err(|e| fail(&e))?;
                DiskStableStore::write_record_file(target, &rewritten).map_err(|e| fail(&e))?;
            }
        }
        Ok(())
    }

    /// Restarts one node from its data directory with bounded
    /// retry-with-backoff, returning its fresh handle state.
    fn restart_node(&mut self, node: NodeId) -> Result<(Child, HelloInfo), ClusterError> {
        let expected_pid = node.pid().0;
        // Three spawn attempts, `attempt × 200 ms` apart.
        let mut backoff = Backoff::linear(Duration::from_millis(200), Some(3));
        loop {
            let attempt = (|| {
                let mut child = self.spawn_child(node)?;
                match accept_hello(&self.ctrl_listener, &mut child, expected_pid) {
                    Ok(hello) => Ok((child, hello)),
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        Err(e)
                    }
                }
            })();
            match attempt {
                Ok(restarted) => return Ok(restarted),
                Err(e) => match backoff.next_delay() {
                    Some(delay) => std::thread::sleep(delay),
                    None => return Err(e),
                },
            }
        }
    }

    /// Installs a restarted victim's fresh handle.
    fn adopt_restart(&mut self, index: usize, child: Child, hello: HelloInfo) {
        let node = &mut self.nodes[index];
        node.child = child;
        node.ctrl = hello.ctrl;
        node.data_addr = format!("127.0.0.1:{}", hello.data_port);
        node.epoch = hello.epoch;
    }

    /// The crash round: kill the victim at the placement selected by the
    /// crash kind, restart it from disk (bounded retries), and run the
    /// paper's global rollback to the epoch line.
    fn crash_round(&mut self, ev: &CrashEvent) -> Result<KillReport, ClusterError> {
        let victim = ev.victim.index();
        let victim_began_writing = match ev.kind {
            CrashKind::RoundStart => {
                // The victim dies idle, before the round touches it; the
                // survivors still run the full round and commit.
                self.kill_node(ev.victim)?;
                self.begin_round(Some(victim), None)?
            }
            CrashKind::MidRound | CrashKind::DoubleKill => {
                let began = self.begin_round(None, Some(victim))?;
                // The hardware fault: SIGKILL mid-round. The victim's
                // in-flight stable write is now a genuinely torn temp file.
                self.kill_node(ev.victim)?;
                began
            }
        };
        self.commit_round(Some(victim))?;

        // Rot injected while the victim is down, so its restart exercises
        // the reload's fallback.
        if let Some(rot) = self.cfg.rot {
            self.inject_rot(victim, rot)?;
        }

        // Restart the victim from its data directory; its Hello reports
        // what it recovered (CRC-verified checkpoints, the torn write, any
        // corrupt record it skipped).
        let (child, hello) = self.restart_node(ev.victim)?;
        let reload_epoch = hello.epoch;
        let reload_torn = hello.torn_writes;
        let reload_corrupt = hello.corrupt_records;
        self.adopt_restart(victim, child, hello);

        if ev.kind == CrashKind::DoubleKill {
            // Crash during recovery: the freshly restarted victim dies
            // again before the rollback reaches it. The second reload sees
            // no new torn write (the first reload consumed the temp file).
            self.kill_node(ev.victim)?;
            let (child, hello) = self.restart_node(ev.victim)?;
            self.adopt_restart(victim, child, hello);
        }
        self.distribute_routes()?;

        // The epoch line over all (now live) processes, the simulator's rule.
        let line = epoch_line(self.nodes.iter().map(|n| n.epoch)).unwrap_or(0);
        let mut rollbacks = Vec::new();
        for node in &mut self.nodes {
            let rollback = CtrlMsg::Rollback {
                epoch: line,
                byzantine: self.cfg.corrupt.is_some_and(|c| c.index() == node.index),
            };
            match node.roundtrip(&rollback)? {
                CtrlReply::RolledBack {
                    restored_epoch,
                    resent,
                } => {
                    node.epoch = restored_epoch;
                    rollbacks.push((node.pid, restored_epoch, resent));
                }
                other => {
                    return Err(ClusterError::Protocol {
                        detail: format!("bad rollback reply {other:?}"),
                    })
                }
            }
        }
        Ok(KillReport {
            epoch: ev.epoch,
            kind: ev.kind,
            victim_began_writing,
            reload_epoch,
            reload_torn_writes: reload_torn,
            reload_corrupt_records: reload_corrupt,
            line,
            rollback_epochs: ev.epoch.saturating_sub(line),
            rollbacks,
        })
    }

    /// Runs the mission to completion and reports.
    ///
    /// # Errors
    ///
    /// Any [`ClusterError`]: control failures, out-of-schedule deaths,
    /// quiesce or device timeouts — always within a bounded wait, never a
    /// hang.
    pub fn run(mut self) -> Result<ClusterReport, ClusterError> {
        /// How long an external produce waits for its device message.
        const DEVICE_WAIT: Duration = Duration::from_secs(20);
        // Internal traffic puts acked P1 → P2 messages in flight, so it
        // needs the same settle discipline as chaos: quiesce (unacked == 0)
        // rather than a bare barrier, or grid rounds could checkpoint state
        // the simulator never sees.
        let chaos_active = !self.cfg.link_plan.is_inert()
            || self.cfg.disk_plans.iter().any(|p| !p.is_inert())
            || self.cfg.internal_traffic;
        let mut device_payloads = Vec::new();
        let mut kill = None;
        let mut next_grid: u64 = 1;
        for s in 1..=self.cfg.steps {
            // Checkpoint rounds whose grid time falls before this produce.
            while next_grid <= grid_rounds(s) {
                self.ensure_alive()?;
                // Settle the cluster at the grid point: with chaos active,
                // wait out in-flight injected delays/retransmits so every
                // node checkpoints the same logical state the simulator
                // checkpoints.
                if chaos_active {
                    self.quiesce()?;
                } else {
                    self.barrier()?;
                }
                match self.cfg.crash.filter(|c| c.epoch == next_grid) {
                    Some(ev) => kill = Some(self.crash_round(&ev)?),
                    None => self.checkpoint_round()?,
                }
                next_grid += 1;
            }
            // The scripted produces on component 1: active and shadow stay
            // aligned. The optional internal produce (a P1 → P2 message
            // that will be acked) precedes the external one at the same
            // logical instant — the reference simulation scripts both at
            // one instant in the same order, and the DES queue breaks the
            // tie FIFO.
            if self.cfg.internal_traffic {
                for i in [NodeId::P1Act.index(), NodeId::P1Sdw.index()] {
                    let reply = self.nodes[i].roundtrip(&CtrlMsg::Produce { external: false })?;
                    expect_done(reply)?;
                }
            }
            // The external produce: the active's output reaches the device.
            for i in [NodeId::P1Act.index(), NodeId::P1Sdw.index()] {
                let reply = self.nodes[i].roundtrip(&CtrlMsg::Produce { external: true })?;
                expect_done(reply)?;
            }
            let env =
                self.device_rx
                    .recv_timeout(DEVICE_WAIT)
                    .map_err(|_| ClusterError::Device {
                        detail: format!("produce {s}: no device message within {DEVICE_WAIT:?}"),
                    })?;
            match env.body {
                MessageBody::External { payload } => device_payloads.push(payload),
                other => {
                    return Err(ClusterError::Protocol {
                        detail: format!("device received non-external body {other:?}"),
                    })
                }
            }
        }

        // Drain any stragglers (e.g. traffic a chaos delay pushed past the
        // last produce) so the device stream comparison sees everything.
        if chaos_active {
            self.quiesce()?;
            while let Ok(env) = self.device_rx.recv_timeout(SETTLE) {
                if let MessageBody::External { payload } = env.body {
                    device_payloads.push(payload);
                }
            }
        }

        let final_status = self.status_all()?;
        for node in &mut self.nodes {
            let _ = node.roundtrip(&CtrlMsg::Shutdown);
            let _ = node.child.wait();
        }
        self.device_net.shutdown();
        Ok(ClusterReport {
            device_payloads,
            kill,
            final_status,
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Reap any children still alive (e.g. an error path before the
        // orderly shutdown); killed processes must not outlive the mission.
        for node in &mut self.nodes {
            let _ = node.child.kill();
            let _ = node.child.wait();
        }
    }
}

/// One status-sweep reply from `pid`: a [`WireStatus`] whose wire dropped
/// nothing, or the error that ends the sweep.
fn checked_status(pid: u32, reply: CtrlReply) -> Result<WireStatus, ClusterError> {
    match reply {
        CtrlReply::Status(s) if s.backpressure > 0 => Err(ClusterError::Backpressure {
            pid,
            dropped: s.backpressure,
        }),
        CtrlReply::Status(s) => Ok(s),
        other => Err(ClusterError::Protocol {
            detail: format!("pid {pid}: expected Status, got {other:?}"),
        }),
    }
}

fn expect_done(reply: CtrlReply) -> Result<(), ClusterError> {
    if reply == CtrlReply::Done {
        Ok(())
    } else {
        Err(ClusterError::Protocol {
            detail: format!("expected Done, got {reply:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy::CrashKind::{DoubleKill, MidRound, RoundStart};
    use synergy::{Mission, MissionOutcome};

    /// A mission whose `P2` crashes as given.
    fn mission(seed: u64, steps: u32, crash: Option<(u64, CrashKind)>) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(seed, steps);
        cfg.crash = crash.map(|(epoch, kind)| CrashEvent {
            victim: NodeId::P2,
            epoch,
            kind,
        });
        cfg
    }

    fn run(cfg: &ClusterConfig) -> MissionOutcome {
        Mission::new(cfg.reference()).run()
    }

    #[test]
    fn fault_free_reference_serves_every_produce() {
        let r = run(&mission(11, 4, None));
        assert!(r.verdicts.all_hold());
        assert_eq!(r.device_stream.len(), 4, "one device message per step");
        assert_eq!(r.metrics.torn_writes, 0);
        assert_eq!(r.metrics.hardware_recoveries, 0);
    }

    #[test]
    fn mid_round_reference_tears_one_write_and_rolls_back_one_interval() {
        let cfg = mission(11, 8, Some((3, MidRound)));
        let r = run(&cfg);
        assert!(r.verdicts.all_hold(), "the coordinated scheme must survive");
        assert_eq!(r.metrics.torn_writes, 1, "the staged write is torn");
        assert_eq!(r.metrics.hardware_recoveries, 1);
        assert_eq!(r.device_stream.len(), 8, "every produce is served");
        // Rolling back from the torn epoch k to the line k−1 costs one grid
        // interval plus the restart delay.
        let expected = DELTA_SECS + cfg.reference().restart_delay.as_secs_f64();
        let d = r.metrics.mean_hardware_rollback().unwrap_or(0.0);
        assert!((d - expected).abs() < 0.25, "rollback distance {d}");
    }

    #[test]
    fn a_round_crash_tears_exactly_one_write_across_seeds_and_rounds() {
        // The victim's own round timer places the crash, whatever the
        // seeded clock offsets: seed 23's victim clock runs ahead of the grid.
        for (seed, steps, epoch) in [(23, 6, 2), (5, 8, 3), (42, 6, 2), (11, 8, 1)] {
            let r = run(&mission(seed, steps, Some((epoch, MidRound))));
            let at = format!("seed {seed} round {epoch}");
            assert_eq!(r.metrics.torn_writes, 1, "{at}: torn");
            assert_eq!(r.metrics.hardware_recoveries, 1, "{at}: rollback");
            assert!(r.verdicts.all_hold(), "{at}: verdicts");
            assert_eq!(r.device_stream.len(), steps as usize);
        }
    }

    #[test]
    fn round_start_reference_tears_no_write() {
        for seed in [5u64, 11, 23, 42] {
            let r = run(&mission(seed, 6, Some((2, RoundStart))));
            assert_eq!(r.metrics.torn_writes, 0, "seed {seed}: no tear");
            assert_eq!(r.metrics.hardware_recoveries, 1, "seed {seed}");
            assert!(r.verdicts.all_hold(), "seed {seed}");
            assert_eq!(r.device_stream.len(), 6);
        }
    }

    #[test]
    fn double_kill_reference_equals_single_mid_round_kill() {
        // The cluster's second kill hits a restarted idle victim before the
        // rollback, so the simulator reference is a single mid-round fault.
        let double = run(&mission(11, 8, Some((3, DoubleKill))));
        let single = run(&mission(11, 8, Some((3, MidRound))));
        assert_eq!(double.device_stream, single.device_stream);
        assert_eq!(double.metrics.torn_writes, 1);
    }

    #[test]
    fn internal_traffic_reference_keeps_the_device_stream_externals_only() {
        // Internal P1 → P2 messages are acked application traffic; they
        // must never leak to the device, and the round crash must still
        // tear the victim's write with them in flight.
        let mut cfg = mission(11, 8, Some((3, MidRound)));
        cfg.internal_traffic = true;
        let r = run(&cfg);
        assert_eq!(r.metrics.torn_writes, 1);
        assert_eq!(r.metrics.hardware_recoveries, 1);
        assert!(r.verdicts.all_hold());
        assert_eq!(r.device_stream.len(), 8, "externals only");
    }

    #[test]
    fn reference_is_deterministic_per_seed() {
        let stream = || run(&mission(7, 5, None)).device_stream;
        assert_eq!(stream(), stream());
    }

    #[test]
    fn grid_round_count_matches_the_orchestrator_loop() {
        // The orchestrator runs round g when g·Δ < s for some produce s.
        assert_eq!(grid_rounds(5), 2);
        assert_eq!(grid_rounds(6), 3);
        assert_eq!(grid_rounds(7), 4);
        assert_eq!(grid_rounds(9), 5);
    }

    #[test]
    fn a_status_sweep_fails_on_the_first_dropped_frame() {
        let dropped = WireStatus {
            backpressure: 3,
            ..WireStatus::default()
        };
        assert_eq!(
            checked_status(1, CtrlReply::Status(dropped)),
            Err(ClusterError::Backpressure { pid: 1, dropped: 3 })
        );
        let clean = WireStatus {
            delivered: 4,
            ..WireStatus::default()
        };
        assert_eq!(
            checked_status(1, CtrlReply::Status(clean.clone())),
            Ok(clean)
        );
        match checked_status(2, CtrlReply::Done) {
            Err(ClusterError::Protocol { detail }) => {
                assert!(detail.contains("pid 2: expected Status"), "{detail}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
