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
//! of the same seed and fault plan (see [`crate::verify`]).
//!
//! # Hardening
//!
//! Every external interaction is bounded so a faulted cluster ends in a
//! structured [`ClusterError`], never a hang:
//!
//! * `Hello` accept loops poll the spawned child with `try_wait`, so a
//!   node that dies before announcing itself is reported as
//!   [`ClusterError::NodeDied`] immediately instead of after the timeout.
//! * Control streams carry both read and write timeouts
//!   ([`ClusterTimeouts::ctrl`]); a command that fails mid-roundtrip is
//!   attributed to the node, distinguishing a dead process
//!   ([`ClusterError::NodeDied`]) from a wedged one
//!   ([`ClusterError::Ctrl`]).
//! * Victim restarts retry with linear backoff up to
//!   [`ClusterTimeouts::restart_attempts`] before giving up (the shared
//!   [`synergy_net::retry::Backoff`] schedule).
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
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use synergy::NodeId;
use synergy_archive::{ArchiveFaultPlan, ChainRecord};
use synergy_net::retry::Backoff;
use synergy_net::{DeviceId, Endpoint, LinkFaultPlan, MessageBody, ProcessId, ReactorTransport};
use synergy_storage::{Checkpoint, DiskFaultPlan, DiskStableStore};

use crate::ctrl::{recv_ctrl, send_ctrl, CtrlMsg, CtrlReply, WireStatus};
use crate::node::plan_to_hex;

/// Deadlines and retry budgets bounding every orchestrator interaction.
#[derive(Clone, Copy, Debug)]
pub struct ClusterTimeouts {
    /// Waiting for a spawned node's control connection + `Hello`.
    pub hello: Duration,
    /// Read/write timeout on every control round-trip.
    pub ctrl: Duration,
    /// Waiting for an expected device message.
    pub device: Duration,
    /// Deadline for [`Cluster::quiesce`] to observe a settled cluster.
    pub quiesce: Duration,
    /// Pause between quiesce probes (and the final device-drain window).
    pub settle: Duration,
    /// Spawn attempts per victim restart before giving up.
    pub restart_attempts: u32,
    /// Backoff between restart attempts (linear: `attempt × backoff`).
    pub restart_backoff: Duration,
}

impl Default for ClusterTimeouts {
    fn default() -> Self {
        ClusterTimeouts {
            hello: Duration::from_secs(20),
            ctrl: Duration::from_secs(20),
            device: Duration::from_secs(20),
            quiesce: Duration::from_secs(30),
            settle: Duration::from_millis(50),
            restart_attempts: 3,
            restart_backoff: Duration::from_millis(200),
        }
    }
}

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

/// When, relative to the checkpoint round, the victim is killed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// SIGKILL before the round begins: the victim dies idle, no torn
    /// write; survivors still complete the full round.
    RoundStart,
    /// SIGKILL mid-round — after the victim's stable write is staged on
    /// disk, before it commits — leaving a genuinely torn temp file.
    MidRound,
    /// [`MidRound`](CrashKind::MidRound), then SIGKILL the *restarted*
    /// victim again before the rollback starts: a crash during recovery.
    /// The torn write is counted once (the first reload consumes it).
    DoubleKill,
}

/// One scheduled hardware fault: kill `victim` at checkpoint round `epoch`
/// with the placement selected by `kind`, then restart it from disk and
/// run the global rollback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node to kill (the fault-plan index mapping of [`NodeId`]).
    pub victim: NodeId,
    /// The checkpoint round (grid epoch) the crash lands in.
    pub epoch: u64,
    /// Placement of the kill relative to the round.
    pub kind: CrashKind,
}

/// Configuration of one cluster mission.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Mission seed, shared by every node (and the reference simulation).
    pub seed: u64,
    /// External produces fire at grid seconds `1..=steps`.
    pub steps: u32,
    /// Checkpoint grid spacing Δ in grid seconds.
    pub tb_interval_secs: f64,
    /// Scheduled hardware faults (at most one per grid epoch).
    pub crashes: Vec<CrashEvent>,
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
    /// Flip one bit in the first crash victim's *oldest* committed
    /// checkpoint record before its restart, exercising the CRC-skip
    /// reload path (only when the victim holds ≥ 2 committed records, so
    /// the epoch line — and hence the device stream — is unchanged).
    pub bitrot: bool,
    /// Incremental-checkpoint cadence shipped to every node
    /// (`--delta-k`): full image every `delta_k` stable commits,
    /// CRC-chained deltas between. Zero keeps the legacy full-image store
    /// and disables every archive-tier feature below.
    pub delta_k: u32,
    /// Per-node archive-tier fault plans, indexed by node; missing entries
    /// are inert. Only meaningful with `delta_k > 0`.
    pub archive_plans: Vec<ArchiveFaultPlan>,
    /// Wipe the first crash victim's entire data directory while it is
    /// down (delta mode only): its restart rehydrates tier 0 from the
    /// archive and must rejoin byte-identically. Requires the pre-crash
    /// quiesce to have drained the victim's upload queue, which the
    /// archive-aware quiesce condition guarantees.
    pub wipe: bool,
    /// Delta-chain bit-rot: corrupt the first crash victim's *oldest*
    /// chain record behind a valid disk frame, so only the chain-link
    /// verification one layer up can catch it (only when a later full
    /// image exists, so the newest record — the rollback restore target —
    /// still replays and the device stream is unchanged).
    pub deltarot: bool,
    /// Byzantine-lite value corruption (unmasked regime, axis 4): before
    /// the first crash's global rollback, command node `corrupt` to flip
    /// value bytes inside its *latest* committed checkpoint behind a valid
    /// CRC. Unlike `bitrot`, this is *designed* to change the device
    /// stream — the rollback restores the lie (corrupting node 0 poisons
    /// the active's state, whose payloads reach the device), and the
    /// campaign's diff against the simulator reference documents the
    /// escape. Requires the legacy store (`delta_k == 0`); delta chains
    /// refuse to rewrite committed history.
    pub corrupt: Option<usize>,
    /// Override for the reactor's per-route outbound ring capacity in
    /// bytes; `None` keeps the wire-policy default. Small values are how
    /// tests provoke backpressure deterministically.
    pub wire_queue_bytes: Option<usize>,
    /// Path to the `synergy-node` binary.
    pub node_bin: PathBuf,
    /// Root directory for per-node stable storage
    /// (`<data_root>/node-<index>`).
    pub data_root: PathBuf,
    /// Deadlines and retry budgets.
    pub timeouts: ClusterTimeouts,
}

impl ClusterConfig {
    /// A fault-free configuration with default timeouts and inert chaos
    /// plans; callers add crashes and fault plans as needed.
    pub fn new(
        seed: u64,
        steps: u32,
        tb_interval_secs: f64,
        node_bin: PathBuf,
        data_root: PathBuf,
    ) -> Self {
        ClusterConfig {
            seed,
            steps,
            tb_interval_secs,
            crashes: Vec::new(),
            internal_traffic: false,
            link_plan: LinkFaultPlan::inert(seed),
            disk_plans: Vec::new(),
            bitrot: false,
            delta_k: 0,
            archive_plans: Vec::new(),
            wipe: false,
            deltarot: false,
            corrupt: None,
            wire_queue_bytes: None,
            node_bin,
            data_root,
            timeouts: ClusterTimeouts::default(),
        }
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
    /// Whether the victim's data directory was wiped while it was down,
    /// forcing its restart to rehydrate tier 0 from the archive.
    pub wiped: bool,
    /// Epoch of the checkpoint the Byzantine-lite injection value-flipped
    /// on the restarted victim before the rollback (`None`: no injection
    /// this round).
    pub corrupted_epoch: Option<u64>,
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
    /// The kill/restart observations, one per scheduled crash.
    pub kills: Vec<KillReport>,
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
    fn roundtrip(&mut self, msg: &CtrlMsg, timeout: Duration) -> Result<CtrlReply, ClusterError> {
        let attempt = send_ctrl(&mut self.ctrl, msg).and_then(|()| recv_ctrl(&mut self.ctrl));
        attempt.map_err(|e| match self.child.try_wait() {
            Ok(Some(status)) => ClusterError::NodeDied {
                pid: self.pid,
                detail: format!("{msg:?} failed ({e}); process exited with {status}"),
            },
            _ => ClusterError::Ctrl {
                pid: self.pid,
                detail: format!("{msg:?} got no reply within {timeout:?}: {e}"),
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
    timeouts: &ClusterTimeouts,
) -> Result<HelloInfo, ClusterError> {
    let sock = |e: io::Error| ClusterError::Launch {
        detail: format!("control listener: {e}"),
    };
    let deadline = Instant::now() + timeouts.hello;
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
                            "pid {expected_pid} sent no Hello within {:?}",
                            timeouts.hello
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
    stream.set_read_timeout(Some(timeouts.ctrl)).map_err(sock)?;
    stream
        .set_write_timeout(Some(timeouts.ctrl))
        .map_err(sock)?;
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
    ctrl_listener: TcpListener,
    ctrl_addr: String,
    device_net: ReactorTransport,
    device_rx: std::sync::mpsc::Receiver<synergy_net::Envelope>,
    device_addr: String,
    nodes: Vec<NodeHandle>,
    bitrot_injected: bool,
    deltarot_injected: bool,
    corrupt_injected: bool,
    wiped: bool,
}

impl Cluster {
    /// Spawns the three node processes and wires the full route table.
    ///
    /// # Errors
    ///
    /// Process-spawn, socket, or control-protocol failures — all bounded
    /// by the configured timeouts.
    pub fn launch(cfg: ClusterConfig) -> Result<Self, ClusterError> {
        // The Byzantine-lite target indexes the node table; surface a bad
        // index as the same typed error the simulator's plan validation
        // raises, instead of panicking at the first crash round.
        if let Some(target) = cfg.corrupt {
            if NodeId::from_index(target).is_none() {
                return Err(ClusterError::Launch {
                    detail: synergy::FaultPlanError::NodeOutOfRange { node: target }.to_string(),
                });
            }
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
            ctrl_listener,
            ctrl_addr,
            device_net,
            device_rx,
            device_addr,
            nodes: Vec::new(),
            bitrot_injected: false,
            deltarot_injected: false,
            corrupt_injected: false,
            wiped: false,
        };
        for node in NodeId::ALL {
            let pid = node.index() as u32 + 1;
            let mut child = cluster.spawn_child(node)?;
            let hello = match accept_hello(
                &cluster.ctrl_listener,
                &mut child,
                pid,
                &cluster.cfg.timeouts,
            ) {
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
        let data_dir = self.cfg.data_root.join(format!("node-{}", node.index()));
        std::fs::create_dir_all(&data_dir).map_err(|e| ClusterError::Launch {
            detail: format!("create {}: {e}", data_dir.display()),
        })?;
        let interval_ms = (self.cfg.tb_interval_secs * 1000.0).round() as u64;
        let mut cmd = Command::new(&self.cfg.node_bin);
        cmd.arg("--pid")
            .arg((node.index() + 1).to_string())
            .arg("--seed")
            .arg(self.cfg.seed.to_string())
            .arg("--data-dir")
            .arg(&data_dir)
            .arg("--ctrl")
            .arg(&self.ctrl_addr)
            .arg("--tb-interval-ms")
            .arg(interval_ms.to_string());
        if let Some(bytes) = self.cfg.wire_queue_bytes {
            cmd.arg("--wire-queue-bytes").arg(bytes.to_string());
        }
        if !self.cfg.link_plan.is_inert() {
            cmd.arg("--chaos-link")
                .arg(plan_to_hex(&self.cfg.link_plan));
        }
        if let Some(plan) = self.cfg.disk_plans.get(node.index()) {
            if !plan.is_inert() {
                cmd.arg("--chaos-disk").arg(plan_to_hex(plan));
            }
        }
        if self.cfg.delta_k > 0 {
            // The archive tier lives *beside* the data dir, so wiping the
            // node's local disk leaves the archive intact to rehydrate from.
            let archive_dir = self.cfg.data_root.join(format!("archive-{}", node.index()));
            std::fs::create_dir_all(&archive_dir).map_err(|e| ClusterError::Launch {
                detail: format!("create {}: {e}", archive_dir.display()),
            })?;
            cmd.arg("--delta-k")
                .arg(self.cfg.delta_k.to_string())
                .arg("--archive-dir")
                .arg(&archive_dir);
            if let Some(plan) = self.cfg.archive_plans.get(node.index()) {
                if !plan.is_inert() {
                    cmd.arg("--chaos-archive").arg(plan_to_hex(plan));
                }
            }
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| ClusterError::Launch {
                detail: format!("spawn {} for {node}: {e}", self.cfg.node_bin.display()),
            })
    }

    /// Sends every node the full route table (peers + device).
    fn distribute_routes(&mut self) -> Result<(), ClusterError> {
        let ctrl_timeout = self.cfg.timeouts.ctrl;
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
                let reply = self.nodes[i].roundtrip(
                    &CtrlMsg::SetRoute {
                        endpoint: *endpoint,
                        addr: addr.clone(),
                    },
                    ctrl_timeout,
                )?;
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
        let ctrl_timeout = self.cfg.timeouts.ctrl;
        let mut out = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            match node.roundtrip(&CtrlMsg::Status, ctrl_timeout)? {
                CtrlReply::Status(s) => {
                    if s.backpressure > 0 {
                        return Err(ClusterError::Backpressure {
                            pid: node.pid,
                            dropped: s.backpressure,
                        });
                    }
                    out.push((node.pid, s));
                }
                other => {
                    return Err(ClusterError::Protocol {
                        detail: format!("pid {}: expected Status, got {other:?}", node.pid),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Reroutes `endpoint` on one node's data plane. Public for wire
    /// regression tests that point a route at an uncooperative peer.
    ///
    /// # Errors
    ///
    /// Control failures on the target node.
    pub fn set_route(
        &mut self,
        node: NodeId,
        endpoint: Endpoint,
        addr: &str,
    ) -> Result<(), ClusterError> {
        let ctrl_timeout = self.cfg.timeouts.ctrl;
        let reply = self.nodes[node.index()].roundtrip(
            &CtrlMsg::SetRoute {
                endpoint,
                addr: addr.to_string(),
            },
            ctrl_timeout,
        )?;
        expect_done(reply)
    }

    /// Commands one node to fire `frames` raw envelopes of `payload_bytes`
    /// at `to` with no backpressure retry, returning `(sent, rejected)`.
    /// Public for wire regression tests that overdrive a route on purpose.
    ///
    /// # Errors
    ///
    /// Control failures on the target node.
    pub fn blast(
        &mut self,
        node: NodeId,
        to: Endpoint,
        frames: u64,
        payload_bytes: u64,
    ) -> Result<(u64, u64), ClusterError> {
        let ctrl_timeout = self.cfg.timeouts.ctrl;
        match self.nodes[node.index()].roundtrip(
            &CtrlMsg::Blast {
                to,
                frames,
                payload_bytes,
            },
            ctrl_timeout,
        )? {
            CtrlReply::Blasted { sent, backpressure } => Ok((sent, backpressure)),
            other => Err(ClusterError::Protocol {
                detail: format!("expected Blasted, got {other:?}"),
            }),
        }
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
        let deadline = Instant::now() + self.cfg.timeouts.quiesce;
        let mut prev: Option<Vec<(u32, WireStatus)>> = None;
        loop {
            let snap = self.status_all()?;
            // Archive-aware: an undrained upload queue means a kill (or
            // wipe) could behead records the archive never saw, so delta
            // missions settle it alongside the data plane.
            let drained = snap
                .iter()
                .all(|(_, s)| s.unacked == 0 && s.net_queued == 0 && s.archive_pending == 0);
            if drained && prev.as_ref() == Some(&snap) {
                return Ok(snap);
            }
            if Instant::now() >= deadline {
                return Err(ClusterError::Quiesce {
                    detail: format!(
                        "not settled within {:?}; last snapshot: {snap:?}",
                        self.cfg.timeouts.quiesce
                    ),
                });
            }
            prev = Some(snap);
            std::thread::sleep(self.cfg.timeouts.settle);
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
        let ctrl_timeout = self.cfg.timeouts.ctrl;
        for node in &mut self.nodes {
            let reply = node.roundtrip(&CtrlMsg::BeginCkpt, ctrl_timeout)?;
            if !matches!(reply, CtrlReply::Began { writing: true }) {
                return Err(ClusterError::Protocol {
                    detail: format!("pid {}: round did not stage a write: {reply:?}", node.pid),
                });
            }
        }
        for node in &mut self.nodes {
            match node.roundtrip(&CtrlMsg::CommitCkpt, ctrl_timeout)? {
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

    /// Flips one bit in the victim's **oldest** committed checkpoint
    /// record, when it holds at least two — the newest (the rollback
    /// line's restore target) stays intact, so the corruption is masked by
    /// the CRC-skip reload and the device stream is unchanged.
    fn inject_bitrot(&self, victim: usize) -> Result<bool, ClusterError> {
        let dir = self.cfg.data_root.join(format!("node-{victim}"));
        let fs_err = |e: io::Error| ClusterError::Launch {
            detail: format!("bit-rot injection in {}: {e}", dir.display()),
        };
        let mut records: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(fs_err)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
            })
            .collect();
        if records.len() < 2 {
            return Ok(false);
        }
        records.sort();
        let target = &records[0];
        let mut bytes = std::fs::read(target).map_err(fs_err)?;
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(target, bytes).map_err(fs_err)?;
        Ok(true)
    }

    /// Corrupts the victim's **oldest** chain record *behind a valid disk
    /// frame*: the record file re-frames cleanly, so the disk reload
    /// accepts it and only the chain-link verification one layer up can
    /// refuse it. Requires a later full image among the committed records
    /// so the newest record — the rollback restore target — still replays
    /// and the device stream is unchanged.
    fn inject_deltarot(&self, victim: usize) -> Result<bool, ClusterError> {
        use synergy_archive::RecordKind;
        let dir = self.cfg.data_root.join(format!("node-{victim}"));
        let fs_err = |e: io::Error| ClusterError::Launch {
            detail: format!("delta-rot injection in {}: {e}", dir.display()),
        };
        let mut records: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(fs_err)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
            })
            .collect();
        if records.len() < 2 {
            return Ok(false);
        }
        records.sort();
        let mut decoded = Vec::with_capacity(records.len());
        for path in &records {
            let Some(ckpt) = DiskStableStore::read_record_file(path) else {
                return Ok(false);
            };
            let Ok(record) = ckpt.decode::<ChainRecord>() else {
                return Ok(false);
            };
            decoded.push((ckpt, record));
        }
        if !decoded[1..]
            .iter()
            .any(|(_, r)| r.kind() == RecordKind::Full)
        {
            return Ok(false);
        }
        let (ckpt, record) = &decoded[0];
        let corrupted = match record.clone() {
            ChainRecord::Full { chain_crc, image } => {
                let mut bytes = image.to_vec();
                if bytes.is_empty() {
                    return Ok(false);
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
                // Rot the reconstructed-image CRC: the frame stays valid,
                // the chain link no longer verifies.
                patch.image_crc ^= 0x1;
                ChainRecord::Delta {
                    base_seq,
                    chain_crc,
                    patch,
                }
            }
        };
        let rewritten = Checkpoint::encode(ckpt.seq(), ckpt.taken_at(), ckpt.label(), &corrupted)
            .map_err(|e| ClusterError::Launch {
            detail: format!("re-encode rotted chain record: {e}"),
        })?;
        DiskStableStore::write_record_file(&records[0], &rewritten).map_err(|e| {
            ClusterError::Launch {
                detail: format!("delta-rot write: {e}"),
            }
        })?;
        Ok(true)
    }

    /// Restarts one node from its data directory with bounded
    /// retry-with-backoff, returning its fresh handle state.
    fn restart_node(&mut self, node: NodeId) -> Result<(Child, HelloInfo), ClusterError> {
        let expected_pid = node.index() as u32 + 1;
        let mut backoff = Backoff::linear(
            self.cfg.timeouts.restart_backoff,
            Some(self.cfg.timeouts.restart_attempts.max(1)),
        );
        loop {
            let attempt = (|| {
                let mut child = self.spawn_child(node)?;
                match accept_hello(
                    &self.ctrl_listener,
                    &mut child,
                    expected_pid,
                    &self.cfg.timeouts,
                ) {
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
        let ctrl_timeout = self.cfg.timeouts.ctrl;
        let victim = ev.victim.index();
        let mut victim_began_writing = false;

        // Byzantine-lite: before this round commits, the target node
        // value-flips its *latest committed* checkpoint behind a fresh
        // valid CRC. At this instant that record's epoch equals the epoch
        // line the rollback below will compute (the victim reloads to the
        // previous round), so the global rollback restores the lie on the
        // corrupted node — and, with node 0 targeted, every external the
        // active produces afterwards carries the flipped state to the
        // device. Injecting after the commit would corrupt a record above
        // the line, which the rollback would never read: a silent flip.
        let mut corrupted_epoch = None;
        if let Some(target) = self.cfg.corrupt {
            if !self.corrupt_injected {
                match self.nodes[target].roundtrip(&CtrlMsg::Corrupt, ctrl_timeout)? {
                    CtrlReply::Corrupted { epoch } => {
                        corrupted_epoch = epoch;
                        self.corrupt_injected = epoch.is_some();
                    }
                    other => {
                        return Err(ClusterError::Protocol {
                            detail: format!("bad corrupt reply {other:?}"),
                        })
                    }
                }
            }
        }

        match ev.kind {
            CrashKind::RoundStart => {
                // The victim dies idle, before the round touches it; the
                // survivors still run the full round and commit.
                self.kill_node(ev.victim)?;
                for i in 0..self.nodes.len() {
                    if i == victim {
                        continue;
                    }
                    let reply = self.nodes[i].roundtrip(&CtrlMsg::BeginCkpt, ctrl_timeout)?;
                    if !matches!(reply, CtrlReply::Began { writing: true }) {
                        return Err(ClusterError::Protocol {
                            detail: format!("survivor did not stage a write: {reply:?}"),
                        });
                    }
                }
            }
            CrashKind::MidRound | CrashKind::DoubleKill => {
                for i in 0..self.nodes.len() {
                    let reply = self.nodes[i].roundtrip(&CtrlMsg::BeginCkpt, ctrl_timeout)?;
                    if self.nodes[i].index == victim {
                        victim_began_writing = matches!(reply, CtrlReply::Began { writing: true });
                    }
                }
                // The hardware fault: SIGKILL mid-round. The victim's
                // in-flight stable write is now a genuinely torn temp file.
                self.kill_node(ev.victim)?;
            }
        }
        for i in 0..self.nodes.len() {
            if i == victim {
                continue;
            }
            match self.nodes[i].roundtrip(&CtrlMsg::CommitCkpt, ctrl_timeout)? {
                CtrlReply::Committed { epoch } => self.nodes[i].epoch = epoch,
                other => {
                    return Err(ClusterError::Protocol {
                        detail: format!("survivor commit reply {other:?}"),
                    })
                }
            }
        }

        // Faults injected while the victim is down, so its restart
        // exercises the recovery ladder. At most one per crash: a wipe
        // leaves nothing for the rot injectors to chew on this round
        // (each latches independently, so a skipped injector retries at
        // the next scheduled crash).
        let mut wiped = false;
        if self.cfg.wipe && self.cfg.delta_k > 0 && !self.wiped {
            // The archive-aware quiesce before this round drained the
            // victim's upload queue, so the archive holds every committed
            // record and the wiped node rehydrates to the same history.
            let dir = self.cfg.data_root.join(format!("node-{victim}"));
            std::fs::remove_dir_all(&dir).map_err(|e| ClusterError::Launch {
                detail: format!("wipe {}: {e}", dir.display()),
            })?;
            self.wiped = true;
            wiped = true;
        }
        if self.cfg.deltarot && self.cfg.delta_k > 0 && !self.deltarot_injected && !wiped {
            self.deltarot_injected = self.inject_deltarot(victim)?;
        }
        if self.cfg.bitrot && !self.bitrot_injected && !wiped {
            self.bitrot_injected = self.inject_bitrot(victim)?;
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

        // The epoch line: minimum committed epoch over all (now live)
        // processes; a node with nothing committed contributes 0.
        let line = self
            .nodes
            .iter()
            .map(|n| n.epoch.unwrap_or(0))
            .min()
            .unwrap_or(0);
        let mut rollbacks = Vec::new();
        for node in &mut self.nodes {
            match node.roundtrip(&CtrlMsg::Rollback { epoch: line }, ctrl_timeout)? {
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
            wiped,
            corrupted_epoch,
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
    /// quiesce or device timeouts — always within the configured bounds,
    /// never a hang.
    pub fn run(mut self) -> Result<ClusterReport, ClusterError> {
        let ctrl_timeout = self.cfg.timeouts.ctrl;
        // Internal traffic puts acked P1 → P2 messages in flight, so it
        // needs the same settle discipline as chaos: quiesce (unacked == 0)
        // rather than a bare barrier, or grid rounds could checkpoint state
        // the simulator never sees.
        let chaos_active = !self.cfg.link_plan.is_inert()
            || self.cfg.disk_plans.iter().any(|p| !p.is_inert())
            || self.cfg.internal_traffic
            || self.cfg.wipe
            || self.cfg.archive_plans.iter().any(|p| !p.is_inert());
        let mut device_payloads = Vec::new();
        let mut kills = Vec::new();
        let mut next_grid: u64 = 1;
        for s in 1..=self.cfg.steps {
            // Checkpoint rounds whose grid time falls before this produce.
            while self.cfg.tb_interval_secs * (next_grid as f64) < f64::from(s) {
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
                let crash = self
                    .cfg
                    .crashes
                    .iter()
                    .find(|c| c.epoch == next_grid)
                    .copied();
                match crash {
                    Some(ev) => kills.push(self.crash_round(&ev)?),
                    None => self.checkpoint_round()?,
                }
                next_grid += 1;
            }
            // The scripted produces on component 1: active and shadow stay
            // aligned. The optional internal produce (a P1 → P2 message
            // that will be acked) precedes the external one at the same
            // logical instant — the reference simulation scripts both at
            // time `s` in the same order, and the DES queue breaks the tie
            // FIFO.
            if self.cfg.internal_traffic {
                for i in [NodeId::P1Act.index(), NodeId::P1Sdw.index()] {
                    let reply = self.nodes[i]
                        .roundtrip(&CtrlMsg::Produce { external: false }, ctrl_timeout)?;
                    expect_done(reply)?;
                }
            }
            // The external produce: the active's output reaches the device.
            for i in [NodeId::P1Act.index(), NodeId::P1Sdw.index()] {
                let reply =
                    self.nodes[i].roundtrip(&CtrlMsg::Produce { external: true }, ctrl_timeout)?;
                expect_done(reply)?;
            }
            let env = self
                .device_rx
                .recv_timeout(self.cfg.timeouts.device)
                .map_err(|_| ClusterError::Device {
                    detail: format!(
                        "produce {s}: no device message within {:?}",
                        self.cfg.timeouts.device
                    ),
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
            while let Ok(env) = self.device_rx.recv_timeout(self.cfg.timeouts.settle) {
                if let MessageBody::External { payload } = env.body {
                    device_payloads.push(payload);
                }
            }
        }

        let final_status = self.status_all()?;
        for node in &mut self.nodes {
            let _ = node.roundtrip(&CtrlMsg::Shutdown, ctrl_timeout);
            let _ = node.child.wait();
        }
        self.device_net.shutdown();
        Ok(ClusterReport {
            device_payloads,
            kills,
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

    #[test]
    fn launch_rejects_an_out_of_range_corrupt_target() {
        let mut cfg = ClusterConfig::new(
            1,
            3,
            1.7,
            PathBuf::from("/nonexistent/synergy-node"),
            std::env::temp_dir().join("synergy-corrupt-validate"),
        );
        cfg.corrupt = Some(9);
        match Cluster::launch(cfg) {
            Err(ClusterError::Launch { detail }) => {
                assert!(detail.contains("node index 9 out of range"), "{detail}");
            }
            Err(other) => panic!("expected a typed launch rejection, got {other:?}"),
            Ok(_) => panic!("launch must reject the bad corrupt target"),
        }
    }
}
