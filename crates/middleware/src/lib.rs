//! A threaded, GSU-style middleware runtime for the MDCD protocol.
//!
//! The paper reports (§5) that the first version of the authors' *GSU
//! Middleware* implemented the prototype MDCD protocol, with the
//! TB-coordination scheme planned as a later addition. This crate mirrors
//! that deployment surface: the same sans-io engines that the `synergy`
//! simulator drives are hosted here on **real threads** connected by the
//! [`ThreadedNet`](synergy_net::threaded::ThreadedNet) transport — one
//! thread per process, a supervisor thread orchestrating shadow takeover,
//! and a device channel delivering the acceptance-tested external output.
//!
//! With [`MiddlewareConfig::with_tb_interval`] each node's host also runs
//! its adapted-TB engine, as it does under the simulator; the node loop
//! supplies the clock ([`TbDrive`]) and nothing else of the protocol.
//!
//! # Example
//!
//! ```rust
//! use std::time::Duration;
//! use synergy_middleware::{Middleware, MiddlewareConfig};
//!
//! let mw = Middleware::spawn(MiddlewareConfig::default());
//! mw.produce(1, false); // component 1 sends an internal message
//! mw.produce(1, true);  // ... and an acceptance-tested external message
//! let out = mw.device_rx().recv_timeout(Duration::from_secs(2)).unwrap();
//! assert!(out.body.is_external());
//! let report = mw.shutdown();
//! assert_eq!(report.software_recoveries, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod supervisor;

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use synergy_net::threaded::ThreadedNet;
use synergy_net::{DeviceId, Endpoint, Envelope, MissionId, ProcessId};
use synergy_storage::StableStore;

pub use node::{
    spawn_net_pump, NodeCmd, NodeInput, NodeReport, NodeRunner, NodeStatus, RollbackOutcome,
    TbDrive,
};
pub use supervisor::SupEvent;

use supervisor::Supervisor;

/// `P1act`'s process id (same layout as the simulator).
pub const P1ACT: ProcessId = ProcessId(1);
/// `P1sdw`'s process id.
pub const P1SDW: ProcessId = ProcessId(2);
/// `P2`'s process id.
pub const P2: ProcessId = ProcessId(3);
/// The external device endpoint.
pub const DEVICE: DeviceId = DeviceId(0);

/// Configuration of a middleware deployment.
#[derive(Clone, Debug)]
pub struct MiddlewareConfig {
    /// The mission (tenant) this deployment serves. Standalone deployments
    /// keep [`MissionId::SOLO`]; fleets spawning several deployments over
    /// one shared transport ([`Middleware::spawn_on`]) assign distinct ids.
    pub mission: MissionId,
    /// Seed for deterministic transport delays and application salts.
    pub seed: u64,
    /// Real-time message delay range.
    pub delay: std::ops::Range<Duration>,
    /// Adapted-TB checkpoint interval; `None` disables the hardware
    /// fault-tolerance layer (MDCD-only operation, as in the authors' GSU
    /// Middleware v1).
    pub tb_interval: Option<Duration>,
}

impl Default for MiddlewareConfig {
    fn default() -> Self {
        MiddlewareConfig {
            mission: MissionId::SOLO,
            seed: 0,
            delay: Duration::from_micros(100)..Duration::from_micros(500),
            tb_interval: None,
        }
    }
}

impl MiddlewareConfig {
    /// Enables coordinated (adapted-TB) stable checkpointing with the given
    /// wall-clock interval.
    pub fn with_tb_interval(mut self, interval: Duration) -> Self {
        self.tb_interval = Some(interval);
        self
    }

    /// Assigns the deployment to a mission (tenant).
    pub fn with_mission(mut self, mission: MissionId) -> Self {
        self.mission = mission;
        self
    }

    fn tb_config(&self) -> Option<synergy_tb::TbConfig> {
        self.tb_interval.map(|interval| {
            synergy_tb::TbConfig::new(
                synergy_tb::TbVariant::Adapted,
                synergy_des::SimDuration::from_nanos(
                    u64::try_from(interval.as_nanos()).unwrap_or(u64::MAX),
                ),
                synergy_clocks::SyncParams::new(synergy_des::SimDuration::from_micros(500), 0.0),
                synergy_des::SimDuration::from_micros(50),
                self.delay
                    .end
                    .as_nanos()
                    .try_into()
                    .map(synergy_des::SimDuration::from_nanos)
                    .unwrap_or(synergy_des::SimDuration::from_millis(1)),
            )
        })
    }
}

/// Aggregate report returned by [`Middleware::shutdown`].
#[derive(Clone, Debug, Default)]
pub struct MiddlewareReport {
    /// Completed shadow takeovers.
    pub software_recoveries: u64,
    /// Per-node reports, keyed by process id.
    pub nodes: Vec<NodeReport>,
}

/// A running three-process guarded deployment.
pub struct Middleware {
    net: Arc<ThreadedNet>,
    /// Whether [`shutdown`](Self::shutdown) owns the transport. Tenants
    /// spawned over a shared net ([`Middleware::spawn_on`]) leave it
    /// running for their co-tenants.
    owns_net: bool,
    cmd: HashMap<ProcessId, Sender<NodeInput>>,
    device_rx: Receiver<Envelope>,
    supervisor: Supervisor,
    joins: Vec<std::thread::JoinHandle<NodeReport>>,
}

impl Middleware {
    /// Spawns the transport, the three process threads and the supervisor.
    pub fn spawn(config: MiddlewareConfig) -> Self {
        let net = Arc::new(ThreadedNet::new(config.delay.clone(), config.seed));
        let mut mw = Middleware::spawn_on(net, config);
        mw.owns_net = true;
        mw
    }

    /// Spawns one tenant deployment over an existing shared transport.
    ///
    /// Every tenant reuses the canonical `P1act`/`P1sdw`/`P2`/`D0` layout;
    /// its endpoints are registered under `config.mission` and all its
    /// traffic carries that tag, so any number of deployments multiplex
    /// over the same [`ThreadedNet`] without seeing each other. Shutting a
    /// tenant down leaves the shared transport running.
    pub fn spawn_on(net: Arc<ThreadedNet>, config: MiddlewareConfig) -> Self {
        let mission = config.mission;
        let device_rx = net.register_mission(mission, Endpoint::Device(DEVICE));
        let (sup_tx, sup_rx) = channel::<SupEvent>();

        let mut cmd = HashMap::new();
        let mut joins = Vec::new();
        for pid in [P1ACT, P1SDW, P2] {
            let (tx, rx) = channel::<NodeInput>();
            let net_rx = net.register_mission(mission, Endpoint::Process(pid));
            spawn_net_pump(pid, net_rx, tx.clone());
            let runner = NodeRunner::new(
                pid,
                config.seed,
                Arc::clone(&net),
                rx,
                sup_tx.clone(),
                StableStore::new(),
                config.tb_config().map(|tb| (tb, TbDrive::WallClock)),
            )
            .with_mission(mission);
            cmd.insert(pid, tx);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("synergy-node-{mission}-{pid}"))
                    .spawn(move || runner.run())
                    .expect("spawn node thread"),
            );
        }
        let supervisor = Supervisor::spawn(sup_rx, cmd.clone());
        Middleware {
            net,
            owns_net: false,
            cmd,
            device_rx,
            supervisor,
            joins,
        }
    }

    /// Asks a component (1 or 2) to produce one message.
    ///
    /// Component 1's request is delivered to both replicas so active and
    /// shadow stay aligned.
    ///
    /// # Panics
    ///
    /// Panics if `component` is not 1 or 2.
    pub fn produce(&self, component: u8, external: bool) {
        let targets: &[ProcessId] = match component {
            1 => &[P1ACT, P1SDW],
            2 => &[P2],
            other => panic!("component must be 1 or 2, got {other}"),
        };
        for pid in targets {
            let _ = self.cmd[pid].send(NodeInput::Cmd(NodeCmd::Produce { external }));
        }
    }

    /// Arms (or disarms) the active version's design fault; the next
    /// acceptance test after arming fails and triggers shadow takeover.
    pub fn inject_fault(&self, active: bool) {
        let _ = self.cmd[&P1ACT].send(NodeInput::Cmd(NodeCmd::SetFaulty(active)));
    }

    /// The channel on which device-bound (external) messages arrive.
    pub fn device_rx(&self) -> &Receiver<Envelope> {
        &self.device_rx
    }

    /// Queries one node's live status.
    ///
    /// Returns `None` if the node has shut down (e.g. halted active).
    pub fn status(&self, pid: ProcessId) -> Option<NodeStatus> {
        let (tx, rx) = channel();
        self.cmd
            .get(&pid)?
            .send(NodeInput::Cmd(NodeCmd::Status(tx)))
            .ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// Blocks until the supervisor has observed `n` completed software
    /// recoveries or the timeout expires; returns the count seen.
    pub fn wait_for_recoveries(&self, n: u64, timeout: Duration) -> u64 {
        self.supervisor.wait_for(n, timeout)
    }

    /// Stops everything and collects reports.
    pub fn shutdown(self) -> MiddlewareReport {
        for tx in self.cmd.values() {
            let _ = tx.send(NodeInput::Cmd(NodeCmd::Shutdown));
        }
        let mut report = MiddlewareReport {
            software_recoveries: self.supervisor.recoveries(),
            nodes: Vec::new(),
        };
        for j in self.joins {
            if let Ok(node_report) = j.join() {
                report.nodes.push(node_report);
            }
        }
        self.supervisor.stop();
        if self.owns_net {
            self.net.shutdown();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> MiddlewareConfig {
        MiddlewareConfig {
            seed: 1,
            delay: Duration::from_micros(50)..Duration::from_micros(200),
            ..MiddlewareConfig::default()
        }
    }

    fn drain_until_external(mw: &Middleware, timeout: Duration) -> bool {
        mw.device_rx().recv_timeout(timeout).is_ok()
    }

    #[test]
    fn fault_free_guarded_operation_serves_devices() {
        let mw = Middleware::spawn(fast());
        for _ in 0..5 {
            mw.produce(1, false);
            mw.produce(2, false);
        }
        mw.produce(1, true);
        assert!(drain_until_external(&mw, Duration::from_secs(2)));
        let status = mw.status(P1ACT).expect("active is alive");
        assert!(status.at_runs >= 1);
        let report = mw.shutdown();
        assert_eq!(report.software_recoveries, 0);
        assert_eq!(report.nodes.len(), 3);
    }

    #[test]
    fn shadow_suppresses_messages_until_takeover() {
        let mw = Middleware::spawn(fast());
        mw.produce(1, false);
        std::thread::sleep(Duration::from_millis(50));
        let sdw = mw.status(P1SDW).expect("shadow alive");
        assert!(sdw.logged > 0, "shadow must log suppressed messages");
        assert!(!sdw.promoted);
        mw.shutdown();
    }

    #[test]
    fn fault_injection_triggers_takeover_and_service_continues() {
        let mw = Middleware::spawn(fast());
        mw.produce(1, false);
        mw.produce(2, false);
        mw.inject_fault(true);
        mw.produce(1, true); // the active's AT fails here
        let seen = mw.wait_for_recoveries(1, Duration::from_secs(5));
        assert_eq!(seen, 1, "takeover must complete");
        // The promoted shadow keeps serving external traffic.
        std::thread::sleep(Duration::from_millis(100));
        mw.produce(1, true);
        assert!(
            drain_until_external(&mw, Duration::from_secs(2)),
            "external service must continue after takeover"
        );
        let sdw = mw.status(P1SDW).expect("shadow alive");
        assert!(sdw.promoted);
        let report = mw.shutdown();
        assert_eq!(report.software_recoveries, 1);
    }

    #[test]
    fn tb_checkpointing_commits_on_real_threads() {
        let mw = Middleware::spawn(fast().with_tb_interval(Duration::from_millis(25)));
        for _ in 0..3 {
            mw.produce(1, false);
            mw.produce(2, false);
        }
        // Let several checkpoint intervals elapse.
        std::thread::sleep(Duration::from_millis(200));
        for pid in [P1ACT, P1SDW, P2] {
            let s = mw.status(pid).expect("alive");
            assert!(
                s.stable_commits >= 2,
                "{pid}: expected periodic stable commits, got {}",
                s.stable_commits
            );
        }
        let report = mw.shutdown();
        assert!(report.nodes.iter().all(|n| n.stable_commits >= 2));
    }

    #[test]
    fn tb_and_takeover_compose_on_threads() {
        let mw = Middleware::spawn(fast().with_tb_interval(Duration::from_millis(25)));
        mw.produce(1, false);
        mw.inject_fault(true);
        mw.produce(1, true);
        assert_eq!(mw.wait_for_recoveries(1, Duration::from_secs(5)), 1);
        std::thread::sleep(Duration::from_millis(100));
        // The promoted shadow keeps checkpointing and serving.
        mw.produce(1, true);
        assert!(drain_until_external(&mw, Duration::from_secs(2)));
        let sdw = mw.status(P1SDW).expect("alive");
        assert!(sdw.promoted);
        assert!(sdw.stable_commits >= 1);
        mw.shutdown();
    }

    #[test]
    fn two_tenants_multiplex_one_transport_without_crosstalk() {
        let net = Arc::new(ThreadedNet::new(
            Duration::from_micros(50)..Duration::from_micros(200),
            5,
        ));
        let a = Middleware::spawn_on(
            Arc::clone(&net),
            MiddlewareConfig { seed: 10, ..fast() }.with_mission(MissionId(1)),
        );
        let b = Middleware::spawn_on(
            Arc::clone(&net),
            MiddlewareConfig { seed: 20, ..fast() }.with_mission(MissionId(2)),
        );
        // Both tenants serve externals over the same net; each device
        // stream carries only its own tenant's tag.
        a.produce(1, true);
        b.produce(1, true);
        let got_a = a.device_rx().recv_timeout(Duration::from_secs(2)).unwrap();
        let got_b = b.device_rx().recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got_a.mission, MissionId(1));
        assert_eq!(got_b.mission, MissionId(2));
        // A design fault in tenant A recovers without touching tenant B.
        a.inject_fault(true);
        a.produce(1, true);
        assert_eq!(a.wait_for_recoveries(1, Duration::from_secs(5)), 1);
        b.produce(1, true);
        assert!(
            b.device_rx().recv_timeout(Duration::from_secs(2)).is_ok(),
            "tenant B keeps serving through tenant A's takeover"
        );
        let rb = b.shutdown();
        assert_eq!(rb.software_recoveries, 0, "no takeover leaked into B");
        let ra = a.shutdown();
        assert_eq!(ra.software_recoveries, 1);
        net.shutdown();
    }

    #[test]
    fn peer_state_tracks_dirty_messages() {
        let mw = Middleware::spawn(fast());
        mw.produce(1, false); // dirty internal message to P2
        std::thread::sleep(Duration::from_millis(100));
        let p2 = mw.status(P2).expect("peer alive");
        assert!(p2.dirty, "P2 contaminated by the active's message");
        assert!(p2.ckpts >= 1, "Type-1 checkpoint taken");
        mw.shutdown();
    }
}
