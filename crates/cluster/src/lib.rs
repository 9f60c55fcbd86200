//! `synergy-cluster` — a multi-process TCP cluster runtime for the
//! coordinated MDCD + TB protocol stack, with durable stable storage and
//! kill-based hardware-fault injection.
//!
//! The paper's deployment target is a middleware hosting the protocol
//! engines on real nodes; this crate is the workspace's substitute for
//! that setting, and one of its two runtimes beside the simulator. The
//! same sans-io [`ProcessHost`] the simulator drives runs here as **three
//! separate OS processes** (`synergy-node`) connected by
//! [`ReactorTransport`](synergy_net::ReactorTransport)s (the sharded
//! nonblocking reactor), each persisting its TB stable checkpoints as a
//! [`DeltaStable`](synergy_archive::DeltaStable) chain on its local disk,
//! mirrored to an archive tier — and a hardware fault is a real `SIGKILL`,
//! torn stable write included.
//!
//! Layers:
//!
//! * [`ctrl`] — the orchestrator ⇄ node control plane (length-prefixed
//!   codec frames, lockstep request/response).
//! * `runner` (crate-private) — the node event loop: one `ProcessHost`
//!   fed from an input channel against a `Transport`, plus the clock that
//!   drives its TB engine (`TbDrive`).
//! * [`node`] — the node process: data-plane transport + a `NodeRunner`
//!   whose host's TB engine the orchestrator clocks
//!   (`TbDrive::Commanded`) + control loop.
//! * [`orchestrator`] — spawns nodes, drives the mission grid, kills and
//!   restarts the victim, coordinates the global rollback to the epoch
//!   line.
//! * [`verify`] — the simulator reference: a [`synergy`] mission of the
//!   same seed and fault plan whose device-output stream the cluster run
//!   must reproduce.
//!
//! [`ProcessHost`]: synergy::system::ProcessHost

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ctrl;
pub mod node;
pub mod orchestrator;
mod runner;
pub mod verify;

pub use ctrl::WireStatus;
pub use node::{run_node, NodeOpts};
pub use orchestrator::{
    grid_rounds, Cluster, ClusterConfig, ClusterError, ClusterReport, ClusterTimeouts, CrashEvent,
    CrashKind, KillReport, Rot,
};
pub use verify::{simulate_reference, simulate_reference_schedule, SimReference};

/// Three runners wired in one process over an in-memory transport, the
/// test thread playing the takeover supervisor: the live runs of software
/// takeover and of free-running (wall-clock) TB.
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use synergy::system::{DEVICE, P1ACT, P1SDW, P2};
    use synergy_net::{Endpoint, ProcessId};
    use synergy_storage::StableStore;

    use crate::node::tb_config;
    use crate::runner::{MemNet, NodeCmd, NodeInput, NodeRunner, SupEvent, TbDrive};
    use crate::WireStatus;

    const PIDS: [ProcessId; 3] = [P1ACT, P1SDW, P2];
    const PATIENCE: Duration = Duration::from_secs(2);

    struct Trio {
        routes: HashMap<Endpoint, Sender<NodeInput>>,
        device: Receiver<NodeInput>,
        sup: Receiver<SupEvent>,
        joins: Vec<JoinHandle<()>>,
    }

    impl Trio {
        /// Spawns `P1act`, `P1sdw` and `P2`, each under adapted TB on the
        /// wall clock every `tb_ms` when given.
        fn spawn(tb_ms: Option<u64>) -> Trio {
            let (device_tx, device) = channel();
            let (sup_tx, sup) = channel();
            let mut routes = HashMap::from([(Endpoint::Device(DEVICE), device_tx)]);
            let inputs = PIDS.map(|pid| {
                let (tx, rx) = channel();
                routes.insert(Endpoint::Process(pid), tx);
                (pid, rx)
            });
            let net = Arc::new(MemNet(routes.clone()));
            let joins = inputs
                .into_iter()
                .map(|(pid, rx)| {
                    let tb = tb_ms.map(|ms| (tb_config(ms), TbDrive::WallClock));
                    let (net, sup_tx) = (Arc::clone(&net), sup_tx.clone());
                    let runner = NodeRunner::new(pid, 1, net, rx, sup_tx, StableStore::new(), tb);
                    std::thread::spawn(move || runner.run())
                })
                .collect();
            Trio {
                routes,
                device,
                sup,
                joins,
            }
        }

        fn cmd(&self, pid: ProcessId, cmd: NodeCmd) {
            let input = &self.routes[&Endpoint::Process(pid)];
            input.send(NodeInput::Cmd(cmd)).expect("runner alive");
        }

        /// Component 1 is the replica pair, whose request goes to both so
        /// they stay aligned; component 2 is `P2`.
        fn produce(&self, component: u8, external: bool) {
            for pid in PIDS.into_iter().filter(|&p| (component == 2) == (p == P2)) {
                self.cmd(pid, NodeCmd::Produce { external });
            }
        }

        /// Doubles as a barrier: `pid` has processed every earlier input.
        fn status(&self, pid: ProcessId) -> WireStatus {
            let (tx, rx) = channel();
            self.cmd(pid, NodeCmd::Status(tx));
            rx.recv_timeout(PATIENCE).expect("status")
        }

        /// Whether `pid` commits stable epoch `epoch` within the patience.
        fn commits(&self, pid: ProcessId, epoch: u64) -> bool {
            let deadline = Instant::now() + PATIENCE;
            while self.status(pid).stable_epoch < Some(epoch) {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            true
        }

        fn external_served(&self) -> bool {
            self.device.recv_timeout(PATIENCE).is_ok()
        }

        /// The supervisor's rule on the first software error — halt the
        /// active, promote the shadow, retarget the peer — then waits for
        /// the shadow to report the takeover done.
        fn take_over(&self) -> bool {
            let mut events = std::iter::from_fn(|| self.sup.recv_timeout(PATIENCE).ok());
            if !matches!(events.next(), Some(SupEvent::SoftwareError)) {
                return false;
            }
            self.cmd(P1ACT, NodeCmd::Halt);
            self.cmd(P1SDW, NodeCmd::TakeOver);
            self.cmd(P2, NodeCmd::RetargetActive(P1SDW));
            events.any(|event| matches!(event, SupEvent::TakeoverDone))
        }

        fn shutdown(self) {
            for pid in PIDS {
                self.cmd(pid, NodeCmd::Shutdown);
            }
            for join in self.joins {
                join.join().expect("runner exits cleanly");
            }
        }
    }

    #[test]
    fn fault_free_guarded_operation_serves_devices() {
        let trio = Trio::spawn(None);
        for _ in 0..5 {
            trio.produce(1, false);
            trio.produce(2, false);
        }
        trio.produce(1, true);
        assert!(trio.external_served());
        assert!(trio.status(P1ACT).at_runs >= 1);
        assert!(trio.sup.try_recv().is_err(), "no software error");
        trio.shutdown();
    }

    #[test]
    fn shadow_suppresses_messages_until_takeover() {
        let trio = Trio::spawn(None);
        trio.produce(1, false);
        let sdw = trio.status(P1SDW);
        assert!(sdw.logged > 0, "shadow must log suppressed messages");
        assert!(!sdw.promoted);
        trio.shutdown();
    }

    #[test]
    fn fault_injection_triggers_takeover_and_service_continues() {
        let trio = Trio::spawn(None);
        trio.produce(1, false);
        trio.produce(2, false);
        trio.cmd(P1ACT, NodeCmd::SetFaulty(true));
        trio.produce(1, true); // the active's AT fails here
        assert!(trio.take_over(), "takeover must complete");
        // The promoted shadow keeps serving external traffic.
        trio.produce(1, true);
        assert!(
            trio.external_served(),
            "external service must continue after takeover"
        );
        assert!(trio.status(P1SDW).promoted);
        trio.shutdown();
    }

    #[test]
    fn tb_checkpointing_commits_on_real_threads() {
        let trio = Trio::spawn(Some(25));
        for _ in 0..3 {
            trio.produce(1, false);
            trio.produce(2, false);
        }
        for pid in PIDS {
            assert!(trio.commits(pid, 2), "{pid}: periodic stable commits");
        }
        trio.shutdown();
    }

    #[test]
    fn tb_and_takeover_compose_on_threads() {
        let trio = Trio::spawn(Some(25));
        trio.produce(1, false);
        trio.cmd(P1ACT, NodeCmd::SetFaulty(true));
        trio.produce(1, true);
        assert!(trio.take_over());
        // The promoted shadow keeps checkpointing and serving.
        let at_takeover = trio.status(P1SDW).stable_epoch.unwrap_or(0);
        assert!(trio.commits(P1SDW, at_takeover + 1));
        trio.produce(1, true);
        assert!(trio.external_served());
        assert!(trio.status(P1SDW).promoted);
        trio.shutdown();
    }

    #[test]
    fn peer_state_tracks_dirty_messages() {
        let trio = Trio::spawn(None);
        // A dirty internal message to P2, queued at P2 once P1act has
        // handled the produce.
        trio.produce(1, false);
        trio.status(P1ACT);
        let p2 = trio.status(P2);
        assert!(p2.dirty, "P2 contaminated by the active's message");
        assert!(p2.volatile_ckpts >= 1, "Type-1 checkpoint taken");
        trio.shutdown();
    }
}
