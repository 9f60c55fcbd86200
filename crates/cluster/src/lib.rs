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
//! [`DeltaStable`](synergy_archive::DeltaStable) chain on its local disk —
//! and a hardware fault is a real `SIGKILL`, torn stable write included:
//! memory is lost, the disk survives, and every node restores to the epoch
//! line through the same host procedure the simulator runs.
//!
//! Layers:
//!
//! * [`ctrl`] — the orchestrator ⇄ node control plane (length-prefixed
//!   codec frames, lockstep request/response).
//! * [`node`] — the node process: data-plane transport, one
//!   `ProcessHost`, and the one loop that feeds it deliveries and control
//!   commands, sends what it emits and answers the control protocol, each
//!   checkpoint round commanded by the orchestrator.
//! * [`orchestrator`] — spawns nodes, drives the mission grid, kills and
//!   restarts the victim, coordinates the global rollback to the epoch
//!   line; [`ClusterConfig::reference`] is the simulator reference, a
//!   [`synergy`] mission of the same timeline and crash schedule whose
//!   device-output stream the cluster run must reproduce.
//!
//! [`ProcessHost`]: synergy::system::ProcessHost

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ctrl;
pub mod node;
pub mod orchestrator;

pub use ctrl::WireStatus;
pub use node::{run_node, NodeOpts};
pub use orchestrator::{
    grid_rounds, Cluster, ClusterConfig, ClusterError, ClusterReport, KillReport, Rot, DELTA_SECS,
};
