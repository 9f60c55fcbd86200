//! `synergy-cluster` — a multi-process TCP cluster runtime for the
//! coordinated MDCD + TB protocol stack, with durable stable storage and
//! kill-based hardware-fault injection.
//!
//! The paper's deployment target is a middleware hosting the protocol
//! engines on real nodes; this crate is the closest runtime in the
//! workspace to that setting. The same sans-io [`ProcessHost`] the
//! simulator and the threaded middleware drive runs here as **three
//! separate OS processes** (`synergy-node`) connected by
//! [`ReactorTransport`](synergy_net::ReactorTransport)s (the sharded
//! nonblocking reactor), each persisting its TB stable checkpoints through
//! a [`DiskStableStore`](synergy_storage::DiskStableStore) — and a
//! hardware fault is a real `SIGKILL`, torn stable write included.
//!
//! Layers:
//!
//! * [`ctrl`] — the orchestrator ⇄ node control plane (length-prefixed
//!   codec frames, lockstep request/response).
//! * [`node`] — the node process: data-plane transport + a `NodeRunner`
//!   whose host's TB engine the orchestrator clocks
//!   ([`TbDrive::Commanded`](synergy_middleware::TbDrive)) + control loop.
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

pub mod ctrl;
pub mod node;
pub mod orchestrator;
pub mod verify;

pub use ctrl::{CtrlMsg, CtrlReply, WireStatus};
pub use node::{plan_from_hex, plan_to_hex, run_node, ClusterWire, NodeOpts};
pub use orchestrator::{
    Cluster, ClusterConfig, ClusterError, ClusterReport, ClusterTimeouts, CrashEvent, CrashKind,
    KillReport,
};
pub use verify::{simulate_reference, simulate_reference_schedule, SimReference};
