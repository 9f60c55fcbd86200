//! `synergy-chaos` — a deterministic fault-campaign runner for the live
//! three-process cluster.
//!
//! A *campaign* is a seeded mission plus a seeded fault cocktail: link
//! faults (drops, ack duplication, bounded delays, timed partitions) on
//! every node's data plane, transient stable-storage faults under the TB
//! runtime, read-back bit-rot in a victim's checkpoint directory, and a
//! crash scheduled at a protocol-relative instant
//! ([`CrashKind`](synergy::CrashKind)). Everything below the
//! protocol layer is *masked* — retransmission over drops, bounded retry
//! over fsync failures, CRC-skip over bit-rot — so every completed
//! campaign must produce a device stream **byte-identical** to a
//! [`synergy`] simulator reference of the same seed and crash schedule.
//!
//! The runner executes campaigns for consecutive seeds, compares each
//! device stream against its reference, and on the first divergence (or
//! structured abort) *shrinks* the failing campaign by greedily disabling
//! fault groups, reporting the minimal failing mission alongside the seed.
//!
//! Layers:
//!
//! * [`plan`] — deterministic campaign generation from a base seed: a
//!   campaign is a [`ClusterConfig`](synergy_cluster::ClusterConfig).
//! * [`campaign`] — one campaign end-to-end (cluster run + simulator
//!   reference + byte comparison), fault accounting, and the shrinker.
//! * [`regime`] — unmasked-regime sweeps: seeded simulator campaigns per
//!   fault regime (AT catches, seeded escapes, clock-resync violations,
//!   Byzantine-lite nodes), each classified into a
//!   [`RegimeVerdict`](synergy::RegimeVerdict).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod campaign;
pub mod plan;
pub mod regime;

pub use campaign::{
    outcome_verdict, run_campaign, shrink_failure, CampaignOutcome, CampaignResult, FaultSummary,
    ShrinkReport,
};
pub use plan::{cocktail, generate, generate_byzantine, CampaignToggles, FaultGroup};
pub use regime::{RegimeKind, RegimeRow, RegimeSummary, RegimeSweep};
