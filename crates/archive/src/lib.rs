//! Incremental (delta) checkpoints.
//!
//! The paper's adapted TB protocol writes a **full** checkpoint image to
//! stable storage every interval. This crate keeps the protocol untouched
//! and changes only what a stable write *costs*: a full image every `k`
//! commits, CRC-chained dirty-region deltas between ([`delta`], [`codec`],
//! [`store`]). [`DeltaStable`] layers the format over any [`Stable`]
//! backend (in-memory for the simulator, [`DiskStableStore`] for the
//! cluster) and reconstructs the original checkpoints byte-identically on
//! reload, falling back past any torn or rotten suffix — a damaged chain
//! degrades to an older epoch, never to a wrong image.
//!
//! The cluster runs `DeltaStable<DiskStableStore>` under its disk-fault
//! wrapper, the simulator accounts the same format through
//! [`CheckpointCodec`], and byte-identical recovery is checked across both.
//!
//! [`Stable`]: synergy_storage::Stable
//! [`DiskStableStore`]: synergy_storage::DiskStableStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod codec;
pub mod delta;
pub mod store;

pub use codec::{ChainRecord, ChainWalker, CheckpointCodec, RecordCost, RecordKind};
pub use delta::{DeltaError, DeltaPatch, DirtyRegion, REGION_SIZE};
pub use store::{DeltaStable, DeltaStats, StableHistory};
