//! Incremental checkpoints and a tiered checkpoint archive.
//!
//! The paper's adapted TB protocol writes a **full** checkpoint image to
//! stable storage every interval. This crate keeps the protocol untouched
//! and changes only what a stable write *costs* and where the bytes *live*:
//!
//! * **Delta checkpoints** ([`delta`], [`codec`], [`store`]) — a full image
//!   every `k` commits, CRC-chained dirty-region deltas between.
//!   [`DeltaStable`] layers the format over any [`Stable`] backend
//!   (in-memory for the simulator, [`DiskStableStore`] for the cluster)
//!   and reconstructs the original checkpoints byte-identically on reload,
//!   falling back past any torn or rotten suffix — a damaged chain
//!   degrades to an older epoch, never to a wrong image.
//! * **Tiered archive** ([`object`], [`tiered`]) — [`TieredStore`] keeps
//!   local disk as tier 0 and mirrors every committed record file to an
//!   object store through a background uploader with unlimited retries.
//!   A node whose local disk is wiped rehydrates entirely from the
//!   archive tier. [`FaultyObjectStore`] puts the whole ladder under a
//!   seeded fault plan — failed PUTs, half-uploaded objects, latency,
//!   outage windows — for the chaos harness.
//!
//! The layers compose: the cluster runs
//! `DeltaStable<TieredStore>` under its disk-fault wrapper, the simulator
//! accounts the same format through [`CheckpointCodec`], and byte-identical
//! recovery is checked across all three levels.
//!
//! [`Stable`]: synergy_storage::Stable
//! [`DiskStableStore`]: synergy_storage::DiskStableStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod codec;
pub mod delta;
pub mod object;
pub mod store;
pub mod tiered;

pub use codec::{ChainRecord, ChainWalker, CheckpointCodec, RecordCost, RecordKind};
pub use delta::{DeltaError, DeltaPatch, DirtyRegion, REGION_SIZE};
pub use object::{
    ArchiveFaultPlan, DirObjectStore, FaultyObjectStore, MemObjectStore, ObjectStore,
    ObjectStoreError, OutageWindow,
};
pub use store::{DeltaStable, DeltaStats, StableHistory};
pub use tiered::{ArchiveHandle, ArchiveStats, TieredStore};
