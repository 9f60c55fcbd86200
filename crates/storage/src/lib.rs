//! Volatile and stable checkpoint storage for `synergy-ft`.
//!
//! The MDCD protocol keeps (at most) one checkpoint per process in *volatile*
//! storage; the TB protocol persists checkpoints to *stable* storage that
//! survives a node crash. The adapted TB protocol additionally needs a stable
//! write that can be **aborted mid-flight and replaced** with different
//! contents when a `passed_AT` notification lands inside the blocking period
//! (paper §4.2, `write_disk(initial, expected_bit, alternative)`).
//!
//! Checkpoints are serialized with the workspace's compact little-endian
//! binary format ([`synergy_codec`]) and protected by a CRC-32
//! in every [`Checkpoint`] record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod crc;
mod disk;
mod faulty;
mod latency;
mod stable;
mod volatile;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use crc::{crc32, crc32_combine};
pub use disk::DiskStableStore;
pub use faulty::{DiskFault, DiskFaultPlan, DiskOp, FaultyStable};
pub use latency::DiskModel;
pub use stable::{Stable, StableStats, StableStore, StableWriteError};
pub use volatile::VolatileStore;
