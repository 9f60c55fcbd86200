//! Stable checkpoint storage for `synergy-ft`.
//!
//! The TB protocol persists checkpoints to *stable* storage that survives a
//! node crash. (The MDCD protocol's one *volatile* checkpoint per process is
//! the payload the host keeps in RAM; nothing reads it back from bytes, so
//! it is never serialized.) The adapted TB protocol additionally needs a stable
//! write that can be **aborted mid-flight and replaced** with different
//! contents when a `passed_AT` notification lands inside the blocking period
//! (paper §4.2, `write_disk(initial, expected_bit, alternative)`).
//!
//! Checkpoints are serialized with the workspace's compact little-endian
//! binary format ([`synergy_codec`]) and protected by a CRC-32
//! in every [`Checkpoint`] record, stamped when the record is first read or
//! written out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod checkpoint;
mod crc;
mod disk;
mod faulty;
mod stable;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use crc::{crc32, crc32_combine};
pub use disk::DiskStableStore;
pub use faulty::{DiskFault, DiskFaultPlan, DiskOp, FaultyStable};
pub use stable::{Stable, StableStats, StableStore, StableWriteError};
