//! The time-based (TB) checkpointing protocol of Neves & Fuchs, plus the
//! *adapted* variant that coordinates with the modified MDCD protocol
//! (DSN 2001 paper, §2.2 and §4).
//!
//! Time-based protocols establish stable-storage checkpoints from
//! approximately synchronized, periodically resynchronized timers — no
//! message exchange is needed to coordinate the processes. Two hazards must
//! be designed away (paper Fig. 2):
//!
//! * **consistency** — a message sent after the sender checkpointed but read
//!   before the receiver checkpointed; prevented by *blocking* the process
//!   for a period after its timer expires, sized so every other timer has
//!   expired by the time it may send again;
//! * **recoverability** — an in-transit message captured as sent but not
//!   received; prevented without blocking by saving all unacknowledged
//!   messages in the next checkpoint and re-sending them during recovery.
//!
//! The **adapted** variant (paper §4.2, Fig. 5) additionally consults the
//! MDCD dirty bit when its timer expires: a *clean* process saves its
//! current state; a *dirty* process instead copies its most recent volatile
//! checkpoint — the last state known non-contaminated — and, should a
//! `passed_AT` notification clear the dirty bit inside the blocking period,
//! **aborts the copy and replaces it with the current state**. Its blocking
//! period is lengthened to `δ + 2ρτ + tmax` while dirty so that any
//! validation notification that could affect the checkpoint is guaranteed to
//! arrive inside the blocking period (never in transit across it).
//!
//! Like `synergy-mdcd`, the engine here is sans-io: it consumes [`Event`]s
//! and emits [`Action`]s, and the hosting driver owns clocks, storage and
//! transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod actions;
mod blocking;
mod config;
mod engine;
mod events;

pub use actions::{Action, ContentsChoice};
pub use blocking::{blocking_period, Tm};
pub use config::{TbConfig, TbVariant};
pub use engine::TbEngine;
pub use events::Event;
