//! Drifting hardware-clock models and resynchronization for `synergy-ft`.
//!
//! The time-based checkpointing protocol (Neves & Fuchs) assumes each node
//! owns a hardware clock whose deviation from every other clock is bounded by
//! `δ` immediately after a resynchronization and grows by at most `2ρτ` over
//! the `τ` time units since, where `ρ` is the maximum drift rate. This crate
//! provides:
//!
//! * [`LocalTime`] — a node-local clock reading, deliberately a different
//!   type from the simulator's global [`SimTime`](synergy_des::SimTime) so
//!   protocol code cannot mix the two axes by accident;
//! * [`DriftingClock`] — a piecewise-linear mapping between true time and a
//!   node's local time;
//! * [`ClockFleet`] — a set of clocks whose pairwise deviation respects `δ`
//!   and whose drift respects `ρ`, plus fleet-wide resynchronization;
//! * [`deviation_bound`] — the `δ + 2ρτ` bound both TB variants build their
//!   blocking periods from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod drift;
mod fleet;
mod local;

pub use drift::DriftingClock;
pub use fleet::{ClockFleet, SyncParams};
pub use local::LocalTime;

use synergy_des::SimDuration;

/// The worst-case deviation between any two clocks `elapsed` time units after
/// a resynchronization: `δ + 2ρτ`.
///
/// # Example
///
/// ```rust
/// use synergy_clocks::deviation_bound;
/// use synergy_des::SimDuration;
///
/// let delta = SimDuration::from_micros(100);
/// let bound = deviation_bound(delta, 1e-4, SimDuration::from_secs(10));
/// // 100us + 2 * 1e-4 * 10s = 100us + 2ms
/// assert_eq!(bound, SimDuration::from_micros(2100));
/// ```
pub fn deviation_bound(delta: SimDuration, rho: f64, elapsed: SimDuration) -> SimDuration {
    delta + elapsed.mul_f64(2.0 * rho)
}
