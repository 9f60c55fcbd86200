//! Deterministic discrete-event simulation kernel for the `synergy-ft`
//! workspace.
//!
//! The kernel is deliberately small: virtual [`SimTime`], a deterministic
//! event queue with FIFO tie-breaking, cancellable timers, seeded random
//! number streams, and a structured trace recorder. Protocol logic lives in
//! the `synergy-mdcd` / `synergy-tb` crates; this crate only decides *when*
//! things happen.
//!
//! # Example
//!
//! ```rust
//! use synergy_des::{Simulator, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sim: Simulator<Ev> = Simulator::new(42);
//! let a = sim.register_actor("a");
//! sim.schedule_in(SimDuration::from_millis(5), a, Ev::Ping);
//! let fired = sim.step().expect("one event pending");
//! assert_eq!(fired.time, SimTime::ZERO + SimDuration::from_millis(5));
//! assert_eq!(fired.event, Ev::Ping);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod event;
mod queue;
mod rng;
mod simulator;
mod stats;
mod time;
mod trace;

pub use event::{ActorId, EventId, Fired};
pub use rng::DetRng;
pub use simulator::Simulator;
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};
