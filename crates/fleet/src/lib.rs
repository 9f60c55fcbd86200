//! Fleet multi-tenancy for the synergy-ft runtime: multiplex thousands of
//! independent guarded-system missions over one shared runtime.
//!
//! Each paper system is one *mission* — three guarded processes, MDCD +
//! adapted-TB coordination, a device. A fleet runs many of them at once
//! as *tenants* of a shared scheduler: every tenant owns a complete
//! sans-io [`System`](synergy::System) advanced cooperatively in bounded
//! event quanta on a fixed worker pool, kept in a slot map keyed by its
//! [`MissionId`].
//!
//! To run many seeded missions and compare their outcomes, use
//! [`synergy::sweep`]; this crate stays only while the benchmark's
//! by-hand `fleet_2k` workload links it.
//!
//! The design rests on three invariants:
//!
//! 1. **Identity is a key, not an input.** A mission id is never on the
//!    wire and never feeds a random stream, so a tenant's protocol
//!    behaviour is byte-identical to a standalone simulator run of the
//!    same seed — the determinism test diffs the two device streams and
//!    full run metrics.
//! 2. **Isolation is a quantum.** A scheduler pass grants each runnable
//!    tenant at most [`FleetConfig::quantum_events`] simulator events;
//!    a tenant mid-crash-recovery (or stalled on device backpressure)
//!    spends its own budget and nobody else's.
//! 3. **Admission is a budget.** The slot map admits at most
//!    [`FleetConfig::slots`] resident tenants and rejects the rest with
//!    [`FleetError::AdmissionRejected`], so a fleet's footprint is
//!    bounded by configuration, not by workload.
//!
//! # Quick start
//!
//! ```rust
//! use std::sync::Arc;
//! use synergy::{Scheme, SystemConfig};
//! use synergy_fleet::{FleetConfig, FleetManager, MissionId, NullSink};
//!
//! let fleet = FleetManager::new(
//!     FleetConfig::default().with_slots(16).with_workers(2),
//!     Arc::new(NullSink::new()),
//! );
//! for i in 1..=16u64 {
//!     let cfg = SystemConfig::builder()
//!         .scheme(Scheme::Coordinated)
//!         .mission(MissionId(i))
//!         .seed(i)
//!         .duration_secs(5.0)
//!         .trace(false)
//!         .build();
//!     fleet.attach(cfg).unwrap();
//! }
//! let completed = fleet.run_until_idle();
//! assert_eq!(completed, 16);
//! assert_eq!(fleet.stats().completed(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod error;
pub mod lifecycle;
mod manager;
pub mod sink;
pub mod stats;
mod tenant;

pub use error::FleetError;
pub use lifecycle::TenantState;
pub use manager::{FleetConfig, FleetManager, PassOutcome};
pub use sink::{BoundedSink, DeviceSink, NullSink};
pub use stats::{FleetStats, TenantStats};
pub use synergy::MissionId;
pub use tenant::TenantReport;
