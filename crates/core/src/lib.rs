//! Synergistic coordination between software (MDCD) and hardware (TB)
//! fault-tolerance protocols — a reproduction of Tai, Tso, Alkalai, Chau &
//! Sanders, *"Synergistic Coordination between Software and Hardware Fault
//! Tolerance Techniques"*, DSN 2001.
//!
//! The crate assembles the sans-io protocol engines from [`synergy_mdcd`]
//! and [`synergy_tb`] into a complete three-node guarded system running on
//! the deterministic simulator from [`synergy_des`]:
//!
//! * `P1act` — active, low-confidence version of application component 1;
//! * `P1sdw` — its high-confidence shadow (messages suppressed and logged);
//! * `P2` — the second, high-confidence application component.
//!
//! # Schemes
//!
//! [`Scheme`] selects how (and whether) the two protocols run together:
//!
//! | Scheme | Software FT | Hardware FT | Paper reference |
//! |---|---|---|---|
//! | [`Scheme::Coordinated`] | modified MDCD | adapted TB | §3 + §4 (the contribution) |
//! | [`Scheme::WriteThrough`] | original MDCD | Type-2 checkpoints written through to disk | §3 (baseline) |
//! | [`Scheme::Naive`] | original MDCD | original TB, no coordination | §4.1 (what goes wrong) |
//! | [`Scheme::MdcdOnly`] | original MDCD | none | §2.1 |
//!
//! # Quick start
//!
//! ```rust
//! use synergy::{Mission, Scheme, SystemConfig};
//!
//! let config = SystemConfig::builder()
//!     .scheme(Scheme::Coordinated)
//!     .seed(42)
//!     .duration_secs(120.0)
//!     .internal_rate_per_min(60.0)
//!     .external_rate_per_min(2.0)
//!     .hardware_fault_at_secs(90.0)
//!     .build();
//! let outcome = Mission::new(config).run();
//! assert!(outcome.verdicts.all_hold());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod app;
pub mod checkers;
pub mod config;
pub mod explorer;
pub mod faults;
pub mod metrics;
pub mod model;
pub mod payload;
pub mod regime;
pub mod roles;
pub mod scenario;
mod sweep;
pub mod system;
mod workload;

pub use app::{Application, CounterApp};
pub use checkers::Verdicts;
pub use config::{MissionId, Scheme, SystemConfig, SystemConfigBuilder};
pub use faults::{FaultPlan, FaultPlanError, HardwareFault, NodeId, SoftwareFault};
pub use metrics::RunMetrics;
pub use payload::{CheckpointPayload, SentRecord};
pub use regime::{
    run_regime_mission, AtCoveragePlan, BadMessagePlan, ByzantinePlan, EscapeRecord, RegimePlan,
    RegimeReport, RegimeVerdict, ResyncViolationPlan,
};
pub use sweep::sweep;
pub use system::{Mission, MissionOutcome, System};
