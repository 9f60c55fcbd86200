//! The message-driven confidence-driven (MDCD) error containment and
//! recovery protocol.
//!
//! MDCD (Tai et al., ICDCS 2000) mitigates *software design faults* in a
//! distributed system built from one low-confidence component (an upgraded
//! version) escorted by a high-confidence shadow, interacting with a second
//! high-confidence component:
//!
//! * `P1act` — the **active** process running the low-confidence version; it
//!   drives the external world and is always considered potentially
//!   contaminated (its dirty bit is constantly 1);
//! * `P1sdw` — the **shadow** process running the high-confidence version on
//!   the same inputs; its outgoing messages are suppressed and logged so it
//!   can take over when an acceptance test fails;
//! * `P2` — the **peer** process (second application component).
//!
//! Checkpoints are established in volatile storage *only* when a
//! message-passing event changes our confidence in a process state: right
//! before a state becomes potentially contaminated (**Type-1**) or right
//! after it is validated (**Type-2**, original protocol only). Acceptance
//! tests run on *external* messages only.
//!
//! This crate implements both algorithm variants as sans-io engines — pure
//! state machines consuming [`Event`]s and emitting [`Action`]s:
//!
//! * [`Variant::Original`] — the protocol of §2.1 of the DSN 2001 paper;
//! * [`Variant::Modified`] — the coordination-ready protocol of §3 and
//!   Appendix A: `P1act` gains a pseudo dirty bit and pseudo checkpoints,
//!   Type-2 checkpoints are eliminated, `passed_AT` notifications carry and
//!   match the stable-checkpoint sequence number `Ndc`, and application
//!   messages are held (not delivered) during a TB blocking period while
//!   `passed_AT` notifications are still monitored.
//!
//! The three role engines run over one private core: the state every role
//! keeps, and each rule the roles share written once (message numbering,
//! the `passed_AT` envelope and its `Ndc` admission, the blocking
//! hold-and-release, Type-1 reception, `P2`'s validated external send).
//! Each engine adds only its role's own rules; DESIGN.md's modified-MDCD
//! conformance map names the function and the test for every clause.
//!
//! Engines are deliberately free of time, randomness and I/O; the DES driver
//! in the `synergy` crate and the node loop of the `synergy-cluster`
//! processes both host the same engines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod actions;
mod active;
mod events;
mod hold;
mod log;
mod peer;
mod shadow;
mod shared;
mod snapshot;
mod types;

pub use actions::Action;
pub use active::ActiveEngine;
pub use events::{Event, OutboundMessage};
pub use peer::PeerEngine;
pub use shadow::{ShadowEngine, TakeoverPlan};
pub use snapshot::EngineSnapshot;
pub use types::{CheckpointKind, MdcdConfig, ProcessRole, RecoveryDecision, Variant};
