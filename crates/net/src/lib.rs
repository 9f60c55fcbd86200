//! Message model and transports for `synergy-ft`.
//!
//! This crate defines everything the protocol engines know about messaging —
//! [`Envelope`]s, sequence numbers, piggybacked metadata — plus three ways of
//! moving envelopes around:
//!
//! * [`SimNetwork`]: a *pure* routing model for the discrete-event simulator.
//!   Given a send instant it answers "when does this arrive, if ever?",
//!   enforcing per-link FIFO order, bounded delays `[tmin, tmax]`, and
//!   optional loss/duplication injection. The DES driver in the `synergy`
//!   crate turns those answers into scheduled events.
//! * [`threaded::ThreadedNet`]: a channel transport with a delivery thread,
//!   used by the `synergy-middleware` runtime.
//! * [`ReactorTransport`]: length-prefixed codec frames over real sockets,
//!   used by the `synergy-cluster` multi-process runtime. The [`Transport`]
//!   trait abstracts over the last two so the middleware node loop is
//!   transport-agnostic.
//!
//! The time-based checkpointing protocol only relies on the delay bounds and
//! on acknowledgment bookkeeping ([`AckTracker`]), which is why a simulated
//! network preserves its behaviour faithfully (see DESIGN.md §2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ack;
mod delay;
mod fault;
mod faulty;
mod frame;
mod message;
pub mod reactor;
pub mod retry;
mod sim;
pub mod threaded;
mod transport;

pub use ack::{AckTracker, PendingAcks};
pub use delay::DelayModel;
pub use fault::{LinkFaultPlan, LinkFaults, PartitionWindow};
pub use faulty::{FaultTotals, FaultyTransport, LostFrame};
pub use frame::{
    frame_envelope, frame_envelope_with_acks, FrameDecoder, FrameError, PiggyAck, MAX_FRAME_LEN,
    MAX_PIGGY_ACKS,
};
pub use message::{
    CkptSeqNo, DeviceId, Endpoint, Envelope, MessageBody, MissionId, MsgId, MsgSeqNo, ProcessId,
};
pub use reactor::{
    GaveUpRoute, ReactorTransport, ReconnectPolicy, SendError, WirePolicy, WireStats,
};
pub use sim::{LinkKey, RouteDecision, SimNetwork};
pub use transport::Transport;
