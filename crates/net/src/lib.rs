//! Message model and transports for `synergy-ft`.
//!
//! This crate defines everything the protocol engines know about messaging —
//! [`Envelope`]s, sequence numbers, piggybacked metadata — plus two ways of
//! moving envelopes around, one per runtime:
//!
//! * [`SimNetwork`]: a *pure* routing model for the discrete-event simulator.
//!   Given a send instant it answers "when does this arrive?", enforcing
//!   per-link FIFO order and bounded delays `[tmin, tmax]`. The DES driver
//!   in the `synergy` crate turns those answers into scheduled events.
//! * [`ReactorTransport`]: length-prefixed codec frames over real sockets,
//!   used by the `synergy-cluster` multi-process runtime. The cluster's node
//!   loop sends through the [`Transport`] trait, so link-fault injection
//!   ([`FaultyTransport`]) wraps the wire without the loop knowing.
//!
//! The time-based checkpointing protocol only relies on the delay bounds and
//! on acknowledgment bookkeeping ([`AckTracker`]), which is why a simulated
//! network preserves its behaviour faithfully (see DESIGN.md §2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ack;
mod delay;
mod fault;
mod faulty;
mod frame;
mod message;
pub mod reactor;
pub mod retry;
mod sim;
mod transport;

pub use ack::AckTracker;
pub use delay::DelayModel;
pub use fault::{LinkFaultPlan, LinkFaults, PartitionWindow};
pub use faulty::{FaultTotals, FaultyTransport};
pub use frame::{
    frame_envelope, frame_envelope_with_acks, FrameDecoder, FrameError, PiggyAck, MAX_PIGGY_ACKS,
};
pub use message::{
    CkptSeqNo, DeviceId, Endpoint, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId,
};
pub use reactor::{ReactorTransport, ReconnectPolicy, SendError, WirePolicy, WireStats};
pub use sim::SimNetwork;
pub use transport::Transport;
