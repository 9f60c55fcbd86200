//! The transport abstraction the live node loop sends through.

use crate::message::Envelope;

/// An asynchronous, fire-and-forget envelope carrier.
///
/// This is the surface the cluster's node loop needs from a network: hand
/// over an envelope addressed by its `to` endpoint and return immediately.
/// Implementations must preserve **per-link FIFO order** (all envelopes
/// from one sender to one destination arrive in send order) and may drop
/// envelopes whose destination is unregistered or unreachable — exactly the
/// contract of the simulator's `SimNetwork`, so the protocol engines behave
/// identically above either.
///
/// The one live implementor is [`ReactorTransport`](crate::ReactorTransport)
/// (length-prefixed frames over real sockets, one process per node);
/// [`FaultyTransport`](crate::FaultyTransport) wraps any implementor with
/// injected link faults.
pub trait Transport: Send + Sync + 'static {
    /// Enqueues `envelope` for delivery to `envelope.to`.
    fn send(&self, envelope: Envelope);
}
