//! Device sinks: where the fleet's external (device-bound) messages go.
//!
//! The simulator's device is an in-process log; a fleet multiplexes
//! thousands of tenants' device streams into one shared consumer, so the
//! consumer can push back. Sinks speak the transport's own error type —
//! [`SendError::Backpressure`] — so the fleet's stall/retry path exercises
//! exactly the contract the live reactor imposes on senders.

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use synergy_net::{Envelope, SendError};

/// The address a [`BoundedSink`] reports in its backpressure errors: the
/// sink is in-process, so there is no socket behind it.
pub(crate) const SINK_ADDR: SocketAddr = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);

/// A consumer of tenant device streams.
pub trait DeviceSink: Send + Sync {
    /// Accepts one device envelope, or pushes back.
    fn deliver(&self, env: &Envelope) -> Result<(), SendError>;
}

/// Counts deliveries and never pushes back — the sink for throughput
/// drivers, where the device side must not be the bottleneck.
#[derive(Debug, Default)]
pub struct NullSink {
    delivered: AtomicU64,
}

impl NullSink {
    /// Creates a zeroed sink.
    pub fn new() -> NullSink {
        NullSink::default()
    }

    /// Envelopes accepted so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }
}

impl DeviceSink for NullSink {
    fn deliver(&self, _env: &Envelope) -> Result<(), SendError> {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A fixed-capacity queue that must be drained by a consumer; a full
/// queue answers [`SendError::Backpressure`], making tenants stall and
/// retry exactly as they would against a saturated reactor ring.
#[derive(Debug)]
pub struct BoundedSink {
    capacity: usize,
    queue: Mutex<VecDeque<Envelope>>,
}

impl BoundedSink {
    /// Creates a sink holding at most `capacity` undrained envelopes.
    pub fn new(capacity: usize) -> BoundedSink {
        BoundedSink {
            capacity,
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Takes every queued envelope, freeing the whole capacity.
    pub fn drain(&self) -> Vec<Envelope> {
        self.queue
            .lock()
            .expect("sink poisoned")
            .drain(..)
            .collect()
    }

    /// Envelopes currently queued.
    pub fn len(&self) -> usize {
        self.queue.lock().expect("sink poisoned").len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl DeviceSink for BoundedSink {
    fn deliver(&self, env: &Envelope) -> Result<(), SendError> {
        let mut queue = self.queue.lock().expect("sink poisoned");
        if queue.len() >= self.capacity {
            return Err(SendError::Backpressure {
                to: env.to,
                addr: SINK_ADDR,
                queued_bytes: queue.len(),
                capacity: self.capacity,
            });
        }
        queue.push_back(env.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_net::{DeviceId, MessageBody, MsgId, MsgSeqNo, ProcessId};

    fn env(seq: u64) -> Envelope {
        Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(seq),
            },
            DeviceId(0),
            MessageBody::External {
                payload: vec![seq as u8],
            },
        )
    }

    #[test]
    fn bounded_sink_pushes_back_at_capacity_and_recovers_on_drain() {
        let sink = BoundedSink::new(2);
        sink.deliver(&env(0)).unwrap();
        sink.deliver(&env(1)).unwrap();
        match sink.deliver(&env(2)) {
            Err(SendError::Backpressure {
                queued_bytes,
                capacity,
                ..
            }) => {
                assert_eq!(queued_bytes, 2);
                assert_eq!(capacity, 2);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        assert_eq!(sink.drain().len(), 2);
        sink.deliver(&env(2)).unwrap();
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn null_sink_only_counts() {
        let sink = NullSink::new();
        for seq in 0..1000 {
            sink.deliver(&env(seq)).unwrap();
        }
        assert_eq!(sink.delivered(), 1000);
    }
}
