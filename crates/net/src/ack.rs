//! Acknowledgment bookkeeping for the TB protocol's recoverability rule.
//!
//! The Neves–Fuchs protocol does not block to prevent in-transit messages;
//! instead every process saves, as part of its next stable checkpoint, all
//! application messages it has sent but not yet seen acknowledged, and
//! re-sends them during hardware error recovery (paper §2.2).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use synergy_codec::codec_struct;

use crate::frame::PiggyAck;
use crate::message::{Envelope, MsgId};

/// Tracks sent-but-unacknowledged messages for one process.
///
/// # Example
///
/// ```rust
/// use synergy_net::{AckTracker, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId};
///
/// let mut tracker = AckTracker::new();
/// let id = MsgId { from: ProcessId(2), seq: MsgSeqNo(0) };
/// tracker.on_send(Envelope::new(id, ProcessId(1), MessageBody::Application {
///     payload: vec![1, 2],
///     dirty: false,
/// }));
/// assert_eq!(tracker.unacked().len(), 1);
/// assert!(tracker.on_ack(id));
/// assert!(tracker.unacked().is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AckTracker {
    // Envelopes are held behind `Arc` so bundling the pending set into a
    // checkpoint payload (every volatile checkpoint does) shares rather
    // than deep-copies them.
    pending: BTreeMap<MsgId, Arc<Envelope>>,
}

codec_struct!(AckTracker { pending });

impl AckTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        AckTracker::default()
    }

    /// Registers a sent message as awaiting acknowledgment.
    pub fn on_send(&mut self, envelope: impl Into<Arc<Envelope>>) {
        let envelope = envelope.into();
        self.pending.insert(envelope.id, envelope);
    }

    /// Records an acknowledgment. Returns `true` when the message was
    /// pending (false acks — e.g. duplicates — are ignored).
    ///
    /// This is order-free set removal, and the live wire relies on it:
    /// data frames stay FIFO per link, but acks may arrive in any order
    /// relative to one another (the reactor piggybacks some on data frames
    /// and sends others on standalone carrier frames), more than once, or
    /// for a message already forgotten. The pending set after a batch of
    /// acks depends only on *which* messages were acked.
    pub fn on_ack(&mut self, of: MsgId) -> bool {
        self.pending.remove(&of).is_some()
    }

    /// The messages that must be included in the next stable checkpoint, in
    /// deterministic (sender, sequence) order — deep copies; prefer
    /// [`unacked_shared`](Self::unacked_shared) on hot paths.
    pub fn unacked(&self) -> Vec<Envelope> {
        self.pending.values().map(|e| (**e).clone()).collect()
    }

    /// Shared handles to the pending messages in deterministic (sender,
    /// sequence) order; each element is a refcount bump.
    pub fn unacked_shared(&self) -> Vec<Arc<Envelope>> {
        self.pending.values().cloned().collect()
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is awaiting acknowledgment.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Replaces the pending set with the one recovered from a checkpoint.
    pub fn restore<T: Into<Arc<Envelope>>>(&mut self, messages: impl IntoIterator<Item = T>) {
        self.pending = messages
            .into_iter()
            .map(|m| {
                let m = m.into();
                (m.id, m)
            })
            .collect();
    }

    /// Forgets everything (process restart without recovery).
    pub fn clear(&mut self) {
        self.pending.clear();
    }
}

/// Acks waiting to piggyback on the next outbound data frame.
///
/// The reactor's per-route ring stashes ack envelopes here instead of
/// encoding them as standalone frames; at flush time
/// [`drain_for_frame`](Self::drain_for_frame) moves up to a frame's worth
/// of them into the next data frame's header (see
/// [`frame_envelope_with_acks`](crate::frame_envelope_with_acks)). Safe
/// because acks are idempotent and order-free with respect to every other
/// message class — an ack overtaking queued data changes nothing the
/// [`AckTracker`] can observe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PendingAcks {
    queue: VecDeque<PiggyAck>,
}

impl PendingAcks {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PendingAcks::default()
    }

    /// Stashes one ack for the next data frame.
    pub fn push(&mut self, ack: PiggyAck) {
        self.queue.push_back(ack);
    }

    /// Moves up to `max` acks out, oldest first — what the next data frame
    /// carries in its header.
    pub fn drain_for_frame(&mut self, max: usize) -> Vec<PiggyAck> {
        let n = self.queue.len().min(max);
        self.queue.drain(..n).collect()
    }

    /// Acks currently waiting for a ride.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no acks are waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Endpoint, MessageBody, MsgSeqNo, ProcessId};

    fn env(seq: u64) -> Envelope {
        Envelope::new(
            MsgId {
                from: ProcessId(2),
                seq: MsgSeqNo(seq),
            },
            ProcessId(1),
            MessageBody::Application {
                payload: vec![seq as u8],
                dirty: false,
            },
        )
    }

    #[test]
    fn ack_removes_pending() {
        let mut t = AckTracker::new();
        t.on_send(env(0));
        t.on_send(env(1));
        assert_eq!(t.len(), 2);
        assert!(t.on_ack(env(0).id));
        assert_eq!(t.unacked(), vec![env(1)]);
    }

    #[test]
    fn duplicate_ack_is_ignored() {
        let mut t = AckTracker::new();
        t.on_send(env(0));
        assert!(t.on_ack(env(0).id));
        assert!(!t.on_ack(env(0).id));
    }

    #[test]
    fn ack_for_unknown_message_is_ignored() {
        let mut t = AckTracker::new();
        assert!(!t.on_ack(env(9).id));
        assert!(t.is_empty());
    }

    #[test]
    fn acks_in_reverse_and_in_duplicate_empty_the_window() {
        // The reactor's ack contract: acks may overtake one another.
        let mut t = AckTracker::new();
        for seq in 0..8 {
            t.on_send(env(seq));
        }
        for seq in (0..8).rev() {
            assert!(t.on_ack(env(seq).id));
            assert!(!t.on_ack(env(seq).id), "the duplicate changes nothing");
            assert_eq!(t.len() as u64, seq);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn unacked_is_ordered_by_sequence() {
        let mut t = AckTracker::new();
        t.on_send(env(5));
        t.on_send(env(1));
        t.on_send(env(3));
        let seqs: Vec<u64> = t.unacked().iter().map(|e| e.id.seq.0).collect();
        assert_eq!(seqs, vec![1, 3, 5]);
    }

    #[test]
    fn unacked_shared_aliases_pending_entries() {
        let mut t = AckTracker::new();
        let shared = Arc::new(env(0));
        t.on_send(Arc::clone(&shared));
        let out = t.unacked_shared();
        assert_eq!(out.len(), 1);
        assert!(Arc::ptr_eq(&out[0], &shared), "no deep copy");
        assert_eq!(t.unacked(), vec![env(0)]);
    }

    #[test]
    fn restore_replaces_state() {
        let mut t = AckTracker::new();
        t.on_send(env(0));
        t.restore([env(7), env(8)]);
        let seqs: Vec<u64> = t.unacked().iter().map(|e| e.id.seq.0).collect();
        assert_eq!(seqs, vec![7, 8]);
        t.clear();
        assert!(t.is_empty());
    }

    fn piggy(seq: u64) -> PiggyAck {
        PiggyAck {
            to: Endpoint::from(ProcessId(2)),
            id: MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(1000 + seq),
            },
            of: MsgId {
                from: ProcessId(2),
                seq: MsgSeqNo(seq),
            },
        }
    }

    #[test]
    fn pending_acks_drain_oldest_first_up_to_the_frame_cap() {
        let mut p = PendingAcks::new();
        for seq in 0..5 {
            p.push(piggy(seq));
        }
        let first = p.drain_for_frame(3);
        assert_eq!(first, vec![piggy(0), piggy(1), piggy(2)]);
        assert_eq!(p.len(), 2);
        let rest = p.drain_for_frame(10);
        assert_eq!(rest, vec![piggy(3), piggy(4)]);
        assert!(p.is_empty());
        assert!(p.drain_for_frame(10).is_empty());
    }

    #[test]
    fn resend_after_restore_matches_checkpoint_contents() {
        // The recoverability rule: what was unacked at checkpoint time is
        // exactly what gets re-sent after recovery.
        let mut t = AckTracker::new();
        t.on_send(env(0));
        t.on_send(env(1));
        let checkpointed = t.unacked();
        t.on_ack(env(0).id); // progress after the checkpoint is lost...
        let mut recovered = AckTracker::new();
        recovered.restore(checkpointed.clone());
        assert_eq!(recovered.unacked(), checkpointed);
    }
}
