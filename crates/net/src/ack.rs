//! Acknowledgment bookkeeping for the TB protocol's recoverability rule.
//!
//! The Neves–Fuchs protocol does not block to prevent in-transit messages;
//! instead every process saves, as part of its next stable checkpoint, all
//! application messages it has sent but not yet seen acknowledged, and
//! re-sends them during hardware error recovery (paper §2.2).

use std::collections::VecDeque;
use std::sync::Arc;

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
/// assert_eq!(tracker.unacked_shared()[0].id, id);
/// assert!(tracker.on_ack(id));
/// assert!(tracker.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AckTracker {
    // Sorted by id. Envelopes are held behind `Arc`, so the sender's copy is
    // the one the network delivers and the receiver logs, and bundling the
    // pending set into a checkpoint payload shares rather than deep-copies.
    pending: Vec<Arc<Envelope>>,
}

impl AckTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        AckTracker::default()
    }

    /// Registers a sent message as awaiting acknowledgment; a re-sent id
    /// replaces its entry.
    pub fn on_send(&mut self, envelope: impl Into<Arc<Envelope>>) {
        let envelope = envelope.into();
        match self.find(envelope.id) {
            Ok(i) => self.pending[i] = envelope,
            Err(i) => self.pending.insert(i, envelope),
        }
    }

    fn find(&self, id: MsgId) -> Result<usize, usize> {
        self.pending.binary_search_by_key(&id, |e| e.id)
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
        self.find(of).map(|i| self.pending.remove(i)).is_ok()
    }

    /// Shared handles to the messages that must be included in the next
    /// stable checkpoint, in deterministic (sender, sequence) order; each
    /// element is a refcount bump.
    pub fn unacked_shared(&self) -> Vec<Arc<Envelope>> {
        self.pending.clone()
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
        self.pending.clear();
        messages.into_iter().for_each(|m| self.on_send(m));
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
pub(crate) struct PendingAcks {
    queue: VecDeque<PiggyAck>,
}

impl PendingAcks {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        PendingAcks::default()
    }

    /// Stashes one ack for the next data frame.
    pub(crate) fn push(&mut self, ack: PiggyAck) {
        self.queue.push_back(ack);
    }

    /// Replaces `out`'s contents with up to `max` acks moved out, oldest
    /// first — what the next data frame carries in its header. `out` keeps
    /// its storage, so a buffer reused from frame to frame stops allocating
    /// once it has held `max` acks.
    pub(crate) fn drain_for_frame(&mut self, max: usize, out: &mut Vec<PiggyAck>) {
        let n = self.queue.len().min(max);
        out.clear();
        out.extend(self.queue.drain(..n));
    }

    /// Acks currently waiting for a ride.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no acks are waiting.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Endpoint, MessageBody, MsgSeqNo, ProcessId};

    fn env(seq: u64) -> Envelope {
        env_from(2, seq, seq as u8)
    }

    fn env_from(from: u32, seq: u64, byte: u8) -> Envelope {
        let id = MsgId {
            from: ProcessId(from),
            seq: MsgSeqNo(seq),
        };
        let body = MessageBody::Application {
            payload: vec![byte],
            dirty: false,
        };
        Envelope::new(id, ProcessId(1), body)
    }

    /// `(sender, sequence)` of every pending message, in `unacked_shared`
    /// order.
    fn ids(t: &AckTracker) -> Vec<(u32, u64)> {
        let pending = t.unacked_shared();
        pending.iter().map(|e| (e.id.from.0, e.id.seq.0)).collect()
    }

    #[test]
    fn ack_removes_pending() {
        let mut t = AckTracker::new();
        t.on_send(env(0));
        t.on_send(env(1));
        assert_eq!(t.len(), 2);
        assert!(t.on_ack(env(0).id));
        assert_eq!(ids(&t), vec![(2, 1)]);
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
        t.on_send(env(0));
        assert!(!t.on_ack(env(9).id), "never sent");
        assert!(!t.on_ack(env_from(3, 0, 0).id), "another sender's seq 0");
        assert_eq!(ids(&t), vec![(2, 0)]);
    }

    #[test]
    fn acks_in_reverse_and_in_duplicate_empty_the_window() {
        // The reactor's ack contract: acks may overtake one another.
        for order in [[7, 6, 5, 4, 3, 2, 1, 0], [3, 0, 7, 1, 6, 2, 5, 4]] {
            let mut t = AckTracker::new();
            (0..8).for_each(|seq| t.on_send(env(seq)));
            for (acked, seq) in order.into_iter().enumerate() {
                assert!(t.on_ack(env(seq).id));
                assert!(!t.on_ack(env(seq).id), "the duplicate changes nothing");
                assert_eq!(t.len(), 7 - acked);
                assert!(ids(&t).windows(2).all(|w| w[0] < w[1]), "still sorted");
            }
            assert!(t.is_empty());
        }
    }

    #[test]
    fn a_resent_id_replaces_its_entry() {
        let mut t = AckTracker::new();
        t.on_send(env(1));
        t.on_send(env(2));
        let resent = Arc::new(env_from(2, 1, 0xEE));
        t.on_send(Arc::clone(&resent));
        assert_eq!(ids(&t), vec![(2, 1), (2, 2)]);
        assert!(Arc::ptr_eq(&t.unacked_shared()[0], &resent), "replaced");
        assert!(t.on_ack(resent.id));
        assert_eq!(ids(&t), vec![(2, 2)]);
    }

    /// What out-of-order sends and restores must yield: `(sender,
    /// sequence)` order.
    const ORDERED: [(u32, u64); 5] = [(1, 4), (2, 1), (2, 3), (2, 5), (3, 0)];

    #[test]
    fn unacked_is_ordered_by_sequence() {
        let mut t = AckTracker::new();
        for (from, seq) in [(2, 5), (3, 0), (2, 1), (1, 4), (2, 3)] {
            t.on_send(env_from(from, seq, 0));
        }
        assert_eq!(ids(&t), ORDERED);
    }

    #[test]
    fn restore_replaces_state() {
        let mut t = AckTracker::new();
        t.on_send(env(0));
        t.restore([(3, 0), (2, 5), (1, 4), (2, 3), (2, 1)].map(|(f, s)| env_from(f, s, 0)));
        assert_eq!(ids(&t), ORDERED);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn unacked_shared_aliases_pending_entries() {
        let mut t = AckTracker::new();
        let shared = Arc::new(env(0));
        t.on_send(Arc::clone(&shared));
        let out = t.unacked_shared();
        assert_eq!(out.len(), 1);
        assert!(Arc::ptr_eq(&out[0], &shared), "no deep copy");
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
        let mut out = Vec::new();
        p.drain_for_frame(3, &mut out);
        assert_eq!(out, vec![piggy(0), piggy(1), piggy(2)]);
        assert_eq!(p.len(), 2);
        p.drain_for_frame(10, &mut out);
        assert_eq!(out, vec![piggy(3), piggy(4)]);
        assert!(p.is_empty());
        p.drain_for_frame(10, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn pending_acks_drain_reuses_the_callers_buffer() {
        let mut p = PendingAcks::new();
        for seq in 0..6 {
            p.push(piggy(seq));
        }
        let mut out = Vec::with_capacity(4);
        p.drain_for_frame(4, &mut out);
        let (storage, capacity) = (out.as_ptr(), out.capacity());
        p.drain_for_frame(4, &mut out);
        assert_eq!(out, vec![piggy(4), piggy(5)], "oldest first, replaced");
        assert_eq!(
            (out.as_ptr(), out.capacity()),
            (storage, capacity),
            "the second drain reallocated"
        );
    }

    #[test]
    fn resend_after_restore_matches_checkpoint_contents() {
        // The recoverability rule: what was unacked at checkpoint time is
        // exactly what gets re-sent after recovery.
        let mut t = AckTracker::new();
        t.on_send(env(0));
        t.on_send(env(1));
        let checkpointed = t.unacked_shared();
        t.on_ack(env(0).id); // progress after the checkpoint is lost...
        let mut recovered = AckTracker::new();
        recovered.restore(checkpointed.clone());
        assert_eq!(recovered.unacked_shared(), checkpointed);
    }
}
