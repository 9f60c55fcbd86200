//! The shadow's suppressed-message log.

use std::collections::BTreeMap;
use std::sync::Arc;

use synergy_codec::codec_struct;
use synergy_net::{Envelope, MsgSeqNo};

/// Ordered log of the shadow process's suppressed outgoing messages.
///
/// On a `passed_AT` notification the log is reclaimed up to the reported
/// valid sequence number (`memory_reclamation(msg_log)` in Appendix A); on
/// takeover the remaining entries — exactly the messages sent by `P1act`
/// after its last validation — are re-sent.
///
/// # Example
///
/// ```rust
/// use synergy_mdcd::MessageLog;
/// use synergy_net::{Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId};
///
/// let mut log = MessageLog::new();
/// for seq in 1..=3 {
///     let id = MsgId { from: ProcessId(1), seq: MsgSeqNo(seq) };
///     log.push(Envelope::new(id, ProcessId(2), MessageBody::Application {
///         payload: vec![],
///         dirty: true,
///     }));
/// }
/// log.reclaim_up_to(MsgSeqNo(2));
/// let remaining: Vec<u64> = log.entries_after(MsgSeqNo(0)).map(|e| e.id.seq.0).collect();
/// assert_eq!(remaining, vec![3]);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MessageLog {
    // Shared, as the ack tracker's pending set is: a checkpoint bundles the
    // whole log, and that must be refcount bumps, not copies of payloads.
    // `Arc<Envelope>` encodes exactly as `Envelope`.
    entries: BTreeMap<MsgSeqNo, Arc<Envelope>>,
}

codec_struct!(MessageLog { entries });

impl MessageLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        MessageLog::default()
    }

    /// Appends a suppressed message (keyed by its sequence number).
    pub fn push(&mut self, envelope: impl Into<Arc<Envelope>>) {
        let envelope = envelope.into();
        self.entries.insert(envelope.id.seq, envelope);
    }

    /// Drops all entries with sequence number `<= upto` (they are known
    /// valid and will never need re-sending).
    pub fn reclaim_up_to(&mut self, upto: MsgSeqNo) {
        self.entries = self.entries.split_off(&upto.next());
    }

    /// Entries with sequence number `> after`, in order.
    pub fn entries_after(&self, after: MsgSeqNo) -> impl Iterator<Item = &Envelope> {
        self.entries.range(after.next()..).map(|(_, e)| &**e)
    }

    /// All entries in order.
    pub fn entries(&self) -> impl Iterator<Item = &Envelope> {
        self.entries.values().map(|e| &**e)
    }

    /// Number of logged messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replaces the log contents (restore from a checkpoint).
    pub fn restore(&mut self, entries: impl IntoIterator<Item = Arc<Envelope>>) {
        self.entries = entries.into_iter().map(|e| (e.id.seq, e)).collect();
    }

    /// Shared handles to the entries, in order, for inclusion in a
    /// checkpoint; each element is a refcount bump.
    pub fn to_vec(&self) -> Vec<Arc<Envelope>> {
        self.entries.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_net::{MessageBody, MsgId, ProcessId};

    fn env(seq: u64) -> Envelope {
        Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(seq),
            },
            ProcessId(2),
            MessageBody::Application {
                payload: vec![seq as u8],
                dirty: true,
            },
        )
    }

    #[test]
    fn reclaim_drops_validated_prefix() {
        let mut log = MessageLog::new();
        for s in 1..=5 {
            log.push(env(s));
        }
        log.reclaim_up_to(MsgSeqNo(3));
        let left: Vec<u64> = log.entries().map(|e| e.id.seq.0).collect();
        assert_eq!(left, vec![4, 5]);
    }

    #[test]
    fn reclaim_past_end_empties_log() {
        let mut log = MessageLog::new();
        log.push(env(1));
        log.reclaim_up_to(MsgSeqNo(100));
        assert!(log.is_empty());
    }

    #[test]
    fn reclaim_zero_keeps_everything() {
        let mut log = MessageLog::new();
        log.push(env(1));
        log.push(env(2));
        log.reclaim_up_to(MsgSeqNo(0));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn entries_after_is_exclusive() {
        let mut log = MessageLog::new();
        for s in 1..=4 {
            log.push(env(s));
        }
        let after2: Vec<u64> = log.entries_after(MsgSeqNo(2)).map(|e| e.id.seq.0).collect();
        assert_eq!(after2, vec![3, 4]);
    }

    #[test]
    fn restore_roundtrips_through_vec() {
        let mut log = MessageLog::new();
        log.push(env(7));
        log.push(env(9));
        let copy = log.to_vec();
        let mut restored = MessageLog::new();
        restored.restore(copy);
        assert_eq!(restored, log);
    }
}
