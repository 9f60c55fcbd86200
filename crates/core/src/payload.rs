//! The composite checkpoint payload.
//!
//! Bulky payload fields (application bytes, envelope logs, sent records)
//! live behind `Arc`s: bundling a payload — which MDCD does on every
//! confidence-changing message — shares the host's buffers instead of
//! deep-copying them. `Arc<T>`/`Arc<[T]>` encode byte-identically to
//! `T`/`Vec<T>`, so checkpoint records and CRCs are unchanged.

use std::sync::Arc;

use synergy_codec::codec_struct;
use synergy_des::SimTime;
use synergy_mdcd::EngineSnapshot;
use synergy_net::{Envelope, MsgSeqNo, ProcessId};
use synergy_storage::{Checkpoint, CheckpointError};

/// One outgoing application message, as recorded by the host for the
/// global-state checkers (who needs to know *where* each sequence number
/// went, which the engine's counter alone cannot tell).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SentRecord {
    /// Destination process.
    pub to: ProcessId,
    /// Sender-assigned sequence number.
    pub seq: MsgSeqNo,
}

/// Everything one process must persist to be recoverable: application state,
/// MDCD engine control state, and — for stable checkpoints — the messages
/// sent but not yet acknowledged (the TB recoverability rule, paper §2.2).
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointPayload {
    /// Serialized application state (shared; cloning a payload bumps a
    /// refcount).
    pub app: Arc<[u8]>,
    /// MDCD engine snapshot taken at the same instant.
    pub engine: EngineSnapshot,
    /// Unacknowledged outgoing messages to re-send on hardware recovery
    /// (empty in volatile checkpoints — MDCD recovery restores messages from
    /// the shadow's log instead).
    pub unacked: Vec<Arc<Envelope>>,
    /// Every process-to-process application message this state reflects as
    /// sent, in sending order (consumed by the global-state checkers).
    pub sent: Arc<[SentRecord]>,
    /// Receive log attached to volatile-copy stable checkpoints: messages
    /// delivered *after* the copied state was snapshotted. On hardware
    /// recovery the driver replays those of them that the restored global
    /// cut still reflects as sent, closing the receiver-side recoverability
    /// gap (DESIGN.md §8, decision 5). Empty for current-state checkpoints.
    pub replay: Vec<Arc<Envelope>>,
    /// True simulation time of the *state* captured here. Copying a volatile
    /// checkpoint into a stable one preserves this timestamp: rollback
    /// distance is measured against the age of the restored state, not the
    /// time the disk write happened.
    pub state_time_nanos: u64,
}

/// Implements `Codec` for a `{ ProcessId, MsgSeqNo }` record with the layout
/// `codec_struct!` gives it — a `u32`, then a `u64` — and the slice-encoding
/// hook overridden. A checkpoint image is little else than lists of these
/// (what the state reflects as sent, what it reflects as received), growing
/// with the mission and encoded at every checkpoint: a list reserves its
/// bytes once and writes each record as one 12-byte store.
macro_rules! codec_pid_seq_record {
    ($ty:ident { $pid:ident, $seq:ident }) => {
        impl synergy_codec::Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                Self::encode_slice(std::slice::from_ref(self), out);
            }

            fn decode(
                r: &mut synergy_codec::Reader<'_>,
            ) -> Result<Self, synergy_codec::CodecError> {
                Ok($ty {
                    $pid: synergy_codec::Codec::decode(r)?,
                    $seq: synergy_codec::Codec::decode(r)?,
                })
            }

            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                out.reserve(items.len() * 12);
                for item in items {
                    let mut record = [0u8; 12];
                    record[..4].copy_from_slice(&item.$pid.0.to_le_bytes());
                    record[4..].copy_from_slice(&item.$seq.0.to_le_bytes());
                    out.extend_from_slice(&record);
                }
            }
        }
    };
}
pub(crate) use codec_pid_seq_record;

codec_pid_seq_record!(SentRecord { to, seq });
codec_struct!(CheckpointPayload {
    app,
    engine,
    unacked,
    sent,
    replay,
    state_time_nanos
});

impl CheckpointPayload {
    /// Bundles a payload. Callers that already hold shared buffers pass them
    /// through untouched; `Vec`s are converted (one copy) at the boundary.
    pub fn new(
        app: impl Into<Arc<[u8]>>,
        engine: EngineSnapshot,
        unacked: Vec<Arc<Envelope>>,
        sent: impl Into<Arc<[SentRecord]>>,
        state_time: SimTime,
    ) -> Self {
        CheckpointPayload {
            app: app.into(),
            engine,
            unacked,
            sent: sent.into(),
            replay: Vec::new(),
            state_time_nanos: state_time.as_nanos(),
        }
    }

    /// The instant the captured state was live.
    pub fn state_time(&self) -> SimTime {
        SimTime::from_nanos(self.state_time_nanos)
    }

    /// Encodes into a storage [`Checkpoint`] record.
    ///
    /// # Errors
    ///
    /// Propagates codec failures (none occur for well-formed payloads).
    pub fn into_checkpoint(
        self,
        seq: u64,
        label: impl Into<String>,
    ) -> Result<Checkpoint, CheckpointError> {
        self.to_checkpoint(seq, label)
    }

    /// Borrowing variant of [`into_checkpoint`](Self::into_checkpoint).
    ///
    /// # Errors
    ///
    /// Propagates codec failures (none occur for well-formed payloads).
    pub fn to_checkpoint(
        &self,
        seq: u64,
        label: impl Into<String>,
    ) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::encode(seq, self.state_time(), label, self)
    }

    /// Encodes into a [`Checkpoint`] through a caller-owned scratch buffer
    /// (see [`Checkpoint::encode_with_scratch`]); repeated checkpointing
    /// reuses one serialization allocation.
    ///
    /// # Errors
    ///
    /// Propagates codec failures (none occur for well-formed payloads).
    pub fn to_checkpoint_with(
        &self,
        seq: u64,
        label: impl Into<String>,
        scratch: &mut Vec<u8>,
    ) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::encode_with_scratch(seq, self.state_time(), label, self, scratch)
    }

    /// Decodes a payload back out of a storage record.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on corruption or format mismatch.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self, CheckpointError> {
        ckpt.decode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_net::MsgSeqNo;

    fn sample() -> CheckpointPayload {
        CheckpointPayload::new(
            vec![1, 2, 3],
            EngineSnapshot {
                dirty: true,
                msg_sn: MsgSeqNo(4),
                ..EngineSnapshot::default()
            },
            Vec::new(),
            vec![SentRecord {
                to: ProcessId(3),
                seq: MsgSeqNo(4),
            }],
            SimTime::from_secs_f64(1.5),
        )
    }

    #[test]
    fn roundtrips_through_storage() {
        let payload = sample();
        let ckpt = payload.clone().into_checkpoint(7, "stable").unwrap();
        assert_eq!(ckpt.seq(), 7);
        assert_eq!(ckpt.taken_at(), SimTime::from_secs_f64(1.5));
        let back = CheckpointPayload::from_checkpoint(&ckpt).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn record_lists_encode_like_their_fields_one_by_one() {
        use crate::app::ReceiptRecord;
        use synergy_codec::{from_bytes, to_bytes, Codec, CodecError};

        let pairs: Vec<(ProcessId, MsgSeqNo)> = (0..5u32)
            .map(|i| (ProcessId(i + 1), MsgSeqNo(u64::from(i) << 33 | 7)))
            .collect();
        // The layout written out longhand: a count, then each record's two
        // fields through their own codecs.
        let mut want = (pairs.len() as u64).to_le_bytes().to_vec();
        for (pid, seq) in &pairs {
            pid.encode(&mut want);
            seq.encode(&mut want);
        }
        let sent: Vec<SentRecord> = pairs
            .iter()
            .map(|&(to, seq)| SentRecord { to, seq })
            .collect();
        let received: Vec<ReceiptRecord> = pairs
            .iter()
            .map(|&(from, seq)| ReceiptRecord { from, seq })
            .collect();
        assert_eq!(to_bytes(&sent).unwrap(), want);
        assert_eq!(to_bytes(&received).unwrap(), want);
        assert_eq!(from_bytes::<Vec<SentRecord>>(&want).unwrap(), sent);
        assert_eq!(from_bytes::<Vec<ReceiptRecord>>(&want).unwrap(), received);
        // One record alone is one element of the list.
        assert_eq!(to_bytes(&sent[1]).unwrap(), want[8 + 12..8 + 24]);
        assert_eq!(from_bytes::<SentRecord>(&want[8 + 12..8 + 24]), Ok(sent[1]));
        // A list cut short is refused whole, and a count the input cannot
        // hold is refused before anything is allocated for it.
        assert_eq!(
            from_bytes::<Vec<SentRecord>>(&want[..want.len() - 1]),
            Err(CodecError::UnexpectedEof)
        );
        want[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            from_bytes::<Vec<ReceiptRecord>>(&want),
            Err(CodecError::LengthOverflow)
        );
    }

    #[test]
    fn state_time_survives_copying() {
        // Copying volatile -> stable must preserve the original state time:
        // this is what makes rollback-distance accounting honest.
        let payload = sample();
        let volatile = payload.clone().into_checkpoint(1, "type1").unwrap();
        let copied = CheckpointPayload::from_checkpoint(&volatile).unwrap();
        let stable = copied.into_checkpoint(2, "stable-copy").unwrap();
        assert_eq!(stable.taken_at(), SimTime::from_secs_f64(1.5));
    }
}
