//! A fault-injecting [`Stable`] wrapper for chaos campaigns.
//!
//! [`FaultyStable`] sits between the TB runtime and a real backend
//! (typically [`DiskStableStore`](crate::DiskStableStore)) and fails
//! selected operations with [`StableWriteError::Io`] — the error a real
//! `fsync` failure surfaces — without touching the backend. The faults are
//! *transient*: each [`DiskFault`] fails the first
//! [`times`](DiskFault::times) attempts of one operation at one checkpoint
//! sequence number, then lets retries through. That models the flaky-disk
//! regime the TB runtime's bounded retry is built to mask; a fault with a
//! large `times` models a persistently failing device, which the runtime
//! surfaces instead of masking.
//!
//! Torn writes and read-back bit-rot need no wrapper: a torn write is a
//! real `SIGKILL` between begin and commit (the campaign's crash injector
//! does that for real), and bit-rot is a byte flipped in a committed
//! `ckpt-*.bin` file by the orchestrator, exercising the CRC-verified
//! reload path of the disk store itself.

use synergy_codec::{codec_struct, Codec, CodecError, Reader};

use crate::checkpoint::Checkpoint;
use crate::stable::{Stable, StableStats, StableWriteError};

/// Which stable-store operation a [`DiskFault`] targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskOp {
    /// The `begin_write` fsync of the in-flight file.
    Begin,
    /// The `replace_in_progress` rewrite of the in-flight file.
    Replace,
    /// The `commit_write` rename/directory-fsync.
    Commit,
}

impl Codec for DiskOp {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u32 = match self {
            DiskOp::Begin => 0,
            DiskOp::Replace => 1,
            DiskOp::Commit => 2,
        };
        tag.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(r)? {
            0 => Ok(DiskOp::Begin),
            1 => Ok(DiskOp::Replace),
            2 => Ok(DiskOp::Commit),
            other => Err(CodecError::InvalidVariant(other)),
        }
    }
}

/// One injected failure: the first `times` attempts of `op` for the
/// checkpoint with sequence number `seq` fail with an I/O error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskFault {
    /// Checkpoint sequence number (epoch) the fault targets.
    pub seq: u64,
    /// The operation to fail.
    pub op: DiskOp,
    /// How many consecutive attempts fail before the fault is spent.
    pub times: u32,
}

codec_struct!(DiskFault { seq, op, times });

/// A deterministic schedule of stable-storage faults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// The injected failures; order is irrelevant, matching is by
    /// `(seq, op)`.
    pub faults: Vec<DiskFault>,
}

codec_struct!(DiskFaultPlan { faults });

impl DiskFaultPlan {
    /// A plan that injects nothing.
    pub fn inert() -> Self {
        DiskFaultPlan::default()
    }

    /// Whether the plan injects any fault at all.
    pub fn is_inert(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Fault-injecting wrapper over any [`Stable`] backend (see module docs).
#[derive(Debug)]
pub struct FaultyStable<S: Stable> {
    inner: S,
    faults: Vec<DiskFault>,
    /// Sequence number of the in-flight write, tracked so `commit_write`
    /// (which takes no checkpoint argument) can be matched to its epoch.
    inflight_seq: Option<u64>,
}

impl<S: Stable> FaultyStable<S> {
    /// Wraps `inner`, applying `plan` to subsequent operations.
    pub fn new(inner: S, plan: DiskFaultPlan) -> Self {
        FaultyStable {
            inner,
            faults: plan.faults,
            inflight_seq: None,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes one charge of a matching unspent fault, if any.
    fn take(&mut self, seq: u64, op: DiskOp) -> bool {
        for fault in &mut self.faults {
            if fault.seq == seq && fault.op == op && fault.times > 0 {
                fault.times -= 1;
                return true;
            }
        }
        false
    }
}

impl<S: Stable> Stable for FaultyStable<S> {
    fn begin_write(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        let seq = checkpoint.seq();
        if self.take(seq, DiskOp::Begin) {
            return Err(StableWriteError::Io(format!(
                "injected fsync failure (begin, epoch {seq})"
            )));
        }
        self.inner.begin_write(checkpoint)?;
        self.inflight_seq = Some(seq);
        Ok(())
    }

    fn replace_in_progress(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        let seq = checkpoint.seq();
        if self.take(seq, DiskOp::Replace) {
            return Err(StableWriteError::Io(format!(
                "injected fsync failure (replace, epoch {seq})"
            )));
        }
        self.inner.replace_in_progress(checkpoint)?;
        self.inflight_seq = Some(seq);
        Ok(())
    }

    fn commit_write(&mut self) -> Result<(), StableWriteError> {
        if let Some(seq) = self.inflight_seq {
            if self.take(seq, DiskOp::Commit) {
                // The inner store still holds the in-flight write, so a
                // retry can commit it — exactly a transient rename/fsync
                // failure.
                return Err(StableWriteError::Io(format!(
                    "injected fsync failure (commit, epoch {seq})"
                )));
            }
        }
        self.inner.commit_write()?;
        self.inflight_seq = None;
        Ok(())
    }

    fn abort_write(&mut self) -> bool {
        self.inflight_seq = None;
        self.inner.abort_write()
    }

    fn crash(&mut self) {
        self.inflight_seq = None;
        self.inner.crash();
    }

    fn is_writing(&self) -> bool {
        self.inner.is_writing()
    }

    fn latest_shared(&self) -> Option<Checkpoint> {
        self.inner.latest_shared()
    }

    fn latest_at_or_before_shared(&self, seq: u64) -> Option<Checkpoint> {
        self.inner.latest_at_or_before_shared(seq)
    }

    fn replace_latest(&mut self, checkpoint: Checkpoint) -> bool {
        // Not in the DiskOp fault vocabulary: injection passes through.
        self.inner.replace_latest(checkpoint)
    }

    fn stats(&self) -> StableStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::StableStore;
    use synergy_des::SimTime;

    fn ckpt(seq: u64) -> Checkpoint {
        Checkpoint::encode(seq, SimTime::from_nanos(seq), "t", &seq).unwrap()
    }

    fn fail(seq: u64, op: DiskOp, times: u32) -> DiskFaultPlan {
        DiskFaultPlan {
            faults: vec![DiskFault { seq, op, times }],
        }
    }

    #[test]
    fn inert_plan_is_transparent() {
        let mut s = FaultyStable::new(StableStore::new(), DiskFaultPlan::inert());
        s.begin_write(ckpt(1)).unwrap();
        s.commit_write().unwrap();
        assert_eq!(s.latest_seq(), Some(1));
    }

    #[test]
    fn begin_fault_is_transient_and_charged() {
        let mut s = FaultyStable::new(StableStore::new(), fail(1, DiskOp::Begin, 2));
        assert!(matches!(
            s.begin_write(ckpt(1)),
            Err(StableWriteError::Io(_))
        ));
        assert!(matches!(
            s.begin_write(ckpt(1)),
            Err(StableWriteError::Io(_))
        ));
        assert!(
            !s.is_writing(),
            "inner store untouched by injected failures"
        );
        s.begin_write(ckpt(1))
            .expect("fault spent after two charges");
        s.commit_write().unwrap();
        assert_eq!(s.latest_seq(), Some(1));
    }

    #[test]
    fn commit_fault_leaves_inflight_write_retryable() {
        let mut s = FaultyStable::new(StableStore::new(), fail(2, DiskOp::Commit, 1));
        s.begin_write(ckpt(2)).unwrap();
        assert!(matches!(s.commit_write(), Err(StableWriteError::Io(_))));
        assert!(s.is_writing(), "in-flight write survives a failed commit");
        s.commit_write().expect("retry commits");
        assert_eq!(s.latest_seq(), Some(2));
    }

    #[test]
    fn faults_only_match_their_epoch_and_op() {
        let mut s = FaultyStable::new(StableStore::new(), fail(3, DiskOp::Begin, 1));
        s.begin_write(ckpt(1)).expect("epoch 1 unaffected");
        s.replace_in_progress(ckpt(1)).expect("replace unaffected");
        s.commit_write().unwrap();
        assert!(matches!(
            s.begin_write(ckpt(3)),
            Err(StableWriteError::Io(_))
        ));
        s.begin_write(ckpt(3)).unwrap();
        s.commit_write().unwrap();
        assert_eq!(s.latest_seq(), Some(3));
    }

    #[test]
    fn plan_roundtrips_through_codec() {
        let plan = DiskFaultPlan {
            faults: vec![
                DiskFault {
                    seq: 2,
                    op: DiskOp::Begin,
                    times: 1,
                },
                DiskFault {
                    seq: 4,
                    op: DiskOp::Commit,
                    times: 2,
                },
            ],
        };
        let bytes = synergy_codec::to_bytes(&plan).expect("encode");
        let back: DiskFaultPlan = synergy_codec::from_bytes(&bytes).expect("decode");
        assert_eq!(back, plan);
        assert!(!back.is_inert());
        assert!(DiskFaultPlan::inert().is_inert());
    }
}
