//! Stable (disk) checkpoint storage with abortable two-phase writes.

use core::fmt;

use crate::checkpoint::Checkpoint;

/// Errors from stable-store write sequencing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StableWriteError {
    /// `begin_write` was called while another write was in progress.
    WriteAlreadyInProgress,
    /// `replace_in_progress` or `commit_write` was called with no write in
    /// progress.
    NoWriteInProgress,
    /// A durable backend failed at the operating-system level (disk full,
    /// permission, device error). In-memory stores never return this.
    Io(String),
}

impl fmt::Display for StableWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StableWriteError::WriteAlreadyInProgress => {
                write!(f, "a stable write is already in progress")
            }
            StableWriteError::NoWriteInProgress => write!(f, "no stable write in progress"),
            StableWriteError::Io(e) => write!(f, "stable storage i/o error: {e}"),
        }
    }
}

impl std::error::Error for StableWriteError {}

/// The stable-storage contract shared by the in-memory [`StableStore`] (the
/// simulator's model) and the durable
/// [`DiskStableStore`](crate::DiskStableStore) (the cluster runtime's
/// backend).
///
/// Both preserve the adapted TB protocol's write semantics: a two-phase
/// `begin` → (`replace`)* → `commit` sequence whose in-flight contents are
/// lost — *torn* — if the node crashes before the commit, while previously
/// committed checkpoints survive. Recovery addresses committed history by
/// epoch ([`latest_at_or_before_shared`](Stable::latest_at_or_before_shared))
/// because the global rollback line is the minimum epoch committed by every
/// live process.
pub trait Stable {
    /// Begins a two-phase write of `checkpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::WriteAlreadyInProgress`] if a previous
    /// write was neither committed nor aborted, or
    /// [`StableWriteError::Io`] if a durable backend fails.
    fn begin_write(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError>;

    /// Aborts the in-flight contents and restarts the write with
    /// `checkpoint` (the `write_disk` third-argument semantics of the
    /// adapted TB algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::NoWriteInProgress`] if nothing is being
    /// written, or [`StableWriteError::Io`] if a durable backend fails.
    fn replace_in_progress(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError>;

    /// Atomically publishes the in-flight write.
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::NoWriteInProgress`] if nothing is being
    /// written, or [`StableWriteError::Io`] if a durable backend fails.
    fn commit_write(&mut self) -> Result<(), StableWriteError>;

    /// Abandons an in-flight write without committing it; returns whether a
    /// write was abandoned. Not counted as a torn write.
    fn abort_write(&mut self) -> bool;

    /// Simulates a node crash: committed checkpoints survive, any in-flight
    /// write is torn.
    fn crash(&mut self);

    /// Whether a write is currently in progress.
    fn is_writing(&self) -> bool;

    /// A shared handle to the most recent committed checkpoint.
    fn latest_shared(&self) -> Option<Checkpoint>;

    /// Sequence number (epoch) of the most recent committed checkpoint.
    fn latest_seq(&self) -> Option<u64> {
        self.latest_shared().map(|c| c.seq())
    }

    /// The newest committed checkpoint with sequence number `<= seq` — the
    /// record global recovery selects when rolling back to the epoch line.
    fn latest_at_or_before_shared(&self, seq: u64) -> Option<Checkpoint>;

    /// Swaps the most recent *committed* checkpoint for `checkpoint` in
    /// place, returning whether a record was replaced.
    ///
    /// This is a fault-injection surface, not a protocol operation: the
    /// Byzantine-lite regime uses it to plant a value-corrupted record whose
    /// CRC is valid (the record was re-encoded after the flip), so every
    /// integrity check passes and the corruption surfaces only when a
    /// recovery restores the checkpoint. Returns `false` when nothing is
    /// committed, or when the backend could not rewrite the record.
    fn replace_latest(&mut self, checkpoint: Checkpoint) -> bool;

    /// Write statistics.
    fn stats(&self) -> StableStats;
}

impl Stable for StableStore {
    fn begin_write(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        StableStore::begin_write(self, checkpoint)
    }

    fn replace_in_progress(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        StableStore::replace_in_progress(self, checkpoint)
    }

    fn commit_write(&mut self) -> Result<(), StableWriteError> {
        StableStore::commit_write(self).map(|_| ())
    }

    fn abort_write(&mut self) -> bool {
        StableStore::abort_write(self)
    }

    fn crash(&mut self) {
        StableStore::crash(self);
    }

    fn is_writing(&self) -> bool {
        StableStore::is_writing(self)
    }

    fn latest_shared(&self) -> Option<Checkpoint> {
        StableStore::latest_shared(self)
    }

    fn latest_at_or_before_shared(&self, seq: u64) -> Option<Checkpoint> {
        self.latest_at_or_before(seq).cloned()
    }

    fn replace_latest(&mut self, checkpoint: Checkpoint) -> bool {
        StableStore::replace_latest(self, checkpoint)
    }

    fn stats(&self) -> StableStats {
        StableStore::stats(self)
    }
}

/// Statistics kept by a [`StableStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StableStats {
    /// Completed (committed) writes.
    pub commits: u64,
    /// Mid-flight content replacements (adapted TB's abort-and-replace).
    pub replacements: u64,
    /// Writes lost to a crash before committing.
    pub torn_writes: u64,
    /// Committed records rejected by CRC verification on reload (bit-rot);
    /// recovery fell back past each to the previous committed checkpoint.
    /// Always zero for in-memory stores.
    pub corrupt_records: u64,
}

/// One process's stable checkpoint store.
///
/// Stable storage survives node crashes; only *committed* contents do. The
/// adapted TB protocol starts a write when the checkpointing timer expires,
/// may **replace** the in-flight contents if a `passed_AT` notification
/// clears the dirty bit during the blocking period (paper Fig. 5/6), and
/// commits at the end of the blocking period.
///
/// The store retains a short history of committed checkpoints (not just the
/// newest): a crash can tear one process's in-flight write while its peers
/// commit theirs, in which case global recovery must roll everyone back to
/// the last checkpoint sequence number committed *by all* processes — which
/// for the torn process is not its newest record.
///
/// # Example
///
/// ```rust
/// use synergy_des::SimTime;
/// use synergy_storage::{Checkpoint, StableStore};
///
/// let mut disk = StableStore::new();
/// disk.begin_write(Checkpoint::encode(1, SimTime::ZERO, "copy-of-ram", &1u8)?)?;
/// // ... a passed_AT arrives inside the blocking period:
/// disk.replace_in_progress(Checkpoint::encode(1, SimTime::ZERO, "current-state", &2u8)?)?;
/// disk.commit_write()?;
/// assert_eq!(disk.latest().unwrap().decode::<u8>()?, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct StableStore {
    committed: Vec<Checkpoint>,
    in_progress: Option<Checkpoint>,
    stats: StableStats,
    retain: usize,
}

impl Default for StableStore {
    fn default() -> Self {
        StableStore::new()
    }
}

impl StableStore {
    /// Creates an empty store retaining the last 8 committed checkpoints.
    pub fn new() -> Self {
        StableStore::with_retention(8)
    }

    /// Creates an empty store retaining the last `retain` committed
    /// checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `retain` is zero.
    pub fn with_retention(retain: usize) -> Self {
        assert!(retain > 0, "must retain at least one checkpoint");
        StableStore {
            committed: Vec::new(),
            in_progress: None,
            stats: StableStats::default(),
            retain,
        }
    }

    /// Begins a two-phase write of `checkpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::WriteAlreadyInProgress`] if a previous
    /// write has not been committed or lost to a crash.
    pub fn begin_write(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        if self.in_progress.is_some() {
            return Err(StableWriteError::WriteAlreadyInProgress);
        }
        self.in_progress = Some(checkpoint);
        Ok(())
    }

    /// Aborts the in-flight contents and restarts the write with
    /// `checkpoint` (the `write_disk` third-argument semantics of the
    /// adapted TB algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::NoWriteInProgress`] if nothing is being
    /// written.
    pub fn replace_in_progress(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        if self.in_progress.is_none() {
            return Err(StableWriteError::NoWriteInProgress);
        }
        self.in_progress = Some(checkpoint);
        self.stats.replacements += 1;
        Ok(())
    }

    /// Atomically publishes the in-flight write.
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::NoWriteInProgress`] if nothing is being
    /// written.
    pub fn commit_write(&mut self) -> Result<&Checkpoint, StableWriteError> {
        let ckpt = self
            .in_progress
            .take()
            .ok_or(StableWriteError::NoWriteInProgress)?;
        self.committed.push(ckpt);
        if self.committed.len() > self.retain {
            let excess = self.committed.len() - self.retain;
            self.committed.drain(..excess);
        }
        self.stats.commits += 1;
        Ok(self.committed.last().expect("just committed"))
    }

    /// Whether a write is currently in progress.
    pub fn is_writing(&self) -> bool {
        self.in_progress.is_some()
    }

    /// The in-flight (not yet durable) checkpoint, if any.
    pub fn in_progress(&self) -> Option<&Checkpoint> {
        self.in_progress.as_ref()
    }

    /// The most recent *committed* checkpoint.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.committed.last()
    }

    /// A shared handle to the most recent committed checkpoint — a refcount
    /// bump of the underlying bytes, not a deep copy.
    pub fn latest_shared(&self) -> Option<Checkpoint> {
        self.committed.last().cloned()
    }

    /// Shared handles to every retained committed checkpoint, oldest first
    /// (commit order). Layered stores (the archive's delta chain) walk this
    /// to rebuild their state from the backend's history.
    pub fn committed_shared(&self) -> Vec<Checkpoint> {
        self.committed.clone()
    }

    /// The newest committed checkpoint with sequence number `<= seq` — the
    /// record global recovery selects when rolling back to the last epoch
    /// committed by every process.
    pub fn latest_at_or_before(&self, seq: u64) -> Option<&Checkpoint> {
        self.committed.iter().rev().find(|c| c.seq() <= seq)
    }

    /// Write statistics.
    pub fn stats(&self) -> StableStats {
        self.stats
    }

    /// Simulates a node crash: committed checkpoints survive, any in-flight
    /// write is torn and discarded.
    pub fn crash(&mut self) {
        if self.in_progress.take().is_some() {
            self.stats.torn_writes += 1;
        }
    }

    /// Abandons an in-flight write without committing it (global recovery
    /// supersedes whatever checkpoint establishment was in progress).
    /// Returns whether a write was abandoned. Unlike [`crash`](Self::crash)
    /// this does not count as a torn write.
    pub fn abort_write(&mut self) -> bool {
        self.in_progress.take().is_some()
    }

    /// Swaps the most recent committed checkpoint for `checkpoint` in place
    /// (Byzantine-lite fault injection; see [`Stable::replace_latest`]).
    /// Returns `false` when nothing is committed yet.
    pub fn replace_latest(&mut self, checkpoint: Checkpoint) -> bool {
        match self.committed.last_mut() {
            Some(slot) => {
                *slot = checkpoint;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_des::SimTime;

    fn ckpt(seq: u64) -> Checkpoint {
        Checkpoint::encode(seq, SimTime::from_nanos(seq), "t", &seq).unwrap()
    }

    /// Sequence numbers of the retained committed history, oldest first.
    fn retained_seqs(s: &StableStore) -> Vec<u64> {
        s.committed_shared().iter().map(Checkpoint::seq).collect()
    }

    #[test]
    fn two_phase_write_commits() {
        let mut s = StableStore::new();
        s.begin_write(ckpt(1)).unwrap();
        assert!(s.is_writing());
        assert!(s.latest().is_none(), "not durable until committed");
        s.commit_write().unwrap();
        assert!(!s.is_writing());
        assert_eq!(s.latest().unwrap().seq(), 1);
        assert_eq!(s.stats().commits, 1);
    }

    #[test]
    fn replace_latest_swaps_committed_record_in_place() {
        let mut s = StableStore::new();
        assert!(!s.replace_latest(ckpt(9)), "nothing committed yet");
        s.begin_write(ckpt(1)).unwrap();
        s.commit_write().unwrap();
        s.begin_write(ckpt(2)).unwrap();
        s.commit_write().unwrap();
        // The swapped-in record re-encoded cleanly: same seq, valid CRC,
        // different contents — exactly the Byzantine-lite injection shape.
        let forged = Checkpoint::encode(2, SimTime::from_nanos(2), "t", &99u64).unwrap();
        assert!(s.replace_latest(forged));
        assert_eq!(s.latest().unwrap().seq(), 2);
        assert_eq!(s.latest().unwrap().decode::<u64>().unwrap(), 99);
        // History below the latest record is untouched.
        assert_eq!(s.latest_at_or_before(1).unwrap().seq(), 1);
        assert_eq!(s.stats().commits, 2, "injection is not a commit");
    }

    #[test]
    fn replace_in_flight_contents() {
        let mut s = StableStore::new();
        s.begin_write(ckpt(1)).unwrap();
        s.replace_in_progress(ckpt(2)).unwrap();
        s.commit_write().unwrap();
        assert_eq!(s.latest().unwrap().seq(), 2);
        assert_eq!(s.stats().replacements, 1);
    }

    #[test]
    fn crash_tears_in_flight_write_keeps_committed() {
        let mut s = StableStore::new();
        s.begin_write(ckpt(1)).unwrap();
        s.commit_write().unwrap();
        s.begin_write(ckpt(2)).unwrap();
        s.crash();
        assert_eq!(s.latest().unwrap().seq(), 1, "old checkpoint survives");
        assert!(!s.is_writing());
        assert_eq!(s.stats().torn_writes, 1);
    }

    #[test]
    fn overlapping_writes_rejected() {
        let mut s = StableStore::new();
        s.begin_write(ckpt(1)).unwrap();
        assert_eq!(
            s.begin_write(ckpt(2)),
            Err(StableWriteError::WriteAlreadyInProgress)
        );
    }

    #[test]
    fn commit_without_begin_rejected() {
        let mut s = StableStore::new();
        assert!(matches!(
            s.commit_write(),
            Err(StableWriteError::NoWriteInProgress)
        ));
        assert_eq!(
            s.replace_in_progress(ckpt(0)),
            Err(StableWriteError::NoWriteInProgress)
        );
    }

    #[test]
    fn crash_on_idle_store_is_harmless() {
        let mut s = StableStore::new();
        s.crash();
        assert!(s.latest().is_none());
        assert_eq!(s.stats().torn_writes, 0);
    }

    #[test]
    fn history_is_retained_and_addressable() {
        let mut s = StableStore::new();
        for seq in 1..=3 {
            s.begin_write(ckpt(seq)).unwrap();
            s.commit_write().unwrap();
        }
        assert_eq!(s.latest().unwrap().seq(), 3);
        assert_eq!(retained_seqs(&s), [1, 2, 3]);
        assert_eq!(s.latest_at_or_before(2).unwrap().seq(), 2);
        assert_eq!(s.latest_at_or_before(99).unwrap().seq(), 3);
        assert!(s.latest_at_or_before(0).is_none());
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut s = StableStore::with_retention(2);
        for seq in 1..=4 {
            s.begin_write(ckpt(seq)).unwrap();
            s.commit_write().unwrap();
        }
        assert_eq!(retained_seqs(&s), [3, 4]);
        assert_eq!(s.latest().unwrap().seq(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one checkpoint")]
    fn zero_retention_rejected() {
        StableStore::with_retention(0);
    }
}
