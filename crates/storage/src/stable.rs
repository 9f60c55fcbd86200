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

    /// Discards every committed checkpoint with sequence number `> epoch`.
    ///
    /// A global rollback to `epoch` abandons the timeline those records
    /// were taken on; recovery reuses their epoch numbers, so a record left
    /// behind would be selected by a later line as if it were the new
    /// timeline's (a torn rewrite of the same epoch leaves it the newest).
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::Io`] if a durable backend cannot delete
    /// a record; the records it could not delete are still held.
    fn discard_above(&mut self, epoch: u64) -> Result<(), StableWriteError>;

    /// Write statistics.
    fn stats(&self) -> StableStats;
}

impl Stable for StableStore {
    fn begin_write(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        if self.in_progress.is_some() {
            return Err(StableWriteError::WriteAlreadyInProgress);
        }
        self.in_progress = Some(checkpoint);
        Ok(())
    }

    fn replace_in_progress(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        if self.in_progress.is_none() {
            return Err(StableWriteError::NoWriteInProgress);
        }
        self.in_progress = Some(checkpoint);
        self.stats.replacements += 1;
        Ok(())
    }

    fn commit_write(&mut self) -> Result<(), StableWriteError> {
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
        Ok(())
    }

    fn abort_write(&mut self) -> bool {
        self.in_progress.take().is_some()
    }

    fn crash(&mut self) {
        if self.in_progress.take().is_some() {
            self.stats.torn_writes += 1;
        }
    }

    fn is_writing(&self) -> bool {
        self.in_progress.is_some()
    }

    fn latest_shared(&self) -> Option<Checkpoint> {
        self.committed.last().cloned()
    }

    fn latest_at_or_before_shared(&self, seq: u64) -> Option<Checkpoint> {
        self.committed
            .iter()
            .rev()
            .find(|c| c.seq() <= seq)
            .cloned()
    }

    fn discard_above(&mut self, epoch: u64) -> Result<(), StableWriteError> {
        self.committed.retain(|c| c.seq() <= epoch);
        Ok(())
    }

    fn stats(&self) -> StableStats {
        self.stats
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
/// for the torn process is not its newest record. How deep that history is
/// is the opener's choice: [`new`](Self::new) keeps 8 records, while the
/// simulator's process hosts keep 3, because the line selects a host's
/// newest record or the one before it (the argument is written beside
/// `synergy::system::epoch_line`).
///
/// # Example
///
/// ```rust
/// use synergy_des::SimTime;
/// use synergy_storage::{Checkpoint, Stable, StableStore};
///
/// let mut disk = StableStore::new();
/// disk.begin_write(Checkpoint::encode(1, SimTime::ZERO, "copy-of-ram", &1u8)?)?;
/// // ... a passed_AT arrives inside the blocking period:
/// disk.replace_in_progress(Checkpoint::encode(1, SimTime::ZERO, "current-state", &2u8)?)?;
/// disk.commit_write()?;
/// assert_eq!(disk.latest_shared().unwrap().decode::<u8>()?, 2);
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

    /// The in-flight (not yet durable) checkpoint, if any.
    pub fn in_progress(&self) -> Option<&Checkpoint> {
        self.in_progress.as_ref()
    }

    /// Shared handles to every retained committed checkpoint, oldest first
    /// (commit order). Layered stores (the archive's delta chain) walk this
    /// to rebuild their state from the backend's history.
    pub fn committed_shared(&self) -> Vec<Checkpoint> {
        self.committed.clone()
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
        assert!(s.latest_shared().is_none(), "not durable until committed");
        s.commit_write().unwrap();
        assert!(!s.is_writing());
        assert_eq!(s.latest_seq().unwrap(), 1);
        assert_eq!(s.stats().commits, 1);
    }

    #[test]
    fn replace_in_flight_contents() {
        let mut s = StableStore::new();
        s.begin_write(ckpt(1)).unwrap();
        s.replace_in_progress(ckpt(2)).unwrap();
        s.commit_write().unwrap();
        assert_eq!(s.latest_seq().unwrap(), 2);
        assert_eq!(s.stats().replacements, 1);
    }

    #[test]
    fn crash_tears_in_flight_write_keeps_committed() {
        let mut s = StableStore::new();
        s.begin_write(ckpt(1)).unwrap();
        s.commit_write().unwrap();
        s.begin_write(ckpt(2)).unwrap();
        s.crash();
        assert_eq!(s.latest_seq().unwrap(), 1, "old checkpoint survives");
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
        assert!(s.latest_shared().is_none());
        assert_eq!(s.stats().torn_writes, 0);
    }

    #[test]
    fn history_is_retained_and_addressable() {
        let mut s = StableStore::new();
        for seq in 1..=3 {
            s.begin_write(ckpt(seq)).unwrap();
            s.commit_write().unwrap();
        }
        assert_eq!(s.latest_seq().unwrap(), 3);
        assert_eq!(retained_seqs(&s), [1, 2, 3]);
        assert_eq!(s.latest_at_or_before_shared(2).unwrap().seq(), 2);
        assert_eq!(s.latest_at_or_before_shared(99).unwrap().seq(), 3);
        assert!(s.latest_at_or_before_shared(0).is_none());
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut s = StableStore::with_retention(2);
        for seq in 1..=4 {
            s.begin_write(ckpt(seq)).unwrap();
            s.commit_write().unwrap();
        }
        assert_eq!(retained_seqs(&s), [3, 4]);
        assert_eq!(s.latest_seq().unwrap(), 4);
    }

    #[test]
    fn discard_above_keeps_only_the_records_at_or_below_the_epoch() {
        let mut s = StableStore::new();
        for seq in 1..=4 {
            s.begin_write(ckpt(seq)).unwrap();
            s.commit_write().unwrap();
        }
        s.discard_above(2).unwrap();
        assert_eq!(retained_seqs(&s), [1, 2]);
        s.discard_above(0).unwrap();
        assert!(s.latest_shared().is_none(), "line 0 abandons every record");
        assert_eq!(s.stats().commits, 4, "a discard is not a commit");
    }

    #[test]
    #[should_panic(expected = "at least one checkpoint")]
    fn zero_retention_rejected() {
        StableStore::with_retention(0);
    }
}
