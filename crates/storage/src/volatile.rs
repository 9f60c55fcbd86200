//! Volatile (RAM) checkpoint storage.

use crate::checkpoint::Checkpoint;

/// One process's volatile checkpoint slot.
///
/// The MDCD protocol never rolls a process back further than its most recent
/// checkpoint, so volatile storage keeps exactly one record (paper §4.1,
/// footnote 1). The whole store is wiped by a node crash.
///
/// # Example
///
/// ```rust
/// use synergy_des::SimTime;
/// use synergy_storage::{Checkpoint, VolatileStore};
///
/// let mut ram = VolatileStore::new();
/// ram.save(Checkpoint::encode(1, SimTime::ZERO, "type1", &5u32)?);
/// assert_eq!(ram.latest().map(Checkpoint::seq), Some(1));
/// ram.wipe(); // hardware fault: RAM contents are lost
/// assert!(ram.latest().is_none());
/// # Ok::<(), synergy_storage::CheckpointError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct VolatileStore {
    latest: Option<Checkpoint>,
    saves: u64,
}

impl VolatileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        VolatileStore::default()
    }

    /// Saves a checkpoint, replacing any previous one.
    pub fn save(&mut self, checkpoint: Checkpoint) {
        self.latest = Some(checkpoint);
        self.saves += 1;
    }

    /// The most recent checkpoint, if one exists.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.latest.as_ref()
    }

    /// A shared handle to the most recent checkpoint (the adapted TB
    /// protocol copies it to stable storage). The checkpoint bytes are
    /// shared, so this is a refcount bump, not a deep copy.
    pub fn latest_shared(&self) -> Option<Checkpoint> {
        self.latest.clone()
    }

    /// Total saves performed (overhead accounting).
    pub fn saves(&self) -> u64 {
        self.saves
    }

    /// Simulates the loss of volatile contents on a hardware fault.
    pub fn wipe(&mut self) {
        self.latest = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_des::SimTime;

    fn ckpt(seq: u64) -> Checkpoint {
        Checkpoint::encode(seq, SimTime::from_nanos(seq), "t", &seq).unwrap()
    }

    #[test]
    fn keeps_only_most_recent() {
        let mut v = VolatileStore::new();
        assert!(v.latest().is_none());
        v.save(ckpt(1));
        v.save(ckpt(2));
        assert_eq!(v.latest().unwrap().seq(), 2);
        assert_eq!(v.saves(), 2);
    }

    #[test]
    fn wipe_loses_everything_but_counts_survive() {
        let mut v = VolatileStore::new();
        v.save(ckpt(1));
        v.wipe();
        assert!(v.latest().is_none());
        assert_eq!(v.saves(), 1);
    }

    #[test]
    fn latest_shared_matches_latest() {
        let mut v = VolatileStore::new();
        v.save(ckpt(9));
        let shared = v.latest_shared().unwrap();
        assert_eq!(shared, *v.latest().unwrap());
        // Same underlying bytes, not a deep copy.
        assert_eq!(
            shared.shared_data().as_ptr_range(),
            v.latest().unwrap().shared_data().as_ptr_range()
        );
    }
}
