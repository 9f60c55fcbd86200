//! Inputs consumed by the TB engine.

use synergy_clocks::LocalTime;
use synergy_net::CkptSeqNo;

/// One input to a [`TbEngine`](crate::TbEngine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// The checkpointing timer expired at local instant `now_local`;
    /// `dirty` is the process's current checkpoint-relevant bit (the dirty
    /// bit, or `P1act`'s pseudo dirty bit), read from the MDCD engine.
    TimerExpired {
        /// Local clock reading at expiry.
        now_local: LocalTime,
        /// The checkpoint-relevant dirty bit at expiry.
        dirty: bool,
    },
    /// The recovery line moved while the blocking period was in progress:
    /// an admitted `passed_AT` cleared the dirty bit, or vouched for part
    /// of `P1act`'s unvalidated sends so that a later volatile checkpoint
    /// became its line.
    LineMoved {
        /// The checkpoint-relevant dirty bit after the move.
        dirty: bool,
    },
    /// The blocking period scheduled by
    /// [`Action::StartBlocking`](crate::Action::StartBlocking) elapsed.
    BlockingElapsed,
    /// The fleet-wide timer resynchronization completed; the local clock now
    /// reads `now_local`.
    ResyncCompleted {
        /// Local clock reading right after resynchronization.
        now_local: LocalTime,
    },
    /// The node restarted after a hardware fault; stable storage holds a
    /// checkpoint with sequence number `ndc`, and the local clock reads
    /// `now_local`.
    Restarted {
        /// Local clock reading at restart.
        now_local: LocalTime,
        /// Sequence number of the stable checkpoint recovered from.
        ndc: CkptSeqNo,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_comparable() {
        let a = Event::TimerExpired {
            now_local: LocalTime::from_nanos(1),
            dirty: true,
        };
        let b = Event::TimerExpired {
            now_local: LocalTime::from_nanos(1),
            dirty: false,
        };
        assert_ne!(a, b);
        assert_eq!(Event::BlockingElapsed, Event::BlockingElapsed);
    }
}
