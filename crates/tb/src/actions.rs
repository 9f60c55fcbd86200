//! Outputs emitted by the TB engine.

use synergy_clocks::LocalTime;
use synergy_des::SimDuration;
use synergy_net::CkptSeqNo;

/// Which contents the stable write begins with — the first argument of the
/// paper's three-argument `write_disk`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentsChoice {
    /// The process state as of the timer expiry (clean process).
    CurrentState,
    /// A copy of the most recent volatile checkpoint — the last state known
    /// non-contaminated (dirty process, adapted variant only).
    VolatileCopy,
}

/// One instruction from the TB engine to its hosting driver.
///
/// As with the MDCD engines, actions must be executed in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Begin the two-phase stable write. The driver assembles the checkpoint
    /// payload — the chosen state contents plus the engine snapshot plus all
    /// currently unacknowledged messages (the recoverability rule) — and
    /// calls `Stable::begin_write`.
    BeginStableWrite {
        /// Initial contents of the write.
        contents: ContentsChoice,
        /// The dirty-bit value the contents correspond to (`write_disk`'s
        /// second argument).
        expected_dirty: bool,
    },
    /// Enter the blocking period for `duration`; the driver must notify the
    /// MDCD engine (`BlockingStarted`) and schedule
    /// [`Event::BlockingElapsed`](crate::Event::BlockingElapsed).
    StartBlocking {
        /// Length of the blocking period on the local clock.
        duration: SimDuration,
    },
    /// Abort the in-flight copy and write `contents` instead, chosen as at
    /// the begin (`write_disk`'s third argument, widened): the recovery
    /// line moved inside the blocking period. The current state is taken
    /// as of the period's start.
    ReplaceStableWrite {
        /// The contents the line now names.
        contents: ContentsChoice,
    },
    /// The blocking period is over: commit the stable write; the committed
    /// checkpoint's sequence number is `ndc`. The driver must notify the
    /// MDCD engine (`StableCheckpointCommitted(ndc)` then `BlockingEnded`).
    CommitStableWrite {
        /// Sequence number of the now-durable checkpoint.
        ndc: CkptSeqNo,
    },
    /// Schedule the next timer expiry at local instant `at`.
    ScheduleTimer {
        /// Local-clock deadline (`dCKPT_time`).
        at: LocalTime,
    },
    /// Accumulated drift makes blocking periods too long: ask the clock
    /// service to resynchronize the fleet (`requestResyncTimers()`).
    RequestResync,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contents_choice_is_comparable() {
        assert_ne!(ContentsChoice::CurrentState, ContentsChoice::VolatileCopy);
    }

    #[test]
    fn actions_carry_payloads() {
        let a = Action::StartBlocking {
            duration: SimDuration::from_millis(3),
        };
        match a {
            Action::StartBlocking { duration } => {
                assert_eq!(duration, SimDuration::from_millis(3));
            }
            _ => unreachable!(),
        }
    }
}
