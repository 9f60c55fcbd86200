//! One node's drifting hardware clock.

use synergy_des::{SimDuration, SimTime};

use crate::local::LocalTime;

/// A piecewise-linear mapping between the global (true) time axis and one
/// node's local clock.
///
/// Between resynchronizations the clock runs at a fixed rate `1 + drift`
/// relative to true time. [`resync`](DriftingClock::resync) re-anchors the
/// local reading (modelling a clock-synchronization round) without making
/// local time jump backwards.
///
/// # Example
///
/// ```rust
/// use synergy_clocks::DriftingClock;
/// use synergy_des::{SimDuration, SimTime};
///
/// // A clock 50us ahead, running 100ppm fast.
/// let clock = DriftingClock::new(SimDuration::from_micros(50), 100e-6);
/// let local = clock.read(SimTime::from_secs_f64(1.0));
/// assert_eq!(local.as_nanos(), 1_000_150_000); // 1s + 50us offset + 100us drift
/// ```
#[derive(Clone, Debug)]
pub struct DriftingClock {
    /// True instant of the anchor point.
    anchor_true: SimTime,
    /// Local reading at the anchor point.
    anchor_local: LocalTime,
    /// Rate error: local seconds advance by `1 + drift` per true second.
    drift: f64,
}

impl DriftingClock {
    /// Creates a clock that at true time zero reads `offset` and runs at rate
    /// `1 + drift`.
    ///
    /// # Panics
    ///
    /// Panics if `drift` is not finite or `drift <= -1` (a clock that stands
    /// still or runs backwards).
    pub fn new(offset: SimDuration, drift: f64) -> Self {
        assert!(drift.is_finite() && drift > -1.0, "invalid drift: {drift}");
        DriftingClock {
            anchor_true: SimTime::ZERO,
            anchor_local: LocalTime::ZERO + offset,
            drift,
        }
    }

    /// This clock's rate error.
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// The local reading at true instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last resynchronization anchor.
    pub fn read(&self, now: SimTime) -> LocalTime {
        let elapsed = now.duration_since(self.anchor_true);
        self.anchor_local + elapsed.mul_f64(1.0 + self.drift)
    }

    /// The true instant at which the local reading reaches `target`.
    ///
    /// Returns the anchor instant when `target` is already in the local past
    /// (the timer would fire immediately).
    pub fn when_local(&self, target: LocalTime) -> SimTime {
        if target <= self.anchor_local {
            return self.anchor_true;
        }
        let local_ahead = target - self.anchor_local;
        self.anchor_true + local_ahead.mul_f64(1.0 / (1.0 + self.drift))
    }

    /// Re-anchors the clock at true instant `now` so that it reads
    /// `new_reading` and subsequently runs at rate `1 + new_drift`.
    ///
    /// To keep local time monotonic (real clock-sync daemons slew rather than
    /// step backwards), the applied reading is
    /// `max(new_reading, current reading)`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous anchor or `new_drift` is
    /// invalid.
    pub fn resync(&mut self, now: SimTime, new_reading: LocalTime, new_drift: f64) {
        assert!(
            new_drift.is_finite() && new_drift > -1.0,
            "invalid drift: {new_drift}"
        );
        let current = self.read(now);
        self.anchor_true = now;
        self.anchor_local = new_reading.max(current);
        self.drift = new_drift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_tracks_true_time() {
        let c = DriftingClock::new(SimDuration::ZERO, 0.0);
        let t = SimTime::from_secs_f64(3.5);
        assert_eq!(c.read(t).as_nanos(), t.as_nanos());
        assert_eq!(c.when_local(LocalTime::from_nanos(t.as_nanos())), t);
    }

    #[test]
    fn fast_clock_reads_ahead() {
        let c = DriftingClock::new(SimDuration::ZERO, 1e-3);
        let local = c.read(SimTime::from_secs_f64(10.0));
        assert_eq!(local.as_nanos(), 10_010_000_000);
    }

    #[test]
    fn slow_clock_reads_behind() {
        let c = DriftingClock::new(SimDuration::ZERO, -1e-3);
        let local = c.read(SimTime::from_secs_f64(10.0));
        assert_eq!(local.as_nanos(), 9_990_000_000);
    }

    #[test]
    fn when_local_inverts_read() {
        let c = DriftingClock::new(SimDuration::from_micros(123), 5e-4);
        let t = SimTime::from_secs_f64(7.25);
        let local = c.read(t);
        let back = c.when_local(local);
        let err = back.as_nanos().abs_diff(t.as_nanos());
        assert!(err <= 1, "round-trip error {err}ns");
    }

    #[test]
    fn when_local_in_past_fires_at_anchor() {
        let c = DriftingClock::new(SimDuration::from_millis(5), 0.0);
        assert_eq!(c.when_local(LocalTime::from_nanos(1)), SimTime::ZERO);
    }

    #[test]
    fn resync_reanchors_without_backward_step() {
        let mut c = DriftingClock::new(SimDuration::from_millis(2), 0.0);
        let now = SimTime::from_secs_f64(1.0);
        let before = c.read(now);
        // Attempt to step the clock backwards by 1ms: reading must not regress.
        c.resync(now, before - SimDuration::from_millis(1), 0.0);
        assert_eq!(c.read(now), before);
        // Stepping forward applies exactly.
        let ahead = before + SimDuration::from_millis(3);
        c.resync(now, ahead, 1e-5);
        assert_eq!(c.read(now), ahead);
        assert_eq!(c.drift(), 1e-5);
    }

    #[test]
    #[should_panic(expected = "invalid drift")]
    fn rejects_backward_running_clock() {
        DriftingClock::new(SimDuration::ZERO, -1.0);
    }
}
