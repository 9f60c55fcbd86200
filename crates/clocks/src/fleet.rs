//! A fleet of clocks with bounded pairwise deviation.

use synergy_des::{DetRng, SimDuration, SimTime};

use crate::drift::DriftingClock;
use crate::local::LocalTime;

/// The synchronization quality parameters the TB protocol is given.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyncParams {
    /// `δ` — maximum deviation between any two clocks immediately after a
    /// resynchronization.
    pub delta: SimDuration,
    /// `ρ` — maximum clock drift rate (e.g. `1e-4` = 100 ppm).
    pub rho: f64,
}

impl SyncParams {
    /// Creates parameters, validating `rho`.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is negative or not finite.
    pub fn new(delta: SimDuration, rho: f64) -> Self {
        assert!(rho.is_finite() && rho >= 0.0, "invalid rho: {rho}");
        SyncParams { delta, rho }
    }

    /// The `δ + 2ρτ` deviation bound `elapsed` after a resynchronization.
    pub fn deviation_bound(&self, elapsed: SimDuration) -> SimDuration {
        crate::deviation_bound(self.delta, self.rho, elapsed)
    }
}

/// A set of drifting clocks, one per node, respecting [`SyncParams`].
///
/// Offsets are drawn uniformly in `[0, δ]` and drift rates uniformly in
/// `[-ρ, +ρ]`, so any two clocks deviate by at most `δ` right after a
/// (re)synchronization and by at most `δ + 2ρτ` thereafter.
///
/// # Example
///
/// ```rust
/// use synergy_clocks::{ClockFleet, SyncParams};
/// use synergy_des::{DetRng, SimDuration, SimTime};
///
/// let params = SyncParams::new(SimDuration::from_micros(200), 1e-4);
/// let fleet = ClockFleet::generate(3, params, &DetRng::new(1));
/// let t = SimTime::from_secs_f64(1.0);
/// let spread = fleet.max_pairwise_deviation(t);
/// assert!(spread <= params.deviation_bound(t - SimTime::ZERO));
/// ```
#[derive(Clone, Debug)]
pub struct ClockFleet {
    clocks: Vec<DriftingClock>,
    params: SyncParams,
    last_resync: SimTime,
    rng: DetRng,
}

impl ClockFleet {
    /// Generates `n` clocks from the deterministic stream `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn generate(n: usize, params: SyncParams, rng: &DetRng) -> Self {
        assert!(n > 0, "fleet must contain at least one clock");
        let mut rng = rng.stream("clock-fleet");
        let clocks = (0..n)
            .map(|_| {
                let offset = SimDuration::from_nanos(rng.gen_range(0..=params.delta.as_nanos()));
                let drift = rng.gen_range(-params.rho..=params.rho);
                DriftingClock::new(offset, drift)
            })
            .collect();
        ClockFleet {
            clocks,
            params,
            last_resync: SimTime::ZERO,
            rng,
        }
    }

    /// Number of clocks in the fleet.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Whether the fleet is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// The synchronization parameters.
    pub fn params(&self) -> SyncParams {
        self.params
    }

    /// The clock of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn clock(&self, i: usize) -> &DriftingClock {
        &self.clocks[i]
    }

    /// Reads node `i`'s clock at true instant `now`.
    pub fn read(&self, i: usize, now: SimTime) -> LocalTime {
        self.clocks[i].read(now)
    }

    /// The true instant at which node `i`'s clock reaches `target`.
    pub fn when_local(&self, i: usize, target: LocalTime) -> SimTime {
        self.clocks[i].when_local(target)
    }

    /// True instant of the most recent resynchronization.
    pub fn last_resync(&self) -> SimTime {
        self.last_resync
    }

    /// The `δ + 2ρτ` bound at true instant `now`.
    pub fn deviation_bound_at(&self, now: SimTime) -> SimDuration {
        self.params
            .deviation_bound(now.saturating_duration_since(self.last_resync))
    }

    /// Largest deviation between any two clocks at true instant `now`.
    pub fn max_pairwise_deviation(&self, now: SimTime) -> SimDuration {
        let readings: Vec<LocalTime> = self.clocks.iter().map(|c| c.read(now)).collect();
        let min = readings.iter().min().copied().unwrap_or(LocalTime::ZERO);
        let max = readings.iter().max().copied().unwrap_or(LocalTime::ZERO);
        max - min
    }

    /// Resynchronizes every clock at true instant `now`: fresh offsets within
    /// `δ` of a common reference and fresh drift rates within `±ρ`.
    ///
    /// The reference is the fastest current reading so no clock needs to step
    /// backwards.
    pub fn resync_all(&mut self, now: SimTime) {
        let reference = self
            .clocks
            .iter()
            .map(|c| c.read(now))
            .max()
            .expect("fleet is non-empty");
        for clock in &mut self.clocks {
            let offset =
                SimDuration::from_nanos(self.rng.gen_range(0..=self.params.delta.as_nanos()));
            let drift = if self.params.rho == 0.0 {
                0.0
            } else {
                self.rng.gen_range(-self.params.rho..=self.params.rho)
            };
            clock.resync(now, reference + offset, drift);
        }
        self.last_resync = now;
    }

    /// Models a *failed* resynchronization of node `i`: its clock is stepped
    /// to `excess` beyond the slowest clock's reading plus `δ`, so the fleet's
    /// pairwise deviation is at least `δ + excess` — strictly outside the
    /// envelope [`resync_all`](Self::resync_all) guarantees and the envelope
    /// the TB blocking-period formula assumes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn inject_skew(&mut self, i: usize, excess: SimDuration, now: SimTime) {
        let slowest = self
            .clocks
            .iter()
            .map(|c| c.read(now))
            .min()
            .expect("fleet is non-empty");
        let target = slowest + self.params.delta + excess;
        let drift = self.clocks[i].drift();
        let current = self.clocks[i].read(now);
        // Stepping forward only (DriftingClock::resync clamps monotonic).
        self.clocks[i].resync(now, target.max(current), drift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SyncParams {
        SyncParams::new(SimDuration::from_micros(500), 1e-4)
    }

    #[test]
    fn generation_respects_delta_at_origin() {
        for seed in 0..20 {
            let fleet = ClockFleet::generate(5, params(), &DetRng::new(seed));
            assert!(fleet.max_pairwise_deviation(SimTime::ZERO) <= params().delta);
        }
    }

    #[test]
    fn deviation_respects_bound_over_time() {
        let fleet = ClockFleet::generate(4, params(), &DetRng::new(3));
        for secs in [0.0, 1.0, 10.0, 100.0] {
            let t = SimTime::from_secs_f64(secs);
            let bound = fleet.deviation_bound_at(t);
            assert!(
                fleet.max_pairwise_deviation(t) <= bound,
                "deviation exceeded bound at {secs}s"
            );
        }
    }

    #[test]
    fn resync_restores_delta_bound() {
        let mut fleet = ClockFleet::generate(4, params(), &DetRng::new(9));
        let late = SimTime::from_secs_f64(1000.0);
        fleet.resync_all(late);
        assert_eq!(fleet.last_resync(), late);
        assert!(fleet.max_pairwise_deviation(late) <= params().delta);
        // Bound is measured from the new resync instant.
        let soon = late + SimDuration::from_secs(1);
        assert!(fleet.max_pairwise_deviation(soon) <= fleet.deviation_bound_at(soon));
    }

    #[test]
    fn clocks_never_step_backwards_on_resync() {
        let mut fleet = ClockFleet::generate(3, params(), &DetRng::new(4));
        let t = SimTime::from_secs_f64(50.0);
        let before: Vec<LocalTime> = (0..3).map(|i| fleet.read(i, t)).collect();
        fleet.resync_all(t);
        for (i, b) in before.iter().enumerate() {
            assert!(fleet.read(i, t) >= *b, "clock {i} stepped backwards");
        }
    }

    #[test]
    fn perfect_fleet_has_zero_deviation() {
        // The parameters a mission's `perfect_clocks` configures.
        let perfect = SyncParams::new(SimDuration::ZERO, 0.0);
        let fleet = ClockFleet::generate(3, perfect, &DetRng::new(0));
        assert_eq!(
            fleet.max_pairwise_deviation(SimTime::from_secs_f64(42.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn deterministic_across_same_seed() {
        let a = ClockFleet::generate(3, params(), &DetRng::new(11));
        let b = ClockFleet::generate(3, params(), &DetRng::new(11));
        let t = SimTime::from_secs_f64(5.0);
        for i in 0..3 {
            assert_eq!(a.read(i, t), b.read(i, t));
        }
    }

    #[test]
    #[should_panic(expected = "at least one clock")]
    fn empty_fleet_rejected() {
        let _ = ClockFleet::generate(0, params(), &DetRng::new(0));
    }

    #[test]
    fn injected_skew_violates_delta_until_next_resync() {
        let mut fleet = ClockFleet::generate(3, params(), &DetRng::new(5));
        let t = SimTime::from_secs_f64(10.0);
        fleet.resync_all(t);
        assert!(fleet.max_pairwise_deviation(t) <= params().delta);
        let excess = SimDuration::from_micros(300);
        fleet.inject_skew(1, excess, t);
        let dev = fleet.max_pairwise_deviation(t);
        assert!(
            dev >= params().delta + excess,
            "deviation {dev:?} not beyond delta+excess"
        );
        // A (successful) resync restores the bound.
        let later = t + SimDuration::from_secs(1);
        fleet.resync_all(later);
        assert!(fleet.max_pairwise_deviation(later) <= params().delta);
    }
}
