//! Poisson workload generation.

use synergy_des::{DetRng, SimDuration};

/// A Poisson arrival stream: exponential inter-arrival times at a fixed
/// rate, drawn from a dedicated deterministic stream.
#[derive(Clone, Debug)]
pub(crate) struct ArrivalStream {
    rate_hz: f64,
    rng: DetRng,
}

impl ArrivalStream {
    /// Creates a stream with `rate_hz` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not finite and positive.
    pub(crate) fn new(rate_hz: f64, rng: DetRng) -> Self {
        assert!(
            rate_hz.is_finite() && rate_hz > 0.0,
            "invalid rate: {rate_hz}"
        );
        ArrivalStream { rate_hz, rng }
    }

    /// Draws the next inter-arrival gap (exponential, never exactly zero).
    pub(crate) fn next_interarrival(&mut self) -> SimDuration {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let secs = -u.ln() / self.rate_hz;
        SimDuration::from_secs_f64(secs.max(1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_interarrival_matches_rate() {
        let mut s = ArrivalStream::new(4.0, DetRng::new(3).stream("t"));
        let n = 20_000;
        let total: f64 = (0..n).map(|_| s.next_interarrival().as_secs_f64()).sum();
        let mean = total / f64::from(n);
        assert!((mean - 0.25).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn gaps_are_positive() {
        let mut s = ArrivalStream::new(1000.0, DetRng::new(5).stream("t"));
        for _ in 0..1000 {
            assert!(s.next_interarrival() > SimDuration::ZERO);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = ArrivalStream::new(1.0, DetRng::new(9).stream("x"));
        let mut b = ArrivalStream::new(1.0, DetRng::new(9).stream("x"));
        for _ in 0..100 {
            assert_eq!(a.next_interarrival(), b.next_interarrival());
        }
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn zero_rate_rejected() {
        ArrivalStream::new(0.0, DetRng::new(0));
    }
}
