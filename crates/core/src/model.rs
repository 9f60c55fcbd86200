//! Analytic approximations of expected rollback distance.
//!
//! The paper's Figure 7 came from an (unpublished) stochastic model; this
//! module provides transparent renewal-theoretic approximations used to
//! cross-check the simulation, under these assumptions:
//!
//! * validations (successful acceptance tests anywhere in the system) form
//!   a Poisson process with rate `lambda_v`;
//! * internal messages form an independent Poisson process with rate
//!   `lambda_i`; the first internal event after a validation contaminates
//!   the process;
//! * the hardware fault strikes at a random instant in steady state.
//!
//! **Write-through**: the last durable state is the last validation point,
//! so the rollback distance is the backward recurrence time of the
//! validation process: `E[D_wt] ≈ 1/λv`.
//!
//! **Coordinated**: the last durable write happened at the last TB timer,
//! on average `Δ/2` ago. Its contents were *current* if the process was
//! clean at that timer — probability `λv/(λi+λv)` by competing
//! exponentials — in which case nothing older is lost. If the process was
//! dirty, the contents were the volatile checkpoint taken at contamination
//! onset; by memorylessness the time from onset back to the timer is
//! `≈ 1/λv` (exponential), so
//! `E[D_co] ≈ Δ/2 + (λi/(λi+λv)) · 1/λv`.
//!
//! Both formulas ignore network/blocking jitter (sub-millisecond against
//! seconds-scale distances).

/// Expected rollback distance (seconds) under the write-through baseline.
///
/// # Panics
///
/// Panics if `lambda_v` is not positive.
///
/// # Example
///
/// ```rust
/// let d = synergy::model::expected_rollback_write_through(1.0 / 60.0);
/// assert_eq!(d, 60.0);
/// ```
pub fn expected_rollback_write_through(lambda_v: f64) -> f64 {
    assert!(lambda_v > 0.0, "validation rate must be positive");
    1.0 / lambda_v
}

/// Expected rollback distance (seconds) under protocol coordination.
///
/// `delta_secs` is the TB checkpoint interval `Δ`.
///
/// # Panics
///
/// Panics if any rate or the interval is not positive.
pub fn expected_rollback_coordinated(lambda_v: f64, lambda_i: f64, delta_secs: f64) -> f64 {
    assert!(lambda_v > 0.0, "validation rate must be positive");
    assert!(lambda_i > 0.0, "internal rate must be positive");
    assert!(delta_secs > 0.0, "interval must be positive");
    let p_dirty = lambda_i / (lambda_i + lambda_v);
    delta_secs / 2.0 + p_dirty / lambda_v
}

/// The largest TB interval `Δ` for which coordination beats write-through:
/// `E[D_co] < E[D_wt] ⟺ Δ/2 + p·1/λv < 1/λv ⟺ Δ < 2/(λi+λv)`.
///
/// Beyond this interval a (nearly always dirty) process pays the timer
/// staleness `Δ/2` on top of a contents age that already matches the
/// write-through distance.
pub fn crossover_interval(lambda_v: f64, lambda_i: f64) -> f64 {
    assert!(lambda_v > 0.0 && lambda_i > 0.0, "rates must be positive");
    2.0 / (lambda_i + lambda_v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_through_is_validation_recurrence() {
        assert_eq!(expected_rollback_write_through(0.1), 10.0);
    }

    #[test]
    fn coordinated_bounded_below_by_half_interval() {
        let d = expected_rollback_coordinated(1.0, 1e-9, 10.0);
        assert!((d - 5.0).abs() < 1e-3, "clean process loses ~Δ/2, got {d}");
    }

    #[test]
    fn coordinated_approaches_write_through_when_always_dirty() {
        // λi >> λv: p_dirty -> 1, E[D_co] -> Δ/2 + 1/λv.
        let lambda_v = 1.0 / 60.0;
        let d = expected_rollback_coordinated(lambda_v, 1e6, 1.0);
        assert!((d - (0.5 + 60.0)).abs() < 0.1, "{d}");
    }

    #[test]
    fn crossover_separates_winning_and_losing_intervals() {
        let lambda_v = 1.0 / 60.0;
        for lambda_i in [0.01, 0.1, 1.0] {
            let cross = crossover_interval(lambda_v, lambda_i);
            let wt = expected_rollback_write_through(lambda_v);
            let winning = expected_rollback_coordinated(lambda_v, lambda_i, cross * 0.5);
            let losing = expected_rollback_coordinated(lambda_v, lambda_i, cross * 2.0);
            assert!(winning < wt, "should win below crossover (λi={lambda_i})");
            assert!(losing > wt, "should lose above crossover (λi={lambda_i})");
        }
    }

    #[test]
    fn improvement_decreases_with_internal_rate() {
        // E[D_wt] does not depend on λi, so the factor E[D_wt] / E[D_co]
        // falls exactly as E[D_co] grows.
        let d1 = expected_rollback_coordinated(1.0 / 60.0, 0.5, 5.0);
        let d2 = expected_rollback_coordinated(1.0 / 60.0, 3.0, 5.0);
        assert!(d1 < d2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        expected_rollback_write_through(0.0);
    }
}
