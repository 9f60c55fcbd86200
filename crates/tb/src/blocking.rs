//! Blocking-period arithmetic (paper Table 1).

use synergy_clocks::SyncParams;
use synergy_des::SimDuration;

use crate::config::TbVariant;

/// `Tm(b) = b·tmax − (1−b)·tmin` — the message-delay term of the adapted
/// blocking period. Returned as a signed contribution: `(magnitude, sign)`
/// is awkward, so this helper returns the *final* period given the base.
///
/// For a dirty process (`b = 1`) the term **adds** `tmax`: any `passed_AT`
/// already in flight when the timer expired must land inside the blocking
/// period. For a clean process (`b = 0`) the term **subtracts** `tmin`,
/// exactly as in the original protocol: a message sent at the end of the
/// blocking period arrives at least `tmin` later, by which time every other
/// timer has expired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tm {
    /// `b = 1`: add `tmax`.
    Dirty,
    /// `b = 0`: subtract `tmin`.
    Clean,
}

impl Tm {
    /// Builds the term from a dirty bit.
    pub(crate) fn from_bit(dirty: bool) -> Self {
        if dirty {
            Tm::Dirty
        } else {
            Tm::Clean
        }
    }

    /// Applies the term to the `δ + 2ρτ` base.
    pub fn apply(self, base: SimDuration, tmin: SimDuration, tmax: SimDuration) -> SimDuration {
        match self {
            Tm::Dirty => base + tmax,
            Tm::Clean => base.saturating_sub(tmin),
        }
    }
}

/// The length of the blocking period a process enters when its
/// checkpointing timer expires.
///
/// * Original TB: `δ + 2ρτ − tmin` regardless of the dirty bit;
/// * Adapted TB: `δ + 2ρτ + Tm(b)` with `Tm(1) = +tmax`, `Tm(0) = −tmin`.
///
/// `elapsed` is the local time since the last timer resynchronization (`τ`).
///
/// # Example
///
/// ```rust
/// use synergy_clocks::SyncParams;
/// use synergy_des::SimDuration;
/// use synergy_tb::{blocking_period, TbVariant};
///
/// let sync = SyncParams::new(SimDuration::from_micros(500), 1e-4);
/// let tmin = SimDuration::from_micros(200);
/// let tmax = SimDuration::from_millis(2);
/// let elapsed = SimDuration::from_secs(10);
///
/// let clean = blocking_period(TbVariant::Adapted, sync, elapsed, tmin, tmax, false);
/// let dirty = blocking_period(TbVariant::Adapted, sync, elapsed, tmin, tmax, true);
/// let original = blocking_period(TbVariant::Original, sync, elapsed, tmin, tmax, true);
/// assert_eq!(clean, original, "clean adapted == original (paper §4.2)");
/// assert_eq!(dirty - clean, tmax + tmin);
/// ```
pub fn blocking_period(
    variant: TbVariant,
    sync: SyncParams,
    elapsed: SimDuration,
    tmin: SimDuration,
    tmax: SimDuration,
    dirty: bool,
) -> SimDuration {
    let base = sync.deviation_bound(elapsed);
    match variant {
        TbVariant::Original => base.saturating_sub(tmin),
        TbVariant::Adapted => Tm::from_bit(dirty).apply(base, tmin, tmax),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync() -> SyncParams {
        SyncParams::new(SimDuration::from_micros(500), 1e-4)
    }

    const TMIN: SimDuration = SimDuration::from_micros(200);
    const TMAX: SimDuration = SimDuration::from_millis(2);

    #[test]
    fn original_ignores_dirty_bit() {
        let e = SimDuration::from_secs(5);
        let a = blocking_period(TbVariant::Original, sync(), e, TMIN, TMAX, false);
        let b = blocking_period(TbVariant::Original, sync(), e, TMIN, TMAX, true);
        assert_eq!(a, b);
        // δ + 2ρτ − tmin = 500us + 2*1e-4*5s − 200us = 500us + 1ms − 200us
        assert_eq!(a, SimDuration::from_micros(500 + 1000 - 200));
    }

    #[test]
    fn adapted_dirty_adds_tmax() {
        let e = SimDuration::from_secs(5);
        let dirty = blocking_period(TbVariant::Adapted, sync(), e, TMIN, TMAX, true);
        assert_eq!(dirty, SimDuration::from_micros(500 + 1000 + 2000));
    }

    #[test]
    fn adapted_clean_equals_original() {
        for secs in [0, 1, 7, 100] {
            let e = SimDuration::from_secs(secs);
            assert_eq!(
                blocking_period(TbVariant::Adapted, sync(), e, TMIN, TMAX, false),
                blocking_period(TbVariant::Original, sync(), e, TMIN, TMAX, false),
            );
        }
    }

    #[test]
    fn blocking_grows_with_elapsed_drift() {
        let short = blocking_period(
            TbVariant::Adapted,
            sync(),
            SimDuration::from_secs(1),
            TMIN,
            TMAX,
            true,
        );
        let long = blocking_period(
            TbVariant::Adapted,
            sync(),
            SimDuration::from_secs(100),
            TMIN,
            TMAX,
            true,
        );
        assert!(long > short);
    }

    #[test]
    fn clean_period_saturates_at_zero() {
        // Huge tmin relative to deviation bound: period clamps to zero
        // instead of underflowing.
        let p = blocking_period(
            TbVariant::Adapted,
            SyncParams::new(SimDuration::from_nanos(1), 0.0),
            SimDuration::ZERO,
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            false,
        );
        assert_eq!(p, SimDuration::ZERO);
    }

    #[test]
    fn tm_from_bit() {
        assert_eq!(Tm::from_bit(true), Tm::Dirty);
        assert_eq!(Tm::from_bit(false), Tm::Clean);
    }
}
