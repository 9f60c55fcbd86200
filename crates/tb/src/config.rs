//! TB protocol configuration.

use synergy_clocks::SyncParams;
use synergy_des::SimDuration;

/// Which TB algorithm a process runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TbVariant {
    /// The protocol as published by Neves & Fuchs: current state always,
    /// blocking `δ + 2ρτ − tmin`, all messages blocked.
    Original,
    /// The adapted protocol of the DSN 2001 paper: dirty-bit–dependent
    /// contents, blocking `δ + 2ρτ + Tm(b)`, `passed_AT` monitored during
    /// blocking with abort-and-replace.
    Adapted,
}

/// Static parameters of the TB protocol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TbConfig {
    /// Algorithm variant.
    pub variant: TbVariant,
    /// `Δ` — the checkpointing interval on the local clock.
    pub interval: SimDuration,
    /// Clock synchronization quality (`δ`, `ρ`).
    pub sync: SyncParams,
    /// Minimum message-delivery delay (`tmin`).
    pub tmin: SimDuration,
    /// Maximum message-delivery delay (`tmax`).
    pub tmax: SimDuration,
}

impl TbConfig {
    /// Creates a configuration, validating parameters.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `tmin > tmax`.
    pub fn new(
        variant: TbVariant,
        interval: SimDuration,
        sync: SyncParams,
        tmin: SimDuration,
        tmax: SimDuration,
    ) -> Self {
        assert!(interval > SimDuration::ZERO, "interval must be positive");
        assert!(tmin <= tmax, "tmin must not exceed tmax");
        TbConfig {
            variant,
            interval,
            sync,
            tmin,
            tmax,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync() -> SyncParams {
        SyncParams::new(SimDuration::from_micros(100), 1e-4)
    }

    #[test]
    fn constructor_validates() {
        let c = TbConfig::new(
            TbVariant::Adapted,
            SimDuration::from_secs(1),
            sync(),
            SimDuration::from_micros(100),
            SimDuration::from_millis(2),
        );
        assert_eq!(c.variant, TbVariant::Adapted);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        TbConfig::new(
            TbVariant::Original,
            SimDuration::ZERO,
            sync(),
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "tmin must not exceed tmax")]
    fn inverted_delays_rejected() {
        TbConfig::new(
            TbVariant::Original,
            SimDuration::from_secs(1),
            sync(),
            SimDuration::from_millis(5),
            SimDuration::from_millis(1),
        );
    }
}
