//! System configuration and scheme selection.

use core::fmt;

use synergy_clocks::SyncParams;
use synergy_des::{SimDuration, SimTime};
use synergy_tb::TbVariant;

use crate::faults::{FaultPlan, HardwareFault, SoftwareFault};
use crate::regime::{
    AtCoveragePlan, BadMessagePlan, ByzantinePlan, RegimePlan, ResyncViolationPlan,
};

/// How the software and hardware fault-tolerance protocols are combined.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The paper's contribution: modified MDCD + adapted TB, coordinated
    /// through dirty bits and `Ndc` matching (§3–§4).
    Coordinated,
    /// The write-through baseline of §3: original MDCD whose Type-2
    /// checkpoints are written through to stable storage on every
    /// validation; no TB timers.
    WriteThrough,
    /// The invalid simple combination of §4.1: original MDCD and original
    /// TB running concurrently with no coordination.
    Naive,
    /// Original MDCD alone (software fault tolerance only; hardware faults
    /// lose all progress).
    MdcdOnly,
}

impl Scheme {
    /// The protocol choices this scheme makes.
    pub fn policy(self) -> &'static dyn crate::system::SchemePolicy {
        crate::system::policy_for(self)
    }

    /// The TB variant this scheme runs, if any.
    pub(crate) fn tb_variant(self) -> Option<TbVariant> {
        self.policy().tb_variant()
    }
}

/// Identifies one mission among many a fleet holds at once: the key of the
/// fleet's slot map, and nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MissionId(pub u64);

impl MissionId {
    /// The id of a mission that no fleet holds.
    pub const SOLO: MissionId = MissionId(0);
}

impl fmt::Display for MissionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Full configuration of one simulated mission.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Protocol combination under test.
    pub scheme: Scheme,
    /// Master seed for all random streams.
    pub seed: u64,
    /// The fleet's slot key for this mission. It is never on the wire or
    /// on disk and never feeds a random stream, so two runs differing
    /// only in it behave byte-identically. Standalone runs keep
    /// [`MissionId::SOLO`].
    pub mission: MissionId,
    /// Mission length.
    pub duration: SimDuration,
    /// Minimum network delay (`tmin`).
    pub tmin: SimDuration,
    /// Maximum network delay (`tmax`).
    pub tmax: SimDuration,
    /// Clock synchronization quality (`δ`, `ρ`).
    pub sync: SyncParams,
    /// TB checkpoint interval (`Δ`).
    pub tb_interval: SimDuration,
    /// Internal application-message rate per component (Hz).
    pub internal_rate_hz: f64,
    /// External (device-bound, acceptance-tested) message rate per
    /// component (Hz).
    pub external_rate_hz: f64,
    /// Scheduled faults.
    pub faults: FaultPlan,
    /// Delay between a hardware fault and system-wide recovery.
    pub restart_delay: SimDuration,
    /// Whether to record a full event trace (disable for long sweeps).
    pub trace: bool,
    /// When set, account every stable commit through the incremental
    /// checkpoint chain (full image every `k` commits, dirty-region deltas
    /// between) and record the byte costs in
    /// [`RunMetrics::stable_bytes_full`](crate::RunMetrics) /
    /// [`stable_bytes_delta`](crate::RunMetrics::stable_bytes_delta).
    /// Accounting only — protocol behaviour, schedules and device streams
    /// are byte-identical with it on or off.
    pub checkpoint_delta_k: Option<u32>,
    /// Additional scripted application sends (used by the figure
    /// scenarios); they fire once at the given instants, on top of (or, with
    /// zero rates, instead of) the Poisson workload.
    pub scripted_sends: Vec<ScriptedSend>,
    /// Unmasked-regime injection plan (bad messages, AT false negatives,
    /// resync violations, Byzantine-lite corruption). Defaults to
    /// [`RegimePlan::none`]; a masked run is byte-identical with the field
    /// present or absent.
    pub regime: RegimePlan,
}

/// One scripted application send.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScriptedSend {
    /// When the application produces the message.
    pub at: SimTime,
    /// Which component produces it (1 drives both replicas, 2 drives `P2`).
    pub component: u8,
    /// Whether the message is external (acceptance-tested).
    pub external: bool,
}

impl SystemConfig {
    /// Starts building a configuration from defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// Validates the full injection surface — the fault plan and the
    /// regime plan — returning the first structured error. `System::new`
    /// calls this and panics on failure (a hand-built config is a
    /// programming error); chaos and cluster callers validate ahead of
    /// time and surface the typed error instead.
    ///
    /// # Errors
    ///
    /// The first [`FaultPlanError`](crate::FaultPlanError) in the fault
    /// plan, then the regime plan.
    pub fn validate(&self) -> Result<(), crate::FaultPlanError> {
        self.faults.validate()?;
        self.regime.validate()
    }

    /// The oracle twin of this configuration: identical in every respect
    /// except that the regime plan is cleared. Diffing a regime run's device
    /// stream against its oracle's counts and localizes escapes.
    pub fn oracle(&self) -> SystemConfig {
        let mut cfg = self.clone();
        cfg.regime = RegimePlan::none();
        cfg
    }
}

/// Builder for [`SystemConfig`]; all setters are optional.
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        SystemConfigBuilder {
            cfg: SystemConfig {
                scheme: Scheme::Coordinated,
                seed: 0,
                mission: MissionId::SOLO,
                duration: SimDuration::from_secs(300),
                tmin: SimDuration::from_micros(200),
                tmax: SimDuration::from_millis(2),
                sync: SyncParams::new(SimDuration::from_micros(500), 1e-4),
                tb_interval: SimDuration::from_secs(10),
                internal_rate_hz: 1.0,
                external_rate_hz: 1.0 / 60.0,
                faults: FaultPlan::default(),
                restart_delay: SimDuration::from_millis(500),
                trace: true,
                checkpoint_delta_k: None,
                scripted_sends: Vec::new(),
                regime: RegimePlan::none(),
            },
        }
    }
}

impl SystemConfigBuilder {
    /// Sets the protocol scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the fleet's slot key for this mission.
    pub fn mission(mut self, mission: MissionId) -> Self {
        self.cfg.mission = mission;
        self
    }

    /// Sets the mission length in seconds.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.cfg.duration = SimDuration::from_secs_f64(secs);
        self
    }

    /// Sets the network delay bounds.
    pub fn delays(mut self, tmin: SimDuration, tmax: SimDuration) -> Self {
        assert!(tmin <= tmax, "tmin must not exceed tmax");
        self.cfg.tmin = tmin;
        self.cfg.tmax = tmax;
        self
    }

    /// Sets clock synchronization quality.
    pub fn sync(mut self, sync: SyncParams) -> Self {
        self.cfg.sync = sync;
        self
    }

    /// Sets the TB checkpoint interval in seconds.
    pub fn tb_interval_secs(mut self, secs: f64) -> Self {
        self.cfg.tb_interval = SimDuration::from_secs_f64(secs);
        self
    }

    /// Sets the per-component internal message rate, in messages/minute.
    pub fn internal_rate_per_min(mut self, per_min: f64) -> Self {
        self.cfg.internal_rate_hz = per_min / 60.0;
        self
    }

    /// Sets the per-component external message rate, in messages/minute.
    pub fn external_rate_per_min(mut self, per_min: f64) -> Self {
        self.cfg.external_rate_hz = per_min / 60.0;
        self
    }

    /// Schedules a hardware fault on `P2`'s node
    /// ([`NodeId::P2`](crate::NodeId)) at `secs`.
    pub fn hardware_fault_at_secs(self, secs: f64) -> Self {
        self.hardware_fault(HardwareFault::on(
            crate::NodeId::P2,
            SimTime::from_secs_f64(secs),
        ))
    }

    /// Schedules a hardware fault on an arbitrary node.
    pub fn hardware_fault(mut self, fault: HardwareFault) -> Self {
        self.cfg.faults.hardware.push(fault);
        self
    }

    /// Activates the active version's design fault at `secs` (the next
    /// acceptance test after this instant fails).
    pub fn software_fault_at_secs(mut self, secs: f64) -> Self {
        self.cfg.faults.software = Some(SoftwareFault {
            at: SimTime::from_secs_f64(secs),
        });
        self
    }

    /// Sets the fault-to-recovery delay.
    pub fn restart_delay(mut self, delay: SimDuration) -> Self {
        self.cfg.restart_delay = delay;
        self
    }

    /// Enables or disables trace recording.
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Enables incremental-checkpoint byte accounting with a full image
    /// every `k` stable commits (`k = 1` measures the full-image scheme).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn checkpoint_delta_k(mut self, k: u32) -> Self {
        assert!(k >= 1, "full-image cadence k must be at least 1");
        self.cfg.checkpoint_delta_k = Some(k);
        self
    }

    /// Disables the Poisson workload entirely (scripted scenarios drive all
    /// traffic through [`scripted_send`](Self::scripted_send)).
    pub fn no_workload(mut self) -> Self {
        self.cfg.internal_rate_hz = 0.0;
        self.cfg.external_rate_hz = 0.0;
        self
    }

    /// Adds one scripted application send.
    pub fn scripted_send(mut self, at_secs: f64, component: u8, external: bool) -> Self {
        assert!(component == 1 || component == 2, "component must be 1 or 2");
        self.cfg.scripted_sends.push(ScriptedSend {
            at: SimTime::from_secs_f64(at_secs),
            component,
            external,
        });
        self
    }

    /// Uses a fixed network delay for every link (deterministic scenarios).
    pub(crate) fn fixed_delay(mut self, delay: SimDuration) -> Self {
        self.cfg.tmin = delay;
        self.cfg.tmax = delay;
        self
    }

    /// Uses perfectly synchronized, drift-free clocks.
    pub(crate) fn perfect_clocks(mut self) -> Self {
        self.cfg.sync = SyncParams::new(SimDuration::ZERO, 0.0);
        self
    }

    /// Installs a complete unmasked-regime plan (used by the chaos
    /// generator, which assembles plans axis by axis).
    pub fn regime(mut self, plan: RegimePlan) -> Self {
        self.cfg.regime = plan;
        self
    }

    /// Regime axis 1: after `after_secs`, the active process corrupts each
    /// external payload with probability `rate`; the acceptance test catches
    /// every corruption unless [`at_coverage`](Self::at_coverage) lowers it.
    pub fn bad_messages(mut self, after_secs: f64, rate: f64) -> Self {
        self.cfg.regime.bad_messages = Some(BadMessagePlan {
            after: SimTime::from_secs_f64(after_secs),
            rate,
        });
        self
    }

    /// Regime axis 2: seeded AT coverage knob — a corrupt payload escapes to
    /// the device with probability `1 - coverage`.
    pub fn at_coverage(mut self, coverage: f64) -> Self {
        self.cfg.regime.at_coverage = Some(AtCoveragePlan { coverage });
        self
    }

    /// Regime axis 3: after `after_secs`, resynchronizations leave `node`'s
    /// clock `excess` beyond the δ envelope.
    pub fn resync_violation(mut self, after_secs: f64, excess: SimDuration, node: usize) -> Self {
        self.cfg.regime.resync_violation = Some(ResyncViolationPlan {
            after: SimTime::from_secs_f64(after_secs),
            excess,
            node,
        });
        self
    }

    /// Regime axis 4: at `at_secs`, flip value bytes in `node`'s latest
    /// stable checkpoint behind a valid CRC.
    pub fn byzantine_flip(mut self, at_secs: f64, node: usize) -> Self {
        self.cfg.regime.byzantine = Some(ByzantinePlan {
            at: SimTime::from_secs_f64(at_secs),
            node,
        });
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SystemConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_mdcd::Variant;

    #[test]
    fn scheme_protocol_mapping() {
        assert_eq!(
            Scheme::Coordinated.policy().mdcd_config().variant,
            Variant::Modified
        );
        assert_eq!(Scheme::Coordinated.tb_variant(), Some(TbVariant::Adapted));
        assert_eq!(Scheme::Naive.tb_variant(), Some(TbVariant::Original));
        assert_eq!(Scheme::WriteThrough.tb_variant(), None);
        assert!(Scheme::WriteThrough.policy().stable_on_validation());
        assert!(Scheme::WriteThrough.policy().mdcd_config().active_type2);
        assert!(!Scheme::Coordinated.policy().stable_on_validation());
    }

    #[test]
    fn builder_defaults_are_sane() {
        let cfg = SystemConfig::builder().build();
        assert_eq!(cfg.scheme, Scheme::Coordinated);
        assert!(cfg.tmin <= cfg.tmax);
        assert!(cfg.tb_interval > SimDuration::ZERO);
        assert!(cfg.faults.hardware.is_empty());
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = SystemConfig::builder()
            .scheme(Scheme::Naive)
            .seed(7)
            .duration_secs(60.0)
            .internal_rate_per_min(120.0)
            .external_rate_per_min(3.0)
            .hardware_fault_at_secs(30.0)
            .software_fault_at_secs(20.0)
            .build();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.internal_rate_hz, 2.0);
        assert_eq!(cfg.external_rate_hz, 0.05);
        assert_eq!(cfg.faults.hardware.len(), 1);
        assert!(cfg.faults.software.is_some());
    }

    #[test]
    fn validate_covers_fault_and_regime_plans() {
        let ok = SystemConfig::builder().bad_messages(10.0, 0.5).build();
        assert_eq!(ok.validate(), Ok(()));
        let bad_rate = SystemConfig::builder().bad_messages(10.0, 1.5).build();
        assert!(bad_rate.validate().is_err());
        let bad_node = SystemConfig::builder().byzantine_flip(10.0, 9).build();
        assert!(matches!(
            bad_node.validate(),
            Err(crate::FaultPlanError::NodeOutOfRange { node: 9 })
        ));
        let bad_fault = SystemConfig::builder()
            .hardware_fault(HardwareFault {
                at: SimTime::from_secs_f64(5.0),
                node: 7,
            })
            .build();
        assert!(matches!(
            bad_fault.validate(),
            Err(crate::FaultPlanError::NodeOutOfRange { node: 7 })
        ));
    }

    #[test]
    #[should_panic(expected = "tmin must not exceed tmax")]
    fn inverted_delays_rejected() {
        SystemConfig::builder().delays(SimDuration::from_millis(5), SimDuration::from_millis(1));
    }
}
