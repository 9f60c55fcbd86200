//! Fault isolation between tenants: a tenant killed mid-checkpoint (its
//! crash tears a stable write, the worst case the paper's blocking
//! periods exist for) must not delay a healthy tenant's progress beyond
//! the scheduler's quantum bound, and must not perturb the healthy
//! tenant's device stream at all.
//!
//! The crash instant is found the same way the cluster verifier places
//! its mid-round kills: an ε-scan around a TB grid point until the
//! reference run records a torn stable write.

use std::sync::Arc;

use synergy::{Scheme, System, SystemConfig};
use synergy_fleet::{FleetConfig, FleetManager, MissionId, NullSink, TenantState};

const DURATION_SECS: f64 = 60.0;
const GRID_SECS: f64 = 30.0; // 3 · Δ with the default 10 s TB interval

fn crasher_cfg(mission: MissionId, fault_at: f64) -> SystemConfig {
    SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .mission(mission)
        .seed(4242)
        .duration_secs(DURATION_SECS)
        .internal_rate_per_min(120.0)
        .external_rate_per_min(6.0)
        .trace(false)
        .hardware_fault_at_secs(fault_at)
        .build()
}

fn healthy_cfg(mission: MissionId) -> SystemConfig {
    SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .mission(mission)
        .seed(7777)
        .duration_secs(DURATION_SECS)
        .internal_rate_per_min(120.0)
        .external_rate_per_min(6.0)
        .trace(false)
        .build()
}

/// Scans crash offsets around the grid point until the (standalone)
/// mission records a torn stable write — the crash landed inside the
/// blocking period, i.e. mid-checkpoint.
fn find_mid_checkpoint_crash() -> Option<f64> {
    let (lo, hi, step) = (-0.002, 0.006, 0.0002);
    let n = ((hi - lo) / step) as u32;
    (0..=n)
        .map(|i| GRID_SECS + lo + step * f64::from(i))
        .find(|&at| {
            let mut probe = System::new(crasher_cfg(MissionId::SOLO, at));
            probe.run();
            probe.metrics().torn_writes >= 1
        })
}

#[test]
fn a_tenant_killed_mid_checkpoint_never_stalls_a_healthy_tenant() {
    let fault_at = find_mid_checkpoint_crash()
        .expect("the ε-scan must find a crash instant inside a blocking period");

    let crasher = MissionId(1);
    let healthy = MissionId(2);
    // One worker and a small quantum: both tenants share a single
    // scheduler thread, so any cross-tenant stall would show up as a
    // visit gap on the healthy tenant.
    let fleet = FleetManager::new(
        FleetConfig::default()
            .with_slots(2)
            .with_workers(1)
            .with_quantum(64)
            .with_capture(),
        Arc::new(NullSink::new()),
    );
    fleet.attach(crasher_cfg(crasher, fault_at)).unwrap();
    fleet.attach(healthy_cfg(healthy)).unwrap();

    // Drive the fleet deterministically, one pass at a time.
    let mut passes = 0u64;
    while fleet.state(crasher).unwrap() != TenantState::Completed
        || fleet.state(healthy).unwrap() != TenantState::Completed
    {
        fleet.step_pass();
        passes += 1;
        assert!(passes < 1_000_000, "fleet failed to converge");
    }

    let crasher_report = fleet.detach(crasher).unwrap();
    let healthy_report = fleet.detach(healthy).unwrap();

    // The crash really was mid-checkpoint and really was recovered.
    assert_eq!(crasher_report.metrics.torn_writes, 1);
    assert!(crasher_report.metrics.hardware_recoveries >= 1);
    assert!(crasher_report.verdicts_hold);

    // Isolation bound: the healthy tenant was visited on every scheduler
    // pass while it ran — the crasher's recovery never cost it a turn.
    assert_eq!(
        healthy_report.stats.max_pass_gap, 1,
        "healthy tenant skipped a pass while the crasher recovered"
    );

    // And its mission is byte-identical to running alone: the crash next
    // door is invisible in its device stream and metrics.
    let mut solo = System::new(healthy_cfg(MissionId::SOLO));
    solo.run();
    assert_eq!(healthy_report.captured, solo.device_stream());
    assert_eq!(&healthy_report.metrics, solo.metrics());
    assert!(healthy_report.verdicts_hold);
}
