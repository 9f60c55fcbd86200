//! Fault isolation between tenants: a tenant killed mid-checkpoint (its
//! crash tears a stable write, the worst case the paper's blocking
//! periods exist for) must not delay a healthy tenant's progress beyond
//! the scheduler's quantum bound, and must not perturb the healthy
//! tenant's device stream at all.

use std::sync::Arc;

use synergy::{CrashEvent, CrashKind, NodeId, Scheme, System, SystemConfig};
use synergy_fleet::{FleetConfig, FleetManager, MissionId, NullSink, TenantState};

const DURATION_SECS: f64 = 60.0;

/// P2 crashes in checkpoint round 3 (30 s at the default Δ = 10 s) with
/// its stable write staged: the write is torn.
fn crasher_cfg(mission: MissionId) -> SystemConfig {
    SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .mission(mission)
        .seed(4242)
        .duration_secs(DURATION_SECS)
        .internal_rate_per_min(120.0)
        .external_rate_per_min(6.0)
        .trace(false)
        .round_crash(CrashEvent {
            victim: NodeId::P2,
            epoch: 3,
            kind: CrashKind::MidRound,
        })
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

#[test]
fn a_tenant_killed_mid_checkpoint_never_stalls_a_healthy_tenant() {
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
    fleet.attach(crasher_cfg(crasher)).unwrap();
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
