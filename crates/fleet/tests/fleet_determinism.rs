//! The fleet's headline invariant: a tenant's mission is byte-identical
//! to a standalone simulator run of the same seed and config. Sixteen
//! tenants — fault-free, hardware-faulted and software-faulted — run
//! multiplexed over a multi-worker fleet, and each one's device stream
//! and full run metrics must equal sixteen independent single-mission
//! simulator runs. The mission id is the only difference between the two
//! sides, proving the tag never leaks into protocol behaviour.

use std::sync::Arc;

use synergy::{Scheme, System, SystemConfig};
use synergy_fleet::{FleetConfig, FleetManager, MissionId, NullSink};

const TENANTS: u64 = 16;

fn mission_cfg(i: u64, mission: MissionId) -> SystemConfig {
    let mut builder = SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .mission(mission)
        .seed(9000 + i)
        .duration_secs(90.0)
        .internal_rate_per_min(60.0)
        .external_rate_per_min(6.0)
        .trace(false);
    if i.is_multiple_of(2) {
        builder = builder.hardware_fault_at_secs(45.0);
    }
    if i.is_multiple_of(3) {
        builder = builder.software_fault_at_secs(20.0);
    }
    builder.build()
}

#[test]
fn sixteen_tenants_match_sixteen_solo_simulator_runs_byte_for_byte() {
    let fleet = FleetManager::new(
        FleetConfig::default()
            .with_slots(TENANTS as usize)
            .with_workers(4)
            .with_capture(),
        Arc::new(NullSink::new()),
    );
    for i in 1..=TENANTS {
        fleet.attach(mission_cfg(i, MissionId(i))).unwrap();
    }
    assert_eq!(fleet.run_until_idle(), TENANTS);

    for i in 1..=TENANTS {
        let report = fleet.detach(MissionId(i)).unwrap();
        let mut solo = System::new(mission_cfg(i, MissionId::SOLO));
        solo.run();
        assert_eq!(
            report.captured,
            solo.device_stream(),
            "tenant {i}: device stream diverged from the solo run"
        );
        assert_eq!(
            &report.metrics,
            solo.metrics(),
            "tenant {i}: run metrics diverged from the solo run"
        );
        assert_eq!(
            report.verdicts_hold,
            solo.verdicts().all_hold(),
            "tenant {i}: verdicts diverged from the solo run"
        );
        assert!(
            !report.captured.is_empty(),
            "tenant {i}: the comparison must cover a non-empty stream"
        );
    }
    // The faulted tenants really exercised recovery, so the equality
    // above covered rollback paths, not just quiet missions.
    let (sw, hw) = fleet.stats().rollbacks();
    assert!(sw > 0, "some tenant must have taken a software rollback");
    assert!(hw > 0, "some tenant must have taken a hardware rollback");
}
