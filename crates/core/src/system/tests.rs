//! Mission-level tests of the assembled system (all three layers).

use super::*;
use crate::config::{Scheme, SystemConfig};

fn base() -> crate::config::SystemConfigBuilder {
    SystemConfig::builder()
        .seed(7)
        .duration_secs(120.0)
        .internal_rate_per_min(60.0)
        .external_rate_per_min(6.0)
}

#[test]
fn fault_free_coordinated_run_is_clean() {
    let outcome = Mission::new(base().scheme(Scheme::Coordinated).build()).run();
    assert!(
        outcome.verdicts.all_hold(),
        "{:?}",
        outcome.verdicts.violations
    );
    assert!(outcome.metrics.stable_commits > 0, "TB must checkpoint");
    assert!(
        outcome.metrics.at_runs > 0,
        "external messages must be tested"
    );
    assert_eq!(outcome.metrics.at_failures, 0);
    assert!(outcome.device_messages > 0);
    assert!(!outcome.shadow_promoted);
}

#[test]
fn software_fault_triggers_takeover_and_recovers() {
    let outcome = Mission::new(
        base()
            .scheme(Scheme::Coordinated)
            .software_fault_at_secs(40.0)
            .build(),
    )
    .run();
    assert!(outcome.shadow_promoted, "shadow must take over");
    assert_eq!(outcome.metrics.software_recoveries, 1);
    assert!(outcome.metrics.at_failures >= 1);
    assert!(
        outcome.verdicts.all_hold(),
        "{:?}",
        outcome.verdicts.violations
    );
    assert!(
        outcome.device_messages > 0,
        "external service continues after takeover"
    );
}

#[test]
fn hardware_fault_recovers_consistently_under_coordination() {
    let outcome = Mission::new(
        base()
            .scheme(Scheme::Coordinated)
            .hardware_fault_at_secs(70.0)
            .build(),
    )
    .run();
    assert_eq!(outcome.metrics.hardware_recoveries, 1);
    assert!(
        outcome.verdicts.all_hold(),
        "{:?}",
        outcome.verdicts.violations
    );
    let distances = outcome.metrics.hardware_rollback_distances();
    assert_eq!(distances.len(), 3, "all three processes roll back");
    for d in distances {
        assert!(d < 120.0, "rollback bounded by mission length");
    }
}

#[test]
fn naive_combination_violates_validity() {
    // Find a seed where the fault lands while P2 is dirty — with a
    // 60/min internal rate P2 is dirty most of the time.
    let mut violated = false;
    for seed in 0..10 {
        let outcome = Mission::new(
            base()
                .seed(seed)
                .scheme(Scheme::Naive)
                .hardware_fault_at_secs(71.0)
                .build(),
        )
        .run();
        if !outcome.verdicts.of("validity-self").is_empty() {
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "naive combination must exhibit the Fig. 4(a) validity loss"
    );
}

#[test]
fn write_through_recovers_but_more_expensively() {
    let outcome = Mission::new(
        base()
            .scheme(Scheme::WriteThrough)
            .hardware_fault_at_secs(70.0)
            .build(),
    )
    .run();
    assert!(
        outcome.verdicts.all_hold(),
        "{:?}",
        outcome.verdicts.violations
    );
    assert!(outcome.metrics.stable_commits > 0);
    assert_eq!(outcome.metrics.hardware_recoveries, 1);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed| {
        let o = Mission::new(
            base()
                .seed(seed)
                .scheme(Scheme::Coordinated)
                .hardware_fault_at_secs(50.0)
                .software_fault_at_secs(90.0)
                .build(),
        )
        .run();
        (
            o.metrics.messages_sent,
            o.metrics.stable_commits,
            o.device_messages,
            o.metrics.hardware_rollback_distances(),
        )
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

#[test]
fn coordinated_beats_write_through_on_rollback_distance() {
    // The headline comparison (Fig. 7), run below the model's crossover
    // interval Δ < 2/(λi+λv): internal messages 60/h, validations
    // ~2+/min, Δ = 2s.
    let mean = |scheme| {
        let mut total = 0.0;
        let mut n = 0u32;
        for seed in 0..8 {
            let o = Mission::new(
                SystemConfig::builder()
                    .seed(seed)
                    .scheme(scheme)
                    .duration_secs(400.0)
                    .internal_rate_per_min(1.0)
                    .external_rate_per_min(2.0)
                    .tb_interval_secs(2.0)
                    .hardware_fault_at_secs(310.0)
                    .trace(false)
                    .build(),
            )
            .run();
            for d in o.metrics.hardware_rollback_distances() {
                total += d;
                n += 1;
            }
        }
        total / f64::from(n)
    };
    let co = mean(Scheme::Coordinated);
    let wt = mean(Scheme::WriteThrough);
    assert!(
        co < wt,
        "coordinated ({co:.1}s) must beat write-through ({wt:.1}s)"
    );
}

#[test]
fn software_then_hardware_fault_sequence_survives() {
    let outcome = Mission::new(
        base()
            .scheme(Scheme::Coordinated)
            .software_fault_at_secs(30.0)
            .hardware_fault_at_secs(80.0)
            .build(),
    )
    .run();
    assert_eq!(outcome.metrics.software_recoveries, 1);
    assert_eq!(outcome.metrics.hardware_recoveries, 1);
    assert!(
        outcome.verdicts.all_hold(),
        "{:?}",
        outcome.verdicts.violations
    );
}

#[test]
fn crash_of_each_node_is_survivable() {
    for node in 0..3usize {
        let outcome = Mission::new(
            base()
                .scheme(Scheme::Coordinated)
                .hardware_fault(crate::faults::HardwareFault {
                    at: SimTime::from_secs_f64(60.0),
                    node,
                })
                .build(),
        )
        .run();
        assert!(
            outcome.verdicts.all_hold(),
            "node {node}: {:?}",
            outcome.verdicts.violations
        );
        assert_eq!(outcome.metrics.hardware_recoveries, 1, "node {node}");
    }
}

#[test]
fn volatile_image_matches_decoded_checkpoint() {
    // The host-side cache must mirror exactly what the stored bytes decode
    // to — the adapted-TB dirty copy and volatile rollback depend on it.
    let mut system = System::new(base().scheme(Scheme::Coordinated).trace(false).build());
    system.run();
    let mut images_checked = 0;
    for host in &system.hosts {
        let (Some(img), Some(ckpt)) = (host.volatile_image(), host.volatile.latest()) else {
            continue;
        };
        let decoded =
            crate::payload::CheckpointPayload::from_checkpoint(ckpt).expect("volatile decodes");
        assert_eq!(img, &decoded, "cached image diverged for {}", host.pid);
        images_checked += 1;
    }
    assert!(images_checked > 0, "no volatile checkpoints were cached");
}

#[test]
fn unknown_pid_actor_and_node_find_no_host() {
    let system = System::new(base().scheme(Scheme::Coordinated).no_workload().build());
    for (i, host) in system.hosts.iter().enumerate() {
        assert_eq!(system.index_of_pid(host.pid), Some(i));
        assert_eq!(system.index_of_node(host.node), Some(i));
        assert_eq!(system.host_index(system.host_actors[i]), Some(i));
    }
    assert_eq!(system.index_of_pid(ProcessId(99)), None);
    assert_eq!(system.index_of_node(3), None);
    assert_eq!(system.host_index(system.device_actor), None);
    assert_eq!(system.host_index(system.system_actor), None);
}

#[test]
fn envelope_to_an_unregistered_pid_is_dropped_before_the_network() {
    use synergy_net::{MessageBody, MsgId};
    let mut system = System::new(base().scheme(Scheme::Coordinated).no_workload().build());
    let pending = system.sim.pending();
    let mut untouched = system.net.clone();
    let body = MessageBody::Application {
        payload: vec![1],
        dirty: false,
    };
    let id = MsgId {
        from: P1ACT,
        seq: MsgSeqNo(1),
    };
    system.route_only(
        Envelope::new(id, ProcessId(99), body.clone()),
        SimTime::ZERO,
    );
    assert_eq!(system.sim.pending(), pending, "nothing scheduled");
    // The same envelope to a registered process is routed and scheduled,
    // at the instant the network answered before the drop: no random draw
    // was spent on it.
    let routed = Envelope::new(id, P2, body);
    let at = untouched.route(SimTime::ZERO, &routed);
    assert_eq!(system.net.clone().route(SimTime::ZERO, &routed), at);
    system.route_only(routed, SimTime::ZERO);
    assert_eq!(system.sim.pending(), pending + 1);
}

// ---------------------------------------------------------------------------
// Unmasked-regime lattice: one mission-level test per regime, classified by
// `run_regime_mission` so the full evidence pipeline (injection, counters,
// oracle diff, verdict) is exercised, not just the classifier.
// ---------------------------------------------------------------------------

#[test]
fn regime_bad_messages_full_coverage_is_detected_and_recovered() {
    let cfg = base()
        .scheme(Scheme::Coordinated)
        .bad_messages(40.0, 1.0)
        .build();
    let report = crate::regime::run_regime_mission(&cfg);
    assert!(report.at_catches >= 1, "AT must catch corrupt externals");
    assert_eq!(report.at_escapes, 0, "full coverage leaves no escapes");
    assert!(report.escapes.is_empty());
    assert_eq!(
        report.verdict,
        crate::regime::RegimeVerdict::DetectedAndRecovered,
        "{report:?}"
    );
    assert!(
        report.detection_latency_secs.is_some(),
        "first catch must stamp a latency"
    );
}

#[test]
fn regime_zero_coverage_escapes_are_counted_and_localized() {
    // Coverage 0 is the pure false-negative regime: every corrupt payload
    // slips past the AT and reaches the device. The oracle diff must count
    // each one and pin it to the corrupted byte.
    let cfg = base()
        .scheme(Scheme::Coordinated)
        .bad_messages(40.0, 0.5)
        .at_coverage(0.0)
        .build();
    let report = crate::regime::run_regime_mission(&cfg);
    assert!(report.at_escapes >= 1, "coverage 0 must leak: {report:?}");
    assert_eq!(report.at_catches, 0);
    assert_eq!(
        report.escapes.len(),
        report.at_escapes as usize,
        "oracle diff must localize exactly the escaped payloads: {report:?}"
    );
    assert_eq!(
        report.verdict,
        crate::regime::RegimeVerdict::DocumentedEscape,
        "{report:?}"
    );
    let first = report.escapes.first().expect("non-empty escapes");
    assert_eq!(
        first.offset, 16,
        "corruption flips the checksum byte at offset 16"
    );
}

#[test]
fn regime_partial_coverage_filters_takeover_noise_from_escapes() {
    // A caught corruption triggers a takeover, after which the observed
    // trajectory legitimately diverges from the fault-free oracle. Those
    // diffs must not masquerade as escapes: only records carrying the
    // single-byte corruption signature count.
    // With seed 7 the first drawn corruption is caught (empirically), so the
    // oracle diff sees only post-takeover retiming — which must be filtered.
    let cfg = base()
        .scheme(Scheme::Coordinated)
        .bad_messages(40.0, 0.5)
        .at_coverage(0.4)
        .build();
    let report = crate::regime::run_regime_mission(&cfg);
    assert!(report.at_catches >= 1, "{report:?}");
    assert_eq!(report.at_escapes, 0, "{report:?}");
    assert!(
        report.escapes.is_empty(),
        "takeover retiming must not count as escapes: {report:?}"
    );
    assert_eq!(
        report.verdict,
        crate::regime::RegimeVerdict::DetectedAndRecovered,
        "{report:?}"
    );
}

#[test]
fn regime_resync_violation_is_flagged_not_recovered() {
    let cfg = base()
        .scheme(Scheme::Coordinated)
        .resync_violation(40.0, synergy_des::SimDuration::from_micros(500), 1)
        .build();
    let report = crate::regime::run_regime_mission(&cfg);
    assert!(report.resync_violations >= 1, "{report:?}");
    assert!(report.violations >= 1, "checker must flag the delta bound");
    assert_eq!(
        report.verdict,
        crate::regime::RegimeVerdict::DetectedAndFlagged,
        "{report:?}"
    );
}

#[test]
fn regime_resync_violation_makes_epoch_line_provably_stale() {
    // The violated δ bound followed by a hardware recovery: the epoch line
    // is computed under a broken clock envelope and must be flagged stale.
    let cfg = base()
        .scheme(Scheme::Coordinated)
        .resync_violation(40.0, synergy_des::SimDuration::from_micros(500), 1)
        .hardware_fault_at_secs(60.0)
        .build();
    let report = crate::regime::run_regime_mission(&cfg);
    assert!(report.resync_violations >= 1, "{report:?}");
    assert!(report.stale_epoch_lines >= 1, "{report:?}");
    assert_eq!(
        report.verdict,
        crate::regime::RegimeVerdict::DetectedAndFlagged,
        "{report:?}"
    );
}

#[test]
fn regime_byzantine_flip_surfaces_as_documented_escape() {
    let cfg = base()
        .scheme(Scheme::Coordinated)
        .byzantine_flip(40.0, 0)
        .hardware_fault(crate::faults::HardwareFault::on(
            crate::NodeId::P1Act,
            synergy_des::SimTime::from_secs_f64(60.0),
        ))
        .build();
    let report = crate::regime::run_regime_mission(&cfg);
    assert_eq!(report.byz_corruptions, 1, "{report:?}");
    assert!(
        !report.escapes.is_empty(),
        "value flip behind a valid CRC must surface in the oracle diff: {report:?}"
    );
    assert_eq!(
        report.verdict,
        crate::regime::RegimeVerdict::DocumentedEscape,
        "{report:?}"
    );
}

#[test]
fn regime_reports_are_deterministic_per_seed() {
    for seed in [3u64, 11, 29] {
        let cfg = base()
            .seed(seed)
            .scheme(Scheme::Coordinated)
            .bad_messages(40.0, 0.5)
            .at_coverage(0.5)
            .build();
        let a = crate::regime::run_regime_mission(&cfg);
        let b = crate::regime::run_regime_mission(&cfg);
        assert_eq!(a, b, "seed {seed}: regime runs must be reproducible");
    }
}

#[test]
fn regime_masked_plan_stays_byte_identical_to_baseline() {
    // A plan with rate 0 arms the injector but corrupts nothing; the device
    // stream must match the completely unplanned baseline byte for byte.
    let planned = Mission::new(
        base()
            .scheme(Scheme::Coordinated)
            .bad_messages(40.0, 0.0)
            .build(),
    )
    .run();
    let baseline = Mission::new(base().scheme(Scheme::Coordinated).build()).run();
    assert_eq!(planned.device_stream, baseline.device_stream);
}
