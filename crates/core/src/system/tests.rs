//! Mission-level tests of the assembled system (all three layers).

use std::sync::Arc;

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
    for node in NodeId::ALL {
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
fn unknown_pid_actor_and_node_find_no_host() {
    let system = System::new(base().scheme(Scheme::Coordinated).no_workload().build());
    for (i, host) in system.hosts.iter().enumerate() {
        assert_eq!(system.index_of_pid(host.pid), Some(i));
        assert_eq!(system.index_of_node(host.node), Some(i));
        assert_eq!(system.host_index(system.slots[i].actor), Some(i));
    }
    assert_eq!(system.index_of_pid(ProcessId(99)), None);
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
        Envelope::new(id, ProcessId(99), body.clone()).into(),
        SimTime::ZERO,
    );
    assert_eq!(system.sim.pending(), pending, "nothing scheduled");
    // The same envelope to a registered process is routed and scheduled,
    // at the instant the network answered before the drop: no random draw
    // was spent on it.
    let routed = Envelope::new(id, P2, body);
    let at = untouched.route(SimTime::ZERO, &routed);
    assert_eq!(system.net.clone().route(SimTime::ZERO, &routed), at);
    system.route_only(routed.into(), SimTime::ZERO);
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
        .resync_violation(
            40.0,
            synergy_des::SimDuration::from_micros(500),
            NodeId::P1Sdw,
        )
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
        .resync_violation(
            40.0,
            synergy_des::SimDuration::from_micros(500),
            NodeId::P1Sdw,
        )
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
        .byzantine_flip(40.0, NodeId::P1Act)
        .hardware_fault(crate::faults::HardwareFault {
            at: SimTime::from_secs_f64(60.0),
            node: NodeId::P1Act,
        })
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

#[test]
fn a_round_crash_rolls_back_to_the_previous_round_and_tears_only_a_staged_write() {
    use crate::CrashKind::{DoubleKill, MidRound, RoundStart};
    // A 60 s mission (Δ = 10 s) whose `P2` crashes in round 3.
    let mut streams = Vec::new();
    for (kind, torn) in [(RoundStart, 0), (MidRound, 1), (DoubleKill, 1)] {
        let victim = crate::NodeId::P2;
        let crash = crate::CrashEvent {
            victim,
            epoch: 3,
            kind,
        };
        let mut sys = System::new(base().duration_secs(60.0).round_crash(crash).build());
        while sys.metrics().hardware_recoveries == 0 {
            assert_eq!(sys.step_events(1), 1, "{kind:?}: ended before recovering");
        }
        let ndc = |h: &ProcessHost| h.tb.as_ref().map(|tb| tb.ndc().0);
        let line: Vec<_> = sys.hosts.iter().map(ndc).collect();
        assert_eq!(line, [Some(2); 3], "{kind:?}: every host restores line 2");
        sys.run();
        assert_eq!(sys.metrics().torn_writes, torn, "{kind:?}");
        assert_eq!(sys.metrics().hardware_recoveries, 1, "{kind:?}");
        assert!(sys.verdicts().all_hold(), "{kind:?}");
        streams.push(sys.device_stream());
    }
    assert_eq!(
        streams[1], streams[2],
        "a double kill runs as a mid-round crash"
    );
}

#[test]
fn a_torn_rewrite_after_a_rollback_never_restores_the_abandoned_timeline() {
    use crate::CrashKind::MidRound;
    use crate::NodeId::{P1Act, P2};
    // P2's round-7 write tears, and everyone rolls back to epoch 6; the
    // survivors' epoch-7 records belong to the abandoned timeline. In round
    // 8 P1act's new epoch-7 write tears: had the abandoned record stayed,
    // it would be P1act's newest, the line would be 7 and P1act would
    // restore a state whose sends the others' restored states never saw.
    let crash = |victim, epoch| crate::CrashEvent {
        victim,
        epoch,
        kind: MidRound,
    };
    let cfg = SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .seed(1)
        .duration_secs(80.0)
        .internal_rate_per_min(60.0)
        .external_rate_per_min(2.0)
        .tb_interval_secs(5.0)
        .round_crash(crash(P2, 7))
        .round_crash(crash(P1Act, 8))
        .build();
    let mut sys = System::new(cfg);
    while sys.metrics().hardware_recoveries < 2 {
        assert_eq!(sys.step_events(1), 1, "ended before the second recovery");
    }
    let ndc = |h: &ProcessHost| h.tb.as_ref().map(|tb| tb.ndc().0);
    let line: Vec<_> = sys.hosts.iter().map(ndc).collect();
    assert_eq!(line, [Some(6); 3], "the torn victim's epoch 6 is the line");
    sys.run();
    assert!(sys.verdicts().all_hold(), "{:?}", sys.verdicts().violations);
}

// ---------------------------------------------------------------------------
// One allocation per protocol message: the sender's ack tracker, the delivery
// event and the receiver's receive log share the envelope.
// ---------------------------------------------------------------------------

fn coordinated() -> System {
    System::new(base().scheme(Scheme::Coordinated).no_workload().build())
}

/// Steps `system` until host `i` has logged a receipt, and returns it.
fn until_logged(system: &mut System, i: usize) -> Arc<Envelope> {
    while system.hosts[i].recv_log.is_empty() {
        assert_eq!(system.step_events(1), 1, "the mission ended first");
    }
    Arc::clone(&system.hosts[i].recv_log[0])
}

#[test]
fn a_delivered_message_is_the_senders_tracked_allocation() {
    let mut system = coordinated();
    system.drive_host(0, HostEvent::Produce { external: false }, SimTime::ZERO);
    let tracked = system.hosts[0].acks.unacked_shared();
    assert!(Arc::ptr_eq(&until_logged(&mut system, 2), &tracked[0]));
}

#[test]
fn a_message_held_through_blocking_is_logged_when_released() {
    let (mut system, t, mut out) = (coordinated(), SimTime::ZERO, vec![]);
    system.drive_host(0, HostEvent::Produce { external: false }, t);
    let sent = Arc::clone(&system.hosts[0].acks.unacked_shared()[0]);
    let p2 = &mut system.hosts[2];
    let deadline = p2.tb.as_ref().expect("coordinated runs TB").next_deadline();
    p2.handle_into(HostEvent::TimerExpired { deadline }, t, &mut out);
    p2.handle_into(HostEvent::Deliver(Arc::clone(&sent)), t, &mut out);
    assert!(p2.recv_log.is_empty(), "held while blocking");
    p2.handle_into(HostEvent::BlockingElapsed, t, &mut out);
    assert_eq!(p2.recv_log, [Arc::clone(&sent)], "released and logged");
    assert!(!Arc::ptr_eq(&p2.recv_log[0], &sent), "wrapped on release");
}

#[test]
fn a_takeover_resend_is_tracked_as_the_allocation_it_routes() {
    let mut system = coordinated();
    system.drive_host(1, HostEvent::Produce { external: false }, SimTime::ZERO);
    assert!(system.hosts[1].acks.is_empty(), "the shadow suppresses");
    system.promote_shadow(1, 2, SimTime::ZERO);
    let tracked = system.hosts[1].acks.unacked_shared();
    assert_eq!((system.hosts[1].sent_log.len(), tracked.len()), (1, 1));
    assert!(Arc::ptr_eq(&until_logged(&mut system, 2), &tracked[0]));
}
