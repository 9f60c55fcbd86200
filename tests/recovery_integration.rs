//! End-to-end integration tests spanning the whole workspace: MDCD + TB
//! engines on the DES, storage, network, checkers.

use synergy::checkers::Violation;
use synergy::metrics::RollbackCause;
use synergy::{
    CrashEvent, CrashKind, HardwareFault, Mission, NodeId, Scheme, SystemConfig,
    SystemConfigBuilder,
};
use synergy_des::{SimDuration, SimTime};

fn base(scheme: Scheme, seed: u64) -> SystemConfigBuilder {
    SystemConfig::builder()
        .scheme(scheme)
        .seed(seed)
        .duration_secs(240.0)
        .internal_rate_per_min(30.0)
        .external_rate_per_min(4.0)
        .tb_interval_secs(5.0)
}

/// ROADMAP item 0's mission shape: 120 s of Coordinated operation at 60
/// internal and 2 external messages a minute, Δ = 5 s, no trace.
fn item_0_shape(seed: u64) -> SystemConfigBuilder {
    SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .seed(seed)
        .duration_secs(120.0)
        .internal_rate_per_min(60.0)
        .external_rate_per_min(2.0)
        .tb_interval_secs(5.0)
        .trace(false)
}

#[test]
fn every_scheme_survives_a_fault_free_mission() {
    for scheme in [
        Scheme::Coordinated,
        Scheme::WriteThrough,
        Scheme::Naive,
        Scheme::MdcdOnly,
    ] {
        let outcome = Mission::new(base(scheme, 3).build()).run();
        assert!(
            outcome.verdicts.all_hold(),
            "{scheme:?}: {:?}",
            outcome.verdicts.violations
        );
        assert_eq!(outcome.metrics.at_failures, 0, "{scheme:?}");
        assert!(outcome.device_messages > 0, "{scheme:?}");
    }
}

#[test]
fn repeated_hardware_faults_recover_every_time() {
    let outcome = Mission::new(
        base(Scheme::Coordinated, 11)
            .hardware_fault_at_secs(60.0)
            .hardware_fault_at_secs(120.0)
            .hardware_fault_at_secs(180.0)
            .build(),
    )
    .run();
    assert_eq!(outcome.metrics.hardware_recoveries, 3);
    assert!(
        outcome.verdicts.all_hold(),
        "{:?}",
        outcome.verdicts.violations
    );
    assert_eq!(outcome.verdicts.checks_run, 3);
}

#[test]
fn hardware_fault_before_first_stable_checkpoint_restarts_clean() {
    // Crash at 1s: no TB epoch has committed yet; everyone restarts from
    // the initial state, which is trivially consistent.
    let outcome = Mission::new(
        base(Scheme::Coordinated, 5)
            .hardware_fault_at_secs(1.0)
            .build(),
    )
    .run();
    assert_eq!(outcome.metrics.hardware_recoveries, 1);
    assert!(
        outcome.verdicts.all_hold(),
        "{:?}",
        outcome.verdicts.violations
    );
    // Progress after the restart still happens.
    assert!(outcome.device_messages > 0);
}

#[test]
fn software_fault_during_every_phase_is_recoverable() {
    // The 230s phase needs an acceptance test to fire in the mission's last
    // ten seconds; seed 1 is one of the (many) seeds whose external
    // schedule does.
    for at in [10.0, 60.0, 150.0, 230.0] {
        let outcome = Mission::new(
            base(Scheme::Coordinated, 1)
                .software_fault_at_secs(at)
                .build(),
        )
        .run();
        assert!(outcome.shadow_promoted, "fault at {at}s");
        assert!(
            outcome.verdicts.all_hold(),
            "fault at {at}s: {:?}",
            outcome.verdicts.violations
        );
    }
}

#[test]
fn hardware_then_software_fault_composes() {
    // Inverse order from the quickstart: crash first, then the design
    // fault — the restored guarded operation must still take over cleanly.
    // The last three rows detect the AT failure (153.2975 s on seed 23,
    // 37.63 s on seed 1) while the crashed node waits out its 0.5 s
    // restart: the takeover waits for the global rollback (DESIGN.md §8,
    // decision 8), so the hardware recovery checks the only cut. A takeover
    // that rolls back the down host fails them with 13, 6 and 35 violations.
    use NodeId::{P1Sdw, P2};
    let seed_23 = || base(Scheme::Coordinated, 23);
    let rows = [
        (seed_23(), P2, 60.0, 150.0, 2),
        (seed_23(), P2, 153.1, 150.0, 1),
        (seed_23(), P1Sdw, 153.1, 150.0, 1),
        (item_0_shape(1), P2, 37.5, 10.0, 1),
    ];
    for (builder, node, crash, onset, checks) in rows {
        let outcome = Mission::new(
            builder
                .hardware_fault(HardwareFault {
                    at: SimTime::from_secs_f64(crash),
                    node,
                })
                .software_fault_at_secs(onset)
                .build(),
        )
        .run();
        let row = format!("{node:?} crashed at {crash}s, design fault at {onset}s");
        assert_eq!(outcome.metrics.hardware_recoveries, 1, "{row}");
        assert_eq!(outcome.metrics.software_recoveries, 1, "{row}");
        assert!(outcome.shadow_promoted, "{row}");
        assert_eq!(outcome.verdicts.checks_run, checks, "{row}");
        assert!(
            outcome.verdicts.all_hold(),
            "{row}: {:?}",
            outcome.verdicts.violations
        );
    }
}

#[test]
fn software_recovery_replays_lost_receipts_and_voids_undone_sends() {
    // Item 0's mission shape. Seed 316: a dirty P2 message crosses P1act's
    // passed_AT at the shadow, which checkpoints before it, while P2's
    // later Type-1 reflects it as sent; the takeover's cut step replays
    // sn12, sn14 and sn16 (3 `recoverability` violations without it).
    // Seed 286: P2 sends sn70 0.1 ms before the AT failure rolls it back,
    // and the undone send lands after the takeover; voided, it no longer
    // leaves the 57.5 s global rollback a `consistency` violation.
    let rows = [(316, 15.0, None, 3), (286, 30.0, Some(57.5), 0)];
    for (seed, onset, crash, replayed) in rows {
        let mut builder = item_0_shape(seed).software_fault_at_secs(onset);
        if let Some(at) = crash {
            builder = builder.hardware_fault_at_secs(at);
        }
        let outcome = Mission::new(builder.build()).run();
        let row = format!("seed {seed}, design fault at {onset}s, crash at {crash:?}");
        assert_eq!(outcome.metrics.software_recoveries, 1, "{row}");
        assert!(outcome.shadow_promoted, "{row}");
        assert_eq!(outcome.metrics.messages_replayed, replayed, "{row}");
        assert_eq!(
            outcome.verdicts.checks_run,
            1 + u64::from(crash.is_some()),
            "{row}"
        );
        assert!(
            outcome.verdicts.all_hold(),
            "{row}: {:?}",
            outcome.verdicts.violations
        );
    }
}

#[test]
fn crash_after_takeover_recovers_without_the_active() {
    let outcome = Mission::new(
        base(Scheme::Coordinated, 29)
            .software_fault_at_secs(50.0)
            .hardware_fault_at_secs(130.0)
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
    assert!(
        outcome.device_messages > 0,
        "the promoted shadow keeps serving after the crash"
    );
}

#[test]
fn a_crash_whose_line_predates_the_takeover_promotes_the_shadow_again() {
    // The takeover at 43.7 s kills the active; P2's crash at 44 s rolls
    // back to an epoch line taken before the takeover, which restores
    // P1sdw as a shadow. Hardware recovery must promote it again and re-send what it
    // suppressed: without that step the mission re-sends 3 messages, ends
    // with the shadow unpromoted and delivers 19 device messages.
    let outcome = Mission::new(
        base(Scheme::Coordinated, 4)
            .duration_secs(120.0)
            .software_fault_at_secs(40.0)
            .hardware_fault_at_secs(44.0)
            .build(),
    )
    .run();
    assert_eq!(outcome.metrics.software_recoveries, 1);
    assert_eq!(outcome.metrics.hardware_recoveries, 1);
    assert_eq!(outcome.metrics.messages_resent, 6);
    assert!(outcome.shadow_promoted);
    assert_eq!(outcome.device_messages, 26);
    assert!(
        outcome.verdicts.all_hold(),
        "{:?}",
        outcome.verdicts.violations
    );
}

#[test]
fn replicas_stay_aligned_without_faults() {
    let mut system = synergy::System::new(base(Scheme::Coordinated, 31).build());
    system.run();
    let act = system.app_state(0);
    let sdw = system.app_state(1);
    // The shadow processes the same input stream; its produced counters and
    // receipt log must match the active's exactly.
    assert_eq!(act.internals_produced, sdw.internals_produced);
    assert_eq!(act.externals_produced, sdw.externals_produced);
    assert_eq!(act.received.len(), sdw.received.len());
}

#[test]
fn coordination_disable_is_seamless_when_clean() {
    // Paper §4.2: with every dirty bit constantly zero the adapted TB
    // algorithm degenerates into the original. With no workload nothing
    // ever contaminates, so the coordinated scheme's blocking trace must
    // match the naive scheme's (same seed, same clocks).
    let run = |scheme| {
        let outcome = Mission::new(
            SystemConfig::builder()
                .scheme(scheme)
                .seed(41)
                .duration_secs(60.0)
                .no_workload()
                .tb_interval_secs(5.0)
                .build(),
        )
        .run();
        let blockings: Vec<String> = outcome
            .trace
            .by_kind("tb.blocking")
            .map(|e| format!("{} {} {}", e.time, e.actor, e.detail))
            .collect();
        // The expected_dirty flag legitimately differs: the original
        // protocol's P1act is constantly dirty, the modified one exposes its
        // pseudo bit. Contents and blocking must match exactly.
        let contents: Vec<String> = outcome
            .trace
            .by_kind("tb.write")
            .map(|e| e.detail.split_whitespace().next().unwrap_or("").to_string())
            .collect();
        (blockings, contents)
    };
    let (coordinated_blocking, coordinated_contents) = run(Scheme::Coordinated);
    let (naive_blocking, naive_contents) = run(Scheme::Naive);
    assert_eq!(coordinated_blocking, naive_blocking);
    assert_eq!(coordinated_contents, naive_contents);
    assert!(coordinated_contents
        .iter()
        .all(|c| c.contains("stable-current")));
}

#[test]
fn rollback_distances_are_bounded_by_checkpoint_age() {
    // Under coordination the restored state is never older than one AT
    // cycle plus one TB interval (plus recovery delay); sanity-check the
    // bound with generous slack.
    let outcome = Mission::new(
        base(Scheme::Coordinated, 43)
            .hardware_fault_at_secs(200.0)
            .build(),
    )
    .run();
    for d in outcome.metrics.hardware_rollback_distances() {
        assert!(d < 120.0, "rollback distance {d}s is implausibly large");
    }
}

#[test]
fn blocking_periods_scale_with_dirty_bit() {
    // Harvest blocking durations per dirty flag from a coordinated run and
    // confirm dirty blocking exceeds clean blocking by exactly tmax+tmin.
    // Drift is pinned to zero so the 2*rho*tau term does not vary between
    // the (differently timed) clean and dirty samples.
    let outcome = Mission::new(
        base(Scheme::Coordinated, 47)
            .sync(synergy_clocks::SyncParams::new(
                SimDuration::from_millis(1),
                0.0,
            ))
            .build(),
    )
    .run();
    let mut last_dirty = None;
    let mut clean = Vec::new();
    let mut dirty = Vec::new();
    for e in outcome.trace.events() {
        if e.kind == "tb.timer" {
            last_dirty = Some(e.detail.contains("dirty=1"));
        } else if e.kind == "tb.blocking" {
            let secs: f64 = e
                .detail
                .trim_start_matches("for ")
                .trim_end_matches('s')
                .parse()
                .unwrap();
            match last_dirty {
                Some(true) => dirty.push(secs),
                Some(false) => clean.push(secs),
                None => {}
            }
        }
    }
    assert!(!clean.is_empty() && !dirty.is_empty(), "need both kinds");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let gap = mean(&dirty) - mean(&clean);
    let expected =
        SimDuration::from_millis(2).as_secs_f64() + SimDuration::from_micros(200).as_secs_f64();
    assert!(
        (gap - expected).abs() < 1e-9,
        "dirty-clean blocking gap {gap} != tmax+tmin {expected}"
    );
}

#[test]
fn mdcd_only_cannot_recover_hardware_progress() {
    // Without stable storage a crash loses all progress: the restored
    // rollback distance equals the fault time.
    let outcome = Mission::new(
        base(Scheme::MdcdOnly, 53)
            .hardware_fault_at_secs(100.0)
            .build(),
    )
    .run();
    let distances = outcome.metrics.hardware_rollback_distances();
    assert!(!distances.is_empty());
    for d in distances {
        assert!(
            d > 99.0,
            "MdcdOnly must lose everything back to t=0, lost only {d}s"
        );
    }
}

#[test]
fn deterministic_outcomes_across_identical_runs() {
    let run = || {
        let o = Mission::new(
            base(Scheme::Coordinated, 61)
                .software_fault_at_secs(77.0)
                .hardware_fault_at_secs(140.0)
                .build(),
        )
        .run();
        (
            o.metrics.messages_sent,
            o.metrics.messages_delivered,
            o.metrics.stable_commits,
            o.metrics.volatile_total(),
            o.device_messages,
            o.trace.events().len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn delta_accounting_is_behaviour_neutral_and_shrinks_write_volume() {
    // The incremental-checkpoint knob is accounting only: with it on, the
    // mission must be event-for-event identical, and the chain format must
    // write far fewer bytes than the full-image scheme it measures against.
    let run = |delta_k: Option<u32>| {
        let mut b = base(Scheme::Coordinated, 29)
            .software_fault_at_secs(70.0)
            .hardware_fault_at_secs(150.0);
        if let Some(k) = delta_k {
            b = b.checkpoint_delta_k(k);
        }
        Mission::new(b.build()).run()
    };
    let plain = run(None);
    let measured = run(Some(16));
    assert_eq!(plain.device_messages, measured.device_messages);
    assert_eq!(plain.trace.events().len(), measured.trace.events().len());
    let mut m = measured.metrics.clone();
    assert_eq!(plain.metrics.stable_bytes_full, 0, "off by default");
    assert_eq!(plain.metrics.stable_bytes_delta, 0);
    assert!(m.stable_bytes_full > 0, "commits were accounted");
    assert!(
        m.stable_bytes_delta < m.stable_bytes_full,
        "chain format writes less: {} vs {}",
        m.stable_bytes_delta,
        m.stable_bytes_full
    );
    m.stable_bytes_full = 0;
    m.stable_bytes_delta = 0;
    assert_eq!(m, plain.metrics, "all other metrics identical");
}

/// The two-crash missions of the abandoned-timeline scan: a mid-round crash
/// of `first` in round `round`, then one of `second` in the next round, on
/// the item-0 mission shape cut to 80 s.
fn two_crash_mission(seed: u64, first: NodeId, second: NodeId, round: u64) -> SystemConfig {
    let crash = |victim, epoch| CrashEvent {
        victim,
        epoch,
        kind: CrashKind::MidRound,
    };
    item_0_shape(seed)
        .duration_secs(80.0)
        .round_crash(crash(first, round))
        .round_crash(crash(second, round + 1))
        .build()
}

/// The sweep shape of the mission scans: `failures(seed)` for every seed in
/// `seeds` on two threads, concatenated in seed order.
fn scan<T: Send>(
    seeds: std::ops::RangeInclusive<u64>,
    failures: impl Fn(u64) -> Vec<T> + Sync,
) -> Vec<T> {
    let seeds: Vec<u64> = seeds.collect();
    synergy::sweep(&seeds, 2, failures)
        .into_iter()
        .flatten()
        .collect()
}

/// Runs the six two-crash missions of every seed in `seeds` — victim pairs
/// (P2, P1act), (P1act, P2) and (P2, P1sdw), first crash in round 4 or 7 —
/// and returns the seeds of those that fail a check, once per mission.
///
/// The second crash tears a rewrite of the epoch the first rollback
/// abandoned, so a store that kept the abandoned record would hand it to
/// the line.
fn two_crash_violations(seeds: std::ops::RangeInclusive<u64>) -> Vec<u64> {
    use NodeId::{P1Act, P1Sdw, P2};
    scan(seeds, |seed| {
        let mut failed = Vec::new();
        for (first, second) in [(P2, P1Act), (P1Act, P2), (P2, P1Sdw)] {
            for round in [4, 7] {
                let outcome = Mission::new(two_crash_mission(seed, first, second, round)).run();
                assert_eq!(outcome.metrics.hardware_recoveries, 2, "seed {seed}");
                if !outcome.verdicts.all_hold() {
                    failed.push(seed);
                }
            }
        }
        failed
    })
}

#[test]
fn two_crashes_in_consecutive_rounds_never_restore_an_abandoned_timeline() {
    let failed = two_crash_violations(1..=40);
    assert!(failed.is_empty(), "violating seeds: {failed:?}");
}

/// The full 1 200-mission scan, run in release by `scripts/check.sh`: only
/// the seeds of ROADMAP item 0 (a `P1act` send crossing a `passed_AT`) may
/// fail, and each of them is item 0's signature, not this scan's.
#[test]
#[ignore = "1 200 missions; scripts/check.sh runs it in release"]
fn two_crash_scan_fails_only_on_item_0_seeds() {
    const ITEM_0_SEEDS: [u64; 1] = [105];
    let failed = two_crash_violations(1..=200);
    let other: Vec<u64> = failed
        .iter()
        .copied()
        .filter(|seed| !ITEM_0_SEEDS.contains(seed))
        .collect();
    assert!(other.is_empty(), "violating seeds: {failed:?}");
}

/// The software-only scan, run in release by `scripts/check.sh`: item 0's
/// mission shape with a design fault armed at 5, 15, …, 105 s and no crash,
/// 22 000 missions. Every takeover's cut must hold.
#[test]
#[ignore = "22 000 missions; scripts/check.sh runs it in release"]
fn software_only_scan_holds() {
    let failed = scan(1..=2000, |seed| {
        let onsets = (0..11).map(|k| 5.0 + 10.0 * f64::from(k));
        let runs = onsets.map(|onset| {
            let mission = item_0_shape(seed).software_fault_at_secs(onset).build();
            (onset, Mission::new(mission).run().verdicts)
        });
        runs.filter(|(_, v)| !v.all_hold())
            .map(|(onset, v)| (seed, onset, v.violations))
            .collect()
    });
    assert!(failed.is_empty(), "failing runs: {failed:?}");
}

/// Where a crash falls relative to the takeover an AT failure asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Overlap {
    /// The node crashes before the AT failure and restarts before it too
    /// (or the design fault never fires).
    BeforeTakeover,
    /// The AT failure comes while the crashed node waits out its restart.
    RestartWindow,
    /// The node crashes after a completed takeover.
    AfterTakeover,
}

/// Runs the composed-fault grid on every seed in `seeds`: item 0's mission
/// shape with a design fault at 10, 30, 50, 70 or 90 s and a crash of
/// `P2`'s node at 7.5, 12.5, …, 107.5 s. Returns each failing mission's
/// seed, overlap and violations, the overlap judged by the AT-failure
/// instant of the same seed and onset without the crash.
fn composed_fault_violations(
    seeds: std::ops::RangeInclusive<u64>,
) -> Vec<(u64, Overlap, Vec<Violation>)> {
    let restart = SystemConfig::builder().build().restart_delay.as_secs_f64();
    scan(seeds, |seed| {
        let mut failed = Vec::new();
        for onset in [10.0, 30.0, 50.0, 70.0, 90.0] {
            let mission = || item_0_shape(seed).software_fault_at_secs(onset);
            let rollbacks = Mission::new(mission().build()).run().metrics.rollbacks;
            let takeover = rollbacks
                .iter()
                .find(|r| r.cause == RollbackCause::Software)
                .map(|r| r.at.as_secs_f64());
            for crash in (0..21).map(|k| 7.5 + 5.0 * f64::from(k)) {
                let outcome = Mission::new(mission().hardware_fault_at_secs(crash).build()).run();
                if outcome.verdicts.all_hold() {
                    continue;
                }
                let overlap = match takeover {
                    Some(t) if t < crash => Overlap::AfterTakeover,
                    Some(t) if t < crash + restart => Overlap::RestartWindow,
                    _ => Overlap::BeforeTakeover,
                };
                failed.push((seed, overlap, outcome.verdicts.violations));
            }
        }
        failed
    })
}

/// The composed-fault grid, 31 500 missions run in release by
/// `scripts/check.sh`: no run fails in the restart window or after the
/// takeover, and only ROADMAP item 0's seed 105 fails before it, each
/// violation with item 0's signature (it names `P1act`, whose send crossed
/// a `passed_AT`).
#[test]
#[ignore = "31 500 missions; scripts/check.sh runs it in release"]
fn composed_fault_grid_fails_only_on_item_0_seeds() {
    let failed = composed_fault_violations(1..=300);
    let other: Vec<_> = failed
        .iter()
        .filter(|(seed, overlap, violations)| {
            let item_0 = violations.iter().all(|v| v.detail.contains("P1"));
            (*seed, *overlap) != (105, Overlap::BeforeTakeover) || !item_0
        })
        .collect();
    assert!(other.is_empty(), "unexpected failures: {other:?}");
}
