//! End-to-end cluster acceptance: a seeded three-process TCP mission with
//! one scheduled SIGKILL and restart completes; the restarted node recovers
//! from its CRC-verified on-disk store with the torn (aborted) write
//! detected; and the device-output stream matches a simulator run of the
//! same seed and fault plan.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use synergy::{CrashEvent, CrashKind, Mission, MissionOutcome, NodeId};
use synergy_cluster::{Cluster, ClusterConfig, ClusterReport, Rot, DELTA_SECS};

fn unique_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "synergy-cluster-e2e-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create data root");
    dir
}

/// A mission with `P2` killed mid-round in `kill_epoch`, if any.
fn config(seed: u64, steps: u32, kill_epoch: Option<u64>) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(seed, steps);
    cfg.crash = kill_epoch.map(|epoch| CrashEvent {
        victim: NodeId::P2,
        epoch,
        kind: CrashKind::MidRound,
    });
    cfg
}

/// Runs the mission on the cluster, its node state under `data_root`, and
/// its reference in the simulator.
fn run_both(cfg: ClusterConfig, data_root: &Path) -> (ClusterReport, MissionOutcome) {
    let reference = Mission::new(cfg.reference()).run();
    let node_bin = PathBuf::from(env!("CARGO_BIN_EXE_synergy-node"));
    let report = Cluster::launch(cfg, &node_bin, data_root)
        .expect("cluster launches")
        .run()
        .expect("mission runs");
    (report, reference)
}

#[test]
fn fault_free_mission_matches_the_simulator() {
    let data_root = unique_dir("clean");
    let (report, reference) = run_both(config(7, 5, None), &data_root);
    assert!(reference.verdicts.all_hold());
    assert_eq!(
        report.device_payloads.len(),
        5,
        "one device message per step"
    );
    assert_eq!(
        report.device_payloads, reference.device_stream,
        "cluster and simulator device streams must be identical"
    );
    // Grid points 1.7 and 3.4 passed: everyone committed two epochs.
    for (pid, status) in &report.final_status {
        assert_eq!(status.stable_epoch, Some(2), "pid {pid}");
        assert_eq!(status.torn_writes, 0, "pid {pid}");
    }
    let _ = std::fs::remove_dir_all(&data_root);
}

#[test]
fn sigkill_mission_recovers_from_disk_and_matches_the_simulator() {
    let seed = 11;
    let steps = 8;
    let kill_epoch = 3; // grid t = 5.1, torn inside the round
    let data_root = unique_dir("kill");

    let cfg = config(seed, steps, Some(kill_epoch));
    let restart_delay = cfg.reference().restart_delay.as_secs_f64();
    let (report, reference) = run_both(cfg, &data_root);
    let kill = report.kill.as_ref().expect("kill executed");

    // The kill tore a staged write: the victim confirmed an in-flight
    // stable write before SIGKILL, and its restarted incarnation found the
    // leftover temp file (torn write) plus the CRC-verified previous
    // commits, recovering exactly the epochs committed before the torn
    // round.
    assert!(kill.victim_began_writing, "write staged before the kill");
    assert_eq!(
        kill.reload_epoch,
        Some(kill_epoch - 1),
        "victim recovers the last committed epoch from disk"
    );
    assert_eq!(
        kill.reload_torn_writes, 1,
        "the aborted on-disk write is detected on reload"
    );

    // Global rollback: survivors committed the torn epoch, the victim did
    // not, so the epoch line is k−1 and every process restores it.
    assert_eq!(kill.line, kill_epoch - 1);
    assert_eq!(kill.rollback_epochs, 1, "one grid epoch lost to the tear");
    assert_eq!(kill.rollbacks.len(), 3);
    for (pid, restored, resent) in &kill.rollbacks {
        assert_eq!(
            *restored,
            Some(kill_epoch - 1),
            "pid {pid} restores the epoch line"
        );
        assert_eq!(*resent, 0, "pid {pid}: quiesced mission has no unacked");
    }

    // The observable surface: the device payload sequence — including the
    // post-rollback repeats — must equal the simulator's for the same seed
    // and fault plan.
    assert!(reference.verdicts.all_hold(), "simulator verdicts hold");
    assert_eq!(
        reference.metrics.torn_writes, 1,
        "sim reproduces the torn write"
    );
    assert_eq!(reference.metrics.hardware_recoveries, 1);
    assert_eq!(
        report.device_payloads, reference.device_stream,
        "cluster and simulator device streams must be identical"
    );

    // Rollback distance: losing the torn epoch costs one grid interval
    // plus the restart delay in the simulator's clock; the cluster's
    // epoch-line arithmetic must agree.
    let cluster_distance = (kill_epoch - kill.line) as f64 * DELTA_SECS + restart_delay;
    let sim_distance = reference
        .metrics
        .mean_hardware_rollback()
        .expect("sim rolled back");
    assert!(
        (sim_distance - cluster_distance).abs() < 0.25,
        "rollback distance: sim {sim_distance:.3}s vs cluster {cluster_distance:.3}s"
    );

    let _ = std::fs::remove_dir_all(&data_root);
}

#[test]
fn acked_internal_traffic_mission_survives_a_kill_and_matches_the_simulator() {
    // Internal P1 → P2 produces put acked application traffic on the wire;
    // the kill, restart, and rollback must still leave the device stream
    // byte-identical to the reference, and the acks must fully drain by
    // mission end.
    let seed = 11;
    let steps = 8;
    let kill_epoch = 3;
    let data_root = unique_dir("acked");

    let mut cfg = config(seed, steps, Some(kill_epoch));
    cfg.internal_traffic = true;
    let (report, reference) = run_both(cfg, &data_root);

    assert!(reference.verdicts.all_hold());
    assert_eq!(reference.metrics.torn_writes, 1);
    assert_eq!(
        report.device_payloads, reference.device_stream,
        "cluster and simulator device streams must be identical"
    );
    for (pid, status) in &report.final_status {
        assert_eq!(status.unacked, 0, "pid {pid}: acks drained by mission end");
    }
    // The traffic existed: the active delivered P2's acks, P2 delivered the
    // internal messages.
    let p2 = report
        .final_status
        .iter()
        .find(|(pid, _)| *pid == 3)
        .map(|(_, s)| s)
        .expect("P2 status present");
    assert!(p2.delivered > 0, "P2 delivered internal messages");
    let _ = std::fs::remove_dir_all(&data_root);
}

#[test]
fn delta_chain_mission_survives_a_kill_and_matches_the_simulator() {
    // Same mission as the torn-write kill above, but every node persists
    // through a k = 4 delta chain on its disk: the reload walks the
    // CRC-chained records instead of full images, and the observable
    // stream must be unchanged.
    let seed = 11;
    let steps = 8;
    let kill_epoch = 3;
    let data_root = unique_dir("delta");

    let mut cfg = config(seed, steps, Some(kill_epoch));
    cfg.delta_k = 4;
    let (report, reference) = run_both(cfg, &data_root);
    let kill = report.kill.as_ref().expect("kill executed");

    assert!(kill.victim_began_writing, "write staged before the kill");
    assert_eq!(
        kill.reload_epoch,
        Some(kill_epoch - 1),
        "victim recovers the last committed epoch through the chain walk"
    );
    assert_eq!(kill.reload_torn_writes, 1, "torn write detected on reload");

    assert!(reference.verdicts.all_hold());
    assert_eq!(
        report.device_payloads, reference.device_stream,
        "delta-chain cluster and simulator device streams must be identical"
    );
    let _ = std::fs::remove_dir_all(&data_root);
}

#[test]
fn rotted_chain_record_is_refused_on_reload_and_the_stream_is_unchanged() {
    // Delta-chain bit-rot: the victim's oldest chain record is corrupted
    // behind a valid disk frame, so only the chain-link verification can
    // catch it. The damaged prefix is dropped, the newest record still
    // replays, and the device stream is unchanged.
    let seed = 11;
    let steps = 8;
    let kill_epoch = 4; // victim holds Full, Delta, Full before the kill (k=2)
    let data_root = unique_dir("deltarot");

    let mut cfg = config(seed, steps, Some(kill_epoch));
    cfg.delta_k = 2;
    cfg.rot = Some(Rot::Chain);
    let (report, reference) = run_both(cfg, &data_root);
    let kill = report.kill.as_ref().expect("kill executed");

    assert!(
        kill.reload_corrupt_records >= 1,
        "the rotted record (and anything chained on it) is refused as an orphan"
    );
    assert_eq!(
        kill.reload_epoch,
        Some(kill_epoch - 1),
        "the newest record replays from the later full image"
    );

    assert!(reference.verdicts.all_hold());
    assert_eq!(
        report.device_payloads, reference.device_stream,
        "masked chain rot must not change the device stream"
    );
    let _ = std::fs::remove_dir_all(&data_root);
}

#[test]
fn first_round_kill_rolls_every_node_back_to_the_initial_state() {
    // Killing the victim in round 1 leaves it with no committed checkpoint
    // at all: the epoch line is 0 and every node — survivors included —
    // must restart from the initial application state, exactly as the
    // simulator's hardware recovery does.
    let seed = 5;
    let steps = 8;
    let data_root = unique_dir("line0");

    let (report, reference) = run_both(config(seed, steps, Some(1)), &data_root);
    let kill = report.kill.as_ref().expect("kill executed");

    assert!(kill.victim_began_writing);
    assert_eq!(kill.reload_epoch, None, "nothing committed before the kill");
    assert_eq!(kill.reload_torn_writes, 1);
    assert_eq!(kill.line, 0, "no committed epoch anywhere: the line is 0");
    for (pid, restored, _) in &kill.rollbacks {
        assert_eq!(*restored, None, "pid {pid}: initial-state restart");
    }

    assert!(reference.verdicts.all_hold());
    assert_eq!(reference.metrics.torn_writes, 1);
    assert_eq!(
        report.device_payloads, reference.device_stream,
        "cluster and simulator device streams must be identical"
    );
    let _ = std::fs::remove_dir_all(&data_root);
}

#[test]
fn long_lockstep_missions_match_the_reference() {
    // 24 produces on the 1.7 s grid reach the two timeline edges the short
    // chaos missions never do: round 7 at t = 11.9 leaves 0.1 s before
    // produce 12, and round 10 falls exactly on produce 17, which the
    // orchestrator runs first.
    for kill_epoch in [7, 11] {
        let data_root = unique_dir("long");
        let (report, reference) = run_both(config(1, 24, Some(kill_epoch)), &data_root);
        assert!(reference.verdicts.all_hold(), "round {kill_epoch}");
        assert_eq!(
            report.device_payloads, reference.device_stream,
            "round {kill_epoch}: cluster and simulator device streams must be identical"
        );
        let _ = std::fs::remove_dir_all(&data_root);
    }
}
