//! Deterministic chaos smoke: a small fixed-seed campaign set against the
//! live cluster, covering every crash kind across the rotation, each
//! campaign's device stream byte-checked against the simulator reference.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use synergy::{ByzantinePlan, Mission, RegimeVerdict};
use synergy_chaos::{
    cocktail, generate, generate_byzantine, outcome_verdict, run_campaign, CampaignOutcome,
    CampaignToggles, FaultGroup,
};
use synergy_cluster::Cluster;
use synergy_des::SimTime;

fn unique_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "synergy-chaos-smoke-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create data root");
    dir
}

fn node_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_synergy-chaos-node"))
}

/// The first three campaigns of the fixed smoke sweep (base seed 7) cover
/// MidRound, RoundStart, and DoubleKill; each must converge byte-for-byte.
#[test]
fn fixed_seed_campaigns_converge_on_the_reference_stream() {
    let data_root = unique_dir("sweep");
    let node_bin = node_bin();
    for index in 0..3 {
        let cfg = generate(7, index, CampaignToggles::default());
        let result = run_campaign(&cfg, &node_bin, &data_root);
        assert!(
            result.outcome.is_converged(),
            "campaign {index} (seed {}, [{}]) failed: {:?}",
            cfg.seed,
            cocktail(&cfg),
            result.outcome
        );
        let faults = result.faults.expect("completed campaigns report faults");
        assert_eq!(faults.chaos_lost, 0, "masked regime never exhausts retries");
        assert_eq!(faults.recoveries, 1, "each campaign schedules one crash");
    }
    let _ = std::fs::remove_dir_all(&data_root);
}

/// With every fault group toggled off the campaign degenerates to a clean
/// mission and still converges — the runner itself adds no noise.
#[test]
fn fault_free_campaign_converges() {
    let data_root = unique_dir("clean");
    let cfg = generate(7, 0, FaultGroup::ALL.into_iter().collect());
    let result = run_campaign(&cfg, &node_bin(), &data_root);
    assert!(
        result.outcome.is_converged(),
        "clean campaign failed: {:?}",
        result.outcome
    );
    let faults = result.faults.expect("fault summary present");
    assert_eq!(faults.chaos_drops, 0);
    assert_eq!(faults.recoveries, 0);
    let _ = std::fs::remove_dir_all(&data_root);
}

/// A Byzantine-lite campaign must *diverge* from the reference — the
/// global rollback restores node 0's value-flipped checkpoint, and every
/// external the active produces afterwards carries the lie to the device.
/// The divergence localizes to the accumulator bytes (offset 8 of the
/// 17-byte external payload) and classifies as a documented escape.
#[test]
fn byzantine_campaign_documents_the_escape() {
    let data_root = unique_dir("byz");
    let cfg = generate_byzantine(7, 0);
    let result = run_campaign(&cfg, &node_bin(), &data_root);
    match &result.outcome {
        CampaignOutcome::Diverged { first, .. } => {
            let first = first.expect("the lie reaches a shared payload");
            assert_eq!(first.offset, 8, "acc bytes start at offset 8");
        }
        other => panic!("expected the escape to diverge, got {other:?}"),
    }
    assert_eq!(
        outcome_verdict(&result.outcome),
        RegimeVerdict::DocumentedEscape
    );
    let _ = std::fs::remove_dir_all(&data_root);
}

/// The two runtimes inject one fault: for each crash kind, the cluster's
/// device stream under a Byzantine-lite campaign equals a simulator run of
/// the campaign's reference with the flip armed from the start on the
/// same node — and differs from the honest reference's, so the equality
/// is not two runs that both ignored the fault.
#[test]
fn byzantine_campaigns_match_the_simulator_flip_on_every_crash_kind() {
    let data_root = unique_dir("byz-x");
    for index in 0..3 {
        let cfg = generate_byzantine(7, index);
        let node = cfg.corrupt.expect("a Byzantine campaign names its liar");
        let honest = cfg.reference();
        let mut lying = honest.clone();
        lying.faults.byzantine = Some(ByzantinePlan {
            at: SimTime::ZERO,
            node,
        });
        let run_dir = data_root.join(index.to_string());
        let cluster = Cluster::launch(cfg.clone(), &node_bin(), &run_dir)
            .and_then(Cluster::run)
            .unwrap_or_else(|e| panic!("campaign {index} ({}): {e}", cocktail(&cfg)));
        let simulated = Mission::new(lying).run().device_stream;
        assert_eq!(
            cluster.device_payloads,
            simulated,
            "campaign {index} ({}): the cluster's flip is the simulator's",
            cocktail(&cfg)
        );
        assert_ne!(
            simulated,
            Mission::new(honest).run().device_stream,
            "campaign {index}: the flip reaches the device"
        );
    }
    let _ = std::fs::remove_dir_all(&data_root);
}

/// A sweep of zero campaigns proves nothing, so the runner refuses it
/// instead of printing an empty summary and passing; a count that is not a
/// number is refused naming the flag and the value.
#[test]
fn zero_seeds_is_refused() {
    for (args, err) in [
        (&["--seeds", "0"][..], "--seeds must be at least 1"),
        (
            &["--seeds", "0", "--regime"][..],
            "--seeds must be at least 1",
        ),
        (&["--seeds", "x"][..], "--seeds: invalid value \"x\""),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_synergy-chaos"))
            .args(args)
            .output()
            .expect("run synergy-chaos");
        assert!(!out.status.success(), "{args:?}: exit {}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(err), "{args:?}: {stderr}");
    }
}

/// A data root holding a file of the user's: every converged campaign
/// removes its run directory, and the runner keeps the root it did not
/// create.
#[test]
fn data_root_keeps_what_the_run_did_not_create() {
    let data_root = unique_dir("root");
    let sentinel = data_root.join("notes.txt");
    std::fs::write(&sentinel, "keep me").expect("write sentinel");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_synergy-chaos"))
        .args([
            "--seeds",
            "1",
            "--base-seed",
            "7",
            "--jobs",
            "1",
            "--node-bin",
        ])
        .arg(node_bin())
        .arg("--data-root")
        .arg(&data_root)
        .output()
        .expect("run synergy-chaos");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {}: {stdout}", out.status);
    let left: Vec<PathBuf> = std::fs::read_dir(&data_root)
        .expect("the data root survives")
        .map(|e| e.expect("dir entry").path())
        .collect();
    std::fs::remove_dir_all(&data_root).expect("clean up");
    assert_eq!(left, [sentinel], "only the sentinel is left");
}

/// With two jobs the campaigns finish in any order; the sweep still prints
/// them in campaign order, so two runs of one family compare line by line.
#[test]
fn sweep_prints_campaigns_in_campaign_order() {
    let data_root = unique_dir("order");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_synergy-chaos"))
        .args([
            "--seeds",
            "4",
            "--base-seed",
            "7",
            "--jobs",
            "2",
            "--node-bin",
        ])
        .arg(node_bin())
        .arg("--data-root")
        .arg(&data_root)
        .output()
        .expect("run synergy-chaos");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {}: {stdout}", out.status);
    let printed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("campaign "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    let _ = std::fs::remove_dir_all(&data_root);
    assert_eq!(printed, ["0", "1", "2", "3"], "{stdout}");
}
