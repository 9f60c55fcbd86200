//! Deterministic chaos smoke: a small fixed-seed campaign set against the
//! live cluster, covering every crash kind across the rotation, each
//! campaign's device stream byte-checked against the simulator reference.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use synergy::RegimeVerdict;
use synergy_chaos::{
    outcome_verdict, run_campaign, CampaignOutcome, CampaignSpec, CampaignToggles,
};

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
        let spec = CampaignSpec::generate(7, index, CampaignToggles::default());
        let result = run_campaign(&spec, &node_bin, &data_root);
        assert!(
            result.outcome.is_converged(),
            "campaign {index} (seed {}, [{}]) failed: {:?}",
            spec.seed,
            spec.cocktail(),
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
    let spec = CampaignSpec::generate(
        7,
        0,
        CampaignToggles {
            link: false,
            disk: false,
            crash: false,
            bitrot: false,
            deltarot: false,
            archive: false,
            corrupt: false,
        },
    );
    let result = run_campaign(&spec, &node_bin(), &data_root);
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
    let spec = CampaignSpec::generate_byzantine(7, 0);
    let result = run_campaign(&spec, &node_bin(), &data_root);
    match &result.outcome {
        CampaignOutcome::Diverged {
            first_diff,
            first_offset,
            ..
        } => {
            assert!(first_diff.is_some(), "the lie reaches a shared payload");
            assert_eq!(*first_offset, Some(8), "acc bytes start at offset 8");
        }
        other => panic!("expected the escape to diverge, got {other:?}"),
    }
    assert_eq!(
        outcome_verdict(&result.outcome),
        RegimeVerdict::DocumentedEscape
    );
    let _ = std::fs::remove_dir_all(&data_root);
}

/// A sweep of zero campaigns proves nothing, so the runner refuses it
/// instead of printing an empty summary and passing.
#[test]
fn zero_seeds_is_refused() {
    for extra in [&[][..], &["--regime"][..]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_synergy-chaos"))
            .args(["--seeds", "0"])
            .args(extra)
            .output()
            .expect("run synergy-chaos");
        assert!(!out.status.success(), "{extra:?}: exit {}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--seeds must be at least 1"), "{stderr}");
    }
}
