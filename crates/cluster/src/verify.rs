//! The simulator reference for a cluster mission.
//!
//! A cluster run and a [`synergy`] simulation of the same seed and fault
//! plan walk the same logical timeline: external produces at grid seconds
//! `1..=steps`, checkpoint grid at `g·Δ`, hardware faults landing in
//! scheduled checkpoint rounds. The device — the paper's observable
//! surface — must then see the *same payload sequence* in both worlds,
//! including the post-rollback repeats, and both worlds must agree on the
//! epoch line.
//!
//! The only non-determinism to bridge is the crash placement: the cluster
//! kills a victim at a *protocol-relative* instant (before the round, or
//! mid-round with the stable write staged), while the simulator's nodes
//! have sampled clock offsets, so the crash instant that lands at the
//! equivalent protocol point varies by a few milliseconds with the seed —
//! on either side of the grid point. The reference scans a dense ε range
//! around each scheduled round and keeps the first placement that
//! reproduces the cluster fault *shape*:
//!
//! * [`CrashKind::MidRound`] / [`CrashKind::DoubleKill`] — the crash must
//!   land inside the victim's blocking period, tearing exactly one stable
//!   write. A double kill maps to a *single* simulator fault: the second
//!   cluster kill hits the already-restarted, still-idle victim, changing
//!   nothing the device can observe.
//! * [`CrashKind::RoundStart`] — the crash must land *before* the
//!   victim's blocking period (no torn write, nothing committed for the
//!   round); the scan walks ε upward from below the grid point, so the
//!   first match is the pre-round placement, never the post-commit one.
//!
//! Faults injected below the protocol layer — link drops masked by
//! retransmission, transient fsync failures masked by bounded retry,
//! bit-rot below the rollback line masked by the CRC-skip reload — are
//! invisible to the device by design, so the reference needs only the
//! crash schedule.

use synergy::{HardwareFault, NodeId, Scheme, System, SystemConfig};
use synergy_des::{SimDuration, SimTime};

use crate::orchestrator::{CrashEvent, CrashKind};

/// What the reference simulation observed.
#[derive(Clone, Debug)]
pub struct SimReference {
    /// Device-bound external payloads, in arrival order.
    pub device_payloads: Vec<Vec<u8>>,
    /// Whether every global-state checker held.
    pub verdicts_hold: bool,
    /// Torn stable writes across the mission.
    pub torn_writes: u64,
    /// Completed global hardware rollbacks.
    pub hardware_recoveries: u64,
    /// Mean hardware-rollback distance in grid seconds, if any rollback
    /// happened.
    pub mean_rollback_secs: Option<f64>,
    /// The crash offset ε (grid seconds past `k·Δ`) the search settled on
    /// for the *last* resolved crash.
    pub crash_epsilon: Option<f64>,
}

/// Crash-offset scan around the grid point. The victim's blocking period
/// is a few milliseconds wide and starts when its *local* clock reaches the
/// grid, so with seeded clock offsets the window can begin up to the offset
/// bound *before* the global grid instant — the scan must cover negative ε
/// too (and for [`CrashKind::RoundStart`] the lower edge doubles as the
/// guaranteed pre-round placement). 0.2 ms steps are finer than any
/// blocking period in the default config, so the scan cannot step over the
/// window.
const EPSILON_RANGE_SECS: (f64, f64) = (-0.002, 0.006);
const EPSILON_STEP_SECS: f64 = 0.0002;

fn epsilon_scan() -> impl Iterator<Item = f64> {
    let (lo, hi) = EPSILON_RANGE_SECS;
    let n = ((hi - lo) / EPSILON_STEP_SECS).round() as u32;
    (0..=n).map(move |i| lo + EPSILON_STEP_SECS * f64::from(i))
}

/// Whether this crash kind tears a stable write in the cluster.
fn tears_write(kind: CrashKind) -> bool {
    match kind {
        CrashKind::RoundStart => false,
        CrashKind::MidRound | CrashKind::DoubleKill => true,
    }
}

/// Fault-to-recovery delay of the reference simulation.
///
/// The cluster's rollback is *lockstep*: it always completes between the
/// crash round and the next scripted produce. The reference must do the
/// same, so `RESTART_DELAY_MS` (plus the ε-scan's upper edge) has to fit
/// inside the tightest grid-to-produce gap — for Δ = 1.7 that is 0.2 grid
/// seconds, at round 4 (t = 6.8, produce at 7). A delay that overruns the
/// gap makes the simulator serve the produce from pre-rollback state the
/// cluster has already rolled back, diverging the device stream.
const RESTART_DELAY_MS: u64 = 120;

fn build_config(
    seed: u64,
    steps: u32,
    tb_interval_secs: f64,
    internal_traffic: bool,
    faults_at: &[(NodeId, f64)],
) -> SystemConfig {
    let mut b = SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .seed(seed)
        .duration_secs(f64::from(steps) + 1.0)
        .tb_interval_secs(tb_interval_secs)
        .restart_delay(SimDuration::from_millis(RESTART_DELAY_MS))
        .no_workload()
        .trace(false);
    for s in 1..=steps {
        // Internal before external at the same instant, matching the
        // cluster's command order; the DES queue fires ties FIFO.
        if internal_traffic {
            b = b.scripted_send(f64::from(s), 1, false);
        }
        b = b.scripted_send(f64::from(s), 1, true);
    }
    for (node, at) in faults_at {
        b = b.hardware_fault(HardwareFault::on(*node, SimTime::from_secs_f64(*at)));
    }
    b.build()
}

fn run_once(cfg: SystemConfig) -> SimReference {
    let mut system = System::new(cfg);
    system.run();
    let metrics = system.metrics();
    SimReference {
        device_payloads: system.device_stream(),
        verdicts_hold: system.verdicts().all_hold(),
        torn_writes: metrics.torn_writes,
        hardware_recoveries: metrics.hardware_recoveries,
        mean_rollback_secs: metrics.mean_hardware_rollback(),
        crash_epsilon: None,
    }
}

/// Runs the reference simulation for a full crash schedule.
///
/// Crashes are resolved *sequentially*: for each scheduled crash (in epoch
/// order) the scan fixes the earlier crashes at their already-resolved
/// placements and sweeps this crash's ε until the cumulative fault shape —
/// torn-write count and completed-recovery count through this crash —
/// matches what the cluster produces by construction. Falls back to the
/// last candidate if none match (the caller's stream comparison will then
/// report the mismatch).
pub fn simulate_reference_schedule(
    seed: u64,
    steps: u32,
    tb_interval_secs: f64,
    internal_traffic: bool,
    crashes: &[CrashEvent],
) -> SimReference {
    if crashes.is_empty() {
        return run_once(build_config(
            seed,
            steps,
            tb_interval_secs,
            internal_traffic,
            &[],
        ));
    }
    let mut schedule: Vec<CrashEvent> = crashes.to_vec();
    schedule.sort_by_key(|c| c.epoch);

    let mut resolved: Vec<(NodeId, f64)> = Vec::new();
    let mut torn_target = 0u64;
    let mut last: Option<SimReference> = None;
    for (i, ev) in schedule.iter().enumerate() {
        torn_target += u64::from(tears_write(ev.kind));
        let recovery_target = i as u64 + 1;
        let grid_t = tb_interval_secs * ev.epoch as f64;
        let mut accepted = None;
        for eps in epsilon_scan() {
            let mut faults = resolved.clone();
            faults.push((ev.victim, grid_t + eps));
            let cfg = build_config(seed, steps, tb_interval_secs, internal_traffic, &faults);
            let mut r = run_once(cfg);
            r.crash_epsilon = Some(eps);
            let matches_cluster_fault =
                r.torn_writes == torn_target && r.hardware_recoveries == recovery_target;
            accepted = Some((eps, r));
            if matches_cluster_fault {
                break;
            }
        }
        let (eps, r) = accepted.expect("ladder is non-empty");
        resolved.push((ev.victim, grid_t + eps));
        last = Some(r);
    }
    last.expect("schedule is non-empty")
}

/// Runs the reference simulation for a cluster mission with at most one
/// mid-round kill (the legacy single-fault shape).
pub fn simulate_reference(
    seed: u64,
    steps: u32,
    tb_interval_secs: f64,
    kill: Option<(NodeId, u64)>,
) -> SimReference {
    let schedule: Vec<CrashEvent> = kill
        .map(|(victim, epoch)| CrashEvent {
            victim,
            epoch,
            kind: CrashKind::MidRound,
        })
        .into_iter()
        .collect();
    simulate_reference_schedule(seed, steps, tb_interval_secs, false, &schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_reference_serves_every_produce() {
        let r = simulate_reference(11, 4, 1.7, None);
        assert!(r.verdicts_hold);
        assert_eq!(r.device_payloads.len(), 4, "one device message per step");
        assert_eq!(r.torn_writes, 0);
        assert_eq!(r.hardware_recoveries, 0);
    }

    #[test]
    fn kill_reference_finds_a_torn_write_placement() {
        let r = simulate_reference(11, 8, 1.7, Some((NodeId::P2, 3)));
        assert!(r.verdicts_hold, "the coordinated scheme must survive");
        assert_eq!(r.torn_writes, 1, "ε ladder must land inside blocking");
        assert_eq!(r.hardware_recoveries, 1);
        assert_eq!(
            r.device_payloads.len(),
            8,
            "every scripted produce reaches the device"
        );
        // Rolling back from the torn epoch k to the line k−1 costs one grid
        // interval plus the restart delay.
        let expected = 1.7 + RESTART_DELAY_MS as f64 / 1000.0;
        let d = r.mean_rollback_secs.expect("rollback recorded");
        assert!(
            (d - expected).abs() < 0.25,
            "rollback distance ≈ Δ + restart delay, got {d}"
        );
    }

    #[test]
    fn kill_placement_is_found_across_seeds_and_rounds() {
        // The scan must reproduce the cluster fault shape regardless of the
        // seeded clock offsets — seed 23 / round 2 regressed the old sparse
        // all-positive ladder (the victim's window began before the grid).
        for (seed, steps, kill_epoch) in [(23, 6, 2), (5, 8, 3), (42, 6, 2), (11, 8, 1)] {
            let r = simulate_reference(seed, steps, 1.7, Some((NodeId::P2, kill_epoch)));
            assert_eq!(r.torn_writes, 1, "seed {seed} round {kill_epoch}: torn");
            assert_eq!(
                r.hardware_recoveries, 1,
                "seed {seed} round {kill_epoch}: rollback"
            );
            assert!(r.verdicts_hold, "seed {seed} round {kill_epoch}: verdicts");
            assert_eq!(r.device_payloads.len(), steps as usize);
        }
    }

    #[test]
    fn round_start_placement_avoids_the_torn_write() {
        for seed in [5u64, 11, 23, 42] {
            let r = simulate_reference_schedule(
                seed,
                6,
                1.7,
                false,
                &[CrashEvent {
                    victim: NodeId::P2,
                    epoch: 2,
                    kind: CrashKind::RoundStart,
                }],
            );
            assert_eq!(r.torn_writes, 0, "seed {seed}: pre-round crash, no tear");
            assert_eq!(r.hardware_recoveries, 1, "seed {seed}: still one rollback");
            assert!(r.verdicts_hold, "seed {seed}");
            assert_eq!(r.device_payloads.len(), 6);
        }
    }

    #[test]
    fn double_kill_reference_equals_single_mid_round_kill() {
        // The cluster's second kill hits a restarted idle victim before the
        // rollback, so the simulator reference is a single mid-round fault.
        let double = simulate_reference_schedule(
            11,
            8,
            1.7,
            false,
            &[CrashEvent {
                victim: NodeId::P2,
                epoch: 3,
                kind: CrashKind::DoubleKill,
            }],
        );
        let single = simulate_reference(11, 8, 1.7, Some((NodeId::P2, 3)));
        assert_eq!(double.device_payloads, single.device_payloads);
        assert_eq!(double.torn_writes, 1);
    }

    #[test]
    fn internal_traffic_reference_keeps_the_device_stream_externals_only() {
        // Internal P1 → P2 messages are acked application traffic; they
        // must never leak to the device, and the crash placement search
        // must still converge with them in flight.
        let r = simulate_reference_schedule(
            11,
            8,
            1.7,
            true,
            &[CrashEvent {
                victim: NodeId::P2,
                epoch: 3,
                kind: CrashKind::MidRound,
            }],
        );
        assert_eq!(r.torn_writes, 1);
        assert_eq!(r.hardware_recoveries, 1);
        assert!(r.verdicts_hold);
        assert_eq!(
            r.device_payloads.len(),
            8,
            "one device message per external produce, none from internal"
        );
    }

    #[test]
    fn reference_is_deterministic_per_seed() {
        let a = simulate_reference(7, 5, 1.7, None);
        let b = simulate_reference(7, 5, 1.7, None);
        assert_eq!(a.device_payloads, b.device_payloads);
    }
}
