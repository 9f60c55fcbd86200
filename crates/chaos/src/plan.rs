//! Deterministic campaign generation.
//!
//! A campaign is a [`ClusterConfig`] fully determined by `(base_seed,
//! index)` ([`generate`]): every parameter is drawn from a labelled
//! [`DetRng`] stream, so re-running the same seed reproduces the same
//! mission, the same fault cocktail, and — because every injected layer is
//! deterministic too — the same realized schedule. A [`FaultGroup`] is one
//! row of the fault vocabulary: its name, its `--no-<name>` flag, whether a
//! mission carries it and how to remove it. [`CampaignToggles`] disable
//! whole groups *after* drawing, so `--no-link` keeps the mission shape
//! (steps, crash) of the full campaign; the shrinker relies on the same
//! property.
//!
//! The drawn parameters deliberately stay inside the region the masking
//! argument covers (see `DESIGN.md` §11): drop probability below 0.25
//! against a 16-attempt retransmit budget, transient disk faults charged at
//! most twice against the runtime's retry budget of eight, partitions that
//! close well before the quiesce deadline, and bit-rot only when the victim
//! is guaranteed a full image after the record it rots. Campaigns outside that region are
//! for negative tests, not for the byte-identical sweep.

use synergy::{CrashEvent, CrashKind, NodeId};
use synergy_cluster::{grid_rounds, ClusterConfig, Rot};
use synergy_des::DetRng;
use synergy_net::{LinkFaultPlan, LinkFaults, PartitionWindow};
use synergy_storage::{DiskFault, DiskFaultPlan, DiskOp};

/// One group of faults a campaign can carry, and the unit the shrinker
/// removes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultGroup {
    /// Link faults: drops, ack duplication, delays, partitions.
    Link,
    /// Transient stable-storage faults under the TB runtime.
    Disk,
    /// Frame-level bit-rot in the victim's oldest record file.
    Bitrot,
    /// Chain-link rot in the victim's oldest record, behind a valid frame.
    Deltarot,
    /// Byzantine-lite value corruption: a node restores the checkpoint at
    /// the epoch line value-flipped behind a valid CRC (unmasked-regime
    /// campaigns only — the masked sweep never draws it).
    Corrupt,
    /// The scheduled crash (kill + restart + global rollback).
    Crash,
}

impl FaultGroup {
    /// Every group, in the order the shrinker tries to remove them: the
    /// crash last, because rot and corruption ride on it.
    pub const ALL: [FaultGroup; 6] = [
        FaultGroup::Link,
        FaultGroup::Disk,
        FaultGroup::Bitrot,
        FaultGroup::Deltarot,
        FaultGroup::Corrupt,
        FaultGroup::Crash,
    ];

    /// The group's name, as in its `--no-<name>` runner flag and in a
    /// shrink report.
    pub fn name(self) -> &'static str {
        match self {
            FaultGroup::Link => "link",
            FaultGroup::Disk => "disk",
            FaultGroup::Bitrot => "bitrot",
            FaultGroup::Deltarot => "deltarot",
            FaultGroup::Corrupt => "corrupt",
            FaultGroup::Crash => "crash",
        }
    }

    /// The group a `--no-<name>` flag disables, if `flag` is one.
    pub fn from_flag(flag: &str) -> Option<FaultGroup> {
        let name = flag.strip_prefix("--no-")?;
        FaultGroup::ALL.into_iter().find(|g| g.name() == name)
    }

    /// Whether `cfg` still carries the group.
    pub fn is_in(self, cfg: &ClusterConfig) -> bool {
        match self {
            FaultGroup::Link => !cfg.link_plan.is_inert(),
            FaultGroup::Disk => cfg.disk_plans.iter().any(|p| !p.is_inert()),
            FaultGroup::Bitrot => cfg.rot == Some(Rot::Frame),
            FaultGroup::Deltarot => cfg.rot == Some(Rot::Chain),
            FaultGroup::Corrupt => cfg.corrupt.is_some(),
            FaultGroup::Crash => cfg.crash.is_some(),
        }
    }

    /// Removes the group from `cfg`. Removing the crash also removes the
    /// rot and the checkpoint corruption, which both ride on its global
    /// rollback.
    pub fn remove_from(self, cfg: &mut ClusterConfig) {
        match self {
            FaultGroup::Link => cfg.link_plan = LinkFaultPlan::inert(cfg.link_plan.seed),
            FaultGroup::Disk => cfg.disk_plans.fill(DiskFaultPlan::inert()),
            FaultGroup::Bitrot => cfg.rot = cfg.rot.filter(|&r| r != Rot::Frame),
            FaultGroup::Deltarot => cfg.rot = cfg.rot.filter(|&r| r != Rot::Chain),
            FaultGroup::Corrupt => cfg.corrupt = None,
            FaultGroup::Crash => {
                cfg.crash = None;
                cfg.rot = None;
                cfg.corrupt = None;
            }
        }
    }
}

/// The fault groups a sweep leaves out of every campaign; the default
/// leaves out none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignToggles {
    disabled: u8,
}

impl CampaignToggles {
    /// Leaves `group` out of every campaign.
    pub fn disable(&mut self, group: FaultGroup) {
        self.disabled |= 1 << group as u8;
    }

    /// Whether `group` is left out.
    pub fn disables(self, group: FaultGroup) -> bool {
        self.disabled & (1 << group as u8) != 0
    }
}

impl FromIterator<FaultGroup> for CampaignToggles {
    /// The toggles that leave out exactly these groups.
    fn from_iter<I: IntoIterator<Item = FaultGroup>>(groups: I) -> Self {
        let mut toggles = CampaignToggles::default();
        groups.into_iter().for_each(|g| toggles.disable(g));
        toggles
    }
}

/// Generates campaign `index` of the sweep rooted at `base_seed`.
///
/// The crash kind rotates with the index so any consecutive run of three
/// campaigns covers every [`CrashKind`]; everything else is drawn from
/// per-campaign RNG streams. The chain cadence `delta_k` is mission shape,
/// not a fault: no toggle and no shrink removes it.
pub fn generate(base_seed: u64, index: u64, toggles: CampaignToggles) -> ClusterConfig {
    let root = DetRng::new(base_seed);
    let mut rng = root.stream_indexed("campaign", index);

    let steps = rng.gen_range(5u64..=9) as u32;
    let rounds = grid_rounds(steps);
    // Most campaigns carry acked P1 → P2 traffic so the chaos wire has
    // application frames and acks to work on, not just device output.
    let internal_traffic = rng.gen_bool(0.75);

    // The crash: victim P2 (the fault-plan index mapping the verifier's
    // equivalence tests pin down), epoch anywhere on the grid, kind
    // rotating so kills land idle, mid-write, and during recovery.
    let kind = match index % 3 {
        0 => CrashKind::MidRound,
        1 => CrashKind::RoundStart,
        _ => CrashKind::DoubleKill,
    };
    let crash = (rounds >= 1).then(|| CrashEvent {
        victim: NodeId::P2,
        epoch: rng.gen_range(1..=rounds),
        kind,
    });

    // Link faults, inside the masked regime: loss below 0.25 against a
    // 16-attempt budget leaves residual frame loss around 2e-10.
    let mut link_rng = root.stream_indexed("campaign-link", index);
    let drop_prob = link_rng.next_f64() * 0.25;
    let dup_prob = link_rng.next_f64() * 0.30;
    let delay_hi = link_rng.gen_range(5u64..=30);
    let mut partitions = Vec::new();
    if link_rng.gen_bool(0.6) {
        let start_ms = link_rng.gen_range(500u64..=2500);
        let len_ms = link_rng.gen_range(300u64..=900);
        partitions.push(PartitionWindow {
            start_ms,
            end_ms: start_ms + len_ms,
        });
    }
    let link_plan = LinkFaultPlan {
        faults: LinkFaults::new(drop_prob, dup_prob),
        delay_ms: (0, delay_hi),
        partitions,
        seed: link_rng.next_u64(),
    };

    // Transient disk faults: at most two charges per fault, well under
    // the runtime's retry budget of eight, so every one is masked.
    let mut disk_rng = root.stream_indexed("campaign-disk", index);
    let mut disk_plans = Vec::with_capacity(NodeId::ALL.len());
    for _ in NodeId::ALL {
        let mut plan = DiskFaultPlan::inert();
        if disk_rng.gen_bool(0.6) {
            let count = disk_rng.gen_range(1u64..=2);
            for _ in 0..count {
                plan.faults.push(DiskFault {
                    seq: disk_rng.gen_range(1..=rounds.max(1)),
                    op: if disk_rng.gen_bool(0.5) {
                        DiskOp::Begin
                    } else {
                        DiskOp::Commit
                    },
                    times: disk_rng.gen_range(1u64..=2) as u32,
                });
            }
        }
        disk_plans.push(plan);
    }

    // Chain cadence and the layer a rot would hit: all-full (k = 1)
    // rotted at the frame or behind it, mixed (2, 4) behind it.
    let mut delta_rng = root.stream_indexed("campaign-delta", index);
    let (delta_k, rot_layer) = [
        (1u32, Rot::Frame),
        (1, Rot::Chain),
        (2, Rot::Chain),
        (4, Rot::Chain),
    ][delta_rng.gen_range(0u64..4) as usize];

    // Rot hits the oldest record; the injector keeps the restore
    // target replayable by requiring an intact full image later in
    // the chain. The next full lands at seq 1+k, committed once
    // epoch ≥ k+2 — below that the injector would refuse, so don't
    // schedule it.
    let rot = crash
        .is_some_and(|c| c.epoch >= u64::from(delta_k) + 2)
        .then_some(rot_layer);

    let mut cfg = ClusterConfig {
        seed: base_seed.wrapping_add(index),
        steps,
        crash,
        internal_traffic,
        link_plan,
        disk_plans,
        rot,
        delta_k,
        corrupt: None,
    };
    for group in FaultGroup::ALL.into_iter().filter(|&g| toggles.disables(g)) {
        group.remove_from(&mut cfg);
    }
    cfg
}

/// Generates unmasked-regime cluster campaign `index`: a Byzantine-lite
/// value corruption of the active's restored checkpoint riding on a
/// scheduled crash, on its own seed family (the `"regime-cluster"` stream)
/// so regime sweeps never collide with the masked sweep.
///
/// The cocktail is deliberately minimal — no link or disk chaos — so the
/// *only* unmasked ingredient is the corruption, and the cluster-vs-sim
/// diff attributes every divergent byte to it. Every record a full image
/// (`delta_k = 1`).
pub fn generate_byzantine(base_seed: u64, index: u64) -> ClusterConfig {
    let root = DetRng::new(base_seed);
    let mut rng = root.stream_indexed("regime-cluster", index);
    let steps = rng.gen_range(6u64..=9) as u32;
    let rounds = grid_rounds(steps);
    let kind = match index % 3 {
        0 => CrashKind::MidRound,
        1 => CrashKind::RoundStart,
        _ => CrashKind::DoubleKill,
    };
    // Epoch ≥ 2 so node 0 restores a committed checkpoint to corrupt
    // and the rollback has a line strictly behind the crash round.
    let crash = CrashEvent {
        victim: NodeId::P2,
        epoch: rng.gen_range(2..=rounds.max(2)),
        kind,
    };
    ClusterConfig {
        seed: base_seed.wrapping_add(index),
        steps,
        internal_traffic: rng.gen_bool(0.5),
        crash: Some(crash),
        link_plan: LinkFaultPlan::inert(rng.next_u64()),
        disk_plans: vec![DiskFaultPlan::inert(); NodeId::ALL.len()],
        rot: None,
        delta_k: 1,
        corrupt: Some(NodeId::P1Act),
    }
}

/// One-line human summary of `cfg`'s fault cocktail.
pub fn cocktail(cfg: &ClusterConfig) -> String {
    let mut parts = Vec::new();
    match cfg.crash {
        Some(c) => parts.push(format!("{:?}@{}", c.kind, c.epoch)),
        None => parts.push("no-crash".to_string()),
    }
    if cfg.link_plan.is_inert() {
        parts.push("link:off".to_string());
    } else {
        parts.push(format!(
            "link:drop={:.2},part={}",
            cfg.link_plan.faults.drop_prob,
            cfg.link_plan.partitions.len()
        ));
    }
    let disk_faults: usize = cfg.disk_plans.iter().map(|p| p.faults.len()).sum();
    parts.push(format!("disk:{disk_faults}"));
    parts.push(format!("delta-k{}", cfg.delta_k));
    match cfg.rot {
        Some(Rot::Frame) => parts.push("bitrot".to_string()),
        Some(Rot::Chain) => parts.push("deltarot".to_string()),
        None => {}
    }
    if let Some(node) = cfg.corrupt {
        parts.push(format!("corrupt:n{}", node.index()));
    }
    if cfg.internal_traffic {
        parts.push("acked-traffic".to_string());
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, 7, CampaignToggles::default());
        let b = generate(42, 7, CampaignToggles::default());
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_indices_draw_distinct_campaigns() {
        let a = generate(42, 0, CampaignToggles::default());
        let b = generate(42, 3, CampaignToggles::default());
        // Same crash-kind rotation slot, different draws.
        assert_eq!(a.crash.map(|c| c.kind), b.crash.map(|c| c.kind));
        assert_ne!((a.seed, a.link_plan.seed), (b.seed, b.link_plan.seed));
    }

    #[test]
    fn crash_kind_rotation_covers_every_kind() {
        let kinds: Vec<CrashKind> = (0..3)
            .map(|i| {
                generate(1, i, CampaignToggles::default())
                    .crash
                    .expect("crash present")
                    .kind
            })
            .collect();
        assert!(kinds.contains(&CrashKind::MidRound));
        assert!(kinds.contains(&CrashKind::RoundStart));
        assert!(kinds.contains(&CrashKind::DoubleKill));
    }

    #[test]
    fn drawn_parameters_stay_in_the_masked_regime() {
        for index in 0..64 {
            let cfg = generate(99, index, CampaignToggles::default());
            let rounds = grid_rounds(cfg.steps);
            assert!((5..=9).contains(&cfg.steps));
            let crash = cfg.crash.expect("every campaign schedules a crash");
            assert!((1..=rounds).contains(&crash.epoch), "epoch on the grid");
            assert!(cfg.link_plan.faults.drop_prob < 0.25);
            for w in &cfg.link_plan.partitions {
                assert!(w.start_ms >= 500 && w.end_ms <= 3400);
            }
            for plan in &cfg.disk_plans {
                for f in &plan.faults {
                    assert!(f.times <= 2, "transient faults stay under the retry budget");
                    assert!((1..=rounds.max(1)).contains(&f.seq));
                }
            }
            assert!([1, 2, 4].contains(&cfg.delta_k));
            if let Some(rot) = cfg.rot {
                assert!(
                    crash.epoch >= u64::from(cfg.delta_k) + 2,
                    "rot needs a committed full image after the rotted record"
                );
                if rot == Rot::Frame {
                    assert_eq!(cfg.delta_k, 1, "frame rot is drawn on all-full chains");
                }
            }
            assert_eq!(cfg.link_plan.validate(), Ok(()));
        }
    }

    #[test]
    fn toggles_disable_groups_without_changing_the_mission() {
        let full = generate(7, 4, CampaignToggles::default());
        let crash = |s: &ClusterConfig| s.crash.map(|c| (c.epoch, c.kind));
        for group in FaultGroup::ALL {
            let flag = format!("--no-{}", group.name());
            assert_eq!(FaultGroup::from_flag(&flag), Some(group));
            let toggles: CampaignToggles = [group].into_iter().collect();
            let cfg = generate(7, 4, toggles);
            let mut removed = full.clone();
            group.remove_from(&mut removed);
            assert_eq!(cfg, removed, "{flag} is remove_from after drawing");
            assert!(!group.is_in(&cfg), "{flag}");
            assert_eq!((cfg.seed, cfg.steps), (full.seed, full.steps), "{flag}");
            assert_eq!(cfg.delta_k, full.delta_k, "the cadence is mission shape");
            if group != FaultGroup::Crash {
                assert_eq!(crash(&cfg), crash(&full), "{flag}");
            }
        }
        let bare = generate(7, 4, FaultGroup::ALL.into_iter().collect());
        assert!(FaultGroup::ALL.into_iter().all(|g| !g.is_in(&bare)));
        assert_eq!(FaultGroup::from_flag("--no-such-group"), None);
    }

    #[test]
    fn the_sweep_exercises_every_new_axis() {
        let mut saw = (false, false, false);
        for index in 0..64 {
            let cfg = generate(99, index, CampaignToggles::default());
            saw.0 |= cfg.delta_k > 1;
            saw.1 |= cfg.rot == Some(Rot::Chain);
            saw.2 |= cfg.rot == Some(Rot::Frame);
        }
        assert!(saw.0, "some campaigns write deltas");
        assert!(saw.1, "some campaigns rot a chain record");
        assert!(saw.2, "some campaigns rot a record frame");
    }

    #[test]
    fn the_masked_sweep_never_draws_the_corrupt_axis() {
        for index in 0..64 {
            let cfg = generate(99, index, CampaignToggles::default());
            assert_eq!(cfg.corrupt, None, "corruption is a regime axis");
        }
    }

    #[test]
    fn byzantine_campaigns_are_deterministic_and_well_formed() {
        for index in 0..8 {
            let a = generate_byzantine(5, index);
            let b = generate_byzantine(5, index);
            assert_eq!(a, b);
            assert_eq!(a.corrupt, Some(NodeId::P1Act));
            assert_eq!(a.delta_k, 1, "every record a full image");
            assert!(a.link_plan.is_inert(), "the only unmasked axis is the flip");
            assert!(a.disk_plans.iter().all(|p| p.is_inert()));
            let crash = a.crash.expect("corruption rides on a crash");
            assert!(crash.epoch >= 2, "node 0 must hold a committed record");
        }
    }

    #[test]
    fn has_reflects_the_spec() {
        let mut cfg = generate(11, 0, CampaignToggles::default());
        FaultGroup::Link.remove_from(&mut cfg);
        assert!(!FaultGroup::Link.is_in(&cfg));
        assert!(FaultGroup::Crash.is_in(&cfg));
        cfg.corrupt = Some(NodeId::P1Act);
        FaultGroup::Crash.remove_from(&mut cfg);
        for rider in [
            FaultGroup::Bitrot,
            FaultGroup::Deltarot,
            FaultGroup::Corrupt,
        ] {
            assert!(!rider.is_in(&cfg), "{rider:?} rides on the crash");
        }
    }
}
