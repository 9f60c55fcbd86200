//! Deterministic campaign generation.
//!
//! A [`CampaignSpec`] is fully determined by `(base_seed, index)`: every
//! parameter is drawn from a labelled [`DetRng`] stream, so re-running the
//! same seed reproduces the same mission, the same fault cocktail, and —
//! because every injected layer is deterministic too — the same realized
//! schedule. [`CampaignToggles`] disable whole fault groups *after*
//! drawing, so `--no-link` keeps the mission shape (steps, crash) of the
//! full campaign; the shrinker relies on the same property.
//!
//! The drawn parameters deliberately stay inside the region the masking
//! argument covers (see `DESIGN.md` §11): drop probability below 0.25
//! against a 16-attempt retransmit budget, transient disk faults charged at
//! most twice against the runtime's retry budget of eight, partitions that
//! close well before the quiesce deadline, and bit-rot only when the victim
//! is guaranteed a full image after the record it rots. Campaigns outside that region are
//! for negative tests, not for the byte-identical sweep.

use synergy::NodeId;
use synergy_archive::{ArchiveFaultPlan, OutageWindow};
use synergy_cluster::{grid_rounds, CrashEvent, CrashKind, Rot};
use synergy_des::DetRng;
use synergy_net::{LinkFaultPlan, LinkFaults, PartitionWindow};
use synergy_storage::{DiskFault, DiskFaultPlan, DiskOp};

/// The checkpoint grid spacing every campaign uses, chosen so no grid
/// point lands within the verifier's ε-scan radius of a produce instant.
pub(crate) const CAMPAIGN_DELTA_SECS: f64 = 1.7;

/// Which fault groups a campaign may include.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignToggles {
    /// Link faults: drops, ack duplication, delays, partitions.
    pub link: bool,
    /// Transient stable-storage faults under the TB runtime.
    pub disk: bool,
    /// The scheduled crash (kill + restart + global rollback).
    pub crash: bool,
    /// Frame-level bit-rot in the victim's oldest record file.
    pub bitrot: bool,
    /// Chain-link rot in the victim's oldest record, behind a valid frame.
    pub deltarot: bool,
    /// Archive-tier faults: object-store outages, PUT failures, and the
    /// wiped-disk rehydration axis.
    pub archive: bool,
    /// Byzantine-lite value corruption of a node's latest checkpoint
    /// behind a valid CRC (unmasked-regime campaigns only — the masked
    /// sweep never draws it).
    pub corrupt: bool,
}

impl Default for CampaignToggles {
    fn default() -> Self {
        CampaignToggles {
            link: true,
            disk: true,
            crash: true,
            bitrot: true,
            deltarot: true,
            archive: true,
            corrupt: true,
        }
    }
}

/// One fully specified fault campaign against the live cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Mission seed (shared by the cluster and the simulator reference).
    pub seed: u64,
    /// External produces at grid seconds `1..=steps`.
    pub steps: u32,
    /// Precede each external produce with an internal (acked P1 → P2)
    /// produce, putting application traffic — and its acks — on the chaos
    /// wire.
    pub internal_traffic: bool,
    /// Checkpoint grid spacing Δ.
    pub tb_interval_secs: f64,
    /// The scheduled hardware fault, if any.
    pub crash: Option<CrashEvent>,
    /// Link-fault plan shipped to every node.
    pub link: LinkFaultPlan,
    /// Per-node stable-storage fault plans.
    pub disk: Vec<DiskFaultPlan>,
    /// Rot the victim's oldest committed record before its restart, at
    /// the disk frame (`bitrot`) or behind it, where only chain-link
    /// verification can refuse it (`deltarot`).
    pub rot: Option<Rot>,
    /// Checkpoint-chain cadence, at least 1: full image every `delta_k`
    /// rounds, dirty-region deltas between. Mission shape, not a fault:
    /// the shrinker never removes it.
    pub delta_k: u32,
    /// Per-node archive-tier fault plans.
    pub archive: Vec<ArchiveFaultPlan>,
    /// Whether the victim's whole data directory is wiped at the kill,
    /// forcing a full rehydration from the archive tier.
    pub wipe: bool,
    /// Byzantine-lite target: flip value bytes inside this node's latest
    /// committed checkpoint (behind a valid CRC) before the first crash's
    /// global rollback. `None` for the masked sweep; regime campaigns set
    /// node 0 so the restored lie reaches the device stream and the
    /// cluster-vs-sim diff documents the escape.
    pub corrupt: Option<usize>,
}

impl CampaignSpec {
    /// Generates campaign `index` of the sweep rooted at `base_seed`.
    ///
    /// The crash kind rotates with the index so any consecutive run of
    /// three campaigns covers every [`CrashKind`]; everything else is
    /// drawn from per-campaign RNG streams.
    pub fn generate(base_seed: u64, index: u64, toggles: CampaignToggles) -> CampaignSpec {
        let root = DetRng::new(base_seed);
        let mut rng = root.stream_indexed("campaign", index);

        let steps = rng.gen_range(5u64..=9) as u32;
        let rounds = grid_rounds(steps, CAMPAIGN_DELTA_SECS);
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
        let link = LinkFaultPlan {
            faults: LinkFaults::new(drop_prob, dup_prob),
            delay_ms: (0, delay_hi),
            partitions,
            max_attempts: 16,
            retry_ms: (4, 60),
            seed: link_rng.next_u64(),
        };

        // Transient disk faults: at most two charges per fault, well under
        // the runtime's retry budget of eight, so every one is masked.
        let mut disk_rng = root.stream_indexed("campaign-disk", index);
        let mut disk = Vec::with_capacity(NodeId::ALL.len());
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
            disk.push(plan);
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

        // Archive-tier axis: at most one of an outage window, PUT faults,
        // or a wiped-disk rehydration, always on the crash victim so the
        // injection composes with the kill schedule.
        let mut archive_rng = root.stream_indexed("campaign-archive", index);
        let mut archive = vec![ArchiveFaultPlan::inert(); NodeId::ALL.len()];
        let mut wipe = false;
        match archive_rng.gen_range(0u64..4) {
            0 => {
                // Outage closing well before the 30 s quiesce deadline;
                // the upload queue retries through it.
                let start_ms = archive_rng.gen_range(200u64..=1500);
                let len_ms = archive_rng.gen_range(300u64..=800);
                archive[2] = ArchiveFaultPlan {
                    seed: archive_rng.next_u64(),
                    outages: vec![OutageWindow {
                        start_ms,
                        end_ms: start_ms + len_ms,
                    }],
                    ..ArchiveFaultPlan::inert()
                };
            }
            1 => {
                // PUT faults under the upload queue's retry budget;
                // partial PUTs are dropped by the object CRC on read.
                archive[2] = ArchiveFaultPlan {
                    seed: archive_rng.next_u64(),
                    put_fail: archive_rng.next_f64() * 0.3,
                    put_partial: archive_rng.next_f64() * 0.3,
                    latency_ms: archive_rng.gen_range(0u64..=10),
                    ..ArchiveFaultPlan::inert()
                };
            }
            2 => wipe = crash.is_some(),
            _ => {}
        }

        // Rot hits the oldest record; the injector keeps the restore
        // target replayable by requiring an intact full image later in
        // the chain. The next full lands at seq 1+k, committed once
        // epoch ≥ k+2 — below that the injector would refuse, so don't
        // schedule it. A wipe supersedes it: there is nothing left to rot.
        let rot = (!wipe && crash.is_some_and(|c| c.epoch >= u64::from(delta_k) + 2))
            .then_some(rot_layer);

        let mut spec = CampaignSpec {
            seed: base_seed.wrapping_add(index),
            steps,
            internal_traffic,
            tb_interval_secs: CAMPAIGN_DELTA_SECS,
            crash,
            link,
            disk,
            rot,
            delta_k,
            archive,
            wipe,
            corrupt: None,
        };
        if !toggles.link {
            spec.disable_link();
        }
        if !toggles.disk {
            spec.disable_disk();
        }
        if !toggles.bitrot {
            spec.disable_bitrot();
        }
        if !toggles.deltarot {
            spec.disable_deltarot();
        }
        if !toggles.archive {
            spec.disable_archive();
        }
        if !toggles.crash {
            spec.disable_crash();
        }
        if !toggles.corrupt {
            spec.disable_corrupt();
        }
        spec
    }

    /// Generates unmasked-regime cluster campaign `index`: a Byzantine-lite
    /// value corruption of the active's latest checkpoint riding on a
    /// scheduled crash, on its own seed family (the `"regime-cluster"`
    /// stream) so regime sweeps never collide with the masked sweep.
    ///
    /// The cocktail is deliberately minimal — no link or disk chaos — so
    /// the *only* unmasked ingredient is the corruption, and the
    /// cluster-vs-sim diff attributes every divergent byte to it. Every
    /// record a full image (`delta_k = 1`).
    pub fn generate_byzantine(base_seed: u64, index: u64) -> CampaignSpec {
        let root = DetRng::new(base_seed);
        let mut rng = root.stream_indexed("regime-cluster", index);
        let steps = rng.gen_range(6u64..=9) as u32;
        let rounds = grid_rounds(steps, CAMPAIGN_DELTA_SECS);
        let kind = match index % 3 {
            0 => CrashKind::MidRound,
            1 => CrashKind::RoundStart,
            _ => CrashKind::DoubleKill,
        };
        // Epoch ≥ 2 so node 0 holds a committed checkpoint to corrupt and
        // the rollback has a line strictly behind the crash round.
        let crash = CrashEvent {
            victim: NodeId::P2,
            epoch: rng.gen_range(2..=rounds.max(2)),
            kind,
        };
        CampaignSpec {
            seed: base_seed.wrapping_add(index),
            steps,
            internal_traffic: rng.gen_bool(0.5),
            tb_interval_secs: CAMPAIGN_DELTA_SECS,
            crash: Some(crash),
            link: LinkFaultPlan::inert(rng.next_u64()),
            disk: vec![DiskFaultPlan::inert(); NodeId::ALL.len()],
            rot: None,
            delta_k: 1,
            archive: vec![ArchiveFaultPlan::inert(); NodeId::ALL.len()],
            wipe: false,
            corrupt: Some(NodeId::P1Act.index()),
        }
    }

    /// Removes the link-fault group (wire becomes a passthrough).
    pub(crate) fn disable_link(&mut self) {
        self.link = LinkFaultPlan::inert(self.link.seed);
    }

    /// Removes every stable-storage fault.
    pub(crate) fn disable_disk(&mut self) {
        for plan in &mut self.disk {
            *plan = DiskFaultPlan::inert();
        }
    }

    /// Removes a frame-level rot injection.
    pub(crate) fn disable_bitrot(&mut self) {
        self.rot = self.rot.filter(|&r| r != Rot::Frame);
    }

    /// Removes a chain-level rot injection.
    pub(crate) fn disable_deltarot(&mut self) {
        self.rot = self.rot.filter(|&r| r != Rot::Chain);
    }

    /// Removes the archive-tier fault group: object-store fault plans and
    /// the wiped-disk rehydration. The chain cadence itself stays — it is
    /// mission shape, not a fault.
    pub(crate) fn disable_archive(&mut self) {
        for plan in &mut self.archive {
            *plan = ArchiveFaultPlan::inert();
        }
        self.wipe = false;
    }

    /// Removes the Byzantine-lite checkpoint corruption.
    pub(crate) fn disable_corrupt(&mut self) {
        self.corrupt = None;
    }

    /// Removes the scheduled crash (and with it the rot, wipe, and
    /// checkpoint corruption, which all ride on a crash's global rollback).
    pub(crate) fn disable_crash(&mut self) {
        self.crash = None;
        self.rot = None;
        self.wipe = false;
        self.corrupt = None;
    }

    /// Which fault groups the spec still carries, for shrink ordering.
    pub(crate) fn active_toggles(&self) -> CampaignToggles {
        CampaignToggles {
            link: !self.link.is_inert(),
            disk: self.disk.iter().any(|p| !p.is_inert()),
            crash: self.crash.is_some(),
            bitrot: self.rot == Some(Rot::Frame),
            deltarot: self.rot == Some(Rot::Chain),
            archive: self.wipe || self.archive.iter().any(|p| !p.is_inert()),
            corrupt: self.corrupt.is_some(),
        }
    }

    /// One-line human summary of the fault cocktail.
    pub fn cocktail(&self) -> String {
        let mut parts = Vec::new();
        match self.crash {
            Some(c) => parts.push(format!("{:?}@{}", c.kind, c.epoch)),
            None => parts.push("no-crash".to_string()),
        }
        if self.link.is_inert() {
            parts.push("link:off".to_string());
        } else {
            parts.push(format!(
                "link:drop={:.2},part={}",
                self.link.faults.drop_prob,
                self.link.partitions.len()
            ));
        }
        let disk_faults: usize = self.disk.iter().map(|p| p.faults.len()).sum();
        parts.push(format!("disk:{disk_faults}"));
        parts.push(format!("delta-k{}", self.delta_k));
        match self.rot {
            Some(Rot::Frame) => parts.push("bitrot".to_string()),
            Some(Rot::Chain) => parts.push("deltarot".to_string()),
            None => {}
        }
        if let Some(node) = self.corrupt {
            parts.push(format!("corrupt:n{node}"));
        }
        if self.wipe {
            parts.push("wipe".to_string());
        } else if self.archive.iter().any(|p| !p.is_inert()) {
            let outage = self.archive.iter().any(|p| !p.outages.is_empty());
            parts.push(if outage {
                "archive:outage".to_string()
            } else {
                "archive:puts".to_string()
            });
        }
        if self.internal_traffic {
            parts.push("acked-traffic".to_string());
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = CampaignSpec::generate(42, 7, CampaignToggles::default());
        let b = CampaignSpec::generate(42, 7, CampaignToggles::default());
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_indices_draw_distinct_campaigns() {
        let a = CampaignSpec::generate(42, 0, CampaignToggles::default());
        let b = CampaignSpec::generate(42, 3, CampaignToggles::default());
        // Same crash-kind rotation slot, different draws.
        assert_eq!(a.crash.map(|c| c.kind), b.crash.map(|c| c.kind));
        assert_ne!((a.seed, a.link.seed), (b.seed, b.link.seed));
    }

    #[test]
    fn crash_kind_rotation_covers_every_kind() {
        let kinds: Vec<CrashKind> = (0..3)
            .map(|i| {
                CampaignSpec::generate(1, i, CampaignToggles::default())
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
            let spec = CampaignSpec::generate(99, index, CampaignToggles::default());
            let rounds = grid_rounds(spec.steps, spec.tb_interval_secs);
            assert!((5..=9).contains(&spec.steps));
            let crash = spec.crash.expect("every campaign schedules a crash");
            assert!((1..=rounds).contains(&crash.epoch), "epoch on the grid");
            assert!(spec.link.faults.drop_prob < 0.25);
            assert_eq!(spec.link.max_attempts, 16);
            for w in &spec.link.partitions {
                assert!(w.start_ms >= 500 && w.end_ms <= 3400);
            }
            for plan in &spec.disk {
                for f in &plan.faults {
                    assert!(f.times <= 2, "transient faults stay under the retry budget");
                    assert!((1..=rounds.max(1)).contains(&f.seq));
                }
            }
            assert!([1, 2, 4].contains(&spec.delta_k));
            if let Some(rot) = spec.rot {
                assert!(!spec.wipe, "a wipe supersedes rot");
                assert!(
                    crash.epoch >= u64::from(spec.delta_k) + 2,
                    "rot needs a committed full image after the rotted record"
                );
                if rot == Rot::Frame {
                    assert_eq!(spec.delta_k, 1, "frame rot is drawn on all-full chains");
                }
            }
            for plan in &spec.archive {
                assert_eq!(plan.validate(), Ok(()));
                assert!(plan.put_fail < 0.3 && plan.put_partial < 0.3);
                for w in &plan.outages {
                    assert!(w.start_ms >= 200 && w.end_ms <= 2300, "outage closes early");
                }
            }
            assert_eq!(spec.link.validate(), Ok(()));
        }
    }

    #[test]
    fn toggles_disable_groups_without_changing_the_mission() {
        let full = CampaignSpec::generate(7, 4, CampaignToggles::default());
        let bare = CampaignSpec::generate(
            7,
            4,
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
        assert_eq!(bare.steps, full.steps, "mission shape preserved");
        assert_eq!(bare.seed, full.seed);
        assert_eq!(bare.delta_k, full.delta_k, "the cadence is mission shape");
        assert!(bare.link.is_inert());
        assert!(bare.disk.iter().all(|p| p.is_inert()));
        assert!(bare.crash.is_none());
        assert_eq!(bare.rot, None);
        assert!(!bare.wipe);
        assert!(bare.archive.iter().all(|p| p.is_inert()));
    }

    #[test]
    fn the_sweep_exercises_every_new_axis() {
        let mut saw = (false, false, false, false, false);
        for index in 0..64 {
            let spec = CampaignSpec::generate(99, index, CampaignToggles::default());
            saw.0 |= spec.delta_k > 1;
            saw.1 |= spec.rot == Some(Rot::Chain);
            saw.2 |= spec.wipe;
            saw.3 |= spec.archive.iter().any(|p| !p.is_inert());
            saw.4 |= spec.rot == Some(Rot::Frame);
        }
        assert!(saw.0, "some campaigns write deltas");
        assert!(saw.1, "some campaigns rot a chain record");
        assert!(saw.2, "some campaigns wipe the victim's disk");
        assert!(saw.3, "some campaigns fault the archive tier");
        assert!(saw.4, "some campaigns rot a record frame");
    }

    #[test]
    fn the_masked_sweep_never_draws_the_corrupt_axis() {
        for index in 0..64 {
            let spec = CampaignSpec::generate(99, index, CampaignToggles::default());
            assert_eq!(spec.corrupt, None, "corruption is a regime axis");
        }
    }

    #[test]
    fn byzantine_campaigns_are_deterministic_and_well_formed() {
        for index in 0..8 {
            let a = CampaignSpec::generate_byzantine(5, index);
            let b = CampaignSpec::generate_byzantine(5, index);
            assert_eq!(a, b);
            assert_eq!(a.corrupt, Some(NodeId::P1Act.index()));
            assert_eq!(a.delta_k, 1, "every record a full image");
            assert!(a.link.is_inert(), "the only unmasked axis is the flip");
            assert!(a.disk.iter().all(|p| p.is_inert()));
            let crash = a.crash.expect("corruption rides on a crash");
            assert!(crash.epoch >= 2, "node 0 must hold a committed record");
        }
    }

    #[test]
    fn active_toggles_reflect_the_spec() {
        let mut spec = CampaignSpec::generate(11, 0, CampaignToggles::default());
        spec.disable_link();
        let t = spec.active_toggles();
        assert!(!t.link);
        assert!(t.crash);
        spec.disable_crash();
        assert!(!spec.active_toggles().crash);
        assert!(!spec.active_toggles().bitrot, "bit-rot rides on the crash");
        assert!(
            !spec.active_toggles().deltarot,
            "chain-rot rides on the crash"
        );
    }
}
