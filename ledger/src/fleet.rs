//! `fleet_2k`: 2 000 tenants over the shared runtime, two shards.
//!
//! The fleet slot map and scheduler over a working set far larger than the
//! cache. Completion latency is close to wall time today (round-robin makes
//! every tenant finish last), so a change of scheduling order shows in
//! `op_ms_p50` here and nowhere else.
//!
//! The timed blocks step the two shards from the calling thread through
//! `FleetManager::step_pass`, a lap a pass: two worker threads on a two-core
//! guest of a shared host measured the host's scheduler (the middle half of
//! ten runs spread over half their median). The worker threads are what the
//! traced run's `fleet.missions_per_s_w1` / `fleet.scaling_w2` run.

use std::sync::Arc;
use std::time::Instant;

use synergy::{Scheme, SystemConfig};
use synergy_fleet::{FleetConfig, FleetManager, MissionId, NullSink};

use crate::report::{Layers, Value};
use crate::sim::{holding_seeds, run_mission, Outcome, SEED_STRIDE};
use crate::stats::{median, percentile, Laps};
use crate::trace::Tracer;
use crate::{Block, Env, Run, Workload};

const TENANTS: u64 = 2000;
const SHARDS: usize = 2;
const QUANTUM: usize = 256;
/// Attaches per lap.
const ATTACH_LAP: usize = 100;
const MISSION_SECS: f64 = 60.0;

/// Tenants whose device streams and counters are compared with solo runs:
/// fault-free, hardware-fault (multiples of 7), design-fault (multiples of
/// 11) and both (77) tenants across the id range.
const SAMPLED: [u64; 8] = [1, 7, 11, 77, 500, 1001, 1500, 2000];

fn has_hardware_fault(tenant: u64) -> bool {
    tenant.is_multiple_of(7)
}

/// The fleet-bench mix: every 7th tenant takes a hardware fault, every
/// 11th activates the design fault.
fn tenant_config(tenant: u64, seed: u64) -> SystemConfig {
    let mut builder = SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .mission(MissionId(tenant))
        .seed(seed)
        .duration_secs(MISSION_SECS)
        .internal_rate_per_min(60.0)
        .external_rate_per_min(6.0)
        .trace(false);
    if has_hardware_fault(tenant) {
        builder = builder.hardware_fault_at_secs(MISSION_SECS * 0.5);
    }
    if tenant.is_multiple_of(11) {
        builder = builder.software_fault_at_secs(MISSION_SECS * 0.33);
    }
    builder.build()
}

/// How a pass drives the scheduler.
#[derive(Clone, Copy)]
enum Driven {
    /// `step_pass` over [`SHARDS`] shards from the calling thread.
    Stepped,
    /// `run_until_idle` on this many worker threads (and shards).
    Workers(usize),
}

/// What one pass of the whole fleet measured.
struct Pass {
    wall_s: f64,
    completed: u64,
    latencies_ms: Vec<f64>,
    failures: Vec<String>,
    events: u64,
    device_msgs: u64,
    rollbacks: (u64, u64),
    stalls: u64,
}

/// The `fleet_2k` workload.
pub struct Fleet {
    /// Mission seed of tenant `i + 1`.
    seeds: Vec<u64>,
    rejected: Vec<u64>,
    /// Solo runs of the sampled tenants.
    solo: Vec<(u64, Outcome)>,
    setup_failures: Vec<String>,
    last: Option<Pass>,
}

impl Fleet {
    fn configs(&self) -> impl Iterator<Item = SystemConfig> + '_ {
        (1..=TENANTS).map(|t| tenant_config(t, self.seeds[t as usize - 1]))
    }

    /// Attaches every tenant, runs the fleet idle and checks its outputs,
    /// a lap every [`ATTACH_LAP`] attaches and every scheduler pass.
    /// With `capture` the sampled tenants' device streams are compared
    /// byte for byte with their solo runs; without, their counters are.
    fn pass(&self, driven: Driven, capture: bool, tr: &mut Tracer, laps: &mut Laps) -> Pass {
        let mut cfg = FleetConfig::default()
            .with_slots(TENANTS as usize)
            .with_workers(match driven {
                Driven::Stepped => SHARDS,
                Driven::Workers(n) => n,
            })
            .with_quantum(QUANTUM);
        if capture {
            cfg = cfg.with_capture();
        }
        let fleet = FleetManager::new(cfg, Arc::new(NullSink::new()));
        let mut failures = Vec::new();
        let started = Instant::now();
        for (i, config) in self.configs().enumerate() {
            if let Err(e) = tr.span("fleet.attach", i as u64 + 1, |_| fleet.attach(config)) {
                failures.push(format!("tenant {}: attach refused: {e}", i + 1));
            }
            if (i + 1) % ATTACH_LAP == 0 {
                laps.lap();
            }
        }
        let completed = match driven {
            Driven::Stepped => {
                // `run_until_idle`'s loop, on this thread.
                let (mut completed, mut passes) = (0u64, 0u64);
                loop {
                    passes += 1;
                    let out = tr.span("fleet.step_pass", passes, |_| fleet.step_pass());
                    laps.lap();
                    completed += out.completed_now as u64;
                    if out.visited == 0 {
                        break completed;
                    }
                    if out.progressed == 0 && out.waiting > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            }
            Driven::Workers(_) => {
                let completed = tr.span("fleet.run_until_idle", 0, |_| fleet.run_until_idle());
                laps.lap();
                completed
            }
        };
        let wall_s = started.elapsed().as_secs_f64();

        let stats = Arc::clone(fleet.stats());
        let mut latencies_ms = Vec::with_capacity(TENANTS as usize);
        for tenant in 1..=TENANTS {
            match stats.tenant(MissionId(tenant)) {
                Some(t) if t.latency_ms > 0.0 => {
                    latencies_ms.push(t.latency_ms);
                    if !t.verdicts_hold {
                        failures.push(format!("tenant {tenant}: checker verdict violated"));
                    }
                }
                _ => failures.push(format!("tenant {tenant}: mission did not complete")),
            }
        }
        for (tenant, solo) in &self.solo {
            let row = stats.tenant(MissionId(*tenant)).unwrap_or_default();
            if (row.events, row.device_msgs) != (solo.events, solo.device.len() as u64) {
                failures.push(format!(
                    "tenant {tenant}: {} events, {} device messages; solo run {} and {}",
                    row.events,
                    row.device_msgs,
                    solo.events,
                    solo.device.len()
                ));
            }
            if capture {
                match fleet.detach(MissionId(*tenant)) {
                    Ok(report) if report.captured == solo.device => {}
                    Ok(_) => failures.push(format!(
                        "tenant {tenant}: device stream differs from the solo run"
                    )),
                    Err(e) => failures.push(format!("tenant {tenant}: detach: {e}")),
                }
            }
        }
        Pass {
            wall_s,
            completed,
            latencies_ms,
            failures,
            events: stats.events(),
            device_msgs: stats.device_msgs(),
            rollbacks: stats.rollbacks(),
            stalls: stats.stalls(),
        }
    }
}

impl Workload for Fleet {
    fn setup(env: &Env, laps: &mut Laps) -> Result<Fleet, String> {
        let first = env.seed.wrapping_mul(SEED_STRIDE);
        // Checkers run at hardware recoveries only, so only those tenants
        // can draw a violating seed (see `holding_seeds`).
        let faulted: Vec<u64> = (1..=TENANTS).filter(|t| has_hardware_fault(*t)).collect();
        let (hw_seeds, rejected) = holding_seeds(
            first.wrapping_add(TENANTS + 1),
            faulted.len(),
            crate::sim::QUANTUM,
            laps,
            |slot, seed| tenant_config(faulted[slot], seed),
        )?;
        let mut seeds: Vec<u64> = (1..=TENANTS).map(|t| first.wrapping_add(t)).collect();
        for (t, s) in faulted.iter().zip(hw_seeds) {
            seeds[*t as usize - 1] = s;
        }
        let mut fleet = Fleet {
            seeds,
            rejected,
            solo: Vec::new(),
            setup_failures: Vec::new(),
            last: None,
        };
        let mut off = Tracer::new();
        fleet.solo = SAMPLED
            .iter()
            .map(|&t| {
                let config = tenant_config(t, fleet.seeds[t as usize - 1]);
                (
                    t,
                    run_mission(config, crate::sim::QUANTUM, &mut off, laps, t),
                )
            })
            .collect();
        // The warm-up block, with capture on for the byte comparison.
        fleet.setup_failures = fleet.pass(Driven::Stepped, true, &mut off, laps).failures;
        Ok(fleet)
    }

    fn block(&mut self, tr: &mut Tracer) -> Result<Block, String> {
        let mut laps = Laps::start();
        let mut pass = self.pass(Driven::Stepped, false, tr, &mut laps);
        let block = Block {
            wall_s: pass.wall_s,
            ops: TENANTS,
            failures: std::mem::take(&mut pass.failures),
            op_ms: pass.latencies_ms.clone(),
            piece_ms: laps.ms,
            guard: vec![
                ("fleet.completed", pass.completed),
                ("des.events", pass.events),
                ("fleet.device_msgs", pass.device_msgs),
                ("core.rollbacks", pass.rollbacks.0 + pass.rollbacks.1),
            ],
            ..Block::default()
        };
        self.last = Some(pass);
        Ok(block)
    }

    /// A tenant's completion latency spans most of its block, so it has no
    /// pieces of its own: its median's share of the block's wall time
    /// (which the host's mood cancels out of) times the block's wall time
    /// with every piece at its fastest.
    fn op_ms_p50(&self, blocks: &[Block], floor_wall_ms: f64) -> Option<f64> {
        let shares: Vec<f64> = blocks
            .iter()
            .map(|b| percentile(&b.op_ms, 50.0) / (b.wall_s * 1e3))
            .collect();
        Some(median(&shares) * floor_wall_ms)
    }

    fn layers(&mut self, run: &Run<'_>, out: &mut Layers) -> Result<(), String> {
        let last = self
            .last
            .as_ref()
            .expect("layers follow at least one block");
        let tenants = TENANTS as f64;
        out.exact("des.events_per_mission", last.events as f64 / tenants);
        out.exact(
            "core.rollbacks_per_mission",
            (last.rollbacks.0 + last.rollbacks.1) as f64 / tenants,
        );
        out.exact("core.allocs_per_mission", run.allocs_per_op());
        out.exact("core.rejected_seeds", self.rejected.len() as f64);
        out.set("fleet.attach_us_p50", run.span_median("fleet.attach", 1e3));
        out.exact("fleet.stalls", last.stalls as f64);

        let plain: Vec<&Block> = run.blocks.iter().filter(|b| !b.traced).collect();
        let ratios: Vec<f64> = plain
            .iter()
            .map(|b| percentile(&b.op_ms, 50.0) / (b.wall_s * 1e3))
            .collect();
        out.set("fleet.completion_over_wall", Value::median_of(&ratios));
        let pooled = run.untraced_op_ms();
        out.set(
            "fleet.completion_ms_p99",
            Value::tail(percentile(&pooled, 99.0), pooled.len()),
        );

        // One worker thread, two, then the same missions with no fleet at
        // all.
        let (mut off, mut unused) = (Tracer::new(), Laps::start());
        let w1 = self.pass(Driven::Workers(1), false, &mut off, &mut unused);
        let w2 = self.pass(Driven::Workers(2), false, &mut off, &mut unused);
        let (w1_per_s, w2_per_s) = (tenants / w1.wall_s, tenants / w2.wall_s);
        let started = Instant::now();
        for (op, config) in self.configs().enumerate() {
            std::hint::black_box(run_mission(
                config,
                crate::sim::QUANTUM,
                &mut off,
                &mut unused,
                op as u64,
            ));
        }
        let solo_per_s = tenants / started.elapsed().as_secs_f64();
        out.exact("fleet.missions_per_s_w1", w1_per_s);
        out.exact("fleet.overhead_ratio", solo_per_s / w1_per_s);
        out.exact("fleet.scaling_w2", w2_per_s / w1_per_s);
        Ok(())
    }

    fn setup_failures(&self) -> &[String] {
        &self.setup_failures
    }

    fn notes(&self) -> Vec<(String, String)> {
        vec![
            ("tenants".to_string(), TENANTS.to_string()),
            ("shards".to_string(), SHARDS.to_string()),
            ("rejected_seeds".to_string(), format!("{:?}", self.rejected)),
        ]
    }
}
