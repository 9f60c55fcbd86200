//! `sim_sweep` and `sim_dense`: the simulator alone, used two ways.
//!
//! `sim_sweep` is many short missions (the `missions` bench configuration),
//! where `System::new`, allocation and `des`/`mdcd` dispatch dominate and
//! stable bytes are small. `sim_dense` is one long, busy mission a block with
//! delta accounting on, where payload encode, CRC and delta dominate and
//! construction cost vanishes — the checkpoint image grows with every
//! message, so host time is quadratic in mission length there, and must
//! not become so on `sim_sweep`.

use std::time::Instant;

use synergy::metrics::RollbackCause;
use synergy::{Scheme, System, SystemConfig};
use synergy_storage::crc32;

use crate::report::{Layers, Value};
use crate::stats::{percentile, Laps};
use crate::trace::Tracer;
use crate::{probes, Block, Env, Run, Workload};

/// Events granted per `step_events` call on `sim_sweep` (a whole mission);
/// each call is one span and one piece of the block.
pub const QUANTUM: usize = 4096;
/// The same on `sim_dense`: 550 pieces of a mission's half second, so that
/// some repeat of every piece meets a quiet host.
const DENSE_QUANTUM: usize = 64;

/// Missions per `sim_sweep` block. Blocks are kept short, so that a run
/// repeats every piece often enough for one repeat to meet a quiet host.
const SWEEP_MISSIONS: usize = 250;
/// Missions per `sim_dense` block.
const DENSE_MISSIONS: usize = 1;
/// Virtual length of a `sim_dense` mission.
const DENSE_SECS: f64 = 480.0;

/// Distance between the mission seeds of consecutive `--seed` values, so
/// two seeds share no mission.
pub const SEED_STRIDE: u64 = 100_000;

fn sweep_config(seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .seed(seed)
        .duration_secs(120.0)
        .internal_rate_per_min(60.0)
        .external_rate_per_min(2.0)
        .tb_interval_secs(5.0)
        .hardware_fault_at_secs(80.0)
        .trace(false)
        .build()
}

fn dense_config(seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .seed(seed)
        .duration_secs(DENSE_SECS)
        .internal_rate_per_min(600.0)
        .external_rate_per_min(30.0)
        .tb_interval_secs(1.0)
        .checkpoint_delta_k(4)
        .software_fault_at_secs(DENSE_SECS / 3.0)
        .hardware_fault_at_secs(DENSE_SECS * 2.0 / 3.0)
        .trace(false)
        .build()
}

/// What one finished mission reports; sums of it describe a block.
#[derive(Clone, Default)]
pub struct Outcome {
    /// Whether every checker verdict held.
    pub holds: bool,
    /// Discrete events fired.
    pub events: u64,
    /// Payloads the device received, in order.
    pub device: Vec<Vec<u8>>,
    /// Host time of the whole mission, construction to verdicts.
    pub ms: f64,
    stable_commits: u64,
    stable_bytes_full: u64,
    stable_bytes_delta: u64,
    messages_sent: u64,
    at_runs: u64,
    blocking_s: f64,
    rollbacks: u64,
    hw_rollbacks: u64,
    hw_rollback_s: f64,
}

impl Outcome {
    /// Adds `other`'s counters to this one's (a block's sum).
    fn absorb(&mut self, other: &Outcome) {
        self.events += other.events;
        self.stable_commits += other.stable_commits;
        self.stable_bytes_full += other.stable_bytes_full;
        self.stable_bytes_delta += other.stable_bytes_delta;
        self.messages_sent += other.messages_sent;
        self.at_runs += other.at_runs;
        self.blocking_s += other.blocking_s;
        self.rollbacks += other.rollbacks;
        self.hw_rollbacks += other.hw_rollbacks;
        self.hw_rollback_s += other.hw_rollback_s;
    }
}

/// CRC of a device stream, length-prefixed so payload boundaries count.
pub fn device_crc(device: &[Vec<u8>]) -> u32 {
    let mut bytes = Vec::new();
    for payload in device {
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    crc32(&bytes)
}

/// Runs one mission to its end through the fleet's stepping surface, a
/// span around each call into `core` and a lap after each: construction,
/// every `step_events(quantum)`, and the outcome.
pub fn run_mission(
    cfg: SystemConfig,
    quantum: usize,
    tr: &mut Tracer,
    laps: &mut Laps,
    op: u64,
) -> Outcome {
    let started = Instant::now();
    let mut system = tr.span("core.system_new", op, |_| System::new(cfg));
    laps.lap();
    let mut events = 0u64;
    while !system.finished() {
        events += tr.span("core.step_events", op, |_| system.step_events(quantum)) as u64;
        laps.lap();
    }
    let mut out = tr.span("core.finish", op, |_| {
        let m = system.metrics();
        let hw: Vec<f64> = m
            .rollbacks
            .iter()
            .filter(|r| r.cause == RollbackCause::Hardware)
            .map(|r| r.distance_secs)
            .collect();
        Outcome {
            holds: system.verdicts().all_hold(),
            events,
            device: system.device_stream(),
            ms: 0.0,
            stable_commits: m.stable_commits,
            stable_bytes_full: m.stable_bytes_full,
            stable_bytes_delta: m.stable_bytes_delta,
            messages_sent: m.messages_sent,
            at_runs: m.at_runs,
            blocking_s: m.blocking_total.as_secs_f64(),
            rollbacks: m.rollbacks.len() as u64,
            hw_rollbacks: hw.len() as u64,
            hw_rollback_s: hw.iter().sum(),
        }
    });
    drop(system);
    laps.lap();
    out.ms = started.elapsed().as_secs_f64() * 1e3;
    out
}

/// Picks `n` mission seeds from `first` upward such that the mission
/// `config(slot, seed)` of every slot holds every checker verdict, running
/// each candidate once (its laps go to `laps`).
///
/// About one Coordinated mission in 800 with a hardware fault violates
/// `consistency`/`recoverability` today (README, "Findings"). A benchmark
/// workload is inputs on which no operation fails, so those seeds are
/// replaced by the next candidate and reported, not timed; a revision on
/// which more than one candidate in fifty fails has no such workload and
/// the run is refused.
pub fn holding_seeds(
    first: u64,
    n: usize,
    quantum: usize,
    laps: &mut Laps,
    config: impl Fn(usize, u64) -> SystemConfig,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let allowed = (n / 50).max(3);
    let (mut seeds, mut rejected) = (Vec::with_capacity(n), Vec::new());
    let mut candidate = first;
    let mut off = Tracer::new();
    while seeds.len() < n {
        if run_mission(config(seeds.len(), candidate), quantum, &mut off, laps, 0).holds {
            seeds.push(candidate);
        } else {
            rejected.push(candidate);
            if rejected.len() > allowed {
                return Err(format!(
                    "mission seeds {rejected:?} violate the checkers: more than {allowed} \
                     of {} candidates, no failure-free workload can be built",
                    seeds.len() + rejected.len()
                ));
            }
        }
        candidate = candidate.wrapping_add(1);
    }
    Ok((seeds, rejected))
}

/// Both simulator workloads.
pub struct Sim {
    config: fn(u64) -> SystemConfig,
    quantum: usize,
    seeds: Vec<u64>,
    rejected: Vec<u64>,
    /// Sum of the last block's outcomes (identical in every block).
    sum: Outcome,
    /// CRC over the last block's device-stream CRCs.
    device_crc: u32,
}

impl Workload for Sim {
    fn setup(env: &Env, laps: &mut Laps) -> Result<Sim, String> {
        let (config, n, quantum): (fn(u64) -> SystemConfig, usize, usize) = match env.workload {
            "sim_sweep" => (sweep_config, SWEEP_MISSIONS, QUANTUM),
            _ => (dense_config, DENSE_MISSIONS, DENSE_QUANTUM),
        };
        // The seed-picking pass runs every mission of a block once: it is
        // the warm-up block as well.
        let first = env.seed.wrapping_mul(SEED_STRIDE);
        let (seeds, rejected) = holding_seeds(first, n, quantum, laps, |_, seed| config(seed))?;
        Ok(Sim {
            config,
            quantum,
            seeds,
            rejected,
            sum: Outcome::default(),
            device_crc: 0,
        })
    }

    fn block(&mut self, tr: &mut Tracer) -> Result<Block, String> {
        let mut block = Block::default();
        let mut sum = Outcome::default();
        let mut crcs = Vec::with_capacity(self.seeds.len() * 4);
        let started = Instant::now();
        let mut laps = Laps::start();
        for (op, &seed) in self.seeds.iter().enumerate() {
            let before = laps.ms.len();
            let o = run_mission((self.config)(seed), self.quantum, tr, &mut laps, op as u64);
            block.op_pieces.push((laps.ms.len() - before) as u32);
            if !o.holds {
                block
                    .failures
                    .push(format!("mission seed {seed}: checker verdict violated"));
            }
            block.op_ms.push(o.ms);
            crcs.extend_from_slice(&device_crc(&o.device).to_le_bytes());
            sum.absorb(&o);
        }
        block.wall_s = started.elapsed().as_secs_f64();
        block.piece_ms = laps.ms;
        block.ops = self.seeds.len() as u64;
        self.device_crc = crc32(&crcs);
        block.guard = vec![
            ("core.device_stream_crc", u64::from(self.device_crc)),
            ("des.events", sum.events),
            ("storage.stable_bytes", sum.stable_bytes_delta),
            ("ops_failed", block.failures.len() as u64),
        ];
        self.sum = sum;
        Ok(block)
    }

    fn layers(&mut self, run: &Run<'_>, out: &mut Layers) -> Result<(), String> {
        let missions = self.seeds.len() as f64;
        let s = &self.sum;
        let commits = s.stable_commits.max(1) as f64;

        out.exact("des.events_per_mission", s.events as f64 / missions);
        let traced_blocks = run.blocks.iter().filter(|b| b.traced).count() as f64;
        let step_ns: f64 = run.tracer.durations_ns("core.step_events").iter().sum();
        out.exact(
            "des.host_ns_per_event",
            step_ns / (s.events as f64 * traced_blocks),
        );
        out.set("des.queue_ns_per_op", probes::des_queue_ns_per_op());

        out.set("mdcd.deliver_ns", probes::mdcd_deliver_ns());
        out.exact("mdcd.msgs_per_mission", s.messages_sent as f64 / missions);
        out.exact("mdcd.at_runs_per_mission", s.at_runs as f64 / missions);

        out.set("tb.blocking_period_ns", probes::tb_blocking_period_ns());
        out.exact("tb.commits_per_mission", s.stable_commits as f64 / missions);
        out.exact("tb.blocking_virtual_s", s.blocking_s / missions);

        // Encode/decode a payload the size of this workload's own stable
        // images; without delta accounting the size is not observable and
        // the probe's default (a 200-message state) stands in.
        let image_bytes = (s.stable_bytes_full as f64 / commits) as usize;
        let (encode, decode) = probes::payload_codec_mb_per_s(image_bytes);
        out.set("codec.encode_mb_per_s", encode);
        out.set("codec.decode_mb_per_s", decode);
        out.set(
            "storage.crc32_gb_per_s",
            probes::crc32_gb_per_s(image_bytes.max(4096)),
        );
        out.exact(
            "storage.bytes_per_commit",
            s.stable_bytes_delta as f64 / commits,
        );
        out.exact(
            "archive.encoded_bytes",
            s.stable_bytes_delta as f64 / missions,
        );

        out.set(
            "core.system_new_us",
            run.span_median("core.system_new", 1e3),
        );
        out.set(
            "core.step_us_per_quantum",
            run.span_median("core.step_events", 1e3),
        );
        out.set("core.finish_us", run.span_median("core.finish", 1e3));
        out.exact("core.allocs_per_mission", run.allocs_per_op());
        out.exact("core.rollbacks_per_mission", s.rollbacks as f64 / missions);
        out.exact(
            "core.mean_hw_rollback_s",
            s.hw_rollback_s / s.hw_rollbacks.max(1) as f64,
        );
        // A tail only where at least ten samples lie beyond it.
        let op_ms = run.untraced_op_ms();
        if op_ms.len() >= 1000 {
            out.set(
                "core.mission_ms_p99",
                Value::tail(percentile(&op_ms, 99.0), op_ms.len()),
            );
        }
        out.exact("core.rejected_seeds", self.rejected.len() as f64);
        Ok(())
    }

    fn notes(&self) -> Vec<(String, String)> {
        vec![
            (
                "missions_per_block".to_string(),
                self.seeds.len().to_string(),
            ),
            ("first_mission_seed".to_string(), self.seeds[0].to_string()),
            ("rejected_seeds".to_string(), format!("{:?}", self.rejected)),
        ]
    }
}
