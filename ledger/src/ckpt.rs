//! `ckpt_k1` and `ckpt_k16`: the delta chain used two ways over the same
//! 256 KiB state with one 4 KiB dirty page per round.
//!
//! At k = 1 the chain is a full-image store: every round carries the whole
//! state, and the cold reload walks 32 full records (the anomaly on file:
//! slower than the raw store's reload). At k = 16 it is write-optimised:
//! two full images and thirty deltas, and a reload that replays deltas. A
//! reload fix for k = 1 that slows delta commit or replay shows on k = 16.
//!
//! One operation is one committed round; a block commits 32 rounds and then
//! reopens a disk store holding the same 32 rounds cold, whose latest image
//! must equal the last one committed — so `ops_per_s` pays for recovery as
//! well as for the commits.
//!
//! **What is timed is the program's share.** The disk store lives inside
//! the checkout, on a device shared with other machines, and a durable
//! commit waits for two `fsync`s whose latency is the device's: a bare
//! 4 KiB write + `fsync` ranged 0.3–1.6 ms at the median within one minute,
//! a commit 3–17 ms between runs, and the thread's CPU time follows (an
//! `fsync` costs ~0.5 ms of kernel CPU on this virtio disk). So the timed
//! commits go through the chain layer over the in-memory `StableStore`
//! (diff, encode, CRC, chain link — everything but the file), the disk
//! directory is written once per run, untimed, and the timed reload reads
//! it back through the page cache (open, frame and checkpoint CRCs, chain
//! walk, replay). The wall-clock cost of the durable commits is reported
//! beside it, unbounded, as the `storage.*` layer metrics.

use std::path::PathBuf;
use std::time::Instant;

use synergy_archive::{DeltaStable, DeltaStats, StableHistory};
use synergy_des::{DetRng, SimTime};
use synergy_storage::{Checkpoint, DiskStableStore, Stable, StableStore};

use crate::report::{Layers, Value};
use crate::stats::{percentile, Laps};
use crate::trace::Tracer;
use crate::{probes, Block, Env, Run, Workload};

const ROUNDS: u64 = 32;
const STATE_BYTES: usize = 256 * 1024;
const DIRTY_BYTES: usize = 4096;
const RETAIN: usize = ROUNDS as usize + 1;

/// Rewrites one page of `state` for `round`; the offset strides so that
/// successive rounds never touch the same page.
fn mutate(state: &mut [u8], round: u64) {
    let pages = (state.len() / DIRTY_BYTES) as u64;
    let offset = ((round * 37) % pages) as usize * DIRTY_BYTES;
    for (i, b) in state[offset..offset + DIRTY_BYTES].iter_mut().enumerate() {
        *b = (round as u8).wrapping_add(i as u8);
    }
}

fn checkpoint(round: u64, state: &Vec<u8>) -> Result<Checkpoint, String> {
    Checkpoint::encode(round, SimTime::from_nanos(round), "ledger", state)
        .map_err(|e| format!("encode round {round}: {e}"))
}

/// What committing every round through a store gave.
struct Committed {
    /// The last round's checkpoint.
    last: Option<Checkpoint>,
    /// Wall time of each round, encode to commit.
    round_ms: Vec<f64>,
    /// One line per round that failed.
    failures: Vec<String>,
}

/// Commits every round through `store`, a lap a round.
fn commit_rounds(
    store: &mut dyn Stable,
    initial: &[u8],
    tr: &mut Tracer,
    laps: &mut Laps,
) -> Result<Committed, String> {
    let mut state = initial.to_vec();
    let mut out = Committed {
        last: None,
        round_ms: Vec::with_capacity(ROUNDS as usize),
        failures: Vec::new(),
    };
    for round in 1..=ROUNDS {
        mutate(&mut state, round);
        let started = Instant::now();
        let ckpt = tr.span("storage.encode", round, |_| checkpoint(round, &state))?;
        out.last = Some(ckpt.clone());
        let written = tr
            .span("storage.begin_write", round, |_| store.begin_write(ckpt))
            .and_then(|()| tr.span("storage.commit_write", round, |_| store.commit_write()));
        out.round_ms.push(started.elapsed().as_secs_f64() * 1e3);
        laps.lap();
        if let Err(e) = written {
            out.failures.push(format!("round {round}: {e}"));
        }
    }
    Ok(out)
}

/// Both checkpoint workloads.
pub struct Ckpt {
    k: u32,
    dir: PathBuf,
    /// The seeded state every block starts from.
    initial: Vec<u8>,
    /// Whether `dir` holds this run's 32 committed rounds yet.
    dir_written: bool,
    /// Chain counters after the last block's commits.
    chain: DeltaStats,
    /// Chain counters after the last block's cold reopen.
    reopened: DeltaStats,
    reload_ms: Vec<f64>,
}

impl Ckpt {
    fn open_disk(&self) -> Result<DiskStableStore, String> {
        DiskStableStore::open_with_retention(&self.dir, RETAIN)
            .map_err(|e| format!("open {}: {e}", self.dir.display()))
    }

    fn clear_dir(&self) -> Result<(), String> {
        match std::fs::remove_dir_all(&self.dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(format!("clear {}: {e}", self.dir.display())),
        }
    }

    /// Commits the rounds durably into an empty `dir` through `make_store`
    /// (the chain, or the raw disk store).
    fn write_dir<S: Stable>(
        &self,
        make_store: impl FnOnce(DiskStableStore) -> S,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        self.clear_dir()?;
        let mut store = make_store(self.open_disk()?);
        let committed = commit_rounds(&mut store, &self.initial, tr, &mut Laps::start())?;
        match committed.failures.first() {
            Some(failure) => Err(format!("durable commit: {failure}")),
            None => Ok(()),
        }
    }

    fn chain_over<S: StableHistory>(&self, inner: S) -> DeltaStable<S> {
        DeltaStable::open_with_retention(inner, self.k, RETAIN)
    }
}

impl Workload for Ckpt {
    const MIN_BLOCKS: usize = 10;

    fn setup(env: &Env, laps: &mut Laps) -> Result<Ckpt, String> {
        let mut initial = vec![0u8; STATE_BYTES];
        DetRng::new(env.seed)
            .stream("ckpt-state")
            .fill_bytes(&mut initial);
        let ckpt = Ckpt {
            k: if env.workload == "ckpt_k1" { 1 } else { 16 },
            dir: env.data_dir.join("store"),
            initial,
            // A run sets up several times; the rounds an earlier set-up's
            // blocks wrote are this seed's and k's, and stay.
            dir_written: env.data_dir.join("store").exists(),
            chain: DeltaStats::default(),
            reopened: DeltaStats::default(),
            reload_ms: Vec::new(),
        };
        // Warm-up: a block's commits (no disk, so `setup_s` is the
        // program's and not the device's).
        let mut store = ckpt.chain_over(StableStore::with_retention(RETAIN));
        let committed = commit_rounds(&mut store, &ckpt.initial, &mut Tracer::new(), laps)?;
        if let Some(failure) = committed.failures.first() {
            return Err(format!("warm-up: {failure}"));
        }
        if store.latest_shared() != committed.last {
            return Err("warm-up: latest image differs from the last commit".to_string());
        }
        Ok(ckpt)
    }

    fn block(&mut self, tr: &mut Tracer) -> Result<Block, String> {
        if !self.dir_written {
            self.write_dir(|disk| self.chain_over(disk), &mut Tracer::new())?;
            self.dir_written = true;
        }
        let mut block = Block::default();
        let started = Instant::now();
        let mut laps = Laps::start();

        let mut store = self.chain_over(StableStore::with_retention(RETAIN));
        let committed = commit_rounds(&mut store, &self.initial, tr, &mut laps)?;
        self.chain = store.delta_stats();
        drop(store);

        // Cold reload: reopen the directory, walk the chain, rebuild the
        // latest image.
        let reloading = Instant::now();
        let disk = tr.span("storage.reopen", ROUNDS + 1, |_| self.open_disk())?;
        laps.lap();
        let store = tr.span("archive.walk", ROUNDS + 1, |_| self.chain_over(disk));
        laps.lap();
        let recovered = tr.span("archive.latest", ROUNDS + 1, |_| store.latest_shared());
        laps.lap();
        self.reload_ms.push(reloading.elapsed().as_secs_f64() * 1e3);
        block.wall_s = started.elapsed().as_secs_f64();
        block.piece_ms = laps.ms;
        block.op_pieces = vec![1; ROUNDS as usize];

        self.reopened = store.delta_stats();
        block.failures = committed.failures;
        if recovered != committed.last {
            block
                .failures
                .push("reload: latest image differs from the last commit".to_string());
        }
        if self.reopened.chain_orphans != 0 {
            block.failures.push(format!(
                "reload: {} chain records orphaned",
                self.reopened.chain_orphans
            ));
        }
        block.ops = ROUNDS;
        block.op_ms = committed.round_ms;
        block.guard = vec![
            ("archive.encoded_bytes", self.chain.encoded_bytes),
            ("archive.full_records", self.chain.full_records),
            ("ops_failed", block.failures.len() as u64),
        ];
        Ok(block)
    }

    fn layers(&mut self, run: &Run<'_>, out: &mut Layers) -> Result<(), String> {
        let (encode, decode) = probes::raw_codec_mb_per_s(&self.initial);
        out.set("codec.encode_mb_per_s", encode);
        out.set("codec.decode_mb_per_s", decode);
        out.set(
            "storage.crc32_gb_per_s",
            probes::crc32_gb_per_s(STATE_BYTES),
        );
        out.set("storage.open_ms", run.span_median("storage.reopen", 1e6));
        out.exact(
            "storage.bytes_per_commit",
            self.chain.encoded_bytes as f64 / ROUNDS as f64,
        );

        let mut dirtied = self.initial.clone();
        mutate(&mut dirtied, 1);
        out.set("archive.diff_ms", probes::diff_ms(&self.initial, &dirtied));
        out.set("archive.walk_ms", run.span_median("archive.walk", 1e6));
        out.set("archive.reload_ms", Value::median_of(&self.reload_ms));
        out.exact("archive.full_records", self.chain.full_records as f64);
        out.exact("archive.delta_records", self.chain.delta_records as f64);
        out.exact("archive.chain_orphans", self.reopened.chain_orphans as f64);
        out.exact("archive.encoded_bytes", self.chain.encoded_bytes as f64);

        // The durable commits, on the wall clock: the same rounds through
        // the chain onto the disk, spans around the two phases of each.
        let mut durable = Tracer::new();
        durable.set_on(true);
        self.write_dir(|disk| self.chain_over(disk), &mut durable)?;
        let ms = |name: &str| -> Vec<f64> {
            durable
                .durations_ns(name)
                .iter()
                .map(|ns| ns / 1e6)
                .collect()
        };
        let (begin, commit) = (ms("storage.begin_write"), ms("storage.commit_write"));
        out.set("storage.begin_ms_p50", Value::median_of(&begin));
        out.set("storage.commit_ms_p50", Value::median_of(&commit));
        // 32 rounds: p69 is the highest percentile with ten samples beyond
        // it, so the tail reported is the upper quartile.
        let rounds: Vec<f64> = begin.iter().zip(&commit).map(|(b, c)| b + c).collect();
        out.set(
            "storage.commit_ms_p75",
            Value::tail(percentile(&rounds, 75.0), rounds.len()),
        );

        // The raw disk store over the same rounds: what the reload costs
        // with no chain above it.
        self.write_dir(|disk| disk, &mut Tracer::new())?;
        let reloading = Instant::now();
        let latest = self.open_disk()?.latest_shared();
        out.exact(
            "storage.reload_ms_full",
            reloading.elapsed().as_secs_f64() * 1e3,
        );
        if latest.map(|c| c.seq()) != Some(ROUNDS) {
            return Err("raw store reload lost the last round".to_string());
        }
        // What the directory holds now is not the chain's.
        self.clear_dir()?;
        self.dir_written = false;
        Ok(())
    }

    fn notes(&self) -> Vec<(String, String)> {
        vec![
            ("k".to_string(), self.k.to_string()),
            ("rounds_per_block".to_string(), ROUNDS.to_string()),
            ("state_bytes".to_string(), STATE_BYTES.to_string()),
            ("dirty_bytes_per_round".to_string(), DIRTY_BYTES.to_string()),
        ]
    }
}
