//! Microbenchmarks of the protocol building blocks: engine event handling,
//! blocking-period arithmetic, checkpoint serialization, and the DES core.
//!
//! A plain timing harness (`harness = false`): each benchmark runs a short
//! warm-up, then a measured batch, and prints mean ns/iter plus throughput
//! where meaningful. No statistics beyond the mean — these numbers are for
//! spotting order-of-magnitude regressions, not for publication.

use std::hint::black_box;
use std::time::Instant;

use synergy::app::{Application, CounterApp};
use synergy::payload::CheckpointPayload;
use synergy_clocks::SyncParams;
use synergy_des::{DetRng, SimDuration, SimTime, Simulator};
use synergy_mdcd::{Event, MdcdConfig, PeerEngine};
use synergy_net::{Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId};
use synergy_storage::crc32;
use synergy_tb::{blocking_period, TbVariant};

/// Times `iters` runs of `f` after `warmup` unmeasured runs; returns mean ns.
fn time_ns(warmup: u64, iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn report(name: &str, ns: f64, bytes_per_iter: Option<u64>) {
    match bytes_per_iter {
        Some(b) => {
            let gib_s = b as f64 / ns; // bytes/ns == GB/s
            println!("{name:<40} {ns:>12.1} ns/iter  {gib_s:>8.2} GB/s");
        }
        None => println!("{name:<40} {ns:>12.1} ns/iter"),
    }
}

fn bench_engine_handling() {
    let mut engine = PeerEngine::new(
        MdcdConfig::modified(),
        ProcessId(3),
        ProcessId(1),
        ProcessId(2),
    );
    let mut seq = 0u64;
    let ns = time_ns(1_000, 50_000, || {
        seq += 1;
        let env = Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(seq),
            },
            ProcessId(3),
            MessageBody::Application {
                payload: vec![1, 2, 3, 4],
                dirty: true,
            },
        );
        black_box(engine.handle(Event::Deliver(env)));
    });
    report("mdcd_engine/peer_deliver_app_message", ns, None);
}

fn bench_blocking_period() {
    let sync = SyncParams::new(SimDuration::from_micros(500), 1e-4);
    let ns = time_ns(10_000, 1_000_000, || {
        black_box(blocking_period(
            black_box(TbVariant::Adapted),
            sync,
            SimDuration::from_secs(60),
            SimDuration::from_micros(200),
            SimDuration::from_millis(2),
            black_box(true),
        ));
    });
    report("tb_blocking_period", ns, None);
}

fn bench_checkpoint_codec() {
    let mut app = CounterApp::new(7);
    for i in 0..200 {
        app.on_message(ProcessId(1), MsgSeqNo(i), &[i as u8; 16]);
    }
    let payload = CheckpointPayload::new(
        app.snapshot(),
        synergy_mdcd::EngineSnapshot::default(),
        Vec::new(),
        Vec::new(),
        SimTime::from_secs_f64(1.0),
    );
    let encoded = payload
        .clone()
        .into_checkpoint(1, "bench")
        .expect("encodes");
    let bytes = encoded.size_bytes() as u64;
    let ns = time_ns(100, 5_000, || {
        black_box(
            payload
                .clone()
                .into_checkpoint(1, "bench")
                .expect("encodes"),
        );
    });
    report("checkpoint_codec/encode", ns, Some(bytes));
    let ns = time_ns(100, 5_000, || {
        black_box(CheckpointPayload::from_checkpoint(&encoded).expect("decodes"));
    });
    report("checkpoint_codec/decode", ns, Some(bytes));
}

fn bench_crc32() {
    // 512 B stays on the single-lane loop (the crossover must cost it
    // nothing); 1 KiB is the smallest input that takes the four lanes;
    // 256 KiB is the ledger's checkpoint image.
    for (name, len, iters) in [
        ("crc32/512B", 512, 200_000),
        ("crc32/1KiB", 1024, 200_000),
        ("crc32/64KiB", 64 * 1024, 2_000),
        ("crc32/256KiB", 256 * 1024, 1_000),
    ] {
        let data = vec![0xABu8; len];
        let ns = time_ns(50, iters, || {
            black_box(crc32(black_box(&data)));
        });
        report(name, ns, Some(len as u64));
    }
}

fn bench_des_scheduling() {
    let ns = time_ns(20, 500, || {
        let mut sim: Simulator<u32> = Simulator::new(0);
        let a = sim.register_actor("a");
        let mut rng = DetRng::new(1).stream("bench");
        for i in 0..1000 {
            let at: u64 = rng.gen_range(0..1_000_000);
            sim.schedule_at(SimTime::from_nanos(at), a, i);
        }
        let mut n = 0;
        while sim.step().is_some() {
            n += 1;
        }
        black_box(n);
    });
    report("des/schedule_and_drain_1000", ns / 1000.0, None);
}

fn main() {
    bench_engine_handling();
    bench_blocking_period();
    bench_checkpoint_codec();
    bench_crc32();
    bench_des_scheduling();
}
