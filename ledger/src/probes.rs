//! Isolated calls into single layers, shaped by the calling workload's own
//! sizes. Each probe is a few tens of milliseconds of one public call in a
//! loop, so a traced run can say what a layer costs by itself beside what
//! it cost inside the workload.

use std::hint::black_box;
use std::time::Instant;

use synergy::app::{Application, CounterApp};
use synergy::CheckpointPayload;
use synergy_archive::DeltaPatch;
use synergy_clocks::SyncParams;
use synergy_des::{DetRng, SimDuration, SimTime, Simulator};
use synergy_mdcd::{EngineSnapshot, Event, MdcdConfig, PeerEngine};
use synergy_net::{
    frame_envelope_with_acks, DeviceId, Endpoint, Envelope, FrameDecoder, MessageBody, MsgId,
    MsgSeqNo, PiggyAck, ProcessId,
};
use synergy_storage::{crc32, Checkpoint};
use synergy_tb::{blocking_period, TbVariant};

use crate::report::Value;

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 7;

/// Nanoseconds per call of `f`: one warm-up batch, then the median over
/// [`BATCHES`] batches of `iters` calls.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> Value {
    let mut batch = || {
        let started = Instant::now();
        for _ in 0..iters {
            f();
        }
        started.elapsed().as_nanos() as f64 / f64::from(iters)
    };
    batch();
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    Value::median_of(&samples)
}

/// `bytes` per call at `ns` per call, as a rate in `unit_bytes` per second.
fn rate(ns: Value, bytes: usize, unit_bytes: f64) -> Value {
    let per_s = |ns: f64| bytes as f64 / (ns * 1e-9) / unit_bytes;
    Value {
        value: per_s(ns.value),
        median: per_s(ns.median),
        iqr: (per_s(ns.value - ns.iqr / 2.0) - per_s(ns.value + ns.iqr / 2.0)).abs(),
        samples: ns.samples,
    }
}

/// `Simulator::schedule_at` + `step` on a queue held at 1 000 pending
/// events, per schedule/step pair.
pub fn des_queue_ns_per_op() -> Value {
    let mut sim: Simulator<u32> = Simulator::new(0);
    let actor = sim.register_actor("probe");
    let mut rng = DetRng::new(1).stream("probe");
    let mut horizon = 0u64;
    for i in 0..1000 {
        horizon += rng.gen_range(1..2_000u64);
        sim.schedule_at(SimTime::from_nanos(horizon), actor, i);
    }
    ns_per_call(50_000, || {
        horizon += rng.gen_range(1..2_000u64);
        sim.schedule_at(SimTime::from_nanos(horizon), actor, 0);
        black_box(sim.step());
    })
}

/// `PeerEngine::handle(Event::Deliver)` of one dirty application message.
pub fn mdcd_deliver_ns() -> Value {
    let mut engine = PeerEngine::new(
        MdcdConfig::modified(),
        ProcessId(3),
        ProcessId(1),
        ProcessId(2),
    );
    let mut seq = 0u64;
    ns_per_call(20_000, || {
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
    })
}

/// The adapted-TB blocking-period arithmetic.
pub fn tb_blocking_period_ns() -> Value {
    let sync = SyncParams::new(SimDuration::from_micros(500), 1e-4);
    ns_per_call(200_000, || {
        black_box(blocking_period(
            black_box(TbVariant::Adapted),
            sync,
            SimDuration::from_secs(60),
            SimDuration::from_micros(200),
            SimDuration::from_millis(2),
            black_box(true),
        ));
    })
}

/// `CheckpointPayload::into_checkpoint` / `from_checkpoint` in MB/s, on a
/// payload grown to at least `image_bytes` (at least a 200-message state).
pub fn payload_codec_mb_per_s(image_bytes: usize) -> (Value, Value) {
    let mut app = CounterApp::new(7);
    let payload_of = |app: &CounterApp| {
        CheckpointPayload::new(
            app.snapshot(),
            EngineSnapshot::default(),
            Vec::new(),
            Vec::new(),
            SimTime::from_secs_f64(1.0),
        )
    };
    let size_of = |app: &CounterApp| {
        payload_of(app)
            .into_checkpoint(1, "probe")
            .expect("a well-formed payload encodes")
            .size_bytes()
    };
    let mut messages = 0u64;
    while messages < 200 || size_of(&app) < image_bytes {
        // Grow in steps: the size check encodes the whole state.
        for _ in 0..200 {
            app.on_message(ProcessId(1), MsgSeqNo(messages), &[messages as u8; 16]);
            messages += 1;
        }
    }
    let payload = payload_of(&app);
    let encoded = payload
        .clone()
        .into_checkpoint(1, "probe")
        .expect("a well-formed payload encodes");
    let bytes = encoded.size_bytes();
    let iters = (4_000_000 / bytes.max(1)).clamp(20, 5_000) as u32;
    let encode = ns_per_call(iters, || {
        black_box(
            payload
                .clone()
                .into_checkpoint(1, "probe")
                .expect("encodes"),
        );
    });
    let decode = ns_per_call(iters, || {
        black_box(CheckpointPayload::from_checkpoint(&encoded).expect("decodes"));
    });
    (rate(encode, bytes, 1e6), rate(decode, bytes, 1e6))
}

/// `Checkpoint::encode` / `decode` of a raw byte state, in MB/s.
pub fn raw_codec_mb_per_s(state: &Vec<u8>) -> (Value, Value) {
    let encoded = Checkpoint::encode(1, SimTime::ZERO, "probe", state).expect("bytes encode");
    let encode = ns_per_call(8, || {
        black_box(Checkpoint::encode(1, SimTime::ZERO, "probe", state).expect("bytes encode"));
    });
    let decode = ns_per_call(8, || {
        black_box(encoded.decode::<Vec<u8>>().expect("bytes decode"));
    });
    (
        rate(encode, state.len(), 1e6),
        rate(decode, state.len(), 1e6),
    )
}

/// `crc32` over `bytes` bytes, in GB/s.
pub fn crc32_gb_per_s(bytes: usize) -> Value {
    let data = vec![0xABu8; bytes];
    let iters = (8_000_000 / bytes.max(1)).clamp(8, 2_000) as u32;
    rate(
        ns_per_call(iters, || {
            black_box(crc32(&data));
        }),
        bytes,
        1e9,
    )
}

/// `DeltaPatch::diff` of `new` against `base`, in ms.
pub fn diff_ms(base: &[u8], new: &[u8]) -> Value {
    ns_per_call(8, || {
        black_box(DeltaPatch::diff(base, new));
    })
    .scaled(1e-6)
}

/// An `External` envelope of `payload_bytes` bytes for the wire probes and
/// the wire workload.
pub fn external(from: u32, to: Endpoint, seq: u64, payload: Vec<u8>) -> Envelope {
    Envelope::new(
        MsgId {
            from: ProcessId(from),
            seq: MsgSeqNo(seq),
        },
        to,
        MessageBody::External { payload },
    )
}

/// `frame_envelope_with_acks` with four piggybacked acks, and
/// `FrameDecoder::drain_chunk` over a 64-frame chunk, per frame.
pub fn frame_codec_ns(payload_bytes: usize) -> (Value, Value) {
    let to = Endpoint::Device(DeviceId(0));
    let env = external(1, to, 1, vec![0x5A; payload_bytes]);
    let acks: Vec<PiggyAck> = (0..4)
        .map(|i| PiggyAck {
            to: Endpoint::Process(ProcessId(1)),
            id: MsgId {
                from: ProcessId(2),
                seq: MsgSeqNo(i),
            },
            of: MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(i),
            },
        })
        .collect();
    let encode = ns_per_call(20_000, || {
        black_box(frame_envelope_with_acks(&env, &acks).expect("frame fits"));
    });
    let frame = frame_envelope_with_acks(&env, &acks).expect("frame fits");
    let chunk: Vec<u8> = std::iter::repeat_n(frame, 64).flatten().collect();
    let mut decoder = FrameDecoder::new();
    let per_chunk = ns_per_call(500, || {
        let mut delivered = 0u32;
        decoder
            .drain_chunk(&chunk, |e| {
                black_box(e);
                delivered += 1;
            })
            .expect("well-formed frames decode");
        black_box(delivered);
    });
    (encode, per_chunk.scaled(1.0 / 64.0))
}
