//! Guards for the allocation-lean hot path.
//!
//! Two properties keep the perf work honest:
//!
//! 1. Tracing is observability only: the same seed must produce identical
//!    metrics and verdicts with tracing on and off. Lazy trace closures and
//!    host-side `Record` gating must never leak into simulation state.
//! 2. A short traced-off mission stays within a pinned allocation budget.
//!    The counter is thread-local, so concurrently running tests in this
//!    binary do not perturb the measurement.
//! 3. Checkpoint images cross the codec in bulk and the chain reload not
//!    at all: a byte vector decodes in one allocation, shared bytes read
//!    from a shared buffer in none, and a chain reload allocates a small
//!    constant per record, whatever the image size — a copy of an image on
//!    either path fails here without a timer.
//! 4. The CRC kernel works in registers: neither the single-lane loop nor
//!    the four lanes and their joins allocate.
//! 5. The live wire's send path reuses its buffers: a warm route's
//!    `try_send` allocates nothing per frame, and a standalone frame is
//!    encoded in one allocation.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::time::Duration;

use synergy::{Mission, MissionOutcome, Scheme, SystemConfig};
use synergy_archive::DeltaStable;
use synergy_des::SimTime;
use synergy_net::{
    frame_envelope_with_acks, CkptSeqNo, DeviceId, Endpoint, Envelope, MessageBody, MsgId,
    MsgSeqNo, PiggyAck, ProcessId, ReactorTransport, MAX_PIGGY_ACKS,
};
use synergy_storage::{crc32, Checkpoint, Stable, StableStore};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting allocation events on the current
/// thread. `try_with` keeps it safe during TLS teardown.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

fn mission(seed: u64, trace: bool) -> MissionOutcome {
    Mission::new(
        SystemConfig::builder()
            .scheme(Scheme::Coordinated)
            .seed(seed)
            .duration_secs(30.0)
            .internal_rate_per_min(60.0)
            .external_rate_per_min(2.0)
            .tb_interval_secs(5.0)
            .hardware_fault_at_secs(20.0)
            .trace(trace)
            .build(),
    )
    .run()
}

#[test]
fn tracing_toggle_does_not_change_results() {
    for seed in [1u64, 7, 42, 1001] {
        let traced = mission(seed, true);
        let silent = mission(seed, false);
        assert!(
            !traced.trace.events().is_empty(),
            "traced run recorded nothing (seed {seed})"
        );
        assert!(
            silent.trace.events().is_empty(),
            "disabled trace still recorded events (seed {seed})"
        );
        assert_eq!(
            traced.metrics, silent.metrics,
            "metrics diverged with tracing toggled (seed {seed})"
        );
        assert_eq!(
            traced.verdicts, silent.verdicts,
            "verdicts diverged with tracing toggled (seed {seed})"
        );
        assert_eq!(traced.device_messages, silent.device_messages);
        assert_eq!(traced.shadow_promoted, silent.shadow_promoted);
    }
}

#[test]
fn untraced_mission_stays_within_allocation_budget() {
    // Warm-up: global one-time allocations (lazy statics, first-use buffers)
    // must not count against the budget.
    let _ = mission(3, false);

    let before = allocs_on_this_thread();
    let outcome = mission(3, false);
    let allocs = allocs_on_this_thread() - before;

    assert!(outcome.verdicts.all_hold(), "{:?}", outcome.verdicts);
    eprintln!("untraced 30s mission: {allocs} allocation events");
    // Measured 632 allocation events for this 30 s mission (635 before the
    // finished mission moved the device payloads out of its log instead of
    // copying them, 726 before the sender's ack tracker, the delivery event
    // and the receiver's log shared one envelope, 756 before stable records
    // were serialized only when read, 801 before volatile checkpoints
    // stopped being serialized, 1 452 before the event path stopped
    // building lists): what is left is
    // what a mission produces — per protocol message its payload and the
    // one shared envelope, and the receiving engine's own copy; per
    // checkpoint its application image and shared lists, per stable one the
    // cell that holds its payload until a read encodes it, and per record a
    // recovery reads its encoded bytes — plus one image decode per state
    // the checker restores. The budget is that count + 25 %. Each of these
    // brings back a few hundred and fails here: a `Vec` of actions returned
    // per event by an engine or the host instead of written into the
    // driver's buffer, the tracked envelope deep-copied instead of shared,
    // the shadow's suppressed log deep-copied into every snapshot instead
    // of shared, or eager trace formatting.
    const BUDGET: u64 = 790;
    assert!(
        allocs < BUDGET,
        "untraced mission allocated {allocs} times (budget {BUDGET}); \
         the hot path has regressed"
    );
}

#[test]
fn byte_vector_decodes_in_one_allocation() {
    let bytes = synergy_codec::to_bytes(&vec![0xA5u8; 1 << 20]).unwrap();
    let before = allocs_on_this_thread();
    let back: Vec<u8> = synergy_codec::from_bytes(&bytes).unwrap();
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(back.len(), 1 << 20);
    assert_eq!(
        allocs, 1,
        "a 1 MiB byte vector must decode as one bulk copy"
    );
}

#[test]
fn shared_bytes_decode_allocates_nothing() {
    use synergy_codec::SharedBytes;
    let value = (7u64, SharedBytes::from(vec![0xA5u8; 1 << 20]), 9u32);
    let source = SharedBytes::from(synergy_codec::to_bytes(&value).unwrap());
    let before = allocs_on_this_thread();
    let back: (u64, SharedBytes, u32) = synergy_codec::from_shared(&source).unwrap();
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(back, value);
    assert_eq!(
        allocs, 0,
        "shared bytes read from a shared buffer must be a window of it"
    );
}

#[test]
fn crc32_allocates_nothing() {
    // Below the lanes' crossover, just past it with a tail, and the
    // benchmark's 256 KiB image and its wrapped record.
    let data = vec![0x5Au8; 256 * 1024 + 24];
    let before = allocs_on_this_thread();
    for len in [0, 9, 1000, 1024 + 31, 256 * 1024, data.len()] {
        std::hint::black_box(crc32(&data[..len]));
    }
    assert_eq!(allocs_on_this_thread() - before, 0);
}

const CHAIN_RECORDS: u64 = 32;

/// Commits [`CHAIN_RECORDS`] rounds of a 64 KiB state at cadence `k`, then counts the
/// allocation events of a cold chain reload.
fn chain_reload_allocs(k: u32) -> u64 {
    let retain = CHAIN_RECORDS as usize + 1;
    let mut store =
        DeltaStable::open_with_retention(StableStore::with_retention(retain), k, retain);
    let mut state = vec![0u8; 64 * 1024];
    for round in 1..=CHAIN_RECORDS {
        state[round as usize * 1000] = round as u8;
        let ckpt = Checkpoint::encode(round, SimTime::from_nanos(round), "guard", &state).unwrap();
        store.begin_write(ckpt).unwrap();
        store.commit_write().unwrap();
    }
    let latest = store.latest_shared();
    let inner = store.into_inner();

    let before = allocs_on_this_thread();
    let reloaded = DeltaStable::open_with_retention(inner, k, retain);
    let allocs = allocs_on_this_thread() - before;

    assert_eq!(reloaded.delta_stats().chain_orphans, 0);
    assert_eq!(reloaded.latest_shared(), latest);
    eprintln!("chain reload of {CHAIN_RECORDS} records at k={k}: {allocs} allocation events");
    allocs
}

#[test]
fn chain_reload_allocates_a_constant_per_record() {
    // Measured 69: 2 per record (the history handle's label and the rebuilt
    // checkpoint's — the image is a window of its wrapper, no buffer of its
    // own) plus 5 for the two vectors of checkpoints.
    const BUDGET: u64 = 2 * CHAIN_RECORDS + 8;
    let allocs = chain_reload_allocs(1);
    assert!(
        allocs <= BUDGET,
        "chain reload allocated {allocs} times for {CHAIN_RECORDS} records (budget {BUDGET}); \
         an image is being copied or re-encoded once more than needed"
    );

    // At k = 16 the same rounds are 2 full records and 30 deltas. Measured
    // 159: 5 per replayed delta (the history handle's label, the decoded
    // region list, its one region's bytes, the rebuilt image in its shared
    // buffer, the rebuilt checkpoint's label). Rebuilding into a vector and
    // copying that into the shared buffer is a sixth.
    const DELTAS: u64 = CHAIN_RECORDS - 2;
    const DELTA_BUDGET: u64 = 5 * DELTAS + 4 * 2 + 8;
    let allocs = chain_reload_allocs(16);
    assert!(
        allocs <= DELTA_BUDGET,
        "chain reload allocated {allocs} times for {DELTAS} deltas (budget {DELTA_BUDGET}); \
         a replayed delta is building its image more than once"
    );
}

fn msg_id(seq: u64) -> MsgId {
    MsgId {
        from: ProcessId(1),
        seq: MsgSeqNo(seq),
    }
}

#[test]
fn reactor_try_send_does_not_allocate_per_frame() {
    let (a, b) = (
        ReactorTransport::bind("127.0.0.1:0").unwrap(),
        ReactorTransport::bind("127.0.0.1:0").unwrap(),
    );
    let device = Endpoint::Device(DeviceId(0));
    let rx = b.register(device);
    a.set_route(device, b.local_addr());
    let envelopes: Vec<Envelope> = (0..2_000)
        .map(|seq| {
            Envelope::new(
                msg_id(seq),
                device,
                MessageBody::External {
                    payload: vec![0x5A; 32],
                },
            )
        })
        .collect();

    let before = allocs_on_this_thread();
    for env in &envelopes {
        a.try_send(env)
            .expect("2 000 frames of 76 bytes fit the default ring");
    }
    let allocs = allocs_on_this_thread() - before;

    for seq in 0..2_000 {
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(got.id.seq.0, seq);
    }
    eprintln!("2 000 try_sends on one route: {allocs} allocation events");
    // Measured 6, all on the first frame: the route's encode scratch grows
    // 8 → 128 bytes for the 72-byte envelope (five steps) and the ring is
    // reserved once. A fresh buffer per frame pays those five steps on
    // every send: 10 010 for these sends.
    const BUDGET: u64 = 16;
    assert!(
        allocs <= BUDGET,
        "2 000 try_sends allocated {allocs} times (budget {BUDGET}); \
         the send path allocates per frame again"
    );
    a.shutdown();
    b.shutdown();
}

#[test]
fn a_frame_encodes_in_one_allocation() {
    let acks: Vec<PiggyAck> = (0..MAX_PIGGY_ACKS as u64)
        .map(|seq| PiggyAck {
            to: Endpoint::Process(ProcessId(1)),
            id: MsgId {
                from: ProcessId(2),
                seq: MsgSeqNo(seq),
            },
            of: msg_id(seq),
        })
        .collect();
    let bodies = [
        MessageBody::Application {
            payload: vec![1; 100],
            dirty: true,
        },
        MessageBody::External {
            payload: vec![2; 4096],
        },
        MessageBody::PassedAt {
            msg_sn: MsgSeqNo(u64::MAX),
            ndc: CkptSeqNo(u64::MAX),
        },
        MessageBody::Ack { of: msg_id(7) },
    ];
    for body in bodies {
        let env = Envelope::new(msg_id(u64::MAX), Endpoint::Device(DeviceId(0)), body);
        for count in [0, 4, MAX_PIGGY_ACKS] {
            let before = allocs_on_this_thread();
            let frame = frame_envelope_with_acks(&env, &acks[..count]).unwrap();
            let allocs = allocs_on_this_thread() - before;
            assert_eq!(
                allocs,
                1,
                "{:?} with {count} acks: {} bytes",
                env.body,
                frame.len()
            );
        }
    }
}
