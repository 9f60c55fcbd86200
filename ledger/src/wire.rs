//! `wire_stream`: `net` alone — framing, coalescing, syscalls; no engine,
//! no disk.
//!
//! One sender thread streams 32-byte `External` envelopes through two
//! loopback `ReactorTransport`s; an echo thread acknowledges every one back
//! on the reverse route, so both the data path and the ack path (piggyback
//! and carrier frames) are loaded. The loop is closed at burst granularity:
//! the sender emits a burst of 10 000 envelopes with the blocking `send`,
//! then waits for the burst's acks. One operation is one envelope delivered
//! in order and acknowledged once; `op_ms_p50` is the time of one burst.

use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use synergy_des::DetRng;
use synergy_net::{
    DeviceId, Endpoint, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId, ReactorTransport,
    Transport, WirePolicy, WireStats,
};

use crate::report::Layers;
use crate::stats::Laps;
use crate::trace::Tracer;
use crate::{probes, Block, Env, Run, Workload};

const FRAMES: u64 = 200_000;
const BURST: u64 = 10_000;
const PAYLOAD_BYTES: usize = 32;
/// Frames and payload size of the bulk stream behind `net.mbytes_per_s_4k`.
const BULK_FRAMES: u64 = 20_000;
const BULK_PAYLOAD_BYTES: usize = 4096;

/// How long either side waits for the next frame before the stream counts
/// as broken (a lost frame must fail the run, not hang it).
const STALL: Duration = Duration::from_secs(10);

const SENDER: u32 = 99;
const ECHO: u32 = 100;

/// What one stream measured.
struct Stream {
    wall_s: f64,
    burst_ms: Vec<f64>,
    /// The stream's wall time, a piece a burst.
    piece_ms: Vec<f64>,
    failures: Vec<String>,
    /// Sender-side then echo-side counter growth over the stream.
    sent: WireStats,
    echoed: WireStats,
}

/// Growth of the counters the workload reads, `before` to `after`.
fn growth(after: WireStats, before: WireStats) -> WireStats {
    WireStats {
        frames_enqueued: after.frames_enqueued - before.frames_enqueued,
        frames_sent: after.frames_sent - before.frames_sent,
        coalesced_writes: after.coalesced_writes - before.coalesced_writes,
        acks_piggybacked: after.acks_piggybacked - before.acks_piggybacked,
        acks_standalone: after.acks_standalone - before.acks_standalone,
        backpressure_errors: after.backpressure_errors - before.backpressure_errors,
        backpressure_dropped: after.backpressure_dropped - before.backpressure_dropped,
        dropped_dead: after.dropped_dead - before.dropped_dead,
        ..WireStats::default()
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Keeps this thread, and every thread started after it, on the CPU it is
/// running on. The stream is four runnable threads (sender, echo, one event
/// loop per transport); spread over two vCPUs of a shared host their
/// placement decided the throughput (445-875 k envelopes/s between blocks of
/// one run), and one CPU carries the same median throughput, steadily.
fn share_one_cpu() -> Result<(), String> {
    // SAFETY: `sched_getcpu` takes no arguments; `sched_setaffinity` reads
    // `size_of::<[u64; 16]>()` bytes from a live array of that size.
    let pinned = unsafe {
        let cpu = sched_getcpu();
        let mut mask = [0u64; 16];
        match usize::try_from(cpu) {
            Ok(cpu) if cpu < 1024 => {
                mask[cpu / 64] = 1 << (cpu % 64);
                sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
            }
            _ => false,
        }
    };
    if pinned {
        Ok(())
    } else {
        Err(format!(
            "pin to one CPU: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The `wire_stream` workload.
pub struct Wire {
    sender: ReactorTransport,
    echo: ReactorTransport,
    acks: Receiver<Envelope>,
    data: Receiver<Envelope>,
    payload: Vec<u8>,
    next_seq: u64,
    last: Option<Stream>,
}

impl Wire {
    /// Streams `frames` envelopes of `payload` in bursts of `burst`, every
    /// one acknowledged, checking order on both sides.
    fn stream(&mut self, tr: &mut Tracer, payload: &[u8], frames: u64, burst: u64) -> Stream {
        let me = Endpoint::Process(ProcessId(SENDER));
        let device = Endpoint::Device(DeviceId(0));
        let first = self.next_seq;
        self.next_seq += frames;
        let (sender, echo, acks, data) = (&self.sender, &self.echo, &self.acks, &mut self.data);
        let (sent_before, echoed_before) = (sender.stats(), echo.stats());
        let mut failures = Vec::new();
        let mut burst_ms = Vec::with_capacity((frames / burst) as usize);

        let started = Instant::now();
        let mut laps = Laps::start();
        let echo_result = std::thread::scope(|scope| {
            let echoing = scope.spawn(move || -> Result<(), String> {
                for i in 0..frames {
                    let env = data
                        .recv_timeout(STALL)
                        .map_err(|_| format!("echo side: frame {i} never arrived"))?;
                    if env.id.seq != MsgSeqNo(first + i) {
                        return Err(format!(
                            "echo side: frame {i} carries seq {}, expected {}",
                            env.id.seq.0,
                            first + i
                        ));
                    }
                    echo.send(Envelope::new(
                        MsgId {
                            from: ProcessId(ECHO),
                            seq: MsgSeqNo(first + i),
                        },
                        me,
                        MessageBody::Ack { of: env.id },
                    ));
                }
                Ok(())
            });
            let mut next = first;
            'bursts: while next < first + frames {
                let bursting = Instant::now();
                tr.span("net.send_burst", next, |_| {
                    for seq in next..next + burst {
                        sender.send(probes::external(SENDER, device, seq, payload.to_vec()));
                    }
                });
                // Acks may overtake one another (piggybacked ones ride data
                // frames, the rest travel as carrier frames), so the burst's
                // acks are checked as a set: each envelope acked once.
                let drained = tr.span("net.drain_acks", next, |_| {
                    let mut acked = vec![false; burst as usize];
                    for _ in 0..burst {
                        let env = acks
                            .recv_timeout(STALL)
                            .map_err(|_| format!("burst at {next}: an ack never arrived"))?;
                        let slot = match env.body {
                            MessageBody::Ack { of } => of.seq.0.checked_sub(next),
                            _ => None,
                        };
                        match slot.and_then(|i| acked.get_mut(i as usize)) {
                            Some(seen) if !*seen => *seen = true,
                            _ => return Err(format!("burst at {next}: stray {:?}", env.body)),
                        }
                    }
                    Ok(())
                });
                if let Err(e) = drained {
                    failures.push(e);
                    break 'bursts;
                }
                burst_ms.push(bursting.elapsed().as_secs_f64() * 1e3);
                laps.lap();
                next += burst;
            }
            echoing.join().expect("echo thread does not panic")
        });
        let wall_s = started.elapsed().as_secs_f64();
        if let Err(e) = echo_result {
            failures.push(e);
        }
        let sent = growth(sender.stats(), sent_before);
        let echoed = growth(echo.stats(), echoed_before);
        for (side, s) in [("sender", sent), ("echo", echoed)] {
            if s.backpressure_dropped + s.dropped_dead != 0 {
                failures.push(format!(
                    "{side}: {} envelopes dropped on backpressure, {} on a dead route",
                    s.backpressure_dropped, s.dropped_dead
                ));
            }
        }
        Stream {
            wall_s,
            burst_ms,
            piece_ms: laps.ms,
            failures,
            sent,
            echoed,
        }
    }
}

impl Workload for Wire {
    fn setup(env: &Env, laps: &mut Laps) -> Result<Wire, String> {
        share_one_cpu()?;
        // Senders block on a full ring instead of shedding frames. One
        // event loop per transport: sockets shard by peer port, the ports are
        // the OS's choice, and with two shards the draw decided whether the
        // data and ack directions shared a thread (423k-820k envelopes/s
        // between runs of the same code).
        let policy = WirePolicy {
            send_stall: Duration::from_secs(60),
            shards: 1,
            ..WirePolicy::default()
        };
        let bind = || {
            ReactorTransport::bind_with("127.0.0.1:0", policy)
                .map_err(|e| format!("bind loopback: {e}"))
        };
        let (sender, echo) = (bind()?, bind()?);
        let me = Endpoint::Process(ProcessId(SENDER));
        let device = Endpoint::Device(DeviceId(0));
        let acks = sender.register(me);
        let data = echo.register(device);
        sender.set_route(device, echo.local_addr());
        echo.set_route(me, sender.local_addr());
        let mut payload = vec![0u8; PAYLOAD_BYTES];
        DetRng::new(env.seed)
            .stream("wire-payload")
            .fill_bytes(&mut payload);
        let mut wire = Wire {
            sender,
            echo,
            acks,
            data,
            payload,
            next_seq: 0,
            last: None,
        };
        laps.lap();
        let warm_up = wire.block(&mut Tracer::new())?;
        if let Some(failure) = warm_up.failures.first() {
            return Err(format!("warm-up block: {failure}"));
        }
        laps.ms.extend_from_slice(&warm_up.piece_ms);
        Ok(wire)
    }

    fn block(&mut self, tr: &mut Tracer) -> Result<Block, String> {
        let payload = self.payload.clone();
        let mut stream = self.stream(tr, &payload, FRAMES, BURST);
        // A broken stream leaves frames in flight that would be read as the
        // next block's; nothing after it can be trusted.
        if let Some(failure) = stream.failures.first() {
            return Err(format!("stream broken: {failure}"));
        }
        let block = Block {
            wall_s: stream.wall_s,
            ops: FRAMES,
            failures: std::mem::take(&mut stream.failures),
            op_ms: stream.burst_ms.clone(),
            piece_ms: stream.piece_ms.clone(),
            op_pieces: vec![1; stream.burst_ms.len()],
            guard: vec![("net.frames_enqueued", stream.sent.frames_enqueued)],
            ..Block::default()
        };
        self.last = Some(stream);
        Ok(block)
    }

    fn layers(&mut self, _run: &Run<'_>, out: &mut Layers) -> Result<(), String> {
        let (encode, decode) = probes::frame_codec_ns(PAYLOAD_BYTES);
        out.set("net.frame_encode_ns", encode);
        out.set("net.frame_decode_ns", decode);
        let last = self
            .last
            .as_ref()
            .expect("layers follow at least one block");
        let (sent, echoed) = (last.sent, last.echoed);
        out.exact(
            "net.frames_per_write",
            sent.frames_sent as f64 / sent.coalesced_writes.max(1) as f64,
        );
        let acks = echoed.acks_piggybacked + echoed.acks_standalone;
        out.exact(
            "net.acks_piggybacked_share",
            echoed.acks_piggybacked as f64 / acks.max(1) as f64,
        );
        out.exact(
            "net.backpressure_errors",
            (sent.backpressure_errors + echoed.backpressure_errors) as f64,
        );

        let bulk_payload = vec![0xC3u8; BULK_PAYLOAD_BYTES];
        let bulk = self.stream(&mut Tracer::new(), &bulk_payload, BULK_FRAMES, BURST);
        if let Some(failure) = bulk.failures.first() {
            return Err(format!("4 KiB stream broken: {failure}"));
        }
        out.exact(
            "net.mbytes_per_s_4k",
            (BULK_FRAMES * BULK_PAYLOAD_BYTES as u64) as f64 / bulk.wall_s / 1e6,
        );
        Ok(())
    }

    fn notes(&self) -> Vec<(String, String)> {
        vec![
            ("frames_per_block".to_string(), FRAMES.to_string()),
            ("frames_per_burst".to_string(), BURST.to_string()),
            ("payload_bytes".to_string(), PAYLOAD_BYTES.to_string()),
        ]
    }
}
