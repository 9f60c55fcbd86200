//! A nonblocking sharded reactor transport: the live cluster's one TCP
//! wire.
//!
//! Envelopes travel as length-prefixed frames
//! ([`frame_envelope`](crate::frame_envelope)) over plain TCP sockets, one long-lived connection per destination address.
//! Destinations are *addresses* that can change: a killed node restarts
//! on a fresh port, and the orchestrator repairs the survivors' routing
//! tables with [`ReactorTransport::set_route`]. Every socket runs
//! nonblocking on a **fixed thread count**: `shards` event-loop threads
//! (default 2) plus one connector thread, independent of
//! how many routes or peers exist.
//!
//! * **Sharding** — every socket is owned by exactly one shard thread, so
//!   no socket is ever touched concurrently. Outbound connections shard by
//!   destination port; inbound connections are dealt round-robin by the
//!   accepting shard (shard 0, which owns the listener). Shards sleep on a
//!   condvar with a short poll timeout — senders nudge the owning shard,
//!   and the timeout bounds inbound-read latency without OS readiness
//!   APIs, keeping the crate dependency-free. The timeout follows pending
//!   work, not bytes moved: none while a full batch waits behind a
//!   drained socket, the rest of the ripening window for a small batch,
//!   the base period after any sweep that moved anything, and a doubling
//!   one while nothing moves.
//! * **Write coalescing** — sends don't write; they encode into the
//!   route's reused scratch buffer and append it to the route's byte
//!   ring, whose storage is reserved once at [`WirePolicy::queue_bytes`]
//!   and never grows — so no send allocates once a route is warm. The
//!   owning shard copies every ring targeting an address into a single
//!   staging buffer and flushes it with **one** `write` syscall per
//!   connection per sweep — a `writev`-shaped batch of many frames,
//!   instead of one syscall per frame. Senders nudge the owning shard only
//!   when a ring turns idle→busy, so a sustained burst costs one wakeup,
//!   not one per frame.
//! * **Ack piggybacking** — ack envelopes don't consume ring capacity or
//!   their own frames; they wait in a pending-ack queue and ride the
//!   header of the next outbound data frame to the same route (wire
//!   format v2, [`frame_envelope_with_acks`](crate::frame_envelope_with_acks)). With no data to ride, the
//!   oldest ack is promoted to a standalone frame carrying the rest.
//! * **Backpressure** — rings are bounded ([`WirePolicy::queue_bytes`]).
//!   [`try_send`](ReactorTransport::try_send) surfaces overflow as a typed
//!   [`SendError::Backpressure`] instead of growing an unbounded queue;
//!   the fire-and-forget [`Transport`] path blocks for ring space up to
//!   [`WirePolicy::send_stall`], then drops and counts. An envelope that
//!   would not fit even an empty ring is [`SendError::TooLarge`], which
//!   no wait cures.
//!
//! Delivery semantics match the in-process transports: per-link FIFO for
//! data frames (one ordered ring riding one TCP stream), silent drops for
//! unrouted destinations, and reconnect-with-backoff under a
//! [`ReconnectPolicy`] — a briefly-down peer costs latency, not messages;
//! one that stays down past the budget shows in
//! [`WireStats::dropped_dead`]. Acks may overtake
//! data queued behind them, and one another — safe because acks are
//! idempotent and order-free with respect to every message class,
//! themselves included (see [`AckTracker::on_ack`](crate::AckTracker::on_ack)
//! and DESIGN.md §12).

use core::fmt;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use synergy_codec::{to_bytes_into, Codec};

use crate::ack::PendingAcks;
use crate::frame::{FrameDecoder, FrameError, PiggyAck, MAX_FRAME_LEN};
use crate::message::{Endpoint, Envelope};
use crate::retry::Backoff;
use crate::transport::Transport;

/// Default number of shard (event-loop) threads.
pub(crate) const DEFAULT_SHARDS: usize = 2;

/// Default per-route outbound ring capacity in bytes.
pub(crate) const DEFAULT_QUEUE_BYTES: usize = 256 * 1024;

/// Target size of one coalesced write: a shard stops refilling a
/// connection's staging buffer past this many bytes. A connection that
/// wrote a whole batch while a ring behind it still held frames is swept
/// again at once, without waiting out the poll period.
const FLUSH_TARGET: usize = 64 * 1024;

/// A staging buffer smaller than this is not written until it has aged
/// [`COALESCE_WINDOW`]: at high fan-out each connection's share of one
/// sweep is a frame or two, and writing those eagerly degenerates into a
/// syscall per frame. Letting small batches ripen briefly restores
/// `writev`-shaped writes without materially delaying quiet links.
const WRITE_BATCH_MIN: usize = 4 * 1024;

/// How long a small staged batch may ripen before it is written anyway;
/// the shard sleeps only until the oldest unripe batch is due.
const COALESCE_WINDOW: Duration = Duration::from_micros(200);

/// Poll period after a sweep that moved anything: bounds inbound-read
/// latency when no sender nudges the shard.
const SWEEP_TIMEOUT: Duration = Duration::from_micros(500);

/// Consecutive sweeps that move nothing double the poll period up to
/// `SWEEP_TIMEOUT << IDLE_BACKOFF_MAX_SHIFT` (4ms): quiescent shards cost
/// ~1/8th the wakeups. Any sweep that moves anything — one 32-byte ack
/// read counts — snaps back to [`SWEEP_TIMEOUT`], and a nudge cuts any
/// sleep short. A shard with no listener, no inbound connections, no
/// rings, and nothing staged skips polling entirely and sleeps until
/// nudged.
const IDLE_BACKOFF_MAX_SHIFT: u32 = 3;

/// Most acks a ring holds for piggybacking before further acks fall
/// through to ordinary encoded frames. Sized to absorb a full poll
/// period of ack-heavy traffic (a few hundred acks) while bounding the
/// queue to a few tens of kilobytes.
const MAX_PENDING_ACKS: usize = 1024;

/// Most acks piggybacked on one data frame; half the wire format's
/// [`MAX_PIGGY_ACKS`](crate::MAX_PIGGY_ACKS).
const FRAME_ACKS: usize = 32;
const _: () = assert!(FRAME_ACKS <= crate::frame::MAX_PIGGY_ACKS);

/// How long the connector blocks in one connect attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// How the connector behaves when a destination is unreachable.
///
/// Reconnect delay starts at [`backoff_start`](Self::backoff_start),
/// doubles per consecutive failure up to [`backoff_cap`](Self::backoff_cap),
/// and each sleep is scaled by a deterministic ±25% jitter (seeded per
/// destination from [`jitter_seed`](Self::jitter_seed)) so a cluster of
/// transports reconnecting to a restarted node does not thunder in
/// lockstep. After [`max_attempts`](Self::max_attempts) consecutive
/// failures the route is declared dead: everything queued for it is
/// dropped and counted in [`WireStats::dropped_dead`], and later sends to
/// that address are dropped (and counted) until
/// [`ReactorTransport::set_route`] revives it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_start: Duration,
    /// Reconnect delay ceiling.
    pub backoff_cap: Duration,
    /// Consecutive failed connect attempts before a destination is
    /// declared dead; `None` retries forever.
    pub max_attempts: Option<u32>,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl ReconnectPolicy {
    /// The policy as a [`Backoff`] schedule for one destination, jittered
    /// per-address so peers do not reconnect in lockstep.
    fn backoff_for(&self, addr: SocketAddr) -> Backoff {
        Backoff::exponential(self.backoff_start, self.backoff_cap, self.max_attempts)
            .with_jitter(self.jitter_seed ^ u64::from(addr.port()))
    }
}

impl Default for ReconnectPolicy {
    /// 10 ms → 500 ms backoff and a 64-attempt budget (≈30 s of retries):
    /// generous enough to ride out any orchestrated node restart, bounded
    /// enough that a permanently dead peer cannot pin a route forever.
    fn default() -> Self {
        ReconnectPolicy {
            backoff_start: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            max_attempts: Some(64),
            jitter_seed: 0x5359_4E45, // "SYNE"
        }
    }
}

/// Tuning knobs for the reactor transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WirePolicy {
    /// Per-route outbound ring capacity; a full ring surfaces
    /// [`SendError::Backpressure`].
    pub queue_bytes: usize,
    /// How long the fire-and-forget [`Transport::send`] path waits for
    /// ring space before dropping the envelope (counted in
    /// [`WireStats::backpressure_dropped`]).
    pub send_stall: Duration,
    /// Event-loop thread count; sockets shard across them by peer port.
    pub shards: usize,
    /// Reconnect backoff and give-up budget.
    pub reconnect: ReconnectPolicy,
}

impl Default for WirePolicy {
    fn default() -> Self {
        WirePolicy {
            queue_bytes: DEFAULT_QUEUE_BYTES,
            send_stall: Duration::from_secs(5),
            shards: DEFAULT_SHARDS,
            reconnect: ReconnectPolicy::default(),
        }
    }
}

/// Why [`ReactorTransport::try_send`] rejected an envelope.
#[derive(Debug)]
pub enum SendError {
    /// The destination's ring is full: the peer (or its shard) is not
    /// draining as fast as the caller produces. Retry after a delay, or
    /// treat the route as stalled.
    Backpressure {
        /// The destination endpoint.
        to: Endpoint,
        /// The address its ring currently targets.
        addr: SocketAddr,
        /// Bytes queued in the ring.
        queued_bytes: usize,
        /// The ring's capacity ([`WirePolicy::queue_bytes`]).
        capacity: usize,
    },
    /// The envelope's ring record is larger than the whole ring: no amount
    /// of draining makes room, so this is not retryable.
    TooLarge {
        /// The destination endpoint.
        to: Endpoint,
        /// The record's size: the encoded envelope plus its 4-byte length
        /// prefix.
        bytes: usize,
        /// The ring's capacity ([`WirePolicy::queue_bytes`]).
        capacity: usize,
    },
    /// No route for the destination (the fire-and-forget path drops these
    /// silently, like every other transport).
    NoRoute {
        /// The unrouted destination.
        to: Endpoint,
    },
    /// The route's address exhausted its reconnect budget and was declared
    /// dead; see [`ReconnectPolicy::max_attempts`].
    RouteDead {
        /// The dead address.
        addr: SocketAddr,
    },
    /// The envelope could not be framed.
    Frame(FrameError),
    /// The transport is shut down.
    Shutdown,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Backpressure {
                to,
                addr,
                queued_bytes,
                capacity,
            } => write!(
                f,
                "backpressure: ring for {to:?} via {addr} is full ({queued_bytes}/{capacity} bytes)"
            ),
            SendError::TooLarge {
                to,
                bytes,
                capacity,
            } => write!(
                f,
                "envelope for {to:?} needs {bytes} ring bytes, more than the ring's {capacity}"
            ),
            SendError::NoRoute { to } => write!(f, "no route for {to:?}"),
            SendError::RouteDead { addr } => write!(f, "route via {addr} gave up"),
            SendError::Frame(e) => write!(f, "frame error: {e}"),
            SendError::Shutdown => write!(f, "transport is shut down"),
        }
    }
}

impl std::error::Error for SendError {}

/// Monotonic counters exposed by [`ReactorTransport::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Data frames accepted into rings.
    pub frames_enqueued: u64,
    /// Data frames fully written to a socket.
    pub frames_sent: u64,
    /// Bytes written to sockets.
    pub bytes_written: u64,
    /// `write` syscalls that carried at least two frames.
    pub coalesced_writes: u64,
    /// Acks that rode a data frame's header.
    pub acks_piggybacked: u64,
    /// Acks promoted to their own frame (no data to ride).
    pub acks_standalone: u64,
    /// `try_send` calls rejected with [`SendError::Backpressure`].
    pub backpressure_errors: u64,
    /// Envelopes dropped by the blocking send path after
    /// [`WirePolicy::send_stall`] elapsed without ring space.
    pub backpressure_dropped: u64,
    /// Envelopes dropped because their route was dead: queued or staged
    /// when the connector gave up on it, or sent after.
    pub dropped_dead: u64,
}

#[derive(Default)]
struct StatCells {
    frames_enqueued: AtomicU64,
    frames_sent: AtomicU64,
    bytes_written: AtomicU64,
    coalesced_writes: AtomicU64,
    acks_piggybacked: AtomicU64,
    acks_standalone: AtomicU64,
    backpressure_errors: AtomicU64,
    backpressure_dropped: AtomicU64,
    dropped_dead: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> WireStats {
        WireStats {
            frames_enqueued: self.frames_enqueued.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            coalesced_writes: self.coalesced_writes.load(Ordering::Relaxed),
            acks_piggybacked: self.acks_piggybacked.load(Ordering::Relaxed),
            acks_standalone: self.acks_standalone.load(Ordering::Relaxed),
            backpressure_errors: self.backpressure_errors.load(Ordering::Relaxed),
            backpressure_dropped: self.backpressure_dropped.load(Ordering::Relaxed),
            dropped_dead: self.dropped_dead.load(Ordering::Relaxed),
        }
    }
}

/// One endpoint's bounded outbound queue: a byte ring of
/// `len u32 LE · codec(Envelope)` records, oldest first. Its storage is
/// reserved once, at [`WirePolicy::queue_bytes`], on the route's first
/// data frame and never grows, because the fullness check keeps the
/// contents inside it. A sender encodes into the ring's scratch buffer and
/// appends the record; the owning shard copies each payload straight into
/// the staging buffer after its frame's ack header, taking the frame's
/// acks through one buffer the shard reuses. Neither side allocates per
/// frame.
struct RouteRing {
    inner: Mutex<RingInner>,
    /// Signalled whenever the shard drains bytes out (or the route dies):
    /// what the blocking send path waits on.
    space: Condvar,
}

struct RingInner {
    addr: SocketAddr,
    /// Queued records; its length, prefixes included, is what
    /// [`WirePolicy::queue_bytes`] bounds.
    bytes: VecDeque<u8>,
    /// Records in `bytes`.
    frames: usize,
    /// Acks waiting to piggyback on the next flush from this ring.
    acks: PendingAcks,
    /// Encode buffer of every data frame and carrier ack
    /// (`to_bytes_into` clears it before encoding).
    scratch: Vec<u8>,
}

impl RingInner {
    fn new(addr: SocketAddr) -> RingInner {
        RingInner {
            addr,
            bytes: VecDeque::new(),
            frames: 0,
            acks: PendingAcks::new(),
            scratch: Vec::new(),
        }
    }

    /// Whether the owning shard has nothing staged from this ring — the
    /// send path only nudges the shard on the idle→busy transition; a
    /// busy ring's shard is already awake or due within the sweep timeout.
    fn is_idle(&self) -> bool {
        self.bytes.is_empty() && self.acks.is_empty()
    }

    /// Queues `envelope` in a ring of `capacity` bytes. Returns whether it
    /// took ring bytes: acks piggyback instead — no ring bytes, no frame of
    /// their own — unless the piggyback queue is saturated, in which case
    /// they are encoded like data so that queue stays bounded too.
    fn enqueue(&mut self, envelope: &Envelope, capacity: usize) -> Result<bool, SendError> {
        if self.acks.len() < MAX_PENDING_ACKS {
            if let Some(ack) = PiggyAck::from_envelope(envelope) {
                self.acks.push(ack);
                return Ok(false);
            }
        }
        to_bytes_into(envelope, &mut self.scratch)
            .map_err(|e| SendError::Frame(FrameError::Codec(e)))?;
        let len = self.scratch.len();
        if len + 2 > MAX_FRAME_LEN {
            return Err(SendError::Frame(FrameError::Oversized(len)));
        }
        let bytes = 4 + len;
        if bytes > capacity {
            return Err(SendError::TooLarge {
                to: envelope.to,
                bytes,
                capacity,
            });
        }
        if self.bytes.len() + bytes > capacity {
            return Err(SendError::Backpressure {
                to: envelope.to,
                addr: self.addr,
                queued_bytes: self.bytes.len(),
                capacity,
            });
        }
        if self.bytes.capacity() < capacity {
            self.bytes.reserve_exact(capacity - self.bytes.len());
        }
        self.bytes.extend((len as u32).to_le_bytes());
        self.bytes.extend(&self.scratch);
        self.frames += 1;
        Ok(true)
    }

    /// The oldest record's payload length. Needs `frames > 0`.
    fn front_len(&self) -> usize {
        u32::from_le_bytes(std::array::from_fn(|i| self.bytes[i])) as usize
    }

    /// The oldest record's payload, in two pieces where it wraps round the
    /// end of the ring's storage (the second is empty otherwise).
    fn front(&self) -> Option<(&[u8], &[u8])> {
        if self.frames == 0 {
            return None;
        }
        let (start, end) = (4, 4 + self.front_len());
        let (head, tail) = self.bytes.as_slices();
        let split = head.len();
        Some(if end <= split {
            (&head[start..end], &[])
        } else if start >= split {
            (&tail[start - split..end - split], &[])
        } else {
            (&head[start..], &tail[..end - split])
        })
    }

    fn pop_front(&mut self) {
        let record = 4 + self.front_len();
        self.bytes.drain(..record);
        self.frames -= 1;
    }
}

struct ShardInbox {
    /// Accepted inbound streams assigned to this shard.
    inbound: Vec<TcpStream>,
    /// Outbound streams the connector established for this shard.
    established: Vec<(SocketAddr, TcpStream)>,
    /// Set by senders after enqueueing; cleared when the shard wakes.
    nudged: bool,
}

struct ShardHandle {
    inbox: Mutex<ShardInbox>,
    cv: Condvar,
}

impl ShardHandle {
    fn nudge(&self) {
        let mut inbox = self.inbox.lock().expect("shard inbox lock");
        inbox.nudged = true;
        self.cv.notify_one();
    }
}

struct ConnectJob {
    backoff: Backoff,
    next_at: Instant,
    /// The connector is mid-attempt on this address (lock released while
    /// connecting); don't reschedule.
    busy: bool,
}

struct Shared {
    policy: WirePolicy,
    shutdown: AtomicBool,
    stats: StatCells,
    /// Outbound queues, one per routed endpoint.
    rings: Mutex<HashMap<Endpoint, Arc<RouteRing>>>,
    /// Bumped whenever the ring set or any ring's address changes; shards
    /// cache their by-address ring grouping and rebuild it only when this
    /// moves, instead of re-snapshotting the map every sweep.
    rings_gen: AtomicU64,
    /// Inbound dispatch, same contract as the other transports.
    endpoints: Mutex<HashMap<Endpoint, Sender<Envelope>>>,
    /// Bumped by `register`; invalidates the per-connection delivery
    /// cache so re-registered endpoints take effect immediately.
    endpoints_gen: AtomicU64,
    /// Addresses that exhausted the reconnect budget. `set_route` to the
    /// address revives it.
    dead: Mutex<HashSet<SocketAddr>>,
    /// `dead.len()`, maintained under the `dead` lock — the send hot path
    /// checks this atomic and skips the lock entirely while nothing is
    /// dead (the overwhelmingly common case).
    dead_len: AtomicUsize,
    /// Pending/connecting addresses, owned by the connector thread.
    jobs: Mutex<HashMap<SocketAddr, ConnectJob>>,
    jobs_cv: Condvar,
    shards: Vec<ShardHandle>,
}

impl Shared {
    fn shard_of(&self, addr: SocketAddr) -> usize {
        addr.port() as usize % self.shards.len()
    }

    /// Whether `addr` is a gave-up route. Lock-free while nothing is dead.
    fn is_dead(&self, addr: SocketAddr) -> bool {
        self.dead_len.load(Ordering::Relaxed) > 0
            && self.dead.lock().expect("dead lock").contains(&addr)
    }

    /// Counts `count` envelopes dropped on a dead address.
    fn count_dead_drops(&self, count: u64) {
        self.stats.dropped_dead.fetch_add(count, Ordering::Relaxed);
    }

    /// Asks the connector to (re)establish `addr` unless it is already
    /// pending or dead.
    fn request_connect(&self, addr: SocketAddr) {
        // Checked under the jobs lock, which a give-up holds while it
        // declares the address dead (see `connector_loop`).
        let mut jobs = self.jobs.lock().expect("jobs lock");
        if self.is_dead(addr) {
            return;
        }
        jobs.entry(addr).or_insert_with(|| ConnectJob {
            backoff: self.policy.reconnect.backoff_for(addr),
            next_at: Instant::now(),
            busy: false,
        });
        self.jobs_cv.notify_one();
    }

    /// Purges every ring targeting a dead `addr`, counting the dropped
    /// frames and stranded acks, and wakes their space waiters.
    fn purge_rings_for(&self, addr: SocketAddr) {
        let rings: Vec<Arc<RouteRing>> = self
            .rings
            .lock()
            .expect("rings lock")
            .values()
            .cloned()
            .collect();
        for ring in rings {
            let mut inner = ring.inner.lock().expect("ring lock");
            if inner.addr != addr {
                continue;
            }
            let dropped = inner.frames as u64 + inner.acks.len() as u64;
            inner.bytes.clear();
            inner.frames = 0;
            inner.acks = PendingAcks::new();
            drop(inner);
            self.count_dead_drops(dropped);
            ring.space.notify_all();
        }
    }
}

/// The sharded nonblocking transport: one per OS process in the cluster
/// runtime. Each is both a server (it binds a listener and dispatches
/// inbound envelopes to [`register`](Self::register)ed endpoints) and a
/// client (it connects out to the addresses given to
/// [`set_route`](Self::set_route)); [`try_send`](Self::try_send) surfaces
/// backpressure as a typed error.
pub struct ReactorTransport {
    local: SocketAddr,
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ReactorTransport {
    /// Binds a listener (port 0 for OS-assigned) and starts the shard and
    /// connector threads.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<ReactorTransport> {
        ReactorTransport::bind_with(addr, WirePolicy::default())
    }

    /// [`bind`](Self::bind) with an explicit [`WirePolicy`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the address cannot be bound.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        policy: WirePolicy,
    ) -> std::io::Result<ReactorTransport> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let nshards = policy.shards.max(1);
        let shards = (0..nshards)
            .map(|_| ShardHandle {
                inbox: Mutex::new(ShardInbox {
                    inbound: Vec::new(),
                    established: Vec::new(),
                    nudged: false,
                }),
                cv: Condvar::new(),
            })
            .collect();
        let shared = Arc::new(Shared {
            policy,
            shutdown: AtomicBool::new(false),
            stats: StatCells::default(),
            rings: Mutex::new(HashMap::new()),
            rings_gen: AtomicU64::new(0),
            endpoints: Mutex::new(HashMap::new()),
            endpoints_gen: AtomicU64::new(0),
            dead: Mutex::new(HashSet::new()),
            dead_len: AtomicUsize::new(0),
            jobs: Mutex::new(HashMap::new()),
            jobs_cv: Condvar::new(),
            shards,
        });
        let mut threads = Vec::with_capacity(nshards + 1);
        for index in 0..nshards {
            let shard_shared = Arc::clone(&shared);
            let shard_listener = if index == 0 {
                Some(listener.try_clone()?)
            } else {
                None
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("synergy-reactor-shard-{index}"))
                    .spawn(move || shard_loop(index, shard_listener, shard_shared))?,
            );
        }
        let conn_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("synergy-reactor-connect".into())
                .spawn(move || connector_loop(conn_shared))?,
        );
        Ok(ReactorTransport {
            local,
            shared,
            threads: Mutex::new(threads),
        })
    }

    /// The bound listen address — what peers should `set_route` to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Registers an endpoint hosted by this process and returns its
    /// delivery channel. Re-registering replaces the previous channel.
    pub fn register(&self, endpoint: Endpoint) -> Receiver<Envelope> {
        let (tx, rx) = channel();
        self.shared
            .endpoints
            .lock()
            .expect("endpoints lock")
            .insert(endpoint, tx);
        self.shared.endpoints_gen.fetch_add(1, Ordering::Release);
        rx
    }

    /// Points `endpoint` at `addr`, replacing any previous mapping; queued
    /// frames follow the endpoint to its new address. Setting a route
    /// revives a gave-up address, clearing its dead-route record.
    pub fn set_route(&self, endpoint: Endpoint, addr: SocketAddr) {
        {
            let mut dead = self.shared.dead.lock().expect("dead lock");
            dead.remove(&addr);
            self.shared.dead_len.store(dead.len(), Ordering::Relaxed);
        }
        let ring = self.ring_for(endpoint, addr);
        let old = {
            let mut inner = ring.inner.lock().expect("ring lock");
            std::mem::replace(&mut inner.addr, addr)
        };
        if old != addr {
            self.shared.rings_gen.fetch_add(1, Ordering::Release);
        }
        self.shared.shards[self.shared.shard_of(addr)].nudge();
        if old != addr {
            self.shared.shards[self.shared.shard_of(old)].nudge();
        }
    }

    /// A snapshot of the transport's monotonic counters.
    pub fn stats(&self) -> WireStats {
        self.shared.stats.snapshot()
    }

    /// Enqueues `envelope` on its destination's ring without blocking,
    /// surfacing a full ring as [`SendError::Backpressure`]. Acks ride the
    /// piggyback queue instead of consuming ring capacity.
    ///
    /// # Errors
    ///
    /// See [`SendError`] — callers typically retry `Backpressure` with a
    /// bounded budget and treat everything else as a drop.
    pub fn try_send(&self, envelope: &Envelope) -> Result<(), SendError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(SendError::Shutdown);
        }
        let ring = {
            let rings = self.shared.rings.lock().expect("rings lock");
            match rings.get(&envelope.to) {
                Some(ring) => Arc::clone(ring),
                None => return Err(SendError::NoRoute { to: envelope.to }),
            }
        };
        let mut inner = ring.inner.lock().expect("ring lock");
        let addr = inner.addr;
        if self.shared.is_dead(addr) {
            drop(inner);
            self.shared.count_dead_drops(1);
            return Err(SendError::RouteDead { addr });
        }
        // A busy ring's shard is already awake (or due within the sweep
        // timeout), so only the idle→busy transition nudges — one futex
        // wake per batch instead of one per frame.
        let was_idle = inner.is_idle();
        let queued = inner.enqueue(envelope, self.shared.policy.queue_bytes);
        drop(inner);
        match queued {
            Ok(false) => {}
            Ok(true) => {
                self.shared
                    .stats
                    .frames_enqueued
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                if let SendError::Backpressure { .. } = e {
                    self.shared
                        .stats
                        .backpressure_errors
                        .fetch_add(1, Ordering::Relaxed);
                    // The shard may simply not have swept yet; make sure
                    // it does.
                    self.shared.shards[self.shared.shard_of(addr)].nudge();
                }
                return Err(e);
            }
        }
        if was_idle {
            self.shared.shards[self.shared.shard_of(addr)].nudge();
        }
        Ok(())
    }

    /// Stops all threads and closes all sockets; queued frames are
    /// dropped. Safe to call more than once; also invoked on drop.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shared.shards {
            shard.nudge();
        }
        self.shared.jobs_cv.notify_all();
        let rings: Vec<Arc<RouteRing>> = self
            .shared
            .rings
            .lock()
            .expect("rings lock")
            .values()
            .cloned()
            .collect();
        for ring in rings {
            ring.space.notify_all();
        }
        let handles: Vec<_> = self
            .threads
            .lock()
            .expect("threads lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn ring_for(&self, endpoint: Endpoint, addr: SocketAddr) -> Arc<RouteRing> {
        let mut rings = self.shared.rings.lock().expect("rings lock");
        let mut created = false;
        let ring = Arc::clone(rings.entry(endpoint).or_insert_with(|| {
            created = true;
            Arc::new(RouteRing {
                inner: Mutex::new(RingInner::new(addr)),
                space: Condvar::new(),
            })
        }));
        if created {
            self.shared.rings_gen.fetch_add(1, Ordering::Release);
        }
        ring
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for ReactorTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReactorTransport")
            .field("local", &self.local)
            .field("shards", &self.shared.shards.len())
            .finish_non_exhaustive()
    }
}

impl Transport for ReactorTransport {
    /// Fire-and-forget parity with the other transports: unrouted sends
    /// drop silently; a full ring blocks for space up to
    /// [`WirePolicy::send_stall`], then drops and counts the envelope in
    /// [`WireStats::backpressure_dropped`]; every other error, such as
    /// [`SendError::TooLarge`], drops at once.
    fn send(&self, envelope: Envelope) {
        match self.try_send(&envelope) {
            Ok(()) | Err(SendError::NoRoute { .. }) => return,
            Err(SendError::Backpressure { .. }) => {}
            Err(_) => return,
        }
        let deadline = Instant::now() + self.shared.policy.send_stall;
        loop {
            let ring = {
                let rings = self.shared.rings.lock().expect("rings lock");
                match rings.get(&envelope.to) {
                    Some(ring) => Arc::clone(ring),
                    None => return,
                }
            };
            {
                let inner = ring.inner.lock().expect("ring lock");
                let Some(timeout) = deadline.checked_duration_since(Instant::now()) else {
                    drop(inner);
                    self.shared
                        .stats
                        .backpressure_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let _unused = ring
                    .space
                    .wait_timeout(inner, timeout.min(Duration::from_millis(5)))
                    .expect("ring lock");
            }
            match self.try_send(&envelope) {
                Ok(()) | Err(SendError::NoRoute { .. }) => return,
                Err(SendError::Backpressure { .. }) => {
                    if Instant::now() >= deadline {
                        self.shared
                            .stats
                            .backpressure_dropped
                            .fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    }
}

/// One outbound connection's flush state, owned by its shard.
struct OutConn {
    stream: Option<TcpStream>,
    /// Coalesced frames staged for the next write.
    wbuf: Vec<u8>,
    /// Cumulative end offset of each staged frame within `wbuf`.
    bounds: Vec<usize>,
    /// Bytes of `wbuf` already written.
    written: usize,
    /// When the oldest staged-and-unwritten byte arrived — what
    /// [`COALESCE_WINDOW`] ages against.
    staged_at: Option<Instant>,
    /// This sweep's refill stopped at [`FLUSH_TARGET`] with a ring still
    /// holding frames or acks for this connection.
    cut_short: bool,
}

impl OutConn {
    fn new() -> OutConn {
        OutConn {
            stream: None,
            wbuf: Vec::new(),
            bounds: Vec::new(),
            written: 0,
            staged_at: None,
            cut_short: false,
        }
    }

    /// How long until the staged batch should be written: zero once it is
    /// big enough, old enough, or partially written already (finish what
    /// we started).
    fn ripens_in(&self) -> Duration {
        if self.written > 0 || self.wbuf.len() >= WRITE_BATCH_MIN {
            return Duration::ZERO;
        }
        self.staged_at.map_or(Duration::ZERO, |at| {
            COALESCE_WINDOW.saturating_sub(at.elapsed())
        })
    }
}

struct InConn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Last delivery target: most connections carry one endpoint's stream,
    /// so this skips the endpoints lock on all but the first envelope.
    /// Invalidated when `endpoints_gen` moves.
    cache: Option<(Endpoint, Sender<Envelope>, u64)>,
}

impl InConn {
    fn new(stream: TcpStream) -> InConn {
        InConn {
            stream,
            dec: FrameDecoder::new(),
            cache: None,
        }
    }
}

/// Hands `env` to its registered endpoint, if any (unregistered
/// destinations drop silently, like every other transport). A free
/// function over the connection's cache field, so the decode loop can
/// borrow a connection's decoder and cache disjointly.
fn deliver_env(
    shared: &Shared,
    cache: &mut Option<(Endpoint, Sender<Envelope>, u64)>,
    env: Envelope,
) {
    let gen = shared.endpoints_gen.load(Ordering::Acquire);
    if let Some((ep, tx, cached_gen)) = &*cache {
        if *cached_gen == gen && *ep == env.to {
            let _ = tx.send(env);
            return;
        }
    }
    let endpoints = shared.endpoints.lock().expect("endpoints lock");
    match endpoints.get(&env.to) {
        Some(tx) => {
            *cache = Some((env.to, tx.clone(), gen));
            let _ = tx.send(env);
        }
        None => *cache = None,
    }
}

fn shard_loop(index: usize, listener: Option<TcpListener>, shared: Arc<Shared>) {
    let handle = &shared.shards[index];
    let mut next_shard = 0usize;
    let mut inbound: Vec<InConn> = Vec::new();
    let mut out: HashMap<SocketAddr, OutConn> = HashMap::new();
    let mut rbuf = vec![0u8; 64 * 1024];
    // This shard's rings grouped by current address, rebuilt only when
    // `rings_gen` moves (routes change rarely; sweeps are constant).
    let mut rings_cache: Vec<(SocketAddr, Vec<Arc<RouteRing>>)> = Vec::new();
    let mut cache_gen = u64::MAX;
    // The acks of the frame being staged; reused by every frame.
    let mut acks: Vec<PiggyAck> = Vec::with_capacity(crate::frame::MAX_PIGGY_ACKS);
    let mut idle_streak: u32 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut sweep = Sweep::default();
        let gen = shared.rings_gen.load(Ordering::Acquire);
        if gen != cache_gen {
            rings_cache = snapshot_rings(&shared, index);
            cache_gen = gen;
        }

        // Adopt sockets handed to this shard.
        {
            let mut inbox = handle.inbox.lock().expect("shard inbox lock");
            for stream in inbox.inbound.drain(..) {
                inbound.push(InConn::new(stream));
                sweep.progress = true;
            }
            for (addr, stream) in inbox.established.drain(..) {
                out.entry(addr).or_insert_with(OutConn::new).stream = Some(stream);
                sweep.progress = true;
            }
        }

        // Accept (shard 0 owns the listener), dealing conns round-robin.
        if let Some(listener) = &listener {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_nonblocking(true);
                        let target = next_shard % shared.shards.len();
                        next_shard += 1;
                        if target == index {
                            inbound.push(InConn::new(stream));
                        } else {
                            let mut inbox = shared.shards[target]
                                .inbox
                                .lock()
                                .expect("shard inbox lock");
                            inbox.inbound.push(stream);
                            inbox.nudged = true;
                            shared.shards[target].cv.notify_one();
                        }
                        sweep.progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Read every inbound connection until it would block.
        inbound.retain_mut(|conn| match drain_inbound(conn, &mut rbuf, &shared) {
            DrainOutcome::Idle => true,
            DrainOutcome::Progress => {
                sweep.progress = true;
                true
            }
            DrainOutcome::Closed => {
                sweep.progress = true;
                false
            }
        });

        // Flush outbound: refill each connection's staging buffer from the
        // rings targeting its address, then one write per connection.
        flush_outbound(&shared, &rings_cache, &mut out, &mut acks, &mut sweep);

        sweep.pollable = listener.is_some() || !inbound.is_empty() || !rings_cache.is_empty();
        let wait = pace(&sweep, &mut idle_streak);
        let mut inbox = handle.inbox.lock().expect("shard inbox lock");
        match wait {
            Wait::None => {}
            // A nudge (a send on an idle ring, a handed socket, a route
            // change, shutdown) cuts any sleep short.
            Wait::UntilNudged => {
                while !inbox.nudged && !shared.shutdown.load(Ordering::SeqCst) {
                    inbox = handle.cv.wait(inbox).expect("shard inbox lock");
                }
            }
            Wait::For(period) => {
                if !inbox.nudged {
                    inbox = handle
                        .cv
                        .wait_timeout(inbox, period)
                        .expect("shard inbox lock")
                        .0;
                }
            }
        }
        inbox.nudged = false;
    }
}

/// What one sweep did and left behind: everything [`pace`] decides on.
#[derive(Clone, Copy, Debug, Default)]
struct Sweep {
    /// Anything moved: a socket adopted or accepted, bytes read, a frame
    /// staged or written.
    progress: bool,
    /// The shard has something to poll: the listener, an inbound stream or
    /// a ring.
    pollable: bool,
    /// A connection wrote its whole staged batch while a ring behind it was
    /// cut short at [`FLUSH_TARGET`]: a full batch is already waiting.
    backlog: bool,
    /// A live connection holds ripe bytes its socket did not take (a
    /// partial or would-block write).
    unwritten: bool,
    /// The soonest a live connection's unripe batch ripens.
    ripens_in: Option<Duration>,
}

/// How long a shard sleeps after a sweep; a nudge cuts any sleep short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wait {
    /// Sweep again at once.
    None,
    /// Sleep up to this long.
    For(Duration),
    /// Sleep until nudged.
    UntilNudged,
}

/// The sleep after `sweep`, and the backoff ladder's next rung. Sleeping
/// paces the loop the way an `epoll_wait` timeout would — the next sweep
/// works on a batch instead of spinning on single frames — but only on
/// work that is not ready:
///
/// * a full batch waiting behind a drained socket: no sleep;
/// * an unripe batch: the rest of its [`COALESCE_WINDOW`]; a socket that
///   took part of its batch: [`SWEEP_TIMEOUT`];
/// * nothing to poll at all: until nudged;
/// * otherwise [`SWEEP_TIMEOUT`] after a sweep that moved anything — one
///   32-byte ack counts, so an ack stream paces like a data stream — and a
///   period doubling per sweep that moved nothing, up to
///   `SWEEP_TIMEOUT << IDLE_BACKOFF_MAX_SHIFT`.
fn pace(sweep: &Sweep, idle_streak: &mut u32) -> Wait {
    if sweep.progress {
        *idle_streak = 0;
    }
    if sweep.backlog {
        return Wait::None;
    }
    if sweep.unwritten || sweep.ripens_in.is_some() {
        return Wait::For(
            sweep
                .ripens_in
                .map_or(SWEEP_TIMEOUT, |due| due.min(SWEEP_TIMEOUT)),
        );
    }
    if !sweep.progress && !sweep.pollable {
        return Wait::UntilNudged;
    }
    let shift = (*idle_streak).min(IDLE_BACKOFF_MAX_SHIFT);
    *idle_streak = idle_streak.saturating_add(1);
    Wait::For(SWEEP_TIMEOUT * (1 << shift))
}

/// Collects the rings owned by shard `index`, grouped by their current
/// destination address.
fn snapshot_rings(shared: &Shared, index: usize) -> Vec<(SocketAddr, Vec<Arc<RouteRing>>)> {
    let rings: Vec<Arc<RouteRing>> = shared
        .rings
        .lock()
        .expect("rings lock")
        .values()
        .cloned()
        .collect();
    let mut by_addr: HashMap<SocketAddr, Vec<Arc<RouteRing>>> = HashMap::new();
    for ring in rings {
        let addr = ring.inner.lock().expect("ring lock").addr;
        if shared.shard_of(addr) == index {
            by_addr.entry(addr).or_default().push(ring);
        }
    }
    by_addr.into_iter().collect()
}

enum DrainOutcome {
    Idle,
    Progress,
    Closed,
}

fn drain_inbound(conn: &mut InConn, rbuf: &mut [u8], shared: &Shared) -> DrainOutcome {
    let mut any = false;
    loop {
        match conn.stream.read(rbuf) {
            Ok(0) => return DrainOutcome::Closed,
            Ok(n) => {
                any = true;
                let cache = &mut conn.cache;
                // Corrupt stream: drop the connection, the peer
                // reconnects with a clean one.
                if conn
                    .dec
                    .drain_chunk(&rbuf[..n], |env| deliver_env(shared, cache, env))
                    .is_err()
                {
                    return DrainOutcome::Closed;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return DrainOutcome::Closed,
        }
    }
    if any {
        DrainOutcome::Progress
    } else {
        DrainOutcome::Idle
    }
}

/// Moves ring contents into staging buffers and writes each connection
/// once, recording in `sweep` what moved and what staged bytes on a live
/// stream still wait for (a write retry or ripening; nothing else needs
/// polling, since every other outbound event arrives with a nudge).
fn flush_outbound(
    shared: &Shared,
    rings_cache: &[(SocketAddr, Vec<Arc<RouteRing>>)],
    out: &mut HashMap<SocketAddr, OutConn>,
    acks: &mut Vec<PiggyAck>,
    sweep: &mut Sweep,
) {
    for (addr, rings) in rings_cache {
        let addr = *addr;
        // A dead address strands whatever was staged: fold it into the
        // drop count and forget the connection.
        if shared.is_dead(addr) {
            if let Some(conn) = out.remove(&addr) {
                shared.count_dead_drops(conn.bounds.len() as u64);
            }
            shared.purge_rings_for(addr);
            continue;
        }
        let conn = out.entry(addr).or_insert_with(OutConn::new);
        // Top up the staging buffer to the flush target — never past it,
        // so a slow peer's staging buffer cannot grow without bound.
        for ring in rings {
            if conn.wbuf.len() >= FLUSH_TARGET {
                break;
            }
            match refill_from_ring(shared, ring, conn, acks) {
                Refill::Idle => {}
                Refill::Emptied => sweep.progress = true,
                Refill::CutShort => {
                    sweep.progress = true;
                    conn.cut_short = true;
                }
            }
        }
    }
    // Write pass over every staged connection — including ones whose rings
    // were re-routed elsewhere after staging, so committed bytes still
    // drain to their original destination.
    for (&addr, conn) in out.iter_mut() {
        let cut_short = std::mem::take(&mut conn.cut_short);
        if conn.wbuf.is_empty() {
            continue;
        }
        if shared.is_dead(addr) {
            // Counted and dropped on the next sweep via the cache pass,
            // or below if no ring targets the address anymore.
            continue;
        }
        if conn.stream.is_none() {
            shared.request_connect(addr);
            continue;
        }
        let ripens_in = conn.ripens_in();
        if ripens_in.is_zero() {
            sweep.progress |= write_staged(shared, addr, conn);
        }
        if conn.wbuf.is_empty() {
            sweep.backlog |= cut_short;
        } else if conn.stream.is_some() {
            if ripens_in.is_zero() {
                sweep.unwritten = true;
            } else {
                sweep.ripens_in = Some(sweep.ripens_in.map_or(ripens_in, |d| d.min(ripens_in)));
            }
        }
    }
    // Fold staged frames for dead addresses no ring targets anymore into
    // the drop counts (the cache pass can't see them).
    out.retain(|&addr, conn| {
        if !conn.wbuf.is_empty() && shared.is_dead(addr) {
            shared.count_dead_drops(conn.bounds.len() as u64);
            return false;
        }
        true
    });
}

/// What [`refill_from_ring`] left in one ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Refill {
    /// Nothing to stage: the ring was idle.
    Idle,
    /// Everything the ring held was staged.
    Emptied,
    /// The staging buffer reached [`FLUSH_TARGET`] while the ring still
    /// held frames or acks.
    CutShort,
}

/// Drains one ring into `conn.wbuf`: every staged data frame carries up
/// to the policy's ack cap in its header, and when data runs out the
/// remaining acks are promoted into standalone carrier frames (the oldest
/// ack becomes the carrying envelope, the rest ride its header) until the
/// pending-ack queue is dry or the staging buffer is full. Each frame's
/// acks pass through `acks`, which keeps its storage from frame to frame.
fn refill_from_ring(
    shared: &Shared,
    ring: &RouteRing,
    conn: &mut OutConn,
    acks: &mut Vec<PiggyAck>,
) -> Refill {
    let mut guard = ring.inner.lock().expect("ring lock");
    let inner = &mut *guard;
    if inner.is_idle() {
        return Refill::Idle;
    }
    let mut moved = false;
    while conn.wbuf.len() < FLUSH_TARGET {
        inner.acks.drain_for_frame(FRAME_ACKS, acks);
        let riders = if let Some(payload) = inner.front() {
            stage_frame(conn, acks, payload);
            inner.pop_front();
            acks.len()
        } else if let Some((carrier, riders)) = acks.split_first() {
            // No data to ride: promote the oldest ack to the carrying
            // frame.
            to_bytes_into(&carrier.into_envelope(), &mut inner.scratch).expect("infallible encode");
            stage_frame(conn, riders, (&inner.scratch, &[]));
            shared.stats.acks_standalone.fetch_add(1, Ordering::Relaxed);
            riders.len()
        } else {
            break;
        };
        if riders > 0 {
            shared
                .stats
                .acks_piggybacked
                .fetch_add(riders as u64, Ordering::Relaxed);
        }
        moved = true;
    }
    if moved {
        ring.space.notify_all();
    }
    if inner.is_idle() {
        Refill::Emptied
    } else {
        Refill::CutShort
    }
}

/// Appends one `len · ack_count · acks · payload` frame to the staging
/// buffer, recording its end boundary for error rewind. The payload comes
/// in two pieces, as a ring record that wraps does.
fn stage_frame(conn: &mut OutConn, acks: &[PiggyAck], payload: (&[u8], &[u8])) {
    if conn.staged_at.is_none() {
        conn.staged_at = Some(Instant::now());
    }
    let hdr = conn.wbuf.len();
    conn.wbuf.extend_from_slice(&[0u8; 4]);
    conn.wbuf
        .extend_from_slice(&(acks.len() as u16).to_le_bytes());
    for ack in acks {
        ack.encode(&mut conn.wbuf);
    }
    conn.wbuf.extend_from_slice(payload.0);
    conn.wbuf.extend_from_slice(payload.1);
    let body_len = conn.wbuf.len() - hdr - 4;
    conn.wbuf[hdr..hdr + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    conn.bounds.push(conn.wbuf.len());
}

/// One coalesced write. On error, frames fully written are counted sent,
/// the straddled frame rewinds to its start (it re-sends whole on the next
/// connection — the peer's decoder died with the partial prefix), and a
/// reconnect is requested.
fn write_staged(shared: &Shared, addr: SocketAddr, conn: &mut OutConn) -> bool {
    let Some(stream) = conn.stream.as_mut() else {
        return false;
    };
    match stream.write(&conn.wbuf[conn.written..]) {
        Ok(0) => {
            conn.stream = None;
            shared.request_connect(addr);
            false
        }
        Ok(n) => {
            conn.written += n;
            shared
                .stats
                .bytes_written
                .fetch_add(n as u64, Ordering::Relaxed);
            if conn.written == conn.wbuf.len() {
                let frames = conn.bounds.len() as u64;
                shared
                    .stats
                    .frames_sent
                    .fetch_add(frames, Ordering::Relaxed);
                if frames > 1 {
                    shared
                        .stats
                        .coalesced_writes
                        .fetch_add(1, Ordering::Relaxed);
                }
                conn.wbuf.clear();
                conn.bounds.clear();
                conn.written = 0;
                conn.staged_at = None;
            }
            true
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock => false,
        Err(e) if e.kind() == ErrorKind::Interrupted => false,
        Err(_) => {
            let keep = conn.bounds.partition_point(|&b| b <= conn.written);
            shared
                .stats
                .frames_sent
                .fetch_add(keep as u64, Ordering::Relaxed);
            let cut = if keep > 0 { conn.bounds[keep - 1] } else { 0 };
            conn.wbuf.drain(..cut);
            conn.bounds.drain(..keep);
            for b in &mut conn.bounds {
                *b -= cut;
            }
            conn.written = 0;
            conn.stream = None;
            shared.request_connect(addr);
            true
        }
    }
}

/// Establishes outbound connections with bounded, jittered backoff; a
/// destination that exhausts its budget is declared dead and its queued
/// frames are purged and counted (see [`WireStats::dropped_dead`]).
fn connector_loop(shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let due: Option<SocketAddr> = {
            let mut jobs = shared.jobs.lock().expect("jobs lock");
            let now = Instant::now();
            match jobs
                .iter()
                .filter(|(_, j)| !j.busy)
                .map(|(&a, j)| (a, j.next_at))
                .min_by_key(|&(_, at)| at)
            {
                Some((addr, at)) if at <= now => {
                    jobs.get_mut(&addr).expect("job exists").busy = true;
                    Some(addr)
                }
                Some((_, at)) => {
                    let wait = at.duration_since(now).min(Duration::from_millis(50));
                    let _unused = shared.jobs_cv.wait_timeout(jobs, wait).expect("jobs lock");
                    None
                }
                None => {
                    let _unused = shared
                        .jobs_cv
                        .wait_timeout(jobs, Duration::from_millis(50))
                        .expect("jobs lock");
                    None
                }
            }
        };
        let Some(addr) = due else {
            continue;
        };
        let attempt = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT);
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        match attempt {
            Ok(stream) => {
                jobs.remove(&addr);
                drop(jobs);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(true);
                let target = shared.shard_of(addr);
                let mut inbox = shared.shards[target]
                    .inbox
                    .lock()
                    .expect("shard inbox lock");
                inbox.established.push((addr, stream));
                inbox.nudged = true;
                shared.shards[target].cv.notify_one();
            }
            Err(_) => {
                let Some(job) = jobs.get_mut(&addr) else {
                    continue; // revived (or shut down) mid-attempt
                };
                job.busy = false;
                match job.backoff.next_delay() {
                    Some(delay) => job.next_at = Instant::now() + delay,
                    None => {
                        // Dead before the jobs lock drops: a request in
                        // between would queue a fresh job, whose own
                        // give-up could land after `set_route` revived the
                        // address and purge the revived route's first frame.
                        jobs.remove(&addr);
                        {
                            let mut dead = shared.dead.lock().expect("dead lock");
                            dead.insert(addr);
                            shared.dead_len.store(dead.len(), Ordering::Relaxed);
                        }
                        drop(jobs);
                        shared.purge_rings_for(addr);
                        // The owning shard folds any staged frames in on
                        // its next sweep.
                        shared.shards[shared.shard_of(addr)].nudge();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageBody, MsgId, MsgSeqNo, ProcessId};

    fn env(to: Endpoint, seq: u64, payload: Vec<u8>) -> Envelope {
        Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(seq),
            },
            to,
            MessageBody::Application {
                payload,
                dirty: false,
            },
        )
    }

    /// Stats update in the shard thread just after the syscall, so a
    /// receiver can observe delivery before the counter moves: poll.
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn ack_env(to: Endpoint, seq: u64) -> Envelope {
        Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(1_000_000 + seq),
            },
            to,
            MessageBody::Ack {
                of: MsgId {
                    from: ProcessId(2),
                    seq: MsgSeqNo(seq),
                },
            },
        )
    }

    #[test]
    fn two_reactors_exchange_fifo_streams() {
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let b = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let rx = b.register(p2);
        a.set_route(p2, b.local_addr());
        for i in 0..200 {
            a.send(env(p2, i, vec![i as u8]));
        }
        let got: Vec<u64> = (0..200)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("delivered")
                    .id
                    .seq
                    .0
            })
            .collect();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
        assert_eq!(a.stats().frames_enqueued, 200);
        wait_for("all frames counted sent", || a.stats().frames_sent >= 200);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn unrouted_sends_are_dropped_and_typed() {
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let to: Endpoint = ProcessId(9).into();
        assert!(matches!(
            a.try_send(&env(to, 0, vec![])),
            Err(SendError::NoRoute { .. })
        ));
        a.send(env(to, 1, vec![])); // fire-and-forget parity: silent

        // Routed but unregistered at the receiver: dropped at dispatch,
        // and the connection carries on to the endpoint that is there.
        let b = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let rx = b.register(p2);
        a.set_route(to, b.local_addr());
        a.set_route(p2, b.local_addr());
        a.send(env(to, 2, vec![]));
        a.send(env(p2, 3, vec![]));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().id.seq.0, 3);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn acks_piggyback_on_data_frames() {
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let b = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let rx = b.register(p2);
        a.set_route(p2, b.local_addr());
        for seq in 0..10 {
            a.send(ack_env(p2, seq));
        }
        a.send(env(p2, 99, vec![9]));
        // All 10 acks and the data envelope arrive, acks re-materialized.
        let mut acks = 0;
        let mut data = 0;
        for _ in 0..11 {
            let e = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
            match e.body {
                MessageBody::Ack { .. } => acks += 1,
                _ => data += 1,
            }
        }
        assert_eq!((acks, data), (10, 1));
        wait_for("every ack counted exactly once", || {
            let stats = a.stats();
            stats.acks_piggybacked + stats.acks_standalone == 10
        });
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn acks_flush_standalone_when_no_data_pends() {
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let b = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let rx = b.register(p2);
        a.set_route(p2, b.local_addr());
        for seq in 0..3 {
            a.send(ack_env(p2, seq));
        }
        for _ in 0..3 {
            let e = rx.recv_timeout(Duration::from_secs(5)).expect("acks flush");
            assert!(matches!(e.body, MessageBody::Ack { .. }));
        }
        wait_for("a standalone ack carrier", || {
            a.stats().acks_standalone >= 1
        });
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn stalled_peer_surfaces_typed_backpressure() {
        // A listener that accepts but never reads: once the kernel buffers
        // fill, the ring fills, and try_send must return Backpressure
        // within a bounded time — never hang, never grow unbounded. The
        // blocking send then gives up after `send_stall` and counts the
        // drop.
        let send_stall = Duration::from_millis(100);
        let policy = WirePolicy {
            queue_bytes: 32 * 1024,
            send_stall,
            ..WirePolicy::default()
        };
        let a = ReactorTransport::bind_with("127.0.0.1:0", policy).unwrap();
        let stall = TcpListener::bind("127.0.0.1:0").unwrap();
        let stall_addr = stall.local_addr().unwrap();
        let _keep_accepting = std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((s, _)) = stall.accept() {
                held.push(s); // hold the socket open, read nothing
            }
        });
        let p2: Endpoint = ProcessId(2).into();
        a.set_route(p2, stall_addr);
        let payload = vec![0u8; 4096];
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut seq = 0;
        let hit = loop {
            assert!(
                Instant::now() < deadline,
                "no backpressure after 20s: {:?}",
                a.stats()
            );
            match a.try_send(&env(p2, seq, payload.clone())) {
                Ok(()) => seq += 1,
                Err(SendError::Backpressure {
                    queued_bytes,
                    capacity,
                    ..
                }) => break (queued_bytes, capacity),
                Err(other) => panic!("unexpected error: {other}"),
            }
        };
        assert!(hit.0 <= hit.1, "queued {} within capacity {}", hit.0, hit.1);
        assert!(a.stats().backpressure_errors >= 1);
        assert_eq!(a.stats().backpressure_dropped, 0, "try_send drops nothing");
        // A full ring can still drain into kernel buffers that have room;
        // keep sending until the peer's stall reaches the ring, and time
        // the send that gives up.
        let waited = loop {
            assert!(Instant::now() < deadline, "no drop: {:?}", a.stats());
            let started = Instant::now();
            a.send(env(p2, seq, payload.clone()));
            seq += 1;
            if a.stats().backpressure_dropped > 0 {
                break started.elapsed();
            }
        };
        assert!(
            waited >= send_stall && waited < send_stall + Duration::from_secs(2),
            "send gave up after {waited:?}, stall is {send_stall:?}"
        );
        assert_eq!(a.stats().backpressure_dropped, 1);
        a.shutdown();
    }

    #[test]
    fn envelope_larger_than_the_ring_fails_at_once() {
        // 300 KiB against the default 256 KiB ring: draining never makes
        // room, so neither path may wait for it.
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let b = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let rx = b.register(p2);
        a.set_route(p2, b.local_addr());
        let big = env(p2, 0, vec![0; 300 * 1024]);
        match a.try_send(&big) {
            Err(SendError::TooLarge {
                bytes, capacity, ..
            }) => assert!(bytes > capacity && capacity == DEFAULT_QUEUE_BYTES),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let started = Instant::now();
        a.send(big);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "send waited {:?} for room that never comes",
            started.elapsed()
        );
        let stats = a.stats();
        assert_eq!(
            (
                stats.frames_enqueued,
                stats.backpressure_errors,
                stats.backpressure_dropped
            ),
            (0, 0, 0)
        );
        // The route still carries what fits.
        a.send(env(p2, 1, vec![1]));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().id.seq.0, 1);
        a.shutdown();
        b.shutdown();
    }

    /// Records in `inner`'s ring whose bytes, length prefix included, run
    /// past the end of its storage into the start.
    fn straddling_records(inner: &RingInner) -> usize {
        let split = inner.bytes.as_slices().0.len();
        let (mut at, mut straddling) = (0, 0);
        while at < inner.bytes.len() {
            let len = u32::from_le_bytes(std::array::from_fn(|i| inner.bytes[at + i])) as usize;
            if at < split && at + 4 + len > split {
                straddling += 1;
            }
            at += 4 + len;
        }
        straddling
    }

    /// Stages exactly one frame from `ring` (refilling stops once the
    /// staging buffer reaches `FLUSH_TARGET`), decodes it into `got`, and
    /// empties the staging buffer. Returns whether a frame was staged.
    fn flush_one(
        shared: &Shared,
        ring: &RouteRing,
        conn: &mut OutConn,
        got: &mut Vec<Envelope>,
    ) -> bool {
        let pad = FLUSH_TARGET - 1;
        conn.wbuf.resize(pad, 0);
        let refill = refill_from_ring(shared, ring, conn, &mut Vec::new());
        assert_eq!(
            refill == Refill::CutShort,
            !ring.inner.lock().unwrap().is_idle(),
            "cut short exactly when the ring still holds something"
        );
        let mut dec = FrameDecoder::new();
        dec.drain_chunk(&conn.wbuf[pad..], |e| got.push(e))
            .expect("staged frames decode");
        assert_eq!(dec.buffered(), 0, "a whole frame was staged");
        conn.wbuf.clear();
        conn.bounds.clear();
        refill != Refill::Idle
    }

    #[test]
    fn records_straddling_the_ring_wrap_flush_once_and_in_order() {
        // A 1 KiB ring drained a frame at a time while it refills, so its
        // records wrap round the end of its storage. Driven by hand: the
        // ring is not registered, so the transport's shards never touch it.
        const CAPACITY: usize = 1024;
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let ring = RouteRing {
            inner: Mutex::new(RingInner::new(a.local_addr())),
            space: Condvar::new(),
        };
        let mut conn = OutConn::new();
        let (mut sent, mut got) = (Vec::new(), Vec::new());
        let mut acks = 0u64;
        let (mut reserved, mut straddled, mut full) = (None, 0, 0);
        for step in 0..600u64 {
            for _ in 0..step % 6 {
                let seq = sent.len() as u64;
                let data = env(p2, seq, vec![seq as u8; (seq * 7 % 61) as usize]);
                match ring.inner.lock().unwrap().enqueue(&data, CAPACITY) {
                    Ok(true) => sent.push(data),
                    Err(SendError::Backpressure { .. }) => {
                        full += 1;
                        break;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            if step % 3 == 0 {
                let ack = ack_env(p2, acks);
                let queued = ring.inner.lock().unwrap().enqueue(&ack, CAPACITY);
                assert!(matches!(queued, Ok(false)), "acks piggyback");
                acks += 1;
            }
            {
                let inner = ring.inner.lock().unwrap();
                if inner.frames > 0 {
                    let first = *reserved.get_or_insert(inner.bytes.capacity());
                    assert_eq!(inner.bytes.capacity(), first, "the ring grew");
                }
                straddled += straddling_records(&inner);
            }
            for _ in 0..step % 3 + 1 {
                flush_one(&a.shared, &ring, &mut conn, &mut got);
            }
        }
        while flush_one(&a.shared, &ring, &mut conn, &mut got) {}

        let inner = ring.inner.lock().unwrap();
        assert_eq!((inner.bytes.len(), inner.frames), (0, 0));
        let reserved = reserved.expect("data was queued");
        assert!(reserved >= CAPACITY);
        assert_eq!(inner.bytes.capacity(), reserved, "the ring grew");
        drop(inner);
        assert!(
            straddled > 0 && full > 0,
            "{straddled} straddling, {full} full"
        );

        let (acked, data): (Vec<Envelope>, Vec<Envelope>) =
            got.into_iter().partition(|e| e.body.is_ack());
        assert_eq!(data, sent, "every data frame once, in order");
        let mut acked: Vec<u64> = acked
            .iter()
            .map(|e| match e.body {
                MessageBody::Ack { of } => of.seq.0,
                _ => unreachable!(),
            })
            .collect();
        acked.sort_unstable();
        assert_eq!(acked, (0..acks).collect::<Vec<_>>(), "every ack once");
        let stats = a.stats();
        assert!(
            stats.acks_piggybacked > 0 && stats.acks_standalone > 0,
            "{stats:?}"
        );
        assert_eq!(stats.acks_piggybacked + stats.acks_standalone, acks);
        a.shutdown();
    }

    #[test]
    fn pacing_sleeps_only_on_work_that_is_not_ready() {
        let base = Wait::For(SWEEP_TIMEOUT);
        let ms = |n| Wait::For(Duration::from_millis(n));
        let quiet = Sweep {
            pollable: true,
            ..Sweep::default()
        };
        let moved = Sweep {
            progress: true,
            ..quiet
        };
        let unripe = Some(Duration::from_micros(150));
        // (case, sweep, backoff rung before, wait, rung after)
        let cases = [
            ("dormant", Sweep::default(), 2, Wait::UntilNudged, 2),
            ("nothing moved", quiet, 0, base, 1),
            ("nothing moved, doubled", quiet, 1, ms(1), 2),
            ("nothing moved, doubled twice", quiet, 2, ms(2), 3),
            ("nothing moved, capped", quiet, 3, ms(4), 4),
            ("nothing moved, long capped", quiet, 40, ms(4), 41),
            ("moved", moved, 3, base, 1),
            (
                "moved with nothing left to poll",
                Sweep {
                    pollable: false,
                    ..moved
                },
                3,
                base,
                1,
            ),
            (
                "full batch behind a drained socket",
                Sweep {
                    backlog: true,
                    ..moved
                },
                3,
                Wait::None,
                0,
            ),
            (
                "partially written socket",
                Sweep {
                    unwritten: true,
                    ..moved
                },
                3,
                base,
                0,
            ),
            (
                "partially written socket, nothing moved",
                Sweep {
                    unwritten: true,
                    ..quiet
                },
                3,
                base,
                3,
            ),
            (
                "unripe batch",
                Sweep {
                    ripens_in: unripe,
                    ..moved
                },
                3,
                Wait::For(Duration::from_micros(150)),
                0,
            ),
            (
                "unripe batch beside a partial write",
                Sweep {
                    ripens_in: unripe,
                    unwritten: true,
                    ..quiet
                },
                0,
                Wait::For(Duration::from_micros(150)),
                0,
            ),
            (
                "ripening capped at the poll period",
                Sweep {
                    ripens_in: Some(Duration::from_millis(3)),
                    ..quiet
                },
                0,
                base,
                0,
            ),
        ];
        for (case, sweep, rung, wait, next) in cases {
            let mut streak = rung;
            assert_eq!((pace(&sweep, &mut streak), streak), (wait, next), "{case}");
        }
    }

    #[test]
    fn bounded_reconnect_gives_up_and_set_route_revives() {
        let policy = WirePolicy {
            reconnect: ReconnectPolicy {
                backoff_start: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                max_attempts: Some(3),
                jitter_seed: 9,
            },
            ..WirePolicy::default()
        };
        let a = ReactorTransport::bind_with("127.0.0.1:0", policy).unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let addr = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        a.set_route(p2, addr);
        a.send(env(p2, 0, vec![]));
        // Giving up purges the queued frame into the drop count.
        wait_for("the connector to give up", || a.stats().dropped_dead >= 1);
        // Later sends are dropped-and-counted, not queued behind a corpse.
        assert!(matches!(
            a.try_send(&env(p2, 1, vec![])),
            Err(SendError::RouteDead { addr: dead }) if dead == addr
        ));
        a.send(env(p2, 2, vec![]));
        assert_eq!(a.stats().dropped_dead, 3, "queued, rejected and sent");
        // set_route revives the address: the next send is delivered.
        let late = ReactorTransport::bind(addr).expect("port still free");
        let rx = late.register(p2);
        a.set_route(p2, addr);
        a.send(env(p2, 3, vec![3]));
        // On a timeout the counters tell a dropped frame from a slow one.
        let got = rx.recv_timeout(Duration::from_secs(5)).ok();
        assert_eq!(
            got.map(|e| e.id.seq.0),
            Some(3),
            "sender {:?}, receiver {:?}",
            a.stats(),
            late.stats()
        );
        a.shutdown();
        late.shutdown();
    }

    #[test]
    fn connector_backs_off_until_the_peer_appears() {
        // Reserve a port, drop the listener, route to it, and send: the
        // connector must keep retrying with backoff until a listener
        // exists — a briefly-down peer costs latency, not messages.
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let addr = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        a.set_route(p2, addr);
        a.send(env(p2, 7, vec![7]));
        std::thread::sleep(Duration::from_millis(60)); // a few failed attempts
        let late = TcpListener::bind(addr).expect("port still free");
        let (mut conn, _) = late.accept().expect("connector reconnects");
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let got = loop {
            let n = conn.read(&mut buf).expect("frame arrives");
            assert!(n > 0, "connection closed before the frame arrived");
            dec.push(&buf[..n]);
            if let Some(env) = dec.next_envelope().unwrap() {
                break env;
            }
        };
        assert_eq!(got.id.seq.0, 7, "the queued frame is sent, not lost");
        a.shutdown();
    }

    #[test]
    fn route_update_redirects_to_a_restarted_peer() {
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let b1 = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let rx1 = b1.register(p2);
        a.set_route(p2, b1.local_addr());
        a.send(env(p2, 0, vec![0]));
        assert_eq!(
            rx1.recv_timeout(Duration::from_secs(5)).unwrap().id.seq.0,
            0
        );
        b1.shutdown();
        let b2 = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let rx2 = b2.register(p2);
        a.set_route(p2, b2.local_addr());
        a.send(env(p2, 1, vec![1]));
        assert_eq!(
            rx2.recv_timeout(Duration::from_secs(5)).unwrap().id.seq.0,
            1
        );
        a.shutdown();
        b2.shutdown();
    }

    #[test]
    fn thread_count_is_fixed_regardless_of_route_count() {
        // The whole point of the reactor: 16 routes, still `shards + 1`
        // transport threads. Verified structurally — the transport spawns
        // exactly its fixed thread set at bind and never again.
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let before = a.threads.lock().unwrap().len();
        assert_eq!(before, DEFAULT_SHARDS + 1);
        let mut peers = Vec::new();
        for i in 0..16 {
            let peer = ReactorTransport::bind("127.0.0.1:0").unwrap();
            let ep: Endpoint = ProcessId(10 + i).into();
            let _rx = peer.register(ep);
            a.set_route(ep, peer.local_addr());
            a.send(env(ep, u64::from(i), vec![i as u8]));
            peers.push(peer);
        }
        assert_eq!(
            a.threads.lock().unwrap().len(),
            before,
            "routes must not spawn threads"
        );
        a.shutdown();
        for p in peers {
            p.shutdown();
        }
    }

    #[test]
    fn coalescing_batches_many_frames_per_write() {
        let a = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let b = ReactorTransport::bind("127.0.0.1:0").unwrap();
        let p2: Endpoint = ProcessId(2).into();
        let rx = b.register(p2);
        a.set_route(p2, b.local_addr());
        // Burst before the connection exists: everything queues in the
        // ring and must flush as (far) fewer writes than frames.
        for i in 0..500 {
            a.send(env(p2, i, vec![0u8; 16]));
        }
        for _ in 0..500 {
            rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        }
        wait_for("sent count and a multi-frame write", || {
            let stats = a.stats();
            stats.frames_sent == 500 && stats.coalesced_writes >= 1
        });
        a.shutdown();
        b.shutdown();
    }
}
