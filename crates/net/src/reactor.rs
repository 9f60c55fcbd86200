//! A nonblocking sharded reactor transport: the live cluster's one TCP
//! wire.
//!
//! Envelopes travel as length-prefixed [`frame`](crate::frame)s over
//! plain TCP sockets, one long-lived connection per destination address.
//! Destinations are *addresses* that can change: a killed node restarts
//! on a fresh port, and the orchestrator repairs the survivors' routing
//! tables with [`ReactorTransport::set_route`]. Every socket runs
//! nonblocking on a **fixed thread count**: `shards` event-loop threads
//! (default [`DEFAULT_SHARDS`]) plus one connector thread, independent of
//! how many routes or peers exist.
//!
//! * **Sharding** — every socket is owned by exactly one shard thread, so
//!   no socket is ever touched concurrently. Outbound connections shard by
//!   destination port; inbound connections are dealt round-robin by the
//!   accepting shard (shard 0, which owns the listener). Shards sleep on a
//!   condvar with a short poll timeout — senders nudge the owning shard,
//!   and the timeout bounds inbound-read latency without OS readiness
//!   APIs, keeping the crate dependency-free.
//! * **Write coalescing** — sends don't write; they encode into a pooled
//!   per-route frame buffer (one encode, no per-frame allocation in the
//!   steady state). The owning shard drains every ring targeting an
//!   address into a single staging buffer and flushes it with **one**
//!   `write` syscall per connection per sweep — a `writev`-shaped batch of
//!   many frames, instead of one syscall per frame. Senders nudge the
//!   owning shard only when a ring turns idle→busy, so a sustained burst
//!   costs one wakeup, not one per frame.
//! * **Ack piggybacking** — ack envelopes don't consume ring capacity or
//!   their own frames; they wait in a [`PendingAcks`] queue and ride the
//!   header of the next outbound data frame to the same route
//!   ([`frame`](crate::frame) wire format v2). With no data to ride, the
//!   oldest ack is promoted to a standalone frame carrying the rest.
//! * **Backpressure** — rings are bounded ([`WirePolicy::queue_bytes`]).
//!   [`try_send`](ReactorTransport::try_send) surfaces overflow as a typed
//!   [`SendError::Backpressure`] instead of growing an unbounded queue;
//!   the fire-and-forget [`Transport`] path blocks for ring space up to
//!   [`WirePolicy::send_stall`], then drops and counts.
//!
//! Delivery semantics match the in-process transports: per-link FIFO for
//! data frames (one ordered ring riding one TCP stream), silent drops for
//! unrouted destinations, and reconnect-with-backoff under a
//! [`ReconnectPolicy`] — a briefly-down peer costs latency, not messages;
//! one that stays down past the budget shows in
//! [`gave_up_routes`](ReactorTransport::gave_up_routes). Acks may overtake
//! data queued behind them, and one another — safe because acks are
//! idempotent and order-free with respect to every message class,
//! themselves included (see [`AckTracker::on_ack`](crate::AckTracker::on_ack)
//! and DESIGN.md §12).

use core::fmt;
use std::collections::{HashMap, VecDeque};
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
pub const DEFAULT_SHARDS: usize = 2;

/// Default per-route outbound ring capacity in bytes.
pub const DEFAULT_QUEUE_BYTES: usize = 256 * 1024;

/// Target size of one coalesced write: a shard stops refilling a
/// connection's staging buffer past this many bytes.
const FLUSH_TARGET: usize = 64 * 1024;

/// A staging buffer smaller than this is not written until it has aged
/// [`COALESCE_WINDOW`]: at high fan-out each connection's share of one
/// sweep is a frame or two, and writing those eagerly degenerates into a
/// syscall per frame. Letting small batches ripen briefly restores
/// `writev`-shaped writes without materially delaying quiet links.
const WRITE_BATCH_MIN: usize = 4 * 1024;

/// How long a small staged batch may ripen before it is written anyway.
const COALESCE_WINDOW: Duration = Duration::from_micros(200);

/// Idle poll period: bounds inbound-read latency when no sender nudges the
/// shard.
const SWEEP_TIMEOUT: Duration = Duration::from_micros(500);

/// Consecutive sweeps that move fewer than [`BUSY_SWEEP_BYTES`] double the
/// poll period up to `SWEEP_TIMEOUT << IDLE_BACKOFF_MAX_SHIFT` (4ms):
/// quiescent shards cost ~1/8th the wakeups, and lightly-loaded shards
/// batch several sweeps' worth of traffic per wakeup instead of paying the
/// fixed sweep cost (timed wait, accept probe, would-block read) for a
/// handful of frames. A busy sweep or a nudge snaps back to
/// [`SWEEP_TIMEOUT`]. A shard with no listener, no inbound connections,
/// no rings, and nothing staged skips polling entirely and sleeps until
/// nudged.
const IDLE_BACKOFF_MAX_SHIFT: u32 = 3;

/// A sweep that moves at least this many bytes (read or written) is
/// saturated: keep polling at the base [`SWEEP_TIMEOUT`] so throughput is
/// not capped by the sweep period.
const BUSY_SWEEP_BYTES: usize = 32 * 1024;

/// Most acks a ring holds for piggybacking before further acks fall
/// through to ordinary encoded frames. Sized to absorb a full poll
/// period of ack-heavy traffic (a few hundred acks) while bounding the
/// queue to a few tens of kilobytes.
const MAX_PENDING_ACKS: usize = 1024;

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
/// counted and surfaced via [`ReactorTransport::gave_up_routes`], and
/// later sends to that address are dropped (and counted) until
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

/// A destination the connector gave up on, with the frames dropped since;
/// listed by [`ReactorTransport::gave_up_routes`] until
/// [`ReactorTransport::set_route`] revives the address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaveUpRoute {
    /// The unreachable destination address.
    pub addr: SocketAddr,
    /// Frames dropped on this route since the connector gave up.
    pub dropped: u64,
}

/// Tuning knobs for the reactor transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WirePolicy {
    /// Per-route outbound ring capacity; a full ring surfaces
    /// [`SendError::Backpressure`].
    pub queue_bytes: usize,
    /// Most acks piggybacked on one data frame (≤
    /// [`MAX_PIGGY_ACKS`](crate::MAX_PIGGY_ACKS)).
    pub max_piggy_acks: usize,
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
            max_piggy_acks: 32,
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
    /// No route for the destination (the fire-and-forget path drops these
    /// silently, like every other transport).
    NoRoute {
        /// The unrouted destination.
        to: Endpoint,
    },
    /// The route's address exhausted its reconnect budget and was declared
    /// dead; see [`ReactorTransport::gave_up_routes`].
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
    /// Envelopes dropped because their route was dead.
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

/// Most spare payload buffers a ring keeps for reuse; beyond this they are
/// freed rather than pooled.
const POOL_MAX: usize = 64;

/// One endpoint's bounded outbound queue. Each frame is one pooled
/// encode buffer — senders encode straight into a recycled `Vec`, the
/// owning shard memcpys it into the staging buffer and returns the `Vec`
/// to the pool, so the steady state allocates nothing per frame.
struct RouteRing {
    inner: Mutex<RingInner>,
    /// Signalled whenever the shard drains bytes out (or the route dies):
    /// what the blocking send path waits on.
    space: Condvar,
}

struct RingInner {
    addr: SocketAddr,
    /// Encoded frame payloads awaiting flush, oldest first.
    frames: VecDeque<Vec<u8>>,
    /// Bytes queued across `frames`, each counted with its 4-byte length
    /// prefix — what [`WirePolicy::queue_bytes`] bounds.
    queued: usize,
    /// Acks waiting to piggyback on the next flush from this ring.
    acks: PendingAcks,
    /// Spare payload buffers recycled between sends (`to_bytes_into`
    /// clears before encoding, so they come back dirty and leave clean).
    pool: Vec<Vec<u8>>,
}

impl RingInner {
    fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Whether the owning shard has nothing staged from this ring — the
    /// send path only nudges the shard on the idle→busy transition; a
    /// busy ring's shard is already awake or due within the sweep timeout.
    fn is_idle(&self) -> bool {
        self.frames.is_empty() && self.acks.is_empty()
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if self.pool.len() < POOL_MAX {
            self.pool.push(buf);
        }
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
    /// Addresses that exhausted the reconnect budget → frames dropped
    /// since. `set_route` to the address revives it.
    dead: Mutex<HashMap<SocketAddr, u64>>,
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
            && self.dead.lock().expect("dead lock").contains_key(&addr)
    }

    /// Records `count` drops on a dead address and wakes ring waiters.
    fn count_dead_drops(&self, addr: SocketAddr, count: u64) {
        if count == 0 {
            return;
        }
        let mut dead = self.dead.lock().expect("dead lock");
        *dead.entry(addr).or_insert(0) += count;
        self.dead_len.store(dead.len(), Ordering::Relaxed);
    }

    /// Asks the connector to (re)establish `addr` unless it is already
    /// pending or dead.
    fn request_connect(&self, addr: SocketAddr) {
        if self.is_dead(addr) {
            return;
        }
        let mut jobs = self.jobs.lock().expect("jobs lock");
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
            let dropped = inner.frames.len() as u64 + inner.acks.len() as u64;
            inner.frames.clear();
            inner.queued = 0;
            inner.acks.drain_for_frame(usize::MAX);
            drop(inner);
            self.count_dead_drops(addr, dropped);
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
            dead: Mutex::new(HashMap::new()),
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

    /// Destinations that exhausted the reconnect budget, and how many
    /// frames each has dropped since. Empty under a healthy cluster.
    pub fn gave_up_routes(&self) -> Vec<GaveUpRoute> {
        let mut routes: Vec<GaveUpRoute> = self
            .shared
            .dead
            .lock()
            .expect("dead lock")
            .iter()
            .map(|(&addr, &dropped)| GaveUpRoute { addr, dropped })
            .collect();
        routes.sort_by_key(|r| r.addr);
        routes
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
            self.shared.count_dead_drops(addr, 1);
            self.shared
                .stats
                .dropped_dead
                .fetch_add(1, Ordering::Relaxed);
            return Err(SendError::RouteDead { addr });
        }
        // A busy ring's shard is already awake (or due within the sweep
        // timeout), so only the idle→busy transition nudges — one futex
        // wake per batch instead of one per frame.
        let was_idle = inner.is_idle();
        // Acks piggyback: no ring bytes, no standalone frame — unless the
        // piggy queue is saturated, in which case fall through and encode
        // like data so the queue stays bounded too.
        if inner.acks.len() < MAX_PENDING_ACKS {
            if let Some(ack) = PiggyAck::from_envelope(envelope) {
                inner.acks.push(ack);
                drop(inner);
                if was_idle {
                    self.shared.shards[self.shared.shard_of(addr)].nudge();
                }
                return Ok(());
            }
        }
        let mut buf = inner.pool.pop().unwrap_or_default();
        if let Err(e) = to_bytes_into(envelope, &mut buf) {
            inner.recycle(buf);
            return Err(SendError::Frame(FrameError::Codec(e)));
        }
        if buf.len() + 2 > MAX_FRAME_LEN {
            let len = buf.len();
            inner.recycle(buf);
            return Err(SendError::Frame(FrameError::Oversized(len)));
        }
        let queued = inner.queued_bytes();
        if queued + 4 + buf.len() > self.shared.policy.queue_bytes {
            inner.recycle(buf);
            drop(inner);
            self.shared
                .stats
                .backpressure_errors
                .fetch_add(1, Ordering::Relaxed);
            // The shard may simply not have swept yet; make sure it does.
            self.shared.shards[self.shared.shard_of(addr)].nudge();
            return Err(SendError::Backpressure {
                to: envelope.to,
                addr,
                queued_bytes: queued,
                capacity: self.shared.policy.queue_bytes,
            });
        }
        inner.queued += 4 + buf.len();
        inner.frames.push_back(buf);
        drop(inner);
        self.shared
            .stats
            .frames_enqueued
            .fetch_add(1, Ordering::Relaxed);
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
                inner: Mutex::new(RingInner {
                    addr,
                    frames: VecDeque::new(),
                    queued: 0,
                    acks: PendingAcks::new(),
                    pool: Vec::new(),
                }),
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
    /// [`WireStats::backpressure_dropped`].
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
}

impl OutConn {
    fn new() -> OutConn {
        OutConn {
            stream: None,
            wbuf: Vec::new(),
            bounds: Vec::new(),
            written: 0,
            staged_at: None,
        }
    }

    /// Whether the staged batch should be written this sweep: big enough,
    /// old enough, or partially written already (finish what we started).
    fn ripe(&self) -> bool {
        self.written > 0
            || self.wbuf.len() >= WRITE_BATCH_MIN
            || self
                .staged_at
                .is_some_and(|at| at.elapsed() >= COALESCE_WINDOW)
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
    let mut idle_streak: u32 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut progress = false;
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
                progress = true;
            }
            for (addr, stream) in inbox.established.drain(..) {
                out.entry(addr).or_insert_with(OutConn::new).stream = Some(stream);
                progress = true;
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
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Read every inbound connection until it would block.
        let mut swept = 0usize;
        inbound.retain_mut(
            |conn| match drain_inbound(conn, &mut rbuf, &shared, &mut swept) {
                DrainOutcome::Idle => true,
                DrainOutcome::Progress => {
                    progress = true;
                    true
                }
                DrainOutcome::Closed => {
                    progress = true;
                    false
                }
            },
        );

        // Flush outbound: refill each connection's staging buffer from the
        // rings targeting its address, then one write per connection.
        let flush = flush_outbound(&shared, &rings_cache, &mut out);
        progress |= flush.progress;
        swept += flush.bytes;

        // Pace the loop: even after a productive sweep, sleep up to the
        // poll period (unless nudged) so the next sweep works on a batch
        // instead of busy-spinning on single frames — the poll-loop
        // analogue of blocking in `epoll_wait`. A sweep that moved real
        // volume holds the period at [`SWEEP_TIMEOUT`]; light sweeps let
        // it grow so their fixed costs amortize over bigger batches.
        // Rings and kernel socket buffers absorb a poll period of traffic
        // easily, so this trades a few ms of latency for
        // frame-per-syscall batching.
        let pollless = !progress
            && listener.is_none()
            && inbound.is_empty()
            && rings_cache.is_empty()
            && !flush.need_poll;
        if swept >= BUSY_SWEEP_BYTES {
            idle_streak = 0;
        }
        let mut inbox = handle.inbox.lock().expect("shard inbox lock");
        if pollless {
            // Nothing to poll at all: sleep until some event nudges this
            // shard (a send on an idle ring, a handed socket, a route
            // change, shutdown).
            while !inbox.nudged && !shared.shutdown.load(Ordering::SeqCst) {
                inbox = handle.cv.wait(inbox).expect("shard inbox lock");
            }
        } else if !inbox.nudged {
            // Staged-but-unwritten bytes snap the period back: the batch
            // must be written within ~one sweep of ripening.
            let shift = if flush.need_poll {
                0
            } else {
                let s = idle_streak.min(IDLE_BACKOFF_MAX_SHIFT);
                idle_streak = idle_streak.saturating_add(1);
                s
            };
            inbox = handle
                .cv
                .wait_timeout(inbox, SWEEP_TIMEOUT * (1 << shift))
                .expect("shard inbox lock")
                .0;
        }
        inbox.nudged = false;
    }
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

fn drain_inbound(
    conn: &mut InConn,
    rbuf: &mut [u8],
    shared: &Shared,
    swept: &mut usize,
) -> DrainOutcome {
    let mut any = false;
    loop {
        match conn.stream.read(rbuf) {
            Ok(0) => return DrainOutcome::Closed,
            Ok(n) => {
                any = true;
                *swept += n;
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

/// What one outbound sweep accomplished — and whether the shard must keep
/// polling (staged bytes on a live stream need write retries; nothing else
/// does, since every other outbound event arrives with a nudge).
struct FlushOutcome {
    progress: bool,
    need_poll: bool,
    /// Bytes actually written to sockets this sweep (backoff input).
    bytes: usize,
}

/// Moves ring contents into staging buffers and writes each connection
/// once.
fn flush_outbound(
    shared: &Shared,
    rings_cache: &[(SocketAddr, Vec<Arc<RouteRing>>)],
    out: &mut HashMap<SocketAddr, OutConn>,
) -> FlushOutcome {
    let mut progress = false;
    for (addr, rings) in rings_cache {
        let addr = *addr;
        // A dead address strands whatever was staged: fold it into the
        // drop count and forget the connection.
        if shared.is_dead(addr) {
            if let Some(conn) = out.remove(&addr) {
                shared.count_dead_drops(addr, conn.bounds.len() as u64);
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
            if refill_from_ring(shared, ring, conn) {
                progress = true;
            }
        }
    }
    // Write pass over every staged connection — including ones whose rings
    // were re-routed elsewhere after staging, so committed bytes still
    // drain to their original destination.
    let mut need_poll = false;
    let mut bytes = 0usize;
    for (&addr, conn) in out.iter_mut() {
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
        if conn.ripe() {
            let pending = conn.wbuf.len() - conn.written;
            progress |= write_staged(shared, addr, conn);
            bytes += pending.saturating_sub(conn.wbuf.len() - conn.written);
        }
        if !conn.wbuf.is_empty() && conn.stream.is_some() {
            need_poll = true;
        }
    }
    // Fold staged frames for dead addresses no ring targets anymore into
    // the drop counts (the cache pass can't see them).
    out.retain(|&addr, conn| {
        if !conn.wbuf.is_empty() && shared.is_dead(addr) {
            shared.count_dead_drops(addr, conn.bounds.len() as u64);
            return false;
        }
        true
    });
    FlushOutcome {
        progress,
        need_poll,
        bytes,
    }
}

/// Drains one ring into `conn.wbuf`: every staged data frame carries up
/// to the policy's ack cap in its header, and when data runs out the
/// remaining acks are promoted into standalone carrier frames (the oldest
/// ack becomes the carrying envelope, the rest ride its header) until the
/// pending-ack queue is dry or the staging buffer is full.
fn refill_from_ring(shared: &Shared, ring: &RouteRing, conn: &mut OutConn) -> bool {
    let mut inner = ring.inner.lock().expect("ring lock");
    if inner.is_idle() {
        return false;
    }
    let cap = shared
        .policy
        .max_piggy_acks
        .min(crate::frame::MAX_PIGGY_ACKS);
    let mut moved = false;
    while conn.wbuf.len() < FLUSH_TARGET {
        let mut acks = inner.acks.drain_for_frame(cap);
        if let Some(buf) = inner.frames.pop_front() {
            inner.queued -= 4 + buf.len();
            stage_frame(conn, &acks, &buf);
            inner.recycle(buf);
        } else if !acks.is_empty() {
            // No data to ride: promote the oldest ack to the carrying
            // frame.
            let carrier = acks.remove(0).into_envelope();
            let mut buf = inner.pool.pop().unwrap_or_default();
            to_bytes_into(&carrier, &mut buf).expect("infallible encode");
            stage_frame(conn, &acks, &buf);
            inner.recycle(buf);
            shared.stats.acks_standalone.fetch_add(1, Ordering::Relaxed);
        } else {
            break;
        }
        if !acks.is_empty() {
            shared
                .stats
                .acks_piggybacked
                .fetch_add(acks.len() as u64, Ordering::Relaxed);
        }
        moved = true;
    }
    if moved {
        ring.space.notify_all();
    }
    moved
}

/// Appends one `len · ack_count · acks · payload` frame to the staging
/// buffer, recording its end boundary for error rewind.
fn stage_frame(conn: &mut OutConn, acks: &[PiggyAck], payload: &[u8]) {
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
    conn.wbuf.extend_from_slice(payload);
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
/// frames are purged and counted (see
/// [`ReactorTransport::gave_up_routes`]).
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
                        jobs.remove(&addr);
                        drop(jobs);
                        {
                            let mut dead = shared.dead.lock().expect("dead lock");
                            dead.entry(addr).or_insert(0);
                            shared.dead_len.store(dead.len(), Ordering::Relaxed);
                        }
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
        // within a bounded time — never hang, never grow unbounded.
        let policy = WirePolicy {
            queue_bytes: 32 * 1024,
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
        a.shutdown();
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
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.gave_up_routes().is_empty() {
            assert!(Instant::now() < deadline, "connector failed to give up");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Later sends are dropped-and-counted, not queued behind a corpse.
        assert!(matches!(
            a.try_send(&env(p2, 1, vec![])),
            Err(SendError::RouteDead { .. })
        ));
        a.send(env(p2, 2, vec![]));
        // The dead entry appears before the async purge folds the queued
        // frame into its count, so poll for the final tally.
        wait_for("three drops on the dead route", || {
            let routes = a.gave_up_routes();
            routes.len() == 1 && routes[0].addr == addr && routes[0].dropped >= 3
        });
        // set_route revives the address.
        let late = ReactorTransport::bind(addr).expect("port still free");
        let rx = late.register(p2);
        a.set_route(p2, addr);
        assert!(a.gave_up_routes().is_empty(), "revived route is not dead");
        a.send(env(p2, 3, vec![3]));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().id.seq.0, 3);
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
