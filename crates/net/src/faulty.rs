//! A fault-injecting [`Transport`] wrapper for chaos campaigns.
//!
//! [`FaultyTransport`] models a *lossy wire underneath a retransmitting
//! link layer*. Each destination route gets a worker thread that applies,
//! in order, per envelope:
//!
//! 1. **Partition hold** — while a [`PartitionWindow`] from the plan is
//!    open, the route parks; held traffic flushes in order at heal time,
//!    so a partition is observable only as latency.
//! 2. **Bounded delay** — a uniform extra delay drawn from the per-route
//!    deterministic RNG stream.
//! 3. **Drop + retransmit** — each send attempt may be "dropped" by the
//!    wire; the link layer retries with doubling backoff (4 ms, capped at
//!    60 ms) up to 16 attempts, after which the frame is counted lost in
//!    [`FaultTotals::lost`] instead of vanishing unseen.
//! 4. **Ack duplication** — a successfully sent *ack* may be sent twice.
//!
//! Duplication is restricted to ack frames on purpose: after a global
//! rollback, senders rewind their sequence counters and legitimately reuse
//! `MsgId`s (that is exactly how the device observes post-rollback
//! repeats), so a receiver cannot dedup by id and the engines deliberately
//! deliver every application frame they see. Acks are the one idempotent
//! frame class — `AckTracker::on_ack` ignores an ack for an id it no
//! longer tracks — so they are the one class a chaos wire may duplicate
//! without changing protocol-visible behaviour.
//!
//! Per-route FIFO is preserved: a single worker per route applies faults
//! head-of-line, so injected delay never reorders frames within a route.
//! This matches the reliable-FIFO-channel assumption the protocols under
//! study make of their transport.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use synergy_des::DetRng;

use crate::fault::LinkFaultPlan;
use crate::message::{Endpoint, Envelope};
use crate::transport::Transport;

/// Send attempts per envelope before the link layer declares it lost.
const MAX_ATTEMPTS: u32 = 16;

/// Retransmit backoff `(start_ms, cap_ms)`, doubling per attempt.
const RETRY_MS: (u64, u64) = (4, 60);

/// Counters describing what the wrapper actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Attempt-level drops rolled by the wire (masked by retransmission
    /// unless the budget ran out).
    pub drops: u64,
    /// Ack frames sent twice.
    pub dups: u64,
    /// Frames whose attempt budget was exhausted.
    pub lost: u64,
}

#[derive(Default)]
struct Stats {
    drops: AtomicU64,
    dups: AtomicU64,
    lost: AtomicU64,
    pending: AtomicU64,
}

struct Shared<T: Transport> {
    inner: Arc<T>,
    plan: LinkFaultPlan,
    start: Instant,
    shutdown: AtomicBool,
    stats: Stats,
}

impl<T: Transport> Shared<T> {
    fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Sleeps out any open partition window.
    fn hold_for_partition(&self) {
        while !self.shutdown.load(Ordering::Relaxed) {
            let now = self.elapsed_ms();
            let Some(w) = self.plan.partitions.iter().find(|w| w.contains(now)) else {
                return;
            };
            let remaining = w.end_ms.saturating_sub(now);
            thread::sleep(Duration::from_millis(remaining.clamp(1, 5)));
        }
    }

    fn deliver(&self, env: Envelope, rng: &mut DetRng) {
        self.hold_for_partition();
        let (lo, hi) = self.plan.delay_ms;
        if hi > 0 {
            let delay = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
            thread::sleep(Duration::from_millis(delay));
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if self.plan.faults.roll_drop(rng) {
                self.stats.drops.fetch_add(1, Ordering::Relaxed);
                if attempt >= MAX_ATTEMPTS {
                    self.stats.lost.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let (start, cap) = RETRY_MS;
                let backoff = start.saturating_mul(1 << (attempt - 1).min(16)).min(cap);
                thread::sleep(Duration::from_millis(backoff));
                // Retransmission may straddle a heal boundary; re-check the
                // partition so retries do not punch through an open window.
                self.hold_for_partition();
                continue;
            }
            let duplicate = env.body.is_ack() && self.plan.faults.roll_duplicate(rng);
            self.inner.send(env.clone());
            if duplicate {
                self.stats.dups.fetch_add(1, Ordering::Relaxed);
                self.inner.send(env);
            }
            return;
        }
    }
}

/// Deterministic fault-injecting wrapper over any [`Transport`].
///
/// With an inert plan, `send` forwards synchronously with zero overhead.
/// Otherwise each route runs its own worker thread (see module docs). The
/// wrapper tracks in-flight envelopes so an orchestrator can quiesce on
/// [`pending`](Self::pending)` == 0` before comparing device streams.
pub struct FaultyTransport<T: Transport> {
    shared: Arc<Shared<T>>,
    routes: Mutex<HashMap<Endpoint, Sender<Envelope>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`, applying `plan` to every subsequent send.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`LinkFaultPlan::validate`].
    pub fn new(inner: Arc<T>, plan: LinkFaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid link fault plan: {e}");
        }
        FaultyTransport {
            shared: Arc::new(Shared {
                inner,
                plan,
                start: Instant::now(),
                shutdown: AtomicBool::new(false),
                stats: Stats::default(),
            }),
            routes: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Envelopes accepted but not yet handed to the inner transport (or
    /// counted lost). Zero means the chaos layer is drained.
    pub fn pending(&self) -> u64 {
        self.shared.stats.pending.load(Ordering::Relaxed)
    }

    /// Snapshot of the injected-fault counters.
    pub fn totals(&self) -> FaultTotals {
        let s = &self.shared.stats;
        FaultTotals {
            drops: s.drops.load(Ordering::Relaxed),
            dups: s.dups.load(Ordering::Relaxed),
            lost: s.lost.load(Ordering::Relaxed),
        }
    }

    /// Stops all route workers, discarding anything still queued.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.routes.lock().unwrap().clear();
        for handle in self.workers.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }

    fn route_sender(&self, to: Endpoint) -> Sender<Envelope> {
        let mut routes = self.routes.lock().unwrap();
        if let Some(tx) = routes.get(&to) {
            return tx.clone();
        }
        let (tx, rx) = channel::<Envelope>();
        let shared = Arc::clone(&self.shared);
        // One RNG stream per route: the realized fault schedule on a route
        // depends only on the plan seed and that route's traffic order.
        let mut rng = DetRng::new(shared.plan.seed).stream(&format!("route-{to}"));
        let handle = thread::Builder::new()
            .name(format!("chaos-{to}"))
            .spawn(move || {
                while let Ok(env) = rx.recv() {
                    if shared.shutdown.load(Ordering::Relaxed) {
                        shared.stats.pending.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                    shared.deliver(env, &mut rng);
                    shared.stats.pending.fetch_sub(1, Ordering::Relaxed);
                }
            })
            .expect("spawn chaos route worker");
        self.workers.lock().unwrap().push(handle);
        routes.insert(to, tx.clone());
        tx
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&self, envelope: Envelope) {
        if self.shared.plan.is_inert() {
            self.shared.inner.send(envelope);
            return;
        }
        self.shared.stats.pending.fetch_add(1, Ordering::Relaxed);
        if self.route_sender(envelope.to).send(envelope).is_err() {
            // Worker already shut down; the envelope is dropped on the
            // floor, which only happens during teardown.
            self.shared.stats.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl<T: Transport> Drop for FaultyTransport<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{LinkFaults, PartitionWindow};
    use crate::message::{MessageBody, MsgId, MsgSeqNo, ProcessId};

    /// Collects everything it is asked to send.
    #[derive(Default)]
    struct Sink {
        seen: Mutex<Vec<Envelope>>,
    }

    impl Transport for Sink {
        fn send(&self, envelope: Envelope) {
            self.seen.lock().unwrap().push(envelope);
        }
    }

    fn app_envelope(seq: u64) -> Envelope {
        Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(seq),
            },
            ProcessId(2),
            MessageBody::Application {
                payload: vec![seq as u8],
                dirty: false,
            },
        )
    }

    fn ack_envelope(seq: u64) -> Envelope {
        Envelope::new(
            MsgId {
                from: ProcessId(2),
                seq: MsgSeqNo(1 << 62 | seq),
            },
            ProcessId(1),
            MessageBody::Ack {
                of: MsgId {
                    from: ProcessId(1),
                    seq: MsgSeqNo(seq),
                },
            },
        )
    }

    fn drain(faulty: &FaultyTransport<Sink>) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while faulty.pending() > 0 {
            assert!(Instant::now() < deadline, "chaos wrapper failed to drain");
            thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn inert_plan_is_synchronous_passthrough() {
        let sink = Arc::new(Sink::default());
        let faulty = FaultyTransport::new(Arc::clone(&sink), LinkFaultPlan::inert(1));
        for seq in 0..10 {
            faulty.send(app_envelope(seq));
        }
        // No drain needed: the inert path never leaves the caller's thread.
        let seen = sink.seen.lock().unwrap();
        assert_eq!(seen.len(), 10);
        assert_eq!(faulty.totals(), FaultTotals::default());
    }

    #[test]
    fn drops_are_masked_by_retransmission() {
        let sink = Arc::new(Sink::default());
        let mut plan = LinkFaultPlan::inert(7);
        plan.faults = LinkFaults::new(0.4, 0.0);
        let faulty = FaultyTransport::new(Arc::clone(&sink), plan);
        for seq in 0..50 {
            faulty.send(app_envelope(seq));
        }
        drain(&faulty);
        let seen = sink.seen.lock().unwrap();
        let seqs: Vec<u64> = seen.iter().map(|e| e.id.seq.0).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>(), "exactly once, in order");
        let totals = faulty.totals();
        assert!(totals.drops > 0, "a 40% wire should have dropped something");
        assert_eq!(totals.lost, 0);
    }

    #[test]
    fn exhausted_budget_is_reported_not_hidden() {
        let sink = Arc::new(Sink::default());
        let mut plan = LinkFaultPlan::inert(3);
        plan.faults = LinkFaults::new(1.0, 0.0);
        let faulty = FaultyTransport::new(Arc::clone(&sink), plan);
        faulty.send(app_envelope(0));
        drain(&faulty);
        assert!(sink.seen.lock().unwrap().is_empty());
        let totals = faulty.totals();
        assert_eq!(totals.lost, 1);
        assert_eq!(
            totals.drops,
            u64::from(MAX_ATTEMPTS),
            "every attempt dropped"
        );
    }

    #[test]
    fn only_acks_are_ever_duplicated() {
        let sink = Arc::new(Sink::default());
        let mut plan = LinkFaultPlan::inert(11);
        plan.faults = LinkFaults::new(0.0, 1.0);
        let faulty = FaultyTransport::new(Arc::clone(&sink), plan);
        for seq in 0..5 {
            faulty.send(app_envelope(seq));
            faulty.send(ack_envelope(seq));
        }
        drain(&faulty);
        let seen = sink.seen.lock().unwrap();
        let apps = seen.iter().filter(|e| !e.body.is_ack()).count();
        let acks = seen.iter().filter(|e| e.body.is_ack()).count();
        assert_eq!(apps, 5, "application frames must not be duplicated");
        assert_eq!(acks, 10, "dup_prob=1 doubles every ack");
        assert_eq!(faulty.totals().dups, 5);
    }

    #[test]
    fn partition_holds_then_flushes_in_order() {
        let sink = Arc::new(Sink::default());
        let mut plan = LinkFaultPlan::inert(5);
        plan.partitions = vec![PartitionWindow {
            start_ms: 0,
            end_ms: 120,
        }];
        let faulty = FaultyTransport::new(Arc::clone(&sink), plan);
        for seq in 0..8 {
            faulty.send(app_envelope(seq));
        }
        thread::sleep(Duration::from_millis(40));
        assert!(
            sink.seen.lock().unwrap().is_empty(),
            "nothing crosses an open partition"
        );
        assert!(faulty.pending() > 0);
        drain(&faulty);
        let seen = sink.seen.lock().unwrap();
        let seqs: Vec<u64> = seen.iter().map(|e| e.id.seq.0).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>(), "heal flushes in order");
    }

    #[test]
    fn same_seed_same_realized_schedule() {
        let run = |seed: u64| -> (Vec<u64>, FaultTotals) {
            let sink = Arc::new(Sink::default());
            let mut plan = LinkFaultPlan::inert(seed);
            plan.faults = LinkFaults::new(0.5, 0.0);
            let faulty = FaultyTransport::new(Arc::clone(&sink), plan);
            for seq in 0..40 {
                faulty.send(app_envelope(seq));
            }
            drain(&faulty);
            let seen = sink
                .seen
                .lock()
                .unwrap()
                .iter()
                .map(|e| e.id.seq.0)
                .collect();
            (seen, faulty.totals())
        };
        let (a_seen, a_totals) = run(42);
        let (b_seen, b_totals) = run(42);
        assert_eq!(a_seen, b_seen);
        assert_eq!(a_totals, b_totals);
        let (_, c_totals) = run(43);
        assert_ne!(a_totals, c_totals, "different seed should differ somewhere");
    }
}
