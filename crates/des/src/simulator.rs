//! The event loop core.

use std::collections::HashSet;

use crate::event::{ActorId, EventId, Fired};
use crate::queue::EventQueue;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// A deterministic discrete-event simulator.
///
/// The simulator is driver-agnostic: callers pop fired events with
/// [`step`](Simulator::step) and dispatch them however they like, scheduling
/// follow-up events back onto the simulator. This keeps protocol code free of
/// callback lifetimes while retaining a single, totally ordered timeline.
///
/// # Example
///
/// ```rust
/// use synergy_des::{Simulator, SimDuration};
///
/// let mut sim: Simulator<u32> = Simulator::new(0);
/// let actor = sim.register_actor("worker");
/// sim.schedule_in(SimDuration::from_secs(1), actor, 41);
/// while let Some(fired) = sim.step() {
///     if fired.event == 41 {
///         sim.schedule_in(SimDuration::from_secs(1), actor, 42);
///     }
/// }
/// assert_eq!(sim.now().as_secs_f64(), 2.0);
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    cancelled: HashSet<EventId>,
    next_event_id: u64,
    actor_names: Vec<String>,
    rng: DetRng,
    trace: Trace,
}

impl<E> Simulator<E> {
    /// Creates a simulator whose random streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_capacity(seed, 0)
    }

    /// Creates a simulator pre-sized for roughly `pending_hint` concurrently
    /// pending events. The hint bounds neither the queue nor correctness —
    /// it only avoids early heap regrowth on the mission hot path.
    pub fn with_capacity(seed: u64, pending_hint: usize) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(pending_hint),
            cancelled: HashSet::new(),
            next_event_id: 0,
            actor_names: Vec::new(),
            rng: DetRng::new(seed),
            trace: Trace::new(),
        }
    }

    /// Registers an actor and returns its id. Names are used in traces.
    pub fn register_actor(&mut self, name: impl Into<String>) -> ActorId {
        let id = ActorId(u32::try_from(self.actor_names.len()).expect("too many actors"));
        self.actor_names.push(name.into());
        id
    }

    /// The name given to `actor` at registration.
    ///
    /// # Panics
    ///
    /// Panics if `actor` was not registered with this simulator.
    pub fn actor_name(&self, actor: ActorId) -> &str {
        &self.actor_names[actor.index()]
    }

    /// Current virtual time (the fire time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Derives a deterministic random stream for `label`.
    pub fn rng_stream(&self, label: &str) -> DetRng {
        self.rng.stream(label)
    }

    /// Schedules `event` for `actor` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulator's past.
    pub fn schedule_at(&mut self, at: SimTime, actor: ActorId, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let id = EventId(self.next_event_id);
        self.next_event_id += 1;
        self.queue.push(at, actor, id, event);
        id
    }

    /// Schedules `event` for `actor` after the relative delay `after`.
    pub fn schedule_in(&mut self, after: SimDuration, actor: ActorId, event: E) -> EventId {
        self.schedule_at(self.now + after, actor, event)
    }

    /// Cancels a previously scheduled event. Returns `true` when the event
    /// was still pending: an id that already fired, was already cancelled
    /// or was never issued is refused and leaves nothing behind.
    ///
    /// Cancellation is lazy: the entry stays in the queue under a tombstone
    /// and is dropped when popped. Only queued ids get one (a scan of the
    /// queue, tens of entries on a mission), so every tombstone is collected
    /// by the pop it waits for and [`step`](Simulator::step) probes the set
    /// only while a cancellation is outstanding.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.ids().any(|pending| pending == id) && self.cancelled.insert(id)
    }

    /// Pops the next non-cancelled event, advancing virtual time to its fire
    /// instant. Returns `None` when the timeline is exhausted.
    pub fn step(&mut self) -> Option<Fired<E>> {
        while let Some(entry) = self.queue.pop() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.id) {
                continue;
            }
            debug_assert!(entry.time >= self.now);
            self.now = entry.time;
            return Some(Fired {
                time: entry.time,
                actor: entry.actor,
                id: entry.id,
                event: entry.event,
            });
        }
        None
    }

    /// The fire instant of the next pending event, if any. Cancelled events
    /// may be reported until they are popped.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of queued (possibly cancelled) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Structured trace recorder shared by all components of the run.
    pub fn trace(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Read-only access to the trace recorder.
    pub fn trace_ref(&self) -> &Trace {
        &self.trace
    }

    /// Whether trace recording is currently enabled. Callers with expensive
    /// trace arguments should gate on this (or use
    /// [`record_with`](Simulator::record_with)) so disabled sweeps format
    /// nothing.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Consumes the simulator, yielding its trace without cloning the
    /// recorded events.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Records a trace event at the current instant.
    pub fn record(&mut self, actor: ActorId, kind: impl Into<String>, detail: impl Into<String>) {
        if !self.trace.is_enabled() {
            return;
        }
        let name = self.actor_names[actor.index()].clone();
        let now = self.now;
        self.trace.record(now, name, kind, detail);
    }

    /// Records a trace event whose `(kind, detail)` pair is built lazily;
    /// `make` (and any formatting inside it) only runs while tracing is
    /// enabled.
    pub fn record_with<K, D>(&mut self, actor: ActorId, make: impl FnOnce() -> (K, D))
    where
        K: Into<String>,
        D: Into<String>,
    {
        if !self.trace.is_enabled() {
            return;
        }
        let name = self.actor_names[actor.index()].clone();
        let now = self.now;
        self.trace.record_with(now, name, make);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Simulator<&str> = Simulator::new(0);
        let a = sim.register_actor("a");
        sim.schedule_at(SimTime::from_nanos(20), a, "later");
        sim.schedule_at(SimTime::from_nanos(10), a, "sooner");
        assert_eq!(sim.step().unwrap().event, "sooner");
        assert_eq!(sim.now(), SimTime::from_nanos(10));
        assert_eq!(sim.step().unwrap().event, "later");
        assert!(sim.step().is_none());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut sim: Simulator<&str> = Simulator::new(0);
        let a = sim.register_actor("a");
        let id = sim.schedule_in(SimDuration::from_nanos(5), a, "dropped");
        sim.schedule_in(SimDuration::from_nanos(9), a, "kept");
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel reports false");
        let fired = sim.step().unwrap();
        assert_eq!(fired.event, "kept");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim: Simulator<&str> = Simulator::new(0);
        assert!(!sim.cancel(EventId(123)));
    }

    #[test]
    fn cancelling_a_fired_event_is_refused_and_leaves_no_tombstone() {
        let mut sim: Simulator<&str> = Simulator::new(0);
        let a = sim.register_actor("a");
        let id = sim.schedule_in(SimDuration::from_nanos(5), a, "fires");
        assert_eq!(sim.step().unwrap().id, id);
        assert!(!sim.cancel(id), "the event already fired");
        assert!(sim.cancelled.is_empty());
    }

    #[test]
    fn cancelled_event_never_fires_once_its_tombstone_is_the_only_one() {
        // `step` probes the tombstone set only while it is non-empty: the
        // one cancellation must still be honoured, be collected by the pop
        // it waited for, and leave later events untouched.
        let mut sim: Simulator<&str> = Simulator::new(0);
        let a = sim.register_actor("a");
        sim.schedule_in(SimDuration::from_nanos(1), a, "before");
        let id = sim.schedule_in(SimDuration::from_nanos(2), a, "dropped");
        sim.schedule_in(SimDuration::from_nanos(3), a, "after");
        assert_eq!(sim.step().unwrap().event, "before");
        assert!(sim.cancelled.is_empty(), "nothing to probe for yet");
        assert!(sim.cancel(id));
        assert_eq!(sim.step().unwrap().event, "after");
        assert!(sim.cancelled.is_empty(), "tombstone collected when popped");
        sim.schedule_in(SimDuration::from_nanos(1), a, "later");
        assert_eq!(sim.step().unwrap().event, "later");
        assert!(sim.step().is_none());
    }

    #[test]
    fn cancelled_set_stays_bounded_over_long_runs() {
        // Repeatedly schedule-then-cancel (the reschedule-a-timer pattern):
        // the tombstone set must not grow with mission length.
        let mut sim: Simulator<u32> = Simulator::new(0);
        let a = sim.register_actor("a");
        for i in 0..10_000 {
            let id = sim.schedule_in(SimDuration::from_nanos(5), a, i);
            sim.cancel(id);
            // Pop the tombstone so the queue drains like a real mission.
            while sim.step().is_some() {}
        }
        assert!(
            sim.cancelled.len() <= 32,
            "cancelled tombstones leaked: {}",
            sim.cancelled.len()
        );
    }

    #[test]
    fn pruning_preserves_pending_cancellations() {
        let mut sim: Simulator<u32> = Simulator::new(0);
        let a = sim.register_actor("a");
        // One far-future event we cancel and must *stay* cancelled across
        // prune sweeps triggered by later churn.
        let far = sim.schedule_at(SimTime::from_nanos(1_000_000), a, 999);
        sim.cancel(far);
        for i in 0..1000 {
            let id = sim.schedule_in(SimDuration::from_nanos(1), a, i);
            sim.cancel(id);
            while sim.step().is_some() {}
        }
        assert!(sim.step().is_none(), "cancelled far event must never fire");
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut sim: Simulator<&str> = Simulator::with_capacity(7, 64);
        let a = sim.register_actor("a");
        sim.schedule_in(SimDuration::from_nanos(3), a, "x");
        assert_eq!(sim.step().unwrap().event, "x");
        assert_eq!(
            sim.rng_stream("s").gen_range(0u64..100),
            Simulator::<u8>::new(7).rng_stream("s").gen_range(0u64..100),
            "seed derivation is capacity-independent"
        );
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim: Simulator<&str> = Simulator::new(0);
        let a = sim.register_actor("a");
        sim.schedule_at(SimTime::from_nanos(10), a, "x");
        sim.step();
        sim.schedule_at(SimTime::from_nanos(5), a, "bad");
    }

    #[test]
    fn identical_seeds_replay_identically() {
        fn run(seed: u64) -> Vec<(u64, u32)> {
            let mut sim: Simulator<u32> = Simulator::new(seed);
            let a = sim.register_actor("a");
            let mut rng = sim.rng_stream("jitter");
            for i in 0..50 {
                let jitter: u64 = rng.gen_range(0..1000);
                sim.schedule_at(SimTime::from_nanos(jitter), a, i);
            }
            let mut out = Vec::new();
            while let Some(f) = sim.step() {
                out.push((f.time.as_nanos(), f.event));
            }
            out
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn trace_records_at_current_time() {
        let mut sim: Simulator<&str> = Simulator::new(0);
        let a = sim.register_actor("proc");
        sim.schedule_at(SimTime::from_nanos(30), a, "tick");
        sim.step();
        sim.record(a, "ckpt", "type-1");
        let events = sim.trace_ref().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time, SimTime::from_nanos(30));
        assert_eq!(events[0].actor, "proc");
        assert_eq!(events[0].kind, "ckpt");
    }
}
