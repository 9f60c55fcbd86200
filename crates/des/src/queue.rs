//! Deterministic pending-event queue.
//!
//! Events are ordered by `(time, sequence)` where `sequence` is a strictly
//! increasing insertion counter, so ties at the same virtual instant fire in
//! scheduling (FIFO) order. This is the property that makes whole-system
//! replays bit-identical across runs.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::event::{ActorId, EventId};
use crate::time::SimTime;

#[derive(Debug)]
pub(crate) struct Entry<E> {
    pub time: SimTime,
    pub seq: u64,
    pub actor: ActorId,
    pub id: EventId,
    pub event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Min-heap of pending events with deterministic tie-breaking.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    pub(crate) fn push(&mut self, time: SimTime, actor: ActorId, id: EventId, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time,
            seq,
            actor,
            id,
            event,
        }));
    }

    pub(crate) fn pop(&mut self) -> Option<Entry<E>> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Ids of every entry still queued (cancelled tombstones included), in
    /// arbitrary order. The simulator refuses to cancel an id not among them.
    pub(crate) fn ids(&self) -> impl Iterator<Item = EventId> + '_ {
        self.heap.iter().map(|Reverse(e)| e.id)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> EventQueue<&'static str> {
        EventQueue::with_capacity(0)
    }

    #[test]
    fn orders_by_time() {
        let mut q = q();
        q.push(SimTime::from_nanos(30), ActorId(0), EventId(0), "c");
        q.push(SimTime::from_nanos(10), ActorId(0), EventId(1), "a");
        q.push(SimTime::from_nanos(20), ActorId(0), EventId(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_fifo_order() {
        let mut q = q();
        let t = SimTime::from_nanos(5);
        for (i, name) in ["first", "second", "third"].iter().enumerate() {
            q.push(t, ActorId(0), EventId(i as u64), name);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = q();
        assert!(q.is_empty());
        assert_eq!(q.ids().count(), 0);
        q.push(SimTime::from_nanos(7), ActorId(0), EventId(3), "x");
        assert_eq!(q.len(), 1);
        // Peeking at the queued ids leaves the entry in place.
        assert_eq!(q.ids().collect::<Vec<_>>(), [EventId(3)]);
        assert_eq!(q.pop().map(|e| e.time), Some(SimTime::from_nanos(7)));
        assert!(q.is_empty());
    }
}
