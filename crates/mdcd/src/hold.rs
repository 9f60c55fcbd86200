//! Blocking-period hold queue shared by the engines.

use std::collections::VecDeque;

use crate::events::Event;

/// Queues events that may not be processed during a TB blocking period and
/// releases them in arrival order when the period ends.
#[derive(Clone, Debug, Default)]
pub(crate) struct HoldQueue {
    blocking: bool,
    held: VecDeque<Event>,
}

impl HoldQueue {
    pub(crate) fn is_blocking(&self) -> bool {
        self.blocking
    }

    pub(crate) fn start(&mut self) {
        self.blocking = true;
    }

    /// Ends the period; the caller then [`pop`](Self::pop)s what was held.
    pub(crate) fn end(&mut self) {
        self.blocking = false;
    }

    /// The oldest held event, if any remains.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.held.pop_front()
    }

    pub(crate) fn hold(&mut self, event: Event) {
        debug_assert!(self.blocking, "holding outside a blocking period");
        self.held.push_back(event);
    }

    /// Drops all held events (process restart).
    pub(crate) fn reset(&mut self) {
        self.blocking = false;
        self.held.clear();
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_and_releases_in_order() {
        let mut h = HoldQueue::default();
        h.start();
        assert!(h.is_blocking());
        h.hold(Event::BlockingStarted); // any events; variants are arbitrary here
        h.hold(Event::BlockingEnded);
        assert_eq!(h.len(), 2);
        h.end();
        assert!(!h.is_blocking());
        assert_eq!(h.pop(), Some(Event::BlockingStarted));
        assert_eq!(h.pop(), Some(Event::BlockingEnded));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn reset_discards_held_events() {
        let mut h = HoldQueue::default();
        h.start();
        h.hold(Event::BlockingStarted);
        h.reset();
        assert!(!h.is_blocking());
        assert_eq!(h.pop(), None);
    }
}
