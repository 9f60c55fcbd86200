//! Structured run traces.
//!
//! The experiment binaries that regenerate the paper's figures render these
//! traces as per-process timelines, so trace events carry only plain strings
//! and a time stamp — nothing protocol-specific.

use core::fmt;

use crate::time::SimTime;

/// One recorded occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual instant of the occurrence.
    pub time: SimTime,
    /// Name of the actor it happened at.
    pub actor: String,
    /// Machine-matchable kind tag, e.g. `"ckpt.type1"` or `"msg.send"`.
    pub kind: String,
    /// Free-form human detail.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:<8} {:<18} {}",
            self.time.to_string(),
            self.actor,
            self.kind,
            self.detail
        )
    }
}

/// An append-only collection of [`TraceEvent`]s for one run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// Creates an enabled, empty trace.
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// Disables recording; long statistical sweeps turn tracing off to avoid
    /// unbounded memory growth.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event (no-op while disabled).
    pub fn record(
        &mut self,
        time: SimTime,
        actor: impl Into<String>,
        kind: impl Into<String>,
        detail: impl Into<String>,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                time,
                actor: actor.into(),
                kind: kind.into(),
                detail: detail.into(),
            });
        }
    }

    /// Appends an event built by `make` — the closure (and therefore any
    /// string formatting inside it) only runs while recording is enabled, so
    /// `trace(false)` sweeps pay nothing for trace arguments.
    pub fn record_with<K, D>(
        &mut self,
        time: SimTime,
        actor: impl Into<String>,
        make: impl FnOnce() -> (K, D),
    ) where
        K: Into<String>,
        D: Into<String>,
    {
        if self.enabled {
            let (kind, detail) = make();
            self.events.push(TraceEvent {
                time,
                actor: actor.into(),
                kind: kind.into(),
                detail: detail.into(),
            });
        }
    }

    /// All recorded events in time order (the recording order).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events whose kind starts with `prefix`.
    pub fn by_kind<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.kind.starts_with(prefix))
    }

    /// Events recorded at the named actor.
    pub fn by_actor<'a>(&'a self, actor: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.actor == actor)
    }

    /// Renders the whole trace, one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record(SimTime::from_nanos(1), "P1act", "msg.send", "m1 -> P2");
        t.record(SimTime::from_nanos(2), "P2", "ckpt.type1", "B_k");
        t.record(SimTime::from_nanos(3), "P2", "msg.recv", "m1");
        t
    }

    #[test]
    fn filters_by_kind_prefix() {
        let t = sample();
        let msgs: Vec<_> = t.by_kind("msg.").collect();
        assert_eq!(msgs.len(), 2);
        let ckpts: Vec<_> = t.by_kind("ckpt").collect();
        assert_eq!(ckpts.len(), 1);
        assert_eq!(ckpts[0].detail, "B_k");
    }

    #[test]
    fn filters_by_actor() {
        let t = sample();
        assert_eq!(t.by_actor("P2").count(), 2);
        assert_eq!(t.by_actor("P1act").count(), 1);
    }

    #[test]
    fn disable_suppresses_recording() {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, "a", "k", "d");
        t.disable();
        assert!(!t.is_enabled());
        t.record(SimTime::ZERO, "a", "k", "d");
        assert_eq!(t.events().len(), 1, "only the enabled record lands");
    }

    #[test]
    fn record_with_skips_closure_while_disabled() {
        let mut t = Trace::new();
        let mut calls = 0;
        t.record_with(SimTime::ZERO, "a", || {
            calls += 1;
            ("k", format!("expensive {}", 42))
        });
        assert_eq!(calls, 1);
        assert_eq!(t.events()[0].detail, "expensive 42");
        t.disable();
        t.record_with(SimTime::ZERO, "a", || {
            calls += 1;
            ("k", "d")
        });
        assert_eq!(calls, 1, "closure must not run while disabled");
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn render_contains_every_event() {
        let t = sample();
        let text = t.render();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("ckpt.type1"));
        assert!(text.contains("m1 -> P2"));
    }
}
