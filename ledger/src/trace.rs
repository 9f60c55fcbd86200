//! In-memory spans around the calls the ledger makes into a layer.
//!
//! Spans are recorded from the ledger's own files only (spans inside the
//! crates are a later change): a span is `{id, parent, op, name, start,
//! end}`, spans of one operation share `op`, and a layer's self time is its
//! spans' duration minus the part their child spans cover. The tracer is
//! off for every block an end-to-end metric is computed from.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
pub struct Span {
    /// 1-based position in the trace.
    pub id: u32,
    /// Id of the enclosing span; 0 at the top level.
    pub parent: u32,
    /// The operation (mission, round, run) this span belongs to.
    pub op: u64,
    /// `<layer>.<call>`; the layer is the crate name.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and self time of every span of one name.
#[derive(Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus their children's.
    pub self_ns: u64,
}

/// The span recorder one workload run owns.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until [`set_on`](Self::set_on).
    pub fn new() -> Tracer {
        Tracer::with_capacity(0)
    }

    /// A tracer with room for `spans` spans up front, so that recording
    /// adds no reallocations to the allocation count it is armed beside.
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    /// Switches recording on or off (between blocks).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f`, recording it as a span named `name` of operation `op`
    /// when the tracer is on. `f` receives the tracer to open child spans.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&i| i as u32 + 1);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: index as u32 + 1,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.duration_ns();
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// The trace as JSON: self time per name, then every span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{{\n  \"workload\": \"{workload}\",\n  \"self_time\": {{"
        );
        let totals = self.totals();
        for (i, (name, t)) in totals.iter().enumerate() {
            let comma = if i + 1 < totals.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                t.count, t.total_ns, t.self_ns
            );
        }
        let _ = writeln!(s, "  }},\n  \"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                sp.id, sp.parent, sp.op, sp.name, sp.start_ns, sp.end_ns
            );
        }
        let _ = writeln!(s, "  ]\n}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new();
        tr.span("a.outer", 1, |tr| tr.span("b.inner", 1, |_| ()));
        assert!(tr.totals().is_empty());

        tr.set_on(true);
        tr.span("a.outer", 7, |tr| {
            tr.span("b.inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = tr.totals();
        let outer = totals["a.outer"];
        let inner = totals["b.inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(tr.durations_ns("b.inner").len(), 1);
        assert!(tr.to_json("w").contains("\"parent\": 1"));
    }
}
