//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed at the benchmark's own call sites into
//! each crate. Passes that have no public entry point are added as
//! child spans from the program's own `PassStats`, laid end to end
//! from the parent's start (they ran sequentially on one thread); their
//! IDs carry the program's pass name in brackets. A span's name is
//! `<layer>.<what>`; the layer is the part before the first dot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cafa_engine::PassStats;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique ID: `<scope>/<name>[#n]`, the scope being
    /// workload/pass/app.
    pub id: String,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Offset from the tracer's epoch.
    pub start: Duration,
    /// Offset from the tracer's epoch.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so
/// the untraced run executes the same calls.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    scope: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            scope: String::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Sets the workload/pass/app prefix of the IDs that follow.
    pub fn set_scope(&mut self, scope: impl FnOnce() -> String) {
        if self.on {
            self.scope = scope();
        }
    }

    fn push(&mut self, name: &'static str, tag: &str, start: Duration, end: Duration) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            id: format!("{}/{name}{tag}#{idx}", self.scope),
            name,
            start,
            end,
            parent: self.stack.last().copied(),
        });
        idx
    }

    /// Opens a span nested in the innermost open one and returns its
    /// index (meaningless when the tracer is off).
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.epoch.elapsed();
        let idx = self.push(name, "", now, now);
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if self.on {
            let idx = self.stack.pop().expect("close matches an open");
            self.spans[idx].end = self.epoch.elapsed();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _ = self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Adds the program's own per-pass timings as children of span
    /// `parent` (an index from [`open`](Tracer::open)). `charge` maps a
    /// pass name to the span name it is charged to; unmapped passes
    /// stay in the parent's self time.
    pub fn reported(
        &mut self,
        parent: usize,
        passes: &PassStats,
        charge: fn(&str) -> Option<&'static str>,
    ) {
        if !self.on {
            return;
        }
        let mut at = self.spans[parent].start;
        for record in &passes.records {
            if let Some(name) = charge(record.name) {
                let tag = format!("[{}]", record.name);
                let idx = self.push(name, &tag, at, at + record.wall);
                self.spans[idx].parent = Some(parent);
                at += record.wall;
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, with self times.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            let parent = span
                .parent
                .map_or("null".to_owned(), |p| format!("\"{}\"", self.spans[p].id));
            let _ = writeln!(
                out,
                "{{\"id\": \"{}\", \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \
                 \"self_us\": {}, \"parent\": {parent}}}",
                span.id,
                span.name,
                span.start.as_micros(),
                span.end.as_micros(),
                own.as_micros(),
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of it covered by
/// its children (overlapping children are counted once, and a child is
/// clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = span.start;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.layer()).or_insert(Duration::ZERO) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            id: name.to_owned(),
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0,100) > analyze [10,80) > {hb [10,30), core [40,70)},
        // render [80,90).
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("core.analyze", 10, 80, Some(0)),
            span("hb.build", 10, 30, Some(1)),
            span("core.classify", 40, 70, Some(1)),
            span("core.render", 80, 90, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![ms(20), ms(20), ms(20), ms(30), ms(10)]);
        let total: Duration = selfs.iter().sum();
        assert_eq!(total, ms(100), "self times partition the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("bench.op", 0, 50, None),
            span("a.x", 10, 30, Some(0)),
            span("a.y", 20, 40, Some(0)),
            span("a.z", 45, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], ms(15));
    }

    #[test]
    fn layers_sum_self_time() {
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("core.analyze", 0, 90, Some(0)),
            span("hb.build", 0, 40, Some(1)),
            span("core.render", 90, 95, Some(0)),
        ];
        let layers = layer_self_times(&spans);
        assert_eq!(layers["bench"], ms(5));
        assert_eq!(layers["core"], ms(55));
        assert_eq!(layers["hb"], ms(40));
    }

    #[test]
    fn reported_passes_nest_under_the_open_span() {
        let mut passes = PassStats::default();
        passes.accumulate("hb-build", ms(3), 1);
        passes.accumulate("unmapped", ms(1), 1);
        passes.accumulate("classify", ms(2), 1);
        let mut t = Tracer::new(true);
        t.set_scope(|| "w/p0/app".to_owned());
        let analyze = t.open("core.analyze");
        t.reported(analyze, &passes, |p| match p {
            "hb-build" => Some("hb.build"),
            "classify" => Some("core.classify"),
            _ => None,
        });
        t.close();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].id, "w/p0/app/hb.build[hb-build]#1");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].start, spans[1].end, "laid end to end");
        assert_eq!(spans[2].duration(), ms(2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.set_scope(|| unreachable!("scope is not built when off"));
        let v = t.span("core.analyze", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
