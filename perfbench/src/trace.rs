//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, and the span that caused it. Spans
//! are kept in memory and written out once the run ends; a layer's self
//! time is its span's duration minus the time its child spans cover. With
//! tracing off every call is a branch and the closure, so the untraced run
//! measures the program, not the recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// Parent of the top-level spans (and the id every call returns when
/// tracing is off).
pub const ROOT: SpanId = u32::MAX;

/// Most spans written to the trace file; the aggregates still cover every
/// span recorded.
pub const MAX_WRITTEN: usize = 50_000;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call (`sim.tyr.run`) or harness structure (`pass`, `cell`).
    /// Harness names carry no dot.
    pub name: &'static str,
    /// The enclosing span, or [`ROOT`].
    pub parent: SpanId,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Summed self time in nanoseconds.
    pub total_ns: u64,
    /// Spans of this name.
    pub calls: u64,
}

/// Span recorder shared by one workload run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a pass-through.
    pub fn new(on: bool, run_id: u64) -> Self {
        Tracer { on, run_id, origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: 0 });
        id
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if self.on {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let v = f();
        self.close(id);
        v
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.total_ns += s.duration_ns().saturating_sub(children);
            e.calls += 1;
        }
        out
    }

    /// Renders the first [`MAX_WRITTEN`] spans as tab-separated lines:
    /// run id, span id, parent id (`-` for none), name, start and end in
    /// nanoseconds.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("run\tid\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate().take(MAX_WRITTEN) {
            let parent = if s.parent == ROOT { "-".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{:016x}\t{i}\t{parent}\t{}\t{}\t{}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true, 7);
        let outer = tr.open("cell", ROOT);
        tr.time("dfg.lower_tagged", outer, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.close(outer);
        let st = tr.self_times();
        let outer_span = tr.spans()[0];
        let inner_span = tr.spans()[1];
        assert_eq!(st["dfg.lower_tagged"].total_ns, inner_span.duration_ns());
        assert_eq!(st["cell"].total_ns, outer_span.duration_ns() - inner_span.duration_ns());
        assert!(tr.render_tsv().lines().count() == 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, 1);
        let id = tr.open("pass", ROOT);
        assert_eq!(tr.time("ir.mem_clone", id, || 5), 5);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }
}
