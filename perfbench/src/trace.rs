//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer: its name, start
//! and end (nanoseconds since the recorder was created), the span that
//! caused it, and the request it belongs to. Spans stay in memory while
//! the workload runs and are written out once it ends. A span's *self
//! time* is its duration minus the part of its interval that its child
//! spans cover.
//!
//! A disabled recorder (the untraced run) records nothing: `begin` and
//! `end` return at once, so the end-to-end figures carry no tracing cost.

use std::io::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Handle of an open span (`NONE` when the recorder is disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The root: no parent span.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `sim.epoch`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin (`u64::MAX` while open).
    pub end: u64,
    /// The causing span, if any.
    pub parent: Option<usize>,
    /// Request (operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds (0 while open).
    pub fn duration(&self) -> u64 {
        if self.end == u64::MAX {
            0
        } else {
            self.end.saturating_sub(self.start)
        }
    }
}

/// The recorder.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// `true` in the traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` for `request`.
    pub fn begin(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start = self.elapsed_ns();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(Span {
            name,
            start,
            end: u64::MAX,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            request,
        });
        SpanId(spans.len() - 1)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end = self.elapsed_ns();
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)[id.0].end = end;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f(id);
        self.end(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Durations (ms) of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name && s.end != u64::MAX)
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    }

    /// Writes every span, with its self time, as tab-separated lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selves = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns")?;
        for (i, (s, own)) in spans.iter().zip(&selves).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own (children may overlap when
/// they run on different threads).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Measured cost (ns) of one `begin`/`end` pair on an enabled recorder —
/// the per-span overhead the traced run reports.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let rec = Recorder::new(true);
    let t = Instant::now();
    for i in 0..N {
        let id = rec.begin("calibration", SpanId::NONE, i as u64);
        rec.end(id);
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children covering [10, 40) and [20, 60).
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(10, 20, None), span(5, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
        // A child covering the whole parent leaves no self time.
        let spans = [span(10, 20, None), span(0, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn open_spans_have_no_duration() {
        assert_eq!(span(5, u64::MAX, None).duration(), 0);
        assert_eq!(span(5, 9, None).duration(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        let v = rec.span("x", SpanId::NONE, 1, |id| {
            assert_eq!(id, SpanId::NONE);
            7
        });
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn enabled_recorder_links_parents() {
        let rec = Recorder::new(true);
        rec.span("outer", SpanId::NONE, 3, |outer| {
            rec.span("inner", outer, 3, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(rec.durations_ms("inner").len(), 1);
        assert!(span_cost_ns() > 0.0);
    }
}
