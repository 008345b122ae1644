//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, the layer it times, a start, an end and the span
//! that was open when it began. Spans stay in memory while the run
//! measures and are written out once it ends. A layer's self time is its
//! spans' time minus the part their child spans cover; the time-by-layer
//! table adds an explicit `unattributed` row for traced wall time that no
//! span covers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bench::Stopwatch;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer (crate or crate part) the call belongs to.
    pub layer: &'static str,
    /// Seconds since the tracer started.
    pub start_s: f64,
    /// Seconds since the tracer started.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers, seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans when enabled; when disabled every call is a no-op and
/// reads no clock, so the untraced run pays nothing for it.
#[derive(Debug)]
pub struct Tracer {
    clock: Option<Stopwatch>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records spans (`enabled`) or ignores them.
    // simlint: allow(P1) — the tracer's job is reading the wall clock for spans
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            clock: enabled.then(Stopwatch::start),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    // simlint: allow(P1) — span timestamps are wall-clock readings by design
    fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        let Some(clock) = &self.clock else {
            return Open(None);
        };
        let now_s = clock.elapsed_s();
        self.spans.push(Span {
            name,
            layer,
            start_s: now_s,
            end_s: now_s,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span` (and any span left open inside it).
    // simlint: allow(P1) — span timestamps are wall-clock readings by design
    fn end(&mut self, span: Open) {
        let (Some(clock), Some(id)) = (&self.clock, span.0) else {
            return;
        };
        let now_s = clock.elapsed_s();
        while let Some(top) = self.open.pop() {
            if let Some(s) = self.spans.get_mut(top) {
                s.end_s = now_s;
            }
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, layer);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span. Children that overlap each
/// other (work on parallel threads) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = s.parent.and_then(|p| children.get_mut(p)) {
            kids.push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_s() - covered(s.start_s, s.end_s, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time per layer over `wall_s` of traced time, largest first, with
/// the `unattributed` remainder last.
pub fn layer_table(spans: &[Span], wall_s: f64) -> Vec<(String, f64)> {
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_insert(0.0) += self_s;
    }
    let attributed_s: f64 = by_layer.values().sum();
    let mut rows: Vec<(String, f64)> = by_layer
        .into_iter()
        .map(|(layer, s)| (layer.to_string(), s))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.push(("unattributed".to_string(), wall_s - attributed_s));
    rows
}

/// The table as aligned text lines.
pub fn render_table(title: &str, rows: &[(String, f64)], wall_s: f64) -> String {
    let mut out = format!("{title} (traced wall {wall_s:.3} s)\n");
    for (layer, s) in rows {
        let share = if wall_s > 0.0 {
            100.0 * s / wall_s
        } else {
            0.0
        };
        let _ = writeln!(out, "  {layer:<18} {s:>10.4} s {share:>6.1}%");
    }
    out
}

/// Spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
            s.name, s.layer, s.start_s, s.end_s
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: layer,
            layer,
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn nested_children_are_subtracted_from_the_parent() {
        let spans = vec![
            span("outer", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("inner", 5.0, 6.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 2.0, 3.0, 1.0]);
        let rows = layer_table(&spans, 12.0);
        let total: f64 = rows.iter().map(|r| r.1).sum();
        assert_eq!(total, 12.0, "self times plus remainder give the wall");
        assert_eq!(rows.last(), Some(&("unattributed".to_string(), 2.0)));
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children on parallel threads overlap on [3, 5].
        let spans = vec![
            span("outer", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 7.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 4.0);
    }

    #[test]
    fn children_past_the_parent_are_clipped() {
        let spans = vec![
            span("outer", 2.0, 6.0, None),
            span("a", 0.0, 3.0, Some(0)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 2.0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer", "x");
        tr.span("inner", "y", || ());
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
        assert!(to_jsonl(spans).lines().count() == 2);

        let mut off = Tracer::new(false);
        off.span("inner", "y", || ());
        assert!(off.spans().is_empty());
    }
}
