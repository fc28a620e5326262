//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions.
//!
//! A span has a name, start and end (nanoseconds since the tracer's epoch),
//! an optional parent and the id of the request it belongs to. Spans stay
//! in memory and are written as JSON lines when the run ends.
//!
//! The layered replay calls successively narrower surfaces one after the
//! other for the same request, so a parent's children are not nested in
//! time: a span's self time is its duration minus its children's durations,
//! which is the subtraction the replay exists to make.

use crate::stats::{percentile, ratio};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `server.handle`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for set-up and writes).
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span store for one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Time `f` as a span named `name`; returns its result and span index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, parent, request, start, end))
    }

    /// Record a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Record a span of known duration starting at `start` (used for the
    /// engine's own stage timings, laid end to end inside their call).
    pub fn record_for(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        length: Duration,
    ) -> usize {
        self.record(name, parent, request, start, start + length)
    }

    /// Move every span of `other` into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = |ns: u64| {
            let offset = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
            ns + offset
        };
        let moved: Vec<Span> = other
            .spans
            .iter()
            .map(|s| Span {
                start_ns: shift(s.start_ns),
                end_ns: shift(s.end_ns),
                parent: s.parent.map(|p| p + base),
                ..s.clone()
            })
            .collect();
        self.spans.extend(moved);
    }

    /// Every span recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of each span: duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Run `f` and return its result with its duration in ms, recording a
/// span named `name` when a tracer is given.
pub fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let started = Instant::now();
    let out = match tracer {
        Some(t) => t.time(name, None, 0, f).0,
        None => f(),
    };
    (out, crate::stats::ms(started.elapsed()))
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: usize,
    /// Sum of their durations, ms.
    pub busy_ms: f64,
    /// Median duration, ms.
    pub p50_ms: Option<f64>,
    /// 95th percentile duration, ms.
    pub p95_ms: Option<f64>,
    /// Sum of their self times, ms.
    pub self_ms: f64,
}

/// The per-layer table of the requests rooted at spans named `root`: each
/// layer's count, busy time, p50/p95, self time and share of the roots'
/// wall time. The residual is the roots' own self time, which no narrower
/// layer accounts for.
pub struct LayerTable {
    /// Rows in first-seen order, root first.
    pub rows: Vec<LayerRow>,
    /// Total root duration, ms.
    pub wall_ms: f64,
}

impl LayerTable {
    /// Build the table for the requests whose root spans are named `root`.
    pub fn build(tracer: &Tracer, root: &str) -> LayerTable {
        let spans = tracer.spans();
        let own = tracer.self_times();
        // Keep each root and its descendants.
        let mut under_root = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            under_root[i] = match s.parent {
                None => s.name == root,
                // Parents precede children in every tracer.
                Some(p) => under_root[p],
            };
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(i, _)| under_root[*i]) {
            let entry = by_name.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                (Vec::new(), 0.0)
            });
            entry.0.push(s.ms());
            entry.1 += own[i];
        }
        let rows: Vec<LayerRow> = order
            .iter()
            .map(|name| {
                let (durations, self_ms) = &by_name[name];
                LayerRow {
                    name,
                    count: durations.len(),
                    busy_ms: durations.iter().sum(),
                    p50_ms: percentile(durations, 50.0),
                    p95_ms: percentile(durations, 95.0),
                    self_ms: *self_ms,
                }
            })
            .collect();
        let wall_ms = rows.first().map_or(0.0, |r| r.busy_ms);
        LayerTable { rows, wall_ms }
    }

    /// Render the table with a share-of-wall column.
    pub fn render(&self, residual_layer: &str) -> String {
        let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
        let mut out = format!(
            "{:<28} {:>7} {:>11} {:>9} {:>9} {:>11} {:>7}\n",
            "layer", "count", "busy ms", "p50 ms", "p95 ms", "self ms", "share"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>11.1} {:>9} {:>9} {:>11.1} {:>6.1}%",
                r.name,
                r.count,
                r.busy_ms,
                cell(r.p50_ms),
                cell(r.p95_ms),
                r.self_ms,
                100.0 * ratio(r.self_ms, self.wall_ms)
            );
        }
        let residual = self.self_ms(residual_layer);
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>11} {:>9} {:>9} {:>11.1} {:>6.1}%",
            "unattributed residual",
            "",
            "",
            "",
            "",
            residual,
            100.0 * ratio(residual, self.wall_ms)
        );
        out
    }

    /// Self time of one layer, ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.self_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_table_accounts_for_the_wall() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let ms = Duration::from_millis;
        let root = t.record_for("root", None, 1, epoch, ms(10));
        let mid = t.record_for("mid", Some(root), 1, epoch, ms(6));
        t.record_for("leaf", Some(mid), 1, epoch, ms(4));
        t.record_for("other", None, 0, epoch, ms(50));
        assert_eq!(t.self_times(), vec![4.0, 2.0, 4.0, 50.0]);
        let table = LayerTable::build(&t, "root");
        assert_eq!(table.wall_ms, 10.0);
        let names: Vec<_> = table.rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["root", "mid", "leaf"]);
        let total: f64 = table.rows.iter().map(|r| r.self_ms).sum();
        assert!((total - table.wall_ms).abs() < 1e-9);
        assert!(table.render("mid").contains("unattributed residual"));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.record_for("x", None, 1, epoch, Duration::from_millis(1));
        let mut b = Tracer::new(epoch);
        let p = b.record_for("y", None, 2, epoch, Duration::from_millis(2));
        b.record_for("z", Some(p), 2, epoch, Duration::from_millis(1));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.to_json_lines().lines().count(), 3);
    }
}
