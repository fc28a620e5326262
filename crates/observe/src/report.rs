//! Serializable snapshots of the metric registry.
//!
//! [`PipelineReport`] is what [`Recorder::report`](crate::Recorder::report)
//! returns: every counter total plus a per-stage latency summary
//! (count/sum/min/max and interpolated p50/p95/p99). The crate is
//! dependency-free, so JSON serialization is hand-rolled — the format is a
//! flat two-object document that `serde_json` (or any JSON parser) reads
//! back trivially, and it is the exact shape embedded in `BENCH_*.json`
//! snapshots.

use crate::hist::HistogramSnapshot;
use crate::{CounterId, SpanId};

/// One counter total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterReport {
    /// Stable dotted metric name (see [`CounterId::name`]).
    pub name: &'static str,
    /// Monotonic total since the recorder was created or reset.
    pub total: u64,
}

/// Latency summary of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stable dotted stage name (see [`SpanId::name`]).
    pub name: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, µs.
    pub sum_micros: u64,
    /// Smallest sample, µs (0 when empty).
    pub min_micros: u64,
    /// Largest sample, µs (0 when empty).
    pub max_micros: u64,
    /// Interpolated median, µs.
    pub p50_micros: f64,
    /// Interpolated 95th percentile, µs.
    pub p95_micros: f64,
    /// Interpolated 99th percentile, µs.
    pub p99_micros: f64,
}

impl StageReport {
    /// Summarize a histogram snapshot.
    pub fn from_snapshot(name: &'static str, snap: &HistogramSnapshot) -> StageReport {
        StageReport {
            name,
            count: snap.count,
            sum_micros: snap.sum_micros,
            min_micros: snap.min_micros,
            max_micros: snap.max_micros,
            p50_micros: snap.percentile(0.50),
            p95_micros: snap.percentile(0.95),
            p99_micros: snap.percentile(0.99),
        }
    }

    /// An all-zero summary (disabled recorder).
    pub fn empty(name: &'static str) -> StageReport {
        StageReport {
            name,
            count: 0,
            sum_micros: 0,
            min_micros: 0,
            max_micros: 0,
            p50_micros: 0.0,
            p95_micros: 0.0,
            p99_micros: 0.0,
        }
    }
}

/// A complete snapshot of the pipeline's counters and stage latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Every counter, in [`CounterId::ALL`] order.
    pub counters: Vec<CounterReport>,
    /// Every stage summary, in [`SpanId::ALL`] order.
    pub stages: Vec<StageReport>,
}

impl PipelineReport {
    /// Total of one counter (0 if absent).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == id.name())
            .map_or(0, |c| c.total)
    }

    /// Summary of one stage, if present.
    pub fn stage(&self, id: SpanId) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == id.name())
    }

    /// Serialize to a pretty-printed JSON document:
    ///
    /// ```json
    /// {
    ///   "counters": { "search.nodes_visited": 42, ... },
    ///   "stages": { "stage.search": { "count": 1, "p50_micros": 1.5, ... }, ... }
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {\n");
        for (i, c) in self.counters.iter().enumerate() {
            let sep = if i + 1 < self.counters.len() { "," } else { "" };
            out.push_str(&format!("    \"{}\": {}{sep}\n", c.name, c.total));
        }
        out.push_str("  },\n  \"stages\": {\n");
        for (i, s) in self.stages.iter().enumerate() {
            let sep = if i + 1 < self.stages.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{}\": {{ \"count\": {}, \"sum_micros\": {}, \"min_micros\": {}, \
                 \"max_micros\": {}, \"p50_micros\": {}, \"p95_micros\": {}, \
                 \"p99_micros\": {} }}{sep}\n",
                s.name,
                s.count,
                s.sum_micros,
                s.min_micros,
                s.max_micros,
                json_f64(s.p50_micros),
                json_f64(s.p95_micros),
                json_f64(s.p99_micros),
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Render a human-readable fixed-width table (for terminal output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<32} {:>10} {:>12} {:>12} {:>12}\n",
            "stage", "count", "p50_us", "p95_us", "p99_us"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<32} {:>10} {:>12.1} {:>12.1} {:>12.1}\n",
                s.name, s.count, s.p50_micros, s.p95_micros, s.p99_micros
            ));
        }
        out.push('\n');
        out.push_str(&format!("{:<32} {:>14}\n", "counter", "total"));
        for c in &self.counters {
            out.push_str(&format!("{:<32} {:>14}\n", c.name, c.total));
        }
        out
    }
}

/// Format an f64 as a JSON number (finite values only; NaN/inf become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::time::Duration;

    #[test]
    fn json_lists_every_metric_once() {
        let rec = Recorder::enabled();
        rec.add(CounterId::SearchNodesVisited, 7);
        rec.record_duration(SpanId::Search, Duration::from_micros(100));
        let json = rec.report().to_json();
        for id in CounterId::ALL {
            assert_eq!(json.matches(id.name()).count(), 1, "{}", id.name());
        }
        for id in SpanId::ALL {
            assert_eq!(json.matches(id.name()).count(), 1, "{}", id.name());
        }
        assert!(json.contains("\"search.nodes_visited\": 7"));
    }

    #[test]
    fn report_lookup_helpers() {
        let rec = Recorder::enabled();
        rec.add(CounterId::BatchJobs, 3);
        rec.record_duration(SpanId::Tokenize, Duration::from_micros(10));
        let report = rec.report();
        assert_eq!(report.counter(CounterId::BatchJobs), 3);
        assert_eq!(report.stage(SpanId::Tokenize).map(|s| s.count), Some(1));
        assert_eq!(report.stage(SpanId::Render).map(|s| s.count), Some(0));
    }

    #[test]
    fn table_renders_all_rows() {
        let report = Recorder::enabled().report();
        let table = report.render_table();
        assert_eq!(
            table.lines().count(),
            // header + stages + blank + header + counters
            1 + SpanId::ALL.len() + 1 + 1 + CounterId::ALL.len()
        );
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
    }
}
