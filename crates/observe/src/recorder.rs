//! The [`Recorder`] handle: an optional shared registry of counters and
//! histograms.
//!
//! A disabled recorder holds no registry at all — every operation is a
//! branch on `Option::None`, with no clock reads, no atomics, and no
//! allocation — so leaving instrumentation wired through the engine's
//! stages costs nothing when observability is off. An enabled recorder is
//! an `Arc` around fixed arrays of atomics, so clones are cheap and every
//! clone (one per engine, candidate or server worker) feeds the same
//! totals.

use crate::hist::Histogram;
use crate::report::{CounterReport, PipelineReport, StageReport};
use crate::{CounterId, SpanId, COUNTER_COUNT, SPAN_COUNT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The shared metric registry behind an enabled [`Recorder`].
#[derive(Debug)]
struct Registry {
    counters: [AtomicU64; COUNTER_COUNT],
    spans: [Histogram; SPAN_COUNT],
}

impl Registry {
    fn new() -> Registry {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

/// A cheaply clonable handle to the pipeline's metric registry, or a no-op
/// when built with [`Recorder::disabled`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

impl Recorder {
    /// A recorder backed by a fresh registry.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Registry::new())),
        }
    }

    /// The no-op recorder. This is also `Recorder::default()`.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Build an enabled or disabled recorder from a flag.
    pub fn new(enabled: bool) -> Recorder {
        if enabled {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// True when this handle records into a registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(reg) = &self.inner {
            reg.counters[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current total of a counter (0 when disabled).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |reg| reg.counters[id as usize].load(Ordering::Relaxed))
    }

    /// Record one duration sample into a span histogram.
    #[inline]
    pub fn record_duration(&self, id: SpanId, d: Duration) {
        if let Some(reg) = &self.inner {
            reg.spans[id as usize].record(d);
        }
    }

    /// Snapshot every counter and span histogram into a serializable report.
    /// A disabled recorder reports every metric as zero/empty.
    pub fn report(&self) -> PipelineReport {
        let counters = CounterId::ALL
            .iter()
            .map(|&id| CounterReport {
                name: id.name(),
                total: self.counter(id),
            })
            .collect();
        let stages = SpanId::ALL
            .iter()
            .map(|&id| match &self.inner {
                Some(reg) => {
                    StageReport::from_snapshot(id.name(), &reg.spans[id as usize].snapshot())
                }
                None => StageReport::empty(id.name()),
            })
            .collect();
        PipelineReport { counters, stages }
    }

    /// Zero every counter and histogram (no-op when disabled).
    pub fn reset(&self) {
        if let Some(reg) = &self.inner {
            for c in &reg.counters {
                c.store(0, Ordering::Relaxed);
            }
            for h in &reg.spans {
                h.reset();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.incr(CounterId::Transcriptions);
        rec.add(CounterId::SearchNodesVisited, 10);
        rec.record_duration(SpanId::Search, Duration::from_millis(5));
        let report = rec.report();
        assert!(report.counters.iter().all(|c| c.total == 0));
        assert!(report.stages.iter().all(|s| s.count == 0));
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        rec.add(CounterId::VoteComparisons, 3);
        clone.add(CounterId::VoteComparisons, 4);
        assert_eq!(rec.counter(CounterId::VoteComparisons), 7);
    }

    #[test]
    fn reset_clears_everything() {
        let rec = Recorder::enabled();
        rec.add(CounterId::CandidatesBuilt, 5);
        rec.record_duration(SpanId::Literal, Duration::from_micros(12));
        rec.reset();
        assert_eq!(rec.counter(CounterId::CandidatesBuilt), 0);
        assert_eq!(
            rec.report().stage(SpanId::Literal).map(|s| s.count),
            Some(0)
        );
    }

    #[test]
    fn concurrent_recording_from_workers() {
        let rec = Recorder::enabled();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let rec = rec.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        rec.incr(CounterId::EditDistCells);
                        rec.record_duration(SpanId::Search, Duration::from_micros(3));
                    }
                });
            }
        });
        assert_eq!(rec.counter(CounterId::EditDistCells), 4000);
        assert_eq!(
            rec.report().stage(SpanId::Search).map(|s| s.count),
            Some(4000)
        );
    }
}
