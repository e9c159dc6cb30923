//! Telemetry for syseco: structured tracing spans, a metrics registry,
//! and exporters (JSONL, Chrome trace, metrics JSON).
//!
//! The paper's experimental story (§5) is about *where time goes* —
//! point-set enumeration, candidate filtering, SAT validation, sampling
//! refinements. This crate is the measurement layer behind that
//! attribution. It is deliberately zero-dependency and designed around one
//! invariant: **a disabled [`Telemetry`] handle costs nothing** — no
//! allocation, no clock reads, no atomics — so it can be threaded through
//! every hot path of the engine unconditionally.
//!
//! # Architecture
//!
//! * [`Telemetry`] is a cheap clonable handle. [`Telemetry::disabled`]
//!   carries no state at all; [`Telemetry::enabled`] owns a shared clock
//!   epoch and a metrics registry.
//! * [`TraceBuffer`] records [`SpanRecord`]s on one *lane* (a logical
//!   track: lane 0 is the run coordinator, lane `i + 1` is the search of
//!   merge-slot `i`). Buffers are thread-local by construction — each
//!   worker fills its own — and the caller concatenates them in slot order,
//!   which keeps the merged trace deterministic for any worker count.
//! * The registry is one block of relaxed atomics per enabled handle:
//!   counters, max-gauges, and log₂-bucketed histograms. Every clone
//!   records into it through [`Telemetry::add`], [`Telemetry::gauge_max`]
//!   and [`Telemetry::observe`], lock-free; [`Telemetry::snapshot`] copies
//!   it into a [`MetricsSnapshot`].
//! * [`export`] renders spans as JSONL or Chrome `chrome://tracing` JSON
//!   and snapshots as metrics JSON, with a hand-rolled writer (no serde).
//!
//! # Example
//!
//! ```
//! use eco_telemetry::{export, ArgValue, Counter, Telemetry};
//!
//! let telemetry = Telemetry::enabled();
//! let mut buf = telemetry.buffer(0);
//! let span = buf.start();
//! telemetry.add(Counter::SatConflicts, 17);
//! buf.end_with(span, "detect", "rectify", || {
//!     vec![("outputs", ArgValue::U64(4))]
//! });
//! let spans = buf.into_spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(telemetry.snapshot().counter(Counter::SatConflicts), 17);
//! println!("{}", export::chrome_trace(&spans));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod json;
mod metrics;
pub mod names;
pub mod profile;
pub mod report;
mod span;

pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot};
pub use span::{ArgValue, SpanRecord, SpanToken, TraceBuffer};

use std::sync::Arc;
use std::time::Instant;

/// Run-scoped telemetry handle: a shared clock epoch plus the metrics
/// registry. Cloning shares both.
///
/// The default handle is [disabled](Telemetry::disabled): every operation
/// through it is a no-op that performs no allocation and reads no clock.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    registry: metrics::Registry,
}

impl Telemetry {
    /// A no-op handle: buffers and metrics record nothing, snapshots are
    /// empty. Costs no allocation.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle. The clock epoch (time zero of every span) is taken
    /// now; every clone records into the same registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                registry: metrics::Registry::default(),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh span buffer on `lane`. Disabled handles return an inert
    /// buffer whose operations are no-ops (its span vector never
    /// allocates).
    pub fn buffer(&self, lane: u32) -> TraceBuffer {
        TraceBuffer::new(self.inner.as_ref().map(|i| i.epoch), lane)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(i) = &self.inner {
            i.registry.add(counter, n);
        }
    }

    /// Raises a gauge to at least `value`.
    #[inline]
    pub fn gauge_max(&self, gauge: Gauge, value: u64) {
        if let Some(i) = &self.inner {
            i.registry.gauge_max(gauge, value);
        }
    }

    /// Records one observation into a histogram's log₂ bucket and its
    /// exact running sum.
    #[inline]
    pub fn observe(&self, histogram: Histogram, value: u64) {
        if let Some(i) = &self.inner {
            i.registry.observe(histogram, value);
        }
    }

    /// Everything recorded so far, through this handle or any clone.
    /// Disabled handles return an all-zero snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(i) => i.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_and_allocation_free() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.add(Counter::SatConflicts, 5);
        t.gauge_max(Gauge::BddPeakNodes, 100);
        t.observe(Histogram::SearchMicros, 1234);
        assert_eq!(t.snapshot(), MetricsSnapshot::default());

        let mut buf = t.buffer(3);
        assert!(!buf.is_enabled());
        let tok = buf.start();
        buf.end(tok, "search", "rectify");
        buf.end_with(tok, "x", "y", || panic!("args must not be built"));
        buf.instant("marker", "rectify");
        let spans = buf.into_spans();
        assert!(spans.is_empty());
        assert_eq!(spans.capacity(), 0, "disabled buffer must never allocate");
    }

    #[test]
    fn enabled_handle_records_spans_and_metrics() {
        let t = Telemetry::enabled();
        assert!(t.is_enabled());
        t.add(Counter::SatConflicts, 2);
        t.add(Counter::SatConflicts, 3);
        t.add(Counter::SatConflicts, 5);
        t.gauge_max(Gauge::BddPeakNodes, 9);
        t.gauge_max(Gauge::BddPeakNodes, 7);
        let snap = t.snapshot();
        assert_eq!(snap.counter(Counter::SatConflicts), 10);
        assert_eq!(snap.gauge(Gauge::BddPeakNodes), 9);

        let mut buf = t.buffer(1);
        let tok = buf.start();
        buf.end_with(tok, "search", "rectify", || {
            vec![("output", ArgValue::Str("y".into()))]
        });
        let spans = buf.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "search");
        assert_eq!(spans[0].lane, 1);
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::enabled();
        let c = t.clone();
        c.add(Counter::RectifyValidations, 4);
        t.add(Counter::RectifyValidations, 1);
        assert_eq!(c.snapshot().counter(Counter::RectifyValidations), 5);
    }
}
