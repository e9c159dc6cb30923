//! The metrics registry: counters, max-gauges, and log₂ histograms in one
//! block of relaxed atomics per enabled handle, copied into a snapshot on
//! demand.

use crate::names;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket `b` covers values `v` with
/// `⌈log₂(v+1)⌉ = b`, i.e. bucket 0 is exactly 0, bucket `b ≥ 1` is
/// `[2^(b-1), 2^b)`.
pub(crate) const NUM_BUCKETS: usize = 64;

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:expr),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant),*
        }

        impl $name {
            /// Every variant, in declaration (and export) order.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];

            /// The dotted export name of this metric.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label),*
                }
            }
        }
    };
}

metric_enum! {
    /// Monotonic counters combined by summation.
    Counter {
        /// SAT conflicts across every solver the run created.
        SatConflicts => names::SAT_CONFLICTS,
        /// SAT decisions.
        SatDecisions => names::SAT_DECISIONS,
        /// SAT unit propagations.
        SatPropagations => names::SAT_PROPAGATIONS,
        /// SAT Luby restarts.
        SatRestarts => names::SAT_RESTARTS,
        /// SAT learnt clauses (asserting units included).
        SatLearntClauses => names::SAT_LEARNT_CLAUSES,
        /// SAT literals across every learnt clause.
        SatLearntLiterals => names::SAT_LEARNT_LITERALS,
        /// Internal equivalences proven by SAT and recorded for reuse.
        CecProofs => names::CEC_PROOFS,
        /// Internal equivalences asserted from the proof cache.
        CecReused => names::CEC_REUSED,
        /// Retired: BDD apply-cache hits, always 0 (the engine builds no
        /// BDD). Each retired `Bdd*` metric is kept for the end-to-end
        /// benchmark's report.
        BddApplyHits => names::BDD_APPLY_HITS,
        /// Retired: BDD apply-cache misses, always 0.
        BddApplyMisses => names::BDD_APPLY_MISSES,
        /// Retired: BDD quantification-cache hits, always 0.
        BddQuantHits => names::BDD_QUANT_HITS,
        /// Retired: BDD quantification-cache misses, always 0.
        BddQuantMisses => names::BDD_QUANT_MISSES,
        /// Retired: BDD garbage-collection passes, always 0.
        BddGcRuns => names::BDD_GC_RUNS,
        /// Retired: BDD variable-reorder passes, always 0.
        BddReorders => names::BDD_REORDERS,
        /// Sampling-domain refinements (false positives fed back).
        RectifyRefinements => names::RECTIFY_REFINEMENTS,
        /// SAT validation calls.
        RectifyValidations => names::RECTIFY_VALIDATIONS,
        /// Feasible point-sets examined.
        RectifyPointSets => names::RECTIFY_POINT_SETS,
        /// Rewiring choices examined.
        RectifyChoices => names::RECTIFY_CHOICES,
        /// Candidates the validation screen rejected before SAT: cyclic,
        /// or mismatching on the sample bank.
        PrefilterScreened => names::PREFILTER_SCREENED,
        /// Candidates that passed the validation screen and took a
        /// validation slot.
        PrefilterPassed => names::PREFILTER_PASSED,
        /// Outputs that took the output-rewire fallback.
        RectifyFallbacks => names::RECTIFY_FALLBACKS,
        /// Outputs rectified through non-trivial rewiring.
        RectifyRewired => names::RECTIFY_REWIRED,
        /// Proposals invalidated by an earlier merge.
        RectifyMergeConflicts => names::RECTIFY_MERGE_CONFLICTS,
        /// Degradations recorded (any reason).
        RectifyDegradations => names::RECTIFY_DEGRADATIONS,
        /// Persistent-cache lookups that found a reusable record.
        CacheHits => names::CACHE_HIT,
        /// Persistent-cache lookups that missed.
        CacheMisses => names::CACHE_MISS,
        /// Cached results rejected by re-verification before reuse.
        CacheVerifyRejects => names::CACHE_VERIFY_REJECT,
        /// Damaged cache segments skipped on open.
        CacheCorruptSegments => names::CACHE_CORRUPT_SEGMENT,
        /// Transient cache/checkpoint I/O retries performed.
        CacheRetries => names::CACHE_RETRY,
        /// Cache/checkpoint operations that failed after all retries.
        CacheIoErrors => names::CACHE_IO_ERROR,
        /// Per-output searches skipped by a checkpoint resume.
        CheckpointHits => names::CHECKPOINT_HIT,
        /// Per-output results persisted to the checkpoint directory.
        CheckpointWrites => names::CHECKPOINT_WRITE,
        /// Faults fired by an active fault-injection plan.
        FaultInjections => names::FAULT_INJECTED,
        /// Jobs submitted to the rectification daemon.
        ServeSubmitted => names::SERVE_SUBMITTED,
        /// Jobs admitted into a scheduler lane.
        ServeAdmitted => names::SERVE_ADMITTED,
        /// Jobs rejected at admission.
        ServeRejected => names::SERVE_REJECTED,
        /// Jobs finished with a clean, undegraded patch.
        ServeCompleted => names::SERVE_COMPLETED,
        /// Jobs finished with at least one degraded output.
        ServeDegraded => names::SERVE_DEGRADED,
        /// Jobs cancelled by a client or by daemon drain.
        ServeCancelled => names::SERVE_CANCELLED,
        /// Jobs whose deadline passed before dispatch.
        ServeExpired => names::SERVE_EXPIRED,
        /// Jobs that errored before producing a patch.
        ServeFailed => names::SERVE_FAILED,
        /// Dispatches shrunk by the overload-shedding ladder.
        ServeShed => names::SERVE_SHED,
    }
}

metric_enum! {
    /// High-water marks combined by maximum.
    Gauge {
        /// Retired: peak BDD node count, always 0.
        BddPeakNodes => names::BDD_PEAK_NODES,
        /// Peak number of jobs queued across all scheduler lanes.
        ServeQueueDepth => names::SERVE_QUEUE_DEPTH,
        /// Peak number of jobs running concurrently on daemon workers.
        ServeActiveJobs => names::SERVE_ACTIVE_JOBS,
    }
}

metric_enum! {
    /// Log₂-bucketed distributions combined by per-bucket summation.
    Histogram {
        /// Per-output search wall-clock, µs.
        SearchMicros => names::SEARCH_US,
        /// Per-validation wall-clock, µs.
        ValidateMicros => names::VALIDATE_US,
        /// SAT conflicts spent per validation call.
        SatConflictsPerCall => names::SAT_CONFLICTS_PER_CALL,
        /// Queue wait of jobs dispatched from the high-priority lane, µs.
        ServeWaitHighMicros => names::SERVE_WAIT_HIGH_US,
        /// Queue wait of jobs dispatched from the normal-priority lane, µs.
        ServeWaitNormalMicros => names::SERVE_WAIT_NORMAL_US,
        /// Queue wait of jobs dispatched from the low-priority lane, µs.
        ServeWaitLowMicros => names::SERVE_WAIT_LOW_US,
        /// End-to-end service time of one daemon job, µs.
        ServeJobMicros => names::SERVE_JOB_US,
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_GAUGES: usize = Gauge::ALL.len();
const NUM_HISTOGRAMS: usize = Histogram::ALL.len();

/// The metrics block behind an enabled [`Telemetry`](crate::Telemetry)
/// handle, shared by every clone of it. All operations are relaxed atomic
/// read-modify-writes: lock-free, no allocation.
pub(crate) struct Registry {
    counters: [AtomicU64; NUM_COUNTERS],
    gauges: [AtomicU64; NUM_GAUGES],
    histograms: [[AtomicU64; NUM_BUCKETS]; NUM_HISTOGRAMS],
    histogram_sums: [AtomicU64; NUM_HISTOGRAMS],
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            histogram_sums: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn gauge_max(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize].fetch_max(value, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn observe(&self, histogram: Histogram, value: u64) {
        self.histograms[histogram as usize][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.histogram_sums[histogram as usize].fetch_add(value, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            counters: self.counters.each_ref().map(load),
            gauges: self.gauges.each_ref().map(load),
            histograms: self.histograms.each_ref().map(|h| h.each_ref().map(load)),
            histogram_sums: self.histogram_sums.each_ref().map(load),
        }
    }
}

/// The log₂ bucket of `value`: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub(crate) fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (u64::BITS - value.leading_zeros()) as usize
    }
    .min(NUM_BUCKETS - 1)
}

/// A point-in-time copy of the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; NUM_COUNTERS],
    gauges: [u64; NUM_GAUGES],
    histograms: [[u64; NUM_BUCKETS]; NUM_HISTOGRAMS],
    histogram_sums: [u64; NUM_HISTOGRAMS],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: [0; NUM_COUNTERS],
            gauges: [0; NUM_GAUGES],
            histograms: [[0; NUM_BUCKETS]; NUM_HISTOGRAMS],
            histogram_sums: [0; NUM_HISTOGRAMS],
        }
    }
}

impl MetricsSnapshot {
    /// The value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// The value of one gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize]
    }

    /// Per-bucket observation counts of one histogram; bucket 0 is exactly
    /// 0, bucket `b ≥ 1` covers `[2^(b-1), 2^b)`.
    pub fn histogram_buckets(&self, histogram: Histogram) -> &[u64; NUM_BUCKETS] {
        &self.histograms[histogram as usize]
    }

    /// Total number of observations recorded into one histogram.
    pub fn histogram_count(&self, histogram: Histogram) -> u64 {
        self.histograms[histogram as usize].iter().sum()
    }

    /// Exact sum of every value observed into one histogram (tracked
    /// alongside the buckets, not reconstructed from them).
    pub fn histogram_sum(&self, histogram: Histogram) -> u64 {
        self.histogram_sums[histogram as usize]
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of one histogram from
    /// its log₂ buckets, interpolating linearly inside the bucket that
    /// holds the target rank. Bucket `b ≥ 1` spans `[2^(b-1), 2^b - 1]`;
    /// bucket 0 is exactly 0. Returns 0.0 for an empty histogram.
    ///
    /// The estimate is deterministic (pure integer/f64 arithmetic on the
    /// bucket counts) but coarse by construction: the true value is
    /// somewhere within the matched power-of-two bucket.
    pub fn histogram_quantile(&self, histogram: Histogram, q: f64) -> f64 {
        let buckets = &self.histograms[histogram as usize];
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * count as f64;
        let mut cumulative = 0u64;
        for (b, &n) in buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cumulative + n;
            if (next as f64) >= target {
                if b == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (b - 1)) as f64;
                let hi = ((1u64 << b) - 1) as f64;
                let into = (target - cumulative as f64).max(0.0) / n as f64;
                return lo + into * (hi - lo);
            }
            cumulative = next;
        }
        0.0
    }

    /// `(p50, p90, p99)` of one histogram, as estimated by
    /// [`histogram_quantile`](Self::histogram_quantile).
    pub fn histogram_percentiles(&self, histogram: Histogram) -> (f64, f64, f64) {
        (
            self.histogram_quantile(histogram, 0.50),
            self.histogram_quantile(histogram, 0.90),
            self.histogram_quantile(histogram, 0.99),
        )
    }

    /// Whether every metric is zero (nothing was recorded).
    pub fn is_empty(&self) -> bool {
        *self == MetricsSnapshot::default()
    }

    /// `(name, value)` over every counter, in export order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.name(), self.counter(c)))
    }

    /// `(name, value)` over every gauge, in export order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Gauge::ALL.iter().map(|&g| (g.name(), self.gauge(g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_boundaries_follow_the_documented_formula() {
        // Bucket b ≥ 1 covers [2^(b-1), 2^b): both edges for every power
        // of two that fits below the saturating top bucket.
        for b in 1..NUM_BUCKETS - 1 {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(bucket_of(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_of(hi), b, "upper edge of bucket {b}");
            assert_eq!(bucket_of(hi) + 1, bucket_of(hi + 1), "boundary at 2^{b}");
        }
    }

    #[test]
    fn zero_duration_samples_land_in_bucket_zero_only() {
        let reg = Registry::default();
        reg.observe(Histogram::SearchMicros, 0);
        reg.observe(Histogram::SearchMicros, 0);
        let snap = reg.snapshot();
        let buckets = snap.histogram_buckets(Histogram::SearchMicros);
        assert_eq!(buckets[0], 2, "a zero duration is exactly bucket 0");
        assert!(buckets[1..].iter().all(|&c| c == 0), "and nothing else");
        // Bucket 0 is exclusive to zero: the smallest non-zero sample is
        // already bucket 1.
        reg.observe(Histogram::SearchMicros, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram_buckets(Histogram::SearchMicros)[0], 2);
        assert_eq!(snap.histogram_buckets(Histogram::SearchMicros)[1], 1);
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        // Without clamping, values ≥ 2^63 would index bucket 64 — one past
        // the array. They must saturate into the last bucket, which
        // therefore covers [2^62, u64::MAX].
        assert_eq!(bucket_of(1 << 62), NUM_BUCKETS - 1);
        assert_eq!(bucket_of(1 << 63), NUM_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        let reg = Registry::default();
        for v in [1u64 << 62, 1 << 63, u64::MAX] {
            reg.observe(Histogram::SatConflictsPerCall, v);
        }
        let snap = reg.snapshot();
        let buckets = snap.histogram_buckets(Histogram::SatConflictsPerCall);
        assert_eq!(buckets[NUM_BUCKETS - 1], 3);
        assert_eq!(snap.histogram_count(Histogram::SatConflictsPerCall), 3);
    }

    #[test]
    fn records_combine_by_sum_max_and_bucket() {
        let reg = Registry::default();
        reg.add(Counter::SatConflicts, 3);
        reg.add(Counter::SatConflicts, 4);
        reg.gauge_max(Gauge::BddPeakNodes, 10);
        reg.gauge_max(Gauge::BddPeakNodes, 8);
        reg.observe(Histogram::ValidateMicros, 5);
        reg.observe(Histogram::ValidateMicros, 5);
        reg.observe(Histogram::ValidateMicros, 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::SatConflicts), 7);
        assert_eq!(snap.gauge(Gauge::BddPeakNodes), 10);
        assert_eq!(snap.histogram_buckets(Histogram::ValidateMicros)[3], 2);
        assert_eq!(snap.histogram_buckets(Histogram::ValidateMicros)[0], 1);
        assert_eq!(snap.histogram_count(Histogram::ValidateMicros), 3);
        assert!(!snap.is_empty());
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let reg = Registry::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        reg.add(Counter::RectifyChoices, 1);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter(Counter::RectifyChoices), 4000);
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .chain(Histogram::ALL.iter().map(|h| h.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(names.iter().all(|n| n.contains('.')));
    }

    #[test]
    fn enum_labels_match_the_documented_registry_exactly() {
        // The names module is the registry of record; the enums must
        // export exactly that set, in the same order.
        let exported: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .chain(Histogram::ALL.iter().map(|h| h.name()))
            .collect();
        assert_eq!(exported, names::ALL_METRIC_NAMES);
    }

    #[test]
    fn histogram_sums_are_exact() {
        let reg = Registry::default();
        reg.observe(Histogram::SearchMicros, 100);
        reg.observe(Histogram::SearchMicros, 23);
        reg.observe(Histogram::SearchMicros, 7);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram_sum(Histogram::SearchMicros), 130);
        assert_eq!(snap.histogram_sum(Histogram::ValidateMicros), 0);
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        let reg = Registry::default();
        // Empty histogram: all quantiles are 0.
        assert_eq!(
            reg.snapshot()
                .histogram_quantile(Histogram::SearchMicros, 0.5),
            0.0
        );
        // 100 observations of exactly 64 (bucket 7 = [64, 127]): every
        // quantile must land inside that bucket's range.
        for _ in 0..100 {
            reg.observe(Histogram::SearchMicros, 64);
        }
        let snap = reg.snapshot();
        let (p50, p90, p99) = snap.histogram_percentiles(Histogram::SearchMicros);
        for p in [p50, p90, p99] {
            assert!((64.0..=127.0).contains(&p), "estimate {p} outside bucket");
        }
        assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotone");
    }

    #[test]
    fn quantiles_rank_across_buckets() {
        let reg = Registry::default();
        // 90 small values (bucket 1, exactly 1) and 10 large (bucket 11,
        // [1024, 2047]): p50 must sit in the small bucket, p99 in the
        // large one.
        for _ in 0..90 {
            reg.observe(Histogram::SatConflictsPerCall, 1);
        }
        for _ in 0..10 {
            reg.observe(Histogram::SatConflictsPerCall, 1500);
        }
        let snap = reg.snapshot();
        let p50 = snap.histogram_quantile(Histogram::SatConflictsPerCall, 0.50);
        let p99 = snap.histogram_quantile(Histogram::SatConflictsPerCall, 0.99);
        assert_eq!(p50, 1.0, "bucket 1 holds only the value 1");
        assert!((1024.0..=2047.0).contains(&p99), "p99 {p99} must be large");
        // Zero-only histograms stay at 0 for every quantile.
        reg.observe(Histogram::ValidateMicros, 0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.histogram_quantile(Histogram::ValidateMicros, 0.99),
            0.0
        );
    }
}
