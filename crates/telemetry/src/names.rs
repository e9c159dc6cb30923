//! The metric- and span-name registry: every exported name as a constant.
//!
//! Counter, gauge, and histogram names used to be string literals scattered
//! across `sat`, `bdd`, `core`, and the cache/checkpoint layers. They are
//! consolidated here so the exported vocabulary is a closed, documented set:
//! the metric enums ([`Counter`](crate::Counter), [`Gauge`](crate::Gauge),
//! [`Histogram`](crate::Histogram)) take their labels from these
//! constants, exporters render nothing else, and
//! [`ALL_METRIC_NAMES`]/[`SPAN_NAMES`] let tests assert that a run's
//! snapshot or trace stays inside the registry.

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// SAT conflicts across every solver of the run.
pub const SAT_CONFLICTS: &str = "sat.conflicts";
/// SAT decisions.
pub const SAT_DECISIONS: &str = "sat.decisions";
/// SAT unit propagations.
pub const SAT_PROPAGATIONS: &str = "sat.propagations";
/// SAT Luby restarts.
pub const SAT_RESTARTS: &str = "sat.restarts";
/// SAT learnt clauses (asserting units included).
pub const SAT_LEARNT_CLAUSES: &str = "sat.learnt_clauses";
/// SAT literals across every learnt clause (after minimization).
pub const SAT_LEARNT_LITERALS: &str = "sat.learnt_literals";
/// Internal equivalences proven by SAT and recorded in a run's proof cache.
pub const CEC_PROOFS: &str = "cec.proofs";
/// Internal equivalences asserted from a run's proof cache without solving.
pub const CEC_REUSED: &str = "cec.reused";
/// BDD apply-cache hits.
pub const BDD_APPLY_HITS: &str = "bdd.apply.hits";
/// BDD apply-cache misses.
pub const BDD_APPLY_MISSES: &str = "bdd.apply.misses";
/// BDD ITE-cache hits.
pub const BDD_ITE_HITS: &str = "bdd.ite.hits";
/// BDD ITE-cache misses.
pub const BDD_ITE_MISSES: &str = "bdd.ite.misses";
/// BDD quantification-cache hits.
pub const BDD_QUANT_HITS: &str = "bdd.quant.hits";
/// BDD quantification-cache misses.
pub const BDD_QUANT_MISSES: &str = "bdd.quant.misses";
/// BDD unique-table resize (rehash) events.
pub const BDD_UNIQUE_RESIZES: &str = "bdd.unique.resizes";
/// BDD operation-cache entries dropped by explicit cache clears.
pub const BDD_EVICTIONS: &str = "bdd.evictions";
/// BDD mark-and-sweep garbage-collection passes.
pub const BDD_GC_RUNS: &str = "bdd.gc.runs";
/// BDD nodes reclaimed by garbage collection.
pub const BDD_GC_FREED: &str = "bdd.gc.freed";
/// Retired: BDD variable-reorder passes. The engine keeps one fixed
/// variable order, so this counter always reads 0; the name stays
/// registered because the end-to-end benchmark still reports it.
pub const BDD_REORDERS: &str = "bdd.reorders";
/// Sampling-domain refinements (false positives fed back).
pub const RECTIFY_REFINEMENTS: &str = "rectify.refinements";
/// SAT validation calls.
pub const RECTIFY_VALIDATIONS: &str = "rectify.validations";
/// Feasible point-sets examined.
pub const RECTIFY_POINT_SETS: &str = "rectify.point_sets";
/// Rewiring choices examined.
pub const RECTIFY_CHOICES: &str = "rectify.choices";
/// Candidates the validation screen rejected before SAT: cyclic, or
/// mismatching on the sample bank.
pub const PREFILTER_SCREENED: &str = "prefilter.screened";
/// Candidates that passed the validation screen and took a validation slot.
pub const PREFILTER_PASSED: &str = "prefilter.passed";
/// Outputs that took the output-rewire fallback.
pub const RECTIFY_FALLBACKS: &str = "rectify.fallbacks";
/// Outputs rectified through non-trivial rewiring.
pub const RECTIFY_REWIRED: &str = "rectify.rewired";
/// Proposals invalidated by an earlier merge.
pub const RECTIFY_MERGE_CONFLICTS: &str = "rectify.merge_conflicts";
/// Degradations recorded (any reason).
pub const RECTIFY_DEGRADATIONS: &str = "rectify.degradations";
/// Persistent-cache lookups that found a reusable record.
pub const CACHE_HIT: &str = "cache.hit";
/// Persistent-cache lookups that missed.
pub const CACHE_MISS: &str = "cache.miss";
/// Cached results rejected by re-verification before reuse.
pub const CACHE_VERIFY_REJECT: &str = "cache.verify_reject";
/// Damaged cache segments skipped on open.
pub const CACHE_CORRUPT_SEGMENT: &str = "cache.corrupt_segment";
/// Transient cache/checkpoint I/O retries performed.
pub const CACHE_RETRY: &str = "cache.retry";
/// Cache/checkpoint operations that failed after all retries.
pub const CACHE_IO_ERROR: &str = "cache.io_error";
/// Per-output searches skipped by a checkpoint resume.
pub const CHECKPOINT_HIT: &str = "checkpoint.hit";
/// Per-output results persisted to the checkpoint directory.
pub const CHECKPOINT_WRITE: &str = "checkpoint.write";
/// Faults fired by an active fault-injection plan.
pub const FAULT_INJECTED: &str = "fault.injected";
/// Jobs submitted to the rectification daemon (admission attempts).
pub const SERVE_SUBMITTED: &str = "serve.submitted";
/// Jobs admitted into a scheduler lane.
pub const SERVE_ADMITTED: &str = "serve.admitted";
/// Jobs rejected at admission (overload, shutdown, or invalid request).
pub const SERVE_REJECTED: &str = "serve.rejected";
/// Jobs that finished with a clean, undegraded patch.
pub const SERVE_COMPLETED: &str = "serve.completed";
/// Jobs that finished with at least one degraded output.
pub const SERVE_DEGRADED: &str = "serve.degraded";
/// Jobs cancelled by a client cancel frame or by daemon drain.
pub const SERVE_CANCELLED: &str = "serve.cancelled";
/// Jobs whose deadline passed before dispatch (never ran the engine).
pub const SERVE_EXPIRED: &str = "serve.expired";
/// Jobs that errored before producing a patch (e.g. unparsable netlists).
pub const SERVE_FAILED: &str = "serve.failed";
/// Dispatches whose budget was shrunk by the overload-shedding ladder.
pub const SERVE_SHED: &str = "serve.shed";

// ---------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------

/// Peak node count over every BDD manager of the run.
pub const BDD_PEAK_NODES: &str = "bdd.peak_nodes";
/// Peak unique-table size over every BDD manager of the run.
pub const BDD_UNIQUE_ENTRIES: &str = "bdd.unique_entries";
/// Peak number of jobs queued across all scheduler lanes.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Peak number of jobs running concurrently on daemon workers.
pub const SERVE_ACTIVE_JOBS: &str = "serve.active_jobs";

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

/// Per-output search wall-clock, µs.
pub const SEARCH_US: &str = "search.us";
/// Per-validation wall-clock, µs.
pub const VALIDATE_US: &str = "validate.us";
/// SAT conflicts spent per validation call.
pub const SAT_CONFLICTS_PER_CALL: &str = "sat.conflicts_per_call";
/// Queue wait of jobs dispatched from the high-priority lane, µs.
pub const SERVE_WAIT_HIGH_US: &str = "serve.wait.high_us";
/// Queue wait of jobs dispatched from the normal-priority lane, µs.
pub const SERVE_WAIT_NORMAL_US: &str = "serve.wait.normal_us";
/// Queue wait of jobs dispatched from the low-priority lane, µs.
pub const SERVE_WAIT_LOW_US: &str = "serve.wait.low_us";
/// End-to-end service time of one daemon job (dispatch to outcome), µs.
pub const SERVE_JOB_US: &str = "serve.job_us";

/// Every documented metric name — counters, gauges, histograms — in export
/// order. A metrics snapshot can never contain a key outside this set; the
/// registry test in `tests/trace_determinism.rs` pins that contract.
pub const ALL_METRIC_NAMES: &[&str] = &[
    // counters
    SAT_CONFLICTS,
    SAT_DECISIONS,
    SAT_PROPAGATIONS,
    SAT_RESTARTS,
    SAT_LEARNT_CLAUSES,
    SAT_LEARNT_LITERALS,
    CEC_PROOFS,
    CEC_REUSED,
    BDD_APPLY_HITS,
    BDD_APPLY_MISSES,
    BDD_ITE_HITS,
    BDD_ITE_MISSES,
    BDD_QUANT_HITS,
    BDD_QUANT_MISSES,
    BDD_UNIQUE_RESIZES,
    BDD_EVICTIONS,
    BDD_GC_RUNS,
    BDD_GC_FREED,
    BDD_REORDERS,
    RECTIFY_REFINEMENTS,
    RECTIFY_VALIDATIONS,
    RECTIFY_POINT_SETS,
    RECTIFY_CHOICES,
    PREFILTER_SCREENED,
    PREFILTER_PASSED,
    RECTIFY_FALLBACKS,
    RECTIFY_REWIRED,
    RECTIFY_MERGE_CONFLICTS,
    RECTIFY_DEGRADATIONS,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_VERIFY_REJECT,
    CACHE_CORRUPT_SEGMENT,
    CACHE_RETRY,
    CACHE_IO_ERROR,
    CHECKPOINT_HIT,
    CHECKPOINT_WRITE,
    FAULT_INJECTED,
    SERVE_SUBMITTED,
    SERVE_ADMITTED,
    SERVE_REJECTED,
    SERVE_COMPLETED,
    SERVE_DEGRADED,
    SERVE_CANCELLED,
    SERVE_EXPIRED,
    SERVE_FAILED,
    SERVE_SHED,
    // gauges
    BDD_PEAK_NODES,
    BDD_UNIQUE_ENTRIES,
    SERVE_QUEUE_DEPTH,
    SERVE_ACTIVE_JOBS,
    // histograms
    SEARCH_US,
    VALIDATE_US,
    SAT_CONFLICTS_PER_CALL,
    SERVE_WAIT_HIGH_US,
    SERVE_WAIT_NORMAL_US,
    SERVE_WAIT_LOW_US,
    SERVE_JOB_US,
];

// ---------------------------------------------------------------------
// Span names (trace vocabulary, DESIGN.md §10)
// ---------------------------------------------------------------------

/// Whole-run coordinator span (lane 0).
pub const SPAN_RUN: &str = "run";
/// Failing-output detection (lane 0).
pub const SPAN_DETECT: &str = "detect";
/// Sequential merge phase (lane 0).
pub const SPAN_MERGE: &str = "merge";
/// One proposal commit inside the merge (lane 0).
pub const SPAN_COMMIT: &str = "commit";
/// Post-merge verification pass (lane 0).
pub const SPAN_VERIFY: &str = "verify";
/// Patch-input refinement sweep (lane 0).
pub const SPAN_REFINE_PATCH: &str = "refine_patch";
/// One per-output search (lane = merge slot + 1).
pub const SPAN_SEARCH: &str = "search";
/// §5.1 error-sample collection inside a search.
pub const SPAN_SAMPLES: &str = "samples";
/// §4.2 feasible point-set enumeration inside a search.
pub const SPAN_POINT_SETS: &str = "point_sets";
/// §4.4 rewiring-choice computation inside a search.
pub const SPAN_CHOICES: &str = "choices";
/// One SAT validation call inside a search.
pub const SPAN_VALIDATE: &str = "validate";
/// Instant marker: a sampling-domain refinement.
pub const SPAN_REFINE: &str = "refine";

/// The category every engine span carries.
pub const CAT_RECTIFY: &str = "rectify";

/// Every documented span name. Coordinator phases first, then the
/// search-lane phases, in the order the profiler ranks them.
pub const SPAN_NAMES: &[&str] = &[
    SPAN_RUN,
    SPAN_DETECT,
    SPAN_SEARCH,
    SPAN_SAMPLES,
    SPAN_POINT_SETS,
    SPAN_CHOICES,
    SPAN_VALIDATE,
    SPAN_REFINE,
    SPAN_MERGE,
    SPAN_COMMIT,
    SPAN_VERIFY,
    SPAN_REFINE_PATCH,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_duplicate_free_and_dotted() {
        let mut names = ALL_METRIC_NAMES.to_vec();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(ALL_METRIC_NAMES.iter().all(|n| n.contains('.')));
        let mut spans = SPAN_NAMES.to_vec();
        spans.sort_unstable();
        spans.dedup();
        assert_eq!(spans.len(), SPAN_NAMES.len());
    }
}
