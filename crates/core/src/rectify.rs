//! The overall rectification flow `RewireRectification` (paper §5.2).
//!
//! For every non-equivalent output pair, in increasing order of logical
//! complexity:
//!
//! 1. select error samples and build the sampling domain (§5.1),
//! 2. enumerate feasible rectification point-sets via `H(t)` (§4.2),
//! 3. assign candidate rewiring nets per point (§4.3),
//! 4. compute valid rewiring choices via `Ξ(c)` (§4.4),
//! 5. validate choices with resource-constrained SAT; counterexamples
//!    refine the domain, damaged outputs prune the choice, and the choice
//!    correcting the most outputs is favored.
//!
//! The output pin is itself a rectification point, so rewiring the output
//! to a cloned specification cone is an always-applicable fallback — the
//! flow never fails, it only degrades to a bigger patch.
//!
//! # Execution model
//!
//! Per-output searches are independent and run on a worker pool
//! ([`EcoOptions::jobs`]); each search is *pure* — it reads the
//! post-normalization base circuit and returns a rewiring **proposal**
//! without mutating anything. A sequential merge phase then applies the
//! proposals in a deterministic order (increasing cone size), re-validating
//! any proposal applied after the circuit changed; a proposal invalidated by
//! an earlier merge degrades to the output-rewire fallback with
//! [`DegradeReason::MergeConflict`]. Because every search derives its RNG
//! stream from the run seed and the output index, and the merge order is
//! independent of completion order, results are bit-identical for every
//! worker count (see DESIGN.md "Parallel execution model").

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use eco_bdd::{Bdd, BddCounters, BddError, BddManager};
use eco_netlist::{topo, Circuit, NetId, Pin};
use eco_sat::cec::ProofCache;
use eco_sat::SolverStats;
use eco_telemetry::{
    ArgValue, Counter, Gauge, Histogram, MetricsShard, SpanRecord, Telemetry, TraceBuffer,
};
use eco_timing::{DelayModel, TimingReport};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::budget::{Budget, Degradation, DegradeAction, DegradeReason};
use crate::checkpoint::{CheckpointSession, CheckpointVerdict};
use crate::choices::{block_bits, find_choices};
use crate::correspond::{Correspondence, OutputPair};
use crate::error_domain::{
    check_output_pair, classify_outputs_with_stats, collect_samples, Equivalence,
};
use crate::fault::SpanPoint;
use crate::memo::{CacheSession, OutputEntry, WarmStart};
use crate::options::EcoOptions;
use crate::patch::Patch;
use crate::points::{self, candidate_pins, MinimalSets};
use crate::progress::{emit, OutputAction, ProgressCallback, ProgressEvent};
use crate::rewire_nets::{candidates_for_pin, RewireCandidate, RewireNetContext};
use crate::sampling::{eval_all_bdd, SamplingDomain};
use crate::schedule::{per_output_seed, WorkerPool};
use crate::validate::{apply_rewires, validate_rewires, CandidateRewire, SampleBank, Validation};
use crate::EcoError;

/// BDD variable layout: choice block, rectification inputs, sampling
/// block — the `c < y < z` order of DESIGN.md.
const C_BASE: u32 = 0;
const Y_BASE: u32 = 128;
const Z_BASE: u32 = 140;

// Fixed search caps (DESIGN.md "Fixed search caps"). All but the GC
// threshold are hashed by `memo::options_fingerprint`, so changing one
// re-keys every cache and checkpoint record.

/// `m`: most rectification points tried per output (§4.2).
pub const MAX_POINTS: usize = 3;
/// `M`: most candidate sink pins per output, the output pin included
/// (§4.2). Halved on each BDD node-limit hit; a hit at 4 pins or fewer
/// ends the search.
pub const MAX_CANDIDATE_PINS: usize = 48;
/// Most point-sets tried per search attempt, smallest first: the first
/// minimal feasible sets of `H(t)` (§4.2).
pub const MAX_POINT_SETS: usize = 8;
/// Most candidate rewiring nets ranked per rectification point, the
/// current driver included (§4.3).
pub const MAX_REWIRE_CANDIDATES: usize = 8;
/// Most rewiring choices decoded from `Ξ(c)` per point-set (§4.4).
pub const MAX_CHOICES: usize = 6;
/// Conflict budget of one SAT validation (§5.1's resource-constrained
/// solver). Detection, merge rechecks and the verification pass get ten
/// times as much.
pub const VALIDATION_BUDGET: u64 = 100_000;
/// Most sampling-domain refinements per output before the fallback.
pub const MAX_REFINEMENTS: usize = 6;
/// Most SAT validations per output in one domain attempt; when they run
/// out, the best validated option so far is committed.
pub const MAX_VALIDATIONS_PER_OUTPUT: usize = 24;
/// Escalation to more points stops once a validated option clones at
/// most this many spec gates.
pub const GOOD_ENOUGH_COST: usize = 4;
/// Node budget of each per-output BDD manager.
pub const BDD_NODE_LIMIT: usize = 2_000_000;
/// Live-node count that triggers a BDD collection at the next point-set
/// boundary. The manager raises it after each pass, so a large working
/// set is not thrashed. Collection never changes a function, so the
/// fingerprint leaves it out.
pub const BDD_GC_THRESHOLD: usize = 1 << 16;

// The caps must fit the minimal-set enumeration (its subset and pin masks)
// and the variable layout: `m` choice blocks below `Y_BASE` (a candidate
// list holds up to two cheap spec nets beyond the cap, see
// `candidates_for_pin`) and `m` rectification inputs below `Z_BASE`.
const _: () = assert!(MAX_POINTS >= 1 && MAX_POINTS <= points::MAX_SUBSET_SIZE);
const _: () = assert!(MAX_CANDIDATE_PINS >= 2 && MAX_CANDIDATE_PINS - 1 <= points::MAX_GATE_PINS);
const _: () = assert!(C_BASE + MAX_POINTS as u32 * block_bits(MAX_REWIRE_CANDIDATES + 2) <= Y_BASE);
const _: () = assert!(Y_BASE + MAX_POINTS as u32 <= Z_BASE);

/// How one output was handled, with its search wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputTiming {
    /// Output label.
    pub output: String,
    /// Wall-clock time of the per-output search (zero for outputs only
    /// touched by the post-merge verification pass).
    pub search: Duration,
    /// How the output ended up rectified.
    pub action: OutputAction,
}

/// Counters describing a rectification run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RectifyStats {
    /// Matched output pairs.
    pub outputs_total: usize,
    /// Pairs initially non-equivalent.
    pub outputs_failing: usize,
    /// Outputs rectified through non-trivial rewiring search.
    pub rewire_rectified: usize,
    /// Outputs that needed the output-rewire fallback.
    pub fallbacks: usize,
    /// Sampling-domain refinements (false positives encountered) — the
    /// metric behind ablations A and B.
    pub refinements: usize,
    /// SAT validation calls.
    pub validations: usize,
    /// Feasible point-sets examined.
    pub point_sets_tried: usize,
    /// Rewiring choices examined.
    pub choices_tried: usize,
    /// Candidates the screen in [`validate_rewires`] proved invalid before
    /// they could consume a SAT-validation slot: cyclic rewires
    /// ([`Validation::Infeasible`]) and [`Validation::Screened`] ones.
    pub prefilter_screened: usize,
    /// Candidates that passed that screen and consumed a validation slot.
    pub prefilter_passed: usize,
    /// Outputs whose search was cut short (budget exhaustion, resource
    /// limits, panics), with the recovery taken for each. Empty on a clean
    /// run; every listed output is still rectified, just less thoroughly
    /// searched.
    pub degradations: Vec<Degradation>,
    /// One entry per rectified output, in merge order: search wall-clock
    /// and the action taken.
    pub per_output: Vec<OutputTiming>,
    /// SAT conflicts across detection, search, validation, and rechecks.
    ///
    /// Like every counter here, deterministic for a given seed and input —
    /// independent of `jobs` — because each solver instance sees a
    /// deterministic query sequence and sums commute.
    pub sat_conflicts: u64,
    /// SAT decisions (same scope as [`sat_conflicts`](Self::sat_conflicts)).
    pub sat_decisions: u64,
    /// SAT propagations (same scope).
    pub sat_propagations: u64,
    /// SAT Luby restarts (same scope).
    pub sat_restarts: u64,
    /// SAT learnt clauses (same scope).
    pub sat_learnt_clauses: u64,
    /// SAT learnt literals across every learnt clause (same scope).
    pub sat_learnt_literals: u64,
    /// Internal equivalences the SAT solver proved and recorded in the
    /// run's proof cache (same scope).
    pub cec_proofs: u64,
    /// Internal equivalences asserted from the run's proof cache without
    /// solving (same scope). The reuse rate is
    /// `cec_reused / (cec_proofs + cec_reused)`.
    pub cec_reused: u64,
    /// BDD operation-cache hits/misses summed over every per-output manager.
    pub bdd: BddCounters,
    /// Largest node count any single BDD manager reached.
    pub bdd_peak_nodes: usize,
    /// Persistent-cache records reused after passing re-verification: a
    /// whole-run replay counts one, each reused per-output proposal counts
    /// one (DESIGN.md §11). Zero when no cache directory is configured.
    pub cache_hits: u64,
    /// Persistent-cache lookups that found nothing usable.
    pub cache_misses: u64,
    /// Persistent-cache records found but discarded because re-verification
    /// (SAT validation or the replay equivalence check) rejected them —
    /// stale entries cost time, never correctness.
    pub cache_verify_rejects: u64,
    /// Damaged cache segments skipped when the store was opened (cache and
    /// checkpoint stores combined). Checksum damage is *permanent*: the
    /// segment is discarded, unlike the transient failures counted by
    /// [`cache_io_errors`](Self::cache_io_errors).
    pub cache_corrupt_segments: u64,
    /// Cache/checkpoint I/O operations that kept failing after every
    /// bounded retry and were given up on (DESIGN.md §13). Distinct from
    /// corruption: the bytes on disk may be fine, the I/O just failed.
    pub cache_io_errors: u64,
    /// Transient cache/checkpoint I/O failures absorbed by retry-with-
    /// backoff — the operation eventually succeeded or was abandoned; each
    /// retry attempt counts once.
    pub cache_retries: u64,
    /// Per-output search results resumed from the checkpoint directory
    /// instead of searched (always re-verified downstream). Zero without
    /// [`EcoOptions::checkpoint_dir`].
    pub checkpoint_hits: u64,
    /// Per-output search results durably persisted to the checkpoint
    /// directory as their searches completed.
    pub checkpoint_writes: u64,
}

impl RectifyStats {
    /// A copy with every wall-clock field zeroed, so runs that differ only
    /// in timing (e.g. different `jobs` values) compare equal.
    pub fn normalized(&self) -> RectifyStats {
        let mut s = self.clone();
        for t in &mut s.per_output {
            t.search = Duration::ZERO;
        }
        s
    }
}

/// Worker-local counters folded into [`RectifyStats`] in merge order.
#[derive(Debug, Default)]
struct SearchStats {
    refinements: usize,
    validations: usize,
    point_sets_tried: usize,
    choices_tried: usize,
    prefilter_screened: usize,
    prefilter_passed: usize,
    sat: SolverStats,
    cec_proofs: u64,
    cec_reused: u64,
    bdd: BddCounters,
    bdd_peak_nodes: usize,
    bdd_unique_entries: usize,
    /// Memoized proposals that re-validated and were returned directly.
    cache_hits: u64,
    /// Memoized proposals that failed re-validation against this spec.
    cache_verify_rejects: u64,
}

/// What one per-output search concluded, without mutating anything.
enum SearchVerdict {
    /// No distinguishing assignment exists: the pair is equivalent after
    /// all (detection was conservative).
    Equivalent,
    /// A SAT-validated rewiring against the base circuit.
    Proposal {
        rewires: Vec<CandidateRewire>,
        /// Budget reason when the search stopped early but could still
        /// return its best validated option.
        cut: Option<DegradeReason>,
    },
    /// The search found nothing usable; take the guaranteed output-rewire
    /// fallback. `reason` is set when the search was cut short rather than
    /// exhausted cleanly.
    Fallback { reason: Option<DegradeReason> },
    /// The fault plan simulated a hard crash inside this search. Never
    /// merged: the coordinator aborts the whole run as soon as any slot
    /// reports it, modeling a process killed mid-fan-out.
    #[cfg(any(test, feature = "fault-injection"))]
    Aborted,
}

/// The persistable form of a verdict: `Some` only for *clean* outcomes.
/// Degraded or aborted searches return `None` and are searched again on
/// resume rather than resumed into a worse-than-necessary patch.
fn clean_checkpoint_verdict(v: &SearchVerdict) -> Option<CheckpointVerdict> {
    match v {
        SearchVerdict::Equivalent => Some(CheckpointVerdict::Equivalent),
        SearchVerdict::Proposal { rewires, cut: None } => {
            Some(CheckpointVerdict::Proposal(rewires.clone()))
        }
        SearchVerdict::Fallback { reason: None } => Some(CheckpointVerdict::CleanFallback),
        _ => None,
    }
}

/// Reconstitutes the verdict a checkpointed search concluded with. Exact
/// inverse of [`clean_checkpoint_verdict`] on the clean subset, so the merge
/// phase cannot tell a resumed slot from a freshly searched one.
fn resume_verdict(v: CheckpointVerdict) -> SearchVerdict {
    match v {
        CheckpointVerdict::Equivalent => SearchVerdict::Equivalent,
        CheckpointVerdict::Proposal(rewires) => SearchVerdict::Proposal { rewires, cut: None },
        CheckpointVerdict::CleanFallback => SearchVerdict::Fallback { reason: None },
    }
}

/// Result of [`rewire_rectify_with`]: the patch, run statistics, the merged
/// trace, and the committed rewire groups in commit order (the raw material
/// of a whole-run cache replay record).
pub(crate) type CommittedRectification = (
    Patch,
    RectifyStats,
    Vec<SpanRecord>,
    Vec<Vec<CandidateRewire>>,
);

/// One search outcome plus its local counters, trace, and wall-clock.
struct SearchResult {
    verdict: SearchVerdict,
    stats: SearchStats,
    search: Duration,
    trace: TraceBuffer,
    /// Refinement counterexamples hit during the search, recorded so a
    /// later run can warm-start its sampling domain past them.
    refined: Vec<Vec<bool>>,
}

enum Attempt {
    /// Found a validated rewiring; `cut` carries the budget reason when the
    /// search stopped early but could still return its best option.
    Found {
        rewires: Vec<CandidateRewire>,
        cut: Option<DegradeReason>,
    },
    /// The domain produced a false positive; refine with this assignment.
    Refine(Vec<bool>),
    /// BDD budget exceeded; retry with fewer candidate pins.
    NodeLimit,
    /// SAT validation ran out of budget on every remaining choice.
    SatExhausted,
    /// No valid choice found in this domain.
    Exhausted,
    /// The run budget (deadline/cancellation) expired mid-attempt with
    /// nothing validated yet.
    BudgetOut(DegradeReason),
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Folds one coordinator-side SAT effort reading into the run stats and the
/// metrics shard.
fn note_sat(stats: &mut RectifyStats, shard: &MetricsShard, s: SolverStats) {
    stats.sat_conflicts += s.conflicts;
    stats.sat_decisions += s.decisions;
    stats.sat_propagations += s.propagations;
    stats.sat_restarts += s.restarts;
    stats.sat_learnt_clauses += s.learnt_clauses;
    stats.sat_learnt_literals += s.learnt_literals;
    if shard.is_enabled() {
        shard.add(Counter::SatConflicts, s.conflicts);
        shard.add(Counter::SatDecisions, s.decisions);
        shard.add(Counter::SatPropagations, s.propagations);
        shard.add(Counter::SatRestarts, s.restarts);
        shard.add(Counter::SatLearntClauses, s.learnt_clauses);
        shard.add(Counter::SatLearntLiterals, s.learnt_literals);
    }
}

/// Folds one coordinator-side proof cache's counters into the run stats and
/// the metrics shard.
fn note_proofs(stats: &mut RectifyStats, shard: &MetricsShard, proofs: &ProofCache) {
    stats.cec_proofs += proofs.proofs();
    stats.cec_reused += proofs.reused();
    if shard.is_enabled() {
        shard.add(Counter::CecProofs, proofs.proofs());
        shard.add(Counter::CecReused, proofs.reused());
    }
}

/// Flushes one finished search's local counters into a worker shard: a
/// handful of relaxed atomic adds at search end, nothing on the hot path.
fn flush_search_metrics(shard: &MetricsShard, s: &SearchStats, search: Duration) {
    if !shard.is_enabled() {
        return;
    }
    shard.add(Counter::SatConflicts, s.sat.conflicts);
    shard.add(Counter::SatDecisions, s.sat.decisions);
    shard.add(Counter::SatPropagations, s.sat.propagations);
    shard.add(Counter::SatRestarts, s.sat.restarts);
    shard.add(Counter::SatLearntClauses, s.sat.learnt_clauses);
    shard.add(Counter::SatLearntLiterals, s.sat.learnt_literals);
    shard.add(Counter::CecProofs, s.cec_proofs);
    shard.add(Counter::CecReused, s.cec_reused);
    shard.add(Counter::BddApplyHits, s.bdd.apply_hits);
    shard.add(Counter::BddApplyMisses, s.bdd.apply_misses);
    shard.add(Counter::BddIteHits, s.bdd.ite_hits);
    shard.add(Counter::BddIteMisses, s.bdd.ite_misses);
    shard.add(Counter::BddQuantHits, s.bdd.quant_hits);
    shard.add(Counter::BddQuantMisses, s.bdd.quant_misses);
    shard.add(Counter::BddUniqueResizes, s.bdd.unique_resizes);
    shard.add(Counter::BddEvictions, s.bdd.evictions);
    shard.add(Counter::BddGcRuns, s.bdd.gc_runs);
    shard.add(Counter::BddGcFreed, s.bdd.gc_freed_nodes);
    shard.add(Counter::RectifyRefinements, s.refinements as u64);
    shard.add(Counter::RectifyValidations, s.validations as u64);
    shard.add(Counter::RectifyPointSets, s.point_sets_tried as u64);
    shard.add(Counter::RectifyChoices, s.choices_tried as u64);
    shard.add(Counter::PrefilterScreened, s.prefilter_screened as u64);
    shard.add(Counter::PrefilterPassed, s.prefilter_passed as u64);
    shard.add(Counter::CacheHits, s.cache_hits);
    shard.add(Counter::CacheVerifyRejects, s.cache_verify_rejects);
    shard.gauge_max(Gauge::BddPeakNodes, s.bdd_peak_nodes as u64);
    shard.gauge_max(Gauge::BddUniqueEntries, s.bdd_unique_entries as u64);
    shard.observe(Histogram::SearchMicros, search.as_micros() as u64);
}

/// Runs the full rectification flow, mutating `implementation` in place —
/// the internal entry used by [`Session`](crate::Session) and the batch
/// API.
///
/// The caller (the [`Syseco`](crate::Syseco) engine) is responsible for
/// pre-normalizing ports and for the post-processing patch sweep, and for
/// building `budget` from [`EcoOptions::timeout`].
///
/// Per-output searches are isolated: a budget expiry, an error, or a panic
/// inside one output's search degrades only that output to the
/// always-applicable output-rewire fallback and records a [`Degradation`] —
/// the run as a whole still succeeds with every output rectified.
///
/// The third tuple element is the merged trace: coordinator spans (lane 0)
/// first, then each search's spans in merge-slot order (lane `i + 1`) —
/// independent of worker scheduling. Empty when `telemetry` is disabled.
///
/// With a [`CacheSession`], per-output records warm-start searches (stored
/// sampling minterms plus the previously validated proposal, which is
/// SAT-re-validated before reuse) and finished searches are recorded back.
/// The fourth tuple element is the committed rewire groups in commit order
/// — everything `apply_rewires` executed and kept — from which the caller
/// can build a whole-run replay record (DESIGN.md §11).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rewire_rectify_with(
    implementation: &mut Circuit,
    spec: &Circuit,
    options: &EcoOptions,
    budget: &Budget,
    observer: Option<&ProgressCallback>,
    pool: &WorkerPool,
    telemetry: &Telemetry,
    mut cache: Option<&mut CacheSession>,
    checkpoint: Option<&CheckpointSession>,
) -> Result<CommittedRectification, EcoError> {
    let t_run = Instant::now();
    let mut tb = telemetry.buffer(0);
    let shard = telemetry.shard();
    let span_run = tb.start();
    budget.fault_span(SpanPoint::Run)?;
    let corr = Correspondence::build(implementation, spec)?;
    let mut patch = Patch::new(implementation.num_nodes());
    let mut stats = RectifyStats {
        outputs_total: corr.outputs.len(),
        ..Default::default()
    };
    // The base circuit is immutable during the search phase, so arrival
    // times are computed once (level-driven selection only).
    let timing = if options.level_driven {
        let model = DelayModel::default();
        let probe = TimingReport::analyze(implementation, &model, 0.0)?;
        Some(TimingReport::analyze(
            implementation,
            &model,
            probe.critical_delay() * 1.1,
        )?)
    } else {
        None
    };

    // ------------------------------------------------------------------
    // Detect failing outputs: one miter encoding, per-pair assumptions.
    // ------------------------------------------------------------------
    let mut failing: HashSet<u32> = HashSet::new();
    let mut seeds: HashMap<u32, Vec<bool>> = HashMap::new();
    let span_detect = tb.start();
    budget.fault_span(SpanPoint::Detect)?;
    // Detection fills the run's proof cache, which is then frozen: every
    // search and the merge phase get an overlay of their own on it, so
    // each one's SAT trajectory depends only on its merge slot — never on
    // `jobs` or on which slots a checkpoint resume skipped.
    let mut detect_proofs = ProofCache::new();
    let (verdicts, detect_sat) = classify_outputs_with_stats(
        implementation,
        spec,
        &corr,
        Some(VALIDATION_BUDGET * 10),
        Some(budget),
        &mut detect_proofs,
    )?;
    note_sat(&mut stats, &shard, detect_sat);
    note_proofs(&mut stats, &shard, &detect_proofs);
    let proof_base = detect_proofs.freeze();
    for (pair, verdict) in corr.outputs.iter().zip(verdicts) {
        match verdict {
            Equivalence::Equivalent => {}
            Equivalence::Counterexample(x) => {
                failing.insert(pair.impl_index);
                seeds.insert(pair.impl_index, x);
            }
            Equivalence::Unknown => {
                // Conservatively treat as failing; sample collection will
                // show whether anything is actually wrong.
                failing.insert(pair.impl_index);
            }
        }
    }
    stats.outputs_failing = failing.len();
    tb.end_with(span_detect, "detect", "rectify", || {
        vec![
            ("outputs_total", ArgValue::U64(corr.outputs.len() as u64)),
            ("outputs_failing", ArgValue::U64(failing.len() as u64)),
            ("sat_conflicts", ArgValue::U64(detect_sat.conflicts)),
        ]
    });
    // Detection counterexamples seed every worker's local sample bank, in
    // output order so the bank is identical across runs and worker counts.
    let initial_bank: Vec<Vec<bool>> = corr
        .outputs
        .iter()
        .filter_map(|p| seeds.get(&p.impl_index).cloned())
        .collect();

    // Merge order: increasing logical complexity (cone size), stable on
    // ties — fixed before the fan-out, independent of completion order.
    let mut order: Vec<&OutputPair> = corr
        .outputs
        .iter()
        .filter(|p| failing.contains(&p.impl_index))
        .collect();
    order.sort_by_key(|p| {
        topo::cone_size(spec, spec.outputs()[p.spec_index as usize].net())
            + topo::cone_size(
                implementation,
                implementation.outputs()[p.impl_index as usize].net(),
            )
    });
    let order: Vec<OutputPair> = order.into_iter().cloned().collect();

    // Per-output cache slots are resolved by the coordinator *before* the
    // fan-out: every merge slot sees fixed warm data, so cache lookups
    // cannot perturb jobs-determinism. A failed walk (cannot happen on the
    // well-formed circuits that reach this point) just runs the fan-out
    // cold.
    let output_entries: Vec<OutputEntry> = match cache.as_deref_mut() {
        Some(session) => session.output_entries(spec, &order).unwrap_or_default(),
        None => Vec::new(),
    };

    // Checkpoint slots are likewise resolved up front: a resumed slot
    // substitutes its stored clean verdict for the search, everything
    // downstream (merge rechecks, the verification pass) runs unchanged.
    let checkpoint_slots: Vec<_> = match checkpoint {
        Some(ck) => order
            .iter()
            .map(|p| {
                let key = ck.slot_key(&p.name);
                let record = ck.load(key);
                (key, record)
            })
            .collect(),
        None => Vec::new(),
    };
    let resumed_count = checkpoint_slots.iter().filter(|(_, r)| r.is_some()).count();

    emit(
        observer,
        ProgressEvent::RunStarted {
            outputs_total: corr.outputs.len(),
            outputs_failing: order.len(),
            jobs: pool.workers(),
        },
    );

    // ------------------------------------------------------------------
    // Search phase: pure per-output searches on the worker pool.
    // ------------------------------------------------------------------
    let base: &Circuit = implementation;
    // One metrics shard per worker lane: counters are relaxed atomics, so
    // the search hot path never takes a lock; the registry folds the shards
    // at snapshot time.
    let worker_shards: Vec<MetricsShard> = (0..pool.workers()).map(|_| telemetry.shard()).collect();
    let results: Vec<SearchResult> = pool.run(order.len(), |w, i| {
        let pair = &order[i];
        emit(
            observer,
            ProgressEvent::OutputStarted {
                output: pair.name.clone(),
                position: i,
                failing_total: order.len(),
            },
        );
        let t_search = Instant::now();
        let mut local = SearchStats::default();
        let mut proofs = proof_base.overlay();
        let mut refined: Vec<Vec<bool>> = Vec::new();
        // Trace lane i+1 belongs to merge slot i regardless of which worker
        // ran it, so the merged trace is independent of scheduling.
        let mut trace = telemetry.buffer(i as u32 + 1);
        let span_search = trace.start();
        let slot = checkpoint_slots.get(i);
        let resumed = slot.and_then(|(_, record)| record.clone());
        let verdict = match resumed {
            // Resumed from the checkpoint: skip the search entirely. The
            // stored refinement minterms are carried over so the cache
            // write-back matches an uninterrupted run's.
            Some(record) => {
                refined = record.refined;
                resume_verdict(record.verdict)
            }
            None => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    budget.fault_span(SpanPoint::Search)?;
                    budget.inject_search_panic();
                    search_one_output(
                        base,
                        spec,
                        &corr,
                        pair,
                        seeds.get(&pair.impl_index).map(Vec::as_slice),
                        &failing,
                        &initial_bank,
                        options,
                        timing.as_ref(),
                        &mut local,
                        budget,
                        &mut trace,
                        &worker_shards[w],
                        output_entries.get(i).and_then(|e| e.warm.as_ref()),
                        &mut refined,
                        &mut proofs,
                    )
                }));
                let verdict = match outcome {
                    Ok(Ok(v)) => v,
                    #[cfg(any(test, feature = "fault-injection"))]
                    Ok(Err(EcoError::InjectedAbort)) => SearchVerdict::Aborted,
                    Ok(Err(e)) => SearchVerdict::Fallback {
                        reason: Some(DegradeReason::SearchError(e.to_string())),
                    },
                    Err(payload) => SearchVerdict::Fallback {
                        reason: Some(DegradeReason::SearchPanicked(panic_message(payload))),
                    },
                };
                // Persist clean verdicts the moment the search finishes:
                // after `record` returns, a kill at any later instant
                // leaves this output resumable.
                if let (Some(ck), Some((key, _))) = (checkpoint, slot) {
                    if let Some(cv) = clean_checkpoint_verdict(&verdict) {
                        ck.record(*key, &cv, &refined);
                    }
                }
                verdict
            }
        };
        local.cec_proofs = proofs.proofs();
        local.cec_reused = proofs.reused();
        let search = t_search.elapsed();
        trace.end_with(span_search, "search", "rectify", || {
            vec![
                ("output", ArgValue::Str(pair.name.clone())),
                ("refinements", ArgValue::U64(local.refinements as u64)),
                ("validations", ArgValue::U64(local.validations as u64)),
                ("point_sets", ArgValue::U64(local.point_sets_tried as u64)),
                ("choices", ArgValue::U64(local.choices_tried as u64)),
                ("screened", ArgValue::U64(local.prefilter_screened as u64)),
                ("sat_conflicts", ArgValue::U64(local.sat.conflicts)),
                (
                    "proposal",
                    ArgValue::U64(u64::from(matches!(verdict, SearchVerdict::Proposal { .. }))),
                ),
            ]
        });
        flush_search_metrics(&worker_shards[w], &local, search);
        emit(
            observer,
            ProgressEvent::OutputSearched {
                output: pair.name.clone(),
                position: i,
                search,
                proposal: matches!(verdict, SearchVerdict::Proposal { .. }),
            },
        );
        SearchResult {
            verdict,
            stats: local,
            search,
            trace,
            refined,
        }
    });
    for r in &results {
        stats.refinements += r.stats.refinements;
        stats.validations += r.stats.validations;
        stats.point_sets_tried += r.stats.point_sets_tried;
        stats.choices_tried += r.stats.choices_tried;
        stats.prefilter_screened += r.stats.prefilter_screened;
        stats.prefilter_passed += r.stats.prefilter_passed;
        stats.sat_conflicts += r.stats.sat.conflicts;
        stats.sat_decisions += r.stats.sat.decisions;
        stats.sat_propagations += r.stats.sat.propagations;
        stats.sat_restarts += r.stats.sat.restarts;
        stats.sat_learnt_clauses += r.stats.sat.learnt_clauses;
        stats.sat_learnt_literals += r.stats.sat.learnt_literals;
        stats.cec_proofs += r.stats.cec_proofs;
        stats.cec_reused += r.stats.cec_reused;
        stats.bdd += r.stats.bdd;
        stats.bdd_peak_nodes = stats.bdd_peak_nodes.max(r.stats.bdd_peak_nodes);
        stats.cache_hits += r.stats.cache_hits;
        stats.cache_verify_rejects += r.stats.cache_verify_rejects;
    }
    // A simulated crash in any search slot kills the whole run *now*,
    // before the merge phase writes anything — exactly what a SIGKILL
    // mid-fan-out leaves behind: durable checkpoints, no partial patch.
    #[cfg(any(test, feature = "fault-injection"))]
    if results
        .iter()
        .any(|r| matches!(r.verdict, SearchVerdict::Aborted))
    {
        return Err(EcoError::InjectedAbort);
    }

    // ------------------------------------------------------------------
    // Merge phase: apply proposals sequentially in the fixed order.
    // ------------------------------------------------------------------
    let recheck_budget = Some(VALIDATION_BUDGET * 10);
    // Spec logic already instantiated by earlier merges, shared so
    // overlapping revisions are cloned once (one patch, many sinks).
    let mut shared_clones: HashMap<NetId, NetId> = HashMap::new();
    let mut proposals_applied = 0usize;
    let mut search_traces: Vec<TraceBuffer> = Vec::new();
    // Rewire groups that were applied *and kept*, in commit order. Because
    // `apply_rewires` is the only circuit mutation in the merge phase and a
    // rolled-back group restores the pre-apply snapshot, replaying exactly
    // these groups through a fresh clone map reproduces the final circuit
    // and patch byte for byte — the whole-run cache record.
    let mut committed: Vec<Vec<CandidateRewire>> = Vec::new();
    // For each merge slot, the index into `committed` of the proposal that
    // stuck (fallback groups are never memoized per output: recording them
    // would let a warm run skip the search that might beat them).
    let mut output_proposals: Vec<Option<usize>> = vec![None; order.len()];
    let mut refined_per_output: Vec<Vec<Vec<bool>>> = Vec::with_capacity(order.len());
    let span_merge = tb.start();
    budget.fault_span(SpanPoint::Merge)?;
    // Merge rechecks and the verification pass share one overlay.
    let mut merge_proofs = proof_base.overlay();
    let mut recheck = |implementation: &Circuit,
                       pair: &OutputPair,
                       stats: &mut RectifyStats|
     -> Result<Equivalence, EcoError> {
        let (verdict, s) = check_output_pair(
            implementation,
            spec,
            pair,
            recheck_budget,
            Some(budget),
            &mut merge_proofs,
        )?;
        note_sat(stats, &shard, s);
        Ok(verdict)
    };
    for (position, (pair, result)) in order.iter().zip(results).enumerate() {
        let SearchResult {
            verdict,
            search,
            trace,
            refined,
            ..
        } = result;
        search_traces.push(trace);
        refined_per_output.push(refined);
        let span_commit = tb.start();
        budget.fault_span(SpanPoint::Commit)?;
        let (action, degraded) = match verdict {
            SearchVerdict::Equivalent => (OutputAction::AlreadyEquivalent, false),
            #[cfg(any(test, feature = "fault-injection"))]
            SearchVerdict::Aborted => unreachable!("aborted runs never reach the merge phase"),
            SearchVerdict::Fallback { reason } => {
                let reason = reason.or_else(|| budget.degrade_reason());
                // An earlier merged proposal may have fixed this output as a
                // side effect; only worth a query when the circuit actually
                // changed and the budget still allows it.
                let already_fixed = reason.is_none()
                    && proposals_applied > 0
                    && matches!(
                        recheck(implementation, pair, &mut stats)?,
                        Equivalence::Equivalent
                    );
                if already_fixed {
                    (OutputAction::AlreadyEquivalent, false)
                } else {
                    fallback_rectify(
                        implementation,
                        spec,
                        pair,
                        &mut shared_clones,
                        &mut patch,
                        &mut stats,
                        &mut committed,
                    )?;
                    match reason {
                        Some(reason) => {
                            stats.degradations.push(Degradation {
                                output: pair.name.clone(),
                                reason,
                                action: DegradeAction::OutputRewireFallback,
                            });
                            (OutputAction::Fallback, true)
                        }
                        None => (OutputAction::Fallback, false),
                    }
                }
            }
            SearchVerdict::Proposal { rewires, cut } => {
                if let Some(reason) = budget.degrade_reason() {
                    // The proposal was validated against the pristine base
                    // circuit; re-validating against the merged state is no
                    // longer affordable, so take the guaranteed fallback
                    // instead of trusting it blindly.
                    fallback_rectify(
                        implementation,
                        spec,
                        pair,
                        &mut shared_clones,
                        &mut patch,
                        &mut stats,
                        &mut committed,
                    )?;
                    stats.degradations.push(Degradation {
                        output: pair.name.clone(),
                        reason,
                        action: DegradeAction::OutputRewireFallback,
                    });
                    (OutputAction::Fallback, true)
                } else if proposals_applied > 0
                    && matches!(
                        recheck(implementation, pair, &mut stats)?,
                        Equivalence::Equivalent
                    )
                {
                    (OutputAction::AlreadyEquivalent, false)
                } else {
                    // Snapshot so a conflicting proposal cannot leave a
                    // half-applied rewire behind.
                    let snapshot = (implementation.clone(), patch.clone(), shared_clones.clone());
                    let mut conflict: Option<DegradeReason> = None;
                    match apply_rewires(implementation, spec, &rewires, &mut shared_clones) {
                        Ok((ops, cloned)) => {
                            patch.record_cloned(cloned);
                            for op in ops {
                                patch.record_rewire(op);
                            }
                            // Proposals after the first were validated
                            // against a circuit that has since changed:
                            // re-confirm before keeping them.
                            if proposals_applied > 0
                                && !matches!(
                                    recheck(implementation, pair, &mut stats)?,
                                    Equivalence::Equivalent
                                )
                            {
                                conflict = Some(
                                    budget
                                        .degrade_reason()
                                        .unwrap_or(DegradeReason::MergeConflict),
                                );
                            }
                        }
                        Err(_) => conflict = Some(DegradeReason::MergeConflict),
                    }
                    match conflict {
                        None => {
                            stats.rewire_rectified += 1;
                            proposals_applied += 1;
                            output_proposals[position] = Some(committed.len());
                            committed.push(rewires);
                            match cut {
                                Some(reason) => {
                                    stats.degradations.push(Degradation {
                                        output: pair.name.clone(),
                                        reason,
                                        action: DegradeAction::CommittedBest,
                                    });
                                    (OutputAction::Rewired, true)
                                }
                                None => (OutputAction::Rewired, false),
                            }
                        }
                        Some(reason) => {
                            (*implementation, patch, shared_clones) = snapshot;
                            fallback_rectify(
                                implementation,
                                spec,
                                pair,
                                &mut shared_clones,
                                &mut patch,
                                &mut stats,
                                &mut committed,
                            )?;
                            stats.degradations.push(Degradation {
                                output: pair.name.clone(),
                                reason,
                                action: DegradeAction::OutputRewireFallback,
                            });
                            (OutputAction::Fallback, true)
                        }
                    }
                }
            }
        };
        stats.per_output.push(OutputTiming {
            output: pair.name.clone(),
            search,
            action,
        });
        tb.end_with(span_commit, "commit", "rectify", || {
            let mut args = vec![
                ("output", ArgValue::Str(pair.name.clone())),
                ("action", ArgValue::Str(action.to_string())),
                ("degraded", ArgValue::U64(u64::from(degraded))),
            ];
            if degraded {
                // The degradation for this output was just pushed; its
                // reason feeds the run report's narrative.
                if let Some(d) = stats
                    .degradations
                    .iter()
                    .rev()
                    .find(|d| d.output == pair.name)
                {
                    args.push(("reason", ArgValue::Str(d.reason.to_string())));
                }
            }
            args
        });
        emit(
            observer,
            ProgressEvent::OutputRectified {
                output: pair.name.clone(),
                position,
                action,
                degraded,
            },
        );
    }
    tb.end_with(span_merge, "merge", "rectify", || {
        vec![
            ("proposals_applied", ArgValue::U64(proposals_applied as u64)),
            ("fallbacks", ArgValue::U64(stats.fallbacks as u64)),
        ]
    });

    // ------------------------------------------------------------------
    // Verification pass: with two or more merged proposals, a later one can
    // damage an earlier one's output (each was re-checked only for its own
    // pair). Re-classify everything and repair damage with the fallback.
    // ------------------------------------------------------------------
    // A resumed run with any merged proposal also verifies: resumed slots
    // skipped their searches, so the end-to-end re-classification is what
    // discharges the "always re-verified" resume guarantee.
    if proposals_applied >= 2 || (resumed_count > 0 && proposals_applied >= 1) {
        let span_verify = tb.start();
        budget.fault_span(SpanPoint::Verify)?;
        let (verdicts, verify_sat) = classify_outputs_with_stats(
            implementation,
            spec,
            &corr,
            recheck_budget,
            Some(budget),
            &mut merge_proofs,
        )?;
        note_sat(&mut stats, &shard, verify_sat);
        let mut repaired = 0u64;
        for (pair, verdict) in corr.outputs.iter().zip(verdicts) {
            if matches!(verdict, Equivalence::Equivalent) {
                continue;
            }
            repaired += 1;
            fallback_rectify(
                implementation,
                spec,
                pair,
                &mut shared_clones,
                &mut patch,
                &mut stats,
                &mut committed,
            )?;
            let reason = budget
                .degrade_reason()
                .unwrap_or(DegradeReason::MergeConflict);
            // At most one degradation per output: replace any earlier entry.
            match stats
                .degradations
                .iter_mut()
                .find(|d| d.output == pair.name)
            {
                Some(d) => {
                    d.reason = reason;
                    d.action = DegradeAction::OutputRewireFallback;
                }
                None => stats.degradations.push(Degradation {
                    output: pair.name.clone(),
                    reason,
                    action: DegradeAction::OutputRewireFallback,
                }),
            }
            match stats.per_output.iter_mut().find(|t| t.output == pair.name) {
                Some(t) => t.action = OutputAction::Fallback,
                None => stats.per_output.push(OutputTiming {
                    output: pair.name.clone(),
                    search: Duration::ZERO,
                    action: OutputAction::Fallback,
                }),
            }
        }
        tb.end_with(span_verify, "verify", "rectify", || {
            vec![("repaired", ArgValue::U64(repaired))]
        });
    }
    note_proofs(&mut stats, &shard, &merge_proofs);

    // Record per-output outcomes for future warm starts. A proposal is
    // stored only when it survived both the merge rechecks and the
    // verification pass (`per_output` actions are final by now);
    // refinement counterexamples are stored for every searched output, with
    // previously stored minterms carried forward so repeated runs do not
    // erode the warm-start data.
    if let Some(session) = cache {
        let minterm_cap = options.num_samples.max(1);
        for (i, (pair, entry)) in order.iter().zip(&output_entries).enumerate() {
            let proposal = (stats.per_output[i].action == OutputAction::Rewired)
                .then(|| output_proposals[i].map(|slot| committed[slot].as_slice()))
                .flatten();
            let mut minterms: Vec<Vec<bool>> = entry
                .warm
                .as_ref()
                .map(|w| w.minterms.clone())
                .unwrap_or_default();
            for x in &refined_per_output[i] {
                if minterms.len() >= minterm_cap {
                    break;
                }
                if !minterms.contains(x) {
                    minterms.push(x.clone());
                }
            }
            minterms.truncate(minterm_cap);
            let spec_root = spec.outputs()[pair.spec_index as usize].net();
            session.record_output(entry, spec, spec_root, proposal, &minterms);
        }
    }

    if let Some(ck) = checkpoint {
        stats.checkpoint_hits = resumed_count as u64;
        stats.checkpoint_writes = ck.writes();
        stats.cache_corrupt_segments += ck.corrupt_segments();
        let (io_errors, retries) = ck.io_counters();
        stats.cache_io_errors += io_errors;
        stats.cache_retries += retries;
        if shard.is_enabled() {
            shard.add(Counter::CheckpointHits, stats.checkpoint_hits);
            shard.add(Counter::CheckpointWrites, stats.checkpoint_writes);
        }
    }

    implementation.sweep();
    if shard.is_enabled() {
        shard.add(Counter::RectifyRewired, stats.rewire_rectified as u64);
        shard.add(Counter::RectifyFallbacks, stats.fallbacks as u64);
        shard.add(
            Counter::RectifyDegradations,
            stats.degradations.len() as u64,
        );
        let merge_conflicts = stats
            .degradations
            .iter()
            .filter(|d| matches!(d.reason, DegradeReason::MergeConflict))
            .count();
        shard.add(Counter::RectifyMergeConflicts, merge_conflicts as u64);
    }
    emit(
        observer,
        ProgressEvent::RunFinished {
            duration: t_run.elapsed(),
            degradations: stats.degradations.len(),
        },
    );
    tb.end_with(span_run, "run", "rectify", || {
        vec![
            ("outputs_total", ArgValue::U64(stats.outputs_total as u64)),
            (
                "outputs_failing",
                ArgValue::U64(stats.outputs_failing as u64),
            ),
            ("rewired", ArgValue::U64(stats.rewire_rectified as u64)),
            ("fallbacks", ArgValue::U64(stats.fallbacks as u64)),
            (
                "degradations",
                ArgValue::U64(stats.degradations.len() as u64),
            ),
        ]
    });
    // Coordinator spans first, then each search's spans in merge-slot
    // order: deterministic for any worker count.
    for t in search_traces {
        tb.append(t);
    }
    Ok((patch, stats, tb.into_spans(), committed))
}

/// Applies the §3.3 output-rewire fallback for `pair`: rewire the output pin
/// to a clone of the corresponding specification cone. Always applicable on
/// a well-formed design.
fn fallback_rectify(
    implementation: &mut Circuit,
    spec: &Circuit,
    pair: &OutputPair,
    shared_clones: &mut HashMap<NetId, NetId>,
    patch: &mut Patch,
    stats: &mut RectifyStats,
    committed: &mut Vec<Vec<CandidateRewire>>,
) -> Result<(), EcoError> {
    let spec_root = spec.outputs()[pair.spec_index as usize].net();
    let fallback = vec![CandidateRewire {
        pin: Pin::output(pair.impl_index),
        candidate: RewireCandidate {
            net: spec_root,
            from_spec: true,
            utility: 1.0,
            arrival: 0.0,
        },
    }];
    let (ops, cloned) =
        apply_rewires(implementation, spec, &fallback, shared_clones).map_err(|_| {
            EcoError::RectificationFailed {
                output: pair.name.clone(),
            }
        })?;
    patch.record_cloned(cloned);
    for op in ops {
        patch.record_rewire(op);
    }
    stats.fallbacks += 1;
    committed.push(fallback);
    Ok(())
}

/// Searches one output pair against the immutable base circuit.
///
/// Pure: mutates nothing outside its local counters; the returned
/// [`SearchVerdict`] is applied (or discarded) by the merge phase. The RNG
/// stream is derived from the run seed and the output index so the verdict
/// is independent of worker count and scheduling.
#[allow(clippy::too_many_arguments)]
fn search_one_output<'s>(
    base: &Circuit,
    spec: &'s Circuit,
    corr: &Correspondence,
    pair: &OutputPair,
    seed: Option<&[bool]>,
    failing: &HashSet<u32>,
    initial_bank: &[Vec<bool>],
    options: &EcoOptions,
    timing: Option<&TimingReport>,
    stats: &mut SearchStats,
    budget: &Budget,
    buf: &mut TraceBuffer,
    shard: &MetricsShard,
    warm: Option<&WarmStart>,
    refined: &mut Vec<Vec<bool>>,
    proofs: &mut ProofCache<'s>,
) -> Result<SearchVerdict, EcoError> {
    let mut rng = SmallRng::seed_from_u64(per_output_seed(options.seed, pair.impl_index));
    let span_samples = buf.start();
    budget.fault_span(SpanPoint::Samples)?;
    let (mut samples, sample_sat) = collect_samples(
        base,
        spec,
        corr,
        pair,
        options.num_samples,
        options.sample_policy,
        seed,
        &mut rng,
        Some(budget),
        proofs,
    )?;
    stats.sat += sample_sat;
    buf.end_with(span_samples, "samples", "rectify", || {
        vec![
            ("collected", ArgValue::U64(samples.len() as u64)),
            ("sat_conflicts", ArgValue::U64(sample_sat.conflicts)),
        ]
    });
    if samples.is_empty() {
        return Ok(match budget.degrade_reason() {
            // The sampler gave up before finding a distinguishing input, so
            // we cannot claim equivalence: take the guaranteed fallback.
            Some(reason) => SearchVerdict::Fallback {
                reason: Some(reason),
            },
            // No error exists: the pair is equivalent after all.
            None => SearchVerdict::Equivalent,
        });
    }
    let mut sample_bank: Vec<Vec<bool>> = initial_bank.to_vec();
    for s in &samples {
        if !sample_bank.contains(s) {
            sample_bank.push(s.clone());
        }
    }

    // Warm start (DESIGN.md §11). Previously recorded refinement
    // counterexamples extend the sampling domain so it begins past the
    // false-positive phase a cold run pays refinements for, and a
    // previously validated proposal is SAT-re-validated up front — a hit
    // skips the search entirely. Both sit *behind* the empty-sample early
    // return above, so stale warm data can never mask true equivalence.
    if let Some(warm) = warm {
        let cap = options.num_samples.max(1).saturating_mul(2);
        for x in &warm.minterms {
            if samples.len() >= cap {
                break;
            }
            if x.len() == base.num_inputs() && !samples.contains(x) {
                samples.push(x.clone());
                if !sample_bank.contains(x) {
                    sample_bank.push(x.clone());
                }
            }
        }
        if let Some(proposal) = &warm.proposal {
            let no_clones: HashMap<NetId, NetId> = HashMap::new();
            stats.validations += 1;
            let t_val = Instant::now();
            let span_val = buf.start();
            let result = SampleBank::new(spec, corr, sample_bank.clone()).and_then(|bank| {
                validate_rewires(
                    base,
                    spec,
                    corr,
                    proposal,
                    pair,
                    failing,
                    &bank,
                    &no_clones,
                    VALIDATION_BUDGET,
                    Some(budget),
                    proofs,
                )
            });
            // An injected abort is a simulated crash, not a stale record.
            #[cfg(any(test, feature = "fault-injection"))]
            if let Err(EcoError::InjectedAbort) = result {
                return Err(EcoError::InjectedAbort);
            }
            let val_sat = result
                .as_ref()
                .map(|(_, s)| *s)
                .unwrap_or_else(|_| SolverStats::default());
            stats.sat += val_sat;
            buf.end_with(span_val, "validate", "rectify", || {
                let verdict = result.as_ref().map_or("error", |(v, _)| verdict_name(v));
                vec![
                    ("rewires", ArgValue::U64(proposal.len() as u64)),
                    ("sat_conflicts", ArgValue::U64(val_sat.conflicts)),
                    ("memoized", ArgValue::U64(1)),
                    ("verdict", ArgValue::Str(verdict.into())),
                ]
            });
            if shard.is_enabled() {
                shard.observe(
                    Histogram::ValidateMicros,
                    t_val.elapsed().as_micros() as u64,
                );
                shard.observe(Histogram::SatConflictsPerCall, val_sat.conflicts);
            }
            match result {
                Ok((Validation::Valid { .. }, _)) => {
                    stats.cache_hits += 1;
                    return Ok(SearchVerdict::Proposal {
                        rewires: proposal.clone(),
                        cut: None,
                    });
                }
                Ok((Validation::CounterExample(x) | Validation::Screened(x), _)) => {
                    // The rejection's distinguishing assignment is fresh
                    // signal: feed it into the domain before starting the
                    // cold search.
                    stats.cache_verify_rejects += 1;
                    if x.len() == base.num_inputs() && !samples.contains(&x) {
                        if !sample_bank.contains(&x) {
                            sample_bank.push(x.clone());
                        }
                        refined.push(x.clone());
                        samples.push(x);
                    }
                }
                // Damaged, infeasible, SAT-unknown, or a record so stale
                // it no longer applies cleanly: discard and search cold.
                _ => stats.cache_verify_rejects += 1,
            }
        }
    }

    let mut pin_cap = MAX_CANDIDATE_PINS;
    let mut refinements_left = MAX_REFINEMENTS;
    let mut ended: Option<DegradeReason> = None;
    loop {
        if let Some(reason) = budget.degrade_reason() {
            ended = Some(reason);
            break;
        }
        match attempt_with_domain(
            base,
            spec,
            corr,
            pair,
            &samples,
            pin_cap,
            failing,
            &sample_bank,
            timing,
            stats,
            budget,
            buf,
            shard,
            proofs,
        )? {
            Attempt::Found { rewires, cut } => {
                return Ok(SearchVerdict::Proposal { rewires, cut });
            }
            Attempt::Refine(x) => {
                if refinements_left == 0 {
                    break;
                }
                refinements_left -= 1;
                stats.refinements += 1;
                buf.instant("refine", "rectify");
                if !sample_bank.contains(&x) {
                    sample_bank.push(x.clone());
                }
                refined.push(x.clone());
                samples.push(x);
            }
            Attempt::NodeLimit => {
                if pin_cap <= 4 {
                    ended = Some(DegradeReason::BddNodeLimit);
                    break;
                }
                pin_cap /= 2;
            }
            Attempt::SatExhausted => {
                ended = Some(DegradeReason::SatBudgetExhausted);
                break;
            }
            Attempt::BudgetOut(reason) => {
                ended = Some(reason);
                break;
            }
            Attempt::Exhausted => break,
        }
    }

    // Fallback: the output pin is a rectification point whose rectification
    // function is f' itself, realized by the corresponding output of C'
    // (§3.3 completeness argument). The merge phase applies it.
    Ok(SearchVerdict::Fallback { reason: ended })
}

/// Maps a BDD failure inside an attempt to the matching [`Attempt`] outcome:
/// node-limit hits shrink the domain, budget cuts bubble up as degradations,
/// anything else is a hard error.
fn bdd_cut(e: BddError) -> Result<Attempt, EcoError> {
    match e {
        BddError::NodeLimit { .. } => Ok(Attempt::NodeLimit),
        BddError::DeadlineExceeded => Ok(Attempt::BudgetOut(DegradeReason::DeadlineExceeded)),
        BddError::Cancelled => Ok(Attempt::BudgetOut(DegradeReason::Cancelled)),
        // An armed bdd-gc fault point vetoed the collection through the
        // event hook: simulate a hard crash, exactly like an abort:
        // span fault — the run must be resumable from its checkpoints.
        #[cfg(any(test, feature = "fault-injection"))]
        BddError::Aborted => Err(EcoError::InjectedAbort),
        other => Err(EcoError::from(other)),
    }
}

/// The `verdict` arg of a `validate` span.
fn verdict_name(v: &Validation) -> &'static str {
    match v {
        Validation::Valid { .. } => "valid",
        Validation::Screened(_) => "screened",
        Validation::CounterExample(_) => "counterexample",
        Validation::Damaged => "damaged",
        Validation::Infeasible => "infeasible",
        Validation::Unknown => "unknown",
    }
}

/// One search attempt over a fixed sampling domain. Read-only with respect
/// to the circuit: a validated choice is returned as [`Attempt::Found`], not
/// applied.
///
/// Owns the attempt's [`BddManager`] so its cache counters and peak node
/// count can be folded into `stats` on **every** exit path of the inner
/// search, early cuts included.
#[allow(clippy::too_many_arguments)]
fn attempt_with_domain<'s>(
    base: &Circuit,
    spec: &'s Circuit,
    corr: &Correspondence,
    pair: &OutputPair,
    samples: &[Vec<bool>],
    pin_cap: usize,
    failing: &HashSet<u32>,
    sample_bank: &[Vec<bool>],
    timing: Option<&TimingReport>,
    stats: &mut SearchStats,
    budget: &Budget,
    buf: &mut TraceBuffer,
    shard: &MetricsShard,
    proofs: &mut ProofCache<'s>,
) -> Result<Attempt, EcoError> {
    let node_limit = if budget.inject_bdd_node_limit() {
        1 // fault injection: force an immediate NodeLimit on the first op
    } else {
        BDD_NODE_LIMIT
    };
    let mut m = BddManager::with_node_limit(node_limit);
    // Automatic collection trigger, checked at point-set boundaries. Fault
    // arming may lower it to force the machinery under test.
    m.set_gc_threshold(Some(BDD_GC_THRESHOLD));
    budget.arm_bdd(&mut m);
    let result = attempt_in_manager(
        &mut m,
        base,
        spec,
        corr,
        pair,
        samples,
        pin_cap,
        failing,
        sample_bank,
        timing,
        stats,
        budget,
        buf,
        shard,
        proofs,
    );
    stats.bdd += m.counters();
    stats.bdd_peak_nodes = stats.bdd_peak_nodes.max(m.peak_num_nodes());
    stats.bdd_unique_entries = stats.bdd_unique_entries.max(m.unique_table_len());
    result
}

/// The body of [`attempt_with_domain`], running inside the supplied manager.
#[allow(clippy::too_many_arguments)]
fn attempt_in_manager<'s>(
    m: &mut BddManager,
    base: &Circuit,
    spec: &'s Circuit,
    corr: &Correspondence,
    pair: &OutputPair,
    samples: &[Vec<bool>],
    pin_cap: usize,
    failing: &HashSet<u32>,
    sample_bank: &[Vec<bool>],
    timing: Option<&TimingReport>,
    stats: &mut SearchStats,
    budget: &Budget,
    buf: &mut TraceBuffer,
    shard: &MetricsShard,
    proofs: &mut ProofCache<'s>,
) -> Result<Attempt, EcoError> {
    let root = base.outputs()[pair.impl_index as usize].net();
    let spec_root = spec.outputs()[pair.spec_index as usize].net();
    let domain = SamplingDomain::new(samples.to_vec(), Z_BASE)?;

    let g_impl = match domain.input_functions(m, base.num_inputs()) {
        Ok(v) => v,
        Err(e) => return bdd_cut(e),
    };
    let mut g_spec = vec![m.zero(); spec.num_inputs()];
    for (pos, sp) in corr.spec_input_pos.iter().enumerate() {
        if let Some(sp) = sp {
            g_spec[*sp] = g_impl[pos];
        }
    }
    let impl_vals = match eval_all_bdd(base, m, &g_impl) {
        Ok(v) => v,
        Err(e) => return bdd_cut(e),
    };
    let spec_vals = match eval_all_bdd(spec, m, &g_spec) {
        Ok(v) => v,
        Err(e) => return bdd_cut(e),
    };
    let fprime = spec_vals[spec_root.index()];
    // The revised output value per sample — the constants the minimal-set
    // enumeration compares each simulated cone against.
    let fprime_bits: Vec<bool> = (0..domain.len())
        .map(|k| m.eval(fprime, &domain.code_assignment(k)))
        .collect();

    let pins = candidate_pins(base, root, pair.impl_index, pin_cap);
    let ctx = RewireNetContext::build(base, spec, corr, spec_root, samples)?;
    // The candidate screen runs over the full sample bank (a strict
    // superset of this attempt's sampling domain): one spec simulation per
    // attempt, reused by every validation below.
    let bank = SampleBank::new(spec, corr, sample_bank.to_vec())?;
    // Handles the search must keep across collections: the
    // per-input domain functions and every evaluated net of both circuits
    // (`fprime` and `g_spec` entries are aliases into these).
    let mut search_roots: Vec<Bdd> =
        Vec::with_capacity(g_impl.len() + impl_vals.len() + spec_vals.len());
    search_roots.extend_from_slice(&g_impl);
    search_roots.extend_from_slice(&impl_vals);
    search_roots.extend_from_slice(&spec_vals);
    // Searches run against the pristine base circuit, so candidate cost is
    // estimated without cross-output clone sharing; the merge phase dedups
    // actual clones via its shared map.
    let no_clones: HashMap<NetId, NetId> = HashMap::new();

    let mut first_counterexample: Option<Vec<bool>> = None;
    // All validated candidates across every m, scored by patch cost: cloned
    // spec gates (estimated by cone size), then fewer rewires, then more
    // outputs fixed. A near-zero-cost candidate (pure or almost pure reuse
    // of existing implementation logic) commits immediately; otherwise
    // larger m may still find a cheaper multi-point rewiring (the Figure-1
    // effect), so the search continues before committing the global best.
    struct ValidOption {
        cost: usize,
        rewires_len: usize,
        arrival: f64,
        fixed: Vec<u32>,
        rewires: Vec<CandidateRewire>,
    }
    const EARLY_COMMIT_COST: usize = 1;
    let clone_cost = |rewires: &[CandidateRewire]| -> usize {
        rewires
            .iter()
            .filter(|r| r.candidate.from_spec)
            .map(|r| topo::cone_size(spec, r.candidate.net).max(1))
            .sum()
    };
    let mut valid: Vec<ValidOption> = Vec::new();
    let mut validations_left = MAX_VALIDATIONS_PER_OUTPUT;
    let mut unknowns = 0usize;
    let mut cut: Option<DegradeReason> = None;
    // Built in the first `point_sets` span and queried one size at a time:
    // the attempt tries at most `MAX_POINT_SETS` sets, smallest first.
    let mut minimal: Option<MinimalSets> = None;
    let mut sets_found = 0usize;
    'outer: for m_points in 1..=MAX_POINTS {
        if let Some(reason) = budget.degrade_reason() {
            if valid.is_empty() {
                return Ok(Attempt::BudgetOut(reason));
            }
            cut = Some(reason);
            break;
        }
        // Escalating m is for finding *cheaper* multi-point rewirings; once
        // a good-enough option exists, stop growing the search.
        if valid.iter().any(|v| v.cost <= GOOD_ENOUGH_COST) {
            break;
        }
        if sets_found == MAX_POINT_SETS {
            break;
        }
        let span_sets = buf.start();
        budget.fault_span(SpanPoint::PointSets)?;
        let sets = minimal
            .get_or_insert_with(|| {
                MinimalSets::new(base, samples, &fprime_bits, root, pair.impl_index, &pins)
            })
            .of_size(m_points, MAX_POINT_SETS - sets_found);
        sets_found += sets.len();
        buf.end_with(span_sets, "point_sets", "rectify", || {
            vec![
                ("m", ArgValue::U64(m_points as u64)),
                ("sets", ArgValue::U64(sets.len() as u64)),
            ]
        });
        for point_set in sets {
            if let Some(reason) = budget.degrade_reason() {
                if valid.is_empty() {
                    return Ok(Attempt::BudgetOut(reason));
                }
                cut = Some(reason);
                break 'outer;
            }
            stats.point_sets_tried += 1;
            // Point-set boundary: the previous iteration's choice
            // intermediates are garbage now. Give the manager a chance to
            // collect against the handles still needed; a no-op until its
            // automatic threshold trips.
            if let Err(e) = m.maybe_gc(&search_roots) {
                return bdd_cut(e);
            }
            let mut cand_lists: Vec<Vec<RewireCandidate>> = Vec::with_capacity(point_set.len());
            for &p in &point_set {
                cand_lists.push(candidates_for_pin(
                    base,
                    &ctx,
                    p,
                    MAX_REWIRE_CANDIDATES,
                    timing,
                )?);
            }
            let span_choices = buf.start();
            budget.fault_span(SpanPoint::Choices)?;
            let choices = match find_choices(
                base,
                m,
                &g_impl,
                &impl_vals,
                &spec_vals,
                fprime,
                root,
                pair.impl_index,
                &point_set,
                &cand_lists,
                Y_BASE,
                C_BASE,
                &domain.z_vars(),
                MAX_CHOICES,
            ) {
                Ok(c) => c,
                Err(e) => return bdd_cut(e),
            };
            buf.end_with(span_choices, "choices", "rectify", || {
                vec![
                    ("m", ArgValue::U64(m_points as u64)),
                    ("choices", ArgValue::U64(choices.len() as u64)),
                ]
            });

            // Rank choices: fewer non-trivial rewires first, then higher
            // total utility; under level-driven selection, earlier arrival
            // breaks remaining ties (the Table-3 lever).
            let mut ranked: Vec<Vec<usize>> = choices;
            ranked.sort_by(|a, b| {
                let nt = |ch: &Vec<usize>| ch.iter().filter(|&&j| j != 0).count();
                let util = |ch: &Vec<usize>| -> f64 {
                    ch.iter()
                        .enumerate()
                        .map(|(i, &j)| cand_lists[i][j].utility)
                        .sum()
                };
                let arr = |ch: &Vec<usize>| -> f64 {
                    ch.iter()
                        .enumerate()
                        .map(|(i, &j)| cand_lists[i][j].arrival)
                        .sum()
                };
                nt(a)
                    .cmp(&nt(b))
                    .then_with(|| {
                        util(b)
                            .partial_cmp(&util(a))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .then_with(|| {
                        arr(a)
                            .partial_cmp(&arr(b))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
            });

            // Validate every decoded choice of this point-set.
            for choice in ranked {
                stats.choices_tried += 1;
                let mut rewires: Vec<CandidateRewire> = Vec::new();
                for (i, (&pin, &j)) in point_set.iter().zip(choice.iter()).enumerate() {
                    if j == 0 {
                        continue; // trivial: the point keeps its driver
                    }
                    rewires.push(CandidateRewire {
                        pin,
                        candidate: cand_lists[i][j].clone(),
                    });
                }
                if rewires.is_empty() {
                    continue; // all-trivial: no actual change
                }
                if validations_left == 0 {
                    break 'outer;
                }
                if let Some(reason) = budget.degrade_reason() {
                    if valid.is_empty() {
                        return Ok(Attempt::BudgetOut(reason));
                    }
                    cut = Some(reason);
                    break 'outer;
                }
                let t_val = Instant::now();
                let span_val = buf.start();
                let (validation, val_sat) = validate_rewires(
                    base,
                    spec,
                    corr,
                    &rewires,
                    pair,
                    failing,
                    &bank,
                    &no_clones,
                    VALIDATION_BUDGET,
                    Some(budget),
                    proofs,
                )?;
                // A cyclic or bank-screened candidate is provably invalid
                // without SAT: it consumes no validation slot and opens no
                // `validate` span.
                if let Validation::Screened(_) | Validation::Infeasible = validation {
                    stats.prefilter_screened += 1;
                    continue;
                }
                stats.prefilter_passed += 1;
                validations_left -= 1;
                stats.validations += 1;
                stats.sat += val_sat;
                buf.end_with(span_val, "validate", "rectify", || {
                    vec![
                        ("rewires", ArgValue::U64(rewires.len() as u64)),
                        ("sat_conflicts", ArgValue::U64(val_sat.conflicts)),
                        ("verdict", ArgValue::Str(verdict_name(&validation).into())),
                    ]
                });
                if shard.is_enabled() {
                    shard.observe(
                        Histogram::ValidateMicros,
                        t_val.elapsed().as_micros() as u64,
                    );
                    shard.observe(Histogram::SatConflictsPerCall, val_sat.conflicts);
                }
                match validation {
                    Validation::Valid { fixed } => {
                        let cost = clone_cost(&rewires);
                        let arrival = rewires
                            .iter()
                            .map(|r| r.candidate.arrival)
                            .fold(0.0, f64::max);
                        valid.push(ValidOption {
                            cost,
                            rewires_len: rewires.len(),
                            arrival,
                            fixed,
                            rewires,
                        });
                        if cost <= EARLY_COMMIT_COST {
                            break 'outer; // (near-)pure reuse: unbeatable
                        }
                    }
                    Validation::CounterExample(x) => {
                        if first_counterexample.is_none() {
                            first_counterexample = Some(x);
                        }
                        // The domain endorsed a wrong choice; its siblings
                        // were endorsed by the same deficient domain, so
                        // refine immediately unless a valid option is
                        // already in hand.
                        if valid.is_empty() {
                            break 'outer;
                        }
                    }
                    Validation::Damaged | Validation::Screened(_) | Validation::Infeasible => {}
                    Validation::Unknown => {
                        // SAT ran out of resources before reaching a verdict.
                        unknowns += 1;
                    }
                }
            }
        }
    }
    // Return the best validated option: smallest clone cost, then fewest
    // rewires, then most outputs fixed (§5.2's favoring).
    if !valid.is_empty() {
        valid.sort_by(|a, b| {
            a.cost
                .cmp(&b.cost)
                .then_with(|| a.rewires_len.cmp(&b.rewires_len))
                .then_with(|| b.fixed.len().cmp(&a.fixed.len()))
                // Level-driven selection (§6): among otherwise equal
                // options, prefer the one fed by earlier-arriving nets.
                .then_with(|| {
                    a.arrival
                        .partial_cmp(&b.arrival)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        });
        if let Some(best) = valid.into_iter().next() {
            return Ok(Attempt::Found {
                rewires: best.rewires,
                cut,
            });
        }
    }
    Ok(match first_counterexample {
        Some(x) => Attempt::Refine(x),
        None if unknowns > 0 => Attempt::SatExhausted,
        None => Attempt::Exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::GateKind;
    use std::sync::{Arc, Mutex};

    /// A whole run with no observer and telemetry off, under `budget` or,
    /// when `None`, an unlimited one.
    fn rectify(
        c: &mut Circuit,
        s: &Circuit,
        options: &EcoOptions,
        budget: Option<&Budget>,
    ) -> (Patch, RectifyStats) {
        let unlimited = Budget::unlimited();
        let pool = WorkerPool::new(options.effective_jobs());
        let (patch, stats, _trace, _committed) = rewire_rectify_with(
            c,
            s,
            options,
            budget.unwrap_or(&unlimited),
            None,
            &pool,
            &Telemetry::disabled(),
            None,
            None,
        )
        .unwrap();
        (patch, stats)
    }

    /// impl: y = a & b (wrong), d = a & b reused elsewhere must survive;
    /// spec: y = a | b, d unchanged.
    fn and_or_case() -> (Circuit, Circuit) {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let d = c.add_gate(GateKind::Not, &[g]).unwrap();
        c.add_output("y", g);
        c.add_output("d", d);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sg = s.add_gate(GateKind::Or, &[sa, sb]).unwrap();
        let sand = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        let sd = s.add_gate(GateKind::Not, &[sand]).unwrap();
        s.add_output("y", sg);
        s.add_output("d", sd);
        (c, s)
    }

    fn check_equiv(c: &Circuit, s: &Circuit) {
        let corr = Correspondence::build(c, s).unwrap();
        for pair in &corr.outputs {
            assert_eq!(
                check_output_pair(c, s, pair, None, None, &mut ProofCache::new())
                    .unwrap()
                    .0,
                Equivalence::Equivalent,
                "output {} must be rectified",
                pair.name
            );
        }
    }

    #[test]
    fn rectifies_and_to_or_preserving_sibling() {
        let (mut c, s) = and_or_case();
        let options = EcoOptions::with_seed(3);
        let (patch, stats) = rectify(&mut c, &s, &options, None);
        check_equiv(&c, &s);
        assert_eq!(stats.outputs_failing, 1, "only y fails");
        assert!(!patch.rewires().is_empty());
        // The protected output d (= nand) must still be driven by the
        // original AND cone: rewiring the output pin of y, not the AND's
        // internals, is the only non-damaging single rewire here.
        c.check_well_formed().unwrap();
    }

    #[test]
    fn equivalent_designs_need_no_patch() {
        let (c0, _) = and_or_case();
        let mut c = c0.clone();
        let s = c0;
        let options = EcoOptions::with_seed(1);
        let (patch, stats) = rectify(&mut c, &s, &options, None);
        assert_eq!(stats.outputs_failing, 0);
        assert!(patch.rewires().is_empty());
        assert_eq!(patch.stats(&c), crate::PatchStats::default());
    }

    /// The Figure-1 scenario reduced: an existing net (NOT s1) in the
    /// implementation realizes the revised behaviour — the engine should
    /// rewire to it instead of cloning spec logic.
    #[test]
    fn reuses_existing_logic_when_available() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s0 = c.add_input("s0");
        let s1 = c.add_input("s1");
        let ns1 = c.add_gate(GateKind::Not, &[s1]).unwrap();
        let t1 = c.add_gate(GateKind::And, &[a, s0]).unwrap();
        let t2 = c.add_gate(GateKind::And, &[b, s1]).unwrap();
        let y = c.add_gate(GateKind::Or, &[t1, t2]).unwrap();
        c.add_output("y", y);
        c.add_output("aux", ns1);

        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let _ss0 = s.add_input("s0");
        let ss1 = s.add_input("s1");
        let sns1 = s.add_gate(GateKind::Not, &[ss1]).unwrap();
        let st1 = s.add_gate(GateKind::And, &[sa, sns1]).unwrap();
        let st2 = s.add_gate(GateKind::And, &[sb, ss1]).unwrap();
        let sy = s.add_gate(GateKind::Or, &[st1, st2]).unwrap();
        s.add_output("y", sy);
        s.add_output("aux", sns1);

        let options = EcoOptions::with_seed(11);
        let (patch, stats) = rectify(&mut c, &s, &options, None);
        check_equiv(&c, &s);
        let pstats = patch.stats(&c);
        assert_eq!(
            pstats.gates, 0,
            "existing NOT gate should be reused, not cloned: {pstats:?} ({stats:?})"
        );
    }

    #[test]
    fn multi_output_design_fully_rectified() {
        // Three outputs, two of them revised.
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
        let g3 = c.add_gate(GateKind::Or, &[a, d]).unwrap();
        c.add_output("u", g1);
        c.add_output("v", g2);
        c.add_output("w", g3);

        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sd = s.add_input("d");
        let h1 = s.add_gate(GateKind::Nand, &[sa, sb]).unwrap(); // changed
        let h2 = s.add_gate(GateKind::Xor, &[h1, sd]).unwrap(); // changed: ¬(a∧b)⊕d
        let h3 = s.add_gate(GateKind::Or, &[sa, sd]).unwrap(); // same
        s.add_output("u", h1);
        s.add_output("v", h2);
        s.add_output("w", h3);

        let options = EcoOptions::with_seed(5);
        let (_patch, stats) = rectify(&mut c, &s, &options, None);
        check_equiv(&c, &s);
        assert_eq!(stats.outputs_failing, 2);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn per_output_stats_and_progress_events_are_reported() {
        let (mut c, s) = and_or_case();
        let options = EcoOptions::builder().seed(3).jobs(1).build();
        let events: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = Arc::clone(&events);
        let observer: ProgressCallback = Arc::new(move |e: &ProgressEvent| {
            let tag = match e {
                ProgressEvent::RunStarted { .. } => "start",
                ProgressEvent::OutputStarted { .. } => "out-start",
                ProgressEvent::OutputSearched { .. } => "out-search",
                ProgressEvent::OutputRectified { .. } => "out-done",
                ProgressEvent::RunFinished { .. } => "finish",
            };
            sink.lock().unwrap().push(tag.to_string());
        });
        let budget = Budget::unlimited();
        let pool = WorkerPool::new(1);
        let telemetry = Telemetry::enabled();
        let (_patch, stats, trace, _committed) = rewire_rectify_with(
            &mut c,
            &s,
            &options,
            &budget,
            Some(&observer),
            &pool,
            &telemetry,
            None,
            None,
        )
        .unwrap();
        // The run span closes the coordinator lane; the per-output search
        // span sits on lane 1. Counters made it into both the stats and the
        // metrics registry.
        assert!(trace.iter().any(|sp| sp.name == "run" && sp.lane == 0));
        assert!(trace.iter().any(|sp| sp.name == "search" && sp.lane == 1));
        assert!(stats.validations > 0);
        assert!(stats.sat_propagations > 0, "{stats:?}");
        assert!(stats.bdd.total_misses() > 0, "{stats:?}");
        assert!(stats.bdd_peak_nodes >= 2);
        let snapshot = telemetry.snapshot();
        assert_eq!(
            snapshot.counter(Counter::RectifyValidations),
            stats.validations as u64
        );
        assert_eq!(snapshot.counter(Counter::SatConflicts), stats.sat_conflicts);
        assert_eq!(
            snapshot.gauge(Gauge::BddPeakNodes),
            stats.bdd_peak_nodes as u64
        );
        assert_eq!(stats.per_output.len(), 1);
        assert_eq!(stats.per_output[0].output, "y");
        assert_ne!(stats.per_output[0].action, OutputAction::AlreadyEquivalent);
        assert_eq!(stats.normalized().per_output[0].search, Duration::ZERO);
        let events = events.lock().unwrap();
        assert_eq!(events.first().map(String::as_str), Some("start"));
        assert_eq!(events.last().map(String::as_str), Some("finish"));
        assert_eq!(
            events.iter().filter(|t| t.as_str() == "out-done").count(),
            1
        );
    }

    // --- resource-governance and fault-injection paths ---

    use crate::fault::FaultPolicy;

    fn rectify_with_faults(faults: FaultPolicy) -> (Circuit, Circuit, RectifyStats) {
        let (mut c, s) = and_or_case();
        let budget = Budget::unlimited().with_faults(faults);
        let options = EcoOptions::with_seed(3);
        let (_patch, stats) = rectify(&mut c, &s, &options, Some(&budget));
        (c, s, stats)
    }

    #[test]
    fn injected_bdd_node_limit_falls_back_to_output_rewire() {
        let (c, s, stats) = rectify_with_faults(FaultPolicy {
            bdd_node_limit_from: Some(1),
            ..FaultPolicy::default()
        });
        // Every BDD attempt hits the forced node limit, the pin cap shrinks
        // to its floor, and the output takes the guaranteed fallback.
        assert_eq!(stats.degradations.len(), 1);
        let d = &stats.degradations[0];
        assert_eq!(d.output, "y");
        assert_eq!(d.reason, DegradeReason::BddNodeLimit);
        assert!(matches!(d.action, DegradeAction::OutputRewireFallback));
        assert!(stats.fallbacks >= 1);
        check_equiv(&c, &s);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn injected_sat_exhaustion_falls_back_to_output_rewire() {
        let (c, s, stats) = rectify_with_faults(FaultPolicy {
            sat_exhaust_from: Some(1),
            ..FaultPolicy::default()
        });
        // Every candidate validation comes back Unknown, so the search ends
        // with nothing provable and degrades to the fallback.
        assert_eq!(stats.degradations.len(), 1);
        let d = &stats.degradations[0];
        assert_eq!(d.output, "y");
        assert_eq!(d.reason, DegradeReason::SatBudgetExhausted);
        assert!(matches!(d.action, DegradeAction::OutputRewireFallback));
        check_equiv(&c, &s);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn injected_panic_is_isolated_and_falls_back() {
        let (c, s, stats) = rectify_with_faults(FaultPolicy {
            panic_at: Some(1),
            ..FaultPolicy::default()
        });
        assert_eq!(stats.degradations.len(), 1);
        let d = &stats.degradations[0];
        assert_eq!(d.output, "y");
        let DegradeReason::SearchPanicked(msg) = &d.reason else {
            panic!("expected SearchPanicked, got {:?}", d.reason);
        };
        assert!(msg.contains("synthetic fault"), "got {msg:?}");
        assert!(matches!(d.action, DegradeAction::OutputRewireFallback));
        // The search is pure, so a panic inside it cannot corrupt the
        // circuit; the merge phase applies the fallback.
        check_equiv(&c, &s);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn expired_deadline_degrades_every_failing_output() {
        let (mut c, s) = and_or_case();
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let options = EcoOptions::with_seed(3);
        let (_patch, stats) = rectify(&mut c, &s, &options, Some(&budget));
        assert_eq!(stats.degradations.len(), stats.outputs_failing);
        for d in &stats.degradations {
            assert_eq!(d.reason, DegradeReason::DeadlineExceeded);
            assert!(matches!(d.action, DegradeAction::OutputRewireFallback));
        }
        check_equiv(&c, &s);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn cancelled_token_degrades_instead_of_aborting() {
        let (mut c, s) = and_or_case();
        let token = crate::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(&token);
        let options = EcoOptions::with_seed(3);
        let (_patch, stats) = rectify(&mut c, &s, &options, Some(&budget));
        assert!(!stats.degradations.is_empty());
        for d in &stats.degradations {
            assert_eq!(d.reason, DegradeReason::Cancelled);
        }
        check_equiv(&c, &s);
    }

    #[test]
    fn clean_run_reports_no_degradations() {
        let (mut c, s) = and_or_case();
        let options = EcoOptions::with_seed(3);
        let (_patch, stats) = rectify(&mut c, &s, &options, None);
        assert!(stats.degradations.is_empty());
    }

    #[test]
    fn jobs_do_not_change_the_patch() {
        // The multi-output case exercises search + merge; the patch and the
        // normalized stats must be identical for every worker count.
        let build = |jobs: usize| {
            let mut c = Circuit::new("impl");
            let a = c.add_input("a");
            let b = c.add_input("b");
            let d = c.add_input("d");
            let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
            let g2 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
            c.add_output("u", g1);
            c.add_output("v", g2);
            let mut s = Circuit::new("spec");
            let sa = s.add_input("a");
            let sb = s.add_input("b");
            let sd = s.add_input("d");
            let h1 = s.add_gate(GateKind::Nand, &[sa, sb]).unwrap();
            let h2 = s.add_gate(GateKind::Xor, &[h1, sd]).unwrap();
            s.add_output("u", h1);
            s.add_output("v", h2);
            let options = EcoOptions::builder().seed(7).jobs(jobs).build();
            let (patch, stats) = rectify(&mut c, &s, &options, None);
            (format!("{:?}", patch.rewires()), stats.normalized())
        };
        let (p1, s1) = build(1);
        let (p4, s4) = build(4);
        assert_eq!(p1, p4);
        assert_eq!(s1, s4);
    }
}
