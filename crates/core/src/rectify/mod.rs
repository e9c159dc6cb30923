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
//! ([`EcoOptions::jobs`](crate::EcoOptions::jobs)); each search is *pure* — it reads the
//! post-normalization base circuit and returns a rewiring **proposal**
//! without mutating anything. A sequential merge phase then applies the
//! proposals in a deterministic order (increasing cone size), re-validating
//! any proposal applied after the circuit changed; a proposal invalidated by
//! an earlier merge degrades to the output-rewire fallback with
//! [`DegradeReason::MergeConflict`]. Because every search derives its RNG
//! stream from the run seed and the output index, and the merge order is
//! independent of completion order, results are bit-identical for every
//! worker count (see DESIGN.md "Parallel execution model").
//!
//! This module holds detection, the merge order, the cache and checkpoint
//! slots, the fan-out and the cache write-back; `search.rs` holds the
//! per-output search, `merge.rs` the merge phase and the verification pass.

mod merge;
mod search;

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use eco_bdd::BddCounters;
use eco_netlist::sim::Compiled;
use eco_netlist::{topo, Circuit};
use eco_sat::cec::ProofCache;
use eco_sat::SolverStats;
use eco_telemetry::{ArgValue, Counter, Gauge, Histogram, MetricsShard, SpanRecord, TraceBuffer};
use eco_timing::{DelayModel, TimingReport};

use crate::budget::{Budget, Degradation, DegradeReason};
use crate::checkpoint::{CheckpointSession, CheckpointVerdict};
use crate::choices::block_bits;
use crate::correspond::{Correspondence, OutputPair};
use crate::error_domain::{classify_outputs_with_stats, Equivalence};
use crate::fault::SpanPoint;
use crate::memo::{CacheSession, OutputEntry};
use crate::patch::Patch;
use crate::points;
use crate::progress::{emit, OutputAction, ProgressEvent};
use crate::schedule::WorkerPool;
use crate::session::Session;
use crate::validate::CandidateRewire;
use crate::EcoError;
use merge::Merge;
use search::OutputSearch;

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
    ///
    /// [`validate_rewires`]: crate::validate::validate_rewires
    /// [`Validation::Infeasible`]: crate::validate::Validation::Infeasible
    /// [`Validation::Screened`]: crate::validate::Validation::Screened
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
    /// SAT effort across detection, search, validation, and rechecks.
    ///
    /// Like every counter here, deterministic for a given seed and input —
    /// independent of `jobs` — because each solver instance sees a
    /// deterministic query sequence and sums commute.
    pub sat: SolverStats,
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
    /// [`EcoOptions::checkpoint_dir`](crate::EcoOptions::checkpoint_dir).
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

/// Adds one SAT effort reading to the six `sat.*` counters of `shard`.
fn add_sat_counters(shard: &MetricsShard, s: &SolverStats) {
    shard.add(Counter::SatConflicts, s.conflicts);
    shard.add(Counter::SatDecisions, s.decisions);
    shard.add(Counter::SatPropagations, s.propagations);
    shard.add(Counter::SatRestarts, s.restarts);
    shard.add(Counter::SatLearntClauses, s.learnt_clauses);
    shard.add(Counter::SatLearntLiterals, s.learnt_literals);
}

/// Folds one coordinator-side SAT effort reading into the run stats and the
/// metrics shard.
fn note_sat(stats: &mut RectifyStats, shard: &MetricsShard, s: SolverStats) {
    stats.sat += s;
    if shard.is_enabled() {
        add_sat_counters(shard, &s);
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
/// Its cache hits and rejects are run-level counts, published by
/// [`publish_run_counters`].
fn flush_search_metrics(shard: &MetricsShard, s: &SearchStats, search: Duration) {
    if !shard.is_enabled() {
        return;
    }
    add_sat_counters(shard, &s.sat);
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
    shard.gauge_max(Gauge::BddPeakNodes, s.bdd_peak_nodes as u64);
    shard.gauge_max(Gauge::BddUniqueEntries, s.bdd_unique_entries as u64);
    shard.observe(Histogram::SearchMicros, search.as_micros() as u64);
}

/// Publishes the run-level counters of a finished run from its final
/// stats: the outcome counts, every cache and checkpoint total, and the
/// faults that fired. The cold path and the whole-run cache replay both
/// end here, so the registry reports what [`RectifyStats`] reports either
/// way. The per-search counters are not among them: each search flushes
/// its own into its worker's shard as it ends.
pub(crate) fn publish_run_counters(shard: &MetricsShard, stats: &RectifyStats, faults_fired: u64) {
    if !shard.is_enabled() {
        return;
    }
    let merge_conflicts = stats
        .degradations
        .iter()
        .filter(|d| matches!(d.reason, DegradeReason::MergeConflict))
        .count();
    shard.add(Counter::RectifyRewired, stats.rewire_rectified as u64);
    shard.add(Counter::RectifyFallbacks, stats.fallbacks as u64);
    shard.add(
        Counter::RectifyDegradations,
        stats.degradations.len() as u64,
    );
    shard.add(Counter::RectifyMergeConflicts, merge_conflicts as u64);
    shard.add(Counter::CacheHits, stats.cache_hits);
    shard.add(Counter::CacheMisses, stats.cache_misses);
    shard.add(Counter::CacheVerifyRejects, stats.cache_verify_rejects);
    shard.add(Counter::CacheCorruptSegments, stats.cache_corrupt_segments);
    shard.add(Counter::CacheIoErrors, stats.cache_io_errors);
    shard.add(Counter::CacheRetries, stats.cache_retries);
    shard.add(Counter::CheckpointHits, stats.checkpoint_hits);
    shard.add(Counter::CheckpointWrites, stats.checkpoint_writes);
    shard.add(Counter::FaultInjections, faults_fired);
}

/// Runs the full rectification flow of one [`Session`] run, mutating
/// `implementation` in place.
///
/// The session is responsible for pre-normalizing ports and for the
/// post-processing patch sweep, and for building `budget` from
/// [`EcoOptions::timeout`](crate::EcoOptions::timeout).
///
/// Per-output searches are isolated: a budget expiry, an error, or a panic
/// inside one output's search degrades only that output to the
/// always-applicable output-rewire fallback and records a [`Degradation`] —
/// the run as a whole still succeeds with every output rectified.
///
/// The third tuple element is the merged trace: coordinator spans (lane 0)
/// first, then each search's spans in merge-slot order (lane `i + 1`) —
/// independent of worker scheduling. Empty when the session's telemetry is
/// disabled.
///
/// With a [`CacheSession`], per-output records warm-start searches (stored
/// sampling minterms plus the previously validated proposal, which is
/// SAT-re-validated before reuse) and finished searches are recorded back.
/// The fourth tuple element is the committed rewire groups in commit order
/// — everything `Patch::apply` executed and kept — from which the caller
/// can build a whole-run replay record (DESIGN.md §11).
pub(crate) fn rewire_rectify_with(
    session: &Session,
    implementation: &mut Circuit,
    spec: &Circuit,
    budget: &Budget,
    mut cache: Option<&mut CacheSession>,
    checkpoint: Option<&CheckpointSession>,
) -> Result<CommittedRectification, EcoError> {
    let (options, observer, telemetry) = (
        session.options(),
        session.observer.as_ref(),
        &session.telemetry,
    );
    let t_run = Instant::now();
    let mut tb = telemetry.buffer(0);
    let shard = telemetry.shard();
    let span_run = tb.start();
    budget.fault_span(SpanPoint::Run)?;
    let corr = Correspondence::build(implementation, spec)?;
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

    let pool = WorkerPool::new(options.effective_jobs());
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
    // Neither circuit changes during the search phase: compile each once.
    let (base_sim, spec_sim) = (Compiled::new(base)?, Compiled::new(spec)?);
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
        let mut search = OutputSearch {
            base,
            spec,
            base_sim: &base_sim,
            spec_sim: &spec_sim,
            corr: &corr,
            pair,
            seed: seeds.get(&pair.impl_index).map(Vec::as_slice),
            failing: &failing,
            initial_bank: &initial_bank,
            options,
            timing: timing.as_ref(),
            budget,
            warm: output_entries.get(i).and_then(|e| e.warm.as_ref()),
            shard: &worker_shards[w],
            stats: SearchStats::default(),
            // Trace lane i+1 belongs to merge slot i regardless of which
            // worker ran it, so the merged trace is independent of
            // scheduling.
            trace: telemetry.buffer(i as u32 + 1),
            proofs: proof_base.overlay(),
            refined: Vec::new(),
        };
        let span_search = search.trace.start();
        let slot = checkpoint_slots.get(i);
        let verdict = match slot.and_then(|(_, record)| record.clone()) {
            // Resumed from the checkpoint: skip the search entirely. The
            // stored refinement minterms are carried over so the cache
            // write-back matches an uninterrupted run's.
            Some(record) => {
                search.refined = record.refined;
                resume_verdict(record.verdict)
            }
            None => {
                let verdict = search.run();
                // Persist clean verdicts the moment the search finishes:
                // after `record` returns, a kill at any later instant
                // leaves this output resumable.
                if let (Some(ck), Some((key, _))) = (checkpoint, slot) {
                    if let Some(cv) = clean_checkpoint_verdict(&verdict) {
                        ck.record(*key, &cv, &search.refined);
                    }
                }
                verdict
            }
        };
        let result = search.finish(verdict, span_search, t_search.elapsed());
        emit(
            observer,
            ProgressEvent::OutputSearched {
                output: pair.name.clone(),
                position: i,
                search: result.search,
                proposal: matches!(result.verdict, SearchVerdict::Proposal { .. }),
            },
        );
        result
    });
    let mut verdicts = Vec::with_capacity(results.len());
    let mut search_traces = Vec::with_capacity(results.len());
    let mut refined_per_output = Vec::with_capacity(results.len());
    for r in results {
        stats.refinements += r.stats.refinements;
        stats.validations += r.stats.validations;
        stats.point_sets_tried += r.stats.point_sets_tried;
        stats.choices_tried += r.stats.choices_tried;
        stats.prefilter_screened += r.stats.prefilter_screened;
        stats.prefilter_passed += r.stats.prefilter_passed;
        stats.sat += r.stats.sat;
        stats.cec_proofs += r.stats.cec_proofs;
        stats.cec_reused += r.stats.cec_reused;
        stats.bdd += r.stats.bdd;
        stats.bdd_peak_nodes = stats.bdd_peak_nodes.max(r.stats.bdd_peak_nodes);
        stats.cache_hits += r.stats.cache_hits;
        stats.cache_verify_rejects += r.stats.cache_verify_rejects;
        verdicts.push((r.verdict, r.search));
        search_traces.push(r.trace);
        refined_per_output.push(r.refined);
    }
    // A simulated crash in any search slot kills the whole run *now*,
    // before the merge phase writes anything — exactly what a SIGKILL
    // mid-fan-out leaves behind: durable checkpoints, no partial patch.
    #[cfg(any(test, feature = "fault-injection"))]
    if verdicts
        .iter()
        .any(|(v, _)| matches!(v, SearchVerdict::Aborted))
    {
        return Err(EcoError::InjectedAbort);
    }

    // ------------------------------------------------------------------
    // Merge phase and verification pass: apply the proposals sequentially
    // in the fixed order, then re-classify every output.
    // ------------------------------------------------------------------
    let mut merge = Merge::new(
        implementation,
        spec,
        budget,
        &shard,
        proof_base.overlay(),
        stats,
    );
    merge.run(&order, verdicts, &mut tb, observer)?;
    merge.verify(&corr, resumed_count, &mut tb)?;
    let (patch, mut stats, committed, output_proposals) = merge.finish();

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
    }

    implementation.sweep();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::DegradeAction;
    use crate::error_domain::check_output_pair;
    use crate::options::EcoOptions;
    use eco_netlist::GateKind;
    use eco_telemetry::Telemetry;
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
        let session = Session::new(options.clone());
        let (patch, stats, _trace, _committed) =
            rewire_rectify_with(&session, c, s, budget.unwrap_or(&unlimited), None, None).unwrap();
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
        let telemetry = Telemetry::enabled();
        let session = Session::new(options)
            .with_telemetry(&telemetry)
            .on_progress(move |e: &ProgressEvent| {
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
        let (_patch, stats, trace, _committed) =
            rewire_rectify_with(&session, &mut c, &s, &budget, None, None).unwrap();
        // The run span closes the coordinator lane; the per-output search
        // span sits on lane 1. Counters made it into both the stats and the
        // metrics registry.
        assert!(trace.iter().any(|sp| sp.name == "run" && sp.lane == 0));
        assert!(trace.iter().any(|sp| sp.name == "search" && sp.lane == 1));
        assert!(stats.validations > 0);
        assert!(stats.sat.propagations > 0, "{stats:?}");
        assert!(stats.bdd.total_misses() > 0, "{stats:?}");
        assert!(stats.bdd_peak_nodes >= 2);
        let snapshot = telemetry.snapshot();
        assert_eq!(
            snapshot.counter(Counter::RectifyValidations),
            stats.validations as u64
        );
        assert_eq!(snapshot.counter(Counter::SatConflicts), stats.sat.conflicts);
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
