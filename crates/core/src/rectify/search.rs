//! The per-output search (DESIGN.md §9): error samples and the sampling
//! domain (§5.1), minimal point-sets (§4.2), candidate nets (§4.3),
//! `Ξ(c)` choices (§4.4), and SAT validation with refinement (§5.2),
//! all against the immutable base circuit.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use eco_netlist::sim::Compiled;
use eco_netlist::{Circuit, Pin};
use eco_sat::cec::ProofCache;
use eco_sat::SolverStats;
use eco_telemetry::{ArgValue, Histogram, SpanToken, Telemetry, TraceBuffer};
use eco_timing::TimingReport;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{
    SearchResult, SearchStats, SearchVerdict, GOOD_ENOUGH_COST, MAX_CANDIDATE_PINS, MAX_CHOICES,
    MAX_POINTS, MAX_POINT_SETS, MAX_REFINEMENTS, MAX_REWIRE_CANDIDATES, MAX_VALIDATIONS_PER_OUTPUT,
    VALIDATION_BUDGET,
};
use crate::budget::{Budget, DegradeReason};
use crate::choices::find_choices;
use crate::correspond::{Correspondence, OutputPair};
use crate::error_domain::collect_samples;
use crate::fault::SpanPoint;
use crate::memo::WarmStart;
use crate::options::EcoOptions;
use crate::points::{candidate_pins, MinimalSets};
use crate::rewire_nets::{candidates_for_pin, CandidatePool, RewireCandidate, RewireNetContext};
use crate::schedule::per_output_seed;
use crate::validate::{validate_rewires, CandidateRewire, SampleBank, Validation};
use crate::EcoError;

/// One output's search: what it reads from the run, and the counters,
/// trace, proof overlay and refinement minterms it fills.
///
/// Pure with respect to the circuit: its [`SearchVerdict`] is applied (or
/// discarded) by the merge phase. The RNG stream is derived from the run
/// seed and the output index, so the verdict is independent of worker
/// count and scheduling.
pub(super) struct OutputSearch<'a> {
    pub(super) base: &'a Circuit,
    pub(super) spec: &'a Circuit,
    /// `base` and `spec` compiled for simulation, once per run.
    pub(super) base_sim: &'a Compiled,
    pub(super) spec_sim: &'a Compiled,
    pub(super) corr: &'a Correspondence,
    pub(super) pair: &'a OutputPair,
    /// Detection's counterexample for this output, when it found one.
    pub(super) seed: Option<&'a [bool]>,
    pub(super) failing: &'a HashSet<u32>,
    /// Every detection counterexample, in output order: the start of the
    /// sample bank.
    pub(super) initial_bank: &'a [Vec<bool>],
    pub(super) options: &'a EcoOptions,
    pub(super) timing: Option<&'a TimingReport>,
    pub(super) budget: &'a Budget,
    pub(super) warm: Option<&'a WarmStart>,
    pub(super) telemetry: &'a Telemetry,
    pub(super) stats: SearchStats,
    pub(super) trace: TraceBuffer,
    pub(super) proofs: ProofCache<'a>,
    /// Refinement counterexamples hit during the search, recorded so a
    /// later run can warm-start its sampling domain past them.
    pub(super) refined: Vec<Vec<bool>>,
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
    /// SAT validation ran out of budget on every remaining choice.
    SatExhausted,
    /// No valid choice found in this domain.
    Exhausted,
    /// The run budget (deadline/cancellation) expired mid-attempt with
    /// nothing validated yet.
    BudgetOut(DegradeReason),
}

impl OutputSearch<'_> {
    /// Runs the search with panic isolation: a budget expiry, an error, or
    /// a panic degrades only this output to the output-rewire fallback.
    pub(super) fn run(&mut self) -> SearchVerdict {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.budget.fault_span(SpanPoint::Search)?;
            self.budget.inject_search_panic();
            self.search()
        }));
        match outcome {
            Ok(Ok(v)) => v,
            #[cfg(any(test, feature = "fault-injection"))]
            Ok(Err(EcoError::InjectedAbort)) => SearchVerdict::Aborted,
            Ok(Err(e)) => SearchVerdict::Fallback {
                reason: Some(DegradeReason::SearchError(e.to_string())),
            },
            Err(payload) => SearchVerdict::Fallback {
                reason: Some(DegradeReason::SearchPanicked(panic_message(payload))),
            },
        }
    }

    /// Closes the `search` span, records its wall-clock in the `search.us`
    /// histogram, and hands the outcome and counters to the merge phase.
    pub(super) fn finish(
        mut self,
        verdict: SearchVerdict,
        span: SpanToken,
        search: Duration,
    ) -> SearchResult {
        self.stats.cec_proofs = self.proofs.proofs();
        self.stats.cec_reused = self.proofs.reused();
        let stats = &self.stats;
        let pair = self.pair;
        let proposal = matches!(verdict, SearchVerdict::Proposal { .. });
        self.trace.end_with(span, "search", "rectify", || {
            vec![
                ("output", ArgValue::Str(pair.name.clone())),
                ("refinements", ArgValue::U64(stats.refinements as u64)),
                ("validations", ArgValue::U64(stats.validations as u64)),
                ("point_sets", ArgValue::U64(stats.point_sets_tried as u64)),
                ("choices", ArgValue::U64(stats.choices_tried as u64)),
                ("screened", ArgValue::U64(stats.prefilter_screened as u64)),
                ("sat_conflicts", ArgValue::U64(stats.sat.conflicts)),
                ("proposal", ArgValue::U64(u64::from(proposal))),
            ]
        });
        self.telemetry
            .observe(Histogram::SearchMicros, search.as_micros() as u64);
        SearchResult {
            verdict,
            stats: self.stats,
            search,
            trace: self.trace,
            refined: self.refined,
        }
    }

    fn search(&mut self) -> Result<SearchVerdict, EcoError> {
        let mut rng =
            SmallRng::seed_from_u64(per_output_seed(self.options.seed, self.pair.impl_index));
        let span_samples = self.trace.start();
        self.budget.fault_span(SpanPoint::Samples)?;
        let (mut samples, sample_sat) = collect_samples(
            self.base,
            self.spec,
            self.base_sim,
            self.spec_sim,
            self.corr,
            self.pair,
            self.options.num_samples,
            self.options.sample_policy,
            self.seed,
            &mut rng,
            Some(self.budget),
            &mut self.proofs,
        )?;
        self.stats.sat += sample_sat;
        self.trace.end_with(span_samples, "samples", "rectify", || {
            vec![
                ("collected", ArgValue::U64(samples.len() as u64)),
                ("sat_conflicts", ArgValue::U64(sample_sat.conflicts)),
            ]
        });
        if samples.is_empty() {
            return Ok(match self.budget.degrade_reason() {
                // The sampler gave up before finding a distinguishing input, so
                // we cannot claim equivalence: take the guaranteed fallback.
                Some(reason) => SearchVerdict::Fallback {
                    reason: Some(reason),
                },
                // No error exists: the pair is equivalent after all.
                None => SearchVerdict::Equivalent,
            });
        }
        let mut sample_bank: Vec<Vec<bool>> = self.initial_bank.to_vec();
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
        if let Some(warm) = self.warm {
            let cap = self.options.num_samples.max(1).saturating_mul(2);
            for x in &warm.minterms {
                if samples.len() >= cap {
                    break;
                }
                if x.len() == self.base.num_inputs() && !samples.contains(x) {
                    samples.push(x.clone());
                    if !sample_bank.contains(x) {
                        sample_bank.push(x.clone());
                    }
                }
            }
            if let Some(proposal) = &warm.proposal {
                if self.revalidate(proposal, &mut samples, &mut sample_bank)? {
                    return Ok(SearchVerdict::Proposal {
                        rewires: proposal.clone(),
                        cut: None,
                    });
                }
            }
        }

        let (root, spec_root) = self.pair.nets(self.base, self.spec);
        let pins = candidate_pins(self.base, root, self.pair.impl_index, MAX_CANDIDATE_PINS);
        let pool = CandidatePool::new(self.base_sim, self.spec, self.corr, spec_root);
        let mut refinements_left = MAX_REFINEMENTS;
        let mut ended: Option<DegradeReason> = None;
        loop {
            if let Some(reason) = self.budget.degrade_reason() {
                ended = Some(reason);
                break;
            }
            match self.attempt(&samples, &pins, &pool, &sample_bank)? {
                Attempt::Found { rewires, cut } => {
                    return Ok(SearchVerdict::Proposal { rewires, cut });
                }
                Attempt::Refine(x) => {
                    if refinements_left == 0 {
                        break;
                    }
                    refinements_left -= 1;
                    self.stats.refinements += 1;
                    self.trace.instant("refine", "rectify");
                    if !sample_bank.contains(&x) {
                        sample_bank.push(x.clone());
                    }
                    self.refined.push(x.clone());
                    samples.push(x);
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

    /// SAT-re-validates a memoized proposal against this spec. Returns
    /// whether it still holds; a rejection's distinguishing assignment
    /// joins the sampling domain before the cold search starts.
    fn revalidate(
        &mut self,
        proposal: &[CandidateRewire],
        samples: &mut Vec<Vec<bool>>,
        sample_bank: &mut Vec<Vec<bool>>,
    ) -> Result<bool, EcoError> {
        self.stats.validations += 1;
        let validating = (self.trace.start(), Instant::now());
        let result =
            SampleBank::new(self.spec_sim, self.corr, sample_bank.clone()).and_then(|bank| {
                validate_rewires(
                    self.base,
                    self.spec,
                    self.corr,
                    proposal,
                    self.pair,
                    self.failing,
                    &bank,
                    VALIDATION_BUDGET,
                    Some(self.budget),
                    &mut self.proofs,
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
        let verdict = result.as_ref().map_or("error", |(v, _)| verdict_name(v));
        self.end_validation(validating, proposal.len(), val_sat, verdict, true);
        match result {
            Ok((Validation::Valid { .. }, _)) => {
                self.stats.cache_hits += 1;
                return Ok(true);
            }
            Ok((Validation::CounterExample(x) | Validation::Screened(x), _)) => {
                // The rejection's distinguishing assignment is fresh
                // signal: feed it into the domain before starting the
                // cold search.
                self.stats.cache_verify_rejects += 1;
                if x.len() == self.base.num_inputs() && !samples.contains(&x) {
                    if !sample_bank.contains(&x) {
                        sample_bank.push(x.clone());
                    }
                    self.refined.push(x.clone());
                    samples.push(x);
                }
            }
            // Damaged, infeasible, SAT-unknown, or a record so stale
            // it no longer applies cleanly: discard and search cold.
            _ => self.stats.cache_verify_rejects += 1,
        }
        Ok(false)
    }

    /// Closes a validation whose `validate` span and latency timer opened at
    /// `(span, started)`: its SAT effort, the span, and the latency
    /// histograms. Slot accounting stays with the caller.
    fn end_validation(
        &mut self,
        (span, started): (SpanToken, Instant),
        rewires: usize,
        sat: SolverStats,
        verdict: &'static str,
        memoized: bool,
    ) {
        self.stats.sat += sat;
        self.trace.end_with(span, "validate", "rectify", || {
            let mut args = vec![
                ("rewires", ArgValue::U64(rewires as u64)),
                ("sat_conflicts", ArgValue::U64(sat.conflicts)),
            ];
            if memoized {
                args.push(("memoized", ArgValue::U64(1)));
            }
            args.push(("verdict", ArgValue::Str(verdict.into())));
            args
        });
        if self.telemetry.is_enabled() {
            self.telemetry.observe(
                Histogram::ValidateMicros,
                started.elapsed().as_micros() as u64,
            );
            self.telemetry
                .observe(Histogram::SatConflictsPerCall, sat.conflicts);
        }
    }

    /// One search attempt over a fixed sampling domain, with the output's
    /// candidate `pins` and candidate `pool`. Read-only with respect to the
    /// circuit: a validated choice is returned as [`Attempt::Found`], not
    /// applied.
    fn attempt(
        &mut self,
        samples: &[Vec<bool>],
        pins: &[Pin],
        pool: &CandidatePool,
        sample_bank: &[Vec<bool>],
    ) -> Result<Attempt, EcoError> {
        let (base, spec, pair) = (self.base, self.spec, self.pair);
        let (base_sim, spec_sim) = (self.base_sim, self.spec_sim);
        let spec_root = spec.outputs()[pair.spec_index as usize].net();
        // The attempt's one simulation of its domain: candidate utilities,
        // the minimal-set enumeration and `Ξ(c)` all read these words.
        let ctx = RewireNetContext::build(base_sim, spec_sim, self.corr, spec_root, samples)?;
        // The candidate screen runs over the full sample bank (a strict
        // superset of this attempt's sampling domain): one spec simulation per
        // attempt, reused by every validation below.
        let bank = SampleBank::new(spec_sim, self.corr, sample_bank.to_vec())?;

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
        // Searches run against the pristine base circuit, so candidate cost is
        // estimated without cross-output clone sharing; the merge phase dedups
        // actual clones via its shared map. Every spec candidate comes from
        // the spec cone, whose clone costs the pool holds.
        let clone_cost = |rewires: &[CandidateRewire]| -> usize {
            rewires
                .iter()
                .filter(|r| r.candidate.from_spec)
                .map(|r| pool.clone_cost(r.candidate.net).max(1))
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
            if let Some(reason) = self.budget.degrade_reason() {
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
            let span_sets = self.trace.start();
            self.budget.fault_span(SpanPoint::PointSets)?;
            let minimal = minimal.get_or_insert_with(|| {
                MinimalSets::new(
                    base,
                    base_sim,
                    &ctx.impl_words,
                    &ctx.fprime,
                    pair.impl_index,
                    pins,
                )
            });
            let sets = minimal.of_size(m_points, MAX_POINT_SETS - sets_found);
            sets_found += sets.len();
            self.trace.end_with(span_sets, "point_sets", "rectify", || {
                vec![
                    ("m", ArgValue::U64(m_points as u64)),
                    ("sets", ArgValue::U64(sets.len() as u64)),
                ]
            });
            for point_set in sets {
                if let Some(reason) = self.budget.degrade_reason() {
                    if valid.is_empty() {
                        return Ok(Attempt::BudgetOut(reason));
                    }
                    cut = Some(reason);
                    break 'outer;
                }
                self.stats.point_sets_tried += 1;
                let mut cand_lists: Vec<Vec<RewireCandidate>> = Vec::with_capacity(point_set.len());
                for &p in &point_set {
                    cand_lists.push(candidates_for_pin(
                        base,
                        base_sim,
                        pool,
                        &ctx,
                        p,
                        MAX_REWIRE_CANDIDATES,
                        self.timing,
                    )?);
                }
                let span_choices = self.trace.start();
                self.budget.fault_span(SpanPoint::Choices)?;
                let matches = minimal.match_words(&point_set);
                let choices = find_choices(&matches, &ctx, &cand_lists, MAX_CHOICES);
                self.trace.end_with(span_choices, "choices", "rectify", || {
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
                    self.stats.choices_tried += 1;
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
                    if let Some(reason) = self.budget.degrade_reason() {
                        if valid.is_empty() {
                            return Ok(Attempt::BudgetOut(reason));
                        }
                        cut = Some(reason);
                        break 'outer;
                    }
                    let validating = (self.trace.start(), Instant::now());
                    let (validation, val_sat) = validate_rewires(
                        base,
                        spec,
                        self.corr,
                        &rewires,
                        pair,
                        self.failing,
                        &bank,
                        VALIDATION_BUDGET,
                        Some(self.budget),
                        &mut self.proofs,
                    )?;
                    // A cyclic or bank-screened candidate is provably invalid
                    // without SAT: it consumes no validation slot and opens no
                    // `validate` span.
                    if let Validation::Screened(_) | Validation::Infeasible = validation {
                        self.stats.prefilter_screened += 1;
                        continue;
                    }
                    self.stats.prefilter_passed += 1;
                    validations_left -= 1;
                    self.stats.validations += 1;
                    self.end_validation(
                        validating,
                        rewires.len(),
                        val_sat,
                        verdict_name(&validation),
                        false,
                    );
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
