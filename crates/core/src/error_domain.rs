//! Error-domain computation: finding the minterms `𝔼 = {x | f(x) ≠ f'(x)}`.
//!
//! Samples from `𝔼` seed the symbolic sampling domain (paper §5.1: "the
//! computation yields fewer false positives when sampled assignments are
//! from the error domain"). Collection is two-staged: fast 64-way random
//! simulation first, then SAT enumeration on a single-output miter to top up
//! (and to prove an output pair equivalent when no error exists).

use std::collections::HashSet;

use eco_netlist::{sim, Circuit, NetlistError};
use eco_sat::cec::{assist_equivalences, CecOptions, ProofCache};
use eco_sat::{tseitin, Lit, SolveResult, Solver, SolverStats};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::budget::Budget;
use crate::correspond::{Correspondence, OutputPair};
use crate::options::SamplePolicy;

/// Verdict of an equivalence query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// The output pair computes the same function.
    Equivalent,
    /// A distinguishing input assignment (implementation input order).
    Counterexample(Vec<bool>),
    /// The SAT budget was exhausted.
    Unknown,
}

/// A fresh solver, armed with the governor's deadline and cancel flag before
/// any query runs — the internal-equivalence pass included.
pub(crate) fn armed_solver(governor: Option<&Budget>) -> Solver {
    let mut solver = Solver::new();
    if let Some(g) = governor {
        g.arm_solver(&mut solver);
    }
    solver
}

/// Checks one output pair for equivalence with a conflict budget.
///
/// # Errors
///
/// Propagates [`NetlistError`] from encoding.
pub fn check_output_pair(
    implementation: &Circuit,
    spec: &Circuit,
    pair: &OutputPair,
    budget: Option<u64>,
    governor: Option<&Budget>,
) -> Result<Equivalence, NetlistError> {
    check_output_pair_with_stats(
        implementation,
        spec,
        pair,
        budget,
        governor,
        &mut ProofCache::new(),
    )
    .map(|(e, _)| e)
}

/// [`check_output_pair`] plus the SAT effort the query consumed, with the
/// internal-equivalence pass reading and extending `proofs`.
///
/// # Errors
///
/// Propagates [`NetlistError`] from encoding.
pub fn check_output_pair_with_stats<'s>(
    implementation: &Circuit,
    spec: &'s Circuit,
    pair: &OutputPair,
    budget: Option<u64>,
    governor: Option<&Budget>,
    proofs: &mut ProofCache<'s>,
) -> Result<(Equivalence, SolverStats), NetlistError> {
    let mut solver = armed_solver(governor);
    let lnet = implementation.outputs()[pair.impl_index as usize].net();
    let rnet = spec.outputs()[pair.spec_index as usize].net();
    let miter = tseitin::encode_pairs(&mut solver, implementation, spec, &[(lnet, rnet)])?;
    assist_equivalences(
        &mut solver,
        implementation,
        spec,
        &miter.left,
        &miter.right,
        &CecOptions::default(),
        proofs,
    )?;
    solver.add_clause(&miter.diff_lits);
    solver.set_conflict_budget(budget);
    let verdict = match solver.solve(&[]) {
        SolveResult::Unsat => Equivalence::Equivalent,
        SolveResult::Sat => {
            Equivalence::Counterexample(tseitin::model_inputs(&solver, &miter, implementation))
        }
        SolveResult::Unknown => Equivalence::Unknown,
    };
    Ok((verdict, solver.stats()))
}

/// Classifies every matched output pair with **one** miter encoding.
///
/// Returns, per pair index (into `corr.outputs`), the equivalence verdict.
/// Budgeted per query; [`Equivalence::Unknown`] entries should be treated
/// conservatively by callers.
///
/// # Errors
///
/// Propagates [`NetlistError`] from encoding.
pub fn classify_outputs(
    implementation: &Circuit,
    spec: &Circuit,
    corr: &Correspondence,
    budget: Option<u64>,
    governor: Option<&Budget>,
) -> Result<Vec<Equivalence>, NetlistError> {
    classify_outputs_with_stats(
        implementation,
        spec,
        corr,
        budget,
        governor,
        &mut ProofCache::new(),
    )
    .map(|(v, _)| v)
}

/// [`classify_outputs`] plus the SAT effort the classification consumed,
/// with the internal-equivalence pass reading and extending `proofs`.
///
/// # Errors
///
/// Propagates [`NetlistError`] from encoding.
pub fn classify_outputs_with_stats<'s>(
    implementation: &Circuit,
    spec: &'s Circuit,
    corr: &Correspondence,
    budget: Option<u64>,
    governor: Option<&Budget>,
    proofs: &mut ProofCache<'s>,
) -> Result<(Vec<Equivalence>, SolverStats), NetlistError> {
    let pairs: Vec<_> = corr
        .outputs
        .iter()
        .map(|p| {
            (
                implementation.outputs()[p.impl_index as usize].net(),
                spec.outputs()[p.spec_index as usize].net(),
            )
        })
        .collect();
    let mut solver = armed_solver(governor);
    let miter = tseitin::encode_pairs(&mut solver, implementation, spec, &pairs)?;
    // Internal-equivalence assistance: the implementation is structurally
    // dissimilar from the specification by construction, so monolithic
    // queries are hard; proven internal ties make them local.
    assist_equivalences(
        &mut solver,
        implementation,
        spec,
        &miter.left,
        &miter.right,
        &CecOptions::default(),
        proofs,
    )?;
    solver.set_conflict_budget(budget);
    let mut out = Vec::with_capacity(pairs.len());
    for &d in &miter.diff_lits {
        out.push(match solver.solve(&[d]) {
            SolveResult::Unsat => Equivalence::Equivalent,
            SolveResult::Sat => {
                Equivalence::Counterexample(tseitin::model_inputs(&solver, &miter, implementation))
            }
            SolveResult::Unknown => Equivalence::Unknown,
        });
    }
    let stats = solver.stats();
    Ok((out, stats))
}

/// Collects up to `want` samples for the sampling domain of one output pair.
///
/// With `error_domain` set, samples are drawn from `𝔼`: random simulation
/// finds cheap error patterns, SAT enumeration (with blocking clauses) tops
/// up, and the collection stops early when `𝔼` is exhausted. Without it,
/// uniformly random assignments are used (the ablation-B configuration) —
/// except that one known error sample, when provided via `seed_sample`, is
/// always included so the domain distinguishes `f` from `f'` at all.
///
/// Returned samples are in implementation input order and deduplicated.
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulation or encoding.
#[allow(clippy::too_many_arguments)]
pub fn collect_samples(
    implementation: &Circuit,
    spec: &Circuit,
    corr: &Correspondence,
    pair: &OutputPair,
    want: usize,
    policy: SamplePolicy,
    seed_sample: Option<&[bool]>,
    rng: &mut SmallRng,
    governor: Option<&Budget>,
) -> Result<Vec<Vec<bool>>, NetlistError> {
    collect_samples_with_stats(
        implementation,
        spec,
        corr,
        pair,
        want,
        policy,
        seed_sample,
        rng,
        governor,
        &mut ProofCache::new(),
    )
    .map(|(s, _)| s)
}

/// [`collect_samples`] plus the SAT effort of the enumeration stage, whose
/// internal-equivalence pass reads and extends `proofs`.
///
/// The returned [`SolverStats`] is zero when random simulation alone filled
/// the request (stage 2 never built a solver).
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulation or encoding.
#[allow(clippy::too_many_arguments)]
pub fn collect_samples_with_stats<'s>(
    implementation: &Circuit,
    spec: &'s Circuit,
    corr: &Correspondence,
    pair: &OutputPair,
    want: usize,
    policy: SamplePolicy,
    seed_sample: Option<&[bool]>,
    rng: &mut SmallRng,
    governor: Option<&Budget>,
    proofs: &mut ProofCache<'s>,
) -> Result<(Vec<Vec<bool>>, SolverStats), NetlistError> {
    let mut sat_stats = SolverStats::default();
    let mut samples: Vec<Vec<bool>> = Vec::new();
    let mut seen: HashSet<Vec<bool>> = HashSet::new();
    let mut push = |s: Vec<bool>, samples: &mut Vec<Vec<bool>>| {
        if seen.insert(s.clone()) {
            samples.push(s);
        }
    };
    if let Some(s) = seed_sample {
        push(s.to_vec(), &mut samples);
    }

    let fill_random = |want: usize,
                       samples: &mut Vec<Vec<bool>>,
                       seen: &mut HashSet<Vec<bool>>,
                       rng: &mut SmallRng| {
        // The distinct-assignment space may be smaller than `want` (few
        // inputs); bound the attempts so exhaustion terminates.
        let space = 1usize
            .checked_shl(implementation.num_inputs().min(30) as u32)
            .unwrap_or(usize::MAX);
        let want = want.min(space);
        let mut attempts = 0usize;
        while samples.len() < want && attempts < want.saturating_mul(64) {
            attempts += 1;
            let s: Vec<bool> = (0..implementation.num_inputs())
                .map(|_| rng.gen())
                .collect();
            if seen.insert(s.clone()) {
                samples.push(s);
            }
        }
    };

    if policy == SamplePolicy::Random {
        fill_random(want, &mut samples, &mut seen, rng);
        return Ok((samples, sat_stats));
    }
    // Error-domain collection targets the full budget for ErrorDomain and
    // half of it for Mixed (the rest is random preservation samples).
    let want_full = want;
    let want = match policy {
        SamplePolicy::Mixed => (want / 2).max(1),
        _ => want,
    };

    // Stage 1: random simulation, a few 64-pattern blocks.
    let impl_out = implementation.outputs()[pair.impl_index as usize].net();
    let spec_out = spec.outputs()[pair.spec_index as usize].net();
    let blocks = (want / 16).clamp(4, 32);
    for _ in 0..blocks {
        if samples.len() >= want {
            break;
        }
        if governor.is_some_and(Budget::is_exhausted) {
            break;
        }
        let impl_patterns: Vec<u64> = (0..implementation.num_inputs())
            .map(|_| rng.gen())
            .collect();
        // Translate to spec input order bit-plane-wise.
        let mut spec_patterns = vec![0u64; spec.num_inputs()];
        for (pos, &word) in impl_patterns.iter().enumerate() {
            if let Some(sp) = corr.spec_input_pos[pos] {
                spec_patterns[sp] = word;
            }
        }
        let impl_words = sim::simulate64(implementation, &impl_patterns)?;
        let spec_words = sim::simulate64(spec, &spec_patterns)?;
        let diff = impl_words[impl_out.index()] ^ spec_words[spec_out.index()];
        if diff == 0 {
            continue;
        }
        for bit in 0..64 {
            if (diff >> bit) & 1 == 0 {
                continue;
            }
            let s: Vec<bool> = impl_patterns.iter().map(|w| (w >> bit) & 1 == 1).collect();
            push(s, &mut samples);
            if samples.len() >= want {
                break;
            }
        }
    }

    // Stage 2: SAT enumeration to top up (also proves exhaustion).
    if samples.len() < want {
        let mut solver = armed_solver(governor);
        let miter =
            tseitin::encode_pairs(&mut solver, implementation, spec, &[(impl_out, spec_out)])?;
        assist_equivalences(
            &mut solver,
            implementation,
            spec,
            &miter.left,
            &miter.right,
            &CecOptions::default(),
            proofs,
        )?;
        solver.add_clause(&miter.diff_lits);
        // Block already-found samples.
        let input_lit = |solver: &Solver, miter: &tseitin::Miter, pos: usize, v: bool| {
            let label = implementation
                .node(implementation.inputs()[pos])
                .name()
                .unwrap_or("")
                .to_string();
            let var = miter.inputs[&label];
            let _ = solver;
            Lit::with_phase(var, v)
        };
        for s in &samples {
            let block: Vec<Lit> = s
                .iter()
                .enumerate()
                .map(|(pos, &v)| input_lit(&solver, &miter, pos, !v))
                .collect();
            solver.add_clause(&block);
        }
        solver.set_conflict_budget(Some(200_000));
        while samples.len() < want {
            match solver.solve(&[]) {
                SolveResult::Sat => {
                    let s = tseitin::model_inputs(&solver, &miter, implementation);
                    let block: Vec<Lit> = s
                        .iter()
                        .enumerate()
                        .map(|(pos, &v)| input_lit(&solver, &miter, pos, !v))
                        .collect();
                    push(s, &mut samples);
                    solver.add_clause(&block);
                }
                _ => break, // exhausted or budget hit
            }
        }
        sat_stats = solver.stats();
    }
    if policy == SamplePolicy::Mixed {
        // Preservation samples: random assignments constrain the search to
        // keep already-correct behaviour, cutting false positives.
        fill_random(want_full, &mut samples, &mut seen, rng);
    }
    Ok((samples, sat_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::GateKind;
    use rand::SeedableRng;

    /// impl: y = a & b; spec: y = a | b. Error domain = {a != b}.
    fn and_vs_or() -> (Circuit, Circuit) {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        let mut s = Circuit::new("spec");
        let a = s.add_input("a");
        let b = s.add_input("b");
        let g = s.add_gate(GateKind::Or, &[a, b]).unwrap();
        s.add_output("y", g);
        (c, s)
    }

    fn pair0(c: &Circuit, s: &Circuit) -> (Correspondence, OutputPair) {
        let corr = Correspondence::build(c, s).unwrap();
        let p = corr.outputs[0].clone();
        (corr, p)
    }

    #[test]
    fn equivalent_pair_reports_equivalent() {
        let (c, _) = and_vs_or();
        let s = c.clone();
        let (_, p) = pair0(&c, &s);
        assert_eq!(
            check_output_pair(&c, &s, &p, None, None).unwrap(),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn different_pair_yields_counterexample() {
        let (c, s) = and_vs_or();
        let (_, p) = pair0(&c, &s);
        match check_output_pair(&c, &s, &p, None, None).unwrap() {
            Equivalence::Counterexample(x) => {
                assert_ne!(c.eval(&x).unwrap()[0], s.eval(&x).unwrap()[0]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_classification_before_any_conflict() {
        let case = eco_workload::build_case(&eco_workload::CaseParams {
            id: 9300,
            name: "expired-deadline",
            seed: 11,
            input_words: 2,
            width: 3,
            logic_signals: 6,
            output_words: 3,
            revisions: vec![(0, eco_workload::RevisionKind::GateTermAdded)],
            heavy_optimization: false,
            aggressive_optimization: false,
        });
        let (c, s) = (&case.implementation, &case.spec);
        let corr = Correspondence::build(c, s).unwrap();
        let classify = |governor: Option<&Budget>| {
            classify_outputs_with_stats(c, s, &corr, None, governor, &mut ProofCache::new())
                .unwrap()
        };
        let (_, unarmed) = classify(None);
        assert!(
            unarmed.conflicts > 0,
            "the pass must have real work to skip"
        );
        // The deadline is armed before the internal-equivalence pass, so no
        // query of either stage runs a single conflict past it.
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        let (verdicts, stats) = classify(Some(&expired));
        assert!(
            verdicts.iter().all(|v| *v == Equivalence::Unknown),
            "{verdicts:?}"
        );
        assert_eq!(stats.conflicts, 0);
    }

    #[test]
    fn error_samples_are_all_errors_and_exhaustive() {
        let (c, s) = and_vs_or();
        let (corr, p) = pair0(&c, &s);
        let mut rng = SmallRng::seed_from_u64(7);
        let samples = collect_samples(
            &c,
            &s,
            &corr,
            &p,
            16,
            SamplePolicy::ErrorDomain,
            None,
            &mut rng,
            None,
        )
        .unwrap();
        // The error domain has exactly two elements: 01 and 10.
        assert_eq!(samples.len(), 2);
        for x in &samples {
            assert_ne!(c.eval(x).unwrap()[0], s.eval(x).unwrap()[0]);
        }
    }

    #[test]
    fn random_mode_includes_seed_sample() {
        let (c, s) = and_vs_or();
        let (corr, p) = pair0(&c, &s);
        let mut rng = SmallRng::seed_from_u64(7);
        let seed = vec![true, false];
        let samples = collect_samples(
            &c,
            &s,
            &corr,
            &p,
            8,
            SamplePolicy::Random,
            Some(&seed),
            &mut rng,
            None,
        )
        .unwrap();
        assert!(samples.contains(&seed));
        // The 2-input space has only 4 distinct assignments.
        assert_eq!(samples.len(), 4);
    }

    #[test]
    fn samples_are_unique() {
        let (c, s) = and_vs_or();
        let (corr, p) = pair0(&c, &s);
        let mut rng = SmallRng::seed_from_u64(9);
        let samples = collect_samples(
            &c,
            &s,
            &corr,
            &p,
            64,
            SamplePolicy::Random,
            None,
            &mut rng,
            None,
        )
        .unwrap();
        let set: HashSet<_> = samples.iter().cloned().collect();
        assert_eq!(set.len(), samples.len());
    }
}
