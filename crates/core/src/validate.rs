//! Exact-domain validation of candidate rewire operations (paper §5.1/5.2).
//!
//! A rewiring found in the sampling domain is a *candidate*: the domain is a
//! projection, so the choice may be a false positive. Validation applies the
//! rewire to a scratch copy, pre-filters with simulation over the
//! accumulated sample bank, and confirms with a resource-constrained SAT
//! solver. A distinguishing assignment feeds back into the domain
//! (counterexample-guided refinement); a break of a previously correct
//! output prunes the candidate (the "damage" rule of §5.2).

use std::collections::{HashMap, HashSet};

use eco_netlist::{sim, topo, Circuit, NetId, NetlistError, Pin};
use eco_sat::cec::{assist_equivalences, CecOptions, ProofCache};
use eco_sat::{tseitin, SolveResult, SolverStats};

use crate::budget::Budget;
use crate::correspond::{Correspondence, OutputPair};
use crate::error_domain::armed_solver;
use crate::patch::RewireOp;
use crate::rewire_nets::RewireCandidate;
use crate::EcoError;

/// One candidate rewire: a rectification point and its chosen net.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateRewire {
    /// The rectification point.
    pub pin: Pin,
    /// The chosen rewiring net.
    pub candidate: RewireCandidate,
}

/// Verdict of validating a candidate rewire operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Validation {
    /// The rewire rectifies the representative output without damaging any
    /// previously correct output; `fixed` lists additional failing outputs
    /// it also corrects (§5.2: such candidates are favored).
    Valid {
        /// Other failing output indices now equivalent.
        fixed: Vec<u32>,
    },
    /// The representative output still differs: a false positive of the
    /// sampling domain, with the distinguishing assignment for refinement.
    CounterExample(Vec<bool>),
    /// A previously correct output was broken — prune the candidate.
    Damaged,
    /// The rewire was structurally impossible (it would create a cycle) —
    /// prune the candidate.
    Infeasible,
    /// The SAT resource budget ran out before a verdict.
    Unknown,
}

/// Applies `rewires` to `target`, cloning specification cones as needed.
///
/// `shared_clones` maps spec nets already instantiated in `target` (by
/// earlier commits) so overlapping revisions reuse one copy; it is extended
/// with this call's clones. Returns the concrete [`RewireOp`]s and the nets
/// newly cloned from the spec.
///
/// # Errors
///
/// [`NetlistError::WouldCycle`] when a rewire violates acyclicity (callers
/// treat this as an invalid candidate), and other [`NetlistError`]s for
/// malformed references.
pub fn apply_rewires(
    target: &mut Circuit,
    spec: &Circuit,
    rewires: &[CandidateRewire],
    shared_clones: &mut HashMap<NetId, NetId>,
) -> Result<(Vec<RewireOp>, Vec<NetId>), NetlistError> {
    let mut ops = Vec::with_capacity(rewires.len());
    let mut cloned: Vec<NetId> = Vec::new();
    let clone_map: &mut HashMap<NetId, NetId> = shared_clones;
    for r in rewires {
        let new_net = if r.candidate.from_spec {
            if let Some(&already) = clone_map.get(&r.candidate.net) {
                already
            } else {
                let before = target.num_nodes();
                let map = target.clone_cone(spec, &[r.candidate.net], clone_map)?;
                for i in before..target.num_nodes() {
                    cloned.push(NetId::from_index(i));
                }
                clone_map.extend(map.iter().map(|(&k, &v)| (k, v)));
                map[&r.candidate.net]
            }
        } else {
            r.candidate.net
        };
        let old_net = target.pin_net(r.pin)?;
        target.rewire(r.pin, new_net)?;
        ops.push(RewireOp {
            pin: r.pin,
            old_net,
            new_net,
            from_spec: r.candidate.from_spec,
        });
    }
    Ok((ops, cloned))
}

/// Output indices affected by rewiring `rewires` in `circuit`.
pub fn affected_outputs(circuit: &Circuit, rewires: &[CandidateRewire]) -> Vec<u32> {
    let mut direct: HashSet<u32> = HashSet::new();
    let mut nodes = Vec::new();
    for r in rewires {
        match r.pin {
            Pin::Gate { node, .. } => nodes.push(node),
            Pin::Output { index } => {
                direct.insert(index);
            }
        }
    }
    let mut out: Vec<u32> = topo::outputs_depending_on(circuit, &nodes);
    out.extend(direct);
    out.sort_unstable();
    out.dedup();
    out
}

/// Validates a candidate rewire operation against the exact domain.
///
/// `failing` holds the output indices currently known to be wrong
/// (including `representative`); `sample_bank` is every input assignment
/// collected so far, used as a cheap simulation pre-filter before SAT.
///
/// # Errors
///
/// Propagates [`EcoError`] on encoding failures; resource exhaustion maps to
/// [`Validation::Unknown`], not an error.
#[allow(clippy::too_many_arguments)]
pub fn validate_rewires(
    implementation: &Circuit,
    spec: &Circuit,
    corr: &Correspondence,
    rewires: &[CandidateRewire],
    representative: &OutputPair,
    failing: &HashSet<u32>,
    sample_bank: &[Vec<bool>],
    shared_clones: &HashMap<NetId, NetId>,
    budget: u64,
    governor: Option<&Budget>,
) -> Result<Validation, EcoError> {
    validate_rewires_with_stats(
        implementation,
        spec,
        corr,
        rewires,
        representative,
        failing,
        sample_bank,
        shared_clones,
        budget,
        governor,
        &mut ProofCache::new(),
    )
    .map(|(v, _)| v)
}

/// [`validate_rewires`] plus the SAT effort the call consumed, with the
/// internal-equivalence pass reading and extending `proofs`.
///
/// The returned [`SolverStats`] covers the validation solver only (zero when
/// the verdict came from the simulation pre-filter or structural checks);
/// the rectification driver folds it into the run-level telemetry.
///
/// # Errors
///
/// Same contract as [`validate_rewires`].
#[allow(clippy::too_many_arguments)]
pub fn validate_rewires_with_stats<'s>(
    implementation: &Circuit,
    spec: &'s Circuit,
    corr: &Correspondence,
    rewires: &[CandidateRewire],
    representative: &OutputPair,
    failing: &HashSet<u32>,
    sample_bank: &[Vec<bool>],
    shared_clones: &HashMap<NetId, NetId>,
    budget: u64,
    governor: Option<&Budget>,
    proofs: &mut ProofCache<'s>,
) -> Result<(Validation, SolverStats), EcoError> {
    if let Some(g) = governor {
        if g.inject_sat_exhaust() {
            return Ok((Validation::Unknown, SolverStats::default()));
        }
    }
    let mut scratch = implementation.clone();
    let mut scratch_clones = shared_clones.clone();
    match apply_rewires(&mut scratch, spec, rewires, &mut scratch_clones) {
        Ok(_) => {}
        Err(NetlistError::WouldCycle { .. }) => {
            return Ok((Validation::Infeasible, SolverStats::default()))
        }
        Err(e) => return Err(e.into()),
    }

    let affected = affected_outputs(&scratch, rewires);

    // Simulation pre-filter over the sample bank.
    if !sample_bank.is_empty() {
        let impl_blocks = sim::simulate_patterns(&scratch, sample_bank).map_err(EcoError::from)?;
        let spec_samples: Vec<Vec<bool>> = sample_bank
            .iter()
            .map(|s| corr.spec_assignment(s))
            .collect();
        let spec_blocks = sim::simulate_patterns(spec, &spec_samples).map_err(EcoError::from)?;
        for &oi in &affected {
            let pair = &corr.outputs[oi as usize];
            let inet = scratch.outputs()[pair.impl_index as usize].net();
            let snet = spec.outputs()[pair.spec_index as usize].net();
            for (block, (ib, sb)) in impl_blocks.iter().zip(&spec_blocks).enumerate() {
                let diff = ib[inet.index()] ^ sb[snet.index()];
                if diff == 0 {
                    continue;
                }
                let bit = diff.trailing_zeros() as usize;
                let sample_idx = block * 64 + bit;
                if sample_idx >= sample_bank.len() {
                    continue;
                }
                if oi == representative.impl_index {
                    return Ok((
                        Validation::CounterExample(sample_bank[sample_idx].clone()),
                        SolverStats::default(),
                    ));
                }
                if !failing.contains(&oi) {
                    return Ok((Validation::Damaged, SolverStats::default()));
                }
                // A still-failing non-representative output mismatching is
                // acceptable; it is simply not "fixed".
            }
        }
    }

    // SAT confirmation with a single miter encoding: one difference literal
    // per affected output, queried under assumptions.
    let pairs: Vec<(NetId, NetId)> = affected
        .iter()
        .map(|&oi| {
            let pair = &corr.outputs[oi as usize];
            (
                scratch.outputs()[pair.impl_index as usize].net(),
                spec.outputs()[pair.spec_index as usize].net(),
            )
        })
        .collect();
    let mut solver = armed_solver(governor);
    let miter =
        tseitin::encode_pairs(&mut solver, &scratch, spec, &pairs).map_err(EcoError::from)?;
    assist_equivalences(
        &mut solver,
        &scratch,
        spec,
        &miter.left,
        &miter.right,
        &CecOptions::default(),
        proofs,
    )
    .map_err(EcoError::from)?;
    solver.set_conflict_budget(Some(budget));

    // Representative output first.
    if let Some(rep_pos) = affected
        .iter()
        .position(|&oi| oi == representative.impl_index)
    {
        match solver.solve(&[miter.diff_lits[rep_pos]]) {
            SolveResult::Unsat => {}
            SolveResult::Sat => {
                let model = tseitin::model_inputs(&solver, &miter, &scratch);
                return Ok((Validation::CounterExample(model), solver.stats()));
            }
            SolveResult::Unknown => return Ok((Validation::Unknown, solver.stats())),
        }
    } else {
        // The rewire does not even reach the representative output: it
        // cannot rectify it.
        return Ok((Validation::Unknown, solver.stats()));
    }

    // Previously correct affected outputs must stay correct; still-failing
    // ones may optionally be credited as fixed (bounded effort).
    let mut fixed = Vec::new();
    let mut checked = 0usize;
    for (pos, &oi) in affected.iter().enumerate() {
        if oi == representative.impl_index {
            continue;
        }
        if failing.contains(&oi) {
            if checked < 16 {
                checked += 1;
                if solver.solve(&[miter.diff_lits[pos]]) == SolveResult::Unsat {
                    fixed.push(oi);
                }
            }
        } else {
            match solver.solve(&[miter.diff_lits[pos]]) {
                SolveResult::Unsat => {}
                SolveResult::Sat => return Ok((Validation::Damaged, solver.stats())),
                SolveResult::Unknown => return Ok((Validation::Unknown, solver.stats())),
            }
        }
    }
    let stats = solver.stats();
    Ok((Validation::Valid { fixed }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::GateKind;

    /// impl: y = a & b, z = a; spec: y = a | b, z = a.
    fn setup() -> (Circuit, Circuit, Correspondence) {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        c.add_output("z", a);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sg = s.add_gate(GateKind::Or, &[sa, sb]).unwrap();
        s.add_output("y", sg);
        s.add_output("z", sa);
        let corr = Correspondence::build(&c, &s).unwrap();
        (c, s, corr)
    }

    fn spec_or_candidate(s: &Circuit) -> RewireCandidate {
        RewireCandidate {
            net: s.outputs()[0].net(),
            from_spec: true,
            utility: 1.0,
            arrival: 0.0,
        }
    }

    #[test]
    fn valid_rewire_accepted() {
        let (c, s, corr) = setup();
        let rewires = vec![CandidateRewire {
            pin: Pin::output(0),
            candidate: spec_or_candidate(&s),
        }];
        let failing: HashSet<u32> = [0].into_iter().collect();
        let v = validate_rewires(
            &c,
            &s,
            &corr,
            &rewires,
            &corr.outputs[0],
            &failing,
            &[vec![true, false]],
            &HashMap::new(),
            100_000,
            None,
        )
        .unwrap();
        assert_eq!(v, Validation::Valid { fixed: vec![] });
    }

    #[test]
    fn false_positive_yields_counterexample() {
        let (c, s, corr) = setup();
        // Rewire y to input a: fixes a=1,b=0 but not a=0,b=1.
        let a = c.input_by_name("a").unwrap();
        let rewires = vec![CandidateRewire {
            pin: Pin::output(0),
            candidate: RewireCandidate {
                net: a,
                from_spec: false,
                utility: 0.5,
                arrival: 0.0,
            },
        }];
        let failing: HashSet<u32> = [0].into_iter().collect();
        let v = validate_rewires(
            &c,
            &s,
            &corr,
            &rewires,
            &corr.outputs[0],
            &failing,
            &[],
            &HashMap::new(),
            100_000,
            None,
        )
        .unwrap();
        match v {
            Validation::CounterExample(x) => {
                // The counterexample distinguishes the rewired impl from spec.
                assert!(!x[0]);
                assert!(x[1]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn damaging_rewire_rejected() {
        let (c, s, corr) = setup();
        // Rewire output z (currently correct) to b: damages z.
        let b = c.input_by_name("b").unwrap();
        let rewires = vec![
            CandidateRewire {
                pin: Pin::output(0),
                candidate: spec_or_candidate(&s),
            },
            CandidateRewire {
                pin: Pin::output(1),
                candidate: RewireCandidate {
                    net: b,
                    from_spec: false,
                    utility: 0.4,
                    arrival: 0.0,
                },
            },
        ];
        let failing: HashSet<u32> = [0].into_iter().collect();
        let v = validate_rewires(
            &c,
            &s,
            &corr,
            &rewires,
            &corr.outputs[0],
            &failing,
            &[vec![true, false], vec![false, true]],
            &HashMap::new(),
            100_000,
            None,
        )
        .unwrap();
        assert_eq!(v, Validation::Damaged);
    }

    #[test]
    fn cyclic_rewire_is_infeasible() {
        let (c, s, corr) = setup();
        let g = c.outputs()[0].net();
        // Feed the AND gate from its own output.
        let rewires = vec![CandidateRewire {
            pin: Pin::gate(g.source(), 0),
            candidate: RewireCandidate {
                net: g,
                from_spec: false,
                utility: 1.0,
                arrival: 0.0,
            },
        }];
        let failing: HashSet<u32> = [0].into_iter().collect();
        let v = validate_rewires(
            &c,
            &s,
            &corr,
            &rewires,
            &corr.outputs[0],
            &failing,
            &[],
            &HashMap::new(),
            100_000,
            None,
        )
        .unwrap();
        assert_eq!(v, Validation::Infeasible);
    }

    #[test]
    fn apply_rewires_clones_spec_cone_once() {
        let (mut c, s, _corr) = setup();
        let cand = spec_or_candidate(&s);
        let rewires = vec![
            CandidateRewire {
                pin: Pin::output(0),
                candidate: cand.clone(),
            },
            CandidateRewire {
                pin: Pin::output(1),
                candidate: cand,
            },
        ];
        let before = c.num_nodes();
        let (ops, cloned) = apply_rewires(&mut c, &s, &rewires, &mut HashMap::new()).unwrap();
        assert_eq!(ops.len(), 2);
        // OR over existing inputs: exactly one new node despite two uses.
        assert_eq!(cloned.len(), 1);
        assert_eq!(c.num_nodes(), before + 1);
        assert_eq!(ops[0].new_net, ops[1].new_net);
    }

    #[test]
    fn affected_outputs_tracks_fanout() {
        let (c, _s, _corr) = setup();
        let g = c.outputs()[0].net();
        let rewires = vec![CandidateRewire {
            pin: Pin::gate(g.source(), 0),
            candidate: RewireCandidate {
                net: c.input_by_name("b").unwrap(),
                from_spec: false,
                utility: 0.0,
                arrival: 0.0,
            },
        }];
        assert_eq!(affected_outputs(&c, &rewires), vec![0]);
        let out_rewire = vec![CandidateRewire {
            pin: Pin::output(1),
            candidate: RewireCandidate {
                net: g,
                from_spec: false,
                utility: 0.0,
                arrival: 0.0,
            },
        }];
        assert_eq!(affected_outputs(&c, &out_rewire), vec![1]);
    }
}
