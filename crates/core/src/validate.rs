//! Exact-domain validation of candidate rewire operations (paper §5.1/5.2).
//!
//! A rewiring found in the sampling domain is a *candidate*: the domain is a
//! projection, so the choice may be a false positive. Validation applies the
//! rewire to one scratch copy, screens it with bit-parallel simulation over
//! the output's [`SampleBank`], and confirms survivors with a
//! resource-constrained SAT solver. A distinguishing assignment feeds back
//! into the domain (counterexample-guided refinement); a break of a
//! previously correct output prunes the candidate (the "damage" rule of
//! §5.2).

use std::collections::{HashMap, HashSet};

use eco_netlist::sim::{Compiled, Simulated};
use eco_netlist::{topo, Circuit, NetId, NetlistError, Pin};
use eco_sat::cec::ProofCache;
use eco_sat::SolverStats;

use crate::budget::Budget;
use crate::correspond::{Correspondence, OutputPair};
use crate::error_domain::{miter, Equivalence};
use crate::fault::SpanPoint;
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
    /// The representative output differs from the specification on a
    /// banked assignment, carried here: the bank screen rejected the
    /// candidate before any fault point or SAT effort.
    Screened(Vec<bool>),
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

/// The input assignments banked for one output's search, with the
/// specification simulated over them once, so screening a candidate
/// simulates only the rewired implementation.
#[derive(Debug, Default)]
pub struct SampleBank {
    /// The banked input assignments, in implementation input order.
    assignments: Vec<Vec<bool>>,
    /// Specification net values over the bank.
    spec: Simulated,
}

impl SampleBank {
    /// Banks `assignments` and simulates the compiled specification
    /// `spec_sim` over them.
    ///
    /// # Errors
    ///
    /// Propagates [`EcoError`] from specification simulation.
    pub fn new(
        spec_sim: &Compiled,
        corr: &Correspondence,
        assignments: Vec<Vec<bool>>,
    ) -> Result<Self, EcoError> {
        let spec_assignments: Vec<Vec<bool>> = assignments
            .iter()
            .map(|s| corr.spec_assignment(s))
            .collect();
        let spec = spec_sim.simulate_all(&spec_assignments)?;
        Ok(SampleBank { assignments, spec })
    }

    /// The first banked assignment on which implementation net `net`,
    /// simulated over the bank into `words`, differs from specification
    /// net `spec_net`.
    fn first_mismatch(&self, words: &Simulated, net: NetId, spec_net: NetId) -> Option<&[bool]> {
        let blocks = words.blocks().iter().zip(self.spec.blocks());
        for (b, (block, spec_block)) in blocks.enumerate() {
            let diff = (block[net.index()] ^ spec_block[spec_net.index()]) & words.mask(b);
            if diff != 0 {
                let k = b * 64 + diff.trailing_zeros() as usize;
                return Some(&self.assignments[k]);
            }
        }
        None
    }
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

/// Validates a candidate rewire operation against the exact domain, and
/// returns the SAT effort the call consumed. The internal-equivalence pass
/// reads and extends `proofs`; pass a fresh [`ProofCache`] for a cold
/// validation.
///
/// `failing` holds the output indices currently known to be wrong
/// (including `representative`). The candidate is applied to one scratch
/// copy, simulated once over `bank`, and decided in this order:
///
/// 1. a rewire that would close a cycle is [`Validation::Infeasible`];
/// 2. a representative output that differs from the specification on a
///    banked assignment is [`Validation::Screened`];
/// 3. the `validate` fault point and the `sat-exhaust` injection of
///    `governor` fire;
/// 4. a previously correct output that differs on a banked assignment is
///    [`Validation::Damaged`];
/// 5. SAT decides the rest.
///
/// Both screens are sound: a valid rewire agrees with the specification on
/// every assignment, banked ones included. An empty bank skips them.
///
/// The returned [`SolverStats`] covers the validation solver only (zero when
/// the verdict came before SAT); the `rectify` search folds it into the
/// run-level telemetry.
///
/// # Errors
///
/// Propagates [`EcoError`] on encoding failures and injected aborts;
/// resource exhaustion maps to [`Validation::Unknown`], not an error.
#[allow(clippy::too_many_arguments)]
pub fn validate_rewires<'s>(
    implementation: &Circuit,
    spec: &'s Circuit,
    corr: &Correspondence,
    rewires: &[CandidateRewire],
    representative: &OutputPair,
    failing: &HashSet<u32>,
    bank: &SampleBank,
    budget: u64,
    governor: Option<&Budget>,
    proofs: &mut ProofCache<'s>,
) -> Result<(Validation, SolverStats), EcoError> {
    let mut scratch = implementation.clone();
    match apply_rewires(&mut scratch, spec, rewires, &mut HashMap::new()) {
        Ok(_) => {}
        Err(NetlistError::WouldCycle { .. }) => {
            return Ok((Validation::Infeasible, SolverStats::default()))
        }
        Err(e) => return Err(e.into()),
    }

    let words = Compiled::new(&scratch)?.simulate_all(&bank.assignments)?;
    // Read output nets *after* apply: an output-pin rewire changes them.
    let mismatch = |pair: &OutputPair| {
        let (net, spec_net) = pair.nets(&scratch, spec);
        bank.first_mismatch(&words, net, spec_net)
    };
    if let Some(x) = mismatch(representative) {
        return Ok((Validation::Screened(x.to_vec()), SolverStats::default()));
    }
    if let Some(g) = governor {
        g.fault_span(SpanPoint::Validate)?;
        if g.inject_sat_exhaust() {
            return Ok((Validation::Unknown, SolverStats::default()));
        }
    }
    let affected = affected_outputs(&scratch, rewires);
    // A still-failing output may keep mismatching; it is simply not "fixed".
    if affected
        .iter()
        .any(|&oi| !failing.contains(&oi) && mismatch(&corr.outputs[oi as usize]).is_some())
    {
        return Ok((Validation::Damaged, SolverStats::default()));
    }

    // SAT confirmation with a single miter encoding: one difference literal
    // per affected output, queried under assumptions.
    let pairs: Vec<(NetId, NetId)> = affected
        .iter()
        .map(|&oi| corr.outputs[oi as usize].nets(&scratch, spec))
        .collect();
    let mut miter = miter(&scratch, spec, &pairs, governor, proofs)?;
    miter.set_conflict_budget(Some(budget));

    // Representative output first.
    let Some(rep_pos) = affected
        .iter()
        .position(|&oi| oi == representative.impl_index)
    else {
        // The rewire does not even reach the representative output: it
        // cannot rectify it.
        return Ok((Validation::Unknown, miter.stats()));
    };
    match miter.check(rep_pos, &scratch) {
        Equivalence::Equivalent => {}
        Equivalence::Counterexample(model) => {
            return Ok((Validation::CounterExample(model), miter.stats()))
        }
        Equivalence::Unknown => return Ok((Validation::Unknown, miter.stats())),
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
                if miter.check(pos, &scratch) == Equivalence::Equivalent {
                    fixed.push(oi);
                }
            }
        } else {
            match miter.check(pos, &scratch) {
                Equivalence::Equivalent => {}
                Equivalence::Counterexample(_) => return Ok((Validation::Damaged, miter.stats())),
                Equivalence::Unknown => return Ok((Validation::Unknown, miter.stats())),
            }
        }
    }
    Ok((Validation::Valid { fixed }, miter.stats()))
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

    fn impl_candidate(net: NetId) -> RewireCandidate {
        RewireCandidate {
            net,
            from_spec: false,
            utility: 0.5,
            arrival: 0.0,
        }
    }

    /// Validates `rewires` for output `y`, the only failing one, over `bank`.
    fn validate(
        c: &Circuit,
        s: &Circuit,
        corr: &Correspondence,
        rewires: &[CandidateRewire],
        bank: Vec<Vec<bool>>,
    ) -> (Validation, SolverStats) {
        let bank = SampleBank::new(&Compiled::new(s).unwrap(), corr, bank).unwrap();
        let failing: HashSet<u32> = [0].into_iter().collect();
        validate_rewires(
            c,
            s,
            corr,
            rewires,
            &corr.outputs[0],
            &failing,
            &bank,
            100_000,
            None,
            &mut ProofCache::new(),
        )
        .unwrap()
    }

    #[test]
    fn valid_rewire_accepted() {
        let (c, s, corr) = setup();
        let rewires = vec![CandidateRewire {
            pin: Pin::output(0),
            candidate: spec_or_candidate(&s),
        }];
        let v = validate(&c, &s, &corr, &rewires, vec![vec![true, false]]).0;
        assert_eq!(v, Validation::Valid { fixed: vec![] });
    }

    #[test]
    fn false_positive_yields_counterexample() {
        let (mut c, s, corr) = setup();
        // Rewire y to input a: fixes a=1,b=0 but not a=0,b=1.
        let rewires = vec![CandidateRewire {
            pin: Pin::output(0),
            candidate: impl_candidate(c.input_by_name("a").unwrap()),
        }];
        // An empty bank, or one the candidate agrees on, leaves it to SAT.
        for bank in [vec![], vec![vec![true, false]]] {
            match validate(&c, &s, &corr, &rewires, bank).0 {
                Validation::CounterExample(x) => {
                    // The counterexample distinguishes the rewired impl from spec.
                    assert!(!x[0]);
                    assert!(x[1]);
                }
                other => panic!("expected counterexample, got {other:?}"),
            }
        }
        // A banked distinguishing assignment screens it without SAT.
        let (v, sat) = validate(
            &c,
            &s,
            &corr,
            &rewires,
            vec![vec![true, false], vec![false, true]],
        );
        assert_eq!(v, Validation::Screened(vec![false, true]));
        assert_eq!(sat, SolverStats::default());

        // y = 1 differs from a | b only on a=0,b=0: the all-zero pattern
        // the unused bits of a partial block simulate. Those bits are not
        // banked, so the candidate passes the screen and SAT finds the input.
        let rewires = vec![CandidateRewire {
            pin: Pin::output(0),
            candidate: impl_candidate(c.constant(true)),
        }];
        let bank = vec![vec![true, false], vec![false, true], vec![true, true]];
        let v = validate(&c, &s, &corr, &rewires, bank).0;
        assert_eq!(v, Validation::CounterExample(vec![false, false]));
    }

    #[test]
    fn damaging_rewire_rejected() {
        let (c, s, corr) = setup();
        // Rewire output z (currently correct) to b: damages z.
        let rewires = vec![
            CandidateRewire {
                pin: Pin::output(0),
                candidate: spec_or_candidate(&s),
            },
            CandidateRewire {
                pin: Pin::output(1),
                candidate: impl_candidate(c.input_by_name("b").unwrap()),
            },
        ];
        let (v, sat) = validate(&c, &s, &corr, &rewires, vec![]);
        assert_eq!(v, Validation::Damaged);
        assert_ne!(sat, SolverStats::default(), "decided by SAT");
        // The bank's (1, 0) separates z = b from z = a: no SAT needed.
        let (v, sat) = validate(
            &c,
            &s,
            &corr,
            &rewires,
            vec![vec![true, false], vec![false, true]],
        );
        assert_eq!(v, Validation::Damaged);
        assert_eq!(sat, SolverStats::default());
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
        // The cycle check comes before the bank screen.
        for bank in [vec![], vec![vec![false, true]]] {
            let v = validate(&c, &s, &corr, &rewires, bank).0;
            assert_eq!(v, Validation::Infeasible);
        }
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
