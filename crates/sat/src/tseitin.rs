//! Tseitin encoding of circuits and the miter.
//!
//! The encoder assigns one SAT variable per circuit net and emits the
//! standard gate consistency clauses. A [`Miter`] owns a solver holding two
//! circuits over shared inputs and answers every equivalence query of the
//! flow: failing-output detection, error-domain enumeration, and the
//! validation of candidate rewire operations on the exact input domain.

use std::collections::HashMap;

use eco_netlist::{topo, Circuit, GateKind, NetId, NetlistError};

use crate::{Lit, SolveResult, Solver, SolverStats, Var};

/// Mapping from the nets of an encoded circuit to solver variables.
///
/// Dense over the circuit's nets: one slot per net index, so a lookup is
/// one load.
#[derive(Debug, Clone, Default)]
pub struct VarMap {
    /// The variable index of each net, [`UNMAPPED`] for a net that was not
    /// encoded.
    vars: Vec<u32>,
    /// Number of encoded nets.
    len: usize,
}

/// The [`VarMap`] slot of a net that was not encoded.
const UNMAPPED: u32 = u32::MAX;

impl VarMap {
    /// The solver variable of `net`, if the net was encoded.
    pub fn var(&self, net: NetId) -> Option<Var> {
        match self.vars.get(net.index()) {
            Some(&v) if v != UNMAPPED => Some(Var::from_index(v as usize)),
            _ => None,
        }
    }

    /// The positive literal of `net`, if encoded.
    pub fn lit(&self, net: NetId) -> Option<Lit> {
        self.var(net).map(Lit::pos)
    }

    /// Number of encoded nets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no nets are mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Encodes the live logic of `circuit` into `solver`.
///
/// `shared_inputs` optionally pre-assigns variables to primary inputs (used
/// by miters so both circuits read the same input variables); inputs are
/// looked up **by label**. Returns the net→variable map.
///
/// # Errors
///
/// Propagates [`NetlistError::Cyclic`] from the topological sort.
pub fn encode_circuit(
    solver: &mut Solver,
    circuit: &Circuit,
    shared_inputs: Option<&HashMap<String, Var>>,
) -> Result<VarMap, NetlistError> {
    let order = topo::topo_order(circuit)?;
    let mut map = VarMap {
        vars: vec![UNMAPPED; circuit.num_nodes()],
        len: order.len(),
    };
    // Scratch for one gate's fanin literals and for its wide clause.
    let (mut fanins, mut clause) = (Vec::new(), Vec::new());
    for id in order {
        let node = circuit.node(id);
        let net: NetId = id.into();
        let v = match node.kind() {
            GateKind::Input => {
                let label = node.name().unwrap_or("");
                match shared_inputs.and_then(|m| m.get(label)) {
                    Some(&v) => v,
                    None => solver.new_var(),
                }
            }
            _ => solver.new_var(),
        };
        map.vars[net.index()] = u32::try_from(v.index()).expect("at most u32::MAX variables");
        fanins.clear();
        fanins.extend(
            node.fanins()
                .iter()
                .map(|&f| map.lit(f).expect("fanins are encoded before their gate")),
        );
        emit_gate_clauses(solver, node.kind(), Lit::pos(v), &fanins, &mut clause);
    }
    Ok(map)
}

/// Emits the consistency clauses `out ≡ kind(fanins)`, building the wide
/// clause of an AND or OR family gate in `clause`.
///
/// # Panics
///
/// Panics when `fanins.len()` is illegal for `kind` (the netlist guarantees
/// legal arities for well-formed circuits).
fn emit_gate_clauses(
    solver: &mut Solver,
    kind: GateKind,
    out: Lit,
    fanins: &[Lit],
    clause: &mut Vec<Lit>,
) {
    match kind {
        GateKind::Input => {}
        GateKind::Const0 => {
            solver.add_clause(&[!out]);
        }
        GateKind::Const1 => {
            solver.add_clause(&[out]);
        }
        GateKind::Buf => {
            solver.add_clause(&[!fanins[0], out]);
            solver.add_clause(&[fanins[0], !out]);
        }
        GateKind::Not => {
            solver.add_clause(&[fanins[0], out]);
            solver.add_clause(&[!fanins[0], !out]);
        }
        GateKind::And | GateKind::Nand => {
            let o = if kind == GateKind::And { out } else { !out };
            // o -> fi for each i; (⋀ fi) -> o.
            for &f in fanins {
                solver.add_clause(&[!o, f]);
            }
            clause.clear();
            clause.extend(fanins.iter().map(|&f| !f));
            clause.push(o);
            solver.add_clause(clause);
        }
        GateKind::Or | GateKind::Nor => {
            let o = if kind == GateKind::Or { out } else { !out };
            // fi -> o for each i; o -> (⋁ fi).
            for &f in fanins {
                solver.add_clause(&[!f, o]);
            }
            clause.clear();
            clause.extend_from_slice(fanins);
            clause.push(!o);
            solver.add_clause(clause);
        }
        GateKind::Xor | GateKind::Xnor => {
            // Chain through auxiliary variables for arity > 2.
            let target = if kind == GateKind::Xor { out } else { !out };
            let mut acc = fanins[0];
            for (i, &f) in fanins.iter().enumerate().skip(1) {
                let res = if i + 1 == fanins.len() {
                    target
                } else {
                    Lit::pos(solver.new_var())
                };
                // res ≡ acc xor f
                solver.add_clause(&[!res, acc, f]);
                solver.add_clause(&[!res, !acc, !f]);
                solver.add_clause(&[res, !acc, f]);
                solver.add_clause(&[res, acc, !f]);
                acc = res;
            }
        }
        GateKind::Mux => {
            let (s, d0, d1) = (fanins[0], fanins[1], fanins[2]);
            // s -> (out ≡ d1); !s -> (out ≡ d0).
            solver.add_clause(&[!s, !d1, out]);
            solver.add_clause(&[!s, d1, !out]);
            solver.add_clause(&[s, !d0, out]);
            solver.add_clause(&[s, d0, !out]);
        }
    }
}

/// Verdict of an equivalence query on one output pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// The output pair computes the same function.
    Equivalent,
    /// A distinguishing input assignment, in the reference circuit's input
    /// order.
    Counterexample(Vec<bool>),
    /// The solver stopped on its conflict budget, deadline or interrupt
    /// flag before a verdict.
    Unknown,
}

/// Two circuits encoded into one solver over shared inputs, with one
/// difference literal per compared output pair.
///
/// This is the one equivalence query of the ECO flow: does an output pair
/// differ, and on which input? [`check`](Miter::check) asks it of one pair;
/// [`require_difference`](Miter::require_difference),
/// [`next_difference`](Miter::next_difference) and [`block`](Miter::block)
/// enumerate the error domain `𝔼` of all pairs. A counterexample is read
/// back in the input order of a `reference` circuit, matched by label.
#[derive(Debug)]
pub struct Miter {
    pub(crate) solver: Solver,
    /// Variables of the shared primary inputs, by label.
    inputs: HashMap<String, Var>,
    /// Net→variable map of the left circuit.
    pub(crate) left: VarMap,
    /// Net→variable map of the right circuit.
    pub(crate) right: VarMap,
    /// One literal per compared pair, true exactly when the pair differs.
    diff_lits: Vec<Lit>,
}

impl Miter {
    /// Encodes `left` and `right` into `solver` with one difference literal
    /// per `(left_net, right_net)` pair, asserting no difference yet.
    ///
    /// Inputs are shared by label: every label appearing in either circuit
    /// maps to one variable. `solver` keeps whatever it was configured
    /// with (a deadline, an interrupt flag).
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::Cyclic`] from either circuit.
    pub fn new(
        mut solver: Solver,
        left: &Circuit,
        right: &Circuit,
        pairs: &[(NetId, NetId)],
    ) -> Result<Self, NetlistError> {
        let mut inputs: HashMap<String, Var> = HashMap::new();
        for circuit in [left, right] {
            for &id in circuit.inputs() {
                let label = circuit.node(id).name().unwrap_or("").to_string();
                inputs.entry(label).or_insert_with(|| solver.new_var());
            }
        }
        let lmap = encode_circuit(&mut solver, left, Some(&inputs))?;
        let rmap = encode_circuit(&mut solver, right, Some(&inputs))?;
        let mut diff_lits = Vec::with_capacity(pairs.len());
        for &(lw, rw) in pairs {
            let a = lmap.lit(lw).expect("left net encoded");
            let b = rmap.lit(rw).expect("right net encoded");
            let d = Lit::pos(solver.new_var());
            // d ≡ a xor b
            solver.add_clause(&[!d, a, b]);
            solver.add_clause(&[!d, !a, !b]);
            solver.add_clause(&[d, !a, b]);
            solver.add_clause(&[d, a, !b]);
            diff_lits.push(d);
        }
        Ok(Miter {
            solver,
            inputs,
            left: lmap,
            right: rmap,
            diff_lits,
        })
    }

    /// Caps the conflicts of each later query; `None` lifts the cap.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.solver.set_conflict_budget(budget);
    }

    /// The solver effort spent so far, encoding and assistance included.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Whether compared pair `pair` differs: solves under its difference
    /// literal, leaving the formula unchanged.
    pub fn check(&mut self, pair: usize, reference: &Circuit) -> Equivalence {
        self.query(&[self.diff_lits[pair]], reference)
    }

    /// Asserts that some compared pair differs, so that
    /// [`next_difference`](Miter::next_difference) walks the error domain.
    pub fn require_difference(&mut self) {
        self.solver.add_clause(&self.diff_lits);
    }

    /// Solves the formula as it stands. After
    /// [`require_difference`](Miter::require_difference), a counterexample
    /// is an input on which some pair differs that no [`block`](Miter::block)
    /// has excluded, and [`Equivalence::Equivalent`] means none is left.
    pub fn next_difference(&mut self, reference: &Circuit) -> Equivalence {
        self.query(&[], reference)
    }

    /// Excludes `assignment`, in `reference`'s input order, from every later
    /// model.
    pub fn block(&mut self, assignment: &[bool], reference: &Circuit) {
        let clause: Vec<Lit> = reference
            .inputs()
            .iter()
            .zip(assignment)
            .map(|(&id, &v)| {
                let label = reference.node(id).name().unwrap_or("");
                Lit::with_phase(self.inputs[label], !v)
            })
            .collect();
        self.solver.add_clause(&clause);
    }

    fn query(&mut self, assumptions: &[Lit], reference: &Circuit) -> Equivalence {
        match self.solver.solve(assumptions) {
            SolveResult::Unsat => Equivalence::Equivalent,
            SolveResult::Sat => Equivalence::Counterexample(self.model_inputs(reference)),
            SolveResult::Unknown => Equivalence::Unknown,
        }
    }

    /// The shared-input assignment of the last model, ordered by the labels
    /// of `reference`'s primary inputs; unconstrained inputs read `false`.
    fn model_inputs(&self, reference: &Circuit) -> Vec<bool> {
        reference
            .inputs()
            .iter()
            .map(|&id| {
                let label = reference.node(id).name().unwrap_or("");
                self.inputs
                    .get(label)
                    .and_then(|&v| self.solver.value(v))
                    .unwrap_or(false)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::{Circuit, GateKind};

    fn adder_bit(flip: bool) -> Circuit {
        let mut c = Circuit::new(if flip { "bad" } else { "good" });
        let a = c.add_input("a");
        let b = c.add_input("b");
        let kind = if flip { GateKind::Xnor } else { GateKind::Xor };
        let s = c.add_gate(kind, &[a, b]).unwrap();
        c.add_output("s", s);
        c
    }

    #[test]
    fn encode_and_check_model_consistency() {
        let c = adder_bit(false);
        let mut s = Solver::new();
        let map = encode_circuit(&mut s, &c, None).unwrap();
        let out = map.lit(c.outputs()[0].net()).unwrap();
        // Force output true; model must satisfy a xor b.
        s.add_clause(&[out]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let a = s
            .value(map.var(c.input_by_name("a").unwrap()).unwrap())
            .unwrap();
        let b = s
            .value(map.var(c.input_by_name("b").unwrap()).unwrap())
            .unwrap();
        assert!(a ^ b);
    }

    #[test]
    fn equivalent_circuits_make_unsat_miter() {
        let c1 = adder_bit(false);
        let c2 = adder_bit(false);
        let pairs = [(c1.outputs()[0].net(), c2.outputs()[0].net())];
        let mut miter = Miter::new(Solver::new(), &c1, &c2, &pairs).unwrap();
        miter.require_difference();
        assert_eq!(miter.next_difference(&c1), Equivalence::Equivalent);
    }

    #[test]
    fn different_circuits_make_sat_miter_with_witness() {
        let c1 = adder_bit(false);
        let c2 = adder_bit(true);
        let pairs = [(c1.outputs()[0].net(), c2.outputs()[0].net())];
        let mut miter = Miter::new(Solver::new(), &c1, &c2, &pairs).unwrap();
        let Equivalence::Counterexample(inputs) = miter.check(0, &c1) else {
            panic!("xor and xnor differ everywhere");
        };
        // Witness must actually distinguish the circuits.
        assert_ne!(c1.eval(&inputs).unwrap(), c2.eval(&inputs).unwrap());
    }

    #[test]
    fn all_gate_kinds_encode_correctly() {
        // For each kind, compare SAT models of "out forced" against eval.
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        for kind in kinds {
            let mut c = Circuit::new("k");
            let a = c.add_input("a");
            let b = c.add_input("b");
            let d = c.add_input("d");
            let g = c.add_gate(kind, &[a, b, d]).unwrap();
            c.add_output("y", g);
            // Exhaustively check: for every input assignment, the encoding
            // admits exactly the matching output value.
            for j in 0..8u8 {
                let assign = [(j & 1) == 1, (j & 2) == 2, (j & 4) == 4];
                let expect = c.eval(&assign).unwrap()[0];
                let mut s = Solver::new();
                let map = encode_circuit(&mut s, &c, None).unwrap();
                let lits: Vec<Lit> = [a, b, d]
                    .iter()
                    .zip(assign.iter())
                    .map(|(&w, &v)| Lit::with_phase(map.var(w).unwrap(), v))
                    .collect();
                for l in &lits {
                    s.add_clause(&[*l]);
                }
                let out = map.lit(g).unwrap();
                s.add_clause(&[if expect { out } else { !out }]);
                assert_eq!(s.solve(&[]), SolveResult::Sat, "{kind} {assign:?}");
                let mut s2 = Solver::new();
                let map2 = encode_circuit(&mut s2, &c, None).unwrap();
                for (&w, &v) in [a, b, d].iter().zip(assign.iter()) {
                    s2.add_clause(&[Lit::with_phase(map2.var(w).unwrap(), v)]);
                }
                let out2 = map2.lit(g).unwrap();
                s2.add_clause(&[if expect { !out2 } else { out2 }]);
                assert_eq!(s2.solve(&[]), SolveResult::Unsat, "{kind} {assign:?}");
            }
        }
    }

    #[test]
    fn mux_and_const_encode_correctly() {
        let mut c = Circuit::new("m");
        let s0 = c.add_input("s");
        let a = c.add_input("a");
        let k1 = c.constant(true);
        let g = c.add_gate(GateKind::Mux, &[s0, a, k1]).unwrap();
        c.add_output("y", g);
        for j in 0..4u8 {
            let assign = [(j & 1) == 1, (j & 2) == 2];
            let expect = c.eval(&assign).unwrap()[0];
            let mut solver = Solver::new();
            let map = encode_circuit(&mut solver, &c, None).unwrap();
            solver.add_clause(&[Lit::with_phase(map.var(s0).unwrap(), assign[0])]);
            solver.add_clause(&[Lit::with_phase(map.var(a).unwrap(), assign[1])]);
            let out = map.lit(g).unwrap();
            solver.add_clause(&[if expect { !out } else { out }]);
            assert_eq!(solver.solve(&[]), SolveResult::Unsat, "{assign:?}");
        }
    }

    #[test]
    fn miter_enumeration_with_blocking_clauses() {
        // Enumerate the full error domain of xor-vs-xnor (all 4 inputs).
        let c1 = adder_bit(false);
        let c2 = adder_bit(true);
        let pairs = [(c1.outputs()[0].net(), c2.outputs()[0].net())];
        let mut miter = Miter::new(Solver::new(), &c1, &c2, &pairs).unwrap();
        miter.require_difference();
        let mut found = Vec::new();
        while let Equivalence::Counterexample(inputs) = miter.next_difference(&c1) {
            miter.block(&inputs, &c1);
            found.push(inputs);
        }
        // xor != xnor everywhere: all 4 assignments are errors.
        assert_eq!(found.len(), 4);
    }
}
