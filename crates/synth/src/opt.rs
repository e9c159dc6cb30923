//! Logic optimization: the pipeline that turns a freshly synthesized netlist
//! into a "heavily optimized" implementation.
//!
//! The point of this module, for the ECO study, is not area optimality but
//! **structural dissimilarity**: after constant folding, structural hashing,
//! randomized restructuring, and SAT-sweeping, the implementation shares no
//! usable structural correspondence with the lightweight-synthesized
//! specification — the regime the paper's method is designed for (§1).

use std::collections::HashMap;

use eco_netlist::sim::Compiled;
use eco_netlist::{strash, topo, Circuit, GateKind, NetId, NetlistError, Pin};
use eco_sat::{tseitin, SolveResult, Solver};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Options controlling the [`optimize`] pipeline.
#[derive(Debug, Clone)]
pub struct OptOptions {
    /// Seed for the randomized restructuring decisions.
    pub seed: u64,
    /// Fraction of gates rewritten per restructuring round (0.0 disables).
    pub restructure_fraction: f64,
    /// Number of fold/strash/restructure rounds.
    pub rounds: u32,
    /// Whether to run SAT sweeping (equivalent-node merging) at the end.
    pub sat_sweep: bool,
    /// Conflict budget per SAT equivalence query during sweeping.
    pub sweep_budget: u64,
    /// Round-trip through a depth-balanced AIG, erasing all original gate
    /// boundaries (the strongest structural-dissimilarity treatment).
    pub aig_resynthesis: bool,
}

impl OptOptions {
    /// Aggressive pipeline: the "production synthesis" stand-in.
    pub fn heavy(seed: u64) -> Self {
        OptOptions {
            seed,
            restructure_fraction: 0.45,
            rounds: 3,
            sat_sweep: true,
            sweep_budget: 2_000,
            aig_resynthesis: false,
        }
    }

    /// Light cleanup only (fold + hash), no restructuring.
    pub fn light(seed: u64) -> Self {
        OptOptions {
            seed,
            restructure_fraction: 0.0,
            rounds: 1,
            sat_sweep: false,
            sweep_budget: 0,
            aig_resynthesis: false,
        }
    }

    /// Everything [`heavy`](OptOptions::heavy) does plus an AIG round-trip:
    /// the resulting netlist shares no gate boundaries with its source.
    pub fn aggressive(seed: u64) -> Self {
        OptOptions {
            aig_resynthesis: true,
            ..Self::heavy(seed)
        }
    }
}

/// Summary of an [`optimize`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptReport {
    /// Live gates before optimization.
    pub gates_before: usize,
    /// Live gates after optimization.
    pub gates_after: usize,
    /// Gates merged by SAT sweeping.
    pub swept_equivalences: usize,
}

/// Runs the optimization pipeline in place.
///
/// # Errors
///
/// Propagates [`NetlistError`] from the underlying passes (cyclic circuits
/// cannot occur unless the input was malformed).
pub fn optimize(circuit: &mut Circuit, options: &OptOptions) -> Result<OptReport, NetlistError> {
    let gates_before = eco_netlist::CircuitStats::of(circuit).gates;
    let mut rng = SmallRng::seed_from_u64(options.seed);
    for _ in 0..options.rounds {
        constant_fold(circuit)?;
        strash::strash(circuit)?;
        if options.restructure_fraction > 0.0 {
            restructure(circuit, &mut rng, options.restructure_fraction)?;
            constant_fold(circuit)?;
            strash::strash(circuit)?;
        }
    }
    if options.aig_resynthesis {
        aig_resynthesize(circuit)?;
        constant_fold(circuit)?;
        strash::strash(circuit)?;
    }
    let mut swept = 0;
    if options.sat_sweep {
        swept = sat_sweep(circuit, options.sweep_budget, options.seed ^ 0x5eed)?;
        constant_fold(circuit)?;
        strash::strash(circuit)?;
    }
    circuit.sweep();
    Ok(OptReport {
        gates_before,
        gates_after: eco_netlist::CircuitStats::of(circuit).gates,
        swept_equivalences: swept,
    })
}

/// Round-trips `circuit` through a depth-balanced AIG in place.
///
/// All typed gates are decomposed into two-input ANDs with complemented
/// edges, strashed, depth-balanced, and exported back as AND/NOT logic.
/// Ports are preserved by label.
///
/// # Errors
///
/// Propagates [`NetlistError::Cyclic`] for malformed inputs.
pub fn aig_resynthesize(circuit: &mut Circuit) -> Result<(), NetlistError> {
    let aig = crate::aig::Aig::from_circuit(circuit)?;
    *circuit = aig.balance().to_circuit(circuit.name().to_string())?;
    Ok(())
}

/// Constant folding and local simplification.
///
/// Rules: constants propagate through every gate kind, unit operands of
/// AND/OR/XOR are dropped, duplicate operands are merged, `Not(Not(x))`
/// collapses, `Mux` with constant select or equal branches simplifies, and
/// degenerate gates become buffers/constants. Returns the number of nodes
/// swept away.
///
/// # Errors
///
/// Propagates [`NetlistError::Cyclic`] for malformed inputs.
pub fn constant_fold(circuit: &mut Circuit) -> Result<usize, NetlistError> {
    let order = topo::topo_order(circuit)?;
    let mut rep: HashMap<NetId, NetId> = HashMap::new();

    let resolve = |rep: &HashMap<NetId, NetId>, mut w: NetId| -> NetId {
        while let Some(&r) = rep.get(&w) {
            if r == w {
                break;
            }
            w = r;
        }
        w
    };

    for id in order {
        let kind = circuit.node(id).kind();
        if kind == GateKind::Input || kind.is_const() {
            continue;
        }
        let net: NetId = id.into();
        let fanins: Vec<NetId> = circuit
            .node(id)
            .fanins()
            .iter()
            .map(|&f| resolve(&rep, f))
            .collect();
        let value_of = |w: NetId| -> Option<bool> {
            match circuit.node(w.source()).kind() {
                GateKind::Const0 => Some(false),
                GateKind::Const1 => Some(true),
                _ => None,
            }
        };
        let replacement: Option<NetId> = match kind {
            GateKind::Buf => Some(fanins[0]),
            GateKind::Not => match value_of(fanins[0]) {
                Some(v) => Some(circuit.constant(!v)),
                None => {
                    // Not(Not(x)) = x
                    let inner = circuit.node(fanins[0].source());
                    if inner.kind() == GateKind::Not {
                        Some(resolve(&rep, inner.fanins()[0]))
                    } else {
                        None
                    }
                }
            },
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let (absorbing, neutral) = match kind {
                    GateKind::And | GateKind::Nand => (false, true),
                    _ => (true, false),
                };
                let inverted = matches!(kind, GateKind::Nand | GateKind::Nor);
                let mut kept: Vec<NetId> = Vec::with_capacity(fanins.len());
                let mut result_const: Option<bool> = None;
                for &f in &fanins {
                    match value_of(f) {
                        Some(v) if v == absorbing => {
                            result_const = Some(absorbing);
                            break;
                        }
                        Some(v) if v == neutral => {}
                        _ => {
                            if !kept.contains(&f) {
                                kept.push(f);
                            }
                        }
                    }
                }
                match result_const {
                    Some(v) => Some(circuit.constant(v ^ inverted)),
                    None if kept.is_empty() => Some(circuit.constant(neutral ^ inverted)),
                    None if kept.len() == 1 => {
                        if inverted {
                            Some(circuit.add_gate(GateKind::Not, &[kept[0]])?)
                        } else {
                            Some(kept[0])
                        }
                    }
                    None if kept.len() < fanins.len() => Some(circuit.add_gate(kind, &kept)?),
                    None => None,
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut invert = kind == GateKind::Xnor;
                let mut kept: Vec<NetId> = Vec::with_capacity(fanins.len());
                for &f in &fanins {
                    match value_of(f) {
                        Some(true) => invert = !invert,
                        Some(false) => {}
                        None => {
                            // Equal pairs cancel.
                            if let Some(pos) = kept.iter().position(|&k| k == f) {
                                kept.remove(pos);
                            } else {
                                kept.push(f);
                            }
                        }
                    }
                }
                match kept.len() {
                    0 => Some(circuit.constant(invert)),
                    1 => {
                        if invert {
                            Some(circuit.add_gate(GateKind::Not, &[kept[0]])?)
                        } else {
                            Some(kept[0])
                        }
                    }
                    n if n < fanins.len() || invert != (kind == GateKind::Xnor) => {
                        let k = if invert {
                            GateKind::Xnor
                        } else {
                            GateKind::Xor
                        };
                        Some(circuit.add_gate(k, &kept)?)
                    }
                    _ => None,
                }
            }
            GateKind::Mux => {
                let (s, d0, d1) = (fanins[0], fanins[1], fanins[2]);
                match value_of(s) {
                    Some(true) => Some(d1),
                    Some(false) => Some(d0),
                    None if d0 == d1 => Some(d0),
                    None => match (value_of(d0), value_of(d1)) {
                        (Some(false), Some(true)) => Some(s),
                        (Some(true), Some(false)) => Some(circuit.add_gate(GateKind::Not, &[s])?),
                        _ => None,
                    },
                }
            }
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => None,
        };
        if let Some(r) = replacement {
            if r != net {
                rep.insert(net, r);
            }
        } else {
            // Even without a replacement, resolved fanins must be applied.
            let current: Vec<NetId> = circuit.node(id).fanins().to_vec();
            for (pos, (&old, &new)) in current.iter().zip(&fanins).enumerate() {
                if old != new {
                    circuit
                        .rewire(Pin::gate(id, pos as u8), new)
                        .expect("fold substitution preserves acyclicity");
                }
            }
        }
    }
    if rep.is_empty() {
        return Ok(circuit.sweep());
    }
    // Redirect every remaining reference through the replacement map.
    let live: Vec<_> = circuit.iter_live().collect();
    for id in live {
        let fanins: Vec<NetId> = circuit.node(id).fanins().to_vec();
        for (pos, &f) in fanins.iter().enumerate() {
            let r = resolve(&rep, f);
            if r != f {
                circuit
                    .rewire(Pin::gate(id, pos as u8), r)
                    .expect("fold substitution preserves acyclicity");
            }
        }
    }
    for i in 0..circuit.num_outputs() as u32 {
        let w = circuit.outputs()[i as usize].net();
        let r = resolve(&rep, w);
        if r != w {
            circuit.set_output_net(i, r)?;
        }
    }
    Ok(circuit.sweep())
}

/// Randomized semantics-preserving restructuring.
///
/// Each live gate is rewritten with probability `fraction` into an
/// equivalent form built from fresh nodes (De Morgan for AND/OR/NAND/NOR,
/// sum-of-products decomposition for XOR/XNOR/MUX, random re-bracketing for
/// n-ary gates); all sinks are redirected to the new root. Returns the
/// number of gates rewritten.
///
/// # Errors
///
/// Propagates [`NetlistError`] from gate construction.
pub fn restructure(
    circuit: &mut Circuit,
    rng: &mut SmallRng,
    fraction: f64,
) -> Result<usize, NetlistError> {
    let targets: Vec<_> = circuit
        .iter_live()
        .filter(|&id| {
            let k = circuit.node(id).kind();
            k != GateKind::Input && !k.is_const() && k != GateKind::Buf && k != GateKind::Not
        })
        .filter(|_| rng.gen_bool(fraction))
        .collect();
    let mut rewritten = 0;
    for id in targets {
        let kind = circuit.node(id).kind();
        let fanins: Vec<NetId> = circuit.node(id).fanins().to_vec();
        let new_root: NetId = match kind {
            GateKind::And | GateKind::Nand => {
                // De Morgan: and(f..) = not(or(not f..))
                let negs: Vec<NetId> = fanins
                    .iter()
                    .map(|&f| circuit.add_gate(GateKind::Not, &[f]))
                    .collect::<Result<_, _>>()?;
                let or = build_tree(circuit, GateKind::Or, &negs, rng)?;
                if kind == GateKind::And {
                    circuit.add_gate(GateKind::Not, &[or])?
                } else {
                    or
                }
            }
            GateKind::Or | GateKind::Nor => {
                let negs: Vec<NetId> = fanins
                    .iter()
                    .map(|&f| circuit.add_gate(GateKind::Not, &[f]))
                    .collect::<Result<_, _>>()?;
                let and = build_tree(circuit, GateKind::And, &negs, rng)?;
                if kind == GateKind::Or {
                    circuit.add_gate(GateKind::Not, &[and])?
                } else {
                    and
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                // Fold pairwise with SOP decomposition of binary xor.
                let mut acc = fanins[0];
                for &f in &fanins[1..] {
                    let na = circuit.add_gate(GateKind::Not, &[acc])?;
                    let nf = circuit.add_gate(GateKind::Not, &[f])?;
                    let t1 = circuit.add_gate(GateKind::And, &[acc, nf])?;
                    let t2 = circuit.add_gate(GateKind::And, &[na, f])?;
                    acc = circuit.add_gate(GateKind::Or, &[t1, t2])?;
                }
                if kind == GateKind::Xnor {
                    circuit.add_gate(GateKind::Not, &[acc])?
                } else {
                    acc
                }
            }
            GateKind::Mux => {
                let (s, d0, d1) = (fanins[0], fanins[1], fanins[2]);
                let ns = circuit.add_gate(GateKind::Not, &[s])?;
                let t0 = circuit.add_gate(GateKind::And, &[ns, d0])?;
                let t1 = circuit.add_gate(GateKind::And, &[s, d1])?;
                circuit.add_gate(GateKind::Or, &[t0, t1])?
            }
            _ => continue,
        };
        redirect_sinks(circuit, id.into(), new_root)?;
        rewritten += 1;
    }
    circuit.sweep();
    Ok(rewritten)
}

/// Builds a randomly bracketed binary tree of `kind` over `leaves`.
fn build_tree(
    circuit: &mut Circuit,
    kind: GateKind,
    leaves: &[NetId],
    rng: &mut SmallRng,
) -> Result<NetId, NetlistError> {
    let mut work: Vec<NetId> = leaves.to_vec();
    while work.len() > 1 {
        let i = rng.gen_range(0..work.len());
        let a = work.swap_remove(i);
        let j = rng.gen_range(0..work.len());
        let b = work.swap_remove(j);
        work.push(circuit.add_gate(kind, &[a, b])?);
    }
    Ok(work[0])
}

/// Redirects every sink of `from` to `to` (gate pins and output ports).
fn redirect_sinks(circuit: &mut Circuit, from: NetId, to: NetId) -> Result<(), NetlistError> {
    let fanouts = circuit.fanouts();
    for pin in &fanouts[from.index()] {
        // Skip pins inside the freshly built replacement logic (they consume
        // `from` legitimately, e.g. xor decomposition reuses the operand).
        circuit.rewire(*pin, to)?;
    }
    Ok(())
}

/// SAT sweeping: merges functionally equivalent gates.
///
/// Simulation signatures (three 64-pattern blocks, seeded by `seed`) group
/// candidate nets; candidates are confirmed by two incremental SAT calls
/// under assumptions with a conflict budget of `budget` each, then merged by
/// redirecting sinks to the earliest (topologically) representative. Returns
/// the number of merges performed.
///
/// # Errors
///
/// Propagates [`NetlistError`] from analysis; SAT `Unknown` outcomes simply
/// skip the merge.
pub fn sat_sweep(circuit: &mut Circuit, budget: u64, seed: u64) -> Result<usize, NetlistError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let order = topo::topo_order(circuit)?;
    let topo_pos: HashMap<NetId, usize> = order
        .iter()
        .enumerate()
        .map(|(i, &n)| (NetId::from(n), i))
        .collect();

    // Signatures from three random pattern blocks.
    let mut signatures: HashMap<NetId, [u64; 3]> = HashMap::new();
    let compiled = Compiled::new(circuit)?;
    for block in 0..3 {
        let patterns: Vec<u64> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
        let words = compiled.simulate(&patterns)?;
        for &id in &order {
            let net = NetId::from(id);
            signatures.entry(net).or_insert([0; 3])[block] = words[net.index()];
        }
    }

    // Group candidate gates by signature.
    let mut groups: HashMap<[u64; 3], Vec<NetId>> = HashMap::new();
    for &id in &order {
        let kind = circuit.node(id).kind();
        if kind == GateKind::Input || kind.is_const() {
            continue;
        }
        groups
            .entry(signatures[&NetId::from(id)])
            .or_default()
            .push(id.into());
    }

    let mut solver = Solver::new();
    let map = tseitin::encode_circuit(&mut solver, circuit, None)?;
    solver.set_conflict_budget(Some(budget));

    let mut merges = 0;
    for (_, mut members) in groups {
        if members.len() < 2 {
            continue;
        }
        members.sort_by_key(|w| topo_pos[w]);
        let rep = members[0];
        let rep_lit = map.lit(rep).expect("net encoded");
        for &m in &members[1..] {
            let m_lit = map.lit(m).expect("net encoded");
            let r1 = solver.solve(&[rep_lit, !m_lit]);
            if r1 != SolveResult::Unsat {
                continue;
            }
            let r2 = solver.solve(&[!rep_lit, m_lit]);
            if r2 != SolveResult::Unsat {
                continue;
            }
            // Equivalent: move every sink of m to rep, skipping any pin whose
            // rewiring would create a cycle (possible when rep is a fanout of
            // m's consumer chain).
            let fanouts = circuit.fanouts();
            let mut moved = true;
            for pin in &fanouts[m.index()] {
                if circuit.rewire(*pin, rep).is_err() {
                    moved = false;
                }
            }
            if moved {
                merges += 1;
            }
        }
    }
    circuit.sweep();
    Ok(merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::CircuitStats;

    fn exhaustive_equal(a: &Circuit, b: &Circuit) -> bool {
        assert!(a.num_inputs() <= 12, "test circuits stay small");
        assert_eq!(a.num_inputs(), b.num_inputs());
        for j in 0..(1u32 << a.num_inputs()) {
            let assign: Vec<bool> = (0..a.num_inputs()).map(|i| (j >> i) & 1 == 1).collect();
            if a.eval(&assign).unwrap() != b.eval(&assign).unwrap() {
                return false;
            }
        }
        true
    }

    fn demo_circuit() -> Circuit {
        let mut c = Circuit::new("demo");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let k1 = c.constant(true);
        let g1 = c.add_gate(GateKind::And, &[a, k1]).unwrap(); // = a
        let g2 = c.add_gate(GateKind::Xor, &[g1, b]).unwrap();
        let g3 = c.add_gate(GateKind::Mux, &[d, g2, g2]).unwrap(); // = g2
        let g4 = c.add_gate(GateKind::Or, &[g3, d]).unwrap();
        let g5 = c.add_gate(GateKind::Not, &[g4]).unwrap();
        let g6 = c.add_gate(GateKind::Not, &[g5]).unwrap(); // = g4
        c.add_output("y", g6);
        c
    }

    #[test]
    fn fold_simplifies_and_preserves() {
        let reference = demo_circuit();
        let mut c = demo_circuit();
        constant_fold(&mut c).unwrap();
        assert!(exhaustive_equal(&reference, &c));
        let stats = CircuitStats::of(&c);
        assert!(
            stats.gates <= 2,
            "expected aggressive folding, got {} gates",
            stats.gates
        );
    }

    #[test]
    fn fold_handles_constant_only_gates() {
        let mut c = Circuit::new("k");
        let k0 = c.constant(false);
        let k1 = c.constant(true);
        let g = c.add_gate(GateKind::And, &[k0, k1]).unwrap();
        let h = c.add_gate(GateKind::Xor, &[g, k1]).unwrap();
        c.add_output("y", h);
        constant_fold(&mut c).unwrap();
        assert_eq!(c.eval(&[]).unwrap(), vec![true]);
        assert_eq!(CircuitStats::of(&c).gates, 0);
    }

    #[test]
    fn fold_cancels_xor_pairs() {
        let mut c = Circuit::new("x");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::Xor, &[a, b, a]).unwrap(); // = b
        c.add_output("y", g);
        constant_fold(&mut c).unwrap();
        assert_eq!(CircuitStats::of(&c).gates, 0);
        assert_eq!(c.eval(&[true, true]).unwrap(), vec![true]);
        assert_eq!(c.eval(&[true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn restructure_preserves_function() {
        let reference = demo_circuit();
        let mut c = demo_circuit();
        let mut rng = SmallRng::seed_from_u64(42);
        let n = restructure(&mut c, &mut rng, 1.0).unwrap();
        assert!(n > 0);
        assert!(exhaustive_equal(&reference, &c));
        c.check_well_formed().unwrap();
    }

    #[test]
    fn restructure_changes_structure() {
        let mut c = demo_circuit();
        let before = CircuitStats::of(&c);
        let mut rng = SmallRng::seed_from_u64(1);
        restructure(&mut c, &mut rng, 1.0).unwrap();
        let after = CircuitStats::of(&c);
        assert_ne!(before.gates, after.gates);
    }

    #[test]
    fn sat_sweep_merges_duplicated_cones() {
        let mut c = Circuit::new("dup");
        let a = c.add_input("a");
        let b = c.add_input("b");
        // Two different-looking implementations of a&b.
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let na = c.add_gate(GateKind::Not, &[a]).unwrap();
        let nb = c.add_gate(GateKind::Not, &[b]).unwrap();
        let o = c.add_gate(GateKind::Or, &[na, nb]).unwrap();
        let g2 = c.add_gate(GateKind::Not, &[o]).unwrap();
        let y = c.add_gate(GateKind::Xor, &[g1, g2]).unwrap(); // constant 0
        c.add_output("y", y);
        c.add_output("z", g2);
        let reference = c.clone();
        let merges = sat_sweep(&mut c, 10_000, 3).unwrap();
        assert!(merges >= 1, "equivalent cones should merge");
        assert!(exhaustive_equal(&reference, &c));
        assert!(CircuitStats::of(&c).gates < CircuitStats::of(&reference).gates);
    }

    #[test]
    fn optimize_pipeline_preserves_function() {
        let reference = demo_circuit();
        let mut c = demo_circuit();
        let report = optimize(&mut c, &OptOptions::heavy(99)).unwrap();
        assert!(exhaustive_equal(&reference, &c));
        assert!(report.gates_before >= 1);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn light_options_are_deterministic() {
        let mut c1 = demo_circuit();
        let mut c2 = demo_circuit();
        optimize(&mut c1, &OptOptions::light(5)).unwrap();
        optimize(&mut c2, &OptOptions::light(5)).unwrap();
        assert_eq!(CircuitStats::of(&c1), CircuitStats::of(&c2));
    }
}
