//! Equivalence oracles and cross-oracle conformance checking.
//!
//! Each oracle answers, independently of the others, "are these two
//! circuits equal on this output pair?" with a three-valued
//! [`Verdict`]. Differential fuzzing runs all oracles on the same pair and
//! flags every disagreement: a definite verdict contradicting another
//! definite verdict, or a [`Verdict::Different`] whose witness does not
//! actually distinguish the circuits. `Unknown` (resource-bounded) agrees
//! with everything.

use std::collections::HashMap;

use eco_bdd::{Bdd, BddError, BddManager};
use eco_netlist::sim::Compiled;
use eco_netlist::{topo, Circuit, GateKind, NetId};
use eco_sat::cec::{assist_equivalences, CecOptions, ProofCache};
use eco_sat::tseitin::{encode_pairs, model_inputs};
use eco_sat::{SolveResult, Solver};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::FuzzError;

/// Result of one oracle on one output pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The outputs are proven equal.
    Equivalent,
    /// The outputs differ on the contained witness (an input assignment in
    /// the implementation's primary-input order).
    Different(Vec<bool>),
    /// The oracle exhausted its resource budget without an answer.
    Unknown,
}

impl Verdict {
    /// Short label used in disagreement reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Equivalent => "equivalent",
            Verdict::Different(_) => "different",
            Verdict::Unknown => "unknown",
        }
    }
}

/// One matched output pair between implementation and spec.
#[derive(Debug, Clone)]
pub struct OutputPairMap {
    /// The shared port label.
    pub name: String,
    /// Port index in the implementation.
    pub impl_index: usize,
    /// Port index in the spec.
    pub spec_index: usize,
}

/// Label-based port correspondence between an implementation and a spec.
#[derive(Debug, Clone)]
pub struct PortMap {
    /// For each spec input position, the implementation input position with
    /// the same label.
    pub impl_pos_of_spec: Vec<usize>,
    /// Output pairs, in implementation port order.
    pub pairs: Vec<OutputPairMap>,
}

impl PortMap {
    /// Projects an implementation-ordered witness onto the spec's inputs.
    pub fn spec_assignment(&self, witness: &[bool]) -> Vec<bool> {
        self.impl_pos_of_spec.iter().map(|&p| witness[p]).collect()
    }
}

/// Builds the port correspondence for an implementation/spec pair.
///
/// # Errors
///
/// [`FuzzError::PortMismatch`] when a spec input label is absent from the
/// implementation or the two output-name sets differ.
pub fn port_map(implementation: &Circuit, spec: &Circuit) -> Result<PortMap, FuzzError> {
    let mut impl_pos: HashMap<&str, usize> = HashMap::new();
    for (pos, &id) in implementation.inputs().iter().enumerate() {
        impl_pos.insert(implementation.node(id).name().unwrap_or(""), pos);
    }
    let mut impl_pos_of_spec = Vec::with_capacity(spec.num_inputs());
    for &id in spec.inputs() {
        let label = spec.node(id).name().unwrap_or("");
        match impl_pos.get(label) {
            Some(&p) => impl_pos_of_spec.push(p),
            None => {
                return Err(FuzzError::PortMismatch(format!(
                    "spec input {label:?} has no implementation counterpart"
                )))
            }
        }
    }
    if implementation.num_outputs() != spec.num_outputs() {
        return Err(FuzzError::PortMismatch(format!(
            "output count {} vs {}",
            implementation.num_outputs(),
            spec.num_outputs()
        )));
    }
    let mut pairs = Vec::with_capacity(implementation.num_outputs());
    for (impl_index, port) in implementation.outputs().iter().enumerate() {
        match spec.output_by_name(port.name()) {
            Some(spec_index) => pairs.push(OutputPairMap {
                name: port.name().to_string(),
                impl_index,
                spec_index: spec_index as usize,
            }),
            None => {
                return Err(FuzzError::PortMismatch(format!(
                    "implementation output {:?} missing from spec",
                    port.name()
                )))
            }
        }
    }
    Ok(PortMap {
        impl_pos_of_spec,
        pairs,
    })
}

/// An equivalence oracle: one verdict per output pair of the [`PortMap`].
pub trait Oracle {
    /// Short stable name used in reports.
    fn name(&self) -> &str;

    /// Checks every output pair of `map`.
    ///
    /// # Errors
    ///
    /// Infrastructure failures only (ill-formed circuits); resource
    /// exhaustion is reported as [`Verdict::Unknown`], not as an error.
    fn check_all(
        &mut self,
        implementation: &Circuit,
        spec: &Circuit,
        map: &PortMap,
    ) -> Result<Vec<Verdict>, FuzzError>;
}

// ---------------------------------------------------------------------
// Simulation oracle
// ---------------------------------------------------------------------

/// Bit-parallel simulation oracle.
///
/// Exhaustive (and therefore definitive) up to
/// [`exhaustive_limit`](SimOracle::exhaustive_limit) primary inputs; beyond
/// that it samples random blocks and can only answer `Different` or
/// `Unknown`.
#[derive(Debug, Clone)]
pub struct SimOracle {
    /// Maximum input count for exhaustive enumeration.
    pub exhaustive_limit: u32,
    /// Number of 64-pattern random blocks when not exhaustive.
    pub random_blocks: usize,
    /// Seed for the random blocks.
    pub seed: u64,
}

impl Default for SimOracle {
    fn default() -> Self {
        SimOracle {
            exhaustive_limit: 10,
            random_blocks: 16,
            seed: 0x51D,
        }
    }
}

impl Oracle for SimOracle {
    fn name(&self) -> &str {
        "sim"
    }

    fn check_all(
        &mut self,
        implementation: &Circuit,
        spec: &Circuit,
        map: &PortMap,
    ) -> Result<Vec<Verdict>, FuzzError> {
        let n = implementation.num_inputs();
        let mut verdicts: Vec<Option<Verdict>> = vec![None; map.pairs.len()];
        let (impl_sim, spec_sim) = (Compiled::new(implementation)?, Compiled::new(spec)?);
        // Simulates one block whose low `valid` patterns count; returns
        // whether every pair has a verdict.
        let mut compare_block = |impl_patterns: &[u64], valid: u32| -> Result<bool, FuzzError> {
            let spec_patterns: Vec<u64> = map
                .impl_pos_of_spec
                .iter()
                .map(|&p| impl_patterns[p])
                .collect();
            let iw = impl_sim.simulate(impl_patterns)?;
            let sw = spec_sim.simulate(&spec_patterns)?;
            let mask = if valid == 64 {
                !0u64
            } else {
                (1u64 << valid) - 1
            };
            for (k, pair) in map.pairs.iter().enumerate() {
                if verdicts[k].is_some() {
                    continue;
                }
                let a = iw[implementation.outputs()[pair.impl_index].net().index()];
                let b = sw[spec.outputs()[pair.spec_index].net().index()];
                let diff = (a ^ b) & mask;
                if diff != 0 {
                    let bit = diff.trailing_zeros() as usize;
                    let witness: Vec<bool> =
                        impl_patterns.iter().map(|&w| (w >> bit) & 1 == 1).collect();
                    verdicts[k] = Some(Verdict::Different(witness));
                }
            }
            Ok(verdicts.iter().all(Option::is_some))
        };
        let exhaustive = (n as u32) <= self.exhaustive_limit;
        if exhaustive {
            let total: u64 = 1u64 << n;
            let mut base = 0u64;
            while base < total {
                let valid = (total - base).min(64) as u32;
                let patterns: Vec<u64> = (0..n)
                    .map(|i| {
                        let mut w = 0u64;
                        for j in 0..valid as u64 {
                            if ((base + j) >> i) & 1 == 1 {
                                w |= 1 << j;
                            }
                        }
                        w
                    })
                    .collect();
                if compare_block(&patterns, valid)? {
                    break;
                }
                base += 64;
            }
        } else {
            let mut rng = SmallRng::seed_from_u64(self.seed);
            for _ in 0..self.random_blocks {
                let patterns: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
                if compare_block(&patterns, 64)? {
                    break;
                }
            }
        }
        let fallback = if exhaustive {
            Verdict::Equivalent
        } else {
            Verdict::Unknown
        };
        Ok(verdicts
            .into_iter()
            .map(|v| v.unwrap_or_else(|| fallback.clone()))
            .collect())
    }
}

// ---------------------------------------------------------------------
// SAT oracle
// ---------------------------------------------------------------------

/// SAT-based combinational equivalence oracle over a shared-input miter.
#[derive(Debug, Clone)]
pub struct SatOracle {
    /// Conflict budget per output query; `None` is unbounded.
    pub conflict_budget: Option<u64>,
    /// Run the fraiging-lite internal-equivalence pass before the output
    /// queries (exercises `sat::cec` differentially).
    pub assist: bool,
    /// Seed for the assistance pass's simulation.
    pub seed: u64,
}

impl Default for SatOracle {
    fn default() -> Self {
        SatOracle {
            conflict_budget: Some(200_000),
            assist: false,
            seed: 0x5A7,
        }
    }
}

impl Oracle for SatOracle {
    fn name(&self) -> &str {
        if self.assist {
            "sat+cec"
        } else {
            "sat"
        }
    }

    fn check_all(
        &mut self,
        implementation: &Circuit,
        spec: &Circuit,
        map: &PortMap,
    ) -> Result<Vec<Verdict>, FuzzError> {
        let mut solver = Solver::new();
        let pairs: Vec<(NetId, NetId)> = map
            .pairs
            .iter()
            .map(|p| {
                (
                    implementation.outputs()[p.impl_index].net(),
                    spec.outputs()[p.spec_index].net(),
                )
            })
            .collect();
        let miter = encode_pairs(&mut solver, implementation, spec, &pairs)?;
        if self.assist {
            let options = CecOptions {
                sim_blocks: 2,
                pair_budget: 1_000,
                max_pairs: 256,
                seed: self.seed,
            };
            assist_equivalences(
                &mut solver,
                implementation,
                spec,
                &miter.left,
                &miter.right,
                &options,
                &mut ProofCache::new(),
            )?;
        }
        solver.set_conflict_budget(self.conflict_budget);
        let mut verdicts = Vec::with_capacity(map.pairs.len());
        for &d in &miter.diff_lits {
            let verdict = match solver.solve(&[d]) {
                SolveResult::Sat => {
                    Verdict::Different(model_inputs(&solver, &miter, implementation))
                }
                SolveResult::Unsat => Verdict::Equivalent,
                _ => Verdict::Unknown,
            };
            verdicts.push(verdict);
        }
        Ok(verdicts)
    }
}

// ---------------------------------------------------------------------
// BDD oracle
// ---------------------------------------------------------------------

/// Canonical-form equivalence oracle: both circuits are compiled to BDDs
/// over shared input variables, where equivalence is handle equality.
#[derive(Debug, Clone)]
pub struct BddOracle {
    /// Unique-table node limit; exceeding it yields [`Verdict::Unknown`].
    pub node_limit: usize,
}

impl Default for BddOracle {
    fn default() -> Self {
        BddOracle {
            node_limit: 200_000,
        }
    }
}

/// Compiles every net of `circuit` to a BDD, inputs taken from `input_fns`
/// (indexed by primary-input position).
fn circuit_bdds(
    m: &mut BddManager,
    circuit: &Circuit,
    input_fns: &[Bdd],
) -> Result<Vec<Bdd>, BddError> {
    let order = topo::topo_order(circuit).expect("oracle input is well-formed");
    let mut fns = vec![m.zero(); circuit.num_nodes()];
    for (pos, &id) in circuit.inputs().iter().enumerate() {
        fns[id.index()] = input_fns[pos];
    }
    for id in order {
        let node = circuit.node(id);
        let f = match node.kind() {
            GateKind::Input => continue,
            GateKind::Const0 => m.zero(),
            GateKind::Const1 => m.one(),
            GateKind::Buf => fns[node.fanins()[0].index()],
            GateKind::Not => m.not(fns[node.fanins()[0].index()])?,
            GateKind::Mux => {
                let sel = fns[node.fanins()[0].index()];
                let d0 = fns[node.fanins()[1].index()];
                let d1 = fns[node.fanins()[2].index()];
                m.ite(sel, d1, d0)?
            }
            kind => {
                let mut acc = fns[node.fanins()[0].index()];
                for f in &node.fanins()[1..] {
                    let g = fns[f.index()];
                    acc = match kind {
                        GateKind::And | GateKind::Nand => m.and(acc, g)?,
                        GateKind::Or | GateKind::Nor => m.or(acc, g)?,
                        GateKind::Xor | GateKind::Xnor => m.xor(acc, g)?,
                        _ => unreachable!("n-ary kinds only"),
                    };
                }
                match kind {
                    GateKind::Nand | GateKind::Nor | GateKind::Xnor => m.not(acc)?,
                    _ => acc,
                }
            }
        };
        fns[id.index()] = f;
    }
    Ok(fns)
}

/// Extracts one satisfying assignment of a non-zero BDD by greedy descent.
fn bdd_witness(m: &BddManager, mut f: Bdd, num_vars: usize) -> Vec<bool> {
    let mut assign = vec![false; num_vars];
    while !m.is_const(f) {
        let v = m.root_var(f).expect("non-const node has a root var") as usize;
        if m.high(f) != m.zero() {
            assign[v] = true;
            f = m.high(f);
        } else {
            f = m.low(f);
        }
    }
    assign
}

impl Oracle for BddOracle {
    fn name(&self) -> &str {
        "bdd"
    }

    fn check_all(
        &mut self,
        implementation: &Circuit,
        spec: &Circuit,
        map: &PortMap,
    ) -> Result<Vec<Verdict>, FuzzError> {
        let n = implementation.num_inputs();
        let unknowns = vec![Verdict::Unknown; map.pairs.len()];
        let mut m = BddManager::with_node_limit(self.node_limit);
        let impl_vars: Vec<Bdd> = (0..n).map(|i| m.var(i as u32)).collect();
        let spec_vars: Vec<Bdd> = map.impl_pos_of_spec.iter().map(|&p| impl_vars[p]).collect();
        let impl_fns = match circuit_bdds(&mut m, implementation, &impl_vars) {
            Ok(f) => f,
            Err(_) => return Ok(unknowns),
        };
        let spec_fns = match circuit_bdds(&mut m, spec, &spec_vars) {
            Ok(f) => f,
            Err(_) => return Ok(unknowns),
        };
        let mut verdicts = Vec::with_capacity(map.pairs.len());
        for pair in &map.pairs {
            let a = impl_fns[implementation.outputs()[pair.impl_index].net().index()];
            let b = spec_fns[spec.outputs()[pair.spec_index].net().index()];
            let verdict = match m.xor(a, b) {
                Ok(d) if d == m.zero() => Verdict::Equivalent,
                Ok(d) => Verdict::Different(bdd_witness(&m, d, n)),
                Err(_) => Verdict::Unknown,
            };
            verdicts.push(verdict);
        }
        Ok(verdicts)
    }
}

// ---------------------------------------------------------------------
// Cross-checking
// ---------------------------------------------------------------------

/// One detected conformance violation.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Which check fired, e.g. `oracle:sim-vs-sat` or `witness:bdd`.
    pub check: String,
    /// The output the violation concerns, when output-local.
    pub output: Option<String>,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.output {
            Some(o) => write!(f, "[{}] output {o:?}: {}", self.check, self.detail),
            None => write!(f, "[{}] {}", self.check, self.detail),
        }
    }
}

fn render_witness(witness: &[bool]) -> String {
    witness.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Cross-checks named per-pair verdicts from several oracles.
///
/// Two properties are enforced per output pair:
///
/// 1. every `Different` witness actually distinguishes the circuits under
///    concrete [`Circuit::eval`] (otherwise the oracle fabricated a
///    counterexample), and
/// 2. no oracle answers `Equivalent` while another answers `Different`
///    with a *validated* witness. `Unknown` is compatible with everything.
pub fn cross_check_oracles(
    implementation: &Circuit,
    spec: &Circuit,
    map: &PortMap,
    named: &[(String, Vec<Verdict>)],
) -> Vec<Disagreement> {
    let mut out = Vec::new();
    for (k, pair) in map.pairs.iter().enumerate() {
        // Validate witnesses first; invalid ones are excluded from the
        // pairwise comparison (they are already reported on their own).
        let mut validated: Vec<(&str, &Verdict)> = Vec::new();
        for (name, verdicts) in named {
            let v = &verdicts[k];
            if let Verdict::Different(witness) = v {
                let iv = implementation
                    .eval(witness)
                    .map(|o| o[pair.impl_index])
                    .ok();
                let sv = spec
                    .eval(&map.spec_assignment(witness))
                    .map(|o| o[pair.spec_index])
                    .ok();
                match (iv, sv) {
                    (Some(a), Some(b)) if a != b => validated.push((name, v)),
                    _ => out.push(Disagreement {
                        check: format!("witness:{name}"),
                        output: Some(pair.name.clone()),
                        detail: format!(
                            "witness {} does not distinguish the pair",
                            render_witness(witness)
                        ),
                    }),
                }
            } else {
                validated.push((name, v));
            }
        }
        for (i, (na, va)) in validated.iter().enumerate() {
            for (nb, vb) in &validated[i + 1..] {
                let conflict = matches!(
                    (va, vb),
                    (Verdict::Equivalent, Verdict::Different(_))
                        | (Verdict::Different(_), Verdict::Equivalent)
                );
                if conflict {
                    out.push(Disagreement {
                        check: format!("oracle:{na}-vs-{nb}"),
                        output: Some(pair.name.clone()),
                        detail: format!("{na}={} but {nb}={}", va.label(), vb.label()),
                    });
                }
            }
        }
    }
    out
}

/// Runs the three netlist-level oracles (simulation, SAT, BDD) on a pair
/// and returns every cross-oracle disagreement.
///
/// This is the predicate the shrinker and the `replay` CLI use; the full
/// pipeline-level conformance check (rectify determinism, cache replay)
/// lives in `syseco::fuzz`.
///
/// # Errors
///
/// [`FuzzError::PortMismatch`] for incompatible pairs and infrastructure
/// errors from the oracles.
pub fn check_conformance(
    implementation: &Circuit,
    spec: &Circuit,
    seed: u64,
) -> Result<Vec<Disagreement>, FuzzError> {
    let map = port_map(implementation, spec)?;
    let mut oracles: Vec<Box<dyn Oracle>> = vec![
        Box::new(SimOracle {
            seed,
            ..SimOracle::default()
        }),
        Box::new(SatOracle {
            assist: true,
            seed,
            ..SatOracle::default()
        }),
        Box::<BddOracle>::default(),
    ];
    let mut named = Vec::with_capacity(oracles.len());
    for oracle in &mut oracles {
        let verdicts = oracle.check_all(implementation, spec, &map)?;
        named.push((oracle.name().to_string(), verdicts));
    }
    Ok(cross_check_oracles(implementation, spec, &map, &named))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(flip: bool) -> (Circuit, Circuit) {
        let mut a = Circuit::new("impl");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let z = a.add_input("z");
        let g1 = a.add_gate(GateKind::And, &[x, y]).unwrap();
        let g2 = a.add_gate(GateKind::Or, &[g1, z]).unwrap();
        let g3 = a.add_gate(GateKind::Xor, &[g1, z]).unwrap();
        a.add_output("o1", g2);
        a.add_output("o2", g3);

        let mut b = Circuit::new("spec");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let z = b.add_input("z");
        // De Morgan re-expression of o1; o2 copied or (when flip) broken.
        let nx = b.add_gate(GateKind::Not, &[x]).unwrap();
        let ny = b.add_gate(GateKind::Not, &[y]).unwrap();
        let nz = b.add_gate(GateKind::Not, &[z]).unwrap();
        // ¬(x∧y) = ¬x ∨ ¬y, then (x∧y)∨z = ¬(¬(x∧y) ∧ ¬z).
        let na = b.add_gate(GateKind::Or, &[nx, ny]).unwrap();
        let o1 = b.add_gate(GateKind::Nand, &[na, nz]).unwrap();
        let g1 = b.add_gate(GateKind::And, &[x, y]).unwrap();
        let kind = if flip { GateKind::Xnor } else { GateKind::Xor };
        let o2 = b.add_gate(kind, &[g1, z]).unwrap();
        b.add_output("o1", o1);
        b.add_output("o2", o2);
        (a, b)
    }

    fn oracles(seed: u64) -> Vec<Box<dyn Oracle>> {
        vec![
            Box::new(SimOracle {
                seed,
                ..SimOracle::default()
            }),
            Box::new(SatOracle::default()),
            Box::new(SatOracle {
                assist: true,
                ..SatOracle::default()
            }),
            Box::<BddOracle>::default(),
        ]
    }

    #[test]
    fn all_oracles_prove_equivalent_pair() {
        let (a, b) = pair(false);
        let map = port_map(&a, &b).unwrap();
        for mut oracle in oracles(1) {
            let verdicts = oracle.check_all(&a, &b, &map).unwrap();
            assert_eq!(
                verdicts,
                vec![Verdict::Equivalent; 2],
                "oracle {}",
                oracle.name()
            );
        }
    }

    #[test]
    fn all_oracles_find_the_flip_with_valid_witnesses() {
        let (a, b) = pair(true);
        let map = port_map(&a, &b).unwrap();
        for mut oracle in oracles(2) {
            let verdicts = oracle.check_all(&a, &b, &map).unwrap();
            assert_eq!(verdicts[0], Verdict::Equivalent, "oracle {}", oracle.name());
            let Verdict::Different(witness) = &verdicts[1] else {
                panic!("oracle {} missed the flipped output", oracle.name());
            };
            let iv = a.eval(witness).unwrap()[1];
            let sv = b.eval(&map.spec_assignment(witness)).unwrap()[1];
            assert_ne!(iv, sv, "oracle {} returned a bogus witness", oracle.name());
        }
    }

    #[test]
    fn conformance_clean_on_both_pairs() {
        for flip in [false, true] {
            let (a, b) = pair(flip);
            let disagreements = check_conformance(&a, &b, 3).unwrap();
            assert!(disagreements.is_empty(), "flip={flip}: {disagreements:?}");
        }
    }

    #[test]
    fn cross_check_flags_conflicting_verdicts() {
        let (a, b) = pair(true);
        let map = port_map(&a, &b).unwrap();
        let honest = SimOracle::default().check_all(&a, &b, &map).unwrap();
        // A lying oracle claims the flipped output is equivalent.
        let lying = vec![Verdict::Equivalent, Verdict::Equivalent];
        let named = vec![("sim".to_string(), honest), ("liar".to_string(), lying)];
        let out = cross_check_oracles(&a, &b, &map, &named);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].check, "oracle:sim-vs-liar");
        assert_eq!(out[0].output.as_deref(), Some("o2"));
    }

    #[test]
    fn cross_check_flags_bogus_witness() {
        let (a, b) = pair(false); // actually equivalent
        let map = port_map(&a, &b).unwrap();
        let bogus = vec![
            Verdict::Different(vec![true, true, false]),
            Verdict::Equivalent,
        ];
        let named = vec![("liar".to_string(), bogus)];
        let out = cross_check_oracles(&a, &b, &map, &named);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].check, "witness:liar");
    }

    #[test]
    fn port_map_rejects_mismatches() {
        let (a, _) = pair(false);
        let mut c = Circuit::new("other");
        let q = c.add_input("q");
        c.add_output("o1", q);
        assert!(matches!(port_map(&a, &c), Err(FuzzError::PortMismatch(_))));
        let mut d = Circuit::new("short");
        let x = d.add_input("x");
        d.add_output("o1", x);
        assert!(matches!(port_map(&a, &d), Err(FuzzError::PortMismatch(_))));
    }

    #[test]
    fn sim_oracle_random_mode_reports_unknown_on_equivalence() {
        let (a, b) = pair(false);
        let map = port_map(&a, &b).unwrap();
        let mut oracle = SimOracle {
            exhaustive_limit: 1, // force random mode on 3 inputs
            random_blocks: 4,
            seed: 9,
        };
        let verdicts = oracle.check_all(&a, &b, &map).unwrap();
        assert_eq!(verdicts, vec![Verdict::Unknown; 2]);
    }
}
