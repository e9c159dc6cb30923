//! The symbolic sampling domain (paper §5.1).
//!
//! A sampling domain is a set of `N` input assignments `{x̂_1, …, x̂_N}`. A
//! block of `⌈log2 N⌉` fresh variables `z` encodes them; the *sampling
//! function* `g = (g_1, …, g_n)` maps codes to assignments and is exactly
//! the matrix product of §5.1: `g_i(z) = ⋁_{k : x̂_k[i] = 1} z^k`. Circuit
//! inputs are overloaded with `g(z)`, casting every Boolean computation of
//! §4 from the exact domain of `x` into the (much smaller) domain of `z`.

use eco_bdd::{Bdd, BddError, BddManager};
use eco_netlist::{topo, Circuit, GateKind, NetId, Pin};
use std::collections::HashMap;

use crate::EcoError;

/// A sampling domain: the sample matrix plus its `z`-variable block.
#[derive(Debug, Clone)]
pub struct SamplingDomain {
    samples: Vec<Vec<bool>>,
    z_base: u32,
}

impl SamplingDomain {
    /// Creates a domain over `samples` (implementation input order), with
    /// `z` variables allocated starting at BDD variable index `z_base`.
    ///
    /// # Errors
    ///
    /// [`EcoError::EmptySamplingDomain`] when `samples` is empty — an empty
    /// domain quantifies over nothing and would make every rectification
    /// vacuously feasible. A domain is therefore never empty: `len() > 0`
    /// always holds.
    pub fn new(samples: Vec<Vec<bool>>, z_base: u32) -> Result<Self, EcoError> {
        if samples.is_empty() {
            return Err(EcoError::EmptySamplingDomain);
        }
        Ok(SamplingDomain { samples, z_base })
    }

    /// The sampled assignments.
    pub fn samples(&self) -> &[Vec<bool>] {
        &self.samples
    }

    /// Number of samples `N` (always at least 1).
    #[allow(clippy::len_without_is_empty)] // empty domains are unconstructible
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Number of `z` variables: `⌈log2 N⌉`, at least 1.
    pub fn num_z_vars(&self) -> u32 {
        let n = self.samples.len().max(2);
        usize::BITS - (n - 1).leading_zeros()
    }

    /// The `z` variable indices of this domain.
    pub fn z_vars(&self) -> Vec<u32> {
        (self.z_base..self.z_base + self.num_z_vars()).collect()
    }

    /// Adds a counterexample sample (domain refinement, §5.2 step 5).
    pub fn add_sample(&mut self, sample: Vec<bool>) {
        self.samples.push(sample);
    }

    /// The sample selected by code `k`; out-of-range codes alias sample
    /// `k mod N`, keeping the padded code space consistent.
    pub fn sample_for_code(&self, k: usize) -> &[bool] {
        &self.samples[k % self.samples.len()]
    }

    /// Builds the minterm `z^k` ("big-endian" bit order as in §4.1).
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the manager budget is exhausted.
    pub fn minterm(&self, m: &mut BddManager, k: usize) -> Result<Bdd, BddError> {
        let bits = self.num_z_vars();
        let mut cube = m.one();
        for b in 0..bits {
            // Bit 0 of the code maps to the last variable of the block.
            let var = self.z_base + b;
            let bit = (k >> (bits - 1 - b)) & 1 == 1;
            let lit = if bit { m.var(var) } else { m.nvar(var) };
            cube = m.and(cube, lit)?;
        }
        Ok(cube)
    }

    /// Builds the sampling functions `g_1(z), …, g_n(z)` for a circuit with
    /// `num_inputs` primary inputs — the matrix product of §5.1. The padded
    /// code space (codes ≥ N) aliases existing samples so quantification
    /// over `z` ranges exactly over the domain.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the manager budget is exhausted.
    pub fn input_functions(
        &self,
        m: &mut BddManager,
        num_inputs: usize,
    ) -> Result<Vec<Bdd>, BddError> {
        let codes = 1usize << self.num_z_vars();
        let mut g = vec![m.zero(); num_inputs];
        for k in 0..codes {
            let sample = self.sample_for_code(k);
            let cube = self.minterm(m, k)?;
            for (i, gi) in g.iter_mut().enumerate() {
                if sample.get(i).copied().unwrap_or(false) {
                    *gi = m.or(*gi, cube)?;
                }
            }
        }
        Ok(g)
    }
}

/// Evaluates every live net of `circuit` as a BDD, with primary input `i`
/// overloaded by `input_fns[i]` (typically the sampling functions `g(z)`).
///
/// Returns one BDD per net, indexed by net.
///
/// # Errors
///
/// [`BddError::NodeLimit`] when the manager budget is exhausted.
///
/// # Panics
///
/// Panics on cyclic circuits (well-formedness is established by the engine
/// before any domain computation).
pub fn eval_all_bdd(
    circuit: &Circuit,
    m: &mut BddManager,
    input_fns: &[Bdd],
) -> Result<Vec<Bdd>, BddError> {
    let order = topo::topo_order(circuit).expect("engine guarantees acyclic circuits");
    let mut values = vec![m.zero(); circuit.num_nodes()];
    for id in order {
        let node = circuit.node(id);
        values[id.index()] = match node.kind() {
            GateKind::Input => {
                let pos = circuit
                    .input_position(id)
                    .expect("input node is registered");
                input_fns[pos]
            }
            kind => {
                let fanins: Vec<Bdd> = node.fanins().iter().map(|f| values[f.index()]).collect();
                apply_gate_bdd(m, kind, &fanins)?
            }
        };
    }
    Ok(values)
}

/// Evaluates the cone of `root` as a BDD with per-pin substitution.
///
/// `pin_subst` maps pins (gate fanin positions within the cone, or the
/// root's producing position via the caller) to *candidate indices*; for a
/// substituted pin, `subst(m, index, original_value)` provides the value
/// seen by the consuming gate. This is the workhorse behind both the
/// MUX-parameterized `h(z, y, t)` of §4.2 and the free-input `h(z, y)` of
/// §4.4.
///
/// # Errors
///
/// [`BddError::NodeLimit`] when the manager budget is exhausted.
///
/// # Panics
///
/// Panics on cyclic circuits.
pub fn eval_cone_bdd(
    circuit: &Circuit,
    m: &mut BddManager,
    input_fns: &[Bdd],
    root: NetId,
    pin_subst: &HashMap<Pin, usize>,
    subst: &mut dyn FnMut(&mut BddManager, usize, Bdd) -> Result<Bdd, BddError>,
) -> Result<Bdd, BddError> {
    let order = topo::topo_order(circuit).expect("engine guarantees acyclic circuits");
    let in_cone = topo::tfi(circuit, &[root.source()]);
    let mut values: Vec<Option<Bdd>> = vec![None; circuit.num_nodes()];
    for id in order {
        if !in_cone[id.index()] {
            continue;
        }
        let node = circuit.node(id);
        let v = match node.kind() {
            GateKind::Input => {
                let pos = circuit
                    .input_position(id)
                    .expect("input node is registered");
                input_fns[pos]
            }
            kind => {
                let mut fanins: Vec<Bdd> = Vec::with_capacity(node.fanins().len());
                for (pos, f) in node.fanins().iter().enumerate() {
                    let orig = values[f.index()].expect("topological order");
                    let pin = Pin::gate(id, pos as u8);
                    let v = match pin_subst.get(&pin) {
                        Some(&idx) => subst(m, idx, orig)?,
                        None => orig,
                    };
                    fanins.push(v);
                }
                apply_gate_bdd(m, kind, &fanins)?
            }
        };
        values[id.index()] = Some(v);
    }
    Ok(values[root.index()].expect("root is in its own cone"))
}

/// Applies one gate's Boolean operation over BDD operands.
///
/// # Errors
///
/// [`BddError::NodeLimit`] when the manager budget is exhausted.
pub fn apply_gate_bdd(m: &mut BddManager, kind: GateKind, fanins: &[Bdd]) -> Result<Bdd, BddError> {
    Ok(match kind {
        GateKind::Input => unreachable!("inputs handled by the evaluator"),
        GateKind::Const0 => m.zero(),
        GateKind::Const1 => m.one(),
        GateKind::Buf => fanins[0],
        GateKind::Not => m.not(fanins[0])?,
        GateKind::And | GateKind::Nand => {
            let mut acc = m.one();
            for &f in fanins {
                acc = m.and(acc, f)?;
            }
            if kind == GateKind::Nand {
                m.not(acc)?
            } else {
                acc
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut acc = m.zero();
            for &f in fanins {
                acc = m.or(acc, f)?;
            }
            if kind == GateKind::Nor {
                m.not(acc)?
            } else {
                acc
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = m.zero();
            for &f in fanins {
                acc = m.xor(acc, f)?;
            }
            if kind == GateKind::Xnor {
                m.not(acc)?
            } else {
                acc
            }
        }
        GateKind::Mux => m.ite(fanins[0], fanins[2], fanins[1])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::{Circuit, GateKind};

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Mux, &[d, g1, a]).unwrap();
        c.add_output("y", g2);
        c
    }

    /// Decodes: evaluating the net BDD at code k must equal simulating the
    /// circuit on sample k.
    #[test]
    fn overloaded_evaluation_matches_simulation() {
        let c = sample_circuit();
        let samples = vec![
            vec![false, true, false],
            vec![true, true, true],
            vec![true, false, false],
        ];
        let dom = SamplingDomain::new(samples.clone(), 0).unwrap();
        let mut m = BddManager::new();
        let g = dom.input_functions(&mut m, 3).unwrap();
        let vals = eval_all_bdd(&c, &mut m, &g).unwrap();
        let bits = dom.num_z_vars();
        for (k, s) in samples.iter().enumerate() {
            // Assignment to z encoding code k (big-endian block).
            let mut assign = vec![false; (dom.z_vars().last().unwrap() + 1) as usize];
            for b in 0..bits {
                assign[b as usize] = (k >> (bits - 1 - b)) & 1 == 1;
            }
            let expect = c.eval_nets(s).unwrap();
            for id in c.iter_live() {
                let net: NetId = id.into();
                if c.node(id).kind() == GateKind::Input {
                    continue;
                }
                assert_eq!(
                    m.eval(vals[net.index()], &assign),
                    expect[net.index()],
                    "net {net} at code {k}"
                );
            }
        }
    }

    #[test]
    fn padding_aliases_samples() {
        // Three samples in a 4-code space: code 3 aliases sample 0.
        let samples = vec![vec![true], vec![false], vec![true]];
        let dom = SamplingDomain::new(samples, 0).unwrap();
        assert_eq!(dom.num_z_vars(), 2);
        assert_eq!(dom.sample_for_code(3), &[true][..]);
        let mut m = BddManager::new();
        let g = dom.input_functions(&mut m, 1).unwrap();
        // g_0 true at codes 0, 2, 3 (samples true, -, true, alias of 0).
        assert!(m.eval(g[0], &[false, false]));
        assert!(!m.eval(g[0], &[false, true]));
        assert!(m.eval(g[0], &[true, false]));
        assert!(m.eval(g[0], &[true, true]));
    }

    #[test]
    fn add_sample_grows_z_block() {
        let mut dom = SamplingDomain::new(vec![vec![true], vec![false]], 5).unwrap();
        assert_eq!(dom.num_z_vars(), 1);
        dom.add_sample(vec![true]);
        assert_eq!(dom.num_z_vars(), 2);
        assert_eq!(dom.z_vars(), vec![5, 6]);
    }

    #[test]
    fn cone_substitution_replaces_pin_value() {
        // y = AND(a, b); substitute pin (AND, 1) with constant true:
        // cone evaluates to a.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        let dom = SamplingDomain::new(vec![vec![false, false], vec![true, false]], 0).unwrap();
        let mut m = BddManager::new();
        let gfun = dom.input_functions(&mut m, 2).unwrap();
        let mut subst_map = HashMap::new();
        subst_map.insert(Pin::gate(g.source(), 1), 0usize);
        let one = m.one();
        let h = eval_cone_bdd(&c, &mut m, &gfun, g, &subst_map, &mut |_, _, _| Ok(one)).unwrap();
        // h(z) = g_a(z): false at code 0, true at code 1.
        assert!(!m.eval(h, &[false]));
        assert!(m.eval(h, &[true]));
    }

    #[test]
    fn empty_domain_rejected() {
        assert!(matches!(
            SamplingDomain::new(vec![], 0),
            Err(crate::EcoError::EmptySamplingDomain)
        ));
    }
}
