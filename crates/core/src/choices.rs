//! Candidate rewiring choices (paper §4.4).
//!
//! With a point-set `(p_1, …, p_m)` fixed and candidate rewiring nets
//! `S_i = (s_i0, s_i1, …)` per point, choice variables `c_i` parameterize
//! the consistency relation
//!
//! ```text
//! R(x, y, c) = ⋀_i ⋀_j ( c_i^j → (y_i ≡ r_ij(x)) )
//! ```
//!
//! and Theorem 1's bounds `L = f' ∧ R`, `U = f' ∨ ¬R` give the
//! characteristic function of all valid rewire operations:
//!
//! ```text
//! Ξ(c) = ∀x, y ( (L ⇒ h) ∧ (h ⇒ U) )
//! ```
//!
//! computed here in the sampling domain (`x` overloaded by `g(z)`, Figure 3).

use std::collections::HashMap;

use eco_bdd::{Bdd, BddError, BddManager};
use eco_netlist::{Circuit, NetId, Pin};

use crate::rewire_nets::RewireCandidate;
use crate::sampling::eval_cone_bdd;

/// Variables of one binary-encoded block over `n` codes: `⌈log2 n⌉`, none
/// for a single code.
pub(crate) const fn block_bits(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Variable layout of the choice blocks `c = (c_1, …, c_m)`.
#[derive(Debug, Clone)]
pub struct ChoiceEncoding {
    blocks: Vec<(u32, u32, usize)>, // (base, bits, candidate count)
}

impl ChoiceEncoding {
    /// Lays out one block per point, sized `⌈log2 |S_i|⌉` bits, starting at
    /// variable `c_base`.
    pub fn new(c_base: u32, candidate_counts: &[usize]) -> Self {
        let mut blocks = Vec::with_capacity(candidate_counts.len());
        let mut base = c_base;
        for &count in candidate_counts {
            let bits = block_bits(count);
            blocks.push((base, bits, count));
            base += bits;
        }
        ChoiceEncoding { blocks }
    }

    /// Total `c` variables allocated.
    pub fn num_vars(&self) -> u32 {
        self.blocks.iter().map(|&(_, bits, _)| bits).sum()
    }

    /// All `c` variable indices.
    pub fn vars(&self) -> Vec<u32> {
        self.blocks
            .iter()
            .flat_map(|&(base, bits, _)| base..base + bits)
            .collect()
    }

    /// The minterm `c_i^j`.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the manager budget is exhausted.
    pub fn minterm(&self, m: &mut BddManager, block: usize, code: usize) -> Result<Bdd, BddError> {
        let (base, bits, _) = self.blocks[block];
        let mut cube = m.one();
        for b in 0..bits {
            let bit = (code >> (bits - 1 - b)) & 1 == 1;
            let var = base + b;
            let lit = if bit { m.var(var) } else { m.nvar(var) };
            cube = m.and(cube, lit)?;
        }
        Ok(cube)
    }

    /// Decodes the choice of block `i` from a satisfying cube of `Ξ(c)`:
    /// the smallest in-range code consistent with the cube's literals.
    pub fn decode_block(&self, cube: &eco_bdd::Cube, block: usize) -> usize {
        let (base, bits, count) = self.blocks[block];
        'code: for code in 0..count.max(1) {
            for b in 0..bits {
                let bit = (code >> (bits - 1 - b)) & 1 == 1;
                if let Some(phase) = cube.phase(base + b) {
                    if phase != bit {
                        continue 'code;
                    }
                }
            }
            return code;
        }
        0
    }
}

/// The functions `r_ij(z)` of every candidate, read from precomputed net
/// values over the sampling domain.
pub fn candidate_function(cand: &RewireCandidate, impl_vals: &[Bdd], spec_vals: &[Bdd]) -> Bdd {
    if cand.from_spec {
        spec_vals[cand.net.index()]
    } else {
        impl_vals[cand.net.index()]
    }
}

/// Computes `Ξ(c)` for one point-set and decodes up to `max_choices`
/// satisfying assignments into candidate-index vectors (one index per
/// point).
///
/// `impl_vals` / `spec_vals` are the z-domain values of every net (from
/// [`crate::sampling::eval_all_bdd`]); `fprime` is the revised output over
/// `z`; `y_base` is the first rectification-input variable; `z_vars` the
/// sampling block.
///
/// # Errors
///
/// [`BddError::NodeLimit`] when the manager budget is exhausted.
#[allow(clippy::too_many_arguments)]
pub fn find_choices(
    implementation: &Circuit,
    m: &mut BddManager,
    input_fns: &[Bdd],
    impl_vals: &[Bdd],
    spec_vals: &[Bdd],
    fprime: Bdd,
    root: NetId,
    output_index: u32,
    points: &[Pin],
    candidates: &[Vec<RewireCandidate>],
    y_base: u32,
    c_base: u32,
    z_vars: &[u32],
    max_choices: usize,
) -> Result<Vec<Vec<usize>>, BddError> {
    debug_assert_eq!(points.len(), candidates.len());
    let encoding =
        ChoiceEncoding::new(c_base, &candidates.iter().map(Vec::len).collect::<Vec<_>>());

    // h(z, y): the composition function with the selected pins freed.
    let mut pin_subst: HashMap<Pin, usize> = HashMap::new();
    let mut output_point: Option<usize> = None;
    for (i, &p) in points.iter().enumerate() {
        match p {
            Pin::Gate { .. } => {
                pin_subst.insert(p, i);
            }
            Pin::Output { index } if index == output_index => output_point = Some(i),
            Pin::Output { .. } => {}
        }
    }
    let mut subst = |mgr: &mut BddManager, i: usize, _orig: Bdd| -> Result<Bdd, BddError> {
        Ok(mgr.var(y_base + i as u32))
    };
    let mut h = eval_cone_bdd(implementation, m, input_fns, root, &pin_subst, &mut subst)?;
    if let Some(i) = output_point {
        // The output itself is the rectification point: the composition
        // function is the free input directly.
        h = m.var(y_base + i as u32);
    }

    // R(z, y, c) and the in-range validity constraint V(c).
    let mut big_r = m.one();
    let mut validity = m.one();
    for (i, cands) in candidates.iter().enumerate() {
        let y = m.var(y_base + i as u32);
        let mut any = m.zero();
        for (j, cand) in cands.iter().enumerate() {
            let cij = encoding.minterm(m, i, j)?;
            any = m.or(any, cij)?;
            let r = candidate_function(cand, impl_vals, spec_vals);
            let consistent = m.iff(y, r)?;
            let ncij = m.not(cij)?;
            let imp = m.or(ncij, consistent)?;
            big_r = m.and(big_r, imp)?;
        }
        validity = m.and(validity, any)?;
    }

    // Theorem 1: L ⇒ h and h ⇒ U.
    let l = m.and(fprime, big_r)?;
    let not_r = m.not(big_r)?;
    let u = m.or(fprime, not_r)?;
    let lh = m.implies(l, h)?;
    let hu = m.implies(h, u)?;
    let body = m.and(lh, hu)?;

    // Ξ(c) = ∀z,y body, restricted to in-range choices.
    let y_vars: Vec<u32> = (0..points.len()).map(|i| y_base + i as u32).collect();
    let mut quant_vars = z_vars.to_vec();
    quant_vars.extend(&y_vars);
    let cube = m.var_cube(&quant_vars)?;
    let xi = m.forall(body, cube)?;
    let xi = m.and(xi, validity)?;

    if xi == m.zero() {
        return Ok(Vec::new());
    }

    // Decode satisfying cubes into candidate-index vectors.
    let cubes = m.sat_cubes(xi, max_choices.saturating_mul(4).max(8));
    let mut out: Vec<Vec<usize>> = Vec::new();
    for cube in &cubes {
        let decoded: Vec<usize> = (0..points.len())
            .map(|i| encoding.decode_block(cube, i))
            .collect();
        if !out.contains(&decoded) {
            out.push(decoded);
            if out.len() >= max_choices {
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{eval_all_bdd, SamplingDomain};
    use eco_netlist::GateKind;

    #[test]
    fn encoding_layout() {
        let e = ChoiceEncoding::new(10, &[3, 1, 5]);
        assert_eq!(e.num_vars(), 2 + 3);
        assert_eq!(e.vars(), vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn minterms_partition() {
        let mut m = BddManager::new();
        let e = ChoiceEncoding::new(0, &[3]);
        let mut union = m.zero();
        for j in 0..3 {
            let c = e.minterm(&mut m, 0, j).unwrap();
            union = m.or(union, c).unwrap();
        }
        // Code 3 (out of range) is the only uncovered one with 2 bits.
        let c3 = e.minterm(&mut m, 0, 3).unwrap();
        let all = m.or(union, c3).unwrap();
        assert_eq!(all, m.one());
    }

    #[test]
    fn single_candidate_block_has_no_vars() {
        let mut m = BddManager::new();
        let e = ChoiceEncoding::new(0, &[1]);
        assert_eq!(e.num_vars(), 0);
        assert_eq!(e.minterm(&mut m, 0, 0).unwrap(), m.one());
    }

    /// and-vs-or at the output pin: rewiring the output to the spec's OR
    /// net (cloned) must be found as a valid choice; the trivial candidate
    /// (keeping the AND) must not.
    #[test]
    fn output_rewire_choice_found() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sg = s.add_gate(GateKind::Or, &[sa, sb]).unwrap();
        s.add_output("y", sg);

        let mut m = BddManager::new();
        // Layout: c block (2 cands -> 1 bit) at 0, y at 4, z from 5.
        let samples = vec![vec![true, false], vec![false, true]];
        let dom = SamplingDomain::new(samples, 5).unwrap();
        let gfun = dom.input_functions(&mut m, 2).unwrap();
        let impl_vals = eval_all_bdd(&c, &mut m, &gfun).unwrap();
        let spec_vals = eval_all_bdd(&s, &mut m, &gfun).unwrap();
        let fprime = spec_vals[sg.index()];

        let points = vec![Pin::output(0)];
        let cands = vec![vec![
            RewireCandidate {
                net: g,
                from_spec: false,
                utility: 0.0,
                arrival: 0.0,
            },
            RewireCandidate {
                net: sg,
                from_spec: true,
                utility: 1.0,
                arrival: 0.0,
            },
        ]];
        let choices = find_choices(
            &c,
            &mut m,
            &gfun,
            &impl_vals,
            &spec_vals,
            fprime,
            g,
            0,
            &points,
            &cands,
            4,
            0,
            &dom.z_vars(),
            8,
        )
        .unwrap();
        assert_eq!(choices, vec![vec![1]], "only the spec OR net rectifies");
    }

    /// Figure-1 flavour: y = (a & s0) | (b & s1); the revision replaces s0
    /// by NOT s1 — rewiring the single pin carrying s0 to the existing
    /// NOT(s1) net must be a valid choice.
    #[test]
    fn gate_pin_rewire_choice_found() {
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
        c.add_output("aux", ns1); // keeps ns1 alive and observable

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

        let mut m = BddManager::new();
        // Error samples: need patterns where s0 != !s1 and a = 1 matters.
        let samples = vec![
            vec![true, false, true, true],   // a=1, s0=1, s1=1: impl 1, spec 0
            vec![true, false, false, false], // a=1, s0=0, s1=0: impl 0, spec 1
        ];
        let dom = SamplingDomain::new(samples, 16).unwrap();
        let gfun = dom.input_functions(&mut m, 4).unwrap();
        let impl_vals = eval_all_bdd(&c, &mut m, &gfun).unwrap();
        let spec_vals = eval_all_bdd(&s, &mut m, &gfun).unwrap();
        let fprime = spec_vals[sy.index()];

        // Point: pin 1 of t1 (currently s0). Candidates: trivial, ns1, s1.
        let pin = Pin::gate(t1.source(), 1);
        let points = vec![pin];
        let cands = vec![vec![
            RewireCandidate {
                net: s0,
                from_spec: false,
                utility: 0.0,
                arrival: 0.0,
            },
            RewireCandidate {
                net: ns1,
                from_spec: false,
                utility: 1.0,
                arrival: 0.0,
            },
            RewireCandidate {
                net: s1,
                from_spec: false,
                utility: 0.5,
                arrival: 0.0,
            },
        ]];
        let choices = find_choices(
            &c,
            &mut m,
            &gfun,
            &impl_vals,
            &spec_vals,
            fprime,
            y,
            0,
            &points,
            &cands,
            12,
            0,
            &dom.z_vars(),
            8,
        )
        .unwrap();
        assert!(
            choices.contains(&vec![1]),
            "rewiring to NOT(s1) rectifies: {choices:?}"
        );
        assert!(
            !choices.contains(&vec![0]),
            "keeping s0 does not rectify: {choices:?}"
        );
    }
}
