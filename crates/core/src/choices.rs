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
//! computed here in the sampling domain (`x` overloaded by `g(z)`, Figure
//! 3), where a function of `z` is nothing but its values on the samples.
//! At a fixed in-range `c`, `R` holds only where every `y_i` equals its
//! chosen candidate `r_i`, and there `L = U = f'`; so `Ξ(c)` holds exactly
//! when, on every sample, the cone with each point driven by its candidate
//! equals `f'`. [`find_choices`] checks that for every in-range `c` on the
//! search attempt's simulated words, then decodes `Ξ` the way a BDD path
//! enumeration would. The BDD construction stays in the test module as
//! the differential oracle.

use crate::rewire_nets::{RewireCandidate, RewireNetContext};

/// Variables of one binary-encoded block over `n` codes: `⌈log2 n⌉`, none
/// for a single code.
pub(crate) const fn block_bits(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Decodes up to `max_choices` valid rewiring choices of one point-set
/// into candidate-index vectors, one index per point.
///
/// `matches` holds the point-set's match words, as
/// [`MinimalSets::match_words`](crate::points::MinimalSets::match_words)
/// returns them; `candidates[i]` lists point `i`'s candidates, whose values
/// on the samples `ctx` holds.
///
/// `c` encodes point `i`'s candidate index in a block of `⌈log2 |S_i|⌉`
/// variables, most significant bit first, block 0 first. Each valid
/// in-range `c` sets its entry of `Ξ`'s truth table over that code space
/// (4,096 entries at most under the engine's fixed caps). The result lists the least member of each path cube of `Ξ`'s reduced
/// ordered diagram in that variable order, low branch first: the choices a
/// BDD path enumeration decodes to.
pub fn find_choices(
    matches: &[Vec<u64>],
    ctx: &RewireNetContext,
    candidates: &[Vec<RewireCandidate>],
    max_choices: usize,
) -> Vec<Vec<usize>> {
    let bits: Vec<u32> = candidates.iter().map(|c| block_bits(c.len())).collect();
    // Block 0's code is the most significant.
    let decode = |mut code: usize| -> Vec<usize> {
        let mut choice = vec![0; bits.len()];
        for (j, &b) in choice.iter_mut().zip(&bits).rev() {
            *j = code & ((1 << b) - 1);
            code >>= b;
        }
        choice
    };
    let width: u32 = bits.iter().sum();
    let xi: Vec<bool> = (0..1usize << width)
        .map(|code| {
            let choice = decode(code);
            choice.iter().zip(candidates).all(|(&j, c)| j < c.len())
                && rectifies(matches, ctx, candidates, &choice)
        })
        .collect();
    let mut least = Vec::new();
    path_cubes(&xi, 0, max_choices, &mut least);
    least.into_iter().map(decode).collect()
}

/// Theorem 1 with `c` fixed: on every sample, the chosen candidates'
/// values select a value `v` of the freed points whose match bit is set.
fn rectifies(
    matches: &[Vec<u64>],
    ctx: &RewireNetContext,
    candidates: &[Vec<RewireCandidate>],
    choice: &[usize],
) -> bool {
    matches.iter().enumerate().all(|(k, row)| {
        let word = |i: usize| {
            let cand = &candidates[i][choice[i]];
            let words = if cand.from_spec {
                &ctx.spec_words
            } else {
                &ctx.impl_words
            };
            words.blocks()[k][cand.net.index()]
        };
        let ok = row.iter().enumerate().fold(0u64, |ok, (v, &hit)| {
            ok | (0..choice.len()).fold(hit, |sel, i| {
                sel & if (v >> i) & 1 == 1 { word(i) } else { !word(i) }
            })
        });
        let mask = ctx.impl_words.mask(k);
        ok & mask == mask
    })
}

/// Appends to `out`, up to `max` entries, the least member of each path
/// cube of the reduced ordered diagram whose truth table is `table` (first
/// variable the most significant index bit, `offset` the table's first
/// index), in the order a walk visits them, low branch first. Equal halves
/// mean the function does not depend on the variable: no node, so the
/// walk skips it.
fn path_cubes(table: &[bool], offset: usize, max: usize, out: &mut Vec<usize>) {
    if out.len() >= max || !table.contains(&true) {
        return;
    }
    if !table.contains(&false) {
        out.push(offset);
        return;
    }
    let (low, high) = table.split_at(table.len() / 2);
    path_cubes(low, offset, max, out);
    if low != high {
        path_cubes(high, offset + low.len(), max, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use eco_bdd::{Bdd, BddError, BddManager};
    use eco_netlist::sim::Compiled;
    use eco_netlist::{topo, Circuit, GateKind, NetId, Pin};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use crate::correspond::Correspondence;
    use crate::points::{candidate_pins, MinimalSets};
    use crate::rewire_nets::candidates_for_pin;
    use crate::sampling::{apply_gate_bdd, eval_all_bdd};

    /// BDD variable layout of the oracle: choice blocks, rectification
    /// inputs, sampling block — the `c < y < z` order.
    const C_BASE: u32 = 0;
    const Y_BASE: u32 = 128;
    const Z_BASE: u32 = 140;

    /// Variable layout of the choice blocks `c = (c_1, …, c_m)`.
    struct ChoiceEncoding {
        blocks: Vec<(u32, u32, usize)>, // (base, bits, candidate count)
    }

    impl ChoiceEncoding {
        /// Lays out one block per point, sized `⌈log2 |S_i|⌉` bits,
        /// starting at variable `c_base`.
        fn new(c_base: u32, candidate_counts: &[usize]) -> Self {
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
        fn num_vars(&self) -> u32 {
            self.blocks.iter().map(|&(_, bits, _)| bits).sum()
        }

        /// All `c` variable indices.
        fn vars(&self) -> Vec<u32> {
            self.blocks
                .iter()
                .flat_map(|&(base, bits, _)| base..base + bits)
                .collect()
        }

        /// The minterm `c_i^j`.
        fn minterm(&self, m: &mut BddManager, block: usize, code: usize) -> Result<Bdd, BddError> {
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

        /// Decodes the choice of block `i` from a satisfying cube of
        /// `Ξ(c)`: the smallest in-range code consistent with the cube's
        /// literals.
        fn decode_block(&self, cube: &eco_bdd::Cube, block: usize) -> usize {
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

    /// Evaluates the cone of `root` as a BDD with primary input `i`
    /// overloaded by `input_fns[i]` and the gate pins of `pin_subst`
    /// driven by the rectification input `y` of their point.
    fn eval_cone_bdd(
        circuit: &Circuit,
        m: &mut BddManager,
        input_fns: &[Bdd],
        root: NetId,
        pin_subst: &HashMap<Pin, usize>,
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
                        let v = match pin_subst.get(&Pin::gate(id, pos as u8)) {
                            Some(&i) => m.var(Y_BASE + i as u32),
                            None => values[f.index()].expect("topological order"),
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

    /// `Ξ(c)` built as a BDD over the sampling domain and decoded through
    /// the diagram's satisfying cubes: the construction [`find_choices`]
    /// replaces, kept as its differential oracle.
    struct Oracle<'a> {
        implementation: &'a Circuit,
        m: BddManager,
        /// The sampling functions `g(z)`, one per implementation input.
        g: Vec<Bdd>,
        impl_vals: Vec<Bdd>,
        spec_vals: Vec<Bdd>,
        fprime: Bdd,
        z_vars: Vec<u32>,
    }

    impl<'a> Oracle<'a> {
        /// Overloads both circuits' inputs with the sampling functions of
        /// `samples`: `g_i(z) = ⋁_{k : x̂_k[i] = 1} z^k`, padded codes
        /// aliasing sample `k mod N`.
        fn new(
            implementation: &'a Circuit,
            spec: &Circuit,
            corr: &Correspondence,
            spec_root: NetId,
            samples: &[Vec<bool>],
        ) -> Self {
            let mut m = BddManager::new();
            let n = samples.len().max(2);
            let bits = usize::BITS - (n - 1).leading_zeros();
            let z_vars: Vec<u32> = (Z_BASE..Z_BASE + bits).collect();
            let mut g = vec![m.zero(); implementation.num_inputs()];
            for k in 0..1usize << bits {
                let mut cube = m.one();
                for (b, &var) in z_vars.iter().enumerate() {
                    let lit = if (k >> (bits as usize - 1 - b)) & 1 == 1 {
                        m.var(var)
                    } else {
                        m.nvar(var)
                    };
                    cube = m.and(cube, lit).unwrap();
                }
                for (gi, &bit) in g.iter_mut().zip(&samples[k % samples.len()]) {
                    if bit {
                        *gi = m.or(*gi, cube).unwrap();
                    }
                }
            }
            let mut g_spec = vec![m.zero(); spec.num_inputs()];
            for (pos, sp) in corr.spec_input_pos.iter().enumerate() {
                if let Some(sp) = sp {
                    g_spec[*sp] = g[pos];
                }
            }
            let impl_vals = eval_all_bdd(implementation, &mut m, &g).unwrap();
            let spec_vals = eval_all_bdd(spec, &mut m, &g_spec).unwrap();
            let fprime = spec_vals[spec_root.index()];
            Oracle {
                implementation,
                m,
                g,
                impl_vals,
                spec_vals,
                fprime,
                z_vars,
            }
        }

        /// `Ξ(c)` of the point-set `points` of output `output_index`,
        /// decoded into at most `max_choices` candidate-index vectors.
        fn choices(
            &mut self,
            output_index: u32,
            points: &[Pin],
            candidates: &[Vec<RewireCandidate>],
            max_choices: usize,
        ) -> Vec<Vec<usize>> {
            let m = &mut self.m;
            let root = self.implementation.outputs()[output_index as usize].net();
            let counts: Vec<usize> = candidates.iter().map(Vec::len).collect();
            let encoding = ChoiceEncoding::new(C_BASE, &counts);

            // h(z, y): the composition function with the selected pins
            // freed; the output pin, when selected, is `y` itself.
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
            let mut h = eval_cone_bdd(self.implementation, m, &self.g, root, &pin_subst).unwrap();
            if let Some(i) = output_point {
                h = m.var(Y_BASE + i as u32);
            }

            // R(z, y, c) and the in-range validity constraint V(c).
            let mut big_r = m.one();
            let mut validity = m.one();
            for (i, cands) in candidates.iter().enumerate() {
                let y = m.var(Y_BASE + i as u32);
                let mut any = m.zero();
                for (j, cand) in cands.iter().enumerate() {
                    let cij = encoding.minterm(m, i, j).unwrap();
                    any = m.or(any, cij).unwrap();
                    let vals = if cand.from_spec {
                        &self.spec_vals
                    } else {
                        &self.impl_vals
                    };
                    let consistent = m.iff(y, vals[cand.net.index()]).unwrap();
                    let ncij = m.not(cij).unwrap();
                    let imp = m.or(ncij, consistent).unwrap();
                    big_r = m.and(big_r, imp).unwrap();
                }
                validity = m.and(validity, any).unwrap();
            }

            // Theorem 1: Ξ(c) = ∀z,y (L ⇒ h) ∧ (h ⇒ U), in range.
            let l = m.and(self.fprime, big_r).unwrap();
            let not_r = m.not(big_r).unwrap();
            let u = m.or(self.fprime, not_r).unwrap();
            let lh = m.implies(l, h).unwrap();
            let hu = m.implies(h, u).unwrap();
            let body = m.and(lh, hu).unwrap();
            let mut quant_vars = self.z_vars.clone();
            quant_vars.extend((0..points.len()).map(|i| Y_BASE + i as u32));
            let cube = m.var_cube(&quant_vars).unwrap();
            let xi = m.forall(body, cube).unwrap();
            let xi = m.and(xi, validity).unwrap();

            let mut out: Vec<Vec<usize>> = Vec::new();
            for cube in &m.sat_cubes(xi, max_choices.saturating_mul(4).max(8)) {
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
            out
        }
    }

    /// An implementation and its revision with one output, the samples,
    /// and what a search attempt builds from them.
    struct Pair {
        implementation: Circuit,
        spec: Circuit,
        corr: Correspondence,
        samples: Vec<Vec<bool>>,
        sim: Compiled,
        ctx: RewireNetContext,
    }

    impl Pair {
        fn new(implementation: Circuit, spec: Circuit, samples: Vec<Vec<bool>>) -> Self {
            let corr = Correspondence::build(&implementation, &spec).unwrap();
            let sim = Compiled::new(&implementation).unwrap();
            let spec_sim = Compiled::new(&spec).unwrap();
            let spec_root = spec.outputs()[0].net();
            let ctx = RewireNetContext::build(&sim, &spec, &spec_sim, &corr, spec_root, &samples)
                .unwrap();
            Pair {
                implementation,
                spec,
                corr,
                samples,
                sim,
                ctx,
            }
        }

        /// A random cone and a revision of it. Below seed 70: 3–5 inputs
        /// and 4–12 samples (one partial block); from seed 70: 8–10 inputs
        /// and 65–130 samples (two or three blocks). Both circuits share
        /// their random gates, except that one to three of the revision's
        /// gates change kind, take another fanin, or take a new XOR of two
        /// inputs. Each sample is the first of up to eight random draws on
        /// which the two outputs differ, else the last draw.
        fn random(seed: u64) -> Self {
            let wide = seed >= 70;
            let mut rng = SmallRng::seed_from_u64(seed);
            let num_inputs = if wide {
                rng.gen_range(8..=10)
            } else {
                rng.gen_range(3..=5)
            };
            let num_gates = rng.gen_range(5..=12);
            let revised: Vec<usize> = (0..rng.gen_range(1..=3))
                .map(|_| rng.gen_range(0..num_gates))
                .collect();
            let kinds = [
                GateKind::And,
                GateKind::Or,
                GateKind::Xor,
                GateKind::Nand,
                GateKind::Nor,
                GateKind::Not,
            ];
            let mut c = Circuit::new("impl");
            let mut s = Circuit::new("spec");
            let mut nets: Vec<(NetId, NetId)> = (0..num_inputs)
                .map(|i| (c.add_input(format!("x{i}")), s.add_input(format!("x{i}"))))
                .collect();
            for g in 0..num_gates {
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let arity = if kind == GateKind::Not { 1 } else { 2 };
                let fanins: Vec<usize> = (0..arity).map(|_| rng.gen_range(0..nets.len())).collect();
                let mut spec_kind = kind;
                let ci: Vec<_> = fanins.iter().map(|&f| nets[f].0).collect();
                let mut si: Vec<_> = fanins.iter().map(|&f| nets[f].1).collect();
                if revised.contains(&g) {
                    match rng.gen_range(0..3) {
                        0 if arity == 2 => spec_kind = kinds[rng.gen_range(0..kinds.len() - 1)],
                        1 => si[0] = nets[rng.gen_range(0..nets.len())].1,
                        _ => {
                            let (a, b) =
                                (rng.gen_range(0..num_inputs), rng.gen_range(0..num_inputs));
                            si[0] = s.add_gate(GateKind::Xor, &[nets[a].1, nets[b].1]).unwrap();
                        }
                    }
                }
                nets.push((
                    c.add_gate(kind, &ci).unwrap(),
                    s.add_gate(spec_kind, &si).unwrap(),
                ));
            }
            let (root, spec_root) = *nets.last().unwrap();
            c.add_output("y", root);
            s.add_output("y", spec_root);

            let num_samples = if wide {
                rng.gen_range(65..=130)
            } else {
                rng.gen_range(4..=12)
            };
            let samples = (0..num_samples)
                .map(|_| {
                    let mut x: Vec<bool> = Vec::new();
                    for _ in 0..8 {
                        x = (0..num_inputs).map(|_| rng.gen()).collect();
                        let differs = c.eval_nets(&x).unwrap()[root.index()]
                            != s.eval_nets(&x).unwrap()[spec_root.index()];
                        if differs {
                            break;
                        }
                    }
                    x
                })
                .collect();
            Pair::new(c, s, samples)
        }

        fn oracle(&self) -> Oracle<'_> {
            let spec_root = self.spec.outputs()[0].net();
            Oracle::new(
                &self.implementation,
                &self.spec,
                &self.corr,
                spec_root,
                &self.samples,
            )
        }

        /// The output's candidate pins, at the engine's cap.
        fn pins(&self) -> Vec<Pin> {
            let root = self.implementation.outputs()[0].net();
            candidate_pins(&self.implementation, root, 0, 48)
        }

        fn candidates(&self, points: &[Pin]) -> Vec<Vec<RewireCandidate>> {
            points
                .iter()
                .map(|&p| candidates_for_pin(&self.implementation, &self.ctx, p, 8, None).unwrap())
                .collect()
        }
    }

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

    /// Seeds of [`Pair::random`]: 70 single-block pairs, then 30 that
    /// span several blocks.
    const SEEDS: std::ops::Range<u64> = 0..100;

    /// Every in-range choice of `candidates`, in code order.
    fn in_range(candidates: &[Vec<RewireCandidate>]) -> Vec<Vec<usize>> {
        candidates.iter().fold(vec![Vec::new()], |prefixes, cands| {
            prefixes
                .into_iter()
                .flat_map(|p| {
                    (0..cands.len()).map(move |j| {
                        let mut choice = p.clone();
                        choice.push(j);
                        choice
                    })
                })
                .collect()
        })
    }

    /// On every minimal set of size 1–3 of 100 random pairs, with the
    /// candidate lists the search would rank, the simulated `Ξ(c)` returns
    /// the BDD oracle's list, order included, at the engine's cap and
    /// uncapped. Some of those lists hide valid choices inside a path cube,
    /// so plain code order would differ.
    #[test]
    fn simulated_xi_matches_the_bdd_oracle() {
        let (mut sets_per_size, mut multi_block, mut hiding) = ([0usize; 3], 0, 0);
        for seed in SEEDS {
            let pair = Pair::random(seed);
            let pins = pair.pins();
            let mut oracle = pair.oracle();
            let mut minimal = MinimalSets::new(
                &pair.implementation,
                &pair.sim,
                &pair.ctx.impl_words,
                &pair.ctx.fprime,
                0,
                &pins,
            );
            for size in 1..=3 {
                for set in minimal.of_size(size, usize::MAX) {
                    let cands = pair.candidates(&set);
                    let matches = minimal.match_words(&set);
                    for max in [6, usize::MAX] {
                        let fast = find_choices(&matches, &pair.ctx, &cands, max);
                        let slow = oracle.choices(0, &set, &cands, max);
                        assert_eq!(fast, slow, "seed {seed}: {set:?} at cap {max}");
                    }
                    let valid = in_range(&cands)
                        .iter()
                        .filter(|c| rectifies(&matches, &pair.ctx, &cands, c))
                        .count();
                    let decoded = find_choices(&matches, &pair.ctx, &cands, usize::MAX).len();
                    hiding += usize::from(decoded < valid);
                    sets_per_size[size - 1] += 1;
                    multi_block += usize::from(matches.len() > 1);
                }
            }
        }
        assert!(
            sets_per_size.iter().all(|&n| n > 0),
            "every size is exercised: {sets_per_size:?}"
        );
        assert!(multi_block > 0, "some point-sets span several blocks");
        assert!(hiding > 0, "some path cubes hide valid choices");
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

        let samples = vec![vec![true, false], vec![false, true]];
        let pair = Pair::new(c, s, samples);
        let pins = pair.pins();
        let mut minimal = MinimalSets::new(
            &pair.implementation,
            &pair.sim,
            &pair.ctx.impl_words,
            &pair.ctx.fprime,
            0,
            &pins,
        );
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
        let matches = minimal.match_words(&points);
        let choices = find_choices(&matches, &pair.ctx, &cands, 8);
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

        // Error samples: need patterns where s0 != !s1 and a = 1 matters.
        let samples = vec![
            vec![true, false, true, true],   // a=1, s0=1, s1=1: impl 1, spec 0
            vec![true, false, false, false], // a=1, s0=0, s1=0: impl 0, spec 1
        ];
        let pair = Pair::new(c, s, samples);
        let pins = pair.pins();
        let mut minimal = MinimalSets::new(
            &pair.implementation,
            &pair.sim,
            &pair.ctx.impl_words,
            &pair.ctx.fprime,
            0,
            &pins,
        );

        // Point: pin 1 of t1 (currently s0). Candidates: trivial, ns1, s1.
        let points = vec![Pin::gate(t1.source(), 1)];
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
        let matches = minimal.match_words(&points);
        let choices = find_choices(&matches, &pair.ctx, &cands, 8);
        assert!(
            choices.contains(&vec![1]),
            "rewiring to NOT(s1) rectifies: {choices:?}"
        );
        assert!(
            !choices.contains(&vec![0]),
            "keeping s0 does not rectify: {choices:?}"
        );
    }

    /// Path cubes of `a ∨ (¬a ∧ b)` over `(a, b)`: the walk takes `¬a ∧ b`
    /// (least member 01) before `a` (least member 10, `b` skipped), and a
    /// constant-true table is one cube.
    #[test]
    fn path_cubes_walk_low_first_and_skip_equal_halves() {
        let mut out = Vec::new();
        path_cubes(&[false, true, true, true], 0, usize::MAX, &mut out);
        assert_eq!(out, vec![1, 2]);
        out.clear();
        path_cubes(&[true; 4], 0, usize::MAX, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        path_cubes(&[false, true, false, true], 0, 1, &mut out);
        assert_eq!(out, vec![1], "a skipped, then capped");
    }
}
