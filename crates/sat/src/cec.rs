//! Combinational equivalence-checking assistance (fraiging-lite).
//!
//! Monolithic CDCL on a miter of two *structurally dissimilar*
//! implementations of the same function is exponentially hard — precisely
//! the situation every ECO query here is in (an optimized implementation
//! against a lightly synthesized specification). Industrial equivalence
//! checkers solve this by discovering **internal equivalence points**:
//! candidate pairs found by random simulation, proven bottom-up with
//! budgeted SAT, and added as equality constraints so downstream proofs
//! become local.
//!
//! [`assist_equivalences`] does exactly that on an already-encoded pair of
//! circuits. It is sound: an equality clause is only added after both
//! implications are proven UNSAT under the current formula, so the model
//! set over circuit variables never changes.
//!
//! # Proof reuse
//!
//! A rectification run asks hundreds of queries against the same
//! specification, each on an implementation that differs from the last in a
//! few rewired cones, so the same internal equivalences come up again and
//! again. A [`ProofCache`] proves each of them once. Nets are interned by
//! exact structure — gate kind plus ordered interned fanins, primary inputs
//! by label, the sharing rule of the miter encoding — so one id names one
//! cone in every circuit the cache has seen, and a recorded pair
//! `(left id, right id, complemented)` is a property of two functions, not
//! of one solver. A pair is recorded only after both implications were
//! refuted; a later pass meeting it again asserts the two clauses without
//! solving. The right-hand (specification) half of the pass — signatures,
//! levels, candidate order, interned ids — is kept in the cache as well.
//!
//! A cache is frozen into a [`ProofBase`] and shared read-only; every
//! [`ProofBase::overlay`] records into a layer of its own, so caches that
//! start from the same base evolve independently and deterministically.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use eco_netlist::{sim, topo, Circuit, GateKind, NetId, NetlistError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::tseitin::VarMap;
use crate::{SolveResult, Solver};

/// Options for the internal-equivalence discovery pass.
#[derive(Debug, Clone)]
pub struct CecOptions {
    /// 64-pattern simulation blocks used for candidate signatures.
    pub sim_blocks: usize,
    /// Conflict budget per implication proof.
    pub pair_budget: u64,
    /// Maximum candidate pairs attempted.
    pub max_pairs: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for CecOptions {
    fn default() -> Self {
        CecOptions {
            sim_blocks: 4,
            pair_budget: 4_000,
            max_pairs: 4_096,
            seed: 0xCEC,
        }
    }
}

/// Statistics of an [`assist_equivalences`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CecStats {
    /// Candidate pairs examined.
    pub candidates: usize,
    /// Equivalences proven (now, or earlier and recorded) and asserted.
    pub proven: usize,
    /// Complementary equivalences proven and asserted.
    pub proven_complement: usize,
}

/// Interned structure id: one id per distinct cone across every circuit a
/// [`ProofCache`] has seen.
type ConeId = u32;

/// A proven pair: left cone, right cone, and whether they are complements.
type Fact = (ConeId, ConeId, bool);

/// One layer of a [`ProofCache`]: interned structures and recorded facts.
#[derive(Debug, Default)]
struct Layer<'s> {
    /// Ids below this belong to the layers underneath.
    first_id: ConeId,
    /// Primary inputs by label.
    inputs: HashMap<String, ConeId>,
    /// Gates by `[kind, fanin ids…]`.
    gates: HashMap<Vec<u32>, ConeId>,
    facts: HashSet<Fact>,
    spec: Option<Arc<SpecSide<'s>>>,
}

impl Layer<'_> {
    fn next_id(&self) -> ConeId {
        self.first_id + (self.inputs.len() + self.gates.len()) as ConeId
    }
}

/// The right-hand half of an [`assist_equivalences`] pass, which depends
/// only on the right circuit, the options, and the left's input labels.
#[derive(Debug)]
struct SpecSide<'s> {
    right: &'s Circuit,
    sim_blocks: usize,
    seed: u64,
    /// Input labels of the left circuit the patterns were drawn for.
    left_labels: Vec<String>,
    /// Per simulation block, one pattern word per left input.
    left_patterns: Vec<Vec<u64>>,
    /// Right gate nets in level order, with their interned ids.
    nets: Vec<(NetId, ConeId)>,
    /// Per entry of `nets`: the signature, then its complement.
    sigs: Vec<u64>,
}

impl SpecSide<'_> {
    fn fits(&self, left: &Circuit, right: &Circuit, options: &CecOptions) -> bool {
        std::ptr::eq(self.right, right)
            && self.sim_blocks == options.sim_blocks.max(1)
            && self.seed == options.seed
            && left.inputs().len() == self.left_labels.len()
            && left
                .inputs()
                .iter()
                .zip(&self.left_labels)
                .all(|(&id, l)| left.node(id).name().unwrap_or("") == l)
    }
}

/// Proven internal equivalences carried across [`assist_equivalences`]
/// calls (see the module docs).
///
/// `'s` is the lifetime of the right-hand circuit whose spec-side work the
/// cache keeps. A fresh cache makes a pass behave as if it had none.
#[derive(Debug, Default)]
pub struct ProofCache<'s> {
    base: ProofBase<'s>,
    top: Layer<'s>,
    proofs: u64,
    reused: u64,
}

/// A frozen [`ProofCache`], shared read-only by the overlays built on it.
#[derive(Debug, Default, Clone)]
pub struct ProofBase<'s>(Vec<Arc<Layer<'s>>>);

impl<'s> ProofBase<'s> {
    /// A cache that reads this base and records into a layer of its own.
    pub fn overlay(&self) -> ProofCache<'s> {
        ProofCache {
            top: Layer {
                first_id: self.0.last().map_or(0, |l| l.next_id()),
                ..Layer::default()
            },
            base: self.clone(),
            proofs: 0,
            reused: 0,
        }
    }
}

impl<'s> ProofCache<'s> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes the cache, its base included, for sharing.
    pub fn freeze(self) -> ProofBase<'s> {
        let mut layers = self.base.0;
        layers.push(Arc::new(self.top));
        ProofBase(layers)
    }

    /// Pairs this cache proved with the solver and recorded.
    pub fn proofs(&self) -> u64 {
        self.proofs
    }

    /// Pairs this cache asserted from a record instead of solving.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    fn layers(&self) -> impl Iterator<Item = &Layer<'s>> {
        self.base.0.iter().map(|l| &**l).chain([&self.top])
    }

    fn intern_input(&mut self, label: &str) -> ConeId {
        if let Some(id) = self.layers().find_map(|l| l.inputs.get(label).copied()) {
            return id;
        }
        let id = self.top.next_id();
        self.top.inputs.insert(label.to_string(), id);
        id
    }

    fn intern_gate(&mut self, key: &[u32]) -> ConeId {
        if let Some(id) = self.layers().find_map(|l| l.gates.get(key).copied()) {
            return id;
        }
        let id = self.top.next_id();
        self.top.gates.insert(key.to_vec(), id);
        id
    }

    /// The interned id of every live net of `circuit`, by net index.
    fn intern(&mut self, circuit: &Circuit) -> Result<Vec<ConeId>, NetlistError> {
        let mut ids = vec![ConeId::MAX; circuit.num_nodes()];
        let mut key: Vec<u32> = Vec::new();
        for id in topo::topo_order(circuit)? {
            let node = circuit.node(id);
            ids[id.index()] = match node.kind() {
                GateKind::Input => self.intern_input(node.name().unwrap_or("")),
                kind => {
                    key.clear();
                    key.push(kind as u32);
                    key.extend(node.fanins().iter().map(|f| ids[f.index()]));
                    self.intern_gate(&key)
                }
            };
        }
        Ok(ids)
    }

    fn knows(&self, fact: &Fact) -> bool {
        self.layers().any(|l| l.facts.contains(fact))
    }

    /// The spec-side work for this pass, reused when one fits.
    fn spec_side(
        &mut self,
        left: &Circuit,
        right: &'s Circuit,
        options: &CecOptions,
    ) -> Result<Arc<SpecSide<'s>>, NetlistError> {
        if let Some(spec) = self
            .layers()
            .filter_map(|l| l.spec.as_ref())
            .find(|s| s.fits(left, right, options))
        {
            return Ok(Arc::clone(spec));
        }
        let spec = Arc::new(self.build_spec_side(left, right, options)?);
        self.top.spec = Some(Arc::clone(&spec));
        Ok(spec)
    }

    fn build_spec_side(
        &mut self,
        left: &Circuit,
        right: &'s Circuit,
        options: &CecOptions,
    ) -> Result<SpecSide<'s>, NetlistError> {
        let blocks = options.sim_blocks.max(1);
        let mut rng = SmallRng::seed_from_u64(options.seed);
        let mut left_patterns = Vec::with_capacity(blocks);
        let mut right_words = Vec::with_capacity(blocks);
        // Shared random simulation, inputs matched by label.
        for _ in 0..blocks {
            let mut by_label: HashMap<&str, u64> = HashMap::new();
            for circuit in [left, right] {
                for &id in circuit.inputs() {
                    by_label
                        .entry(circuit.node(id).name().unwrap_or(""))
                        .or_insert_with(|| rng.gen());
                }
            }
            let patterns = |c: &Circuit| -> Vec<u64> {
                c.inputs()
                    .iter()
                    .map(|&id| by_label[c.node(id).name().unwrap_or("")])
                    .collect()
            };
            left_patterns.push(patterns(left));
            right_words.push(sim::simulate64(right, &patterns(right))?);
        }

        // Candidate pairs in topological (level) order of the right side, so
        // proofs build on already-asserted equivalences below them.
        let ids = self.intern(right)?;
        let levels = topo::levels(right)?;
        let mut nets: Vec<(NetId, ConeId)> = right
            .iter_live()
            .filter(|&id| {
                let k = right.node(id).kind();
                k != GateKind::Input && !k.is_const()
            })
            .map(|id| (NetId::from(id), ids[id.index()]))
            .collect();
        nets.sort_by_key(|(w, _)| levels[w.index()]);
        let mut sigs = Vec::with_capacity(nets.len() * blocks * 2);
        for (w, _) in &nets {
            sigs.extend(right_words.iter().map(|words| words[w.index()]));
            sigs.extend(right_words.iter().map(|words| !words[w.index()]));
        }
        Ok(SpecSide {
            right,
            sim_blocks: blocks,
            seed: options.seed,
            left_labels: left
                .inputs()
                .iter()
                .map(|&id| left.node(id).name().unwrap_or("").to_string())
                .collect(),
            left_patterns,
            nets,
            sigs,
        })
    }
}

/// Discovers and asserts internal equivalences between two encoded
/// circuits.
///
/// `left_map`/`right_map` are the net→variable maps from
/// [`crate::tseitin::encode_pairs`]. Inputs are matched by label for the
/// shared simulation. For every simulation-supported candidate pair, both
/// implications are checked with a conflict budget; proven pairs (equal or
/// complementary) are asserted as binary clauses, making subsequent
/// output-level queries on the same solver cheap.
///
/// Pairs `cache` has recorded are asserted without solving, and newly
/// proven pairs are recorded into it; pass a fresh [`ProofCache`] for a
/// stand-alone pass. The candidates walked, and the `max_pairs` count, are
/// the same either way. When the solver is armed with a deadline or an
/// interrupt flag and stops on it, the pass ends there.
///
/// The formula must not yet constrain the circuits beyond their encodings
/// (and earlier proven equalities), so that a refuted implication is a fact
/// about the two cones alone.
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulation.
pub fn assist_equivalences<'s>(
    solver: &mut Solver,
    left: &Circuit,
    right: &'s Circuit,
    left_map: &VarMap,
    right_map: &VarMap,
    options: &CecOptions,
    cache: &mut ProofCache<'s>,
) -> Result<CecStats, NetlistError> {
    let mut stats = CecStats::default();
    let spec = cache.spec_side(left, right, options)?;
    let blocks = spec.sim_blocks;
    let left_ids = cache.intern(left)?;

    // Index left nets by signature, each bucket shallowest first.
    let left_words = spec
        .left_patterns
        .iter()
        .map(|p| sim::simulate64(left, p))
        .collect::<Result<Vec<_>, _>>()?;
    let left_levels = topo::levels(left)?;
    let mut by_sig: HashMap<Vec<u64>, Vec<NetId>> = HashMap::new();
    for id in left.iter_live() {
        if left.node(id).kind() == GateKind::Input {
            continue; // inputs are already shared variables
        }
        let sig: Vec<u64> = left_words.iter().map(|w| w[id.index()]).collect();
        by_sig.entry(sig).or_default().push(id.into());
    }
    for bucket in by_sig.values_mut() {
        bucket.sort_by_key(|w| left_levels[w.index()]);
    }

    solver.set_conflict_budget(Some(options.pair_budget));
    'outer: for (k, &(rnet, rid)) in spec.nets.iter().enumerate() {
        let sigs = &spec.sigs[2 * k * blocks..2 * (k + 1) * blocks];
        let (sig, complement) = sigs.split_at(blocks);
        for (cands, comp) in [(by_sig.get(sig), false), (by_sig.get(complement), true)] {
            let Some(cands) = cands else { continue };
            for &lnet in cands.iter().take(2) {
                if stats.candidates >= options.max_pairs {
                    break 'outer;
                }
                stats.candidates += 1;
                let a = left_map.lit(lnet).expect("left net encoded");
                let b = right_map.lit(rnet).expect("right net encoded");
                let b = if comp { !b } else { b };
                let fact = (left_ids[lnet.index()], rid, comp);
                if cache.knows(&fact) {
                    cache.reused += 1;
                } else {
                    // Prove a ≡ b: both (a ∧ ¬b) and (¬a ∧ b) unsatisfiable.
                    let refuted = solver.solve(&[a, !b]) == SolveResult::Unsat
                        && solver.solve(&[!a, b]) == SolveResult::Unsat;
                    if !refuted {
                        if solver.interrupted() {
                            break 'outer;
                        }
                        continue;
                    }
                    cache.top.facts.insert(fact);
                    cache.proofs += 1;
                }
                solver.add_clause(&[!a, b]);
                solver.add_clause(&[a, !b]);
                if comp {
                    stats.proven_complement += 1;
                } else {
                    stats.proven += 1;
                }
                break; // one representative equality suffices
            }
        }
    }
    solver.set_conflict_budget(None);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tseitin::encode_pairs;
    use eco_netlist::Pin;

    /// Two structurally different implementations of the same functions.
    fn dissimilar_pair() -> (Circuit, Circuit) {
        let mut a = Circuit::new("a");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let z = a.add_input("z");
        let g1 = a.add_gate(GateKind::And, &[x, y]).unwrap();
        let g2 = a.add_gate(GateKind::Or, &[g1, z]).unwrap();
        a.add_output("o", g2);

        let mut b = Circuit::new("b");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let z = b.add_input("z");
        // De Morgan form of the same function.
        let nx = b.add_gate(GateKind::Not, &[x]).unwrap();
        let ny = b.add_gate(GateKind::Not, &[y]).unwrap();
        let o1 = b.add_gate(GateKind::Or, &[nx, ny]).unwrap();
        let nand = b.add_gate(GateKind::Not, &[o1]).unwrap();
        let nz = b.add_gate(GateKind::Not, &[z]).unwrap();
        let n2 = b.add_gate(GateKind::Not, &[nand]).unwrap();
        let and2 = b.add_gate(GateKind::And, &[n2, nz]).unwrap();
        let o = b.add_gate(GateKind::Not, &[and2]).unwrap();
        b.add_output("o", o);
        (a, b)
    }

    /// `o = x & y` against `o = x | y`.
    fn differing_pair() -> (Circuit, Circuit) {
        let mut a = Circuit::new("a");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let g = a.add_gate(GateKind::And, &[x, y]).unwrap();
        a.add_output("o", g);
        let mut b = Circuit::new("b");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let g = b.add_gate(GateKind::Or, &[x, y]).unwrap();
        b.add_output("o", g);
        (a, b)
    }

    /// One assisted miter query on the first output pair: the pass's
    /// statistics and the verdict of "the outputs differ".
    fn query<'s>(
        a: &Circuit,
        b: &'s Circuit,
        opts: &CecOptions,
        cache: &mut ProofCache<'s>,
    ) -> (CecStats, SolveResult) {
        let mut solver = Solver::new();
        let pairs = [(a.outputs()[0].net(), b.outputs()[0].net())];
        let miter = encode_pairs(&mut solver, a, b, &pairs).unwrap();
        let stats =
            assist_equivalences(&mut solver, a, b, &miter.left, &miter.right, opts, cache).unwrap();
        (stats, solver.solve(&[miter.diff_lits[0]]))
    }

    #[test]
    fn proves_internal_equivalences() {
        let (a, b) = dissimilar_pair();
        let (stats, verdict) = query(&a, &b, &CecOptions::default(), &mut ProofCache::new());
        assert!(
            stats.proven + stats.proven_complement >= 1,
            "the AND point or its complement should be proven: {stats:?}"
        );
        // The output query must now be UNSAT (equivalent).
        assert_eq!(verdict, SolveResult::Unsat);
    }

    #[test]
    fn soundness_on_differing_circuits() {
        // Equivalence assistance must never make a differing pair UNSAT.
        let (a, b) = differing_pair();
        let (_, verdict) = query(&a, &b, &CecOptions::default(), &mut ProofCache::new());
        assert_eq!(verdict, SolveResult::Sat);
    }

    #[test]
    fn budget_zero_proves_nothing_but_stays_sound() {
        let (a, b) = dissimilar_pair();
        let opts = CecOptions {
            pair_budget: 0,
            ..Default::default()
        };
        // With no conflict budget, only propagation-trivial pairs can be
        // proven — whatever was added must keep the formula sound.
        let (_, verdict) = query(&a, &b, &opts, &mut ProofCache::new());
        assert_eq!(verdict, SolveResult::Unsat);
    }

    #[test]
    fn warm_cache_reuses_proofs_and_keeps_verdicts() {
        let opts = CecOptions::default();
        for (a, b) in [dissimilar_pair(), differing_pair()] {
            let (cold, cold_verdict) = query(&a, &b, &opts, &mut ProofCache::new());
            let mut warm = ProofCache::new();
            query(&a, &b, &opts, &mut warm);
            let proofs = warm.proofs();
            let base = warm.freeze();
            let mut overlay = base.overlay();
            let (stats, verdict) = query(&a, &b, &opts, &mut overlay);
            assert_eq!(verdict, cold_verdict);
            // Same walk, same assertions; every one of them from the record.
            assert_eq!(stats, cold);
            assert_eq!(overlay.reused(), proofs);
            assert_eq!(overlay.proofs(), 0);
        }
    }

    #[test]
    fn differing_pair_stays_sat_under_a_warm_cache() {
        // Warm the cache on an equivalent pair sharing the AND cone, then
        // ask the differing one: the recorded facts must not make it UNSAT.
        let (a, b) = differing_pair();
        let a_copy = a.clone();
        let opts = CecOptions::default();
        let mut cache = ProofCache::new();
        query(&a, &a_copy, &opts, &mut cache);
        query(&a, &b, &opts, &mut cache);
        let (_, verdict) = query(&a, &b, &opts, &mut cache.freeze().overlay());
        assert_eq!(verdict, SolveResult::Sat);
    }

    #[test]
    fn rewiring_a_fanin_retires_the_facts_above_it() {
        let (a, b) = dissimilar_pair();
        let opts = CecOptions::default();
        let mut cache = ProofCache::new();
        let (first, _) = query(&a, &b, &opts, &mut cache);
        assert_eq!(cache.reused(), 0);
        assert!(cache.proofs() >= 3, "{first:?}");

        // o = (x & y) | z becomes (x & y) | x = x: the OR cone changes
        // identity, the AND cone below the rewired pin does not.
        let mut a2 = a.clone();
        let g2 = a2.outputs()[0].net();
        let x = a2.input_by_name("x").unwrap();
        a2.rewire(Pin::gate(g2.source(), 1), x).unwrap();
        let base = cache.freeze();
        let mut overlay = base.overlay();
        let (stats, verdict) = query(&a2, &b, &opts, &mut overlay);
        assert_eq!(
            verdict,
            SolveResult::Sat,
            "a stale OR fact would hide the change"
        );
        // The three AND facts (against o1, nand and n2) are reused; the new
        // OR cone (now equal to x, the complement of b's NOT x) is proven.
        assert_eq!(overlay.reused(), 3, "{stats:?}");
        assert_eq!(overlay.proofs(), 1);
    }
}
