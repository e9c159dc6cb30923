//! Feasible rectification point-sets (paper §4.2).
//!
//! Every candidate sink pin `q_j` is guarded by a conceptual multiplexer
//! (Figure 2): selection variables `t_i` steer which pins become free
//! inputs `y_i`. The characteristic function
//!
//! ```text
//! H(t) = ∀x ∃y ( h(x, y, t) ≡ f'(x) )
//! ```
//!
//! describes *all* feasible point-sets of size at most `m`; its prime cubes
//! seed the explicit candidate lists handed to the rewiring-choice search.
//! `H` depends on `t` only through the set of pins `t` frees and is
//! monotone in that set, so its primes are exactly the *minimal* feasible
//! pin sets. [`MinimalSets`] enumerates those directly, smallest first, by
//! bit-parallel simulation over the sampling domain; no `H(t)` diagram is
//! built. Pin dominance answers most multi-pin checks without simulation:
//! a pin whose consumer reaches the root only through another candidate
//! pin frees nothing that pin does not. The Figure 2 construction stays in
//! the test module as the differential oracle.

use eco_netlist::sim::{Compiled, Simulated};
use eco_netlist::{topo, Circuit, GateKind, NetId, NodeId, Pin};

/// Most gate pins [`MinimalSets`] accepts: it tracks each one as a bit of a
/// `u128` mask.
pub const MAX_GATE_PINS: usize = 128;
/// Most pins in one set [`MinimalSets`] enumerates: each check sweeps all
/// `2^size` values of the freed pins per sample block.
pub const MAX_SUBSET_SIZE: usize = 8;

/// Collects candidate rectification pins for the cone of `root`:
/// every gate input pin whose consumer lies in the cone, plus the output
/// pin itself (`output_index`), capped at `max` pins.
///
/// Pins are ordered by proximity to the output (shallow consumers first) so
/// the cap keeps the most "surgical" candidates, with the output pin always
/// included last — it guarantees completeness of the rewire formulation
/// (§3.3).
pub fn candidate_pins(circuit: &Circuit, root: NetId, output_index: u32, max: usize) -> Vec<Pin> {
    let in_cone = topo::tfi(circuit, &[root.source()]);
    let levels = topo::levels(circuit).expect("engine guarantees acyclic circuits");
    let root_level = levels[root.index()];
    let mut pins: Vec<(u32, Pin)> = Vec::new();
    for (i, &inside) in in_cone.iter().enumerate() {
        if !inside {
            continue;
        }
        let id = NodeId::from_index(i);
        let node = circuit.node(id);
        if node.kind() == GateKind::Input || node.kind().is_const() {
            continue;
        }
        // Depth from the output: shallower consumers first.
        let depth = root_level.saturating_sub(levels[i]);
        for pos in 0..node.fanins().len() {
            pins.push((depth, Pin::gate(id, pos as u8)));
        }
    }
    pins.sort_by_key(|&(depth, pin)| (depth, pin));
    let mut out: Vec<Pin> = pins
        .into_iter()
        .map(|(_, p)| p)
        .take(max.saturating_sub(1))
        .collect();
    out.push(Pin::output(output_index));
    out
}

/// A candidate point-set, its pins sorted by [`Pin`]'s order.
pub type PointSet = Vec<Pin>;

/// Advances `idx` to the next lexicographic `idx.len()`-combination of
/// `0..n`; returns `false` when exhausted.
fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let s = idx.len();
    let mut i = s;
    while i > 0 {
        i -= 1;
        if idx[i] != i + n - s {
            idx[i] += 1;
            for k in i + 1..s {
                idx[k] = idx[k - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// The next subset [`MinimalSets`] examines.
enum Cursor {
    /// The singleton of the gate pin with mask bit `b`; past the last gate
    /// pin, the output pin's singleton.
    Single(usize),
    /// This combination of pool indices.
    Multi(Vec<usize>),
    /// Nothing is left.
    Done,
}

impl Cursor {
    /// Pins in the subset the cursor points at.
    fn size(&self) -> usize {
        match self {
            Cursor::Single(_) => 1,
            Cursor::Multi(idx) => idx.len(),
            Cursor::Done => usize::MAX,
        }
    }
}

/// The minimal feasible pin sets of one output cone over the sampling
/// domain, enumerated lazily in ascending size.
///
/// `H(t) = ∀z ∃y (h(z, y, t) ≡ f'(z))` is evaluated **sample-wise**: the
/// only `z`-dependence of the parameterized cone `h` is through the
/// sampling functions `g(z)`, so `H` is the conjunction over the samples
/// `x̂_k` of `∃y (h|_{x = x̂_k} ≡ f'(x̂_k))`. At a selection `t` it depends
/// only on the set `S` of pins `t` frees: distinct freed pins are driven by
/// disjoint `y` variables (a pin chosen by several blocks is driven by the
/// conjunction of *its own* blocks' `y`s), so the freed pins jointly range
/// over all of `{0,1}^S` and
///
/// ```text
/// H(t) = 1  ⟺  ∀k ∃v ∈ {0,1}^S : cone[S←v](x̂_k) = f'(x̂_k),  S = selset(t).
/// ```
///
/// That predicate is monotone in `S` — an extra freed pin can re-drive the
/// value its driver would have produced — so
/// `H(t) = ⋁_{S minimal} ⋀_{j ∈ S} sel_j(t)` and the minimal sets are its
/// prime cubes. They are found by increasing-size enumeration with 64-wide
/// bit-parallel simulation, skipping every superset of a set already known
/// feasible: sets of two or more pins draw only from the pool of pins whose
/// singleton is infeasible, and are checked against the multi-pin minimal
/// sets by mask. Only the freed pins' transitive fanout is re-simulated,
/// over the [`Compiled`] tape, on top of the circuit's simulated sample
/// values. An output pin is trivially feasible alone (drive `y = f'`);
/// output pins of *other* outputs free nothing in this cone and never
/// appear.
///
/// **Pin dominance.** Let gate pin `p` sit on gate `g`, and let `g`'s only
/// in-cone sink be candidate pin `q`. Whatever values of the freed pins
/// `{p} ∪ R` make the cone match `f'` on a sample, `{q} ∪ R` matches too,
/// with `q` driven by the value `g` computes; and when `q ∈ R`, `{p} ∪ R`
/// is feasible exactly when `R` is. So a multi-pin subset `S ∋ p` is
/// infeasible, and is not simulated, when `q` is in the pool and
/// `(S − p) ∪ {q}` is infeasible. That set was examined before `S`, so it
/// is infeasible exactly when no multi-pin minimal set covers it. A
/// skipped subset gets the answer the simulation would have given, so the
/// sets found and their order do not depend on the rule. Debug builds
/// simulate every skipped subset and assert that it is infeasible.
///
/// The fanout slices and the dominator table are built once. The
/// enumeration state — the pool, the multi-pin minimal masks and the next
/// subset to examine — persists across [`of_size`](Self::of_size)
/// queries, so each subset is examined at most once. The engine's caps
/// (`m ≤ 3`, at most 47 gate pins) bound the enumeration at
/// `C(47,1) + C(47,2) + C(47,3) = 17,343` subsets, and pin dominance
/// leaves about 3% of the examined ones to simulate on the benchmark
/// workloads.
pub struct MinimalSets<'c> {
    circuit: &'c Circuit,
    sim: &'c Compiled,
    pins: &'c [Pin],
    /// The circuit's unmodified values over the samples.
    baseline: &'c Simulated,
    /// Net index of the output's root.
    root: usize,
    /// Codes (positions in `pins`) of the gate pins; a pin's position here
    /// is its mask bit.
    gate_pins: Vec<usize>,
    /// Code of this output's own pin.
    out_code: Option<usize>,
    /// Tape positions of each gate pin's fanout slice within the cone —
    /// the nodes freeing the pin can change: its consumer and everything
    /// downstream of it — ascending (= topological order).
    pin_tfo: Vec<Vec<u32>>,
    /// Per gate pin's mask bit `b`, the bit `d < b` of the candidate gate
    /// pin that is its consumer's only in-cone sink: every path from pin
    /// `b` to the root passes through pin `d`.
    dominator: Vec<Option<usize>>,
    /// The revised output `f'` per 64-sample block.
    fprime: &'c [u64],
    /// The unmodified cone already matches `f'` on every sample.
    matches: bool,
    /// Gate pins whose singleton is infeasible, as (pin code, mask bit).
    pool: Vec<(usize, usize)>,
    /// The mask bits of `pool`.
    pool_mask: u128,
    /// Minimal sets found so far as pin codes, in enumeration order, each
    /// with whether it passes the topological constraint.
    found: Vec<(Vec<usize>, bool)>,
    /// Masks of the multi-pin minimal sets.
    multi_masks: Vec<u128>,
    cursor: Cursor,
    /// Re-simulation scratch per block: the baseline, except inside the
    /// slices being swept.
    words: Vec<Vec<u64>>,
    /// The freed pins of the subset being checked, as (consumer node, pin
    /// position).
    forced: Vec<(usize, usize)>,
    /// Multi-pin subsets checked by simulation.
    #[cfg(test)]
    simulated: usize,
}

impl<'c> MinimalSets<'c> {
    /// Prepares the enumeration for the cone of output `output_index`.
    ///
    /// Arguments:
    /// * `sim` — `circuit` compiled,
    /// * `baseline` — `sim` simulated over the domain's samples,
    /// * `fprime` — the revised output value `f'(x̂_k)` per 64-sample
    ///   block, packed like `baseline`,
    /// * `pins` — candidate pins from [`candidate_pins`].
    ///
    /// # Panics
    ///
    /// Panics when `fprime` and `baseline` differ in block count or when
    /// more than [`MAX_GATE_PINS`] (128) of `pins` are gate pins.
    pub fn new(
        circuit: &'c Circuit,
        sim: &'c Compiled,
        baseline: &'c Simulated,
        fprime: &'c [u64],
        output_index: u32,
        pins: &'c [Pin],
    ) -> Self {
        assert_eq!(
            fprime.len(),
            baseline.blocks().len(),
            "one revised-output word per block"
        );
        let gate_pins: Vec<usize> = pins
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Pin::Gate { .. }))
            .map(|(j, _)| j)
            .collect();
        let out_code = pins
            .iter()
            .position(|p| matches!(p, Pin::Output { index } if *index == output_index));
        assert!(
            gate_pins.len() <= MAX_GATE_PINS,
            "point-set enumeration tracks at most {MAX_GATE_PINS} gate pins"
        );
        let root = circuit.outputs()[output_index as usize].net().index();

        // Bit `b` of `tfo_mask[net]` says that `net` is in the fanout slice
        // of gate pin `gate_pins[b]`.
        let in_cone = topo::tfi(circuit, &[NodeId::from_index(root)]);
        let mut tfo_mask = vec![0u128; circuit.num_nodes()];
        for (b, &j) in gate_pins.iter().enumerate() {
            if let Pin::Gate { node, .. } = pins[j] {
                tfo_mask[node.index()] |= 1u128 << b;
            }
        }
        let mut pin_tfo: Vec<Vec<u32>> = vec![Vec::new(); gate_pins.len()];
        // In-cone sink pins per net.
        let mut sinks = vec![0u32; circuit.num_nodes()];
        for g in 0..sim.num_gates() {
            let id = sim.node(g).index();
            if !in_cone[id] {
                continue;
            }
            let mut mask = tfo_mask[id];
            for &f in sim.fanins(g) {
                mask |= tfo_mask[f as usize];
                sinks[f as usize] += 1;
            }
            tfo_mask[id] = mask;
            while mask != 0 {
                pin_tfo[mask.trailing_zeros() as usize].push(g as u32);
                mask &= mask - 1;
            }
        }
        // A consumer with one in-cone sink reaches the root only through
        // it; the root has none, so its pins have no dominator.
        let dominator = gate_pins
            .iter()
            .enumerate()
            .map(|(b, &j)| {
                let consumer = pins[j].node()?.index();
                if sinks[consumer] != 1 {
                    return None;
                }
                gate_pins[..b].iter().position(|&k| match pins[k] {
                    Pin::Gate { node, pos } => {
                        in_cone[node.index()]
                            && circuit.node(node).fanins()[pos as usize].index() == consumer
                    }
                    Pin::Output { .. } => false,
                })
            })
            .collect();

        let matches = baseline
            .blocks()
            .iter()
            .zip(fprime)
            .enumerate()
            .all(|(b, (words, &f))| (words[root] ^ f) & baseline.mask(b) == 0);

        MinimalSets {
            circuit,
            sim,
            pins,
            baseline,
            root,
            gate_pins,
            out_code,
            pin_tfo,
            dominator,
            fprime,
            matches,
            pool: Vec::new(),
            pool_mask: 0,
            found: Vec::new(),
            multi_masks: Vec::new(),
            cursor: Cursor::Single(0),
            words: baseline.blocks().to_vec(),
            forced: Vec::new(),
            #[cfg(test)]
            simulated: 0,
        }
    }

    /// The first `max` minimal feasible sets of exactly `size` pins, each
    /// sorted, in pin order: lexicographic in the positions of their pins
    /// in `pins`, except that the output pin's singleton follows the
    /// gate-pin singletons. Multi-pin sets are kept only when they pass
    /// [`topological_constraint_ok`].
    ///
    /// Subsets are examined only until those sets are known: the smaller
    /// sizes are completed first, and the enumeration stops at the `max`-th
    /// kept set, to resume there on a later query.
    ///
    /// When the unmodified cone already matches `f'` on every sample, the
    /// empty set is the only minimal set. Size 1 then gives the gate-pin
    /// singletons in pin order, and larger sizes give nothing.
    ///
    /// # Panics
    ///
    /// Panics when `size` exceeds [`MAX_SUBSET_SIZE`] (8).
    pub fn of_size(&mut self, size: usize, max: usize) -> Vec<PointSet> {
        assert!(
            size <= MAX_SUBSET_SIZE,
            "point-set enumeration frees at most {MAX_SUBSET_SIZE} pins"
        );
        if self.matches {
            if size != 1 {
                return Vec::new();
            }
            return self
                .gate_pins
                .iter()
                .take(max)
                .map(|&j| vec![self.pins[j]])
                .collect();
        }
        let wanted = |(set, kept): &&(Vec<usize>, bool)| *kept && set.len() == size;
        let mut known = self.found.iter().filter(wanted).count();
        while known < max && self.cursor.size() <= size {
            let at = self.cursor.size();
            if self.step() && at == size {
                known += 1;
            }
        }
        self.found
            .iter()
            .filter(wanted)
            .take(max)
            .map(|(set, _)| {
                let mut points: PointSet = set.iter().map(|&j| self.pins[j]).collect();
                points.sort();
                points
            })
            .collect()
    }

    /// Examines the subset at the cursor and advances it. Returns whether
    /// that subset is a minimal set passing the topological constraint.
    fn step(&mut self) -> bool {
        match std::mem::replace(&mut self.cursor, Cursor::Done) {
            Cursor::Single(b) if b < self.gate_pins.len() => {
                self.cursor = Cursor::Single(b + 1);
                let j = self.gate_pins[b];
                if self.feasible(&[j], &[b]) {
                    self.found.push((vec![j], true));
                    return true;
                }
                self.pool.push((j, b));
                self.pool_mask |= 1u128 << b;
                false
            }
            Cursor::Single(_) => {
                self.cursor = self.first_of(2);
                if let Some(oc) = self.out_code {
                    self.found.push((vec![oc], true));
                    return true;
                }
                false
            }
            Cursor::Multi(mut idx) => {
                let sel_mask = idx
                    .iter()
                    .fold(0u128, |acc, &i| acc | (1u128 << self.pool[i].1));
                let mut kept = false;
                if !self.covered(sel_mask) {
                    if self.dominated(sel_mask, &idx) {
                        if cfg!(debug_assertions) {
                            let (set, bits): (Vec<usize>, Vec<usize>) =
                                idx.iter().map(|&i| self.pool[i]).unzip();
                            assert!(
                                !self.feasible(&set, &bits),
                                "pin dominance skipped the feasible subset {bits:?}"
                            );
                        }
                    } else {
                        #[cfg(test)]
                        {
                            self.simulated += 1;
                        }
                        let (set, bits): (Vec<usize>, Vec<usize>) =
                            idx.iter().map(|&i| self.pool[i]).unzip();
                        if self.feasible(&set, &bits) {
                            let points: PointSet = set.iter().map(|&j| self.pins[j]).collect();
                            kept = topological_constraint_ok(self.circuit, &points);
                            self.found.push((set, kept));
                            self.multi_masks.push(sel_mask);
                        }
                    }
                }
                self.cursor = if next_combination(&mut idx, self.pool.len()) {
                    Cursor::Multi(idx)
                } else {
                    self.first_of(idx.len() + 1)
                };
                kept
            }
            Cursor::Done => false,
        }
    }

    /// Whether some recorded multi-pin minimal set is a subset of the pins
    /// with mask `sel`.
    fn covered(&self, sel: u128) -> bool {
        self.multi_masks.iter().any(|&mm| mm & !sel == 0)
    }

    /// Whether pin dominance proves the uncovered pool subset `S` (pool
    /// indices `idx`, mask `sel`) infeasible: some pin `b ∈ S` has a
    /// dominator `d` in the pool, and `S′ = (S − b) ∪ {d}` is infeasible.
    /// `S′` comes before `S` — lexicographically at the same size, or
    /// smaller when `d ∈ S` — so it has been examined, and it is feasible
    /// exactly when a recorded multi-pin minimal set covers it (a pool
    /// singleton is infeasible by definition).
    fn dominated(&self, sel: u128, idx: &[usize]) -> bool {
        idx.iter().any(|&i| {
            let b = self.pool[i].1;
            self.dominator[b].is_some_and(|d| {
                self.pool_mask >> d & 1 == 1 && !self.covered(sel & !(1u128 << b) | 1u128 << d)
            })
        })
    }

    /// The cursor at the first `size`-combination of the pool.
    fn first_of(&self, size: usize) -> Cursor {
        if size <= self.pool.len().min(MAX_SUBSET_SIZE) {
            Cursor::Multi((0..size).collect())
        } else {
            Cursor::Done
        }
    }

    /// The match words `h_v ≡ f'` of the point set `points`, as
    /// [`of_size`](Self::of_size) returns it: `words[k][v]` has bit `i` set
    /// when, on sample `i` of block `k`, the cone with the freed pins driven
    /// by `v` equals `f'`. Point `p` of the set reads bit `p` of `v`. The
    /// output pin's singleton drives the output itself. Bits past the
    /// block's mask are meaningless.
    ///
    /// # Panics
    ///
    /// Panics when a gate pin of `points` is not among the candidate pins,
    /// or when the output pin shares a set.
    pub fn match_words(&mut self, points: &[Pin]) -> Vec<Vec<u64>> {
        if let [Pin::Output { .. }] = points {
            return self.fprime.iter().map(|&f| vec![!f, f]).collect();
        }
        let (set, bits): (Vec<usize>, Vec<usize>) = points
            .iter()
            .map(|p| {
                let b = self
                    .gate_pins
                    .iter()
                    .position(|&j| self.pins[j] == *p)
                    .expect("point-set pins are candidate gate pins");
                (self.gate_pins[b], b)
            })
            .unzip();
        self.free(&set);
        (0..self.words.len())
            .map(|k| {
                let mut row = vec![0u64; 1 << set.len()];
                self.sweep(k, &bits, |v, word| {
                    row[v as usize] = word;
                    true
                });
                row
            })
            .collect()
    }

    /// Whether freeing the gate pins `set` (pin codes, with mask bits
    /// `bits`) lets the cone match `f'` on every sample: for each block, OR
    /// the match words over the value combinations of the freed pins until
    /// every sample bit is set.
    fn feasible(&mut self, set: &[usize], bits: &[usize]) -> bool {
        self.free(set);
        for k in 0..self.words.len() {
            let mask = self.baseline.mask(k);
            let mut ok = 0u64;
            self.sweep(k, bits, |_, word| {
                ok |= word;
                ok & mask != mask
            });
            if ok & mask != mask {
                return false;
            }
        }
        true
    }

    /// Records the gate pins `set` (pin codes) as the freed pins of the
    /// next [`sweep`](Self::sweep)s; pin `i` of the set reads bit `i` of
    /// the value combination.
    fn free(&mut self, set: &[usize]) {
        self.forced.clear();
        self.forced.extend(set.iter().map(|&j| match self.pins[j] {
            Pin::Gate { node, pos } => (node.index(), pos as usize),
            Pin::Output { .. } => unreachable!("only gate pins are freed"),
        }));
    }

    /// Sweeps the freed pins, with mask bits `bits`, through their value
    /// combinations `v` on block `k`, handing `visit(v, word)` the match
    /// word `h_v ≡ f'` of each, until `visit` returns `false`. The block's
    /// scratch words are the baseline again afterwards.
    fn sweep(&mut self, k: usize, bits: &[usize], mut visit: impl FnMut(u64, u64) -> bool) {
        let (sim, forced) = (self.sim, &self.forced);
        let (fprime, words) = (self.fprime[k], &mut self.words[k]);
        // Re-simulates the fanout slice of the gate pin with mask bit `b`
        // under the value combination `v`.
        let replay = |b: usize, v: u64, words: &mut [u64]| {
            for &g in &self.pin_tfo[b] {
                let (g, id) = (g as usize, sim.node(g as usize).index());
                words[id] = if forced.iter().any(|&(n, _)| n == id) {
                    sim.eval(g, |pos, net| {
                        match forced.iter().position(|&f| f == (id, pos)) {
                            Some(i) => 0u64.wrapping_sub((v >> i) & 1),
                            None => words[net],
                        }
                    })
                } else {
                    sim.eval(g, |_, net| words[net])
                };
            }
        };
        // Replaying the freed pins' slices one after another leaves every
        // node right: it is replayed last with the slice of its last freed
        // ancestor, whose replay has already updated all of its fanins.
        let mut v = 0u64;
        for &b in bits {
            replay(b, v, words);
        }
        // Gray-code sweep over the 2^s value combinations: consecutive
        // steps toggle one pin, so only that pin's slice replays.
        let mut more = visit(v, !(words[self.root] ^ fprime));
        for step in 1..(1u64 << bits.len()) {
            if !more {
                break;
            }
            let toggled = step.trailing_zeros();
            v ^= 1u64 << toggled;
            replay(bits[toggled as usize], v, words);
            more = visit(v, !(words[self.root] ^ fprime));
        }
        let base = &self.baseline.blocks()[k];
        for &b in bits {
            for &g in &self.pin_tfo[b] {
                let id = sim.node(g as usize).index();
                words[id] = base[id];
            }
        }
    }
}

/// Checks the topological constraint of §3.3: no path may connect any pair
/// of the selected pins. The output pin is downstream of the whole cone, so
/// it only ever appears in singleton sets.
pub fn topological_constraint_ok(circuit: &Circuit, pins: &[Pin]) -> bool {
    for (a, &pa) in pins.iter().enumerate() {
        for &pb in pins.iter().skip(a + 1) {
            match (pa.node(), pb.node()) {
                (Some(na), Some(nb)) => {
                    // Sibling pins of one gate are path-free; a path between
                    // distinct pins exists iff one consumer reaches the other
                    // through its output.
                    if na != nb
                        && (topo::tfi_contains(circuit, na, nb)
                            || topo::tfi_contains(circuit, nb, na))
                    {
                        return false;
                    }
                }
                // An output pin paired with anything inside the cone is
                // connected by a path by definition.
                _ => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    use eco_bdd::{Bdd, BddError, BddManager};
    use eco_netlist::{Circuit, GateKind};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use crate::choices::block_bits;

    /// The `t`-variable blocks of the parameterized selection (Figure 2):
    /// one binary-encoded block of `⌈log2 M⌉` variables per point.
    struct Selection {
        t_base: u32,
        bits_per_block: u32,
        num_points: usize,
    }

    impl Selection {
        fn new(t_base: u32, num_points: usize, num_pins: usize) -> Self {
            Selection {
                t_base,
                bits_per_block: block_bits(num_pins.max(2)),
                num_points,
            }
        }

        /// Total `t` variables: `m · ⌈log2 M⌉` (the count derived in §4.2).
        fn num_t_vars(&self) -> u32 {
            self.bits_per_block * self.num_points as u32
        }

        fn block_vars(&self, i: usize) -> Vec<u32> {
            let start = self.t_base + self.bits_per_block * i as u32;
            (start..start + self.bits_per_block).collect()
        }

        /// The minterm `t_i^j` ("big-endian" bit order, §4.1).
        fn minterm(&self, m: &mut BddManager, block: usize, code: usize) -> Result<Bdd, BddError> {
            let bits = self.bits_per_block;
            let mut cube = m.one();
            for (b, &var) in self.block_vars(block).iter().enumerate() {
                let bit = (code >> (bits as usize - 1 - b)) & 1 == 1;
                let lit = if bit { m.var(var) } else { m.nvar(var) };
                cube = m.and(cube, lit)?;
            }
            Ok(cube)
        }

        /// The selection signal of pin `j`: `t_1^j ∨ … ∨ t_m^j`.
        fn select(&self, m: &mut BddManager, pin_code: usize) -> Result<Bdd, BddError> {
            let mut sel = m.zero();
            for i in 0..self.num_points {
                let t = self.minterm(m, i, pin_code)?;
                sel = m.or(sel, t)?;
            }
            Ok(sel)
        }

        /// The data-1 expression of pin `j`: `(t_1^j → y_1) ∧ … ∧ (t_m^j → y_m)`
        /// (merging multiple selections of the same pin, §4.2).
        fn data1(&self, m: &mut BddManager, pin_code: usize, y_base: u32) -> Result<Bdd, BddError> {
            let mut acc = m.one();
            for i in 0..self.num_points {
                let t = self.minterm(m, i, pin_code)?;
                let nt = m.not(t)?;
                let y = m.var(y_base + i as u32);
                let imp = m.or(nt, y)?;
                acc = m.and(acc, imp)?;
            }
            Ok(acc)
        }
    }

    /// `H(t)` as the direct sample-wise conjunction over the parameterized
    /// cone, with every candidate pin guarded by the MUX of Figure 2 and
    /// `y_base` the first of its `y` variables:
    ///
    /// ```text
    /// H(t) = ⋀_k ∃y ( h|_{x = x̂_k} ≡ f'(x̂_k) )
    /// ```
    ///
    /// The differential oracle of [`MinimalSets`].
    #[allow(clippy::too_many_arguments)]
    fn h_char_by_restriction(
        circuit: &Circuit,
        m: &mut BddManager,
        samples: &[Vec<bool>],
        fprime_bits: &[bool],
        root: NetId,
        output_index: u32,
        pins: &[Pin],
        selection: &Selection,
        y_base: u32,
    ) -> Result<Bdd, BddError> {
        // Precompute per-pin selection and data-1 functions.
        let mut sels = Vec::with_capacity(pins.len());
        let mut data1s = Vec::with_capacity(pins.len());
        for j in 0..pins.len() {
            sels.push(selection.select(m, j)?);
            data1s.push(selection.data1(m, j, y_base)?);
        }

        // Parameterized evaluation: every candidate gate pin is guarded by
        // ite(sel_j, data1_j, original) — the MUX of Figure 2.
        let mut pin_subst: HashMap<Pin, usize> = HashMap::new();
        let mut output_pin_code: Option<usize> = None;
        for (j, &pin) in pins.iter().enumerate() {
            match pin {
                Pin::Gate { .. } => {
                    pin_subst.insert(pin, j);
                }
                Pin::Output { index } if index == output_index => {
                    output_pin_code = Some(j);
                }
                Pin::Output { .. } => {}
            }
        }
        let y_vars: Vec<u32> = (0..selection.num_points)
            .map(|i| y_base + i as u32)
            .collect();
        let y_cube = m.var_cube(&y_vars)?;

        let order = topo::topo_order(circuit).expect("engine guarantees acyclic circuits");
        let in_cone = topo::tfi(circuit, &[root.source()]);
        let cone: Vec<NodeId> = order.into_iter().filter(|id| in_cone[id.index()]).collect();
        // Conjuncts seen before (same `h`, same revised bit) are skipped:
        // `∧` is idempotent, so duplicates cannot change `H(t)`.
        let mut seen: HashSet<(Bdd, bool)> = HashSet::new();

        let mut h_char = m.one();
        let mut values: Vec<Option<Bdd>> = vec![None; circuit.num_nodes()];
        for (k, sample) in samples.iter().enumerate() {
            for &id in &cone {
                let node = circuit.node(id);
                let v = match node.kind() {
                    GateKind::Input => {
                        let pos = circuit
                            .input_position(id)
                            .expect("input node is registered");
                        if sample[pos] {
                            m.one()
                        } else {
                            m.zero()
                        }
                    }
                    kind => {
                        let mut fanins: Vec<Bdd> = Vec::with_capacity(node.fanins().len());
                        for (pos, f) in node.fanins().iter().enumerate() {
                            let orig = values[f.index()].expect("topological order");
                            let v = match pin_subst.get(&Pin::gate(id, pos as u8)) {
                                Some(&j) => m.ite(sels[j], data1s[j], orig)?,
                                None => orig,
                            };
                            fanins.push(v);
                        }
                        crate::sampling::apply_gate_bdd(m, kind, &fanins)?
                    }
                };
                values[id.index()] = Some(v);
            }
            let mut h = values[root.index()].expect("root is in its own cone");
            if let Some(j) = output_pin_code {
                h = m.ite(sels[j], data1s[j], h)?;
            }
            if !seen.insert((h, fprime_bits[k])) {
                continue;
            }
            // h ≡ f'(x̂_k) against a constant is h itself or its complement.
            let eq = if fprime_bits[k] { h } else { m.not(h)? };
            let feasible_k = m.exists(eq, y_cube)?;
            h_char = m.and(h_char, feasible_k)?;
        }
        Ok(h_char)
    }

    impl MinimalSets<'_> {
        /// Every minimal feasible set of at most `max_size` pins as pin
        /// codes, before the topological filter: the empty set alone when
        /// the cone already matches.
        fn all_minimal(&mut self, max_size: usize) -> Vec<Vec<usize>> {
            if self.matches {
                return vec![Vec::new()];
            }
            while self.cursor.size() <= max_size {
                self.step();
            }
            self.found
                .iter()
                .filter(|(set, _)| set.len() <= max_size)
                .map(|(set, _)| set.clone())
                .collect()
        }
    }

    /// impl: y = a AND b (wrong); spec: y = a OR b.
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

    /// Packs one bit per sample into one word per 64-sample block.
    fn pack(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (k, &bit) in bits.iter().enumerate() {
            words[k / 64] |= u64::from(bit) << (k % 64);
        }
        words
    }

    /// Seeds of [`Instance::random`]: 40 single-block instances, then 10
    /// that span several blocks.
    const SEEDS: std::ops::Range<u64> = 0..50;

    /// A random cone of 4–10 gates, samples, revised bits, and its
    /// candidate pins.
    struct Instance {
        circuit: Circuit,
        root: NetId,
        samples: Vec<Vec<bool>>,
        fprime_bits: Vec<bool>,
        pins: Vec<Pin>,
        sim: Compiled,
        words: Simulated,
        /// `fprime_bits` packed per block.
        fprime: Vec<u64>,
    }

    impl Instance {
        /// Below seed 40: 3–5 inputs and 2–6 samples (one partial block)
        /// with random revised bits. From seed 40: 8–10 inputs and 65–130
        /// samples (two or three blocks). Random bits
        /// over that many samples would leave only the output pin feasible,
        /// so the first block's bits are the unmodified cone's, and the
        /// later blocks' come from the cone with one to three random gate
        /// pins driven by random values: only the later blocks decide
        /// feasibility.
        fn random(seed: u64) -> Self {
            let wide = seed >= 40;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut c = Circuit::new("rnd");
            let num_inputs = if wide {
                rng.gen_range(8..=10)
            } else {
                rng.gen_range(3..=5)
            };
            let mut nets: Vec<_> = (0..num_inputs)
                .map(|i| c.add_input(format!("x{i}")))
                .collect();
            let kinds = [
                GateKind::And,
                GateKind::Or,
                GateKind::Xor,
                GateKind::Nand,
                GateKind::Nor,
                GateKind::Not,
            ];
            for _ in 0..rng.gen_range(4..=10) {
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let arity = if kind == GateKind::Not { 1 } else { 2 };
                let fanins: Vec<_> = (0..arity)
                    .map(|_| nets[rng.gen_range(0..nets.len())])
                    .collect();
                nets.push(c.add_gate(kind, &fanins).unwrap());
            }
            let root = *nets.last().unwrap();
            c.add_output("y", root);

            let num_samples = if wide {
                rng.gen_range(65..=130)
            } else {
                rng.gen_range(2..=6)
            };
            let samples: Vec<Vec<bool>> = (0..num_samples)
                .map(|_| (0..num_inputs).map(|_| rng.gen()).collect())
                .collect();
            let mut inst = Instance::new(c, samples, 10);
            let fprime_bits = if wide {
                let gate_pins = &inst.pins[..inst.pins.len() - 1];
                let driven: Vec<Pin> = (0..rng.gen_range(1..=3))
                    .map(|_| gate_pins[rng.gen_range(0..gate_pins.len())])
                    .collect();
                (0..num_samples)
                    .map(|k| {
                        let forced: Vec<(Pin, bool)> = match k {
                            0..=63 => Vec::new(),
                            _ => driven.iter().map(|&p| (p, rng.gen())).collect(),
                        };
                        inst.eval_forced(&inst.samples[k], &forced)
                    })
                    .collect()
            } else {
                (0..num_samples).map(|_| rng.gen()).collect()
            };
            inst.revise(fprime_bits);
            inst
        }

        /// The cone of `circuit`'s only output over `samples`, with at most
        /// `max_pins` candidate pins and no revised bits yet.
        fn new(circuit: Circuit, samples: Vec<Vec<bool>>, max_pins: usize) -> Self {
            let root = circuit.outputs()[0].net();
            let pins = candidate_pins(&circuit, root, 0, max_pins);
            let sim = Compiled::new(&circuit).unwrap();
            let words = sim.simulate_all(&samples).unwrap();
            Instance {
                circuit,
                root,
                samples,
                fprime_bits: Vec::new(),
                pins,
                sim,
                words,
                fprime: Vec::new(),
            }
        }

        /// Sets the revised output bits, one per sample.
        fn revise(&mut self, fprime_bits: Vec<bool>) {
            self.fprime = pack(&fprime_bits);
            self.fprime_bits = fprime_bits;
        }

        fn sets(&self) -> MinimalSets<'_> {
            MinimalSets::new(
                &self.circuit,
                &self.sim,
                &self.words,
                &self.fprime,
                0,
                &self.pins,
            )
        }

        /// The cone's output on `sample` with every pin of `forced` driven
        /// by a constant — the output pin drives the output itself — by
        /// plain scalar evaluation.
        fn eval_forced(&self, sample: &[bool], forced: &[(Pin, bool)]) -> bool {
            if let Some(&(_, v)) = forced.iter().find(|(p, _)| p.node().is_none()) {
                return v;
            }
            let c = &self.circuit;
            let mut value = vec![false; c.num_nodes()];
            for id in topo::topo_order(c).unwrap() {
                let node = c.node(id);
                value[id.index()] = match node.kind() {
                    GateKind::Input => sample[c.input_position(id).unwrap()],
                    kind => {
                        let fanins: Vec<bool> = node
                            .fanins()
                            .iter()
                            .enumerate()
                            .map(|(pos, f)| {
                                forced
                                    .iter()
                                    .find(|(p, _)| *p == Pin::gate(id, pos as u8))
                                    .map_or(value[f.index()], |&(_, v)| v)
                            })
                            .collect();
                        kind.eval(&fanins)
                    }
                };
            }
            value[self.root.index()]
        }

        /// Brute force: some values of the freed `pins` match `f'` on
        /// every sample.
        fn feasible(&self, pins: &[Pin]) -> bool {
            self.samples
                .iter()
                .zip(&self.fprime_bits)
                .all(|(x, &want)| {
                    (0..1u32 << pins.len()).any(|v| {
                        let forced: Vec<(Pin, bool)> = pins
                            .iter()
                            .enumerate()
                            .map(|(b, &p)| (p, (v >> b) & 1 == 1))
                            .collect();
                        self.eval_forced(x, &forced) == want
                    })
                })
        }
    }

    #[test]
    fn candidate_pins_include_output_last() {
        let (c, _) = and_vs_or();
        let root = c.outputs()[0].net();
        let pins = candidate_pins(&c, root, 0, 8);
        assert_eq!(*pins.last().unwrap(), Pin::output(0));
        assert_eq!(pins.len(), 3); // two AND pins + output pin
    }

    #[test]
    fn candidate_pins_respect_cap() {
        let mut c = Circuit::new("big");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let mut w = a;
        for _ in 0..20 {
            w = c.add_gate(GateKind::And, &[w, b]).unwrap();
        }
        c.add_output("y", w);
        let pins = candidate_pins(&c, w, 0, 10);
        assert_eq!(pins.len(), 10);
        assert_eq!(*pins.last().unwrap(), Pin::output(0));
    }

    #[test]
    fn selection_encoding_counts() {
        let sel = Selection::new(4, 3, 10);
        assert_eq!(sel.bits_per_block, 4);
        assert_eq!(sel.num_t_vars(), 12);
        assert_eq!(sel.block_vars(1), vec![8, 9, 10, 11]);
    }

    #[test]
    fn selection_minterms_are_disjoint() {
        let mut m = BddManager::new();
        let sel = Selection::new(0, 2, 4);
        let t00 = sel.minterm(&mut m, 0, 0).unwrap();
        let t01 = sel.minterm(&mut m, 0, 1).unwrap();
        assert_eq!(m.and(t00, t01).unwrap(), m.zero());
        // All codes of a block cover the space.
        let mut cover = m.zero();
        for code in 0..4 {
            let t = sel.minterm(&mut m, 0, code).unwrap();
            cover = m.or(cover, t).unwrap();
        }
        assert_eq!(cover, m.one());
    }

    /// The and-vs-or example on its error domain `a != b`: one free AND pin
    /// still sees the other input force 0, so only the output pin works
    /// alone, and the two AND pins work together.
    #[test]
    fn point_sets_found_for_simple_revision() {
        let (c, s) = and_vs_or();
        let root = c.outputs()[0].net();
        // Error domain of and-vs-or: a != b. Use both samples.
        let samples = vec![vec![true, false], vec![false, true]];
        let pins = candidate_pins(&c, root, 0, 8);
        // Spec shares input order here: f'(x̂_k) per sample.
        let fprime_bits: Vec<bool> = samples
            .iter()
            .map(|x| s.eval_nets(x).unwrap()[s.outputs()[0].net().index()])
            .collect();
        let sim = Compiled::new(&c).unwrap();
        let words = sim.simulate_all(&samples).unwrap();
        let fprime = pack(&fprime_bits);
        let mut sets = MinimalSets::new(&c, &sim, &words, &fprime, 0, &pins);
        assert_eq!(sets.of_size(1, 8), vec![vec![Pin::output(0)]]);
        assert_eq!(sets.of_size(2, 8), vec![pins[..2].to_vec()]);
        assert!(sets.of_size(3, 8).is_empty());
    }

    /// A cone that already matches `f'` on every sample has the empty set
    /// as its only minimal set: size 1 gives the gate-pin singletons in pin
    /// order, capped like any other query, and larger sizes nothing.
    #[test]
    fn equivalent_pair_admits_trivial_selection() {
        let (c, _) = and_vs_or();
        let s = c.clone();
        let root = c.outputs()[0].net();
        let samples = vec![vec![true, true], vec![false, true]];
        let pins = candidate_pins(&c, root, 0, 8);
        let fprime_bits: Vec<bool> = samples
            .iter()
            .map(|x| s.eval_nets(x).unwrap()[s.outputs()[0].net().index()])
            .collect();
        let gate_singles: Vec<PointSet> = pins
            .iter()
            .filter(|p| p.node().is_some())
            .map(|&p| vec![p])
            .collect();
        assert_eq!(gate_singles.len(), 2);
        let sim = Compiled::new(&c).unwrap();
        let words = sim.simulate_all(&samples).unwrap();
        let fprime = pack(&fprime_bits);
        let mut sets = MinimalSets::new(&c, &sim, &words, &fprime, 0, &pins);
        assert_eq!(sets.of_size(1, 8), gate_singles);
        assert_eq!(sets.of_size(1, 1), gate_singles[..1]);
        assert!(sets.of_size(2, 8).is_empty());
        assert!(sets.of_size(3, 8).is_empty());
    }

    /// ORing the full minimal-set list (before the topological filter and
    /// the cap) into `⋁_S ⋀_{j∈S} sel_j(t)` gives the very BDD the
    /// restriction-driven `H(t)` construction does: the manager is
    /// canonical, so semantic equality is handle identity. One enumerator
    /// serves every selection size the engine escalates through.
    #[test]
    fn simulation_and_restriction_h_agree() {
        for seed in SEEDS {
            let inst = Instance::random(seed);
            let mut sets = inst.sets();
            for m_points in 1..=3usize {
                let sel = Selection::new(0, m_points, inst.pins.len());
                let mut m = BddManager::new();
                let mut fast = m.zero();
                for set in sets.all_minimal(m_points) {
                    let mut term = m.one();
                    for j in set {
                        let s = sel.select(&mut m, j).unwrap();
                        term = m.and(term, s).unwrap();
                    }
                    fast = m.or(fast, term).unwrap();
                }
                let slow = h_char_by_restriction(
                    &inst.circuit,
                    &mut m,
                    &inst.samples,
                    &inst.fprime_bits,
                    inst.root,
                    0,
                    &inst.pins,
                    &sel,
                    sel.num_t_vars(),
                )
                .unwrap();
                assert_eq!(
                    fast, slow,
                    "H(t) constructions diverge: seed {seed}, m {m_points}"
                );
            }
        }
    }

    /// Every returned set is feasible by scalar evaluation of the cone with
    /// its pins forced, and none of its proper subsets is.
    #[test]
    fn returned_sets_are_minimal_by_brute_force() {
        // Sets checked per size.
        let mut checked = [0usize; 3];
        for seed in SEEDS {
            let inst = Instance::random(seed);
            if inst.feasible(&[]) {
                continue; // the matching cone is the next test's case
            }
            let mut sets = inst.sets();
            for (i, count) in checked.iter_mut().enumerate() {
                for set in sets.of_size(i + 1, usize::MAX) {
                    assert!(inst.feasible(&set), "seed {seed}: {set:?} infeasible");
                    for sub in 0..(1u32 << set.len()) - 1 {
                        let subset: Vec<Pin> = (0..set.len())
                            .filter(|&b| (sub >> b) & 1 == 1)
                            .map(|b| set[b])
                            .collect();
                        assert!(
                            !inst.feasible(&subset),
                            "seed {seed}: {set:?} not minimal, {subset:?} is feasible"
                        );
                    }
                    *count += 1;
                }
            }
        }
        assert!(
            checked.iter().all(|&n| n > 0),
            "every size is exercised: {checked:?}"
        );
    }

    /// Sets come in (size, pin order), each sorted, every multi-pin set
    /// path-free; asking for at most `k` sets returns exactly the first `k`
    /// of the uncapped list, and a capped query leaves later ones whole.
    #[test]
    fn sets_come_in_pin_order_and_caps_take_a_prefix() {
        for seed in SEEDS {
            let inst = Instance::random(seed);
            let code = |set: &PointSet| -> Vec<usize> {
                let mut codes: Vec<usize> = set
                    .iter()
                    .map(|p| inst.pins.iter().position(|q| q == p).unwrap())
                    .collect();
                codes.sort_unstable();
                codes
            };
            let mut full = inst.sets();
            let lists: Vec<Vec<PointSet>> = (1..=3).map(|s| full.of_size(s, usize::MAX)).collect();
            for (i, list) in lists.iter().enumerate() {
                for set in list {
                    assert_eq!(set.len(), i + 1);
                    assert!(set.windows(2).all(|w| w[0] < w[1]), "{set:?} unsorted");
                    assert!(topological_constraint_ok(&inst.circuit, set));
                }
                assert!(
                    list.windows(2).all(|w| code(&w[0]) < code(&w[1])),
                    "seed {seed}: size {} out of pin order: {list:?}",
                    i + 1
                );
            }
            // Capped before and after the uncapped queries: the cap holds
            // whether or not the enumeration has already gone further.
            for k in 0..=4 {
                let mut capped = inst.sets();
                for cap in [k, usize::MAX, k] {
                    for (i, list) in lists.iter().enumerate() {
                        assert_eq!(
                            capped.of_size(i + 1, cap),
                            list[..cap.min(list.len())],
                            "seed {seed}: size {} capped at {cap}",
                            i + 1
                        );
                    }
                }
            }
        }
    }

    /// On a single-fanout AND chain every pin below the last gate has a
    /// dominator: its consumer's only sink. `f′` drops three of the chain's
    /// side inputs, so no gate pin fixes it alone, and only pairs and
    /// triples do. The enumeration finds exactly the brute-force minimal
    /// sets, and simulates fewer subsets than it examines uncovered.
    #[test]
    fn pin_dominance_skips_infeasible_subsets() {
        let mut c = Circuit::new("chain");
        let x: Vec<NetId> = (0..7).map(|i| c.add_input(format!("x{i}"))).collect();
        let mut gates = Vec::new();
        let mut w = x[0];
        for &side in &x[1..] {
            w = c.add_gate(GateKind::And, &[w, side]).unwrap();
            gates.push(w.source());
        }
        c.add_output("y", w);
        let samples: Vec<Vec<bool>> = (0..128u32)
            .map(|v| (0..7).map(|i| (v >> i) & 1 == 1).collect())
            .collect();
        let mut inst = Instance::new(c, samples, 16);
        let dropped: Vec<(Pin, bool)> = [0, 2, 5]
            .iter()
            .map(|&g| (Pin::gate(gates[g], 1), true))
            .collect();
        let fprime_bits = inst
            .samples
            .iter()
            .map(|x| inst.eval_forced(x, &dropped))
            .collect();
        inst.revise(fprime_bits);

        // Brute force over the gate pins' subsets, by size and then in pin
        // order: a subset is minimal when it is feasible and holds no
        // minimal set found before it.
        let gate_pins = inst.pins.len() - 1;
        let mut minimal: Vec<Vec<usize>> = Vec::new();
        let mut uncovered = 0;
        for size in 1..=3 {
            let mut idx: Vec<usize> = (0..size).collect();
            loop {
                if !minimal.iter().any(|m| m.iter().all(|j| idx.contains(j))) {
                    uncovered += usize::from(size > 1);
                    let points: Vec<Pin> = idx.iter().map(|&j| inst.pins[j]).collect();
                    if inst.feasible(&points) {
                        minimal.push(idx.clone());
                    }
                }
                if !next_combination(&mut idx, gate_pins) {
                    break;
                }
            }
        }
        assert!(minimal.iter().all(|m| m.len() > 1), "{minimal:?}");
        assert!(minimal.iter().any(|m| m.len() == 3), "{minimal:?}");

        let mut sets = inst.sets();
        let mut expected = vec![vec![gate_pins]]; // the output pin alone
        expected.extend(minimal);
        assert_eq!(sets.all_minimal(3), expected);
        assert!(
            sets.simulated < uncovered,
            "{} of {uncovered} uncovered subsets simulated",
            sets.simulated
        );
    }

    #[test]
    fn next_combination_enumerates_all_subsets() {
        let mut idx = vec![0usize, 1, 2];
        let mut count = 1;
        while next_combination(&mut idx, 6) {
            count += 1;
        }
        assert_eq!(count, 20); // C(6,3)
    }

    #[test]
    fn topological_constraint_rejects_chained_pins() {
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Or, &[g1, b]).unwrap();
        c.add_output("y", g2);
        // Pins on g1 and g2: g1 feeds g2, so the pair is rejected.
        let p1 = Pin::gate(g1.source(), 0);
        let p2 = Pin::gate(g2.source(), 0);
        assert!(!topological_constraint_ok(&c, &[p1, p2]));
        // Sibling pins of the same gate have no path between them.
        let p3 = Pin::gate(g2.source(), 1);
        assert!(topological_constraint_ok(&c, &[p2, p3]));
        // Output pin combined with a gate pin is rejected.
        assert!(!topological_constraint_ok(&c, &[p1, Pin::output(0)]));
    }
}
