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
//! built. The Figure 2 construction stays in the test module as the
//! differential oracle.

use eco_netlist::{topo, Circuit, GateKind, NetId, NodeId, Pin};

/// Most gate pins [`MinimalSets`] accepts: it tracks each one as a bit of a
/// `u128` mask.
pub const MAX_GATE_PINS: usize = 128;
/// Most pins in one set [`MinimalSets`] enumerates: it tracks the pins of
/// one freed subset as bits of a `u8` mask.
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

/// 64 samples packed for simulation: one word per primary input, the
/// revised output bits, and the mask of the bits that hold a sample.
struct Block {
    patterns: Vec<u64>,
    fprime: u64,
    mask: u64,
}

/// One fanin read in a re-simulated slice: the block baseline, the
/// freed-subset scratch, or a forced constant driven by a `v` bit.
#[derive(Clone, Copy)]
enum Src {
    Base(u32),
    Scratch(u32),
    Forced(u8),
}

/// One gate of a compiled re-simulation slice.
struct TapeOp {
    dst: u32,
    kind: GateKind,
    off: u32,
    len: u32,
    /// Subset-local bits of the freed pins this node depends on.
    dep: u8,
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
/// sets by mask. Only the freed pins' transitive fanout is re-simulated, on
/// top of a baseline evaluated once per block. An output pin is trivially
/// feasible alone (drive `y = f'`); output pins of *other* outputs free
/// nothing in this cone and never appear.
///
/// The cone order, fanout masks, packed samples and baselines are built
/// once. The enumeration state — the pool, the multi-pin minimal masks and
/// the next subset to examine — persists across [`of_size`](Self::of_size)
/// queries, so each subset is checked at most once. The engine's caps
/// (`m ≤ 3`, at most 47 gate pins) bound the enumeration at
/// `C(47,1) + C(47,2) + C(47,3) = 17,343` subsets.
pub struct MinimalSets<'c> {
    circuit: &'c Circuit,
    pins: &'c [Pin],
    root: NetId,
    /// Codes (positions in `pins`) of the gate pins; a pin's position here
    /// is its mask bit.
    gate_pins: Vec<usize>,
    /// Code of this output's own pin.
    out_code: Option<usize>,
    /// The cone's nodes in topological order.
    cone: Vec<NodeId>,
    /// Bit `b` of `tfo_mask[id]` says that freeing gate pin `gate_pins[b]`
    /// can change node `id`: the pin's consumer itself, or anything
    /// downstream of it. Within a cone every node reaches the root, so the
    /// root carries every bit.
    tfo_mask: Vec<u128>,
    /// Cone positions of each gate pin's fanout slice, ascending (= topo
    /// order).
    pin_tfo: Vec<Vec<u32>>,
    blocks: Vec<Block>,
    /// Every cone node's unmodified value, per block.
    baselines: Vec<Vec<u64>>,
    /// The unmodified cone already matches `f'` on every sample.
    matches: bool,
    /// Gate pins whose singleton is infeasible, as (pin code, mask bit).
    pool: Vec<(usize, usize)>,
    /// Minimal sets found so far as pin codes, in enumeration order, each
    /// with whether it passes the topological constraint.
    found: Vec<(Vec<usize>, bool)>,
    /// Masks of the multi-pin minimal sets.
    multi_masks: Vec<u128>,
    cursor: Cursor,
    // Re-simulation scratch, reused across checks.
    words: Vec<u64>,
    slice: Vec<u32>,
    tape: Vec<TapeOp>,
    srcs: Vec<Src>,
    buf: Vec<u64>,
}

impl<'c> MinimalSets<'c> {
    /// Prepares the enumeration for the cone of `root`.
    ///
    /// Arguments:
    /// * `samples` — the domain's assignments, implementation input order,
    /// * `fprime_bits` — the revised output value `f'(x̂_k)` per sample
    ///   (see [`SamplingDomain::code_assignment`](crate::sampling::SamplingDomain::code_assignment)),
    /// * `pins` — candidate pins from [`candidate_pins`].
    ///
    /// # Panics
    ///
    /// Panics when `fprime_bits.len() != samples.len()` or when more than
    /// [`MAX_GATE_PINS`] (128) of `pins` are gate pins.
    pub fn new(
        circuit: &'c Circuit,
        samples: &[Vec<bool>],
        fprime_bits: &[bool],
        root: NetId,
        output_index: u32,
        pins: &'c [Pin],
    ) -> Self {
        assert_eq!(
            fprime_bits.len(),
            samples.len(),
            "one revised-output bit per sample"
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

        let order = topo::topo_order(circuit).expect("engine guarantees acyclic circuits");
        let in_cone = topo::tfi(circuit, &[root.source()]);
        let cone: Vec<NodeId> = order.into_iter().filter(|id| in_cone[id.index()]).collect();

        let mut tfo_mask = vec![0u128; circuit.num_nodes()];
        for (b, &j) in gate_pins.iter().enumerate() {
            if let Pin::Gate { node, .. } = pins[j] {
                tfo_mask[node.index()] |= 1u128 << b;
            }
        }
        for &id in &cone {
            let mut mask = tfo_mask[id.index()];
            for f in circuit.node(id).fanins() {
                mask |= tfo_mask[f.index()];
            }
            tfo_mask[id.index()] = mask;
        }
        let mut pin_tfo: Vec<Vec<u32>> = vec![Vec::new(); gate_pins.len()];
        for (ci, &id) in cone.iter().enumerate() {
            let mut mask = tfo_mask[id.index()];
            while mask != 0 {
                pin_tfo[mask.trailing_zeros() as usize].push(ci as u32);
                mask &= mask - 1;
            }
        }

        let blocks: Vec<Block> = samples
            .chunks(64)
            .zip(fprime_bits.chunks(64))
            .map(|(chunk, bits)| {
                let mut patterns = vec![0u64; circuit.num_inputs()];
                let mut fprime = 0u64;
                for (j, a) in chunk.iter().enumerate() {
                    for (i, p) in patterns.iter_mut().enumerate() {
                        if a.get(i).copied().unwrap_or(false) {
                            *p |= 1u64 << j;
                        }
                    }
                    if bits[j] {
                        fprime |= 1u64 << j;
                    }
                }
                let mask = if chunk.len() == 64 {
                    !0u64
                } else {
                    (1u64 << chunk.len()) - 1
                };
                Block {
                    patterns,
                    fprime,
                    mask,
                }
            })
            .collect();

        let mut buf: Vec<u64> = Vec::with_capacity(4);
        let baselines: Vec<Vec<u64>> = blocks
            .iter()
            .map(|block| {
                let mut words = vec![0u64; circuit.num_nodes()];
                for &id in &cone {
                    let node = circuit.node(id);
                    words[id.index()] = match node.kind() {
                        GateKind::Input => {
                            let pos = circuit
                                .input_position(id)
                                .expect("input node is registered");
                            block.patterns[pos]
                        }
                        kind => {
                            buf.clear();
                            buf.extend(node.fanins().iter().map(|f| words[f.index()]));
                            kind.eval64(&buf)
                        }
                    };
                }
                words
            })
            .collect();
        let matches = baselines
            .iter()
            .zip(&blocks)
            .all(|(base, block)| (base[root.index()] ^ block.fprime) & block.mask == 0);

        MinimalSets {
            circuit,
            pins,
            root,
            gate_pins,
            out_code,
            cone,
            tfo_mask,
            pin_tfo,
            blocks,
            baselines,
            matches,
            pool: Vec::new(),
            found: Vec::new(),
            multi_masks: Vec::new(),
            cursor: Cursor::Single(0),
            words: vec![0u64; circuit.num_nodes()],
            slice: Vec::new(),
            tape: Vec::new(),
            srcs: Vec::new(),
            buf,
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
                // Covered iff some recorded minimal set is a subset of this one.
                let covered = self.multi_masks.iter().any(|&mm| mm & !sel_mask == 0);
                let mut kept = false;
                if !covered {
                    let set: Vec<usize> = idx.iter().map(|&i| self.pool[i].0).collect();
                    let bits: Vec<usize> = idx.iter().map(|&i| self.pool[i].1).collect();
                    if self.feasible(&set, &bits) {
                        let points: PointSet = set.iter().map(|&j| self.pins[j]).collect();
                        kept = topological_constraint_ok(self.circuit, &points);
                        self.found.push((set, kept));
                        self.multi_masks.push(sel_mask);
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

    /// The cursor at the first `size`-combination of the pool.
    fn first_of(&self, size: usize) -> Cursor {
        if size <= self.pool.len().min(MAX_SUBSET_SIZE) {
            Cursor::Multi((0..size).collect())
        } else {
            Cursor::Done
        }
    }

    /// Whether freeing the gate pins `set` (pin codes, with mask bits
    /// `bits`) lets the cone match `f'` on every sample: for each block, OR
    /// the match words over all value combinations of the freed pins, then
    /// require every sample bit.
    fn feasible(&mut self, set: &[usize], bits: &[usize]) -> bool {
        let sel_mask = bits.iter().fold(0u128, |acc, &b| acc | (1u128 << b));
        let slice = &mut self.slice;
        slice.clear();
        match bits {
            [b] => slice.extend_from_slice(&self.pin_tfo[*b]),
            _ => {
                // Merge the (sorted) per-pin slices, keeping topo order.
                for &b in bits {
                    slice.extend_from_slice(&self.pin_tfo[b]);
                }
                slice.sort_unstable();
                slice.dedup();
            }
        }
        // Compile the slice into a flat tape so the per-`v` replays do no
        // override or membership lookups.
        self.tape.clear();
        self.srcs.clear();
        for &ci in slice.iter() {
            let id = self.cone[ci as usize];
            let node = self.circuit.node(id);
            let off = self.srcs.len() as u32;
            'fanin: for (pos, f) in node.fanins().iter().enumerate() {
                for (b, &j) in set.iter().enumerate() {
                    if let Pin::Gate { node: n, pos: p } = self.pins[j] {
                        if n == id && p as usize == pos {
                            self.srcs.push(Src::Forced(b as u8));
                            continue 'fanin;
                        }
                    }
                }
                self.srcs.push(if self.tfo_mask[f.index()] & sel_mask != 0 {
                    Src::Scratch(f.index() as u32)
                } else {
                    Src::Base(f.index() as u32)
                });
            }
            let mask = self.tfo_mask[id.index()];
            let mut dep = 0u8;
            for (b, &gb) in bits.iter().enumerate() {
                if mask & (1u128 << gb) != 0 {
                    dep |= 1 << b;
                }
            }
            self.tape.push(TapeOp {
                dst: id.index() as u32,
                kind: node.kind(),
                off,
                len: (self.srcs.len() as u32) - off,
                dep,
            });
        }
        let srcs = &self.srcs;
        let exec = |op: &TapeOp, v: u64, base: &[u64], words: &mut [u64], buf: &mut Vec<u64>| {
            buf.clear();
            for src in &srcs[op.off as usize..(op.off + op.len) as usize] {
                buf.push(match *src {
                    Src::Base(i) => base[i as usize],
                    Src::Scratch(i) => words[i as usize],
                    Src::Forced(b) => {
                        if (v >> b) & 1 == 1 {
                            !0u64
                        } else {
                            0u64
                        }
                    }
                });
            }
            words[op.dst as usize] = op.kind.eval64(buf);
        };
        let (words, buf) = (&mut self.words, &mut self.buf);
        let root = self.root.index();
        // Gray-code sweep over the 2^s value combinations: consecutive
        // steps toggle one pin, so only tape ops depending on that pin
        // replay — the rest of the scratch slice stays valid.
        for (base, block) in self.baselines.iter().zip(&self.blocks) {
            let mut ok = 0u64;
            let mut v = 0u64;
            for op in &self.tape {
                exec(op, v, base, words, buf);
            }
            ok |= !(words[root] ^ block.fprime);
            for step in 1..(1u64 << set.len()) {
                if ok & block.mask == block.mask {
                    break;
                }
                let toggled = step.trailing_zeros();
                v ^= 1u64 << toggled;
                let tbit = 1u8 << toggled;
                for op in &self.tape {
                    if op.dep & tbit != 0 {
                        exec(op, v, base, words, buf);
                    }
                }
                ok |= !(words[root] ^ block.fprime);
            }
            if ok & block.mask != block.mask {
                return false;
            }
        }
        true
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

    /// A random cone of 4–10 gates over 3–5 inputs, 2–6 samples with random
    /// revised bits, and its candidate pins.
    struct Instance {
        circuit: Circuit,
        root: NetId,
        samples: Vec<Vec<bool>>,
        fprime_bits: Vec<bool>,
        pins: Vec<Pin>,
    }

    impl Instance {
        fn random(seed: u64) -> Self {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut c = Circuit::new("rnd");
            let num_inputs = rng.gen_range(3..=5);
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

            let samples: Vec<Vec<bool>> = (0..rng.gen_range(2..=6))
                .map(|_| (0..num_inputs).map(|_| rng.gen()).collect())
                .collect();
            let fprime_bits: Vec<bool> = samples.iter().map(|_| rng.gen()).collect();
            let pins = candidate_pins(&c, root, 0, 10);
            Instance {
                circuit: c,
                root,
                samples,
                fprime_bits,
                pins,
            }
        }

        fn sets(&self) -> MinimalSets<'_> {
            MinimalSets::new(
                &self.circuit,
                &self.samples,
                &self.fprime_bits,
                self.root,
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
        let mut sets = MinimalSets::new(&c, &samples, &fprime_bits, root, 0, &pins);
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
        let mut sets = MinimalSets::new(&c, &samples, &fprime_bits, root, 0, &pins);
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
        for seed in 0..40u64 {
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
        for seed in 0..40u64 {
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
        for seed in 0..40u64 {
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
