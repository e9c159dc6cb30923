//! Feasible rectification point-sets (paper §4.2).
//!
//! Every candidate sink pin `q_j` is guarded by a conceptual multiplexer
//! (Figure 2): selection variables `t_i` — one binary-encoded block per
//! rectification point `y_i` — steer which pins become free inputs. The
//! characteristic function
//!
//! ```text
//! H(t) = ∀x ∃y ( h(x, y, t) ≡ f'(x) )
//! ```
//!
//! computed here in the sampling domain (`x` overloaded with `g(z)`),
//! describes *all* feasible point-sets of size at most `m`; its prime cubes
//! seed the explicit candidate lists handed to the rewiring-choice search.

use std::collections::HashMap;

use eco_bdd::{Bdd, BddError, BddManager, Cube};
use eco_netlist::{topo, Circuit, GateKind, NetId, NodeId, Pin};

/// Most gate pins [`feasible_point_sets`] accepts: the `H(t)` build tracks
/// each one as a bit of a `u128` mask.
pub const MAX_GATE_PINS: usize = 128;
/// Most rectification points [`feasible_point_sets`] accepts: the `H(t)`
/// build tracks the pins of one freed subset as bits of a `u8` mask.
pub const MAX_SUBSET_SIZE: usize = 8;

/// Variables of one binary-encoded block over `n >= 2` codes: `⌈log2 n⌉`.
pub(crate) const fn block_bits(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}

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

/// The `t`-variable blocks of the parameterized selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// First `t` variable index.
    pub t_base: u32,
    /// Bits per block: `⌈log2 M⌉`.
    pub bits_per_block: u32,
    /// Number of rectification points `m` (one block each).
    pub num_points: usize,
    /// Number of candidate pins `M`.
    pub num_pins: usize,
}

impl Selection {
    /// Creates the encoding for `num_points` points over `num_pins` pins.
    pub fn new(t_base: u32, num_points: usize, num_pins: usize) -> Self {
        Selection {
            t_base,
            bits_per_block: block_bits(num_pins.max(2)),
            num_points,
            num_pins,
        }
    }

    /// Total `t` variables: `m · ⌈log2 M⌉` (the count derived in §4.2).
    pub fn num_t_vars(&self) -> u32 {
        self.bits_per_block * self.num_points as u32
    }

    /// The variable indices of block `i`.
    pub fn block_vars(&self, i: usize) -> Vec<u32> {
        let start = self.t_base + self.bits_per_block * i as u32;
        (start..start + self.bits_per_block).collect()
    }

    /// The minterm `t_i^j` ("big-endian" bit order, §4.1).
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the manager budget is exhausted.
    pub fn minterm(&self, m: &mut BddManager, block: usize, code: usize) -> Result<Bdd, BddError> {
        let vars = self.block_vars(block);
        let bits = self.bits_per_block;
        let mut cube = m.one();
        for (b, &var) in vars.iter().enumerate() {
            let bit = (code >> (bits as usize - 1 - b)) & 1 == 1;
            let lit = if bit { m.var(var) } else { m.nvar(var) };
            cube = m.and(cube, lit)?;
        }
        Ok(cube)
    }

    /// The selection signal of pin `j`: `t_1^j ∨ … ∨ t_m^j`.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the manager budget is exhausted.
    pub fn select(&self, m: &mut BddManager, pin_code: usize) -> Result<Bdd, BddError> {
        let mut sel = m.zero();
        for i in 0..self.num_points {
            let t = self.minterm(m, i, pin_code)?;
            sel = m.or(sel, t)?;
        }
        Ok(sel)
    }

    /// The data-1 expression of pin `j`: `(t_1^j → y_1) ∧ … ∧ (t_m^j → y_m)`
    /// (merging multiple selections of the same pin, §4.2). Only the
    /// restriction-driven test oracle builds it.
    #[cfg(test)]
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

/// A decoded candidate point-set: the pins a prime cube of `H(t)` admits.
pub type PointSet = Vec<Pin>;

/// Computes `H(t)` over the sampling domain and decodes its prime cubes
/// into explicit candidate point-sets.
///
/// `H(t) = ∀z ∃y (h(z, y, t) ≡ f'(z))` is evaluated **sample-wise**: the
/// only `z`-dependence of the parameterized cone `h` is through the
/// sampling functions `g(z)`, so restricting `z` to one code collapses
/// every unguarded signal to a constant and the universal quantifier
/// becomes a conjunction of per-sample feasibility functions
///
/// ```text
/// H(t) = ⋀_k ∃y ( h|_{x = x̂_k} ≡ f'(x̂_k) )
/// ```
///
/// each living in the small `(t, y)` space, and never materializing the
/// monolithic mixed-`(t, y, z)` diagram.
///
/// The construction is **simulation-driven** (`h_char_by_simulation`):
/// per sample, `H` at a selection `t` depends only on the *set* `S` of pins
/// `t` frees, the freed pins take every value combination (distinct pins
/// use disjoint `y` variables), and feasibility is monotone in `S` —
/// freeing an extra pin can always re-drive its original value. So the
/// minimal feasible pin-sets are found with 64-wide bit-parallel cone
/// simulation and `H(t) = ⋁_S ⋀_{j∈S} sel_j(t)` is assembled from the tiny
/// per-pin selection BDDs, with no per-sample BDD work and no `y`
/// variables. The direct sample-wise conjunction above
/// (`h_char_by_restriction`) is kept as its test oracle: both yield the
/// same canonical BDD.
///
/// Arguments:
/// * `samples` — the domain's assignments, implementation input order,
/// * `fprime_bits` — the revised output value `f'(x̂_k)` per sample
///   (see [`SamplingDomain::code_assignment`](crate::sampling::SamplingDomain::code_assignment)),
/// * `pins` — candidate pins from [`candidate_pins`].
///
/// Returns point-sets sorted by size (smallest first), each satisfying the
/// topological constraint of §3.3 (no path between any pair of pins).
///
/// # Errors
///
/// [`BddError::NodeLimit`] when the manager budget is exhausted — callers
/// retry with fewer candidate pins or fall back to output rewiring.
///
/// # Panics
///
/// Panics when `fprime_bits.len() != samples.len()`, when more than
/// [`MAX_GATE_PINS`] (128) of `pins` are gate pins, or when `selection`
/// has more than [`MAX_SUBSET_SIZE`] (8) points.
#[allow(clippy::too_many_arguments)]
pub fn feasible_point_sets(
    circuit: &Circuit,
    m: &mut BddManager,
    samples: &[Vec<bool>],
    fprime_bits: &[bool],
    root: NetId,
    output_index: u32,
    pins: &[Pin],
    selection: &Selection,
    max_point_sets: usize,
    max_decodes_per_prime: usize,
) -> Result<Vec<PointSet>, BddError> {
    assert_eq!(
        fprime_bits.len(),
        samples.len(),
        "one revised-output bit per sample"
    );
    let h_char = h_char_by_simulation(
        circuit,
        m,
        samples,
        fprime_bits,
        root,
        output_index,
        pins,
        selection,
    )?;
    if h_char == m.zero() {
        return Ok(Vec::new());
    }

    // Prime cubes of H(t) seed the explicit point-set list.
    let primes = m.prime_cubes(h_char, max_point_sets)?;
    let mut out: Vec<PointSet> = Vec::new();
    for prime in &primes {
        for decoded in decode_prime(selection, prime, pins, max_decodes_per_prime) {
            if decoded.is_empty() {
                continue;
            }
            if !topological_constraint_ok(circuit, &decoded) {
                continue;
            }
            if !out.contains(&decoded) {
                out.push(decoded);
            }
        }
    }
    out.sort_by_key(|ps| ps.len());
    Ok(out)
}

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

/// The simulation-driven `H(t)` construction.
///
/// `H` at a selection `t` depends only on the set `S` of pins `t` frees:
/// distinct freed pins are driven by disjoint `y` variables (a pin chosen
/// by several blocks is driven by the conjunction of *its own* blocks'
/// `y`s), so the freed pins jointly range over all of `{0,1}^S` and
///
/// ```text
/// H(t) = 1  ⟺  ∀k ∃v ∈ {0,1}^S : cone[S←v](x̂_k) = f'(x̂_k),  S = selset(t).
/// ```
///
/// That predicate is monotone in `S` — an extra freed pin can re-drive the
/// value its driver would have produced — so `H` is determined by its
/// *minimal* feasible sets `S` (size ≤ m), found by increasing-size
/// enumeration with bit-parallel simulation, skipping every superset of a
/// set already known feasible. Then
///
/// ```text
/// H(t) = ⋁_{S minimal} ⋀_{j ∈ S} sel_j(t)
/// ```
///
/// since `⋀_{j∈S} sel_j(t) ⟺ S ⊆ selset(t)`. An output pin is trivially
/// feasible alone (drive `y = f'`); output pins of *other* outputs free
/// nothing in this cone and can never appear in a minimal set.
///
/// The engine's caps (`m ≤ 3`, at most 47 gate pins) bound the
/// enumeration at `C(47,1) + C(47,2) + C(47,3) = 17,343` subsets.
///
/// # Panics
///
/// Same bounds as [`feasible_point_sets`].
#[allow(clippy::too_many_arguments)]
fn h_char_by_simulation(
    circuit: &Circuit,
    m: &mut BddManager,
    samples: &[Vec<bool>],
    fprime_bits: &[bool],
    root: NetId,
    output_index: u32,
    pins: &[Pin],
    selection: &Selection,
) -> Result<Bdd, BddError> {
    let m_pts = selection.num_points;
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
        gate_pins.len() <= MAX_GATE_PINS && m_pts <= MAX_SUBSET_SIZE,
        "H(t) tracks at most {MAX_GATE_PINS} gate pins and {MAX_SUBSET_SIZE} points"
    );
    let depth = m_pts.min(gate_pins.len());

    let order = topo::topo_order(circuit).expect("engine guarantees acyclic circuits");
    let in_cone = topo::tfi(circuit, &[root.source()]);
    let cone: Vec<NodeId> = order.into_iter().filter(|id| in_cone[id.index()]).collect();

    // Per-node transitive-fanout masks: bit `b` of `tfo_mask[id]` says that
    // freeing gate pin `gate_pins[b]` can change node `id` — the pin's
    // consumer itself, or anything downstream of it. Within a TFI cone
    // every node reaches the root, so the root carries every bit; for a
    // freed subset only this (typically narrow) slice needs re-simulation
    // on top of a baseline evaluated once per block.
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
    // Cone positions of each pin's fanout slice, ascending (= topo order).
    let mut pin_tfo: Vec<Vec<u32>> = vec![Vec::new(); gate_pins.len()];
    for (ci, &id) in cone.iter().enumerate() {
        let mut mask = tfo_mask[id.index()];
        while mask != 0 {
            pin_tfo[mask.trailing_zeros() as usize].push(ci as u32);
            mask &= mask - 1;
        }
    }

    // Pack the samples and revised-output bits into 64-wide blocks.
    struct Block {
        patterns: Vec<u64>,
        fprime: u64,
        mask: u64,
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

    // Baseline evaluation of the cone, once per block.
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

    // The cone may already match every sample: H is the tautology.
    if baselines
        .iter()
        .zip(&blocks)
        .all(|(base, block)| (base[root.index()] ^ block.fprime) & block.mask == 0)
    {
        return Ok(m.one());
    }
    if m_pts == 0 {
        return Ok(m.zero());
    }

    // ∃v per sample, ∀ samples: for each block, OR the match words over all
    // value combinations of the freed pins, then require every sample bit.
    // Only the freed pins' transitive fanout is re-simulated; everything
    // else reads the block baseline.
    // One fanin read in the re-simulated slice: the block baseline, the
    // freed-subset scratch, or a forced constant driven by a `v` bit.
    #[derive(Clone, Copy)]
    enum Src {
        Base(u32),
        Scratch(u32),
        Forced(u8),
    }
    struct TapeOp {
        dst: u32,
        kind: GateKind,
        off: u32,
        len: u32,
        /// Subset-local bits of the freed pins this node depends on.
        dep: u8,
    }
    let mut scratch = vec![0u64; circuit.num_nodes()];
    let mut tfo: Vec<u32> = Vec::new();
    let mut tape: Vec<TapeOp> = Vec::new();
    let mut srcs: Vec<Src> = Vec::new();
    let mut feasible = |set: &[usize], bits: &[usize]| -> bool {
        let sel_mask = bits.iter().fold(0u128, |acc, &b| acc | (1u128 << b));
        tfo.clear();
        match bits {
            [b] => tfo.extend_from_slice(&pin_tfo[*b]),
            _ => {
                // Merge the (sorted) per-pin slices, keeping topo order.
                for &b in bits {
                    tfo.extend_from_slice(&pin_tfo[b]);
                }
                tfo.sort_unstable();
                tfo.dedup();
            }
        }
        // Compile the slice into a flat tape so the per-`v` replays do no
        // override or membership lookups.
        tape.clear();
        srcs.clear();
        for &ci in &tfo {
            let id = cone[ci as usize];
            let node = circuit.node(id);
            let off = srcs.len() as u32;
            'fanin: for (pos, f) in node.fanins().iter().enumerate() {
                for (b, &j) in set.iter().enumerate() {
                    if let Pin::Gate { node: n, pos: p } = pins[j] {
                        if n == id && p as usize == pos {
                            srcs.push(Src::Forced(b as u8));
                            continue 'fanin;
                        }
                    }
                }
                srcs.push(if tfo_mask[f.index()] & sel_mask != 0 {
                    Src::Scratch(f.index() as u32)
                } else {
                    Src::Base(f.index() as u32)
                });
            }
            let mask = tfo_mask[id.index()];
            let mut dep = 0u8;
            for (b, &gb) in bits.iter().enumerate() {
                if mask & (1u128 << gb) != 0 {
                    dep |= 1 << b;
                }
            }
            tape.push(TapeOp {
                dst: id.index() as u32,
                kind: node.kind(),
                off,
                len: (srcs.len() as u32) - off,
                dep,
            });
        }
        let exec = |op: &TapeOp, v: u64, base: &[u64], scratch: &mut [u64], buf: &mut Vec<u64>| {
            buf.clear();
            for src in &srcs[op.off as usize..(op.off + op.len) as usize] {
                buf.push(match *src {
                    Src::Base(i) => base[i as usize],
                    Src::Scratch(i) => scratch[i as usize],
                    Src::Forced(b) => {
                        if (v >> b) & 1 == 1 {
                            !0u64
                        } else {
                            0u64
                        }
                    }
                });
            }
            scratch[op.dst as usize] = op.kind.eval64(buf);
        };
        // Gray-code sweep over the 2^s value combinations: consecutive
        // steps toggle one pin, so only tape ops depending on that pin
        // replay — the rest of the scratch slice stays valid.
        for (base, block) in baselines.iter().zip(&blocks) {
            let mut ok = 0u64;
            let mut v = 0u64;
            for op in &tape {
                exec(op, v, base, &mut scratch, &mut buf);
            }
            ok |= !(scratch[root.index()] ^ block.fprime);
            for step in 1..(1u64 << set.len()) {
                if ok & block.mask == block.mask {
                    break;
                }
                let toggled = step.trailing_zeros();
                v ^= 1u64 << toggled;
                let tbit = 1u8 << toggled;
                for op in &tape {
                    if op.dep & tbit != 0 {
                        exec(op, v, base, &mut scratch, &mut buf);
                    }
                }
                ok |= !(scratch[root.index()] ^ block.fprime);
            }
            if ok & block.mask != block.mask {
                return false;
            }
        }
        true
    };

    // Increasing-size enumeration of minimal feasible pin-sets. Sets of
    // size ≥ 2 draw only from pins whose singleton is infeasible — a set
    // containing a feasible singleton is covered by it — and the remaining
    // superset filter checks the (few) multi-pin minimal sets by mask.
    let mut minimal: Vec<Vec<usize>> = Vec::new();
    let mut pool: Vec<(usize, usize)> = Vec::new(); // (pin code, mask bit)
    for (b, &j) in gate_pins.iter().enumerate() {
        if feasible(&[j], &[b]) {
            minimal.push(vec![j]);
        } else {
            pool.push((j, b));
        }
    }
    if let Some(oc) = out_code {
        minimal.push(vec![oc]);
    }
    let mut multi_masks: Vec<u128> = Vec::new();
    for s in 2..=depth.min(pool.len()) {
        let mut idx: Vec<usize> = (0..s).collect();
        loop {
            let sel_mask = idx.iter().fold(0u128, |acc, &i| acc | (1u128 << pool[i].1));
            // Covered iff some recorded minimal set is a subset of this one.
            let covered = multi_masks.iter().any(|&mm| mm & !sel_mask == 0);
            if !covered {
                let set: Vec<usize> = idx.iter().map(|&i| pool[i].0).collect();
                let bits: Vec<usize> = idx.iter().map(|&i| pool[i].1).collect();
                if feasible(&set, &bits) {
                    minimal.push(set);
                    multi_masks.push(sel_mask);
                }
            }
            if !next_combination(&mut idx, pool.len()) {
                break;
            }
        }
    }

    // H(t) = ⋁_{S minimal} ⋀_{j∈S} sel_j(t).
    let mut sel_cache: HashMap<usize, Bdd> = HashMap::new();
    let mut h = m.zero();
    for set in &minimal {
        let mut term = m.one();
        for &j in set {
            let sel = match sel_cache.get(&j) {
                Some(&s) => s,
                None => {
                    let s = selection.select(m, j)?;
                    sel_cache.insert(j, s);
                    s
                }
            };
            term = m.and(term, sel)?;
        }
        h = m.or(h, term)?;
    }
    Ok(h)
}

/// The restriction-driven `H(t)` construction: the direct sample-wise
/// conjunction over the parameterized cone, with every candidate pin
/// guarded by the MUX of Figure 2 and `y_base` the first of its `y`
/// variables. The differential oracle of `h_char_by_simulation`.
#[cfg(test)]
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

    // The cone's structure is sample-independent: hoist the traversal
    // order and membership out of the per-sample loop.
    let order = topo::topo_order(circuit).expect("engine guarantees acyclic circuits");
    let in_cone = topo::tfi(circuit, &[root.source()]);
    let cone: Vec<NodeId> = order.into_iter().filter(|id| in_cone[id.index()]).collect();
    // The restricted cone depends on a sample only through its projection
    // onto the cone's input support — memoize `h|_{x̂}` on that key, and
    // skip conjuncts (same `h`, same revised bit) seen before: `∧` is
    // idempotent, so duplicates cannot change `H(t)`.
    let support: Vec<usize> = cone
        .iter()
        .filter(|&&id| circuit.node(id).kind() == GateKind::Input)
        .map(|&id| {
            circuit
                .input_position(id)
                .expect("input node is registered")
        })
        .collect();
    let mut h_memo: HashMap<Vec<bool>, Bdd> = HashMap::new();
    let mut seen: std::collections::HashSet<(Bdd, bool)> = std::collections::HashSet::new();

    // Padded codes alias real samples (`k mod N`), so quantifying over the
    // full code space conjoins exactly one conjunct per distinct sample.
    let mut h_char = m.one();
    let mut values: Vec<Option<Bdd>> = vec![None; circuit.num_nodes()];
    for (k, sample) in samples.iter().enumerate() {
        let key: Vec<bool> = support
            .iter()
            .map(|&pos| sample.get(pos).copied().unwrap_or(false))
            .collect();
        let h = match h_memo.get(&key) {
            Some(&h) => h,
            None => {
                values.iter_mut().for_each(|v| *v = None);
                for &id in &cone {
                    let node = circuit.node(id);
                    let v = match node.kind() {
                        GateKind::Input => {
                            let pos = circuit
                                .input_position(id)
                                .expect("input node is registered");
                            if sample.get(pos).copied().unwrap_or(false) {
                                m.one()
                            } else {
                                m.zero()
                            }
                        }
                        kind => {
                            let mut fanins: Vec<Bdd> = Vec::with_capacity(node.fanins().len());
                            for (pos, f) in node.fanins().iter().enumerate() {
                                let orig = values[f.index()].expect("topological order");
                                let pin = Pin::gate(id, pos as u8);
                                let v = match pin_subst.get(&pin) {
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
                h_memo.insert(key, h);
                h
            }
        };
        if !seen.insert((h, fprime_bits[k])) {
            continue;
        }
        // h ≡ f'(x̂_k) against a constant is h itself or its complement.
        let eq = if fprime_bits[k] { h } else { m.not(h)? };
        let feasible_k = m.exists(eq, y_cube)?;
        h_char = m.and(h_char, feasible_k)?;
        if h_char == m.zero() {
            break;
        }
    }
    Ok(h_char)
}

/// Decodes one prime cube of `H(t)` into concrete point-sets.
///
/// For each `t` block, the cube's literals admit a set of pin codes; codes
/// beyond the pin count mean "this point selects nothing". Up to `max`
/// combinations of admissible codes are instantiated.
fn decode_prime(selection: &Selection, prime: &Cube, pins: &[Pin], max: usize) -> Vec<PointSet> {
    let bits = selection.bits_per_block as usize;
    // Admissible codes per block. `None` entry = point unused.
    let mut per_block: Vec<Vec<Option<usize>>> = Vec::with_capacity(selection.num_points);
    for i in 0..selection.num_points {
        let vars = selection.block_vars(i);
        let mut admissible = Vec::new();
        'code: for code in 0..(1usize << bits) {
            for (b, &var) in vars.iter().enumerate() {
                let bit = (code >> (bits - 1 - b)) & 1 == 1;
                if let Some(phase) = prime.phase(var) {
                    if phase != bit {
                        continue 'code;
                    }
                }
            }
            admissible.push(if code < pins.len() { Some(code) } else { None });
        }
        // Prefer concrete pins over "unused", and low codes (shallow pins)
        // first; a fully unconstrained block contributes only its first few
        // options to avoid blow-up.
        admissible.sort_by_key(|c| match c {
            Some(j) => *j,
            None => usize::MAX,
        });
        admissible.dedup();
        admissible.truncate(max.max(1));
        per_block.push(admissible);
    }
    // Cartesian product, truncated at `max` results.
    let mut results: Vec<PointSet> = Vec::new();
    let mut counters = vec![0usize; per_block.len()];
    'outer: loop {
        let mut set: PointSet = Vec::new();
        for (i, &k) in counters.iter().enumerate() {
            if let Some(code) = per_block[i][k] {
                let pin = pins[code];
                if !set.contains(&pin) {
                    set.push(pin);
                }
            }
        }
        set.sort();
        if !results.contains(&set) {
            results.push(set);
            if results.len() >= max {
                break;
            }
        }
        // Odometer increment.
        for i in (0..counters.len()).rev() {
            counters[i] += 1;
            if counters[i] < per_block[i].len() {
                continue 'outer;
            }
            counters[i] = 0;
        }
        break;
    }
    results
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
    use eco_netlist::{Circuit, GateKind};

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

    /// End-to-end: H(t) over the and-vs-or example must admit rectification
    /// at a single point (either AND pin rewired appropriately, or the
    /// output itself).
    #[test]
    fn point_sets_found_for_simple_revision() {
        let (c, s) = and_vs_or();
        let root = c.outputs()[0].net();
        let mut m = BddManager::new();
        // Error domain of and-vs-or: a != b. Use both samples.
        let samples = vec![vec![true, false], vec![false, true]];
        let pins = candidate_pins(&c, root, 0, 8);
        let sel = Selection::new(0, 1, pins.len());
        // Spec shares input order here: f'(x̂_k) per sample.
        let fprime_bits: Vec<bool> = samples
            .iter()
            .map(|x| s.eval_nets(x).unwrap()[s.outputs()[0].net().index()])
            .collect();
        let sets = feasible_point_sets(
            &c,
            &mut m,
            &samples,
            &fprime_bits,
            root,
            0,
            &pins,
            &sel,
            8,
            4,
        )
        .unwrap();
        assert!(!sets.is_empty(), "a single free pin can fix and→or");
        for set in &sets {
            assert_eq!(set.len(), 1, "m=1 yields singletons: {set:?}");
        }
    }

    /// With zero rectification points feasible (m too small is impossible
    /// here since output pin always works at m=1), an equivalent pair gives
    /// the empty-prime universal solution.
    #[test]
    fn equivalent_pair_admits_trivial_selection() {
        let (c, _) = and_vs_or();
        let s = c.clone();
        let root = c.outputs()[0].net();
        let mut m = BddManager::new();
        let samples = vec![vec![true, true], vec![false, true]];
        let pins = candidate_pins(&c, root, 0, 8);
        let sel = Selection::new(0, 1, pins.len());
        let fprime_bits: Vec<bool> = samples
            .iter()
            .map(|x| s.eval_nets(x).unwrap()[s.outputs()[0].net().index()])
            .collect();
        let sets = feasible_point_sets(
            &c,
            &mut m,
            &samples,
            &fprime_bits,
            root,
            0,
            &pins,
            &sel,
            8,
            4,
        )
        .unwrap();
        // H(t) is a tautology here; whatever decodes must satisfy the
        // topological constraint and reference known pins.
        for set in &sets {
            assert!(topological_constraint_ok(&c, set));
            for p in set {
                assert!(pins.contains(p));
            }
        }
    }

    /// The simulation-driven and restriction-driven `H(t)` constructions
    /// must agree node-for-node: the manager is canonical, so semantic
    /// equality is BDD identity. Random circuits, samples, and revised
    /// bits; every selection size the engine escalates through.
    #[test]
    fn simulation_and_restriction_h_agree() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..40u64 {
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

            for m_points in 1..=3usize {
                let sel = Selection::new(0, m_points, pins.len());
                let y_base = sel.num_t_vars();
                let mut m = BddManager::new();
                let fast =
                    h_char_by_simulation(&c, &mut m, &samples, &fprime_bits, root, 0, &pins, &sel)
                        .unwrap();
                let slow = h_char_by_restriction(
                    &c,
                    &mut m,
                    &samples,
                    &fprime_bits,
                    root,
                    0,
                    &pins,
                    &sel,
                    y_base,
                )
                .unwrap();
                assert_eq!(
                    fast, slow,
                    "H(t) constructions diverge: seed {seed}, m {m_points}"
                );
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
