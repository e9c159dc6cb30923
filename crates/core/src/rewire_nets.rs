//! Candidate rewiring nets (paper §4.3).
//!
//! For each rectification point, candidate nets are drawn from **both** the
//! current implementation and the synthesized specification, then
//!
//! 1. *structurally filtered* — a net qualifies when the structural input
//!    dependence of the revised output `f'` contains the net's transitive
//!    fanin support, and
//! 2. *functionally ranked* — by rectification utility
//!    `|{x̂ ∈ 𝔼 : q(x̂) ≠ r(x̂)}| / |𝔼|`: the fraction of error minterms on
//!    which the candidate differs from the pin's current driver. The more
//!    pronounced the difference, the likelier the candidate rectifies `𝔼`.
//!
//! The pin's current driver is always included as the *trivial* candidate
//! (§5.2): it lets `Ξ(c)` express "this point needs no change" when the
//! point count over-approximates.

use std::collections::HashSet;

use eco_netlist::{sim, topo, Circuit, GateKind, NetId, NetlistError, NodeId, Pin};
use eco_timing::TimingReport;

use crate::correspond::Correspondence;

/// A candidate rewiring net for one rectification point.
#[derive(Debug, Clone, PartialEq)]
pub struct RewireCandidate {
    /// The candidate net — in the implementation or the specification,
    /// depending on `from_spec`.
    pub net: NetId,
    /// Whether `net` lives in the specification (`C'`) and must be cloned
    /// into the implementation when chosen.
    pub from_spec: bool,
    /// Rectification utility over the sample set (0.0 for the trivial
    /// candidate).
    pub utility: f64,
    /// Arrival time of the net, when level-driven selection is active.
    pub arrival: f64,
}

/// Per-input-position support sets, as bitmaps over implementation input
/// positions.
#[derive(Debug, Clone)]
pub struct SupportTable {
    words: usize,
    sets: Vec<Vec<u64>>,
}

impl SupportTable {
    /// Computes the input support of every net of `circuit`. For the
    /// specification, `input_translation` maps the circuit's own input
    /// positions to implementation positions (identity for the
    /// implementation itself).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cyclic`] on cyclic circuits (earlier versions
    /// panicked here, turning a malformed caller input into an abort).
    pub fn build(
        circuit: &Circuit,
        input_translation: &[usize],
        num_impl_inputs: usize,
    ) -> Result<Self, NetlistError> {
        let words = num_impl_inputs.div_ceil(64).max(1);
        let mut sets = vec![vec![0u64; words]; circuit.num_nodes()];
        let order = topo::topo_order(circuit)?;
        for id in order {
            let node = circuit.node(id);
            if node.kind() == GateKind::Input {
                let pos = circuit.input_position(id).expect("registered input");
                let impl_pos = input_translation[pos];
                sets[id.index()][impl_pos / 64] |= 1u64 << (impl_pos % 64);
                continue;
            }
            let fanins: Vec<NetId> = node.fanins().to_vec();
            for f in fanins {
                // Manual split borrow: OR fanin set into this node's set.
                let src = sets[f.index()].clone();
                for (w, s) in sets[id.index()].iter_mut().zip(&src) {
                    *w |= s;
                }
            }
        }
        Ok(SupportTable { words, sets })
    }

    /// Whether the support of `a` is contained in the bitmap `within`.
    pub fn contained(&self, a: NetId, within: &[u64]) -> bool {
        self.sets[a.index()]
            .iter()
            .zip(within)
            .all(|(x, y)| x & !y == 0)
    }

    /// The support bitmap of `net`.
    pub fn support(&self, net: NetId) -> &[u64] {
        &self.sets[net.index()]
    }

    /// Number of 64-bit words per bitmap.
    pub fn words(&self) -> usize {
        self.words
    }
}

/// Precomputed per-output context for candidate selection, shared across the
/// rectification points of one output.
#[derive(Debug)]
pub struct RewireNetContext {
    /// Implementation net values on the sample set, one block per 64 samples.
    pub impl_blocks: Vec<Vec<u64>>,
    /// Specification net values on the (translated) sample set.
    pub spec_blocks: Vec<Vec<u64>>,
    /// Number of samples.
    pub num_samples: usize,
    /// Support table of the implementation.
    pub impl_supports: SupportTable,
    /// Support table of the specification (in implementation positions).
    pub spec_supports: SupportTable,
    /// Support bitmap of the revised output `f'`.
    pub fprime_support: Vec<u64>,
    /// Nets of the specification cone of `f'`, candidates for cloning.
    pub spec_cone: Vec<NetId>,
    /// Clone cost (cone size) of each spec-cone net.
    pub spec_cone_sizes: std::collections::HashMap<NetId, usize>,
}

impl RewireNetContext {
    /// Builds the context for one output pair over `samples`
    /// (implementation input order).
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from simulation.
    pub fn build(
        implementation: &Circuit,
        spec: &Circuit,
        corr: &Correspondence,
        spec_root: NetId,
        samples: &[Vec<bool>],
    ) -> Result<Self, NetlistError> {
        let impl_blocks = sim::simulate_patterns(implementation, samples)?;
        let spec_samples: Vec<Vec<bool>> =
            samples.iter().map(|s| corr.spec_assignment(s)).collect();
        let spec_blocks = sim::simulate_patterns(spec, &spec_samples)?;

        let impl_translation: Vec<usize> = (0..implementation.num_inputs()).collect();
        let impl_supports = SupportTable::build(
            implementation,
            &impl_translation,
            implementation.num_inputs(),
        )?;
        // Spec input position -> implementation position.
        let mut spec_translation = vec![0usize; spec.num_inputs()];
        for (impl_pos, sp) in corr.spec_input_pos.iter().enumerate() {
            if let Some(sp) = sp {
                spec_translation[*sp] = impl_pos;
            }
        }
        let spec_supports =
            SupportTable::build(spec, &spec_translation, implementation.num_inputs())?;
        let fprime_support = spec_supports.support(spec_root).to_vec();

        let in_cone = topo::tfi(spec, &[spec_root.source()]);
        let spec_cone: Vec<NetId> = in_cone
            .iter()
            .enumerate()
            .filter(|&(i, &inside)| {
                inside && {
                    let k = spec.node(NodeId::from_index(i)).kind();
                    k != GateKind::Input
                }
            })
            .map(|(i, _)| NetId::from_index(i))
            .collect();
        let spec_cone_sizes = spec_cone
            .iter()
            .map(|&w| (w, topo::cone_size(spec, w)))
            .collect();
        Ok(RewireNetContext {
            impl_blocks,
            spec_blocks,
            num_samples: samples.len(),
            impl_supports,
            spec_supports,
            fprime_support,
            spec_cone,
            spec_cone_sizes,
        })
    }

    fn value_bits(&self, blocks: &[Vec<u64>], net: NetId) -> Vec<u64> {
        blocks.iter().map(|b| b[net.index()]).collect()
    }

    /// Fraction of samples on which two packed value vectors differ.
    fn diff_fraction(&self, a: &[u64], b: &[u64]) -> f64 {
        let mut diff = 0u32;
        let mut remaining = self.num_samples;
        for (x, y) in a.iter().zip(b) {
            let take = remaining.min(64);
            let mask = if take == 64 {
                !0u64
            } else {
                (1u64 << take) - 1
            };
            diff += ((x ^ y) & mask).count_ones();
            remaining -= take;
        }
        if self.num_samples == 0 {
            0.0
        } else {
            diff as f64 / self.num_samples as f64
        }
    }
}

/// Selects candidate rewiring nets for `pin`, ranked by utility.
///
/// The first entry is always the trivial candidate (the current driver).
/// Implementation candidates exclude nets in the transitive fanout of the
/// pin's consumer (a rewire to those would create a cycle) and nets whose
/// support escapes `f'`'s structural dependence; specification candidates
/// come from the cone of `f'`. `timing` biases ties toward earlier-arriving
/// nets (the level-driven mode behind Table 3).
///
/// # Errors
///
/// Propagates [`NetlistError`] for invalid pins.
#[allow(clippy::too_many_arguments)]
pub fn candidates_for_pin(
    implementation: &Circuit,
    ctx: &RewireNetContext,
    pin: Pin,
    max_candidates: usize,
    timing: Option<&TimingReport>,
) -> Result<Vec<RewireCandidate>, NetlistError> {
    let driver = implementation.pin_net(pin)?;
    let driver_bits = ctx.value_bits(&ctx.impl_blocks, driver);

    // Nets that would create a cycle: the consumer's transitive fanout.
    let forbidden: Vec<bool> = match pin.node() {
        Some(consumer) => topo::tfo(implementation, &[consumer]),
        None => vec![false; implementation.num_nodes()],
    };

    let mut pool: Vec<RewireCandidate> = Vec::new();
    for id in implementation.iter_live() {
        let net: NetId = id.into();
        if net == driver || forbidden[net.index()] {
            continue;
        }
        if !ctx.impl_supports.contained(net, &ctx.fprime_support) {
            continue;
        }
        let bits = ctx.value_bits(&ctx.impl_blocks, net);
        let utility = ctx.diff_fraction(&bits, &driver_bits);
        if utility == 0.0 {
            continue; // identical on the whole error domain: no help
        }
        pool.push(RewireCandidate {
            net,
            from_spec: false,
            utility,
            arrival: timing.map_or(0.0, |t| t.arrival(net)),
        });
    }
    for &net in &ctx.spec_cone {
        let bits = ctx.value_bits(&ctx.spec_blocks, net);
        let utility = ctx.diff_fraction(&bits, &driver_bits);
        if utility == 0.0 {
            continue;
        }
        pool.push(RewireCandidate {
            net,
            from_spec: true,
            utility,
            // Spec nets have no arrival in the implementation's timing
            // report: level-driven ordering ranks implementation nets only.
            arrival: 0.0,
        });
    }

    // Rank: utility descending; ties prefer implementation nets (reuse over
    // cloning), then earlier arrival, then stable net order.
    pool.sort_by(|a, b| {
        b.utility
            .partial_cmp(&a.utility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.from_spec.cmp(&b.from_spec))
            .then_with(|| {
                a.arrival
                    .partial_cmp(&b.arrival)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.net.cmp(&b.net))
    });
    // Keep the top utilities, but guarantee the *cheapest* useful spec
    // candidates a seat: a low-utility single-gate clone (e.g. the new `c`
    // of Figure 1) often yields a far smaller patch than a high-utility
    // whole-cone clone, and the cost-based commit can only pick what the
    // candidate list offers.
    let mut cheap_spec: Vec<RewireCandidate> =
        pool.iter().filter(|c| c.from_spec).cloned().collect();
    cheap_spec.sort_by_key(|c| {
        ctx.spec_cone_sizes
            .get(&c.net)
            .copied()
            .unwrap_or(usize::MAX)
    });
    pool.truncate(max_candidates.saturating_sub(1));
    for extra in cheap_spec.into_iter().take(2) {
        if !pool
            .iter()
            .any(|c| c.net == extra.net && c.from_spec == extra.from_spec)
        {
            pool.push(extra);
        }
    }

    let mut out = Vec::with_capacity(pool.len() + 1);
    out.push(RewireCandidate {
        net: driver,
        from_spec: false,
        utility: 0.0,
        arrival: timing.map_or(0.0, |t| t.arrival(driver)),
    });
    out.extend(pool);
    // Deduplicate by (net, origin), keeping the first (highest-ranked).
    let mut seen: HashSet<(NetId, bool)> = HashSet::new();
    out.retain(|c| seen.insert((c.net, c.from_spec)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::GateKind;

    /// impl: y = a & b; spec: y = a | b. Error domain: a != b.
    fn setup() -> (Circuit, Circuit, Correspondence, RewireNetContext, NetId) {
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
        let corr = Correspondence::build(&c, &s).unwrap();
        let samples = vec![vec![true, false], vec![false, true]];
        let ctx = RewireNetContext::build(&c, &s, &corr, sg, &samples).unwrap();
        (c, s, corr, ctx, g)
    }

    #[test]
    fn trivial_candidate_is_first() {
        let (c, _s, _corr, ctx, g) = setup();
        let pin = Pin::gate(g.source(), 0);
        let cands = candidates_for_pin(&c, &ctx, pin, 8, None).unwrap();
        let driver = c.pin_net(pin).unwrap();
        assert_eq!(cands[0].net, driver);
        assert!(!cands[0].from_spec);
        assert_eq!(cands[0].utility, 0.0);
    }

    #[test]
    fn spec_or_net_ranks_high_for_and_pin() {
        // Rewiring one AND pin cannot alone fix and→or, but the spec's OR
        // net must appear as a high-utility candidate for the output pin.
        let (c, s, _corr, ctx, _g) = setup();
        let pin = Pin::output(0);
        let cands = candidates_for_pin(&c, &ctx, pin, 8, None).unwrap();
        let spec_or = s.outputs()[0].net();
        let found = cands
            .iter()
            .find(|cand| cand.from_spec && cand.net == spec_or)
            .expect("spec OR net is a candidate");
        // It differs from the driver on the whole error domain.
        assert_eq!(found.utility, 1.0);
    }

    #[test]
    fn cycle_forbidden_nets_excluded() {
        // Candidates for a pin on g must not include g itself or anything
        // downstream of g.
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let h = c.add_gate(GateKind::Not, &[g]).unwrap();
        c.add_output("y", h);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sg = s.add_gate(GateKind::Nand, &[sa, sb]).unwrap();
        s.add_output("y", sg);
        let corr = Correspondence::build(&c, &s).unwrap();
        let samples = vec![vec![true, true], vec![true, false]];
        let ctx = RewireNetContext::build(&c, &s, &corr, sg, &samples).unwrap();
        let pin = Pin::gate(g.source(), 0);
        let cands = candidates_for_pin(&c, &ctx, pin, 16, None).unwrap();
        for cand in &cands {
            if !cand.from_spec {
                assert_ne!(cand.net, g, "own output is a cycle");
                assert_ne!(cand.net, h, "downstream net is a cycle");
            }
        }
    }

    #[test]
    fn support_filter_blocks_out_of_cone_inputs() {
        // An impl net depending on input `extra` (outside f' support) is
        // not a candidate.
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let extra = c.add_input("extra");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let stray = c.add_gate(GateKind::Or, &[a, extra]).unwrap();
        c.add_output("y", g);
        c.add_output("stray", stray);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let se = s.add_input("extra");
        let sg = s.add_gate(GateKind::Or, &[sa, sb]).unwrap();
        let st = s.add_gate(GateKind::Or, &[sa, se]).unwrap();
        s.add_output("y", sg);
        s.add_output("stray", st);
        let corr = Correspondence::build(&c, &s).unwrap();
        let samples = vec![
            vec![true, false, true],
            vec![false, true, true],
            vec![false, false, true],
        ];
        let ctx = RewireNetContext::build(&c, &s, &corr, sg, &samples).unwrap();
        let cands = candidates_for_pin(&c, &ctx, Pin::output(0), 16, None).unwrap();
        for cand in &cands {
            if !cand.from_spec {
                assert_ne!(cand.net, stray, "stray depends on `extra`, outside f'");
            }
        }
    }

    #[test]
    fn support_table_containment() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Or, &[g1, d]).unwrap();
        c.add_output("y", g2);
        let tr: Vec<usize> = (0..3).collect();
        let t = SupportTable::build(&c, &tr, 3).unwrap();
        assert!(t.contained(g1, t.support(g2)));
        assert!(!t.contained(g2, t.support(g1)));
        assert!(t.contained(a, t.support(g1)));
    }

    #[test]
    fn candidate_cap_respected() {
        let (c, _s, _corr, ctx, _g) = setup();
        let cands = candidates_for_pin(&c, &ctx, Pin::output(0), 3, None).unwrap();
        assert!(cands.len() <= 3);
    }
}
