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
//! The filter and the specification cone depend only on the output, so a
//! [`CandidatePool`] holds them once per output; only the ranking reads
//! the samples, which a [`RewireNetContext`] holds per search attempt.
//!
//! The pin's current driver is always included as the *trivial* candidate
//! (§5.2): it lets `Ξ(c)` express "this point needs no change" when the
//! point count over-approximates.

use eco_netlist::sim::{Compiled, Simulated};
use eco_netlist::{topo, Circuit, GateKind, NetId, NetlistError, NodeId, Pin};
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

/// The structural half of candidate selection for one output: which
/// implementation nets may drive its rectification points, and which
/// specification nets of `f'`'s cone may be cloned, at what cost. None of
/// it depends on the samples, so it is built once per output and shared
/// by every search attempt.
#[derive(Debug)]
pub struct CandidatePool {
    /// Live implementation nets whose input support lies within `f'`'s,
    /// in net order.
    admitted: Vec<NetId>,
    /// Non-input nets of the specification cone of `f'`, in net order.
    spec_cone: Vec<NetId>,
    /// Clone cost (cone size) of each `spec_cone` net, indexed by net.
    clone_costs: Vec<usize>,
}

impl CandidatePool {
    /// Builds the pool for the output whose specification root is
    /// `spec_root`. `base` is the implementation compiled.
    pub fn new(base: &Compiled, spec: &Circuit, corr: &Correspondence, spec_root: NetId) -> Self {
        let in_cone = topo::tfi(spec, &[spec_root.source()]);
        // A net's support is the union of its fanins': an input is admitted
        // when `f'` reads its counterpart, a gate when all its fanins are.
        let mut admitted = vec![false; base.num_nodes()];
        for (&id, pos) in base.inputs().iter().zip(&corr.spec_input_pos) {
            admitted[id as usize] = pos.is_some_and(|p| in_cone[spec.inputs()[p].index()]);
        }
        for g in 0..base.num_gates() {
            admitted[base.node(g).index()] = base.fanins(g).iter().all(|&f| admitted[f as usize]);
        }
        let spec_cone: Vec<NetId> = (0..spec.num_nodes())
            .filter(|&i| in_cone[i] && spec.node(NodeId::from_index(i)).kind() != GateKind::Input)
            .map(NetId::from_index)
            .collect();
        let mut clone_costs = vec![0; spec.num_nodes()];
        for &w in &spec_cone {
            clone_costs[w.index()] = topo::cone_size(spec, w);
        }
        CandidatePool {
            admitted: (0..admitted.len())
                .filter(|&i| admitted[i])
                .map(NetId::from_index)
                .collect(),
            spec_cone,
            clone_costs,
        }
    }

    /// The clone cost of spec-cone net `net`: the gates of its cone.
    pub fn clone_cost(&self, net: NetId) -> usize {
        self.clone_costs[net.index()]
    }
}

/// One search attempt's samples, simulated once in both circuits and
/// shared across the rectification points of one output: the candidate
/// utilities, the minimal-set enumeration and `Ξ(c)` read these words.
#[derive(Debug)]
pub struct RewireNetContext {
    /// Implementation net values on the samples.
    pub impl_words: Simulated,
    /// Specification net values on the (translated) samples.
    pub spec_words: Simulated,
    /// The revised output `f'` per 64-sample block.
    pub fprime: Vec<u64>,
}

impl RewireNetContext {
    /// Simulates `samples` (implementation input order) on `base`, the
    /// implementation compiled, and on `spec_sim`, the specification, and
    /// reads `f'` off `spec_root`.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from simulation.
    pub fn build(
        base: &Compiled,
        spec_sim: &Compiled,
        corr: &Correspondence,
        spec_root: NetId,
        samples: &[Vec<bool>],
    ) -> Result<Self, NetlistError> {
        let impl_words = base.simulate_all(samples)?;
        let spec_samples: Vec<Vec<bool>> =
            samples.iter().map(|s| corr.spec_assignment(s)).collect();
        let spec_words = spec_sim.simulate_all(&spec_samples)?;
        let fprime = spec_words
            .blocks()
            .iter()
            .map(|words| words[spec_root.index()])
            .collect();
        Ok(RewireNetContext {
            impl_words,
            spec_words,
            fprime,
        })
    }
}

/// Fraction of the samples on which net `a` of `a_words` and net `b` of
/// `b_words` differ.
fn diff_fraction(a_words: &Simulated, a: NetId, b_words: &Simulated, b: NetId) -> f64 {
    let blocks = a_words.blocks().iter().zip(b_words.blocks());
    let diff: u32 = blocks
        .enumerate()
        .map(|(k, (x, y))| ((x[a.index()] ^ y[b.index()]) & a_words.mask(k)).count_ones())
        .sum();
    match a_words.num_assignments() {
        0 => 0.0,
        n => diff as f64 / n as f64,
    }
}

/// Selects candidate rewiring nets for `pin`, ranked by utility.
/// `sim` is `implementation` compiled, `pool` the output's candidate pool
/// and `ctx` the attempt's simulated samples.
///
/// The first entry is always the trivial candidate (the current driver),
/// then the top `max_candidates - 1` nets by utility, then up to two of
/// the cheapest useful spec nets (by clone cost) not already listed: at
/// most `max_candidates + 2` entries.
/// Implementation candidates are the pool's admitted nets outside the
/// transitive fanout of the pin's consumer (a rewire to those would create
/// a cycle); specification candidates come from the cone of `f'`. `timing`
/// biases ties toward earlier-arriving nets (the level-driven mode behind
/// Table 3).
///
/// # Errors
///
/// Propagates [`NetlistError`] for invalid pins.
pub fn candidates_for_pin(
    implementation: &Circuit,
    sim: &Compiled,
    pool: &CandidatePool,
    ctx: &RewireNetContext,
    pin: Pin,
    max_candidates: usize,
    timing: Option<&TimingReport>,
) -> Result<Vec<RewireCandidate>, NetlistError> {
    let driver = implementation.pin_net(pin)?;
    let utility =
        |words: &Simulated, net: NetId| diff_fraction(words, net, &ctx.impl_words, driver);

    // Nets that would create a cycle: the consumer's transitive fanout.
    let forbidden: Vec<bool> = match pin.node() {
        Some(consumer) => sim.tfo(&[consumer]),
        None => vec![false; implementation.num_nodes()],
    };

    let mut ranked: Vec<RewireCandidate> = Vec::new();
    for &net in &pool.admitted {
        if net == driver || forbidden[net.index()] {
            continue;
        }
        let utility = utility(&ctx.impl_words, net);
        if utility == 0.0 {
            continue; // identical on the whole error domain: no help
        }
        ranked.push(RewireCandidate {
            net,
            from_spec: false,
            utility,
            arrival: timing.map_or(0.0, |t| t.arrival(net)),
        });
    }
    for &net in &pool.spec_cone {
        let utility = utility(&ctx.spec_words, net);
        if utility == 0.0 {
            continue;
        }
        ranked.push(RewireCandidate {
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
    ranked.sort_by(|a, b| {
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
        ranked.iter().filter(|c| c.from_spec).cloned().collect();
    cheap_spec.sort_by_key(|c| pool.clone_cost(c.net));
    ranked.truncate(max_candidates.saturating_sub(1));
    for extra in cheap_spec.into_iter().take(2) {
        if !ranked.iter().any(|c| c.from_spec && c.net == extra.net) {
            ranked.push(extra);
        }
    }

    let mut out = Vec::with_capacity(ranked.len() + 1);
    out.push(RewireCandidate {
        net: driver,
        from_spec: false,
        utility: 0.0,
        arrival: timing.map_or(0.0, |t| t.arrival(driver)),
    });
    out.extend(ranked);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use eco_netlist::GateKind;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The candidate pool of the output whose revision is `spec_root`, and
    /// one attempt's context over `samples`.
    fn context(
        c: &Circuit,
        s: &Circuit,
        spec_root: NetId,
        samples: &[Vec<bool>],
    ) -> (CandidatePool, RewireNetContext) {
        let corr = Correspondence::build(c, s).unwrap();
        let (base, spec) = (Compiled::new(c).unwrap(), Compiled::new(s).unwrap());
        (
            CandidatePool::new(&base, s, &corr, spec_root),
            RewireNetContext::build(&base, &spec, &corr, spec_root, samples).unwrap(),
        )
    }

    fn candidates(
        c: &Circuit,
        (pool, ctx): &(CandidatePool, RewireNetContext),
        pin: Pin,
        max_candidates: usize,
    ) -> Vec<RewireCandidate> {
        let sim = Compiled::new(c).unwrap();
        candidates_for_pin(c, &sim, pool, ctx, pin, max_candidates, None).unwrap()
    }

    /// impl: y = a & b; spec: y = a | b. Error domain: a != b.
    fn setup() -> (Circuit, Circuit, (CandidatePool, RewireNetContext), NetId) {
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
        let ctx = context(&c, &s, sg, &samples);
        (c, s, ctx, g)
    }

    #[test]
    fn trivial_candidate_is_first() {
        let (c, _s, ctx, g) = setup();
        let pin = Pin::gate(g.source(), 0);
        let cands = candidates(&c, &ctx, pin, 8);
        let driver = c.pin_net(pin).unwrap();
        assert_eq!(cands[0].net, driver);
        assert!(!cands[0].from_spec);
        assert_eq!(cands[0].utility, 0.0);
    }

    #[test]
    fn spec_or_net_ranks_high_for_and_pin() {
        // Rewiring one AND pin cannot alone fix and→or, but the spec's OR
        // net must appear as a high-utility candidate for the output pin.
        let (c, s, ctx, _g) = setup();
        let pin = Pin::output(0);
        let cands = candidates(&c, &ctx, pin, 8);
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
        let samples = vec![vec![true, true], vec![true, false]];
        let ctx = context(&c, &s, sg, &samples);
        let pin = Pin::gate(g.source(), 0);
        let cands = candidates(&c, &ctx, pin, 16);
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
        let samples = vec![
            vec![true, false, true],
            vec![false, true, true],
            vec![false, false, true],
        ];
        let ctx = context(&c, &s, sg, &samples);
        let cands = candidates(&c, &ctx, Pin::output(0), 16);
        for cand in &cands {
            if !cand.from_spec {
                assert_ne!(cand.net, stray, "stray depends on `extra`, outside f'");
            }
        }
    }

    /// Adds `count` random gates over `nets` to `c`, appending each.
    fn random_gates(c: &mut Circuit, nets: &mut Vec<NetId>, count: usize, rng: &mut SmallRng) {
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Not,
        ];
        for _ in 0..count {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let arity = if kind == GateKind::Not { 1 } else { 2 };
            let fanins: Vec<NetId> = (0..arity)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(c.add_gate(kind, &fanins).unwrap());
        }
    }

    /// A random implementation over inputs `x0…x{n-1}` and `only`, swept
    /// so some of its gates are dead, and a random revision that declares
    /// the `x` inputs in reverse order and ignores `only`. Both have
    /// outputs `y` and `z`.
    fn random_pair(seed: u64) -> (Circuit, Circuit) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(3..=6);
        let mut c = Circuit::new("impl");
        let mut nets: Vec<NetId> = (0..n).map(|i| c.add_input(format!("x{i}"))).collect();
        nets.push(c.add_input("only"));
        let gates = rng.gen_range(4..=14);
        random_gates(&mut c, &mut nets, gates, &mut rng);
        c.add_output("y", nets[nets.len() - 1]);
        c.add_output("z", nets[rng.gen_range(n + 1..nets.len())]);
        c.sweep();

        let mut s = Circuit::new("spec");
        let mut nets: Vec<NetId> = (0..n).rev().map(|i| s.add_input(format!("x{i}"))).collect();
        let gates = rng.gen_range(2..=10);
        random_gates(&mut s, &mut nets, gates, &mut rng);
        s.add_output("y", nets[rng.gen_range(n..nets.len())]);
        s.add_output("z", nets[nets.len() - 1]);
        (c, s)
    }

    /// The pool admits exactly the live implementation nets whose input
    /// support maps by label into `f'`'s, in net order.
    #[test]
    fn pool_admits_exactly_the_nets_within_the_support_of_fprime() {
        let (mut admitted, mut rejected) = (0, 0);
        for seed in 0..200 {
            let (c, s) = random_pair(seed);
            let corr = Correspondence::build(&c, &s).unwrap();
            let base = Compiled::new(&c).unwrap();
            let label = |circuit: &Circuit, pos: usize| {
                circuit
                    .node(circuit.inputs()[pos])
                    .name()
                    .unwrap()
                    .to_string()
            };
            for port in s.outputs() {
                let within: HashSet<String> = topo::support(&s, port.net())
                    .into_iter()
                    .map(|pos| label(&s, pos))
                    .collect();
                let expected: Vec<NetId> = c
                    .iter_live()
                    .map(NetId::from)
                    .filter(|&net| {
                        topo::support(&c, net)
                            .into_iter()
                            .all(|pos| within.contains(&label(&c, pos)))
                    })
                    .collect();
                let pool = CandidatePool::new(&base, &s, &corr, port.net());
                assert_eq!(pool.admitted, expected, "seed {seed}, f' = {}", port.name());
                admitted += expected.len();
                rejected += c.iter_live().count() - expected.len();
            }
        }
        assert!(
            admitted > 0 && rejected > 0,
            "{admitted} admitted, {rejected} rejected"
        );
    }

    #[test]
    fn candidate_cap_respected() {
        let (c, _s, ctx, _g) = setup();
        let cands = candidates(&c, &ctx, Pin::output(0), 3);
        assert!(cands.len() <= 3);
    }

    /// A list holds the driver, the top `max - 1` nets by utility, then up
    /// to two of the cheapest spec nets not already listed: `max + 2`
    /// entries at most, not `max`.
    #[test]
    fn list_is_driver_then_top_ranked_then_two_cheapest_spec_nets() {
        // impl: y = a & b, plus o = a | b, x = a ^ b, n = !(a & b) on
        // outputs of their own; spec: y = (a ^ b) | !(a & b). On both
        // samples the driver reads 0 and every other gate 1, so the three
        // implementation gates win every tie against the spec cone.
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sx = s.add_gate(GateKind::Xor, &[sa, sb]).unwrap();
        let sn = s.add_gate(GateKind::Nand, &[sa, sb]).unwrap();
        let sy = s.add_gate(GateKind::Or, &[sx, sn]).unwrap();
        s.add_output("y", sy);
        for (name, kind) in [
            ("o", GateKind::Or),
            ("x", GateKind::Xor),
            ("n", GateKind::Nand),
        ] {
            let net = c.add_gate(kind, &[a, b]).unwrap();
            c.add_output(name, net);
            let net = s.add_gate(kind, &[sa, sb]).unwrap();
            s.add_output(name, net);
        }
        let samples = vec![vec![true, false], vec![false, true]];
        let ctx = context(&c, &s, sy, &samples);
        let listed = |max: usize| -> Vec<(NetId, bool)> {
            candidates(&c, &ctx, Pin::output(0), max)
                .iter()
                .map(|cand| (cand.net, cand.from_spec))
                .collect()
        };
        let impl_gate = |name: &str| {
            let port = c.outputs().iter().find(|p| p.name() == name).unwrap();
            (port.net(), false)
        };
        // max 3: the two best implementation gates, then the 1-gate spec
        // clones `a ^ b` and `!(a & b)`; the 3-gate `sy` gets no seat.
        assert_eq!(
            listed(3),
            vec![
                (g, false),
                impl_gate("o"),
                impl_gate("x"),
                (sx, true),
                (sn, true)
            ]
        );
        // max 8: the cheapest spec nets already rank in, so nothing is
        // appended and the list stops at `max`.
        let wide = listed(8);
        assert_eq!(wide.len(), 8, "{wide:?}");
        assert_eq!(
            wide[..4],
            [(g, false), impl_gate("o"), impl_gate("x"), impl_gate("n")]
        );
        assert_eq!(wide[4..7], [(sx, true), (sn, true), (sy, true)]);
    }
}
