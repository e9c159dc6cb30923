//! Property-based tests for the netlist data model.

use std::collections::HashMap;

use eco_netlist::{sim, strash, topo, Circuit, GateKind, NetId, NodeId, Pin};
use proptest::prelude::*;

/// Recipe for one random gate: kind selector and fanin selectors.
#[derive(Debug, Clone)]
struct GateRecipe {
    kind_sel: u8,
    fanin_sels: Vec<u32>,
}

/// Recipe for a whole random circuit.
#[derive(Debug, Clone)]
struct CircuitRecipe {
    num_inputs: usize,
    gates: Vec<GateRecipe>,
    output_sels: Vec<u32>,
}

fn kind_from_sel(sel: u8) -> GateKind {
    match sel % 8 {
        0 => GateKind::And,
        1 => GateKind::Or,
        2 => GateKind::Nand,
        3 => GateKind::Nor,
        4 => GateKind::Xor,
        5 => GateKind::Xnor,
        6 => GateKind::Not,
        _ => GateKind::Mux,
    }
}

fn build(recipe: &CircuitRecipe) -> Circuit {
    let mut c = Circuit::new("prop");
    let mut nets: Vec<NetId> = (0..recipe.num_inputs)
        .map(|i| c.add_input(format!("x{i}")))
        .collect();
    for g in &recipe.gates {
        let kind = kind_from_sel(g.kind_sel);
        let need = kind.arity().unwrap_or(2);
        let fanins: Vec<NetId> = (0..need)
            .map(|k| nets[g.fanin_sels[k] as usize % nets.len()])
            .collect();
        let w = c.add_gate(kind, &fanins).expect("recipe fanins are valid");
        nets.push(w);
    }
    for (i, sel) in recipe.output_sels.iter().enumerate() {
        c.add_output(format!("y{i}"), nets[*sel as usize % nets.len()]);
    }
    c
}

fn circuit_strategy(max_gates: usize) -> impl Strategy<Value = CircuitRecipe> {
    (2usize..6, 1usize..max_gates, 1usize..4).prop_flat_map(|(ni, ng, no)| {
        let gates = proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u32>(), 3)).prop_map(
                |(kind_sel, fanin_sels)| GateRecipe {
                    kind_sel,
                    fanin_sels,
                },
            ),
            ng,
        );
        let outs = proptest::collection::vec(any::<u32>(), no);
        (Just(ni), gates, outs).prop_map(|(num_inputs, gates, output_sels)| CircuitRecipe {
            num_inputs,
            gates,
            output_sels,
        })
    })
}

/// Rewires a gate pin to a later-created net per `(gate_sel, net_sel)`, so
/// fanins end up above their consumers in node-index order.
fn rewire_to_later_nets(c: &mut Circuit, rewires: &[(u32, u32)]) {
    for &(gate_sel, net_sel) in rewires {
        let gates: Vec<_> = c
            .iter_live()
            .filter(|&id| !c.node(id).fanins().is_empty())
            .collect();
        let g = gates[gate_sel as usize % gates.len()];
        let later = c.num_nodes() - g.index() - 1;
        if later == 0 {
            continue;
        }
        let pos = (gate_sel >> 16) as usize % c.node(g).fanins().len();
        let net = NetId::from_index(g.index() + 1 + net_sel as usize % later);
        // A rewire that would close a cycle is refused and changes nothing.
        let _ = c.rewire(Pin::gate(g, pos as u8), net);
    }
}

fn all_assignments(n: usize) -> Vec<Vec<bool>> {
    (0..(1usize << n.min(6)))
        .map(|j| (0..n).map(|i| (j >> i) & 1 == 1).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_circuits_are_well_formed(recipe in circuit_strategy(30)) {
        let c = build(&recipe);
        prop_assert!(c.check_well_formed().is_ok());
    }

    #[test]
    fn simulate64_matches_eval(recipe in circuit_strategy(30)) {
        let c = build(&recipe);
        let n = c.num_inputs();
        let mut patterns = vec![0u64; n];
        let assigns = all_assignments(n);
        for (j, a) in assigns.iter().enumerate() {
            for (i, &v) in a.iter().enumerate() {
                if v {
                    patterns[i] |= 1u64 << j;
                }
            }
        }
        let words = sim::simulate64(&c, &patterns).unwrap();
        for (j, a) in assigns.iter().enumerate() {
            let scalar = c.eval(a).unwrap();
            for (oi, port) in c.outputs().iter().enumerate() {
                prop_assert_eq!(
                    sim::word_bit(&words, port.net().index(), j),
                    scalar[oi]
                );
            }
        }
    }

    /// `Compiled` must walk topological order, not node indices: rewires
    /// to later-created nets, cones cloned from a second circuit and a
    /// sweep leave fanins above their consumers and dead nodes between
    /// them, as the validation screen's rewired scratch copies do.
    #[test]
    fn compiled_matches_eval_after_rewires_clones_and_sweep(
        recipe in circuit_strategy(30),
        donor in circuit_strategy(20),
        rewires in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..8),
    ) {
        let mut c = build(&recipe);
        let donor = build(&CircuitRecipe {
            num_inputs: donor.num_inputs.min(recipe.num_inputs),
            ..donor
        });
        let roots: Vec<NetId> = donor.outputs().iter().map(|p| p.net()).collect();
        let map = c.clone_cone(&donor, &roots, &HashMap::new()).unwrap();
        for (i, root) in roots.iter().enumerate() {
            c.add_output(format!("d{i}"), map[root]);
        }
        rewire_to_later_nets(&mut c, &rewires);
        c.sweep();
        prop_assert!(c.check_well_formed().is_ok());

        let all = all_assignments(c.num_inputs());
        let assigns: Vec<Vec<bool>> = (0..100).map(|k| all[k % all.len()].clone()).collect();
        let compiled = sim::Compiled::new(&c).unwrap();
        let words = compiled.simulate_all(&assigns).unwrap();
        let mut first = vec![0u64; c.num_inputs()];
        for (j, a) in assigns.iter().take(64).enumerate() {
            for (p, &v) in first.iter_mut().zip(a) {
                *p |= u64::from(v) << j;
            }
        }
        prop_assert_eq!(&sim::simulate64(&c, &first).unwrap(), &words.blocks()[0]);
        for (k, a) in assigns.iter().enumerate() {
            let scalar = c.eval_nets(a).unwrap();
            for (net, &value) in scalar.iter().enumerate() {
                prop_assert_eq!(sim::word_bit(&words.blocks()[k / 64], net, k % 64), value);
            }
        }
    }

    /// `Compiled::tfo` is the converse of `topo::tfi`: a live node is in
    /// the fanout of the roots exactly when some root is in its fanin.
    /// Rewires to later-created nets and a sweep leave fanins above their
    /// consumers and dead nodes between them, so node-index order is not a
    /// topological order.
    #[test]
    fn compiled_tfo_is_the_converse_of_tfi(
        recipe in circuit_strategy(30),
        rewires in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        picks in proptest::collection::vec(any::<u32>(), 0..4),
    ) {
        let mut c = build(&recipe);
        rewire_to_later_nets(&mut c, &rewires);
        c.sweep();
        let live: Vec<NodeId> = c.iter_live().collect();
        let roots: Vec<NodeId> = picks.iter().map(|&p| live[p as usize % live.len()]).collect();
        let tfo = sim::Compiled::new(&c).unwrap().tfo(&roots);
        for &n in &live {
            let tfi = topo::tfi(&c, &[n]);
            prop_assert_eq!(tfo[n.index()], roots.iter().any(|r| tfi[r.index()]), "node {}", n.index());
        }
    }

    #[test]
    fn strash_preserves_function(recipe in circuit_strategy(40)) {
        let mut c = build(&recipe);
        let assigns = all_assignments(c.num_inputs());
        let reference: Vec<Vec<bool>> =
            assigns.iter().map(|a| c.eval(a).unwrap()).collect();
        strash::strash(&mut c).unwrap();
        prop_assert!(c.check_well_formed().is_ok());
        for (a, expect) in assigns.iter().zip(&reference) {
            prop_assert_eq!(&c.eval(a).unwrap(), expect);
        }
    }

    #[test]
    fn sweep_preserves_function(recipe in circuit_strategy(40)) {
        let mut c = build(&recipe);
        let assigns = all_assignments(c.num_inputs());
        let reference: Vec<Vec<bool>> =
            assigns.iter().map(|a| c.eval(a).unwrap()).collect();
        c.sweep();
        prop_assert!(c.check_well_formed().is_ok());
        for (a, expect) in assigns.iter().zip(&reference) {
            prop_assert_eq!(&c.eval(a).unwrap(), expect);
        }
    }

    #[test]
    fn topo_order_is_consistent(recipe in circuit_strategy(40)) {
        let c = build(&recipe);
        let order = topo::topo_order(&c).unwrap();
        let pos: HashMap<_, _> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for id in c.iter_live() {
            for f in c.node(id).fanins() {
                prop_assert!(pos[&f.source()] < pos[&id]);
            }
        }
    }

    #[test]
    fn clone_cone_preserves_function(recipe in circuit_strategy(30)) {
        let src = build(&recipe);
        let mut dst = Circuit::new("dst");
        for i in 0..src.num_inputs() {
            dst.add_input(format!("x{i}"));
        }
        let roots: Vec<NetId> = src.outputs().iter().map(|p| p.net()).collect();
        let map = dst.clone_cone(&src, &roots, &HashMap::new()).unwrap();
        for (i, p) in src.outputs().iter().enumerate() {
            dst.add_output(format!("y{i}"), map[&p.net()]);
        }
        prop_assert!(dst.check_well_formed().is_ok());
        for a in all_assignments(src.num_inputs()) {
            prop_assert_eq!(dst.eval(&a).unwrap(), src.eval(&a).unwrap());
        }
    }

    #[test]
    fn blif_roundtrip_preserves_function(recipe in circuit_strategy(30)) {
        let mut c = build(&recipe);
        c.sweep();
        let text = eco_netlist::write_blif(&c);
        let parsed = eco_netlist::read_blif(&text).unwrap();
        prop_assert_eq!(parsed.num_inputs(), c.num_inputs());
        prop_assert_eq!(parsed.num_outputs(), c.num_outputs());
        for a in all_assignments(c.num_inputs()) {
            prop_assert_eq!(parsed.eval(&a).unwrap(), c.eval(&a).unwrap());
        }
    }

    #[test]
    fn rewire_roundtrip_restores_function(recipe in circuit_strategy(30), pick in any::<u32>()) {
        let mut c = build(&recipe);
        let assigns = all_assignments(c.num_inputs());
        let reference: Vec<Vec<bool>> =
            assigns.iter().map(|a| c.eval(a).unwrap()).collect();
        // Pick some live gate pin and rewire it to input 0, then back.
        let gates: Vec<_> = c
            .iter_live()
            .filter(|&id| !c.node(id).fanins().is_empty())
            .collect();
        if gates.is_empty() {
            return Ok(());
        }
        let g = gates[pick as usize % gates.len()];
        let pin = Pin::gate(g, 0);
        let original = c.pin_net(pin).unwrap();
        let target: NetId = c.inputs()[0].into();
        if c.rewire(pin, target).is_ok() {
            c.rewire(pin, original).unwrap();
            for (a, expect) in assigns.iter().zip(&reference) {
                prop_assert_eq!(&c.eval(a).unwrap(), expect);
            }
        }
    }
}
