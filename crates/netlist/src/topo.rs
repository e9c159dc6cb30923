//! Graph analyses: topological order, logic levels, transitive fanin, cones,
//! and structural support. The transitive fanout is
//! [`Compiled::tfo`](crate::sim::Compiled::tfo), a pass over the compiled
//! tape.

use std::collections::HashSet;

use crate::{Circuit, GateKind, NetId, NetlistError, NodeId};

/// Returns the live nodes of `circuit` in topological order (fanins before
/// fanouts).
///
/// # Errors
///
/// Returns [`NetlistError::Cyclic`] when the circuit graph contains a
/// combinational cycle.
pub fn topo_order(circuit: &Circuit) -> Result<Vec<NodeId>, NetlistError> {
    let n = circuit.num_nodes();
    let mut order = Vec::with_capacity(n);
    // 0 = unvisited, 1 = on stack, 2 = done
    let mut state = vec![0u8; n];
    for seed in 0..n {
        let seed = NodeId::from_index(seed);
        if state[seed.index()] != 0 || circuit.node(seed).is_dead() {
            continue;
        }
        let mut stack: Vec<(NodeId, usize)> = vec![(seed, 0)];
        state[seed.index()] = 1;
        while let Some(&mut (id, ref mut child)) = stack.last_mut() {
            let fanins = circuit.node(id).fanins();
            if *child < fanins.len() {
                let next = fanins[*child].source();
                *child += 1;
                match state[next.index()] {
                    0 => {
                        state[next.index()] = 1;
                        stack.push((next, 0));
                    }
                    1 => return Err(NetlistError::Cyclic),
                    _ => {}
                }
            } else {
                state[id.index()] = 2;
                order.push(id);
                stack.pop();
            }
        }
    }
    Ok(order)
}

/// Computes the logic level of every node: inputs and constants are level 0,
/// a gate is one more than its deepest fanin.
///
/// The result is indexed by node; dead nodes get level 0.
///
/// # Errors
///
/// Returns [`NetlistError::Cyclic`] for cyclic circuits.
pub fn levels(circuit: &Circuit) -> Result<Vec<u32>, NetlistError> {
    let order = topo_order(circuit)?;
    let mut lv = vec![0u32; circuit.num_nodes()];
    for id in order {
        let node = circuit.node(id);
        if node.kind() == GateKind::Input || node.kind().is_const() {
            continue;
        }
        lv[id.index()] = node
            .fanins()
            .iter()
            .map(|f| lv[f.index()])
            .max()
            .unwrap_or(0)
            + 1;
    }
    Ok(lv)
}

/// Returns the set of nodes in the transitive fanin of `roots` (the roots
/// themselves included), as a membership bitmap indexed by node.
pub fn tfi(circuit: &Circuit, roots: &[NodeId]) -> Vec<bool> {
    let mut seen = vec![false; circuit.num_nodes()];
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        for &f in circuit.node(id).fanins() {
            if !seen[f.index()] {
                stack.push(f.source());
            }
        }
    }
    seen
}

/// Whether `node` lies in the transitive fanin of `root` (inclusive).
pub fn tfi_contains(circuit: &Circuit, root: NodeId, node: NodeId) -> bool {
    if root == node {
        return true;
    }
    let mut seen = vec![false; circuit.num_nodes()];
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        if id == node {
            return true;
        }
        for &f in circuit.node(id).fanins() {
            if !seen[f.index()] {
                stack.push(f.source());
            }
        }
    }
    false
}

/// The structural input support of `net`: indices (in primary-input order)
/// of the inputs its cone depends on.
pub fn support(circuit: &Circuit, net: NetId) -> HashSet<usize> {
    let seen = tfi(circuit, &[net.source()]);
    circuit
        .inputs()
        .iter()
        .enumerate()
        .filter(|(_, id)| seen[id.index()])
        .map(|(pos, _)| pos)
        .collect()
}

/// Returns the nets of the transitive fanin cone of `root` (inclusive) in a
/// deterministic post-order: fanins before fanouts, children expanded in
/// fanin pin order, each net listed once at its first completion.
///
/// Unlike [`topo_order`], the order depends only on the *structure* of the
/// cone — two circuits that build the same cone with the same gate/pin
/// layout produce the same walk even when their [`NodeId`]s differ, which
/// is what makes a walk position usable as a stable cross-run reference to
/// a net (see the `eco-cache` signature scheme).
///
/// # Errors
///
/// Returns [`NetlistError::Cyclic`] when the cone contains a combinational
/// cycle.
pub fn cone_topo_order(circuit: &Circuit, root: NetId) -> Result<Vec<NetId>, NetlistError> {
    let mut order: Vec<NetId> = Vec::new();
    // 0 = unvisited, 1 = on stack, 2 = done — same scheme as topo_order,
    // but seeded from the root only and keyed by net.
    let mut state = vec![0u8; circuit.num_nodes()];
    let mut stack: Vec<(NetId, usize)> = vec![(root, 0)];
    state[root.index()] = 1;
    while let Some(&mut (w, ref mut child)) = stack.last_mut() {
        let fanins = circuit.node(w.source()).fanins();
        if *child < fanins.len() {
            let next = fanins[*child];
            *child += 1;
            match state[next.index()] {
                0 => {
                    state[next.index()] = 1;
                    stack.push((next, 0));
                }
                1 => return Err(NetlistError::Cyclic),
                _ => {}
            }
        } else {
            state[w.index()] = 2;
            order.push(w);
            stack.pop();
        }
    }
    Ok(order)
}

/// Number of live gates in the cone of `net` (inputs and constants excluded).
pub fn cone_size(circuit: &Circuit, net: NetId) -> usize {
    let seen = tfi(circuit, &[net.source()]);
    seen.iter()
        .enumerate()
        .filter(|&(i, &s)| {
            s && {
                let k = circuit.node(NodeId::from_index(i)).kind();
                k != GateKind::Input && !k.is_const()
            }
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, GateKind};

    fn chain(len: usize) -> (Circuit, Vec<NetId>) {
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let mut nets = vec![a, b];
        let mut prev = a;
        for _ in 0..len {
            prev = c.add_gate(GateKind::And, &[prev, b]).unwrap();
            nets.push(prev);
        }
        c.add_output("y", prev);
        (c, nets)
    }

    #[test]
    fn topo_order_respects_edges() {
        let (c, _) = chain(5);
        let order = topo_order(&c).unwrap();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for id in c.iter_live() {
            for f in c.node(id).fanins() {
                assert!(pos[&f.source()] < pos[&id], "{f} before {id}");
            }
        }
        assert_eq!(order.len(), c.iter_live().count());
    }

    #[test]
    fn levels_increase_along_chain() {
        let (c, nets) = chain(4);
        let lv = levels(&c).unwrap();
        assert_eq!(lv[nets[0].index()], 0);
        for (i, w) in nets.iter().enumerate().skip(2) {
            assert_eq!(lv[w.index()], (i - 1) as u32);
        }
    }

    #[test]
    fn tfi_and_support() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Or, &[d, d]).unwrap();
        c.add_output("y1", g1);
        c.add_output("y2", g2);
        let s1 = support(&c, g1);
        assert_eq!(s1, [0usize, 1].into_iter().collect());
        let s2 = support(&c, g2);
        assert_eq!(s2, [2usize].into_iter().collect());
        assert!(tfi_contains(&c, g1.source(), a.source()));
        assert!(!tfi_contains(&c, g2.source(), a.source()));
    }

    #[test]
    fn cone_size_counts_gates_only() {
        let (c, nets) = chain(3);
        assert_eq!(cone_size(&c, *nets.last().unwrap()), 3);
        assert_eq!(cone_size(&c, nets[0]), 0);
    }

    #[test]
    fn cone_topo_order_is_structural() {
        // Two circuits with the same cone structure but different NodeId
        // layouts (the second has an unrelated gate inserted first) walk
        // their cones in the same relative order.
        let build = |pad: bool| {
            let mut c = Circuit::new("t");
            let a = c.add_input("a");
            let b = c.add_input("b");
            if pad {
                let _ = c.add_gate(GateKind::Or, &[a, b]).unwrap();
            }
            let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
            let g2 = c.add_gate(GateKind::Xor, &[g1, b]).unwrap();
            c.add_output("y", g2);
            (c, g2)
        };
        let (c1, r1) = build(false);
        let (c2, r2) = build(true);
        let w1 = cone_topo_order(&c1, r1).unwrap();
        let w2 = cone_topo_order(&c2, r2).unwrap();
        assert_eq!(w1.len(), w2.len());
        for (a, b) in w1.iter().zip(&w2) {
            assert_eq!(c1.node(a.source()).kind(), c2.node(b.source()).kind());
        }
        // Fanins precede fanouts and the root closes the walk.
        assert_eq!(*w1.last().unwrap(), r1);
        let pos: std::collections::HashMap<_, _> =
            w1.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for &w in &w1 {
            for &f in c1.node(w.source()).fanins() {
                assert!(pos[&f] < pos[&w]);
            }
        }
    }

    #[test]
    fn dead_nodes_skipped_in_topo() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let _dangling = c.add_gate(GateKind::Or, &[a, b]).unwrap();
        c.add_output("y", g1);
        c.sweep();
        let order = topo_order(&c).unwrap();
        assert_eq!(order.len(), 3);
    }
}
