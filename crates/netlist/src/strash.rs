//! Structural hashing: merging structurally identical gates.
//!
//! Heavy logic sharing is one of the optimization effects that destroys the
//! structural correspondence between an implementation and its specification
//! (paper §1); `eco-synth`'s optimization pipeline, its only caller, uses
//! this pass to produce such shared netlists. (The engine's patch-input
//! sweep finds duplicated logic by simulation and SAT instead.)

use std::collections::HashMap;

use crate::topo::topo_order;
use crate::{Circuit, GateKind, NetId, NetlistError};

/// Key identifying a gate up to structural equivalence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StrashKey {
    kind: GateKind,
    fanins: Vec<NetId>,
}

/// Merges structurally identical gates and collapses `Buf` gates.
///
/// Two gates merge when they have the same kind and the same fanin list after
/// representative substitution (fanins sorted first for commutative kinds).
/// All sink pins of a merged gate are redirected to the surviving
/// representative; dangling gates are swept. Returns the number of gates
/// removed.
///
/// # Errors
///
/// Returns [`NetlistError::Cyclic`] if the circuit is cyclic.
///
/// # Example
///
/// ```
/// use eco_netlist::{Circuit, GateKind, strash};
///
/// # fn main() -> Result<(), eco_netlist::NetlistError> {
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g1 = c.add_gate(GateKind::And, &[a, b])?;
/// let g2 = c.add_gate(GateKind::And, &[b, a])?; // same function, shared after strash
/// let y = c.add_gate(GateKind::Or, &[g1, g2])?;
/// c.add_output("y", y);
/// let removed = strash::strash(&mut c)?;
/// assert_eq!(removed, 1);
/// # Ok(())
/// # }
/// ```
pub fn strash(circuit: &mut Circuit) -> Result<usize, NetlistError> {
    let order = topo_order(circuit)?;
    let mut rep: HashMap<NetId, NetId> = HashMap::new();
    let mut table: HashMap<StrashKey, NetId> = HashMap::new();

    let resolve = |rep: &HashMap<NetId, NetId>, mut w: NetId| -> NetId {
        while let Some(&r) = rep.get(&w) {
            if r == w {
                break;
            }
            w = r;
        }
        w
    };

    for id in order {
        let node = circuit.node(id);
        let kind = node.kind();
        if kind == GateKind::Input || kind.is_const() {
            continue;
        }
        let net: NetId = id.into();
        let mut fanins: Vec<NetId> = node.fanins().iter().map(|&f| resolve(&rep, f)).collect();
        if kind == GateKind::Buf {
            rep.insert(net, fanins[0]);
            continue;
        }
        if kind.is_commutative() {
            fanins.sort();
        }
        let key = StrashKey { kind, fanins };
        match table.get(&key) {
            Some(&existing) => {
                rep.insert(net, existing);
            }
            None => {
                table.insert(key, net);
            }
        }
    }

    if rep.is_empty() {
        return Ok(0);
    }

    // Apply the representative map to all live fanins and outputs.
    let mut changed_nets = 0usize;
    let live: Vec<_> = circuit.iter_live().collect();
    for id in live {
        let fanins: Vec<NetId> = circuit.node(id).fanins().to_vec();
        for (pos, f) in fanins.iter().enumerate() {
            let r = resolve(&rep, *f);
            if r != *f {
                circuit
                    .rewire(crate::Pin::gate(id, pos as u8), r)
                    .expect("strash substitution cannot create a cycle");
            }
        }
    }
    for i in 0..circuit.num_outputs() {
        let w = circuit.outputs()[i].net();
        let r = resolve(&rep, w);
        if r != w {
            circuit.set_output_net(i as u32, r)?;
            changed_nets += 1;
        }
    }
    let _ = changed_nets;
    Ok(circuit.sweep())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, GateKind};

    #[test]
    fn merges_commutative_duplicates() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::And, &[b, a]).unwrap();
        let y = c.add_gate(GateKind::Xor, &[g1, g2]).unwrap();
        c.add_output("y", y);
        strash(&mut c).unwrap();
        // xor(g, g) stays structurally (no functional rewriting here), but g2
        // is gone.
        let live_ands = c
            .iter_live()
            .filter(|&id| c.node(id).kind() == GateKind::And)
            .count();
        assert_eq!(live_ands, 1);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn mux_is_not_reordered() {
        let mut c = Circuit::new("t");
        let s = c.add_input("s");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let m1 = c.add_gate(GateKind::Mux, &[s, a, b]).unwrap();
        let m2 = c.add_gate(GateKind::Mux, &[s, b, a]).unwrap();
        let y = c.add_gate(GateKind::And, &[m1, m2]).unwrap();
        c.add_output("y", y);
        let removed = strash(&mut c).unwrap();
        assert_eq!(removed, 0);
    }

    #[test]
    fn collapses_buffers() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let buf1 = c.add_gate(GateKind::Buf, &[a]).unwrap();
        let buf2 = c.add_gate(GateKind::Buf, &[buf1]).unwrap();
        let y = c.add_gate(GateKind::Not, &[buf2]).unwrap();
        c.add_output("y", y);
        strash(&mut c).unwrap();
        assert_eq!(c.node(y.source()).fanins()[0], a);
        assert_eq!(
            c.iter_live()
                .filter(|&id| c.node(id).kind() == GateKind::Buf)
                .count(),
            0
        );
    }

    #[test]
    fn cascaded_merging() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        // Two identical two-level structures.
        let x1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let y1 = c.add_gate(GateKind::Not, &[x1]).unwrap();
        let x2 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let y2 = c.add_gate(GateKind::Not, &[x2]).unwrap();
        let out = c.add_gate(GateKind::Or, &[y1, y2]).unwrap();
        c.add_output("y", out);
        let removed = strash(&mut c).unwrap();
        assert_eq!(removed, 2);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn preserves_function() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::Or, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Or, &[b, a]).unwrap();
        let g3 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
        let g4 = c.add_gate(GateKind::Xnor, &[g2, d]).unwrap();
        let y = c.add_gate(GateKind::And, &[g3, g4]).unwrap();
        c.add_output("y", y);
        let reference: Vec<bool> = (0..8)
            .map(|j| c.eval(&[(j & 1) == 1, (j & 2) == 2, (j & 4) == 4]).unwrap()[0])
            .collect();
        strash(&mut c).unwrap();
        for (j, &expect) in reference.iter().enumerate() {
            let got = c.eval(&[(j & 1) == 1, (j & 2) == 2, (j & 4) == 4]).unwrap()[0];
            assert_eq!(got, expect, "pattern {j}");
        }
    }
}
