//! Canonical structural signatures over `eco-netlist` circuits.
//!
//! A signature is a 128-bit structural hash of a logic cone (or a whole
//! circuit) that is stable across runs and across [`eco_netlist::NodeId`]
//! renumbering:
//!
//! * primary inputs hash by **label**, not by position, so two cones over
//!   the same named inputs collide regardless of declaration order;
//! * commutative gates (`And`/`Or`/`Nand`/`Nor`/`Xor`/`Xnor`) fold their
//!   fanin hashes in sorted order — the AIG-style normalization that makes
//!   the hash input-permutation-stable — while `Mux`/`Buf`/`Not` keep pin
//!   order;
//! * the per-node pass is one linear sweep in topological order
//!   ([`eco_netlist::topo::topo_order`]).
//!
//! Signatures address cache records; they are never trusted for
//! correctness. A collision (or a stale entry) surfaces as a SAT-rejected
//! reuse attempt, degrading performance only.

use eco_netlist::{topo, Circuit, GateKind, NetId, NetlistError};

/// A 128-bit structural signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sig128 {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Sig128 {
    /// The all-zero signature (used as a fold seed, never as a real key).
    pub const ZERO: Sig128 = Sig128 { hi: 0, lo: 0 };

    /// Serializes to 16 little-endian bytes (`hi` first).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.hi.to_le_bytes());
        b[8..].copy_from_slice(&self.lo.to_le_bytes());
        b
    }

    /// Deserializes from [`Sig128::to_bytes`] layout.
    pub fn from_bytes(b: &[u8; 16]) -> Sig128 {
        Sig128 {
            hi: u64::from_le_bytes(b[..8].try_into().unwrap()),
            lo: u64::from_le_bytes(b[8..].try_into().unwrap()),
        }
    }

    /// Folds further words into this signature (order-sensitive).
    #[must_use]
    pub fn mix(self, word: u64) -> Sig128 {
        Sig128 {
            hi: splitmix64(self.hi ^ splitmix64(word ^ 0x9e37_79b9_7f4a_7c15)),
            lo: splitmix64(
                self.lo
                    .wrapping_add(splitmix64(word ^ 0x85eb_ca77_c2b2_ae63)),
            ),
        }
    }

    /// Combines several signatures into one composite key (order-sensitive).
    pub fn fold(parts: &[Sig128]) -> Sig128 {
        let mut acc = Sig128 {
            hi: 0x5851_f42d_4c95_7f2d,
            lo: 0x1405_7b7e_f767_814f,
        };
        for p in parts {
            acc = acc.mix(p.hi).mix(p.lo);
        }
        acc
    }
}

impl std::fmt::Display for Sig128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// SplitMix64 finalizer — the zero-dependency mixing primitive behind every
/// hash here.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a string (FNV-1a folded through splitmix64).
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

/// Hashes a slice of words into a [`Sig128`] — used for options
/// fingerprints and other non-structural key components.
pub fn fingerprint_words(words: &[u64]) -> Sig128 {
    let mut acc = Sig128 {
        hi: 0x2545_f491_4f6c_dd1d,
        lo: 0x27d4_eb2f_1656_67c5,
    };
    acc = acc.mix(words.len() as u64);
    for &w in words {
        acc = acc.mix(w);
    }
    acc
}

/// Stable per-kind hash code, independent of source declaration order.
fn kind_code(kind: GateKind) -> u64 {
    match kind {
        GateKind::Input => 0x11,
        GateKind::Const0 => 0x22,
        GateKind::Const1 => 0x33,
        GateKind::Buf => 0x44,
        GateKind::Not => 0x55,
        GateKind::And => 0x66,
        GateKind::Or => 0x77,
        GateKind::Nand => 0x88,
        GateKind::Nor => 0x99,
        GateKind::Xor => 0xaa,
        GateKind::Xnor => 0xbb,
        GateKind::Mux => 0xcc,
    }
}

/// Per-node structural hashes for every live node of `circuit`, indexed by
/// node. Dead nodes keep the zero hash.
///
/// # Errors
///
/// [`NetlistError::Cyclic`] on cyclic circuits.
pub fn node_hashes(circuit: &Circuit) -> Result<Vec<[u64; 2]>, NetlistError> {
    let order = topo::topo_order(circuit)?;
    let mut hashes = vec![[0u64; 2]; circuit.num_nodes()];
    for id in order {
        let node = circuit.node(id);
        let kind = node.kind();
        let k = kind_code(kind);
        hashes[id.index()] = match kind {
            GateKind::Input => {
                let name = hash_str(node.name().unwrap_or(""));
                [splitmix64(k ^ name), splitmix64(k.wrapping_add(name))]
            }
            GateKind::Const0 | GateKind::Const1 => [splitmix64(k), splitmix64(k ^ !0)],
            _ => {
                let mut fanins: Vec<[u64; 2]> =
                    node.fanins().iter().map(|f| hashes[f.index()]).collect();
                if kind.is_commutative() {
                    fanins.sort_unstable();
                }
                let mut h0 = splitmix64(k ^ 0xa076_1d64_78bd_642f);
                let mut h1 = splitmix64(k ^ 0xe703_7ed1_a0b4_28db);
                for [f0, f1] in fanins {
                    h0 = splitmix64(h0 ^ f0.wrapping_mul(0x8ebc_6af0_9c88_c6e3));
                    h1 = splitmix64(h1.wrapping_add(f1 ^ 0x5896_59dd_bc9e_6c39));
                }
                [h0, h1]
            }
        };
    }
    Ok(hashes)
}

/// The signature of the cone rooted at `root`, given precomputed
/// [`node_hashes`].
pub fn cone_sig(hashes: &[[u64; 2]], root: NetId) -> Sig128 {
    let [h0, h1] = hashes[root.index()];
    Sig128 { hi: h0, lo: h1 }.mix(0xc0de)
}

/// The signature of a whole circuit: every output cone in port order (with
/// its label), plus the primary-input labels in declaration order — the
/// full structural state a rectification run depends on.
///
/// # Errors
///
/// [`NetlistError::Cyclic`] on cyclic circuits.
pub fn circuit_sig(circuit: &Circuit) -> Result<Sig128, NetlistError> {
    let hashes = node_hashes(circuit)?;
    let mut acc = Sig128 {
        hi: 0x9e6c_63d0_a5f3_b1e7,
        lo: 0x6a09_e667_f3bc_c908,
    };
    acc = acc.mix(circuit.num_inputs() as u64);
    for &id in circuit.inputs() {
        acc = acc.mix(hash_str(circuit.node(id).name().unwrap_or("")));
    }
    acc = acc.mix(circuit.num_outputs() as u64);
    for port in circuit.outputs() {
        acc = acc.mix(hash_str(port.name()));
        let [h0, h1] = hashes[port.net().index()];
        acc = acc.mix(h0).mix(h1);
    }
    Ok(acc)
}

/// A cone signature plus the deterministic walk that produced it.
///
/// The walk ([`topo::cone_topo_order`]) lists every net of the cone once,
/// fanins first, expanding children in fanin pin order. Because the order
/// depends only on the cone's structure, the *position* of a net in the
/// walk is a stable cross-run reference: a later run over a structurally
/// identical cone re-materializes the same position to its own [`NetId`].
#[derive(Debug, Clone)]
pub struct ConeWalk {
    /// Structural signature of the cone.
    pub sig: Sig128,
    /// Cone nets in deterministic walk order (root last).
    pub order: Vec<NetId>,
}

impl ConeWalk {
    /// Builds the walk and signature for the cone of `root`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cyclic`] on cyclic cones.
    pub fn build(circuit: &Circuit, root: NetId) -> Result<ConeWalk, NetlistError> {
        let hashes = node_hashes(circuit)?;
        Ok(ConeWalk {
            sig: cone_sig(&hashes, root),
            order: topo::cone_topo_order(circuit, root)?,
        })
    }

    /// Builds the walk for `root` with already-computed [`node_hashes`],
    /// avoiding the full-circuit rehash when several cones of one circuit
    /// are walked.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cyclic`] on cyclic cones.
    pub fn with_hashes(
        circuit: &Circuit,
        hashes: &[[u64; 2]],
        root: NetId,
    ) -> Result<ConeWalk, NetlistError> {
        Ok(ConeWalk {
            sig: cone_sig(hashes, root),
            order: topo::cone_topo_order(circuit, root)?,
        })
    }

    /// The walk position of `net`, if it lies in this cone.
    pub fn position(&self, net: NetId) -> Option<u32> {
        self.order.iter().position(|&w| w == net).map(|i| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::GateKind;

    fn xor_tree(pad: bool, swap: bool) -> (Circuit, NetId) {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        if pad {
            let _ = c.add_gate(GateKind::Nor, &[a, d]).unwrap();
        }
        let g1 = if swap {
            c.add_gate(GateKind::And, &[b, a]).unwrap()
        } else {
            c.add_gate(GateKind::And, &[a, b]).unwrap()
        };
        let g2 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
        c.add_output("y", g2);
        (c, g2)
    }

    #[test]
    fn sig_stable_under_id_shift_and_commutation() {
        let (c1, r1) = xor_tree(false, false);
        let (c2, r2) = xor_tree(true, false); // shifted NodeIds
        let (c3, r3) = xor_tree(false, true); // swapped AND fanins
        let s1 = ConeWalk::build(&c1, r1).unwrap().sig;
        let s2 = ConeWalk::build(&c2, r2).unwrap().sig;
        let s3 = ConeWalk::build(&c3, r3).unwrap().sig;
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
    }

    #[test]
    fn sig_distinguishes_structure_and_names() {
        let (c1, r1) = xor_tree(false, false);
        let s1 = ConeWalk::build(&c1, r1).unwrap().sig;
        // Different gate kind.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::Or, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
        c.add_output("y", g2);
        assert_ne!(ConeWalk::build(&c, g2).unwrap().sig, s1);
        // Different input name.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("bb");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
        c.add_output("y", g2);
        assert_ne!(ConeWalk::build(&c, g2).unwrap().sig, s1);
        // Mux is order-sensitive: swapping data pins changes the hash.
        let mut c = Circuit::new("t");
        let s = c.add_input("s");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let m1 = c.add_gate(GateKind::Mux, &[s, a, b]).unwrap();
        c.add_output("y", m1);
        let mut c2 = Circuit::new("t");
        let s2 = c2.add_input("s");
        let a2 = c2.add_input("a");
        let b2 = c2.add_input("b");
        let m2 = c2.add_gate(GateKind::Mux, &[s2, b2, a2]).unwrap();
        c2.add_output("y", m2);
        assert_ne!(
            ConeWalk::build(&c, m1).unwrap().sig,
            ConeWalk::build(&c2, m2).unwrap().sig
        );
    }

    #[test]
    fn circuit_sig_covers_ports() {
        let (c1, _) = xor_tree(false, false);
        let s1 = circuit_sig(&c1).unwrap();
        // Identical rebuild agrees.
        let (c2, _) = xor_tree(false, false);
        assert_eq!(circuit_sig(&c2).unwrap(), s1);
        // Renaming an output changes the signature.
        let mut c = c1.clone();
        let net = c.outputs()[0].net();
        c.add_output("extra", net);
        assert_ne!(circuit_sig(&c).unwrap(), s1);
    }

    #[test]
    fn walk_positions_align_across_id_shift() {
        let (c1, r1) = xor_tree(false, false);
        let (c2, r2) = xor_tree(true, false);
        let w1 = ConeWalk::build(&c1, r1).unwrap();
        let w2 = ConeWalk::build(&c2, r2).unwrap();
        assert_eq!(w1.order.len(), w2.order.len());
        for pos in 0..w1.order.len() {
            let k1 = c1.node(w1.order[pos].source()).kind();
            let k2 = c2.node(w2.order[pos].source()).kind();
            assert_eq!(k1, k2, "walk position {pos}");
        }
        assert_eq!(w1.position(r1), Some(w1.order.len() as u32 - 1));
    }

    #[test]
    fn sig128_round_trips_and_folds() {
        let s = fingerprint_words(&[1, 2, 3]);
        assert_eq!(Sig128::from_bytes(&s.to_bytes()), s);
        assert_ne!(s, fingerprint_words(&[1, 2, 4]));
        assert_ne!(s, fingerprint_words(&[1, 2]));
        // Fold is order-sensitive.
        let a = fingerprint_words(&[7]);
        let b = fingerprint_words(&[9]);
        assert_ne!(Sig128::fold(&[a, b]), Sig128::fold(&[b, a]));
        assert_eq!(format!("{}", Sig128::ZERO), "0".repeat(32));
    }
}
