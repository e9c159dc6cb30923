//! 64-way bit-parallel simulation.
//!
//! Each net is simulated over 64 input patterns at once by packing the
//! pattern values into a `u64` word. This is the workhorse behind error-
//! domain sampling and the rectification-utility heuristic (paper §4.3),
//! where many candidate nets must be compared over a set of error minterms.
//!
//! [`Compiled`] is the one word-level evaluator: a circuit's topological
//! order flattened once into arrays, then simulated over any number of
//! 64-pattern blocks.

use crate::topo::topo_order;
use crate::{Circuit, GateKind, NetlistError, NodeId};

/// A circuit's topological order compiled into flat arrays, for repeated
/// bit-parallel simulation.
///
/// The tape lists every live non-input node (gates and constants) in
/// topological order; gate `g` on the tape writes net `node(g)` from the
/// nets in [`fanins(g)`](Compiled::fanins). Simulation keeps one `u64` per
/// net per 64-pattern block, indexed by net like [`Circuit`]'s own ids.
/// Dead nodes are not on the tape and simulate to 0.
///
/// The compiled form is a snapshot: a later mutation of the circuit is not
/// seen.
#[derive(Debug, Clone)]
pub struct Compiled {
    num_nodes: usize,
    /// Node of each primary input, in declaration order.
    inputs: Vec<u32>,
    /// Node written by each tape gate.
    nodes: Vec<u32>,
    kinds: Vec<GateKind>,
    /// Tape gate `g` reads `fanins[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    fanins: Vec<u32>,
}

impl Compiled {
    /// Compiles `circuit`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cyclic`] for cyclic circuits.
    pub fn new(circuit: &Circuit) -> Result<Self, NetlistError> {
        let mut compiled = Compiled {
            num_nodes: circuit.num_nodes(),
            inputs: circuit
                .inputs()
                .iter()
                .map(|id| id.index() as u32)
                .collect(),
            nodes: Vec::new(),
            kinds: Vec::new(),
            starts: vec![0],
            fanins: Vec::new(),
        };
        for id in topo_order(circuit)? {
            let node = circuit.node(id);
            if node.kind() == GateKind::Input {
                continue;
            }
            compiled.nodes.push(id.index() as u32);
            compiled.kinds.push(node.kind());
            compiled
                .fanins
                .extend(node.fanins().iter().map(|f| f.index() as u32));
            compiled.starts.push(compiled.fanins.len() as u32);
        }
        Ok(compiled)
    }

    /// Number of nodes (live or dead) of the compiled circuit: the length
    /// of a simulated word vector.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Node index of each primary input, in declaration order.
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Number of gates on the tape.
    pub fn num_gates(&self) -> usize {
        self.nodes.len()
    }

    /// The node tape gate `g` writes.
    pub fn node(&self, g: usize) -> NodeId {
        NodeId::from_index(self.nodes[g] as usize)
    }

    /// The net indices tape gate `g` reads, in pin order.
    pub fn fanins(&self, g: usize) -> &[u32] {
        &self.fanins[self.starts[g] as usize..self.starts[g + 1] as usize]
    }

    /// The transitive fanout of `roots` (inclusive), as a membership
    /// bitmap indexed by node: one forward pass over the tape, where a gate
    /// joins when one of its fanins has joined.
    pub fn tfo(&self, roots: &[NodeId]) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes];
        for r in roots {
            seen[r.index()] = true;
        }
        for g in 0..self.nodes.len() {
            if self.fanins(g).iter().any(|&f| seen[f as usize]) {
                seen[self.nodes[g] as usize] = true;
            }
        }
        seen
    }

    /// Evaluates tape gate `g` over 64 patterns, reading the word of its
    /// fanin at pin position `pos` on net index `net` as `word(pos, net)`.
    #[inline]
    pub fn eval(&self, g: usize, mut word: impl FnMut(usize, usize) -> u64) -> u64 {
        self.kinds[g].eval64(
            self.fanins(g)
                .iter()
                .enumerate()
                .map(|(pos, &net)| word(pos, net as usize)),
        )
    }

    /// Simulates one 64-pattern block.
    ///
    /// `patterns[i]` packs the values of primary input `i` (in declaration
    /// order): bit `j` is the value of input `i` under pattern `j`. The
    /// result is indexed by net and packed the same way.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InputCountMismatch`] when `patterns` does not match
    /// the number of primary inputs.
    pub fn simulate(&self, patterns: &[u64]) -> Result<Vec<u64>, NetlistError> {
        if patterns.len() != self.inputs.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: self.inputs.len(),
                got: patterns.len(),
            });
        }
        let mut words = vec![0u64; self.num_nodes];
        for (&id, &p) in self.inputs.iter().zip(patterns) {
            words[id as usize] = p;
        }
        for g in 0..self.nodes.len() {
            let w = self.eval(g, |_, net| words[net]);
            words[self.nodes[g] as usize] = w;
        }
        Ok(words)
    }

    /// Simulates an arbitrary number of patterns, given as explicit
    /// assignments: `assignments[k]` is the primary-input vector of
    /// pattern `k`, which lands in block `k / 64`, bit `k % 64`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InputCountMismatch`] unless every assignment has
    /// exactly one value per primary input.
    pub fn simulate_all(&self, assignments: &[Vec<bool>]) -> Result<Simulated, NetlistError> {
        let n = self.inputs.len();
        let mut blocks = Vec::with_capacity(assignments.len().div_ceil(64));
        for chunk in assignments.chunks(64) {
            let mut patterns = vec![0u64; n];
            for (j, a) in chunk.iter().enumerate() {
                if a.len() != n {
                    return Err(NetlistError::InputCountMismatch {
                        expected: n,
                        got: a.len(),
                    });
                }
                for (p, &v) in patterns.iter_mut().zip(a) {
                    *p |= u64::from(v) << j;
                }
            }
            blocks.push(self.simulate(&patterns)?);
        }
        Ok(Simulated {
            blocks,
            len: assignments.len(),
        })
    }
}

/// A circuit's net values over a list of assignments, from
/// [`Compiled::simulate_all`].
#[derive(Debug, Clone, Default)]
pub struct Simulated {
    blocks: Vec<Vec<u64>>,
    len: usize,
}

impl Simulated {
    /// The simulated blocks: `blocks()[b][net]` packs the values of `net`
    /// under assignments `64 b .. 64 b + 64`, bit `k % 64` for assignment
    /// `k`.
    pub fn blocks(&self) -> &[Vec<u64>] {
        &self.blocks
    }

    /// Number of assignments.
    pub fn num_assignments(&self) -> usize {
        self.len
    }

    /// The bits of block `b` that hold an assignment. Only the last block
    /// can have others; they simulate the all-zero padding pattern.
    pub fn mask(&self, b: usize) -> u64 {
        match self.len - 64 * b {
            left if left >= 64 => !0,
            left => (1u64 << left) - 1,
        }
    }
}

/// Simulates `circuit` over up to 64 parallel patterns, packed as for
/// [`Compiled::simulate`]; compile once with [`Compiled::new`] to simulate
/// several blocks.
///
/// # Errors
///
/// [`NetlistError::InputCountMismatch`] when `patterns` does not match the
/// number of primary inputs, [`NetlistError::Cyclic`] for cyclic circuits.
///
/// # Example
///
/// ```
/// use eco_netlist::{Circuit, GateKind, sim};
///
/// # fn main() -> Result<(), eco_netlist::NetlistError> {
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let y = c.add_gate(GateKind::And, &[a, b])?;
/// c.add_output("y", y);
/// // Four patterns: (a,b) = 00, 10, 01, 11 in bits 0..4.
/// let words = sim::simulate64(&c, &[0b0110, 0b1010])?;
/// assert_eq!(words[y.index()] & 0b1111, 0b0010);
/// # Ok(())
/// # }
/// ```
pub fn simulate64(circuit: &Circuit, patterns: &[u64]) -> Result<Vec<u64>, NetlistError> {
    Compiled::new(circuit)?.simulate(patterns)
}

/// Extracts the boolean value of `bit` within pattern-block `words` for the
/// given net index.
#[inline]
pub fn word_bit(words: &[u64], net_index: usize, bit: usize) -> bool {
    (words[net_index] >> bit) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, GateKind};

    fn sample() -> Circuit {
        let mut c = Circuit::new("s");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Mux, &[d, g1, a]).unwrap();
        c.add_output("y", g2);
        c
    }

    #[test]
    fn parallel_matches_scalar() {
        let c = sample();
        // All 8 input combinations in bits 0..8.
        let mut patterns = vec![0u64; 3];
        #[allow(clippy::needless_range_loop)]
        for j in 0..8u64 {
            for i in 0..3 {
                if (j >> i) & 1 == 1 {
                    patterns[i] |= 1 << j;
                }
            }
        }
        let words = simulate64(&c, &patterns).unwrap();
        let ynet = c.outputs()[0].net();
        for j in 0..8 {
            let assign: Vec<bool> = (0..3).map(|i| (j >> i) & 1 == 1).collect();
            let scalar = c.eval(&assign).unwrap()[0];
            assert_eq!(word_bit(&words, ynet.index(), j), scalar, "pattern {j}");
        }
    }

    #[test]
    fn multi_block_patterns() {
        let c = sample();
        // 100 repeated assignments spanning two blocks.
        let assignments: Vec<Vec<bool>> = (0..100)
            .map(|j| vec![j % 2 == 0, j % 3 == 0, j % 5 == 0])
            .collect();
        let sim = Compiled::new(&c)
            .unwrap()
            .simulate_all(&assignments)
            .unwrap();
        assert_eq!(sim.blocks().len(), 2);
        assert_eq!((sim.mask(0), sim.mask(1)), (!0, (1 << 36) - 1));
        let ynet = c.outputs()[0].net();
        for (j, a) in assignments.iter().enumerate() {
            let scalar = c.eval(a).unwrap()[0];
            let got = word_bit(&sim.blocks()[j / 64], ynet.index(), j % 64);
            assert_eq!(got, scalar, "pattern {j}");
        }
    }

    #[test]
    fn tfo_reaches_outputs() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = c.add_gate(GateKind::Or, &[b, b]).unwrap();
        c.add_output("y1", g2);
        c.add_output("y2", g3);
        let compiled = Compiled::new(&c).unwrap();
        let members = |roots: &[NodeId]| {
            let tfo = compiled.tfo(roots);
            (0..c.num_nodes()).filter(|&i| tfo[i]).collect::<Vec<_>>()
        };
        assert_eq!(
            members(&[a.source()]),
            [a, g1, g2].map(|n| n.index()).to_vec()
        );
        assert_eq!(
            members(&[b.source()]),
            [b, g1, g2, g3].map(|n| n.index()).to_vec()
        );
        assert_eq!(members(&[g3.source()]), vec![g3.index()]);
        assert_eq!(members(&[]), Vec::<usize>::new());
    }

    #[test]
    fn input_count_checked() {
        let c = sample();
        let compiled = Compiled::new(&c).unwrap();
        assert!(simulate64(&c, &[0, 0]).is_err());
        assert!(compiled.simulate(&[0, 0]).is_err());
        assert!(compiled.simulate_all(&[vec![true, false]]).is_err());
    }
}
