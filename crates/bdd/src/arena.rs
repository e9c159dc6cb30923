//! Dense node arena: flat, append-only `Vec` storage.
//!
//! Nodes are addressed by `u32` index. Index 0 is the single terminal
//! (the constant-one function); there is no stored zero terminal — the
//! constant-false is the complement edge to node 0. Nothing is ever
//! freed, so a node's index never changes and the arena's length is the
//! manager's node count.

/// Variable tag of the terminal node.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// One BDD node. `lo`/`hi` are *edges*: `(node_index << 1) | complement`.
/// The `hi` edge of a stored node is always regular (complement bit 0);
/// this is the canonical-form invariant that makes negation a tag flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    pub var: u32,
    pub lo: u32,
    pub hi: u32,
}

/// Flat, append-only node store.
#[derive(Debug)]
pub(crate) struct Arena {
    nodes: Vec<Node>,
}

impl Arena {
    pub fn new() -> Self {
        let mut nodes = Vec::with_capacity(1024);
        nodes.push(Node {
            var: TERMINAL_VAR,
            lo: 0,
            hi: 0,
        });
        Arena { nodes }
    }

    /// Appends a node and returns its index.
    pub fn alloc(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { var, lo, hi });
        idx
    }

    #[inline(always)]
    pub fn node(&self, idx: u32) -> Node {
        self.nodes[idx as usize]
    }

    #[inline(always)]
    pub fn var(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].var
    }

    /// Node count, terminal included.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }
}
