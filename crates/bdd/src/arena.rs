//! Dense node arena: flat `Vec` storage with a free list.
//!
//! Nodes are addressed by `u32` index. Index 0 is the single terminal
//! (the constant-one function); there is no stored zero terminal — the
//! constant-false is the complement edge to node 0. Freed slots are
//! recycled through a LIFO free list so node indices of live nodes stay
//! stable across garbage collection (handles never move).

/// Variable tag of the terminal node.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;
/// Variable tag of a freed slot awaiting reuse.
pub(crate) const FREE_VAR: u32 = u32::MAX - 1;

/// One BDD node. `lo`/`hi` are *edges*: `(node_index << 1) | complement`.
/// The `hi` edge of a stored node is always regular (complement bit 0);
/// this is the canonical-form invariant that makes negation a tag flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    pub var: u32,
    pub lo: u32,
    pub hi: u32,
}

/// Flat node store with slot recycling and live/peak accounting.
#[derive(Debug)]
pub(crate) struct Arena {
    nodes: Vec<Node>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
}

impl Arena {
    pub fn new() -> Self {
        let mut nodes = Vec::with_capacity(1024);
        nodes.push(Node {
            var: TERMINAL_VAR,
            lo: 0,
            hi: 0,
        });
        Arena {
            nodes,
            free: Vec::new(),
            live: 1,
            peak: 1,
        }
    }

    /// Allocates a node, reusing a freed slot when one exists.
    pub fn alloc(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = Node { var, lo, hi };
                idx
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node { var, lo, hi });
                idx
            }
        };
        self.live += 1;
        if self.live > self.peak {
            self.peak = self.live;
        }
        idx
    }

    /// Returns a node's slot to the free list.
    pub fn release(&mut self, idx: u32) {
        debug_assert!(idx != 0, "the terminal is never freed");
        let n = &mut self.nodes[idx as usize];
        debug_assert!(n.var != FREE_VAR, "double free of node {idx}");
        n.var = FREE_VAR;
        n.lo = 0;
        n.hi = 0;
        self.free.push(idx);
        self.live -= 1;
    }

    #[inline(always)]
    pub fn node(&self, idx: u32) -> Node {
        self.nodes[idx as usize]
    }

    #[inline(always)]
    pub fn var(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].var
    }

    #[cfg(test)]
    pub fn is_free(&self, idx: u32) -> bool {
        self.nodes[idx as usize].var == FREE_VAR
    }

    /// Live node count, terminal included.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of the live node count.
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Number of slots ever allocated (free slots included).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates the indices of live non-terminal nodes.
    pub fn live_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, n)| n.var != FREE_VAR)
            .map(|(i, _)| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_recycles_slots() {
        let mut a = Arena::new();
        assert_eq!(a.live(), 1);
        assert_eq!(a.peak(), 1);
        let n1 = a.alloc(0, 1, 0);
        let n2 = a.alloc(1, 1, 0);
        assert_eq!(a.live(), 3);
        assert_eq!(a.peak(), 3);
        a.release(n1);
        assert_eq!(a.live(), 2);
        assert!(a.is_free(n1));
        let n3 = a.alloc(2, 1, 0);
        assert_eq!(n3, n1, "freed slot is reused");
        assert_eq!(a.live(), 3);
        assert_eq!(a.peak(), 3, "peak tracks the high-water mark");
        assert_eq!(a.var(n2), 1);
        assert_eq!(a.node(n3).var, 2);
        assert_eq!(a.live_indices().count(), 2);
    }
}
