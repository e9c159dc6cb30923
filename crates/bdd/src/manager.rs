//! The BDD node store and core operations.
//!
//! # Engine layout
//!
//! The manager is an arena engine with **complement edges**:
//!
//! * Nodes live in a flat [`Arena`](crate::arena) indexed by `u32`; a
//!   [`Bdd`] handle is an *edge* `(node_index << 1) | complement_bit`.
//! * There is a single terminal node (index 0, the constant one); the
//!   constant false is its complement edge. Negation is therefore a tag
//!   flip — no recursion, no nodes, no cache.
//! * Canonical form: the `hi` edge of every stored node is regular. Any
//!   function and its complement share one node, so equality of handles
//!   is still equality of functions.
//! * The unique table is open-addressed over node indices
//!   ([`unique`](crate::unique)); operation caches are sized,
//!   direct-mapped, and invalidated generationally
//!   ([`opcache`](crate::opcache)).
//! * Nothing is ever freed: the arena only grows, so every handle stays
//!   valid for the manager's lifetime.
//! * The variable order is fixed: a node's variable index is its level.
//!   Every recursion step reads the top variable straight off its
//!   operands' nodes.

use crate::arena::{Arena, TERMINAL_VAR};
use crate::opcache::DirectCache;
use crate::unique::UniqueTable;
use crate::BddError;

/// Handle to a BDD function owned by a [`BddManager`].
///
/// Handles are complement-tagged edges into the manager's node arena;
/// they are cheap to copy and stay valid for the manager's lifetime.
/// Using a handle with a different manager is a logic error and yields
/// unspecified functions (but no undefined behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

/// Edge constants: the terminal node is index 0 and denotes *one*; the
/// constant false is its complement edge.
const E_TRUE: u32 = 0;
const E_FALSE: u32 = 1;

const OP_AND: u32 = 0;
const OP_XOR: u32 = 1;

/// An ROBDD manager: append-only arena node store, open-addressed unique
/// table, generational operation caches, and a node budget.
///
/// See the [crate-level documentation](crate) for an overview and example.
pub struct BddManager {
    arena: Arena,
    unique: UniqueTable,
    apply_cache: DirectCache,
    ite_cache: DirectCache,
    quant_cache: DirectCache,
    node_limit: usize,
}

impl std::fmt::Debug for BddManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BddManager")
            .field("nodes", &self.arena.len())
            .field("node_limit", &self.node_limit)
            .finish_non_exhaustive()
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates a manager with the default node limit of 4,000,000 nodes:
    /// generous for the oracles' and the benchmark's builds, small enough
    /// to abort a runaway one.
    pub fn new() -> Self {
        Self::with_node_limit(4_000_000)
    }

    /// Creates a manager with an explicit node budget.
    pub fn with_node_limit(node_limit: usize) -> Self {
        BddManager {
            arena: Arena::new(),
            unique: UniqueTable::new(),
            // A cache doubles under collision pressure up to its ceiling
            // (20-byte slots: 80, 20 and 40 MiB), so a manager that builds
            // little never pays for these maxima.
            apply_cache: DirectCache::new(1 << 12, 1 << 22),
            ite_cache: DirectCache::new(1 << 10, 1 << 20),
            quant_cache: DirectCache::new(1 << 10, 1 << 21),
            node_limit,
        }
    }

    /// The constant-false function.
    #[inline]
    pub fn zero(&self) -> Bdd {
        Bdd(E_FALSE)
    }

    /// The constant-true function.
    #[inline]
    pub fn one(&self) -> Bdd {
        Bdd(E_TRUE)
    }

    /// Returns the function of variable `index`. The variable index is the
    /// diagram level: lower indices are nearer the root.
    pub fn var(&mut self, index: u32) -> Bdd {
        Bdd(self.mk(index, E_FALSE, E_TRUE))
    }

    /// Returns the negated variable `index`.
    pub fn nvar(&mut self, index: u32) -> Bdd {
        Bdd(self.mk(index, E_FALSE, E_TRUE) ^ 1)
    }

    /// Find-or-create for `(var, lo, hi)` edges, normalizing to the
    /// canonical hi-regular form.
    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        if hi & 1 == 1 {
            // Keep the hi edge regular: ¬mk(v, ¬lo, ¬hi).
            return self.mk_regular(var, lo ^ 1, hi ^ 1) ^ 1;
        }
        self.mk_regular(var, lo, hi)
    }

    #[inline]
    fn mk_regular(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if let Some(idx) = self.unique.find(&self.arena, var, lo, hi) {
            return idx << 1;
        }
        let idx = self.arena.alloc(var, lo, hi);
        self.unique.insert(&self.arena, idx, var, lo, hi);
        idx << 1
    }

    #[inline]
    fn check_budget(&self) -> Result<(), BddError> {
        if self.arena.len() > self.node_limit {
            return Err(BddError::NodeLimit {
                limit: self.node_limit,
            });
        }
        Ok(())
    }

    /// Variable, and so level, of an edge's node. The terminal's
    /// `TERMINAL_VAR` is `u32::MAX`, below every variable.
    #[inline(always)]
    fn level_of(&self, edge: u32) -> u32 {
        self.arena.var(edge >> 1)
    }

    /// Cofactors of `edge` with respect to variable `var`, complement bit
    /// pushed into the children. `var` is never the terminal's.
    #[inline(always)]
    fn cofactors_at(&self, edge: u32, var: u32) -> (u32, u32) {
        let n = self.arena.node(edge >> 1);
        if n.var == var {
            let c = edge & 1;
            (n.lo ^ c, n.hi ^ c)
        } else {
            (edge, edge)
        }
    }

    /// Whether `f` is one of the two constants.
    #[inline]
    pub fn is_const(&self, f: Bdd) -> bool {
        f.0 >> 1 == 0
    }

    /// The root variable of `f`, if `f` is not a constant.
    pub fn root_var(&self, f: Bdd) -> Option<u32> {
        let v = self.arena.var(f.0 >> 1);
        if v == TERMINAL_VAR {
            None
        } else {
            Some(v)
        }
    }

    /// Low (`var = 0`) child of a non-constant function. The complement
    /// tag of `f` is pushed into the returned edge, so the child denotes
    /// the actual cofactor `f|var=0`.
    pub fn low(&self, f: Bdd) -> Bdd {
        let n = self.arena.node(f.0 >> 1);
        Bdd(n.lo ^ (f.0 & 1))
    }

    /// High (`var = 1`) child of a non-constant function (see
    /// [`low`](BddManager::low)).
    pub fn high(&self, f: Bdd) -> Bdd {
        let n = self.arena.node(f.0 >> 1);
        Bdd(n.hi ^ (f.0 & 1))
    }

    // ------------------------------------------------------------------
    // Connectives
    // ------------------------------------------------------------------

    /// Negation: a complement-tag flip. Never fails and never allocates;
    /// the `Result` is kept for signature stability.
    ///
    /// # Errors
    ///
    /// Never.
    pub fn not(&mut self, f: Bdd) -> Result<Bdd, BddError> {
        Ok(Bdd(f.0 ^ 1))
    }

    /// Conjunction.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        Ok(Bdd(self.and_rec(f.0, g.0)?))
    }

    /// Disjunction (via De Morgan on the AND cache).
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        Ok(Bdd(self.and_rec(f.0 ^ 1, g.0 ^ 1)? ^ 1))
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        Ok(Bdd(self.xor_rec(f.0, g.0)?))
    }

    /// Equivalence `f ≡ g`.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        Ok(Bdd(self.xor_rec(f.0, g.0)? ^ 1))
    }

    /// Implication `f → g`.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        Ok(Bdd(self.and_rec(f.0, g.0 ^ 1)? ^ 1))
    }

    /// If-then-else `i ? t : e`.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn ite(&mut self, i: Bdd, t: Bdd, e: Bdd) -> Result<Bdd, BddError> {
        Ok(Bdd(self.ite_rec(i.0, t.0, e.0)?))
    }

    fn and_rec(&mut self, f: u32, g: u32) -> Result<u32, BddError> {
        if f == E_FALSE || g == E_FALSE || f == g ^ 1 {
            return Ok(E_FALSE);
        }
        if f == E_TRUE {
            return Ok(g);
        }
        if g == E_TRUE || f == g {
            return Ok(f);
        }
        // Commutative: canonicalize operand order.
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.apply_cache.lookup(f, g, OP_AND) {
            return Ok(r);
        }
        self.check_budget()?;
        let var = self.level_of(f).min(self.level_of(g));
        let (f0, f1) = self.cofactors_at(f, var);
        let (g0, g1) = self.cofactors_at(g, var);
        let lo = self.and_rec(f0, g0)?;
        let hi = self.and_rec(f1, g1)?;
        let r = self.mk(var, lo, hi);
        self.apply_cache.insert(f, g, OP_AND, r);
        Ok(r)
    }

    fn xor_rec(&mut self, f: u32, g: u32) -> Result<u32, BddError> {
        // XOR absorbs complements: strip them and re-apply to the result,
        // which quarters the cache's key space.
        let sign = (f ^ g) & 1;
        let (f, g) = (f & !1u32, g & !1u32);
        if f == g {
            return Ok(E_FALSE ^ sign);
        }
        if f == E_TRUE {
            return Ok(g ^ 1 ^ sign);
        }
        if g == E_TRUE {
            return Ok(f ^ 1 ^ sign);
        }
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.apply_cache.lookup(f, g, OP_XOR) {
            return Ok(r ^ sign);
        }
        self.check_budget()?;
        let var = self.level_of(f).min(self.level_of(g));
        let (f0, f1) = self.cofactors_at(f, var);
        let (g0, g1) = self.cofactors_at(g, var);
        let lo = self.xor_rec(f0, g0)?;
        let hi = self.xor_rec(f1, g1)?;
        let r = self.mk(var, lo, hi);
        self.apply_cache.insert(f, g, OP_XOR, r);
        Ok(r ^ sign)
    }

    fn ite_rec(&mut self, mut i: u32, mut t: u32, mut e: u32) -> Result<u32, BddError> {
        if i == E_TRUE {
            return Ok(t);
        }
        if i == E_FALSE {
            return Ok(e);
        }
        if t == e {
            return Ok(t);
        }
        if t == E_TRUE && e == E_FALSE {
            return Ok(i);
        }
        if t == E_FALSE && e == E_TRUE {
            return Ok(i ^ 1);
        }
        // Canonicalize: regular condition, then regular then-branch.
        if i & 1 == 1 {
            i ^= 1;
            std::mem::swap(&mut t, &mut e);
        }
        let sign = t & 1;
        if sign == 1 {
            t ^= 1;
            e ^= 1;
        }
        if let Some(r) = self.ite_cache.lookup(i, t, e) {
            return Ok(r ^ sign);
        }
        self.check_budget()?;
        let var = self.level_of(i).min(self.level_of(t)).min(self.level_of(e));
        let (i0, i1) = self.cofactors_at(i, var);
        let (t0, t1) = self.cofactors_at(t, var);
        let (e0, e1) = self.cofactors_at(e, var);
        let lo = self.ite_rec(i0, t0, e0)?;
        let hi = self.ite_rec(i1, t1, e1)?;
        let r = self.mk(var, lo, hi);
        self.ite_cache.insert(i, t, e, r);
        Ok(r ^ sign)
    }

    // ------------------------------------------------------------------
    // Quantification
    // ------------------------------------------------------------------

    /// Builds the positive cube `⋀ vars` used as a quantification scope.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn var_cube(&mut self, vars: &[u32]) -> Result<Bdd, BddError> {
        let mut sorted = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // Build bottom-up in diagram order so each AND is a single mk.
        let mut cube = self.one();
        for &v in sorted.iter().rev() {
            let lit = self.var(v);
            cube = self.and(lit, cube)?;
        }
        Ok(cube)
    }

    /// Existential quantification `∃ vars . f`; `cube` is a positive cube of
    /// the quantified variables (see [`var_cube`](BddManager::var_cube)).
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn exists(&mut self, f: Bdd, cube: Bdd) -> Result<Bdd, BddError> {
        Ok(Bdd(self.exists_rec(f.0, cube.0)?))
    }

    /// Universal quantification `∀ vars . f` (via `¬∃¬`, sharing the
    /// existential cache).
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn forall(&mut self, f: Bdd, cube: Bdd) -> Result<Bdd, BddError> {
        Ok(Bdd(self.exists_rec(f.0 ^ 1, cube.0)? ^ 1))
    }

    fn exists_rec(&mut self, f: u32, cube: u32) -> Result<u32, BddError> {
        if f >> 1 == 0 || cube == E_TRUE {
            return Ok(f);
        }
        if let Some(r) = self.quant_cache.lookup(f, cube, 0) {
            return Ok(r);
        }
        self.check_budget()?;
        let flevel = self.level_of(f);
        let clevel = self.level_of(cube);
        let r = if clevel < flevel {
            // Quantified variable does not appear in f at this level. The
            // cube is a positive conjunction, so its hi edge is the rest.
            let next = self.arena.node(cube >> 1).hi;
            self.exists_rec(f, next)?
        } else {
            let c = f & 1;
            let n = self.arena.node(f >> 1);
            let (f0, f1) = (n.lo ^ c, n.hi ^ c);
            if flevel == clevel {
                let next = self.arena.node(cube >> 1).hi;
                let lo = self.exists_rec(f0, next)?;
                if lo == E_TRUE {
                    E_TRUE
                } else {
                    let hi = self.exists_rec(f1, next)?;
                    self.and_rec(lo ^ 1, hi ^ 1)? ^ 1
                }
            } else {
                let lo = self.exists_rec(f0, cube)?;
                let hi = self.exists_rec(f1, cube)?;
                self.mk(n.var, lo, hi)
            }
        };
        self.quant_cache.insert(f, cube, 0, r);
        Ok(r)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Evaluates `f` under a total assignment indexed by variable.
    ///
    /// Variables beyond `assignment.len()` evaluate as `false`.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut edge = f.0;
        let mut negated = false;
        loop {
            negated ^= edge & 1 == 1;
            let idx = edge >> 1;
            if idx == 0 {
                return !negated;
            }
            let n = self.arena.node(idx);
            let v = assignment.get(n.var as usize).copied().unwrap_or(false);
            edge = if v { n.hi } else { n.lo };
        }
    }

    /// Clears operation caches (unique table and nodes are kept) in O(1).
    pub fn clear_caches(&mut self) {
        self.apply_cache.clear();
        self.ite_cache.clear();
        self.quant_cache.clear();
    }

    /// Number of nodes allocated, the terminal included. Nothing is ever
    /// freed, so this is also the high-water mark.
    #[inline]
    pub fn peak_num_nodes(&self) -> usize {
        self.arena.len()
    }
}

// Managers are built on worker threads (the fuzz oracles, the benchmark),
// so keep the store `Send`: free of `Rc`/raw-pointer state.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<BddManager>();
    assert_send_sync::<Bdd>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BddManager {
        BddManager::new()
    }

    #[test]
    fn repeated_apply_hits_the_cache() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let first = m.and(a, b).unwrap();
        assert_eq!(m.apply_cache.lookup(a.0, b.0, OP_AND), Some(first.0));
        let nodes = m.peak_num_nodes();
        let second = m.and(a, b).unwrap();
        assert_eq!(first, second);
        assert_eq!(m.peak_num_nodes(), nodes);
        m.clear_caches();
        assert_eq!(m.apply_cache.lookup(a.0, b.0, OP_AND), None);
        assert_eq!(
            m.and(a, b).unwrap(),
            first,
            "the unique table outlives a clear"
        );
    }

    #[test]
    fn complement_pairs_share_one_node() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b).unwrap();
        let nodes = m.peak_num_nodes();
        let nf = m.not(f).unwrap();
        assert_ne!(f, nf);
        assert_eq!(m.peak_num_nodes(), nodes, "negation allocates nothing");
        let back = m.not(nf).unwrap();
        assert_eq!(back, f, "double negation is the identity");
        // The negated variable shares the variable's node.
        let na = m.nvar(0);
        assert_eq!(m.peak_num_nodes(), nodes);
        let na2 = m.not(a).unwrap();
        assert_eq!(na, na2);
    }

    #[test]
    fn peak_nodes_and_unique_table_track_growth() {
        let mut m = mgr();
        assert_eq!(m.peak_num_nodes(), 1); // the shared terminal
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b).unwrap();
        let peak = m.peak_num_nodes();
        assert!(peak > 1);
        m.clear_caches();
        assert_eq!(m.peak_num_nodes(), peak);
        // With the caches cleared, only the unique table can find the
        // nodes of a rebuild.
        assert_eq!(m.xor(a, b).unwrap(), f);
        assert_eq!(m.peak_num_nodes(), peak);
    }

    #[test]
    fn terminals() {
        let m = mgr();
        assert!(m.is_const(m.zero()));
        assert!(m.is_const(m.one()));
        assert_ne!(m.zero(), m.one());
    }

    #[test]
    fn var_is_canonical() {
        let mut m = mgr();
        let a1 = m.var(0);
        let a2 = m.var(0);
        assert_eq!(a1, a2);
    }

    #[test]
    fn connective_truth_tables() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let and = m.and(a, b).unwrap();
        let or = m.or(a, b).unwrap();
        let xor = m.xor(a, b).unwrap();
        let iff = m.iff(a, b).unwrap();
        let imp = m.implies(a, b).unwrap();
        for i in 0..4u8 {
            let assign = [(i & 1) == 1, (i & 2) == 2];
            let (x, y) = (assign[0], assign[1]);
            assert_eq!(m.eval(and, &assign), x && y);
            assert_eq!(m.eval(or, &assign), x || y);
            assert_eq!(m.eval(xor, &assign), x ^ y);
            assert_eq!(m.eval(iff, &assign), x == y);
            assert_eq!(m.eval(imp, &assign), !x || y);
        }
    }

    #[test]
    fn de_morgan_canonical() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let and = m.and(a, b).unwrap();
        let lhs = m.not(and).unwrap();
        let na = m.not(a).unwrap();
        let nb = m.not(b).unwrap();
        let rhs = m.or(na, nb).unwrap();
        assert_eq!(lhs, rhs, "canonicity: equal functions share a handle");
    }

    #[test]
    fn ite_matches_formula() {
        let mut m = mgr();
        let i = m.var(0);
        let t = m.var(1);
        let e = m.var(2);
        let ite = m.ite(i, t, e).unwrap();
        let it = m.and(i, t).unwrap();
        let ni = m.not(i).unwrap();
        let nie = m.and(ni, e).unwrap();
        let formula = m.or(it, nie).unwrap();
        assert_eq!(ite, formula);
    }

    #[test]
    fn quantification() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b).unwrap();
        let cube_a = m.var_cube(&[0]).unwrap();
        let ex = m.exists(f, cube_a).unwrap();
        assert_eq!(ex, b); // ∃a. a∧b  =  b
        let fa = m.forall(f, cube_a).unwrap();
        assert_eq!(fa, m.zero()); // ∀a. a∧b  =  0
        let g = m.or(a, b).unwrap();
        let fa_or = m.forall(g, cube_a).unwrap();
        assert_eq!(fa_or, b); // ∀a. a∨b  =  b
    }

    #[test]
    fn quantify_multiple_vars() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let cube = m.var_cube(&[0, 1]).unwrap();
        let ex = m.exists(f, cube).unwrap();
        assert_eq!(ex, m.one()); // some a,b makes it true regardless of c
        let fa = m.forall(f, cube).unwrap();
        assert_eq!(fa, c); // only c guarantees truth
    }

    #[test]
    fn node_limit_enforced() {
        let mut m = BddManager::with_node_limit(16);
        // Build functions needing many distinct nodes against a tiny budget.
        let mut r = Ok(());
        let mut acc = m.zero();
        'outer: for i in 0..20 {
            for j in (i + 1)..20 {
                let a = m.var(i);
                let b = m.var(j);
                let f = match m.and(a, b) {
                    Ok(f) => f,
                    Err(e) => {
                        r = Err(e);
                        break 'outer;
                    }
                };
                match m.xor(acc, f) {
                    Ok(g) => acc = g,
                    Err(e) => {
                        r = Err(e);
                        break 'outer;
                    }
                }
            }
        }
        assert!(matches!(r, Err(BddError::NodeLimit { .. })));
    }

    #[test]
    fn implies_check_decides() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let and = m.and(a, b).unwrap();
        let or = m.or(a, b).unwrap();
        assert_eq!(m.implies(and, or).unwrap(), m.one());
        assert_ne!(m.implies(or, and).unwrap(), m.one());
    }

    #[test]
    fn eval_with_short_assignment_defaults_false() {
        let mut m = mgr();
        let v5 = m.var(5);
        assert!(!m.eval(v5, &[true, true]));
    }

    #[test]
    fn parity_chain_is_linear() {
        // Parity has a linear-size BDD under any order; with complement
        // edges it is one node per level. Built leaf level first, each
        // step adds one variable node and one parity node.
        let mut m = mgr();
        let mut f = m.zero();
        for i in (0..64).rev() {
            let v = m.var(i);
            f = m.xor(v, f).unwrap();
        }
        // The terminal, 64 variables, and a parity node on each level but
        // the last, where parity is the variable itself.
        assert_eq!(m.peak_num_nodes(), 1 + 64 + 63);
    }
}
