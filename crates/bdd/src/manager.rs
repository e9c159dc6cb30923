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
//! * Mark-and-sweep garbage collection ([`BddManager::gc`]) frees nodes
//!   unreachable from the caller-supplied roots and the
//!   [`protect`](BddManager::protect)ed set; node indices of survivors
//!   never move, so live handles stay valid.
//! * The variable order is fixed: a node's variable index is its level.
//!   Every recursion step reads the top variable straight off its
//!   operands' nodes.

use std::collections::HashMap;

use crate::arena::{Arena, TERMINAL_VAR};
use crate::opcache::DirectCache;
use crate::unique::UniqueTable;
use crate::BddError;

/// Handle to a BDD function owned by a [`BddManager`].
///
/// Handles are complement-tagged edges into the manager's node arena;
/// they are cheap to copy. A handle stays valid as long as it is
/// reachable from a [`protect`](BddManager::protect)ed root at every
/// [`gc`](BddManager::gc) — managers without garbage collection enabled
/// (the default) never invalidate handles. Using a handle with a
/// different manager is a logic error and yields unspecified functions
/// (but no undefined behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

/// Edge constants: the terminal node is index 0 and denotes *one*; the
/// constant false is its complement edge.
const E_TRUE: u32 = 0;
const E_FALSE: u32 = 1;

const OP_AND: u32 = 0;
const OP_XOR: u32 = 1;

/// Operation-cache hit/miss counters of a [`BddManager`].
///
/// A *hit* is a memoized result returned without recursion; a *miss* is a
/// cache lookup that fell through to the recursive computation (terminal
/// short-circuits count as neither). Counters are cumulative since manager
/// creation or the last [`BddManager::reset_counters`], and deterministic
/// for a deterministic operation sequence — summing them across independent
/// managers is therefore order-insensitive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddCounters {
    /// Apply-cache (AND/XOR; OR and IFF derive via complement) hits.
    pub apply_hits: u64,
    /// Apply-cache misses.
    pub apply_misses: u64,
    /// ITE-cache hits.
    pub ite_hits: u64,
    /// ITE-cache misses.
    pub ite_misses: u64,
    /// Quantification-cache hits.
    pub quant_hits: u64,
    /// Quantification-cache misses.
    pub quant_misses: u64,
    /// Unique-table resize (rehash) events: inserts that grew the table's
    /// allocated capacity. Rebuilds after garbage collection don't count.
    pub unique_resizes: u64,
    /// Operation-cache entries dropped: by [`BddManager::clear_caches`],
    /// by garbage collection, or overwritten on a direct-mapped collision.
    pub evictions: u64,
    /// Garbage-collection passes run.
    pub gc_runs: u64,
    /// Nodes reclaimed by garbage collection.
    pub gc_freed_nodes: u64,
}

impl BddCounters {
    /// Total cache hits across every operation cache.
    pub fn total_hits(&self) -> u64 {
        self.apply_hits + self.ite_hits + self.quant_hits
    }

    /// Total cache misses across every operation cache.
    pub fn total_misses(&self) -> u64 {
        self.apply_misses + self.ite_misses + self.quant_misses
    }
}

impl std::ops::AddAssign for BddCounters {
    fn add_assign(&mut self, rhs: BddCounters) {
        self.apply_hits += rhs.apply_hits;
        self.apply_misses += rhs.apply_misses;
        self.ite_hits += rhs.ite_hits;
        self.ite_misses += rhs.ite_misses;
        self.quant_hits += rhs.quant_hits;
        self.quant_misses += rhs.quant_misses;
        self.unique_resizes += rhs.unique_resizes;
        self.evictions += rhs.evictions;
        self.gc_runs += rhs.gc_runs;
        self.gc_freed_nodes += rhs.gc_freed_nodes;
    }
}

/// An ROBDD manager: arena node store, open-addressed unique table,
/// generational operation caches, optional garbage collection, and a node
/// budget.
///
/// See the [crate-level documentation](crate) for an overview and example.
pub struct BddManager {
    arena: Arena,
    unique: UniqueTable,
    apply_cache: DirectCache,
    ite_cache: DirectCache,
    quant_cache: DirectCache,
    num_vars: u32,
    node_limit: usize,
    counters: BddCounters,
    resizes_offset: u64,
    protected: HashMap<u32, u32>,
    gc_threshold: Option<usize>,
    gc_initial_threshold: usize,
}

impl std::fmt::Debug for BddManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BddManager")
            .field("live_nodes", &self.arena.live())
            .field("num_vars", &self.num_vars)
            .field("node_limit", &self.node_limit)
            .field("gc_threshold", &self.gc_threshold)
            .finish_non_exhaustive()
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Default node budget: generous for sampling-domain work, small enough
    /// to abort runaway exact-domain computations.
    pub const DEFAULT_NODE_LIMIT: usize = 4_000_000;

    /// Creates a manager with the default node limit.
    pub fn new() -> Self {
        Self::with_node_limit(Self::DEFAULT_NODE_LIMIT)
    }

    /// Creates a manager with an explicit node budget.
    pub fn with_node_limit(node_limit: usize) -> Self {
        BddManager {
            arena: Arena::new(),
            unique: UniqueTable::new(),
            // Ceilings sized for the par16 profile: the quantification-heavy
            // point-set builds push millions of distinct keys through the
            // ite/quant caches, and a 2^16 ceiling measurably thrashes
            // (sub-50% hit rates from collision evictions alone). Growth is
            // demand-driven, so small managers never pay for these maxima.
            apply_cache: DirectCache::new(1 << 12, 1 << 22),
            ite_cache: DirectCache::new(1 << 10, 1 << 20),
            quant_cache: DirectCache::new(1 << 10, 1 << 21),
            num_vars: 0,
            node_limit,
            counters: BddCounters::default(),
            resizes_offset: 0,
            protected: HashMap::new(),
            gc_threshold: None,
            gc_initial_threshold: 0,
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

    /// Number of live nodes (the terminal included).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.arena.live()
    }

    /// Number of allocated variables.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    fn ensure_var(&mut self, index: u32) {
        if index >= self.num_vars {
            self.num_vars = index + 1;
        }
    }

    /// Returns the function of variable `index`, allocating variables up to
    /// and including it. The variable index is the diagram level: lower
    /// indices are nearer the root.
    pub fn var(&mut self, index: u32) -> Bdd {
        self.ensure_var(index);
        Bdd(self.mk(index, E_FALSE, E_TRUE))
    }

    /// Returns the negated variable `index`.
    pub fn nvar(&mut self, index: u32) -> Bdd {
        self.ensure_var(index);
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
        if self.arena.live() > self.node_limit {
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
            self.counters.apply_hits += 1;
            return Ok(r);
        }
        self.counters.apply_misses += 1;
        self.check_budget()?;
        let var = self.level_of(f).min(self.level_of(g));
        let (f0, f1) = self.cofactors_at(f, var);
        let (g0, g1) = self.cofactors_at(g, var);
        let lo = self.and_rec(f0, g0)?;
        let hi = self.and_rec(f1, g1)?;
        let r = self.mk(var, lo, hi);
        self.counters.evictions += self.apply_cache.insert(f, g, OP_AND, r);
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
            self.counters.apply_hits += 1;
            return Ok(r ^ sign);
        }
        self.counters.apply_misses += 1;
        self.check_budget()?;
        let var = self.level_of(f).min(self.level_of(g));
        let (f0, f1) = self.cofactors_at(f, var);
        let (g0, g1) = self.cofactors_at(g, var);
        let lo = self.xor_rec(f0, g0)?;
        let hi = self.xor_rec(f1, g1)?;
        let r = self.mk(var, lo, hi);
        self.counters.evictions += self.apply_cache.insert(f, g, OP_XOR, r);
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
            self.counters.ite_hits += 1;
            return Ok(r ^ sign);
        }
        self.counters.ite_misses += 1;
        self.check_budget()?;
        let var = self.level_of(i).min(self.level_of(t)).min(self.level_of(e));
        let (i0, i1) = self.cofactors_at(i, var);
        let (t0, t1) = self.cofactors_at(t, var);
        let (e0, e1) = self.cofactors_at(e, var);
        let lo = self.ite_rec(i0, t0, e0)?;
        let hi = self.ite_rec(i1, t1, e1)?;
        let r = self.mk(var, lo, hi);
        self.counters.evictions += self.ite_cache.insert(i, t, e, r);
        Ok(r ^ sign)
    }

    // ------------------------------------------------------------------
    // Cofactor & quantification
    // ------------------------------------------------------------------

    /// Cofactor of `f` with variable `var` fixed to `value`.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn restrict(&mut self, f: Bdd, var: u32, value: bool) -> Result<Bdd, BddError> {
        if var >= self.num_vars {
            return Ok(f);
        }
        Ok(Bdd(self.restrict_rec(f.0, var, value)?))
    }

    fn restrict_rec(&mut self, f: u32, var: u32, value: bool) -> Result<u32, BddError> {
        let flevel = self.level_of(f);
        if flevel > var {
            return Ok(f);
        }
        self.check_budget()?;
        let c = f & 1;
        let n = self.arena.node(f >> 1);
        if flevel == var {
            return Ok(if value { n.hi ^ c } else { n.lo ^ c });
        }
        let lo = self.restrict_rec(n.lo ^ c, var, value)?;
        let hi = self.restrict_rec(n.hi ^ c, var, value)?;
        Ok(self.mk(n.var, lo, hi))
    }

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
            self.counters.quant_hits += 1;
            return Ok(r);
        }
        self.counters.quant_misses += 1;
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
        self.counters.evictions += self.quant_cache.insert(f, cube, 0, r);
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

    /// Checks `f → g` as a decision procedure (no new nodes beyond the
    /// intermediate conjunction).
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn implies_check(&mut self, f: Bdd, g: Bdd) -> Result<bool, BddError> {
        Ok(self.and_rec(f.0, g.0 ^ 1)? == E_FALSE)
    }

    /// Number of satisfying assignments of `f` over variables `0..num_vars`.
    ///
    /// Returned as `f64` to stay robust for wide variable scopes. The
    /// computation is a density recursion (`p(node) = (p(lo)+p(hi))/2`),
    /// which is independent of the variable order.
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> f64 {
        fn density(m: &BddManager, idx: u32, memo: &mut HashMap<u32, f64>) -> f64 {
            if idx == 0 {
                return 1.0;
            }
            if let Some(&p) = memo.get(&idx) {
                return p;
            }
            let n = m.arena.node(idx);
            let lo = density(m, n.lo >> 1, memo);
            let lo = if n.lo & 1 == 1 { 1.0 - lo } else { lo };
            let hi = density(m, n.hi >> 1, memo);
            let hi = if n.hi & 1 == 1 { 1.0 - hi } else { hi };
            let p = 0.5 * (lo + hi);
            memo.insert(idx, p);
            p
        }
        let mut memo = HashMap::new();
        let p = density(self, f.0 >> 1, &mut memo);
        let p = if f.0 & 1 == 1 { 1.0 - p } else { p };
        p * 2f64.powi(num_vars as i32)
    }

    /// Clears operation caches (unique table and nodes are kept).
    ///
    /// Useful between large independent computations to bound memory.
    /// Hit/miss [`counters`](BddManager::counters) are cumulative and are
    /// *not* reset — use [`reset_counters`](BddManager::reset_counters).
    pub fn clear_caches(&mut self) {
        self.counters.evictions +=
            self.apply_cache.clear() + self.ite_cache.clear() + self.quant_cache.clear();
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Pins `f` (and everything it reaches) as a garbage-collection root.
    /// Protection is refcounted: `n` protects require `n` unprotects.
    pub fn protect(&mut self, f: Bdd) {
        let idx = f.0 >> 1;
        if idx != 0 {
            *self.protected.entry(idx).or_insert(0) += 1;
        }
    }

    /// Releases one protection of `f` (no-op if `f` is not protected).
    pub fn unprotect(&mut self, f: Bdd) {
        let idx = f.0 >> 1;
        if let Some(count) = self.protected.get_mut(&idx) {
            *count -= 1;
            if *count == 0 {
                self.protected.remove(&idx);
            }
        }
    }

    /// Enables automatic collection through
    /// [`maybe_gc`](BddManager::maybe_gc) once the live node count exceeds
    /// `threshold`; `None` disables it (the default). After each
    /// collection the threshold adapts to `max(threshold, 2 × live)`.
    pub fn set_gc_threshold(&mut self, threshold: Option<usize>) {
        self.gc_threshold = threshold;
        self.gc_initial_threshold = threshold.unwrap_or(0);
    }

    /// Runs mark-and-sweep garbage collection now and returns the number
    /// of nodes freed. Live are: the terminal, everything reachable from
    /// `roots`, and everything reachable from the
    /// [`protect`](BddManager::protect)ed set. Operation caches are
    /// invalidated; surviving nodes keep their indices, so every handle
    /// rooted in the live set stays valid.
    pub fn gc(&mut self, roots: &[Bdd]) -> usize {
        let mut marked = vec![false; self.arena.capacity()];
        marked[0] = true;
        let mut stack: Vec<u32> = roots.iter().map(|f| f.0 >> 1).collect();
        stack.extend(self.protected.keys().copied());
        while let Some(idx) = stack.pop() {
            if marked[idx as usize] {
                continue;
            }
            marked[idx as usize] = true;
            let n = self.arena.node(idx);
            stack.push(n.lo >> 1);
            stack.push(n.hi >> 1);
        }
        let dead: Vec<u32> = self
            .arena
            .live_indices()
            .filter(|&idx| !marked[idx as usize])
            .collect();
        let freed = dead.len();
        for idx in dead {
            self.arena.release(idx);
        }
        self.unique.rebuild(&self.arena);
        // Cached results may reference freed nodes; drop every generation.
        self.counters.evictions +=
            self.apply_cache.clear() + self.ite_cache.clear() + self.quant_cache.clear();
        self.counters.gc_runs += 1;
        self.counters.gc_freed_nodes += freed as u64;
        if self.gc_threshold.is_some() {
            self.gc_threshold = Some((self.arena.live() * 2).max(self.gc_initial_threshold));
        }
        freed
    }

    /// Collects when garbage collection is enabled and the live node count
    /// exceeds the adaptive threshold; returns whether it ran.
    pub fn maybe_gc(&mut self, roots: &[Bdd]) -> bool {
        match self.gc_threshold {
            Some(t) if self.arena.live() > t => {
                self.gc(roots);
                true
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Instrumentation
    // ------------------------------------------------------------------

    /// Cumulative operation-cache hit/miss counters.
    #[inline]
    pub fn counters(&self) -> BddCounters {
        BddCounters {
            unique_resizes: self.unique.resizes() - self.resizes_offset,
            ..self.counters
        }
    }

    /// Resets the hit/miss counters to zero (caches are untouched).
    pub fn reset_counters(&mut self) {
        self.counters = BddCounters::default();
        self.resizes_offset = self.unique.resizes();
    }

    /// High-water mark of the live node count (the terminal included).
    #[inline]
    pub fn peak_num_nodes(&self) -> usize {
        self.arena.peak()
    }

    /// Number of entries in the unique table (the terminal excluded).
    #[inline]
    pub fn unique_table_len(&self) -> usize {
        self.unique.len()
    }

    /// Live node count per level: index `v` holds the number of live nodes
    /// labelled with variable `v` (the terminal excluded). The vector has
    /// [`num_vars`](BddManager::num_vars) entries.
    pub fn nodes_per_level(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.num_vars as usize];
        for idx in self.arena.live_indices() {
            levels[self.arena.var(idx) as usize] += 1;
        }
        levels
    }

    /// Functional composition `f[var := g]`.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn compose(&mut self, f: Bdd, var: u32, g: Bdd) -> Result<Bdd, BddError> {
        // f[var := g] = ite(g, f|var=1, f|var=0)
        let hi = self.restrict(f, var, true)?;
        let lo = self.restrict(f, var, false)?;
        self.ite(g, hi, lo)
    }

    /// The set of variables `f` depends on, in ascending order.
    pub fn support(&self, f: Bdd) -> Vec<u32> {
        let mut vars = std::collections::BTreeSet::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.0 >> 1];
        while let Some(idx) = stack.pop() {
            if idx == 0 || !seen.insert(idx) {
                continue;
            }
            let node = self.arena.node(idx);
            vars.insert(node.var);
            stack.push(node.lo >> 1);
            stack.push(node.hi >> 1);
        }
        vars.into_iter().collect()
    }

    /// Number of distinct nodes in the DAG rooted at `f` (the terminal
    /// excluded). A function and its complement share every node.
    pub fn dag_size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.0 >> 1];
        while let Some(idx) = stack.pop() {
            if idx == 0 || !seen.insert(idx) {
                continue;
            }
            let node = self.arena.node(idx);
            stack.push(node.lo >> 1);
            stack.push(node.hi >> 1);
        }
        seen.len()
    }

    /// Renders `f` in Graphviz dot format (solid = high edge, dashed =
    /// low edge, `odot` arrowhead = complemented edge).
    pub fn to_dot(&self, f: Bdd, name: &str) -> String {
        use std::fmt::Write;
        let mut out = format!("digraph \"{name}\" {{\n");
        out.push_str("  n0 [shape=box,label=\"1\"];\n");
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.0 >> 1];
        while let Some(idx) = stack.pop() {
            if idx == 0 || !seen.insert(idx) {
                continue;
            }
            let node = self.arena.node(idx);
            let _ = writeln!(out, "  n{idx} [label=\"x{}\"];", node.var);
            let lo_tag = if node.lo & 1 == 1 {
                ",arrowhead=odot"
            } else {
                ""
            };
            let _ = writeln!(out, "  n{idx} -> n{} [style=dashed{lo_tag}];", node.lo >> 1);
            let _ = writeln!(out, "  n{idx} -> n{};", node.hi >> 1);
            stack.push(node.lo >> 1);
            stack.push(node.hi >> 1);
        }
        let root_tag = if f.0 & 1 == 1 { ",arrowhead=odot" } else { "" };
        let _ = writeln!(out, "  root -> n{} [style=bold{root_tag}];", f.0 >> 1);
        out.push_str("}\n");
        out
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
        let before = m.counters();
        assert_eq!(before.apply_hits, 0);
        assert!(before.apply_misses >= 1);
        let second = m.and(a, b).unwrap();
        assert_eq!(first, second);
        let after = m.counters();
        assert!(after.apply_hits > before.apply_hits);
        assert_eq!(after.apply_misses, before.apply_misses);

        // Negation is a tag flip: no cache traffic, no allocation.
        let nodes_before = m.num_nodes();
        let n = m.not(first).unwrap();
        assert_eq!(m.not(first).unwrap(), n);
        assert_eq!(m.num_nodes(), nodes_before);
        assert_eq!(m.counters(), after);

        m.reset_counters();
        assert_eq!(m.counters(), BddCounters::default());
    }

    #[test]
    fn complement_pairs_share_one_node() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b).unwrap();
        let nf = m.not(f).unwrap();
        assert_ne!(f, nf);
        assert_eq!(m.dag_size(f), m.dag_size(nf));
        let back = m.not(nf).unwrap();
        assert_eq!(back, f, "double negation is the identity");
        // The negated variable shares the variable's node.
        let nodes = m.num_nodes();
        let na = m.nvar(0);
        assert_eq!(m.num_nodes(), nodes);
        let na2 = m.not(a).unwrap();
        assert_eq!(na, na2);
    }

    #[test]
    fn peak_nodes_and_unique_table_track_growth() {
        let mut m = mgr();
        assert_eq!(m.peak_num_nodes(), 1); // the shared terminal
        assert_eq!(m.unique_table_len(), 0);
        let a = m.var(0);
        let b = m.var(1);
        let _ = m.xor(a, b).unwrap();
        assert_eq!(m.peak_num_nodes(), m.num_nodes());
        assert_eq!(m.unique_table_len(), m.num_nodes() - 1);
        let peak = m.peak_num_nodes();
        m.clear_caches();
        assert_eq!(m.peak_num_nodes(), peak);
    }

    #[test]
    fn cache_clears_count_evictions() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let _ = m.xor(a, b).unwrap();
        m.clear_caches();
        let evicted = m.counters().evictions;
        assert!(evicted > 0, "xor populates the apply cache");
        // A clear of empty caches evicts nothing further.
        m.clear_caches();
        assert_eq!(m.counters().evictions, evicted);
    }

    #[test]
    fn unique_resizes_are_counted() {
        let mut m = mgr();
        // Build enough distinct nodes to force the unique table through
        // several capacity doublings (initial capacity is 1024 slots).
        let mut funcs = Vec::new();
        for i in 0..40u32 {
            for j in (i + 1)..40u32 {
                let a = m.var(i);
                let b = m.var(j);
                let f = m.and(a, b).unwrap();
                funcs.push(f);
            }
        }
        let mut acc = m.zero();
        for f in funcs {
            acc = m.xor(acc, f).unwrap();
        }
        assert!(
            m.counters().unique_resizes > 0,
            "the unique table must grow: {} entries",
            m.unique_table_len()
        );
        assert!(m.counters().unique_resizes < m.unique_table_len() as u64);
    }

    #[test]
    fn nodes_per_level_counts_every_nonterminal() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b).unwrap();
        let _ = m.or(ab, c).unwrap();
        let levels = m.nodes_per_level();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels.iter().sum::<usize>(), m.num_nodes() - 1);
        assert!(levels.iter().all(|&c| c > 0));
    }

    #[test]
    fn counters_fold_with_add_assign() {
        let mut total = BddCounters::default();
        total += BddCounters {
            apply_hits: 1,
            apply_misses: 2,
            ..BddCounters::default()
        };
        total += BddCounters {
            apply_hits: 10,
            quant_misses: 3,
            gc_runs: 2,
            gc_freed_nodes: 7,
            ..BddCounters::default()
        };
        assert_eq!(total.apply_hits, 11);
        assert_eq!(total.apply_misses, 2);
        assert_eq!(total.quant_misses, 3);
        assert_eq!(total.gc_runs, 2);
        assert_eq!(total.gc_freed_nodes, 7);
        assert_eq!(total.total_hits(), 11);
        assert_eq!(total.total_misses(), 5);
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
    fn restrict_cofactors() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b).unwrap();
        let f_a1 = m.restrict(f, 0, true).unwrap();
        let nb = m.not(b).unwrap();
        assert_eq!(f_a1, nb);
        let f_a0 = m.restrict(f, 0, false).unwrap();
        assert_eq!(f_a0, b);
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
    fn sat_count_basic() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b).unwrap();
        assert_eq!(m.sat_count(f, 2), 2.0);
        assert_eq!(m.sat_count(f, 3), 4.0); // free third variable doubles
        assert_eq!(m.sat_count(m.one(), 4), 16.0);
        assert_eq!(m.sat_count(m.zero(), 4), 0.0);
        assert_eq!(m.sat_count(a, 2), 2.0);
        assert_eq!(m.sat_count(b, 2), 2.0); // root below var 0 scales up
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
        assert!(m.implies_check(and, or).unwrap());
        assert!(!m.implies_check(or, and).unwrap());
    }

    #[test]
    fn eval_with_short_assignment_defaults_false() {
        let mut m = mgr();
        let v5 = m.var(5);
        assert!(!m.eval(v5, &[true, true]));
    }

    #[test]
    fn compose_substitutes_function() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.xor(a, b).unwrap();
        let g = m.and(b, c).unwrap();
        let h = m.compose(f, 0, g).unwrap();
        // h = (b ∧ c) ⊕ b
        for j in 0..8u8 {
            let assign = [(j & 1) == 1, (j & 2) == 2, (j & 4) == 4];
            let expect = (assign[1] && assign[2]) ^ assign[1];
            assert_eq!(m.eval(h, &assign), expect, "{j}");
        }
    }

    #[test]
    fn support_lists_dependent_vars() {
        let mut m = mgr();
        let a = m.var(0);
        let c = m.var(5);
        let f = m.and(a, c).unwrap();
        assert_eq!(m.support(f), vec![0, 5]);
        assert!(m.support(m.one()).is_empty());
        // xor(a, a) collapses: support empty.
        let z = m.xor(a, a).unwrap();
        assert!(m.support(z).is_empty());
    }

    #[test]
    fn dag_size_counts_distinct_nodes() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b).unwrap();
        // With complement edges, xor needs just two nodes: the root and
        // one shared child for b/¬b.
        assert_eq!(m.dag_size(f), 2);
        assert_eq!(m.dag_size(m.zero()), 0);
    }

    #[test]
    fn dot_output_mentions_nodes() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b).unwrap();
        let dot = m.to_dot(f, "and2");
        assert!(dot.contains("digraph"));
        assert!(dot.contains("x0"));
        assert!(dot.contains("x1"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn parity_chain_is_linear() {
        // Parity has a linear-size BDD under any order; with complement
        // edges it is one node per level.
        let mut m = mgr();
        let mut f = m.zero();
        for i in 0..64 {
            let v = m.var(i);
            f = m.xor(f, v).unwrap();
        }
        assert_eq!(m.dag_size(f), 64);
        assert_eq!(m.sat_count(f, 64), 2f64.powi(63));
    }

    #[test]
    fn gc_frees_dead_nodes_and_keeps_roots() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let keep = m.xor(a, b).unwrap();
        // Build garbage: a large parity accumulation we drop entirely.
        let mut junk = m.one();
        for i in 2..20 {
            let v = m.var(i);
            junk = m.xor(junk, v).unwrap();
        }
        let before = m.num_nodes();
        // Roots must name every handle we keep using: `keep`'s DAG does
        // not contain the single-variable node `a` (complement sharing),
        // so it must be listed explicitly.
        let freed = m.gc(&[keep, a, b]);
        assert!(freed > 0);
        assert_eq!(m.num_nodes(), before - freed);
        assert_eq!(m.unique_table_len(), m.num_nodes() - 1);
        assert_eq!(m.counters().gc_runs, 1);
        assert_eq!(m.counters().gc_freed_nodes, freed as u64);
        // The kept function still works and is still canonical.
        assert!(m.eval(keep, &[true, false]));
        assert!(!m.eval(keep, &[true, true]));
        let rebuilt = m.xor(a, b).unwrap();
        assert_eq!(rebuilt, keep);
        assert!(m.peak_num_nodes() >= before);
    }

    #[test]
    fn protect_pins_nodes_across_gc() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b).unwrap();
        m.protect(f);
        let freed_protected = m.gc(&[]);
        assert!(m.eval(f, &[true, true]));
        m.unprotect(f);
        let freed_after = m.gc(&[]);
        assert!(
            freed_after > 0,
            "unprotected function is collected (protected pass freed {freed_protected})"
        );
        assert_eq!(m.num_nodes(), 1);
    }

    #[test]
    fn maybe_gc_respects_threshold_and_adapts() {
        let mut m = mgr();
        m.set_gc_threshold(Some(8));
        let a = m.var(0);
        let b = m.var(1);
        assert!(!m.maybe_gc(&[a, b]), "below threshold: no gc");
        let mut junk = m.one();
        for i in 0..32 {
            let v = m.var(i);
            junk = m.xor(junk, v).unwrap();
        }
        let keep = m.and(a, b).unwrap();
        assert!(m.maybe_gc(&[keep]));
        assert!(m.counters().gc_runs >= 1);
        assert!(m.eval(keep, &[true, true]));
        // Disabled managers never collect.
        m.set_gc_threshold(None);
        let mut junk2 = m.one();
        for i in 0..32 {
            let v = m.var(i);
            junk2 = m.xor(junk2, v).unwrap();
        }
        let n = m.num_nodes();
        assert!(!m.maybe_gc(&[]));
        assert_eq!(m.num_nodes(), n);
    }
}
