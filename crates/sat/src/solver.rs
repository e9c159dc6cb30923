//! A CDCL SAT solver in the MiniSAT lineage.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Raw index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a variable from its raw index.
    ///
    /// Only meaningful for indices previously returned by
    /// [`Solver::new_var`] on the same solver.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Self {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Self {
        Lit((v.0 << 1) | 1)
    }

    /// Creates a literal with an explicit phase (`true` = positive).
    #[inline]
    pub fn with_phase(v: Var, phase: bool) -> Self {
        if phase {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this literal is negated.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "!{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A model was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource limit ended the search before a decision was reached —
    /// the conflict budget of paper §5.1, a wall-clock deadline, or a
    /// cooperative interrupt.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

type ClauseRef = u32;

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
}

/// A snapshot of a [`Solver`]'s cumulative search counters.
///
/// Obtained from [`Solver::stats`]; the counters are deterministic for a
/// deterministic clause/assumption sequence, and `+=` folds snapshots from
/// independent solvers (sums are order-insensitive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts observed across all `solve` calls.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Luby restarts performed.
    pub restarts: u64,
    /// Clauses learnt from conflicts (asserting units included).
    pub learnt_clauses: u64,
    /// Literals across every learnt clause, after minimization.
    pub learnt_literals: u64,
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        self.conflicts += rhs.conflicts;
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.restarts += rhs.restarts;
        self.learnt_clauses += rhs.learnt_clauses;
        self.learnt_literals += rhs.learnt_literals;
    }
}

/// A CDCL SAT solver.
///
/// See the [crate-level documentation](crate) for the role it plays in the
/// ECO flow and a usage example.
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<ClauseRef>>, // indexed by literal code
    assigns: Vec<LBool>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>, // lazy binary max-heap by activity
    heap_pos: Vec<Option<u32>>,
    saved_phase: Vec<bool>,
    ok: bool,
    conflict_budget: Option<u64>,
    deadline: Option<Instant>,
    interrupt: Option<Arc<AtomicBool>>,
    stopped: bool,
    check_countdown: u32,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
    learnt_clauses: u64,
    learnt_literals: u64,
    seen: Vec<bool>,
    pending_reset: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            saved_phase: Vec::new(),
            ok: true,
            conflict_budget: None,
            deadline: None,
            interrupt: None,
            stopped: false,
            check_countdown: 0,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            restarts: 0,
            learnt_clauses: 0,
            learnt_literals: 0,
            seen: Vec::new(),
            pending_reset: false,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(None);
        self.heap_insert(v);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// All cumulative search counters in one copyable snapshot.
    #[inline]
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts,
            decisions: self.decisions,
            propagations: self.propagations,
            restarts: self.restarts,
            learnt_clauses: self.learnt_clauses,
            learnt_literals: self.learnt_literals,
        }
    }

    /// Limits the *next* [`solve`](Solver::solve) calls to `budget` conflicts
    /// each; `None` removes the limit. When the budget is exhausted the
    /// solver returns [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Sets an absolute wall-clock deadline for subsequent
    /// [`solve`](Solver::solve) calls; `None` removes it. The search loop
    /// polls the clock periodically and returns [`SolveResult::Unknown`]
    /// once the deadline has passed.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Installs a cooperative interrupt flag; `None` removes it. Setting
    /// the flag (from any thread) makes an in-flight
    /// [`solve`](Solver::solve) return [`SolveResult::Unknown`] at its next
    /// periodic check.
    pub fn set_interrupt(&mut self, interrupt: Option<Arc<AtomicBool>>) {
        self.interrupt = interrupt;
    }

    /// Whether the most recent [`solve`](Solver::solve) call stopped early
    /// because of the deadline or the interrupt flag (as opposed to the
    /// conflict budget).
    pub fn interrupted(&self) -> bool {
        self.stopped
    }

    /// Periodic deadline/interrupt poll, amortized over ~1024 search-loop
    /// iterations so the clock and atomic reads stay off the hot path.
    #[inline]
    fn should_stop(&mut self) -> bool {
        if self.check_countdown > 0 {
            self.check_countdown -= 1;
            return false;
        }
        self.check_countdown = 1023;
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        if let Some(flag) = &self.interrupt {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        false
    }

    /// Adds a clause. Returns `false` when the formula became trivially
    /// unsatisfiable (empty clause, or a conflicting unit at level 0).
    ///
    /// Clauses may only be added at decision level 0, i.e. between `solve`
    /// calls.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.reset_if_needed();
        debug_assert!(self.trail_lim.is_empty(), "add_clause at level 0 only");
        if !self.ok {
            return false;
        }
        // Normalize: sort, dedup, drop false lits, detect tautology/satisfied.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        let mut i = 0;
        while i < ls.len() {
            let l = ls[i];
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: x ∨ !x
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => out.push(l),
            }
            i += 1;
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(out);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>) -> ClauseRef {
        let cref = self.clauses.len() as ClauseRef;
        self.watches[lits[0].code()].push(cref);
        self.watches[lits[1].code()].push(cref);
        self.clauses.push(Clause { lits });
        cref
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        match self.assigns[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.is_neg() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    /// The model value of `v` after a [`SolveResult::Sat`] outcome; `None`
    /// when the variable was irrelevant (never assigned).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assigns[v.index()] {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.index()] = if l.is_neg() {
            LBool::False
        } else {
            LBool::True
        };
        self.levels[v.index()] = self.decision_level();
        self.reasons[v.index()] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause on conflict.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                // Make sure false_lit is at position 1.
                let lits = &mut self.clauses[cref as usize].lits;
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if self.lit_value(first) == LBool::True {
                    i += 1;
                    continue; // clause satisfied
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[cref as usize].lits.len() {
                    let lk = self.clauses[cref as usize].lits[k];
                    if self.lit_value(lk) != LBool::False {
                        self.clauses[cref as usize].lits.swap(1, k);
                        self.watches[lk.code()].push(cref);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    // Conflict: restore remaining watches and report.
                    self.watches[false_lit.code()] = ws;
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a *= 1.0 / ACTIVITY_RESCALE;
            }
            self.var_inc *= 1.0 / ACTIVITY_RESCALE;
        }
        self.heap_update(v);
    }

    fn var_decay(&mut self) {
        self.var_inc *= VAR_DECAY;
    }

    // ---------------- binary max-heap keyed by activity ----------------

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] < self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_pos[v.index()].is_some() {
            return;
        }
        self.heap.push(v);
        self.heap_pos[v.index()] = Some((self.heap.len() - 1) as u32);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: Var) {
        if let Some(pos) = self.heap_pos[v.index()] {
            self.heap_up(pos as usize);
        } else {
            self.heap_insert(v);
        }
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[parent], self.heap[i]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[best], self.heap[l]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[best], self.heap[r]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].index()] = Some(i as u32);
        self.heap_pos[self.heap[j].index()] = Some(j as u32);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.len() - 1;
        self.heap_swap(0, last);
        self.heap.pop();
        self.heap_pos[top.index()] = None;
        if !self.heap.is_empty() {
            self.heap_down(0);
        }
        Some(top)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    // ---------------- conflict analysis ----------------

    /// First-UIP learning. Returns the learnt clause (asserting literal
    /// first) and the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = Some(confl);

        loop {
            let cref = confl.expect("analysis requires a reason");
            let start = if p.is_some() { 1 } else { 0 };
            // Cheap copy to appease the borrow checker; clauses are short.
            let lits = self.clauses[cref as usize].lits.clone();
            for &q in &lits[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.levels[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.levels[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reasons[pl.var().index()];
            // Reorder clause so the propagated literal is first (reason
            // invariant: lits[0] is the enqueued literal).
            if let Some(cr) = confl {
                let ls = &mut self.clauses[cr as usize].lits;
                if ls[0] != pl {
                    let pos = ls.iter().position(|&l| l == pl).expect("reason lit");
                    ls.swap(0, pos);
                }
            }
        }
        learnt[0] = !p.expect("first UIP exists");

        // Basic learnt-clause minimization: a non-asserting literal is
        // redundant when its reason resolves entirely within the clause
        // (every antecedent is marked seen or fixed at level 0).
        let mut kept = vec![learnt[0]];
        #[allow(clippy::needless_range_loop)]
        for idx in 1..learnt.len() {
            let l = learnt[idx];
            let redundant = match self.reasons[l.var().index()] {
                None => false,
                Some(cref) => self.clauses[cref as usize].lits.iter().all(|&q| {
                    q.var() == l.var()
                        || self.seen[q.var().index()]
                        || self.levels[q.var().index()] == 0
                }),
            };
            if !redundant {
                kept.push(l);
            }
        }
        // Clear seen flags for all originally learnt literals.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let mut learnt = kept;

        // Backtrack level: second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var().index()] > self.levels[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.levels[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail nonempty");
                let v = l.var();
                self.saved_phase[v.index()] = !l.is_neg();
                self.assigns[v.index()] = LBool::Undef;
                self.reasons[v.index()] = None;
                self.heap_insert(v);
            }
        }
        // Everything still on the trail was fully propagated before the
        // levels above it were opened.
        self.qhead = self.trail.len();
    }

    /// Solves the formula under `assumptions`.
    ///
    /// Assumption literals are decided first (in order); a conflict that
    /// reaches assumption levels yields [`SolveResult::Unsat`]. The model
    /// after [`SolveResult::Sat`] is read with [`value`](Solver::value).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.reset_if_needed();
        self.stopped = false;
        self.check_countdown = 0; // poll the deadline on entry
        if !self.ok {
            return SolveResult::Unsat;
        }
        let budget_start = self.conflicts;
        let mut luby_index = 0u32;
        let mut restart_limit = 64u64 * luby(luby_index);
        let mut conflicts_in_run = 0u64;

        let result = 'outer: loop {
            if (self.deadline.is_some() || self.interrupt.is_some()) && self.should_stop() {
                self.stopped = true;
                break 'outer SolveResult::Unknown;
            }
            // Propagate pending facts.
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_in_run += 1;
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict within (or below) the assumption prefix.
                    if self.decision_level() == 0 {
                        self.ok = false;
                    }
                    break 'outer SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.learnt_clauses += 1;
                self.learnt_literals += learnt.len() as u64;
                // Backtracking below the assumption prefix is fine: the
                // decide step re-installs assumptions in order.
                self.backtrack(bt);
                let assert_lit = learnt[0];
                if learnt.len() == 1 {
                    self.backtrack(0);
                    if self.lit_value(assert_lit) == LBool::False {
                        self.ok = false;
                        break 'outer SolveResult::Unsat;
                    }
                    if self.lit_value(assert_lit) == LBool::Undef {
                        self.enqueue(assert_lit, None);
                    }
                } else {
                    let cref = self.attach_clause(learnt);
                    let first = self.clauses[cref as usize].lits[0];
                    self.enqueue(first, Some(cref));
                }
                self.var_decay();
                if let Some(b) = self.conflict_budget {
                    if self.conflicts - budget_start >= b {
                        break 'outer SolveResult::Unknown;
                    }
                }
                if conflicts_in_run >= restart_limit {
                    // Luby restart: keep level-0 facts, retry decisions.
                    conflicts_in_run = 0;
                    luby_index += 1;
                    restart_limit = 64u64 * luby(luby_index);
                    self.restarts += 1;
                    self.backtrack(assumptions.len() as u32);
                }
                continue;
            }

            // Decide.
            let dl = self.decision_level() as usize;
            if dl < assumptions.len() {
                let a = assumptions[dl];
                match self.lit_value(a) {
                    LBool::True => {
                        // Already implied; open an empty level to keep the
                        // prefix aligned with the assumption index.
                        self.trail_lim.push(self.trail.len());
                    }
                    LBool::False => break 'outer SolveResult::Unsat,
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, None);
                    }
                }
                continue;
            }
            match self.pick_branch_var() {
                None => break 'outer SolveResult::Sat,
                Some(v) => {
                    self.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let phase = self.saved_phase[v.index()];
                    self.enqueue(Lit::with_phase(v, phase), None);
                }
            }
        };

        // On SAT the trail is kept so `value` can read the model; cleanup is
        // deferred to the next solve/add_clause call.
        if result == SolveResult::Sat {
            self.pending_reset = true;
        } else {
            self.backtrack(0);
        }
        result
    }
}

// The model must survive after `solve` returns Sat, but the next call has to
// start from level 0. We keep a flag and reset lazily.
impl Solver {
    fn reset_if_needed(&mut self) {
        if self.pending_reset {
            self.backtrack(0);
            self.pending_reset = false;
        }
    }
}

/// Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed.
fn luby(mut x: u32) -> u64 {
    // Size of the smallest complete subsequence containing index x.
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x as u64 + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x as u64 {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size as u32;
    }
    1u64 << seq
}

// Validation solvers are per-worker in the rectification scheduler, so
// `Send` is load-bearing: keep the solver free of `Rc`/raw-pointer state.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Solver>();
    assert_send_sync::<Lit>();
    assert_send_sync::<Var>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0], v[1]]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.value(v[0].var()) == Some(true) || s.value(v[1].var()) == Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0]]));
        assert!(!s.add_clause(&[!v[0]]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        s.add_clause(&[v[0]]);
        for i in 0..4 {
            s.add_clause(&[!v[i], v[i + 1]]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for l in &v {
            assert_eq!(s.value(l.var()), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for pi in &p {
            s.add_clause(&[pi[0], pi[1]]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], !v[1]]);
        assert_eq!(s.solve(&[v[0], v[1]]), SolveResult::Unsat);
        assert_eq!(s.solve(&[v[0], !v[1]]), SolveResult::Sat);
        assert_eq!(s.value(v[0].var()), Some(true));
        assert_eq!(s.value(v[1].var()), Some(false));
        // Solver stays reusable afterwards.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn assumption_contradicting_unit_is_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve(&[!v[0]]), SolveResult::Unsat);
        assert_eq!(s.solve(&[v[0]]), SolveResult::Sat);
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A hard instance: pigeonhole 6 into 5 with a 3-conflict budget.
        let mut s = Solver::new();
        let n = 6;
        let m = 5;
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..m).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for pi in p.iter() {
            s.add_clause(&pi.clone());
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        s.set_conflict_budget(Some(3));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    fn pigeonhole(s: &mut Solver, n: usize, m: usize) {
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..m).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for pi in p.iter() {
            s.add_clause(&pi.clone());
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
    }

    #[test]
    fn expired_deadline_reports_unknown() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        s.set_deadline(Some(Instant::now()));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        assert!(s.interrupted());
        // Removing the deadline restores normal operation.
        s.set_deadline(None);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.interrupted());
    }

    #[test]
    fn interrupt_flag_stops_search() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Some(Arc::clone(&flag)));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        assert!(s.interrupted());
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.interrupted());
    }

    #[test]
    fn generous_deadline_does_not_interfere() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        s.set_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        s.set_interrupt(Some(Arc::new(AtomicBool::new(false))));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(!s.interrupted());
    }

    #[test]
    fn tautologies_and_duplicates_handled() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0], !v[0]])); // tautology dropped
        assert!(s.add_clause(&[v[1], v[1], v[1]])); // dedup to unit
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(v[1].var()), Some(true));
    }

    #[test]
    fn xor_chain_model_is_consistent() {
        // x0 xor x1 = 1, x1 xor x2 = 1, ... via CNF; check model parity.
        let mut s = Solver::new();
        let v = lits(&mut s, 8);
        for i in 0..7 {
            let (a, b) = (v[i], v[i + 1]);
            s.add_clause(&[a, b]);
            s.add_clause(&[!a, !b]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for i in 0..7 {
            let a = s.value(v[i].var()).unwrap();
            let b = s.value(v[i + 1].var()).unwrap();
            assert!(a ^ b, "adjacent vars must differ");
        }
    }

    #[test]
    fn luby_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u32), e, "luby({i})");
        }
    }

    #[test]
    fn stats_are_tracked() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        s.solve(&[]);
        assert!(s.stats().decisions >= 1);
        assert!(s.num_vars() == 3);
    }

    #[test]
    fn learnt_and_restart_stats_are_tracked() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let stats = s.stats();
        assert!(stats.conflicts > 0);
        assert!(
            stats.learnt_clauses > 0,
            "a conflict-driven refutation must learn clauses"
        );
        assert!(
            stats.learnt_literals >= stats.learnt_clauses,
            "every learnt clause has at least one literal"
        );
        assert!(
            stats.restarts > 0,
            "php(7,6) needs more than the first 64-conflict Luby run \
             (saw {} conflicts)",
            stats.conflicts
        );
        // Snapshots fold across solvers.
        let mut total = SolverStats::default();
        total += stats;
        total += stats;
        assert_eq!(total.learnt_clauses, 2 * stats.learnt_clauses);
        assert_eq!(total.restarts, 2 * stats.restarts);
    }
}
