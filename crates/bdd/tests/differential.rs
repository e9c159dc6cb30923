//! Differential test suite for the arena/complement-edge BDD engine.
//!
//! Every random expression DAG is evaluated three independent ways and the
//! results must agree bit for bit:
//!
//! 1. the new manager (build + `eval` + `sat_count`),
//! 2. an exhaustive bit-parallel truth table computed directly from the
//!    expression (64 assignments per machine word, no BDD involved),
//! 3. a DNF reconstructed from `cubes.rs` output (`sat_cubes`), checked
//!    for pairwise disjointness and exact cover.
//!
//! On top of plain agreement the suite asserts canonicity — rebuilding a
//! function always returns the identical handle, negation allocates no
//! nodes (complement pairs share every node, so a function and its
//! complement can never both sit in the unique table) — and repeats the
//! whole exercise under garbage-collection pressure (tiny node budget,
//! collection firing mid-build).

use eco_bdd::{Bdd, BddManager};
use proptest::prelude::*;

const NUM_VARS: u32 = 12;
const WORDS: usize = (1usize << NUM_VARS) / 64;

/// A random Boolean expression over `NUM_VARS` variables.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Truth table of variable `v`: bit `j` of the table is bit `v` of `j`.
fn var_table(v: u32) -> Vec<u64> {
    (0..WORDS)
        .map(|w| {
            let mut word = 0u64;
            for b in 0..64 {
                if ((w * 64 + b) >> v) & 1 == 1 {
                    word |= 1 << b;
                }
            }
            word
        })
        .collect()
}

impl Expr {
    /// Exhaustive truth table over all `2^NUM_VARS` assignments, one bit
    /// per assignment — oracle #2, computed without any BDD machinery.
    fn truth(&self) -> Vec<u64> {
        match self {
            Expr::Var(v) => var_table(*v),
            Expr::Not(a) => a.truth().iter().map(|w| !w).collect(),
            Expr::And(a, b) => zip(&a.truth(), &b.truth(), |x, y| x & y),
            Expr::Or(a, b) => zip(&a.truth(), &b.truth(), |x, y| x | y),
            Expr::Xor(a, b) => zip(&a.truth(), &b.truth(), |x, y| x ^ y),
            Expr::Ite(i, t, e) => {
                let (ti, tt, te) = (i.truth(), t.truth(), e.truth());
                (0..WORDS)
                    .map(|w| (ti[w] & tt[w]) | (!ti[w] & te[w]))
                    .collect()
            }
        }
    }

    fn build(&self, m: &mut BddManager) -> Bdd {
        match self {
            Expr::Var(v) => m.var(*v),
            Expr::Not(a) => {
                let x = a.build(m);
                m.not(x).unwrap()
            }
            Expr::And(a, b) => {
                let (x, y) = (a.build(m), b.build(m));
                m.and(x, y).unwrap()
            }
            Expr::Or(a, b) => {
                let (x, y) = (a.build(m), b.build(m));
                m.or(x, y).unwrap()
            }
            Expr::Xor(a, b) => {
                let (x, y) = (a.build(m), b.build(m));
                m.xor(x, y).unwrap()
            }
            Expr::Ite(i, t, e) => {
                let (x, y, z) = (i.build(m), t.build(m), e.build(m));
                m.ite(x, y, z).unwrap()
            }
        }
    }

    /// Build with garbage collection allowed to fire after every
    /// connective. Intermediate operands are pinned through the protect
    /// set so a collection mid-build is always safe.
    fn build_under_pressure(&self, m: &mut BddManager) -> Bdd {
        let r = match self {
            Expr::Var(v) => m.var(*v),
            Expr::Not(a) => {
                let x = a.build_under_pressure(m);
                m.not(x).unwrap()
            }
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                let x = a.build_under_pressure(m);
                m.protect(x);
                let y = b.build_under_pressure(m);
                m.protect(y);
                let r = match self {
                    Expr::And(..) => m.and(x, y).unwrap(),
                    Expr::Or(..) => m.or(x, y).unwrap(),
                    _ => m.xor(x, y).unwrap(),
                };
                m.unprotect(x);
                m.unprotect(y);
                r
            }
            Expr::Ite(i, t, e) => {
                let x = i.build_under_pressure(m);
                m.protect(x);
                let y = t.build_under_pressure(m);
                m.protect(y);
                let z = e.build_under_pressure(m);
                m.protect(z);
                let r = m.ite(x, y, z).unwrap();
                m.unprotect(x);
                m.unprotect(y);
                m.unprotect(z);
                r
            }
        };
        m.protect(r);
        m.maybe_gc(&[]);
        m.unprotect(r);
        r
    }
}

fn zip(a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| f(*x, *y)).collect()
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = (0..NUM_VARS).prop_map(Expr::Var);
    leaf.prop_recursive(6, 56, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| Expr::Not(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(i, t, e)| Expr::Ite(
                Box::new(i),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

fn popcount(t: &[u64]) -> u64 {
    t.iter().map(|w| w.count_ones() as u64).sum()
}

/// Reads bit `j` of a packed truth table.
fn bit(t: &[u64], j: usize) -> bool {
    t[j / 64] >> (j % 64) & 1 == 1
}

/// Oracle #1 vs oracle #2: the manager's `eval` and `sat_count` must match
/// the exhaustive table exactly.
fn check_eval_and_count(m: &BddManager, f: Bdd, truth: &[u64]) {
    for j in 0..1usize << NUM_VARS {
        let assign: Vec<bool> = (0..NUM_VARS).map(|i| (j >> i) & 1 == 1).collect();
        prop_assert_eq!(m.eval(f, &assign), bit(truth, j), "eval disagrees at {}", j);
    }
    prop_assert_eq!(m.sat_count(f, NUM_VARS), popcount(truth) as f64);
}

/// Oracle #3: rebuild the function as a DNF over `sat_cubes` output and
/// compare truth tables; the path cubes must also be pairwise disjoint.
fn check_cubes(m: &BddManager, f: Bdd, truth: &[u64]) {
    let cubes = m.sat_cubes(f, 1 << NUM_VARS);
    let mut acc = vec![0u64; WORDS];
    for cube in &cubes {
        let mut mask = vec![u64::MAX; WORDS];
        for &(v, phase) in cube.literals() {
            let vt = var_table(v);
            for w in 0..WORDS {
                mask[w] &= if phase { vt[w] } else { !vt[w] };
            }
        }
        for w in 0..WORDS {
            prop_assert_eq!(acc[w] & mask[w], 0, "sat_cubes must be disjoint");
            acc[w] |= mask[w];
        }
    }
    prop_assert_eq!(&acc, truth, "cube DNF must equal the truth table");
    // any_sat must agree with emptiness and produce a model.
    match m.any_sat(f) {
        None => prop_assert_eq!(popcount(truth), 0),
        Some(cube) => {
            let mut j = 0usize;
            for &(v, phase) in cube.literals() {
                if phase {
                    j |= 1 << v;
                }
            }
            prop_assert!(bit(truth, j), "any_sat returned a non-model");
        }
    }
}

/// Canonicity: the same function always comes back as the same handle,
/// and complements are free (no allocation ⇒ a function and its negation
/// can never occupy two unique-table entries).
fn check_canonicity(m: &mut BddManager, e: &Expr, f: Bdd) {
    let before = m.num_nodes();
    let nf = m.not(f).unwrap();
    prop_assert_eq!(m.num_nodes(), before, "negation must not allocate");
    prop_assert_ne!(nf, f);
    prop_assert_eq!(m.not(nf).unwrap(), f);
    prop_assert_eq!(m.dag_size(nf), m.dag_size(f), "complement shares all nodes");
    prop_assert_eq!(m.xor(f, f).unwrap(), m.zero());
    prop_assert_eq!(m.and(f, nf).unwrap(), m.zero());
    prop_assert_eq!(m.or(f, nf).unwrap(), m.one());
    // Rebuilding the expression from scratch must hit the identical node.
    prop_assert_eq!(e.build(m), f, "rebuild returned a second handle");
    // Unique table and arena must agree one-to-one (terminal excluded).
    prop_assert_eq!(m.unique_table_len(), m.num_nodes() - 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The core differential run: three oracles plus canonicity, 512 cases.
    #[test]
    fn differential_three_way(e in expr_strategy()) {
        let mut m = BddManager::new();
        let f = e.build(&mut m);
        let truth = e.truth();
        check_eval_and_count(&m, f, &truth);
        check_cubes(&m, f, &truth);
        check_canonicity(&mut m, &e, f);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same differential checks with a tiny GC budget so mark-and-sweep
    /// fires repeatedly mid-build.
    #[test]
    fn differential_under_gc_pressure(e in expr_strategy()) {
        let mut m = BddManager::new();
        m.set_gc_threshold(Some(48));
        let f = e.build_under_pressure(&mut m);
        let truth = e.truth();
        check_eval_and_count(&m, f, &truth);
        check_cubes(&m, f, &truth);
        // Canonicity after collection: rebuilding with `f` pinned must
        // still find the identical handle.
        m.protect(f);
        let g = e.build_under_pressure(&mut m);
        prop_assert_eq!(g, f, "gc broke canonical handle identity");
        m.unprotect(f);
        prop_assert_eq!(m.unique_table_len(), m.num_nodes() - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// GC enabled mid-build, then a forced final collection rooted only at
    /// the result: the handle must keep denoting the same function and
    /// every surviving node must be reachable from it.
    #[test]
    fn differential_with_gc_and_final_collection(e in expr_strategy()) {
        let mut m = BddManager::new();
        m.set_gc_threshold(Some(64));
        let f = e.build_under_pressure(&mut m);
        let truth = e.truth();
        check_eval_and_count(&m, f, &truth);
        m.gc(&[f]);
        check_eval_and_count(&m, f, &truth);
        check_cubes(&m, f, &truth);
        prop_assert_eq!(m.unique_table_len(), m.num_nodes() - 1);
        prop_assert_eq!(m.num_nodes() - 1, m.dag_size(f));
        prop_assert!(m.counters().gc_runs >= 1);
    }
}

/// Deterministic companion: guarantees collection actually fires under the
/// tiny budget (the proptest cases above can't promise a specific size),
/// and that the per-level census and peak accounting stay reconciled with
/// the live count across collections.
#[test]
fn gc_pressure_fires_mid_build() {
    let mut m = BddManager::new();
    m.set_gc_threshold(Some(32));
    // Parity over all 12 variables, accumulated with gc checks between
    // steps; intermediate accumulators are pinned while at risk.
    let mut f = m.zero();
    for i in 0..NUM_VARS {
        let v = m.var(i);
        f = m.xor(f, v).unwrap();
        m.protect(f);
        m.maybe_gc(&[]);
        m.unprotect(f);
    }
    let c = m.counters();
    assert!(c.gc_runs >= 1, "tiny budget must trigger collection");
    let per_level = m.nodes_per_level();
    assert_eq!(per_level.len(), NUM_VARS as usize);
    assert_eq!(per_level.iter().sum::<usize>(), m.num_nodes() - 1);
    assert!(m.peak_num_nodes() >= m.num_nodes());
    assert_eq!(m.sat_count(f, NUM_VARS), (1u64 << (NUM_VARS - 1)) as f64);
    for j in 0..1usize << NUM_VARS {
        let assign: Vec<bool> = (0..NUM_VARS).map(|i| (j >> i) & 1 == 1).collect();
        assert_eq!(m.eval(f, &assign), (j.count_ones() & 1) == 1);
    }
}
