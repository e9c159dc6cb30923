//! Differential test suite for the arena/complement-edge BDD engine.
//!
//! Every random expression DAG is evaluated three independent ways and the
//! results must agree bit for bit:
//!
//! 1. the manager (build + `eval`),
//! 2. an exhaustive bit-parallel truth table computed directly from the
//!    expression (64 assignments per machine word, no BDD involved),
//! 3. a DNF reconstructed from `cubes.rs` output (`sat_cubes`), checked
//!    for pairwise disjointness and exact cover.
//!
//! On top of plain agreement the suite asserts canonicity — rebuilding a
//! function always returns the identical handle and allocates nothing,
//! and negation allocates no nodes (complement pairs share every node, so
//! a function and its complement can never both sit in the unique
//! table).

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

/// Reads bit `j` of a packed truth table.
fn bit(t: &[u64], j: usize) -> bool {
    t[j / 64] >> (j % 64) & 1 == 1
}

/// Oracle #1 vs oracle #2: the manager's `eval` must match the exhaustive
/// table exactly.
fn check_eval(m: &BddManager, f: Bdd, truth: &[u64]) {
    for j in 0..1usize << NUM_VARS {
        let assign: Vec<bool> = (0..NUM_VARS).map(|i| (j >> i) & 1 == 1).collect();
        prop_assert_eq!(m.eval(f, &assign), bit(truth, j), "eval disagrees at {}", j);
    }
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
}

/// Canonicity: the same function always comes back as the same handle,
/// and complements are free (no allocation ⇒ a function and its negation
/// can never occupy two unique-table entries).
fn check_canonicity(m: &mut BddManager, e: &Expr, f: Bdd) {
    let before = m.peak_num_nodes();
    let nf = m.not(f).unwrap();
    prop_assert_eq!(m.peak_num_nodes(), before, "negation must not allocate");
    prop_assert_ne!(nf, f);
    prop_assert_eq!(m.not(nf).unwrap(), f);
    prop_assert_eq!(m.xor(f, f).unwrap(), m.zero());
    prop_assert_eq!(m.and(f, nf).unwrap(), m.zero());
    prop_assert_eq!(m.or(f, nf).unwrap(), m.one());
    // Rebuilding the expression from scratch must hit the identical node,
    // found through the unique table without allocating.
    m.clear_caches();
    prop_assert_eq!(e.build(m), f, "rebuild returned a second handle");
    prop_assert_eq!(m.peak_num_nodes(), before, "rebuild allocated a node");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The core differential run: three oracles plus canonicity, 512 cases.
    #[test]
    fn differential_three_way(e in expr_strategy()) {
        let mut m = BddManager::new();
        let f = e.build(&mut m);
        let truth = e.truth();
        check_eval(&m, f, &truth);
        check_cubes(&m, f, &truth);
        check_canonicity(&mut m, &e, f);
    }
}
