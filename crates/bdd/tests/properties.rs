//! Property-based tests: random Boolean expressions evaluated against a
//! brute-force truth-table oracle.

use eco_bdd::{Bdd, BddManager};
use proptest::prelude::*;

const NUM_VARS: u32 = 5;

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

impl Expr {
    fn eval(&self, assign: &[bool]) -> bool {
        match self {
            Expr::Var(v) => assign[*v as usize],
            Expr::Not(a) => !a.eval(assign),
            Expr::And(a, b) => a.eval(assign) && b.eval(assign),
            Expr::Or(a, b) => a.eval(assign) || b.eval(assign),
            Expr::Xor(a, b) => a.eval(assign) ^ b.eval(assign),
            Expr::Ite(i, t, e) => {
                if i.eval(assign) {
                    t.eval(assign)
                } else {
                    e.eval(assign)
                }
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

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = (0..NUM_VARS).prop_map(Expr::Var);
    leaf.prop_recursive(5, 48, 3, |inner| {
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

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << NUM_VARS)).map(|j| (0..NUM_VARS).map(|i| (j >> i) & 1 == 1).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bdd_matches_truth_table(e in expr_strategy()) {
        let mut m = BddManager::new();
        let f = e.build(&mut m);
        for a in assignments() {
            prop_assert_eq!(m.eval(f, &a), e.eval(&a));
        }
    }

    #[test]
    fn canonicity_equal_functions_same_node(e in expr_strategy()) {
        let mut m = BddManager::new();
        let f = e.build(&mut m);
        // Rebuild through double negation: must hit the identical node.
        let nf = m.not(f).unwrap();
        let nnf = m.not(nf).unwrap();
        prop_assert_eq!(f, nnf);
        // f xor f = 0, f or f = f, f and not f = 0, f or not f = 1.
        prop_assert_eq!(m.xor(f, f).unwrap(), m.zero());
        prop_assert_eq!(m.or(f, f).unwrap(), f);
        prop_assert_eq!(m.and(f, nf).unwrap(), m.zero());
        prop_assert_eq!(m.or(f, nf).unwrap(), m.one());
    }

    #[test]
    fn sat_count_matches_truth_table(e in expr_strategy()) {
        let mut m = BddManager::new();
        let f = e.build(&mut m);
        let expect = assignments().filter(|a| e.eval(a)).count() as f64;
        prop_assert_eq!(m.sat_count(f, NUM_VARS), expect);
    }

    #[test]
    fn exists_forall_semantics(e in expr_strategy(), v in 0..NUM_VARS) {
        let mut m = BddManager::new();
        let f = e.build(&mut m);
        let cube = m.var_cube(&[v]).unwrap();
        let ex = m.exists(f, cube).unwrap();
        let fa = m.forall(f, cube).unwrap();
        for a in assignments() {
            let mut a0 = a.clone();
            a0[v as usize] = false;
            let mut a1 = a.clone();
            a1[v as usize] = true;
            let e0 = e.eval(&a0);
            let e1 = e.eval(&a1);
            prop_assert_eq!(m.eval(ex, &a), e0 || e1);
            prop_assert_eq!(m.eval(fa, &a), e0 && e1);
        }
    }

    #[test]
    fn restrict_semantics(e in expr_strategy(), v in 0..NUM_VARS, phase in any::<bool>()) {
        let mut m = BddManager::new();
        let f = e.build(&mut m);
        let r = m.restrict(f, v, phase).unwrap();
        for a in assignments() {
            let mut forced = a.clone();
            forced[v as usize] = phase;
            prop_assert_eq!(m.eval(r, &a), e.eval(&forced));
        }
    }

    #[test]
    fn any_sat_is_a_model(e in expr_strategy()) {
        let mut m = BddManager::new();
        let f = e.build(&mut m);
        match m.any_sat(f) {
            None => prop_assert_eq!(f, m.zero()),
            Some(cube) => {
                let mut a = vec![false; NUM_VARS as usize];
                for &(v, p) in cube.literals() {
                    a[v as usize] = p;
                }
                prop_assert!(e.eval(&a));
            }
        }
    }
}
