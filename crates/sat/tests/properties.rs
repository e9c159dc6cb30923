//! Property-based tests: the CDCL solver and the miter against brute-force
//! oracles.

use std::collections::HashSet;

use eco_netlist::{Circuit, GateKind, NetId};
use eco_sat::cec::{CecOptions, ProofCache};
use eco_sat::tseitin::{Equivalence, Miter};
use eco_sat::{Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

const MAX_VARS: usize = 8;

/// A random CNF: clauses of literal codes (var, phase).
#[derive(Debug, Clone)]
struct RandomCnf {
    num_vars: usize,
    clauses: Vec<Vec<(usize, bool)>>,
}

fn cnf_strategy() -> impl Strategy<Value = RandomCnf> {
    (2usize..=MAX_VARS).prop_flat_map(|nv| {
        let clause = proptest::collection::vec((0..nv, any::<bool>()), 1..=4);
        let clauses = proptest::collection::vec(clause, 1..24);
        clauses.prop_map(move |clauses| RandomCnf {
            num_vars: nv,
            clauses,
        })
    })
}

fn brute_force(cnf: &RandomCnf) -> Option<Vec<bool>> {
    'outer: for j in 0..(1u32 << cnf.num_vars) {
        let assign: Vec<bool> = (0..cnf.num_vars).map(|i| (j >> i) & 1 == 1).collect();
        for clause in &cnf.clauses {
            if !clause.iter().any(|&(v, phase)| assign[v] == phase) {
                continue 'outer;
            }
        }
        return Some(assign);
    }
    None
}

fn load(cnf: &RandomCnf) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..cnf.num_vars).map(|_| s.new_var()).collect();
    for clause in &cnf.clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(v, phase)| Lit::with_phase(vars[v], phase))
            .collect();
        s.add_clause(&lits);
    }
    (s, vars)
}

/// Every gate kind a circuit may hold.
const KINDS: [GateKind; 11] = [
    GateKind::Const0,
    GateKind::Const1,
    GateKind::Buf,
    GateKind::Not,
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Mux,
];

/// One gate of a random circuit: a kind index, the fanin count of an n-ary
/// kind, and fanin picks among the earlier nets.
type GateRecipe = (usize, usize, [usize; 4]);

/// Two random circuits over the same `inputs` input labels, compared on
/// `outputs` pairs: `(left output pick, right output pick)`.
#[derive(Debug, Clone)]
struct MiterCase {
    inputs: usize,
    left: Vec<GateRecipe>,
    right: Vec<GateRecipe>,
    outputs: Vec<(usize, usize)>,
}

fn gates_strategy() -> impl Strategy<Value = Vec<GateRecipe>> {
    let picks =
        (0..64usize, 0..64usize, 0..64usize, 0..64usize).prop_map(|(a, b, c, d)| [a, b, c, d]);
    let gate = (0..KINDS.len(), 2usize..=4, picks);
    proptest::collection::vec(gate, 0..=12)
}

/// Half the cases pair two unrelated circuits. The other half pair a
/// circuit with a copy that has one gate kind changed and compare the same
/// outputs: most internal nets then match, so the assistance pass proves
/// equalities, and the changed cone may differ on few inputs only.
fn miter_case_strategy() -> impl Strategy<Value = MiterCase> {
    let outputs = proptest::collection::vec((0..64usize, 0..64usize), 1..=3);
    let twist = (any::<bool>(), 0..64usize, 0..KINDS.len());
    (
        1usize..=6,
        gates_strategy(),
        gates_strategy(),
        outputs,
        twist,
    )
        .prop_map(|(inputs, left, mut right, mut outputs, (twisted, g, k))| {
            if twisted && !left.is_empty() {
                right = left.clone();
                right[g % left.len()].0 = k;
                for (l, r) in &mut outputs {
                    *r = *l;
                }
            }
            MiterCase {
                inputs,
                left,
                right,
                outputs,
            }
        })
}

/// Builds one side. The right side declares its inputs in reverse order,
/// so the miter must share them by label, not by position; fanin picks
/// index the inputs by label on both sides.
fn build_side(case: &MiterCase, gates: &[GateRecipe], right: bool) -> (Circuit, Vec<NetId>) {
    let mut c = Circuit::new(if right { "right" } else { "left" });
    let order: Vec<usize> = if right {
        (0..case.inputs).rev().collect()
    } else {
        (0..case.inputs).collect()
    };
    let mut declared: Vec<(usize, NetId)> = order
        .into_iter()
        .map(|i| (i, c.add_input(format!("x{i}"))))
        .collect();
    declared.sort_by_key(|&(i, _)| i);
    let mut nets: Vec<NetId> = declared.into_iter().map(|(_, net)| net).collect();
    for &(k, n_ary, picks) in gates {
        let kind = KINDS[k];
        let arity = kind.arity().unwrap_or(n_ary);
        let fanins: Vec<NetId> = picks[..arity]
            .iter()
            .map(|&p| nets[p % nets.len()])
            .collect();
        nets.push(c.add_gate(kind, &fanins).unwrap());
    }
    let outputs = case
        .outputs
        .iter()
        .enumerate()
        .map(|(j, &(l, r))| {
            let net = nets[if right { r } else { l } % nets.len()];
            c.add_output(format!("y{j}"), net);
            net
        })
        .collect();
    (c, outputs)
}

/// Both sides and the miter's output pairs.
fn build_pair(case: &MiterCase) -> (Circuit, Circuit, Vec<(NetId, NetId)>) {
    let (left, lnets) = build_side(case, &case.left, false);
    let (right, rnets) = build_side(case, &case.right, true);
    (left, right, lnets.into_iter().zip(rnets).collect())
}

/// Per left-ordered input assignment, which output pairs differ.
fn brute_force_diffs(case: &MiterCase, left: &Circuit, right: &Circuit) -> Vec<Vec<bool>> {
    (0..1usize << case.inputs)
        .map(|j| {
            let x: Vec<bool> = (0..case.inputs).map(|i| (j >> i) & 1 == 1).collect();
            pair_diffs(left, right, &x)
        })
        .collect()
}

/// Which output pairs differ on `x`, given in the left side's input order.
fn pair_diffs(left: &Circuit, right: &Circuit, x: &[bool]) -> Vec<bool> {
    let reversed: Vec<bool> = x.iter().rev().copied().collect();
    let (l, r) = (left.eval(x).unwrap(), right.eval(&reversed).unwrap());
    l.iter().zip(&r).map(|(a, b)| a != b).collect()
}

/// A miter on `pairs`, after the default assistance pass when `assist` is
/// set: the pass only adds proven equalities, so no verdict may move.
fn miter(left: &Circuit, right: &Circuit, pairs: &[(NetId, NetId)], assist: bool) -> Miter {
    let mut miter = Miter::new(Solver::new(), left, right, pairs).unwrap();
    if assist {
        miter
            .assist(left, right, &CecOptions::default(), &mut ProofCache::new())
            .unwrap();
    }
    miter
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_agrees_with_brute_force(cnf in cnf_strategy()) {
        let oracle = brute_force(&cnf);
        let (mut s, vars) = load(&cnf);
        match s.solve(&[]) {
            SolveResult::Sat => {
                prop_assert!(oracle.is_some(), "solver SAT but formula UNSAT");
                // Model must satisfy every clause.
                for clause in &cnf.clauses {
                    let ok = clause.iter().any(|&(v, phase)| {
                        s.value(vars[v]).unwrap_or(false) == phase
                    });
                    prop_assert!(ok, "model violates clause {clause:?}");
                }
            }
            SolveResult::Unsat => {
                prop_assert!(oracle.is_none(), "solver UNSAT but formula SAT");
            }
            SolveResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    #[test]
    fn assumptions_equal_added_units(cnf in cnf_strategy(), phases in proptest::collection::vec(any::<bool>(), MAX_VARS)) {
        // Solving under assumptions must agree with solving a copy where the
        // assumptions are unit clauses.
        let (mut s1, vars1) = load(&cnf);
        let assumptions: Vec<Lit> = (0..cnf.num_vars.min(3))
            .map(|i| Lit::with_phase(vars1[i], phases[i]))
            .collect();
        let r1 = s1.solve(&assumptions);

        let (mut s2, vars2) = load(&cnf);
        let mut ok = true;
        for i in 0..cnf.num_vars.min(3) {
            ok &= s2.add_clause(&[Lit::with_phase(vars2[i], phases[i])]);
        }
        let r2 = if ok { s2.solve(&[]) } else { SolveResult::Unsat };
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn solver_is_reusable_across_calls(cnf in cnf_strategy()) {
        let (mut s, vars) = load(&cnf);
        let first = s.solve(&[]);
        let second = s.solve(&[]);
        prop_assert_eq!(first, second);
        if first == SolveResult::Sat {
            // Model still satisfies all clauses on the second call.
            for clause in &cnf.clauses {
                let ok = clause.iter().any(|&(v, phase)| {
                    s.value(vars[v]).unwrap_or(false) == phase
                });
                prop_assert!(ok);
            }
        }
    }

    #[test]
    fn model_enumeration_counts_match(cnf in cnf_strategy()) {
        // Count models over the first min(nv,5) vars via blocking clauses,
        // and compare with brute force projected counts.
        let proj = cnf.num_vars.min(5);
        let mut expected = std::collections::HashSet::new();
        for j in 0..(1u32 << cnf.num_vars) {
            let assign: Vec<bool> = (0..cnf.num_vars).map(|i| (j >> i) & 1 == 1).collect();
            let sat = cnf.clauses.iter().all(|clause| {
                clause.iter().any(|&(v, phase)| assign[v] == phase)
            });
            if sat {
                let key: Vec<bool> = assign[..proj].to_vec();
                expected.insert(key);
            }
        }
        let (mut s, vars) = load(&cnf);
        let mut found = 0usize;
        while s.solve(&[]) == SolveResult::Sat {
            let block: Vec<Lit> = (0..proj)
                .map(|i| Lit::with_phase(vars[i], !s.value(vars[i]).unwrap_or(false)))
                .collect();
            found += 1;
            prop_assert!(found <= expected.len(), "enumerated too many models");
            s.add_clause(&block);
        }
        prop_assert_eq!(found, expected.len());
    }

    #[test]
    fn miter_checks_agree_with_brute_force(case in miter_case_strategy()) {
        let (left, right, pairs) = build_pair(&case);
        let diffs = brute_force_diffs(&case, &left, &right);
        for assist in [false, true] {
            let mut miter = miter(&left, &right, &pairs, assist);
            for i in 0..pairs.len() {
                let differs = diffs.iter().any(|d| d[i]);
                match miter.check(i, &left) {
                    Equivalence::Equivalent => {
                        prop_assert!(!differs, "pair {i} differs, assist {assist}");
                    }
                    Equivalence::Counterexample(x) => {
                        prop_assert!(pair_diffs(&left, &right, &x)[i], "bogus witness {x:?}");
                    }
                    Equivalence::Unknown => prop_assert!(false, "no budget was set"),
                }
            }
        }
    }

    #[test]
    fn miter_enumerates_the_error_domain_once(case in miter_case_strategy()) {
        let (left, right, pairs) = build_pair(&case);
        let expected: HashSet<usize> = brute_force_diffs(&case, &left, &right)
            .iter()
            .enumerate()
            .filter(|(_, d)| d.iter().any(|&b| b))
            .map(|(j, _)| j)
            .collect();
        for assist in [false, true] {
            let mut miter = miter(&left, &right, &pairs, assist);
            miter.require_difference();
            let mut found = HashSet::new();
            loop {
                match miter.next_difference(&left) {
                    Equivalence::Counterexample(x) => {
                        let j = x.iter().enumerate().map(|(i, &b)| usize::from(b) << i).sum();
                        prop_assert!(expected.contains(&j), "{x:?} is no error");
                        prop_assert!(found.insert(j), "{x:?} enumerated twice");
                        miter.block(&x, &left);
                    }
                    Equivalence::Equivalent => break,
                    Equivalence::Unknown => prop_assert!(false, "no budget was set"),
                }
            }
            prop_assert_eq!(&found, &expected, "assist {}", assist);
        }
    }
}
