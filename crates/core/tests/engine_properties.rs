//! Property-based tests at the engine level: random word-level designs and
//! random revisions, end to end through the full flow. Every run must
//! produce a verified patch — the engine's central contract.

use eco_synth::lower::synthesize;
use eco_synth::opt::{optimize, OptOptions};
use eco_synth::rtl::{ReduceOp, RtlModule, WordExpr as E};
use eco_workload::RevisionKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use syseco::{verify_rectification, EcoOptions, Session};

const WIDTH: u32 = 3;

#[derive(Debug, Clone)]
struct DesignRecipe {
    ops: Vec<u8>,
    revision_kind: u8,
    revision_target: u8,
    seed: u64,
}

fn recipe_strategy() -> impl Strategy<Value = DesignRecipe> {
    (
        proptest::collection::vec(any::<u8>(), 4..10),
        any::<u8>(),
        any::<u8>(),
        any::<u64>(),
    )
        .prop_map(|(ops, revision_kind, revision_target, seed)| DesignRecipe {
            ops,
            revision_kind,
            revision_target,
            seed,
        })
}

fn build_design(recipe: &DesignRecipe) -> (RtlModule, RtlModule) {
    let mut m = RtlModule::new("prop");
    m.add_input("x", WIDTH);
    m.add_input("y", WIDTH);
    m.add_input("en", 1);
    let mut names = vec!["x".to_string(), "y".to_string()];
    for (i, op) in recipe.ops.iter().enumerate() {
        let a = E::signal(names[(*op as usize) % names.len()].clone());
        let b = E::signal(names[(*op as usize / 7) % names.len()].clone());
        let expr = match op % 6 {
            0 => E::and(a, b),
            1 => E::or(a, b),
            2 => E::xor(a, b),
            3 => E::add(a, b),
            4 => E::mux(E::input("en"), a, b),
            _ => E::not(a),
        };
        let n = format!("s{i}");
        m.add_signal(&n, expr);
        names.push(n);
    }
    // Outputs: last two signals.
    let o1 = names[names.len() - 1].clone();
    let o2 = names[names.len() - 2].clone();
    m.add_output("o1", E::signal(o1.clone()));
    if o2 != "x" && o2 != "y" {
        m.add_output("o2", E::signal(o2));
    }

    let mut revised = m.clone();
    let kinds = RevisionKind::ALL;
    let kind = kinds[recipe.revision_kind as usize % kinds.len()];
    let target = o1;
    let mut rng = SmallRng::seed_from_u64(recipe.seed);
    let old = revised.signal_expr(&target).expect("defined").clone();
    let helper = E::input("y");
    let gate_bit = E::reduce(ReduceOp::Or, E::input("en"));
    let (new_expr, _) = kind.apply(old, helper, gate_bit, WIDTH, &mut rng);
    revised.replace_signal(&target, new_expr);
    let _ = recipe.revision_target;
    (m, revised)
}

proptest! {
    // Each case runs synthesis + optimization + full rectification; keep
    // the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_random_revision_is_rectified_and_verified(recipe in recipe_strategy()) {
        let (original, revised) = build_design(&recipe);
        let mut implementation = synthesize(&original).unwrap();
        optimize(&mut implementation, &OptOptions::heavy(recipe.seed)).unwrap();
        let spec = synthesize(&revised).unwrap();
        let session = Session::new(EcoOptions::with_seed(recipe.seed ^ 0xABCD));
        let result = session.run(&implementation, &spec).unwrap();
        prop_assert!(
            verify_rectification(&result.patched, &spec).unwrap(),
            "patched design must match spec (recipe {recipe:?})"
        );
        prop_assert!(result.patched.check_well_formed().is_ok());
        // Patch accounting sanity: no rewires implies no patch gates.
        if result.patch.rewires().is_empty() {
            prop_assert_eq!(result.stats.gates, 0);
        }
    }

    #[test]
    fn aggressive_optimization_is_also_rectifiable(recipe in recipe_strategy()) {
        let (original, revised) = build_design(&recipe);
        let mut implementation = synthesize(&original).unwrap();
        optimize(&mut implementation, &OptOptions::aggressive(recipe.seed)).unwrap();
        let spec = synthesize(&revised).unwrap();
        let session = Session::new(EcoOptions::with_seed(recipe.seed ^ 0x1234));
        let result = session.run(&implementation, &spec).unwrap();
        prop_assert!(verify_rectification(&result.patched, &spec).unwrap());
    }
}
