//! Integration test over generated benchmark cases: the full syseco flow on
//! real suite members (small ones, to keep CI time bounded).

use eco_workload::{build_case, table1_params, timing_params};
use syseco::{verify_rectification, EcoOptions, Session};

/// Case 5 is the smallest Table-1 case; it exercises multiple revision
/// kinds (polarity, condition flip, single bit).
#[test]
fn suite_case5_rectifies_and_verifies() {
    let params = &table1_params()[4];
    assert_eq!(params.id, 5);
    let case = build_case(params);
    let session = Session::new(EcoOptions::default());
    let result = session
        .run(&case.implementation, &case.spec)
        .expect("rectification succeeds");
    assert!(verify_rectification(&result.patched, &case.spec).unwrap());
    assert!(result.rectify.outputs_failing > 0, "revision is observable");
    result.patched.check_well_formed().unwrap();
}

#[test]
fn suite_case2_rectifies_and_verifies() {
    let params = &table1_params()[1];
    assert_eq!(params.id, 2);
    let case = build_case(params);
    let session = Session::new(EcoOptions::default());
    let result = session
        .run(&case.implementation, &case.spec)
        .expect("rectification succeeds");
    assert!(verify_rectification(&result.patched, &case.spec).unwrap());
    // Case 2 revises two thirds of the outputs.
    let total = case.implementation.num_outputs();
    assert!(result.rectify.outputs_failing * 3 >= total);
}

#[test]
fn timing_case_rectifies_with_level_driven_selection() {
    let params = &timing_params()[0];
    let case = build_case(params);
    let mut options = EcoOptions::with_seed(0x713);
    options.level_driven = true;
    let result = Session::new(options)
        .run(&case.implementation, &case.spec)
        .expect("rectification succeeds");
    assert!(verify_rectification(&result.patched, &case.spec).unwrap());
}

#[test]
fn suite_cases_are_deterministic() {
    let params = &table1_params()[4];
    let a = build_case(params);
    let b = build_case(params);
    assert_eq!(a.implementation_stats(), b.implementation_stats());
    assert_eq!(a.designer_estimate, b.designer_estimate);
}

#[test]
fn all_suite_params_have_distinct_seeds() {
    let mut seeds: Vec<u64> = table1_params()
        .iter()
        .chain(timing_params().iter())
        .map(|p| p.seed)
        .collect();
    let n = seeds.len();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), n, "cases must not share generator seeds");
}
