//! Behavioural tests of the engine's tuning knobs and search caps: every
//! configuration must stay correct; the knobs only trade quality and effort.

use eco_netlist::{Circuit, GateKind};
use syseco::rectify::MAX_REFINEMENTS;
use syseco::{verify_rectification, Budget, EcoOptions, SamplePolicy, Session};
#[cfg(feature = "fault-injection")]
use syseco::{DegradeReason, FaultPolicy};

/// A multi-sink case: two output words gated by v0/v1 must be re-gated by
/// c/¬c (the Figure-1 shape, 2 bits wide).
fn case() -> (Circuit, Circuit) {
    let build = |revised: bool| {
        let mut c = Circuit::new(if revised { "spec" } else { "impl" });
        let w10 = c.add_input("w10");
        let w11 = c.add_input("w11");
        let w20 = c.add_input("w20");
        let w21 = c.add_input("w21");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let (g0, g1) = if revised {
            let cc = c.add_gate(GateKind::And, &[a, b]).unwrap();
            let nc = c.add_gate(GateKind::Not, &[cc]).unwrap();
            (cc, nc)
        } else {
            (a, b)
        };
        let t10 = c.add_gate(GateKind::And, &[w10, g0]).unwrap();
        let t20 = c.add_gate(GateKind::And, &[w20, g1]).unwrap();
        let o0 = c.add_gate(GateKind::Or, &[t10, t20]).unwrap();
        let t11 = c.add_gate(GateKind::And, &[w11, g0]).unwrap();
        let t21 = c.add_gate(GateKind::And, &[w21, g1]).unwrap();
        let o1 = c.add_gate(GateKind::Or, &[t11, t21]).unwrap();
        c.add_output("o0", o0);
        c.add_output("o1", o1);
        // Protected sibling: depends on b, must not change.
        let d = c.add_gate(GateKind::And, &[w10, b]).unwrap();
        c.add_output("d", d);
        c
    };
    (build(false), build(true))
}

fn rectify_with(options: EcoOptions) -> syseco::EcoResult {
    rectify_under(options, &Budget::unlimited())
}

fn rectify_under(options: EcoOptions, budget: &Budget) -> syseco::EcoResult {
    let (implementation, spec) = case();
    let result = Session::new(options)
        .run_with_budget(&implementation, &spec, budget)
        .expect("rectification succeeds");
    assert!(
        verify_rectification(&result.patched, &spec).unwrap(),
        "every configuration must produce a correct patch"
    );
    result
}

#[test]
fn all_sample_policies_are_correct() {
    for policy in [
        SamplePolicy::ErrorDomain,
        SamplePolicy::Random,
        SamplePolicy::Mixed,
    ] {
        let mut options = EcoOptions::with_seed(21);
        options.sample_policy = policy;
        let r = rectify_with(options);
        assert_eq!(r.rectify.outputs_failing, 2, "{policy:?}");
    }
}

/// Every SAT validation runs out of budget (the `sat-exhaust` fault).
#[cfg(feature = "fault-injection")]
#[test]
fn tiny_validation_budget_degrades_to_fallback_not_failure() {
    let budget = Budget::unlimited().with_faults(FaultPolicy {
        sat_exhaust_from: Some(1),
        ..FaultPolicy::default()
    });
    let r = rectify_under(EcoOptions::with_seed(23), &budget);
    // With no budget the engine cannot confirm searches, but the fallback
    // path still rectifies everything: each failing output is resolved by a
    // committed rewire, a fallback, or as a side effect of another commit.
    assert!(r.rectify.fallbacks + r.rectify.rewire_rectified >= 1);
    assert!(
        r.rectify.fallbacks + r.rectify.rewire_rectified <= r.rectify.outputs_failing,
        "{:?}",
        r.rectify
    );
    assert!(
        r.rectify
            .degradations
            .iter()
            .all(|d| d.reason == DegradeReason::SatBudgetExhausted),
        "{:?}",
        r.rectify.degradations
    );
}

#[test]
fn small_domain_needs_no_more_than_max_refinements() {
    let mut options = EcoOptions::with_seed(25);
    options.num_samples = 2;
    let r = rectify_with(options);
    assert!(r.rectify.refinements <= MAX_REFINEMENTS * r.rectify.outputs_failing);
}

#[test]
fn shared_clones_are_counted_once() {
    // Both revised outputs need the new c = a∧b logic; the patch must not
    // contain two copies of it.
    let r = rectify_with(EcoOptions::with_seed(26));
    // Ideal is 3 gates (c, ¬c, and one reused gate); without clone sharing
    // the two outputs would clone ~10. Allow a small slack for decode-order
    // variance while still catching duplicate clones.
    assert!(
        r.stats.gates <= 6,
        "shared clones must not be duplicated per output: {}",
        r.stats
    );
}

#[test]
fn level_driven_mode_is_correct_and_deterministic() {
    let mut options = EcoOptions::with_seed(27);
    options.level_driven = true;
    let a = rectify_with(options.clone());
    let b = rectify_with(options);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.patch.rewires(), b.patch.rewires());
}

#[test]
fn patch_stats_display_is_readable() {
    let r = rectify_with(EcoOptions::with_seed(28));
    let text = r.stats.to_string();
    assert!(text.contains("gates="));
    assert!(text.contains("outputs="));
}
