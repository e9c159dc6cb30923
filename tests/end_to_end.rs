//! End-to-end integration: RTL → synthesis → optimization → revision →
//! rectification → verification, across every revision kind.

mod common;

use common::revise;
use eco_synth::lower::synthesize;
use eco_synth::opt::{optimize, OptOptions};
use eco_workload::RevisionKind;
use syseco::{verify_rectification, EcoOptions, Session};

fn run_kind(kind: RevisionKind, heavy: bool) {
    let (original, revised) = revise(kind, 0xE2E);
    let mut implementation = synthesize(&original).expect("elaborates");
    let opt = if heavy {
        OptOptions::heavy(17)
    } else {
        OptOptions::light(17)
    };
    optimize(&mut implementation, &opt).expect("optimizes");
    let spec = synthesize(&revised).expect("elaborates");

    let session = Session::new(EcoOptions::with_seed(kind as u64 + 1));
    let result = session
        .run(&implementation, &spec)
        .unwrap_or_else(|e| panic!("{kind:?}: rectification failed: {e}"));
    assert!(
        verify_rectification(&result.patched, &spec).unwrap(),
        "{kind:?}: patched design must match the revised spec"
    );
    result.patched.check_well_formed().unwrap();
}

#[test]
fn rectifies_gate_term_added() {
    run_kind(RevisionKind::GateTermAdded, true);
}

#[test]
fn rectifies_mux_branch_swap() {
    run_kind(RevisionKind::MuxBranchSwap, true);
}

#[test]
fn rectifies_condition_flip() {
    run_kind(RevisionKind::ConditionFlip, true);
}

#[test]
fn rectifies_constant_change() {
    run_kind(RevisionKind::ConstantChange, true);
}

#[test]
fn rectifies_polarity_flip() {
    run_kind(RevisionKind::PolarityFlip, true);
}

#[test]
fn rectifies_single_bit_flip() {
    run_kind(RevisionKind::SingleBitFlip, true);
}

#[test]
fn rectifies_shared_gating() {
    run_kind(RevisionKind::SharedGating, true);
}

#[test]
fn rectifies_without_optimization_too() {
    // Structural similarity should not break the functional flow.
    run_kind(RevisionKind::PolarityFlip, false);
}

#[test]
fn single_bit_revision_yields_tiny_patch() {
    // The smallest revision must not trigger whole-cone fallbacks.
    let (original, revised) = revise(RevisionKind::SingleBitFlip, 99);
    let mut implementation = synthesize(&original).expect("elaborates");
    optimize(&mut implementation, &OptOptions::heavy(23)).expect("optimizes");
    let spec = synthesize(&revised).expect("elaborates");
    let result = Session::new(EcoOptions::with_seed(5))
        .run(&implementation, &spec)
        .expect("rectifies");
    assert!(verify_rectification(&result.patched, &spec).unwrap());
    assert_eq!(
        result.rectify.outputs_failing, 1,
        "exactly one bit output is revised"
    );
    assert!(
        result.stats.gates <= 4,
        "a single-bit flip needs at most an inverter's worth of patch, got {:?}",
        result.stats
    );
}
