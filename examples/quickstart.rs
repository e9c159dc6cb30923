//! Quickstart: rectify a hand-built implementation against a revised
//! specification and inspect the patch.
//!
//! ```text
//! cargo run --release -p syseco --example quickstart
//! ```

use eco_netlist::{Circuit, CircuitStats, GateKind};
use syseco::{verify_rectification, EcoOptions, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The current implementation: a 2-bit comparator with a bug — the
    // equality output uses OR where it should use AND.
    let mut implementation = Circuit::new("cmp2_impl");
    let a0 = implementation.add_input("a0");
    let a1 = implementation.add_input("a1");
    let b0 = implementation.add_input("b0");
    let b1 = implementation.add_input("b1");
    let eq0 = implementation.add_gate(GateKind::Xnor, &[a0, b0])?;
    let eq1 = implementation.add_gate(GateKind::Xnor, &[a1, b1])?;
    let eq = implementation.add_gate(GateKind::Or, &[eq0, eq1])?; // bug!
    let gt = {
        let nb1 = implementation.add_gate(GateKind::Not, &[b1])?;
        let hi = implementation.add_gate(GateKind::And, &[a1, nb1])?;
        let nb0 = implementation.add_gate(GateKind::Not, &[b0])?;
        let lo = implementation.add_gate(GateKind::And, &[a0, nb0, eq1])?;
        implementation.add_gate(GateKind::Or, &[hi, lo])?
    };
    implementation.add_output("eq", eq);
    implementation.add_output("gt", gt);

    // The revised specification fixes the equality reduction.
    let mut spec = Circuit::new("cmp2_spec");
    let a0 = spec.add_input("a0");
    let a1 = spec.add_input("a1");
    let b0 = spec.add_input("b0");
    let b1 = spec.add_input("b1");
    let eq0 = spec.add_gate(GateKind::Xnor, &[a0, b0])?;
    let eq1 = spec.add_gate(GateKind::Xnor, &[a1, b1])?;
    let eq = spec.add_gate(GateKind::And, &[eq0, eq1])?; // fixed
    let gt = {
        let nb1 = spec.add_gate(GateKind::Not, &[b1])?;
        let hi = spec.add_gate(GateKind::And, &[a1, nb1])?;
        let nb0 = spec.add_gate(GateKind::Not, &[b0])?;
        let lo = spec.add_gate(GateKind::And, &[a0, nb0, eq1])?;
        spec.add_gate(GateKind::Or, &[hi, lo])?
    };
    spec.add_output("eq", eq);
    spec.add_output("gt", gt);

    println!("implementation: {}", CircuitStats::of(&implementation));
    println!("specification:  {}", CircuitStats::of(&spec));

    // Run the symbolic-sampling ECO engine.
    let session = Session::new(EcoOptions::default());
    let result = session.run(&implementation, &spec)?;

    println!("\nrectified in {:?}", result.runtime);
    println!(
        "failing outputs: {} of {}",
        result.rectify.outputs_failing, result.rectify.outputs_total
    );
    println!("patch: {:?}", result.stats);
    for op in result.patch.rewires() {
        println!(
            "  rewire {}: {} -> {}{}",
            op.pin,
            op.old_net,
            op.new_net,
            if op.from_spec {
                " (cloned from spec)"
            } else {
                " (existing net)"
            }
        );
    }

    // Independent verification: the patched design is equivalent to the
    // revised specification on every output.
    assert!(verify_rectification(&result.patched, &spec)?);
    println!("\nverification: patched implementation ≡ revised specification ✓");
    Ok(())
}
