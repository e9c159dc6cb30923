//! Integration test: the paper's Figure 1 / Examples 1–2 scenario.
//!
//! The revised specification introduces a new signal `c = a ∧ b`, re-gates
//! two multi-sink words with `c` and `¬c`, and leaves a sibling signal `d`
//! (which also reads `b`) untouched. The engine must rectify `vout` while
//! preserving `d`.

use eco_synth::lower::synthesize;
use eco_synth::rtl::{RtlModule, WordExpr as E};
use syseco::{verify_rectification, EcoOptions, Session};

const WIDTH: u32 = 4;

fn module(revised: bool) -> RtlModule {
    let mut m = RtlModule::new(if revised { "spec" } else { "impl" });
    m.add_input("w_in1", WIDTH);
    m.add_input("w_in2", WIDTH);
    m.add_input("a", 1);
    m.add_input("b", 1);
    m.add_signal("v0", E::input("a"));
    m.add_signal("v1", E::input("b"));
    m.add_signal("d", E::gate(E::input("w_in1"), E::input("b")));
    if revised {
        m.add_signal("c", E::and(E::input("a"), E::input("b")));
        m.add_signal(
            "vout",
            E::or(
                E::gate(E::input("w_in1"), E::signal("c")),
                E::gate(E::input("w_in2"), E::not(E::signal("c"))),
            ),
        );
    } else {
        m.add_signal(
            "vout",
            E::or(
                E::gate(E::input("w_in1"), E::signal("v0")),
                E::gate(E::input("w_in2"), E::signal("v1")),
            ),
        );
    }
    m.add_output("vout", E::signal("vout"));
    m.add_output("d", E::signal("d"));
    m
}

#[test]
fn figure1_rectification_preserves_sibling_signal() {
    let implementation = synthesize(&module(false)).expect("elaborates");
    let spec = synthesize(&module(true)).expect("elaborates");

    let session = Session::new(EcoOptions::with_seed(0xF16));
    let result = session.run(&implementation, &spec).expect("rectifies");

    // Full equivalence against the revised specification.
    assert!(verify_rectification(&result.patched, &spec).unwrap());

    // Every `vout` bit was revised; `d` bits were not.
    assert_eq!(result.rectify.outputs_failing, WIDTH as usize);

    // The economical solution rewires gating pins rather than replacing the
    // whole word logic: the patch must be far smaller than the vout cone.
    let vout_cone: usize = (0..WIDTH)
        .map(|i| {
            let net = spec.outputs()[spec
                .output_by_name(&format!("vout[{i}]"))
                .expect("port exists") as usize]
                .net();
            eco_netlist::topo::cone_size(&spec, net)
        })
        .sum();
    assert!(
        result.stats.gates < vout_cone,
        "patch ({} gates) should be smaller than re-synthesizing the vout \
         cones ({vout_cone} gates)",
        result.stats.gates
    );
}

#[test]
fn figure1_patch_is_deterministic() {
    let implementation = synthesize(&module(false)).expect("elaborates");
    let spec = synthesize(&module(true)).expect("elaborates");
    let session = Session::new(EcoOptions::with_seed(7));
    let r1 = session.run(&implementation, &spec).expect("rectifies");
    let r2 = session.run(&implementation, &spec).expect("rectifies");
    assert_eq!(r1.stats, r2.stats);
    assert_eq!(r1.patch.rewires(), r2.patch.rewires());
}
