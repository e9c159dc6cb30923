//! A realistic word-level ECO: a small ALU whose flag logic is revised.
//!
//! The implementation is produced by the heavy optimization pipeline (as a
//! production netlist would be), so it is structurally dissimilar from the
//! revised specification — the regime the paper targets. Both baselines and
//! syseco run on the same case, printing a Table-2-style comparison row.
//!
//! ```text
//! cargo run --release -p syseco --example alu_eco
//! ```

use eco_netlist::CircuitStats;
use eco_synth::lower::synthesize;
use eco_synth::opt::{optimize, OptOptions};
use eco_synth::rtl::{ReduceOp, RtlModule, WordExpr as E};
use syseco::baseline::{cone, deltasyn};
use syseco::{verify_rectification, EcoOptions, Session};

const WIDTH: u32 = 8;

/// An 8-bit ALU slice: add / and / xor / pass selected by 2 control bits,
/// with zero and parity flags.
fn alu(revised: bool) -> RtlModule {
    let mut m = RtlModule::new(if revised { "alu_spec" } else { "alu_impl" });
    m.add_input("a", WIDTH);
    m.add_input("b", WIDTH);
    m.add_input("op0", 1);
    m.add_input("op1", 1);

    m.add_signal("sum", E::add(E::input("a"), E::input("b")));
    m.add_signal("conj", E::and(E::input("a"), E::input("b")));
    m.add_signal("parity_word", E::xor(E::input("a"), E::input("b")));
    m.add_signal(
        "lo_mux",
        E::mux(E::input("op0"), E::signal("sum"), E::signal("conj")),
    );
    m.add_signal(
        "hi_mux",
        E::mux(E::input("op0"), E::signal("parity_word"), E::input("a")),
    );
    m.add_signal(
        "result",
        E::mux(E::input("op1"), E::signal("lo_mux"), E::signal("hi_mux")),
    );

    // Flags. The revision fixes the zero flag: it must consider the result,
    // not only the low nibble, and the parity flag gains an enable.
    if revised {
        m.add_signal("zero", E::not(E::reduce(ReduceOp::Or, E::signal("result"))));
        m.add_signal(
            "parity",
            E::and(
                E::reduce(ReduceOp::Xor, E::signal("result")),
                E::not(E::input("op1")),
            ),
        );
    } else {
        m.add_signal(
            "zero",
            E::not(E::reduce(ReduceOp::Or, E::slice(E::signal("result"), 0, 3))),
        );
        m.add_signal("parity", E::reduce(ReduceOp::Xor, E::signal("result")));
    }

    m.add_output("result", E::signal("result"));
    m.add_output("zero", E::signal("zero"));
    m.add_output("parity", E::signal("parity"));
    m
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Implementation: synthesize the ORIGINAL spec, then optimize heavily.
    let mut implementation = synthesize(&alu(false))?;
    let report = optimize(&mut implementation, &OptOptions::heavy(2024))?;
    println!(
        "implementation (optimized {} -> {} gates): {}",
        report.gates_before,
        report.gates_after,
        CircuitStats::of(&implementation)
    );

    // Revised specification: lightweight synthesis only.
    let spec = synthesize(&alu(true))?;
    println!("revised spec: {}", CircuitStats::of(&spec));

    // Three engines, one case.
    let commercial = cone::rectify(&implementation, &spec)?;
    let ds = deltasyn::rectify(&implementation, &spec)?;
    let sy = Session::new(EcoOptions::default()).run(&implementation, &spec)?;

    println!("\n             inputs outputs  gates   nets     time");
    for (name, r) in [
        ("commercial", &commercial),
        ("deltasyn  ", &ds),
        ("syseco    ", &sy),
    ] {
        assert!(verify_rectification(&r.patched, &spec)?);
        println!(
            "  {name} {:>6} {:>7} {:>6} {:>6} {:>8.2?}  ✓",
            r.stats.inputs, r.stats.outputs, r.stats.gates, r.stats.nets, r.runtime
        );
    }
    println!(
        "\nsyseco/deltasyn gate ratio: {:.2}",
        sy.stats.gates as f64 / ds.stats.gates.max(1) as f64
    );
    Ok(())
}
