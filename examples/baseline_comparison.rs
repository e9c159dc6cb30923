//! Runs the three engines over a couple of generated benchmark cases and
//! prints a condensed Table-2-style comparison.
//!
//! ```text
//! cargo run --release -p syseco --example baseline_comparison
//! ```

use eco_workload::{build_case, table1_params};
use syseco::baseline::{cone, deltasyn};
use syseco::{verify_rectification, EcoOptions, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two of the smaller suite cases keep the example quick.
    let params = table1_params();
    let picks = [4usize, 1]; // cases 5 and 2 (0-based indices)
    let session = Session::new(EcoOptions::default());

    println!("case |        engine | in  out    g    n |     time | ok");
    println!("-----|---------------|-------------------|----------|---");
    for &i in &picks {
        let case = build_case(&params[i]);
        let results = [
            (
                "commercial",
                cone::rectify(&case.implementation, &case.spec)?,
            ),
            (
                "deltasyn",
                deltasyn::rectify(&case.implementation, &case.spec)?,
            ),
            ("syseco", session.run(&case.implementation, &case.spec)?),
        ];
        for (name, r) in &results {
            let ok = verify_rectification(&r.patched, &case.spec)?;
            println!(
                "{:>4} | {:>13} | {:>3} {:>4} {:>4} {:>4} | {:>8.2?} | {}",
                case.id,
                name,
                r.stats.inputs,
                r.stats.outputs,
                r.stats.gates,
                r.stats.nets,
                r.runtime,
                if ok { "✓" } else { "✗" }
            );
            assert!(ok, "{name} produced an incorrect patch");
        }
        println!("     | estimate      | {:>18} |", case.designer_estimate);
        println!("-----|---------------|-------------------|----------|---");
    }
    Ok(())
}
