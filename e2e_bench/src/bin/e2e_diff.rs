//! Regression gate over two e2e result sets.
//!
//! ```text
//! e2e_diff --bench BENCHMARK.json <baseline-dir> <current-dir>
//! e2e_diff --self-test
//! ```
//!
//! Each directory holds the reports `e2e --all --out DIR` writes. Every
//! end-to-end metric is compared in the direction and within the bound
//! `BENCHMARK.json` declares for it; the per-layer metrics of
//! [`syseco_e2e_bench::compare::SCOPED`] on the workloads they describe
//! too, the other per-layer metrics are listed but never flagged. When
//! both sides ran the same seed, each case's patch attributes must not
//! grow at all, and changed patch digests are listed.
//!
//! Exit codes: 0 no regressions, 1 at least one regression, 2 usage or
//! parse error. `--self-test` checks the seeded cases of
//! [`syseco_e2e_bench::compare::self_test`] and then exits 1 through the
//! same path a real regression takes, proving the gate can fail.

use std::path::Path;
use std::process::ExitCode;

use syseco_e2e_bench::compare::{compare_sets, load, self_test, Benchmark, Comparison};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  e2e_diff --bench BENCHMARK.json <baseline-dir> <current-dir>\n  e2e_diff --self-test"
    );
    ExitCode::from(2)
}

fn finish(comparison: &Comparison) -> ExitCode {
    print!("{}", comparison.render());
    if comparison.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--self-test" {
        return match self_test() {
            Ok(comparison) => {
                println!("self-test: seeded checks hold; exiting through the regression path\n");
                finish(&comparison)
            }
            Err(e) => {
                eprintln!("self-test FAILED: {e}");
                ExitCode::from(2)
            }
        };
    }
    let [flag, bench, base, current] = args.as_slice() else {
        return usage();
    };
    if flag != "--bench" {
        return usage();
    }
    let run = || -> Result<Comparison, String> {
        let text =
            std::fs::read_to_string(bench).map_err(|e| format!("cannot read {bench}: {e}"))?;
        let bench = Benchmark::parse(&text)?;
        let base = load(Path::new(base), &bench)?;
        let current = load(Path::new(current), &bench)?;
        Ok(compare_sets(&bench, &base, &current))
    };
    match run() {
        Ok(comparison) => {
            println!("comparing {base} -> {current}\n");
            finish(&comparison)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
