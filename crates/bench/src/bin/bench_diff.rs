//! Perf-regression gate: compares a fresh BENCH file against a baseline.
//!
//! ```text
//! bench_diff <baseline.json> <current.json> [--tol RATIO]
//!            [--metric-tol KEY=RATIO ...] [--metric-dir KEY=DIR ...]
//! bench_diff --self-test
//! ```
//!
//! Metrics are classified by key name (see [`syseco_bench::diff`]):
//! time-like keys regress upward, rate-like keys regress downward,
//! counters only drift. The default tolerance is ±20%; `--tol` changes
//! it globally and `--metric-tol key=0.05` pins one key.
//! `--metric-dir key=lower|higher|info` overrides a key's direction, e.g.
//! to turn an informational count into a lower-is-better gate.
//!
//! Exit codes: 0 no regressions, 1 at least one regression, 2 usage or
//! parse error. `--self-test` seeds a >20% wall-clock regression into a
//! synthetic document pair, verifies the comparison flags exactly that
//! key, and then exits 1 through the same path a real regression would —
//! CI asserts the nonzero exit to prove the gate can fail.

use std::process::ExitCode;

use syseco_bench::diff::{compare_texts, DiffReport, Direction, Tolerances};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench_diff <baseline.json> <current.json> [--tol RATIO]\n             \
         [--metric-tol KEY=RATIO ...] [--metric-dir KEY=lower|higher|info ...]\n  \
         bench_diff --self-test"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    if args.len() < 2 {
        return usage();
    }
    let mut tolerances = Tolerances::default();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--tol" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match value.parse::<f64>() {
                    Ok(t) if t.is_finite() && t >= 0.0 => tolerances.default = t,
                    _ => {
                        eprintln!("error: bad tolerance {value:?}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--metric-tol" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                let Some((key, t)) = value.split_once('=') else {
                    eprintln!("error: --metric-tol wants KEY=RATIO, got {value:?}");
                    return ExitCode::from(2);
                };
                match t.parse::<f64>() {
                    Ok(t) if t.is_finite() && t >= 0.0 => {
                        tolerances.per_metric.push((key.to_string(), t));
                    }
                    _ => {
                        eprintln!("error: bad tolerance in {value:?}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--metric-dir" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                let Some((key, dir)) = value.split_once('=') else {
                    eprintln!("error: --metric-dir wants KEY=lower|higher|info, got {value:?}");
                    return ExitCode::from(2);
                };
                match Direction::parse(dir) {
                    Ok(d) => tolerances.per_metric_direction.push((key.to_string(), d)),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("error: unknown flag {other:?}");
                return usage();
            }
        }
    }
    let base = match std::fs::read_to_string(&args[0]) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args[0]);
            return ExitCode::from(2);
        }
    };
    let current = match std::fs::read_to_string(&args[1]) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args[1]);
            return ExitCode::from(2);
        }
    };
    let report = match compare_texts(&base, &current, &tolerances) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("comparing {} -> {}\n", args[0], args[1]);
    finish(&report)
}

fn finish(report: &DiffReport) -> ExitCode {
    print!("{}", report.render());
    if report.regressions().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Seeds a known >20% regression and exits through the real failure path.
fn self_test() -> ExitCode {
    let base = r#"{
        "wall_clock_s": 10.0,
        "apply_throughput_per_s": 1000.0,
        "bdd_apply_hit_rate": 0.9,
        "counters": {"sat.conflicts": 100}
    }"#;
    // +25% wall clock: past the default ±20% tolerance.
    let regressed = base.replace("10.0", "12.5");

    let clean = compare_texts(base, base, &Tolerances::default()).expect("self-test parse");
    assert!(
        clean.regressions().is_empty(),
        "self-test: identical documents must not regress"
    );
    let report = compare_texts(base, &regressed, &Tolerances::default()).expect("self-test parse");
    let keys: Vec<&str> = report
        .regressions()
        .iter()
        .map(|r| r.key.as_str())
        .collect();
    assert_eq!(
        keys,
        ["wall_clock_s"],
        "self-test: the seeded +25% wall-clock regression must be the only flag"
    );
    // A direction override must be able to gate an informational counter.
    let counter_bloat = base.replace("100", "150");
    let gated = Tolerances {
        per_metric_direction: vec![(
            "counters.sat.conflicts".to_string(),
            Direction::LowerIsBetter,
        )],
        ..Tolerances::default()
    };
    let ungated =
        compare_texts(base, &counter_bloat, &Tolerances::default()).expect("self-test parse");
    assert!(
        ungated.regressions().is_empty(),
        "self-test: counter drift must pass without a direction override"
    );
    let dir_report = compare_texts(base, &counter_bloat, &gated).expect("self-test parse");
    let dir_keys: Vec<&str> = dir_report
        .regressions()
        .iter()
        .map(|r| r.key.as_str())
        .collect();
    assert_eq!(
        dir_keys,
        ["counters.sat.conflicts"],
        "self-test: --metric-dir lower must gate the +50% counter"
    );
    println!("self-test: seeded +25% wall_clock_s regression, expecting exit 1\n");
    finish(&report)
}
