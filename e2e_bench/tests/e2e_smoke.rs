//! Smoke test of the harness library on a tiny case, one pass per run.

use std::path::PathBuf;

use syseco_e2e_bench::compare::Benchmark;
use syseco_e2e_bench::e2e::{self, Config, Report, Workload, END_TO_END, PER_LAYER};

/// Per-layer metrics that depend on wall-clock time; every other metric
/// must repeat exactly.
const TIMED: &[&str] = &[
    "detect.self_ms",
    "search.self_ms",
    "samples.self_ms",
    "point_sets.self_ms",
    "choices.self_ms",
    "validate.self_ms",
    "commit.self_ms",
    "verify.self_ms",
    "refine_patch.self_ms",
    "schedule.busy_frac",
    "layer.detect_ms",
    "layer.verify_ms",
    "layer.sim_gate_evals_per_s",
    "layer.bdd_build_ms",
    "trace_overhead",
    "parallel_speedup",
    "warm_wall_s",
];

fn config(trace: bool) -> Config {
    Config {
        seed: 3,
        seconds: 0.0,
        reps: 1,
        trace,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    }
}

fn run(workload: Workload, trace: bool) -> Report {
    let report = e2e::run(workload, &[e2e::tiny_params(90)], &config(trace));
    assert!(
        report.correct(),
        "{} (trace {trace}): {} of {} runs failed",
        workload.name(),
        report.failed,
        report.attempted
    );
    report
}

fn declared() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Benchmark::parse(&text).expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics a report must carry exactly: the declared ones of its mode.
fn expected(bench: &Benchmark, trace: bool) -> Vec<(String, String)> {
    bench
        .metrics
        .iter()
        .filter(|m| m.bound.is_some() != trace)
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let bench = declared();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(bench.workloads, workloads);
    let harness: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let file: Vec<(String, String)> = bench
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    assert_eq!(
        harness, file,
        "BENCHMARK.json and the harness declare the same metrics"
    );
    for m in &bench.metrics {
        assert!(well_formed(&m.name), "bad metric name {:?}", m.name);
    }
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(workload, trace);
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, expected(&bench, trace), "{}", workload.name());
            let line = report.result_line();
            for (name, unit) in &emitted {
                assert!(well_formed(name));
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in Workload::ALL {
        let report = run(workload, false);
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{} {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        // Only the chain replays its passes on a warm cache.
        let warm = workload == Workload::Chain;
        assert!(report.cases.iter().all(|c| c.warm_time.is_some() == warm));
    }
}

#[test]
fn deterministic_metrics_and_digests_repeat() {
    for workload in [Workload::Table2, Workload::Chain] {
        for trace in [false, true] {
            let first = run(workload, trace);
            let second = run(workload, trace);
            for (a, b) in first.metrics.iter().zip(&second.metrics) {
                let timed = TIMED.contains(&a.name) || a.unit == "s" || a.unit == "MiB";
                if !timed {
                    assert_eq!(a.value, b.value, "{} {}", workload.name(), a.name);
                }
            }
            let digests = |r: &Report| r.cases.iter().map(|c| c.digest).collect::<Vec<_>>();
            assert_eq!(digests(&first), digests(&second));
        }
    }
}

#[test]
fn digests_match_at_one_and_two_jobs() {
    // `parallel` runs its first engine seed with the seed `table2` uses.
    let jobs1 = run(Workload::Table2, false);
    let jobs2 = run(Workload::Parallel, false);
    assert_eq!(jobs1.cases[0].seed, jobs2.cases[0].seed);
    assert_eq!(jobs1.cases[0].digest, jobs2.cases[0].digest);
    assert_eq!(jobs1.cases[0].patch, jobs2.cases[0].patch);
    assert_eq!(jobs2.cases.len() as u64, e2e::PARALLEL_SEEDS);
    // The per-layer run of `parallel` also checks its jobs-1 reference
    // against the jobs-2 patch; a mismatch would count as a failure.
    let traced = run(Workload::Parallel, true);
    assert!(traced.metric("parallel_speedup").is_some_and(|s| s > 0.0));
}
