//! Trace determinism across worker counts: spans are recorded into
//! per-merge-slot lanes and concatenated in slot order, and every metric
//! except the timing histograms is derived from deterministic search work,
//! so the normalized JSONL trace and the counter/gauge snapshot of a
//! `jobs = 1` run must be identical to a `jobs = 4` run on the same seed.

mod common;

use common::tmp_dir;
use eco_workload::{build_case, CaseParams, RevisionKind};
use syseco::telemetry::export::spans_jsonl;
use syseco::telemetry::profile::Profile;
use syseco::telemetry::report::{render, MetricsDoc, ReportOptions};
use syseco::telemetry::{names, Counter, Gauge, Histogram};
use syseco::{EcoOptions, Session, Telemetry};

fn multi_output_params(seed: u64) -> CaseParams {
    CaseParams {
        id: 9200,
        name: "trace-determinism",
        seed,
        input_words: 2,
        width: 3,
        logic_signals: 6,
        output_words: 3,
        revisions: vec![
            (0, RevisionKind::GateTermAdded),
            (1, RevisionKind::ConditionFlip),
            (2, RevisionKind::PolarityFlip),
        ],
        heavy_optimization: false,
        aggressive_optimization: false,
    }
}

/// Runs one rectification with a fresh telemetry hub, returning the
/// normalized span JSONL plus the counter/gauge snapshot.
fn traced_run(case_seed: u64, jobs: usize) -> (String, Vec<(&'static str, u64)>) {
    let case = build_case(&multi_output_params(case_seed));
    let telemetry = Telemetry::enabled();
    let session = Session::new(
        EcoOptions::builder()
            .seed(case_seed ^ 0x7E1E)
            .jobs(jobs)
            .build(),
    )
    .with_telemetry(&telemetry);
    let result = session
        .run(&case.implementation, &case.spec)
        .expect("rectification succeeds");
    let snap = session.metrics_snapshot();
    let mut metrics: Vec<(&'static str, u64)> = Counter::ALL
        .iter()
        .map(|&c| (c.name(), snap.counter(c)))
        .collect();
    metrics.extend(Gauge::ALL.iter().map(|&g| (g.name(), snap.gauge(g))));
    (spans_jsonl(&result.trace, true), metrics)
}

#[test]
fn jobs_do_not_change_the_normalized_trace() {
    for case_seed in [11u64, 5309] {
        let (serial_trace, serial_metrics) = traced_run(case_seed, 1);
        let (wide_trace, wide_metrics) = traced_run(case_seed, 4);
        assert!(
            serial_trace.lines().any(|l| l.contains("\"name\":\"run\"")),
            "trace must contain the run span:\n{serial_trace}"
        );
        assert!(
            serial_trace
                .lines()
                .any(|l| l.contains("\"name\":\"search\"")),
            "trace must contain per-output search spans:\n{serial_trace}"
        );
        assert_eq!(
            serial_trace, wide_trace,
            "normalized span JSONL must be identical across worker counts (seed {case_seed})"
        );
        assert_eq!(
            serial_metrics, wide_metrics,
            "counters and gauges must be identical across worker counts (seed {case_seed})"
        );
    }
}

/// Runs one rectification and renders the default (wall-clock-free)
/// markdown run report from its spans and metrics.
fn rendered_report(case_seed: u64, jobs: usize, dir: Option<&std::path::Path>) -> String {
    let case = build_case(&multi_output_params(case_seed));
    let telemetry = Telemetry::enabled();
    let mut builder = EcoOptions::builder().seed(case_seed ^ 0x7E1E).jobs(jobs);
    if let Some(dir) = dir {
        builder = builder.checkpoint_dir(dir.to_path_buf());
    }
    let session = Session::new(builder.build()).with_telemetry(&telemetry);
    let result = session
        .run(&case.implementation, &case.spec)
        .expect("rectification succeeds");
    let profile = Profile::from_spans(&result.trace);
    render(
        &profile,
        &MetricsDoc::from(&session.metrics_snapshot()),
        &ReportOptions::default(),
    )
}

/// The profiler tree and the default run report are built only from
/// deterministic span data, so both must be byte-identical at one and
/// four workers.
#[test]
fn profiler_tree_and_report_are_identical_across_jobs() {
    let serial = rendered_report(11, 1, None);
    let wide = rendered_report(11, 4, None);
    for section in [
        "# syseco run report",
        "## Hot paths",
        "## Per-output cost ranking",
    ] {
        assert!(
            serial.contains(section),
            "report missing {section:?}:\n{serial}"
        );
    }
    assert_eq!(
        serial, wide,
        "rendered run report must be byte-identical across worker counts"
    );
}

/// Satellite guard for the name registry: a full instrumented run must
/// not record any counter, gauge, or histogram outside the documented
/// set in `eco_telemetry::names` (DESIGN.md §14).
#[test]
fn full_run_snapshot_stays_within_the_documented_name_registry() {
    let case = build_case(&multi_output_params(11));
    let telemetry = Telemetry::enabled();
    let session =
        Session::new(EcoOptions::builder().seed(11).jobs(2).build()).with_telemetry(&telemetry);
    let result = session
        .run(&case.implementation, &case.spec)
        .expect("rectification succeeds");
    let snap = session.metrics_snapshot();
    // The proof-cache counters fold through the run stats unchanged, and
    // a multi-output run reuses proofs.
    assert_eq!(snap.counter(Counter::CecProofs), result.rectify.cec_proofs);
    assert_eq!(snap.counter(Counter::CecReused), result.rectify.cec_reused);
    assert!(result.rectify.cec_proofs > 0 && result.rectify.cec_reused > 0);
    let recorded: Vec<&'static str> = snap
        .counters()
        .map(|(name, _)| name)
        .chain(snap.gauges().map(|(name, _)| name))
        .chain(Histogram::ALL.iter().map(|h| h.name()))
        .collect();
    for name in &recorded {
        assert!(
            names::ALL_METRIC_NAMES.contains(name),
            "metric {name:?} is not in the documented registry (names::ALL_METRIC_NAMES)"
        );
    }
    // And the snapshot exposes the complete registry, so exports never
    // silently drop a documented metric.
    assert_eq!(recorded.len(), names::ALL_METRIC_NAMES.len());
    assert!(recorded.contains(&names::CEC_PROOFS) && recorded.contains(&names::CEC_REUSED));
}

/// A fully resumed run records zero-work placeholder searches instead of
/// real ones, but its report must still be byte-identical across worker
/// counts.
#[test]
fn report_is_stable_across_checkpoint_resume() {
    let dir = tmp_dir("trace-report-resume");
    let cold = rendered_report(5309, 1, Some(&dir));
    let resumed_serial = rendered_report(5309, 1, Some(&dir));
    let resumed_wide = rendered_report(5309, 4, Some(&dir));
    assert_eq!(
        resumed_serial, resumed_wide,
        "resumed-run report must be byte-identical across worker counts"
    );
    assert_ne!(
        cold, resumed_serial,
        "a fully resumed run reports different (zero-work) searches"
    );
    assert!(
        resumed_serial.contains("resume skipped"),
        "resumed report must narrate the checkpoint resume:\n{resumed_serial}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the run mid-flight, resume from the checkpoint at one and four
/// workers: the resumed reports must match each other byte for byte.
#[cfg(feature = "fault-injection")]
#[test]
fn report_is_stable_across_kill_and_resume() {
    use syseco::telemetry::report::parse_metrics_json;
    use syseco::{Budget, EcoError, FaultPlan};

    let case = build_case(&multi_output_params(11));
    let dir = tmp_dir("trace-report-kill");
    // Crash at the first commit: some outputs are checkpointed, the rest
    // still need a live search on resume.
    let options = EcoOptions::builder()
        .seed(11 ^ 0x7E1E)
        .jobs(1)
        .checkpoint_dir(&dir)
        .build();
    let plan = FaultPlan::parse("abort:commit@1").unwrap();
    match Session::new(options).run_with_budget(
        &case.implementation,
        &case.spec,
        &Budget::unlimited().with_fault_plan(plan),
    ) {
        Err(EcoError::InjectedAbort) => {}
        other => panic!("expected the injected abort to fire, got {other:?}"),
    }

    let mut reports = Vec::new();
    for jobs in [1usize, 4] {
        let telemetry = Telemetry::enabled();
        // Rerun from a copy of the crashed state: resume what the first
        // commit persisted, search the rest.
        let snapshot_dir = tmp_dir(&format!("trace-report-kill-j{jobs}"));
        copy_dir(&dir, &snapshot_dir);
        let options_copy = EcoOptions::builder()
            .seed(11 ^ 0x7E1E)
            .jobs(jobs)
            .checkpoint_dir(&snapshot_dir)
            .build();
        let session = Session::new(options_copy).with_telemetry(&telemetry);
        let result = session
            .run(&case.implementation, &case.spec)
            .expect("resume succeeds");
        assert!(
            result.rectify.checkpoint_hits > 0,
            "the crashed run must have persisted at least one output"
        );
        let profile = Profile::from_spans(&result.trace);
        let doc = parse_metrics_json(&syseco::telemetry::export::metrics_json(
            &session.metrics_snapshot(),
        ))
        .expect("metrics JSON round-trips");
        reports.push(render(&profile, &doc, &ReportOptions::default()));
        let _ = std::fs::remove_dir_all(&snapshot_dir);
    }
    assert_eq!(
        reports[0], reports[1],
        "post-crash resumed reports must be byte-identical across worker counts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "fault-injection")]
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("create checkpoint copy");
    for entry in std::fs::read_dir(from).expect("read checkpoint dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy checkpoint record");
    }
}

#[test]
fn lanes_follow_merge_slots_not_workers() {
    let case = build_case(&multi_output_params(77));
    let telemetry = Telemetry::enabled();
    let session =
        Session::new(EcoOptions::builder().seed(77).jobs(4).build()).with_telemetry(&telemetry);
    let result = session
        .run(&case.implementation, &case.spec)
        .expect("rectification succeeds");
    let search_lanes: Vec<u32> = result
        .trace
        .iter()
        .filter(|s| s.name == "search")
        .map(|s| s.lane)
        .collect();
    // One search lane per failing output, numbered 1..=n in merge order.
    let expect: Vec<u32> = (1..=search_lanes.len() as u32).collect();
    assert_eq!(search_lanes, expect);
    // The coordinator phases all live on lane 0.
    for name in ["run", "detect", "merge"] {
        assert!(
            result.trace.iter().any(|s| s.name == name && s.lane == 0),
            "missing lane-0 span {name:?}"
        );
    }
}
