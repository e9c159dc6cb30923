//! Concurrency robustness: a multi-output case rectified with `jobs > 1`
//! under a tiny deadline (and, with the `fault-injection` feature, an
//! injected worker panic) must return promptly — no deadlock — report every
//! cut cone honestly, and still produce a fully verified patch.

use std::time::{Duration, Instant};

use eco_workload::{build_case, CaseParams, RevisionKind};
use syseco::{verify_rectification, EcoOptions, Session};

/// A fast multi-output case: three revised words of width 3 give nine
/// failing bit-outputs for the pool to schedule.
fn multi_output_case() -> eco_workload::EcoCase {
    build_case(&CaseParams {
        id: 9200,
        name: "robust-parallel",
        seed: 0x5EED,
        input_words: 3,
        width: 3,
        logic_signals: 6,
        output_words: 3,
        revisions: vec![
            (0, RevisionKind::PolarityFlip),
            (1, RevisionKind::ConditionFlip),
            (2, RevisionKind::SingleBitFlip),
        ],
        heavy_optimization: false,
        aggressive_optimization: false,
    })
}

#[test]
fn tiny_deadline_with_parallel_workers_degrades_instead_of_deadlocking() {
    let case = multi_output_case();
    assert!(case.revised_outputs >= 4, "needs several failing outputs");
    let deadline = Duration::from_millis(150);
    let options = EcoOptions::builder()
        .seed(0x5EED)
        .jobs(4)
        .timeout(deadline)
        .build();
    let t0 = Instant::now();
    let result = Session::new(options)
        .run(&case.implementation, &case.spec)
        .expect("a governed parallel run degrades instead of failing");
    let elapsed = t0.elapsed();
    assert!(
        elapsed <= deadline * 2 + Duration::from_millis(1500),
        "parallel governed run overshot its deadline: {elapsed:?}"
    );
    // Every cut cone shows up in the degradation report, at most once,
    // naming a real output.
    let mut seen = std::collections::HashSet::new();
    for d in &result.rectify.degradations {
        assert!(
            case.spec.output_by_name(&d.output).is_some(),
            "degradation names unknown output {:?}",
            d.output
        );
        assert!(
            seen.insert(d.output.clone()),
            "duplicate degradation for output {:?}",
            d.output
        );
    }
    // The fallback keeps even a cut-short parallel run complete.
    assert!(verify_rectification(&result.patched, &case.spec).unwrap());
    result.patched.check_well_formed().unwrap();
}

#[cfg(feature = "fault-injection")]
#[test]
fn injected_worker_panic_degrades_only_that_cone() {
    use syseco::{Budget, DegradeReason, FaultPolicy, Session};

    let case = multi_output_case();
    let options = EcoOptions::builder().seed(0x5EED).jobs(4).build();
    // Panic inside the second per-output search; all other cones must be
    // unaffected.
    let budget = Budget::unlimited().with_faults(FaultPolicy {
        panic_at: Some(2),
        ..FaultPolicy::default()
    });
    let result = Session::new(options)
        .run_with_budget(&case.implementation, &case.spec, &budget)
        .expect("a panicking worker degrades its cone, not the run");
    let panicked: Vec<_> = result
        .rectify
        .degradations
        .iter()
        .filter(|d| matches!(d.reason, DegradeReason::SearchPanicked(_)))
        .collect();
    assert_eq!(
        panicked.len(),
        1,
        "exactly one cone panicked: {:?}",
        result.rectify.degradations
    );
    assert!(verify_rectification(&result.patched, &case.spec).unwrap());
    result.patched.check_well_formed().unwrap();
}

/// A contained worker panic must not break the metrics registry (or
/// poison any shared lock): taking a snapshot afterwards works, shows the
/// run's activity, and the same telemetry handle keeps serving subsequent
/// runs.
#[cfg(feature = "fault-injection")]
#[test]
fn worker_panic_leaves_metrics_registry_usable() {
    use syseco::{Budget, FaultPolicy, Session, Telemetry};

    let case = multi_output_case();
    let telemetry = Telemetry::enabled();
    let session =
        Session::new(EcoOptions::builder().seed(0x5EED).jobs(4).build()).with_telemetry(&telemetry);
    let budget = Budget::unlimited().with_faults(FaultPolicy {
        panic_at: Some(1),
        ..FaultPolicy::default()
    });
    session
        .run_with_budget(&case.implementation, &case.spec, &budget)
        .expect("the panicking cone degrades, the run completes");

    // The registry survived the panic: a snapshot both succeeds and
    // reflects the completed run.
    let snapshot = session.metrics_snapshot();
    assert!(
        snapshot
            .counters()
            .any(|(name, value)| name == "rectify.validations" && value > 0),
        "snapshot shows no search activity after a contained panic"
    );

    // And a clean follow-up run on the same telemetry handle still works,
    // adding its counts to the same registry.
    session
        .run_with_budget(&case.implementation, &case.spec, &Budget::unlimited())
        .expect("clean run after a contained panic");
    let after = session.metrics_snapshot();
    let validations = |s: &syseco::MetricsSnapshot| {
        s.counters()
            .find(|(name, _)| *name == "rectify.validations")
            .map_or(0, |(_, v)| v)
    };
    assert!(
        validations(&after) > validations(&snapshot),
        "second run's metrics did not land in the registry"
    );
}
