//! Persistent-cache roundtrip properties: a warm run must reproduce the
//! cold run byte-for-byte (records are hints, re-verified before use, so
//! reuse can never change the answer) and publish the counts it reports,
//! `CacheMode::Off` must be a true no-op, and corrupted cache files must
//! degrade to misses — correct results, a bumped corruption counter, and no
//! errors.

mod common;

use std::path::Path;

use common::{case_params, tmp_dir};
use eco_netlist::write_blif;
use eco_workload::{build_case, CaseParams, EcoCase, RevisionKind};
use proptest::prelude::*;
use syseco::telemetry::Counter;
use syseco::{verify_rectification, CacheMode, EcoOptions, EcoResult, Session, Telemetry};

/// Small multi-output cases: enough failing cones for per-output records
/// to matter, cheap enough to rectify three times per proptest case.
fn params() -> impl Strategy<Value = CaseParams> {
    case_params(9400, "prop-cache")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn warm_runs_reproduce_cold_runs(params in params()) {
        let case = build_case(&params);
        let dir = tmp_dir(&format!("prop-{:016x}", params.seed));
        let run = |jobs: usize, mode: CacheMode| {
            let options = EcoOptions::builder()
                .seed(params.seed ^ 0x51CA)
                .jobs(jobs)
                .cache_dir(&dir)
                .cache_mode(mode)
                .build();
            Session::new(options)
                .run(&case.implementation, &case.spec)
                .expect("rectification succeeds")
        };

        let cold = run(1, CacheMode::ReadWrite);
        prop_assert_eq!(cold.rectify.cache_hits, 0, "first run cannot hit");
        prop_assert!(cold.rectify.cache_misses > 0, "first run must miss");

        for jobs in [1usize, 4] {
            let warm = run(jobs, CacheMode::ReadWrite);
            prop_assert!(
                warm.rectify.cache_hits > 0,
                "second run (jobs={}) should reuse the stored run record",
                jobs
            );
            prop_assert_eq!(
                write_blif(&warm.patched),
                write_blif(&cold.patched),
                "warm patched netlist must be byte-identical (jobs={})",
                jobs
            );
            prop_assert_eq!(
                format!("{:?}", warm.patch.rewires()),
                format!("{:?}", cold.patch.rewires())
            );
        }
        prop_assert!(verify_rectification(&cold.patched, &case.spec).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_off_is_a_no_op(params in params()) {
        let case = build_case(&params);
        let dir = tmp_dir(&format!("off-{:016x}", params.seed));
        let run = |mode: Option<CacheMode>| {
            let mut builder = EcoOptions::builder().seed(params.seed ^ 0x0FF).jobs(1);
            if let Some(mode) = mode {
                builder = builder.cache_dir(&dir).cache_mode(mode);
            }
            Session::new(builder.build())
                .run(&case.implementation, &case.spec)
                .expect("rectification succeeds")
        };

        let plain = run(None);
        let off = run(Some(CacheMode::Off));
        prop_assert!(!dir.exists(), "CacheMode::Off must not create files");
        prop_assert_eq!(off.rectify.cache_hits, 0);
        prop_assert_eq!(off.rectify.cache_misses, 0);
        prop_assert_eq!(off.rectify.cache_verify_rejects, 0);
        prop_assert_eq!(off.rectify.cache_corrupt_segments, 0);
        prop_assert_eq!(write_blif(&off.patched), write_blif(&plain.patched));

        // Read-only against a directory that does not exist: still a clean
        // all-miss run that writes nothing.
        let ro = run(Some(CacheMode::ReadOnly));
        prop_assert!(!dir.exists(), "read-only mode must not create files");
        prop_assert_eq!(ro.rectify.cache_hits, 0);
        prop_assert_eq!(write_blif(&ro.patched), write_blif(&plain.patched));
    }
}

/// A two-revision case that rewires some of its outputs.
fn two_revision_case() -> EcoCase {
    build_case(&CaseParams {
        id: 9401,
        name: "cache-corrupt",
        seed: 0xC0DE,
        input_words: 3,
        width: 3,
        logic_signals: 10,
        output_words: 3,
        revisions: vec![
            (0, RevisionKind::PolarityFlip),
            (1, RevisionKind::ConditionFlip),
        ],
        heavy_optimization: false,
        aggressive_optimization: false,
    })
}

/// Rectifies `case` at seed `0xC0DE` through the cache in `dir`.
fn run_cached(case: &EcoCase, dir: &Path, telemetry: &Telemetry) -> EcoResult {
    let options = EcoOptions::builder()
        .seed(0xC0DE)
        .jobs(1)
        .cache_dir(dir)
        .build();
    Session::new(options)
        .with_telemetry(telemetry)
        .run(&case.implementation, &case.spec)
        .expect("rectification succeeds")
}

/// The metrics registry and `EcoResult::rectify` are one source of counts:
/// after a cold run, and after the warm run that replays its record, every
/// engine counter reads what the returned stats report.
#[test]
fn cold_and_warm_runs_publish_the_counts_they_report() {
    let case = two_revision_case();
    let dir = tmp_dir("counters");
    for label in ["cold", "warm"] {
        let telemetry = Telemetry::enabled();
        let stats = run_cached(&case, &dir, &telemetry).rectify;
        // Neither half is vacuous: both rewire, and the warm run replays.
        assert!(stats.rewire_rectified > 0, "{label} run: {stats:?}");
        assert_eq!(stats.cache_hits, u64::from(label == "warm"), "{label} run");
        let snapshot = telemetry.snapshot();
        let sat = &stats.sat;
        for (counter, value) in [
            (Counter::SatConflicts, sat.conflicts),
            (Counter::SatDecisions, sat.decisions),
            (Counter::SatPropagations, sat.propagations),
            (Counter::SatRestarts, sat.restarts),
            (Counter::SatLearntClauses, sat.learnt_clauses),
            (Counter::SatLearntLiterals, sat.learnt_literals),
            (Counter::CecProofs, stats.cec_proofs),
            (Counter::CecReused, stats.cec_reused),
            (Counter::RectifyRefinements, stats.refinements as u64),
            (Counter::RectifyValidations, stats.validations as u64),
            (Counter::RectifyPointSets, stats.point_sets_tried as u64),
            (Counter::RectifyChoices, stats.choices_tried as u64),
            (Counter::PrefilterScreened, stats.prefilter_screened as u64),
            (Counter::PrefilterPassed, stats.prefilter_passed as u64),
            (Counter::RectifyRewired, stats.rewire_rectified as u64),
            (Counter::RectifyFallbacks, stats.fallbacks as u64),
            (
                Counter::RectifyDegradations,
                stats.degradations.len() as u64,
            ),
            (Counter::CacheHits, stats.cache_hits),
            (Counter::CacheMisses, stats.cache_misses),
            (Counter::CacheVerifyRejects, stats.cache_verify_rejects),
            (Counter::CacheCorruptSegments, stats.cache_corrupt_segments),
            (Counter::CacheIoErrors, stats.cache_io_errors),
            (Counter::CacheRetries, stats.cache_retries),
            (Counter::CheckpointHits, stats.checkpoint_hits),
            (Counter::CheckpointWrites, stats.checkpoint_writes),
        ] {
            let name = counter.name();
            assert_eq!(snapshot.counter(counter), value, "{label} run: {name}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_degrades_to_misses_not_errors() {
    let case = two_revision_case();
    let dir = tmp_dir("corrupt");
    let run = || run_cached(&case, &dir, &Telemetry::disabled());

    let cold = run();

    // Flip every byte of every committed segment file.
    let mut corrupted = 0usize;
    for entry in std::fs::read_dir(&dir).expect("cache dir exists after a rw run") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "ecc") {
            let mut bytes = std::fs::read(&path).expect("read segment");
            for b in &mut bytes {
                *b ^= 0x5A;
            }
            std::fs::write(&path, bytes).expect("write segment");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the cold run must have committed segments");

    let warm = run();
    assert!(
        warm.rectify.cache_corrupt_segments > 0,
        "corrupted segments must be counted: {:?}",
        warm.rectify
    );
    assert_eq!(
        warm.rectify.cache_hits, 0,
        "corrupted records must not be served"
    );
    assert!(warm.rectify.cache_misses > 0);
    assert_eq!(
        write_blif(&warm.patched),
        write_blif(&cold.patched),
        "corruption must not change the result"
    );
    assert!(verify_rectification(&warm.patched, &case.spec).unwrap());

    // The corrupted-then-rerun store recovers: a third run hits again.
    let recovered = run();
    assert!(recovered.rectify.cache_hits > 0);
    assert_eq!(write_blif(&recovered.patched), write_blif(&cold.patched));
    let _ = std::fs::remove_dir_all(&dir);
}
