//! The engine's entry type. A [`Session`] holds the options and the
//! run-scoped state — cancellation token, progress observer, telemetry —
//! and drives each run: port normalization, the whole-run cache replay,
//! the search and merge of [`rectify`](crate::rectify), and patch-input
//! refinement.
//!
//! ```
//! use eco_netlist::{Circuit, GateKind};
//! use syseco::{CancelToken, EcoOptions, Session};
//!
//! # fn main() -> Result<(), syseco::EcoError> {
//! let mut c = Circuit::new("impl");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let g = c.add_gate(GateKind::And, &[a, b])?;
//! c.add_output("y", g);
//! let mut s = Circuit::new("spec");
//! let a = s.add_input("a");
//! let b = s.add_input("b");
//! let g = s.add_gate(GateKind::Or, &[a, b])?;
//! s.add_output("y", g);
//!
//! let token = CancelToken::new();
//! let session = Session::new(EcoOptions::builder().jobs(1).build())
//!     .with_cancel(&token)
//!     .on_progress(|event| eprintln!("{event:?}"));
//! let result = session.run(&c, &s)?;
//! assert!(syseco::verify_rectification(&result.patched, &s)?);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use eco_netlist::{Circuit, NetId, NetlistError};
use eco_telemetry::{ArgValue, MetricsSnapshot, Telemetry};

use crate::budget::{Budget, CancelToken};
use crate::checkpoint::CheckpointSession;
use crate::correspond::Correspondence;
use crate::engine::{name_spec_inputs, normalize_ports, EcoResult};
use crate::error_domain::{classify_outputs, Equivalence};
use crate::fault::SpanPoint;
use crate::memo::{CacheSession, RunRecord};
use crate::options::EcoOptions;
use crate::patch::{refine_patch_inputs_timed, Patch};
use crate::progress::{ProgressCallback, ProgressEvent};
use crate::rectify::{publish_run_counters, rewire_rectify_with, RectifyStats, VALIDATION_BUDGET};
use crate::EcoError;

/// A rectification session: the engine's entry type.
///
/// Construct with [`Session::new`], attach a [`CancelToken`], a progress
/// observer and/or a [`Telemetry`] hub, then [`run`](Session::run) a pair.
/// The session is reusable: every run derives a fresh [`Budget`] from the
/// options' timeout, sharing the attached token.
#[derive(Clone)]
pub struct Session {
    options: EcoOptions,
    cancel: Option<CancelToken>,
    pub(crate) observer: Option<ProgressCallback>,
    pub(crate) telemetry: Telemetry,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("options", &self.options)
            .field("cancel", &self.cancel)
            .field("observer", &self.observer.as_ref().map(|_| "<callback>"))
            .field("telemetry", &self.telemetry.is_enabled())
            .finish()
    }
}

impl Session {
    /// A session over `options`, with no cancellation or observer attached.
    pub fn new(options: EcoOptions) -> Self {
        Session {
            options,
            cancel: None,
            observer: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The session's options.
    pub fn options(&self) -> &EcoOptions {
        &self.options
    }

    /// Attaches a cancellation token: cancelling it degrades the run (every
    /// unfinished output takes the fallback) instead of aborting it.
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Attaches a progress observer invoked with every
    /// [`ProgressEvent`]. Events arrive from worker threads, so the
    /// callback must be `Send + Sync` and should be cheap.
    #[must_use]
    pub fn on_progress<F>(mut self, callback: F) -> Self
    where
        F: Fn(&ProgressEvent) + Send + Sync + 'static,
    {
        self.observer = Some(Arc::new(callback));
        self
    }

    /// Attaches a [`Telemetry`] hub: runs record structured trace spans
    /// (returned in [`EcoResult::trace`]) and feed the metrics registry
    /// readable via [`Session::metrics_snapshot`]. The handle is
    /// shared — clone-cheap — so the caller can keep one for export while
    /// the session records into it. A disabled hub (the default) costs
    /// nothing: no clock reads, no allocation.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// A point-in-time copy of the attached [`Telemetry`]'s metrics
    /// registry. Empty when telemetry is disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// Rectifies `implementation` against the revised specification `spec`
    /// under this session's budget, observer and telemetry, returning the
    /// patched circuit and the patch.
    ///
    /// Specification inputs absent from the implementation are added as new
    /// primary inputs; specification-only outputs are added as new ports
    /// (initially constant) and rectified like any failing output.
    ///
    /// # Errors
    ///
    /// [`EcoError::PortMismatch`] when an implementation output has no
    /// specification counterpart, and [`EcoError`] wrappers for malformed
    /// circuits.
    pub fn run(&self, implementation: &Circuit, spec: &Circuit) -> Result<EcoResult, EcoError> {
        // A fresh budget per run: the options' timeout plus the attached
        // cancellation token.
        let mut budget = match self.options.timeout {
            Some(t) => Budget::with_deadline(t),
            None => Budget::unlimited(),
        };
        if let Some(token) = &self.cancel {
            budget = budget.with_cancel(token);
        }
        self.run_with_budget(implementation, spec, &budget)
    }

    /// Like [`Session::run`] with an externally owned [`Budget`] (the
    /// attached cancellation token is *not* merged into it).
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn run_with_budget(
        &self,
        implementation: &Circuit,
        spec: &Circuit,
        budget: &Budget,
    ) -> Result<EcoResult, EcoError> {
        let start = Instant::now();
        implementation.check_well_formed()?;
        spec.check_well_formed()?;
        let named = name_spec_inputs(spec)?;
        let spec = named.as_ref().unwrap_or(spec);
        let mut patched = implementation.clone();
        normalize_ports(&mut patched, spec)?;
        // Persistent cache (DESIGN.md §11). On a full-key hit the run is
        // *replayed* — the recorded rewire groups are applied and the result
        // re-verified end to end — so a stale or colliding record degrades
        // to the cold path instead of corrupting the output.
        let mut cache = CacheSession::open(&self.options, &patched, spec, budget);
        let mut replay_rejects = 0u64;
        if let Some(session) = cache.as_mut() {
            if let Some(record) = session.run_record() {
                match self.replay_run(&patched, spec, &record, budget, start, session) {
                    Some(result) => return Ok(result),
                    None => replay_rejects = 1,
                }
            }
        }
        // Crash-safe checkpointing (DESIGN.md §13). Opened on the
        // post-normalization circuit — the exact one the fan-out searches —
        // so the run key covers what resume will actually rectify.
        let checkpoint = CheckpointSession::open(&self.options, &patched, spec, budget);
        let (patch, mut rectify, mut trace, committed) = rewire_rectify_with(
            self,
            &mut patched,
            spec,
            budget,
            cache.as_mut(),
            checkpoint.as_ref(),
        )?;
        // Patch-input refinement (§5.2 post-processing): reuse existing
        // implementation logic inside the cloned patch. Under level-driven
        // selection the merge is timing-aware. It is a pure optimisation,
        // so a spent budget skips it and the run returns promptly.
        if !budget.is_exhausted() {
            let mut tb = self.telemetry.buffer(0);
            let span = tb.start();
            budget.fault_span(SpanPoint::RefinePatch)?;
            self.refine_patch(&mut patched, &patch)?;
            let rewires = patch.rewires().len() as u64;
            tb.end_with(span, "refine_patch", "rectify", || {
                vec![("rewires", ArgValue::U64(rewires))]
            });
            trace.extend(tb.into_spans());
        }
        patched.sweep();
        let stats = patch.stats(&patched);
        rectify.cache_verify_rejects += replay_rejects;
        if let Some(session) = cache.as_mut() {
            session.record_run(&committed, &rectify);
            // A commit failure loses warm-start data for future runs, never
            // this run's result.
            let _ = session.commit();
            rectify.cache_misses = session.misses;
            // `+=`: the checkpoint store's counters are already folded in.
            rectify.cache_corrupt_segments += session.corrupt_segments();
            rectify.cache_io_errors += session.io_errors();
            rectify.cache_retries += session.retries();
        }
        publish_run_counters(&self.telemetry, &rectify, budget.faults_fired());
        Ok(EcoResult {
            stats,
            rectify,
            runtime: start.elapsed(),
            patched,
            patch,
            trace,
        })
    }

    /// The patch-input refinement of §5.2 post-processing, seeded from the
    /// run seed and timing-aware under level-driven selection. The cold run
    /// and [`Session::replay_run`] both call it, so a cache replay reproduces
    /// the cold run's patch byte for byte (DESIGN.md §11).
    fn refine_patch(&self, patched: &mut Circuit, patch: &Patch) -> Result<usize, NetlistError> {
        let model = eco_timing::DelayModel::default();
        refine_patch_inputs_timed(
            patched,
            patch,
            VALIDATION_BUDGET,
            self.options.seed ^ 0x9e3779b97f4a7c15,
            self.options.level_driven.then_some(&model),
        )
    }

    /// Attempts to reproduce a finished run from its cache record: applies
    /// the committed rewire groups in order, reruns the deterministic
    /// post-processing, and accepts only when a full equivalence check
    /// passes. By construction this replay is byte-identical to the cold
    /// run that recorded it (`Patch::apply` is the merge phase's only
    /// circuit mutation and the post-processing is seeded). Returns `None`
    /// on any mismatch — apply error, damaged verification, budget-unknown
    /// verdicts — and the caller falls back to the cold path.
    fn replay_run(
        &self,
        base: &Circuit,
        spec: &Circuit,
        record: &RunRecord,
        budget: &Budget,
        start: Instant,
        session: &mut CacheSession,
    ) -> Option<EcoResult> {
        let mut patched = base.clone();
        let mut patch = Patch::new(patched.num_nodes());
        let mut shared_clones: HashMap<NetId, NetId> = HashMap::new();
        for group in &record.groups {
            patch
                .apply(&mut patched, spec, group, &mut shared_clones)
                .ok()?;
        }
        patched.sweep();
        if !budget.is_exhausted() {
            self.refine_patch(&mut patched, &patch).ok()?;
        }
        patched.sweep();
        let corr = Correspondence::build(&patched, spec).ok()?;
        let verdicts = classify_outputs(
            &patched,
            spec,
            &corr,
            Some(VALIDATION_BUDGET * 10),
            Some(budget),
        )
        .ok()?;
        if !verdicts
            .iter()
            .all(|v| matches!(v, Equivalence::Equivalent))
        {
            return None;
        }
        let rectify = RectifyStats {
            outputs_total: record.outputs_total,
            outputs_failing: record.outputs_failing,
            rewire_rectified: record.rewire_rectified,
            fallbacks: record.fallbacks,
            cache_hits: 1,
            cache_misses: session.misses,
            cache_corrupt_segments: session.corrupt_segments(),
            cache_io_errors: session.io_errors(),
            cache_retries: session.retries(),
            ..Default::default()
        };
        publish_run_counters(&self.telemetry, &rectify, budget.faults_fired());
        let stats = patch.stats(&patched);
        Some(EcoResult {
            stats,
            rectify,
            runtime: start.elapsed(),
            patched,
            patch,
            trace: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::verify_rectification;
    use eco_netlist::GateKind;
    use std::sync::Mutex;

    fn and_or_pair() -> (Circuit, Circuit) {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sg = s.add_gate(GateKind::Or, &[sa, sb]).unwrap();
        s.add_output("y", sg);
        (c, s)
    }

    #[test]
    fn session_runs_and_reports_progress() {
        let (c, s) = and_or_pair();
        let events: Arc<Mutex<usize>> = Arc::default();
        let sink = Arc::clone(&events);
        let session =
            Session::new(EcoOptions::with_seed(3)).on_progress(move |_| *sink.lock().unwrap() += 1);
        let result = session.run(&c, &s).unwrap();
        assert!(verify_rectification(&result.patched, &s).unwrap());
        assert!(*events.lock().unwrap() >= 2, "RunStarted + RunFinished");
        // Reusable: a second run works and reports again.
        let before = *events.lock().unwrap();
        session.run(&c, &s).unwrap();
        assert!(*events.lock().unwrap() > before);
    }

    #[test]
    fn cancelled_session_degrades_gracefully() {
        let (c, s) = and_or_pair();
        let token = CancelToken::new();
        token.cancel();
        let session = Session::new(EcoOptions::with_seed(3)).with_cancel(&token);
        let result = session.run(&c, &s).unwrap();
        assert!(!result.rectify.degradations.is_empty());
        assert!(verify_rectification(&result.patched, &s).unwrap());
    }

    #[test]
    fn session_telemetry_records_spans_and_metrics() {
        use eco_telemetry::{Counter, Histogram};
        let (c, s) = and_or_pair();
        let telemetry = Telemetry::enabled();
        let session = Session::new(EcoOptions::with_seed(3)).with_telemetry(&telemetry);
        let result = session.run(&c, &s).unwrap();
        assert!(verify_rectification(&result.patched, &s).unwrap());
        assert!(result.trace.iter().any(|sp| sp.name == "run"));
        assert!(result.trace.iter().any(|sp| sp.name == "search"));
        let snap = session.metrics_snapshot();
        let stats = &result.rectify;
        assert!(
            stats.validations > 0 && stats.point_sets_tried > 0,
            "{stats:?}"
        );
        for (counter, value) in [
            (Counter::RectifyValidations, stats.validations as u64),
            (Counter::SatConflicts, stats.sat.conflicts),
            (Counter::RectifyPointSets, stats.point_sets_tried as u64),
            (Counter::RectifyChoices, stats.choices_tried as u64),
            // No cache: every validation slot went to a screen-passed
            // candidate.
            (Counter::PrefilterPassed, stats.validations as u64),
        ] {
            assert_eq!(snap.counter(counter), value, "{}", counter.name());
        }
        assert_eq!(snap.histogram_count(Histogram::SearchMicros), 1);
        // The search builds no BDD: every `bdd.*` name the registry keeps
        // reads 0.
        let bdd: Vec<(&str, u64)> = snap
            .counters()
            .chain(snap.gauges())
            .filter(|(name, _)| name.starts_with("bdd."))
            .collect();
        assert_eq!(bdd.len(), 7, "{bdd:?}");
        assert!(bdd.iter().all(|&(_, v)| v == 0), "{bdd:?}");
        // Without telemetry the same run records nothing and costs nothing.
        let bare = Session::new(EcoOptions::with_seed(3)).run(&c, &s).unwrap();
        assert!(bare.trace.is_empty());
        assert!(Session::new(EcoOptions::with_seed(3))
            .metrics_snapshot()
            .is_empty());
    }

    /// The engine is bit-deterministic across worker counts: every search
    /// runs a deterministic sequence against the pristine base, so the
    /// patch, the normalized stats and trace, and every counter are
    /// independent of `jobs`, and the screen's accounting reconciles.
    #[test]
    fn patch_trace_and_counters_match_across_jobs() {
        use eco_telemetry::export::spans_jsonl;
        use eco_telemetry::Counter;
        use eco_workload::{build_case, CaseParams, RevisionKind};

        let case = build_case(&CaseParams {
            id: 9200,
            name: "trace-determinism",
            seed: 11,
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
        });
        let run = |jobs: usize| {
            let telemetry = Telemetry::enabled();
            let options = EcoOptions::builder().seed(11 ^ 0x7E1E).jobs(jobs).build();
            let session = Session::new(options).with_telemetry(&telemetry);
            let result = session
                .run(&case.implementation, &case.spec)
                .expect("rectification succeeds");
            let snap = session.metrics_snapshot();
            let metrics: Vec<(&'static str, u64)> = Counter::ALL
                .iter()
                .map(|&c| (c.name(), snap.counter(c)))
                .collect();
            (
                result.patch.rewires().to_vec(),
                eco_netlist::write_blif(&result.patched),
                result.rectify.normalized(),
                spans_jsonl(&result.trace, true),
                metrics,
            )
        };
        let (p1, b1, s1, t1, m1) = run(1);
        let (p4, b4, s4, t4, m4) = run(4);
        assert_eq!(p1, p4, "patch must be identical across worker counts");
        assert_eq!(
            b1, b4,
            "patched netlist must be identical across worker counts"
        );
        assert_eq!(s1, s4, "normalized stats must match across worker counts");
        assert_eq!(t1, t4, "normalized trace must match across worker counts");
        assert_eq!(m1, m4, "counters must match across worker counts");
        let counter = |name: &str| {
            m1.iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
        };
        // Screen accounting: every examined candidate is screened or passed,
        // and without a cache each validation slot went to a passed candidate.
        assert!(
            counter("prefilter.screened") + counter("prefilter.passed")
                <= counter("rectify.choices"),
            "screen verdicts cannot exceed choices examined"
        );
        assert_eq!(
            counter("prefilter.passed"),
            counter("rectify.validations"),
            "screened candidates must not consume validation slots"
        );
    }
}
