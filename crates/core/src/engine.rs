//! The `Syseco` engine facade.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use eco_netlist::{Circuit, NetId, NetlistError};
use eco_telemetry::{ArgValue, Counter, SpanRecord, Telemetry};

use crate::budget::Budget;
use crate::checkpoint::CheckpointSession;
use crate::correspond::Correspondence;
use crate::error_domain::{classify_outputs, Equivalence};
use crate::fault::SpanPoint;
use crate::memo::{CacheSession, RunRecord};
use crate::options::EcoOptions;
use crate::patch::{refine_patch_inputs_timed, Patch, PatchStats};
use crate::progress::ProgressCallback;
use crate::rectify::{rewire_rectify_with, RectifyStats, VALIDATION_BUDGET};
use crate::schedule::WorkerPool;
use crate::validate::apply_rewires;
use crate::EcoError;

/// Result of a rectification run.
#[derive(Debug)]
pub struct EcoResult {
    /// The rectified implementation.
    pub patched: Circuit,
    /// The applied patch (rewires and cloned logic).
    pub patch: Patch,
    /// Table-2 style patch attributes.
    pub stats: PatchStats,
    /// Search statistics.
    pub rectify: RectifyStats,
    /// Wall-clock time of the run.
    pub runtime: Duration,
    /// Structured trace spans of the run, in deterministic merge-slot
    /// order. Empty unless the run was given an enabled
    /// [`Telemetry`] (see [`Session::with_telemetry`](crate::Session::with_telemetry)).
    pub trace: Vec<SpanRecord>,
}

/// The symbolic-sampling ECO engine of the paper.
///
/// # Example
///
/// ```
/// use eco_netlist::{Circuit, GateKind};
/// use syseco::{EcoOptions, Syseco};
///
/// # fn main() -> Result<(), syseco::EcoError> {
/// // Implementation computes AND; the revised specification wants OR.
/// let mut c = Circuit::new("impl");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.add_gate(GateKind::And, &[a, b])?;
/// c.add_output("y", g);
/// let mut s = Circuit::new("spec");
/// let a = s.add_input("a");
/// let b = s.add_input("b");
/// let g = s.add_gate(GateKind::Or, &[a, b])?;
/// s.add_output("y", g);
///
/// let engine = Syseco::new(EcoOptions::builder().num_samples(64).jobs(1).build());
/// let result = engine.rectify(&c, &s)?;
/// assert!(syseco::verify_rectification(&result.patched, &s)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Syseco {
    options: EcoOptions,
}

impl Syseco {
    /// Creates an engine with the given options.
    pub fn new(options: EcoOptions) -> Self {
        Syseco { options }
    }

    /// The engine's options.
    pub fn options(&self) -> &EcoOptions {
        &self.options
    }

    /// Rectifies `implementation` against the revised specification `spec`,
    /// returning the patched circuit and the patch.
    ///
    /// Specification inputs absent from the implementation are added as new
    /// primary inputs; specification-only outputs are added as new ports
    /// (initially constant) and rectified like any failing output.
    ///
    /// The run is governed by [`EcoOptions::timeout`]. A
    /// [`Session`](crate::Session) adds an explicit [`Budget`], a
    /// cancellation token, a progress observer, telemetry and batches.
    ///
    /// # Errors
    ///
    /// [`EcoError::PortMismatch`] when an implementation output has no
    /// specification counterpart, and [`EcoError`] wrappers for malformed
    /// circuits.
    pub fn rectify(&self, implementation: &Circuit, spec: &Circuit) -> Result<EcoResult, EcoError> {
        let pool = WorkerPool::new(self.options.effective_jobs());
        self.rectify_with(
            implementation,
            spec,
            &self.default_budget(),
            None,
            &pool,
            &Telemetry::disabled(),
        )
    }

    /// A budget derived from the configured timeout.
    pub(crate) fn default_budget(&self) -> Budget {
        match self.options.timeout {
            Some(t) => Budget::with_deadline(t),
            None => Budget::unlimited(),
        }
    }

    /// The full engine flow with an explicit observer, worker pool, and
    /// telemetry sink — the internal entry shared by [`Syseco::rectify`]
    /// and [`Session`](crate::Session).
    pub(crate) fn rectify_with(
        &self,
        implementation: &Circuit,
        spec: &Circuit,
        budget: &Budget,
        observer: Option<&ProgressCallback>,
        pool: &WorkerPool,
        telemetry: &Telemetry,
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
                match self.replay_run(&patched, spec, &record, budget, telemetry, start, session) {
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
            &mut patched,
            spec,
            &self.options,
            budget,
            observer,
            pool,
            telemetry,
            cache.as_mut(),
            checkpoint.as_ref(),
        )?;
        // Patch-input refinement (§5.2 post-processing): reuse existing
        // implementation logic inside the cloned patch. Under level-driven
        // selection the merge is timing-aware. It is a pure optimisation,
        // so a spent budget skips it and the run returns promptly.
        if !budget.is_exhausted() {
            let mut tb = telemetry.buffer(0);
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
            let shard = telemetry.shard();
            if shard.is_enabled() {
                shard.add(Counter::CacheMisses, session.misses);
                shard.add(Counter::CacheVerifyRejects, replay_rejects);
            }
        }
        let shard = telemetry.shard();
        if shard.is_enabled() {
            shard.add(
                Counter::CacheCorruptSegments,
                rectify.cache_corrupt_segments,
            );
            shard.add(Counter::CacheIoErrors, rectify.cache_io_errors);
            shard.add(Counter::CacheRetries, rectify.cache_retries);
            shard.add(Counter::FaultInjections, budget.faults_fired());
        }
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
    /// and [`Syseco::replay_run`] both call it, so a cache replay reproduces
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
    /// run that recorded it (`apply_rewires` is the merge phase's only
    /// circuit mutation and the post-processing is seeded). Returns `None`
    /// on any mismatch — apply error, damaged verification, budget-unknown
    /// verdicts — and the caller falls back to the cold path.
    #[allow(clippy::too_many_arguments)]
    fn replay_run(
        &self,
        base: &Circuit,
        spec: &Circuit,
        record: &RunRecord,
        budget: &Budget,
        telemetry: &Telemetry,
        start: Instant,
        session: &mut CacheSession,
    ) -> Option<EcoResult> {
        let mut patched = base.clone();
        let mut patch = Patch::new(patched.num_nodes());
        let mut shared_clones: HashMap<NetId, NetId> = HashMap::new();
        for group in &record.groups {
            let (ops, cloned) =
                apply_rewires(&mut patched, spec, group, &mut shared_clones).ok()?;
            patch.record_cloned(cloned);
            for op in ops {
                patch.record_rewire(op);
            }
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
        let shard = telemetry.shard();
        if shard.is_enabled() {
            shard.add(Counter::CacheHits, 1);
            shard.add(Counter::CacheMisses, session.misses);
            shard.add(Counter::CacheCorruptSegments, session.corrupt_segments());
            shard.add(Counter::CacheIoErrors, session.io_errors());
            shard.add(Counter::CacheRetries, session.retries());
        }
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

/// Gives every unnamed (empty-labelled) specification input a stable
/// generated name `__pi<position>`, so it cannot silently alias another port
/// during normalization. Returns the renamed clone, or `None` when every
/// input already has a proper name.
///
/// # Errors
///
/// [`EcoError::PortMismatch`] when two specification inputs share a
/// (non-empty) name.
pub(crate) fn name_spec_inputs(spec: &Circuit) -> Result<Option<Circuit>, EcoError> {
    let mut taken: std::collections::HashSet<String> = std::collections::HashSet::new();
    // Existing names are claimed first so generated ones cannot collide.
    for &id in spec.inputs() {
        let name = spec.node(id).name().unwrap_or("");
        if name.is_empty() {
            continue;
        }
        if !taken.insert(name.to_string()) {
            return Err(EcoError::PortMismatch(format!(
                "specification has duplicate input name {name:?}"
            )));
        }
    }
    let mut renames: Vec<(usize, String)> = Vec::new();
    for (pos, &id) in spec.inputs().iter().enumerate() {
        if !spec.node(id).name().unwrap_or("").is_empty() {
            continue;
        }
        let mut label = format!("__pi{pos}");
        while !taken.insert(label.clone()) {
            label.push('_');
        }
        renames.push((pos, label));
    }
    if renames.is_empty() {
        return Ok(None);
    }
    let mut named = spec.clone();
    for (pos, label) in renames {
        named.set_input_name(pos, label)?;
    }
    Ok(Some(named))
}

/// Adds spec-only inputs and outputs to the implementation so the port
/// correspondence becomes total. Call [`name_spec_inputs`] first: unnamed
/// spec inputs would otherwise all map to the empty-string label.
///
/// # Errors
///
/// [`EcoError::PortMismatch`] when the specification declares a duplicate
/// input or output name.
pub(crate) fn normalize_ports(
    implementation: &mut Circuit,
    spec: &Circuit,
) -> Result<(), EcoError> {
    let mut seen_in = std::collections::HashSet::new();
    for &id in spec.inputs() {
        let label = spec.node(id).name().unwrap_or("").to_string();
        if !seen_in.insert(label.clone()) {
            return Err(EcoError::PortMismatch(format!(
                "specification has duplicate input name {label:?}"
            )));
        }
        if implementation.input_by_name(&label).is_none() {
            implementation.add_input(label);
        }
    }
    let mut seen_out = std::collections::HashSet::new();
    for port in spec.outputs() {
        if !seen_out.insert(port.name().to_string()) {
            return Err(EcoError::PortMismatch(format!(
                "specification has duplicate output name {:?}",
                port.name()
            )));
        }
        if implementation.output_by_name(port.name()).is_none() {
            let k = implementation.constant(false);
            implementation.add_output(port.name(), k);
        }
    }
    Ok(())
}

/// Verifies full behavioural equivalence of a patched implementation
/// against the specification (unbudgeted SAT per output pair).
///
/// # Errors
///
/// [`EcoError`] on port mismatches or malformed circuits.
pub fn verify_rectification(patched: &Circuit, spec: &Circuit) -> Result<bool, EcoError> {
    let corr = Correspondence::build(patched, spec)?;
    let verdicts = classify_outputs(patched, spec, &corr, None, None)?;
    Ok(verdicts
        .iter()
        .all(|v| matches!(v, Equivalence::Equivalent)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::GateKind;

    #[test]
    fn normalize_adds_missing_ports() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b_new");
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        s.add_output("y", g);
        s.add_output("extra", sb);
        normalize_ports(&mut c, &s).unwrap();
        assert!(c.input_by_name("b_new").is_some());
        assert!(c.output_by_name("extra").is_some());
        assert!(Correspondence::build(&c, &s).is_ok());
    }

    #[test]
    fn unnamed_spec_inputs_get_stable_generated_names() {
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input(""); // unnamed
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        s.add_output("y", g);
        let named = name_spec_inputs(&s).unwrap().expect("rename required");
        assert_eq!(named.node(named.inputs()[1]).name(), Some("__pi1"));
        // Deterministic: running it again on the renamed spec is a no-op.
        assert!(name_spec_inputs(&named).unwrap().is_none());
        // The generated name flows into normalization without collisions.
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        normalize_ports(&mut c, &named).unwrap();
        assert!(c.input_by_name("__pi1").is_some());
        assert!(c.check_well_formed().is_ok());
    }

    #[test]
    fn generated_input_names_avoid_existing_labels() {
        let mut s = Circuit::new("spec");
        s.add_input("__pi1"); // occupies the name position 1 would get
        let sb = s.add_input("");
        s.add_output("y", sb);
        let named = name_spec_inputs(&s).unwrap().expect("rename required");
        assert_eq!(named.node(named.inputs()[1]).name(), Some("__pi1_"));
        assert!(named.check_well_formed().is_ok());
    }

    #[test]
    fn duplicate_spec_output_names_are_rejected() {
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        s.add_output("y", sa);
        s.add_output("y", sa);
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        assert!(matches!(
            normalize_ports(&mut c, &s),
            Err(EcoError::PortMismatch(_))
        ));
    }

    #[test]
    fn engine_rectifies_with_new_ports() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b_new");
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        s.add_output("y", g);
        let engine = Syseco::new(EcoOptions::with_seed(2));
        let result = engine.rectify(&c, &s).unwrap();
        assert!(verify_rectification(&result.patched, &s).unwrap());
    }

    #[test]
    fn verify_detects_wrong_circuit() {
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
        assert!(!verify_rectification(&c, &s).unwrap());
        assert!(verify_rectification(&c, &c.clone()).unwrap());
    }
}
