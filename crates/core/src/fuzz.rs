//! Pipeline-level differential fuzzing.
//!
//! Re-exports the netlist-level machinery of the [`eco-fuzz`](eco_fuzz)
//! crate (scenario generation, the simulation/SAT/BDD oracles, the
//! shrinker, and the `.eco-repro` format) and layers the checks only this
//! crate can perform on top: full [`Session`] rectification at one and four
//! workers with byte-identical patched netlists, patch validity against
//! the spec, and cold/warm replay through the persistent cache. The
//! [`FuzzRunner`] drives all of it from a single seed; the `syseco-fuzz`
//! binary is a thin CLI over this module. See DESIGN.md §12.

use std::path::{Path, PathBuf};

use eco_netlist::{write_blif, Circuit};

pub use eco_fuzz::*;

use crate::{verify_rectification, EcoOptions, Session};

/// Configuration of a [`FuzzRunner`].
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Scenario size and mutation ranges.
    pub scenario: ScenarioConfig,
    /// Run the cache cold/warm replay oracle every `n`-th iteration
    /// (`0` disables it). Cache checks touch the filesystem, so they are
    /// sampled rather than run on every case.
    pub cache_every: u64,
    /// Predicate-evaluation budget for shrinking a failure.
    pub shrink_budget: usize,
    /// Sampling-domain size handed to the engine (kept small: fuzz
    /// scenarios are tiny and the engine rounds up internally).
    pub num_samples: usize,
    /// Directory for the cache oracle's scratch stores; defaults to the
    /// system temp directory.
    pub scratch_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            scenario: ScenarioConfig::default(),
            cache_every: 25,
            shrink_budget: 400,
            num_samples: 32,
            scratch_dir: None,
        }
    }
}

/// One confirmed failure: where it happened, what fired, and the shrunk
/// replayable pair.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Iteration index within the run.
    pub iteration: u64,
    /// Scenario seed (replayable via [`generate`]).
    pub seed: u64,
    /// Every disagreement the conformance check reported.
    pub disagreements: Vec<Disagreement>,
    /// The shrunk pair plus metadata, ready for [`write_repro`].
    pub repro: Repro,
}

/// Outcome of a [`FuzzRunner::run`].
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iterations: u64,
    /// Iterations on which the cache oracle also ran.
    pub cache_checked: u64,
    /// All confirmed failures, in iteration order.
    pub failures: Vec<FuzzFailure>,
}

/// SplitMix64, used to derive independent per-iteration scenario seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scenario seed of iteration `i` of a run seeded with `seed`.
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i))
}

fn engine_options(seed: u64, num_samples: usize, jobs: usize) -> EcoOptions {
    EcoOptions::builder()
        .seed(seed)
        .num_samples(num_samples)
        .jobs(jobs)
        .build()
}

fn rectify_blif(
    implementation: &Circuit,
    spec: &Circuit,
    options: EcoOptions,
    label: &str,
    out: &mut Vec<Disagreement>,
) -> Option<String> {
    match Session::new(options).run(implementation, spec) {
        Ok(result) => {
            match verify_rectification(&result.patched, spec) {
                Ok(true) => {}
                Ok(false) => out.push(Disagreement {
                    check: format!("pipeline:patch-invalid:{label}"),
                    output: None,
                    detail: "patched implementation is not equivalent to the spec".into(),
                }),
                Err(e) => out.push(Disagreement {
                    check: format!("pipeline:verify-error:{label}"),
                    output: None,
                    detail: e.to_string(),
                }),
            }
            Some(write_blif(&result.patched))
        }
        Err(e) => {
            out.push(Disagreement {
                check: format!("pipeline:rectify-error:{label}"),
                output: None,
                detail: e.to_string(),
            });
            None
        }
    }
}

/// Runs the engine-level conformance checks on one pair.
///
/// Performed checks: rectify at `jobs=1` and `jobs=4` both produce valid
/// patches and byte-identical patched netlists; with `cache_scratch` set,
/// a cold and a warm run through a fresh cache store reproduce the same
/// bytes again. Netlist-level oracle agreement is *not* included — combine
/// with [`check_conformance`] (as [`check_case`] does) for the full
/// matrix.
pub fn check_pipeline(
    implementation: &Circuit,
    spec: &Circuit,
    seed: u64,
    num_samples: usize,
    cache_scratch: Option<&Path>,
) -> Vec<Disagreement> {
    let mut out = Vec::new();
    let b1 = rectify_blif(
        implementation,
        spec,
        engine_options(seed, num_samples, 1),
        "jobs1",
        &mut out,
    );
    let b4 = rectify_blif(
        implementation,
        spec,
        engine_options(seed, num_samples, 4),
        "jobs4",
        &mut out,
    );
    if let (Some(b1), Some(b4)) = (&b1, &b4) {
        if b1 != b4 {
            out.push(Disagreement {
                check: "pipeline:jobs-determinism".into(),
                output: None,
                detail: "patched netlists differ between jobs=1 and jobs=4".into(),
            });
        }
    }
    if let Some(dir) = cache_scratch {
        let cache_run = |label: &str, out: &mut Vec<Disagreement>| {
            let options = EcoOptions::builder()
                .seed(seed)
                .num_samples(num_samples)
                .jobs(1)
                .cache_dir(dir.to_path_buf())
                .build();
            rectify_blif(implementation, spec, options, label, out)
        };
        let cold = cache_run("cache-cold", &mut out);
        let warm = cache_run("cache-warm", &mut out);
        for (label, cached) in [("cold", &cold), ("warm", &warm)] {
            if let (Some(plain), Some(cached)) = (&b1, cached) {
                if plain != cached {
                    out.push(Disagreement {
                        check: format!("pipeline:cache-replay-{label}"),
                        output: None,
                        detail: format!(
                            "{label} cached run produced different bytes than the uncached run"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// The full conformance matrix on one pair: cross-oracle agreement plus
/// the pipeline checks of [`check_pipeline`].
///
/// # Errors
///
/// [`FuzzError`] for infrastructure failures (ill-formed or
/// port-incompatible pairs); actual conformance violations are returned
/// as [`Disagreement`]s, not errors.
pub fn check_case(
    implementation: &Circuit,
    spec: &Circuit,
    seed: u64,
    num_samples: usize,
    cache_scratch: Option<&Path>,
) -> Result<Vec<Disagreement>, FuzzError> {
    let mut out = check_conformance(implementation, spec, seed)?;
    out.extend(check_pipeline(
        implementation,
        spec,
        seed,
        num_samples,
        cache_scratch,
    ));
    Ok(out)
}

/// Deterministic seed-driven fuzzing loop over generated scenarios.
#[derive(Debug, Clone, Default)]
pub struct FuzzRunner {
    /// Knobs of the loop.
    pub config: FuzzConfig,
}

impl FuzzRunner {
    /// Creates a runner with the given configuration.
    pub fn new(config: FuzzConfig) -> Self {
        FuzzRunner { config }
    }

    fn scratch_base(&self) -> PathBuf {
        self.config
            .scratch_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir)
    }

    /// Runs `iters` iterations derived from `seed`, invoking `progress`
    /// after each iteration with `(iteration, failures_so_far)`.
    ///
    /// Fully deterministic for a fixed `(seed, iters, config)`: the same
    /// scenarios are generated, the same checks run (the cache oracle on
    /// every [`FuzzConfig::cache_every`]-th iteration), and any failure
    /// shrinks to the same repro.
    ///
    /// # Errors
    ///
    /// Propagates infrastructure [`FuzzError`]s (scenario generation or
    /// oracle plumbing); conformance violations are collected into the
    /// report instead.
    pub fn run(
        &self,
        seed: u64,
        iters: u64,
        mut progress: impl FnMut(u64, usize),
    ) -> Result<FuzzReport, FuzzError> {
        let mut report = FuzzReport::default();
        for i in 0..iters {
            let scenario_seed = iteration_seed(seed, i);
            let scenario = generate(scenario_seed, &self.config.scenario)?;
            let with_cache = self.config.cache_every != 0 && i % self.config.cache_every == 0;
            let scratch = if with_cache {
                let dir = self.scratch_base().join(format!(
                    "syseco-fuzz-{}-{scenario_seed:016x}",
                    std::process::id()
                ));
                Some(dir)
            } else {
                None
            };
            if with_cache {
                report.cache_checked += 1;
            }
            let disagreements = check_case(
                &scenario.implementation,
                &scenario.spec,
                scenario_seed,
                self.config.num_samples,
                scratch.as_deref(),
            )?;
            if let Some(dir) = &scratch {
                let _ = std::fs::remove_dir_all(dir);
            }
            if !disagreements.is_empty() {
                report
                    .failures
                    .push(self.confirm_failure(i, &scenario, disagreements));
            }
            report.iterations += 1;
            progress(i + 1, report.failures.len());
        }
        Ok(report)
    }

    /// Shrinks a failing scenario and packages it as a [`FuzzFailure`].
    ///
    /// The shrink predicate re-runs the cheap checks only (oracles and the
    /// uncached pipeline); a failure that only the cache oracle can see is
    /// still recorded, just with the unshrunk pair.
    fn confirm_failure(
        &self,
        iteration: u64,
        scenario: &Scenario,
        disagreements: Vec<Disagreement>,
    ) -> FuzzFailure {
        let seed = scenario.seed;
        let num_samples = self.config.num_samples;
        let outcome = shrink_pair(
            &scenario.implementation,
            &scenario.spec,
            |i, s| {
                check_case(i, s, seed, num_samples, None)
                    .map(|d| !d.is_empty())
                    .unwrap_or(false)
            },
            self.config.shrink_budget,
        );
        let check = disagreements
            .first()
            .map(|d| d.check.clone())
            .unwrap_or_default();
        let detail = disagreements
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" | ");
        FuzzFailure {
            iteration,
            seed,
            disagreements,
            repro: Repro {
                seed,
                iteration,
                check,
                detail,
                fault: None,
                implementation: outcome.implementation,
                spec: outcome.spec,
            },
        }
    }

    /// Re-runs the conformance matrix on a parsed repro (the `replay` CLI
    /// verb). The cache oracle is included, using a scratch store.
    ///
    /// A repro that embeds a chaos fault plan (`fault` line) is instead
    /// replayed through `chaos::check_chaos_case` with the same plan
    /// re-armed; this requires the `fault-injection` feature.
    ///
    /// # Errors
    ///
    /// Propagates infrastructure [`FuzzError`]s, and rejects fault-bearing
    /// repros in builds without `fault-injection`.
    pub fn replay(&self, repro: &Repro) -> Result<Vec<Disagreement>, FuzzError> {
        if repro.fault.is_some() {
            #[cfg(any(test, feature = "fault-injection"))]
            {
                let runner = chaos::ChaosRunner::new(chaos::ChaosConfig {
                    scenario: self.config.scenario.clone(),
                    num_samples: self.config.num_samples,
                    scratch_dir: self.config.scratch_dir.clone(),
                });
                return Ok(runner.replay(repro).disagreements);
            }
            #[cfg(not(any(test, feature = "fault-injection")))]
            return Err(FuzzError::Repro {
                line: 0,
                reason: "repro embeds a chaos fault plan; rebuild with \
                         --features fault-injection to replay it"
                    .into(),
            });
        }
        let dir = self.scratch_base().join(format!(
            "syseco-fuzz-replay-{}-{:016x}",
            std::process::id(),
            repro.seed
        ));
        let result = check_case(
            &repro.implementation,
            &repro.spec,
            repro.seed,
            self.config.num_samples,
            Some(&dir),
        );
        let _ = std::fs::remove_dir_all(&dir);
        result
    }
}

/// Systematic chaos fault-sweeping (DESIGN.md §13).
///
/// For every fuzz-generated scenario, every registered fault point of
/// [`FaultPlan`](crate::FaultPlan) is armed in turn against a full
/// checkpointed rectification, and the robustness invariant is asserted:
/// **every run ends in a verified patch or a clean degradation report —
/// never corruption, a poisoned lock, or a silently-missing output.** A
/// simulated crash (`abort:*` faults) additionally asserts crash-safety:
/// resuming from the checkpoint directory without faults must succeed and
/// produce a patched netlist byte-identical to an undisturbed run's.
///
/// Only compiled under `cfg(test)` or the `fault-injection` feature; the
/// `syseco-fuzz chaos` verb is the CLI over [`chaos::ChaosRunner`].
#[cfg(any(test, feature = "fault-injection"))]
pub mod chaos {
    use std::collections::BTreeMap;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::{Path, PathBuf};

    use eco_netlist::{write_blif, Circuit};
    use eco_telemetry::{Counter, MetricsSnapshot};

    use super::{generate, iteration_seed, Disagreement, FuzzError, Repro, ScenarioConfig};
    use crate::fault::FaultPlan;
    use crate::{
        verify_rectification, Budget, EcoError, EcoOptions, EcoResult, RectifyStats, Session,
    };

    /// Configuration of a [`ChaosRunner`].
    #[derive(Debug, Clone)]
    pub struct ChaosConfig {
        /// Scenario size and mutation ranges.
        pub scenario: ScenarioConfig,
        /// Sampling-domain size handed to the engine.
        pub num_samples: usize,
        /// Directory for checkpoint scratch stores; defaults to the system
        /// temp directory.
        pub scratch_dir: Option<PathBuf>,
    }

    impl Default for ChaosConfig {
        fn default() -> Self {
            ChaosConfig {
                scenario: ScenarioConfig::default(),
                num_samples: 32,
                scratch_dir: None,
            }
        }
    }

    /// One invariant violation: the scenario, the fault plan that broke it,
    /// and a replayable repro embedding that plan.
    #[derive(Debug, Clone)]
    pub struct ChaosViolation {
        /// Scenario index within the sweep.
        pub iteration: u64,
        /// Scenario seed.
        pub seed: u64,
        /// The fault-plan spec that was armed.
        pub fault: String,
        /// Every invariant the case violated.
        pub disagreements: Vec<Disagreement>,
        /// Replayable repro (`fault` embedded, so `syseco-fuzz replay`
        /// re-arms the plan).
        pub repro: Repro,
    }

    /// Outcome of a [`ChaosRunner::run`].
    #[derive(Debug, Clone, Default)]
    pub struct ChaosReport {
        /// Scenarios generated.
        pub scenarios: u64,
        /// Individual (scenario × fault-point) runs executed.
        pub runs: u64,
        /// Runs that ended in a simulated crash and were resumed from their
        /// checkpoint directory.
        pub aborted: u64,
        /// Runs that completed with a non-empty degradation report.
        pub degraded: u64,
        /// How many times each fault point actually fired, by name. A point
        /// whose count stays zero was never reached by any scenario — grow
        /// the sweep rather than trusting it.
        pub coverage: BTreeMap<String, u64>,
        /// All invariant violations, in sweep order.
        pub violations: Vec<ChaosViolation>,
    }

    /// What one chaos case concluded, beyond pass/fail.
    #[derive(Debug, Clone, Default)]
    pub struct ChaosOutcome {
        /// Invariant violations (empty on a clean case).
        pub disagreements: Vec<Disagreement>,
        /// The faulted run ended in `EcoError::InjectedAbort` and resumed.
        pub aborted: bool,
        /// The faulted run completed with recorded degradations.
        pub degraded: bool,
        /// Faults that actually fired during the faulted run.
        pub faults_fired: u64,
    }

    fn engine_options(seed: u64, num_samples: usize, checkpoint_dir: Option<&Path>) -> EcoOptions {
        let builder = EcoOptions::builder()
            .seed(seed)
            .num_samples(num_samples)
            .jobs(1);
        match checkpoint_dir {
            // Faulted runs get both durable stores: the checkpoint under
            // `ckpt/`, a result cache under `cache/` — so the cache-*
            // fault points have I/O to hit. Both are re-verified reuse,
            // so neither changes the answer vs. the plain reference run.
            Some(dir) => builder
                .checkpoint_dir(dir.join("ckpt"))
                .cache_dir(dir.join("cache"))
                .build(),
            None => builder.build(),
        }
    }

    fn disagree(check: &str, detail: String) -> Disagreement {
        Disagreement {
            check: format!("chaos:{check}"),
            output: None,
            detail,
        }
    }

    /// The metrics registry must report every count a completed run's
    /// stats report, and no output may carry two degradation entries.
    fn check_counts(
        stats: &RectifyStats,
        snapshot: &MetricsSnapshot,
        label: &str,
        out: &mut Vec<Disagreement>,
    ) {
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
            let (name, published) = (counter.name(), snapshot.counter(counter));
            if published != value {
                let detail = format!(
                    "the {label} run published {name} = {published}, its stats report {value}"
                );
                out.push(disagree("counter-mismatch", detail));
            }
        }
        let mut seen = HashSet::new();
        if let Some(d) = stats.degradations.iter().find(|d| !seen.insert(&d.output)) {
            out.push(disagree(
                "duplicate-degradation",
                format!("the {label} run degraded output {} twice", d.output),
            ));
        }
    }

    /// Runs one engine pass under `budget`, catching panics that escape the
    /// engine (they must not — per-output panic isolation is part of the
    /// invariant) and verifying any returned patch and its published
    /// counts. Returns the patched netlist bytes on success.
    fn guarded_run(
        implementation: &Circuit,
        spec: &Circuit,
        options: &EcoOptions,
        budget: &Budget,
        label: &str,
        out: &mut Vec<Disagreement>,
    ) -> Result<Option<String>, EcoError> {
        let session = Session::new(options.clone()).with_telemetry(&crate::Telemetry::enabled());
        let run = catch_unwind(AssertUnwindSafe(|| {
            session.run_with_budget(implementation, spec, budget)
        }));
        let result: Result<EcoResult, EcoError> = match run {
            Ok(r) => r,
            Err(_) => {
                out.push(disagree(
                    "escaped-panic",
                    format!("a panic escaped the engine during the {label} run"),
                ));
                return Ok(None);
            }
        };
        match result {
            Ok(result) => {
                match verify_rectification(&result.patched, spec) {
                    Ok(true) => {}
                    Ok(false) => out.push(disagree(
                        "unverified-patch",
                        format!("the {label} run returned a patch that fails verification"),
                    )),
                    Err(e) => out.push(disagree(
                        "verify-error",
                        format!("verifying the {label} run's patch errored: {e}"),
                    )),
                }
                check_counts(&result.rectify, &session.metrics_snapshot(), label, out);
                Ok(Some(write_blif(&result.patched)))
            }
            Err(e) => Err(e),
        }
    }

    /// Runs the chaos invariant check for one `(pair, fault plan)` case.
    ///
    /// `scratch` hosts the case's checkpoint directory; it is created and
    /// cleaned up here.
    pub fn check_chaos_case(
        implementation: &Circuit,
        spec: &Circuit,
        seed: u64,
        num_samples: usize,
        fault: &str,
        scratch: &Path,
    ) -> ChaosOutcome {
        let mut outcome = ChaosOutcome::default();
        let plan = match FaultPlan::parse(fault) {
            Ok(plan) => plan,
            Err(e) => {
                outcome
                    .disagreements
                    .push(disagree("bad-plan", format!("{fault:?}: {e}")));
                return outcome;
            }
        };

        // Reference: no faults, no checkpointing. The scenario generator
        // only produces rectifiable pairs, so a reference failure is an
        // infrastructure problem, not a chaos finding.
        let reference = match guarded_run(
            implementation,
            spec,
            &engine_options(seed, num_samples, None),
            &Budget::unlimited(),
            "reference",
            &mut outcome.disagreements,
        ) {
            Ok(Some(blif)) => blif,
            Ok(None) => return outcome,
            Err(e) => {
                outcome
                    .disagreements
                    .push(disagree("reference-error", e.to_string()));
                return outcome;
            }
        };

        let ckpt = scratch.join(format!(
            "chaos-{seed:016x}-{}",
            fault.replace([':', '@', ','], "_")
        ));
        let _ = std::fs::remove_dir_all(&ckpt);

        // Faulted run: checkpointing on, the plan armed.
        let budget = Budget::unlimited().with_fault_plan(plan);
        let options = engine_options(seed, num_samples, Some(&ckpt));
        let faulted = guarded_run(
            implementation,
            spec,
            &options,
            &budget,
            "faulted",
            &mut outcome.disagreements,
        );
        outcome.faults_fired = budget.faults_fired();
        match faulted {
            Ok(Some(_)) => {
                // Completed despite the faults: the patch already verified
                // inside guarded_run; note whether it degraded cleanly.
                outcome.degraded = budget.degrade_reason().is_some();
            }
            Ok(None) => {} // an escaped panic was already recorded
            Err(EcoError::InjectedAbort) => {
                // Simulated crash. Resume without faults: the run must
                // complete, verify, and reproduce the reference bytes.
                outcome.aborted = true;
                match guarded_run(
                    implementation,
                    spec,
                    &options,
                    &Budget::unlimited(),
                    "resumed",
                    &mut outcome.disagreements,
                ) {
                    Ok(Some(resumed)) => {
                        if resumed != reference {
                            outcome.disagreements.push(disagree(
                                "resume-divergence",
                                "resumed run produced different bytes than the undisturbed run"
                                    .into(),
                            ));
                        }
                    }
                    Ok(None) => {}
                    Err(e) => outcome
                        .disagreements
                        .push(disagree("resume-error", e.to_string())),
                }
            }
            Err(e) => outcome.disagreements.push(disagree(
                "unexpected-error",
                format!("faulted run errored with {e} (only injected aborts may error)"),
            )),
        }
        let _ = std::fs::remove_dir_all(&ckpt);
        outcome
    }

    /// Sweeps every registered fault point over generated scenarios.
    #[derive(Debug, Clone, Default)]
    pub struct ChaosRunner {
        /// Knobs of the sweep.
        pub config: ChaosConfig,
    }

    impl ChaosRunner {
        /// Creates a runner with the given configuration.
        pub fn new(config: ChaosConfig) -> Self {
            ChaosRunner { config }
        }

        /// Runs `scenarios` generated scenarios × every registered fault
        /// point, invoking `progress` after each scenario with
        /// `(scenario, violations_so_far)`.
        ///
        /// Deterministic for a fixed `(seed, scenarios, config)` up to
        /// wall-clock-free behavior: the same scenarios, plans, and
        /// verdicts.
        ///
        /// # Errors
        ///
        /// Propagates scenario-generation [`FuzzError`]s; invariant
        /// violations are collected into the report instead.
        pub fn run(
            &self,
            seed: u64,
            scenarios: u64,
            mut progress: impl FnMut(u64, usize),
        ) -> Result<ChaosReport, FuzzError> {
            let scratch = self
                .config
                .scratch_dir
                .clone()
                .unwrap_or_else(std::env::temp_dir)
                .join(format!("syseco-chaos-{}", std::process::id()));
            let points = FaultPlan::point_names();
            let mut report = ChaosReport::default();
            for name in &points {
                report.coverage.insert(name.clone(), 0);
            }
            for i in 0..scenarios {
                let scenario_seed = iteration_seed(seed ^ 0xc4a05, i);
                let scenario = generate(scenario_seed, &self.config.scenario)?;
                for name in &points {
                    let fault = format!("{name}@1");
                    let outcome = check_chaos_case(
                        &scenario.implementation,
                        &scenario.spec,
                        scenario_seed,
                        self.config.num_samples,
                        &fault,
                        &scratch,
                    );
                    report.runs += 1;
                    report.aborted += u64::from(outcome.aborted);
                    report.degraded += u64::from(outcome.degraded);
                    if outcome.faults_fired > 0 {
                        *report
                            .coverage
                            .get_mut(name.as_str())
                            .expect("seeded above") += 1;
                    }
                    if !outcome.disagreements.is_empty() {
                        let detail = outcome
                            .disagreements
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(" | ");
                        let check = outcome
                            .disagreements
                            .first()
                            .map(|d| d.check.clone())
                            .unwrap_or_default();
                        report.violations.push(ChaosViolation {
                            iteration: i,
                            seed: scenario_seed,
                            fault: fault.clone(),
                            disagreements: outcome.disagreements,
                            repro: Repro {
                                seed: scenario_seed,
                                iteration: i,
                                check,
                                detail,
                                fault: Some(fault),
                                implementation: scenario.implementation.clone(),
                                spec: scenario.spec.clone(),
                            },
                        });
                    }
                }
                report.scenarios += 1;
                progress(i + 1, report.violations.len());
            }
            let _ = std::fs::remove_dir_all(&scratch);
            Ok(report)
        }

        /// Replays one chaos repro: re-runs the invariant check with the
        /// embedded fault plan (or no faults when the repro carries none).
        pub fn replay(&self, repro: &Repro) -> ChaosOutcome {
            let scratch = self
                .config
                .scratch_dir
                .clone()
                .unwrap_or_else(std::env::temp_dir)
                .join(format!("syseco-chaos-replay-{}", std::process::id()));
            let outcome = check_chaos_case(
                &repro.implementation,
                &repro.spec,
                repro.seed,
                self.config.num_samples,
                repro.fault.as_deref().unwrap_or(""),
                &scratch,
            );
            let _ = std::fs::remove_dir_all(&scratch);
            outcome
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::GateKind;

    #[test]
    fn iteration_seeds_are_spread() {
        let seeds: std::collections::HashSet<u64> =
            (0..100).map(|i| iteration_seed(1, i)).collect();
        assert_eq!(seeds.len(), 100);
        assert_ne!(iteration_seed(1, 0), iteration_seed(2, 0));
    }

    #[test]
    fn pipeline_check_is_clean_on_a_simple_pair() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        let mut s = Circuit::new("spec");
        let a = s.add_input("a");
        let b = s.add_input("b");
        let g = s.add_gate(GateKind::Or, &[a, b]).unwrap();
        s.add_output("y", g);
        let out = check_pipeline(&c, &s, 7, 32, None);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn short_run_is_deterministic_and_clean() {
        let runner = FuzzRunner::new(FuzzConfig {
            cache_every: 0,
            ..FuzzConfig::default()
        });
        let a = runner.run(5, 3, |_, _| {}).unwrap();
        let b = runner.run(5, 3, |_, _| {}).unwrap();
        assert_eq!(a.iterations, 3);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(b.failures.len(), a.failures.len());
    }

    #[test]
    fn chaos_sweep_holds_every_invariant_on_one_scenario() {
        let runner = chaos::ChaosRunner::new(chaos::ChaosConfig::default());
        let report = runner.run(11, 1, |_, _| {}).unwrap();
        assert_eq!(report.scenarios, 1);
        assert_eq!(
            report.runs,
            crate::FaultPlan::point_names().len() as u64,
            "one faulted run per registered point"
        );
        assert!(
            report.violations.is_empty(),
            "chaos invariant violations: {:#?}",
            report.violations
        );
        // Simulated crashes happened and were resumed.
        assert!(report.aborted > 0, "no abort point fired: {report:?}");
        // Points every run must pass through actually fired. Cache points
        // stay at zero here (the sweep runs without a result cache), and
        // late spans (e.g. verify) may not be reached on tiny scenarios.
        for point in ["abort:run", "abort:search", "search-panic", "cancel:search"] {
            assert!(
                report.coverage[point] > 0,
                "fault point {point} never fired: {:?}",
                report.coverage
            );
        }
    }

    #[test]
    fn chaos_replay_rearms_the_embedded_fault_plan() {
        let scenario = generate(23, &ScenarioConfig::default()).unwrap();
        let repro = Repro {
            seed: 23,
            iteration: 0,
            check: "chaos:resume-divergence".into(),
            detail: "synthetic".into(),
            fault: Some("abort:merge@1".into()),
            implementation: scenario.implementation,
            spec: scenario.spec,
        };
        let runner = FuzzRunner::new(FuzzConfig::default());
        // Crash at the merge span, then resume: the invariant must hold, so
        // a fault-bearing repro replays clean.
        let disagreements = runner.replay(&repro).unwrap();
        assert!(disagreements.is_empty(), "{disagreements:?}");
    }
}
