//! The end-to-end, per-layer benchmark harness.
//!
//! Each [`Workload`] is a closed loop: one case at a time, the next run
//! starting when the previous one returns. A run of the harness is one
//! workload in one mode:
//!
//! * **end to end** (`trace = false`): untraced [`Session::run`] passes
//!   over the workload's cases while the time budget allows, reporting
//!   [`END_TO_END`];
//! * **per layer** (`trace = true`): traced passes (spans and counters
//!   from the engine's own telemetry), untraced passes for the tracing
//!   overhead, and direct timed calls into layer functions, reporting
//!   [`PER_LAYER`].
//!
//! A *job* is a case under one engine seed. Every patch a run produces is
//! checked by [`check::verified`] and pinned by its digest; a later run of
//! the same job must reproduce it. Every time is measured through
//! [`clock::timed`], at the reference speed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eco_bdd::BddManager;
use eco_netlist::sim::simulate64;
use eco_netlist::{Circuit, GateKind};
use eco_telemetry::names;
use eco_telemetry::profile::Profile;
use eco_telemetry::{Counter, Gauge, MetricsSnapshot};
use eco_timing::{DelayModel, TimingReport};
use eco_workload::{build_case, CaseParams, EcoCase, RevisionKind};
use syseco::correspond::Correspondence;
use syseco::error_domain::classify_outputs;
use syseco::fuzz::iteration_seed;
use syseco::sampling::eval_all_bdd;
use syseco::{CacheMode, EcoOptions, EcoResult, PatchStats, Session, Telemetry};

use crate::check;
use crate::clock::{self, Sample};

/// End-to-end metrics, `(name, unit)`: what a user of the engine sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("case_geomean_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("patch_gates", "count"),
    ("patch_nets", "count"),
    ("patch_inputs", "count"),
    ("patch_outputs", "count"),
];

/// Engine phases whose self time is reported, in the profiler's order.
const PHASES: &[&str] = &[
    names::SPAN_DETECT,
    names::SPAN_SEARCH,
    names::SPAN_SAMPLES,
    names::SPAN_POINT_SETS,
    names::SPAN_CHOICES,
    names::SPAN_VALIDATE,
    names::SPAN_COMMIT,
    names::SPAN_VERIFY,
    names::SPAN_REFINE_PATCH,
];

/// Per-layer metrics, `(name, unit)`. A metric a workload does not
/// exercise reads 0: `parallel_speedup` and `layer.bdd_build_*` off
/// `parallel`, the cache metrics off `chain`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("detect.self_ms", "ms"),
    ("search.self_ms", "ms"),
    ("samples.self_ms", "ms"),
    ("point_sets.self_ms", "ms"),
    ("choices.self_ms", "ms"),
    ("validate.self_ms", "ms"),
    ("commit.self_ms", "ms"),
    ("verify.self_ms", "ms"),
    ("refine_patch.self_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.conflicts_per_validation", "ratio"),
    ("bdd.apply_ops", "count"),
    ("bdd.apply_hit_rate", "ratio"),
    ("bdd.quant_hit_rate", "ratio"),
    ("bdd.peak_nodes", "count"),
    ("bdd.gc_runs", "count"),
    ("bdd.reorders", "count"),
    ("rectify.validations", "count"),
    ("rectify.point_sets", "count"),
    ("rectify.choices", "count"),
    ("rectify.degradations", "count"),
    ("sampling.false_positive_rate", "ratio"),
    ("prefilter.screen_rate", "ratio"),
    ("cache.hit", "count"),
    ("cache.miss", "count"),
    ("cache.verify_reject", "count"),
    ("schedule.busy_frac", "ratio"),
    ("layer.detect_ms", "ms"),
    ("layer.verify_ms", "ms"),
    ("layer.sim_gate_evals_per_s", "1/s"),
    ("layer.bdd_build_ms", "ms"),
    ("layer.bdd_build_nodes", "count"),
    ("trace_overhead", "ratio"),
    ("parallel_speedup", "ratio"),
    ("warm_wall_s", "s"),
    ("cache_hit_frac", "ratio"),
    ("fallback_frac", "ratio"),
    ("min_slack_ps", "ps"),
];

/// `setup_s` generates the workload's cases at least this many times...
const SETUP_REPS: usize = 3;
/// ...and for at least this long, so millisecond setups get a stable median.
const SETUP_MIN: Duration = Duration::from_secs(1);
/// Minimum warm passes of the `chain` workload (each takes milliseconds).
const WARM_PASSES: usize = 30;
/// Minimum wall time of the direct `simulate64` measurement.
const SIM_MIN: Duration = Duration::from_millis(200);
/// Random 64-pattern blocks simulated per implementation.
const SIM_BLOCKS: u64 = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cases 1–11, default options, jobs 1: the paper's main table.
    Table2,
    /// Timing cases 12–15 with level-driven selection, jobs 1.
    Table3,
    /// The scaling case par16 under [`PARALLEL_SEEDS`] engine seeds at
    /// jobs 2 (per layer: plus a jobs-1 reference).
    Parallel,
    /// The revision chain 17–19 with a persistent cache: each pass runs
    /// cold from an empty directory, then warm on the records it wrote
    /// (per layer: plus at least 30 warm passes).
    Chain,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Table2,
        Workload::Table3,
        Workload::Parallel,
        Workload::Chain,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2",
            Workload::Table3 => "table3",
            Workload::Parallel => "parallel",
            Workload::Chain => "chain",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator parameters of the workload's cases.
    pub fn params(self) -> Vec<CaseParams> {
        match self {
            Workload::Table2 => eco_workload::table1_params(),
            Workload::Table3 => eco_workload::timing_params(),
            Workload::Parallel => vec![eco_workload::scaling_params()],
            Workload::Chain => eco_workload::chain_params(),
        }
    }

    /// Worker count of the timed runs.
    fn workers(self) -> usize {
        if self == Workload::Parallel {
            2
        } else {
            1
        }
    }

    /// The workload's jobs under benchmark seed `seed`: each case with
    /// each of its engine seeds. The chain's steps share the first step's
    /// engine seed, since the seed is part of every cache key.
    fn jobs(self, cases: &[EcoCase], seed: u64) -> Vec<Job<'_>> {
        let per_case = if self == Workload::Parallel {
            PARALLEL_SEEDS
        } else {
            1
        };
        cases
            .iter()
            .flat_map(|case| {
                let id = if self == Workload::Chain {
                    cases[0].id
                } else {
                    case.id
                };
                let first = engine_seed(seed, id);
                (0..per_case).map(move |j| Job {
                    case,
                    seed: if j == 0 {
                        first
                    } else {
                        iteration_seed(first, j)
                    },
                })
            })
            .collect()
    }

    /// An engine session for `job` at `workers` workers.
    fn session(self, job: &Job, workers: usize, cache: Option<&Path>) -> Session {
        let mut builder = EcoOptions::builder()
            .seed(job.seed)
            .jobs(workers)
            .level_driven(self == Workload::Table3);
        if let Some(dir) = cache {
            builder = builder.cache_dir(dir).cache_mode(CacheMode::ReadWrite);
        }
        Session::new(builder.build())
    }
}

/// Engine seeds par16 runs under in the `parallel` workload. Its time
/// under one seed moved by up to 60% between benchmark seeds; summing
/// over seeds averages the searches out, as summing over cases does for
/// `table2`. No more, so that the per-layer run's one mandatory round (a
/// traced and an untraced pass at jobs 2 and one at jobs 1, about 20 s)
/// fits in a 25 s budget.
pub const PARALLEL_SEEDS: u64 = 12;

/// The first engine seed of case `id` under benchmark seed `seed`: the
/// case id itself for seed 0, otherwise [`iteration_seed`]`(seed, id)`.
/// Further seeds of the case are `iteration_seed(first, j)`.
pub fn engine_seed(seed: u64, id: u32) -> u64 {
    if seed == 0 {
        u64::from(id)
    } else {
        iteration_seed(seed, u64::from(id))
    }
}

/// One engine input of a workload: a case and the engine seed it runs
/// under.
#[derive(Debug, Clone, Copy)]
struct Job<'a> {
    case: &'a EcoCase,
    seed: u64,
}

/// A case small enough for tests: rectifies in milliseconds.
pub fn tiny_params(id: u32) -> CaseParams {
    CaseParams {
        id,
        name: "tiny",
        seed: 7,
        input_words: 3,
        width: 3,
        logic_signals: 10,
        output_words: 3,
        revisions: vec![(0, RevisionKind::PolarityFlip)],
        heavy_optimization: true,
        aggressive_optimization: false,
    }
}

/// Settings of one harness run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Benchmark seed: picks the engine seeds and the simulation patterns.
    pub seed: u64,
    /// Time budget of the run, seconds from its start: after `reps`
    /// passes, another starts only while one as long as the last still
    /// fits. 0 runs exactly `reps` passes.
    pub seconds: f64,
    /// Minimum number of passes, whatever the budget.
    pub reps: usize,
    /// Per-layer mode (traced) instead of end-to-end mode.
    pub trace: bool,
    /// Parent directory of the `chain` workload's cache directory.
    pub scratch: PathBuf,
}

/// Summary of timed samples, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
    /// Slowest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Timing {
    fn of(samples: &[f64]) -> Timing {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = match n {
            0 => 0.0,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        };
        Timing {
            median,
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            n,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The samples behind a timed metric.
    pub timing: Option<Timing>,
}

/// One row of a report: a case under one engine seed.
#[derive(Debug, Clone)]
pub struct CaseRow {
    /// Case id.
    pub id: u32,
    /// Case name.
    pub name: String,
    /// Engine seed.
    pub seed: u64,
    /// Untraced run times at the reference speed (end-to-end mode).
    pub time: Option<Timing>,
    /// The same runs' wall times.
    pub raw_time: Option<Timing>,
    /// `chain` in end-to-end mode: run times of the replay on the pass's
    /// own cache records, at the reference speed.
    pub warm_time: Option<Timing>,
    /// Patch attributes.
    pub patch: PatchStats,
    /// FNV-1a of the patched circuit's BLIF.
    pub digest: u64,
    /// Whether the patch passed both correctness checks.
    pub verified: bool,
    /// Phase self times of the first traced run at the reference speed,
    /// ms (per-layer mode).
    pub phases: Vec<(String, f64)>,
    /// Counters of the first traced run (per-layer mode).
    pub counters: Vec<(&'static str, u64)>,
}

/// The outcome of one harness run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Whether this was the per-layer (traced) mode.
    pub trace: bool,
    /// Engine runs attempted.
    pub attempted: u64,
    /// Runs whose patch failed a correctness check, failed to reproduce
    /// its job's first patch, or returned an error.
    pub failed: u64,
    /// The declared metrics of the mode, in declaration order.
    pub metrics: Vec<Metric>,
    /// Wall time of the untraced runs, unscaled: Σ over jobs of the median
    /// (end-to-end mode) or the median untraced pass (per-layer mode).
    pub raw_wall_s: f64,
    /// One row per job.
    pub cases: Vec<CaseRow>,
}

impl Report {
    /// Whether every run produced a verified, reproducible patch.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed runs ÷ attempted runs.
    pub fn unverified_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One `name value unit` line per metric, then `raw_wall_s` and
    /// `unverified_frac`.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{} {} {}\n", m.name, num(m.value), m.unit));
        }
        out.push_str(&format!("raw_wall_s {} s\n", num(self.raw_wall_s)));
        out.push_str(&format!(
            "unverified_frac {} ratio\n",
            num(self.unverified_frac())
        ));
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// the metrics as `{"value", "unit"}` objects.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full report as a JSON document: metrics with their samples'
    /// n/min/max, and one row per job.
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let mut out = format!(
            "{{\n  \"workload\": \"{}\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \
             \"host_nproc\": {nproc},\n  \"correct\": {},\n  \"attempted\": {},\n  \
             \"failed\": {},\n  \"unverified_frac\": {},\n  \"raw_wall_s\": {},\n  \
             \"reference_kernel_s\": {},\n  \"metrics\": {{",
            self.workload.name(),
            if self.trace {
                "per_layer"
            } else {
                "end_to_end"
            },
            self.seed,
            self.correct(),
            self.attempted,
            self.failed,
            num(self.unverified_frac()),
            num(self.raw_wall_s),
            num(clock::REFERENCE_S),
        );
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.name,
                num(m.value),
                m.unit
            ));
            if let Some(t) = m.timing {
                out.push_str(&timing_fields(&t));
            }
            out.push('}');
        }
        out.push_str("\n  },\n  \"cases\": [");
        for (i, row) in self.cases.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"id\": {}, \"name\": \"{}\", \"engine_seed\": \"{}\", \"digest\": \"{:016x}\", \
                 \"verified\": {}, \"patch_inputs\": {}, \"patch_outputs\": {}, \"patch_gates\": {}, \
                 \"patch_nets\": {}",
                row.id,
                escape(&row.name),
                row.seed,
                row.digest,
                row.verified,
                row.patch.inputs,
                row.patch.outputs,
                row.patch.gates,
                row.patch.nets
            ));
            for (key, timing) in [
                ("time_s", row.time),
                ("raw_time_s", row.raw_time),
                ("warm_time_s", row.warm_time),
            ] {
                if let Some(t) = timing {
                    out.push_str(&format!(
                        ", \"{key}\": {{\"median\": {}{}}}",
                        num(t.median),
                        timing_fields(&t)
                    ));
                }
            }
            if !row.phases.is_empty() {
                let phases: Vec<String> = row
                    .phases
                    .iter()
                    .map(|(name, ms)| format!("\"{}\": {}", escape(name), num(*ms)))
                    .collect();
                out.push_str(&format!(", \"self_ms\": {{{}}}", phases.join(", ")));
            }
            if !row.counters.is_empty() {
                let counters: Vec<String> = row
                    .counters
                    .iter()
                    .map(|(name, v)| format!("\"{name}\": {v}"))
                    .collect();
                out.push_str(&format!(", \"counters\": {{{}}}", counters.join(", ")));
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn timing_fields(t: &Timing) -> String {
    format!(
        ", \"n\": {}, \"min\": {}, \"max\": {}",
        t.n,
        num(t.min),
        num(t.max)
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(samples: &[f64]) -> f64 {
    Timing::of(samples).median
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The time one harness run may take, counted from its start, so case
/// generation and verification spend it too.
struct Budget {
    start: Instant,
    limit: Duration,
    reps: usize,
}

impl Budget {
    fn new(cfg: &Config) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(cfg.seconds),
            reps: cfg.reps.max(1),
        }
    }

    /// Runs `pass` `reps` times, then again while another pass as long as
    /// the last one still fits in what is left of the budget.
    fn repeat(&self, mut pass: impl FnMut()) {
        let mut done = 0;
        loop {
            let t0 = Instant::now();
            pass();
            done += 1;
            if done >= self.reps && self.start.elapsed() + t0.elapsed() > self.limit {
                break;
            }
        }
    }
}

/// What the first run of each job produced; later runs must match it.
struct Outcome {
    digest: u64,
    verified: bool,
    stats: PatchStats,
}

/// Checks every run's patch: the first patch of a job is verified, later
/// ones must reproduce its digest.
struct Verifier {
    seed: u64,
    first: Vec<Option<Outcome>>,
    attempted: u64,
    failed: u64,
}

impl Verifier {
    fn new(seed: u64, jobs: usize) -> Verifier {
        Verifier {
            seed,
            first: (0..jobs).map(|_| None).collect(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs job `idx` under `session`, timing the call, and checks the
    /// patch. `None` when the engine returned an error.
    fn run(&mut self, idx: usize, job: &Job, session: &Session) -> Option<(Sample, EcoResult)> {
        self.attempted += 1;
        let (sample, result) = clock::timed(session.options().jobs, || {
            session.run(&job.case.implementation, &job.case.spec)
        });
        match result {
            Ok(result) => {
                self.check(idx, job, &result);
                Some((sample, result))
            }
            Err(e) => {
                eprintln!("case {} seed {}: engine error: {e}", job.case.id, job.seed);
                self.failed += 1;
                None
            }
        }
    }

    fn check(&mut self, idx: usize, job: &Job, result: &EcoResult) {
        let digest = check::patch_digest(&result.patched);
        let ok = match &self.first[idx] {
            Some(first) => {
                if first.digest != digest {
                    eprintln!(
                        "case {} seed {}: patch digest {digest:016x} differs from the first \
                         run's {:016x}",
                        job.case.id, job.seed, first.digest
                    );
                }
                first.verified && first.digest == digest
            }
            None => {
                let verified = check::verified(&result.patched, &job.case.spec, self.seed);
                if !verified {
                    eprintln!(
                        "case {} seed {}: patch FAILED verification",
                        job.case.id, job.seed
                    );
                }
                self.first[idx] = Some(Outcome {
                    digest,
                    verified,
                    stats: result.stats,
                });
                verified
            }
        };
        if !ok {
            self.failed += 1;
        }
    }
}

/// Generates the cases at least `reps` times and for at least `min`,
/// returning them and each generation's time at the reference speed.
fn build_cases(params: &[CaseParams], reps: usize, min: Duration) -> (Vec<EcoCase>, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut cases = Vec::new();
    while times.len() < reps || start.elapsed() < min {
        let (sample, built) = clock::timed(1, || params.iter().map(build_case).collect());
        cases = built;
        times.push(sample.norm);
    }
    (cases, times)
}

/// The chain's cache directory, removed when dropped.
struct CacheDir(Option<PathBuf>);

impl CacheDir {
    fn new(workload: Workload, cfg: &Config) -> CacheDir {
        CacheDir((workload == Workload::Chain).then(|| {
            cfg.scratch
                .join(format!("{}-{}", workload.name(), std::process::id()))
        }))
    }

    fn path(&self) -> Option<&Path> {
        self.0.as_deref()
    }

    /// Empties the directory so the next pass starts cold.
    fn clear(&self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        self.clear();
        // Also the scratch parent, unless something else still uses it.
        if let Some(parent) = self.0.as_deref().and_then(Path::parent) {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one workload in the mode `cfg.trace` selects.
///
/// `params` are the cases to generate, normally [`Workload::params`].
pub fn run(workload: Workload, params: &[CaseParams], cfg: &Config) -> Report {
    let budget = Budget::new(cfg);
    if cfg.trace {
        let (cases, _) = build_cases(params, 1, Duration::ZERO);
        per_layer(workload, &cases, cfg, &budget)
    } else {
        let (cases, setup) = build_cases(params, SETUP_REPS, SETUP_MIN);
        end_to_end(workload, &cases, &setup, cfg, &budget)
    }
}

fn end_to_end(
    workload: Workload,
    cases: &[EcoCase],
    setup: &[f64],
    cfg: &Config,
    budget: &Budget,
) -> Report {
    let cache = CacheDir::new(workload, cfg);
    let jobs = workload.jobs(cases, cfg.seed);
    let sessions: Vec<Session> = jobs
        .iter()
        .map(|job| workload.session(job, workload.workers(), cache.path()))
        .collect();
    let mut verifier = Verifier::new(cfg.seed, jobs.len());
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); jobs.len()];
    // The chain replays each pass once more on the records it just wrote,
    // so its end-to-end times cover the cache's read path too.
    let mut warm: Vec<Vec<Sample>> = vec![Vec::new(); jobs.len()];
    budget.repeat(|| {
        cache.clear();
        for (idx, job) in jobs.iter().enumerate() {
            if let Some((sample, _)) = verifier.run(idx, job, &sessions[idx]) {
                samples[idx].push(sample);
            }
        }
        if cache.path().is_some() {
            for (idx, job) in jobs.iter().enumerate() {
                if let Some((sample, _)) = verifier.run(idx, job, &sessions[idx]) {
                    warm[idx].push(sample);
                }
            }
        }
    });

    let mut medians = Vec::with_capacity(2 * jobs.len());
    let mut raw_wall_s = 0.0;
    let mut patch = PatchStats::default();
    let mut rows = Vec::with_capacity(jobs.len());
    for (idx, job) in jobs.iter().enumerate() {
        let (digest, verified, stats) = verifier.first[idx]
            .as_ref()
            .map_or((0, false, PatchStats::default()), |o| {
                (o.digest, o.verified, o.stats)
            });
        patch.inputs += stats.inputs;
        patch.outputs += stats.outputs;
        patch.gates += stats.gates;
        patch.nets += stats.nets;
        let timing = |samples: &[Sample]| {
            let norm: Vec<f64> = samples.iter().map(|s| s.norm).collect();
            let raw: Vec<f64> = samples.iter().map(|s| s.raw).collect();
            (Timing::of(&norm), Timing::of(&raw))
        };
        let (time, raw_time) = timing(&samples[idx]);
        medians.push(time.median);
        raw_wall_s += raw_time.median;
        let warm_time = (!warm[idx].is_empty()).then(|| {
            let (time, raw_time) = timing(&warm[idx]);
            medians.push(time.median);
            raw_wall_s += raw_time.median;
            time
        });
        rows.push(CaseRow {
            id: job.case.id,
            name: job.case.name.clone(),
            seed: job.seed,
            time: Some(time),
            raw_time: Some(raw_time),
            warm_time,
            patch: stats,
            digest,
            verified,
            phases: Vec::new(),
            counters: Vec::new(),
        });
    }
    let setup = Timing::of(setup);
    let values = [
        (medians.iter().sum::<f64>(), None),
        (geomean(&medians), None),
        (setup.median, Some(setup)),
        (peak_rss_mib(), None),
        (patch.gates as f64, None),
        (patch.nets as f64, None),
        (patch.inputs as f64, None),
        (patch.outputs as f64, None),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, timing))| Metric {
            name,
            value,
            unit,
            timing,
        })
        .collect();
    Report {
        workload,
        seed: cfg.seed,
        trace: false,
        attempted: verifier.attempted,
        failed: verifier.failed,
        metrics,
        raw_wall_s,
        cases: rows,
    }
}

/// Counters read from each traced run's metrics snapshot.
const COUNTERS: &[Counter] = &[
    Counter::SatConflicts,
    Counter::SatPropagations,
    Counter::BddApplyHits,
    Counter::BddApplyMisses,
    Counter::BddQuantHits,
    Counter::BddQuantMisses,
    Counter::BddGcRuns,
    Counter::BddReorders,
    Counter::RectifyValidations,
    Counter::RectifyPointSets,
    Counter::RectifyChoices,
    Counter::RectifyDegradations,
    Counter::RectifyRefinements,
    Counter::PrefilterScreened,
    Counter::PrefilterPassed,
    Counter::CacheHits,
    Counter::CacheMisses,
    Counter::CacheVerifyRejects,
];

/// What one traced run of a job yields.
struct TracedRun {
    /// Self time per span name at the reference speed, ms.
    self_ms: BTreeMap<String, f64>,
    /// `COUNTERS` values, in order.
    counters: Vec<u64>,
    peak_nodes: u64,
    /// Σ search-span time and `jobs ×` the search phase's wall, µs.
    search_busy_us: u64,
    search_capacity_us: u64,
}

impl TracedRun {
    /// `speed_factor` scales the run's span times to the reference speed.
    fn new(
        result: &EcoResult,
        snapshot: &MetricsSnapshot,
        jobs: usize,
        speed_factor: f64,
    ) -> TracedRun {
        let profile = Profile::from_spans(&result.trace);
        let self_ms = profile
            .phase_totals()
            .into_iter()
            .map(|node| (node.name, node.self_us as f64 / 1e3 * speed_factor))
            .collect();
        let searches = result
            .trace
            .iter()
            .filter(|span| span.name == names::SPAN_SEARCH);
        let (mut busy, mut first, mut last) = (0u64, u64::MAX, 0u64);
        for span in searches {
            busy += span.dur_us;
            first = first.min(span.start_us);
            last = last.max(span.start_us + span.dur_us);
        }
        TracedRun {
            self_ms,
            counters: COUNTERS.iter().map(|&c| snapshot.counter(c)).collect(),
            peak_nodes: snapshot.gauge(Gauge::BddPeakNodes),
            search_busy_us: busy,
            search_capacity_us: last.saturating_sub(first) * jobs as u64,
        }
    }

    fn counter(&self, counter: Counter) -> u64 {
        COUNTERS
            .iter()
            .position(|&c| c == counter)
            .map_or(0, |i| self.counters[i])
    }
}

/// Worst post-patch slack, ps, against a clock at the implementation's
/// pre-patch critical delay (as `tables::table3_rows` measures it).
fn post_patch_slack(case: &EcoCase, patched: &Circuit) -> f64 {
    let model = DelayModel::default();
    let period = TimingReport::analyze(&case.implementation, &model, 0.0)
        .expect("generated implementations are acyclic")
        .critical_delay();
    TimingReport::analyze(patched, &model, period)
        .expect("patched circuits are acyclic")
        .worst_slack()
}

/// Direct timed calls into layer functions, from outside the engine;
/// times at the reference speed.
#[derive(Default)]
struct LayerCalls {
    detect_s: f64,
    verify_s: f64,
    sim_evals: f64,
    sim_s: f64,
    bdd_build_s: f64,
    bdd_nodes: u64,
}

impl LayerCalls {
    /// Detection, simulation and (with `bdd`) BDD building on each case;
    /// verification of each `(case, patched)` pair.
    fn measure(
        cases: &[EcoCase],
        patched: &[(&EcoCase, &Circuit)],
        seed: u64,
        bdd: bool,
    ) -> LayerCalls {
        let mut calls = LayerCalls::default();
        for (case, patched) in patched {
            let (sample, ok) =
                clock::timed(1, || syseco::verify_rectification(patched, &case.spec));
            calls.verify_s += sample.norm;
            std::hint::black_box(ok.ok());
        }
        for case in cases {
            if let Ok(corr) = Correspondence::build(&case.implementation, &case.spec) {
                let (sample, verdicts) = clock::timed(1, || {
                    classify_outputs(&case.implementation, &case.spec, &corr, None, None)
                });
                calls.detect_s += sample.norm;
                std::hint::black_box(verdicts.ok());
            }
            if bdd {
                let (sample, nodes) = clock::timed(1, || {
                    let mut manager = BddManager::new();
                    let inputs: Vec<_> = (0..case.implementation.num_inputs())
                        .map(|i| manager.var(i as u32))
                        .collect();
                    let built = eval_all_bdd(&case.implementation, &mut manager, &inputs);
                    std::hint::black_box(built.ok());
                    manager.peak_num_nodes() as u64
                });
                calls.bdd_build_s += sample.norm;
                calls.bdd_nodes += nodes;
            }
        }
        // simulate64 on every implementation, repeated until the sweep is
        // long enough to time.
        let gates: Vec<f64> = cases
            .iter()
            .map(|case| {
                let c = &case.implementation;
                c.iter_live()
                    .filter(|&id| c.node(id).kind() != GateKind::Input)
                    .count() as f64
            })
            .collect();
        let (sample, evals) = clock::timed(1, || {
            let t0 = Instant::now();
            let mut evals = 0.0;
            while evals == 0.0 || t0.elapsed() < SIM_MIN {
                for (case, &gates) in cases.iter().zip(&gates) {
                    let n = case.implementation.num_inputs() as u64;
                    for block in 0..SIM_BLOCKS {
                        let words: Vec<u64> = (0..n)
                            .map(|i| iteration_seed(iteration_seed(seed, block), i))
                            .collect();
                        let values = simulate64(&case.implementation, &words);
                        std::hint::black_box(values.ok());
                    }
                    evals += gates * 64.0 * SIM_BLOCKS as f64;
                }
            }
            evals
        });
        calls.sim_evals = evals;
        calls.sim_s = sample.norm;
        calls
    }
}

fn per_layer(workload: Workload, cases: &[EcoCase], cfg: &Config, budget: &Budget) -> Report {
    let workers = workload.workers();
    let cache = CacheDir::new(workload, cfg);
    let jobs = workload.jobs(cases, cfg.seed);
    let sessions = |workers| -> Vec<Session> {
        jobs.iter()
            .map(|job| workload.session(job, workers, cache.path()))
            .collect()
    };
    let timed = sessions(workers);
    let reference = (workload == Workload::Parallel).then(|| sessions(1));
    let mut verifier = Verifier::new(cfg.seed, jobs.len());

    // Pass times at the reference speed; `untraced_raw_s` unscaled.
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut untraced_raw_s = Vec::new();
    let mut reference_s = Vec::new();
    let mut phase_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut first: Vec<Option<(TracedRun, EcoResult)>> = (0..jobs.len()).map(|_| None).collect();
    let mut warm_s = Vec::new();
    let (mut warm_hits, mut warm_misses) = (0u64, 0u64);
    let mut calls = None;
    budget.repeat(|| {
        // Traced pass: a fresh telemetry hub per job, so per-job counters
        // stay apart.
        cache.clear();
        let mut pass_s = 0.0;
        let mut self_ms: BTreeMap<String, f64> = BTreeMap::new();
        for (idx, job) in jobs.iter().enumerate() {
            let telemetry = Telemetry::enabled();
            let session = timed[idx].clone().with_telemetry(&telemetry);
            let Some((sample, result)) = verifier.run(idx, job, &session) else {
                continue;
            };
            pass_s += sample.norm;
            let run = TracedRun::new(
                &result,
                &telemetry.snapshot(),
                workers,
                sample.speed_factor(),
            );
            for (name, ms) in &run.self_ms {
                *self_ms.entry(name.clone()).or_default() += ms;
            }
            if first[idx].is_none() {
                first[idx] = Some((run, result));
            }
        }
        traced_s.push(pass_s);
        for phase in PHASES {
            let ms = self_ms.get(*phase).copied().unwrap_or(0.0);
            phase_ms.entry(phase).or_default().push(ms);
        }
        // Untraced passes: the same sessions, then the jobs-1 reference.
        for (sessions, samples, raw) in [
            (Some(&timed), &mut untraced_s, Some(&mut untraced_raw_s)),
            (reference.as_ref(), &mut reference_s, None),
        ] {
            let Some(sessions) = sessions else { continue };
            cache.clear();
            let (mut pass_s, mut pass_raw_s) = (0.0, 0.0);
            for (idx, job) in jobs.iter().enumerate() {
                if let Some((sample, _)) = verifier.run(idx, job, &sessions[idx]) {
                    pass_s += sample.norm;
                    pass_raw_s += sample.raw;
                }
            }
            samples.push(pass_s);
            if let Some(raw) = raw {
                raw.push(pass_raw_s);
            }
        }
        if calls.is_some() {
            return;
        }
        // Once, after the first round, so later rounds only fill what is
        // left of the budget. Warm passes replay the records the last cold
        // pass left behind.
        if workload == Workload::Chain {
            for _ in 0..WARM_PASSES.max(cfg.reps) {
                let mut pass_s = 0.0;
                for (idx, job) in jobs.iter().enumerate() {
                    if let Some((sample, result)) = verifier.run(idx, job, &timed[idx]) {
                        pass_s += sample.norm;
                        warm_hits += result.rectify.cache_hits;
                        warm_misses += result.rectify.cache_misses;
                    }
                }
                warm_s.push(pass_s);
            }
        }
        let patched: Vec<(&EcoCase, &Circuit)> = jobs
            .iter()
            .zip(&first)
            .filter_map(|(job, f)| f.as_ref().map(|(_, result)| (job.case, &result.patched)))
            .collect();
        // A whole-implementation BDD build is affordable on par16 only:
        // the table cases take seconds and tens of millions of nodes.
        calls = Some(LayerCalls::measure(
            cases,
            &patched,
            cfg.seed,
            workload == Workload::Parallel,
        ));
    });
    let calls = calls.unwrap_or_default();

    let runs: Vec<&TracedRun> = first.iter().flatten().map(|(run, _)| run).collect();
    let total = |counter: Counter| runs.iter().map(|r| r.counter(counter)).sum::<u64>() as f64;
    let hit_rate = |hits: Counter, misses: Counter| ratio(total(hits), total(hits) + total(misses));
    let (mut fallbacks, mut failing, mut min_slack) = (0usize, 0usize, f64::INFINITY);
    let mut rows = Vec::with_capacity(jobs.len());
    for (idx, (job, entry)) in jobs.iter().zip(&first).enumerate() {
        let (Some((run, result)), Some(outcome)) = (entry, &verifier.first[idx]) else {
            continue;
        };
        fallbacks += result.rectify.fallbacks;
        failing += result.rectify.outputs_failing;
        min_slack = min_slack.min(post_patch_slack(job.case, &result.patched));
        rows.push(CaseRow {
            id: job.case.id,
            name: job.case.name.clone(),
            seed: job.seed,
            time: None,
            raw_time: None,
            warm_time: None,
            patch: result.stats,
            digest: outcome.digest,
            verified: outcome.verified,
            phases: run.self_ms.clone().into_iter().collect(),
            counters: COUNTERS
                .iter()
                .map(|&c| (c.name(), run.counter(c)))
                .chain([(names::BDD_PEAK_NODES, run.peak_nodes)])
                .collect(),
        });
    }
    let phase = |name: &str| median(phase_ms.get(name).map_or(&[][..], Vec::as_slice));
    let untraced = median(&untraced_s);
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("detect.self_ms", phase(names::SPAN_DETECT)),
        ("search.self_ms", phase(names::SPAN_SEARCH)),
        ("samples.self_ms", phase(names::SPAN_SAMPLES)),
        ("point_sets.self_ms", phase(names::SPAN_POINT_SETS)),
        ("choices.self_ms", phase(names::SPAN_CHOICES)),
        ("validate.self_ms", phase(names::SPAN_VALIDATE)),
        ("commit.self_ms", phase(names::SPAN_COMMIT)),
        ("verify.self_ms", phase(names::SPAN_VERIFY)),
        ("refine_patch.self_ms", phase(names::SPAN_REFINE_PATCH)),
        ("sat.conflicts", total(Counter::SatConflicts)),
        ("sat.propagations", total(Counter::SatPropagations)),
        (
            "sat.conflicts_per_validation",
            ratio(
                total(Counter::SatConflicts),
                total(Counter::RectifyValidations),
            ),
        ),
        (
            "bdd.apply_ops",
            total(Counter::BddApplyHits) + total(Counter::BddApplyMisses),
        ),
        (
            "bdd.apply_hit_rate",
            hit_rate(Counter::BddApplyHits, Counter::BddApplyMisses),
        ),
        (
            "bdd.quant_hit_rate",
            hit_rate(Counter::BddQuantHits, Counter::BddQuantMisses),
        ),
        (
            "bdd.peak_nodes",
            runs.iter().map(|r| r.peak_nodes).max().unwrap_or(0) as f64,
        ),
        ("bdd.gc_runs", total(Counter::BddGcRuns)),
        ("bdd.reorders", total(Counter::BddReorders)),
        ("rectify.validations", total(Counter::RectifyValidations)),
        ("rectify.point_sets", total(Counter::RectifyPointSets)),
        ("rectify.choices", total(Counter::RectifyChoices)),
        ("rectify.degradations", total(Counter::RectifyDegradations)),
        (
            "sampling.false_positive_rate",
            ratio(
                total(Counter::RectifyRefinements),
                total(Counter::RectifyValidations),
            ),
        ),
        (
            "prefilter.screen_rate",
            hit_rate(Counter::PrefilterScreened, Counter::PrefilterPassed),
        ),
        ("cache.hit", total(Counter::CacheHits)),
        ("cache.miss", total(Counter::CacheMisses)),
        ("cache.verify_reject", total(Counter::CacheVerifyRejects)),
        (
            "schedule.busy_frac",
            ratio(
                runs.iter().map(|r| r.search_busy_us).sum::<u64>() as f64,
                runs.iter().map(|r| r.search_capacity_us).sum::<u64>() as f64,
            ),
        ),
        ("layer.detect_ms", calls.detect_s * 1e3),
        ("layer.verify_ms", calls.verify_s * 1e3),
        (
            "layer.sim_gate_evals_per_s",
            ratio(calls.sim_evals, calls.sim_s),
        ),
        ("layer.bdd_build_ms", calls.bdd_build_s * 1e3),
        ("layer.bdd_build_nodes", calls.bdd_nodes as f64),
        ("trace_overhead", ratio(median(&traced_s), untraced)),
        ("parallel_speedup", ratio(median(&reference_s), untraced)),
        ("warm_wall_s", median(&warm_s)),
        (
            "cache_hit_frac",
            ratio(warm_hits as f64, (warm_hits + warm_misses) as f64),
        ),
        ("fallback_frac", ratio(fallbacks as f64, failing as f64)),
        (
            "min_slack_ps",
            if min_slack.is_finite() {
                min_slack
            } else {
                0.0
            },
        ),
    ]);
    let timings: BTreeMap<&str, &[f64]> = BTreeMap::from([
        ("trace_overhead", traced_s.as_slice()),
        ("parallel_speedup", reference_s.as_slice()),
        ("warm_wall_s", warm_s.as_slice()),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values[name],
            unit,
            timing: timings
                .get(name)
                .filter(|s| !s.is_empty())
                .map(|s| Timing::of(s))
                .or_else(|| {
                    phase_ms
                        .get(name.trim_end_matches(".self_ms"))
                        .map(|s| Timing::of(s))
                }),
        })
        .collect();
    Report {
        workload,
        seed: cfg.seed,
        trace: true,
        attempted: verifier.attempted,
        failed: verifier.failed,
        metrics,
        raw_wall_s: median(&untraced_raw_s),
        cases: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_takes_the_middle_of_sorted_samples() {
        let t = Timing::of(&[3.0, 1.0, 2.0]);
        assert_eq!((t.median, t.min, t.max, t.n), (2.0, 1.0, 3.0, 3));
        assert_eq!(Timing::of(&[4.0, 1.0, 2.0, 3.0]).median, 2.5);
    }

    #[test]
    fn seed_zero_uses_the_case_id() {
        assert_eq!(engine_seed(0, 16), 16);
        assert_eq!(engine_seed(5, 16), iteration_seed(5, 16));
        assert_ne!(engine_seed(5, 16), engine_seed(6, 16));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("table4"), None);
    }

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
