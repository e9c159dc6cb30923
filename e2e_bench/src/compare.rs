//! Compares two e2e result sets under the directions and bounds that
//! `BENCHMARK.json` declares (the engine of the `e2e_diff` binary).
//!
//! A result set is a directory of `e2e --out` reports (`<workload>.json`
//! and `<workload>_trace.json`). The comparison has one row per
//! (workload, metric):
//!
//! * an end-to-end metric regresses when it gets worse than its declared
//!   bound allows, in its declared direction;
//! * a per-layer metric in [`SCOPED`] regresses, on the workloads listed
//!   there, past the bound listed there, in its declared direction;
//! * any other per-layer metric has no bound: it is reported, never
//!   flagged.
//!
//! When both sets ran the same seed, every case also gets one row per
//! patch attribute. Patches are deterministic for a seed, so any growth
//! there is a regression, however small against the workload total; a
//! changed patch digest is listed even when the sizes hold.

use std::path::Path;

use eco_telemetry::json::{parse, Value};
use syseco_bench::diff::{compare, flatten, DiffReport, Direction, Tolerances};

/// Patch attributes compared per case.
const PATCH_KEYS: [&str; 4] = ["patch_gates", "patch_nets", "patch_inputs", "patch_outputs"];

/// How far a [`SCOPED`] metric may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// By this share of the baseline, whatever the seeds.
    Within(f64),
    /// Not at all, when both sides ran the same seed: the metric is fixed
    /// by the patches, which are fixed by the seed. Ungated otherwise.
    Exact,
}

/// Per-layer metrics gated on the workloads they describe, `(workload,
/// metric, gate)`; `"*"` is every workload. Each reads the end-to-end
/// result of one workload, but `BENCHMARK.json` bounds only metrics that
/// every workload reports and that never read 0, so it declares these
/// per-layer. Timed bounds are the widest any timed end-to-end metric
/// has, for the same host noise: the speedup, a ratio of single passes,
/// spread by 10% over 8 seeds.
pub const SCOPED: &[(&str, &str, Gate)] = &[
    ("parallel", "parallel_speedup", Gate::Within(0.25)),
    ("chain", "warm_wall_s", Gate::Within(0.25)),
    ("chain", "cache_hit_frac", Gate::Exact),
    ("table3", "min_slack_ps", Gate::Exact),
    ("*", "fallback_frac", Gate::Exact),
];

fn scoped(workload: &str, metric: &str) -> Option<Gate> {
    SCOPED
        .iter()
        .find(|(w, m, _)| (*w == workload || *w == "*") && *m == metric)
        .map(|&(_, _, gate)| gate)
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which way is better.
    pub direction: Direction,
    /// Allowed worsening as a share of the baseline; `None` for per-layer
    /// metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` a comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, then per-layer metrics.
    pub metrics: Vec<Declared>,
}

fn field<'a>(value: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{what} lacks {key:?}"))
}

fn string(value: &Value, key: &str, what: &str) -> Result<String, String> {
    field(value, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: {key:?} is not a string"))
}

fn array<'a>(value: &'a Value, key: &str, what: &str) -> Result<&'a [Value], String> {
    field(value, key, what)?
        .as_array()
        .ok_or_else(|| format!("{what}: {key:?} is not an array"))
}

impl Benchmark {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Benchmark, String> {
        let doc = parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = array(&doc, "workloads", "BENCHMARK.json")?
            .iter()
            .map(|w| string(w, "name", "workload"))
            .collect::<Result<_, _>>()?;
        let mut metrics = Vec::new();
        for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
            for m in array(&doc, section, "BENCHMARK.json")? {
                let name = string(m, "name", section)?;
                let what = format!("metric {name:?}");
                let direction = match string(m, "better", &what)?.as_str() {
                    "lower" => Direction::LowerIsBetter,
                    "higher" => Direction::HigherIsBetter,
                    other => return Err(format!("{what}: unknown direction {other:?}")),
                };
                let bound = if bounded {
                    let bound = field(m, "bound", &what)?
                        .as_f64()
                        .filter(|b| (0.0..=1.0).contains(b))
                        .ok_or_else(|| format!("{what}: bound must be a share in [0, 1]"))?;
                    Some(bound)
                } else {
                    None
                };
                metrics.push(Declared {
                    unit: string(m, "unit", &what)?,
                    name,
                    direction,
                    bound,
                });
            }
        }
        Ok(Benchmark { workloads, metrics })
    }

    fn declared(&self, name: &str) -> Option<&Declared> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// One case's patch under one engine seed, as a report records it.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// `case<id>-seed<engine seed>`.
    pub key: String,
    /// Patch digest (hex).
    pub digest: String,
    /// [`PATCH_KEYS`] values, in order.
    pub patch: [f64; 4],
}

/// One workload's results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    /// The benchmark seed the reports ran.
    pub seed: Option<u64>,
    /// Metric values, end-to-end then per-layer.
    pub metrics: Vec<(String, f64)>,
    /// Per-case patches of the end-to-end report.
    pub cases: Vec<CaseResult>,
}

/// Results by workload name.
pub type ResultSet = Vec<(String, WorkloadResult)>;

/// Folds one `--out` report into `result`.
fn read_report(text: &str, result: &mut WorkloadResult) -> Result<(), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    result.seed = field(&doc, "seed", "report")?.as_u64();
    let metrics = field(&doc, "metrics", "report")?
        .as_object()
        .ok_or("report: \"metrics\" is not an object")?;
    for (name, m) in metrics {
        let value = field(m, "value", name)?
            .as_f64()
            .ok_or_else(|| format!("metric {name:?}: value is not a number"))?;
        result.metrics.push((name.clone(), value));
    }
    if string(&doc, "mode", "report")? == "end_to_end" {
        for case in array(&doc, "cases", "report")? {
            let mut patch = [0.0; 4];
            for (slot, key) in patch.iter_mut().zip(PATCH_KEYS) {
                *slot = field(case, key, "case")?
                    .as_f64()
                    .ok_or_else(|| format!("case: {key:?} is not a number"))?;
            }
            let id = field(case, "id", "case")?.as_u64().ok_or("case: bad id")?;
            result.cases.push(CaseResult {
                key: format!("case{id}-seed{}", string(case, "engine_seed", "case")?),
                digest: string(case, "digest", "case")?,
                patch,
            });
        }
    }
    Ok(())
}

/// Reads the reports of every declared workload found in `dir`.
///
/// # Errors
///
/// A message when a report cannot be read or parsed, or when `dir` holds
/// no report at all.
pub fn load(dir: &Path, bench: &Benchmark) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for workload in &bench.workloads {
        let mut result = WorkloadResult::default();
        let mut found = false;
        for suffix in ["", "_trace"] {
            let path = dir.join(format!("{workload}{suffix}.json"));
            if !path.exists() {
                continue;
            }
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            read_report(&text, &mut result).map_err(|e| format!("{}: {e}", path.display()))?;
            found = true;
        }
        if found {
            set.push((workload.clone(), result));
        }
    }
    if set.is_empty() {
        return Err(format!("{} holds no e2e report", dir.display()));
    }
    Ok(set)
}

/// The outcome of [`compare_sets`].
#[derive(Debug, Clone)]
pub struct Comparison {
    /// One row per (workload, metric), plus per-case patch rows.
    pub report: DiffReport,
    /// `workload case N` for every case whose digest changed.
    pub digest_changes: Vec<String>,
    /// Workloads whose seeds differ, so their cases were not compared.
    pub seed_mismatches: Vec<String>,
}

impl Comparison {
    /// Whether any row regressed.
    pub fn regressed(&self) -> bool {
        !self.report.regressions().is_empty()
    }

    /// The row table, the digest changes and the verdict.
    pub fn render(&self) -> String {
        let mut out = self.report.render();
        for change in &self.digest_changes {
            out.push_str(&format!("patch digest changed: {change}\n"));
        }
        for workload in &self.seed_mismatches {
            out.push_str(&format!("{workload}: seeds differ, cases not compared\n"));
        }
        out
    }
}

/// A result set as one JSON object: `workload.metric` and
/// `workload.caseN.patch_*` leaves.
fn document(set: &ResultSet, with_cases: &[String]) -> Value {
    Value::Object(
        set.iter()
            .map(|(workload, result)| {
                let mut entries: Vec<(String, Value)> = result
                    .metrics
                    .iter()
                    .map(|(name, v)| (name.clone(), Value::Number(*v)))
                    .collect();
                if with_cases.contains(workload) {
                    for case in &result.cases {
                        let patch = PATCH_KEYS
                            .iter()
                            .zip(case.patch)
                            .map(|(k, v)| (k.to_string(), Value::Number(v)))
                            .collect();
                        entries.push((case.key.clone(), Value::Object(patch)));
                    }
                }
                (workload.clone(), Value::Object(entries))
            })
            .collect(),
    )
}

/// Compares `current` against `base` under `bench`'s declarations.
pub fn compare_sets(bench: &Benchmark, base: &ResultSet, current: &ResultSet) -> Comparison {
    let mut same_seed = Vec::new();
    let mut seed_mismatches = Vec::new();
    let mut digest_changes = Vec::new();
    for (workload, b) in base {
        let Some((_, c)) = current.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        if b.seed != c.seed {
            seed_mismatches.push(workload.clone());
            continue;
        }
        same_seed.push(workload.clone());
        for case in &b.cases {
            if let Some(now) = c.cases.iter().find(|x| x.key == case.key) {
                if now.digest != case.digest {
                    digest_changes.push(format!(
                        "{workload} {}: {} -> {}",
                        case.key, case.digest, now.digest
                    ));
                }
            }
        }
    }
    let base_doc = document(base, &same_seed);
    let current_doc = document(current, &same_seed);
    let mut tolerances = Tolerances {
        default: 0.0,
        ..Tolerances::default()
    };
    for (key, _) in flatten(&base_doc) {
        let (workload, leaf) = key.split_once('.').unwrap_or(("", ""));
        let per_case = leaf
            .strip_prefix("case")
            .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()));
        let (direction, bound) = if per_case {
            (Direction::LowerIsBetter, 0.0)
        } else {
            let declared = bench.declared(leaf);
            let gate = match declared.and_then(|d| d.bound) {
                Some(bound) => Some(bound),
                None => match scoped(workload, leaf) {
                    Some(Gate::Within(bound)) => Some(bound),
                    Some(Gate::Exact) if same_seed.iter().any(|w| w == workload) => Some(0.0),
                    _ => None,
                },
            };
            match (declared, gate) {
                (Some(d), Some(bound)) => (d.direction, bound),
                _ => (Direction::Informational, 0.0),
            }
        };
        tolerances.per_metric.push((key.clone(), bound));
        tolerances.per_metric_direction.push((key, direction));
    }
    Comparison {
        report: compare(&base_doc, &current_doc, &tolerances),
        digest_changes,
        seed_mismatches,
    }
}

/// The declarations the self-test compares under.
const SELF_TEST_BENCHMARK: &str = r#"{
  "workloads": [{"name": "table2", "why": "a"}, {"name": "parallel", "why": "b"}],
  "end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "patch_gates", "unit": "count", "better": "lower", "bound": 0.03}
  ],
  "per_layer": [{"name": "sat.conflicts", "unit": "count", "better": "lower"}]
}"#;

fn self_test_base() -> ResultSet {
    let case = |id: u64, gates: f64| CaseResult {
        key: format!("case{id}-seed{id}"),
        digest: format!("{id:016x}"),
        patch: [gates, 2.0 * gates, 5.0, 3.0],
    };
    let workload = |wall: f64, gates: [f64; 2]| WorkloadResult {
        seed: Some(1),
        metrics: vec![
            ("wall_s".to_string(), wall),
            ("patch_gates".to_string(), gates[0] + gates[1]),
            ("sat.conflicts".to_string(), 1000.0),
        ],
        cases: vec![case(1, gates[0]), case(2, gates[1])],
    };
    vec![
        ("table2".to_string(), workload(8.8, [40.0, 243.0])),
        ("parallel".to_string(), workload(0.4, [30.0, 25.0])),
    ]
}

fn scaled(set: &ResultSet, workload: &str, metric: &str, factor: f64) -> ResultSet {
    let mut set = set.clone();
    for (w, result) in &mut set {
        if w == workload {
            for (name, value) in &mut result.metrics {
                if name == metric {
                    *value *= factor;
                }
            }
        }
    }
    set
}

/// The seeded checks behind `e2e_diff --self-test`: a one-gate growth on
/// one case and a +15% `wall_s` must regress, +5% `wall_s` and a 9×
/// per-layer counter must not. Returns the comparison of the one-gate
/// growth, so the caller exits through the real failure path.
///
/// # Errors
///
/// A message naming the check that did not hold.
pub fn self_test() -> Result<Comparison, String> {
    let bench = Benchmark::parse(SELF_TEST_BENCHMARK)?;
    let base = self_test_base();
    let flagged = |current: &ResultSet| -> Vec<String> {
        compare_sets(&bench, &base, current)
            .report
            .regressions()
            .iter()
            .map(|r| r.key.clone())
            .collect()
    };
    let expect = |what: &str, current: &ResultSet, want: &[&str]| {
        let got = flagged(current);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{what}: expected regressions {want:?}, got {got:?}"
            ))
        }
    };
    expect("identical sets", &base, &[])?;

    // One more gate on table2 case 1: +0.35% of the workload total, within
    // its 3% bound, but a patch change at a fixed seed.
    let mut one_gate = base.clone();
    let table2 = &mut one_gate[0].1;
    table2.cases[0].patch[0] += 1.0;
    table2.cases[0].digest = "changed".to_string();
    table2.metrics[1].1 += 1.0;
    expect(
        "+1 gate on one case",
        &one_gate,
        &["table2.case1-seed1.patch_gates"],
    )?;

    let slower = scaled(&base, "parallel", "wall_s", 1.15);
    expect("+15% wall_s", &slower, &["parallel.wall_s"])?;
    expect("+5% wall_s", &scaled(&base, "table2", "wall_s", 1.05), &[])?;
    expect(
        "9x per-layer counter",
        &scaled(&base, "table2", "sat.conflicts", 9.0),
        &[],
    )?;
    let comparison = compare_sets(&bench, &base, &one_gate);
    if comparison.digest_changes.len() != 1 {
        return Err("the changed digest must be listed".to_string());
    }
    Ok(comparison)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_holds() {
        let comparison = self_test().unwrap();
        assert!(comparison.regressed());
        assert!(comparison.render().contains("patch digest changed"));
    }

    #[test]
    fn seeds_that_differ_skip_the_case_rows() {
        let bench = Benchmark::parse(SELF_TEST_BENCHMARK).unwrap();
        let base = self_test_base();
        let mut current = base.clone();
        current[0].1.seed = Some(2);
        current[0].1.cases[0].patch[0] += 5.0;
        let comparison = compare_sets(&bench, &base, &current);
        assert!(!comparison.regressed());
        assert_eq!(comparison.seed_mismatches, ["table2"]);
    }

    #[test]
    fn higher_is_better_metrics_regress_downward() {
        let bench = Benchmark::parse(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        let set = |v: f64| -> ResultSet {
            vec![(
                "w".to_string(),
                WorkloadResult {
                    seed: Some(0),
                    metrics: vec![("speed".to_string(), v)],
                    cases: Vec::new(),
                },
            )]
        };
        assert!(compare_sets(&bench, &set(100.0), &set(85.0)).regressed());
        assert!(!compare_sets(&bench, &set(100.0), &set(95.0)).regressed());
        assert!(!compare_sets(&bench, &set(100.0), &set(200.0)).regressed());
    }

    #[test]
    fn scoped_per_layer_metrics_are_gated_on_their_workloads() {
        let bench = Benchmark::parse(
            r#"{"workloads": [{"name": "chain"}, {"name": "table3"}], "end_to_end": [],
                "per_layer": [{"name": "warm_wall_s", "unit": "s", "better": "lower"},
                              {"name": "min_slack_ps", "unit": "ps", "better": "higher"},
                              {"name": "fallback_frac", "unit": "ratio", "better": "lower"}]}"#,
        )
        .unwrap();
        let set = |seed: u64, warm: f64, slack: f64, fallback: f64| -> ResultSet {
            let metrics = vec![
                ("warm_wall_s".to_string(), warm),
                ("min_slack_ps".to_string(), slack),
                ("fallback_frac".to_string(), fallback),
            ];
            ["chain", "table3"]
                .iter()
                .map(|w| {
                    let result = WorkloadResult {
                        seed: Some(seed),
                        metrics: metrics.clone(),
                        cases: Vec::new(),
                    };
                    (w.to_string(), result)
                })
                .collect()
        };
        let base = set(1, 0.02, -1.5, 0.4);
        let flagged = |current: &ResultSet| -> Vec<String> {
            let comparison = compare_sets(&bench, &base, current);
            comparison
                .report
                .regressions()
                .iter()
                .map(|r| r.key.clone())
                .collect()
        };
        // warm_wall_s is gated on chain only, past 25%.
        assert_eq!(flagged(&set(1, 0.026, -1.5, 0.4)), ["chain.warm_wall_s"]);
        assert!(flagged(&set(1, 0.024, -1.5, 0.4)).is_empty());
        // min_slack_ps on table3 only, at all, and negative slack works.
        assert_eq!(flagged(&set(1, 0.02, -2.0, 0.4)), ["table3.min_slack_ps"]);
        assert!(flagged(&set(1, 0.02, 3.0, 0.4)).is_empty());
        // fallback_frac everywhere, at all, but only at equal seeds.
        assert_eq!(
            flagged(&set(1, 0.02, -1.5, 0.41)),
            ["chain.fallback_frac", "table3.fallback_frac"]
        );
        assert!(flagged(&set(2, 0.02, -1.5, 0.41)).is_empty());
    }

    #[test]
    fn malformed_declarations_are_rejected() {
        let missing_bound = r#"{"workloads": [], "per_layer": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "lower"}]}"#;
        assert!(Benchmark::parse(missing_bound).is_err());
        let sideways = r#"{"workloads": [], "end_to_end": [],
            "per_layer": [{"name": "x", "unit": "s", "better": "sideways"}]}"#;
        assert!(Benchmark::parse(sideways).is_err());
    }

    #[test]
    fn reports_round_trip_through_the_reader() {
        let report = r#"{"workload": "chain", "mode": "end_to_end", "seed": 3,
            "metrics": {"wall_s": {"value": 0.25, "unit": "s", "n": 5}},
            "cases": [{"id": 17, "name": "chain17", "engine_seed": "17", "digest": "00ff", "verified": true,
                       "patch_inputs": 1, "patch_outputs": 2, "patch_gates": 3, "patch_nets": 4}]}"#;
        let mut result = WorkloadResult::default();
        read_report(report, &mut result).unwrap();
        assert_eq!(result.seed, Some(3));
        assert_eq!(result.metrics, [("wall_s".to_string(), 0.25)]);
        assert_eq!(result.cases[0].patch, [3.0, 4.0, 1.0, 2.0]);
        assert_eq!(result.cases[0].digest, "00ff");
        assert_eq!(result.cases[0].key, "case17-seed17");
    }
}
