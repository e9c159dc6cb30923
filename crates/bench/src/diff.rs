//! BENCH-file regression comparison (the `bench_diff` binary's engine).
//!
//! Compares two benchmark JSON documents (a committed baseline like
//! `BENCH_bdd.json` and a freshly regenerated copy) metric by
//! metric. Each numeric leaf is classified by its key into a comparison
//! direction:
//!
//! * **lower is better** — wall-clock and duration keys (`*_s`, `*_us`,
//!   `*_ms`, `*wall_clock*`), overhead ratios, allocation counts;
//!   regression when `current > base * (1 + tolerance)`,
//! * **higher is better** — `*throughput*`, `*_per_s`, `*hit_rate*`;
//!   regression when `current < base * (1 - tolerance)`,
//! * **informational** — everything else (raw counters, span counts);
//!   reported but never a regression, since deterministic counters are
//!   expected to change whenever the algorithm changes.
//!
//! The default tolerance is deliberately loose ([`DEFAULT_TOLERANCE`],
//! ±20%): benchmark hosts jitter, and the CI perf gate built on this is a
//! soft signal, not a merge blocker. Per-metric overrides tighten or
//! loosen individual keys, and per-metric *direction* overrides promote
//! informational counters (e.g. `direct_build.peak_nodes`) into
//! lower-is-better gates so structural wins stay locked in.

use std::fmt::Write as _;

use eco_telemetry::json::{parse, Value};

/// Default relative tolerance for directional metrics.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// How a metric's two values are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Time-like: regression when the current value grows past tolerance.
    LowerIsBetter,
    /// Rate-like: regression when the current value drops past tolerance.
    HigherIsBetter,
    /// Counter-like: drift is reported but never flagged.
    Informational,
}

/// Classifies a flattened metric key into its comparison direction.
pub fn direction(key: &str) -> Direction {
    // The leaf segment names the unit; container segments are grouping.
    let leaf = key.rsplit('.').next().unwrap_or(key);
    if leaf.contains("throughput") || leaf.ends_with("_per_s") || leaf.contains("hit_rate") {
        Direction::HigherIsBetter
    } else if leaf.ends_with("_s")
        || leaf.ends_with("_us")
        || leaf.ends_with("_ms")
        // Dotted telemetry names carry the unit as their own segment
        // ("validate.us").
        || matches!(leaf, "s" | "ms" | "us")
        || leaf.contains("wall_clock")
        || leaf.contains("overhead")
        || leaf.contains("bytes")
        || leaf.contains("allocations")
    {
        Direction::LowerIsBetter
    } else {
        Direction::Informational
    }
}

impl Direction {
    /// Parses a CLI/CI direction name.
    ///
    /// # Errors
    ///
    /// Returns the offending token when it is not one of
    /// `lower` | `higher` | `info`.
    pub fn parse(s: &str) -> Result<Direction, String> {
        match s {
            "lower" => Ok(Direction::LowerIsBetter),
            "higher" => Ok(Direction::HigherIsBetter),
            "info" => Ok(Direction::Informational),
            other => Err(format!(
                "unknown direction {other:?} (expected lower|higher|info)"
            )),
        }
    }
}

/// Tolerances for [`compare`]: a default plus per-metric overrides.
///
/// Direction overrides make otherwise-informational counters gate-worthy
/// (`direct_build.peak_nodes=lower` turns node-count growth into a
/// regression) or silence a directional key whose unit heuristic
/// misclassifies it; they take precedence over [`direction`]'s key-based
/// classification.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Relative tolerance applied to every directional metric.
    pub default: f64,
    /// `(key, tolerance)` overrides; exact flattened-key match.
    pub per_metric: Vec<(String, f64)>,
    /// `(key, direction)` overrides; exact flattened-key match.
    pub per_metric_direction: Vec<(String, Direction)>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            default: DEFAULT_TOLERANCE,
            per_metric: Vec::new(),
            per_metric_direction: Vec::new(),
        }
    }
}

impl Tolerances {
    fn for_key(&self, key: &str) -> f64 {
        self.per_metric
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, t)| *t)
            .unwrap_or(self.default)
    }

    fn direction_for(&self, key: &str) -> Direction {
        self.per_metric_direction
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, d)| *d)
            .unwrap_or_else(|| direction(key))
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Flattened dotted key, e.g. `metrics_snapshot.counters.sat.conflicts`.
    pub key: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub current: f64,
    /// Relative change `(current - base) / base`; infinite when the
    /// baseline is zero and the current value is not.
    pub change: f64,
    /// Comparison direction the key classified into.
    pub direction: Direction,
    /// Tolerance applied to this row.
    pub tolerance: f64,
    /// Whether the change crossed the tolerance in the bad direction.
    pub regressed: bool,
}

/// The full comparison of two BENCH documents.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every metric present in both documents, in baseline key order.
    pub rows: Vec<DiffRow>,
    /// Keys only the baseline has (renamed or dropped metrics).
    pub missing_in_current: Vec<String>,
    /// Keys only the current document has (new metrics).
    pub added_in_current: Vec<String>,
}

impl DiffReport {
    /// The rows that crossed their tolerance in the bad direction.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }

    /// Renders the comparison as a markdown table plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("| metric | baseline | current | change | verdict |\n");
        out.push_str("| --- | ---: | ---: | ---: | --- |\n");
        for row in &self.rows {
            let verdict = if row.regressed {
                "**REGRESSED**"
            } else {
                match row.direction {
                    Direction::Informational => "info",
                    _ => "ok",
                }
            };
            let change = if row.change.is_infinite() {
                "new".to_string()
            } else {
                format!("{:+.1}%", row.change * 100.0)
            };
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} | {} |",
                row.key,
                format_value(row.base),
                format_value(row.current),
                change,
                verdict
            );
        }
        for key in &self.missing_in_current {
            let _ = writeln!(out, "| `{key}` | — | — | — | missing in current |");
        }
        for key in &self.added_in_current {
            let _ = writeln!(out, "| `{key}` | — | — | — | new in current |");
        }
        let regressions = self.regressions();
        if regressions.is_empty() {
            out.push_str("\nno regressions\n");
        } else {
            let _ = writeln!(out, "\n{} regression(s):", regressions.len());
            for row in regressions {
                let _ = writeln!(
                    out,
                    "  {}: {} -> {} ({:+.1}%, tolerance ±{:.0}%)",
                    row.key,
                    format_value(row.base),
                    format_value(row.current),
                    row.change * 100.0,
                    row.tolerance * 100.0
                );
            }
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

/// Flattens a JSON document into `(dotted key, number)` leaves in
/// document order. Arrays and non-numeric leaves are skipped: BENCH
/// files carry their comparable signal in scalar fields, and time-series
/// arrays are not stable enough to gate on.
pub fn flatten(value: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    fn walk(prefix: &str, value: &Value, out: &mut Vec<(String, f64)>) {
        match value {
            Value::Number(n) => out.push((prefix.to_string(), *n)),
            Value::Object(fields) => {
                for (key, child) in fields {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    walk(&path, child, out);
                }
            }
            _ => {}
        }
    }
    walk("", value, &mut out);
    out
}

/// Compares two parsed BENCH documents.
pub fn compare(base: &Value, current: &Value, tolerances: &Tolerances) -> DiffReport {
    let base_flat = flatten(base);
    let current_flat = flatten(current);
    let mut report = DiffReport::default();
    for (key, base_value) in &base_flat {
        let Some((_, current_value)) = current_flat.iter().find(|(k, _)| k == key) else {
            report.missing_in_current.push(key.clone());
            continue;
        };
        let direction = tolerances.direction_for(key);
        let tolerance = tolerances.for_key(key);
        let change = if *base_value == 0.0 {
            if *current_value == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (current_value - base_value) / base_value
        };
        let regressed = match direction {
            Direction::LowerIsBetter => *current_value > base_value * (1.0 + tolerance),
            Direction::HigherIsBetter => *current_value < base_value * (1.0 - tolerance),
            Direction::Informational => false,
        };
        report.rows.push(DiffRow {
            key: key.clone(),
            base: *base_value,
            current: *current_value,
            change,
            direction,
            tolerance,
            regressed,
        });
    }
    for (key, _) in &current_flat {
        if !base_flat.iter().any(|(k, _)| k == key) {
            report.added_in_current.push(key.clone());
        }
    }
    report
}

/// Parses and compares two BENCH JSON texts.
///
/// # Errors
///
/// Returns a message naming the document that failed to parse.
pub fn compare_texts(
    base: &str,
    current: &str,
    tolerances: &Tolerances,
) -> Result<DiffReport, String> {
    let base = parse(base).map_err(|e| format!("baseline: {e}"))?;
    let current = parse(current).map_err(|e| format!("current: {e}"))?;
    Ok(compare(&base, &current, tolerances))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "wall_clock_s": 10.0,
        "apply_throughput_per_s": 1000.0,
        "bdd_apply_hit_rate": 0.9,
        "metrics": {"sat": {"conflicts": 100}},
        "trace_spans": 42
    }"#;

    #[test]
    fn keys_classify_into_documented_directions() {
        assert_eq!(
            direction("telemetry_off_median_wall_clock_s"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction("enabled_overhead_ratio"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction("validate.us"), Direction::LowerIsBetter);
        assert_eq!(
            direction("apply_throughput_per_s"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction("bdd_apply_hit_rate"), Direction::HigherIsBetter);
        assert_eq!(
            direction("metrics_snapshot.counters.sat.conflicts"),
            Direction::Informational
        );
        assert_eq!(direction("trace_spans"), Direction::Informational);
    }

    #[test]
    fn identical_documents_have_no_regressions() {
        let report = compare_texts(BASE, BASE, &Tolerances::default()).unwrap();
        assert!(report.regressions().is_empty());
        assert!(report.missing_in_current.is_empty());
        assert!(report.added_in_current.is_empty());
        assert!(report.render().contains("no regressions"));
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let current = BASE.replace("10.0", "11.5"); // +15% < 20%
        let report = compare_texts(BASE, &current, &Tolerances::default()).unwrap();
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn seeded_wall_clock_regression_is_flagged() {
        let current = BASE.replace("10.0", "12.5"); // +25% > 20%
        let report = compare_texts(BASE, &current, &Tolerances::default()).unwrap();
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "wall_clock_s");
        assert!(report.render().contains("**REGRESSED**"));
    }

    #[test]
    fn throughput_and_hit_rate_drops_are_flagged() {
        let current = BASE.replace("1000.0", "700.0").replace("0.9", "0.5");
        let report = compare_texts(BASE, &current, &Tolerances::default()).unwrap();
        let keys: Vec<&str> = report
            .regressions()
            .iter()
            .map(|r| r.key.as_str())
            .collect();
        assert_eq!(keys, ["apply_throughput_per_s", "bdd_apply_hit_rate"]);
    }

    #[test]
    fn counters_only_drift_never_regress() {
        let current = BASE.replace("100", "900");
        let report = compare_texts(BASE, &current, &Tolerances::default()).unwrap();
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn per_metric_override_tightens_one_key() {
        let current = BASE.replace("10.0", "10.8"); // +8%
        let tolerances = Tolerances {
            per_metric: vec![("wall_clock_s".to_string(), 0.05)],
            ..Tolerances::default()
        };
        let report = compare_texts(BASE, &current, &tolerances).unwrap();
        assert_eq!(report.regressions().len(), 1);
    }

    #[test]
    fn direction_parse_round_trips_and_rejects_junk() {
        assert_eq!(Direction::parse("lower"), Ok(Direction::LowerIsBetter));
        assert_eq!(Direction::parse("higher"), Ok(Direction::HigherIsBetter));
        assert_eq!(Direction::parse("info"), Ok(Direction::Informational));
        assert!(Direction::parse("sideways").is_err());
    }

    #[test]
    fn direction_override_gates_an_informational_counter() {
        // `metrics.sat.conflicts` classifies Informational; a lower-is-better
        // override turns its 9x growth into a regression.
        let current = BASE.replace("100", "900");
        let tolerances = Tolerances {
            per_metric_direction: vec![(
                "metrics.sat.conflicts".to_string(),
                Direction::LowerIsBetter,
            )],
            ..Tolerances::default()
        };
        let report = compare_texts(BASE, &current, &tolerances).unwrap();
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "metrics.sat.conflicts");
        assert_eq!(regressions[0].direction, Direction::LowerIsBetter);
    }

    #[test]
    fn direction_override_silences_a_directional_key() {
        let current = BASE.replace("10.0", "30.0"); // 3x wall clock
        let tolerances = Tolerances {
            per_metric_direction: vec![("wall_clock_s".to_string(), Direction::Informational)],
            ..Tolerances::default()
        };
        let report = compare_texts(BASE, &current, &tolerances).unwrap();
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn direction_override_composes_with_tolerance_override() {
        // Gate the counter AND tighten it: +8% crosses a 5% tolerance.
        let current = BASE.replace("100", "108");
        let tolerances = Tolerances {
            per_metric: vec![("metrics.sat.conflicts".to_string(), 0.05)],
            per_metric_direction: vec![(
                "metrics.sat.conflicts".to_string(),
                Direction::LowerIsBetter,
            )],
            ..Tolerances::default()
        };
        let report = compare_texts(BASE, &current, &tolerances).unwrap();
        assert_eq!(report.regressions().len(), 1);
    }

    #[test]
    fn renamed_keys_are_reported_not_flagged() {
        let current = BASE.replace("wall_clock_s", "run_wall_clock_s");
        let report = compare_texts(BASE, &current, &Tolerances::default()).unwrap();
        assert_eq!(report.missing_in_current, ["wall_clock_s"]);
        assert_eq!(report.added_in_current, ["run_wall_clock_s"]);
        assert!(report.regressions().is_empty());
    }
}
