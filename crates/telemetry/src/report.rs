//! The run-report renderer: trace + metrics → deterministic markdown.
//!
//! `syseco report` (and the in-process `--report-out` flag) feed a
//! [`Profile`] and a [`MetricsDoc`] through [`render`] to produce a
//! human-readable post-mortem of one rectification run: a flamegraph-style
//! hot-path table, a per-output cost ranking, a degradation/recovery
//! narrative, and the folded metrics with quantile estimates.
//!
//! **Determinism contract:** the default report contains no wall-clock
//! data — only span counts, deterministic work annotations, counters,
//! gauges, and the deterministic `sat.conflicts_per_call` histogram — so
//! it is byte-identical across `--jobs` values for the same scenario
//! (pinned by `tests/trace_determinism.rs`). Wall-clock columns and the
//! `.us` timing histograms appear only when
//! [`ReportOptions::wall_clock`] is set.

use crate::json;
use crate::names;
use crate::profile::{Profile, ProfileNode};
use crate::{Histogram, MetricsSnapshot};

/// A metrics document in exporter shape: what `metrics.json` holds, and
/// what a live [`MetricsSnapshot`] converts into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDoc {
    /// `(name, value)` counters in export order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges in export order.
    pub gauges: Vec<(String, u64)>,
    /// Histograms in export order.
    pub histograms: Vec<HistogramDoc>,
}

/// One histogram of a [`MetricsDoc`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDoc {
    /// Dotted metric name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Exact observation sum.
    pub sum: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// `(bucket, count)` over non-empty log₂ buckets.
    pub buckets: Vec<(u32, u64)>,
}

impl MetricsDoc {
    /// The value of one counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The value of one gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// One histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramDoc> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

impl From<&MetricsSnapshot> for MetricsDoc {
    fn from(snapshot: &MetricsSnapshot) -> Self {
        MetricsDoc {
            counters: snapshot
                .counters()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
            gauges: snapshot
                .gauges()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
            histograms: Histogram::ALL
                .iter()
                .map(|&h| {
                    let (p50, p90, p99) = snapshot.histogram_percentiles(h);
                    HistogramDoc {
                        name: h.name().to_string(),
                        count: snapshot.histogram_count(h),
                        sum: snapshot.histogram_sum(h),
                        p50,
                        p90,
                        p99,
                        buckets: snapshot
                            .histogram_buckets(h)
                            .iter()
                            .enumerate()
                            .filter(|&(_, &c)| c != 0)
                            .map(|(b, &c)| (b as u32, c))
                            .collect(),
                    }
                })
                .collect(),
        }
    }
}

/// Parses a `metrics.json` document (as written by
/// [`export::metrics_json`](crate::export::metrics_json)) back into a
/// [`MetricsDoc`].
pub fn parse_metrics_json(input: &str) -> Result<MetricsDoc, String> {
    let doc = json::parse(input).map_err(|e| e.to_string())?;
    let section = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_object())
            .ok_or_else(|| format!("metrics document missing object {key:?}"))
    };
    let scalars = |key: &str| -> Result<Vec<(String, u64)>, String> {
        section(key)?
            .iter()
            .map(|(name, value)| {
                value
                    .as_u64()
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("{key}.{name} is not a u64"))
            })
            .collect()
    };
    let mut histograms = Vec::new();
    for (name, value) in section("histograms")? {
        let num = |key: &str| {
            value
                .get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("histogram {name} missing {key}"))
        };
        let buckets = value
            .get("buckets")
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("histogram {name} missing buckets"))?
            .iter()
            .map(|pair| {
                let pair = pair.as_array().filter(|p| p.len() == 2);
                match pair.and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?))) {
                    Some((b, c)) => Ok((b as u32, c)),
                    None => Err(format!("histogram {name} has a malformed bucket")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        histograms.push(HistogramDoc {
            name: name.clone(),
            count: num("count")? as u64,
            sum: num("sum")? as u64,
            p50: num("p50")?,
            p90: num("p90")?,
            p99: num("p99")?,
            buckets,
        });
    }
    Ok(MetricsDoc {
        counters: scalars("counters")?,
        gauges: scalars("gauges")?,
        histograms,
    })
}

/// Rendering options for [`render`].
#[derive(Debug, Clone, Default)]
pub struct ReportOptions {
    /// Include wall-clock columns and timing histograms. These are *not*
    /// deterministic across runs or worker counts.
    pub wall_clock: bool,
    /// Title line; defaults to `syseco run report`.
    pub title: Option<String>,
}

/// Whether a histogram holds wall-clock data (suppressed by default).
fn is_timing(name: &str) -> bool {
    name.ends_with(".us")
}

fn format_args(args: &[(String, u64)]) -> String {
    if args.is_empty() {
        return "—".to_string();
    }
    args.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the markdown run report.
pub fn render(profile: &Profile, metrics: &MetricsDoc, options: &ReportOptions) -> String {
    let mut out = String::new();
    let title = options.title.as_deref().unwrap_or("syseco run report");
    out.push_str(&format!("# {title}\n"));

    // ---- Run summary -------------------------------------------------
    out.push_str("\n## Run summary\n\n| metric | value |\n| --- | ---: |\n");
    let run = profile
        .phase_totals()
        .into_iter()
        .find(|n| n.name == names::SPAN_RUN);
    let run_args = run.map(|n| n.args_u64).unwrap_or_default();
    for key in [
        "outputs_total",
        "outputs_failing",
        "rewired",
        "fallbacks",
        "degradations",
    ] {
        let value = run_args
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        out.push_str(&format!("| {} | {value} |\n", key.replace('_', " ")));
    }
    // Internal equivalences asserted from the run's proof cache, over all
    // asserted (proven by SAT or reused).
    let reused = metrics.counter(names::CEC_REUSED);
    let asserted = reused + metrics.counter(names::CEC_PROOFS);
    let reuse = if asserted == 0 {
        "—".to_string()
    } else {
        format!(
            "{reused} of {asserted} ({:.1}%)",
            100.0 * reused as f64 / asserted as f64
        )
    };
    out.push_str(&format!(
        "| sat conflicts | {} |\n| cec proofs reused | {reuse} |\n| bdd peak nodes | {} |\n",
        metrics.counter(names::SAT_CONFLICTS),
        metrics.gauge(names::BDD_PEAK_NODES),
    ));

    // ---- Hot paths ---------------------------------------------------
    out.push_str("\n## Hot paths\n\n");
    if options.wall_clock {
        out.push_str("| span | count | total µs | self µs | work |\n");
        out.push_str("| --- | ---: | ---: | ---: | --- |\n");
    } else {
        out.push_str("| span | count | work |\n| --- | ---: | --- |\n");
    }
    fn hot_rows(node: &ProfileNode, depth: usize, wall_clock: bool, out: &mut String) {
        let indent = "&nbsp;&nbsp;".repeat(depth);
        if wall_clock {
            out.push_str(&format!(
                "| {indent}`{}` | {} | {} | {} | {} |\n",
                node.name,
                node.count,
                node.total_us,
                node.self_us,
                format_args(&node.args_u64),
            ));
        } else {
            out.push_str(&format!(
                "| {indent}`{}` | {} | {} |\n",
                node.name,
                node.count,
                format_args(&node.args_u64),
            ));
        }
        for child in &node.children {
            hot_rows(child, depth + 1, wall_clock, out);
        }
    }
    for lane_root in &profile.root.children {
        hot_rows(lane_root, 0, options.wall_clock, &mut out);
    }

    // ---- Per-output cost ranking ------------------------------------
    out.push_str("\n## Per-output cost ranking\n\n");
    let mut rows = profile.per_output();
    if rows.is_empty() {
        out.push_str("No per-output searches recorded (fully resumed or trivial run).\n");
    } else {
        rows.sort_by(|a, b| {
            b.sat_conflicts
                .cmp(&a.sat_conflicts)
                .then(b.validations.cmp(&a.validations))
                .then(a.output.cmp(&b.output))
        });
        if options.wall_clock {
            out.push_str(
                "| output | sat conflicts | validations | point sets | choices | refinements | proposal | µs |\n\
                 | --- | ---: | ---: | ---: | ---: | ---: | :-: | ---: |\n",
            );
        } else {
            out.push_str(
                "| output | sat conflicts | validations | point sets | choices | refinements | proposal |\n\
                 | --- | ---: | ---: | ---: | ---: | ---: | :-: |\n",
            );
        }
        for row in &rows {
            let proposal = if row.proposal { "yes" } else { "no" };
            if options.wall_clock {
                out.push_str(&format!(
                    "| `{}` | {} | {} | {} | {} | {} | {} | {} |\n",
                    row.output,
                    row.sat_conflicts,
                    row.validations,
                    row.point_sets,
                    row.choices,
                    row.refinements,
                    proposal,
                    row.dur_us,
                ));
            } else {
                out.push_str(&format!(
                    "| `{}` | {} | {} | {} | {} | {} | {} |\n",
                    row.output,
                    row.sat_conflicts,
                    row.validations,
                    row.point_sets,
                    row.choices,
                    row.refinements,
                    proposal,
                ));
            }
        }
    }

    // ---- Degradations and recovery narrative -------------------------
    out.push_str("\n## Degradations and recovery\n\n");
    let mut narrated = false;
    for span in profile.spans() {
        if span.name == names::SPAN_COMMIT && span.arg_u64("degraded") == Some(1) {
            let output = span.arg_str("output").unwrap_or("?");
            let action = span.arg_str("action").unwrap_or("?");
            let reason = span.arg_str("reason").unwrap_or("unspecified");
            out.push_str(&format!(
                "- output `{output}` degraded to `{action}` ({reason})\n"
            ));
            narrated = true;
        }
    }
    let narratives: [(u64, String); 6] = [
        (
            metrics.counter(names::RECTIFY_MERGE_CONFLICTS),
            format!(
                "- {} proposal(s) invalidated by an earlier merge and re-searched\n",
                metrics.counter(names::RECTIFY_MERGE_CONFLICTS)
            ),
        ),
        (
            metrics.counter(names::CHECKPOINT_HIT),
            format!(
                "- resume skipped {} search(es) via checkpoint; {} result(s) checkpointed\n",
                metrics.counter(names::CHECKPOINT_HIT),
                metrics.counter(names::CHECKPOINT_WRITE)
            ),
        ),
        (
            metrics.counter(names::CACHE_HIT) + metrics.counter(names::CACHE_MISS),
            format!(
                "- persistent cache: {} hit(s), {} miss(es), {} verify-reject(s), {} corrupt segment(s)\n",
                metrics.counter(names::CACHE_HIT),
                metrics.counter(names::CACHE_MISS),
                metrics.counter(names::CACHE_VERIFY_REJECT),
                metrics.counter(names::CACHE_CORRUPT_SEGMENT)
            ),
        ),
        (
            metrics.counter(names::CACHE_RETRY) + metrics.counter(names::CACHE_IO_ERROR),
            format!(
                "- I/O: {} transient retry(ies), {} hard error(s)\n",
                metrics.counter(names::CACHE_RETRY),
                metrics.counter(names::CACHE_IO_ERROR)
            ),
        ),
        (
            metrics.counter(names::FAULT_INJECTED),
            format!(
                "- {} fault(s) fired by the active fault-injection plan\n",
                metrics.counter(names::FAULT_INJECTED)
            ),
        ),
        (
            metrics.counter(names::RECTIFY_REFINEMENTS),
            format!(
                "- {} sampling-domain refinement(s) after false-positive validations\n",
                metrics.counter(names::RECTIFY_REFINEMENTS)
            ),
        ),
    ];
    for (trigger, line) in &narratives {
        if *trigger > 0 {
            out.push_str(line);
            narrated = true;
        }
    }
    if !narrated {
        out.push_str("Clean run: no degradations, retries, faults, or resumes.\n");
    }

    // ---- Metrics -----------------------------------------------------
    out.push_str("\n## Metrics\n\n### Counters\n\n| counter | value |\n| --- | ---: |\n");
    for (name, value) in &metrics.counters {
        if *value > 0 {
            out.push_str(&format!("| `{name}` | {value} |\n"));
        }
    }
    out.push_str("\n### Gauges\n\n| gauge | value |\n| --- | ---: |\n");
    for (name, value) in &metrics.gauges {
        out.push_str(&format!("| `{name}` | {value} |\n"));
    }
    out.push_str("\n### Histograms\n\n");
    out.push_str("| histogram | count | sum | p50 | p90 | p99 |\n");
    out.push_str("| --- | ---: | ---: | ---: | ---: | ---: |\n");
    for h in &metrics.histograms {
        if is_timing(&h.name) && !options.wall_clock {
            // Timing data is nondeterministic; only the observation count
            // is stable across worker counts.
            out.push_str(&format!("| `{}` | {} | — | — | — | — |\n", h.name, h.count));
        } else {
            out.push_str(&format!(
                "| `{}` | {} | {} | {:.1} | {:.1} | {:.1} |\n",
                h.name, h.count, h.sum, h.p50, h.p90, h.p99
            ));
        }
    }
    if !options.wall_clock {
        out.push_str(
            "\nWall-clock data omitted for determinism; re-render with `--wall-clock` to include it.\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ArgValue, SpanRecord};
    use crate::{export, Counter, Gauge, Telemetry};

    fn sample_profile() -> Profile {
        let spans = vec![
            SpanRecord {
                name: "detect",
                cat: "rectify",
                lane: 0,
                start_us: 0,
                dur_us: 5,
                args: vec![],
            },
            SpanRecord {
                name: "commit",
                cat: "rectify",
                lane: 0,
                start_us: 62,
                dur_us: 10,
                args: vec![
                    ("output", ArgValue::Str("y1".into())),
                    ("action", ArgValue::Str("output_rewire".into())),
                    ("degraded", ArgValue::U64(1)),
                    ("reason", ArgValue::Str("budget".into())),
                ],
            },
            SpanRecord {
                name: "merge",
                cat: "rectify",
                lane: 0,
                start_us: 60,
                dur_us: 20,
                args: vec![],
            },
            SpanRecord {
                name: "run",
                cat: "rectify",
                lane: 0,
                start_us: 0,
                dur_us: 100,
                args: vec![
                    ("outputs_total", ArgValue::U64(2)),
                    ("outputs_failing", ArgValue::U64(2)),
                    ("rewired", ArgValue::U64(1)),
                    ("fallbacks", ArgValue::U64(1)),
                    ("degradations", ArgValue::U64(1)),
                ],
            },
            SpanRecord {
                name: "search",
                cat: "rectify",
                lane: 1,
                start_us: 5,
                dur_us: 40,
                args: vec![
                    ("output", ArgValue::Str("y0".into())),
                    ("refinements", ArgValue::U64(0)),
                    ("validations", ArgValue::U64(2)),
                    ("point_sets", ArgValue::U64(3)),
                    ("choices", ArgValue::U64(4)),
                    ("sat_conflicts", ArgValue::U64(11)),
                    ("proposal", ArgValue::U64(1)),
                ],
            },
            SpanRecord {
                name: "search",
                cat: "rectify",
                lane: 2,
                start_us: 5,
                dur_us: 50,
                args: vec![
                    ("output", ArgValue::Str("y1".into())),
                    ("refinements", ArgValue::U64(1)),
                    ("validations", ArgValue::U64(3)),
                    ("point_sets", ArgValue::U64(5)),
                    ("choices", ArgValue::U64(6)),
                    ("sat_conflicts", ArgValue::U64(42)),
                    ("proposal", ArgValue::U64(0)),
                ],
            },
        ];
        Profile::from_spans(&spans)
    }

    fn sample_metrics() -> MetricsDoc {
        let t = Telemetry::enabled();
        let shard = t.shard();
        shard.add(Counter::SatConflicts, 53);
        shard.add(Counter::RectifyValidations, 5);
        shard.add(Counter::CacheRetries, 2);
        shard.add(Counter::CecProofs, 1);
        shard.add(Counter::CecReused, 3);
        shard.gauge_max(Gauge::BddPeakNodes, 1234);
        shard.observe(Histogram::SearchMicros, 40);
        shard.observe(Histogram::SearchMicros, 50);
        shard.observe(Histogram::SatConflictsPerCall, 11);
        MetricsDoc::from(&t.snapshot())
    }

    #[test]
    fn report_ranks_outputs_by_sat_conflicts() {
        let report = render(
            &sample_profile(),
            &sample_metrics(),
            &ReportOptions::default(),
        );
        let y1 = report.find("| `y1` | 42 |").expect("y1 row");
        let y0 = report.find("| `y0` | 11 |").expect("y0 row");
        assert!(y1 < y0, "costlier output must rank first");
        assert!(report.contains("## Hot paths"));
        assert!(report.contains("| outputs total | 2 |"));
        assert!(report.contains("| sat conflicts | 53 |"));
        assert!(report.contains("| cec proofs reused | 3 of 4 (75.0%) |"));
    }

    #[test]
    fn report_narrates_degradations_and_retries() {
        let report = render(
            &sample_profile(),
            &sample_metrics(),
            &ReportOptions::default(),
        );
        assert!(report.contains("- output `y1` degraded to `output_rewire` (budget)"));
        assert!(report.contains("- I/O: 2 transient retry(ies), 0 hard error(s)"));
    }

    #[test]
    fn default_report_has_no_wall_clock_data() {
        let report = render(
            &sample_profile(),
            &sample_metrics(),
            &ReportOptions::default(),
        );
        assert!(!report.contains("µs"), "no µs columns by default");
        // Timing histograms show only their deterministic count.
        assert!(report.contains("| `search.us` | 2 | — | — | — | — |"));
        // The deterministic conflicts-per-call histogram keeps its data.
        assert!(report.contains("| `sat.conflicts_per_call` | 1 | 11 |"));
        assert!(report.contains("Wall-clock data omitted"));

        let wall = render(
            &sample_profile(),
            &sample_metrics(),
            &ReportOptions {
                wall_clock: true,
                ..Default::default()
            },
        );
        assert!(wall.contains("total µs"));
        assert!(wall.contains("| `search.us` | 2 | 90 |"));
    }

    #[test]
    fn clean_run_narrative_collapses_to_one_line() {
        let t = Telemetry::enabled();
        let profile = Profile::from_spans(&[]);
        let report = render(
            &profile,
            &MetricsDoc::from(&t.snapshot()),
            &ReportOptions::default(),
        );
        assert!(report.contains("Clean run: no degradations"));
        assert!(report.contains("No per-output searches recorded"));
    }

    #[test]
    fn metrics_doc_round_trips_through_metrics_json() {
        let t = Telemetry::enabled();
        let shard = t.shard();
        shard.add(Counter::BddApplyHits, 17);
        shard.observe(Histogram::ValidateMicros, 99);
        let snap = t.snapshot();
        let direct = MetricsDoc::from(&snap);
        let parsed = parse_metrics_json(&export::metrics_json(&snap)).unwrap();
        assert_eq!(parsed.counters, direct.counters);
        assert_eq!(parsed.gauges, direct.gauges);
        assert_eq!(parsed.histograms.len(), direct.histograms.len());
        for (a, b) in parsed.histograms.iter().zip(&direct.histograms) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.count, b.count);
            assert_eq!(a.sum, b.sum);
            assert_eq!(a.buckets, b.buckets);
            // Quantiles pass through the {:.1} rendering, so compare at
            // that precision.
            assert!((a.p50 - b.p50).abs() < 0.06, "{} p50", a.name);
            assert!((a.p99 - b.p99).abs() < 0.06, "{} p99", a.name);
        }
    }

    #[test]
    fn report_from_parsed_artifacts_matches_report_from_live_data() {
        // The CLI path: spans → JSONL → parse → profile must render the
        // same report as the in-process path.
        let profile = sample_profile();
        let metrics = sample_metrics();
        let live = render(&profile, &metrics, &ReportOptions::default());

        let jsonl: String = profile
            .spans()
            .iter()
            .map(|s| {
                let mut record = format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"lane\":{},\"ts_us\":{},\"dur_us\":{}",
                    s.name, s.cat, s.lane, s.start_us, s.dur_us
                );
                if !s.args_u64.is_empty() || !s.args_str.is_empty() {
                    record.push_str(",\"args\":{");
                    let mut parts: Vec<String> = s
                        .args_str
                        .iter()
                        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
                        .collect();
                    parts.extend(s.args_u64.iter().map(|(k, v)| format!("\"{k}\":{v}")));
                    record.push_str(&parts.join(","));
                    record.push('}');
                }
                record.push('}');
                record.push('\n');
                record
            })
            .collect();
        let reparsed = Profile::from_owned(crate::profile::parse_spans_jsonl(&jsonl).unwrap());
        let from_files = render(&reparsed, &metrics, &ReportOptions::default());
        assert_eq!(live, from_files);
    }
}
