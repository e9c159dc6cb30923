//! Exporters: span JSONL, Chrome `chrome://tracing` JSON, metrics JSON.
//!
//! All writers are hand-rolled (this crate is zero-dependency); strings are
//! escaped per JSON (RFC 8259) and every document is plain ASCII-safe
//! UTF-8.

use crate::metrics::{Histogram, MetricsSnapshot, NUM_BUCKETS};
use crate::span::{ArgValue, SpanRecord};

/// Appends `s` to `out` as a JSON string literal (quotes included).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders `s` as a JSON string literal, quotes included — the escaping
/// building block shared with embedders that emit their own JSON lines
/// (the CLI's `--log-format json` progress stream uses it).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

fn push_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, key);
        out.push(':');
        match value {
            ArgValue::U64(n) => out.push_str(&n.to_string()),
            ArgValue::Str(s) => push_json_str(out, s),
        }
    }
    out.push('}');
}

/// Renders spans as JSONL: one object per line, in record order, with keys
/// `name`, `cat`, `lane`, `ts_us`, `dur_us`, and (when present) `args`.
///
/// With `normalize_time`, `ts_us`/`dur_us` are emitted as 0 — the form used
/// by the trace-determinism test, where everything except wall-clock must
/// be identical across worker counts.
pub fn spans_jsonl(spans: &[SpanRecord], normalize_time: bool) -> String {
    let mut out = String::new();
    for span in spans {
        out.push_str("{\"name\":");
        push_json_str(&mut out, span.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, span.cat);
        out.push_str(&format!(",\"lane\":{}", span.lane));
        let (ts, dur) = if normalize_time {
            (0, 0)
        } else {
            (span.start_us, span.dur_us)
        };
        out.push_str(&format!(",\"ts_us\":{ts},\"dur_us\":{dur}"));
        if !span.args.is_empty() {
            out.push_str(",\"args\":");
            push_args(&mut out, &span.args);
        }
        out.push_str("}\n");
    }
    out
}

/// Renders spans in the Chrome trace-event format (load via
/// `chrome://tracing` or <https://ui.perfetto.dev>): one `"X"` complete
/// event per span, `pid` 1, `tid` = lane, timestamps in µs.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"ph\":\"X\",\"pid\":1,");
        out.push_str(&format!(
            "\"tid\":{},\"ts\":{},\"dur\":{},",
            span.lane, span.start_us, span.dur_us
        ));
        out.push_str("\"name\":");
        push_json_str(&mut out, span.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, span.cat);
        if !span.args.is_empty() {
            out.push_str(",\"args\":");
            push_args(&mut out, &span.args);
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders a metrics snapshot as one JSON document:
///
/// ```json
/// {
///   "counters": {"sat.conflicts": 123, ...},
///   "gauges": {"bdd.peak_nodes": 456, ...},
///   "histograms": {
///     "search.us": {"count": 3, "sum": 18432, "p50": 95.5, "p90": 120.7,
///                   "p99": 126.4, "buckets": [[13, 2], [14, 1]]}
///   }
/// }
/// ```
///
/// Histogram buckets are `[bucket_index, count]` pairs over non-empty
/// buckets only; bucket `b ≥ 1` covers values in `[2^(b-1), 2^b)`. `sum`
/// is the exact sum of observations; `p50`/`p90`/`p99` are log₂-bucket
/// quantile estimates rendered to one decimal place.
pub fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, value)) in snapshot.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_str(&mut out, name);
        out.push_str(&format!(": {value}"));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, value)) in snapshot.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_str(&mut out, name);
        out.push_str(&format!(": {value}"));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, &h) in Histogram::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_str(&mut out, h.name());
        let (p50, p90, p99) = snapshot.histogram_percentiles(h);
        out.push_str(&format!(
            ": {{\"count\": {}, \"sum\": {}, \"p50\": {p50:.1}, \"p90\": {p90:.1}, \"p99\": {p99:.1}, \"buckets\": [",
            snapshot.histogram_count(h),
            snapshot.histogram_sum(h),
        ));
        let buckets = snapshot.histogram_buckets(h);
        let mut first = true;
        for (b, &count) in buckets.iter().enumerate().take(NUM_BUCKETS) {
            if count == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("[{b}, {count}]"));
        }
        out.push_str("]}");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// An exported metric name in OpenMetrics form: `syseco_` prefix, dots
/// replaced by underscores (`sat.conflicts` → `syseco_sat_conflicts`).
pub fn openmetrics_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("syseco_");
    for c in name.chars() {
        out.push(if c == '.' { '_' } else { c });
    }
    out
}

/// Renders a metrics snapshot in the OpenMetrics text exposition format —
/// the scrape format for the planned `syseco-serve` daemon.
///
/// Mapping (documented in DESIGN.md §14): every name gets a `syseco_`
/// prefix with dots replaced by underscores; counters expose
/// `<name>_total`; gauges expose `<name>`; histograms expose cumulative
/// `<name>_bucket{le="..."}` series (log₂ bucket `b`'s upper bound is
/// `2^b − 1`, bucket 0's is `0`), a `+Inf` bucket, `<name>_sum`, and
/// `<name>_count`. The document ends with the mandatory `# EOF`.
pub fn openmetrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in snapshot.counters() {
        let om = openmetrics_name(name);
        out.push_str(&format!("# TYPE {om} counter\n{om}_total {value}\n"));
    }
    for (name, value) in snapshot.gauges() {
        let om = openmetrics_name(name);
        out.push_str(&format!("# TYPE {om} gauge\n{om} {value}\n"));
    }
    for &h in Histogram::ALL {
        let om = openmetrics_name(h.name());
        out.push_str(&format!("# TYPE {om} histogram\n"));
        let buckets = snapshot.histogram_buckets(h);
        let highest = buckets.iter().rposition(|&c| c != 0);
        let mut cumulative = 0u64;
        if let Some(top) = highest {
            for (b, &count) in buckets.iter().enumerate().take(top + 1) {
                cumulative += count;
                let le = if b == 0 { 0 } else { (1u64 << b) - 1 };
                out.push_str(&format!("{om}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
        }
        out.push_str(&format!(
            "{om}_bucket{{le=\"+Inf\"}} {cum}\n{om}_sum {sum}\n{om}_count {cum}\n",
            cum = cumulative,
            sum = snapshot.histogram_sum(h),
        ));
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Telemetry};

    fn sample_spans() -> Vec<SpanRecord> {
        let t = Telemetry::enabled();
        let mut buf = t.buffer(1);
        let tok = buf.start();
        buf.end_with(tok, "search", "rectify", || {
            vec![
                ("output", ArgValue::Str("y\"1\n".into())),
                ("validations", ArgValue::U64(3)),
            ]
        });
        let tok = buf.start();
        buf.end(tok, "merge", "rectify");
        buf.into_spans()
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_schema_keys() {
        let out = spans_jsonl(&sample_spans(), false);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            for key in [
                "\"name\":",
                "\"cat\":",
                "\"lane\":",
                "\"ts_us\":",
                "\"dur_us\":",
            ] {
                assert!(line.contains(key), "{line} missing {key}");
            }
        }
        assert!(lines[0].contains("\"output\":\"y\\\"1\\n\""));
        assert!(lines[0].contains("\"validations\":3"));
        assert!(!lines[1].contains("args"));
    }

    #[test]
    fn jsonl_normalization_zeroes_time_only() {
        let spans = sample_spans();
        let out = spans_jsonl(&spans, true);
        assert!(out.contains("\"ts_us\":0,\"dur_us\":0"));
        assert!(out.contains("\"name\":\"search\""));
    }

    #[test]
    fn chrome_trace_wraps_complete_events() {
        let out = chrome_trace(&sample_spans());
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"pid\":1"));
        assert!(out.contains("\"tid\":1"));
        assert!(out.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(out.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let out = chrome_trace(&[]);
        assert!(out.contains("\"traceEvents\":["));
        assert_eq!(spans_jsonl(&[], false), "");
    }

    #[test]
    fn metrics_json_lists_every_metric() {
        let t = Telemetry::enabled();
        t.add(Counter::SatConflicts, 9);
        t.gauge_max(Gauge::BddPeakNodes, 5);
        t.observe(crate::Histogram::SearchMicros, 100);
        let out = metrics_json(&t.snapshot());
        assert!(out.contains("\"sat.conflicts\": 9"));
        assert!(out.contains("\"bdd.peak_nodes\": 5"));
        // One observation of 100 lands in bucket 7 = [64, 127]; the
        // quantile estimates interpolate inside that bucket.
        assert!(out.contains(
            "\"search.us\": {\"count\": 1, \"sum\": 100, \"p50\": 95.5, \
             \"p90\": 120.7, \"p99\": 126.4, \"buckets\": [[7, 1]]}"
        ));
        for c in Counter::ALL {
            assert!(out.contains(c.name()), "missing {}", c.name());
        }
    }

    #[test]
    fn openmetrics_names_mangle_dots() {
        assert_eq!(openmetrics_name("sat.conflicts"), "syseco_sat_conflicts");
        assert_eq!(openmetrics_name("bdd.apply.hits"), "syseco_bdd_apply_hits");
    }

    #[test]
    fn openmetrics_exposes_counters_gauges_histograms_and_eof() {
        let t = Telemetry::enabled();
        t.add(Counter::SatConflicts, 9);
        t.gauge_max(Gauge::BddPeakNodes, 5);
        t.observe(crate::Histogram::SearchMicros, 100);
        t.observe(crate::Histogram::SearchMicros, 3);
        let out = openmetrics(&t.snapshot());
        assert!(out.contains("# TYPE syseco_sat_conflicts counter\n"));
        assert!(out.contains("syseco_sat_conflicts_total 9\n"));
        assert!(out.contains("# TYPE syseco_bdd_peak_nodes gauge\n"));
        assert!(out.contains("syseco_bdd_peak_nodes 5\n"));
        assert!(out.contains("# TYPE syseco_search_us histogram\n"));
        // 3 is bucket 2 (le 3), 100 is bucket 7 (le 127); series are
        // cumulative.
        assert!(out.contains("syseco_search_us_bucket{le=\"3\"} 1\n"));
        assert!(out.contains("syseco_search_us_bucket{le=\"127\"} 2\n"));
        assert!(out.contains("syseco_search_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(out.contains("syseco_search_us_sum 103\n"));
        assert!(out.contains("syseco_search_us_count 2\n"));
        assert!(out.ends_with("# EOF\n"));
        // An empty histogram still exposes +Inf/sum/count.
        assert!(out.contains("syseco_validate_us_bucket{le=\"+Inf\"} 0\n"));
        assert!(out.contains("syseco_validate_us_sum 0\n"));
    }

    #[test]
    fn json_escaping_covers_control_chars() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
