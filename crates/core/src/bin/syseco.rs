//! Command-line front end for the syseco engine.
//!
//! ```text
//! syseco stats   <design.blif>
//! syseco check   <impl.blif> <spec.blif>
//! syseco rectify <impl.blif> <spec.blif> [--engine syseco|deltasyn|cone]
//!                [--out patched.blif] [--seed N] [--samples N]
//!                [--level-driven] [--timeout SECS] [--jobs N] [--progress]
//!                [--cache-dir DIR] [--cache off|ro|rw]
//!                [--checkpoint-dir DIR]
//!                [--trace-out FILE] [--metrics-out FILE]
//!                [--report-out FILE] [--openmetrics-out FILE]
//!                [--log-format human|json]
//! syseco report  <trace.jsonl> [--metrics metrics.json] [--out FILE]
//!                [--wall-clock] [--title STRING]
//! syseco --help
//! ```
//!
//! `--jobs N` sets the worker-thread count for the per-output searches
//! (`0` = available parallelism; the patch is identical for every value).
//! `--cache-dir DIR` enables the persistent incremental-ECO cache
//! (DESIGN.md §11): repeated and revision-chain runs warm-start from
//! recorded results, with every reused record re-verified before use.
//! `--cache off|ro|rw` sets how the directory is used (default `rw`;
//! `--engine syseco` only).
//! `--checkpoint-dir DIR` enables crash-safe checkpointing (DESIGN.md
//! §13): per-output results are durably recorded as they complete, so a
//! rerun of a killed process resumes the finished outputs, re-verifies
//! them, and produces the same patch the uninterrupted run would have
//! (`--engine syseco` only).
//! `--progress` prints a live per-cone status line to stderr as searches
//! start, finish, and merge; with `--log-format json` each line is one
//! JSON object instead (see [`ProgressEvent::to_json`]).
//!
//! `--trace-out FILE` records structured spans and writes them on exit:
//! Chrome trace-event JSON (load in `chrome://tracing` or Perfetto) by
//! default, span-per-line JSONL when `FILE` ends in `.jsonl`.
//! `--metrics-out FILE` writes the metrics registry (SAT conflict
//! counts, search counts, search/validate timing histograms) as JSON. `--report-out FILE` renders the deterministic markdown run
//! report (DESIGN.md §14) directly from the run's spans and metrics.
//! `--openmetrics-out FILE` writes the metrics registry in OpenMetrics
//! text exposition format for scrape-style collection. All four are
//! `--engine syseco` only.
//!
//! `syseco report` re-renders the same markdown report offline from a
//! previously written span JSONL file (`--trace-out FILE.jsonl`) and,
//! optionally, a metrics JSON file. The default report contains no
//! wall-clock data, so it is byte-identical for any `--jobs` value and
//! across checkpoint kill/resume; `--wall-clock` opts into timing
//! columns.
//!
//! Designs are read and written in the BLIF-style format of
//! [`eco_netlist::io`].
//!
//! Exit codes: 0 success (and `--help`), 1 verification failure or a fatal
//! error (an unreadable design, an engine error), 2 usage error, 3 the run
//! completed but degraded (budget ran out or a per-output search was cut
//! short; the patch is still verified for every output it claims to fix).

use std::process::ExitCode;

use eco_netlist::{read_blif, write_blif, Circuit, CircuitStats};
use syseco::baseline::{cone, deltasyn};
use syseco::budget::span_from_secs;
use syseco::correspond::Correspondence;
use syseco::error_domain::{classify_outputs, Equivalence};
use syseco::telemetry::export::{chrome_trace, metrics_json, openmetrics, spans_jsonl};
use syseco::telemetry::profile::{parse_spans_jsonl, Profile};
use syseco::telemetry::report::{parse_metrics_json, render, MetricsDoc, ReportOptions};
use syseco::{Budget, EcoOptions, ProgressEvent, Session, Telemetry};

fn load(path: &str) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    read_blif(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

const USAGE: &str = "\
usage:
  syseco stats   <design.blif>
  syseco check   <impl.blif> <spec.blif>
  syseco rectify <impl.blif> <spec.blif> [--engine syseco|deltasyn|cone]
                 [--out patched.blif] [--seed N] [--samples N] [--level-driven]
                 [--timeout SECS] [--jobs N] [--progress]
                 [--cache-dir DIR] [--cache off|ro|rw] [--checkpoint-dir DIR]
                 [--trace-out FILE] [--metrics-out FILE]
                 [--report-out FILE] [--openmetrics-out FILE] [--log-format human|json]
  syseco report  <trace.jsonl> [--metrics metrics.json] [--out FILE]
                 [--wall-clock] [--title STRING]
  syseco --help";

/// Why [`run`] produced no exit code of its own: a command line it cannot
/// act on (exit 2, with the usage text) or a fatal error while acting on
/// one (exit 1).
enum Failure {
    Usage(String),
    Fatal(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Fatal(message)
    }
}

/// Parses a flag's value; a value that does not parse is a usage error.
fn parsed<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, Failure>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| Failure::Usage(format!("{flag} {raw:?}: {e}")))
}

/// Machine-readable progress: one JSON object per line on stderr
/// (`--progress --log-format json`).
fn print_progress_json(event: &ProgressEvent) {
    eprintln!("{}", event.to_json());
}

/// Live per-cone status lines on stderr (`--progress`).
fn print_progress(event: &ProgressEvent) {
    match event {
        ProgressEvent::RunStarted {
            outputs_total,
            outputs_failing,
            jobs,
        } => eprintln!(
            "[syseco] {outputs_failing} of {outputs_total} outputs failing, {jobs} worker(s)"
        ),
        ProgressEvent::OutputStarted {
            output,
            position,
            failing_total,
        } => eprintln!(
            "[syseco] [{}/{failing_total}] {output}: searching",
            position + 1
        ),
        ProgressEvent::OutputSearched {
            output,
            position,
            search,
            proposal,
        } => eprintln!(
            "[syseco] [{}] {output}: search finished in {search:.1?} ({})",
            position + 1,
            if *proposal {
                "proposal found"
            } else {
                "fallback needed"
            }
        ),
        ProgressEvent::OutputRectified {
            output,
            action,
            degraded,
            ..
        } => eprintln!(
            "[syseco] {output}: {action}{}",
            if *degraded { " (degraded)" } else { "" }
        ),
        ProgressEvent::RunFinished {
            duration,
            degradations,
        } => eprintln!("[syseco] run finished in {duration:.1?}, {degradations} degradation(s)"),
        _ => {}
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Fatal(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Failure> {
    let usage = |what: &str| Err(Failure::Usage(what.to_string()));
    let Some(command) = args.first() else {
        return usage("missing command");
    };
    match command.as_str() {
        "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        "stats" => {
            let [_, path] = args else {
                return usage("stats takes one design");
            };
            let c = load(path)?;
            println!("{}: {}", c.name(), CircuitStats::of(&c));
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let [_, impl_path, spec_path] = args else {
                return usage("check takes an implementation and a specification");
            };
            let implementation = load(impl_path)?;
            let spec = load(spec_path)?;
            let corr = Correspondence::build(&implementation, &spec).map_err(|e| e.to_string())?;
            let verdicts = classify_outputs(&implementation, &spec, &corr, None, None)
                .map_err(|e| e.to_string())?;
            let mut failing = 0;
            for (pair, verdict) in corr.outputs.iter().zip(&verdicts) {
                match verdict {
                    Equivalence::Equivalent => {}
                    Equivalence::Counterexample(x) => {
                        failing += 1;
                        println!("output {:<24} DIFFERS  (witness {:?})", pair.name, x);
                    }
                    Equivalence::Unknown => {
                        failing += 1;
                        println!("output {:<24} UNKNOWN", pair.name);
                    }
                }
            }
            println!("{} of {} outputs differ", failing, corr.outputs.len());
            Ok(if failing == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "rectify" => {
            let [_, impl_path, spec_path, flags @ ..] = args else {
                return usage("rectify takes an implementation and a specification");
            };
            let mut engine = "syseco";
            let mut out_path: Option<&String> = None;
            let mut trace_out: Option<&String> = None;
            let mut metrics_out: Option<&String> = None;
            let mut report_out: Option<&String> = None;
            let mut openmetrics_out: Option<&String> = None;
            let mut json_log = false;
            let mut progress = false;
            let mut builder = EcoOptions::builder();
            let mut flags = flags.iter();
            while let Some(flag) = flags.next() {
                let mut value = || {
                    flags
                        .next()
                        .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
                };
                match flag.as_str() {
                    "--engine" => engine = value()?.as_str(),
                    "--out" => out_path = Some(value()?),
                    "--trace-out" => trace_out = Some(value()?),
                    "--metrics-out" => metrics_out = Some(value()?),
                    "--report-out" => report_out = Some(value()?),
                    "--openmetrics-out" => openmetrics_out = Some(value()?),
                    "--log-format" => {
                        json_log = match value()?.as_str() {
                            "human" => false,
                            "json" => true,
                            other => {
                                return usage(&format!(
                                    "unknown log format {other:?} (expected human or json)"
                                ))
                            }
                        }
                    }
                    "--seed" => builder = builder.seed(parsed(flag, value()?)?),
                    "--samples" => builder = builder.num_samples(parsed(flag, value()?)?),
                    "--jobs" => builder = builder.jobs(parsed(flag, value()?)?),
                    "--cache-dir" => builder = builder.cache_dir(value()?),
                    "--checkpoint-dir" => builder = builder.checkpoint_dir(value()?),
                    "--cache" => builder = builder.cache_mode(parsed(flag, value()?)?),
                    "--level-driven" => builder = builder.level_driven(true),
                    "--progress" => progress = true,
                    "--timeout" => {
                        let raw = value()?;
                        let secs: f64 = parsed(flag, raw)?;
                        let Some(timeout) = span_from_secs(secs).filter(|_| secs > 0.0) else {
                            return usage(&format!(
                                "--timeout {raw}: must be a positive number of seconds a \
                                 deadline can hold"
                            ));
                        };
                        builder = builder.timeout(timeout);
                    }
                    other => return usage(&format!("unknown flag {other:?}")),
                }
            }
            if !["syseco", "deltasyn", "cone"].contains(&engine) {
                return usage(&format!(
                    "unknown engine {engine:?} (expected syseco, deltasyn or cone)"
                ));
            }
            let options = builder.build();
            let (cache_dir, checkpoint_dir) = (
                options.cache_dir.is_some(),
                options.checkpoint_dir.is_some(),
            );
            let syseco_only = [
                ("--trace-out", trace_out.is_some()),
                ("--metrics-out", metrics_out.is_some()),
                ("--report-out", report_out.is_some()),
                ("--openmetrics-out", openmetrics_out.is_some()),
                ("--cache-dir", cache_dir),
                ("--checkpoint-dir", checkpoint_dir),
            ];
            if let Some((flag, _)) = syseco_only
                .iter()
                .find(|&&(_, set)| set && engine != "syseco")
            {
                return usage(&format!("{flag} requires --engine syseco, got {engine:?}"));
            }
            let implementation = load(impl_path)?;
            let spec = load(spec_path)?;
            let timeout = options.timeout;
            let telemetry = if trace_out.is_some()
                || metrics_out.is_some()
                || report_out.is_some()
                || openmetrics_out.is_some()
            {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            let result = match engine {
                "deltasyn" => {
                    deltasyn::rectify(&implementation, &spec).map_err(|e| e.to_string())?
                }
                "cone" => cone::rectify(&implementation, &spec).map_err(|e| e.to_string())?,
                _ => {
                    let mut session = Session::new(options).with_telemetry(&telemetry);
                    if progress {
                        session = if json_log {
                            session.on_progress(print_progress_json)
                        } else {
                            session.on_progress(print_progress)
                        };
                    }
                    session
                        .run(&implementation, &spec)
                        .map_err(|e| e.to_string())?
                }
            };
            if let Some(path) = &trace_out {
                let rendered = if path.ends_with(".jsonl") {
                    spans_jsonl(&result.trace, false)
                } else {
                    chrome_trace(&result.trace)
                };
                std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("trace written to {path} ({} spans)", result.trace.len());
            }
            if let Some(path) = &metrics_out {
                std::fs::write(path, metrics_json(&telemetry.snapshot()))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("metrics written to {path}");
            }
            if let Some(path) = &openmetrics_out {
                std::fs::write(path, openmetrics(&telemetry.snapshot()))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("openmetrics written to {path}");
            }
            if let Some(path) = &report_out {
                let profile = Profile::from_spans(&result.trace);
                let doc = MetricsDoc::from(&telemetry.snapshot());
                let rendered = render(&profile, &doc, &ReportOptions::default());
                std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("run report written to {path}");
            }
            println!("engine {engine} finished in {:?}", result.runtime);
            if cache_dir {
                let r = &result.rectify;
                println!(
                    "cache: {} hit(s), {} miss(es), {} verify-reject(s), {} corrupt segment(s)",
                    r.cache_hits, r.cache_misses, r.cache_verify_rejects, r.cache_corrupt_segments
                );
            }
            if checkpoint_dir {
                let r = &result.rectify;
                println!(
                    "checkpoint: {} output(s) resumed, {} record(s) written",
                    r.checkpoint_hits, r.checkpoint_writes
                );
            }
            print!(
                "{}",
                syseco::patch::render_report(&result.patch, &result.patched)
            );
            let degradations = &result.rectify.degradations;
            if !degradations.is_empty() {
                println!("degraded outputs ({}):", degradations.len());
                for d in degradations {
                    println!("  {d}");
                }
            }
            // Verification gets its own budget window, so even a timed-out
            // run terminates within roughly twice the requested timeout.
            let verify_budget = match timeout {
                Some(t) => Budget::with_deadline(t),
                None => Budget::unlimited(),
            };
            let corr = Correspondence::build(&result.patched, &spec).map_err(|e| e.to_string())?;
            let verdicts =
                classify_outputs(&result.patched, &spec, &corr, None, Some(&verify_budget))
                    .map_err(|e| e.to_string())?;
            let differs = verdicts
                .iter()
                .filter(|v| matches!(v, Equivalence::Counterexample(_)))
                .count();
            let unknown = verdicts
                .iter()
                .filter(|v| matches!(v, Equivalence::Unknown))
                .count();
            if differs > 0 {
                println!("verification: FAIL ({differs} outputs differ)");
            } else if unknown > 0 {
                println!("verification: UNKNOWN ({unknown} outputs unresolved within budget)");
            } else {
                println!("verification: PASS");
            }
            if let Some(path) = out_path {
                std::fs::write(path, write_blif(&result.patched))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("patched design written to {path}");
            }
            Ok(if differs > 0 {
                ExitCode::FAILURE
            } else if unknown > 0 || !degradations.is_empty() {
                // Degraded but honest: every output the patch claims to fix
                // verified equivalent, yet the run was cut short somewhere.
                ExitCode::from(3)
            } else {
                ExitCode::SUCCESS
            })
        }
        "report" => {
            let [_, trace_path, flags @ ..] = args else {
                return usage("report takes a trace");
            };
            let mut metrics_path: Option<String> = None;
            let mut out_path: Option<String> = None;
            let mut options = ReportOptions::default();
            let mut flags = flags.iter();
            while let Some(flag) = flags.next() {
                let mut value = || {
                    flags
                        .next()
                        .cloned()
                        .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
                };
                match flag.as_str() {
                    "--metrics" => metrics_path = Some(value()?),
                    "--out" => out_path = Some(value()?),
                    "--title" => options.title = Some(value()?),
                    "--wall-clock" => options.wall_clock = true,
                    other => return usage(&format!("unknown flag {other:?}")),
                }
            }
            let trace_text = std::fs::read_to_string(trace_path)
                .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
            let spans = parse_spans_jsonl(&trace_text)
                .map_err(|e| format!("cannot parse {trace_path}: {e}"))?;
            let profile = Profile::from_owned(spans);
            let doc = match &metrics_path {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    parse_metrics_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))?
                }
                None => MetricsDoc::default(),
            };
            let rendered = render(&profile, &doc, &options);
            match out_path {
                Some(path) => {
                    std::fs::write(&path, rendered)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("run report written to {path}");
                }
                None => print!("{rendered}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        other => usage(&format!("unknown command {other:?}")),
    }
}
