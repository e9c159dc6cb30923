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
//! `--metrics-out FILE` writes the folded metrics registry (SAT conflict
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
//! Exit codes: 0 success, 1 verification failure, 2 usage error, 3 the run
//! completed but degraded (budget ran out or a per-output search was cut
//! short; the patch is still verified for every output it claims to fix).

use std::process::ExitCode;

use eco_netlist::{read_blif, write_blif, Circuit, CircuitStats};
use syseco::baseline::{cone, deltasyn};
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

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  syseco stats   <design.blif>\n  syseco check   <impl.blif> <spec.blif>\n  \
         syseco rectify <impl.blif> <spec.blif> [--engine syseco|deltasyn|cone]\n                 \
         [--out patched.blif] [--seed N] [--samples N] [--level-driven]\n                 \
         [--timeout SECS] [--jobs N] [--progress]\n                 \
         [--cache-dir DIR] [--cache off|ro|rw] [--checkpoint-dir DIR]\n                 \
         [--trace-out FILE] [--metrics-out FILE]\n                 \
         [--report-out FILE] [--openmetrics-out FILE] [--log-format human|json]\n  \
         syseco report  <trace.jsonl> [--metrics metrics.json] [--out FILE]\n                 \
         [--wall-clock] [--title STRING]"
    );
    ExitCode::from(2)
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
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Ok(usage());
    };
    match command.as_str() {
        "stats" => {
            let [_, path] = args else { return Ok(usage()) };
            let c = load(path)?;
            println!("{}: {}", c.name(), CircuitStats::of(&c));
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let [_, impl_path, spec_path] = args else {
                return Ok(usage());
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
            if args.len() < 3 {
                return Ok(usage());
            }
            let implementation = load(&args[1])?;
            let spec = load(&args[2])?;
            let mut engine_name = "syseco".to_string();
            let mut out_path: Option<String> = None;
            let mut trace_out: Option<String> = None;
            let mut metrics_out: Option<String> = None;
            let mut report_out: Option<String> = None;
            let mut openmetrics_out: Option<String> = None;
            let mut cache_dir: Option<String> = None;
            let mut checkpoint_dir: Option<String> = None;
            let mut json_log = false;
            let mut progress = false;
            let mut builder = EcoOptions::builder();
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--engine" => {
                        engine_name = args.get(i + 1).cloned().ok_or("--engine needs a value")?;
                        i += 2;
                    }
                    "--out" => {
                        out_path = Some(args.get(i + 1).cloned().ok_or("--out needs a value")?);
                        i += 2;
                    }
                    "--trace-out" => {
                        trace_out = Some(
                            args.get(i + 1)
                                .cloned()
                                .ok_or("--trace-out needs a value")?,
                        );
                        i += 2;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(
                            args.get(i + 1)
                                .cloned()
                                .ok_or("--metrics-out needs a value")?,
                        );
                        i += 2;
                    }
                    "--report-out" => {
                        report_out = Some(
                            args.get(i + 1)
                                .cloned()
                                .ok_or("--report-out needs a value")?,
                        );
                        i += 2;
                    }
                    "--openmetrics-out" => {
                        openmetrics_out = Some(
                            args.get(i + 1)
                                .cloned()
                                .ok_or("--openmetrics-out needs a value")?,
                        );
                        i += 2;
                    }
                    "--log-format" => {
                        match args
                            .get(i + 1)
                            .ok_or("--log-format needs a value")?
                            .as_str()
                        {
                            "human" => json_log = false,
                            "json" => json_log = true,
                            other => {
                                return Err(format!(
                                    "unknown log format {other:?} (expected human or json)"
                                ))
                            }
                        }
                        i += 2;
                    }
                    "--seed" => {
                        builder = builder.seed(
                            args.get(i + 1)
                                .ok_or("--seed needs a value")?
                                .parse()
                                .map_err(|e| format!("bad seed: {e}"))?,
                        );
                        i += 2;
                    }
                    "--samples" => {
                        builder = builder.num_samples(
                            args.get(i + 1)
                                .ok_or("--samples needs a value")?
                                .parse()
                                .map_err(|e| format!("bad sample count: {e}"))?,
                        );
                        i += 2;
                    }
                    "--jobs" => {
                        builder = builder.jobs(
                            args.get(i + 1)
                                .ok_or("--jobs needs a value")?
                                .parse()
                                .map_err(|e| format!("bad job count: {e}"))?,
                        );
                        i += 2;
                    }
                    "--cache-dir" => {
                        cache_dir = Some(
                            args.get(i + 1)
                                .cloned()
                                .ok_or("--cache-dir needs a value")?,
                        );
                        builder = builder.cache_dir(cache_dir.clone().unwrap());
                        i += 2;
                    }
                    "--checkpoint-dir" => {
                        checkpoint_dir = Some(
                            args.get(i + 1)
                                .cloned()
                                .ok_or("--checkpoint-dir needs a value")?,
                        );
                        builder = builder.checkpoint_dir(checkpoint_dir.clone().unwrap());
                        i += 2;
                    }
                    "--cache" => {
                        let mode: syseco::CacheMode = args
                            .get(i + 1)
                            .ok_or("--cache needs a value")?
                            .parse()
                            .map_err(|e| format!("bad cache mode: {e}"))?;
                        builder = builder.cache_mode(mode);
                        i += 2;
                    }
                    "--level-driven" => {
                        builder = builder.level_driven(true);
                        i += 1;
                    }
                    "--progress" => {
                        progress = true;
                        i += 1;
                    }
                    "--timeout" => {
                        let secs: f64 = args
                            .get(i + 1)
                            .ok_or("--timeout needs a value")?
                            .parse()
                            .map_err(|e| format!("bad timeout: {e}"))?;
                        if !secs.is_finite() || secs <= 0.0 {
                            return Err("timeout must be a positive number of seconds".into());
                        }
                        builder = builder.timeout(std::time::Duration::from_secs_f64(secs));
                        i += 2;
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            let options = builder.build();
            let timeout = options.timeout;
            let telemetry_requested = trace_out.is_some()
                || metrics_out.is_some()
                || report_out.is_some()
                || openmetrics_out.is_some();
            if telemetry_requested && engine_name != "syseco" {
                return Err(format!(
                    "--trace-out/--metrics-out/--report-out/--openmetrics-out require \
                     --engine syseco, got {engine_name:?}"
                ));
            }
            if cache_dir.is_some() && engine_name != "syseco" {
                return Err(format!(
                    "--cache-dir requires --engine syseco, got {engine_name:?}"
                ));
            }
            if checkpoint_dir.is_some() && engine_name != "syseco" {
                return Err(format!(
                    "--checkpoint-dir requires --engine syseco, got {engine_name:?}"
                ));
            }
            let telemetry = if telemetry_requested {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            let result = match engine_name.as_str() {
                "syseco" => {
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
                "deltasyn" => {
                    deltasyn::rectify(&implementation, &spec).map_err(|e| e.to_string())?
                }
                "cone" => cone::rectify(&implementation, &spec).map_err(|e| e.to_string())?,
                other => return Err(format!("unknown engine {other:?}")),
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
            println!("engine {engine_name} finished in {:?}", result.runtime);
            if cache_dir.is_some() {
                let r = &result.rectify;
                println!(
                    "cache: {} hit(s), {} miss(es), {} verify-reject(s), {} corrupt segment(s)",
                    r.cache_hits, r.cache_misses, r.cache_verify_rejects, r.cache_corrupt_segments
                );
            }
            if checkpoint_dir.is_some() {
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
                std::fs::write(&path, write_blif(&result.patched))
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
            if args.len() < 2 {
                return Ok(usage());
            }
            let trace_path = &args[1];
            let mut metrics_path: Option<String> = None;
            let mut out_path: Option<String> = None;
            let mut options = ReportOptions::default();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--metrics" => {
                        metrics_path =
                            Some(args.get(i + 1).cloned().ok_or("--metrics needs a value")?);
                        i += 2;
                    }
                    "--out" => {
                        out_path = Some(args.get(i + 1).cloned().ok_or("--out needs a value")?);
                        i += 2;
                    }
                    "--title" => {
                        options.title =
                            Some(args.get(i + 1).cloned().ok_or("--title needs a value")?);
                        i += 2;
                    }
                    "--wall-clock" => {
                        options.wall_clock = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown flag {other:?}")),
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
        _ => Ok(usage()),
    }
}
