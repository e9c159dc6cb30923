//! The end-to-end, per-layer benchmark.
//!
//! ```text
//! e2e --workload table2|table3|parallel|chain [--seed S] [--seconds T]
//!     [--reps R] [--trace 0|1] [--out DIR]
//! e2e --all [same flags]
//! ```
//!
//! One workload runs in this process: it prints one `name value unit`
//! line per metric and, last, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` (the default) reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. `--all` runs every
//! workload in a child process of its own, so each peak RSS is its own,
//! in both modes unless `--trace` picks one.
//!
//! `--seed 0` (the default) runs each case with its id as engine seed;
//! any other seed is a held-out input. `--reps` is the minimum number of
//! passes (default 1). `--seconds` is the time budget of the run, set-up
//! included: after `--reps` passes, another starts only while one as long
//! as the last still fits. Without it a run makes exactly `--reps`
//! passes. The `BENCHMARK.json` command gets `--seconds` from its
//! `run_seconds`. `--out` is a directory for one full JSON report per
//! run. The chain workload keeps its cache under `.e2e_scratch`.
//! Times are reported at a reference speed (see
//! [`syseco_e2e_bench::clock`]); `raw_wall_s` is the unscaled wall time.
//!
//! Exit codes: 0 every patch verified, 1 a patch failed verification or
//! a child failed, 2 usage.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use syseco_e2e_bench::e2e::{self, Config, Workload};

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    traces: Vec<bool>,
    config: Config,
    out: Option<PathBuf>,
    /// The flags forwarded to each child of `--all`.
    forwarded: Vec<String>,
}

fn usage(message: &str) -> ExitCode {
    eprintln!(
        "error: {message}\nusage: e2e (--workload NAME | --all) [--seed S] [--seconds T] \
         [--reps R] [--trace 0|1] [--out DIR]\nworkloads: table2 table3 \
         parallel chain"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        all: false,
        traces: Vec::new(),
        config: Config {
            seed: 0,
            seconds: 0.0,
            reps: 1,
            trace: false,
            scratch: PathBuf::from(".e2e_scratch"),
        },
        out: None,
        forwarded: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--all" {
            parsed.all = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag {
            "--workload" => parsed
                .workloads
                .push(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => parsed.config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.config.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--reps" => parsed.config.reps = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.traces.push(match value.as_str() {
                "0" => false,
                "1" => true,
                _ => return Err(bad()),
            }),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
        if !matches!(flag, "--workload" | "--trace") {
            parsed.forwarded.extend([flag.to_string(), value.clone()]);
        }
        i += 2;
    }
    if !matches!((parsed.all, parsed.workloads.len()), (true, 0) | (false, 1)) {
        return Err("give exactly one of --workload NAME and --all".to_string());
    }
    if parsed.traces.len() > 1 {
        return Err("--trace given twice".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => return usage(&message),
    };
    if args.all {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

fn run_one(args: &Args) -> ExitCode {
    let workload = args.workloads[0];
    let config = Config {
        trace: args.traces.first().copied().unwrap_or(false),
        ..args.config.clone()
    };
    let report = e2e::run(workload, &workload.params(), &config);
    if let Some(dir) = &args.out {
        let suffix = if config.trace { "_trace" } else { "" };
        let path = dir.join(format!("{}{suffix}.json", workload.name()));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report.to_json()))
        {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report.lines());
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, one at a time.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the e2e binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces = if args.traces.is_empty() {
        vec![false, true]
    } else {
        args.traces.clone()
    };
    let mut ok = true;
    for workload in Workload::ALL {
        for &trace in &traces {
            let output = Command::new(&exe)
                .args([
                    "--workload",
                    workload.name(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .args(&args.forwarded)
                .stderr(Stdio::inherit())
                .output();
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("error: cannot run {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            lines.pop(); // the child's JSON result line
            for line in lines {
                println!("{} {line}", workload.name());
            }
            if !output.status.success() {
                eprintln!(
                    "{} (trace {}): FAILED ({})",
                    workload.name(),
                    u8::from(trace),
                    output.status
                );
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
