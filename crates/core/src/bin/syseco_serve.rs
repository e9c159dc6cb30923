//! `syseco-serve` — the multi-tenant batch rectification daemon
//! (DESIGN.md §15).
//!
//! Accepts rectification jobs over the length-prefixed framed protocol
//! (`syseco::serve::frame`), schedules them across tenants with weighted
//! fair queuing and priority lanes, runs them through the engine with a
//! shared on-disk cache and one telemetry registry, and serves
//! `GET /metrics` (OpenMetrics) and `GET /healthz` over plain HTTP.
//!
//! ```text
//! syseco-serve [--addr HOST:PORT] [--http HOST:PORT] [--workers N]
//!              [--jobs N] [--lane-capacity N] [--default-deadline SECS]
//!              [--shed-watermark N] [--cache-dir DIR]
//!              [--checkpoint-dir DIR] [--seed N]
//! ```
//!
//! On startup the bound addresses are printed to stdout as
//! `listening <addr>` and (when `--http` is given) `http <addr>`, so
//! scripts using an ephemeral port `:0` can discover where to connect.
//!
//! Shutdown is graceful on SIGTERM/SIGINT or a client `Shutdown` frame:
//! the daemon stops accepting, resolves every queued job as `Cancelled`,
//! cancel-flags running jobs (which checkpoint and finish fast through
//! the engine's degradation ladder), then exits.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean drain after a shutdown request |
//! | 1    | fatal error (bind failure, I/O trouble) |
//! | 2    | usage error |

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use syseco::budget::span_from_secs;
use syseco::serve::{SchedulerConfig, Server, ServerConfig};
use syseco::{EcoOptions, EngineRunner, Telemetry};

const USAGE: &str = "\
usage: syseco-serve [options]
  --addr HOST:PORT        job-protocol listen address (default 127.0.0.1:7171)
  --http HOST:PORT        serve GET /metrics and /healthz here (off by default)
  --workers N             engine worker threads (default 2)
  --jobs N                engine threads per job (default 1)
  --lane-capacity N       queued jobs per priority lane before Rejected{Overloaded}
  --default-deadline SECS deadline applied to jobs that do not bring one
  --shed-watermark N      queue depth per degradation-ladder step
  --cache-dir DIR         shared persistent eco-cache store
  --checkpoint-dir DIR    crash/drain checkpoint directory
  --seed N                base engine seed (jobs may override per request)
  -h, --help              print this help
exit codes: 0 clean drain, 1 fatal error, 2 usage error";

struct ServeArgs {
    addr: String,
    http: Option<String>,
    workers: usize,
    jobs: usize,
    lane_capacity: Option<usize>,
    default_deadline: Option<Duration>,
    shed_watermark: Option<usize>,
    cache_dir: Option<String>,
    checkpoint_dir: Option<String>,
    seed: u64,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn parse_args(mut args: std::env::Args) -> Result<Option<ServeArgs>, String> {
    let mut parsed = ServeArgs {
        addr: "127.0.0.1:7171".into(),
        http: None,
        workers: 2,
        jobs: 1,
        lane_capacity: None,
        default_deadline: None,
        shed_watermark: None,
        cache_dir: None,
        checkpoint_dir: None,
        seed: 1,
    };
    args.next(); // argv[0]
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => parsed.addr = parse_value(&arg, args.next())?,
            "--http" => parsed.http = Some(parse_value(&arg, args.next())?),
            "--workers" => parsed.workers = parse_value(&arg, args.next())?,
            "--jobs" => parsed.jobs = parse_value(&arg, args.next())?,
            "--lane-capacity" => parsed.lane_capacity = Some(parse_value(&arg, args.next())?),
            "--default-deadline" => {
                let secs: f64 = parse_value(&arg, args.next())?;
                let span = span_from_secs(secs).filter(|_| secs > 0.0).ok_or_else(|| {
                    format!("{arg}: must be a positive number of seconds a deadline can hold")
                })?;
                parsed.default_deadline = Some(span);
            }
            "--shed-watermark" => parsed.shed_watermark = Some(parse_value(&arg, args.next())?),
            "--cache-dir" => parsed.cache_dir = Some(parse_value(&arg, args.next())?),
            "--checkpoint-dir" => parsed.checkpoint_dir = Some(parse_value(&arg, args.next())?),
            "--seed" => parsed.seed = parse_value(&arg, args.next())?,
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(parsed))
}

/// Installs SIGTERM/SIGINT handlers that flip an async-signal-safe static,
/// plus a watcher thread that copies the static into the server's shutdown
/// flag. The watcher never exits on its own; it dies with the process
/// after the drained `run()` returns.
#[cfg(unix)]
fn install_signal_watcher(shutdown: Arc<AtomicBool>) {
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::Relaxed);
    }
    extern "C" {
        // Direct libc symbol: the workspace is dependency-free, and
        // `signal(2)` is all the daemon needs from it.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::Relaxed) {
            shutdown.store(true, Ordering::Relaxed);
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

#[cfg(not(unix))]
fn install_signal_watcher(_shutdown: Arc<AtomicBool>) {
    // No signals to bridge; the Shutdown frame remains available.
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("syseco-serve: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut builder = EcoOptions::builder().seed(args.seed).jobs(args.jobs);
    if let Some(dir) = &args.cache_dir {
        builder = builder.cache_dir(dir);
    }
    if let Some(dir) = &args.checkpoint_dir {
        builder = builder.checkpoint_dir(dir);
    }
    let base = builder.build();

    let mut sched = SchedulerConfig::default();
    if let Some(capacity) = args.lane_capacity {
        sched.lane_capacity = capacity.max(1);
    }
    if let Some(deadline) = args.default_deadline {
        sched.default_deadline = deadline;
    }
    if let Some(watermark) = args.shed_watermark {
        sched.shed_watermark = watermark.max(1);
    }

    let telemetry = Telemetry::enabled();
    let runner = Arc::new(EngineRunner::new(base, telemetry.clone()));
    let config = ServerConfig {
        addr: args.addr,
        http_addr: args.http,
        workers: args.workers.max(1),
        sched,
    };
    let server = match Server::bind(config, runner, telemetry) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("syseco-serve: bind: {e}");
            return ExitCode::FAILURE;
        }
    };

    match server.addr() {
        Ok(addr) => println!("listening {addr}"),
        Err(e) => {
            eprintln!("syseco-serve: local_addr: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(http) = server.http_addr() {
        println!("http {http}");
    }
    let _ = std::io::stdout().flush();

    install_signal_watcher(server.shutdown_handle());
    match server.run() {
        Ok(()) => {
            eprintln!("syseco-serve: drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("syseco-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
