//! `syseco-load` — load generator and overload benchmark for the
//! `syseco-serve` daemon (DESIGN.md §15).
//!
//! Jobs are fuzz-generated rectification scenarios
//! ([`eco_fuzz::generate_chain`]): revision *chains* share one
//! implementation, so consecutive jobs re-present the same cones and
//! exercise cross-job reuse of the daemon's shared cache. Jobs are spread
//! across three tenants with mixed weights and priorities.
//!
//! Two modes:
//!
//! * **Replay** (`--addr HOST:PORT`): submit `--jobs` requests over
//!   `--concurrency` connections at an open-loop `--qps` rate, optionally
//!   cancelling every `--cancel-nth` job after admission and attaching a
//!   `--deadline-ms` deadline to every `--deadline-nth` job. Prints a
//!   JSON summary to stdout.
//! * **Benchmark** (`--bench`): spin an in-process daemon (2 workers,
//!   shared cache + checkpoint dirs under a temp root), calibrate its
//!   capacity from sequential jobs, verify completed patches are
//!   byte-identical to a direct no-daemon [`Session`] run, then sweep
//!   sustained 1x/2x/4x overload and write throughput, p50/p99 latency,
//!   and degradation/rejection rates to `BENCH_serve.json`.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | every job resolved and accounted (completed/degraded/cancelled/expired or rejected) |
//! | 1    | violation: transport error, engine failure, unaccounted job, or patch mismatch |
//! | 2    | usage error |

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eco_fuzz::{generate_chain, ScenarioConfig};
use eco_netlist::write_blif;
use syseco::budget::span_from_secs;
use syseco::serve::{
    Client, JobRequest, JobStatus, Priority, RejectReason, SchedulerConfig, Server, ServerConfig,
};
use syseco::telemetry::Counter;
use syseco::{EcoOptions, EngineRunner, Session, Telemetry};

const USAGE: &str = "\
usage: syseco-load --addr HOST:PORT [options]   replay against a running daemon
       syseco-load --bench [options]            in-process overload benchmark

common options:
  --jobs N          total jobs to submit (default 12)
  --concurrency C   parallel client connections (default 4)
  --qps F           open-loop submit rate; 0 = as fast as possible (default 0)
  --chain-len K     revisions per fuzz chain (default 3)
  --seed S          scenario seed base (default 1)
  --cancel-nth K    cancel every K-th job right after admission (0 = never)
  --deadline-nth K  give every K-th job a deadline (0 = never)
  --deadline-ms MS  that deadline, in milliseconds (default 1)
  --summary-out F   also write the replay summary JSON to F
benchmark options:
  --out FILE        benchmark report path (default BENCH_serve.json)
  -h, --help        print this help
exit codes: 0 all jobs accounted, 1 violation, 2 usage error";

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

struct LoadArgs {
    addr: Option<String>,
    bench: bool,
    jobs: usize,
    concurrency: usize,
    qps: f64,
    chain_len: usize,
    seed: u64,
    cancel_nth: usize,
    deadline_nth: usize,
    deadline_ms: u64,
    summary_out: Option<String>,
    out: String,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn parse_args(mut args: std::env::Args) -> Result<Option<LoadArgs>, String> {
    let mut parsed = LoadArgs {
        addr: None,
        bench: false,
        jobs: 12,
        concurrency: 4,
        qps: 0.0,
        chain_len: 3,
        seed: 1,
        cancel_nth: 0,
        deadline_nth: 0,
        deadline_ms: 1,
        summary_out: None,
        out: "BENCH_serve.json".into(),
    };
    args.next(); // argv[0]
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => parsed.addr = Some(parse_value(&arg, args.next())?),
            "--bench" => parsed.bench = true,
            "--jobs" => parsed.jobs = parse_value(&arg, args.next())?,
            "--concurrency" => parsed.concurrency = parse_value(&arg, args.next())?,
            "--qps" => parsed.qps = parse_value(&arg, args.next())?,
            "--chain-len" => parsed.chain_len = parse_value(&arg, args.next())?,
            "--seed" => parsed.seed = parse_value(&arg, args.next())?,
            "--cancel-nth" => parsed.cancel_nth = parse_value(&arg, args.next())?,
            "--deadline-nth" => parsed.deadline_nth = parse_value(&arg, args.next())?,
            "--deadline-ms" => parsed.deadline_ms = parse_value(&arg, args.next())?,
            "--summary-out" => parsed.summary_out = Some(parse_value(&arg, args.next())?),
            "--out" => parsed.out = parse_value(&arg, args.next())?,
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.bench == parsed.addr.is_some() {
        return Err("pass exactly one of --addr or --bench".into());
    }
    if !parsed.qps.is_finite() || parsed.qps < 0.0 {
        return Err("--qps: must be a non-negative finite number".into());
    }
    if parsed.jobs == 0 {
        return Err("--jobs: must be at least 1".into());
    }
    // Job `i` is due `i / qps` seconds after the start.
    if parsed.qps > 0.0 && span_from_secs((parsed.jobs - 1) as f64 / parsed.qps).is_none() {
        return Err("--qps: too low for --jobs: the last job's due time overflows".into());
    }
    Ok(Some(parsed))
}

// ---------------------------------------------------------------------------
// Workload construction
// ---------------------------------------------------------------------------

/// Builds `total` deterministic job requests from fuzz revision chains of
/// `chain_len`, spread over three tenants with mixed weights/priorities.
/// Every `deadline_nth`-th job (1-based stride) carries `deadline_ms`.
fn build_jobs(
    seed: u64,
    total: usize,
    chain_len: usize,
    deadline_nth: usize,
    deadline_ms: u64,
) -> Vec<JobRequest> {
    let config = ScenarioConfig::default();
    let chain_len = chain_len.max(1);
    let mut jobs = Vec::with_capacity(total);
    let mut chain_index = 0u64;
    'outer: loop {
        let chain = generate_chain(seed.wrapping_add(chain_index), &config, chain_len)
            .expect("fuzz chain generation is infallible for the default config");
        chain_index += 1;
        for scenario in &chain {
            let i = jobs.len();
            if i >= total {
                break 'outer;
            }
            let mut request = JobRequest::new(
                format!("tenant-{}", i % 3),
                write_blif(&scenario.implementation),
                write_blif(&scenario.spec),
            );
            request.seed = seed.wrapping_add(i as u64);
            request.weight = if i % 3 == 0 { 4 } else { 1 };
            request.priority = match i % 7 {
                0 => Priority::High,
                3 => Priority::Low,
                _ => Priority::Normal,
            };
            if deadline_nth > 0 && i % deadline_nth == deadline_nth - 1 {
                request.deadline_ms = deadline_ms;
            }
            request.tag = format!("job-{i}");
            jobs.push(request);
        }
        if jobs.len() >= total {
            break;
        }
    }
    jobs
}

// ---------------------------------------------------------------------------
// Phase runner
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Outcome {
    Done(JobStatus),
    Rejected(RejectReason),
    Transport(String),
}

#[derive(Clone, Debug)]
struct Record {
    index: usize,
    outcome: Outcome,
    latency: Duration,
    patch_blif: String,
}

/// Submits every job in `jobs` against `addr` over `concurrency`
/// connections, pacing submissions at `qps` (open loop: job `i` is due at
/// `start + i/qps`). Cancels every `cancel_nth`-th admitted job. Returns
/// one record per job plus the phase wall-clock.
fn run_phase(
    addr: &str,
    jobs: &[JobRequest],
    concurrency: usize,
    qps: f64,
    cancel_nth: usize,
    keep_patches: bool,
) -> (Vec<Record>, Duration) {
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<Record>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    return;
                }
                if qps > 0.0 {
                    let due = start + Duration::from_secs_f64(i as f64 / qps);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
                let record = drive_one(addr, &jobs[i], i, cancel_nth, keep_patches);
                records.lock().unwrap().push(record);
            });
        }
    });
    let elapsed = start.elapsed();
    let mut records = records.into_inner().unwrap();
    records.sort_by_key(|r| r.index);
    (records, elapsed)
}

/// One job, end to end, over a fresh connection.
fn drive_one(
    addr: &str,
    request: &JobRequest,
    index: usize,
    cancel_nth: usize,
    keep_patches: bool,
) -> Record {
    let submitted = Instant::now();
    let fail = |why: String| Record {
        index,
        outcome: Outcome::Transport(why),
        latency: submitted.elapsed(),
        patch_blif: String::new(),
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => return fail(format!("connect: {e}")),
    };
    let job_id = match client.submit(request) {
        Ok(syseco::serve::SubmitReply::Accepted(id)) => id,
        Ok(syseco::serve::SubmitReply::Rejected { reason, .. }) => {
            return Record {
                index,
                outcome: Outcome::Rejected(reason),
                latency: submitted.elapsed(),
                patch_blif: String::new(),
            }
        }
        Err(e) => return fail(format!("submit: {e}")),
    };
    if cancel_nth > 0 && index % cancel_nth == cancel_nth - 1 {
        if let Err(e) = client.cancel(job_id) {
            return fail(format!("cancel: {e}"));
        }
    }
    match client.wait_done(job_id) {
        Ok(report) => Record {
            index,
            outcome: Outcome::Done(report.status),
            latency: submitted.elapsed(),
            patch_blif: if keep_patches {
                report.patch_blif
            } else {
                String::new()
            },
        },
        Err(e) => fail(format!("wait: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

struct Summary {
    jobs: usize,
    completed: usize,
    degraded: usize,
    cancelled: usize,
    expired: usize,
    failed: usize,
    rejected: usize,
    errors: usize,
    elapsed_s: f64,
    throughput_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank].as_secs_f64() * 1e3
}

fn summarize(records: &[Record], elapsed: Duration) -> Summary {
    let mut summary = Summary {
        jobs: records.len(),
        completed: 0,
        degraded: 0,
        cancelled: 0,
        expired: 0,
        failed: 0,
        rejected: 0,
        errors: 0,
        elapsed_s: elapsed.as_secs_f64(),
        throughput_per_s: 0.0,
        p50_ms: 0.0,
        p99_ms: 0.0,
    };
    let mut latencies = Vec::new();
    for record in records {
        match &record.outcome {
            Outcome::Done(status) => {
                latencies.push(record.latency);
                match status {
                    JobStatus::Completed => summary.completed += 1,
                    JobStatus::Degraded => summary.degraded += 1,
                    JobStatus::Cancelled => summary.cancelled += 1,
                    JobStatus::Expired => summary.expired += 1,
                    JobStatus::Failed => summary.failed += 1,
                }
            }
            Outcome::Rejected(_) => summary.rejected += 1,
            Outcome::Transport(_) => summary.errors += 1,
        }
    }
    latencies.sort();
    summary.throughput_per_s = latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    summary.p50_ms = percentile_ms(&latencies, 0.50);
    summary.p99_ms = percentile_ms(&latencies, 0.99);
    summary
}

impl Summary {
    fn resolved(&self) -> usize {
        self.completed + self.degraded + self.cancelled + self.expired + self.failed
    }

    fn to_json(&self, indent: &str) -> String {
        let degraded_rate = self.degraded as f64 / self.jobs.max(1) as f64;
        let rejected_rate = self.rejected as f64 / self.jobs.max(1) as f64;
        format!(
            "{{\n{indent}  \"jobs\": {},\n{indent}  \"completed\": {},\n\
             {indent}  \"degraded\": {},\n{indent}  \"cancelled\": {},\n\
             {indent}  \"expired\": {},\n{indent}  \"failed\": {},\n\
             {indent}  \"rejected\": {},\n{indent}  \"transport_errors\": {},\n\
             {indent}  \"elapsed_s\": {:.4},\n{indent}  \"throughput_per_s\": {:.4},\n\
             {indent}  \"p50_ms\": {:.3},\n{indent}  \"p99_ms\": {:.3},\n\
             {indent}  \"degraded_rate\": {:.4},\n{indent}  \"rejected_rate\": {:.4}\n{indent}}}",
            self.jobs,
            self.completed,
            self.degraded,
            self.cancelled,
            self.expired,
            self.failed,
            self.rejected,
            self.errors,
            self.elapsed_s,
            self.throughput_per_s,
            self.p50_ms,
            self.p99_ms,
            degraded_rate,
            rejected_rate,
        )
    }
}

// ---------------------------------------------------------------------------
// Replay mode
// ---------------------------------------------------------------------------

fn replay(args: &LoadArgs) -> ExitCode {
    let addr = args.addr.as_deref().expect("replay mode has an address");
    let jobs = build_jobs(
        args.seed,
        args.jobs,
        args.chain_len,
        args.deadline_nth,
        args.deadline_ms,
    );
    eprintln!(
        "syseco-load: replaying {} jobs against {addr} ({} connections, qps {})",
        jobs.len(),
        args.concurrency,
        if args.qps > 0.0 {
            format!("{:.2}", args.qps)
        } else {
            "unpaced".into()
        }
    );
    let (records, elapsed) = run_phase(
        addr,
        &jobs,
        args.concurrency,
        args.qps,
        args.cancel_nth,
        false,
    );
    for record in &records {
        if let Outcome::Transport(why) = &record.outcome {
            eprintln!("syseco-load: job {} transport error: {why}", record.index);
        }
    }
    let summary = summarize(&records, elapsed);
    let json = format!("{}\n", summary.to_json(""));
    print!("{json}");
    if let Some(path) = &args.summary_out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("syseco-load: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if summary.errors == 0 && summary.resolved() + summary.rejected == summary.jobs {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "syseco-load: violation: {} transport errors, {} of {} jobs unaccounted",
            summary.errors,
            summary.jobs - summary.resolved() - summary.rejected,
            summary.jobs
        );
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Benchmark mode
// ---------------------------------------------------------------------------

const BENCH_WORKERS: usize = 2;
const CALIBRATION_JOBS: usize = 6;
const PHASE_JOBS: usize = 24;
const PHASE_CONNECTIONS: usize = 6;

fn bench(args: &LoadArgs) -> ExitCode {
    let root = std::env::temp_dir().join(format!("syseco-load-bench-{}", std::process::id()));
    let cache_dir = root.join("cache");
    let checkpoint_dir = root.join("checkpoints");
    if let Err(e) =
        std::fs::create_dir_all(&cache_dir).and_then(|()| std::fs::create_dir_all(&checkpoint_dir))
    {
        eprintln!("syseco-load: temp dirs under {}: {e}", root.display());
        return ExitCode::FAILURE;
    }

    let base = EcoOptions::builder()
        .seed(args.seed)
        .jobs(1)
        .cache_dir(&cache_dir)
        .checkpoint_dir(&checkpoint_dir)
        .build();
    let telemetry = Telemetry::enabled();
    let runner = Arc::new(EngineRunner::new(base, telemetry.clone()));
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        http_addr: Some("127.0.0.1:0".into()),
        workers: BENCH_WORKERS,
        sched: SchedulerConfig::default(),
    };
    let server = match Server::bind(config, runner.clone(), telemetry.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("syseco-load: bind in-process daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.addr() {
        Ok(addr) => addr.to_string(),
        Err(e) => {
            eprintln!("syseco-load: local_addr: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shutdown = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run());
    let mut violations: Vec<String> = Vec::new();

    // Calibration: sequential jobs, engine runtime only, plus the
    // CLI-path byte-identity check on every completed patch.
    eprintln!("syseco-load: calibrating against {addr} ({CALIBRATION_JOBS} sequential jobs)");
    let calibration_jobs = build_jobs(args.seed, CALIBRATION_JOBS, args.chain_len, 0, 0);
    let (calibration, _) = run_phase(&addr, &calibration_jobs, 1, 0.0, 0, true);
    let mut service_s = Vec::new();
    let mut identical = 0usize;
    for record in &calibration {
        match &record.outcome {
            Outcome::Done(JobStatus::Completed) => {
                service_s.push(record.latency.as_secs_f64());
                // The CLI path: a plain Session over the same request
                // options, no daemon, no shared cache.
                let request = &calibration_jobs[record.index];
                let options = EcoOptions::builder().seed(request.seed).jobs(1).build();
                let implementation = eco_netlist::read_blif(&request.impl_blif).unwrap();
                let spec = eco_netlist::read_blif(&request.spec_blif).unwrap();
                match Session::new(options).run(&implementation, &spec) {
                    Ok(direct) if write_blif(&direct.patched) == record.patch_blif => {
                        identical += 1;
                    }
                    Ok(_) => violations.push(format!(
                        "job {}: daemon patch differs from the direct Session patch",
                        record.index
                    )),
                    Err(e) => {
                        violations.push(format!("job {}: direct run failed: {e}", record.index))
                    }
                }
            }
            Outcome::Done(other) => {
                service_s.push(record.latency.as_secs_f64());
                violations.push(format!(
                    "calibration job {} ended {} instead of completed",
                    record.index,
                    other.label()
                ));
            }
            Outcome::Rejected(reason) => violations.push(format!(
                "calibration job {} rejected ({})",
                record.index,
                reason.label()
            )),
            Outcome::Transport(why) => {
                violations.push(format!("calibration job {}: {why}", record.index))
            }
        }
    }
    let mean_service_s = if service_s.is_empty() {
        1.0
    } else {
        service_s.iter().sum::<f64>() / service_s.len() as f64
    };
    let capacity_qps = (BENCH_WORKERS as f64 / mean_service_s.max(1e-6)).max(0.5);
    eprintln!(
        "syseco-load: mean service {:.1} ms, capacity ~{capacity_qps:.1} jobs/s",
        mean_service_s * 1e3
    );

    // Overload sweep: open-loop arrivals at 1x/2x/4x the measured
    // capacity, with a slice of short-deadline jobs and mid-flight
    // cancellations in every phase.
    let mut phases: Vec<(&str, f64, Summary)> = Vec::new();
    for (label, multiplier) in [
        ("overload_1x", 1.0),
        ("overload_2x", 2.0),
        ("overload_4x", 4.0),
    ] {
        let offered = capacity_qps * multiplier;
        eprintln!("syseco-load: phase {label}: {PHASE_JOBS} jobs at {offered:.1} jobs/s");
        let jobs = build_jobs(
            args.seed + 1000 * multiplier as u64,
            PHASE_JOBS,
            args.chain_len,
            6,
            args.deadline_ms,
        );
        let (records, elapsed) = run_phase(&addr, &jobs, PHASE_CONNECTIONS, offered, 8, false);
        let summary = summarize(&records, elapsed);
        if summary.errors > 0 {
            violations.push(format!("{label}: {} transport errors", summary.errors));
        }
        if summary.failed > 0 {
            violations.push(format!("{label}: {} engine failures", summary.failed));
        }
        if summary.resolved() + summary.rejected != summary.jobs {
            violations.push(format!(
                "{label}: {} of {} jobs unaccounted",
                summary.jobs - summary.resolved() - summary.rejected,
                summary.jobs
            ));
        }
        phases.push((label, offered, summary));
    }

    // Drain and reconcile the shared metrics registry: every admitted job
    // must be visible as exactly one terminal counter.
    shutdown.store(true, Ordering::Relaxed);
    match daemon.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => violations.push(format!("daemon run error: {e}")),
        Err(_) => violations.push("daemon thread panicked".into()),
    }
    let snapshot = telemetry.snapshot();
    let submitted = snapshot.counter(Counter::ServeSubmitted);
    let admitted = snapshot.counter(Counter::ServeAdmitted);
    let rejected = snapshot.counter(Counter::ServeRejected);
    let terminal = snapshot.counter(Counter::ServeCompleted)
        + snapshot.counter(Counter::ServeDegraded)
        + snapshot.counter(Counter::ServeCancelled)
        + snapshot.counter(Counter::ServeExpired)
        + snapshot.counter(Counter::ServeFailed);
    if submitted != admitted + rejected {
        violations.push(format!(
            "metrics: submitted {submitted} != admitted {admitted} + rejected {rejected}"
        ));
    }
    if terminal != admitted {
        violations.push(format!(
            "metrics: {admitted} admitted but {terminal} terminal outcomes"
        ));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"calibration\": {\n");
    json.push_str(&format!("    \"jobs\": {CALIBRATION_JOBS},\n"));
    json.push_str(&format!(
        "    \"mean_service_ms\": {:.3},\n",
        mean_service_s * 1e3
    ));
    json.push_str(&format!("    \"capacity_qps\": {capacity_qps:.3},\n"));
    json.push_str(&format!(
        "    \"patches_byte_identical_with_direct_session\": {}\n",
        identical == service_s.len() && !service_s.is_empty()
    ));
    json.push_str("  },\n");
    for (label, offered, summary) in &phases {
        json.push_str(&format!("  \"{label}\": {{\n"));
        json.push_str(&format!("    \"offered_qps\": {offered:.3},\n"));
        let body = summary.to_json("  ");
        // Splice the phase summary's fields into this object.
        let inner = body
            .trim_start_matches("{\n")
            .trim_end_matches('}')
            .trim_end();
        json.push_str(inner);
        json.push_str("\n  },\n");
    }
    json.push_str("  \"accounting\": {\n");
    json.push_str(&format!("    \"submitted\": {submitted},\n"));
    json.push_str(&format!("    \"admitted\": {admitted},\n"));
    json.push_str(&format!("    \"rejected\": {rejected},\n"));
    json.push_str(&format!("    \"terminal\": {terminal},\n"));
    json.push_str(&format!(
        "    \"unaccounted\": {}\n",
        admitted.saturating_sub(terminal)
    ));
    json.push_str("  },\n");
    json.push_str(&format!("  \"violations\": {},\n", violations.len()));
    json.push_str(
        "  \"methodology\": \"In-process daemon, 2 workers, jobs=1 per engine run, shared \
         cache + checkpoint dirs under a temp root. Capacity is workers / mean sequential \
         service time over 6 fuzz-chain jobs; each overload phase offers 24 open-loop jobs \
         at the labelled multiple of that capacity over 6 connections, with every 6th job \
         on a 1 ms deadline and every 8th cancelled after admission. Latencies are \
         submit-to-Done wall clock, so queueing is included; later phases inherit a warmer \
         shared cache, as a long-lived daemon would.\"\n",
    );
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("syseco-load: write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("syseco-load: wrote {}", args.out);
    let _ = std::fs::remove_dir_all(&root);

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("syseco-load: violation: {violation}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args()) {
        Ok(Some(args)) if args.bench => bench(&args),
        Ok(Some(args)) => replay(&args),
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("syseco-load: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
