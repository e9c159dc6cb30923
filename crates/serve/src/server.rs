//! The daemon: TCP listener, connection handling, worker pool, and
//! drain orchestration.
//!
//! `Server::run` owns four kinds of threads inside one scope: the accept
//! loop (the calling thread), one framed-protocol thread per client
//! connection, `workers` engine workers draining the [`Scheduler`], and
//! an optional HTTP thread serving `/metrics` + `/healthz`. Shutdown is a
//! single shared flag — flipped by SIGTERM (the binary installs the
//! handler), by a client `Shutdown` frame, or by the embedding test — and
//! triggers: stop accepting, drain the scheduler (every queued job
//! resolves as `Cancelled`, every running job is cancel-flagged and
//! finishes fast through the degradation ladder, checkpointing what it
//! has), then join everything and return.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eco_telemetry::{Counter, Histogram, Telemetry};

use crate::frame::{self, FrameError, Message};
use crate::http;
use crate::job::{JobOutcome, JobRunner, JobStatus, RejectReason};
use crate::sched::{Dispatch, ReplySink, Scheduler, SchedulerConfig};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Job-protocol listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Optional metrics/health HTTP listen address.
    pub http_addr: Option<String>,
    /// Engine worker threads.
    pub workers: usize,
    /// Scheduler tuning.
    pub sched: SchedulerConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            http_addr: None,
            workers: 2,
            sched: SchedulerConfig::default(),
        }
    }
}

/// Poll interval for the accept loops and connection read timeouts; this
/// bounds how stale a shutdown-flag observation can be.
const POLL: Duration = Duration::from_millis(25);

/// A framed writer over one connection, shared by the scheduler and the
/// workers. Send errors are swallowed: a vanished client must not stop
/// the daemon, and its job still runs to a terminal state for accounting.
struct FramedSink {
    stream: Mutex<TcpStream>,
}

impl ReplySink for FramedSink {
    fn send(&self, msg: &Message) {
        let mut stream = self.stream.lock().unwrap();
        let _ = frame::write_message(&mut *stream, msg);
    }
}

/// The bound-but-not-yet-running daemon. Binding is split from running so
/// embedders (tests, the load generator's in-process mode) can learn the
/// ephemeral port and grab the shutdown handle before the blocking run.
pub struct Server {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    scheduler: Arc<Scheduler>,
    runner: Arc<dyn JobRunner>,
    telemetry: Telemetry,
    shutdown: Arc<AtomicBool>,
    workers: usize,
}

impl Server {
    /// Binds the protocol listener (and the HTTP listener, when
    /// configured) without accepting anything yet.
    pub fn bind(
        config: ServerConfig,
        runner: Arc<dyn JobRunner>,
        telemetry: Telemetry,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let http_listener = match &config.http_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        Ok(Server {
            listener,
            http_listener,
            scheduler: Arc::new(Scheduler::new(config.sched, &telemetry)),
            runner,
            telemetry,
            shutdown: Arc::new(AtomicBool::new(false)),
            workers: config.workers.max(1),
        })
    }

    /// The bound job-protocol address.
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound HTTP address, when configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The shutdown flag: store `true` (from a signal handler, another
    /// thread, or a test) to trigger graceful drain.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Runs the daemon until the shutdown flag is set, then drains and
    /// returns. The calling thread becomes the accept loop.
    pub fn run(self) -> io::Result<()> {
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                let scheduler = Arc::clone(&self.scheduler);
                let runner = Arc::clone(&self.runner);
                let telemetry = &self.telemetry;
                scope.spawn(move || worker_loop(&scheduler, runner.as_ref(), telemetry));
            }
            if let Some(http) = &self.http_listener {
                let telemetry = self.telemetry.clone();
                let scheduler = Arc::clone(&self.scheduler);
                let shutdown = Arc::clone(&self.shutdown);
                scope.spawn(move || http::serve(http, &telemetry, &scheduler, &shutdown, POLL));
            }
            while !self.shutdown.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let scheduler = Arc::clone(&self.scheduler);
                        let shutdown = Arc::clone(&self.shutdown);
                        scope.spawn(move || connection_loop(stream, &scheduler, &shutdown));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(POLL),
                }
            }
            // Graceful drain: resolve everything, then the scope joins
            // the workers (which see drained-and-empty) and the
            // connection/http threads (which see the flag).
            self.scheduler.drain();
        });
        Ok(())
    }
}

/// One engine worker: claim, run under a panic guard, account, reply.
fn worker_loop(scheduler: &Scheduler, runner: &dyn JobRunner, telemetry: &Telemetry) {
    while let Some(dispatch) = scheduler.next() {
        let Dispatch {
            job_id,
            request,
            control,
            client_deadline,
            reply,
            ..
        } = dispatch;
        let start = Instant::now();
        let outcome = if control.is_cancelled() {
            JobOutcome::empty(JobStatus::Cancelled, "cancelled before start")
        } else if client_deadline.is_some_and(|at| Instant::now() >= at) {
            JobOutcome::empty(JobStatus::Expired, "deadline passed while queued")
        } else {
            reply.send(&Message::Progress {
                job_id,
                stage: "running".into(),
            });
            match catch_unwind(AssertUnwindSafe(|| runner.run(&request, &control))) {
                Ok(outcome) => outcome,
                Err(_) => JobOutcome::empty(JobStatus::Failed, "engine panicked"),
            }
        };
        let runtime = start.elapsed();
        telemetry.observe(Histogram::ServeJobMicros, runtime.as_micros() as u64);
        telemetry.add(
            match outcome.status {
                JobStatus::Completed => Counter::ServeCompleted,
                JobStatus::Degraded => Counter::ServeDegraded,
                JobStatus::Cancelled => Counter::ServeCancelled,
                JobStatus::Expired => Counter::ServeExpired,
                JobStatus::Failed => Counter::ServeFailed,
            },
            1,
        );
        reply.send(&Message::Done {
            job_id,
            status: outcome.status,
            degradations: outcome.degradations,
            runtime_us: runtime.as_micros() as u64,
            patch_blif: outcome.patch_blif,
            detail: outcome.detail,
        });
        scheduler.finish(job_id);
    }
}

/// One client connection: buffer bytes, decode frames, route messages.
fn connection_loop(stream: TcpStream, scheduler: &Scheduler, shutdown: &AtomicBool) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let writer: Arc<dyn ReplySink> = match stream.try_clone() {
        Ok(w) => Arc::new(FramedSink {
            stream: Mutex::new(w),
        }),
        Err(_) => return,
    };
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // clean EOF
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    match frame::decode_frame(&buf) {
                        Ok((msg, used)) => {
                            buf.drain(..used);
                            match msg {
                                Message::Submit(req) => {
                                    scheduler.submit(req, Arc::clone(&writer));
                                }
                                Message::Cancel { job_id } => {
                                    scheduler.cancel(job_id);
                                }
                                Message::Shutdown => {
                                    shutdown.store(true, Ordering::Relaxed);
                                    return;
                                }
                                // Daemon→client kinds arriving at the
                                // daemon: the peer is confused; hang up.
                                _ => {
                                    writer.send(&Message::Rejected {
                                        reason: RejectReason::Invalid,
                                        detail: "unexpected message direction".into(),
                                    });
                                    return;
                                }
                            }
                        }
                        // A valid prefix of an incomplete frame: read on.
                        Err(FrameError::Truncated) => break,
                        // Framing is lost; tell the peer and hang up.
                        Err(e) => {
                            writer.send(&Message::Rejected {
                                reason: RejectReason::Invalid,
                                detail: e.to_string(),
                            });
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}
