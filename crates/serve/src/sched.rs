//! The multi-tenant scheduler: priority lanes, weighted fair queuing,
//! bounded admission, overload shedding, and drain (DESIGN.md §15).
//!
//! # State machine
//!
//! A job is `queued` (sitting in its priority lane) → `running` (claimed
//! by a worker) → terminal. Admission can short-circuit straight to
//! `rejected` when the lane is full or the daemon is draining. Memory is
//! bounded by construction: each lane holds at most
//! [`SchedulerConfig::lane_capacity`] jobs and everything beyond that is
//! refused with an explicit `Rejected{Overloaded}` — the daemon never
//! buffers unbounded work.
//!
//! # Fairness
//!
//! Lanes are served in strict priority order (high, normal, low), except
//! that every [`SchedulerConfig::low_lane_period`]-th dispatch serves the
//! *lowest* non-empty lane so batch work cannot starve. Within a lane,
//! clients compete by stride scheduling: each client carries a virtual
//! *pass*, the client with the smallest pass is served next, and serving
//! advances the pass by `STRIDE / weight` — a weight-2 client therefore
//! receives twice the dispatches of a weight-1 client under contention.
//! New clients join at the current minimum pass, so an idle tenant cannot
//! bank credit and then monopolize the lane.
//!
//! # Shedding
//!
//! Under overload the scheduler shrinks the *engine grant* (the budget
//! deadline handed to the engine) by one power of two per ladder level,
//! where the level is `queued / shed_watermark`. Jobs still complete —
//! through the engine's degradation ladder — but faster and with more
//! degraded outputs, trading patch optimality for queue drain. This is
//! graceful shedding: explicit, counted (`serve.shed`), and honest in the
//! reply (`Degraded`, never a silent timeout).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use eco_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::frame::Message;
use crate::job::{JobControl, JobRequest, Priority, RejectReason};

/// Where admission replies and job outcomes are delivered. The server
/// implements this over a connection's framed writer; tests implement it
/// with an in-memory collector. Implementations must not block for long
/// and must swallow transport errors (a vanished client does not stop the
/// daemon).
pub trait ReplySink: Send + Sync {
    /// Delivers one daemon→client message.
    fn send(&self, msg: &Message);
}

/// A sink that drops everything (detached submissions).
pub struct NullSink;

impl ReplySink for NullSink {
    fn send(&self, _msg: &Message) {}
}

/// Scheduler tuning knobs.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Bounded capacity of each priority lane.
    pub lane_capacity: usize,
    /// Engine grant for jobs that carry no client deadline.
    pub default_deadline: Duration,
    /// Queue depth per shedding-ladder level: at `queued >= k *
    /// shed_watermark` the engine grant is divided by `2^k` (capped at
    /// [`MAX_SHED_LEVEL`]).
    pub shed_watermark: usize,
    /// Every n-th dispatch serves the lowest-priority non-empty lane.
    pub low_lane_period: u64,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            lane_capacity: 64,
            default_deadline: Duration::from_secs(30),
            shed_watermark: 16,
            low_lane_period: 8,
        }
    }
}

/// Ladder depth cap: grants shrink at most by `2^3 = 8x`.
pub const MAX_SHED_LEVEL: u32 = 3;
/// Engine grants never shrink below this, however deep the ladder.
pub const MIN_GRANT: Duration = Duration::from_millis(10);
/// Stride-scheduling numerator; pass advances by `STRIDE / weight`.
const STRIDE: u64 = 1 << 16;

/// One admitted job waiting in a lane.
struct QueuedJob {
    id: u64,
    seq: u64,
    request: JobRequest,
    cancel: Arc<AtomicBool>,
    enqueued: Instant,
    client_deadline: Option<Instant>,
    reply: Arc<dyn ReplySink>,
}

/// A job claimed by a worker: everything needed to run it and report the
/// outcome.
pub struct Dispatch {
    /// Daemon-assigned id.
    pub job_id: u64,
    /// The request as admitted.
    pub request: JobRequest,
    /// Cancel flag + shed-adjusted engine deadline.
    pub control: JobControl,
    /// Absolute client deadline (jobs past it expire without running).
    pub client_deadline: Option<Instant>,
    /// Where to deliver progress/done frames.
    pub reply: Arc<dyn ReplySink>,
    /// Time spent queued.
    pub wait: Duration,
    /// Lane the job was served from.
    pub lane: Priority,
    /// Shedding-ladder level in force at dispatch (0 = no shedding).
    pub shed_level: u32,
}

struct SchedState {
    lanes: [VecDeque<QueuedJob>; 3],
    /// Per-client stride pass, shared across lanes.
    passes: BTreeMap<String, u64>,
    /// Cancel flags of every live (queued or running) job.
    cancels: HashMap<u64, Arc<AtomicBool>>,
    next_id: u64,
    seq: u64,
    dispatches: u64,
    queued: usize,
    active: usize,
    draining: bool,
}

/// The scheduler: a bounded, fair, shedding job queue shared by the
/// listener threads (producers) and worker threads (consumers).
pub struct Scheduler {
    state: Mutex<SchedState>,
    /// Signalled when work arrives or drain starts.
    available: Condvar,
    /// Signalled when a job finishes (drain waits on this).
    idle: Condvar,
    config: SchedulerConfig,
    metrics: Telemetry,
}

impl Scheduler {
    /// A fresh scheduler recording into `telemetry`.
    pub fn new(config: SchedulerConfig, telemetry: &Telemetry) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                passes: BTreeMap::new(),
                cancels: HashMap::new(),
                next_id: 1,
                seq: 0,
                dispatches: 0,
                queued: 0,
                active: 0,
                draining: false,
            }),
            available: Condvar::new(),
            idle: Condvar::new(),
            config,
            metrics: telemetry.clone(),
        }
    }

    /// Attempts to admit `request`. The admission reply (`Accepted` or
    /// `Rejected`) is delivered through `reply` *before* the job becomes
    /// claimable, so clients always see `Accepted` before any `Done`.
    /// Returns the job id on admission.
    pub fn submit(&self, request: JobRequest, reply: Arc<dyn ReplySink>) -> Option<u64> {
        self.metrics.add(Counter::ServeSubmitted, 1);
        if let Err(why) = request.validate() {
            self.metrics.add(Counter::ServeRejected, 1);
            reply.send(&Message::Rejected {
                reason: RejectReason::Invalid,
                detail: why.into(),
            });
            return None;
        }
        let mut state = self.state.lock().unwrap();
        if state.draining {
            self.metrics.add(Counter::ServeRejected, 1);
            reply.send(&Message::Rejected {
                reason: RejectReason::ShuttingDown,
                detail: "daemon is draining".into(),
            });
            return None;
        }
        let lane = request.priority.lane();
        if state.lanes[lane].len() >= self.config.lane_capacity {
            self.metrics.add(Counter::ServeRejected, 1);
            reply.send(&Message::Rejected {
                reason: RejectReason::Overloaded,
                detail: format!("lane {lane} is at capacity {}", self.config.lane_capacity),
            });
            return None;
        }
        let id = state.next_id;
        state.next_id += 1;
        let seq = state.seq;
        state.seq += 1;
        let now = Instant::now();
        let cancel = Arc::new(AtomicBool::new(false));
        // New clients join at the current minimum pass so idle tenants
        // cannot bank credit (see module docs).
        let floor = state.passes.values().copied().min().unwrap_or(0);
        state.passes.entry(request.client.clone()).or_insert(floor);
        let client_deadline =
            (request.deadline_ms > 0).then(|| now + Duration::from_millis(request.deadline_ms));
        state.cancels.insert(id, Arc::clone(&cancel));
        state.lanes[lane].push_back(QueuedJob {
            id,
            seq,
            request,
            cancel,
            enqueued: now,
            client_deadline,
            reply: Arc::clone(&reply),
        });
        state.queued += 1;
        self.metrics.add(Counter::ServeAdmitted, 1);
        self.metrics
            .gauge_max(Gauge::ServeQueueDepth, state.queued as u64);
        reply.send(&Message::Accepted { job_id: id });
        drop(state);
        self.available.notify_one();
        Some(id)
    }

    /// Flags `job_id` for cancellation. Idempotent; `false` when the id
    /// is unknown or already terminal. Queued jobs are resolved by the
    /// next worker to claim them (they skip the engine entirely).
    pub fn cancel(&self, job_id: u64) -> bool {
        let state = self.state.lock().unwrap();
        match state.cancels.get(&job_id) {
            Some(flag) => {
                flag.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Blocks until a job is claimable, then claims it. Returns `None`
    /// once the scheduler is draining and empty — the worker's signal to
    /// exit.
    pub fn next(&self) -> Option<Dispatch> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.queued > 0 {
                return Some(self.claim(&mut state));
            }
            if state.draining {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    fn claim(&self, state: &mut SchedState) -> Dispatch {
        state.dispatches += 1;
        // Anti-starvation: every n-th dispatch serves the lowest
        // non-empty lane instead of the highest.
        let from_low = self.config.low_lane_period > 0
            && state.dispatches.is_multiple_of(self.config.low_lane_period);
        let lane_idx = if from_low {
            (0..3).rev().find(|&l| !state.lanes[l].is_empty()).unwrap()
        } else {
            (0..3).find(|&l| !state.lanes[l].is_empty()).unwrap()
        };
        // Stride scheduling within the lane: serve the queued client with
        // the smallest pass; FIFO (admission seq) breaks ties.
        let mut best: Option<(u64, u64, usize)> = None; // (pass, seq, pos)
        for (pos, job) in state.lanes[lane_idx].iter().enumerate() {
            let pass = *state.passes.get(&job.request.client).unwrap_or(&0);
            let key = (pass, job.seq, pos);
            if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                best = Some(key);
            }
        }
        let pos = best.expect("claim called on empty lane").2;
        let job = state.lanes[lane_idx].remove(pos).unwrap();
        state.queued -= 1;
        state.active += 1;
        self.metrics
            .gauge_max(Gauge::ServeActiveJobs, state.active as u64);
        let advance = STRIDE / u64::from(job.request.effective_weight());
        *state.passes.entry(job.request.client.clone()).or_insert(0) += advance.max(1);

        let now = Instant::now();
        let wait = now.saturating_duration_since(job.enqueued);
        let lane = match lane_idx {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        self.metrics.observe(
            match lane {
                Priority::High => Histogram::ServeWaitHighMicros,
                Priority::Normal => Histogram::ServeWaitNormalMicros,
                Priority::Low => Histogram::ServeWaitLowMicros,
            },
            wait.as_micros() as u64,
        );

        // Overload-shedding ladder: shrink the engine grant by 2^level.
        let shed_level = state
            .queued
            .checked_div(self.config.shed_watermark)
            .map_or(0, |level| (level as u32).min(MAX_SHED_LEVEL));
        if shed_level > 0 {
            self.metrics.add(Counter::ServeShed, 1);
        }
        let base_grant = match job.client_deadline {
            Some(at) => at.saturating_duration_since(now),
            None => self.config.default_deadline,
        };
        let grant = (base_grant / 2u32.pow(shed_level)).max(MIN_GRANT);
        let engine_deadline = now + grant;

        Dispatch {
            job_id: job.id,
            control: JobControl::new(Arc::clone(&job.cancel), Some(engine_deadline)),
            client_deadline: job.client_deadline,
            reply: job.reply,
            wait,
            lane,
            shed_level,
            request: job.request,
        }
    }

    /// Marks a claimed job terminal: drops its cancel handle and wakes
    /// drain waiters. Every `next()` must be paired with one `finish`.
    pub fn finish(&self, job_id: u64) {
        let mut state = self.state.lock().unwrap();
        state.cancels.remove(&job_id);
        state.active -= 1;
        drop(state);
        self.idle.notify_all();
    }

    /// Live queue/active counts `(queued, active)` for health reporting.
    pub fn depth(&self) -> (usize, usize) {
        let state = self.state.lock().unwrap();
        (state.queued, state.active)
    }

    /// Whether drain has started.
    pub fn is_draining(&self) -> bool {
        self.state.lock().unwrap().draining
    }

    /// Drains the scheduler: refuses new admissions, flags every live job
    /// for cancellation (queued jobs resolve as `Cancelled` without
    /// running; running jobs finish fast through the engine's degradation
    /// ladder, checkpointing what they have), and blocks until every
    /// claimed job has called [`Scheduler::finish`].
    pub fn drain(&self) {
        let mut state = self.state.lock().unwrap();
        state.draining = true;
        for flag in state.cancels.values() {
            flag.store(true, Ordering::Relaxed);
        }
        drop(state);
        // Wake every worker so idle ones observe draining and exit, and
        // so queued-but-cancelled jobs get claimed and resolved.
        self.available.notify_all();
        let mut state = self.state.lock().unwrap();
        while state.queued > 0 || state.active > 0 {
            state = self.idle.wait(state).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    struct Collect(StdMutex<Vec<Message>>);

    impl Collect {
        fn new() -> Arc<Collect> {
            Arc::new(Collect(StdMutex::new(Vec::new())))
        }
        fn msgs(&self) -> Vec<Message> {
            self.0.lock().unwrap().clone()
        }
    }

    impl ReplySink for Collect {
        fn send(&self, msg: &Message) {
            self.0.lock().unwrap().push(msg.clone());
        }
    }

    fn req(client: &str, priority: Priority, weight: u32) -> JobRequest {
        let mut r = JobRequest::new(client, ".model a\n.end\n", ".model b\n.end\n");
        r.priority = priority;
        r.weight = weight;
        r
    }

    fn sched(capacity: usize) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                lane_capacity: capacity,
                ..SchedulerConfig::default()
            },
            &Telemetry::enabled(),
        )
    }

    #[test]
    fn admission_is_bounded_and_rejections_are_explicit() {
        let s = sched(2);
        let sink = Collect::new();
        assert!(s
            .submit(req("a", Priority::Normal, 1), sink.clone())
            .is_some());
        assert!(s
            .submit(req("a", Priority::Normal, 1), sink.clone())
            .is_some());
        assert!(s
            .submit(req("a", Priority::Normal, 1), sink.clone())
            .is_none());
        let msgs = sink.msgs();
        assert!(matches!(msgs[0], Message::Accepted { job_id: 1 }));
        assert!(matches!(msgs[1], Message::Accepted { job_id: 2 }));
        assert!(matches!(
            msgs[2],
            Message::Rejected {
                reason: RejectReason::Overloaded,
                ..
            }
        ));
        // Other lanes still have room.
        assert!(s.submit(req("a", Priority::High, 1), sink).is_some());
    }

    #[test]
    fn invalid_requests_are_rejected_without_queueing() {
        let s = sched(4);
        let sink = Collect::new();
        let mut bad = req("", Priority::Normal, 1);
        bad.client = String::new();
        assert!(s.submit(bad, sink.clone()).is_none());
        assert!(matches!(
            sink.msgs()[0],
            Message::Rejected {
                reason: RejectReason::Invalid,
                ..
            }
        ));
        assert_eq!(s.depth(), (0, 0));
    }

    #[test]
    fn high_lane_is_served_first() {
        let s = sched(8);
        let sink = Collect::new();
        s.submit(req("a", Priority::Low, 1), sink.clone());
        s.submit(req("b", Priority::Normal, 1), sink.clone());
        s.submit(req("c", Priority::High, 1), sink);
        let d = s.next().unwrap();
        assert_eq!(d.lane, Priority::High);
        s.finish(d.job_id);
    }

    #[test]
    fn weighted_fairness_favors_the_heavier_client() {
        let s = sched(64);
        let sink = Collect::new();
        // Interleave admissions so arrival order cannot explain the
        // dispatch ratio.
        for _ in 0..12 {
            s.submit(req("heavy", Priority::Normal, 4), sink.clone());
            s.submit(req("light", Priority::Normal, 1), sink.clone());
        }
        let mut heavy = 0;
        let mut light = 0;
        for _ in 0..10 {
            let d = s.next().unwrap();
            match d.request.client.as_str() {
                "heavy" => heavy += 1,
                _ => light += 1,
            }
            s.finish(d.job_id);
        }
        assert!(
            heavy >= 2 * light.max(1),
            "weight-4 client got {heavy}/10 vs weight-1 {light}/10"
        );
    }

    #[test]
    fn low_lane_cannot_starve() {
        let s = Scheduler::new(
            SchedulerConfig {
                lane_capacity: 128,
                low_lane_period: 4,
                ..SchedulerConfig::default()
            },
            &Telemetry::enabled(),
        );
        let sink = Collect::new();
        s.submit(req("batch", Priority::Low, 1), sink.clone());
        for _ in 0..20 {
            s.submit(req("hot", Priority::High, 1), sink.clone());
        }
        let mut low_seen = false;
        for _ in 0..8 {
            let d = s.next().unwrap();
            low_seen |= d.lane == Priority::Low;
            s.finish(d.job_id);
        }
        assert!(low_seen, "low lane starved across 8 dispatches");
    }

    #[test]
    fn cancel_flags_queued_jobs_and_unknown_ids_are_harmless() {
        let s = sched(4);
        let sink = Collect::new();
        let id = s.submit(req("a", Priority::Normal, 1), sink).unwrap();
        assert!(s.cancel(id));
        assert!(!s.cancel(9999));
        let d = s.next().unwrap();
        assert!(d.control.is_cancelled());
        s.finish(d.job_id);
        assert!(!s.cancel(id), "finished ids drop out of the cancel map");
    }

    #[test]
    fn shed_level_grows_with_queue_depth_and_caps() {
        let s = Scheduler::new(
            SchedulerConfig {
                lane_capacity: 256,
                shed_watermark: 4,
                low_lane_period: 0,
                ..SchedulerConfig::default()
            },
            &Telemetry::enabled(),
        );
        let sink = Collect::new();
        for _ in 0..64 {
            s.submit(req("a", Priority::Normal, 1), sink.clone());
        }
        let d = s.next().unwrap();
        assert_eq!(d.shed_level, MAX_SHED_LEVEL);
        let deadline = d.control.deadline().expect("shed jobs still get a grant");
        assert!(deadline > Instant::now(), "grant has a positive floor");
        s.finish(d.job_id);
    }

    #[test]
    fn drain_rejects_new_work_and_resolves_everything() {
        let s = Arc::new(sched(16));
        let sink = Collect::new();
        for _ in 0..5 {
            s.submit(req("a", Priority::Normal, 1), sink.clone());
        }
        // Start the drain first (it blocks until the queue empties), then
        // act as the worker once `draining` is observable — every claim
        // from that point on must already carry the cancel flag.
        let drainer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.drain())
        };
        while !s.is_draining() {
            std::thread::yield_now();
        }
        let mut resolved = 0;
        while let Some(d) = s.next() {
            assert!(d.control.is_cancelled(), "drain must flag live jobs");
            s.finish(d.job_id);
            resolved += 1;
        }
        drainer.join().unwrap();
        assert_eq!(resolved, 5);
        assert!(s
            .submit(req("a", Priority::Normal, 1), sink.clone())
            .is_none());
        assert!(matches!(
            sink.msgs().last(),
            Some(Message::Rejected {
                reason: RejectReason::ShuttingDown,
                ..
            })
        ));
    }
}
