//! Resource governance for rectification runs (the §5.1 resource
//! constraints, generalized).
//!
//! The paper's engine is explicitly resource-constrained: SAT validation is
//! budgeted, candidate enumeration is capped, and the output-rewire fallback
//! guarantees completeness whenever the search runs out of anything. This
//! module carries those constraints as one value — a [`Budget`] combining a
//! wall-clock deadline with a cooperative [`CancelToken`] — threaded through
//! the engine, the per-output search, and the SAT solver.
//!
//! Exhaustion never aborts a run. The engine degrades along the paper's
//! completeness ladder (best-validated option so far, else the always
//! applicable output-rewire fallback) and records each cut corner as a
//! [`Degradation`] in the run statistics.
//!
//! Under `cfg(test)` or the `fault-injection` feature, a
//! [`FaultPlan`](crate::fault) deterministically forces SAT budget
//! exhaustion, synthetic panics, span-boundary
//! cancellations/aborts, and cache/checkpoint I/O faults at chosen call
//! counts so every degradation and recovery path is testable (see
//! [`crate::fault`]).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eco_cache::{RetryPolicy, Vfs};
use eco_sat::Solver;

use crate::fault::SpanPoint;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{FaultPlan, FaultPolicy, FaultState};

/// Cooperative cancellation token.
///
/// Clone the token, hand one copy to the rectification run (via
/// [`Budget::with_cancel`]) and keep the other; calling [`cancel`] from any
/// thread makes the run wind down at the next check point, falling back to
/// the guaranteed output rewires for whatever is still unrectified.
///
/// [`cancel`]: CancelToken::cancel
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token observing an externally owned flag, for bridging foreign
    /// cancellation sources into a [`Budget`]. The daemon layer
    /// ([`crate::serve`]) uses this to propagate a per-job cancel frame —
    /// whoever stores `true` into the flag cancels the run.
    pub fn from_shared(flag: Arc<AtomicBool>) -> Self {
        CancelToken { flag }
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw flag, for handing to solvers that poll it.
    pub(crate) fn shared_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Whether a [`Budget`] still permits work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStatus {
    /// Work may continue.
    Ok,
    /// The wall-clock deadline has passed.
    DeadlineExceeded,
    /// The cancel token was triggered.
    Cancelled,
}

/// Wall-clock and cancellation governance for one rectification run.
///
/// A `Budget` is passed by reference into [`Session::run_with_budget`]
/// (and down through every resource-consuming layer). It is cheap to query;
/// the solvers poll it only periodically.
///
/// [`Session::run_with_budget`]: crate::Session::run_with_budget
#[derive(Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    #[cfg(any(test, feature = "fault-injection"))]
    plan: FaultPlan,
    #[cfg(any(test, feature = "fault-injection"))]
    fault_state: FaultState,
}

impl Budget {
    /// A budget with no deadline and no cancellation: the engine runs to
    /// completion under its per-call conflict/node caps only.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Budget {
            deadline: Instant::now().checked_add(timeout),
            ..Self::default()
        }
    }

    /// A budget expiring at an absolute instant.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Attaches a deterministic fault policy (builder style). Only available
    /// in test builds or with the `fault-injection` feature.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn with_faults(mut self, faults: FaultPolicy) -> Self {
        self.plan.policy = faults;
        self
    }

    /// Attaches a complete [`FaultPlan`] (builder style), replacing any
    /// policy set by [`Budget::with_faults`]. Only available in test builds
    /// or with the `fault-injection` feature.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline; `None` when unbounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Current status: deadline and cancellation checked in that order of
    /// precedence (a cancelled run past its deadline reports the deadline).
    pub fn status(&self) -> BudgetStatus {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return BudgetStatus::DeadlineExceeded;
            }
        }
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return BudgetStatus::Cancelled;
            }
        }
        #[cfg(any(test, feature = "fault-injection"))]
        if self.fault_state.cancelled.load(Ordering::Relaxed) {
            return BudgetStatus::Cancelled;
        }
        BudgetStatus::Ok
    }

    /// Whether no further search work should start.
    pub fn is_exhausted(&self) -> bool {
        self.status() != BudgetStatus::Ok
    }

    /// The degradation reason corresponding to the current status, if the
    /// budget is exhausted.
    pub(crate) fn degrade_reason(&self) -> Option<DegradeReason> {
        match self.status() {
            BudgetStatus::Ok => None,
            BudgetStatus::DeadlineExceeded => Some(DegradeReason::DeadlineExceeded),
            BudgetStatus::Cancelled => Some(DegradeReason::Cancelled),
        }
    }

    /// Arms a SAT solver with this budget's deadline and cancel flag so its
    /// solve loop stops (returning `Unknown`) when either trips.
    pub fn arm_solver(&self, solver: &mut Solver) {
        solver.set_deadline(self.deadline);
        solver.set_interrupt(self.cancel.as_ref().map(CancelToken::shared_flag));
    }

    // ------------------------------------------------------------------
    // Deterministic fault injection (no-ops unless enabled).
    // ------------------------------------------------------------------

    /// Counts one SAT validation; `true` when the policy says this
    /// validation must report budget exhaustion.
    #[inline]
    pub(crate) fn inject_sat_exhaust(&self) -> bool {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            let n = self
                .fault_state
                .sat_validations
                .fetch_add(1, Ordering::Relaxed)
                + 1;
            if matches!(self.plan.policy.sat_exhaust_from, Some(at) if n >= at) {
                self.fault_state.injected.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            return false;
        }
        #[allow(unreachable_code)]
        false
    }

    /// Counts one per-output search; panics when the policy says this search
    /// must die. The engine isolates the panic and falls back.
    #[inline]
    pub(crate) fn inject_search_panic(&self) {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            let n = self.fault_state.searches.fetch_add(1, Ordering::Relaxed) + 1;
            if matches!(self.plan.policy.panic_at, Some(at) if n == at) {
                self.fault_state.injected.fetch_add(1, Ordering::Relaxed);
                panic!("synthetic fault: injected panic in per-output search #{n}");
            }
        }
    }

    /// Counts one entry to a span point, firing any cancellation or abort
    /// the plan schedules there.
    ///
    /// A scheduled *cancellation* trips the budget exactly as an external
    /// [`CancelToken`] would — downstream code winds down along the normal
    /// degradation ladder. A scheduled *abort* simulates a hard crash
    /// (SIGKILL): `EcoError::InjectedAbort` propagates out of the run and
    /// nothing else is written; a rerun resumes from whatever was durably
    /// checkpointed. No-op (always `Ok`) without fault injection.
    #[inline]
    pub(crate) fn fault_span(&self, _point: SpanPoint) -> Result<(), crate::EcoError> {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            let n = self.fault_state.spans[_point.index()].fetch_add(1, Ordering::Relaxed) + 1;
            if matches!(self.plan.cancel_at, Some((p, at)) if p == _point && at == n) {
                self.fault_state.cancelled.store(true, Ordering::Relaxed);
                self.fault_state.injected.fetch_add(1, Ordering::Relaxed);
            }
            if matches!(self.plan.abort_at, Some((p, at)) if p == _point && at == n) {
                self.fault_state.injected.fetch_add(1, Ordering::Relaxed);
                return Err(crate::EcoError::InjectedAbort);
            }
        }
        Ok(())
    }

    /// The [`Vfs`] the persistent cache must use: the plan's fault VFS when
    /// cache I/O faults are scheduled, else `None` (real I/O).
    ///
    /// The fault VFS is built once and shared so open and commit observe
    /// one continuous call sequence.
    pub(crate) fn cache_vfs(&self) -> Option<Arc<dyn Vfs>> {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            if !self.plan.cache_io.is_noop() {
                let vfs = self
                    .fault_state
                    .cache_vfs
                    .get_or_init(|| Arc::new(eco_cache::FaultVfs::new(self.plan.cache_io)));
                return Some(Arc::clone(vfs) as Arc<dyn Vfs>);
            }
        }
        None
    }

    /// The [`Vfs`] the checkpoint store must use (see
    /// [`Budget::cache_vfs`]).
    pub(crate) fn checkpoint_vfs(&self) -> Option<Arc<dyn Vfs>> {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            if !self.plan.checkpoint_io.is_noop() {
                let vfs = self
                    .fault_state
                    .checkpoint_vfs
                    .get_or_init(|| Arc::new(eco_cache::FaultVfs::new(self.plan.checkpoint_io)));
                return Some(Arc::clone(vfs) as Arc<dyn Vfs>);
            }
        }
        None
    }

    /// The retry schedule for cache/checkpoint I/O: the default (real
    /// backoff sleeps) in production, the deterministic no-sleep schedule
    /// whenever a fault plan is active so chaos sweeps stay fast.
    pub(crate) fn io_retry(&self) -> RetryPolicy {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            if !self.plan.is_noop() {
                return RetryPolicy::no_sleep();
            }
        }
        RetryPolicy::default()
    }

    /// Total faults fired so far by this budget's plan, including I/O
    /// faults from the plan's VFSs. Always 0 without fault injection.
    pub fn faults_fired(&self) -> u64 {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            let mut n = self.fault_state.injected.load(Ordering::Relaxed);
            if let Some(vfs) = self.fault_state.cache_vfs.get() {
                n += vfs.injected();
            }
            if let Some(vfs) = self.fault_state.checkpoint_vfs.get() {
                n += vfs.injected();
            }
            return n;
        }
        #[allow(unreachable_code)]
        0
    }
}

// ----------------------------------------------------------------------
// Degradation accounting
// ----------------------------------------------------------------------

/// Why one output's search was cut short.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradeReason {
    /// The run's wall-clock deadline passed.
    DeadlineExceeded,
    /// The run was cancelled through its [`CancelToken`].
    Cancelled,
    /// SAT validation exhausted its conflict budget without a verdict.
    SatBudgetExhausted,
    /// The search panicked; the payload is the panic message.
    SearchPanicked(String),
    /// The search returned an error; the payload is its display form.
    SearchError(String),
    /// The per-output proposal validated in isolation but conflicted with a
    /// rewire merged for an earlier output (parallel runs validate each cone
    /// against the pre-patch circuit; see DESIGN.md "Parallel execution
    /// model").
    MergeConflict,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            DegradeReason::Cancelled => write!(f, "cancelled"),
            DegradeReason::SatBudgetExhausted => write!(f, "sat budget exhausted"),
            DegradeReason::SearchPanicked(msg) => write!(f, "search panicked: {msg}"),
            DegradeReason::SearchError(msg) => write!(f, "search error: {msg}"),
            DegradeReason::MergeConflict => write!(f, "merge conflict between per-output patches"),
        }
    }
}

/// How the engine recovered from a cut-short search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// Committed the best rewiring validated before the cut-off.
    CommittedBest,
    /// Applied the §3.3 output-rewire fallback (spec cone clone).
    OutputRewireFallback,
}

impl fmt::Display for DegradeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeAction::CommittedBest => write!(f, "committed best validated option"),
            DegradeAction::OutputRewireFallback => write!(f, "output-rewire fallback"),
        }
    }
}

/// One output whose rectification was degraded rather than searched to
/// completion, and how it was still rectified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Label of the affected output.
    pub output: String,
    /// Why the search was cut short.
    pub reason: DegradeReason,
    /// How the output was rectified anyway.
    pub action: DegradeAction,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "output {:?}: {} -> {}",
            self.output, self.reason, self.action
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        assert_eq!(b.status(), BudgetStatus::Ok);
        assert!(!b.is_exhausted());
        assert_eq!(b.remaining(), None);
        assert_eq!(b.degrade_reason(), None);
    }

    #[test]
    fn expired_deadline_reports_exhaustion() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert_eq!(b.status(), BudgetStatus::DeadlineExceeded);
        assert!(b.is_exhausted());
        assert_eq!(b.degrade_reason(), Some(DegradeReason::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_is_ok_and_counts_down() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert_eq!(b.status(), BudgetStatus::Ok);
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancel_token_trips_budget() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(&token);
        assert_eq!(b.status(), BudgetStatus::Ok);
        token.cancel();
        assert_eq!(b.status(), BudgetStatus::Cancelled);
        assert_eq!(b.degrade_reason(), Some(DegradeReason::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn deadline_takes_precedence_over_cancel() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::with_deadline(Duration::ZERO).with_cancel(&token);
        assert_eq!(b.status(), BudgetStatus::DeadlineExceeded);
    }

    #[test]
    fn fault_policy_counts_from_thresholds() {
        let b = Budget::unlimited().with_faults(FaultPolicy {
            sat_exhaust_from: Some(2),
            panic_at: None,
        });
        assert!(!b.inject_sat_exhaust()); // validation 1
        assert!(b.inject_sat_exhaust()); // validation 2
        assert!(b.inject_sat_exhaust()); // validation 3 (>= threshold)
        b.inject_search_panic(); // no panic configured
    }

    #[test]
    fn fault_panic_fires_at_exact_count() {
        let b = Budget::unlimited().with_faults(FaultPolicy {
            panic_at: Some(2),
            ..FaultPolicy::default()
        });
        b.inject_search_panic(); // search 1: fine
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.inject_search_panic() // search 2: boom
        }));
        assert!(caught.is_err());
        b.inject_search_panic(); // search 3: fine again (exact match)
    }

    #[test]
    fn fault_span_cancel_trips_budget_at_exact_count() {
        let plan = FaultPlan::parse("cancel:merge@2").unwrap();
        let b = Budget::unlimited().with_fault_plan(plan);
        assert!(b.fault_span(SpanPoint::Merge).is_ok());
        assert_eq!(b.status(), BudgetStatus::Ok, "first merge entry is clean");
        assert!(b.fault_span(SpanPoint::Merge).is_ok());
        assert_eq!(b.status(), BudgetStatus::Cancelled);
        assert_eq!(b.degrade_reason(), Some(DegradeReason::Cancelled));
        assert_eq!(b.faults_fired(), 1);
    }

    #[test]
    fn fault_span_abort_errors_out_once() {
        let plan = FaultPlan::parse("abort:commit@1").unwrap();
        let b = Budget::unlimited().with_fault_plan(plan);
        assert!(b.fault_span(SpanPoint::Verify).is_ok(), "other spans clean");
        assert!(matches!(
            b.fault_span(SpanPoint::Commit),
            Err(crate::EcoError::InjectedAbort)
        ));
        assert!(b.fault_span(SpanPoint::Commit).is_ok(), "exact count only");
        assert_eq!(b.faults_fired(), 1);
    }

    #[test]
    fn fault_vfs_accessors_follow_the_plan() {
        let b = Budget::unlimited();
        assert!(b.cache_vfs().is_none());
        assert!(b.checkpoint_vfs().is_none());
        assert_eq!(b.faults_fired(), 0);
        let b = Budget::unlimited()
            .with_fault_plan(FaultPlan::parse("cache-read-error@1,ckpt-rename-error@1").unwrap());
        assert!(b.cache_vfs().is_some());
        assert!(b.checkpoint_vfs().is_some());
        // Faults from the shared VFS roll up into faults_fired.
        let vfs = b.cache_vfs().unwrap();
        assert!(vfs.read(std::path::Path::new("/nonexistent")).is_err());
        assert_eq!(b.faults_fired(), 1);
    }

    #[test]
    fn degradation_display_is_informative() {
        let d = Degradation {
            output: "y".into(),
            reason: DegradeReason::DeadlineExceeded,
            action: DegradeAction::OutputRewireFallback,
        };
        let s = d.to_string();
        assert!(s.contains("\"y\""));
        assert!(s.contains("deadline exceeded"));
        assert!(s.contains("fallback"));
        assert!(!DegradeReason::SearchPanicked("boom".into())
            .to_string()
            .is_empty());
        assert!(!DegradeAction::CommittedBest.to_string().is_empty());
    }
}
