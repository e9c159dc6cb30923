//! Named, deterministic fault injection across every layer of a run.
//!
//! The engine's robustness claim is an invariant, not a hope: *every run
//! ends in a verified patch or a clean degradation report — never
//! corruption, a poisoned lock, or a silently-missing output*. This module
//! gives that invariant a systematic adversary. A `FaultPlan` names one or
//! more **fault points** — places where a real deployment can fail — and
//! fires them deterministically at chosen call counts, so the chaos
//! harness (`syseco::fuzz::chaos`) can sweep the entire registry over
//! fuzz-generated scenarios and a failing combination replays exactly.
//!
//! The registry spans four layers:
//!
//! * **search resources** — SAT budget exhaustion and synthetic
//!   per-output search panics (`FaultPolicy`);
//! * **span boundaries** — cooperative cancellation or a simulated
//!   hard crash ([`SpanPoint`], one per telemetry span) exercised through
//!   `Budget::fault_span` hooks on the engine's hot path;
//! * **cache I/O** — transient or permanent read errors, short (torn)
//!   writes, and failed tempfile renames injected through the
//!   [`eco_cache::Vfs`] seam;
//! * **checkpoint I/O** — the same failure modes against the
//!   crash-safe checkpoint store.
//!
//! Everything here except [`SpanPoint`] is compiled only under `cfg(test)`
//! or the `fault-injection` feature; release builds pay nothing beyond a
//! handful of always-taken branches.

use std::fmt;

#[cfg(any(test, feature = "fault-injection"))]
use eco_cache::IoFaultSpec;

/// A point in the run where a span begins — the granularity at which
/// cancellation and simulated crashes are injected.
///
/// Names match the telemetry span names exactly (`SpanPoint::Samples` is
/// the `"samples"` span), so a trace viewer and a fault spec speak the
/// same vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPoint {
    /// The whole-rectification root span.
    Run,
    /// Failing-output detection (initial CEC sweep).
    Detect,
    /// One per-output search (fires once per output).
    Search,
    /// Symbolic sample collection inside one search.
    Samples,
    /// Candidate point-set enumeration.
    PointSets,
    /// Rewiring-choice enumeration (`Ξ(c)`, §4.4) for one point-set.
    Choices,
    /// SAT validation of one proposal.
    Validate,
    /// Merging one per-output result into the patch.
    Merge,
    /// Committing one merged proposal.
    Commit,
    /// The post-merge verification pass.
    Verify,
    /// Final patch input refinement.
    RefinePatch,
}

impl SpanPoint {
    /// Every span point, in pipeline order.
    pub const ALL: [SpanPoint; 11] = [
        SpanPoint::Run,
        SpanPoint::Detect,
        SpanPoint::Search,
        SpanPoint::Samples,
        SpanPoint::PointSets,
        SpanPoint::Choices,
        SpanPoint::Validate,
        SpanPoint::Merge,
        SpanPoint::Commit,
        SpanPoint::Verify,
        SpanPoint::RefinePatch,
    ];

    /// The telemetry span name this point corresponds to.
    pub fn name(self) -> &'static str {
        match self {
            SpanPoint::Run => "run",
            SpanPoint::Detect => "detect",
            SpanPoint::Search => "search",
            SpanPoint::Samples => "samples",
            SpanPoint::PointSets => "point_sets",
            SpanPoint::Choices => "choices",
            SpanPoint::Validate => "validate",
            SpanPoint::Merge => "merge",
            SpanPoint::Commit => "commit",
            SpanPoint::Verify => "verify",
            SpanPoint::RefinePatch => "refine_patch",
        }
    }

    /// Parses a span name back to its point.
    pub fn from_name(name: &str) -> Option<SpanPoint> {
        SpanPoint::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The index of this point in [`SpanPoint::ALL`].
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) fn index(self) -> usize {
        SpanPoint::ALL
            .iter()
            .position(|p| *p == self)
            .expect("ALL is exhaustive")
    }
}

impl fmt::Display for SpanPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic fault schedule for the search-resource layer.
///
/// Counters are 1-based: `sat_exhaust_from: Some(1)` faults every SAT
/// validation from the first one on. Only available under `cfg(test)` or
/// the `fault-injection` feature.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Force SAT validation to report exhaustion (`Unknown`) from the Nth
    /// validation onwards.
    pub sat_exhaust_from: Option<u64>,
    /// Panic inside the Nth per-output search (exactly once).
    pub panic_at: Option<u64>,
}

/// A complete, named, replayable fault schedule for one run.
///
/// A plan is built either programmatically or from its textual *spec* — a
/// comma-separated list of `name@count` tokens (see [`FaultPlan::parse`])
/// — and the spec is what chaos repros embed, so a failing plan replays
/// byte-for-byte via `syseco-fuzz replay`.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Search-resource faults (SAT exhaustion, worker panics).
    pub policy: FaultPolicy,
    /// Trip the run's cancellation at the Nth entry to a span point.
    pub cancel_at: Option<(SpanPoint, u64)>,
    /// Simulate a hard crash (process kill) at the Nth entry to a span
    /// point: the run aborts with `EcoError::InjectedAbort`, leaving
    /// whatever checkpoint/cache state was durably committed.
    pub abort_at: Option<(SpanPoint, u64)>,
    /// Faults injected into persistent-cache I/O.
    pub cache_io: IoFaultSpec,
    /// Faults injected into checkpoint I/O.
    pub checkpoint_io: IoFaultSpec,
}

#[cfg(any(test, feature = "fault-injection"))]
impl FaultPlan {
    /// Whether this plan injects nothing.
    pub fn is_noop(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Every registered fault-point name, in canonical order.
    ///
    /// Each name, suffixed with `@count`, is a valid [`FaultPlan::parse`]
    /// token; the chaos harness sweeps exactly this list, so a fault point
    /// that is not exercised does not exist.
    pub fn point_names() -> Vec<String> {
        let mut names = vec!["sat-exhaust".to_string(), "search-panic".to_string()];
        for p in SpanPoint::ALL {
            names.push(format!("cancel:{}", p.name()));
        }
        for p in SpanPoint::ALL {
            names.push(format!("abort:{}", p.name()));
        }
        for layer in ["cache", "ckpt"] {
            for op in ["read-error", "short-write", "rename-error"] {
                names.push(format!("{layer}-{op}"));
                names.push(format!("{layer}-{op}-hard"));
            }
        }
        names
    }

    /// Parses a plan spec: comma-separated `name@count` tokens (`@count`
    /// defaults to `@1`), e.g. `"search-panic@2,cancel:merge@1"`.
    ///
    /// Counts are 1-based occurrence indices. I/O fault points are
    /// transient (one failing call, absorbed by retry) unless suffixed
    /// `-hard` (every call from the Nth onward fails).
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown point name or a malformed
    /// count.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (name, count) = match token.split_once('@') {
                Some((n, c)) => (
                    n,
                    c.parse::<u64>()
                        .map_err(|_| format!("bad fault count in {token:?}"))?,
                ),
                None => (token, 1),
            };
            if count == 0 {
                return Err(format!("fault counts are 1-based, got {token:?}"));
            }
            if let Some(span) = name.strip_prefix("cancel:") {
                let p = SpanPoint::from_name(span)
                    .ok_or_else(|| format!("unknown span point {span:?}"))?;
                plan.cancel_at = Some((p, count));
                continue;
            }
            if let Some(span) = name.strip_prefix("abort:") {
                let p = SpanPoint::from_name(span)
                    .ok_or_else(|| format!("unknown span point {span:?}"))?;
                plan.abort_at = Some((p, count));
                continue;
            }
            let (base, burst) = match name.strip_suffix("-hard") {
                Some(base) => (base, u64::MAX),
                None => (name, 1),
            };
            let window = Some((count, burst));
            match base {
                "sat-exhaust" => plan.policy.sat_exhaust_from = Some(count),
                "search-panic" => plan.policy.panic_at = Some(count),
                "cache-read-error" => plan.cache_io.read_error_at = window,
                "cache-short-write" => plan.cache_io.short_write_at = window,
                "cache-rename-error" => plan.cache_io.rename_error_at = window,
                "ckpt-read-error" => plan.checkpoint_io.read_error_at = window,
                "ckpt-short-write" => plan.checkpoint_io.short_write_at = window,
                "ckpt-rename-error" => plan.checkpoint_io.rename_error_at = window,
                _ => return Err(format!("unknown fault point {name:?}")),
            }
        }
        Ok(plan)
    }

    /// The canonical spec of this plan; [`FaultPlan::parse`] of the result
    /// reproduces the plan exactly.
    pub fn spec(&self) -> String {
        let mut tokens = Vec::new();
        if let Some(n) = self.policy.sat_exhaust_from {
            tokens.push(format!("sat-exhaust@{n}"));
        }
        if let Some(n) = self.policy.panic_at {
            tokens.push(format!("search-panic@{n}"));
        }
        if let Some((p, n)) = self.cancel_at {
            tokens.push(format!("cancel:{}@{n}", p.name()));
        }
        if let Some((p, n)) = self.abort_at {
            tokens.push(format!("abort:{}@{n}", p.name()));
        }
        let io = |tokens: &mut Vec<String>, layer: &str, spec: &IoFaultSpec| {
            for (op, window) in [
                ("read-error", spec.read_error_at),
                ("short-write", spec.short_write_at),
                ("rename-error", spec.rename_error_at),
            ] {
                if let Some((at, burst)) = window {
                    let hard = if burst == u64::MAX { "-hard" } else { "" };
                    tokens.push(format!("{layer}-{op}{hard}@{at}"));
                }
            }
        };
        io(&mut tokens, "cache", &self.cache_io);
        io(&mut tokens, "ckpt", &self.checkpoint_io);
        tokens.join(",")
    }
}

/// Per-run mutable fault state, owned by the `Budget`.
///
/// Counters are atomic so one plan can be evaluated from every worker
/// thread; the lazily-built fault VFSs are shared so cache open and commit
/// see one continuous call sequence.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    pub(crate) sat_validations: std::sync::atomic::AtomicU64,
    pub(crate) searches: std::sync::atomic::AtomicU64,
    pub(crate) spans: [std::sync::atomic::AtomicU64; SpanPoint::ALL.len()],
    pub(crate) cancelled: std::sync::atomic::AtomicBool,
    pub(crate) injected: std::sync::atomic::AtomicU64,
    pub(crate) cache_vfs: std::sync::OnceLock<std::sync::Arc<eco_cache::FaultVfs>>,
    pub(crate) checkpoint_vfs: std::sync::OnceLock<std::sync::Arc<eco_cache::FaultVfs>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_roundtrip_and_match_telemetry_vocabulary() {
        for p in SpanPoint::ALL {
            assert_eq!(SpanPoint::from_name(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
            assert_eq!(SpanPoint::ALL[p.index()], p);
        }
        assert_eq!(SpanPoint::from_name("nope"), None);
        assert_eq!(
            SpanPoint::from_name("point_sets"),
            Some(SpanPoint::PointSets)
        );
    }

    #[test]
    fn every_registered_point_parses_and_roundtrips() {
        for name in FaultPlan::point_names() {
            let spec = format!("{name}@2");
            let plan = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!plan.is_noop(), "{name} must do something");
            assert_eq!(plan.spec(), spec, "{name} spec must roundtrip");
            assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        }
        assert_eq!(FaultPlan::point_names().len(), 2 + 22 + 12);
    }

    #[test]
    fn parse_combines_tokens_and_defaults_count() {
        let plan =
            FaultPlan::parse("search-panic, cancel:merge@3 ,cache-read-error-hard@2").unwrap();
        assert_eq!(plan.policy.panic_at, Some(1));
        assert_eq!(plan.cancel_at, Some((SpanPoint::Merge, 3)));
        assert_eq!(plan.cache_io.read_error_at, Some((2, u64::MAX)));
        assert_eq!(
            plan.spec(),
            "search-panic@1,cancel:merge@3,cache-read-error-hard@2"
        );
        assert!(FaultPlan::parse("").unwrap().is_noop());
    }

    #[test]
    fn parse_rejects_unknown_points_and_zero_counts() {
        assert!(FaultPlan::parse("warp-core-breach").is_err());
        // Retired fault points.
        assert!(FaultPlan::parse("bdd-reorder@1").is_err());
        assert!(FaultPlan::parse("bdd-node-limit@1").is_err());
        assert!(FaultPlan::parse("bdd-gc@1").is_err());
        assert!(FaultPlan::parse("cancel:nope").is_err());
        assert!(FaultPlan::parse("abort:nope@1").is_err());
        assert!(FaultPlan::parse("search-panic@0").is_err());
        assert!(FaultPlan::parse("search-panic@x").is_err());
    }
}
