//! **syseco** — rewire-based ECO rectification with symbolic sampling.
//!
//! A Rust reproduction of *Comprehensive Search for ECO Rectification Using
//! Symbolic Sampling* (Kravets, Lee, Jiang — DAC 2019). Given a heavily
//! optimized implementation `C` and a lightly synthesized revised
//! specification `C'`, the engine finds a minimal **patch**: a set of
//! rewire operations `p_1/s_1, …, p_m/s_m` reconnecting sink pins of `C`
//! to existing nets of `C` or cloned nets of `C'` (paper §3.3).
//!
//! The search is *functional*, not structural: candidate rectification
//! points are enumerated through the characteristic function
//! `H(t) = ∀x ∃y (h(x,y,t) ≡ f'(x))` (§4.2), whose prime cubes are its
//! minimal feasible pin sets, candidate rewirings through
//! `Ξ(c) = ∀x,y (L ⇒ h ∧ h ⇒ U)` (§4.4), and both computations are cast
//! into a compact **symbolic sampling domain** over error minterms (§5.1),
//! with resource-constrained SAT validating every candidate on the exact
//! domain and feeding false positives back as new samples.
//!
//! # Quick start
//!
//! ```
//! use eco_netlist::{Circuit, GateKind};
//! use syseco::{EcoOptions, Session};
//!
//! # fn main() -> Result<(), syseco::EcoError> {
//! // Implementation computes AND where the revision wants OR.
//! let mut c = Circuit::new("impl");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let g = c.add_gate(GateKind::And, &[a, b])?;
//! c.add_output("y", g);
//! let mut s = Circuit::new("spec");
//! let a = s.add_input("a");
//! let b = s.add_input("b");
//! let g = s.add_gate(GateKind::Or, &[a, b])?;
//! s.add_output("y", g);
//!
//! let options = EcoOptions::builder().num_samples(64).jobs(1).build();
//! let result = Session::new(options).run(&c, &s)?;
//! assert!(syseco::verify_rectification(&result.patched, &s)?);
//! println!("patch: {:?} in {:?}", result.stats, result.runtime);
//! # Ok(())
//! # }
//! ```
//!
//! [`Session`] is the engine's only entry type: attach a [`CancelToken`],
//! a live [`ProgressEvent`] observer or a [`Telemetry`] hub before the run.
//! Per-output searches run on a worker pool sized by
//! [`EcoOptions::jobs`] (default: available parallelism); patches are
//! bit-identical for every worker count.
//!
//! # Module map (paper section → module)
//!
//! | Module | Paper | Role |
//! |---|---|---|
//! | [`correspond`] | §3.1 | label-based port correspondence |
//! | [`error_domain`] | §4.3, §5.1 | error minterm collection (`𝔼`) |
//! | [`sampling`] | §5.1 | sampling functions `g(z)`, z-domain evaluation |
//! | [`points`] | §4.2 | minimal feasible point-sets (`H(t)`'s primes), by simulation |
//! | [`rewire_nets`] | §4.3 | structural filter + utility ranking |
//! | [`choices`] | §4.4 | `R`, `L`, `U`, `Ξ(c)` |
//! | [`validate`] | §5.1–2 | exact-domain SAT validation, refinement |
//! | [`rectify`] | §5.2 | the `RewireRectification` flow: detection and fan-out, per-output search, merge and verification |
//! | [`patch`] | §3.3, §5.2 | patch model, Table-2 accounting, input sweep |
//! | [`baseline`] | §6 | DeltaSyn-style and cone-rewrite baselines |

pub mod baseline;
pub mod budget;
mod checkpoint;
pub mod choices;
pub mod correspond;
mod engine;
mod error;
pub mod error_domain;
pub mod fault;
pub mod fuzz;
mod memo;
mod options;
pub mod patch;
pub mod points;
pub mod progress;
pub mod rectify;
pub mod rewire_nets;
pub mod sampling;
mod schedule;
pub mod service;
mod session;
pub mod validate;

pub use budget::{Budget, BudgetStatus, CancelToken, Degradation, DegradeAction, DegradeReason};
pub use engine::{verify_rectification, EcoResult};
pub use error::EcoError;
pub use fault::SpanPoint;
#[cfg(any(test, feature = "fault-injection"))]
pub use fault::{FaultPlan, FaultPolicy};
pub use options::{EcoOptions, EcoOptionsBuilder, SamplePolicy};
pub use patch::{Patch, PatchStats, RewireOp};
pub use progress::{OutputAction, ProgressCallback, ProgressEvent};
pub use rectify::{OutputTiming, RectifyStats};
pub use session::Session;

/// Persistent incremental-ECO caching (re-export of the `eco-cache`
/// crate): content-addressed structural signatures and the on-disk record
/// store behind [`EcoOptions::cache_dir`]. See DESIGN.md §11.
pub use eco_cache as cache;
pub use eco_cache::CacheMode;

/// The multi-tenant batch rectification service layer (re-export of the
/// `eco-serve` crate): framed wire protocol, weighted-fair scheduler,
/// daemon server, and OpenMetrics endpoint behind the `syseco-serve`
/// binary. Plug the engine in with [`service::EngineRunner`]. See
/// DESIGN.md §15.
pub use eco_serve as serve;
pub use service::EngineRunner;

/// Structured tracing and metrics (re-export of the `eco-telemetry`
/// crate): build a [`Telemetry`] hub, attach it with
/// [`Session::with_telemetry`], then export via
/// [`telemetry::export::spans_jsonl`], [`telemetry::export::chrome_trace`],
/// or [`telemetry::export::metrics_json`].
pub use eco_telemetry as telemetry;
pub use eco_telemetry::{MetricsSnapshot, SpanRecord, Telemetry};
