//! End-to-end and per-layer benchmark of the syseco engine.
//!
//! * [`e2e`] — the harness: four workloads over the paper's generated
//!   cases, end-to-end metrics from untraced runs and per-layer metrics
//!   from traced runs and direct layer calls,
//! * [`check`] — the independent correctness check (SAT miter plus
//!   4096-pattern simulation) and the patch digest,
//! * [`clock`] — times each measured call against a calibration kernel,
//!   so reported times are at one reference speed on a shared host,
//! * [`compare`] — compares two result sets under the directions and
//!   bounds declared in `BENCHMARK.json`.
//!
//! Run through the `e2e` binary; see `README.md` for the workloads and
//! metrics.

pub mod check;
pub mod clock;
pub mod compare;
pub mod e2e;
