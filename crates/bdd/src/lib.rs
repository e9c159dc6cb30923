//! Reduced ordered binary decision diagrams (ROBDDs) for syseco.
//!
//! The paper carries its symbolic computations — the feasible-point-set
//! characteristic function `H(t)` (§4.2), the valid-rewiring characteristic
//! `Ξ(c)` (§4.4), and the sampling-domain functions `g(z)` (§5.1) — out on
//! BDDs. syseco's search computes them by simulation over the samples; the
//! BDD constructions remain as its test oracles, as the fuzz harness's BDD
//! equivalence oracle, and as the benchmark's BDD layer. This crate
//! provides a self-contained BDD package for them:
//!
//! * a [`BddManager`] storing complement-tagged edges in a dense,
//!   append-only `u32` arena with an open-addressed unique table —
//!   negation is a tag flip, a function and its complement share every
//!   node,
//! * Boolean connectives and `∃`/`∀` quantification over variable cubes,
//!   memoized through sized generational operation caches
//!   (direct-mapped, epoch-invalidated),
//! * satisfying-cube enumeration ([`BddManager::sat_cubes`]),
//! * a configurable node limit so a build stays resource-bounded
//!   ([`BddError::NodeLimit`]).
//!
//! The variable order is fixed: a variable's index is its level, lower
//! indices nearer the root. Callers number their variables in the order
//! they want them in the diagram (the `Ξ(c)` oracle uses `c < y < z`).
//!
//! # Example
//!
//! ```
//! use eco_bdd::BddManager;
//!
//! # fn main() -> Result<(), eco_bdd::BddError> {
//! let mut m = BddManager::new();
//! let x = m.var(0);
//! let y = m.var(1);
//! let f = m.and(x, y)?;
//! let g = m.or(x, y)?;
//! assert_eq!(m.implies(f, g)?, m.one());
//! assert!(m.eval(f, &[true, true]) && !m.eval(f, &[true, false]));
//! # Ok(())
//! # }
//! ```

mod arena;
mod cubes;
mod error;
mod manager;
mod opcache;
mod unique;

pub use cubes::Cube;
pub use error::BddError;
pub use manager::{Bdd, BddManager};
