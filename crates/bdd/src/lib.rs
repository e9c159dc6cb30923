//! Reduced ordered binary decision diagrams (ROBDDs) for syseco.
//!
//! The paper's symbolic computations — the feasible-point-set characteristic
//! function `H(t)` (§4.2), the valid-rewiring characteristic `Ξ(c)` (§4.4),
//! and the sampling-domain functions `g(z)` (§5.1) — are all carried out on
//! BDDs. This crate provides a self-contained BDD package in the spirit of
//! the paper's in-house implementation:
//!
//! * a [`BddManager`] storing complement-tagged edges in a dense `u32`
//!   arena with an open-addressed unique table — negation is a tag flip,
//!   a function and its complement share every node,
//! * Boolean connectives, cofactors, and `∃`/`∀` quantification over
//!   variable cubes, memoized through sized generational operation
//!   caches (direct-mapped, epoch-invalidated),
//! * assignment counting ([`BddManager::sat_count`]) and satisfying-cube
//!   enumeration ([`BddManager::sat_cubes`]) used to decode rewiring
//!   choices,
//! * mark-and-sweep garbage collection over an explicit root set
//!   ([`BddManager::gc`], [`BddManager::maybe_gc`]) — surviving handles
//!   keep their indices,
//! * a configurable node limit so domain computations stay
//!   resource-bounded ([`BddError::NodeLimit`]), plus deadlines, a
//!   cooperative interrupt, and a pre-collection hook
//!   ([`BddManager::set_event_hook`]) used by the fault-injection harness.
//!
//! The variable order is fixed: a variable's index is its level, lower
//! indices nearer the root. Callers number their variables in the order
//! they want them in the diagram (syseco uses `c < y < z`).
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
//! assert!(m.implies_check(f, g)?);
//! assert_eq!(m.sat_count(f, 2), 1.0);
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
pub use manager::{Bdd, BddCounters, BddManager, EventHook, OpCacheSizes};
