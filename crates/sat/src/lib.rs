//! Conflict-driven clause-learning SAT solving for syseco.
//!
//! The ECO flow uses SAT in two roles (paper §5.1–§5.2):
//!
//! 1. **Error-domain enumeration** — a miter between the current
//!    implementation `C` and the revised specification `C'` whose models are
//!    the error minterms `𝔼 = {x | f(x) ≠ f'(x)}` that seed the sampling
//!    domain, and
//! 2. **Resource-constrained validation** — candidate rewire operations found
//!    in the sampling domain are checked on the exact domain with a conflict
//!    budget; a model is a false-positive counterexample that refines the
//!    domain.
//!
//! The [`Solver`] is a self-contained CDCL engine in the MiniSAT lineage
//! (two-literal watching, first-UIP learning, VSIDS-style activities, phase
//! saving, Luby restarts, incremental assumptions, conflict budgets), with
//! MiniSAT's flat storage: one clause arena and a per-literal value array,
//! so neither a clause nor a resolution step allocates. The
//! [`tseitin`] module encodes [`eco_netlist::Circuit`]s into CNF through a
//! dense net→variable map; its
//! [`tseitin::Miter`] is the one equivalence query both roles ask, and
//! [`cec`] strengthens it with proven internal equivalences.
//!
//! # Example
//!
//! ```
//! use eco_sat::{Lit, SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(&[]), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

pub mod cec;
mod solver;
pub mod tseitin;

pub use solver::{Lit, SolveResult, Solver, SolverStats, Var};
