//! Differential fuzzing for the syseco ECO engine.
//!
//! The engine has several independent ways of answering the same question
//! — is `f = f'`, and on which inputs do they differ? Bit-parallel
//! [simulation](eco_netlist::sim), SAT [CEC](eco_sat::cec), and
//! [BDD](eco_bdd) equivalence must agree with each other and with the
//! rectification pipeline built on top of them. This crate searches for
//! inputs where they don't:
//!
//! * [`scenario`] generates unbounded *rectifiable-by-construction*
//!   implementation/spec pairs: a seeded synthesized netlist
//!   (via `eco_workload::build_base`) mutated by semantics-changing
//!   rewrites ([`mutate`]) whose ground-truth delta is recorded;
//! * [`oracle`] runs each pair through every oracle and cross-checks the
//!   per-output verdicts, including concrete validation of every
//!   counterexample witness;
//! * [`shrink`] greedily minimizes any failing pair to a human-sized
//!   repro, serialized as a replayable `.eco-repro` file ([`repro`]).
//!
//! Pipeline-level checks (full `Session` rectification at several job
//! counts, cache cold/warm replay, byte-identical determinism) layer on
//! top of this crate in `syseco::fuzz`, which also hosts the `syseco-fuzz`
//! CLI.

mod error;
pub mod mutate;
pub mod oracle;
pub mod repro;
pub mod scenario;
pub mod shrink;

pub use error::FuzzError;
pub use mutate::{apply_random_mutation, mutate_n, MutationKind, MutationRecord};
pub use oracle::{
    check_conformance, cross_check_oracles, port_map, BddOracle, Disagreement, Oracle,
    OutputPairMap, PortMap, SatOracle, SimOracle,
};
pub use repro::{parse_repro, write_repro, Repro, REPRO_HEADER};
pub use scenario::{generate, generate_chain, Scenario, ScenarioConfig};
pub use shrink::{gate_count, shrink_pair, ShrinkOutcome};
