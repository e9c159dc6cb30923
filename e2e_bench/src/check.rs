//! The benchmark's correctness check and patch digest.
//!
//! A patch counts as verified only when two independent checks agree:
//! the engine's own SAT miter ([`syseco::verify_rectification`]) and a
//! bit-parallel simulation of the patched circuit against the
//! specification on [`SIM_PATTERNS`] random input patterns. The
//! simulation shares no code with the SAT path, so a solver bug that
//! answers UNSAT on a wrong patch still shows as a mismatch.

use eco_netlist::sim::simulate64;
use eco_netlist::{write_blif, Circuit, NetlistError};
use syseco::fuzz::iteration_seed;

/// Random patterns simulated per patch (64 blocks of 64).
pub const SIM_PATTERNS: usize = 4096;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest that pins a patch byte for byte: FNV-1a of its BLIF text.
pub fn patch_digest(patched: &Circuit) -> u64 {
    fnv1a(write_blif(patched).as_bytes())
}

/// Input names in declaration order; an unnamed input gets the
/// `__pi<position>` label the engine gives it.
fn input_names(circuit: &Circuit) -> Vec<String> {
    circuit
        .inputs()
        .iter()
        .enumerate()
        .map(|(pos, &id)| match circuit.node(id).name() {
            Some(name) if !name.is_empty() => name.to_string(),
            _ => format!("__pi{pos}"),
        })
        .collect()
}

/// One 64-pattern block of input words, drawn per input *name* so both
/// circuits see the same value on same-named inputs whatever their order.
fn block_words(names: &[String], seed: u64, block: u64) -> Vec<u64> {
    let block_seed = iteration_seed(seed, block);
    names
        .iter()
        .map(|name| iteration_seed(block_seed, fnv1a(name.as_bytes())))
        .collect()
}

/// Simulates `patched` and `spec` on [`SIM_PATTERNS`] random patterns
/// derived from `seed`, with inputs and outputs matched by name, and
/// returns the number of (output, pattern) pairs that differ.
///
/// # Errors
///
/// A message when a specification output has no same-named output in
/// `patched`, or when either circuit cannot be simulated.
pub fn simulation_mismatches(patched: &Circuit, spec: &Circuit, seed: u64) -> Result<u64, String> {
    let pairs: Vec<(usize, usize)> = spec
        .outputs()
        .iter()
        .map(|port| {
            let index = patched
                .output_by_name(port.name())
                .ok_or_else(|| format!("patched circuit lacks output {:?}", port.name()))?;
            Ok((
                patched.outputs()[index as usize].net().index(),
                port.net().index(),
            ))
        })
        .collect::<Result<_, String>>()?;
    let patched_inputs = input_names(patched);
    let spec_inputs = input_names(spec);
    let sim_error = |e: NetlistError| format!("simulation failed: {e}");
    let mut mismatches = 0u64;
    for block in 0..(SIM_PATTERNS / 64) as u64 {
        let got =
            simulate64(patched, &block_words(&patched_inputs, seed, block)).map_err(sim_error)?;
        let want = simulate64(spec, &block_words(&spec_inputs, seed, block)).map_err(sim_error)?;
        mismatches += pairs
            .iter()
            .map(|&(p, s)| u64::from((got[p] ^ want[s]).count_ones()))
            .sum::<u64>();
    }
    Ok(mismatches)
}

/// Whether `patched` implements `spec`: the SAT miter proves it and the
/// random simulation finds no counterexample.
pub fn verified(patched: &Circuit, spec: &Circuit, seed: u64) -> bool {
    syseco::verify_rectification(patched, spec).unwrap_or(false)
        && simulation_mismatches(patched, spec, seed) == Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::{GateKind, NodeId};
    use syseco::{EcoOptions, Session};

    fn tiny_case() -> eco_workload::EcoCase {
        eco_workload::build_case(&crate::e2e::tiny_params(90))
    }

    /// The complement of a gate kind: same arity, every output bit flips.
    fn complement(kind: GateKind) -> Option<GateKind> {
        Some(match kind {
            GateKind::And => GateKind::Nand,
            GateKind::Nand => GateKind::And,
            GateKind::Or => GateKind::Nor,
            GateKind::Nor => GateKind::Or,
            GateKind::Xor => GateKind::Xnor,
            GateKind::Xnor => GateKind::Xor,
            GateKind::Buf => GateKind::Not,
            GateKind::Not => GateKind::Buf,
            _ => return None,
        })
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn simulation_accepts_a_verified_patch_and_catches_a_corrupted_one() {
        let case = tiny_case();
        let session = Session::new(EcoOptions::builder().seed(90).jobs(1).build());
        let result = session.run(&case.implementation, &case.spec).unwrap();
        assert!(verified(&result.patched, &case.spec, 1));
        assert_eq!(simulation_mismatches(&result.patched, &case.spec, 1), Ok(0));

        // Complement the gate driving the first output that has one: the
        // output inverts on every pattern, so the simulation must see it.
        let mut corrupted = result.patched.clone();
        let (node, kind) = corrupted
            .outputs()
            .iter()
            .find_map(|port| {
                let node: NodeId = port.net().source();
                complement(corrupted.node(node).kind()).map(|k| (node, k))
            })
            .expect("some output is driven by a complementable gate");
        corrupted.set_gate_kind(node, kind).unwrap();
        let mismatches = simulation_mismatches(&corrupted, &case.spec, 1).unwrap();
        assert!(mismatches >= SIM_PATTERNS as u64, "got {mismatches}");
        assert!(!verified(&corrupted, &case.spec, 1));
        assert_ne!(patch_digest(&corrupted), patch_digest(&result.patched));
    }

    #[test]
    fn a_missing_output_is_an_error_not_a_pass() {
        let case = tiny_case();
        let mut spec = case.spec.clone();
        let net = spec.outputs()[0].net();
        spec.add_output("not_in_implementation", net);
        assert!(simulation_mismatches(&case.implementation, &spec, 1).is_err());
    }
}
