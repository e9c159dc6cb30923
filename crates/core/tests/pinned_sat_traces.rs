//! Pins the SAT solver's trajectory on the generated benchmark cases.
//!
//! Every patch of the engine depends on what its SAT queries answer and
//! in which order the solver finds its models. Per generated case, this
//! test runs the engine's detection query (`classify_outputs_with_stats`
//! on a fresh proof cache, at the engine's detection budget) and then the
//! sampling top-up for the first failing output on an overlay of the
//! frozen cache, and folds everything observable into one FNV-1a-64
//! digest: the verdicts with their counterexamples, both queries' six
//! `SolverStats` counters, the proof cache's `proofs()` and `reused()`,
//! and the collected samples. A solver change that moves any propagation,
//! learnt clause, decision or model moves the digest, so a storage or
//! speed change to the solver must leave this table as it is.

use eco_netlist::sim::Compiled;
use eco_netlist::Circuit;
use eco_sat::cec::ProofCache;
use eco_sat::SolverStats;
use eco_workload::{chain_cases, scaling_case, table1_cases, timing_cases};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use syseco::correspond::Correspondence;
use syseco::error_domain::{classify_outputs_with_stats, collect_samples, Equivalence};
use syseco::rectify::VALIDATION_BUDGET;
use syseco::SamplePolicy;

/// Per case, in generation order: its name and the digest of its SAT
/// trajectory.
const PINNED: &[(&str, u64)] = &[
    ("core1", 0x1bdb29f1f170f3a9),
    ("ctrl2", 0xbdfb60d3b92339ab),
    ("dp3", 0xf3ba6ab096e48b3e),
    ("dec4", 0x43a4ec7f11e67920),
    ("ctl5", 0x1033c14def2db3b7),
    ("exu6", 0xe37f9e591527eed6),
    ("lsu7", 0x276c4ff94b4381df),
    ("ifu8", 0x38975e158ca6cee9),
    ("mmu9", 0xe9bdea08a3a87a73),
    ("fpu10", 0x7df570f68f14143a),
    ("iou11", 0xa4c8ac0a83dfb913),
    ("tmg12", 0x3f0b7c626b0520c2),
    ("tmg13", 0x7aaf2beca08a1950),
    ("tmg14", 0x05fa11bc7eb318da),
    ("tmg15", 0x3f42f51d6af2fcff),
    ("par16", 0x8b79f9df57229556),
    ("chain17", 0x5024b81dee649e06),
    ("chain18", 0xcaf689c47997eadd),
    ("chain19", 0x4cd57146f4c2124c),
];

/// FNV-1a-64 over the little-endian bytes of everything folded in.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn bits(&mut self, bits: &[bool]) {
        self.word(bits.len() as u64);
        for &b in bits {
            self.bytes(&[u8::from(b)]);
        }
    }

    fn stats(&mut self, s: SolverStats) {
        for x in [
            s.conflicts,
            s.decisions,
            s.propagations,
            s.restarts,
            s.learnt_clauses,
            s.learnt_literals,
        ] {
            self.word(x);
        }
    }

    fn proofs(&mut self, proofs: &ProofCache) {
        self.word(proofs.proofs());
        self.word(proofs.reused());
    }
}

/// The digest of one case's detection and first sampling top-up.
fn trace_digest(implementation: &Circuit, spec: &Circuit) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let corr = Correspondence::build(implementation, spec).expect("ports correspond");
    let mut proofs = ProofCache::new();
    let (verdicts, detect) = classify_outputs_with_stats(
        implementation,
        spec,
        &corr,
        Some(VALIDATION_BUDGET * 10),
        None,
        &mut proofs,
    )
    .expect("detection encodes");
    for verdict in &verdicts {
        match verdict {
            Equivalence::Equivalent => h.word(0),
            Equivalence::Counterexample(x) => {
                h.word(1);
                h.bits(x);
            }
            Equivalence::Unknown => h.word(2),
        }
    }
    h.stats(detect);
    h.proofs(&proofs);

    let Some(first) = verdicts.iter().position(|v| *v != Equivalence::Equivalent) else {
        return h.0;
    };
    let seed = match &verdicts[first] {
        Equivalence::Counterexample(x) => Some(x.as_slice()),
        _ => None,
    };
    let base = proofs.freeze();
    let mut overlay = base.overlay();
    let impl_sim = Compiled::new(implementation).expect("acyclic");
    let spec_sim = Compiled::new(spec).expect("acyclic");
    let (samples, sampling) = collect_samples(
        implementation,
        spec,
        &impl_sim,
        &spec_sim,
        &corr,
        &corr.outputs[first],
        64,
        SamplePolicy::ErrorDomain,
        seed,
        &mut SmallRng::seed_from_u64(7),
        None,
        &mut overlay,
    )
    .expect("sampling encodes");
    h.word(first as u64);
    h.word(samples.len() as u64);
    for s in &samples {
        h.bits(s);
    }
    h.stats(sampling);
    h.proofs(&overlay);
    h.0
}

#[test]
fn sat_trajectories_match_the_pinned_table() {
    let cases = table1_cases()
        .into_iter()
        .chain(timing_cases())
        .chain([scaling_case()])
        .chain(chain_cases());
    let actual: Vec<(String, u64)> = cases
        .map(|case| {
            let digest = trace_digest(&case.implementation, &case.spec);
            (case.name, digest)
        })
        .collect();
    let rows: Vec<String> = actual
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),"))
        .collect();
    let changed: Vec<&str> = actual
        .iter()
        .enumerate()
        .filter(|&(k, (name, d))| PINNED.get(k) != Some(&(name.as_str(), *d)))
        .map(|(_, (name, _))| name.as_str())
        .collect();
    assert!(
        changed.is_empty() && PINNED.len() == actual.len(),
        "the SAT trajectory changed on {changed:?} (pinned {} cases, ran {}).\n\
         Only a change that alters the solver's behaviour on purpose may update PINNED, \
         and it names the changed cases in its description; the solver now gives:\n{}",
        PINNED.len(),
        actual.len(),
        rows.join("\n")
    );
}
