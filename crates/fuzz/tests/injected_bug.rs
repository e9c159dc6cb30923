//! Mutation test of the conformance harness itself: an intentionally
//! broken oracle must be caught by cross-checking and shrink to a tiny
//! repro. If this test fails, the fuzzer has lost its ability to detect
//! real oracle bugs.

use eco_fuzz::{
    cross_check_oracles, gate_count, generate, parse_repro, port_map, shrink_pair, write_repro,
    Oracle, Repro, ScenarioConfig, SimOracle,
};
use eco_netlist::{Circuit, GateKind};

/// A simulation oracle with a deliberate evaluator bug: every `Not` gate
/// is treated as a `Buf` (the inversion is dropped). Implemented by
/// rewriting the circuits before handing them to the honest simulator,
/// which models a miscompiled gate-evaluation table.
struct BrokenSimOracle;

fn drop_inversions(c: &Circuit) -> Circuit {
    let mut out = c.clone();
    let targets: Vec<_> = out
        .iter_live()
        .filter(|&id| out.node(id).kind() == GateKind::Not)
        .collect();
    for id in targets {
        out.set_gate_kind(id, GateKind::Buf).unwrap();
    }
    out
}

impl Oracle for BrokenSimOracle {
    fn name(&self) -> &str {
        "broken-sim"
    }

    fn check_all(
        &mut self,
        implementation: &Circuit,
        spec: &Circuit,
        map: &eco_fuzz::PortMap,
    ) -> Result<Vec<eco_sat::tseitin::Equivalence>, eco_fuzz::FuzzError> {
        SimOracle::default().check_all(
            &drop_inversions(implementation),
            &drop_inversions(spec),
            map,
        )
    }
}

/// The failing predicate: the broken oracle disagrees with the honest one
/// (conflicting verdicts or a witness that does not reproduce).
fn broken_vs_honest_disagree(implementation: &Circuit, spec: &Circuit) -> bool {
    let Ok(map) = port_map(implementation, spec) else {
        return false;
    };
    let Ok(honest) = SimOracle::default().check_all(implementation, spec, &map) else {
        return false;
    };
    let Ok(broken) = BrokenSimOracle.check_all(implementation, spec, &map) else {
        return false;
    };
    let named = vec![
        ("sim".to_string(), honest),
        ("broken-sim".to_string(), broken),
    ];
    !cross_check_oracles(implementation, spec, &map, &named).is_empty()
}

#[test]
fn injected_oracle_bug_is_detected_and_shrinks_small() {
    let config = ScenarioConfig::default();
    let mut caught = None;
    for seed in 0..64 {
        let s = generate(seed, &config).expect("scenario generation");
        if broken_vs_honest_disagree(&s.implementation, &s.spec) {
            caught = Some(s);
            break;
        }
    }
    let scenario = caught.expect("the broken oracle must disagree within 64 scenarios");

    let outcome = shrink_pair(
        &scenario.implementation,
        &scenario.spec,
        broken_vs_honest_disagree,
        400,
    );
    let total = gate_count(&outcome.implementation) + gate_count(&outcome.spec);
    assert!(
        total <= 8,
        "repro still has {total} gates after {} predicate calls",
        outcome.predicate_calls
    );
    // The shrunk pair still exposes the bug.
    assert!(broken_vs_honest_disagree(
        &outcome.implementation,
        &outcome.spec
    ));

    // And it survives a serialization roundtrip as a replayable repro.
    let repro = Repro {
        seed: scenario.seed,
        iteration: 0,
        check: "oracle:sim-vs-broken-sim".into(),
        detail: "injected Not->Buf evaluator bug".into(),
        fault: None,
        implementation: outcome.implementation,
        spec: outcome.spec,
    };
    let parsed = parse_repro(&write_repro(&repro)).expect("repro roundtrip");
    assert!(broken_vs_honest_disagree(
        &parsed.implementation,
        &parsed.spec
    ));
}
