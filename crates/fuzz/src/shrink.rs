//! Greedy automatic shrinking of failing implementation/spec pairs.
//!
//! Given a pair on which a failing predicate holds (an oracle
//! disagreement, a broken patch, a determinism violation, ...), the
//! shrinker searches for a minimal pair that still fails, in the style of
//! delta debugging: first it drops whole output ports, then it replaces
//! individual gates by one of their fanins or a constant, re-running the
//! predicate after every candidate edit and keeping only edits that
//! preserve the failure. The result is the repro a human actually debugs.

use std::collections::HashMap;

use eco_netlist::{Circuit, GateKind, NetId, NodeId};

/// Number of live gates (inputs and constants excluded).
pub fn gate_count(c: &Circuit) -> usize {
    c.iter_live()
        .filter(|&id| {
            let k = c.node(id).kind();
            k != GateKind::Input && !k.is_const()
        })
        .count()
}

/// Result of a [`shrink_pair`] run.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized implementation.
    pub implementation: Circuit,
    /// The minimized spec.
    pub spec: Circuit,
    /// Greedy passes executed.
    pub rounds: usize,
    /// Total predicate evaluations.
    pub predicate_calls: usize,
}

/// Rebuilds `c` without the output named `drop`, compacting away any logic
/// only that port used. Returns `None` when `drop` is the only output (a
/// repro must keep at least one) or the rebuild fails.
fn without_output(c: &Circuit, drop: &str) -> Option<Circuit> {
    if c.num_outputs() <= 1 || c.output_by_name(drop).is_none() {
        return None;
    }
    let mut out = Circuit::new(c.name());
    for &id in c.inputs() {
        out.add_input(c.node(id).name().unwrap_or(""));
    }
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for port in c.outputs() {
        if port.name() == drop {
            continue;
        }
        map = out.clone_cone(c, &[port.net()], &map).ok()?;
        out.add_output(port.name(), map[&port.net()]);
    }
    Some(out)
}

/// Produces a copy of `c` in which every consumer of gate `g` reads
/// `replacement` instead, with `g` then swept away. Returns `None` when a
/// rewire is rejected (it would create a cycle).
fn bypass_gate(c: &Circuit, g: NodeId, replacement: NetId) -> Option<Circuit> {
    let mut out = c.clone();
    let sinks = out.fanouts()[NetId::from(g).index()].clone();
    if sinks.is_empty() {
        return None;
    }
    for pin in sinks {
        out.rewire(pin, replacement).ok()?;
    }
    out.sweep();
    Some(out)
}

/// Candidate replacement nets for gate `g`: each distinct fanin, then the
/// two constants.
fn replacements(c: &mut Circuit, g: NodeId) -> Vec<NetId> {
    let mut nets: Vec<NetId> = Vec::new();
    for &f in c.node(g).fanins().to_vec().iter() {
        if !nets.contains(&f) {
            nets.push(f);
        }
    }
    nets.push(c.constant(false));
    nets.push(c.constant(true));
    nets
}

/// Greedily minimizes a failing pair.
///
/// `failing` must return `true` on the initial pair (otherwise the pair is
/// returned unchanged); it is then re-evaluated on every candidate
/// reduction, and a reduction is kept only when the failure persists. The
/// search stops at a fixpoint or after `max_calls` predicate evaluations.
///
/// The predicate must be deterministic; a flaky predicate makes the
/// greedy search thrash but cannot make the result invalid, because the
/// returned pair is always one on which `failing` returned `true`.
pub fn shrink_pair<F>(
    implementation: &Circuit,
    spec: &Circuit,
    mut failing: F,
    max_calls: usize,
) -> ShrinkOutcome
where
    F: FnMut(&Circuit, &Circuit) -> bool,
{
    let mut cur_impl = implementation.clone();
    let mut cur_spec = spec.clone();
    let mut calls = 1usize;
    if !failing(&cur_impl, &cur_spec) {
        return ShrinkOutcome {
            implementation: cur_impl,
            spec: cur_spec,
            rounds: 0,
            predicate_calls: calls,
        };
    }
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;

        // Phase 1: drop output ports shared by both sides.
        let mut dropping = true;
        while dropping && calls < max_calls {
            dropping = false;
            let names: Vec<String> = cur_impl
                .outputs()
                .iter()
                .map(|p| p.name().to_string())
                .collect();
            for name in names {
                if calls >= max_calls {
                    break;
                }
                let (Some(i2), Some(s2)) = (
                    without_output(&cur_impl, &name),
                    without_output(&cur_spec, &name),
                ) else {
                    continue;
                };
                calls += 1;
                if failing(&i2, &s2) {
                    cur_impl = i2;
                    cur_spec = s2;
                    changed = true;
                    dropping = true;
                    break;
                }
            }
        }

        // Phase 2: bypass individual gates on either side.
        'sides: for side in 0..2 {
            let mut simplifying = true;
            while simplifying {
                simplifying = false;
                let target = if side == 0 { &cur_impl } else { &cur_spec };
                let gates: Vec<NodeId> = target
                    .iter_live()
                    .filter(|&id| {
                        let k = target.node(id).kind();
                        k != GateKind::Input && !k.is_const()
                    })
                    .collect();
                for g in gates {
                    if calls >= max_calls {
                        break 'sides;
                    }
                    let mut scratch = target.clone();
                    let mut accepted = None;
                    for r in replacements(&mut scratch, g) {
                        if calls >= max_calls {
                            break;
                        }
                        let Some(cand) = bypass_gate(&scratch, g, r) else {
                            continue;
                        };
                        calls += 1;
                        let ok = if side == 0 {
                            failing(&cand, &cur_spec)
                        } else {
                            failing(&cur_impl, &cand)
                        };
                        if ok {
                            accepted = Some(cand);
                            break;
                        }
                    }
                    if let Some(cand) = accepted {
                        if side == 0 {
                            cur_impl = cand;
                        } else {
                            cur_spec = cand;
                        }
                        changed = true;
                        simplifying = true;
                        break;
                    }
                }
            }
        }

        if !changed || calls >= max_calls {
            break;
        }
    }
    ShrinkOutcome {
        implementation: cur_impl,
        spec: cur_spec,
        rounds,
        predicate_calls: calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{port_map, Oracle, SimOracle};
    use eco_sat::tseitin::Equivalence;

    /// A deliberately noisy pair: `o_bad` differs (And vs Or), the other
    /// outputs are equivalent padding that shrinking should strip.
    fn noisy_pair() -> (Circuit, Circuit) {
        let build = |bad_is_or: bool| {
            let mut c = Circuit::new("n");
            let a = c.add_input("a");
            let b = c.add_input("b");
            let d = c.add_input("d");
            let x1 = c.add_gate(GateKind::Xor, &[a, b]).unwrap();
            let x2 = c.add_gate(GateKind::Mux, &[d, x1, a]).unwrap();
            let x3 = c.add_gate(GateKind::Nor, &[x2, b]).unwrap();
            let bad_kind = if bad_is_or {
                GateKind::Or
            } else {
                GateKind::And
            };
            let bad = c.add_gate(bad_kind, &[a, b]).unwrap();
            let x4 = c.add_gate(GateKind::Xnor, &[x3, d]).unwrap();
            c.add_output("o_pad1", x3);
            c.add_output("o_bad", bad);
            c.add_output("o_pad2", x4);
            c
        };
        (build(false), build(true))
    }

    fn sim_disagrees(i: &Circuit, s: &Circuit) -> bool {
        let Ok(map) = port_map(i, s) else {
            return false;
        };
        let Ok(verdicts) = SimOracle::default().check_all(i, s, &map) else {
            return false;
        };
        verdicts
            .iter()
            .any(|v| matches!(v, Equivalence::Counterexample(_)))
    }

    #[test]
    fn shrinks_to_the_single_differing_gate() {
        let (a, b) = noisy_pair();
        let outcome = shrink_pair(&a, &b, sim_disagrees, 500);
        assert_eq!(outcome.implementation.num_outputs(), 1);
        assert_eq!(outcome.spec.num_outputs(), 1);
        assert_eq!(outcome.implementation.outputs()[0].name(), "o_bad");
        assert!(
            gate_count(&outcome.implementation) <= 1 && gate_count(&outcome.spec) <= 1,
            "impl={} spec={} gates left",
            gate_count(&outcome.implementation),
            gate_count(&outcome.spec)
        );
        // The shrunk pair still fails.
        assert!(sim_disagrees(&outcome.implementation, &outcome.spec));
        outcome.implementation.check_well_formed().unwrap();
        outcome.spec.check_well_formed().unwrap();
    }

    #[test]
    fn non_failing_pair_is_returned_unchanged() {
        let (a, _) = noisy_pair();
        let outcome = shrink_pair(&a, &a.clone(), sim_disagrees, 500);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(outcome.predicate_calls, 1);
        assert_eq!(gate_count(&outcome.implementation), gate_count(&a));
    }

    #[test]
    fn respects_the_call_budget() {
        let (a, b) = noisy_pair();
        let mut calls = 0usize;
        let outcome = shrink_pair(
            &a,
            &b,
            |i, s| {
                calls += 1;
                sim_disagrees(i, s)
            },
            5,
        );
        assert!(outcome.predicate_calls <= 5 + 1);
        assert!(calls <= 6);
    }
}
