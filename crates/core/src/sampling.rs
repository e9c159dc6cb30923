//! The symbolic sampling domain (paper §5.1).
//!
//! A sampling domain is a set of `N` input assignments `{x̂_1, …, x̂_N}`.
//! The paper encodes them by `⌈log2 N⌉` fresh variables `z` and overloads
//! the circuit inputs with the *sampling function* `g(z)`, casting every
//! Boolean computation of §4 from the exact domain of `x` into the (much
//! smaller) domain of `z`. A function of `z` is then nothing but its values
//! on the `N` samples, so the search never builds `g(z)`: each attempt
//! simulates both circuits over the samples once
//! ([`RewireNetContext`](crate::rewire_nets::RewireNetContext)), and the
//! minimal point-sets (§4.2) and `Ξ(c)` (§4.4) read those words.
//!
//! [`eval_all_bdd`] and [`apply_gate_bdd`] build a circuit's nets as BDDs
//! over arbitrary input functions, for the benchmark's BDD layer and the
//! BDD constructions the tests keep as oracles. They are the fuzzer's
//! BDD oracle builder, re-exported.

pub use eco_fuzz::oracle::{apply_gate_bdd, eval_all_bdd};

#[cfg(test)]
mod tests {
    use super::*;
    use eco_bdd::{Bdd, BddManager};
    use eco_netlist::{Circuit, GateKind, NetId};

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Mux, &[d, g1, a]).unwrap();
        c.add_output("y", g2);
        c
    }

    /// With input `i` overloaded by variable `i`, every net's BDD evaluated
    /// at an assignment equals simulating the circuit on it.
    #[test]
    fn overloaded_evaluation_matches_simulation() {
        let c = sample_circuit();
        let mut m = BddManager::new();
        let inputs: Vec<Bdd> = (0..3).map(|i| m.var(i)).collect();
        let vals = eval_all_bdd(&c, &mut m, &inputs).unwrap();
        for code in 0..8u32 {
            let assign: Vec<bool> = (0..3).map(|i| (code >> i) & 1 == 1).collect();
            let expect = c.eval_nets(&assign).unwrap();
            for id in c.iter_live() {
                let net: NetId = id.into();
                assert_eq!(
                    m.eval(vals[net.index()], &assign),
                    expect[net.index()],
                    "net {net} at {assign:?}"
                );
            }
        }
    }
}
