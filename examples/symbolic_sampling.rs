//! A guided tour of the symbolic sampling machinery (paper §4–§5), using
//! the library's mid-level APIs directly on the paper's Example 1/2 logic.
//!
//! The implementation computes `w_k = (w1_k ∧ v0) ∨ (w2_k ∧ v1)`; the
//! revision introduces `c = a ∧ b` and wants `w_k = (w1_k ∧ c) ∨ (w2_k ∧ ¬c)`.
//! We build the sampling domain by hand, enumerate the minimal feasible
//! point-sets of `H(t)`, rank rewiring candidates for `Ξ(c)`, and print what
//! the engine would see.
//!
//! ```text
//! cargo run --release -p syseco --example symbolic_sampling
//! ```

use eco_bdd::BddManager;
use eco_netlist::{Circuit, GateKind, Pin};
use eco_sat::cec::ProofCache;
use syseco::correspond::Correspondence;
use syseco::error_domain::collect_samples;
use syseco::points::{candidate_pins, MinimalSets};
use syseco::rewire_nets::{candidates_for_pin, RewireNetContext};
use syseco::sampling::{eval_all_bdd, SamplingDomain};
use syseco::SamplePolicy;

fn implementation() -> Circuit {
    let mut c = Circuit::new("impl");
    let w1 = c.add_input("w1");
    let w2 = c.add_input("w2");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let v0 = c.add_gate(GateKind::Buf, &[a]).unwrap();
    let v1 = c.add_gate(GateKind::Buf, &[b]).unwrap();
    let t1 = c.add_gate(GateKind::And, &[w1, v0]).unwrap();
    let t2 = c.add_gate(GateKind::And, &[w2, v1]).unwrap();
    let w = c.add_gate(GateKind::Or, &[t1, t2]).unwrap();
    c.add_output("w", w);
    c
}

fn specification() -> Circuit {
    let mut s = Circuit::new("spec");
    let w1 = s.add_input("w1");
    let w2 = s.add_input("w2");
    let a = s.add_input("a");
    let b = s.add_input("b");
    let c = s.add_gate(GateKind::And, &[a, b]).unwrap();
    let nc = s.add_gate(GateKind::Not, &[c]).unwrap();
    let t1 = s.add_gate(GateKind::And, &[w1, c]).unwrap();
    let t2 = s.add_gate(GateKind::And, &[w2, nc]).unwrap();
    let w = s.add_gate(GateKind::Or, &[t1, t2]).unwrap();
    s.add_output("w", w);
    s
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let impl_c = implementation();
    let spec = specification();
    let corr = Correspondence::build(&impl_c, &spec)?;
    let pair = corr.outputs[0].clone();

    // §5.1 — collect error-domain samples.
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
    let samples = collect_samples(
        &impl_c,
        &spec,
        &corr,
        &pair,
        16,
        SamplePolicy::ErrorDomain,
        None,
        &mut rng,
        None,
        &mut ProofCache::new(),
    )?
    .0;
    println!("error-domain samples (|E| members): {}", samples.len());
    for s in &samples {
        println!("  x̂ = {s:?}");
    }

    // Build the sampling domain and the functions g(z).
    let mut m = BddManager::new();
    const Z_BASE: u32 = 40;
    let domain = SamplingDomain::new(samples, Z_BASE)?;
    println!(
        "\nsampling domain: N = {} samples → {} z-variables",
        domain.len(),
        domain.num_z_vars()
    );
    let g = domain.input_functions(&mut m, impl_c.num_inputs())?;

    // Spec value f'(g(z)) over the domain.
    let mut g_spec = vec![m.zero(); spec.num_inputs()];
    for (pos, sp) in corr.spec_input_pos.iter().enumerate() {
        if let Some(sp) = sp {
            g_spec[*sp] = g[pos];
        }
    }
    let spec_vals = eval_all_bdd(&spec, &mut m, &g_spec)?;
    let fprime = spec_vals[spec.outputs()[0].net().index()];
    let fprime_bits: Vec<bool> = (0..domain.len())
        .map(|k| m.eval(fprime, &domain.code_assignment(k)))
        .collect();

    // §4.2 — H(t)'s prime cubes are its minimal feasible point-sets.
    let root = impl_c.outputs()[0].net();
    let pins = candidate_pins(&impl_c, root, 0, 16);
    println!("\ncandidate pins (M = {}):", pins.len());
    for (j, p) in pins.iter().enumerate() {
        println!("  q_{j} = {p}");
    }
    let mut minimal = MinimalSets::new(&impl_c, domain.samples(), &fprime_bits, root, 0, &pins);
    for m_points in 1..=2 {
        let sets = minimal.of_size(m_points, 8);
        println!(
            "\nH(t) has {} minimal point-set(s) of {m_points} pin(s):",
            sets.len()
        );
        for set in &sets {
            let names: Vec<String> = set.iter().map(|p| p.to_string()).collect();
            println!("  {{{}}}", names.join(", "));
        }
    }

    // §4.3 — candidate rewiring nets for the v0 gating pin.
    let spec_root = spec.outputs()[0].net();
    let ctx = RewireNetContext::build(&impl_c, &spec, &corr, spec_root, domain.samples())?;
    let gating_pin = pins
        .iter()
        .copied()
        .find(|p| matches!(p, Pin::Gate { .. }))
        .expect("gate pins exist");
    let cands = candidates_for_pin(&impl_c, &ctx, gating_pin, 8, None)?;
    println!("\nrewiring candidates for pin {gating_pin} (utility = |differs on E|/|E|):");
    for c in &cands {
        println!(
            "  net {}{}  utility {:.2}",
            c.net,
            if c.from_spec { " (spec)" } else { "" },
            c.utility
        );
    }
    println!("\nThe engine validates choices of Ξ(c) with SAT and rewires —");
    println!("run `cargo run --example figure1` to see the end-to-end result.");
    Ok(())
}
