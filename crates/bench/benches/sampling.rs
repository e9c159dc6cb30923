//! Criterion benchmarks for the symbolic sampling machinery: building
//! sampling functions, overloading a circuit, and enumerating the minimal
//! feasible point-sets of `H(t)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eco_bdd::BddManager;
use eco_netlist::sim::Compiled;
use eco_synth::lower::synthesize;
use eco_synth::rtl::{RtlModule, WordExpr as E};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use syseco::points::{candidate_pins, MinimalSets};
use syseco::sampling::{eval_all_bdd, SamplingDomain};

fn bench_circuit() -> eco_netlist::Circuit {
    let mut m = RtlModule::new("samp");
    m.add_input("a", 8);
    m.add_input("b", 8);
    m.add_input("en", 1);
    m.add_signal("s0", E::add(E::input("a"), E::input("b")));
    m.add_signal("s1", E::and(E::signal("s0"), E::input("a")));
    m.add_signal("s2", E::mux(E::input("en"), E::signal("s1"), E::input("b")));
    m.add_output("y", E::signal("s2"));
    synthesize(&m).expect("elaborates")
}

fn random_samples(n: usize, inputs: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..inputs).map(|_| rng.gen()).collect())
        .collect()
}

fn bench_domain_eval(c: &mut Criterion) {
    let circuit = bench_circuit();
    let mut group = c.benchmark_group("sampling_domain_eval");
    for n in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let samples = random_samples(n, circuit.num_inputs(), 5);
            b.iter(|| {
                let mut m = BddManager::new();
                let dom = SamplingDomain::new(samples.clone(), 0).unwrap();
                let g = dom.input_functions(&mut m, circuit.num_inputs()).unwrap();
                std::hint::black_box(eval_all_bdd(&circuit, &mut m, &g).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_point_set_enumeration(c: &mut Criterion) {
    let circuit = bench_circuit();
    c.bench_function("sampling_h_of_t_m2", |b| {
        let samples = random_samples(32, circuit.num_inputs(), 9);
        let root = circuit.outputs()[0].net();
        let sim = Compiled::new(&circuit).unwrap();
        let words = sim.simulate_all(&samples).unwrap();
        // Target: a deliberately wrong f' (negated output) to make H(t)
        // non-trivial.
        let fprime: Vec<u64> = words.blocks().iter().map(|w| !w[root.index()]).collect();
        b.iter(|| {
            let pins = candidate_pins(&circuit, root, 0, 24);
            let mut minimal = MinimalSets::new(&circuit, &sim, &words, &fprime, 0, &pins);
            let singles = minimal.of_size(1, usize::MAX);
            std::hint::black_box((singles, minimal.of_size(2, usize::MAX)))
        });
    });
}

criterion_group!(benches, bench_domain_eval, bench_point_set_enumeration);
criterion_main!(benches);
