//! Criterion benchmarks for the symbolic sampling machinery of one search
//! attempt: enumerating the minimal feasible point-sets of `H(t)` and
//! decoding the valid rewiring choices of `Ξ(c)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eco_netlist::sim::Compiled;
use eco_netlist::Circuit;
use eco_synth::lower::synthesize;
use eco_synth::rtl::{RtlModule, WordExpr as E};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use syseco::choices::find_choices;
use syseco::correspond::Correspondence;
use syseco::points::{candidate_pins, MinimalSets};
use syseco::rectify::{MAX_CANDIDATE_PINS, MAX_CHOICES, MAX_POINTS, MAX_REWIRE_CANDIDATES};
use syseco::rewire_nets::{candidates_for_pin, RewireCandidate, RewireNetContext};

/// `y = en ? (a + b) ∘ a : b`, where `∘` is AND, or OR in the revision.
fn bench_circuit(revised: bool) -> Circuit {
    let mut m = RtlModule::new("samp");
    m.add_input("a", 8);
    m.add_input("b", 8);
    m.add_input("en", 1);
    m.add_signal("s0", E::add(E::input("a"), E::input("b")));
    let s1 = if revised { E::or } else { E::and };
    m.add_signal("s1", s1(E::signal("s0"), E::input("a")));
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

/// The context, match words and candidate lists of the first 2-pin
/// point-set with valid choices, over the first output that has one, on
/// `n` samples on which that output is wrong.
fn two_pin_point_set(n: usize) -> (RewireNetContext, Vec<Vec<u64>>, Vec<Vec<RewireCandidate>>) {
    let (implementation, spec) = (bench_circuit(false), bench_circuit(true));
    let corr = Correspondence::build(&implementation, &spec).unwrap();
    let sim = Compiled::new(&implementation).unwrap();
    let spec_sim = Compiled::new(&spec).unwrap();
    let draws = random_samples(64 * n, implementation.num_inputs(), 5);
    for pair in &corr.outputs {
        let root = implementation.outputs()[pair.impl_index as usize].net();
        let spec_root = spec.outputs()[pair.spec_index as usize].net();
        let samples: Vec<Vec<bool>> = draws
            .iter()
            .filter(|x| {
                implementation.eval_nets(x).unwrap()[root.index()]
                    != spec.eval_nets(&corr.spec_assignment(x)).unwrap()[spec_root.index()]
            })
            .take(n)
            .cloned()
            .collect();
        if samples.is_empty() {
            continue;
        }
        let ctx =
            RewireNetContext::build(&sim, &spec, &spec_sim, &corr, spec_root, &samples).unwrap();
        let pins = candidate_pins(&implementation, root, pair.impl_index, MAX_CANDIDATE_PINS);
        let mut minimal = MinimalSets::new(
            &implementation,
            &sim,
            &ctx.impl_words,
            &ctx.fprime,
            pair.impl_index,
            &pins,
        );
        for set in minimal.of_size(2, usize::MAX) {
            let lists: Vec<Vec<RewireCandidate>> = set
                .iter()
                .map(|&p| {
                    candidates_for_pin(&implementation, &ctx, p, MAX_REWIRE_CANDIDATES, None)
                        .unwrap()
                })
                .collect();
            let matches = minimal.match_words(&set);
            if !find_choices(&matches, &ctx, &lists, MAX_CHOICES).is_empty() {
                return (ctx, matches, lists);
            }
        }
    }
    panic!("some output has a 2-pin point-set with valid choices")
}

/// `Ξ(c)` of one 2-pin point-set, as one search attempt computes it.
fn bench_choices(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling_xi_choices");
    for n in [16usize, 64, 256] {
        let (ctx, matches, lists) = two_pin_point_set(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(find_choices(&matches, &ctx, &lists, MAX_CHOICES)));
        });
    }
    group.finish();
}

/// The minimal point-sets of every size the search escalates through,
/// over as many candidate pins as it takes.
fn bench_point_set_enumeration(c: &mut Criterion) {
    let circuit = bench_circuit(false);
    c.bench_function("sampling_h_of_t", |b| {
        let samples = random_samples(32, circuit.num_inputs(), 9);
        let root = circuit.outputs()[0].net();
        let sim = Compiled::new(&circuit).unwrap();
        let words = sim.simulate_all(&samples).unwrap();
        // Target: a deliberately wrong f' (negated output) to make H(t)
        // non-trivial.
        let fprime: Vec<u64> = words.blocks().iter().map(|w| !w[root.index()]).collect();
        b.iter(|| {
            let pins = candidate_pins(&circuit, root, 0, MAX_CANDIDATE_PINS);
            let mut minimal = MinimalSets::new(&circuit, &sim, &words, &fprime, 0, &pins);
            let sets: Vec<_> = (1..=MAX_POINTS)
                .map(|size| minimal.of_size(size, usize::MAX))
                .collect();
            std::hint::black_box(sets)
        });
    });
}

criterion_group!(benches, bench_choices, bench_point_set_enumeration);
criterion_main!(benches);
