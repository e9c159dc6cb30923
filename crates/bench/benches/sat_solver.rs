//! Criterion micro-benchmarks for the CDCL solver: miter-style equivalence
//! queries, the workhorse of candidate validation, alone and on the
//! engine's per-query path (encode, internal-equivalence assist, check).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eco_netlist::{Circuit, NetId};
use eco_sat::cec::{CecOptions, ProofCache};
use eco_sat::tseitin::{Equivalence, Miter};
use eco_sat::Solver;
use eco_synth::lower::synthesize;
use eco_synth::opt::{optimize, OptOptions};
use eco_synth::rtl::{RtlModule, WordExpr as E};

/// An adder-tree module of the given width: realistic miter fodder.
fn adder_tree(width: u32) -> Circuit {
    let mut m = RtlModule::new("bench");
    m.add_input("a", width);
    m.add_input("b", width);
    m.add_input("c", width);
    m.add_input("d", width);
    m.add_signal("s0", E::add(E::input("a"), E::input("b")));
    m.add_signal("s1", E::add(E::input("c"), E::input("d")));
    m.add_signal("s2", E::add(E::signal("s0"), E::signal("s1")));
    m.add_signal("s3", E::xor(E::signal("s2"), E::signal("s0")));
    m.add_output("y", E::signal("s3"));
    synthesize(&m).expect("elaborates")
}

/// An adder tree against its optimized self, with their output pairs.
fn optimized_pair(width: u32) -> (Circuit, Circuit, Vec<(NetId, NetId)>) {
    let left = adder_tree(width);
    let mut right = adder_tree(width);
    optimize(&mut right, &OptOptions::heavy(3)).unwrap();
    let pairs = left
        .outputs()
        .iter()
        .zip(right.outputs())
        .map(|(l, r)| (l.net(), r.net()))
        .collect();
    (left, right, pairs)
}

fn bench_equivalence_unsat(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_miter_equivalent");
    for width in [8u32, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, &w| {
            let (left, right, pairs) = optimized_pair(w);
            b.iter(|| {
                let mut miter = Miter::new(Solver::new(), &left, &right, &pairs).unwrap();
                miter.require_difference();
                assert_eq!(miter.next_difference(&left), Equivalence::Equivalent);
            });
        });
    }
    group.finish();
}

fn bench_model_enumeration(c: &mut Criterion) {
    c.bench_function("sat_enumerate_16_models", |b| {
        let left = adder_tree(8);
        // A broken right side: plenty of error minterms to enumerate.
        let mut m = RtlModule::new("broken");
        m.add_input("a", 8);
        m.add_input("b", 8);
        m.add_input("c", 8);
        m.add_input("d", 8);
        m.add_signal("s0", E::add(E::input("a"), E::input("b")));
        m.add_signal("s1", E::add(E::input("c"), E::input("d")));
        m.add_signal("s2", E::add(E::signal("s0"), E::signal("s1")));
        m.add_signal("s3", E::not(E::xor(E::signal("s2"), E::signal("s0"))));
        m.add_output("y", E::signal("s3"));
        let right = synthesize(&m).expect("elaborates");
        let pairs: Vec<_> = left
            .outputs()
            .iter()
            .zip(right.outputs())
            .map(|(l, r)| (l.net(), r.net()))
            .collect();
        b.iter(|| {
            let mut miter = Miter::new(Solver::new(), &left, &right, &pairs).unwrap();
            miter.require_difference();
            let mut found = 0;
            while found < 16 {
                let Equivalence::Counterexample(inputs) = miter.next_difference(&left) else {
                    break;
                };
                miter.block(&inputs, &left);
                found += 1;
            }
            std::hint::black_box(found)
        });
    });
}

/// The engine's per-query path, as validation runs it: encode the miter,
/// run the internal-equivalence assist on an overlay of a proof cache that
/// an earlier pass warmed, then check every output pair.
fn bench_assisted_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_miter_assisted");
    let (left, right, pairs) = optimized_pair(16);
    let options = CecOptions::default();
    let mut warm = ProofCache::new();
    Miter::new(Solver::new(), &left, &right, &pairs)
        .unwrap()
        .assist(&left, &right, &options, &mut warm)
        .unwrap();
    let base = warm.freeze();
    group.bench_function("16", |b| {
        b.iter(|| {
            let mut miter = Miter::new(Solver::new(), &left, &right, &pairs).unwrap();
            miter
                .assist(&left, &right, &options, &mut base.overlay())
                .unwrap();
            for pair in 0..pairs.len() {
                assert_eq!(miter.check(pair, &left), Equivalence::Equivalent);
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_equivalence_unsat,
    bench_model_enumeration,
    bench_assisted_query
);
criterion_main!(benches);
