//! Criterion micro-benchmarks for the BDD package: building an adder
//! carry chain (AND/XOR/OR) and quantifying it (with the op caches cleared
//! each iteration).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eco_bdd::BddManager;

/// Builds an n-variable adder-carry chain (linear BDD).
fn carry_chain(m: &mut BddManager, n: u32) -> eco_bdd::Bdd {
    let mut carry = m.zero();
    for i in 0..n {
        let a = m.var(2 * i);
        let b = m.var(2 * i + 1);
        let ab = m.and(a, b).unwrap();
        let axb = m.xor(a, b).unwrap();
        let pc = m.and(axb, carry).unwrap();
        carry = m.or(ab, pc).unwrap();
    }
    carry
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd_build_carry");
    for n in [8u32, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut m = BddManager::new();
                std::hint::black_box(carry_chain(&mut m, n))
            });
        });
    }
    group.finish();
}

fn bench_quantify(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd_quantify");
    for n in [8u32, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut m = BddManager::new();
            let f = carry_chain(&mut m, n);
            let vars: Vec<u32> = (0..n).map(|i| 2 * i).collect();
            let cube = m.var_cube(&vars).unwrap();
            b.iter(|| {
                m.clear_caches();
                let e = m.exists(f, cube).unwrap();
                let a = m.forall(f, cube).unwrap();
                std::hint::black_box((e, a))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_quantify);
criterion_main!(benches);
