//! Deep BDD/SAT profile of the scaling case (par16) -> `BENCH_bdd.json`.
//!
//! ```text
//! cargo run --release -p syseco-bench --bin bdd_profile -- [out.json]
//! ```
//!
//! Two measurements feed the output file:
//!
//! 1. **Instrumented rectification** — the full par16 run with telemetry
//!    enabled and a background [`CounterSampler`] reading the metrics
//!    registry on an interval. Yields apply throughput (apply-cache
//!    lookups per second of wall clock), per-op-cache hit rates,
//!    unique-table resize and eviction counts, SAT restart/learnt-clause
//!    totals, timing-histogram quantiles, and a cumulative counter time
//!    series. The binary installs [`CountingAlloc`], so allocation counts
//!    for the whole run ride along.
//! 2. **Direct BDD build** — every output of the par16 implementation
//!    evaluated in one fresh manager via
//!    [`syseco::sampling::eval_all_bdd`], giving an exact per-variable-
//!    level node census ([`BddManager::nodes_per_level`]) and final
//!    op-cache entry counts that a rectification run (which clears caches
//!    between cones) cannot expose.
//!
//! Wall-clock-derived fields (`*_s`, `*throughput*`, allocation counts)
//! vary by host and exist for `bench_diff` trend comparison on one
//! machine; the counter fields are deterministic for a given seed.

use std::time::{Duration, Instant};

use eco_bdd::BddManager;
use eco_telemetry::alloc::{allocation_counts, CountingAlloc};
use eco_telemetry::profile::CounterSampler;
use syseco::sampling::eval_all_bdd;
use syseco::telemetry::{Counter, Gauge, Histogram};
use syseco::{EcoOptions, Session, Telemetry};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn hit_rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_bdd.json".to_string());

    eprintln!("building scaling case (id 16)…");
    let case = eco_workload::scaling_case();
    let alloc_before = allocation_counts();

    // ---- 1. Instrumented rectification ------------------------------
    let telemetry = Telemetry::enabled();
    let sampler = CounterSampler::start(&telemetry, Duration::from_millis(250));
    let session =
        Session::new(EcoOptions::builder().seed(16).jobs(1).build()).with_telemetry(&telemetry);
    let t0 = Instant::now();
    let result = session
        .run(&case.implementation, &case.spec)
        .expect("rectification failed");
    let wall = t0.elapsed();
    let samples = sampler.stop();
    let snapshot = telemetry.snapshot();
    let run_allocs = allocation_counts().since(alloc_before);
    eprintln!(
        "rectified {} in {wall:.2?} ({} spans, {} allocations)",
        case.name,
        result.trace.len(),
        run_allocs.allocations
    );

    let apply_hits = snapshot.counter(Counter::BddApplyHits);
    let apply_misses = snapshot.counter(Counter::BddApplyMisses);
    let apply_ops = apply_hits + apply_misses;
    let apply_throughput = apply_ops as f64 / wall.as_secs_f64();
    let caches = [
        ("apply", apply_hits, apply_misses),
        (
            "ite",
            snapshot.counter(Counter::BddIteHits),
            snapshot.counter(Counter::BddIteMisses),
        ),
        (
            "quant",
            snapshot.counter(Counter::BddQuantHits),
            snapshot.counter(Counter::BddQuantMisses),
        ),
    ];
    assert!(apply_ops > 0, "par16 must exercise the apply cache");
    assert!(
        snapshot.gauge(Gauge::BddPeakNodes) > 0,
        "peak node gauge must be recorded"
    );
    assert!(
        snapshot.counter(Counter::SatLearntClauses) > 0,
        "par16 must learn SAT clauses"
    );

    // ---- 2. Direct BDD build for the level census --------------------
    let mut manager = BddManager::new();
    let input_fns: Vec<_> = (0..case.implementation.num_inputs())
        .map(|i| manager.var(i as u32))
        .collect();
    eval_all_bdd(&case.implementation, &mut manager, &input_fns)
        .expect("par16 implementation fits in an unbounded manager");
    let levels = manager.nodes_per_level();
    let build_counters = manager.counters();
    let cache_sizes = manager.op_cache_sizes();
    assert!(!levels.is_empty() && levels.iter().sum::<usize>() > 0);
    let widest = levels
        .iter()
        .enumerate()
        .max_by_key(|&(i, &n)| (n, usize::MAX - i))
        .map(|(i, &n)| (i, n))
        .expect("at least one level");

    // ---- Emit --------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"case\": \"{}\",\n", case.name));
    json.push_str("  \"jobs\": 1,\n");
    json.push_str(&format!(
        "  \"rectify_wall_clock_s\": {:.6},\n",
        wall.as_secs_f64()
    ));
    json.push_str(&format!(
        "  \"bdd_apply_throughput_per_s\": {apply_throughput:.1},\n"
    ));
    json.push_str("  \"cache_hit_rates\": {");
    for (i, (name, hits, misses)) in caches.iter().enumerate() {
        json.push_str(&format!(
            "{}\n    \"bdd_{name}_hit_rate\": {:.4}",
            if i > 0 { "," } else { "" },
            hit_rate(*hits, *misses)
        ));
    }
    json.push_str("\n  },\n");
    json.push_str("  \"counters\": {");
    for (i, (name, value)) in snapshot.counters().enumerate() {
        json.push_str(&format!(
            "{}\n    \"{name}\": {value}",
            if i > 0 { "," } else { "" }
        ));
    }
    json.push_str("\n  },\n");
    json.push_str("  \"gauges\": {");
    for (i, (name, value)) in snapshot.gauges().enumerate() {
        json.push_str(&format!(
            "{}\n    \"{name}\": {value}",
            if i > 0 { "," } else { "" }
        ));
    }
    json.push_str("\n  },\n");
    json.push_str("  \"histogram_quantiles\": {");
    for (i, &histogram) in Histogram::ALL.iter().enumerate() {
        let (p50, p90, p99) = snapshot.histogram_percentiles(histogram);
        json.push_str(&format!(
            "{}\n    \"{}\": {{\"p50\": {p50:.1}, \"p90\": {p90:.1}, \"p99\": {p99:.1}}}",
            if i > 0 { "," } else { "" },
            histogram.name()
        ));
    }
    json.push_str("\n  },\n");
    json.push_str(&format!(
        "  \"allocations\": {},\n  \"bytes_allocated\": {},\n",
        run_allocs.allocations, run_allocs.bytes_allocated
    ));
    json.push_str("  \"counter_series\": [");
    for (i, sample) in samples.iter().enumerate() {
        json.push_str(&format!(
            "{}\n    {{\"elapsed_ms\": {}, \"sat_conflicts\": {}, \"bdd_apply_ops\": {}}}",
            if i > 0 { "," } else { "" },
            sample.elapsed_ms,
            sample.counter(Counter::SatConflicts),
            sample.counter(Counter::BddApplyHits) + sample.counter(Counter::BddApplyMisses)
        ));
    }
    json.push_str("\n  ],\n");
    json.push_str("  \"direct_build\": {\n");
    json.push_str(&format!(
        "    \"peak_nodes\": {},\n    \"final_nodes\": {},\n",
        manager.peak_num_nodes(),
        manager.num_nodes()
    ));
    json.push_str(&format!(
        "    \"unique_resizes\": {},\n    \"op_cache_entries\": {},\n",
        build_counters.unique_resizes,
        cache_sizes.total()
    ));
    json.push_str(&format!(
        "    \"widest_level\": {},\n    \"widest_level_nodes\": {},\n",
        widest.0, widest.1
    ));
    json.push_str("    \"nodes_per_level\": [");
    for (i, n) in levels.iter().enumerate() {
        json.push_str(&format!("{}{n}", if i > 0 { ", " } else { "" }));
    }
    json.push_str("]\n  },\n");
    json.push_str(
        "  \"methodology\": \"Single instrumented run of the workload scaling case \
         (par16, seed 16, jobs=1, release profile) with telemetry enabled, a 250ms \
         counter sampler, and the allocation-counting global allocator, followed by a \
         direct eval_all_bdd build of the implementation in a fresh manager for the \
         per-level node census. Counter and gauge fields are deterministic for the \
         seed; *_s, *throughput*, and allocation fields are host-dependent and exist \
         for same-host trend comparison via bench_diff.\"\n",
    );
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
