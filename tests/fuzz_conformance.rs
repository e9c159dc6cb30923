//! In-tree differential-fuzzing conformance run (DESIGN.md §12): five
//! hundred generated scenarios through the full cross-oracle matrix —
//! simulation, SAT CEC, BDD equivalence, rectification at one and four
//! workers, and periodic cache cold/warm replay — with zero disagreements
//! expected, plus the determinism guarantee behind `syseco-fuzz run`.

mod common;

use common::tmp_dir;
use eco_netlist::write_blif;
use syseco::fuzz::{generate, iteration_seed, FuzzConfig, FuzzRunner, ScenarioConfig};

#[test]
fn five_hundred_iterations_with_zero_disagreements() {
    let config = FuzzConfig {
        cache_every: 25,
        scratch_dir: Some(tmp_dir("fuzz-conformance")),
        ..FuzzConfig::default()
    };
    let runner = FuzzRunner::new(config);
    let report = runner
        .run(0xDAC_2019, 500, |_, _| {})
        .expect("fuzzing infrastructure stays healthy");
    assert_eq!(report.iterations, 500);
    assert_eq!(
        report.cache_checked, 20,
        "every 25th iteration also replays through the cache"
    );
    assert!(
        report.failures.is_empty(),
        "cross-oracle disagreements: {}",
        report
            .failures
            .iter()
            .flat_map(|f| f.disagreements.iter())
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
fn scenario_stream_is_deterministic_for_a_fixed_seed() {
    // The substrate of `syseco-fuzz run` determinism: the same run seed
    // derives the same scenario seeds and byte-identical circuit pairs.
    let config = ScenarioConfig::default();
    for i in [0u64, 1, 7, 63] {
        let seed = iteration_seed(0xF0CC, i);
        let a = generate(seed, &config).expect("generates");
        let b = generate(seed, &config).expect("generates");
        assert_eq!(write_blif(&a.implementation), write_blif(&b.implementation));
        assert_eq!(write_blif(&a.spec), write_blif(&b.spec));
        assert_eq!(a.delta.len(), b.delta.len());
    }
}

#[test]
fn fuzz_reports_are_reproducible() {
    let runner = FuzzRunner::new(FuzzConfig {
        cache_every: 0,
        ..FuzzConfig::default()
    });
    let mut ticks = Vec::new();
    let a = runner
        .run(42, 25, |done, fails| ticks.push((done, fails)))
        .expect("first run");
    let b = runner.run(42, 25, |_, _| {}).expect("second run");
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.failures.len(), b.failures.len());
    assert_eq!(ticks.len(), 25, "progress fires once per iteration");
}

/// Screen soundness over two hundred fuzz scenarios: every candidate the
/// bit-parallel bank screen rejects carries a banked witness that separates
/// it from the spec, and SAT alone (an empty bank) never validates it as
/// `Valid` — the screen may only refuse candidates the oracle would also
/// refuse (DESIGN.md §16's "sound, never complete" contract).
#[test]
fn prefilter_screen_is_sound_across_two_hundred_scenarios() {
    use eco_netlist::sim::Compiled;
    use eco_netlist::NetId;
    use eco_sat::cec::ProofCache;
    use std::collections::{HashMap, HashSet};
    use syseco::correspond::Correspondence;
    use syseco::points::candidate_pins;
    use syseco::rewire_nets::RewireCandidate;
    use syseco::validate::{
        apply_rewires, validate_rewires, CandidateRewire, SampleBank, Validation,
    };

    // Tiny deterministic splitmix64 stream; no RNG dependency needed.
    struct Sm(u64);
    impl Sm {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    let config = ScenarioConfig::default();
    let mut screened_total = 0u64;
    let mut passed_total = 0u64;
    for i in 0..200u64 {
        let seed = iteration_seed(0x5C4EE4, i);
        let sc = generate(seed, &config).expect("scenario generates");
        let im = &sc.implementation;
        let sp = &sc.spec;
        let corr = match Correspondence::build(im, sp) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let mut rng = Sm(seed ^ 0xA5A5);
        // 48 samples: not a multiple of 64, so the padding bits of the final
        // simulation block are exercised on every scenario.
        let samples: Vec<Vec<bool>> = (0..48)
            .map(|_| (0..im.num_inputs()).map(|_| rng.next() & 1 == 1).collect())
            .collect();
        let pair = &corr.outputs[rng.below(corr.outputs.len())];
        let root = im.outputs()[pair.impl_index as usize].net();
        let spec_sim = Compiled::new(sp).expect("spec compiles");
        let bank = SampleBank::new(&spec_sim, &corr, samples.clone()).expect("bank builds");
        let pins = candidate_pins(im, root, pair.impl_index, 16);
        if pins.is_empty() {
            continue;
        }
        // Treat every output as failing: the damage rule then prunes
        // nothing, making `Valid` as permissive as possible — the hardest
        // setting for a soundness claim about the screen.
        let failing: HashSet<u32> = (0..im.outputs().len() as u32).collect();
        let validate = |rewires: &[CandidateRewire], bank: &SampleBank| {
            validate_rewires(
                im,
                sp,
                &corr,
                rewires,
                pair,
                &failing,
                bank,
                100_000,
                None,
                &mut ProofCache::new(),
            )
            .map(|(v, _)| v)
        };
        for _ in 0..6 {
            let pin = pins[rng.below(pins.len())];
            let net = NetId::from_index(rng.below(im.num_nodes()));
            let rewires = vec![CandidateRewire {
                pin,
                candidate: RewireCandidate {
                    net,
                    from_spec: false,
                    utility: 0.0,
                    arrival: 0.0,
                },
            }];
            let x = match validate(&rewires, &bank) {
                Ok(Validation::Screened(x)) => x,
                // A cycle is decided before the screen.
                Ok(Validation::Infeasible) => continue,
                Ok(_) => {
                    passed_total += 1;
                    continue;
                }
                // A random net index may reference a dead node the fuzz
                // mutator left behind: no soundness signal.
                Err(_) => continue,
            };
            screened_total += 1;
            assert!(
                samples.contains(&x),
                "scenario {i}: witness {x:?} is not banked"
            );
            let mut scratch = im.clone();
            apply_rewires(&mut scratch, sp, &rewires, &mut HashMap::new())
                .expect("a screened rewire applies");
            let got = scratch.eval(&x).expect("simulates")[pair.impl_index as usize];
            let want =
                sp.eval(&corr.spec_assignment(&x)).expect("simulates")[pair.spec_index as usize];
            assert_ne!(got, want, "scenario {i}: witness {x:?} does not separate");
            let sat_only = validate(&rewires, &SampleBank::default()).expect("validation runs");
            assert!(
                !matches!(sat_only, Validation::Valid { .. }),
                "screened candidate validated as Valid (scenario {i}, pin {pin:?}, net {net:?})"
            );
        }
    }
    assert!(screened_total > 0, "the sweep never screened a candidate");
    assert!(passed_total > 0, "the sweep never passed a candidate");
}

/// Proof reuse never changes a validation verdict (DESIGN.md §17): over two
/// hundred scenarios, each candidate is validated once through a warm
/// overlay — on a base filled by a detection pass, as in the engine — and
/// once through a fresh cache. Both must reach the same kind of verdict,
/// and every counterexample must still separate the rewired implementation
/// from the spec when re-simulated.
#[test]
fn warm_and_cold_proof_caches_agree_across_two_hundred_scenarios() {
    use eco_netlist::{NetId, Pin};
    use eco_sat::cec::ProofCache;
    use std::collections::{HashMap, HashSet};
    use std::mem::discriminant;
    use syseco::correspond::Correspondence;
    use syseco::error_domain::classify_outputs_with_stats;
    use syseco::points::candidate_pins;
    use syseco::rewire_nets::RewireCandidate;
    use syseco::validate::{
        apply_rewires, validate_rewires, CandidateRewire, SampleBank, Validation,
    };

    let config = ScenarioConfig::default();
    let (mut compared, mut counterexamples, mut valid, mut reused) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..200u64 {
        let seed = iteration_seed(0xCEC_CA5E, i);
        let sc = generate(seed, &config).expect("scenario generates");
        let (im, sp) = (&sc.implementation, &sc.spec);
        let Ok(corr) = Correspondence::build(im, sp) else {
            continue;
        };
        let mut detect = ProofCache::new();
        classify_outputs_with_stats(im, sp, &corr, None, None, &mut detect)
            .expect("detection runs");
        let base = detect.freeze();
        let mut warm = base.overlay();
        let failing: HashSet<u32> = (0..im.outputs().len() as u32).collect();
        for k in 0..6usize {
            let pair = &corr.outputs[(seed as usize + k) % corr.outputs.len()];
            let root = im.outputs()[pair.impl_index as usize].net();
            let pins = candidate_pins(im, root, pair.impl_index, 16);
            // Alternate the candidate: the pair's own spec cone at its
            // output pin (valid by construction), a spec net, an
            // implementation net — the last two at a cone pin.
            let j = (seed >> (8 * (k % 8))) as usize;
            let (pin, net, from_spec) = match k % 3 {
                0 => (
                    Pin::output(pair.impl_index),
                    sp.outputs()[pair.spec_index as usize].net(),
                    true,
                ),
                _ if pins.is_empty() => continue,
                1 => (
                    pins[j % pins.len()],
                    NetId::from_index(j % sp.num_nodes()),
                    true,
                ),
                _ => (
                    pins[j % pins.len()],
                    NetId::from_index(j % im.num_nodes()),
                    false,
                ),
            };
            let rewires = vec![CandidateRewire {
                pin,
                candidate: RewireCandidate {
                    net,
                    from_spec,
                    utility: 0.0,
                    arrival: 0.0,
                },
            }];
            let cold = &mut ProofCache::new();
            let [w, c] = [&mut warm, cold].map(|proofs| {
                validate_rewires(
                    im,
                    sp,
                    &corr,
                    &rewires,
                    pair,
                    &failing,
                    &SampleBank::default(),
                    100_000,
                    None,
                    proofs,
                )
                .map(|(v, _)| v)
            });
            let (w, c) = match (w, c) {
                (Ok(w), Ok(c)) => (w, c),
                // A random net may be dead or unclonable: both must refuse.
                (Err(_), Err(_)) => continue,
                (w, c) => panic!("scenario {i}: warm {w:?} but cold {c:?}"),
            };
            assert_eq!(
                discriminant(&w),
                discriminant(&c),
                "scenario {i}: warm {w:?} but cold {c:?}"
            );
            compared += 1;
            valid += u64::from(matches!(w, Validation::Valid { .. }));
            for v in [&w, &c] {
                let Validation::CounterExample(x) = v else {
                    continue;
                };
                counterexamples += 1;
                let mut scratch = im.clone();
                apply_rewires(&mut scratch, sp, &rewires, &mut HashMap::new())
                    .expect("a validated rewire applies");
                let got = scratch.eval(x).expect("simulates")[pair.impl_index as usize];
                let want =
                    sp.eval(&corr.spec_assignment(x)).expect("simulates")[pair.spec_index as usize];
                assert_ne!(
                    got, want,
                    "scenario {i}: counterexample {x:?} does not separate"
                );
            }
        }
        reused += warm.reused();
    }
    assert!(compared >= 400, "only {compared} candidates compared");
    assert!(
        valid > 0 && counterexamples > 0,
        "{valid} valid, {counterexamples} cex"
    );
    assert!(reused > 0, "the warm overlay never reused a proof");
}

/// The engine's screen accounting must reconcile on real runs: every
/// screened or passed candidate was first counted as a choice, and, with no
/// cache to re-validate a memoized proposal, every validation slot went to a
/// passed candidate.
#[test]
fn prefilter_counters_reconcile_with_search_accounting() {
    use syseco::{EcoOptions, Session};

    let config = ScenarioConfig::default();
    let mut screened_anywhere = 0u64;
    for i in 0..25u64 {
        let seed = iteration_seed(0xC0FFEE, i);
        let sc = generate(seed, &config).expect("scenario generates");
        let result = Session::new(EcoOptions::with_seed(seed ^ 1))
            .run(&sc.implementation, &sc.spec)
            .expect("rectification succeeds");
        let st = &result.rectify;
        assert!(
            st.prefilter_screened + st.prefilter_passed <= st.choices_tried,
            "scenario {i}: screened {} + passed {} exceeds choices {}",
            st.prefilter_screened,
            st.prefilter_passed,
            st.choices_tried
        );
        assert_eq!(
            st.prefilter_passed, st.validations,
            "scenario {i}: passed {} but validations {}",
            st.prefilter_passed, st.validations
        );
        screened_anywhere += st.prefilter_screened as u64;
    }
    assert!(
        screened_anywhere > 0,
        "twenty-five fuzz rectifications never screened a single candidate"
    );
}
