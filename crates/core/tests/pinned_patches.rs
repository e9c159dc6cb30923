//! Pins every generated case's patch and search counts.
//!
//! Per generated case, this test runs the engine under the options the
//! `e2e_bench` workloads give it at benchmark seed 0: the case id as the
//! engine seed (par16 at 16, the whole chain 17–19 at 17), one worker,
//! level-driven selection for the timing cases 12–15, and no cache. Each
//! case's row holds the FNV-1a-64 of the patched circuit's BLIF text (the
//! benchmark's `digest`) and eight counts of its search. A change that
//! alters a patch or a count on purpose regenerates `PINNED` and names
//! each changed row in its description; every other change must leave
//! the table as it is.

use eco_netlist::write_blif;
use eco_workload::{chain_cases, scaling_case, table1_cases, timing_cases, EcoCase};
use syseco::{EcoOptions, EcoResult, Session};

/// One case's row: its name, its patch digest, then `rectify.validations`,
/// `point_sets_tried`, `choices_tried`, `prefilter_screened`,
/// `refinements`, `sat.conflicts`, `rewire_rectified` and `fallbacks`.
type Row = (&'static str, u64, [u64; 8]);

/// Per case, in generation order.
const PINNED: &[Row] = &[
    (
        "core1",
        0x19acdc0970747b65,
        [44, 194, 45, 1, 44, 3489, 0, 16],
    ),
    (
        "ctrl2",
        0xd49313ad139406cc,
        [53, 86, 129, 76, 3, 936, 19, 3],
    ),
    ("dp3", 0x39500b65e6fd3d75, [14, 71, 58, 44, 10, 9927, 4, 12]),
    ("dec4", 0xd7b0227853dab1c9, [3, 4, 3, 0, 0, 971, 2, 0]),
    ("ctl5", 0x2baadeac394479d8, [22, 25, 32, 10, 3, 989, 11, 0]),
    ("exu6", 0x6c6ebf1e9a9d81e5, [3, 4, 3, 0, 0, 1214, 1, 0]),
    ("lsu7", 0xee7b655d19881939, [82, 82, 84, 2, 12, 1316, 0, 6]),
    ("ifu8", 0x5d4f4bc6b912c35e, [30, 72, 85, 55, 5, 2537, 9, 2]),
    ("mmu9", 0xf28c86d5a8606fc6, [12, 60, 27, 15, 11, 778, 0, 4]),
    ("fpu10", 0xcd5c0a3e2f8cbd8e, [12, 24, 15, 3, 6, 3423, 6, 0]),
    ("iou11", 0x164d3fea44484f47, [19, 14, 19, 0, 2, 1014, 3, 0]),
    ("tmg12", 0xd55af3d1445a9959, [7, 44, 18, 11, 7, 1093, 0, 8]),
    (
        "tmg13",
        0x6309db06bb16945d,
        [48, 79, 60, 12, 10, 3159, 7, 4],
    ),
    (
        "tmg14",
        0x2d0786ea476d0eae,
        [34, 112, 88, 54, 9, 3818, 13, 3],
    ),
    ("tmg15", 0xb78ea0d6026e2848, [70, 72, 70, 0, 8, 1586, 8, 0]),
    (
        "par16",
        0xfdafb9dbf81d2d4b,
        [41, 75, 73, 32, 13, 2328, 12, 3],
    ),
    ("chain17", 0x5e27c1e20cbfda75, [5, 10, 5, 0, 0, 478, 4, 0]),
    (
        "chain18",
        0x8157fb970a8e8f86,
        [14, 31, 29, 15, 0, 807, 8, 0],
    ),
    (
        "chain19",
        0x7d0b3cc6684e9f29,
        [16, 55, 55, 39, 5, 1038, 8, 4],
    ),
];

/// FNV-1a-64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn counts(result: &EcoResult) -> [u64; 8] {
    let r = &result.rectify;
    let n = |x: usize| x as u64;
    [
        n(r.validations),
        n(r.point_sets_tried),
        n(r.choices_tried),
        n(r.prefilter_screened),
        n(r.refinements),
        r.sat.conflicts,
        n(r.rewire_rectified),
        n(r.fallbacks),
    ]
}

/// Runs `cases` and compares their rows with `PINNED`. `seed` gives each
/// case's engine seed.
fn check(cases: Vec<EcoCase>, seed: impl Fn(&EcoCase) -> u64, level_driven: bool) {
    let actual: Vec<(String, u64, [u64; 8])> = cases
        .iter()
        .map(|case| {
            let options = EcoOptions::builder()
                .seed(seed(case))
                .jobs(1)
                .level_driven(level_driven)
                .build();
            let result = Session::new(options)
                .run(&case.implementation, &case.spec)
                .unwrap_or_else(|e| panic!("{}: engine error: {e}", case.name));
            let digest = fnv1a(write_blif(&result.patched).as_bytes());
            (case.name.clone(), digest, counts(&result))
        })
        .collect();
    let changed: Vec<&str> = actual
        .iter()
        .filter(|(name, digest, counts)| !PINNED.contains(&(name.as_str(), *digest, *counts)))
        .map(|(name, _, _)| name.as_str())
        .collect();
    let rows: Vec<String> = actual
        .iter()
        .map(|(name, digest, counts)| format!("    ({name:?}, {digest:#018x}, {counts:?}),"))
        .collect();
    assert!(
        changed.is_empty(),
        "the patch or a search count changed on {changed:?}.\n\
         Only a change that alters patches on purpose may update PINNED, and it names \
         each changed row in its description; the engine now gives:\n{}",
        rows.join("\n")
    );
}

#[test]
fn table2_cases_match_the_pinned_table() {
    check(table1_cases(), |case| u64::from(case.id), false);
}

#[test]
fn table3_cases_match_the_pinned_table() {
    check(timing_cases(), |case| u64::from(case.id), true);
}

#[test]
fn par16_matches_the_pinned_table() {
    check(vec![scaling_case()], |case| u64::from(case.id), false);
}

#[test]
fn chain_matches_the_pinned_table() {
    let cases = chain_cases();
    let first = u64::from(cases[0].id);
    check(cases, |_| first, false);
}
