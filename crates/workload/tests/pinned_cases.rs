//! Pins the generated benchmark inputs.
//!
//! Every end-to-end benchmark number depends on the 19 generated cases:
//! Table 1 cases 1–11, timing cases 12–15, the parallel-scaling case and
//! the revision chain 17–19. This test compares an FNV-1a-64 hash of each
//! case's implementation and specification, written as BLIF, against a
//! committed table, so a change anywhere under the generator (synthesis,
//! optimization, the SAT sweep, BLIF output) cannot move the benchmark's
//! inputs unnoticed.

use eco_netlist::write_blif;
use eco_workload::{chain_cases, scaling_case, table1_cases, timing_cases};

/// Per case, in generation order: its name and the FNV-1a-64 hashes of its
/// implementation's and its specification's BLIF.
const PINNED: &[(&str, u64, u64)] = &[
    ("core1", 0xe3e80355fd646a7b, 0x8f0f3fce872015f1),
    ("ctrl2", 0xd85dd174b4d09019, 0x32b924cb2f45ddc7),
    ("dp3", 0x388f98d1654ab59a, 0x241bf771836cac6e),
    ("dec4", 0xcc78862cb2e542fb, 0xe953667548f00626),
    ("ctl5", 0x3522dd34e7d142c9, 0x6b3cf57820980c9a),
    ("exu6", 0x32377f5a0e62416f, 0x6a18f4a3431a7116),
    ("lsu7", 0x8665346136f47af3, 0xcc563f1dd39c04a3),
    ("ifu8", 0xdc361f380a625852, 0x2e0f5f8c024fbeb4),
    ("mmu9", 0xb082a1b44ceca02b, 0xba7ba17d3af2f5d7),
    ("fpu10", 0x013d6c9e7d0d89e7, 0x0ceab9a865df17cb),
    ("iou11", 0xc45418f3a323166f, 0xc080a2106e4e0d19),
    ("tmg12", 0x9a43e5dcb32c5264, 0x0402a6838162b485),
    ("tmg13", 0xeba9109847a8b2af, 0x4403de8e711e1dfb),
    ("tmg14", 0x276665a39b1ff620, 0x909064792aec9906),
    ("tmg15", 0x6b0c0856ba42fd7f, 0xd31c0d19b39629e5),
    ("par16", 0xf51866a00333ab87, 0x60746506dad3e5f7),
    ("chain17", 0x4008807b52a60680, 0x10f0ab6f9addf244),
    ("chain18", 0x17a887748c86824f, 0x855c750f721fb37d),
    ("chain19", 0xf2bd0fbbf95f1732, 0x93b81606dd081865),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn generated_cases_match_the_pinned_table() {
    let cases = table1_cases()
        .into_iter()
        .chain(timing_cases())
        .chain([scaling_case()])
        .chain(chain_cases());
    let actual: Vec<(String, u64, u64)> = cases
        .map(|case| {
            let hash = |c| fnv1a64(write_blif(c).as_bytes());
            (case.name, hash(&case.implementation), hash(&case.spec))
        })
        .collect();
    let rows: Vec<String> = actual
        .iter()
        .map(|(name, i, s)| format!("    ({name:?}, {i:#018x}, {s:#018x}),"))
        .collect();
    let changed: Vec<&str> = actual
        .iter()
        .enumerate()
        .filter(|&(k, (name, i, s))| PINNED.get(k) != Some(&(name.as_str(), *i, *s)))
        .map(|(_, (name, _, _))| name.as_str())
        .collect();
    assert!(
        changed.is_empty() && PINNED.len() == actual.len(),
        "the generated benchmark inputs changed: {changed:?} (pinned {} cases, generated {}).\n\
         A deliberate generator change updates PINNED in the same change and names the \
         changed cases in its description; the generator now gives:\n{}",
        PINNED.len(),
        actual.len(),
        rows.join("\n")
    );
}
