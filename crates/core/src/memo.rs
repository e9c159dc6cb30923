//! Persistent incremental-ECO cache session (DESIGN.md §11).
//!
//! Bridges the content-addressed [`eco_cache::Store`] and the rectification
//! engine. Two record kinds are memoized:
//!
//! * **Run records** ([`KIND_RUN`]) — keyed by the full
//!   `(implementation, specification, options)` triple. They hold the
//!   committed rewire groups of a finished run, enough to *replay* the
//!   merge phase and re-derive the identical patch without searching.
//! * **Output records** ([`KIND_OUTPUT`]) — keyed by
//!   `(implementation, options, spec output cone, output label)`. They hold
//!   the validated proposal and the refinement counterexamples of one
//!   per-output search, so a later run against a *different* specification
//!   revision that leaves this output's spec cone untouched can warm-start
//!   §5.1 sampling and try the old proposal first.
//!
//! Cache payloads are advisory: every reused proposal is re-validated by
//! SAT (`rectify/search.rs`) and every replayed run is re-verified by
//! [`classify_outputs`] (`session.rs`) before the engine trusts it. A
//! stale or corrupt record therefore costs time, never correctness.
//!
//! [`classify_outputs`]: crate::error_domain::classify_outputs

use eco_cache::{circuit_sig, fingerprint_words, hash_str, node_hashes, ConeWalk, Sig128, Store};
use eco_netlist::{Circuit, NetId, NetlistError, Pin};

use crate::budget::Budget;
use crate::correspond::OutputPair;
use crate::options::{EcoOptions, SamplePolicy};
use crate::rectify::{
    RectifyStats, GOOD_ENOUGH_COST, MAX_CANDIDATE_PINS, MAX_CHOICES, MAX_POINTS, MAX_POINT_SETS,
    MAX_REFINEMENTS, MAX_REWIRE_CANDIDATES, MAX_VALIDATIONS_PER_OUTPUT, VALIDATION_BUDGET,
};
use crate::rewire_nets::RewireCandidate;
use crate::validate::CandidateRewire;

/// Record kind of whole-run replay records.
pub(crate) const KIND_RUN: u8 = 1;
/// Record kind of per-output warm-start records.
pub(crate) const KIND_OUTPUT: u8 = 2;
/// Leading payload byte; bump on any encoding change so old records decode
/// as misses instead of garbage.
const PAYLOAD_VERSION: u8 = 1;
/// Folded into every options fingerprint; bump when the *semantics* behind
/// an option change without the encoding changing. Version 2: point-sets
/// are the minimal feasible sets, at most `MAX_POINT_SETS` per attempt.
const FINGERPRINT_VERSION: u64 = 2;

/// Soft bounds on decoded collection sizes — a corrupt length prefix must
/// not trigger a huge allocation before the bounds checks catch it.
const MAX_DECODE_ITEMS: u32 = 1 << 20;

/// Fingerprint of every option that influences search results, plus the
/// fixed search caps, so a later change to a cap re-keys every record.
/// `jobs`, `timeout`, and the cache options themselves are excluded: they
/// change wall-clock behaviour, not the (deterministic) outcome.
pub(crate) fn options_fingerprint(options: &EcoOptions) -> Sig128 {
    let policy = match options.sample_policy {
        SamplePolicy::ErrorDomain => 0u64,
        SamplePolicy::Random => 1,
        SamplePolicy::Mixed => 2,
        // `SamplePolicy` is non_exhaustive; unknown future variants must
        // not silently collide with an existing code.
        #[allow(unreachable_patterns)]
        _ => u64::MAX,
    };
    fingerprint_words(&[
        FINGERPRINT_VERSION,
        options.num_samples as u64,
        policy,
        MAX_POINTS as u64,
        MAX_CANDIDATE_PINS as u64,
        MAX_POINT_SETS as u64,
        MAX_REWIRE_CANDIDATES as u64,
        MAX_CHOICES as u64,
        VALIDATION_BUDGET,
        MAX_REFINEMENTS as u64,
        MAX_VALIDATIONS_PER_OUTPUT as u64,
        GOOD_ENOUGH_COST as u64,
        u64::from(options.level_driven),
        options.seed,
        // The retired per-attempt BDD node limit keeps its slot, so records
        // written while the search built BDDs still hit.
        2_000_000,
    ])
}

/// Decoded whole-run replay record.
pub(crate) struct RunRecord {
    /// Committed rewire groups in commit order (proposals that survived the
    /// merge rechecks plus fallbacks), ready for `apply_rewires`.
    pub groups: Vec<Vec<CandidateRewire>>,
    /// Summary counters of the original run, reported on a replay hit.
    pub outputs_total: usize,
    pub outputs_failing: usize,
    pub rewire_rectified: usize,
    pub fallbacks: usize,
}

/// Warm-start data decoded from one per-output record.
pub(crate) struct WarmStart {
    /// The previously validated proposal, if the record holds one.
    /// `from_spec` nets are already resolved against *this* run's spec.
    pub proposal: Option<Vec<CandidateRewire>>,
    /// Refinement counterexamples recorded by the previous search, used to
    /// seed the §5.1 sampling domain past its cold false-positive phase.
    pub minterms: Vec<Vec<bool>>,
}

/// One per-output cache slot: the key it lives under plus whatever warm
/// data was found there. Computed by the coordinator *before* fan-out so
/// lookups cannot perturb jobs-determinism.
pub(crate) struct OutputEntry {
    key: Sig128,
    pub warm: Option<WarmStart>,
}

/// A cache handle scoped to one `rectify` call.
///
/// Owns the open [`Store`], the run/base keys derived from the normalized
/// inputs, and the coordinator-side miss counter. Dropped without
/// [`commit`](Self::commit) the session writes nothing.
pub(crate) struct CacheSession {
    store: Store,
    run_key: Sig128,
    base_key: Sig128,
    /// Lookups (run probe or output probe) that found nothing usable.
    pub misses: u64,
}

impl CacheSession {
    /// Opens a session, or `None` when caching is off, the directory cannot
    /// be opened, or the inputs cannot be signed (cyclic circuits error
    /// later, on their own terms). A `None` here silently degrades to an
    /// uncached run.
    ///
    /// The `budget` supplies the I/O seam (DESIGN.md §13): its fault plan's
    /// cache VFS and retry schedule under test, real I/O with default
    /// retries otherwise.
    pub fn open(
        options: &EcoOptions,
        implementation: &Circuit,
        spec: &Circuit,
        budget: &Budget,
    ) -> Option<Self> {
        let dir = options.cache_dir.as_deref()?;
        if !options.cache_mode.is_enabled() {
            return None;
        }
        let vfs: std::sync::Arc<dyn eco_cache::Vfs> = budget
            .cache_vfs()
            .unwrap_or_else(|| std::sync::Arc::new(eco_cache::RealVfs));
        let store = Store::open_with(
            dir,
            options.cache_mode.is_read_only(),
            vfs,
            budget.io_retry(),
        )
        .ok()?;
        let impl_sig = circuit_sig(implementation).ok()?;
        let spec_sig = circuit_sig(spec).ok()?;
        let options_fp = options_fingerprint(options);
        Some(CacheSession {
            store,
            run_key: Sig128::fold(&[impl_sig, spec_sig, options_fp]),
            base_key: Sig128::fold(&[impl_sig, options_fp]),
            misses: 0,
        })
    }

    /// Damaged segments skipped when the store was opened.
    pub fn corrupt_segments(&self) -> u64 {
        self.store.corrupt_segments()
    }

    /// Cache I/O operations that failed even after bounded retries.
    pub fn io_errors(&self) -> u64 {
        self.store.io_errors()
    }

    /// Transient cache I/O failures absorbed by retry-with-backoff.
    pub fn retries(&self) -> u64 {
        self.store.retries()
    }

    /// Looks up and decodes the whole-run replay record, counting a miss
    /// when nothing usable is stored.
    pub fn run_record(&mut self) -> Option<RunRecord> {
        let record = self
            .store
            .get(self.run_key, KIND_RUN)
            .and_then(decode_run_record);
        if record.is_none() {
            self.misses += 1;
        }
        record
    }

    /// Records the committed rewire groups and summary counters of a
    /// finished cold run under the full run key.
    pub fn record_run(&mut self, groups: &[Vec<CandidateRewire>], stats: &RectifyStats) {
        let payload = encode_run_record(groups, stats);
        if self.store.get(self.run_key, KIND_RUN) == Some(payload.as_slice()) {
            return;
        }
        self.store.put(self.run_key, KIND_RUN, payload);
    }

    /// Computes the per-output cache slots for `order` (the fixed merge
    /// order), decoding any stored warm-start data against this run's
    /// `spec`. Every lookup that finds nothing counts as a miss.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cyclic`] on a cyclic specification.
    pub fn output_entries(
        &mut self,
        spec: &Circuit,
        order: &[OutputPair],
    ) -> Result<Vec<OutputEntry>, NetlistError> {
        let hashes = node_hashes(spec)?;
        let mut entries = Vec::with_capacity(order.len());
        for pair in order {
            let root = spec.outputs()[pair.spec_index as usize].net();
            let walk = ConeWalk::with_hashes(spec, &hashes, root)?;
            let key = Sig128::fold(&[self.base_key, walk.sig]).mix(hash_str(&pair.name));
            let warm = self
                .store
                .get(key, KIND_OUTPUT)
                .and_then(|payload| decode_output_record(payload, &walk));
            if warm.is_none() {
                self.misses += 1;
            }
            entries.push(OutputEntry { key, warm });
        }
        Ok(entries)
    }

    /// Records one output's search outcome under its entry key. Entries
    /// with nothing to offer a future run (no proposal, no refinements)
    /// are skipped, as are byte-identical re-records.
    pub fn record_output(
        &mut self,
        entry: &OutputEntry,
        spec: &Circuit,
        spec_root: NetId,
        proposal: Option<&[CandidateRewire]>,
        minterms: &[Vec<bool>],
    ) {
        if proposal.is_none() && minterms.is_empty() {
            return;
        }
        let Ok(walk) = ConeWalk::build(spec, spec_root) else {
            return;
        };
        let Some(payload) = encode_output_record(proposal, minterms, &walk) else {
            return;
        };
        if self.store.get(entry.key, KIND_OUTPUT) == Some(payload.as_slice()) {
            return;
        }
        self.store.put(entry.key, KIND_OUTPUT, payload);
    }

    /// Flushes staged records to disk. Errors are reported but non-fatal —
    /// the rectification result is already computed by the time this runs.
    pub fn commit(&mut self) -> std::io::Result<()> {
        self.store.commit()
    }
}

// --- encoding helpers (little-endian throughout) ---

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor-style reader over a payload; every accessor returns `None` past
/// the end, so truncated records decode as misses.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// A length prefix, rejected when implausibly large.
    pub(crate) fn len(&mut self) -> Option<u32> {
        self.u32().filter(|&n| n <= MAX_DECODE_ITEMS)
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encodes one rewire. In run records (`walk: None`) every net is a raw
/// index into its own circuit; in output records spec-side nets are encoded
/// as positions in the spec cone's [`ConeWalk`], which makes the record
/// valid across net-id renumberings of structurally identical cones.
/// Returns `None` when a spec net falls outside the walk (cannot happen for
/// candidates produced by the search, but guards future callers).
pub(crate) fn encode_rewire(
    buf: &mut Vec<u8>,
    r: &CandidateRewire,
    walk: Option<&ConeWalk>,
) -> Option<()> {
    match r.pin {
        Pin::Gate { node, pos } => {
            buf.push(0);
            put_u32(buf, node.index() as u32);
            buf.push(pos);
        }
        Pin::Output { index } => {
            buf.push(1);
            put_u32(buf, index);
            buf.push(0);
        }
    }
    let net = match walk {
        Some(walk) if r.candidate.from_spec => walk.position(r.candidate.net)?,
        _ => r.candidate.net.index() as u32,
    };
    put_u32(buf, net);
    buf.push(u8::from(r.candidate.from_spec));
    Some(())
}

pub(crate) fn decode_rewire(
    r: &mut Reader<'_>,
    walk: Option<&ConeWalk>,
) -> Option<CandidateRewire> {
    let pin = match r.u8()? {
        0 => {
            let node = r.u32()?;
            let pos = r.u8()?;
            Pin::gate(eco_netlist::NodeId::from_index(node as usize), pos)
        }
        1 => {
            let index = r.u32()?;
            r.u8()?;
            Pin::output(index)
        }
        _ => return None,
    };
    let raw = r.u32()?;
    let from_spec = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let net = match walk {
        Some(walk) if from_spec => *walk.order.get(raw as usize)?,
        _ => NetId::from_index(raw as usize),
    };
    Some(CandidateRewire {
        pin,
        // Utility and arrival only rank candidates during the search; a
        // memoized proposal is past ranking, so placeholders suffice.
        candidate: RewireCandidate {
            net,
            from_spec,
            utility: 1.0,
            arrival: 0.0,
        },
    })
}

fn encode_run_record(groups: &[Vec<CandidateRewire>], stats: &RectifyStats) -> Vec<u8> {
    let mut buf = vec![PAYLOAD_VERSION];
    put_u32(&mut buf, stats.outputs_total as u32);
    put_u32(&mut buf, stats.outputs_failing as u32);
    put_u32(&mut buf, stats.rewire_rectified as u32);
    put_u32(&mut buf, stats.fallbacks as u32);
    put_u32(&mut buf, groups.len() as u32);
    for group in groups {
        put_u32(&mut buf, group.len() as u32);
        for rewire in group {
            // Raw-index encoding is infallible.
            let _ = encode_rewire(&mut buf, rewire, None);
        }
    }
    buf
}

fn decode_run_record(payload: &[u8]) -> Option<RunRecord> {
    let mut r = Reader::new(payload);
    if r.u8()? != PAYLOAD_VERSION {
        return None;
    }
    let outputs_total = r.u32()? as usize;
    let outputs_failing = r.u32()? as usize;
    let rewire_rectified = r.u32()? as usize;
    let fallbacks = r.u32()? as usize;
    let num_groups = r.len()?;
    let mut groups = Vec::with_capacity(num_groups as usize);
    for _ in 0..num_groups {
        let len = r.len()?;
        let mut group = Vec::with_capacity(len as usize);
        for _ in 0..len {
            group.push(decode_rewire(&mut r, None)?);
        }
        groups.push(group);
    }
    r.done().then_some(RunRecord {
        groups,
        outputs_total,
        outputs_failing,
        rewire_rectified,
        fallbacks,
    })
}

fn encode_output_record(
    proposal: Option<&[CandidateRewire]>,
    minterms: &[Vec<bool>],
    walk: &ConeWalk,
) -> Option<Vec<u8>> {
    let mut buf = vec![PAYLOAD_VERSION];
    match proposal {
        Some(group) => {
            buf.push(1);
            put_u32(&mut buf, group.len() as u32);
            for rewire in group {
                encode_rewire(&mut buf, rewire, Some(walk))?;
            }
        }
        None => buf.push(0),
    }
    put_u32(&mut buf, minterms.len() as u32);
    for m in minterms {
        put_u32(&mut buf, m.len() as u32);
        buf.extend(m.iter().map(|&b| u8::from(b)));
    }
    Some(buf)
}

fn decode_output_record(payload: &[u8], walk: &ConeWalk) -> Option<WarmStart> {
    let mut r = Reader::new(payload);
    if r.u8()? != PAYLOAD_VERSION {
        return None;
    }
    let proposal = match r.u8()? {
        0 => None,
        1 => {
            let len = r.len()?;
            let mut group = Vec::with_capacity(len as usize);
            for _ in 0..len {
                group.push(decode_rewire(&mut r, Some(walk))?);
            }
            Some(group)
        }
        _ => return None,
    };
    let num_minterms = r.len()?;
    let mut minterms = Vec::with_capacity(num_minterms as usize);
    for _ in 0..num_minterms {
        let len = r.len()?;
        let mut m = Vec::with_capacity(len as usize);
        for _ in 0..len {
            m.push(match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            });
        }
        minterms.push(m);
    }
    r.done().then_some(WarmStart { proposal, minterms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::{Circuit, GateKind};

    fn tiny() -> Circuit {
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        c
    }

    fn sample_group(spec_net: NetId) -> Vec<CandidateRewire> {
        vec![
            CandidateRewire {
                pin: Pin::output(0),
                candidate: RewireCandidate {
                    net: spec_net,
                    from_spec: true,
                    utility: 1.0,
                    arrival: 0.0,
                },
            },
            CandidateRewire {
                pin: Pin::gate(eco_netlist::NodeId::from_index(2), 1),
                candidate: RewireCandidate {
                    net: NetId::from_index(0),
                    from_spec: false,
                    utility: 1.0,
                    arrival: 0.0,
                },
            },
        ]
    }

    #[test]
    fn run_record_roundtrip() {
        let spec = tiny();
        let root = spec.outputs()[0].net();
        let groups = vec![sample_group(root), vec![]];
        let stats = RectifyStats {
            outputs_total: 3,
            outputs_failing: 2,
            rewire_rectified: 1,
            fallbacks: 1,
            ..RectifyStats::default()
        };
        let payload = encode_run_record(&groups, &stats);
        let decoded = decode_run_record(&payload).unwrap();
        assert_eq!(decoded.outputs_total, 3);
        assert_eq!(decoded.outputs_failing, 2);
        assert_eq!(decoded.rewire_rectified, 1);
        assert_eq!(decoded.fallbacks, 1);
        assert_eq!(decoded.groups.len(), 2);
        assert_eq!(decoded.groups[0].len(), 2);
        assert_eq!(decoded.groups[0][0].pin, Pin::output(0));
        assert_eq!(decoded.groups[0][0].candidate.net, root);
        assert!(decoded.groups[0][0].candidate.from_spec);
        assert!(!decoded.groups[0][1].candidate.from_spec);
    }

    #[test]
    fn output_record_roundtrip_resolves_walk_positions() {
        let spec = tiny();
        let root = spec.outputs()[0].net();
        let walk = ConeWalk::build(&spec, root).unwrap();
        let group = sample_group(root);
        let minterms = vec![vec![true, false], vec![false, false]];
        let payload = encode_output_record(Some(&group), &minterms, &walk).unwrap();
        let decoded = decode_output_record(&payload, &walk).unwrap();
        let proposal = decoded.proposal.unwrap();
        assert_eq!(proposal.len(), 2);
        assert_eq!(proposal[0].candidate.net, root);
        assert!(proposal[0].candidate.from_spec);
        assert_eq!(decoded.minterms, minterms);
    }

    #[test]
    fn truncated_and_versioned_payloads_decode_as_misses() {
        let spec = tiny();
        let root = spec.outputs()[0].net();
        let walk = ConeWalk::build(&spec, root).unwrap();
        let payload = encode_output_record(Some(&sample_group(root)), &[], &walk).unwrap();
        for cut in 0..payload.len() {
            assert!(decode_output_record(&payload[..cut], &walk).is_none());
        }
        let mut wrong_version = payload.clone();
        wrong_version[0] = PAYLOAD_VERSION + 1;
        assert!(decode_output_record(&wrong_version, &walk).is_none());
        let mut trailing = payload;
        trailing.push(0);
        assert!(decode_output_record(&trailing, &walk).is_none());
    }

    #[test]
    fn fingerprint_tracks_semantic_fields_only() {
        let base = EcoOptions::default();
        let mut sem = EcoOptions::default();
        sem.seed ^= 1;
        assert_ne!(options_fingerprint(&base), options_fingerprint(&sem));

        let mech = EcoOptions {
            jobs: 7,
            timeout: Some(std::time::Duration::from_secs(1)),
            cache_dir: Some("/nonexistent".into()),
            checkpoint_dir: Some("/nonexistent-ckpt".into()),
            ..EcoOptions::default()
        };
        assert_eq!(options_fingerprint(&base), options_fingerprint(&mech));
    }

    /// The default key is pinned word for word: the fixed caps keep the
    /// slots and values they had as options, so cache and checkpoint
    /// directories written before they became constants still hit.
    #[test]
    fn default_fingerprint_is_stable() {
        let words = [
            2,         // fingerprint version
            64,        // num_samples
            0,         // sample_policy: ErrorDomain
            3,         // m
            48,        // M
            8,         // point-sets per attempt
            8,         // rewire candidates
            6,         // choices
            100_000,   // validation budget
            6,         // refinements
            24,        // validations per output
            4,         // good-enough cost
            0,         // level_driven
            0xEC0,     // seed
            2_000_000, // BDD node limit
        ];
        assert_eq!(
            options_fingerprint(&EcoOptions::default()),
            fingerprint_words(&words)
        );
    }

    #[test]
    fn session_none_when_cache_disabled() {
        let c = tiny();
        let off = EcoOptions::default();
        let budget = Budget::unlimited();
        assert!(CacheSession::open(&off, &c, &c, &budget).is_none());
        let disabled = EcoOptions {
            cache_dir: Some(std::env::temp_dir().join("eco-cache-memo-off")),
            cache_mode: eco_cache::CacheMode::Off,
            ..EcoOptions::default()
        };
        assert!(CacheSession::open(&disabled, &c, &c, &budget).is_none());
    }
}
