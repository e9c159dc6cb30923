//! The merge phase and the verification pass (DESIGN.md §9).
//!
//! Every proposal was validated against the pristine base circuit. The
//! merge applies them one at a time in merge order and re-checks each one
//! applied after the circuit first changed; the verification pass then
//! re-classifies every output, because a later proposal can damage an
//! earlier one's output. Whatever does not hold takes the §3.3
//! output-rewire fallback.

use std::collections::HashMap;
use std::time::Duration;

use eco_netlist::{Circuit, NetId, Pin};
use eco_sat::cec::ProofCache;
use eco_telemetry::{ArgValue, TraceBuffer};

use super::{OutputTiming, RectifyStats, SearchVerdict, VALIDATION_BUDGET};
use crate::budget::{Budget, Degradation, DegradeAction, DegradeReason};
use crate::correspond::{Correspondence, OutputPair};
use crate::error_domain::{classify_outputs_with_stats, miter, Equivalence};
use crate::fault::SpanPoint;
use crate::patch::Patch;
use crate::progress::{emit, OutputAction, ProgressCallback, ProgressEvent};
use crate::rewire_nets::RewireCandidate;
use crate::validate::CandidateRewire;
use crate::EcoError;

/// Conflict budget of a merge recheck and of the verification pass.
const RECHECK_BUDGET: Option<u64> = Some(VALIDATION_BUDGET * 10);

/// The circuit being patched and everything committed to it so far.
pub(super) struct Merge<'a> {
    circuit: &'a mut Circuit,
    spec: &'a Circuit,
    budget: &'a Budget,
    /// Merge rechecks and the verification pass share one overlay.
    proofs: ProofCache<'a>,
    stats: RectifyStats,
    patch: Patch,
    /// Spec logic already instantiated by earlier merges, shared so
    /// overlapping revisions are cloned once (one patch, many sinks).
    shared_clones: HashMap<NetId, NetId>,
    /// Rewire groups that were applied *and kept*, in commit order. Because
    /// `Patch::apply` is the only circuit mutation in the merge phase and a
    /// rolled-back group restores the pre-apply snapshot, replaying exactly
    /// these groups through a fresh clone map reproduces the final circuit
    /// and patch byte for byte — the whole-run cache record.
    committed: Vec<Vec<CandidateRewire>>,
    /// For each merge slot, the index into `committed` of the proposal that
    /// stuck (fallback groups are never memoized per output: recording them
    /// would let a warm run skip the search that might beat them).
    proposals: Vec<Option<usize>>,
    proposals_applied: usize,
}

/// What the merge leaves behind: the patch, the run statistics, the
/// committed rewire groups in commit order, and each merge slot's index
/// into them when its proposal stuck.
pub(super) type Merged = (
    Patch,
    RectifyStats,
    Vec<Vec<CandidateRewire>>,
    Vec<Option<usize>>,
);

impl<'a> Merge<'a> {
    pub(super) fn new(
        circuit: &'a mut Circuit,
        spec: &'a Circuit,
        budget: &'a Budget,
        proofs: ProofCache<'a>,
        stats: RectifyStats,
    ) -> Self {
        let patch = Patch::new(circuit.num_nodes());
        Merge {
            circuit,
            spec,
            budget,
            proofs,
            stats,
            patch,
            shared_clones: HashMap::new(),
            committed: Vec::new(),
            proposals: Vec::new(),
            proposals_applied: 0,
        }
    }

    /// The merge phase: commits each output's verdict in merge order, one
    /// `commit` span and one progress event per output.
    pub(super) fn run(
        &mut self,
        order: &[OutputPair],
        verdicts: Vec<(SearchVerdict, Duration)>,
        tb: &mut TraceBuffer,
        observer: Option<&ProgressCallback>,
    ) -> Result<(), EcoError> {
        let span_merge = tb.start();
        self.budget.fault_span(SpanPoint::Merge)?;
        self.proposals.resize(order.len(), None);
        for (position, (pair, (verdict, search))) in order.iter().zip(verdicts).enumerate() {
            let span_commit = tb.start();
            self.budget.fault_span(SpanPoint::Commit)?;
            let (action, degraded) = self.commit(position, pair, verdict)?;
            self.stats.per_output.push(OutputTiming {
                output: pair.name.clone(),
                search,
                action,
            });
            tb.end_with(span_commit, "commit", "rectify", || {
                let mut args = vec![
                    ("output", ArgValue::Str(pair.name.clone())),
                    ("action", ArgValue::Str(action.to_string())),
                    ("degraded", ArgValue::U64(u64::from(degraded))),
                ];
                if degraded {
                    // The reason feeds the run report's narrative.
                    let recorded = &self.stats.degradations;
                    if let Some(d) = recorded.iter().find(|d| d.output == pair.name) {
                        args.push(("reason", ArgValue::Str(d.reason.to_string())));
                    }
                }
                args
            });
            emit(
                observer,
                ProgressEvent::OutputRectified {
                    output: pair.name.clone(),
                    position,
                    action,
                    degraded,
                },
            );
        }
        tb.end_with(span_merge, "merge", "rectify", || {
            vec![
                (
                    "proposals_applied",
                    ArgValue::U64(self.proposals_applied as u64),
                ),
                ("fallbacks", ArgValue::U64(self.stats.fallbacks as u64)),
            ]
        });
        Ok(())
    }

    /// Commits the verdict of merge slot `position`; returns the action
    /// taken and whether the output degraded.
    fn commit(
        &mut self,
        position: usize,
        pair: &OutputPair,
        verdict: SearchVerdict,
    ) -> Result<(OutputAction, bool), EcoError> {
        match verdict {
            SearchVerdict::Equivalent => Ok((OutputAction::AlreadyEquivalent, false)),
            #[cfg(any(test, feature = "fault-injection"))]
            SearchVerdict::Aborted => unreachable!("aborted runs never reach the merge phase"),
            SearchVerdict::Fallback { reason } => {
                let reason = reason.or_else(|| self.budget.degrade_reason());
                // An earlier merged proposal may have fixed this output as a
                // side effect; only worth a query when the circuit actually
                // changed and the budget still allows it.
                if reason.is_none() && self.proposals_applied > 0 && self.recheck(pair)? {
                    return Ok((OutputAction::AlreadyEquivalent, false));
                }
                let degraded = reason.is_some();
                self.fallback(pair, reason)?;
                Ok((OutputAction::Fallback, degraded))
            }
            SearchVerdict::Proposal { rewires, cut } => {
                if let Some(reason) = self.budget.degrade_reason() {
                    // The proposal was validated against the pristine base
                    // circuit; re-validating against the merged state is no
                    // longer affordable, so take the guaranteed fallback
                    // instead of trusting it blindly.
                    self.fallback(pair, Some(reason))?;
                    return Ok((OutputAction::Fallback, true));
                }
                if self.proposals_applied > 0 && self.recheck(pair)? {
                    return Ok((OutputAction::AlreadyEquivalent, false));
                }
                // Snapshot so a conflicting proposal cannot leave a
                // half-applied rewire behind.
                let snapshot = (
                    self.circuit.clone(),
                    self.patch.clone(),
                    self.shared_clones.clone(),
                );
                let applied =
                    self.patch
                        .apply(self.circuit, self.spec, &rewires, &mut self.shared_clones);
                let conflict = match applied {
                    Ok(()) => {
                        // Proposals after the first were validated against a
                        // circuit that has since changed: re-confirm before
                        // keeping them.
                        let broken = self.proposals_applied > 0 && !self.recheck(pair)?;
                        broken.then(|| {
                            self.budget
                                .degrade_reason()
                                .unwrap_or(DegradeReason::MergeConflict)
                        })
                    }
                    Err(_) => Some(DegradeReason::MergeConflict),
                };
                if let Some(reason) = conflict {
                    (*self.circuit, self.patch, self.shared_clones) = snapshot;
                    self.fallback(pair, Some(reason))?;
                    return Ok((OutputAction::Fallback, true));
                }
                self.stats.rewire_rectified += 1;
                self.proposals_applied += 1;
                self.proposals[position] = Some(self.committed.len());
                self.committed.push(rewires);
                let degraded = cut.is_some();
                if let Some(reason) = cut {
                    self.stats.degradations.push(Degradation {
                        output: pair.name.clone(),
                        reason,
                        action: DegradeAction::CommittedBest,
                    });
                }
                Ok((OutputAction::Rewired, degraded))
            }
        }
    }

    /// The verification pass. With two or more merged proposals, a later one
    /// can damage an earlier one's output (each was re-checked only for its
    /// own pair): re-classify everything and repair damage with the
    /// fallback. A run that resumed any slot (`resumed > 0`) and merged a
    /// proposal also verifies: resumed slots skipped their searches, so the
    /// end-to-end re-classification is what discharges the "always
    /// re-verified" resume guarantee.
    pub(super) fn verify(
        &mut self,
        corr: &Correspondence,
        resumed: usize,
        tb: &mut TraceBuffer,
    ) -> Result<(), EcoError> {
        let needed = self.proposals_applied >= 2 || (resumed > 0 && self.proposals_applied >= 1);
        if !needed {
            return Ok(());
        }
        let span_verify = tb.start();
        self.budget.fault_span(SpanPoint::Verify)?;
        let (verdicts, verify_sat) = classify_outputs_with_stats(
            self.circuit,
            self.spec,
            corr,
            RECHECK_BUDGET,
            Some(self.budget),
            &mut self.proofs,
        )?;
        self.stats.sat += verify_sat;
        let mut repaired = 0u64;
        for (pair, verdict) in corr.outputs.iter().zip(verdicts) {
            if matches!(verdict, Equivalence::Equivalent) {
                continue;
            }
            repaired += 1;
            let reason = self
                .budget
                .degrade_reason()
                .unwrap_or(DegradeReason::MergeConflict);
            self.fallback(pair, Some(reason))?;
            match self
                .stats
                .per_output
                .iter_mut()
                .find(|t| t.output == pair.name)
            {
                Some(t) => t.action = OutputAction::Fallback,
                None => self.stats.per_output.push(OutputTiming {
                    output: pair.name.clone(),
                    search: Duration::ZERO,
                    action: OutputAction::Fallback,
                }),
            }
        }
        tb.end_with(span_verify, "verify", "rectify", || {
            vec![("repaired", ArgValue::U64(repaired))]
        });
        Ok(())
    }

    /// Folds the merge's proof-cache counters into the statistics and hands
    /// back what the merge built.
    pub(super) fn finish(mut self) -> Merged {
        self.stats.cec_proofs += self.proofs.proofs();
        self.stats.cec_reused += self.proofs.reused();
        (self.patch, self.stats, self.committed, self.proposals)
    }

    /// Re-checks `pair` against the merged circuit: whether it is equivalent.
    fn recheck(&mut self, pair: &OutputPair) -> Result<bool, EcoError> {
        let nets = pair.nets(self.circuit, self.spec);
        let mut miter = miter(
            self.circuit,
            self.spec,
            &[nets],
            Some(self.budget),
            &mut self.proofs,
        )?;
        miter.require_difference();
        miter.set_conflict_budget(RECHECK_BUDGET);
        let verdict = miter.next_difference(self.circuit);
        self.stats.sat += miter.stats();
        Ok(verdict == Equivalence::Equivalent)
    }

    /// Applies the §3.3 output-rewire fallback for `pair` — the output pin
    /// rewired to a clone of the corresponding specification cone, always
    /// applicable on a well-formed design — and, when `reason` is set,
    /// records the degradation. An output has at most one: the record
    /// replaces any earlier entry for it.
    fn fallback(
        &mut self,
        pair: &OutputPair,
        reason: Option<DegradeReason>,
    ) -> Result<(), EcoError> {
        let spec_root = self.spec.outputs()[pair.spec_index as usize].net();
        let fallback = vec![CandidateRewire {
            pin: Pin::output(pair.impl_index),
            candidate: RewireCandidate {
                net: spec_root,
                from_spec: true,
                utility: 1.0,
                arrival: 0.0,
            },
        }];
        self.patch
            .apply(self.circuit, self.spec, &fallback, &mut self.shared_clones)
            .map_err(|_| EcoError::RectificationFailed {
                output: pair.name.clone(),
            })?;
        self.stats.fallbacks += 1;
        self.committed.push(fallback);
        if let Some(reason) = reason {
            let entry = Degradation {
                output: pair.name.clone(),
                reason,
                action: DegradeAction::OutputRewireFallback,
            };
            let recorded = &mut self.stats.degradations;
            match recorded.iter_mut().find(|d| d.output == pair.name) {
                Some(d) => *d = entry,
                None => recorded.push(entry),
            }
        }
        Ok(())
    }
}
