//! What a run returns, the port normalization a [`Session`](crate::Session)
//! applies before it searches, and the final equivalence check.

use std::time::Duration;

use eco_netlist::Circuit;
use eco_telemetry::SpanRecord;

use crate::correspond::Correspondence;
use crate::error_domain::{classify_outputs, Equivalence};
use crate::patch::{Patch, PatchStats};
use crate::rectify::RectifyStats;
use crate::EcoError;

/// Result of a rectification run.
#[derive(Debug)]
pub struct EcoResult {
    /// The rectified implementation.
    pub patched: Circuit,
    /// The applied patch (rewires and cloned logic).
    pub patch: Patch,
    /// Table-2 style patch attributes.
    pub stats: PatchStats,
    /// Search statistics.
    pub rectify: RectifyStats,
    /// Wall-clock time of the run.
    pub runtime: Duration,
    /// Structured trace spans of the run, in deterministic merge-slot
    /// order. Empty unless the run was given an enabled
    /// [`Telemetry`](crate::Telemetry) (see
    /// [`Session::with_telemetry`](crate::Session::with_telemetry)).
    pub trace: Vec<SpanRecord>,
}

/// Gives every unnamed (empty-labelled) specification input a stable
/// generated name `__pi<position>`, so it cannot silently alias another port
/// during normalization. Returns the renamed clone, or `None` when every
/// input already has a proper name.
///
/// # Errors
///
/// [`EcoError::PortMismatch`] when two specification inputs share a
/// (non-empty) name.
pub(crate) fn name_spec_inputs(spec: &Circuit) -> Result<Option<Circuit>, EcoError> {
    let mut taken: std::collections::HashSet<String> = std::collections::HashSet::new();
    // Existing names are claimed first so generated ones cannot collide.
    for &id in spec.inputs() {
        let name = spec.node(id).name().unwrap_or("");
        if name.is_empty() {
            continue;
        }
        if !taken.insert(name.to_string()) {
            return Err(EcoError::PortMismatch(format!(
                "specification has duplicate input name {name:?}"
            )));
        }
    }
    let mut renames: Vec<(usize, String)> = Vec::new();
    for (pos, &id) in spec.inputs().iter().enumerate() {
        if !spec.node(id).name().unwrap_or("").is_empty() {
            continue;
        }
        let mut label = format!("__pi{pos}");
        while !taken.insert(label.clone()) {
            label.push('_');
        }
        renames.push((pos, label));
    }
    if renames.is_empty() {
        return Ok(None);
    }
    let mut named = spec.clone();
    for (pos, label) in renames {
        named.set_input_name(pos, label)?;
    }
    Ok(Some(named))
}

/// Adds spec-only inputs and outputs to the implementation so the port
/// correspondence becomes total. Call [`name_spec_inputs`] first: unnamed
/// spec inputs would otherwise all map to the empty-string label.
///
/// # Errors
///
/// [`EcoError::PortMismatch`] when the specification declares a duplicate
/// input or output name.
pub(crate) fn normalize_ports(
    implementation: &mut Circuit,
    spec: &Circuit,
) -> Result<(), EcoError> {
    let mut seen_in = std::collections::HashSet::new();
    for &id in spec.inputs() {
        let label = spec.node(id).name().unwrap_or("").to_string();
        if !seen_in.insert(label.clone()) {
            return Err(EcoError::PortMismatch(format!(
                "specification has duplicate input name {label:?}"
            )));
        }
        if implementation.input_by_name(&label).is_none() {
            implementation.add_input(label);
        }
    }
    let mut seen_out = std::collections::HashSet::new();
    for port in spec.outputs() {
        if !seen_out.insert(port.name().to_string()) {
            return Err(EcoError::PortMismatch(format!(
                "specification has duplicate output name {:?}",
                port.name()
            )));
        }
        if implementation.output_by_name(port.name()).is_none() {
            let k = implementation.constant(false);
            implementation.add_output(port.name(), k);
        }
    }
    Ok(())
}

/// Verifies full behavioural equivalence of a patched implementation
/// against the specification (unbudgeted SAT per output pair).
///
/// # Errors
///
/// [`EcoError`] on port mismatches or malformed circuits.
pub fn verify_rectification(patched: &Circuit, spec: &Circuit) -> Result<bool, EcoError> {
    let corr = Correspondence::build(patched, spec)?;
    let verdicts = classify_outputs(patched, spec, &corr, None, None)?;
    Ok(verdicts
        .iter()
        .all(|v| matches!(v, Equivalence::Equivalent)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EcoOptions, Session};
    use eco_netlist::GateKind;

    #[test]
    fn normalize_adds_missing_ports() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b_new");
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        s.add_output("y", g);
        s.add_output("extra", sb);
        normalize_ports(&mut c, &s).unwrap();
        assert!(c.input_by_name("b_new").is_some());
        assert!(c.output_by_name("extra").is_some());
        assert!(Correspondence::build(&c, &s).is_ok());
    }

    #[test]
    fn unnamed_spec_inputs_get_stable_generated_names() {
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input(""); // unnamed
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        s.add_output("y", g);
        let named = name_spec_inputs(&s).unwrap().expect("rename required");
        assert_eq!(named.node(named.inputs()[1]).name(), Some("__pi1"));
        // Deterministic: running it again on the renamed spec is a no-op.
        assert!(name_spec_inputs(&named).unwrap().is_none());
        // The generated name flows into normalization without collisions.
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        normalize_ports(&mut c, &named).unwrap();
        assert!(c.input_by_name("__pi1").is_some());
        assert!(c.check_well_formed().is_ok());
    }

    #[test]
    fn generated_input_names_avoid_existing_labels() {
        let mut s = Circuit::new("spec");
        s.add_input("__pi1"); // occupies the name position 1 would get
        let sb = s.add_input("");
        s.add_output("y", sb);
        let named = name_spec_inputs(&s).unwrap().expect("rename required");
        assert_eq!(named.node(named.inputs()[1]).name(), Some("__pi1_"));
        assert!(named.check_well_formed().is_ok());
    }

    #[test]
    fn duplicate_spec_output_names_are_rejected() {
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        s.add_output("y", sa);
        s.add_output("y", sa);
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        assert!(matches!(
            normalize_ports(&mut c, &s),
            Err(EcoError::PortMismatch(_))
        ));
    }

    #[test]
    fn engine_rectifies_with_new_ports() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b_new");
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        s.add_output("y", g);
        let result = Session::new(EcoOptions::with_seed(2)).run(&c, &s).unwrap();
        assert!(verify_rectification(&result.patched, &s).unwrap());
    }

    #[test]
    fn verify_detects_wrong_circuit() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sg = s.add_gate(GateKind::Or, &[sa, sb]).unwrap();
        s.add_output("y", sg);
        assert!(!verify_rectification(&c, &s).unwrap());
        assert!(verify_rectification(&c, &c.clone()).unwrap());
    }
}
