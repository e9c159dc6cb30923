//! Ablation studies backing the paper's design claims.
//!
//! * **A — sampling-domain size** (§5.1): sweeping `N` trades false
//!   positives (refinements) against per-attempt simulation cost.
//! * **B — error-domain vs random samples** (§5.1: "fewer false positives
//!   when sampled assignments are from the error domain").
//! * **C — level-driven rewiring choice** (§6, the basis of Table 3).

use std::time::Duration;

use eco_timing::{DelayModel, TimingReport};
use eco_workload::{build_case, CaseParams, EcoCase, RevisionKind};
use syseco::{verify_rectification, EcoOptions, Session};

/// Result of one ablation configuration.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Configuration label (e.g. `N=32` or `random-samples`).
    pub label: String,
    /// Domain refinements (false positives) across the run.
    pub refinements: usize,
    /// SAT validations across the run.
    pub validations: usize,
    /// Outputs that needed the whole-cone fallback.
    pub fallbacks: usize,
    /// Outputs rectified by genuine rewiring search.
    pub rewired: usize,
    /// Patch gates.
    pub patch_gates: usize,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// Post-patch worst slack (only meaningful for ablation C).
    pub slack: f64,
    /// Whether the result verified.
    pub verified: bool,
}

fn run_config(case: &EcoCase, options: &EcoOptions, label: String) -> AblationPoint {
    let session = Session::new(options.clone());
    let result = session
        .run(&case.implementation, &case.spec)
        .expect("rectification cannot fail on well-formed cases");
    let model = DelayModel::default();
    let period = TimingReport::analyze(&case.implementation, &model, 0.0)
        .expect("acyclic")
        .critical_delay();
    let slack = TimingReport::analyze(&result.patched, &model, period)
        .expect("acyclic")
        .worst_slack();
    AblationPoint {
        label,
        refinements: result.rectify.refinements,
        validations: result.rectify.validations,
        fallbacks: result.rectify.fallbacks,
        rewired: result.rectify.rewire_rectified,
        patch_gates: result.stats.gates,
        runtime: result.runtime,
        slack,
        verified: verify_rectification(&result.patched, &case.spec).unwrap_or(false),
    }
}

/// Ablation A: sweep the sampling-domain size `N`.
pub fn sampling_size_sweep(
    case: &EcoCase,
    sizes: &[usize],
    base: &EcoOptions,
) -> Vec<AblationPoint> {
    sizes
        .iter()
        .map(|&n| {
            let mut options = base.clone();
            options.num_samples = n;
            run_config(case, &options, format!("N={n}"))
        })
        .collect()
}

/// Ablation B: error-domain vs random vs mixed sampling policies.
pub fn sample_policy_comparison(case: &EcoCase, base: &EcoOptions) -> Vec<AblationPoint> {
    use syseco::SamplePolicy;
    [
        (SamplePolicy::ErrorDomain, "error-domain"),
        (SamplePolicy::Random, "random"),
        (SamplePolicy::Mixed, "mixed"),
    ]
    .into_iter()
    .map(|(policy, label)| {
        let mut options = base.clone();
        options.sample_policy = policy;
        run_config(case, &options, label.into())
    })
    .collect()
}

/// A dedicated sparse-error case for ablation B: the injected revision
/// flips a word only when a helper word equals a random constant, so the
/// error domain is a `2^-width` sliver of the input space. Uniform random
/// sampling essentially never sees it; error-domain sampling does — the
/// situation behind the paper's §5.1 claim.
pub fn sparse_error_case() -> EcoCase {
    build_case(&CaseParams {
        id: 80,
        name: "sparse",
        seed: 0x0580,
        input_words: 8,
        width: 8,
        logic_signals: 30,
        output_words: 4,
        revisions: vec![(0, RevisionKind::SparseTrigger)],
        heavy_optimization: true,
        aggressive_optimization: false,
    })
}

/// Ablation C: level-driven rewiring selection on vs off.
pub fn level_driven_comparison(case: &EcoCase, base: &EcoOptions) -> Vec<AblationPoint> {
    let mut on = base.clone();
    on.level_driven = true;
    let mut off = base.clone();
    off.level_driven = false;
    vec![
        run_config(case, &on, "level-driven".into()),
        run_config(case, &off, "depth-blind".into()),
    ]
}

/// Renders ablation points as an aligned table.
pub fn format_points(title: &str, points: &[AblationPoint]) -> String {
    let mut out = format!(
        "{title}\n| {:<14} | refine | valid | rewired | fallback | patch gates | slack,ps |   runtime | ok |\n",
        "config"
    );
    out.push_str(
        "|----------------|--------|-------|---------|----------|-------------|----------|-----------|----|\n",
    );
    for p in points {
        out.push_str(&format!(
            "| {:<14} | {:>6} | {:>5} | {:>7} | {:>8} | {:>11} | {:>8.1} | {:>9.2?} | {:>2} |\n",
            p.label,
            p.refinements,
            p.validations,
            p.rewired,
            p.fallbacks,
            p.patch_gates,
            p.slack,
            p.runtime,
            if p.verified { "y" } else { "N" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_workload::{build_case, CaseParams, RevisionKind};

    fn tiny_case() -> EcoCase {
        build_case(&CaseParams {
            id: 91,
            name: "tiny",
            seed: 13,
            input_words: 3,
            width: 3,
            logic_signals: 8,
            output_words: 2,
            revisions: vec![(0, RevisionKind::ConstantChange)],
            heavy_optimization: true,
            aggressive_optimization: false,
        })
    }

    #[test]
    fn sampling_sweep_runs_and_verifies() {
        let case = tiny_case();
        let points = sampling_size_sweep(&case, &[4, 16], &EcoOptions::with_seed(3));
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.verified, "{} must verify", p.label);
        }
        let text = format_points("ablation A", &points);
        assert!(text.contains("N=4"));
    }

    #[test]
    fn sample_policy_comparison_runs() {
        let case = tiny_case();
        let points = sample_policy_comparison(&case, &EcoOptions::with_seed(3));
        assert_eq!(points.len(), 3); // error-domain, random, mixed
        assert!(points.iter().all(|p| p.verified));
    }

    #[test]
    fn level_driven_comparison_runs() {
        let case = tiny_case();
        let points = level_driven_comparison(&case, &EcoOptions::with_seed(3));
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.verified));
    }
}
