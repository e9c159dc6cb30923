//! Tuning knobs of the rectification engine.

use eco_cache::CacheMode;

/// Where sampling-domain assignments come from (paper §5.1; ablation B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SamplePolicy {
    /// All samples drawn from the error domain `𝔼` (the paper's choice).
    ErrorDomain,
    /// Uniformly random assignments (plus the seed counterexample).
    Random,
    /// Half error-domain, half random: error samples drive correction,
    /// random samples add preservation constraints that cut false
    /// positives (this reproduction's extension; see EXPERIMENTS.md).
    Mixed,
}

/// Options controlling the rewire-based rectification flow.
///
/// Construct with [`EcoOptions::builder`] (the struct is `#[non_exhaustive]`,
/// so literal construction is reserved to this crate):
///
/// ```
/// use syseco::EcoOptions;
///
/// let options = EcoOptions::builder()
///     .num_samples(64)
///     .jobs(4)
///     .seed(7)
///     .build();
/// assert_eq!(options.num_samples, 64);
/// ```
///
/// The defaults correspond to the configuration used by the benchmark
/// harness; individual studies (the ablation benches) override single
/// fields. The search caps (`m`, `M`, SAT and BDD budgets, …) are not
/// options but fixed constants, such as [`MAX_POINTS`](crate::rectify::MAX_POINTS).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EcoOptions {
    /// Target number of sampled assignments in the symbolic sampling domain
    /// (paper §5.1). Rounded up to a power of two internally; `⌈log2 N⌉`
    /// BDD variables encode the domain.
    pub num_samples: usize,
    /// Sampling-domain policy (§5.1; ablation B compares the variants).
    pub sample_policy: SamplePolicy,
    /// Use arrival times to prefer timing-friendly rewiring nets — the
    /// level-driven selection behind Table 3.
    pub level_driven: bool,
    /// Seed for all randomized steps (simulation patterns, sampling). Each
    /// per-output search derives its own stream from this seed and the
    /// output index, so results are independent of worker count.
    pub seed: u64,
    /// Wall-clock budget for the whole rectification run. When it expires,
    /// outputs still unrectified degrade to the output-rewire fallback and
    /// the cut is recorded in [`RectifyStats::degradations`].
    ///
    /// [`RectifyStats::degradations`]: crate::RectifyStats::degradations
    pub timeout: Option<std::time::Duration>,
    /// Worker threads for the per-output searches. `0` (the default) means
    /// one worker per unit of [`std::thread::available_parallelism`]. With
    /// `1`, searches run inline on the calling thread. Patches are
    /// bit-identical for every value of `jobs` on un-deadlined runs; see
    /// DESIGN.md "Parallel execution model".
    pub jobs: usize,
    /// Directory of the persistent incremental-ECO cache. `None` (the
    /// default) disables caching entirely: no files are read or created.
    /// With a directory set, runs reuse memoized patches, warm-start
    /// sampling domains from recorded counterexamples, and (in read-write
    /// mode) record their own results — every reuse is re-verified by SAT
    /// before it affects the patch, so a stale or corrupt cache can only
    /// cost performance, never correctness (DESIGN.md §11).
    pub cache_dir: Option<std::path::PathBuf>,
    /// How the cache directory is used (ignored while `cache_dir` is
    /// `None`): read-write (the default), read-only, or off.
    pub cache_mode: CacheMode,
    /// Directory for crash-safe checkpointing. `None` (the default)
    /// disables it. With a directory set, each per-output search result is
    /// durably persisted the moment it completes, so a killed run rerun
    /// with the same inputs *resumes*: completed outputs skip their
    /// searches, everything is re-verified by the engine's
    /// always-re-verify policy, and the final patch is byte-identical to
    /// an uninterrupted run's (DESIGN.md §13).
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl Default for EcoOptions {
    fn default() -> Self {
        EcoOptions {
            num_samples: 64,
            sample_policy: SamplePolicy::ErrorDomain,
            level_driven: false,
            seed: 0xEC0,
            timeout: None,
            jobs: 0,
            cache_dir: None,
            cache_mode: CacheMode::ReadWrite,
            checkpoint_dir: None,
        }
    }
}

impl EcoOptions {
    /// Starts a builder over the default configuration.
    pub fn builder() -> EcoOptionsBuilder {
        EcoOptionsBuilder::default()
    }

    /// Default options with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        EcoOptions {
            seed,
            ..Self::default()
        }
    }

    /// Resolves [`EcoOptions::jobs`] to a concrete worker count: `0` maps to
    /// the host's available parallelism (at least 1).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// Builder for [`EcoOptions`].
///
/// Each setter overrides one field of the default configuration; `build`
/// returns the finished options. The builder is `#[must_use]`: dropping it
/// without calling [`EcoOptionsBuilder::build`] configures nothing.
#[derive(Debug, Clone, Default)]
#[must_use = "call `.build()` to obtain the configured EcoOptions"]
pub struct EcoOptionsBuilder {
    options: EcoOptions,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.options.$name = value;
                self
            }
        )*
    };
}

impl EcoOptionsBuilder {
    builder_setters! {
        /// Sets [`EcoOptions::num_samples`].
        num_samples: usize,
        /// Sets [`EcoOptions::sample_policy`].
        sample_policy: SamplePolicy,
        /// Sets [`EcoOptions::level_driven`].
        level_driven: bool,
        /// Sets [`EcoOptions::seed`].
        seed: u64,
        /// Sets [`EcoOptions::jobs`] (`0` = available parallelism).
        jobs: usize,
        /// Sets [`EcoOptions::cache_mode`].
        cache_mode: CacheMode,
    }

    /// Sets [`EcoOptions::cache_dir`], enabling the persistent cache.
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.options.cache_dir = Some(dir.into());
        self
    }

    /// Sets [`EcoOptions::checkpoint_dir`], enabling crash-safe
    /// checkpoint/resume.
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.options.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sets [`EcoOptions::timeout`].
    pub fn timeout(mut self, timeout: std::time::Duration) -> Self {
        self.options.timeout = Some(timeout);
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> EcoOptions {
        self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = EcoOptions::default();
        assert!(o.num_samples >= 16);
        assert_eq!(o.jobs, 0);
        assert!(o.effective_jobs() >= 1);
        assert_eq!(o.cache_dir, None, "caching is opt-in");
        assert_eq!(o.cache_mode, CacheMode::ReadWrite);
    }

    #[test]
    fn builder_sets_every_field() {
        let o = EcoOptions::builder()
            .num_samples(32)
            .sample_policy(SamplePolicy::Mixed)
            .level_driven(true)
            .seed(99)
            .jobs(3)
            .timeout(std::time::Duration::from_secs(5))
            .cache_dir("/tmp/eco-cache")
            .cache_mode(CacheMode::ReadOnly)
            .checkpoint_dir("/tmp/eco-ckpt")
            .build();
        assert_eq!(o.num_samples, 32);
        assert_eq!(o.sample_policy, SamplePolicy::Mixed);
        assert!(o.level_driven);
        assert_eq!(o.seed, 99);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.effective_jobs(), 3);
        assert_eq!(o.timeout, Some(std::time::Duration::from_secs(5)));
        assert_eq!(
            o.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/eco-cache"))
        );
        assert_eq!(o.cache_mode, CacheMode::ReadOnly);
        assert_eq!(
            o.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/eco-ckpt"))
        );
    }
}
