//! CliffGuard configuration.

/// A rejected [`CliffGuardConfig`] parameter.
///
/// Construction sites (`CliffGuard::new`, the CLI, the bench harness)
/// surface this instead of panicking, so a bad flag combination is an
/// error message, not an abort.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `gamma` was negative.
    NegativeGamma(f64),
    /// `gamma` was NaN or infinite.
    NonFiniteGamma(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::NegativeGamma(g) => {
                write!(f, "gamma must be non-negative, got {g}")
            }
            ConfigError::NonFiniteGamma(g) => write!(f, "gamma must be finite, got {g}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Tuning knobs of [`crate::CliffGuard`] (Algorithm 2).
///
/// Defaults follow the paper's Section 6.1: "unless otherwise specified, we
/// used n=20 samples in all algorithms involving sampling, and 5
/// iterations, λ_success = 5, and λ_failure = 0.5 in CliffGuard." The
/// step-size rule (initial α, λ_success, λ_failure, the worst-neighbor
/// fraction and α's clamp) is fixed in the descent, not configured.
#[derive(Debug, Clone)]
pub struct CliffGuardConfig {
    /// The robustness knob Γ: the radius of the uncertainty region around
    /// the target workload, in units of the workload distance metric.
    pub gamma: f64,
    /// Number of perturbed workloads sampled in the Γ-neighborhood (`n`).
    pub n_samples: usize,
    /// Maximum robust-move iterations.
    pub max_iters: usize,
    /// Stop after this many consecutive non-improving iterations.
    pub patience: usize,
    /// Seed for the neighborhood sampler.
    pub seed: u64,
}

impl CliffGuardConfig {
    /// The paper's defaults for a given Γ.
    pub fn new(gamma: f64) -> Self {
        Self {
            gamma,
            n_samples: 20,
            max_iters: 5,
            patience: 3,
            seed: 0,
        }
    }

    /// Validates invariants, reporting the first violated one.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.gamma.is_finite() {
            return Err(ConfigError::NonFiniteGamma(self.gamma));
        }
        if self.gamma < 0.0 {
            return Err(ConfigError::NegativeGamma(self.gamma));
        }
        Ok(())
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CliffGuardConfig::new(0.002);
        assert_eq!(c.n_samples, 20);
        assert_eq!(c.max_iters, 5);
        assert_eq!(crate::session::LAMBDA_SUCCESS, 5.0);
        assert_eq!(crate::session::LAMBDA_FAILURE, 0.5);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn negative_gamma_rejected() {
        assert_eq!(
            CliffGuardConfig::new(-0.1).validate(),
            Err(ConfigError::NegativeGamma(-0.1))
        );
    }

    #[test]
    fn non_finite_gamma_rejected() {
        for g in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = CliffGuardConfig::new(g).validate().unwrap_err();
            assert!(matches!(e, ConfigError::NonFiniteGamma(_)), "{g}: {e:?}");
        }
    }

    #[test]
    fn errors_render_the_offending_value() {
        let e = CliffGuardConfig::new(-0.25).validate().unwrap_err();
        assert!(e.to_string().contains("-0.25"));
    }
}
