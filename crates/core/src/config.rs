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
    /// `lambda_success` was not > 1.
    BadLambdaSuccess(f64),
    /// `lambda_failure` was not in (0, 1).
    BadLambdaFailure(f64),
    /// `worst_fraction` was not in (0, 1].
    BadWorstFraction(f64),
    /// `alpha0` was not positive.
    BadAlpha0(f64),
    /// `alpha_range` was inverted (min > max).
    BadAlphaRange(f64, f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::NegativeGamma(g) => {
                write!(f, "gamma must be non-negative, got {g}")
            }
            ConfigError::NonFiniteGamma(g) => write!(f, "gamma must be finite, got {g}"),
            ConfigError::BadLambdaSuccess(l) => {
                write!(f, "lambda_success must exceed 1, got {l}")
            }
            ConfigError::BadLambdaFailure(l) => {
                write!(f, "lambda_failure must be in (0,1), got {l}")
            }
            ConfigError::BadWorstFraction(w) => {
                write!(f, "worst_fraction must be in (0,1], got {w}")
            }
            ConfigError::BadAlpha0(a) => write!(f, "alpha0 must be positive, got {a}"),
            ConfigError::BadAlphaRange(lo, hi) => {
                write!(f, "alpha_range is inverted: ({lo}, {hi})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Tuning knobs of [`crate::CliffGuard`] (Algorithm 2).
///
/// Defaults follow the paper's Section 6.1: "unless otherwise specified, we
/// used n=20 samples in all algorithms involving sampling, and 5
/// iterations, λ_success = 5, and λ_failure = 0.5 in CliffGuard."
#[derive(Debug, Clone)]
pub struct CliffGuardConfig {
    /// The robustness knob Γ: the radius of the uncertainty region around
    /// the target workload, in units of the workload distance metric.
    pub gamma: f64,
    /// Number of perturbed workloads sampled in the Γ-neighborhood (`n`).
    pub n_samples: usize,
    /// Maximum robust-move iterations.
    pub max_iters: usize,
    /// Initial scaling factor α for the worst-neighbor mixture weights.
    pub alpha0: f64,
    /// Step-size growth on a successful move (`λ_success > 1`).
    pub lambda_success: f64,
    /// Step-size shrink on a failed move (`0 < λ_failure < 1`).
    pub lambda_failure: f64,
    /// Fraction of sampled neighbors treated as "worst" (the paper loosens
    /// the ArgMax to "top-K or top 20%" to mitigate finite-sample bias).
    pub worst_fraction: f64,
    /// Stop after this many consecutive non-improving iterations.
    pub patience: usize,
    /// α is clamped to this range to keep the mixture weights finite (the
    /// paper leaves the numeric range of α unspecified).
    pub alpha_range: (f64, f64),
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
            alpha0: 1.0,
            lambda_success: 5.0,
            lambda_failure: 0.5,
            worst_fraction: 0.3,
            patience: 3,
            alpha_range: (1.0 / 64.0, 4.0),
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
        if self.lambda_success <= 1.0 {
            return Err(ConfigError::BadLambdaSuccess(self.lambda_success));
        }
        if self.lambda_failure <= 0.0 || self.lambda_failure >= 1.0 {
            return Err(ConfigError::BadLambdaFailure(self.lambda_failure));
        }
        if self.worst_fraction <= 0.0 || self.worst_fraction > 1.0 {
            return Err(ConfigError::BadWorstFraction(self.worst_fraction));
        }
        if self.alpha0 <= 0.0 {
            return Err(ConfigError::BadAlpha0(self.alpha0));
        }
        if self.alpha_range.0 > self.alpha_range.1 {
            return Err(ConfigError::BadAlphaRange(
                self.alpha_range.0,
                self.alpha_range.1,
            ));
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
        assert_eq!(c.lambda_success, 5.0);
        assert_eq!(c.lambda_failure, 0.5);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn bad_lambda_rejected() {
        let mut c = CliffGuardConfig::new(0.1);
        c.lambda_failure = 1.5;
        assert_eq!(c.validate(), Err(ConfigError::BadLambdaFailure(1.5)));
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
        let mut c = CliffGuardConfig::new(0.1);
        c.alpha_range = (2.0, 1.0);
        assert!(c.validate().unwrap_err().to_string().contains("inverted"));
    }
}
