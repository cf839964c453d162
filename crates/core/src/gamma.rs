//! Choosing the robustness knob Γ.
//!
//! "A user may take the simplest approach and use the sequence of workload
//! changes over the past N windows … and take their average, max, or k×max
//! (for some constant k>1) as a reasonable choice of Γ" (Section 3). These
//! helpers implement exactly those policies; the Figures 8–9 experiments
//! sweep Γ directly.

use cliffguard_distance::WorkloadDistance;
use cliffguard_workload::Workload;

/// A Γ-selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GammaPolicy {
    /// A fixed, user-chosen Γ.
    Fixed(f64),
    /// Average of the past inter-window distances.
    AvgPastDeltas,
    /// Maximum of the past inter-window distances.
    MaxPastDeltas,
    /// `k ×` the maximum past inter-window distance (`k > 1` for a safety
    /// margin).
    KMaxPastDeltas(f64),
}

impl GammaPolicy {
    /// The default Γ, the paper's k × max rule with k = 1.5: one and a half
    /// times the largest past inter-window distance (Section 3). Every
    /// `gamma: auto` resolves through it.
    pub const AUTO: Self = GammaPolicy::KMaxPastDeltas(1.5);

    /// Resolves the policy against the observed history of inter-window
    /// distances (empty history yields 0 ⇒ nominal behavior).
    pub fn resolve(&self, past_deltas: &[f64]) -> f64 {
        match *self {
            GammaPolicy::Fixed(g) => g,
            GammaPolicy::AvgPastDeltas => mean(past_deltas),
            GammaPolicy::MaxPastDeltas => max(past_deltas),
            GammaPolicy::KMaxPastDeltas(k) => k * max(past_deltas),
        }
    }
}

/// Distances between consecutive windows: `δ(W_0,W_1), δ(W_1,W_2), …`.
pub fn consecutive_deltas<M: WorkloadDistance>(metric: &M, windows: &[Workload]) -> Vec<f64> {
    windows
        .windows(2)
        .map(|pair| metric.distance(&pair[0], &pair[1]))
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Basic summary statistics of a delta sequence (Table 1's columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaStats {
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub avg: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl DeltaStats {
    /// Computes the stats (all zero for an empty sequence).
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self {
                min: 0.0,
                max: 0.0,
                avg: 0.0,
                std: 0.0,
            };
        }
        let avg = mean(xs);
        let var = xs.iter().map(|x| (x - avg) * (x - avg)).sum::<f64>() / xs.len() as f64;
        Self {
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: max(xs),
            avg,
            std: var.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_resolve() {
        let deltas = [0.001, 0.003, 0.002];
        assert_eq!(GammaPolicy::Fixed(0.5).resolve(&deltas), 0.5);
        assert!((GammaPolicy::AvgPastDeltas.resolve(&deltas) - 0.002).abs() < 1e-12);
        assert_eq!(GammaPolicy::MaxPastDeltas.resolve(&deltas), 0.003);
        assert!((GammaPolicy::KMaxPastDeltas(2.0).resolve(&deltas) - 0.006).abs() < 1e-12);
    }

    #[test]
    fn empty_history_gives_zero() {
        assert_eq!(GammaPolicy::AvgPastDeltas.resolve(&[]), 0.0);
        assert_eq!(GammaPolicy::MaxPastDeltas.resolve(&[]), 0.0);
    }

    #[test]
    fn delta_stats() {
        let s = DeltaStats::of(&[1.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.avg, 2.0);
        assert_eq!(s.std, 1.0);
        let z = DeltaStats::of(&[]);
        assert_eq!(z.max, 0.0);
    }
}
