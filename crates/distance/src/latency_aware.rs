//! The latency-aware distance `δ_latency` of Appendix C.
//!
//! `δ_latency(W1, W2) = (1−ω)·δ_euclidean(W1, W2) + ω·R(W1, W2)` with
//! `R(W1, W2) = |f(W1,∅) − f(W2,∅)| / |f(W1,∅) + f(W2,∅)|` (Eq. 12), where
//! `f(W, ∅)` is the total latency of the workload against the *empty*
//! design (baseline table scans), so the metric stays design-independent.
//! `ω` trades structural similarity against latency similarity; the paper
//! finds `ω = 0.2` gives a monotonic relationship (Figure 16b) while
//! `ω = 0.1` does not (Figure 16a).

use crate::anchor::EuclideanAnchor;
use crate::euclidean::DeltaEuclidean;
use crate::metric::{AnchoredDistance, WorkloadDistance};
use cliffguard_workload::{Query, Workload};
use std::sync::Arc;

/// Latency-aware workload distance.
///
/// `B` supplies the baseline (no-design) latency of a single query; the
/// workload-level `f(W, ∅)` is the weight-weighted sum of query baselines.
pub struct DeltaLatency<B> {
    base: DeltaEuclidean,
    omega: f64,
    baseline: B,
}

impl<B: Fn(&Query) -> f64> DeltaLatency<B> {
    /// Creates the metric. `omega ∈ [0, 1]`; `baseline` returns a query's
    /// latency under the empty design.
    pub fn new(n_columns: usize, omega: f64, baseline: B) -> Self {
        assert!((0.0..=1.0).contains(&omega), "omega must be in [0,1]");
        Self {
            base: DeltaEuclidean::new(n_columns),
            omega,
            baseline,
        }
    }

    /// Total baseline latency `f(W, ∅)` of a workload.
    fn workload_baseline(&self, w: &Workload) -> f64 {
        w.iter().map(|(q, wt)| (self.baseline)(q) * wt).sum()
    }

    /// The latency-difference term `R(W1, W2)` of Eq. (12).
    pub fn latency_term(&self, a: &Workload, b: &Workload) -> f64 {
        latency_ratio(self.workload_baseline(a), self.workload_baseline(b))
    }

    /// Eq. (11): blends the Euclidean distance with `R`.
    fn blend(&self, euclidean: f64, latency_term: f64) -> f64 {
        (1.0 - self.omega) * euclidean + self.omega * latency_term
    }
}

/// `R` of Eq. (12) from the two workloads' baseline latencies.
fn latency_ratio(fa: f64, fb: f64) -> f64 {
    let denom = (fa + fb).abs();
    if denom == 0.0 {
        // Both cost zero: identical latencies.
        0.0
    } else {
        (fa - fb).abs() / denom
    }
}

impl<B: Fn(&Query) -> f64> WorkloadDistance for DeltaLatency<B> {
    fn distance(&self, a: &Workload, b: &Workload) -> f64 {
        self.blend(self.base.distance(a, b), self.latency_term(a, b))
    }

    fn anchored<'a>(
        &'a self,
        w0: &'a Workload,
        candidates: &'a [Arc<Query>],
    ) -> Box<dyn AnchoredDistance + 'a> {
        Box::new(LatencyAnchor {
            metric: self,
            euclidean: self.base.anchor(w0, candidates),
            candidates,
            w0_baseline: self.workload_baseline(w0),
            baselines: vec![None; candidates.len()],
        })
    }

    fn name(&self) -> String {
        format!("Euc-latency (w={})", self.omega)
    }
}

/// `δ_latency(W0, ·)`: the shared Euclidean anchor plus `f(W0, ∅)`, and
/// each candidate's baseline latency computed on its first draw.
struct LatencyAnchor<'a, B> {
    metric: &'a DeltaLatency<B>,
    euclidean: EuclideanAnchor<'a>,
    candidates: &'a [Arc<Query>],
    w0_baseline: f64,
    baselines: Vec<Option<f64>>,
}

impl<B: Fn(&Query) -> f64> AnchoredDistance for LatencyAnchor<'_, B> {
    fn distance_to(&mut self, subset: &[usize]) -> f64 {
        let euclidean = self.euclidean.distance_to(subset);
        let (metric, candidates, baselines) = (self.metric, self.candidates, &mut self.baselines);
        // `f(Q, ∅)` summed in Q's entry order; unit weights leave each
        // product equal to the query's baseline.
        let q_baseline: f64 = subset
            .iter()
            .map(|&c| *baselines[c].get_or_insert_with(|| (metric.baseline)(&candidates[c])))
            .sum();
        metric.blend(euclidean, latency_ratio(self.w0_baseline, q_baseline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_workload::{Query, QueryBuilder, TableId};

    const N: usize = 16;

    fn q(sel: &[u32]) -> Query {
        QueryBuilder::new(TableId(0)).select(sel).build()
    }

    /// Baseline latency proportional to the number of selected columns.
    fn width_cost(q: &Query) -> f64 {
        q.select.len() as f64 * 10.0
    }

    #[test]
    fn degenerates_to_euclidean_at_omega_zero() {
        let w1 = Workload::from_queries([(q(&[1, 2]), 1.0)]);
        let w2 = Workload::from_queries([(q(&[2, 3]), 1.0)]);
        let dl = DeltaLatency::new(N, 0.0, width_cost);
        let de = DeltaEuclidean::new(N);
        assert!((dl.distance(&w1, &w2) - de.distance(&w1, &w2)).abs() < 1e-12);
    }

    #[test]
    fn latency_term_bounds() {
        let cheap = Workload::from_queries([(q(&[1]), 1.0)]);
        let pricey = Workload::from_queries([(q(&[1, 2, 3, 4]), 1.0)]);
        let dl = DeltaLatency::new(N, 0.2, width_cost);
        let r = dl.latency_term(&cheap, &pricey);
        assert!(r > 0.0 && r < 1.0);
        // Identical latencies → 0.
        assert_eq!(dl.latency_term(&cheap, &cheap), 0.0);
        // Zero-cost corner → defined as 0.
        let free = Workload::new();
        assert_eq!(dl.latency_term(&free, &free), 0.0);
        // One side zero-cost → 1 (the paper's extreme case).
        assert_eq!(dl.latency_term(&free, &pricey), 1.0);
    }

    #[test]
    fn separates_structurally_identical_latency_divergent() {
        // Same column sets (same δ_euclidean view) but very different
        // baseline latencies — exactly what δ_latency is for. We emulate a
        // latency difference via weights.
        let w1 = Workload::from_queries([(q(&[1, 2]), 1.0)]);
        let w2 = Workload::from_queries([(q(&[1, 2]), 10.0)]);
        let de = DeltaEuclidean::new(N);
        assert_eq!(de.distance(&w1, &w2), 0.0);
        let dl = DeltaLatency::new(N, 0.2, width_cost);
        assert!(dl.distance(&w1, &w2) > 0.0);
    }

    #[test]
    fn symmetric() {
        let w1 = Workload::from_queries([(q(&[1]), 2.0)]);
        let w2 = Workload::from_queries([(q(&[2, 3]), 1.0)]);
        let dl = DeltaLatency::new(N, 0.3, width_cost);
        assert!((dl.distance(&w1, &w2) - dl.distance(&w2, &w1)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "omega")]
    fn omega_validated() {
        let _ = DeltaLatency::new(N, 1.5, width_cost);
    }

    #[test]
    fn name_mentions_omega() {
        assert_eq!(
            DeltaLatency::new(N, 0.2, width_cost).name(),
            "Euc-latency (w=0.2)"
        );
    }
}
