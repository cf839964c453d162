//! The paper's Euclidean workload distance, Eq. (9).
//!
//! `δ(W1, W2) = |V_{W1} − V_{W2}| × S × |V_{W1} − V_{W2}|ᵀ`, where `V_W` is
//! the normalized-frequency vector over column-subset query representations
//! and `S_{i,j}` is the Hamming distance between representations `i` and
//! `j` divided by `2·n` (`n` = total database columns) — so `S_{i,i} = 0`
//! and identical queries never contribute. `|·|` is the element-wise
//! absolute value. The sparse evaluation is `O(T²·n)` in the number of
//! distinct representations `T`, exactly as the paper claims.

use crate::anchor::{EuclideanAnchor, Repr};
use crate::metric::{AnchoredDistance, ClauseMask, WorkloadDistance};
use crate::vector::{diff_support, ReprKey};
use cliffguard_workload::{Query, Workload};
use std::sync::Arc;

/// The denominator `2·n` (per representation coordinate) that scales a
/// Hamming distance between keys of `key`'s kind into `S`.
pub(crate) fn s_norm(key: &ReprKey, n_columns: usize) -> f64 {
    2.0 * (n_columns * key.coords_per_column()) as f64
}

/// Evaluates the quadratic form over a sparse difference support.
pub(crate) fn quadratic_form(diff: &[(ReprKey, f64)], n_columns: usize) -> f64 {
    if diff.is_empty() {
        return 0.0;
    }
    let norm = s_norm(&diff[0].0, n_columns);
    let mut total = 0.0;
    for i in 0..diff.len() {
        for j in (i + 1)..diff.len() {
            let s = diff[i].0.hamming(&diff[j].0) as f64 / norm;
            total += 2.0 * diff[i].1 * diff[j].1 * s;
        }
    }
    total
}

/// `δ_euclidean` with a configurable clause mask (default: `SWGO`).
#[derive(Debug, Clone, Copy)]
pub struct DeltaEuclidean {
    /// Total number of columns in the database (the paper's `n`).
    pub n_columns: usize,
    /// Which clauses feed the union representation.
    pub mask: ClauseMask,
}

impl DeltaEuclidean {
    /// The paper's default metric: union over all four clauses.
    pub fn new(n_columns: usize) -> Self {
        Self {
            n_columns,
            mask: ClauseMask::SWGO,
        }
    }

    /// A single/custom clause-mask variant (Figure 11).
    pub fn with_mask(n_columns: usize, mask: ClauseMask) -> Self {
        Self { n_columns, mask }
    }

    pub(crate) fn anchor<'a>(
        &self,
        w0: &Workload,
        candidates: &'a [Arc<Query>],
    ) -> EuclideanAnchor<'a> {
        EuclideanAnchor::new(Repr::Union(self.mask), self.n_columns, w0, candidates)
    }
}

impl WorkloadDistance for DeltaEuclidean {
    fn distance(&self, a: &Workload, b: &Workload) -> f64 {
        let diff = diff_support(a, b, |q| ReprKey::union_of(q, self.mask));
        quadratic_form(&diff, self.n_columns)
    }

    fn anchored<'a>(
        &'a self,
        w0: &'a Workload,
        candidates: &'a [Arc<Query>],
    ) -> Box<dyn AnchoredDistance + 'a> {
        Box::new(self.anchor(w0, candidates))
    }

    fn name(&self) -> String {
        format!("Euc-union ({})", self.mask.label())
    }
}

/// `δ_separate`: like [`DeltaEuclidean`] but keeping the four clause column
/// sets separate (a 4-tuple representation), so the same column moving from
/// SELECT to WHERE registers as a change.
#[derive(Debug, Clone, Copy)]
pub struct DeltaSeparate {
    /// Total number of columns in the database.
    pub n_columns: usize,
}

impl DeltaSeparate {
    /// Creates the metric.
    pub fn new(n_columns: usize) -> Self {
        Self { n_columns }
    }
}

impl WorkloadDistance for DeltaSeparate {
    fn distance(&self, a: &Workload, b: &Workload) -> f64 {
        let diff = diff_support(a, b, ReprKey::separate_of);
        quadratic_form(&diff, self.n_columns)
    }

    fn anchored<'a>(
        &'a self,
        w0: &'a Workload,
        candidates: &'a [Arc<Query>],
    ) -> Box<dyn AnchoredDistance + 'a> {
        Box::new(EuclideanAnchor::new(
            Repr::Separate,
            self.n_columns,
            w0,
            candidates,
        ))
    }

    fn name(&self) -> String {
        "Euc-separate".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_workload::{PredOp, Query, QueryBuilder, TableId};

    const N: usize = 16;

    fn q(sel: &[u32]) -> Query {
        QueryBuilder::new(TableId(0)).select(sel).build()
    }

    #[test]
    fn identical_workloads_have_zero_distance() {
        let w = Workload::from_queries([(q(&[1, 2]), 3.0), (q(&[3]), 1.0)]);
        let d = DeltaEuclidean::new(N);
        assert_eq!(d.distance(&w, &w), 0.0);
    }

    #[test]
    fn symmetric() {
        let w1 = Workload::from_queries([(q(&[1, 2]), 1.0), (q(&[3]), 2.0)]);
        let w2 = Workload::from_queries([(q(&[1]), 1.0), (q(&[4, 5]), 1.0)]);
        let d = DeltaEuclidean::new(N);
        assert!((d.distance(&w1, &w2) - d.distance(&w2, &w1)).abs() < 1e-15);
    }

    #[test]
    fn hand_computed_two_query_case() {
        // W1 = {A}, W2 = {B}; A = {1,2}, B = {2,3}. |Δ| = (1, 1);
        // S_AB = hamming({1,2},{2,3}) / 2n = 2/32. δ = 2·1·1·2/32 = 0.125.
        let w1 = Workload::from_queries([(q(&[1, 2]), 1.0)]);
        let w2 = Workload::from_queries([(q(&[2, 3]), 1.0)]);
        let d = DeltaEuclidean::new(N);
        assert!((d.distance(&w1, &w2) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn r2_intra_query_similarity() {
        // Requirement R2: swapping mass between *similar* queries yields a
        // smaller distance than between dissimilar ones.
        let base = Workload::from_queries([(q(&[1, 2]), 1.0), (q(&[1, 3]), 1.0)]);
        let to_similar = Workload::from_queries([(q(&[1, 2]), 1.0), (q(&[1, 4]), 1.0)]);
        let to_far = Workload::from_queries([(q(&[1, 2]), 1.0), (q(&[8, 9, 10, 11]), 1.0)]);
        let d = DeltaEuclidean::new(N);
        assert!(d.distance(&base, &to_similar) < d.distance(&base, &to_far));
    }

    #[test]
    fn frequency_shift_registers() {
        let w1 = Workload::from_queries([(q(&[1]), 9.0), (q(&[2]), 1.0)]);
        let w2 = Workload::from_queries([(q(&[1]), 1.0), (q(&[2]), 9.0)]);
        let w3 = Workload::from_queries([(q(&[1]), 8.0), (q(&[2]), 2.0)]);
        let d = DeltaEuclidean::new(N);
        let big = d.distance(&w1, &w2);
        let small = d.distance(&w1, &w3);
        assert!(big > small);
        assert!(small > 0.0);
    }

    #[test]
    fn normalized_to_unit_interval() {
        // Even maximally different workloads stay within [0, 1].
        let w1 = Workload::from_queries([(q(&[0]), 1.0)]);
        let all: Vec<u32> = (0..N as u32).collect();
        let w2 = Workload::from_queries([(q(&all), 1.0)]);
        let d = DeltaEuclidean::new(N).distance(&w1, &w2);
        assert!(d > 0.0 && d <= 1.0, "d = {d}");
    }

    #[test]
    fn clause_mask_changes_view() {
        let a = QueryBuilder::new(TableId(0))
            .select(&[1])
            .filter(2, PredOp::Eq, 0.1)
            .build();
        let b = QueryBuilder::new(TableId(0))
            .select(&[1])
            .filter(3, PredOp::Eq, 0.1)
            .build();
        let w1 = Workload::from_queries([(a, 1.0)]);
        let w2 = Workload::from_queries([(b, 1.0)]);
        // Identical through the SELECT-only lens, different through WHERE.
        assert_eq!(
            DeltaEuclidean::with_mask(N, ClauseMask::S).distance(&w1, &w2),
            0.0
        );
        assert!(DeltaEuclidean::with_mask(N, ClauseMask::W).distance(&w1, &w2) > 0.0);
    }

    #[test]
    fn separate_sees_clause_moves_union_does_not() {
        let a = QueryBuilder::new(TableId(0)).select(&[1, 2]).build();
        let b = QueryBuilder::new(TableId(0))
            .select(&[1])
            .filter(2, PredOp::Eq, 0.1)
            .build();
        let w1 = Workload::from_queries([(a, 1.0)]);
        let w2 = Workload::from_queries([(b, 1.0)]);
        assert_eq!(DeltaEuclidean::new(N).distance(&w1, &w2), 0.0);
        assert!(DeltaSeparate::new(N).distance(&w1, &w2) > 0.0);
    }

    #[test]
    fn names_match_figure_legends() {
        assert_eq!(DeltaEuclidean::new(N).name(), "Euc-union (SWGO)");
        assert_eq!(
            DeltaEuclidean::with_mask(N, ClauseMask::W).name(),
            "Euc-union (W)"
        );
        assert_eq!(DeltaSeparate::new(N).name(), "Euc-separate");
    }

    #[test]
    fn empty_vs_nonempty() {
        let w1 = Workload::new();
        let w2 = Workload::from_queries([(q(&[1]), 1.0)]);
        let d = DeltaEuclidean::new(N);
        // Difference support is a single entry; quadratic form has no pairs.
        assert_eq!(d.distance(&w1, &w2), 0.0);
        assert_eq!(d.distance(&w1, &w1), 0.0);
    }
}
