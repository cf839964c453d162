//! Algorithm 3: `MoveWorkload` — building the mixture workload for a
//! robust local move.
//!
//! For every query `q` appearing in `W₀` or any worst-neighbor `Ŵᵢ`:
//!
//! `ω_q = (f_q · Σᵢ weight(q, Ŵᵢ))^α + weight(q, W₀)`
//!
//! where `f_q = f(q, D)` is the query's cost under the current design.
//! "Taking latencies and frequencies into account encourages the nominal
//! designer to seek designs that reduce the cost of more expensive and/or
//! popular queries", and α plays the role of BNT's step size.
//!
//! Numerics: the paper leaves the units of `f_q` open; raw milliseconds
//! raised to α = 5 or 25 would overflow any float. We therefore normalize
//! `f_q` by the mean query cost under `D` and use normalized neighbor
//! frequencies, which keeps `ω_q` finite for the α range the backtracking
//! search visits while preserving the formula's ordering semantics.

use cliffguard_workload::{Query, QuerySignature, SignatureSet, Workload};
use std::sync::Arc;

/// Builds the moved workload (Algorithm 3).
///
/// * `w0` — the original workload.
/// * `worst` — the worst-neighbor workloads `Ŵ₁ … Ŵ_m`.
/// * `cost` — `f(q, D)`: per-query cost under the current design, given
///   the query's signature (`q.signature()`) so the caller can look it up
///   without hashing the query again.
/// * `alpha` — the scaling factor (step size analogue), `> 0`.
///
/// Each query is hashed once, when its workload stored it: the union,
/// the weight lookups and the moved workload all reuse that signature,
/// and `cost` is asked once per distinct query.
pub fn move_workload<F>(w0: &Workload, worst: &[&Workload], cost: F, alpha: f64) -> Workload
where
    F: Fn(QuerySignature, &Query) -> f64,
{
    assert!(alpha > 0.0, "alpha must be positive");
    // Union of all queries in first-appearance order (W₀ first, then the
    // worst-neighbors in the given order). The order must be a pure
    // function of the inputs — downstream designers enumerate candidates
    // in workload order, so hash-iteration order here would make the
    // final design's structure order differ run to run (and break the
    // bit-identical checkpoint/resume guarantee).
    let mut seen = SignatureSet::default();
    let mut queries: Vec<(QuerySignature, &Arc<Query>)> = Vec::new();
    for w in std::iter::once(w0).chain(worst.iter().copied()) {
        for (sig, q, _) in w.iter_signed() {
            if seen.insert(sig) {
                queries.push((sig, q));
            }
        }
    }
    let costs: Vec<f64> = queries.iter().map(|&(sig, q)| cost(sig, q)).collect();

    // Mean cost under D over the union, for normalization.
    let mean_cost = {
        let total: f64 = costs.iter().sum();
        (total / queries.len().max(1) as f64).max(f64::MIN_POSITIVE)
    };

    let m = worst.len().max(1) as f64;
    let mut moved = Workload::new();
    for (&(sig, q), &f_q) in queries.iter().zip(&costs) {
        let w0_weight = w0.weight_of_sig(sig);
        // Mean raw weight of q across the worst-neighbors: same mass units
        // as W0's weights, and Γ-proportional by construction (the sampler
        // mixed in `c ∝ λ(Γ)` copies).
        let nu: f64 = worst.iter().map(|w| w.weight_of_sig(sig)).sum::<f64>() / m;
        let f_hat = f_q / mean_cost;
        let omega = (f_hat * nu).powf(alpha) + w0_weight;
        if omega.is_finite() && omega > 0.0 {
            moved.add_signed(sig, Arc::clone(q), omega);
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_workload::{QueryBuilder, TableId};

    fn q(sel: &[u32]) -> Query {
        QueryBuilder::new(TableId(0)).select(sel).build()
    }

    #[test]
    fn moved_workload_contains_originals_and_neighbors() {
        let w0 = Workload::from_queries([(q(&[1]), 10.0)]);
        let n1 = Workload::from_queries([(q(&[2]), 5.0)]);
        let moved = move_workload(&w0, &[&n1], |_, _| 1.0, 1.0);
        assert!(moved.weight_of(&q(&[1])) >= 10.0);
        assert!(moved.weight_of(&q(&[2])) > 0.0);
        assert_eq!(moved.len(), 2);
    }

    #[test]
    fn expensive_queries_weighted_more() {
        let w0 = Workload::from_queries([(q(&[1]), 1.0)]);
        let n1 = Workload::from_queries([(q(&[2]), 1.0), (q(&[3]), 1.0)]);
        // q{2} is 10x more expensive under the current design.
        let moved = move_workload(
            &w0,
            &[&n1],
            |_, query| {
                if query.select.contains(cliffguard_workload::ColumnId(2)) {
                    10.0
                } else {
                    1.0
                }
            },
            1.0,
        );
        assert!(moved.weight_of(&q(&[2])) > moved.weight_of(&q(&[3])));
    }

    #[test]
    fn popular_neighbor_queries_weighted_more() {
        let w0 = Workload::from_queries([(q(&[1]), 1.0)]);
        let n1 = Workload::from_queries([(q(&[2]), 9.0), (q(&[3]), 1.0)]);
        let moved = move_workload(&w0, &[&n1], |_, _| 1.0, 1.0);
        assert!(moved.weight_of(&q(&[2])) > moved.weight_of(&q(&[3])));
    }

    #[test]
    fn alpha_controls_the_pull() {
        // Small α keeps the mixture near W0; large α pulls toward the
        // neighbors (when the pull term base is > 1... here base < 1 so
        // larger alpha shrinks it; check directionality via ordering).
        let w0 = Workload::from_queries([(q(&[1]), 100.0)]);
        let n1 = Workload::from_queries([(q(&[2]), 100.0)]);
        let costly = |_: QuerySignature, query: &Query| {
            if query.select.contains(cliffguard_workload::ColumnId(2)) {
                10.0
            } else {
                1.0
            }
        };
        let small = move_workload(&w0, &[&n1], costly, 0.5);
        let large = move_workload(&w0, &[&n1], costly, 2.0);
        let frac = |w: &Workload| w.weight_of(&q(&[2])) / w.total_weight();
        // f_hat·freq > 1 for the expensive neighbor, so larger α amplifies.
        assert!(frac(&large) > frac(&small));
    }

    #[test]
    fn no_neighbors_reduces_to_w0_shape() {
        let w0 = Workload::from_queries([(q(&[1]), 3.0), (q(&[2]), 7.0)]);
        let moved = move_workload(&w0, &[], |_, _| 1.0, 1.0);
        assert_eq!(moved.len(), 2);
        assert_eq!(moved.weight_of(&q(&[1])), 3.0);
        assert_eq!(moved.weight_of(&q(&[2])), 7.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_rejected() {
        let w0 = Workload::from_queries([(q(&[1]), 1.0)]);
        let _ = move_workload(&w0, &[], |_, _| 1.0, 0.0);
    }

    #[test]
    fn weights_stay_finite_for_extreme_alpha() {
        let w0 = Workload::from_queries([(q(&[1]), 1e6)]);
        let n1 = Workload::from_queries([(q(&[2]), 1e6)]);
        let moved = move_workload(&w0, &[&n1], |_, _| 1e9, 8.0);
        for (_, wt) in moved.iter() {
            assert!(wt.is_finite());
        }
    }
}
