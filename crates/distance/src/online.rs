//! Sealed per-window workload vectors for streaming δ.
//!
//! The batch metric ([`DeltaEuclidean`](crate::DeltaEuclidean)) rescans two
//! whole workloads per evaluation. A streaming ingester instead seals each
//! closed window once into a [`WindowVector`] (a sorted sparse support of
//! **raw counts**), keeps it for the next close, and evaluates the
//! inter-window δ with [`window_delta`] — a sorted-merge of the two supports
//! feeding the same Eq. (9) quadratic form. The window's arrivals are
//! aggregated by signature in its [`Workload`] as they come, so sealing
//! derives one representation key per distinct query, not per arrival.
//!
//! # Determinism
//!
//! Raw counts are sums of exactly-representable integers, so the sealed
//! support is **bit-identical** for any arrival grouping — live streaming,
//! chunked replay at any chunk size, or a persisted [`Workload`] restored
//! after a kill.
//! Normalization divides each count by the window total once, in the
//! canonical sorted-key order, so `window_delta` is bit-reproducible
//! across runs, chunkings, thread counts, and kill/resume.
//!
//! `window_delta` agrees with `DeltaEuclidean::distance` on the same pair
//! of windows up to f64 rounding (it normalizes per representation rather
//! than per workload entry; the recurrence is tested against the batch
//! metric at 1e-12).

use crate::euclidean::quadratic_form;
use crate::metric::ClauseMask;
use crate::vector::ReprKey;
use cliffguard_workload::Workload;
use std::collections::HashMap;

/// One sealed window: sorted `(representation, raw count)` support plus the
/// window total.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowVector {
    support: Vec<(ReprKey, f64)>,
    total: f64,
}

impl WindowVector {
    /// The sorted raw-count support.
    pub fn support(&self) -> &[(ReprKey, f64)] {
        &self.support
    }

    /// Total arrivals in the window.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Whether the window saw no arrivals.
    pub fn is_empty(&self) -> bool {
        self.support.is_empty() || self.total <= 0.0
    }

    /// Seals `workload` (raw weights = arrival counts) under a clause
    /// mask: one representation key per entry, counts summed per key,
    /// support sorted by key. Integer weights keep the support exact.
    pub fn from_workload(workload: &Workload, mask: ClauseMask) -> Self {
        let mut counts: HashMap<ReprKey, f64> = HashMap::new();
        let mut total = 0.0;
        for (q, w) in workload.iter() {
            *counts.entry(ReprKey::union_of(q, mask)).or_insert(0.0) += w;
            total += w;
        }
        let mut support: Vec<(ReprKey, f64)> = counts.into_iter().collect();
        support.sort_by(|a, b| a.0.cmp(&b.0));
        WindowVector { support, total }
    }

    /// This window's normalized coordinate for `key` (0 when absent).
    fn normalized(&self, idx: usize) -> f64 {
        self.support[idx].1 / self.total
    }
}

/// Eq. (9) δ between two sealed windows over `n_columns` database columns.
///
/// An empty window contributes no coordinates (matching how the batch
/// metric treats an empty workload). The result is bit-reproducible: both
/// supports are in canonical key order and every term is an exact function
/// of the raw counts and totals.
pub fn window_delta(a: &WindowVector, b: &WindowVector, n_columns: usize) -> f64 {
    let mut diff: Vec<(ReprKey, f64)> = Vec::with_capacity(a.support.len() + b.support.len());
    let (mut i, mut j) = (0, 0);
    let a_empty = a.is_empty();
    let b_empty = b.is_empty();
    while i < a.support.len() || j < b.support.len() {
        let take_a =
            j >= b.support.len() || (i < a.support.len() && a.support[i].0 <= b.support[j].0);
        let take_b =
            i >= a.support.len() || (j < b.support.len() && b.support[j].0 <= a.support[i].0);
        let (key, d) = match (take_a, take_b) {
            (true, true) => {
                let d = if a_empty { 0.0 } else { a.normalized(i) }
                    - if b_empty { 0.0 } else { b.normalized(j) };
                let k = a.support[i].0.clone();
                i += 1;
                j += 1;
                (k, d)
            }
            (true, false) => {
                let d = if a_empty { 0.0 } else { a.normalized(i) };
                let k = a.support[i].0.clone();
                i += 1;
                (k, d)
            }
            (false, true) => {
                let d = -if b_empty { 0.0 } else { b.normalized(j) };
                let k = b.support[j].0.clone();
                j += 1;
                (k, d)
            }
            (false, false) => unreachable!("merge must advance"),
        };
        let abs = d.abs();
        if abs > 1e-15 {
            diff.push((key, abs));
        }
    }
    quadratic_form(&diff, n_columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::WorkloadDistance;
    use crate::DeltaEuclidean;
    use cliffguard_workload::{Query, QueryBuilder, TableId};

    const N: usize = 16;

    fn q(sel: &[u32]) -> Query {
        QueryBuilder::new(TableId(0)).select(sel).build()
    }

    /// One workload per arrival sequence, one `add` per arrival.
    fn arrivals<'a>(queries: impl IntoIterator<Item = &'a Query>) -> Workload {
        let mut w = Workload::new();
        for query in queries {
            w.add(query.clone().into(), 1.0);
        }
        w
    }

    fn vec_of(entries: &[(&[u32], f64)]) -> WindowVector {
        let w = Workload::from_queries(entries.iter().map(|&(sel, wt)| (q(sel), wt)));
        WindowVector::from_workload(&w, ClauseMask::SWGO)
    }

    #[test]
    fn identical_windows_have_exactly_zero_delta() {
        let a = vec_of(&[(&[1, 2], 3.0), (&[3], 1.0)]);
        let b = vec_of(&[(&[1, 2], 3.0), (&[3], 1.0)]);
        assert_eq!(window_delta(&a, &b, N), 0.0);
    }

    #[test]
    fn accumulation_order_is_invisible() {
        let queries: Vec<Query> = (0..40).map(|i| q(&[i % 7, (i * 3) % 11])).collect();
        let fwd = arrivals(&queries);
        let rev = arrivals(queries.iter().rev());
        let a = WindowVector::from_workload(&fwd, ClauseMask::SWGO);
        let b = WindowVector::from_workload(&rev, ClauseMask::SWGO);
        assert_eq!(a, b, "raw-count supports must be bit-identical");
        let other = vec_of(&[(&[9, 10], 5.0)]);
        assert_eq!(
            window_delta(&a, &other, N).to_bits(),
            window_delta(&b, &other, N).to_bits()
        );
    }

    #[test]
    fn rebuild_from_workload_matches_live_accumulation() {
        // Live: one `add` per arrival. Rebuilt: the same counts,
        // pre-aggregated and entered in another order, as a restored
        // snapshot would hold them.
        let queries: Vec<Query> = (0..30).map(|i| q(&[i % 5, (i * 2) % 9])).collect();
        let live = arrivals(&queries);
        let mut rebuilt = Workload::new();
        let entries: Vec<_> = live.iter().collect();
        for (query, count) in entries.into_iter().rev() {
            rebuilt.add(query.clone(), count);
        }
        assert_eq!(
            WindowVector::from_workload(&live, ClauseMask::SWGO),
            WindowVector::from_workload(&rebuilt, ClauseMask::SWGO)
        );
    }

    #[test]
    fn agrees_with_the_batch_metric() {
        let qa: Vec<Query> = (0..25u32).map(|i| q(&[i % 4, 8 + i % 3])).collect();
        let qb: Vec<Query> = (0..25u32).map(|i| q(&[i % 6, 4 + i % 5])).collect();
        let (wa, wb) = (arrivals(&qa), arrivals(&qb));
        let online = window_delta(
            &WindowVector::from_workload(&wa, ClauseMask::SWGO),
            &WindowVector::from_workload(&wb, ClauseMask::SWGO),
            N,
        );
        let batch = DeltaEuclidean::new(N).distance(&wa, &wb);
        assert!(
            (online - batch).abs() < 1e-12,
            "online {online} vs batch {batch}"
        );
    }

    #[test]
    fn empty_windows_match_batch_semantics() {
        let empty = WindowVector::from_workload(&Workload::new(), ClauseMask::SWGO);
        assert!(empty.is_empty());
        let single = vec_of(&[(&[1], 2.0)]);
        let multi = vec_of(&[(&[1], 1.0), (&[2, 3], 1.0)]);
        // Mirror DeltaEuclidean: single-coordinate diff has no pairs.
        assert_eq!(window_delta(&empty, &single, N), 0.0);
        let batch = DeltaEuclidean::new(N).distance(&Workload::new(), &{
            let mut w = Workload::new();
            w.add(q(&[1]).into(), 1.0);
            w.add(q(&[2, 3]).into(), 1.0);
            w
        });
        let online = window_delta(&empty, &multi, N);
        assert!((online - batch).abs() < 1e-12);
        assert_eq!(window_delta(&empty, &empty, N), 0.0);
    }
}
