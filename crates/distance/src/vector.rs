//! Sparse workload vectors.
//!
//! Conceptually a workload is a `(2^n - 1)`-dimensional vector of
//! normalized frequencies, one coordinate per non-empty column subset
//! (Section 5). "Since V_W is an extremely sparse matrix, most of the
//! computation in (9) can be avoided" — we only ever materialize the
//! *support*: the representations that actually occur, keyed by
//! [`ReprKey`].

use crate::metric::ClauseMask;
use cliffguard_workload::{ColumnSet, Query, Workload};
use std::collections::BTreeMap;

/// A query's representation coordinate: either the masked union of its
/// clause column sets (`δ_euclidean`) or the per-clause 4-tuple
/// (`δ_separate`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReprKey {
    /// Union of (masked) clause columns.
    Union(ColumnSet),
    /// `(select, where, group by, order by)` kept separate.
    Separate(Box<[ColumnSet; 4]>),
}

impl ReprKey {
    /// Builds the union representation of a query under a clause mask.
    pub fn union_of(q: &Query, mask: ClauseMask) -> Self {
        let mut s = ColumnSet::new();
        if mask.select {
            s.union_with(&q.select);
        }
        if mask.filter {
            s.union_with(&q.filter);
        }
        if mask.group_by {
            s.union_with(&q.group_by);
        }
        if mask.order_by {
            s.union_with(&q.order_by_set());
        }
        ReprKey::Union(s)
    }

    /// Builds the 4-tuple representation of a query.
    pub fn separate_of(q: &Query) -> Self {
        ReprKey::Separate(Box::new([
            q.select.clone(),
            q.filter.clone(),
            q.group_by.clone(),
            q.order_by_set(),
        ]))
    }

    /// Hamming distance between two representations (the `S_{i,j}`
    /// numerator of Eq. (9)): number of column-coordinates present in
    /// exactly one of the two. For `Separate`, coordinates are per-clause,
    /// so the distance is the sum of the four clause Hamming distances.
    ///
    /// Mixing the two variants is a caller bug.
    pub fn hamming(&self, other: &Self) -> usize {
        match (self, other) {
            (ReprKey::Union(a), ReprKey::Union(b)) => a.hamming(b),
            (ReprKey::Separate(a), ReprKey::Separate(b)) => {
                a.iter().zip(b.iter()).map(|(x, y)| x.hamming(y)).sum()
            }
            _ => panic!("cannot mix union and separate representation keys"),
        }
    }

    /// Number of bit-coordinates of this representation per database column
    /// (1 for union, 4 for separate); used to normalize `S` into `[0, 1]`.
    pub fn coords_per_column(&self) -> usize {
        match self {
            ReprKey::Union(_) => 1,
            ReprKey::Separate(_) => 4,
        }
    }
}

/// Builds the sparse support of `|V_{W1} - V_{W2}|`: each representation
/// key occurring in either workload, with the absolute difference of its
/// normalized frequencies (zero-difference entries are dropped).
pub fn diff_support<F>(w1: &Workload, w2: &Workload, mut repr: F) -> Vec<(ReprKey, f64)>
where
    F: FnMut(&Query) -> ReprKey,
{
    // Key order, not hash order: float summation in the quadratic form
    // must not depend on how the keys were stored.
    let mut diff: BTreeMap<ReprKey, f64> = BTreeMap::new();
    for (q, f) in w1.normalized() {
        *diff.entry(repr(q)).or_insert(0.0) += f;
    }
    for (q, f) in w2.normalized() {
        *diff.entry(repr(q)).or_insert(0.0) -= f;
    }
    diff.into_iter()
        .filter_map(|(k, d)| {
            let a = d.abs();
            (a > 1e-15).then_some((k, a))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_workload::{PredOp, QueryBuilder, TableId};

    fn q(sel: &[u32], filt: &[(u32, f64)]) -> Query {
        let mut b = QueryBuilder::new(TableId(0)).select(sel);
        for &(c, s) in filt {
            b = b.filter(c, PredOp::Eq, s);
        }
        b.build()
    }

    #[test]
    fn union_key_respects_mask() {
        let query = q(&[1, 2], &[(3, 0.1)]);
        let full = ReprKey::union_of(&query, ClauseMask::SWGO);
        let sel_only = ReprKey::union_of(&query, ClauseMask::S);
        assert_eq!(full, ReprKey::Union(ColumnSet::from_ids(&[1, 2, 3])));
        assert_eq!(sel_only, ReprKey::Union(ColumnSet::from_ids(&[1, 2])));
    }

    #[test]
    fn separate_distinguishes_clause_placement() {
        let a = q(&[1, 2], &[]);
        let b = q(&[1], &[(2, 0.1)]);
        assert_eq!(
            ReprKey::union_of(&a, ClauseMask::SWGO),
            ReprKey::union_of(&b, ClauseMask::SWGO)
        );
        assert_ne!(ReprKey::separate_of(&a), ReprKey::separate_of(&b));
        // 2 appears in SELECT of a, WHERE of b: hamming 1 + 1 = 2
        assert_eq!(
            ReprKey::separate_of(&a).hamming(&ReprKey::separate_of(&b)),
            2
        );
    }

    #[test]
    fn diff_support_drops_identical_mass() {
        let w1 = Workload::from_queries([(q(&[1], &[]), 1.0), (q(&[2], &[]), 1.0)]);
        let w2 = Workload::from_queries([(q(&[1], &[]), 1.0), (q(&[3], &[]), 1.0)]);
        let d = diff_support(&w1, &w2, |q| ReprKey::union_of(q, ClauseMask::SWGO));
        // {1} cancels; {2} and {3} remain at |±0.5|
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|(_, v)| (*v - 0.5).abs() < 1e-12));
    }

    #[test]
    fn diff_support_empty_for_identical() {
        let w = Workload::from_queries([(q(&[1, 2], &[(3, 0.2)]), 2.0)]);
        let d = diff_support(&w, &w, |q| ReprKey::union_of(q, ClauseMask::SWGO));
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn mixed_keys_panic() {
        let query = q(&[1], &[]);
        let a = ReprKey::union_of(&query, ClauseMask::SWGO);
        let b = ReprKey::separate_of(&query);
        let _ = a.hamming(&b);
    }
}
