//! Property tests over workload and column-set algebra.

use cliffguard::prelude::*;
use proptest::prelude::*;

fn arb_set() -> impl Strategy<Value = ColumnSet> {
    proptest::collection::btree_set(0..200u32, 0..12)
        .prop_map(|s| ColumnSet::from_iter(s.into_iter().map(ColumnId)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn colset_union_contains_both(a in arb_set(), b in arb_set()) {
        let u = a.union(&b);
        prop_assert!(a.is_subset(&u));
        prop_assert!(b.is_subset(&u));
        prop_assert_eq!(u.len(), a.len() + b.len() - a.intersection(&b).len());
    }

    #[test]
    fn colset_difference_disjoint_from_other(a in arb_set(), b in arb_set()) {
        let d = a.difference(&b);
        prop_assert!(d.is_disjoint(&b));
        prop_assert!(d.is_subset(&a));
    }

    #[test]
    fn colset_hamming_is_symmetric_difference(a in arb_set(), b in arb_set()) {
        let sym = a.difference(&b).union(&b.difference(&a));
        prop_assert_eq!(a.hamming(&b), sym.len());
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn colset_hamming_triangle(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }

    #[test]
    fn colset_iter_roundtrip(a in arb_set()) {
        let rebuilt = ColumnSet::from_iter(a.iter());
        prop_assert_eq!(rebuilt, a.clone());
        // iteration ascending
        let ids: Vec<u32> = a.iter().map(|c| c.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ids, sorted);
    }

    #[test]
    fn workload_union_weight_additive(
        ws in proptest::collection::vec((proptest::collection::vec(0..30u32, 1..4), 0.5f64..20.0), 1..8)
    ) {
        let queries: Vec<(Query, f64)> = ws
            .into_iter()
            .map(|(sel, w)| (QueryBuilder::new(TableId(0)).select(&sel).build(), w))
            .collect();
        let a = Workload::from_queries(queries.clone());
        let u = a.union(&a);
        prop_assert!((u.total_weight() - 2.0 * a.total_weight()).abs() < 1e-9);
        prop_assert_eq!(u.len(), a.len());
        // Normalized frequencies are invariant under self-union.
        let metric = DeltaEuclidean::new(32);
        prop_assert!(metric.distance(&a, &u) < 1e-12);
    }

    #[test]
    fn move_workload_superset_invariants(
        w0_ws in proptest::collection::vec((0..20u32, 1.0f64..20.0), 1..5),
        n_ws in proptest::collection::vec((20..40u32, 1.0f64..20.0), 1..5),
        alpha in 0.1f64..4.0
    ) {
        let mk = |ws: Vec<(u32, f64)>| {
            Workload::from_queries(
                ws.into_iter()
                    .map(|(c, w)| (QueryBuilder::new(TableId(0)).select(&[c]).build(), w)),
            )
        };
        let w0 = mk(w0_ws);
        let n = mk(n_ws);
        let moved = move_workload(&w0, &[&n], |_| 1.0, alpha);
        // Every W0 query keeps at least its weight; every neighbor query
        // appears; weights finite.
        for (q, wt) in w0.iter() {
            prop_assert!(moved.weight_of(q) >= wt - 1e-9);
        }
        for (q, _) in n.iter() {
            prop_assert!(moved.weight_of(q) > 0.0);
        }
        for (_, wt) in moved.iter() {
            prop_assert!(wt.is_finite() && wt > 0.0);
        }
    }
}
