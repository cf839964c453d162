//! Property-based tests of the engine cost models: the invariants every
//! cost-based optimizer must satisfy regardless of inputs.

use cliffguard_sim::{
    ColumnarDesign, ColumnarEngine, Engine, Index, MatView, PhysicalDesign, Projection, RowDesign,
    RowEngine, RowStructure,
};
use cliffguard_storage::{Catalog, ColumnDef, ColumnStats, TableDef};
use cliffguard_workload::{ColumnId, ColumnSet, PredOp, Query, QueryBuilder, TableId};
use proptest::prelude::*;

const N_COLS: u32 = 10;

fn catalog() -> Catalog {
    Catalog::new(vec![TableDef {
        name: "fact".into(),
        columns: (0..N_COLS)
            .map(|i| ColumnDef {
                name: format!("c{i}"),
                width_bytes: 4 + 4 * (i % 3),
                stats: ColumnStats::uniform(10u64.pow(1 + i % 5)),
            })
            .collect(),
        rows: 5_000_000,
    }])
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        proptest::collection::vec(0..N_COLS, 1..4),
        proptest::collection::vec((0..N_COLS, 0.0001f64..0.9, 0..4u8), 0..3),
        proptest::collection::vec(0..N_COLS, 0..2),
        proptest::collection::vec(0..N_COLS, 0..2),
    )
        .prop_map(|(sel, filt, group, order)| {
            let mut b = QueryBuilder::new(TableId(0)).select(&sel);
            for (c, s, op) in filt {
                let op = match op {
                    0 => PredOp::Eq,
                    1 => PredOp::Range,
                    2 => PredOp::In,
                    _ => PredOp::Like,
                };
                b = b.filter(c, op, s);
            }
            if !group.is_empty() {
                b = b.group_by(&group);
            }
            b.order_by(&order).build()
        })
}

fn arb_projection() -> impl Strategy<Value = Projection> {
    proptest::collection::btree_set(0..N_COLS, 1..6).prop_map(|cols| {
        let cols: Vec<u32> = cols.into_iter().collect();
        let sort: Vec<ColumnId> = cols.iter().take(2).map(|&c| ColumnId(c)).collect();
        Projection::new(TableId(0), ColumnSet::from_ids(&cols), sort)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn latency_positive_and_finite(q in arb_query(), p in arb_projection()) {
        let e = ColumnarEngine::new(catalog());
        let designs = [
            ColumnarDesign::empty(),
            ColumnarDesign::from_structures(vec![p]),
        ];
        for d in &designs {
            let l = e.query_latency_ms(&q, d);
            prop_assert!(l.is_finite() && l > 0.0);
        }
    }

    #[test]
    fn adding_a_projection_never_hurts(q in arb_query(), p in arb_projection(), extra in arb_projection()) {
        // The optimizer picks the best access path: more options can only
        // reduce (or keep) the latency.
        let e = ColumnarEngine::new(catalog());
        let base = ColumnarDesign::from_structures(vec![p.clone()]);
        let bigger = ColumnarDesign::from_structures(vec![p, extra]);
        prop_assert!(
            e.query_latency_ms(&q, &bigger) <= e.query_latency_ms(&q, &base) + 1e-9
        );
    }

    #[test]
    fn empty_design_upper_bounds(q in arb_query(), p in arb_projection()) {
        let e = ColumnarEngine::new(catalog());
        let tuned = ColumnarDesign::from_structures(vec![p]);
        prop_assert!(
            e.query_latency_ms(&q, &tuned)
                <= e.query_latency_ms(&q, &ColumnarDesign::empty()) + 1e-9
        );
    }

    #[test]
    fn projection_price_positive_and_below_uncompressed(p in arb_projection()) {
        let cat = catalog();
        let price = p.size_bytes(&cat);
        prop_assert!(price > 0);
        let uncompressed: u64 = p
            .columns
            .iter()
            .map(|c| cat.table(TableId(0)).rows * cat.column(c).width_bytes as u64)
            .sum();
        prop_assert!(price <= uncompressed);
    }

    #[test]
    fn higher_selectivity_never_cheapens_covered_scan(
        sel_lo in 0.0001f64..0.01,
        ratio in 2.0f64..100.0
    ) {
        // A less selective predicate scans more through a matching sorted
        // projection — latency must be monotone in selectivity.
        let e = ColumnarEngine::new(catalog());
        let proj = Projection::new(
            TableId(0),
            ColumnSet::from_ids(&[1, 2]),
            vec![ColumnId(1)],
        );
        let d = ColumnarDesign::from_structures(vec![proj]);
        let q = |s: f64| {
            QueryBuilder::new(TableId(0)).select(&[2]).filter(1, PredOp::Eq, s).build()
        };
        let lo = e.query_latency_ms(&q(sel_lo), &d);
        let hi = e.query_latency_ms(&q((sel_lo * ratio).min(1.0)), &d);
        prop_assert!(hi >= lo - 1e-9);
    }

    #[test]
    fn row_engine_structures_never_hurt(q in arb_query()) {
        let e = RowEngine::new(catalog());
        let idx = RowStructure::Index(Index::new(TableId(0), vec![ColumnId(1), ColumnId(2)]));
        let mv = RowStructure::MatView(MatView::new(
            TableId(0),
            ColumnSet::from_ids(&[1, 2, 3]),
            ColumnSet::from_ids(&[1]),
        ));
        let empty = RowDesign::empty();
        let full = RowDesign::from_structures(vec![idx, mv]);
        prop_assert!(
            e.query_latency_ms(&q, &full) <= e.query_latency_ms(&q, &empty) + 1e-9
        );
    }

    #[test]
    fn workload_cost_totals_consistent(qs in proptest::collection::vec((arb_query(), 1.0f64..10.0), 1..6)) {
        let e = ColumnarEngine::new(catalog());
        let w = cliffguard_workload::Workload::from_queries(qs);
        let c = e.workload_cost(&w, &ColumnarDesign::empty());
        prop_assert!(c.max_ms >= c.avg_ms - 1e-9);
        prop_assert!((c.total_ms / w.total_weight() - c.avg_ms).abs() < 1e-6);
    }

    /// Designs with different structure sets get different fingerprints;
    /// the same set in any order gets the same one. The cost kernel keys
    /// its epoch memo by this fingerprint, so a collision would serve one
    /// design's latencies for another.
    #[test]
    fn distinct_designs_do_not_collide(
        groups_a in proptest::collection::vec(
            proptest::collection::vec(0u32..N_COLS, 1..4), 0..5),
        groups_b in proptest::collection::vec(
            proptest::collection::vec(0u32..N_COLS, 1..4), 0..5),
    ) {
        let a = design_of(&groups_a);
        let b = design_of(&groups_b);
        if canonical(&a) == canonical(&b) {
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
        } else {
            prop_assert_ne!(a.fingerprint(), b.fingerprint());
        }
        // Order insensitivity, explicitly: reversed construction.
        let mut reversed = groups_a.clone();
        reversed.reverse();
        prop_assert_eq!(a.fingerprint(), design_of(&reversed).fingerprint());
    }
}

/// `price_bytes` and `len` as the trait's defaults compute them: a sum and
/// a count over `structures()`.
fn via_structures<D: PhysicalDesign>(d: &D, cat: &Catalog) -> (u64, usize) {
    let structures = d.structures();
    let price = structures.iter().map(|s| D::structure_price(s, cat)).sum();
    (price, structures.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both engines' designs price and count their structures in place;
    /// that must equal pricing and counting `structures()`.
    #[test]
    fn in_place_price_and_len_match_structures(
        projections in proptest::collection::vec(arb_projection(), 0..6),
        keys in proptest::collection::vec(proptest::collection::vec(0..N_COLS, 1..4), 0..4),
        views in proptest::collection::vec(proptest::collection::vec(0..N_COLS, 1..5), 0..4),
    ) {
        let cat = catalog();
        let columnar = ColumnarDesign::from_structures(projections);
        let indexes = keys.iter().map(|key| {
            RowStructure::Index(Index::new(TableId(0), key.iter().map(|&c| ColumnId(c)).collect()))
        });
        let views = views.iter().map(|cols| {
            RowStructure::MatView(MatView::new(
                TableId(0),
                ColumnSet::from_ids(cols),
                ColumnSet::from_ids(&cols[..1]),
            ))
        });
        let row = RowDesign::from_structures(indexes.chain(views).collect());
        prop_assert_eq!((columnar.price_bytes(&cat), columnar.len()), via_structures(&columnar, &cat));
        prop_assert_eq!((row.price_bytes(&cat), row.len()), via_structures(&row, &cat));
    }
}

/// A design of unsorted projections, one per column group.
fn design_of(col_groups: &[Vec<u32>]) -> ColumnarDesign {
    ColumnarDesign::from_structures(
        col_groups
            .iter()
            .map(|g| Projection::new(TableId(0), ColumnSet::from_ids(g), vec![]))
            .collect(),
    )
}

/// Canonical form of a design's structure set, for deciding whether two
/// generated designs are actually distinct.
fn canonical(d: &ColumnarDesign) -> Vec<String> {
    let mut s: Vec<String> = d.structures().iter().map(|p| format!("{p:?}")).collect();
    s.sort();
    s
}

#[test]
fn join_query_charges_both_tables() {
    let cat = Catalog::new(vec![
        TableDef {
            name: "a".into(),
            columns: vec![ColumnDef {
                name: "x".into(),
                width_bytes: 8,
                stats: ColumnStats::uniform(1000),
            }],
            rows: 1_000_000,
        },
        TableDef {
            name: "b".into(),
            columns: vec![ColumnDef {
                name: "y".into(),
                width_bytes: 8,
                stats: ColumnStats::uniform(1000),
            }],
            rows: 1_000_000,
        },
    ]);
    let e = ColumnarEngine::new(cat);
    let single = QueryBuilder::new(TableId(0)).select(&[0]).build();
    let joined = QueryBuilder::new(TableId(0))
        .select(&[0, 1])
        .join(TableId(1))
        .build();
    let d = ColumnarDesign::empty();
    assert!(e.query_latency_ms(&joined, &d) > e.query_latency_ms(&single, &d));
}
