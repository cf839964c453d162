//! Property-based tests of the engine cost models: the invariants every
//! cost-based optimizer must satisfy regardless of inputs.

use cliffguard_sim::{
    ColumnarDesign, ColumnarEngine, Engine, Index, MatView, PhysicalDesign, Projection, RowDesign,
    RowEngine, RowStructure,
};
use cliffguard_storage::{Catalog, CatalogGenerator, ColumnDef, ColumnStats, TableDef};
use cliffguard_workload::generator::SchemaShape;
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

/// SplitMix64: a self-contained, reproducible stream per generated case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A catalog of 2–6 tables, 2–9 columns each.
fn multi_table_catalog(rng: &mut Rng) -> Catalog {
    let widths: Vec<u32> = (0..2 + rng.below(5))
        .map(|_| 2 + rng.below(8) as u32)
        .collect();
    CatalogGenerator {
        seed: rng.next(),
        ..CatalogGenerator::default()
    }
    .generate(&SchemaShape::new(widths))
}

/// A random column of table `t`.
fn column_of(rng: &mut Rng, c: &Catalog, t: TableId) -> ColumnId {
    c.column_id(t, rng.below(c.table(t).columns.len()))
}

/// A query over an anchor and up to two joined tables, with selects and
/// filters of every kind; with `ordered`, sometimes grouping and
/// ordering too, and otherwise at most a scalar aggregate.
fn join_query(rng: &mut Rng, c: &Catalog, ordered: bool) -> Query {
    let anchor = TableId(rng.below(c.table_count()) as u32);
    let mut tables = vec![anchor];
    let mut b = QueryBuilder::new(anchor);
    for _ in 0..rng.below(3) {
        let t = TableId(rng.below(c.table_count()) as u32);
        if !tables.contains(&t) {
            tables.push(t);
            b = b.join(t);
        }
    }
    let pick = |rng: &mut Rng| {
        let t = tables[rng.below(tables.len())];
        column_of(rng, c, t).0
    };
    for _ in 0..1 + rng.below(3) {
        let col = pick(rng);
        b = b.select(&[col]);
    }
    for _ in 0..rng.below(4) {
        let col = pick(rng);
        let op = [PredOp::Eq, PredOp::Range, PredOp::Like, PredOp::In][rng.below(4)];
        b = b.filter(col, op, 1e-4 + rng.unit() * 0.5);
    }
    if ordered && rng.below(3) == 0 {
        let col = pick(rng);
        b = b.group_by(&[col]);
    } else if rng.below(4) == 0 {
        b = b.aggregate();
    }
    if ordered && rng.below(3) == 0 {
        let col = pick(rng);
        b = b.order_by(&[col]);
    }
    b.build()
}

/// A table the query reads (most often) or any table.
fn table_for(rng: &mut Rng, c: &Catalog, q: &Query) -> TableId {
    match rng.below(4) {
        0 => TableId(rng.below(c.table_count()) as u32),
        1 if !q.joins.is_empty() => q.joins[rng.below(q.joins.len())],
        _ => q.anchor,
    }
}

/// 1 to `most` distinct columns of table `t`: mostly the query's own, so
/// the structure can serve it, sometimes any of the table's.
fn structure_columns(
    rng: &mut Rng,
    c: &Catalog,
    q: &Query,
    t: TableId,
    most: usize,
) -> Vec<ColumnId> {
    let own: Vec<ColumnId> = q
        .all_columns()
        .iter()
        .filter(|&col| c.table_of(col) == t)
        .collect();
    let mut cols = Vec::new();
    for _ in 0..1 + rng.below(most) {
        let col = match own.is_empty() || rng.below(3) == 0 {
            true => column_of(rng, c, t),
            false => own[rng.below(own.len())],
        };
        if !cols.contains(&col) {
            cols.push(col);
        }
    }
    cols
}

fn projection_for(rng: &mut Rng, c: &Catalog, q: &Query) -> Projection {
    let t = table_for(rng, c, q);
    let cols = structure_columns(rng, c, q, t, 6);
    let sort = cols[..rng.below(cols.len().min(3) + 1)].to_vec();
    Projection::new(t, ColumnSet::from_iter(cols), sort)
}

/// An index keyed by a prefix of the query's predicate columns on the
/// table (most often) or by random columns, or a materialized view
/// grouped by some of its stored columns.
fn row_structure_for(rng: &mut Rng, c: &Catalog, q: &Query) -> RowStructure {
    let t = table_for(rng, c, q);
    if rng.below(2) == 0 {
        let mut filtered: Vec<ColumnId> = Vec::new();
        for p in &q.predicates {
            if c.table_of(p.column) == t && !filtered.contains(&p.column) {
                filtered.push(p.column);
            }
        }
        let key = match filtered.is_empty() || rng.below(4) == 0 {
            true => structure_columns(rng, c, q, t, 3),
            false => filtered[..1 + rng.below(filtered.len())].to_vec(),
        };
        RowStructure::Index(Index::new(t, key))
    } else {
        let cols = structure_columns(rng, c, q, t, 6);
        let group = ColumnSet::from_iter(cols[..1 + rng.below(cols.len())].iter().copied());
        RowStructure::MatView(MatView::new(t, ColumnSet::from_iter(cols), group))
    }
}

/// A design of up to three structures, and the same design with one
/// more.
fn design_pair<S: Clone>(rng: &mut Rng, mut structure: impl FnMut(&mut Rng) -> S) -> [Vec<S>; 2] {
    let design: Vec<S> = (0..rng.below(4)).map(|_| structure(rng)).collect();
    let mut bigger = design.clone();
    bigger.push(structure(rng));
    [design, bigger]
}

/// Latency under each design of a pair, and each table's access cost.
fn columnar_costs(
    e: &ColumnarEngine,
    q: &Query,
    pair: [Vec<Projection>; 2],
) -> [(f64, Vec<f64>); 2] {
    pair.map(|d| {
        let d = ColumnarDesign::from_structures(d);
        let access = e.explain(q, &d).accesses.iter().map(|a| a.est_ms).collect();
        (e.query_latency_ms(q, &d), access)
    })
}

fn row_costs(e: &RowEngine, q: &Query, pair: [Vec<RowStructure>; 2]) -> [(f64, Vec<f64>); 2] {
    pair.map(|d| {
        let d = RowDesign::from_structures(d);
        let access = e.explain(q, &d).into_iter().map(|(_, _, ms)| ms).collect();
        (e.query_latency_ms(q, &d), access)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On generated multi-table catalogs and join queries with grouping
    /// and ordering, an added projection, index (keyed by a prefix of the
    /// query's predicate columns or by other columns) or materialized view
    /// never raises the access cost of any table the query reads: each
    /// table's optimizer only gains access paths.
    #[test]
    fn an_added_structure_never_raises_a_table_access(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let c = multi_table_catalog(&mut rng);
        let q = join_query(&mut rng, &c, true);
        let pair = design_pair(&mut rng, |rng| projection_for(rng, &c, &q));
        let [(_, before), (_, after)] = columnar_costs(&ColumnarEngine::new(c.clone()), &q, pair);
        for (a, b) in after.iter().zip(&before) {
            prop_assert!(a <= b, "columnar access {a} > {b}");
        }
        let pair = design_pair(&mut rng, |rng| row_structure_for(rng, &c, &q));
        let [(_, before), (_, after)] = row_costs(&RowEngine::new(c), &q, pair);
        for (a, b) in after.iter().zip(&before) {
            prop_assert!(a <= b, "row access {a} > {b}");
        }
    }

    /// Without a GROUP BY or ORDER BY, a table's access path choice moves
    /// nothing but its access cost, so the whole join query's latency
    /// never rises either, on both engines.
    #[test]
    fn an_added_structure_never_hurts_a_join_query_without_an_interesting_order(
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        let c = multi_table_catalog(&mut rng);
        let q = join_query(&mut rng, &c, false);
        let pair = design_pair(&mut rng, |rng| projection_for(rng, &c, &q));
        let [(before, _), (after, _)] = columnar_costs(&ColumnarEngine::new(c.clone()), &q, pair);
        prop_assert!(before.is_finite() && before > 0.0);
        prop_assert!(after <= before, "columnar {after} > {before} for {q:?}");
        let pair = design_pair(&mut rng, |rng| row_structure_for(rng, &c, &q));
        let [(before, _), (after, _)] = row_costs(&RowEngine::new(c), &q, pair);
        prop_assert!(before.is_finite() && before > 0.0);
        prop_assert!(after <= before, "row {after} > {before} for {q:?}");
    }
}

/// A counterexample the generated search found: with a GROUP BY, a
/// projection that scans a little cheaper displaces one whose sort order
/// streamed the aggregation, and the query gets slower. The optimizer
/// picks each table's access path by access cost alone, so latency is
/// not monotone in the design once an order matters. Pinned so a cost
/// model that weighs interesting orders changes this on purpose.
#[test]
fn a_cheaper_projection_can_forfeit_streaming_aggregation() {
    let e = ColumnarEngine::new(catalog());
    let q = QueryBuilder::new(TableId(0))
        .select(&[0])
        .group_by(&[5])
        .build();
    let streams = Projection::new(
        TableId(0),
        ColumnSet::from_ids(&[0, 2, 5]),
        vec![ColumnId(5)],
    );
    let cheaper = Projection::new(
        TableId(0),
        ColumnSet::from_ids(&[0, 5]),
        vec![ColumnId(0), ColumnId(5)],
    );
    let [(before, scan_before), (after, scan_after)] = columnar_costs(
        &e,
        &q,
        [vec![streams.clone()], vec![streams, cheaper.clone()]],
    );
    assert!(scan_after[0] < scan_before[0]);
    assert_eq!(
        e.chosen_projection(&q, &ColumnarDesign::from_structures(vec![cheaper.clone()])),
        Some(cheaper)
    );
    assert!(after > before, "{after} <= {before}");
}

/// The row engine's counterpart: an index that reads fewer bytes than
/// the materialized view displaces it, and the query pays the
/// aggregation the view had already done.
#[test]
fn an_index_can_displace_a_view_that_had_aggregated() {
    let e = RowEngine::new(catalog());
    let q = QueryBuilder::new(TableId(0))
        .select(&[4])
        .filter(4, PredOp::Eq, 0.0044)
        .group_by(&[4])
        .build();
    let view = RowStructure::MatView(MatView::new(
        TableId(0),
        ColumnSet::from_ids(&[4]),
        ColumnSet::from_ids(&[4]),
    ));
    let index = RowStructure::Index(Index::new(TableId(0), vec![ColumnId(4)]));
    let [(before, access_before), (after, access_after)] =
        row_costs(&e, &q, [vec![view.clone()], vec![view, index]]);
    assert!(access_after[0] < access_before[0]);
    assert!(after > before, "{after} <= {before}");
}
