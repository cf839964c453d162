//! The row-store (DBMS-X-like) engine: heap tables, secondary B-tree
//! indexes, and materialized views.
//!
//! DBMS-X "finds various types of indices and materialized views"
//! (Section 6.1). The cost model:
//!
//! * **Heap scan** reads the *full row width* — the columnar engine's
//!   column-selective advantage does not exist here, which is why DBMS-X
//!   margins in the paper (2–5×) are smaller than Vertica's (up to 40×).
//! * **Index** on a key prefix matching the query's predicates: a covering
//!   index leaf-scans just the matched range; a non-covering index pays a
//!   random heap fetch per matched row (and is therefore only chosen when
//!   selective enough to beat the scan).
//! * **Materialized view** answers a matching aggregate from pre-grouped
//!   rows; an exact group-by match is free of re-aggregation, a coarser
//!   query re-aggregates the view's rows.

use crate::engine::{Engine, PhysicalDesign, PlanningEngine};
use cliffguard_storage::{Catalog, CostConstants};
use cliffguard_workload::{ColumnId, ColumnSet, PredOp, Predicate, Query, TableId};
use serde::{Deserialize, Serialize};

/// Fraction of matched rows that still incur a random heap fetch through a
/// non-covering index (partial clustering / buffer hits).
const HEAP_FETCH_FRACTION: f64 = 0.2;
/// B-tree descent cost in random I/Os.
const BTREE_DESCENT_IOS: f64 = 3.0;
/// Per-row space overhead of an index entry (pointers, headers), bytes.
const INDEX_ENTRY_OVERHEAD: u64 = 12;

/// A secondary B-tree index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Index {
    /// Indexed table.
    pub table: TableId,
    /// Key columns, most significant first.
    pub key: Vec<ColumnId>,
}

impl Index {
    /// Creates an index.
    pub fn new(table: TableId, key: Vec<ColumnId>) -> Self {
        assert!(!key.is_empty(), "index needs at least one key column");
        Self { table, key }
    }

    /// Key columns as a set.
    pub fn key_set(&self) -> ColumnSet {
        ColumnSet::from_iter(self.key.iter().copied())
    }

    /// Stored size in bytes.
    pub fn size_bytes(&self, catalog: &Catalog) -> u64 {
        let rows = catalog.table(self.table).rows;
        let entry: u64 = self
            .key
            .iter()
            .map(|&c| catalog.column(c).width_bytes as u64)
            .sum::<u64>()
            + INDEX_ENTRY_OVERHEAD;
        rows * entry
    }
}

/// A materialized view: pre-aggregated columns grouped by `group_by`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatView {
    /// Source table.
    pub table: TableId,
    /// Stored columns (must include the group-by columns).
    pub columns: ColumnSet,
    /// Grouping columns.
    pub group_by: ColumnSet,
}

impl MatView {
    /// Creates a materialized view; the grouping columns must be stored.
    pub fn new(table: TableId, columns: ColumnSet, group_by: ColumnSet) -> Self {
        assert!(
            group_by.is_subset(&columns),
            "group-by columns must be stored in the view"
        );
        assert!(
            !group_by.is_empty(),
            "views are grouped; use an index otherwise"
        );
        Self {
            table,
            columns,
            group_by,
        }
    }

    /// Expected number of rows (groups) of the view.
    pub fn group_rows(&self, catalog: &Catalog) -> u64 {
        let rows = catalog.table(self.table).rows;
        let mut groups: f64 = 1.0;
        for c in self.group_by.iter() {
            groups = (groups * catalog.column(c).stats.ndv as f64).min(rows as f64);
        }
        groups.max(1.0) as u64
    }

    /// Stored size in bytes.
    pub fn size_bytes(&self, catalog: &Catalog) -> u64 {
        let width: u64 = self
            .columns
            .iter()
            .map(|c| catalog.column(c).width_bytes as u64)
            .sum();
        self.group_rows(catalog) * width
    }
}

/// One structure of a row-store design.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowStructure {
    /// A secondary index.
    Index(Index),
    /// A materialized view.
    MatView(MatView),
}

/// A row-store physical design: indexes + materialized views.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RowDesign {
    /// Secondary indexes.
    pub indexes: Vec<Index>,
    /// Materialized views.
    pub views: Vec<MatView>,
}

impl RowDesign {
    /// The empty design.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adds a structure if not already present.
    pub fn add(&mut self, s: RowStructure) {
        match s {
            RowStructure::Index(i) => {
                if !self.indexes.contains(&i) {
                    self.indexes.push(i);
                }
            }
            RowStructure::MatView(v) => {
                if !self.views.contains(&v) {
                    self.views.push(v);
                }
            }
        }
    }
}

impl PhysicalDesign for RowDesign {
    type Structure = RowStructure;

    fn structures(&self) -> Vec<RowStructure> {
        self.indexes
            .iter()
            .cloned()
            .map(RowStructure::Index)
            .chain(self.views.iter().cloned().map(RowStructure::MatView))
            .collect()
    }

    fn from_structures(structures: Vec<RowStructure>) -> Self {
        let mut d = Self::default();
        for s in structures {
            d.add(s);
        }
        d
    }

    fn structure_price(s: &RowStructure, catalog: &Catalog) -> u64 {
        match s {
            RowStructure::Index(i) => i.size_bytes(catalog),
            RowStructure::MatView(v) => v.size_bytes(catalog),
        }
    }

    // `price_bytes` and `len` read the indexes and views in place, as
    // `fingerprint` does.
    fn price_bytes(&self, catalog: &Catalog) -> u64 {
        let indexes: u64 = self.indexes.iter().map(|i| i.size_bytes(catalog)).sum();
        let views: u64 = self.views.iter().map(|v| v.size_bytes(catalog)).sum();
        indexes + views
    }

    fn len(&self) -> usize {
        self.indexes.len() + self.views.len()
    }

    fn fingerprint(&self) -> u64 {
        // In place, without materializing `RowStructure` wrappers; the
        // (kind, inner) tuples hash distinctly per kind, so an index and
        // a view over the same columns cannot collide structurally.
        crate::engine::combine_structure_hashes(
            self.indexes
                .iter()
                .map(|i| crate::engine::structure_hash((0u8, i)))
                .chain(
                    self.views
                        .iter()
                        .map(|v| crate::engine::structure_hash((1u8, v))),
                ),
        )
    }
}

/// The row-store engine.
#[derive(Debug, Clone)]
pub struct RowEngine {
    catalog: Catalog,
    cost: CostConstants,
}

/// Access path chosen by the row optimizer for one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowPath {
    /// Sequential heap scan.
    SeqScan,
    /// Index access; `covering` means no heap fetches were needed.
    Index {
        /// The chosen index.
        index: Index,
        /// Whether the index covers all referenced columns.
        covering: bool,
    },
    /// Materialized-view rewrite.
    MatView(MatView),
}

/// Outcome of choosing the best access path for one table.
struct Access {
    ms: f64,
    survived: f64,
    /// True when an exactly-matching MV already produced the aggregate.
    agg_done: bool,
    path: RowPath,
}

/// One table slice of a compiled row plan.
#[derive(Debug, Clone)]
struct RowPlannedTable {
    table: TableId,
    referenced: ColumnSet,
    preds: Vec<Predicate>,
}

/// A compiled row-store plan: the per-table decomposition and the query
/// attributes the access-path chooser and post-processing read, hoisted out
/// of `query_latency_ms` so the design-epoch kernel's fill loop does no
/// repeated allocation.
#[derive(Debug, Clone)]
pub struct RowPlan {
    tables: Vec<RowPlannedTable>,
    aggregates: bool,
    group_by: ColumnSet,
    filter: ColumnSet,
    has_order_by: bool,
}

impl RowEngine {
    /// Creates the engine with default cost constants.
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            cost: CostConstants::default(),
        }
    }

    /// Matched selectivity of predicates against an index key prefix.
    fn prefix_selectivity(key: &[ColumnId], preds: &[Predicate]) -> f64 {
        let mut sel = 1.0;
        let mut matched = false;
        for &c in key {
            let best = preds
                .iter()
                .filter(|p| p.column == c)
                .min_by(|a, b| a.selectivity.total_cmp(&b.selectivity));
            match best {
                Some(p) if p.op == PredOp::Eq => {
                    sel *= p.selectivity;
                    matched = true;
                }
                Some(p) if matches!(p.op, PredOp::Range | PredOp::In) => {
                    sel *= p.selectivity;
                    matched = true;
                    break;
                }
                _ => break,
            }
        }
        if matched {
            sel
        } else {
            1.0
        }
    }

    /// Sequential heap-scan cost for a table.
    fn scan_ms(&self, t: TableId) -> f64 {
        let table = self.catalog.table(t);
        let bytes = table.rows as f64 * table.row_width() as f64;
        self.cost.seq_read_ms(bytes) + self.cost.cpu_ms(table.rows as f64)
    }

    /// Best access path for one table of the query.
    fn table_access(
        &self,
        plan: &RowPlan,
        d: &RowDesign,
        pt: &RowPlannedTable,
        is_anchor: bool,
    ) -> Access {
        let t = pt.table;
        let referenced = &pt.referenced;
        let preds = &pt.preds;
        let table = self.catalog.table(t);
        let rows = table.rows as f64;
        let survived = rows
            * preds
                .iter()
                .map(|p| p.selectivity)
                .product::<f64>()
                .clamp(1e-12, 1.0);
        let survived = survived.max(1.0);

        let mut best = Access {
            ms: self.scan_ms(t),
            survived,
            agg_done: false,
            path: RowPath::SeqScan,
        };

        // Indexes.
        for idx in d.indexes.iter().filter(|i| i.table == t) {
            let sel = Self::prefix_selectivity(&idx.key, preds);
            if sel >= 1.0 {
                continue;
            }
            let matched = (rows * sel).max(1.0);
            let covering = referenced.is_subset(&idx.key_set());
            let ms = if covering {
                let entry: f64 = idx
                    .key
                    .iter()
                    .map(|&c| self.catalog.column(c).width_bytes as f64)
                    .sum();
                BTREE_DESCENT_IOS * self.cost.random_io_ms
                    + self.cost.seq_read_ms(matched * entry)
                    + self.cost.cpu_ms(matched)
            } else {
                BTREE_DESCENT_IOS * self.cost.random_io_ms
                    + matched * HEAP_FETCH_FRACTION * self.cost.random_io_ms
                    + self.cost.cpu_ms(matched)
            };
            if ms < best.ms {
                best = Access {
                    ms,
                    survived,
                    agg_done: false,
                    path: RowPath::Index {
                        index: idx.clone(),
                        covering,
                    },
                };
            }
        }

        // Materialized views (anchor only; view rewrites over joins are out
        // of scope, as in most commercial MV matchers of the era).
        if is_anchor && plan.aggregates && !plan.group_by.is_empty() {
            for v in d.views.iter().filter(|v| v.table == t) {
                let filters_ok = plan
                    .filter
                    .iter()
                    .filter(|&c| self.catalog.table_of(c) == t)
                    .all(|c| v.group_by.contains(c));
                if !referenced.is_subset(&v.columns)
                    || !plan.group_by.is_subset(&v.group_by)
                    || !filters_ok
                {
                    continue;
                }
                let vrows = v.group_rows(&self.catalog) as f64;
                let width: f64 = v
                    .columns
                    .iter()
                    .map(|c| self.catalog.column(c).width_bytes as f64)
                    .sum();
                let ms = self.cost.seq_read_ms(vrows * width) + self.cost.cpu_ms(vrows);
                if ms < best.ms {
                    let vsurvived = (vrows
                        * preds
                            .iter()
                            .map(|p| p.selectivity)
                            .product::<f64>()
                            .clamp(1e-12, 1.0))
                    .max(1.0);
                    best = Access {
                        ms,
                        survived: vsurvived,
                        agg_done: v.group_by == plan.group_by,
                        path: RowPath::MatView(v.clone()),
                    };
                }
            }
        }
        best
    }

    /// Explains the optimizer's per-table access-path choices for a query.
    pub fn explain(&self, q: &Query, d: &RowDesign) -> Vec<(TableId, RowPath, f64)> {
        let plan = self.compile_plan(q);
        plan.tables
            .iter()
            .enumerate()
            .map(|(i, pt)| {
                let acc = self.table_access(&plan, d, pt, i == 0);
                (pt.table, acc.path, acc.ms)
            })
            .collect()
    }

    fn per_table(&self, q: &Query) -> Vec<RowPlannedTable> {
        let mut tables = vec![q.anchor];
        for &t in &q.joins {
            if !tables.contains(&t) {
                tables.push(t);
            }
        }
        tables
            .into_iter()
            .map(|t| {
                let referenced: ColumnSet = q
                    .all_columns()
                    .iter()
                    .filter(|&c| self.catalog.table_of(c) == t)
                    .collect();
                let preds: Vec<Predicate> = q
                    .predicates
                    .iter()
                    .filter(|p| self.catalog.table_of(p.column) == t)
                    .copied()
                    .collect();
                RowPlannedTable {
                    table: t,
                    referenced,
                    preds,
                }
            })
            .collect()
    }
}

impl Engine for RowEngine {
    type Design = RowDesign;

    fn query_latency_ms(&self, q: &Query, d: &RowDesign) -> f64 {
        // Compile-then-evaluate: shares every arithmetic step with the
        // kernel's reused-plan path, so costs are bit-identical.
        self.plan_latency_ms(&self.compile_plan(q), d)
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn deployment_ms(&self, d: &RowDesign) -> f64 {
        let mut ms = 0.0;
        for i in &d.indexes {
            let rows = self.catalog.table(i.table).rows as f64;
            ms += self.cost.build_ms(i.size_bytes(&self.catalog) as f64) + self.cost.sort_ms(rows);
        }
        for v in &d.views {
            let rows = self.catalog.table(v.table).rows as f64;
            ms += self.cost.build_ms(v.size_bytes(&self.catalog) as f64) + self.cost.cpu_ms(rows);
        }
        ms
    }
}

impl PlanningEngine for RowEngine {
    type Plan = RowPlan;

    fn compile_plan(&self, q: &Query) -> RowPlan {
        RowPlan {
            tables: self.per_table(q),
            aggregates: q.aggregates,
            group_by: q.group_by.clone(),
            filter: q.filter.clone(),
            has_order_by: !q.order_by.is_empty(),
        }
    }

    fn plan_latency_ms(&self, plan: &RowPlan, d: &RowDesign) -> f64 {
        let mut total = self.cost.fixed_overhead_ms;
        let mut anchor = Access {
            ms: 0.0,
            survived: 1.0,
            agg_done: false,
            path: RowPath::SeqScan,
        };
        for (i, pt) in plan.tables.iter().enumerate() {
            let acc = self.table_access(plan, d, pt, i == 0);
            total += acc.ms;
            if i == 0 {
                anchor = acc;
            } else {
                total += self.cost.cpu_ms(acc.survived + anchor.survived * 0.5);
            }
        }
        // Aggregation.
        let mut out_rows = anchor.survived;
        if plan.aggregates && !plan.group_by.is_empty() {
            let mut groups = 1.0f64;
            for c in plan.group_by.iter() {
                groups = (groups * self.catalog.column(c).stats.ndv as f64).min(anchor.survived);
            }
            if !anchor.agg_done {
                total += self.cost.cpu_ms(anchor.survived * 1.2);
            }
            out_rows = groups;
        } else if plan.aggregates {
            total += self.cost.cpu_ms(anchor.survived * 0.3);
            out_rows = 1.0;
        }
        // Ordering (row stores always sort here).
        if plan.has_order_by {
            total += self.cost.sort_ms(out_rows);
        }
        total
    }

    fn plan_depends_on(&self, plan: &RowPlan, s: &RowStructure) -> bool {
        match s {
            // An index enters the access-path competition for a table slice
            // only when it matches the table and some predicate prefix
            // (`prefix_selectivity < 1.0` — the exact skip condition in
            // `table_access`).
            RowStructure::Index(i) => plan
                .tables
                .iter()
                .any(|pt| pt.table == i.table && Self::prefix_selectivity(&i.key, &pt.preds) < 1.0),
            // MVs are matched at the anchor only, and only for grouped
            // aggregates over the view's table.
            RowStructure::MatView(v) => {
                plan.aggregates
                    && !plan.group_by.is_empty()
                    && plan.tables.first().is_some_and(|pt| pt.table == v.table)
            }
        }
    }

    fn plan_tables_mask(&self, plan: &RowPlan) -> u64 {
        plan.tables
            .iter()
            .fold(0, |m, pt| m | crate::engine::table_mask_bit(pt.table))
    }

    fn structure_tables_mask(&self, s: &RowStructure) -> u64 {
        // Both arms of `plan_depends_on` require a same-table slice
        // (indexes at any slice, MVs at the anchor).
        crate::engine::table_mask_bit(match s {
            RowStructure::Index(i) => i.table,
            RowStructure::MatView(v) => v.table,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_storage::{ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::QueryBuilder;

    fn catalog() -> Catalog {
        Catalog::new(vec![TableDef {
            name: "fact".into(),
            columns: vec![
                ColumnDef {
                    name: "id".into(),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(10_000_000),
                },
                ColumnDef {
                    name: "region".into(),
                    width_bytes: 4,
                    stats: ColumnStats::uniform(100),
                },
                ColumnDef {
                    name: "amount".into(),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(1_000_000),
                },
                ColumnDef {
                    name: "day".into(),
                    width_bytes: 4,
                    stats: ColumnStats::uniform(365),
                },
            ],
            rows: 10_000_000,
        }])
    }

    fn engine() -> RowEngine {
        RowEngine::new(catalog())
    }

    #[test]
    fn selective_index_beats_scan() {
        let e = engine();
        let q = QueryBuilder::new(TableId(0))
            .select(&[2])
            .filter(0, PredOp::Eq, 1e-7)
            .build();
        let idx = RowDesign::from_structures(vec![RowStructure::Index(Index::new(
            TableId(0),
            vec![ColumnId(0)],
        ))]);
        let with = e.query_latency_ms(&q, &idx);
        let without = e.query_latency_ms(&q, &RowDesign::empty());
        assert!(with * 3.0 < without, "{with} vs {without}");
    }

    #[test]
    fn unselective_index_ignored() {
        let e = engine();
        let q = QueryBuilder::new(TableId(0))
            .select(&[2])
            .filter(1, PredOp::Range, 0.6)
            .build();
        let idx = RowDesign::from_structures(vec![RowStructure::Index(Index::new(
            TableId(0),
            vec![ColumnId(1)],
        ))]);
        // With 60% matched and random heap fetches, the optimizer should
        // stick to the sequential scan: latency identical to NoDesign.
        assert_eq!(
            e.query_latency_ms(&q, &idx),
            e.query_latency_ms(&q, &RowDesign::empty())
        );
    }

    #[test]
    fn covering_index_beats_non_covering() {
        let e = engine();
        let q = QueryBuilder::new(TableId(0))
            .select(&[2])
            .filter(1, PredOp::Eq, 0.01)
            .build();
        let covering = RowDesign::from_structures(vec![RowStructure::Index(Index::new(
            TableId(0),
            vec![ColumnId(1), ColumnId(2)],
        ))]);
        let fetching = RowDesign::from_structures(vec![RowStructure::Index(Index::new(
            TableId(0),
            vec![ColumnId(1)],
        ))]);
        assert!(e.query_latency_ms(&q, &covering) < e.query_latency_ms(&q, &fetching));
    }

    #[test]
    fn matview_answers_matching_aggregate() {
        let e = engine();
        let q = QueryBuilder::new(TableId(0))
            .select(&[1, 2])
            .group_by(&[1])
            .build();
        let mv = RowDesign::from_structures(vec![RowStructure::MatView(MatView::new(
            TableId(0),
            ColumnSet::from_ids(&[1, 2]),
            ColumnSet::from_ids(&[1]),
        ))]);
        let with = e.query_latency_ms(&q, &mv);
        let without = e.query_latency_ms(&q, &RowDesign::empty());
        assert!(with * 10.0 < without, "{with} vs {without}");
    }

    #[test]
    fn matview_not_used_for_non_matching_group() {
        let e = engine();
        // group by day, view grouped by region only → unusable
        let q = QueryBuilder::new(TableId(0))
            .select(&[2, 3])
            .group_by(&[3])
            .build();
        let mv = RowDesign::from_structures(vec![RowStructure::MatView(MatView::new(
            TableId(0),
            ColumnSet::from_ids(&[1, 2]),
            ColumnSet::from_ids(&[1]),
        ))]);
        assert_eq!(
            e.query_latency_ms(&q, &mv),
            e.query_latency_ms(&q, &RowDesign::empty())
        );
    }

    #[test]
    fn coarser_query_reaggregates_view() {
        let e = engine();
        // view grouped by (region, day); query groups by region only
        let fine = MatView::new(
            TableId(0),
            ColumnSet::from_ids(&[1, 2, 3]),
            ColumnSet::from_ids(&[1, 3]),
        );
        let q = QueryBuilder::new(TableId(0))
            .select(&[1, 2])
            .group_by(&[1])
            .build();
        let d = RowDesign::from_structures(vec![RowStructure::MatView(fine)]);
        let with = e.query_latency_ms(&q, &d);
        let without = e.query_latency_ms(&q, &RowDesign::empty());
        assert!(with < without);
    }

    #[test]
    fn prices_positive_and_views_smaller_than_base() {
        let cat = catalog();
        let idx = Index::new(TableId(0), vec![ColumnId(1)]);
        let mv = MatView::new(
            TableId(0),
            ColumnSet::from_ids(&[1, 2]),
            ColumnSet::from_ids(&[1]),
        );
        assert!(idx.size_bytes(&cat) > 0);
        assert!(mv.size_bytes(&cat) > 0);
        // 100 groups × 12B ≪ table
        let table_bytes = cat.table(TableId(0)).rows * cat.table(TableId(0)).row_width();
        assert!(mv.size_bytes(&cat) < table_bytes / 1000);
    }

    #[test]
    fn design_structures_roundtrip() {
        let idx = RowStructure::Index(Index::new(TableId(0), vec![ColumnId(1)]));
        let mv = RowStructure::MatView(MatView::new(
            TableId(0),
            ColumnSet::from_ids(&[1, 2]),
            ColumnSet::from_ids(&[1]),
        ));
        let d = RowDesign::from_structures(vec![idx.clone(), mv.clone(), idx.clone()]);
        assert_eq!(d.len(), 2);
        let back = RowDesign::from_structures(d.structures());
        assert_eq!(back, d);
    }

    #[test]
    fn deployment_time_positive() {
        let e = engine();
        let d = RowDesign::from_structures(vec![RowStructure::Index(Index::new(
            TableId(0),
            vec![ColumnId(1)],
        ))]);
        assert!(e.deployment_ms(&d) > 0.0);
        assert_eq!(e.deployment_ms(&RowDesign::empty()), 0.0);
    }

    #[test]
    fn explain_reports_path_kinds() {
        let e = engine();
        let selective = QueryBuilder::new(TableId(0))
            .select(&[2])
            .filter(0, PredOp::Eq, 1e-7)
            .build();
        let d = RowDesign::from_structures(vec![RowStructure::Index(Index::new(
            TableId(0),
            vec![ColumnId(0)],
        ))]);
        let plan = e.explain(&selective, &d);
        assert!(matches!(plan[0].1, RowPath::Index { .. }));
        let bare_plan = e.explain(&selective, &RowDesign::empty());
        assert_eq!(bare_plan[0].1, RowPath::SeqScan);
        assert!(bare_plan[0].2 > plan[0].2);

        // MV rewrite shows up as MatView.
        let agg = QueryBuilder::new(TableId(0))
            .select(&[1, 2])
            .group_by(&[1])
            .build();
        let mv = RowDesign::from_structures(vec![RowStructure::MatView(MatView::new(
            TableId(0),
            ColumnSet::from_ids(&[1, 2]),
            ColumnSet::from_ids(&[1]),
        ))]);
        assert!(matches!(e.explain(&agg, &mv)[0].1, RowPath::MatView(_)));
    }

    #[test]
    #[should_panic(expected = "group-by columns")]
    fn view_must_store_group_columns() {
        let _ = MatView::new(
            TableId(0),
            ColumnSet::from_ids(&[2]),
            ColumnSet::from_ids(&[1]),
        );
    }
}
