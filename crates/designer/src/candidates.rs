//! Engine-specific candidate enumeration.
//!
//! Commercial advisors derive candidates from the workload's queries: each
//! query suggests the structures that would serve it best, and similar
//! candidates are merged. We mirror that:
//!
//! * **Columnar**: per query and per touched table, a projection storing
//!   exactly the referenced columns, sorted by the most selective equality
//!   predicates, then the first range predicate, then group-by, then
//!   order-by columns. Additionally, per-table *merged* candidates union
//!   the columns of all of the table's queries (a wider projection that
//!   covers more but prunes less).
//! * **Row store**: per query, an index keyed by the equality-predicate
//!   columns (most selective first) optionally extended to cover the
//!   referenced columns; and, for grouped aggregates, a materialized view
//!   grouped by the query's group-by ∪ filter columns.

use crate::traits::CandidateGen;
use cliffguard_sim::Engine as _;
use cliffguard_sim::{ColumnarEngine, Index, MatView, Projection, RowEngine, RowStructure};
use cliffguard_workload::{ColumnId, ColumnSet, PredOp, Query, TableId, Workload};
use std::collections::HashMap;

/// Orders a query's predicate columns for a sort key / index key: equality
/// predicates by ascending selectivity, then the single most selective
/// range-ish predicate (anything after a range cannot be used).
fn predicate_key_order(
    q: &Query,
    table_of: impl Fn(ColumnId) -> TableId,
    t: TableId,
) -> Vec<ColumnId> {
    let mut eqs: Vec<(f64, ColumnId)> = Vec::new();
    let mut ranges: Vec<(f64, ColumnId)> = Vec::new();
    for p in &q.predicates {
        if table_of(p.column) != t {
            continue;
        }
        match p.op {
            PredOp::Eq => eqs.push((p.selectivity, p.column)),
            _ => ranges.push((p.selectivity, p.column)),
        }
    }
    eqs.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranges.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut key: Vec<ColumnId> = eqs.into_iter().map(|(_, c)| c).collect();
    if let Some((_, c)) = ranges.first() {
        if !key.contains(c) {
            key.push(*c);
        }
    }
    key
}

/// Projection candidate generation for the columnar engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnarCandidates;

impl ColumnarCandidates {
    /// The tailored projection for one query on one table — also used to
    /// compute per-query "ideal design" latencies for the evaluation's
    /// ≥3×-improvable filter.
    pub fn tailored(engine: &ColumnarEngine, q: &Query, t: TableId) -> Option<Projection> {
        let catalog = engine.catalog();
        let referenced: ColumnSet = q
            .all_columns()
            .iter()
            .filter(|&c| catalog.table_of(c) == t)
            .collect();
        if referenced.is_empty() {
            return None;
        }
        let mut sort = predicate_key_order(q, |c| catalog.table_of(c), t);
        for c in q.group_by.iter().chain(q.order_by.iter().copied()) {
            if catalog.table_of(c) == t && !sort.contains(&c) {
                sort.push(c);
            }
        }
        sort.retain(|c| referenced.contains(*c));
        Some(Projection::new(t, referenced, sort))
    }
}

impl CandidateGen<ColumnarEngine> for ColumnarCandidates {
    fn candidates(&self, engine: &ColumnarEngine, w: &Workload) -> Vec<Projection> {
        let mut out: Vec<Projection> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        // Per-table merged column sets (weighted by query frequency for the
        // merged candidate's sort order choice), in first-seen table order
        // so the candidate list never follows hash-map iteration order.
        let mut merged: Vec<(TableId, ColumnSet, HashMap<ColumnId, f64>)> = Vec::new();
        let mut slot: HashMap<TableId, usize> = HashMap::new();

        for (q, wt) in w.iter() {
            let mut tables = vec![q.anchor];
            tables.extend(q.joins.iter().copied());
            for t in tables {
                let Some(p) = Self::tailored(engine, q, t) else {
                    continue;
                };
                let i = *slot.entry(t).or_insert_with(|| {
                    merged.push((t, ColumnSet::default(), HashMap::new()));
                    merged.len() - 1
                });
                let (_, cols, votes) = &mut merged[i];
                cols.union_with(&p.columns);
                for (rank, &c) in p.sort_order.iter().enumerate() {
                    *votes.entry(c).or_insert(0.0) += wt / (rank + 1) as f64;
                }
                if seen.insert((p.table, p.columns.clone(), p.sort_order.clone())) {
                    out.push(p);
                }
            }
        }
        // Merged per-table candidates: all referenced columns, with one
        // variant per highly-voted lead sort column (Vertica's DBD likewise
        // proposes a few differently-sorted table-wide projections — the
        // generalizing backbone that also serves queries it never saw).
        for (t, cols, votes) in merged {
            let mut ranked: Vec<(ColumnId, f64)> = votes.into_iter().collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let top: Vec<ColumnId> = ranked
                .into_iter()
                .map(|(c, _)| c)
                .filter(|c| cols.contains(*c))
                .take(4)
                .collect();
            for lead in 0..top.len() {
                let mut sort = vec![top[lead]];
                sort.extend(top.iter().copied().filter(|c| *c != top[lead]).take(2));
                let p = Projection::new(t, cols.clone(), sort);
                if seen.insert((p.table, p.columns.clone(), p.sort_order.clone())) {
                    out.push(p);
                }
            }
        }
        out
    }
}

/// Index / materialized-view candidate generation for the row engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowCandidates;

impl RowCandidates {
    /// Tailored structures for one query (used for ideal-latency checks):
    /// the covering index and, if aggregating, the matching view.
    pub fn tailored(engine: &RowEngine, q: &Query) -> Vec<RowStructure> {
        let catalog = engine.catalog();
        let t = q.anchor;
        let mut out = Vec::new();
        let key = predicate_key_order(q, |c| catalog.table_of(c), t);
        if !key.is_empty() {
            // Covering variant: key extended with remaining referenced cols.
            let mut covering = key.clone();
            for c in q.all_columns().iter() {
                if catalog.table_of(c) == t && !covering.contains(&c) {
                    covering.push(c);
                }
            }
            out.push(RowStructure::Index(Index::new(t, key.clone())));
            if covering.len() > key.len() {
                out.push(RowStructure::Index(Index::new(t, covering)));
            }
        }
        if q.aggregates && !q.group_by.is_empty() {
            let anchor_cols: ColumnSet = q
                .all_columns()
                .iter()
                .filter(|&c| catalog.table_of(c) == t)
                .collect();
            let mut group: ColumnSet = q
                .group_by
                .iter()
                .filter(|&c| catalog.table_of(c) == t)
                .collect();
            // Views must be grouped by the filter columns too, or the
            // engine cannot apply the query's predicates against them.
            for c in q.filter.iter() {
                if catalog.table_of(c) == t {
                    group.insert(c);
                }
            }
            if !group.is_empty() {
                let cols = anchor_cols.union(&group);
                out.push(RowStructure::MatView(MatView::new(t, cols, group)));
            }
        }
        out
    }
}

impl CandidateGen<RowEngine> for RowCandidates {
    fn candidates(&self, engine: &RowEngine, w: &Workload) -> Vec<RowStructure> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (q, _) in w.iter() {
            for s in Self::tailored(engine, q) {
                if seen.insert(s.clone()) {
                    out.push(s);
                }
            }
            // Join-side single-column indexes on joined tables' predicates.
            let catalog = engine.catalog();
            for &t in &q.joins {
                let key = predicate_key_order(q, |c| catalog.table_of(c), t);
                if !key.is_empty() {
                    let s = RowStructure::Index(Index::new(t, key));
                    if seen.insert(s.clone()) {
                        out.push(s);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_sim::{Engine, PhysicalDesign as _};
    use cliffguard_storage::{Catalog, ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::QueryBuilder;

    fn catalog() -> Catalog {
        Catalog::new(vec![TableDef {
            name: "fact".into(),
            columns: (0..6)
                .map(|i| ColumnDef {
                    name: format!("c{i}"),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(1000),
                })
                .collect(),
            rows: 5_000_000,
        }])
    }

    #[test]
    fn columnar_candidates_cover_their_query() {
        let e = ColumnarEngine::new(catalog());
        let q = QueryBuilder::new(TableId(0))
            .select(&[2, 3])
            .filter(1, PredOp::Eq, 0.01)
            .group_by(&[2])
            .build();
        let w = Workload::from_queries([(q.clone(), 1.0)]);
        let cands = ColumnarCandidates.candidates(&e, &w);
        assert!(!cands.is_empty());
        let referenced = ColumnSet::from_ids(&[1, 2, 3]);
        assert!(cands.iter().all(|p| p.covers(&referenced)));
        // Tailored candidate sorts by the predicate column first.
        assert_eq!(cands[0].sort_order.first(), Some(&ColumnId(1)));
    }

    #[test]
    fn columnar_tailored_achieves_speedup() {
        let e = ColumnarEngine::new(catalog());
        let q = QueryBuilder::new(TableId(0))
            .select(&[2])
            .filter(1, PredOp::Eq, 0.001)
            .build();
        let p = ColumnarCandidates::tailored(&e, &q, TableId(0)).unwrap();
        let d = cliffguard_sim::ColumnarDesign::from_structures(vec![p]);
        let fast = e.query_latency_ms(&q, &d);
        let slow = e.query_latency_ms(&q, &cliffguard_sim::ColumnarDesign::empty());
        assert!(fast * 3.0 < slow);
    }

    #[test]
    fn merged_candidate_unions_columns() {
        let e = ColumnarEngine::new(catalog());
        let q1 = QueryBuilder::new(TableId(0))
            .select(&[2])
            .filter(1, PredOp::Eq, 0.01)
            .build();
        let q2 = QueryBuilder::new(TableId(0))
            .select(&[3])
            .filter(1, PredOp::Eq, 0.01)
            .build();
        let w = Workload::from_queries([(q1, 1.0), (q2, 1.0)]);
        let cands = ColumnarCandidates.candidates(&e, &w);
        let union = ColumnSet::from_ids(&[1, 2, 3]);
        assert!(
            cands.iter().any(|p| p.columns == union),
            "expected a merged candidate with {union}"
        );
    }

    #[test]
    fn columnar_candidates_repeat_across_calls() {
        // Eight tables with two queries each, so every table gets a merged
        // candidate: hash-ordered merging would reorder those between two
        // calls almost surely.
        let e = ColumnarEngine::new(Catalog::new(
            (0..8)
                .map(|t| TableDef {
                    name: format!("t{t}"),
                    ..catalog().table(TableId(0)).clone()
                })
                .collect(),
        ));
        let w = Workload::from_queries((0..8u32).flat_map(|t| {
            [2, 3].map(|c| {
                let q = QueryBuilder::new(TableId(t))
                    .select(&[6 * t + c])
                    .filter(6 * t + 1, PredOp::Eq, 0.01)
                    .build();
                (q, 1.0)
            })
        }));
        let first = ColumnarCandidates.candidates(&e, &w);
        assert_eq!(first.len(), 24, "16 tailored + 8 merged candidates");
        assert_eq!(first, ColumnarCandidates.candidates(&e, &w));
    }

    #[test]
    fn row_candidates_index_and_view() {
        let e = RowEngine::new(catalog());
        let q = QueryBuilder::new(TableId(0))
            .select(&[2, 3])
            .filter(1, PredOp::Eq, 0.01)
            .group_by(&[2])
            .build();
        let w = Workload::from_queries([(q, 1.0)]);
        let cands = RowCandidates.candidates(&e, &w);
        assert!(cands.iter().any(|s| matches!(s, RowStructure::Index(_))));
        let view = cands.iter().find_map(|s| match s {
            RowStructure::MatView(v) => Some(v),
            _ => None,
        });
        let v = view.expect("aggregate query should yield a view candidate");
        // Filter column folded into the view's grouping.
        assert!(v.group_by.contains(ColumnId(1)));
        assert!(v.group_by.contains(ColumnId(2)));
    }

    #[test]
    fn no_predicates_no_index_candidate() {
        let e = RowEngine::new(catalog());
        let q = QueryBuilder::new(TableId(0)).select(&[2]).build();
        let w = Workload::from_queries([(q, 1.0)]);
        let cands = RowCandidates.candidates(&e, &w);
        assert!(cands.iter().all(|s| !matches!(s, RowStructure::Index(_))));
    }

    #[test]
    fn candidates_deduplicated() {
        let e = ColumnarEngine::new(catalog());
        let q = QueryBuilder::new(TableId(0))
            .select(&[2])
            .filter(1, PredOp::Eq, 0.01)
            .build();
        // Same query twice with different weights.
        let w = Workload::from_queries([(q.clone(), 1.0), (q, 2.0)]);
        let cands = ColumnarCandidates.candidates(&e, &w);
        let mut unique = std::collections::HashSet::new();
        for p in &cands {
            assert!(unique.insert(p.clone()), "duplicate candidate");
        }
    }
}
