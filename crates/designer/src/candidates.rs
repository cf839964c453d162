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
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// The hash state of the designer's maps: the candidate lists' dedup and
/// the what-if cache's keys.
///
/// SipHash over a projection's table, column words and sort order cost
/// more than the dedup it served; [`FoldHasher`] folds each 64-bit word
/// with one keyed 64×64→128-bit multiply instead. The key is drawn from
/// [`RandomState`] once per process, as `SignatureState`'s is: candidates
/// derive from queries that the daemon's tenants supply. No code iterates
/// these maps, so no output depends on the key.
#[derive(Clone, Copy)]
pub(crate) struct FoldState {
    key: u64,
}

impl Default for FoldState {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        Self {
            key: *KEY.get_or_init(|| RandomState::new().hash_one(1u8)),
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { hash: self.key }
    }
}

/// The hasher [`FoldState`] builds.
pub(crate) struct FoldHasher {
    hash: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.hash ^ x) * 0x9e37_79b9_7f4a_7c15;
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Values in first-seen order, each kept once, and each value's index in
/// that order. The candidate lists use it to drop repeats without cloning
/// a structure; the what-if cache uses the index as a candidate's id.
pub(crate) struct FirstSeen<T> {
    items: Vec<T>,
    /// An item's hash → the index of the first item with that hash.
    first: HashMap<u64, u32, FoldState>,
    state: FoldState,
}

impl<T> Default for FirstSeen<T> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            first: HashMap::default(),
            state: FoldState::default(),
        }
    }
}

impl<T: Hash + Eq> FirstSeen<T> {
    /// The index of the item equal to `item`, whose hash is `hash`.
    fn find(&self, item: &T, hash: u64) -> Option<usize> {
        let i = *self.first.get(&hash)? as usize;
        if self.items[i] == *item {
            return Some(i);
        }
        // Two distinct items share a 64-bit hash: look at them all.
        self.items.iter().position(|x| x == item)
    }

    fn push(&mut self, item: T, hash: u64) -> usize {
        let i = self.items.len();
        let id = u32::try_from(i).expect("more than u32::MAX distinct items");
        self.first.entry(hash).or_insert(id);
        self.items.push(item);
        i
    }

    /// Appends `item` unless an equal item is already kept; returns
    /// whether it was appended.
    pub(crate) fn insert(&mut self, item: T) -> bool {
        let hash = self.state.hash_one(&item);
        if self.find(&item, hash).is_some() {
            return false;
        }
        self.push(item, hash);
        true
    }

    /// The index of the kept item equal to `item`, appending a clone of it
    /// first if there is none.
    pub(crate) fn intern(&mut self, item: &T) -> usize
    where
        T: Clone,
    {
        let hash = self.state.hash_one(item);
        match self.find(item, hash) {
            Some(i) => i,
            None => self.push(item.clone(), hash),
        }
    }

    /// The kept items, in first-seen order.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.items
    }
}

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
        let mut out = FirstSeen::default();
        // Per-table merged column sets, with each sort column's votes
        // (weighted by query frequency, for the merged candidate's sort
        // order) in first-voted order, and the tables in first-seen order,
        // so the candidate list never follows hash-map iteration order.
        let mut merged = Vec::new();
        let mut slot: Vec<Option<u32>> = Vec::new();

        for (q, wt) in w.iter() {
            let mut tables = vec![q.anchor];
            tables.extend(q.joins.iter().copied());
            for t in tables {
                let Some(p) = Self::tailored(engine, q, t) else {
                    continue;
                };
                let t_index = t.0 as usize;
                if slot.len() <= t_index {
                    slot.resize(t_index + 1, None);
                }
                let i = *slot[t_index].get_or_insert_with(|| {
                    merged.push((t, ColumnSet::default(), Vec::new()));
                    (merged.len() - 1) as u32
                });
                let (_, cols, votes) = &mut merged[i as usize];
                cols.union_with(&p.columns);
                for (rank, &c) in p.sort_order.iter().enumerate() {
                    let vote = wt / (rank + 1) as f64;
                    match votes.iter_mut().find(|(v, _)| *v == c) {
                        Some((_, sum)) => *sum += vote,
                        None => votes.push((c, vote)),
                    }
                }
                out.insert(p);
            }
        }
        // Merged per-table candidates: all referenced columns, with one
        // variant per highly-voted lead sort column (Vertica's DBD likewise
        // proposes a few differently-sorted table-wide projections — the
        // generalizing backbone that also serves queries it never saw).
        for (t, cols, mut ranked) in merged {
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
                out.insert(Projection::new(t, cols.clone(), sort));
            }
        }
        out.into_vec()
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
        let mut out = FirstSeen::default();
        for (q, _) in w.iter() {
            for s in Self::tailored(engine, q) {
                out.insert(s);
            }
            // Join-side single-column indexes on joined tables' predicates.
            let catalog = engine.catalog();
            for &t in &q.joins {
                let key = predicate_key_order(q, |c| catalog.table_of(c), t);
                if !key.is_empty() {
                    out.insert(RowStructure::Index(Index::new(t, key)));
                }
            }
        }
        out.into_vec()
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
