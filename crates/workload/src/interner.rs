//! Workload interning: dense query ids across a family of workloads.
//!
//! CliffGuard's descent loop re-costs the *same* Γ-neighborhood samples
//! against a stream of candidate designs. The samples share most of their
//! queries (they are perturbations of one target workload), so costing them
//! through per-query hashing wastes both the structural hash and a sharded
//! map probe on every lookup. [`WorkloadInterner`] assigns each distinct
//! query (by [`QuerySignature`]) a dense [`QueryId`] and re-expresses every
//! workload as a frequency vector over those ids, so that
//! `cost(w, d) = Σ freq[i] · lat[d][i]` becomes a weighted dot product over
//! a per-design latency array.
//!
//! The interner is deliberately order-preserving: an [`InternedWorkload`]
//! keeps its source workload's entry order, so downstream cost folds visit
//! queries in exactly the order `Workload::iter` would — a requirement for
//! bit-identical f64 reductions.

use crate::query::{Query, QuerySignature, SignatureMap};
use crate::workload::Workload;
use std::sync::Arc;

/// Dense identifier of a distinct query inside a [`WorkloadInterner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id as a usize index into per-design latency vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A workload re-expressed as `(QueryId, weight)` pairs, preserving the
/// source workload's entry order.
///
/// Alongside the pair view it keeps the same data as two flat parallel
/// slices ([`ids`](Self::ids) / [`weights`](Self::weights)), so cost folds
/// can run branch-free passes over plain `u32`/`f64` arrays — no tuple
/// striding, no hash probe, no `Option` — while visiting entries in the
/// identical order (bit-identical f64 reductions).
#[derive(Debug, Clone, Default)]
pub struct InternedWorkload {
    entries: Vec<(QueryId, f64)>,
    ids: Vec<u32>,
    weights: Vec<f64>,
}

impl InternedWorkload {
    /// Builds directly from `(id, weight)` pairs (entry order is kept).
    ///
    /// Primarily for benches and tests that synthesize workloads without
    /// an interner; production workloads come from
    /// [`WorkloadInterner::intern`].
    pub fn from_entries(entries: Vec<(QueryId, f64)>) -> Self {
        let ids = entries.iter().map(|&(id, _)| id.0).collect();
        let weights = entries.iter().map(|&(_, w)| w).collect();
        Self {
            entries,
            ids,
            weights,
        }
    }

    /// Iterates `(id, raw_weight)` in the source workload's entry order.
    pub fn entries(&self) -> &[(QueryId, f64)] {
        &self.entries
    }

    /// The raw query ids, in entry order (parallel to
    /// [`weights`](Self::weights)).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The raw weights, in entry order (parallel to [`ids`](Self::ids)).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of distinct queries in the source workload.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the source workload was empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of raw weights (matches `Workload::total_weight` up to f64
    /// summation order, which is identical because entry order is kept).
    pub fn total_weight(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }
}

/// Dedupes structurally identical queries across many workloads into dense
/// [`QueryId`]s.
///
/// Typical use: intern the target workload and every Γ-neighborhood sample
/// once per design session, then cost each `(workload, design)` pair as a
/// dot product against a per-design latency vector (`DesignEpoch` in
/// `cliffguard-sim`).
#[derive(Debug, Default)]
pub struct WorkloadInterner {
    queries: Vec<Arc<Query>>,
    by_sig: SignatureMap<u32>,
    raw_entries: u64,
}

impl WorkloadInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a single query, returning its dense id (existing or new).
    pub fn intern_query(&mut self, query: &Arc<Query>) -> QueryId {
        self.intern_signed(query.signature(), query)
    }

    /// [`intern_query`](Self::intern_query) for a caller that already
    /// holds the query's signature: `sig` must be `query.signature()`.
    pub fn intern_signed(&mut self, sig: QuerySignature, query: &Arc<Query>) -> QueryId {
        debug_assert_eq!(sig, query.signature(), "stale signature");
        match self.by_sig.get(&sig) {
            Some(&id) => QueryId(id),
            None => {
                let id = u32::try_from(self.queries.len()).expect("more than u32::MAX queries");
                self.by_sig.insert(sig, id);
                self.queries.push(Arc::clone(query));
                QueryId(id)
            }
        }
    }

    /// Interns every entry of `workload`, preserving entry order.
    pub fn intern(&mut self, workload: &Workload) -> InternedWorkload {
        let entries = workload
            .iter_signed()
            .map(|(sig, q, wt)| {
                self.raw_entries += 1;
                (self.intern_signed(sig, q), wt)
            })
            .collect();
        InternedWorkload::from_entries(entries)
    }

    /// Looks up the id of an already-interned query (`None` if unseen).
    pub fn id_of(&self, query: &Query) -> Option<QueryId> {
        self.id_of_signature(query.signature())
    }

    /// [`id_of`](Self::id_of) by the query's signature.
    pub fn id_of_signature(&self, sig: QuerySignature) -> Option<QueryId> {
        self.by_sig.get(&sig).map(|&id| QueryId(id))
    }

    /// The query behind a dense id.
    pub fn query(&self, id: QueryId) -> &Arc<Query> {
        &self.queries[id.index()]
    }

    /// All distinct queries, indexed by [`QueryId`].
    pub fn queries(&self) -> &[Arc<Query>] {
        &self.queries
    }

    /// Number of distinct queries interned so far.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Total workload entries fed through [`WorkloadInterner::intern`]
    /// (before deduplication).
    pub fn raw_entries(&self) -> u64 {
        self.raw_entries
    }

    /// Rebuilds the table keeping only queries for which `keep` returns
    /// true, reassigning dense ids in the surviving order. Returns the
    /// old→new id map (`map[old.index()]` is `None` for evicted queries).
    ///
    /// This is the streaming-ingest eviction hook: an unbounded log keeps
    /// interning fresh statements, and without compaction the table (and
    /// every per-design latency vector indexed by it) grows without limit.
    /// Callers holding pre-compaction ids — interned workloads, cost-kernel
    /// epochs, statement caches — must remap through the returned map or
    /// drop those ids. `raw_entries` is cumulative and is preserved.
    pub fn compact<F>(&mut self, mut keep: F) -> Vec<Option<QueryId>>
    where
        F: FnMut(QueryId, &Arc<Query>) -> bool,
    {
        let old = std::mem::take(&mut self.queries);
        self.by_sig.clear();
        let mut map = Vec::with_capacity(old.len());
        for (i, q) in old.into_iter().enumerate() {
            let old_id = QueryId(i as u32);
            if keep(old_id, &q) {
                let id = self.queries.len() as u32;
                self.by_sig.insert(q.signature(), id);
                self.queries.push(q);
                map.push(Some(QueryId(id)));
            } else {
                map.push(None);
            }
        }
        map
    }

    /// `raw_entries / distinct` — how much work interning saves. 1.0 means
    /// no cross-workload sharing; Γ-neighborhoods typically sit well above.
    pub fn dedup_ratio(&self) -> f64 {
        if self.queries.is_empty() {
            1.0
        } else {
            self.raw_entries as f64 / self.queries.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;
    use crate::query::QueryBuilder;

    fn q(sel: &[u32]) -> Query {
        QueryBuilder::new(TableId(0)).select(sel).build()
    }

    #[test]
    fn dedupes_across_workloads() {
        let a = Workload::from_queries([(q(&[1]), 2.0), (q(&[2]), 1.0)]);
        let b = Workload::from_queries([(q(&[2]), 5.0), (q(&[3]), 1.0)]);
        let mut interner = WorkloadInterner::new();
        let ia = interner.intern(&a);
        let ib = interner.intern(&b);
        assert_eq!(interner.len(), 3);
        assert_eq!(interner.raw_entries(), 4);
        assert!((interner.dedup_ratio() - 4.0 / 3.0).abs() < 1e-12);
        // Shared query maps to the same id in both workloads.
        assert_eq!(ia.entries()[1].0, ib.entries()[0].0);
    }

    #[test]
    fn preserves_entry_order_and_weights() {
        let w = Workload::from_queries([(q(&[3]), 1.5), (q(&[1]), 2.5), (q(&[2]), 0.5)]);
        let mut interner = WorkloadInterner::new();
        let iw = interner.intern(&w);
        let weights: Vec<f64> = iw.entries().iter().map(|&(_, wt)| wt).collect();
        assert_eq!(weights, vec![1.5, 2.5, 0.5]);
        for ((id, _), (query, _)) in iw.entries().iter().zip(w.iter()) {
            assert_eq!(
                interner.query(*id).signature(),
                query.signature(),
                "entry order must match the source workload"
            );
        }
        assert_eq!(iw.total_weight(), w.total_weight());
    }

    #[test]
    fn flat_slices_mirror_the_entry_pairs() {
        let w = Workload::from_queries([(q(&[3]), 1.5), (q(&[1]), 2.5), (q(&[2]), 0.5)]);
        let mut interner = WorkloadInterner::new();
        let iw = interner.intern(&w);
        assert_eq!(iw.ids().len(), iw.len());
        assert_eq!(iw.weights().len(), iw.len());
        for (i, &(id, wt)) in iw.entries().iter().enumerate() {
            assert_eq!(iw.ids()[i], id.0);
            assert_eq!(iw.weights()[i].to_bits(), wt.to_bits());
        }
        let direct = InternedWorkload::from_entries(iw.entries().to_vec());
        assert_eq!(direct.ids(), iw.ids());
    }

    #[test]
    fn id_of_finds_interned_only() {
        let w = Workload::from_queries([(q(&[1]), 1.0)]);
        let mut interner = WorkloadInterner::new();
        let _ = interner.intern(&w);
        assert!(interner.id_of(&q(&[1])).is_some());
        assert!(interner.id_of(&q(&[9])).is_none());
    }

    #[test]
    fn compact_reassigns_dense_ids_and_reports_the_map() {
        let mut interner = WorkloadInterner::new();
        let w = Workload::from_queries([(q(&[1]), 1.0), (q(&[2]), 1.0), (q(&[3]), 1.0)]);
        let _ = interner.intern(&w);
        let map = interner.compact(|id, _| id != QueryId(1));
        assert_eq!(map, vec![Some(QueryId(0)), None, Some(QueryId(1))]);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.raw_entries(), 3, "cumulative counter survives");
        // Survivors keep their identity: old id 2 is now id 1.
        assert_eq!(interner.query(QueryId(1)).signature(), q(&[3]).signature());
        assert_eq!(interner.id_of(&q(&[3])), Some(QueryId(1)));
        // Evicted queries are unknown again and re-intern densely.
        assert_eq!(interner.id_of(&q(&[2])), None);
        assert_eq!(interner.intern_query(&Arc::new(q(&[2]))), QueryId(2));
    }

    #[test]
    fn empty_interner_ratio_is_one() {
        let interner = WorkloadInterner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.dedup_ratio(), 1.0);
    }
}
