//! Weighted workloads.
//!
//! A workload `W` is a weighted multiset of queries. Weights are raw
//! occurrence counts (or importance weights after a `MoveWorkload` step);
//! the distance metrics operate on *normalized* frequencies `r_i`
//! (Section 5), which [`Workload::normalized`] provides.

use crate::query::{Query, QuerySignature, SignatureMap, SignatureSet};
use crate::template::Template;
use serde::{Deserialize, Error, Serialize, Value};
use std::sync::Arc;

/// A query together with its (raw, unnormalized) weight in a workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedQuery {
    /// The query. Shared so that merging workloads never deep-copies.
    pub query: Arc<Query>,
    /// Raw weight (frequency count or importance weight, `> 0`).
    pub weight: f64,
}

/// A weighted multiset of queries.
///
/// Queries are deduplicated by [`QuerySignature`]: adding an existing query
/// accumulates its weight.
///
/// Each entry's signature is computed once, when the entry is added, and
/// kept next to it: entries are only ever appended (no method drops one),
/// so [`iter_signed`](Self::iter_signed) hands callers a signature that
/// is still the query's, and they key their own maps with it instead of
/// hashing the query again. Signatures and the index are derived state:
/// serde writes the entries only, and decoding recomputes both, so a
/// decoded workload is as complete as a built one.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Workload {
    entries: Vec<WeightedQuery>,
    /// `sigs[i]` is `entries[i].query.signature()`.
    #[serde(skip)]
    sigs: Vec<QuerySignature>,
    #[serde(skip)]
    index: SignatureMap<usize>,
}

impl Workload {
    /// Creates an empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a workload from `(query, weight)` pairs.
    pub fn from_queries<I>(iter: I) -> Self
    where
        I: IntoIterator<Item = (Query, f64)>,
    {
        let mut w = Self::new();
        for (q, wt) in iter {
            w.add(Arc::new(q), wt);
        }
        w
    }

    /// Adds `weight` occurrences of `query` (accumulating if present).
    pub fn add(&mut self, query: Arc<Query>, weight: f64) {
        self.add_indexed(query, weight);
    }

    /// [`add`](Self::add), returning the index of the entry that holds
    /// `query`. Entries are only ever appended, so the index stays valid
    /// for [`add_to_entry`](Self::add_to_entry).
    pub fn add_indexed(&mut self, query: Arc<Query>, weight: f64) -> usize {
        let sig = query.signature();
        self.add_signed(sig, query, weight)
    }

    /// [`add_indexed`](Self::add_indexed) for a caller that already holds
    /// the query's signature, say from another workload's
    /// [`iter_signed`](Self::iter_signed): `sig` must be
    /// `query.signature()`.
    pub fn add_signed(&mut self, sig: QuerySignature, query: Arc<Query>, weight: f64) -> usize {
        assert_positive(weight);
        debug_assert_eq!(sig, query.signature(), "stale signature");
        match self.index.get(&sig) {
            Some(&i) => {
                self.entries[i].weight += weight;
                i
            }
            None => {
                let i = self.entries.len();
                self.index.insert(sig, i);
                self.sigs.push(sig);
                self.entries.push(WeightedQuery { query, weight });
                i
            }
        }
    }

    /// Adds `weight` occurrences to the entry at `index` (from
    /// [`add_indexed`](Self::add_indexed)) without re-hashing its query:
    /// the same weight sum `add` would produce for that query.
    pub fn add_to_entry(&mut self, index: usize, weight: f64) {
        assert_positive(weight);
        self.entries[index].weight += weight;
    }

    /// Number of *distinct* queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the workload holds no queries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of raw weights.
    pub fn total_weight(&self) -> f64 {
        self.entries.iter().map(|e| e.weight).sum()
    }

    /// Raw weight of `query` (0 if absent).
    pub fn weight_of(&self, query: &Query) -> f64 {
        self.weight_of_sig(query.signature())
    }

    /// Raw weight by signature (0 if absent).
    pub fn weight_of_sig(&self, sig: QuerySignature) -> f64 {
        self.index
            .get(&sig)
            .map_or(0.0, |&i| self.entries[i].weight)
    }

    /// Iterates `(query, raw_weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<Query>, f64)> {
        self.entries.iter().map(|e| (&e.query, e.weight))
    }

    /// Iterates `(signature, query, raw_weight)` in entry order, with each
    /// query's stored signature.
    pub fn iter_signed(&self) -> impl Iterator<Item = (QuerySignature, &Arc<Query>, f64)> {
        self.sigs
            .iter()
            .zip(&self.entries)
            .map(|(&sig, e)| (sig, &e.query, e.weight))
    }

    /// Iterates `(query, normalized_frequency)`; frequencies sum to 1.
    pub fn normalized(&self) -> impl Iterator<Item = (&Arc<Query>, f64)> {
        let total = self.total_weight().max(f64::MIN_POSITIVE);
        self.entries
            .iter()
            .map(move |e| (&e.query, e.weight / total))
    }

    /// The distinct queries.
    pub fn queries(&self) -> impl Iterator<Item = &Arc<Query>> {
        self.entries.iter().map(|e| &e.query)
    }

    /// Merges `other` into `self`, scaling other's weights by `scale`.
    pub fn merge_scaled(&mut self, other: &Workload, scale: f64) {
        for (sig, q, w) in other.iter_signed() {
            if w * scale > 0.0 {
                self.add_signed(sig, Arc::clone(q), w * scale);
            }
        }
    }

    /// Union of two workloads (weights added).
    pub fn union(&self, other: &Workload) -> Workload {
        let mut w = self.clone();
        w.merge_scaled(other, 1.0);
        w
    }

    /// Fraction of this workload's weight whose template also occurs in
    /// `other` — the y-axis of the paper's Figure 5.
    pub fn shared_template_fraction(&self, other: &Workload) -> f64 {
        let theirs: std::collections::HashSet<Template> =
            other.queries().map(|q| Template::of(q)).collect();
        self.normalized()
            .filter(|(q, _)| theirs.contains(&Template::of(q)))
            .map(|(_, f)| f)
            .sum()
    }
}

impl Deserialize for Workload {
    /// Decodes the entries and recomputes their signatures and the index.
    fn from_value(v: &Value) -> Result<Self, Error> {
        #[derive(Deserialize)]
        struct Entries {
            entries: Vec<WeightedQuery>,
        }
        let entries = Entries::from_value(v)?.entries;
        let sigs: Vec<QuerySignature> = entries.iter().map(|e| e.query.signature()).collect();
        let index = sigs.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        Ok(Self {
            entries,
            sigs,
            index,
        })
    }
}

/// The historical pool a session samples neighbors from: the distinct
/// queries of `windows` in first-seen order, deduplicated by structural
/// signature. Callers choose the windows and the order to visit them.
pub fn query_pool<'a>(windows: impl IntoIterator<Item = &'a Workload>) -> Vec<Arc<Query>> {
    let mut pool = Vec::new();
    let mut seen = SignatureSet::default();
    for w in windows {
        for (sig, q, _) in w.iter_signed() {
            if seen.insert(sig) {
                pool.push(Arc::clone(q));
            }
        }
    }
    pool
}

fn assert_positive(weight: f64) {
    assert!(
        weight.is_finite() && weight > 0.0,
        "weights must be positive"
    );
}

impl FromIterator<(Query, f64)> for Workload {
    fn from_iter<I: IntoIterator<Item = (Query, f64)>>(iter: I) -> Self {
        Workload::from_queries(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;
    use crate::query::QueryBuilder;
    use serde::{Deserialize, Serialize};

    fn q(sel: &[u32]) -> Query {
        QueryBuilder::new(TableId(0)).select(sel).build()
    }

    #[test]
    fn add_accumulates_duplicates() {
        let mut w = Workload::new();
        w.add(Arc::new(q(&[1])), 2.0);
        w.add(Arc::new(q(&[1])), 3.0);
        w.add(Arc::new(q(&[2])), 1.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.total_weight(), 6.0);
        assert_eq!(w.weight_of(&q(&[1])), 5.0);
        assert_eq!(w.weight_of(&q(&[9])), 0.0);
    }

    #[test]
    fn add_to_entry_matches_add() {
        let mut by_add = Workload::new();
        let mut by_index = Workload::new();
        let a = Arc::new(q(&[1]));
        let b = Arc::new(q(&[2]));
        assert_eq!(by_index.add_indexed(Arc::clone(&a), 1.0), 0);
        assert_eq!(by_index.add_indexed(Arc::clone(&b), 1.0), 1);
        // A second `Arc` of an existing query lands on its entry.
        assert_eq!(by_index.add_indexed(Arc::new(q(&[1])), 0.5), 0);
        for (query, w) in [(&a, 1.0), (&b, 1.0), (&a, 0.5)] {
            by_add.add(Arc::clone(query), w);
        }
        for _ in 0..3 {
            by_index.add_to_entry(1, 1.0);
            by_add.add(Arc::clone(&b), 1.0);
        }
        let entries = |w: &Workload| -> Vec<(u64, u64)> {
            w.iter()
                .map(|(q, wt)| (q.signature().0, wt.to_bits()))
                .collect()
        };
        assert_eq!(entries(&by_index), entries(&by_add));
    }

    #[test]
    fn normalized_sums_to_one() {
        let w = Workload::from_queries([(q(&[1]), 1.0), (q(&[2]), 3.0)]);
        let total: f64 = w.normalized().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let f1 = w
            .normalized()
            .find(|(query, _)| ***query == q(&[2]))
            .unwrap()
            .1;
        assert!((f1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn union_adds_weights() {
        let a = Workload::from_queries([(q(&[1]), 1.0)]);
        let b = Workload::from_queries([(q(&[1]), 2.0), (q(&[2]), 1.0)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert_eq!(u.weight_of(&q(&[1])), 3.0);
    }

    #[test]
    fn merge_scaled_applies_factor() {
        let mut a = Workload::from_queries([(q(&[1]), 1.0)]);
        let b = Workload::from_queries([(q(&[2]), 4.0)]);
        a.merge_scaled(&b, 0.5);
        assert_eq!(a.weight_of(&q(&[2])), 2.0);
    }

    #[test]
    fn shared_template_fraction_weighs_overlap() {
        let a = Workload::from_queries([(q(&[1]), 3.0), (q(&[2]), 1.0)]);
        let b = Workload::from_queries([(q(&[1]), 5.0)]);
        assert!((a.shared_template_fraction(&b) - 0.75).abs() < 1e-12);
        assert!((b.shared_template_fraction(&a) - 1.0).abs() < 1e-12);
    }

    /// Every entry carries its own query's signature, however it was
    /// added, and a serde round trip restores them.
    #[test]
    fn stored_signatures_are_the_queries_own() {
        let signed = |w: &Workload| {
            assert_eq!(w.iter_signed().count(), w.len());
            for (sig, query, _) in w.iter_signed() {
                assert_eq!(sig, query.signature());
            }
        };
        let mut w = Workload::from_queries([(q(&[1]), 1.0), (q(&[2]), 2.0), (q(&[1]), 3.0)]);
        assert_eq!(w.len(), 2);
        signed(&w);
        let i = w.add_indexed(Arc::new(q(&[3])), 1.0);
        w.add_to_entry(i, 2.0);
        w.add(Arc::new(q(&[2])), 1.0);
        let four = Arc::new(q(&[4]));
        w.add_signed(four.signature(), four, 1.0);
        signed(&w);
        let mut merged = Workload::from_queries([(q(&[5]), 1.0)]);
        merged.merge_scaled(&w, 0.5);
        signed(&merged);
        signed(&w.union(&merged));

        // Signatures are not serialized: the wire form is the entries.
        let value = w.to_value();
        match &value {
            serde::Value::Map(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["entries"]);
            }
            other => panic!("workload serialized as {other:?}"),
        }
        let back = Workload::from_value(&value).expect("workload round-trips");
        signed(&back);
        let bits = |w: &Workload| -> Vec<(u64, u64)> {
            w.iter_signed()
                .map(|(sig, _, wt)| (sig.0, wt.to_bits()))
                .collect()
        };
        assert_eq!(bits(&back), bits(&w));
        assert_eq!(back.weight_of(&q(&[3])), 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let mut w = Workload::new();
        w.add(Arc::new(q(&[1])), 0.0);
    }
}
