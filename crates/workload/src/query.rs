//! The structural query model.
//!
//! CliffGuard models each query at the granularity its distance metrics need
//! (Section 5): per-clause column sets plus the predicate selectivities and
//! join/aggregation structure the cost model consumes. Full SQL text can be
//! attached for round-tripping but plays no role in identity.

use crate::colset::ColumnSet;
use crate::ids::{ColumnId, TableId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// Kind of a filter predicate. Determines both default selectivity and how
/// well a sorted projection / index prefix can exploit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredOp {
    /// Equality (`c = v`). Fully exploitable by a sort prefix.
    Eq,
    /// Range (`c > v`, `BETWEEN`, …). Exploitable by a sort prefix, but only
    /// as the last matched component.
    Range,
    /// Pattern match (`LIKE`). Prefix-exploitable only; we model it as
    /// partially exploitable.
    Like,
    /// Membership (`IN (…)`). Modeled like a small disjunction of equalities.
    In,
}

/// A filter predicate on a single column with an estimated selectivity in
/// `(0, 1]` (fraction of rows that survive the filter).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Filtered column.
    pub column: ColumnId,
    /// Predicate kind.
    pub op: PredOp,
    /// Estimated fraction of rows passing the predicate.
    pub selectivity: f64,
}

impl Predicate {
    /// Creates a predicate, clamping selectivity into `(0, 1]`.
    pub fn new(column: ColumnId, op: PredOp, selectivity: f64) -> Self {
        Self {
            column,
            op,
            selectivity: selectivity.clamp(1e-9, 1.0),
        }
    }
}

/// Structural hash of a query, used to identify "the same query" across
/// workload windows (selectivities are quantized so float noise does not
/// split identities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QuerySignature(pub u64);

/// The hash state of maps and sets keyed by [`QuerySignature`].
///
/// A signature already is a SipHash of the query, so hashing its 64 bits
/// again with SipHash only repeats the work: [`SignatureHasher`] folds
/// them with one keyed 64×64→128-bit multiply instead. The key is drawn
/// from [`RandomState`] once per process and copied into each map:
/// signatures come from queries that the daemon's tenants supply, and
/// `DefaultHasher`'s keys are public, so without it anyone could pick
/// queries whose signatures collide in the bits a table uses. No code
/// iterates these maps (clippy's `disallowed-methods` list enforces it),
/// so no output depends on the key.
#[derive(Clone, Copy)]
pub struct SignatureState {
    key: u64,
}

impl Default for SignatureState {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        Self {
            key: *KEY.get_or_init(|| RandomState::new().hash_one(0u8)),
        }
    }
}

impl std::fmt::Debug for SignatureState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key stays out of debug output.
        f.debug_struct("SignatureState").finish_non_exhaustive()
    }
}

impl BuildHasher for SignatureState {
    type Hasher = SignatureHasher;

    fn build_hasher(&self) -> SignatureHasher {
        SignatureHasher { hash: self.key }
    }
}

/// The hasher [`SignatureState`] builds.
pub struct SignatureHasher {
    hash: u64,
}

impl Hasher for SignatureHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Keys other than a signature's one `u64` still hash, just not
        // for free.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
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

/// A map keyed by [`QuerySignature`] through [`SignatureState`].
pub type SignatureMap<V> = HashMap<QuerySignature, V, SignatureState>;

/// A set of [`QuerySignature`]s through [`SignatureState`].
pub type SignatureSet = HashSet<QuerySignature, SignatureState>;

/// A single analytical query.
///
/// `select`, `filter`, `group_by` are column *sets*; `order_by` keeps column
/// order because sort-order matching is order-sensitive. `joins` lists
/// non-anchor tables touched by the query (the columnar engine charges a join
/// CPU term per joined table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Query {
    /// The anchor (FROM) table.
    pub anchor: TableId,
    /// Columns referenced in the SELECT clause.
    pub select: ColumnSet,
    /// Columns referenced in the WHERE clause.
    pub filter: ColumnSet,
    /// Columns referenced in the GROUP BY clause.
    pub group_by: ColumnSet,
    /// ORDER BY columns, in order.
    pub order_by: Vec<ColumnId>,
    /// Filter predicates with selectivities (subset of `filter` columns).
    pub predicates: Vec<Predicate>,
    /// Other tables joined in.
    pub joins: Vec<TableId>,
    /// Whether the query computes aggregates.
    pub aggregates: bool,
    /// Optional original SQL text (ignored for identity).
    pub raw_sql: Option<String>,
}

impl Query {
    /// Union of all columns referenced anywhere in the query — the paper's
    /// default query representation ("Euc-union (SWGO)").
    pub fn all_columns(&self) -> ColumnSet {
        let mut s = self.select.clone();
        s.union_with(&self.filter);
        s.union_with(&self.group_by);
        for &c in &self.order_by {
            s.insert(c);
        }
        s
    }

    /// ORDER BY columns as a set.
    pub fn order_by_set(&self) -> ColumnSet {
        ColumnSet::from_iter(self.order_by.iter().copied())
    }

    /// Whether this query references any column at all. The paper drops
    /// column-free queries (e.g. `SELECT version()`) from the analysis.
    pub fn references_columns(&self) -> bool {
        !self.all_columns().is_empty()
    }

    /// Structural signature identifying this query across windows.
    ///
    /// Selectivities are quantized to a 1e-6 grid so that jitter below
    /// estimation precision does not create spurious new identities.
    pub fn signature(&self) -> QuerySignature {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.anchor.hash(&mut h);
        self.select.hash(&mut h);
        self.filter.hash(&mut h);
        self.group_by.hash(&mut h);
        self.order_by.hash(&mut h);
        for p in &self.predicates {
            p.column.hash(&mut h);
            p.op.hash(&mut h);
            ((p.selectivity * 1e6).round() as u64).hash(&mut h);
        }
        self.joins.hash(&mut h);
        self.aggregates.hash(&mut h);
        QuerySignature(h.finish())
    }
}

impl PartialEq for Query {
    fn eq(&self, other: &Self) -> bool {
        self.signature() == other.signature()
    }
}
impl Eq for Query {}

impl Hash for Query {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.signature().hash(state);
    }
}

/// Fluent builder for [`Query`] — the main construction path in tests,
/// examples, and generators.
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    q: Query,
}

impl QueryBuilder {
    /// Starts a query against `anchor`.
    pub fn new(anchor: TableId) -> Self {
        Self {
            q: Query {
                anchor,
                select: ColumnSet::new(),
                filter: ColumnSet::new(),
                group_by: ColumnSet::new(),
                order_by: Vec::new(),
                predicates: Vec::new(),
                joins: Vec::new(),
                aggregates: false,
                raw_sql: None,
            },
        }
    }

    /// Adds SELECT columns.
    pub fn select(mut self, cols: &[u32]) -> Self {
        for &c in cols {
            self.q.select.insert(ColumnId(c));
        }
        self
    }

    /// Adds a predicate (also registers the column in the WHERE set).
    pub fn filter(mut self, col: u32, op: PredOp, selectivity: f64) -> Self {
        self.q.filter.insert(ColumnId(col));
        self.q
            .predicates
            .push(Predicate::new(ColumnId(col), op, selectivity));
        self
    }

    /// Adds GROUP BY columns and marks the query as aggregating.
    pub fn group_by(mut self, cols: &[u32]) -> Self {
        for &c in cols {
            self.q.group_by.insert(ColumnId(c));
        }
        self.q.aggregates = true;
        self
    }

    /// Appends ORDER BY columns.
    pub fn order_by(mut self, cols: &[u32]) -> Self {
        self.q.order_by.extend(cols.iter().map(|&c| ColumnId(c)));
        self
    }

    /// Adds a joined table.
    pub fn join(mut self, t: TableId) -> Self {
        self.q.joins.push(t);
        self
    }

    /// Marks the query as aggregating without group-by columns.
    pub fn aggregate(mut self) -> Self {
        self.q.aggregates = true;
        self
    }

    /// Attaches raw SQL text.
    pub fn raw_sql(mut self, sql: impl Into<String>) -> Self {
        self.q.raw_sql = Some(sql.into());
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Query {
        self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1() -> Query {
        QueryBuilder::new(TableId(0))
            .select(&[1, 2])
            .filter(3, PredOp::Eq, 0.01)
            .group_by(&[1])
            .order_by(&[2])
            .build()
    }

    #[test]
    fn all_columns_unions_clauses() {
        let q = q1();
        assert_eq!(q.all_columns(), ColumnSet::from_ids(&[1, 2, 3]));
        assert!(q.references_columns());
        assert!(q.aggregates);
    }

    #[test]
    fn signature_stable_and_sensitive() {
        let a = q1();
        let b = q1();
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a, b);
        let c = QueryBuilder::new(TableId(0))
            .select(&[1, 2])
            .filter(3, PredOp::Range, 0.01)
            .group_by(&[1])
            .order_by(&[2])
            .build();
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn signature_ignores_raw_sql_and_tiny_jitter() {
        let a = q1();
        let mut b = q1();
        b.raw_sql = Some("SELECT 1".into());
        assert_eq!(a.signature(), b.signature());
        let c = QueryBuilder::new(TableId(0))
            .select(&[1, 2])
            .filter(3, PredOp::Eq, 0.0100000001)
            .group_by(&[1])
            .order_by(&[2])
            .build();
        assert_eq!(a.signature(), c.signature());
    }

    #[test]
    fn order_by_order_matters() {
        let a = QueryBuilder::new(TableId(0))
            .select(&[1])
            .order_by(&[1, 2])
            .build();
        let b = QueryBuilder::new(TableId(0))
            .select(&[1])
            .order_by(&[2, 1])
            .build();
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn predicate_clamps_selectivity() {
        let p = Predicate::new(ColumnId(0), PredOp::Eq, 0.0);
        assert!(p.selectivity > 0.0);
        let p = Predicate::new(ColumnId(0), PredOp::Eq, 2.0);
        assert_eq!(p.selectivity, 1.0);
    }

    #[test]
    fn column_free_query_detected() {
        let q = QueryBuilder::new(TableId(0)).build();
        assert!(!q.references_columns());
    }
}
