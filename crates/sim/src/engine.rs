//! The engine and design abstractions shared by both simulators.

use cliffguard_storage::Catalog;
use cliffguard_workload::{Query, Workload};
use std::hash::{Hash, Hasher};

/// A physical design: a priced set of auxiliary structures.
///
/// Structure-level access (`structures` / `from_structures`) is what lets
/// the `MajorityVoteDesigner` and the ILP baseline reason about designs
/// generically, exactly as the paper describes ("for each structure (e.g.,
/// index, materialized view, projection) s, …").
///
/// Designs are `Send + Sync` so the robust-design search can cost many
/// workloads against the same design from worker threads.
pub trait PhysicalDesign: Clone + Default + Send + Sync {
    /// The unit structure (a projection, an index, a materialized view…).
    type Structure: Clone + Eq + Hash + Send + Sync;

    /// The structures of this design.
    fn structures(&self) -> Vec<Self::Structure>;

    /// Builds a design from structures.
    fn from_structures(structures: Vec<Self::Structure>) -> Self;

    /// Storage price of one structure in bytes.
    fn structure_price(s: &Self::Structure, catalog: &Catalog) -> u64;

    /// Total storage price in bytes (`price(D)` of formulation (1)).
    fn price_bytes(&self, catalog: &Catalog) -> u64 {
        self.structures()
            .iter()
            .map(|s| Self::structure_price(s, catalog))
            .sum()
    }

    /// Number of structures.
    fn len(&self) -> usize {
        self.structures().len()
    }

    /// Whether the design is empty (the `NoDesign` baseline).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stable fingerprint of this design, for cost memoization: two
    /// designs holding the same **multiset of structures** fingerprint
    /// identically, whatever order the structures were added in.
    ///
    /// The default combines per-structure hashes commutatively over
    /// [`structures`](Self::structures); engines with direct field access
    /// override it to skip the intermediate `Vec` (the result need only
    /// be stable within one design type — fingerprints are never compared
    /// across engines).
    fn fingerprint(&self) -> u64 {
        combine_structure_hashes(self.structures().iter().map(structure_hash))
    }
}

/// Deterministic hash of one structure (`DefaultHasher` with its fixed
/// zero keys: stable across runs and platforms for our derive-based
/// `Hash` impls).
pub(crate) fn structure_hash<S: Hash>(s: S) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Order-insensitive combination of per-structure hashes: each hash is
/// bit-mixed (so near-identical structure hashes spread) and the mixes
/// are summed, which is commutative; the count is folded in last so
/// `{}` and `{s}` with `mix(h(s)) == 0` cannot collide trivially.
pub(crate) fn combine_structure_hashes(hashes: impl Iterator<Item = u64>) -> u64 {
    let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut n: u64 = 0;
    for h in hashes {
        acc = acc.wrapping_add(splitmix64(h));
        n += 1;
    }
    splitmix64(acc ^ n)
}

/// SplitMix64 finalizer — a cheap, high-quality 64-bit bit mixer.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Aggregate latency statistics of a workload under a design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCost {
    /// Frequency-weighted mean query latency (ms).
    pub avg_ms: f64,
    /// Maximum single-query latency (ms).
    pub max_ms: f64,
    /// Weighted total latency (ms) — the `f(W, D)` the designers minimize.
    pub total_ms: f64,
}

impl WorkloadCost {
    /// The zero cost (empty workload).
    pub fn zero() -> Self {
        Self {
            avg_ms: 0.0,
            max_ms: 0.0,
            total_ms: 0.0,
        }
    }
}

/// A simulated database engine with a cost-based optimizer.
///
/// Engines are `Sync`: they are immutable cost models shared by
/// reference across the worker threads of the parallel cost-evaluation
/// layer.
pub trait Engine: Sync {
    /// The engine's physical-design type.
    type Design: PhysicalDesign;

    /// Model latency (ms) of one query under a design; the engine's
    /// optimizer picks the best access path the design allows.
    fn query_latency_ms(&self, q: &Query, d: &Self::Design) -> f64;

    /// The catalog this engine runs over.
    fn catalog(&self) -> &Catalog;

    /// Aggregate cost of a workload under a design. `f(W, D)` is
    /// `total_ms`; the evaluation section reports `avg_ms` and `max_ms`.
    fn workload_cost(&self, w: &Workload, d: &Self::Design) -> WorkloadCost {
        if w.is_empty() {
            return WorkloadCost::zero();
        }
        let mut total = 0.0;
        let mut max: f64 = 0.0;
        let mut weight = 0.0;
        for (q, wt) in w.iter() {
            let l = self.query_latency_ms(q, d);
            total += l * wt;
            weight += wt;
            max = max.max(l);
        }
        WorkloadCost {
            avg_ms: total / weight,
            max_ms: max,
            total_ms: total,
        }
    }

    /// `f(W, D)` — the scalar objective the designers minimize.
    fn cost_f(&self, w: &Workload, d: &Self::Design) -> f64 {
        self.workload_cost(w, d).total_ms
    }

    /// Time to build (deploy) the design, for the Figure 14 deployment-time
    /// model.
    fn deployment_ms(&self, d: &Self::Design) -> f64;
}

/// An engine whose optimizer can split query costing into a one-time
/// **compile** step and a cheap per-design **evaluate** step.
///
/// `compile_plan` hoists everything derivable from the query alone — the
/// per-table column/predicate decomposition, fallback access paths — out of
/// the latency computation, so the design-epoch kernel can cost the same
/// query against a stream of designs with no per-call allocation.
///
/// **Contract:** `plan_latency_ms(&compile_plan(q), d)` must be
/// bit-identical to `query_latency_ms(q, d)` for every query and design
/// (the engines here guarantee it by routing both paths through the same
/// arithmetic).
pub trait PlanningEngine: Engine {
    /// The compiled form of one query.
    type Plan: Send + Sync;

    /// Compiles a query once, independent of any design.
    fn compile_plan(&self, q: &Query) -> Self::Plan;

    /// Latency (ms) of a compiled query under a design; bit-identical to
    /// [`Engine::query_latency_ms`] on the query the plan was compiled from.
    fn plan_latency_ms(&self, plan: &Self::Plan, d: &Self::Design) -> f64;

    /// Whether structure `s` can influence `plan`'s latency at all — the
    /// dependency predicate behind delta epochs.
    ///
    /// **Contract (soundness):** if this returns `false`, then for every
    /// pair of designs `d` and `d ∪ {s}` (and `d \ {s}`),
    /// `plan_latency_ms(plan, ·)` must be **bit-identical** on both. A
    /// conservative over-approximation (returning `true` for a structure
    /// that turns out not to matter) only wastes re-costing work; an
    /// under-approximation silently serves stale latencies — a cost bug.
    /// The default is the maximally conservative `true`, which disables
    /// delta savings but can never be wrong.
    fn plan_depends_on(
        &self,
        plan: &Self::Plan,
        s: &<Self::Design as PhysicalDesign>::Structure,
    ) -> bool {
        let _ = (plan, s);
        true
    }

    /// A 64-bit over-approximating mask of the tables `plan` reads: bit
    /// [`table_mask_bit`] set for every referenced table. The delta
    /// builder stores one word per plan and ANDs it against the touched
    /// structures' masks as a branch-cheap prefilter before the full
    /// [`plan_depends_on`](Self::plan_depends_on) predicate.
    ///
    /// **Contract (soundness):** a cleared bit asserts `plan_depends_on`
    /// is `false` for every structure whose mask has only that bit —
    /// i.e. the mask must cover every table the predicate can match on.
    /// Wraparound collisions (`table % 64`) and the all-ones default only
    /// over-approximate, which is always safe.
    fn plan_tables_mask(&self, plan: &Self::Plan) -> u64 {
        let _ = plan;
        !0
    }

    /// The matching mask for the tables structure `s` can influence. The
    /// all-ones default disables pruning but can never be wrong.
    fn structure_tables_mask(&self, s: &<Self::Design as PhysicalDesign>::Structure) -> u64 {
        let _ = s;
        !0
    }
}

/// The bit [`PlanningEngine::plan_tables_mask`] assigns to a table:
/// `1 << (t % 64)`. Dense schemas below 64 tables get exact masks;
/// larger ones alias mod 64, which only over-approximates.
#[inline]
pub fn table_mask_bit(t: cliffguard_workload::TableId) -> u64 {
    1u64 << (t.0 % 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_storage::{CatalogGenerator, CostConstants};
    use cliffguard_workload::generator::SchemaShape;
    use cliffguard_workload::{QueryBuilder, TableId};

    /// A trivial engine charging 1ms per selected column, to exercise the
    /// provided trait methods.
    struct ToyEngine {
        catalog: Catalog,
    }

    #[derive(Debug, Clone, Default)]
    struct ToyDesign;

    impl PhysicalDesign for ToyDesign {
        type Structure = u32;
        fn structures(&self) -> Vec<u32> {
            vec![]
        }
        fn from_structures(_: Vec<u32>) -> Self {
            ToyDesign
        }
        fn structure_price(_: &u32, _: &Catalog) -> u64 {
            0
        }
    }

    impl Engine for ToyEngine {
        type Design = ToyDesign;
        fn query_latency_ms(&self, q: &Query, _d: &ToyDesign) -> f64 {
            q.select.len() as f64
        }
        fn catalog(&self) -> &Catalog {
            &self.catalog
        }
        fn deployment_ms(&self, _d: &ToyDesign) -> f64 {
            CostConstants::default().build_ms(0.0)
        }
    }

    #[test]
    fn workload_cost_aggregates() {
        let catalog = CatalogGenerator::default().generate(&SchemaShape::new(vec![4]));
        let e = ToyEngine { catalog };
        let w = Workload::from_queries([
            (QueryBuilder::new(TableId(0)).select(&[0]).build(), 3.0), // 1 ms
            (
                QueryBuilder::new(TableId(0)).select(&[0, 1, 2]).build(),
                1.0,
            ), // 3 ms
        ]);
        let c = e.workload_cost(&w, &ToyDesign);
        assert!((c.total_ms - 6.0).abs() < 1e-12);
        assert!((c.avg_ms - 1.5).abs() < 1e-12);
        assert!((c.max_ms - 3.0).abs() < 1e-12);
        assert_eq!(e.cost_f(&w, &ToyDesign), c.total_ms);
    }

    #[test]
    fn empty_workload_zero_cost() {
        let catalog = CatalogGenerator::default().generate(&SchemaShape::new(vec![4]));
        let e = ToyEngine { catalog };
        assert_eq!(
            e.workload_cost(&Workload::new(), &ToyDesign),
            WorkloadCost::zero()
        );
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_discriminating() {
        use crate::columnar::{ColumnarDesign, Projection};
        use crate::row::{Index, RowDesign, RowStructure};
        use cliffguard_workload::{ColumnId, ColumnSet};

        let p = |cols: &[u32]| {
            Projection::new(
                cliffguard_workload::TableId(0),
                ColumnSet::from_iter(cols.iter().map(|&c| ColumnId(c))),
                vec![],
            )
        };
        let ab = ColumnarDesign::from_structures(vec![p(&[1, 2]), p(&[3, 4])]);
        let ba = ColumnarDesign::from_structures(vec![p(&[3, 4]), p(&[1, 2])]);
        assert_eq!(ab.fingerprint(), ba.fingerprint(), "order must not matter");
        let other = ColumnarDesign::from_structures(vec![p(&[1, 2]), p(&[3, 5])]);
        assert_ne!(ab.fingerprint(), other.fingerprint());
        assert_ne!(ab.fingerprint(), ColumnarDesign::empty().fingerprint());

        // Row designs: an index and nothing-at-all must differ, and the
        // override must be deterministic across construction orders.
        let idx = |c: u32| {
            RowStructure::Index(Index::new(
                cliffguard_workload::TableId(0),
                vec![ColumnId(c)],
            ))
        };
        let r12 = RowDesign::from_structures(vec![idx(1), idx(2)]);
        let r21 = RowDesign::from_structures(vec![idx(2), idx(1)]);
        assert_eq!(r12.fingerprint(), r21.fingerprint());
        assert_ne!(r12.fingerprint(), RowDesign::empty().fingerprint());
    }

    #[test]
    fn trait_default_fingerprint_matches_columnar_override() {
        use crate::columnar::{ColumnarDesign, Projection};
        use cliffguard_workload::{ColumnId, ColumnSet};
        let d = ColumnarDesign::from_structures(vec![Projection::new(
            cliffguard_workload::TableId(0),
            ColumnSet::from_iter([ColumnId(1), ColumnId(2)]),
            vec![ColumnId(1)],
        )]);
        let via_default =
            super::combine_structure_hashes(d.structures().iter().map(super::structure_hash));
        assert_eq!(d.fingerprint(), via_default);
    }

    #[test]
    fn default_design_is_empty() {
        assert!(ToyDesign.is_empty());
        assert_eq!(
            ToyDesign
                .price_bytes(&CatalogGenerator::default().generate(&SchemaShape::new(vec![2]))),
            0
        );
    }
}
