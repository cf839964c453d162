//! The design-epoch cost kernel.
//!
//! CliffGuard's descent re-costs a *fixed* set of workloads (the target
//! plus its Γ-neighborhood samples) against a stream of candidate designs.
//! Costing each (query, design) pair through
//! [`Engine::query_latency_ms`](crate::Engine::query_latency_ms) re-plans
//! the query on every call; the kernel pays for planning once:
//!
//! 1. All workloads are interned once through a
//!    [`WorkloadInterner`], assigning dense [`QueryId`]s and turning each
//!    workload into a frequency vector.
//! 2. Each query is compiled once into an engine [`Plan`]
//!    ([`PlanningEngine::compile_plan`]), hoisting the per-table
//!    decomposition out of the latency computation.
//! 3. Per design, one [`DesignEpoch`] materializes the full latency vector
//!    (`Vec<f64>` indexed by [`QueryId`]) in one pass over the plans —
//!    after which every cost is an array read and `cost(w, d)` a weighted
//!    dot product.
//!
//! # Delta epochs
//!
//! The descent's candidates differ from the incumbent by ~one structure,
//! so rebuilding the whole latency vector per design re-derives mostly
//! unchanged numbers. On a memo miss with any memoized epoch available,
//! [`epoch`](CostKernel::epoch) instead **delta-builds**: it picks the
//! memoized base whose structure multiset is closest to the target's
//! (ranked by a merge of sorted per-structure hashes), clones its latency
//! vector, and re-costs only the queries whose plans depend on a
//! *touched* structure (the symmetric difference, by structure
//! equality), per the engine's [`PlanningEngine::plan_depends_on`]
//! predicate. Because that predicate is a sound over-approximation —
//! `false` guarantees the structure cannot move the plan's latency by a
//! single bit — a delta build is bit-identical to a full rebuild by
//! construction. The explicit
//! [`epoch_from`](CostKernel::epoch_from) exposes the same machinery for
//! tests and benches.
//!
//! One-off queries that were never interned (none arise in the descent
//! loop, but callers may ask) are costed directly by the engine.
//!
//! # Determinism
//!
//! The per-workload cost fold visits entries in the source workload's
//! order, so every number the kernel produces is **bit-identical** to
//! direct `Engine` evaluation (`PlanningEngine`'s compile/evaluate
//! contract supplies per-query equality; the fold here mirrors
//! `Engine::workload_cost`).
//!
//! Telemetry is metrics-only (`cliffguard.sim.kernel.*`): the kernel never
//! emits trace events, keeping traces byte-identical with and without it.

use crate::engine::{structure_hash, PhysicalDesign, PlanningEngine, WorkloadCost};
use cliffguard_workload::{
    InternedWorkload, Query, QueryId, QuerySignature, Workload, WorkloadInterner,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default epochs kept in the kernel's internal memo. The descent loop only
/// ever alternates between the incumbent design and one candidate, so a
/// handful of slots suffices; replica fleets pass a larger capacity to
/// [`CostKernel::build_with`] (R live epochs + a candidate).
const EPOCH_MEMO_CAPACITY: usize = 4;

/// The latency vector of one design: `lat[QueryId]` for every interned
/// query, filled once by [`CostKernel::epoch`].
#[derive(Debug)]
pub struct DesignEpoch {
    fingerprint: u64,
    lat: Vec<f64>,
}

impl DesignEpoch {
    /// Builds an epoch from raw parts — a fingerprint and a dense latency
    /// vector indexed by [`QueryId`]. The kernel builds epochs itself via
    /// [`CostKernel::epoch`]; this constructor exists for router tests and
    /// benches that synthesize latency surfaces directly.
    pub fn from_parts(fingerprint: u64, lat: Vec<f64>) -> Self {
        Self { fingerprint, lat }
    }

    /// Fingerprint of the design this epoch was built for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Latency (ms) of one interned query under this epoch's design.
    pub fn latency_ms(&self, id: QueryId) -> f64 {
        self.lat[id.index()]
    }

    /// The full latency vector, indexed by dense [`QueryId`].
    pub fn latencies(&self) -> &[f64] {
        &self.lat
    }

    /// Aggregate cost of an interned workload under this epoch: a
    /// branch-free pass over the workload's flat id/weight slices and this
    /// epoch's flat latency vector — no per-entry hash, no `Option`, no
    /// tuple striding. The fold performs the same operations in the same
    /// entry order as [`Engine::workload_cost`](crate::Engine::workload_cost),
    /// so results are bit-identical to costing the source workload
    /// directly.
    pub fn workload_cost(&self, w: &InternedWorkload) -> WorkloadCost {
        if w.is_empty() {
            return WorkloadCost::zero();
        }
        let lat: &[f64] = &self.lat;
        let ids: &[u32] = w.ids();
        let wts: &[f64] = w.weights();
        let mut total = 0.0;
        let mut max: f64 = 0.0;
        let mut weight = 0.0;
        for (&id, &wt) in ids.iter().zip(wts) {
            let l = lat[id as usize];
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
}

/// Counter snapshot of a [`CostKernel`].
#[derive(Debug, Clone, Copy)]
pub struct KernelStats {
    /// Distinct queries interned.
    pub interned_queries: usize,
    /// Workload entries seen before deduplication.
    pub raw_entries: u64,
    /// `raw_entries / interned_queries`.
    pub dedup_ratio: f64,
    /// Epochs materialized from scratch (full latency-vector fills).
    pub epoch_builds: u64,
    /// Epochs materialized incrementally from a memoized base (only
    /// dependent queries re-costed).
    pub delta_builds: u64,
    /// Queries re-costed across all delta builds (the dependent sets).
    pub recosted_queries: u64,
    /// Epoch requests answered from the memo.
    pub epoch_reuses: u64,
    /// Memo entries displaced by capacity pressure.
    pub epoch_evictions: u64,
}

/// The structures of one design, shared between the memo and a delta
/// build in progress.
type Structures<E> = Arc<Vec<<<E as crate::Engine>::Design as PhysicalDesign>::Structure>>;

/// One memoized epoch plus the structure multiset it was built for — the
/// delta path needs the structures to compute touched sets against new
/// targets, and their sorted hashes to rank bases without comparing
/// structures.
struct MemoEntry<E: PlanningEngine> {
    epoch: Arc<DesignEpoch>,
    structures: Structures<E>,
    hashes: Vec<u64>,
}

/// The dense cost kernel: interned queries, compiled plans, and per-design
/// latency epochs over a [`PlanningEngine`].
pub struct CostKernel<'e, E: PlanningEngine> {
    engine: &'e E,
    interner: WorkloadInterner,
    plans: Vec<E::Plan>,
    /// One word per plan: the engine's over-approximating table mask,
    /// hoisted to a flat slice so the delta builder's dependency scan
    /// prunes unrelated plans with a single AND instead of chasing into
    /// the (much larger) compiled-plan structs.
    plan_masks: Vec<u64>,
    memo: Mutex<Vec<MemoEntry<E>>>,
    memo_capacity: usize,
    epoch_builds: AtomicU64,
    delta_builds: AtomicU64,
    recosted_queries: AtomicU64,
    epoch_reuses: AtomicU64,
    epoch_evictions: AtomicU64,
}

impl<'e, E: PlanningEngine> CostKernel<'e, E> {
    /// Interns `workloads` (preserving each one's entry order) and compiles
    /// every distinct query once. Returns the kernel plus the interned
    /// workloads, aligned with the input slice.
    pub fn build(engine: &'e E, workloads: &[Workload]) -> (Self, Vec<InternedWorkload>) {
        Self::build_with(engine, workloads, EPOCH_MEMO_CAPACITY)
    }

    /// [`build`](Self::build) with an explicit count of epochs kept in the
    /// in-memory memo (clamped to ≥ 1). Replica fleets size it
    /// `max(4, R + 2)` so every live replica epoch plus a candidate fits
    /// without thrashing.
    pub fn build_with(
        engine: &'e E,
        workloads: &[Workload],
        memo_capacity: usize,
    ) -> (Self, Vec<InternedWorkload>) {
        let mut interner = WorkloadInterner::new();
        let interned: Vec<InternedWorkload> =
            workloads.iter().map(|w| interner.intern(w)).collect();
        let plans: Vec<E::Plan> = interner
            .queries()
            .iter()
            .map(|q| engine.compile_plan(q))
            .collect();
        let memo_capacity = memo_capacity.max(1);
        let plan_masks: Vec<u64> = plans.iter().map(|p| engine.plan_tables_mask(p)).collect();
        let kernel = Self {
            engine,
            interner,
            plans,
            plan_masks,
            memo: Mutex::new(Vec::with_capacity(memo_capacity)),
            memo_capacity,
            epoch_builds: AtomicU64::new(0),
            delta_builds: AtomicU64::new(0),
            recosted_queries: AtomicU64::new(0),
            epoch_reuses: AtomicU64::new(0),
            epoch_evictions: AtomicU64::new(0),
        };
        (kernel, interned)
    }

    /// The engine this kernel evaluates against.
    pub fn engine(&self) -> &'e E {
        self.engine
    }

    /// The interner (for id lookups and dedup statistics).
    pub fn interner(&self) -> &WorkloadInterner {
        &self.interner
    }

    /// The latency epoch for `d`, cheapest source first:
    ///
    /// 1. **memo** — fingerprint hit returns the shared epoch;
    /// 2. **delta** — any memoized base: clone its vector, re-cost only
    ///    the queries depending on a touched structure;
    /// 3. **full** — fill the whole vector, one plan evaluation per query.
    ///
    /// All three sources yield bit-identical vectors (delta by the
    /// dependency-predicate contract), so callers never observe which one
    /// answered.
    pub fn epoch(&self, d: &E::Design) -> Arc<DesignEpoch> {
        let fingerprint = d.fingerprint();
        let (structures, hashes, base) = {
            let mut memo = self.memo.lock();
            if let Some(i) = memo.iter().position(|e| e.epoch.fingerprint == fingerprint) {
                let hit = memo.remove(i);
                let epoch = Arc::clone(&hit.epoch);
                memo.push(hit); // most-recently-used last
                self.epoch_reuses.fetch_add(1, Ordering::Relaxed);
                return epoch;
            }
            // The one copy of the target's structures: the delta build
            // reads it and the memo keeps it.
            let structures: Structures<E> = Arc::new(d.structures());
            let hashes = sorted_hashes::<E>(&structures);
            let base = pick_delta_base(&memo, &hashes);
            (structures, hashes, base)
        };
        // Build outside the lock: epoch fills are the kernel's one heavy
        // step and must not serialize against memo probes. The descent
        // loop is sequential at this level, so duplicate concurrent fills
        // do not arise in practice (and would be harmless — pure).
        let epoch = match base {
            Some((base_epoch, base_structures)) => Arc::new(self.delta_epoch(
                fingerprint,
                d,
                &base_epoch,
                &base_structures,
                &structures,
            )),
            None => Arc::new(self.build_epoch(fingerprint, d)),
        };
        self.insert_memo(Arc::clone(&epoch), structures, hashes);
        epoch
    }

    /// Delta-builds the epoch for `d` from `base`'s epoch explicitly: the
    /// touched set is the symmetric difference of the two structure
    /// multisets, and only queries whose plans depend on a touched
    /// structure are re-costed. Bit-identical to [`epoch`](Self::epoch)
    /// on `d` by the [`PlanningEngine::plan_depends_on`] contract; the
    /// result is memoized like any other epoch.
    pub fn epoch_from(&self, base: &E::Design, d: &E::Design) -> Arc<DesignEpoch> {
        let base_epoch = self.epoch(base);
        let structures: Structures<E> = Arc::new(d.structures());
        let hashes = sorted_hashes::<E>(&structures);
        let epoch = Arc::new(self.delta_epoch(
            d.fingerprint(),
            d,
            &base_epoch,
            &base.structures(),
            &structures,
        ));
        self.insert_memo(Arc::clone(&epoch), structures, hashes);
        epoch
    }

    /// Memoizes an epoch, evicting the least recently used entry under
    /// capacity pressure.
    fn insert_memo(&self, epoch: Arc<DesignEpoch>, structures: Structures<E>, hashes: Vec<u64>) {
        let mut memo = self.memo.lock();
        if memo
            .iter()
            .any(|e| e.epoch.fingerprint == epoch.fingerprint)
        {
            return;
        }
        if memo.len() >= self.memo_capacity {
            memo.remove(0); // least-recently-used first
            self.epoch_evictions.fetch_add(1, Ordering::Relaxed);
        }
        memo.push(MemoEntry {
            epoch,
            structures,
            hashes,
        });
    }

    fn build_epoch(&self, fingerprint: u64, d: &E::Design) -> DesignEpoch {
        let t0 = cliffguard_telemetry::metrics_enabled().then(std::time::Instant::now);
        let lat = self
            .plans
            .iter()
            .map(|p| self.engine.plan_latency_ms(p, d))
            .collect();
        self.epoch_builds.fetch_add(1, Ordering::Relaxed);
        if let Some(t0) = t0 {
            if let Some(h) = cliffguard_telemetry::histogram("cliffguard.sim.kernel.build_ms") {
                h.record(cliffguard_telemetry::elapsed_ms(t0));
            }
        }
        DesignEpoch { fingerprint, lat }
    }

    /// Clones the base vector and re-costs only the queries whose plans
    /// depend on a touched structure.
    fn delta_epoch(
        &self,
        fingerprint: u64,
        d: &E::Design,
        base_epoch: &DesignEpoch,
        base_structures: &[<E::Design as PhysicalDesign>::Structure],
        target_structures: &[<E::Design as PhysicalDesign>::Structure],
    ) -> DesignEpoch {
        let t0 = cliffguard_telemetry::metrics_enabled().then(std::time::Instant::now);
        let touched = symmetric_difference::<E>(base_structures, target_structures);
        let mut lat = base_epoch.lat.clone();
        let dependent: Vec<usize> = if touched.is_empty() {
            Vec::new()
        } else {
            // Flat mask prefilter first: one AND per plan rules out every
            // plan on unrelated tables before the per-structure predicate
            // walks the compiled plan. Both layers over-approximate, so
            // the surviving set is exactly the predicate's.
            let touched_mask = touched
                .iter()
                .fold(0u64, |m, s| m | self.engine.structure_tables_mask(s));
            (0..self.plans.len())
                .filter(|&i| {
                    self.plan_masks[i] & touched_mask != 0
                        && touched
                            .iter()
                            .any(|s| self.engine.plan_depends_on(&self.plans[i], s))
                })
                .collect()
        };
        for &i in &dependent {
            lat[i] = self.engine.plan_latency_ms(&self.plans[i], d);
        }
        self.delta_builds.fetch_add(1, Ordering::Relaxed);
        self.recosted_queries
            .fetch_add(dependent.len() as u64, Ordering::Relaxed);
        if let Some(t0) = t0 {
            if let Some(ct) = cliffguard_telemetry::counter("cliffguard.sim.kernel.delta_builds") {
                ct.incr(1);
            }
            if let Some(ct) =
                cliffguard_telemetry::counter("cliffguard.sim.kernel.recosted_queries")
            {
                ct.incr(dependent.len() as u64);
            }
            if let Some(h) = cliffguard_telemetry::histogram("cliffguard.sim.kernel.delta_build_ms")
            {
                h.record(cliffguard_telemetry::elapsed_ms(t0));
            }
        }
        DesignEpoch { fingerprint, lat }
    }

    /// Aggregate cost of an interned workload under an epoch. Same fold,
    /// in the same entry order, as [`Engine::workload_cost`] — results are
    /// bit-identical to costing the source workload directly. Delegates to
    /// the flat-slice fold on [`DesignEpoch::workload_cost`].
    pub fn workload_cost(&self, w: &InternedWorkload, epoch: &DesignEpoch) -> WorkloadCost {
        epoch.workload_cost(w)
    }

    /// Latency of one query under the epoch's design: a dense array read
    /// for interned queries, a direct
    /// [`Engine::query_latency_ms`](crate::Engine::query_latency_ms) call
    /// for one-off queries the kernel has never seen.
    pub fn query_latency_ms(&self, q: &Query, d: &E::Design, epoch: &DesignEpoch) -> f64 {
        self.signed_query_latency_ms(q.signature(), q, d, epoch)
    }

    /// [`query_latency_ms`](Self::query_latency_ms) for a caller that
    /// already holds the query's signature (`q.signature()`).
    pub fn signed_query_latency_ms(
        &self,
        sig: QuerySignature,
        q: &Query,
        d: &E::Design,
        epoch: &DesignEpoch,
    ) -> f64 {
        match self.interner.id_of_signature(sig) {
            Some(id) => epoch.latency_ms(id),
            None => self.engine.query_latency_ms(q, d),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            interned_queries: self.interner.len(),
            raw_entries: self.interner.raw_entries(),
            dedup_ratio: self.interner.dedup_ratio(),
            epoch_builds: self.epoch_builds.load(Ordering::Relaxed),
            delta_builds: self.delta_builds.load(Ordering::Relaxed),
            recosted_queries: self.recosted_queries.load(Ordering::Relaxed),
            epoch_reuses: self.epoch_reuses.load(Ordering::Relaxed),
            epoch_evictions: self.epoch_evictions.load(Ordering::Relaxed),
        }
    }

    /// Publishes interner and delta-path gauges
    /// (`cliffguard.sim.kernel.interned_queries`, `dedup_ratio`,
    /// `delta_fraction`) into the installed telemetry registry; the
    /// `delta_builds` / `recosted_queries` counters increment live at each
    /// delta build. Metrics only — the kernel never writes trace events. A
    /// no-op when metrics are off.
    pub fn publish_metrics(&self) {
        if !cliffguard_telemetry::metrics_enabled() {
            return;
        }
        let stats = self.stats();
        let constructions = stats.epoch_builds + stats.delta_builds;
        let delta_fraction = if constructions == 0 {
            0.0
        } else {
            stats.delta_builds as f64 / constructions as f64
        };
        for (name, v) in [
            (
                "cliffguard.sim.kernel.interned_queries",
                stats.interned_queries as f64,
            ),
            ("cliffguard.sim.kernel.dedup_ratio", stats.dedup_ratio),
            ("cliffguard.sim.kernel.delta_fraction", delta_fraction),
        ] {
            if let Some(g) = cliffguard_telemetry::gauge(name) {
                g.set(v);
            }
        }
    }
}

/// The sorted [`structure_hash`]es of a design's structures.
fn sorted_hashes<E: PlanningEngine>(
    structures: &[<E::Design as PhysicalDesign>::Structure],
) -> Vec<u64> {
    let mut hashes: Vec<u64> = structures.iter().map(structure_hash).collect();
    hashes.sort_unstable();
    hashes
}

/// The memoized base closest to a target with sorted structure hashes
/// `target` (fewest touched structures), as shared handles. Ties break to
/// the earliest (least recently used) entry — deterministic because memo
/// order is.
///
/// Ranking reads only hashes, so it costs one merge per entry and clones
/// nothing. A hash collision can only make it pick a base with a larger
/// true touched set, which [`CostKernel::delta_epoch`] then computes by
/// structure equality: a slower delta, never a wrong epoch.
fn pick_delta_base<E: PlanningEngine>(
    memo: &[MemoEntry<E>],
    target: &[u64],
) -> Option<(Arc<DesignEpoch>, Structures<E>)> {
    let mut best: Option<(usize, usize)> = None; // (touched count, index)
    for (i, entry) in memo.iter().enumerate() {
        let touched = hash_difference(&entry.hashes, target);
        let better = match best {
            None => true,
            Some((b, _)) => touched < b,
        };
        if better {
            best = Some((touched, i));
        }
    }
    best.map(|(_, i)| (Arc::clone(&memo[i].epoch), Arc::clone(&memo[i].structures)))
}

/// The number of distinct hashes whose multiplicity differs between the
/// sorted lists `a` and `b`: the size of the touched set
/// [`symmetric_difference`] would compute, barring hash collisions, in one
/// merge.
fn hash_difference(a: &[u64], b: &[u64]) -> usize {
    let run = |xs: &[u64], h: u64| xs.iter().take_while(|&&x| x == h).count();
    let (mut i, mut j, mut touched) = (0, 0, 0);
    loop {
        let h = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => return touched,
        };
        let (ca, cb) = (run(&a[i..], h), run(&b[j..], h));
        if ca != cb {
            touched += 1;
        }
        i += ca;
        j += cb;
    }
}

/// The structures whose multiset count differs between `a` and `b` — the
/// touched set of a delta build. First-occurrence order over `a` then `b`
/// (deterministic, though the dependency filter is an order-insensitive
/// `any` regardless).
///
/// Quadratic equality scans instead of a hash map: designs hold at most a
/// few dozen structures, and structure `Eq` (a couple of word compares) is
/// far cheaper than hashing every column id on the delta hot path.
fn symmetric_difference<E: PlanningEngine>(
    a: &[<E::Design as PhysicalDesign>::Structure],
    b: &[<E::Design as PhysicalDesign>::Structure],
) -> Vec<<E::Design as PhysicalDesign>::Structure> {
    let count = |xs: &[<E::Design as PhysicalDesign>::Structure],
                 s: &<E::Design as PhysicalDesign>::Structure| {
        xs.iter().filter(|x| *x == s).count()
    };
    let mut touched: Vec<<E::Design as PhysicalDesign>::Structure> = Vec::new();
    for s in a.iter().chain(b) {
        if count(a, s) != count(b, s) && !touched.contains(s) {
            touched.push(s.clone());
        }
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{ColumnarDesign, ColumnarEngine, Projection};
    use crate::engine::Engine;
    use cliffguard_storage::{Catalog, ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::{ColumnSet, PredOp, QueryBuilder, TableId};

    fn catalog() -> Catalog {
        Catalog::new(vec![TableDef {
            name: "fact".into(),
            columns: (0..8)
                .map(|i| ColumnDef {
                    name: format!("c{i}"),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(10_000),
                })
                .collect(),
            rows: 4_000_000,
        }])
    }

    fn design(cols: &[u32], sort: &[u32]) -> ColumnarDesign {
        ColumnarDesign::from_structures(vec![Projection::new(
            TableId(0),
            ColumnSet::from_ids(cols),
            sort.iter()
                .map(|&c| cliffguard_workload::ColumnId(c))
                .collect(),
        )])
    }

    fn workloads() -> Vec<Workload> {
        let q = |sel: u32, f: f64| {
            QueryBuilder::new(TableId(0))
                .select(&[sel])
                .filter((sel + 1) % 8, PredOp::Eq, f)
                .build()
        };
        vec![
            Workload::from_queries([(q(1, 0.01), 3.0), (q(2, 0.05), 1.0)]),
            Workload::from_queries([(q(2, 0.05), 2.0), (q(3, 0.2), 5.0)]),
            Workload::from_queries([(q(1, 0.01), 1.0)]),
        ]
    }

    #[test]
    fn kernel_costs_match_direct_engine_bitwise() {
        let engine = ColumnarEngine::new(catalog());
        let ws = workloads();
        let (kernel, interned) = CostKernel::build(&engine, &ws);
        for d in [
            design(&[1, 2], &[2]),
            design(&[1, 2, 3, 4], &[3]),
            ColumnarDesign::empty(),
        ] {
            let epoch = kernel.epoch(&d);
            for (w, iw) in ws.iter().zip(&interned) {
                let direct = engine.workload_cost(w, &d);
                let dense = kernel.workload_cost(iw, &epoch);
                assert_eq!(direct.total_ms.to_bits(), dense.total_ms.to_bits());
                assert_eq!(direct.avg_ms.to_bits(), dense.avg_ms.to_bits());
                assert_eq!(direct.max_ms.to_bits(), dense.max_ms.to_bits());
            }
        }
    }

    #[test]
    fn epoch_memo_reuses_designs() {
        let engine = ColumnarEngine::new(catalog());
        let ws = workloads();
        let (kernel, _) = CostKernel::build(&engine, &ws);
        let d = design(&[1, 2], &[1]);
        let a = kernel.epoch(&d);
        let b = kernel.epoch(&d);
        assert!(Arc::ptr_eq(&a, &b), "same design must reuse its epoch");
        let s = kernel.stats();
        assert_eq!(s.epoch_builds, 1);
        assert_eq!(s.epoch_reuses, 1);
        // A structurally equal design built in a different order also hits.
        let d2 = design(&[1, 2], &[1]);
        let c = kernel.epoch(&d2);
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn memo_evicts_least_recently_used() {
        let engine = ColumnarEngine::new(catalog());
        let ws = workloads();
        let (kernel, _) = CostKernel::build(&engine, &ws);
        let designs: Vec<ColumnarDesign> = (0..=EPOCH_MEMO_CAPACITY as u32)
            .map(|i| design(&[1, 2 + i % 5], &[]))
            .collect();
        for d in &designs {
            let _ = kernel.epoch(d);
        }
        let s = kernel.stats();
        assert!(s.epoch_evictions >= 1, "cycling past capacity must evict");
        // First design was evicted; asking again reconstructs it (via the
        // delta path, since the memo holds usable bases).
        let before = s.epoch_builds + s.delta_builds;
        let _ = kernel.epoch(&designs[0]);
        let after = kernel.stats();
        assert_eq!(after.epoch_builds + after.delta_builds, before + 1);
        assert!(
            after.delta_builds >= 1,
            "rebuild should take the delta path"
        );
    }

    #[test]
    fn custom_memo_capacity_avoids_eviction() {
        let engine = ColumnarEngine::new(catalog());
        let ws = workloads();
        let (kernel, _) = CostKernel::build_with(&engine, &ws, EPOCH_MEMO_CAPACITY + 4);
        let designs: Vec<ColumnarDesign> = (0..=EPOCH_MEMO_CAPACITY as u32)
            .map(|i| design(&[1, 2 + i % 5], &[]))
            .collect();
        for d in &designs {
            let _ = kernel.epoch(d);
        }
        // Everything still fits: re-asking the first design is a memo hit.
        let constructions = {
            let s = kernel.stats();
            s.epoch_builds + s.delta_builds
        };
        let _ = kernel.epoch(&designs[0]);
        let s = kernel.stats();
        assert_eq!(s.epoch_builds + s.delta_builds, constructions);
        assert_eq!(s.epoch_evictions, 0);
        assert!(s.epoch_reuses >= 1);
    }

    #[test]
    fn delta_epoch_matches_full_build_bitwise() {
        let engine = ColumnarEngine::new(catalog());
        let ws = workloads();
        let base = ColumnarDesign::from_structures(vec![
            Projection::new(TableId(0), ColumnSet::from_ids(&[1, 2]), vec![]),
            Projection::new(TableId(0), ColumnSet::from_ids(&[3, 4]), vec![]),
        ]);
        let target = ColumnarDesign::from_structures(vec![
            Projection::new(TableId(0), ColumnSet::from_ids(&[1, 2]), vec![]),
            Projection::new(TableId(0), ColumnSet::from_ids(&[2, 3]), vec![]),
        ]);
        // Delta path.
        let (kernel, _) = CostKernel::build(&engine, &ws);
        let delta = kernel.epoch_from(&base, &target);
        assert!(kernel.stats().delta_builds >= 1);
        // Full reference on a fresh kernel (cold memo → full build).
        let (fresh, _) = CostKernel::build(&engine, &ws);
        let full = fresh.epoch(&target);
        assert_eq!(delta.fingerprint(), full.fingerprint());
        for (a, b) in delta.latencies().iter().zip(full.latencies()) {
            assert_eq!(a.to_bits(), b.to_bits(), "delta epoch diverged from full");
        }
        // The touched set was one projection swap, so the delta re-costed
        // at most everything, typically less.
        assert!(kernel.stats().recosted_queries <= kernel.interner().len() as u64);
    }

    #[test]
    fn uninterned_query_uses_fallback_cache() {
        let engine = ColumnarEngine::new(catalog());
        let ws = workloads();
        let (kernel, _) = CostKernel::build(&engine, &ws);
        let d = design(&[1, 2], &[1]);
        let epoch = kernel.epoch(&d);
        let stranger = QueryBuilder::new(TableId(0))
            .select(&[6, 7])
            .filter(5, PredOp::Range, 0.4)
            .build();
        let direct = engine.query_latency_ms(&stranger, &d);
        let via_kernel = kernel.query_latency_ms(&stranger, &d, &epoch);
        assert_eq!(direct.to_bits(), via_kernel.to_bits());
    }

    #[test]
    fn hash_ranking_counts_the_touched_set() {
        let p = |cols: &[u32]| Projection::new(TableId(0), ColumnSet::from_ids(cols), vec![]);
        let pool: Vec<Projection> = (1..7).map(|c| p(&[c, (c + 1) % 8])).collect();
        // Multisets over the pool, duplicates included, in every pairing.
        let sets: Vec<Vec<Projection>> = (0u32..64)
            .map(|mask| {
                (0..pool.len())
                    .filter(|&i| mask & (1 << i) != 0)
                    .flat_map(|i| {
                        std::iter::repeat(pool[i].clone()).take(1 + (mask as usize + i) % 2)
                    })
                    .collect()
            })
            .collect();
        for a in &sets {
            for b in &sets {
                assert_eq!(
                    hash_difference(
                        &sorted_hashes::<ColumnarEngine>(a),
                        &sorted_hashes::<ColumnarEngine>(b)
                    ),
                    symmetric_difference::<ColumnarEngine>(a, b).len()
                );
            }
        }
    }

    #[test]
    fn dedup_ratio_reflects_sharing() {
        let engine = ColumnarEngine::new(catalog());
        let ws = workloads();
        let (kernel, _) = CostKernel::build(&engine, &ws);
        let s = kernel.stats();
        assert_eq!(s.interned_queries, 3, "three distinct queries");
        assert_eq!(s.raw_entries, 5, "five entries across the workloads");
        assert!((s.dedup_ratio - 5.0 / 3.0).abs() < 1e-12);
    }
}
