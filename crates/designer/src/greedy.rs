//! Greedy benefit/price designer — the nominal black box.
//!
//! The standard commercial-advisor recipe: evaluate each candidate's
//! standalone benefit per query once (the *atomic configuration*
//! approximation: each query is served by its single best structure), then
//! repeatedly add the candidate with the highest benefit-per-byte until the
//! budget is exhausted or nothing helps. This is deliberately a *nominal*
//! designer: it optimizes exactly the workload it is given, overfitting and
//! all — which is precisely the brittleness CliffGuard exists to fix.

use crate::traits::{CandidateGen, NominalDesigner};
use cliffguard_sim::{PhysicalDesign, PlanningEngine};
use cliffguard_workload::Workload;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Minimum total-ms gain for a structure to be worth adding.
const MIN_GAIN_MS: f64 = 1e-6;

/// CELF heap entry: a (possibly stale) upper bound on one candidate's
/// benefit-per-byte density, tagged with the selection round it was
/// computed in.
struct CelfEntry {
    density: f64,
    candidate: usize,
    round: usize,
}

impl PartialEq for CelfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for CelfEntry {}
impl PartialOrd for CelfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CelfEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher density first; exact ties broken toward the
        // lower candidate index, matching the eager reference selection.
        self.density
            .total_cmp(&other.density)
            .then_with(|| other.candidate.cmp(&self.candidate))
    }
}

/// Precomputed per-(query, candidate) standalone latencies, stored
/// sparsely.
///
/// Shared by the greedy designer and the ILP selector so both optimize the
/// same objective. Candidate `c` keeps a cell only for the queries whose
/// plans pass the engine's table-mask prefilter and
/// [`PlanningEngine::plan_depends_on`]; every other query's latency under
/// `{c}` *is* its base latency, bit for bit (the predicate's soundness
/// contract). Dropping those cells is exact: the selection state
/// `current` never rises above `base`, so a skipped cell adds exactly
/// `+0.0` to a gain and never lowers `current`, and `f64::min` is exact.
pub struct BenefitMatrix<S> {
    /// The candidate structures.
    pub candidates: Vec<S>,
    /// Price (bytes) of each candidate.
    pub prices: Vec<u64>,
    /// Per distinct query: raw weight and latency under the empty design.
    weights: Vec<f64>,
    base: Vec<f64>,
    /// Candidate `c`'s cells are `cells[rows[c]..rows[c + 1]]`:
    /// `(query, latency under {c})` in ascending query order.
    rows: Vec<usize>,
    cells: Vec<(u32, f64)>,
    /// Per-query latencies reused by [`cost_of_set`](Self::cost_of_set).
    scratch: RefCell<Vec<f64>>,
}

impl<S: Clone> BenefitMatrix<S> {
    /// Builds the matrix: one plan compilation per query, one plan
    /// evaluation per (query, candidate) cell the dependency predicate
    /// keeps.
    pub fn build<E>(engine: &E, w: &Workload, candidates: Vec<S>) -> Self
    where
        E: PlanningEngine,
        E::Design: PhysicalDesign<Structure = S>,
    {
        Self::build_cells(engine, w, candidates, true)
    }

    /// [`build`](Self::build) without the dependency predicate: every
    /// (query, candidate) cell is evaluated and kept. The reference the
    /// pruned matrix is tested against.
    pub fn build_unpruned<E>(engine: &E, w: &Workload, candidates: Vec<S>) -> Self
    where
        E: PlanningEngine,
        E::Design: PhysicalDesign<Structure = S>,
    {
        Self::build_cells(engine, w, candidates, false)
    }

    fn build_cells<E>(engine: &E, w: &Workload, candidates: Vec<S>, prune: bool) -> Self
    where
        E: PlanningEngine,
        E::Design: PhysicalDesign<Structure = S>,
    {
        // Compile each distinct query once; every row of the matrix then
        // evaluates the same plans against a single-structure design,
        // skipping the per-call decomposition entirely.
        let weights: Vec<f64> = w.iter().map(|(_, wt)| wt).collect();
        let plans: Vec<E::Plan> = w.iter().map(|(q, _)| engine.compile_plan(q)).collect();
        let masks: Vec<u64> = plans.iter().map(|p| engine.plan_tables_mask(p)).collect();
        let empty = E::Design::default();
        let base: Vec<f64> = plans
            .iter()
            .map(|p| engine.plan_latency_ms(p, &empty))
            .collect();
        let prices: Vec<u64> = candidates
            .iter()
            .map(|c| E::Design::structure_price(c, engine.catalog()))
            .collect();
        // The designer's hot loop: one plan evaluation per kept
        // (candidate, query) pair. One AND against the plan's table mask
        // rules out plans on other tables before the predicate walks the
        // plan; both over-approximate, so the kept set is the predicate's.
        let n = u32::try_from(plans.len()).expect("more than u32::MAX queries");
        let mut rows = Vec::with_capacity(candidates.len() + 1);
        rows.push(0);
        let mut cells = Vec::new();
        for c in &candidates {
            let d = E::Design::from_structures(vec![c.clone()]);
            let c_mask = engine.structure_tables_mask(c);
            for (q, (p, &mask)) in (0..n).zip(plans.iter().zip(&masks)) {
                if !prune || (mask & c_mask != 0 && engine.plan_depends_on(p, c)) {
                    cells.push((q, engine.plan_latency_ms(p, &d)));
                }
            }
            rows.push(cells.len());
        }
        Self::from_cells(candidates, prices, weights, base, rows, cells)
    }

    fn from_cells(
        candidates: Vec<S>,
        prices: Vec<u64>,
        weights: Vec<f64>,
        base: Vec<f64>,
        rows: Vec<usize>,
        cells: Vec<(u32, f64)>,
    ) -> Self {
        let n = base.len();
        Self {
            candidates,
            prices,
            weights,
            base,
            rows,
            cells,
            scratch: RefCell::new(Vec::with_capacity(n)),
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Candidate `c`'s stored cells, in ascending query order.
    fn row(&self, c: usize) -> &[(u32, f64)] {
        &self.cells[self.rows[c]..self.rows[c + 1]]
    }

    /// Number of stored (query, candidate) cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Latency of query `q` (in workload entry order) under the design
    /// `{candidate c}`: its stored cell, or the base latency.
    pub fn latency(&self, c: usize, q: usize) -> f64 {
        let row = self.row(c);
        match row.binary_search_by_key(&(q as u32), |&(cq, _)| cq) {
            Ok(i) => row[i].1,
            Err(_) => self.base[q],
        }
    }

    /// Weighted total latency of the workload when each query picks its
    /// best structure from `chosen` (or the base design).
    pub fn cost_of_set(&self, chosen: &[usize]) -> f64 {
        let mut best = self.scratch.borrow_mut();
        best.clear();
        best.extend_from_slice(&self.base);
        for &c in chosen {
            for &(q, lat) in self.row(c) {
                let b = &mut best[q as usize];
                *b = b.min(lat);
            }
        }
        self.weights
            .iter()
            .zip(best.iter())
            .map(|(wt, b)| wt * b)
            .sum()
    }

    /// Marginal gain (total weighted ms saved) of adding candidate `c` when
    /// queries currently run at `current` latencies. Only `c`'s cells can
    /// contribute; the sum starts at `+0.0`, as a dense sum over at least
    /// one query does.
    fn gain(&self, current: &[f64], c: usize) -> f64 {
        self.row(c).iter().fold(0.0, |acc, &(q, lat)| {
            let q = q as usize;
            acc + self.weights[q] * (current[q] - lat).max(0.0)
        })
    }

    /// Lowers `current` to candidate `c`'s latencies where they are
    /// smaller.
    fn apply(&self, current: &mut [f64], c: usize) {
        for &(q, lat) in self.row(c) {
            let cur = &mut current[q as usize];
            *cur = cur.min(lat);
        }
    }

    /// Standalone gain of a candidate against the base design.
    pub fn standalone_gain(&self, c: usize) -> f64 {
        self.gain(&self.base, c)
    }

    /// Greedy benefit-per-byte selection under a byte budget (CELF lazy
    /// greedy). Returns the chosen candidate indices in selection order.
    pub fn greedy_select(&self, budget_bytes: u64) -> Vec<usize> {
        self.greedy_select_with_stats(budget_bytes).0
    }

    /// [`greedy_select`](Self::greedy_select) plus the number of lazy
    /// re-evaluations performed — the work an eager rescan would have
    /// multiplied by the full candidate count every round.
    ///
    /// The objective is submodular under the atomic-configuration model:
    /// `current` only ever decreases pointwise, so a candidate's gain only
    /// shrinks between rounds and a previously computed density is a valid
    /// upper bound. The max-heap therefore only re-evaluates entries that
    /// surface at the top (CELF); everything below keeps its stale bound.
    /// Exact density ties break toward the lower candidate index, same as
    /// [`greedy_select_eager`](Self::greedy_select_eager), so both paths
    /// select identical sets in identical order.
    pub fn greedy_select_with_stats(&self, budget_bytes: u64) -> (Vec<usize>, u64) {
        let mut current = self.base.clone();
        let mut remaining = budget_bytes;
        let mut chosen: Vec<usize> = Vec::new();
        let mut reevaluations: u64 = 0;
        let mut heap: BinaryHeap<CelfEntry> = (0..self.candidates.len())
            .filter_map(|c| {
                let g = self.standalone_gain(c);
                (g > MIN_GAIN_MS).then(|| CelfEntry {
                    density: g / (self.prices[c].max(1) as f64),
                    candidate: c,
                    round: 0,
                })
            })
            .collect();
        while let Some(top) = heap.pop() {
            let c = top.candidate;
            if self.prices[c] > remaining {
                // The budget only shrinks: never affordable again.
                continue;
            }
            if top.round < chosen.len() {
                // Stale upper bound: re-evaluate against the current
                // latencies and re-push at the current round.
                reevaluations += 1;
                let g = self.gain(&current, c);
                if g > MIN_GAIN_MS {
                    heap.push(CelfEntry {
                        density: g / (self.prices[c].max(1) as f64),
                        candidate: c,
                        round: chosen.len(),
                    });
                }
                // Gains never grow, so a now-worthless candidate stays
                // worthless: drop it for good.
                continue;
            }
            // Fresh entry at the top: every other candidate's true density
            // sits at or below its (stale) bound, hence at or below this
            // one. Select it.
            remaining -= self.prices[c];
            self.apply(&mut current, c);
            chosen.push(c);
        }
        if reevaluations > 0 {
            if let Some(ct) =
                cliffguard_telemetry::counter("cliffguard.designer.celf.reevaluations")
            {
                ct.incr(reevaluations);
            }
        }
        (chosen, reevaluations)
    }

    /// The eager reference selection: recompute every candidate's gain each
    /// round and take the densest affordable one (ties toward the lower
    /// candidate index). O(rounds × candidates × queries) — kept as the
    /// specification that [`greedy_select`](Self::greedy_select) is tested
    /// against and as the bench comparison point.
    pub fn greedy_select_eager(&self, budget_bytes: u64) -> Vec<usize> {
        let mut current = self.base.clone();
        let mut remaining = budget_bytes;
        let mut chosen: Vec<usize> = Vec::new();
        let mut taken = vec![false; self.candidates.len()];
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (c, &already) in taken.iter().enumerate() {
                if already || self.prices[c] > remaining {
                    continue;
                }
                let g = self.gain(&current, c);
                if g <= MIN_GAIN_MS {
                    continue;
                }
                let density = g / (self.prices[c].max(1) as f64);
                if best.map_or(true, |(_, bd)| density > bd) {
                    best = Some((c, density));
                }
            }
            let Some((c, _)) = best else { break };
            taken[c] = true;
            remaining -= self.prices[c];
            self.apply(&mut current, c);
            chosen.push(c);
        }
        chosen
    }
}

/// The greedy nominal designer: candidate generation + greedy selection.
pub struct GreedyDesigner<'e, E, G> {
    engine: &'e E,
    generator: G,
    label: String,
}

impl<'e, E: PlanningEngine, G: CandidateGen<E>> GreedyDesigner<'e, E, G> {
    /// Creates the designer.
    pub fn new(engine: &'e E, generator: G, label: impl Into<String>) -> Self {
        Self {
            engine,
            generator,
            label: label.into(),
        }
    }

    /// The engine this designer targets.
    pub fn engine(&self) -> &'e E {
        self.engine
    }

    /// Builds the benefit matrix for a workload (exposed for the baselines
    /// that share it).
    pub fn matrix(&self, w: &Workload) -> BenefitMatrix<<E::Design as PhysicalDesign>::Structure> {
        let candidates = self.generator.candidates(self.engine, w);
        BenefitMatrix::build(self.engine, w, candidates)
    }
}

impl<E: PlanningEngine, G: CandidateGen<E>> NominalDesigner<E> for GreedyDesigner<'_, E, G> {
    fn design(&self, w: &Workload, budget_bytes: u64) -> E::Design {
        if w.is_empty() {
            return E::Design::default();
        }
        let m = self.matrix(w);
        let chosen = m.greedy_select(budget_bytes);
        E::Design::from_structures(
            chosen
                .into_iter()
                .map(|c| m.candidates[c].clone())
                .collect(),
        )
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::ColumnarCandidates;
    use cliffguard_sim::{ColumnarDesign, ColumnarEngine, Engine};
    use cliffguard_storage::{Catalog, ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::{PredOp, QueryBuilder, TableId};

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
            rows: 8_000_000,
        }])
    }

    fn workload() -> Workload {
        Workload::from_queries([
            (
                QueryBuilder::new(TableId(0))
                    .select(&[2])
                    .filter(1, PredOp::Eq, 0.001)
                    .build(),
                10.0,
            ),
            (
                QueryBuilder::new(TableId(0))
                    .select(&[3, 4])
                    .filter(5, PredOp::Eq, 0.001)
                    .build(),
                5.0,
            ),
            (
                QueryBuilder::new(TableId(0)).select(&[6]).build(), // unhelpable scan
                1.0,
            ),
        ])
    }

    #[test]
    fn greedy_design_reduces_cost_within_budget() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let w = workload();
        let budget = 2_000_000_000; // 2 GB
        let design = d.design(&w, budget);
        assert!(!design.is_empty());
        assert!(design.price_bytes(e.catalog()) <= budget);
        let tuned = e.cost_f(&w, &design);
        let bare = e.cost_f(&w, &ColumnarDesign::empty());
        assert!(tuned < bare / 2.0, "tuned {tuned} vs bare {bare}");
    }

    #[test]
    fn zero_budget_yields_empty_design() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let design = d.design(&workload(), 0);
        assert!(design.is_empty());
    }

    #[test]
    fn empty_workload_yields_empty_design() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        assert!(d.design(&Workload::new(), u64::MAX).is_empty());
        assert_eq!(d.name(), "DBD");
    }

    #[test]
    fn matrix_cost_of_set_matches_greedy_intuition() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let w = workload();
        let m = d.matrix(&w);
        assert!(!m.is_empty());
        let all: Vec<usize> = (0..m.len()).collect();
        // More structures never hurt under the atomic model.
        assert!(m.cost_of_set(&all) <= m.cost_of_set(&[]) + 1e-9);
        // Standalone gains are non-negative.
        for c in 0..m.len() {
            assert!(m.standalone_gain(c) >= 0.0);
        }
    }

    #[test]
    fn greedy_respects_budget_exactly() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let w = workload();
        let m = d.matrix(&w);
        // Budget big enough for exactly the cheapest useful candidate.
        let min_price = *m.prices.iter().min().unwrap();
        let chosen = m.greedy_select(min_price);
        let spent: u64 = chosen.iter().map(|&c| m.prices[c]).sum();
        assert!(spent <= min_price);
    }

    #[test]
    fn larger_budget_never_worse() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let w = workload();
        let m = d.matrix(&w);
        let small = m.cost_of_set(&m.greedy_select(500_000_000));
        let large = m.cost_of_set(&m.greedy_select(5_000_000_000));
        assert!(large <= small + 1e-9);
    }

    #[test]
    fn celf_matches_eager_on_real_matrix() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let m = d.matrix(&workload());
        for budget in [0, 400_000_000, 2_000_000_000, u64::MAX] {
            let (lazy, _) = m.greedy_select_with_stats(budget);
            assert_eq!(lazy, m.greedy_select_eager(budget), "budget {budget}");
        }
    }

    /// Deterministic pseudo-random sparse matrix for exercising selection
    /// alone (no engine involved). About a third
    /// of the (candidate, query) pairs hold no cell, i.e. the base latency.
    fn random_matrix(seed: u64, n_cand: usize, n_query: usize) -> BenefitMatrix<usize> {
        // SplitMix64 stream — self-contained, reproducible.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
        let base: Vec<f64> = (0..n_query).map(|_| 100.0 + 900.0 * unit(next())).collect();
        let mut rows = vec![0];
        let mut cells = Vec::new();
        for _ in 0..n_cand {
            for (q, &b) in base.iter().enumerate() {
                let v = next();
                if v % 3 != 0 {
                    // Sometimes better than base, sometimes worse.
                    cells.push((q as u32, b * (0.05 + 1.4 * unit(v))));
                }
            }
            rows.push(cells.len());
        }
        BenefitMatrix::from_cells(
            (0..n_cand).collect(),
            (0..n_cand).map(|_| 1 + next() % 1000).collect(),
            (0..n_query).map(|_| 1.0 + 9.0 * unit(next())).collect(),
            base,
            rows,
            cells,
        )
    }

    #[test]
    fn celf_matches_eager_on_random_matrices() {
        for seed in 0..50u64 {
            let m = random_matrix(seed, 1 + (seed as usize % 17), 1 + (seed as usize % 7));
            for budget in [0, 50, 500, 5_000, u64::MAX] {
                let (lazy, _) = m.greedy_select_with_stats(budget);
                let eager = m.greedy_select_eager(budget);
                assert_eq!(lazy, eager, "seed {seed} budget {budget}");
            }
        }
    }

    #[test]
    fn celf_reevaluates_less_than_eager_rescans() {
        let m = random_matrix(7, 40, 10);
        let (chosen, reevals) = m.greedy_select_with_stats(u64::MAX);
        assert!(!chosen.is_empty());
        // An eager implementation rescans every remaining candidate each
        // round; CELF must do strictly less re-evaluation work.
        let eager_rescans = (chosen.len() as u64) * (m.len() as u64);
        assert!(
            reevals < eager_rescans,
            "CELF {reevals} vs eager bound {eager_rescans}"
        );
    }
}
