//! Exact structure selection by branch-and-bound.
//!
//! The paper's `OptimalLocalSearchDesigner` "solves an Integer Linear
//! Program to find an optimal set of structures that fit in the budget and
//! minimize the cost of Ŵ". The classic ILP (Papadomanolakis & Ailamaki,
//! and the paper's refs [61, 66]) has variables `x_c` (structure built) and
//! `y_{q,c}` (query `q` answered by `c`) — equivalent, after eliminating
//! `y`, to maximizing the atomic-model gain
//! `Σ_q w_q · (base_q − min_{c ∈ S} lat_{c,q})` subject to
//! `Σ_{c ∈ S} price_c ≤ B`.
//!
//! We solve that exactly with depth-first branch-and-bound. The upper bound
//! at each node adds the *standalone* gains of the remaining candidates,
//! taken fractionally in density order (a knapsack LP relaxation); since
//! marginal gains under the `min` objective are subadditive, standalone
//! gains upper-bound true marginal gains and the bound is valid.

use crate::greedy::BenefitMatrix;

/// Exact branch-and-bound selector over a [`BenefitMatrix`].
#[derive(Debug, Clone, Copy)]
pub struct IlpSelector {
    /// Candidates are pre-pruned to the top-`max_candidates` by standalone
    /// gain before the exact search (keeps worst-case tractable; 2^24
    /// nodes would not be).
    pub max_candidates: usize,
}

impl Default for IlpSelector {
    fn default() -> Self {
        Self { max_candidates: 22 }
    }
}

impl IlpSelector {
    /// Solves for the optimal subset under `budget_bytes`; returns chosen
    /// candidate indices (into the matrix).
    pub fn select<S: Clone>(&self, m: &BenefitMatrix<S>, budget_bytes: u64) -> Vec<usize> {
        // Prune to the most promising candidates, ordered by gain density.
        let gains: Vec<f64> = (0..m.len()).map(|c| m.standalone_gain(c)).collect();
        let mut order: Vec<usize> = (0..m.len())
            .filter(|&c| gains[c] > 0.0 && m.prices[c] <= budget_bytes)
            .collect();
        order.sort_by(|&a, &b| {
            let da = gains[a] / m.prices[a].max(1) as f64;
            let db = gains[b] / m.prices[b].max(1) as f64;
            db.total_cmp(&da)
        });
        order.truncate(self.max_candidates);
        if order.is_empty() {
            return Vec::new();
        }

        let base_cost = m.cost_of_set(&[]);
        let standalone: Vec<f64> = order.iter().map(|&c| gains[c]).collect();

        struct Search<'a, S> {
            m: &'a BenefitMatrix<S>,
            order: &'a [usize],
            standalone: &'a [f64],
            budget: u64,
            base_cost: f64,
            best_gain: f64,
            best_set: Vec<usize>,
        }

        impl<S: Clone> Search<'_, S> {
            /// Fractional-knapsack upper bound on the gain attainable from
            /// candidates `depth..` with `remaining` budget.
            fn bound(&self, depth: usize, remaining: u64) -> f64 {
                let mut left = remaining as f64;
                let mut b = 0.0;
                for i in depth..self.order.len() {
                    let price = self.m.prices[self.order[i]].max(1) as f64;
                    if left <= 0.0 {
                        break;
                    }
                    let take = (left / price).min(1.0);
                    b += self.standalone[i] * take;
                    left -= price * take;
                }
                b
            }

            fn dfs(&mut self, depth: usize, remaining: u64, current: &mut Vec<usize>) {
                let current_gain = self.base_cost - self.m.cost_of_set(current);
                if current_gain > self.best_gain {
                    self.best_gain = current_gain;
                    self.best_set = current.clone();
                }
                if depth == self.order.len() {
                    return;
                }
                if current_gain + self.bound(depth, remaining) <= self.best_gain + 1e-9 {
                    return; // prune
                }
                let c = self.order[depth];
                // Branch: include (if affordable), then exclude.
                if self.m.prices[c] <= remaining {
                    current.push(c);
                    self.dfs(depth + 1, remaining - self.m.prices[c], current);
                    current.pop();
                }
                self.dfs(depth + 1, remaining, current);
            }
        }

        // Warm-start with the greedy solution over the *full* candidate
        // pool: the exact search then returns the better of the two, so
        // pruning to `max_candidates` can never make the ILP lose to the
        // greedy heuristic, and the tight incumbent speeds up pruning.
        let greedy = m.greedy_select(budget_bytes);
        let greedy_gain = base_cost - m.cost_of_set(&greedy);
        let mut s = Search {
            m,
            order: &order,
            standalone: &standalone,
            budget: budget_bytes,
            base_cost,
            best_gain: greedy_gain,
            best_set: greedy,
        };
        let budget = s.budget;
        s.dfs(0, budget, &mut Vec::new());
        s.best_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::ColumnarCandidates;
    use crate::greedy::GreedyDesigner;
    use crate::traits::CandidateGen;
    use cliffguard_sim::ColumnarEngine;
    use cliffguard_storage::{Catalog, ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::{PredOp, QueryBuilder, TableId, Workload};

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
                    .select(&[3])
                    .filter(4, PredOp::Eq, 0.001)
                    .build(),
                6.0,
            ),
            (
                QueryBuilder::new(TableId(0))
                    .select(&[5, 6])
                    .filter(7, PredOp::Eq, 0.001)
                    .build(),
                2.0,
            ),
        ])
    }

    #[test]
    fn ilp_at_least_as_good_as_greedy() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let m = d.matrix(&workload());
        for budget in [300_000_000u64, 800_000_000, 3_000_000_000] {
            let greedy_cost = m.cost_of_set(&m.greedy_select(budget));
            let ilp_cost = m.cost_of_set(&IlpSelector::default().select(&m, budget));
            assert!(
                ilp_cost <= greedy_cost + 1e-9,
                "budget {budget}: ilp {ilp_cost} > greedy {greedy_cost}"
            );
        }
    }

    #[test]
    fn ilp_respects_budget() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let m = d.matrix(&workload());
        let budget = 500_000_000;
        let set = IlpSelector::default().select(&m, budget);
        let spent: u64 = set.iter().map(|&c| m.prices[c]).sum();
        assert!(spent <= budget);
    }

    #[test]
    fn ilp_matches_exhaustive_on_small_instance() {
        let e = ColumnarEngine::new(catalog());
        let d = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let w = workload();
        let m = d.matrix(&w);
        let n = m.len().min(10);
        let budget = 800_000_000u64;
        // Exhaustive over the first n candidates.
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            let price: u64 = set.iter().map(|&c| m.prices[c]).sum();
            if price <= budget {
                best = best.min(m.cost_of_set(&set));
            }
        }
        // ILP restricted to the same candidates must match.
        let ilp = IlpSelector { max_candidates: n };
        let got = m.cost_of_set(&ilp.select(&m, budget));
        // ILP prunes by standalone gain but over the same pool when
        // max_candidates >= pool, so it must reach the exhaustive optimum
        // (it may even beat it if pruning reordered, never be worse).
        assert!(got <= best + 1e-6, "ilp {got} vs exhaustive {best}");
    }

    #[test]
    fn empty_pool_handled() {
        let e = ColumnarEngine::new(catalog());
        let w = Workload::from_queries([(QueryBuilder::new(TableId(0)).select(&[1]).build(), 1.0)]);
        let cands = ColumnarCandidates.candidates(&e, &w);
        let m = crate::greedy::BenefitMatrix::build(&e, &w, cands);
        // With no budget nothing can be selected.
        assert!(IlpSelector::default().select(&m, 0).is_empty());
    }
}
