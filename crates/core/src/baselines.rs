//! The design strategies compared in Section 6: the baselines and the
//! CliffGuard strategy itself, behind one [`DesignStrategy`] interface the
//! evaluation harness drives window by window.

use crate::cliffguard::CliffGuard;
use crate::config::CliffGuardConfig;
use crate::gamma::GammaPolicy;
use cliffguard_designer::{BenefitMatrix, CandidateGen, IlpSelector, NominalDesigner};
use cliffguard_distance::{NeighborhoodSampler, WorkloadDistance};
use cliffguard_sim::{Engine, PhysicalDesign, PlanningEngine};
use cliffguard_workload::{Query, Workload};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything a strategy may look at when designing for the next window.
pub struct WindowCtx<'a, E: Engine> {
    /// The engine (catalog + cost model).
    pub engine: &'a E,
    /// The just-finished window `W_i` — what a deployed tool would feed its
    /// designer.
    pub current: &'a Workload,
    /// The upcoming window `W_{i+1}`. Only `FutureKnowingDesigner` may read
    /// this (it "signifies the best performance achievable").
    pub future: &'a Workload,
    /// Distinct queries of all past windows `W_0 … W_i` — the sampler pool.
    pub pool: &'a [Arc<Query>],
    /// Observed `δ(W_{j}, W_{j+1})` for `j < i` (drives Γ policies).
    pub past_deltas: &'a [f64],
    /// Storage budget in bytes.
    pub budget: u64,
    /// Index `i` of the design window.
    pub window_index: usize,
}

/// A strategy producing one design per window.
///
/// Strategies are shared between threads: the evaluation harness designs
/// the windows of a strategy that carries no state from one window to the
/// next in parallel ([`evaluate_strategy`](crate::evaluate::evaluate_strategy)).
pub trait DesignStrategy<E: Engine>: Sync {
    /// Strategy name as used in the paper's figures.
    fn name(&self) -> String;

    /// Designs for the next window given the context.
    fn design(&self, ctx: &WindowCtx<'_, E>) -> E::Design;

    /// Whether a window's design depends on the windows designed before
    /// it. The harness designs such a strategy's windows one at a time,
    /// in window order.
    fn carries_state(&self) -> bool {
        false
    }
}

// ------------------------------------------------------------ NoDesign --

/// "A dummy designer that returns an empty design … providing an upper
/// limit on each query's latency."
#[derive(Debug, Default, Clone, Copy)]
pub struct NoDesign;

impl<E: Engine> DesignStrategy<E> for NoDesign {
    fn name(&self) -> String {
        "NoDesign".into()
    }
    fn design(&self, _ctx: &WindowCtx<'_, E>) -> E::Design {
        E::Design::default()
    }
}

// ---------------------------------------------------- ExistingDesigner --

/// "The nominal designer shipped with commercial databases" — designs for
/// the past window and hopes the future looks the same.
pub struct ExistingDesigner<'d, D> {
    designer: &'d D,
}

impl<'d, D> ExistingDesigner<'d, D> {
    /// Wraps a nominal designer.
    pub fn new(designer: &'d D) -> Self {
        Self { designer }
    }
}

impl<E: Engine, D: NominalDesigner<E> + Sync> DesignStrategy<E> for ExistingDesigner<'_, D> {
    fn name(&self) -> String {
        "ExistingDesigner".into()
    }
    fn design(&self, ctx: &WindowCtx<'_, E>) -> E::Design {
        self.designer.design(ctx.current, ctx.budget)
    }
}

// ------------------------------------------------ FutureKnowingDesigner --

/// The oracle: the same nominal designer, fed the *future* window. "This
/// designer signifies the best performance achievable."
pub struct FutureKnowingDesigner<'d, D> {
    designer: &'d D,
}

impl<'d, D> FutureKnowingDesigner<'d, D> {
    /// Wraps a nominal designer.
    pub fn new(designer: &'d D) -> Self {
        Self { designer }
    }
}

impl<E: Engine, D: NominalDesigner<E> + Sync> DesignStrategy<E> for FutureKnowingDesigner<'_, D> {
    fn name(&self) -> String {
        "FutureKnowingDesigner".into()
    }
    fn design(&self, ctx: &WindowCtx<'_, E>) -> E::Design {
        self.designer.design(ctx.future, ctx.budget)
    }
}

// ------------------------------------------------- MajorityVoteDesigner --

/// Sensitivity-analysis baseline: design nominally for each perturbed
/// neighbor workload, then keep the structures that appear in the most
/// neighbor designs ("structures that … have fewer votes are less likely
/// to remain beneficial when the future workload changes").
pub struct MajorityVoteDesigner<'d, D, M> {
    designer: &'d D,
    metric: M,
    /// Perturbed workloads sampled per window (the paper's n = 20).
    pub n_samples: usize,
    /// Γ policy for the sampling radius.
    pub gamma: GammaPolicy,
    seed: u64,
}

impl<'d, D, M> MajorityVoteDesigner<'d, D, M> {
    /// Creates the baseline with the paper's defaults.
    pub fn new(designer: &'d D, metric: M, gamma: GammaPolicy, seed: u64) -> Self {
        Self {
            designer,
            metric,
            n_samples: 20,
            gamma,
            seed,
        }
    }
}

impl<E, D, M> DesignStrategy<E> for MajorityVoteDesigner<'_, D, M>
where
    E: Engine,
    D: NominalDesigner<E> + Sync,
    M: WorkloadDistance + Copy + Sync,
{
    fn name(&self) -> String {
        "MajorityVoteDesigner".into()
    }

    fn design(&self, ctx: &WindowCtx<'_, E>) -> E::Design {
        let gamma = self.gamma.resolve(ctx.past_deltas);
        let mut sampler = NeighborhoodSampler::new(
            self.metric,
            ctx.pool.to_vec(),
            self.seed ^ ctx.window_index as u64,
        );
        let mut neighborhood = sampler.sample_neighborhood(ctx.current, gamma, self.n_samples);
        neighborhood.push(ctx.current.clone());

        // Votes in first-seen order; the stable sort below then breaks
        // count ties on that order, never on hash-map iteration order.
        let mut ranked: Vec<(<E::Design as PhysicalDesign>::Structure, usize)> = Vec::new();
        let mut slot: HashMap<<E::Design as PhysicalDesign>::Structure, usize> = HashMap::new();
        for w in &neighborhood {
            for s in self.designer.design(w, ctx.budget).structures() {
                let i = *slot.entry(s.clone()).or_insert_with(|| {
                    ranked.push((s, 0));
                    ranked.len() - 1
                });
                ranked[i].1 += 1;
            }
        }
        ranked.sort_by_key(|&(_, votes)| std::cmp::Reverse(votes));
        let mut chosen = Vec::new();
        let mut remaining = ctx.budget;
        for (s, _) in ranked {
            let price = E::Design::structure_price(&s, ctx.engine.catalog());
            if price <= remaining {
                remaining -= price;
                chosen.push(s);
            }
        }
        E::Design::from_structures(chosen)
    }
}

// ------------------------------------------ OptimalLocalSearchDesigner --

/// ILP baseline: union the queries of the sampled neighborhood into a
/// representative workload `Ŵ` and solve an integer program for the
/// optimal structure set within the budget.
pub struct OptimalLocalSearchDesigner<G, M> {
    generator: G,
    metric: M,
    /// Perturbed workloads sampled per window.
    pub n_samples: usize,
    /// Γ policy for the sampling radius.
    pub gamma: GammaPolicy,
    ilp: IlpSelector,
    seed: u64,
}

impl<G, M> OptimalLocalSearchDesigner<G, M> {
    /// Creates the baseline.
    pub fn new(generator: G, metric: M, gamma: GammaPolicy, seed: u64) -> Self {
        Self {
            generator,
            metric,
            n_samples: 20,
            gamma,
            ilp: IlpSelector::default(),
            seed,
        }
    }
}

impl<E, G, M> DesignStrategy<E> for OptimalLocalSearchDesigner<G, M>
where
    E: PlanningEngine,
    G: CandidateGen<E> + Sync,
    M: WorkloadDistance + Copy + Sync,
    <E::Design as PhysicalDesign>::Structure: Clone,
{
    fn name(&self) -> String {
        "OptimalLocalSearchDesigner".into()
    }

    fn design(&self, ctx: &WindowCtx<'_, E>) -> E::Design {
        let gamma = self.gamma.resolve(ctx.past_deltas);
        let mut sampler = NeighborhoodSampler::new(
            self.metric,
            ctx.pool.to_vec(),
            self.seed ^ ctx.window_index as u64,
        );
        let neighborhood = sampler.sample_neighborhood(ctx.current, gamma, self.n_samples);
        // Ŵ: the union of the neighborhood (which by construction of the
        // sampler contains W0's queries too).
        let mut representative = ctx.current.clone();
        for w in &neighborhood {
            representative.merge_scaled(w, 1.0 / self.n_samples.max(1) as f64);
        }
        let candidates = self.generator.candidates(ctx.engine, &representative);
        let matrix = BenefitMatrix::build(ctx.engine, &representative, candidates);
        let chosen = self.ilp.select(&matrix, ctx.budget);
        E::Design::from_structures(
            chosen
                .into_iter()
                .map(|c| matrix.candidates[c].clone())
                .collect(),
        )
    }
}

// --------------------------------------------------------- CliffGuard --

/// The CliffGuard strategy: Algorithm 2 with a Γ policy resolved per
/// window from the observed drift history.
///
/// Each window runs [`CliffGuard::design`], a default
/// [`DesignSession`](crate::DesignSession): the validation gate is on and
/// failed designer calls retry on a virtual clock.
pub struct CliffGuardStrategy<'d, D, M> {
    designer: &'d D,
    metric: M,
    /// Base configuration (Γ inside is overridden by `gamma` each window).
    pub config: CliffGuardConfig,
    /// Γ policy.
    pub gamma: GammaPolicy,
}

impl<'d, D, M> CliffGuardStrategy<'d, D, M> {
    /// Creates the strategy with the paper's default configuration.
    pub fn new(designer: &'d D, metric: M, gamma: GammaPolicy, seed: u64) -> Self {
        Self {
            designer,
            metric,
            config: CliffGuardConfig::new(0.0).with_seed(seed),
            gamma,
        }
    }
}

impl<E, D, M> DesignStrategy<E> for CliffGuardStrategy<'_, D, M>
where
    E: PlanningEngine,
    D: NominalDesigner<E> + Sync,
    M: WorkloadDistance + Copy + Sync,
{
    fn name(&self) -> String {
        "CliffGuard".into()
    }

    fn design(&self, ctx: &WindowCtx<'_, E>) -> E::Design {
        let mut cfg = self.config.clone();
        cfg.gamma = self.gamma.resolve(ctx.past_deltas);
        cfg.seed ^= ctx.window_index as u64;
        match CliffGuard::try_new(ctx.engine, self.designer, self.metric, cfg) {
            Ok(cg) => cg.design(ctx.current, ctx.budget, ctx.pool).0,
            Err(_) => self.designer.design(ctx.current, ctx.budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_designer::{ColumnarCandidates, GreedyDesigner};
    use cliffguard_distance::DeltaEuclidean;
    use cliffguard_sim::{ColumnarEngine, PhysicalDesign};
    use cliffguard_storage::{Catalog, ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::{PredOp, QueryBuilder, TableId};

    fn catalog() -> Catalog {
        Catalog::new(vec![TableDef {
            name: "fact".into(),
            columns: (0..12)
                .map(|i| ColumnDef {
                    name: format!("c{i}"),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(10_000),
                })
                .collect(),
            rows: 8_000_000,
        }])
    }

    fn query(sel: &[u32], filt: u32) -> cliffguard_workload::Query {
        QueryBuilder::new(TableId(0))
            .select(sel)
            .filter(filt, PredOp::Eq, 0.001)
            .build()
    }

    fn ctx_fixture() -> (
        ColumnarEngine,
        Workload,
        Workload,
        Vec<Arc<cliffguard_workload::Query>>,
    ) {
        let engine = ColumnarEngine::new(catalog());
        let current = Workload::from_queries([(query(&[1, 2], 3), 50.0)]);
        let future = Workload::from_queries([(query(&[5, 6], 7), 50.0)]);
        let pool: Vec<Arc<cliffguard_workload::Query>> = vec![
            Arc::new(query(&[1, 2], 3)),
            Arc::new(query(&[5, 6], 7)),
            Arc::new(query(&[5, 8], 7)),
            Arc::new(query(&[6, 9], 7)),
        ];
        (engine, current, future, pool)
    }

    #[test]
    fn all_strategies_produce_within_budget_designs() {
        let (engine, current, future, pool) = ctx_fixture();
        let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let deltas = [0.002, 0.004];
        let budget = 2_000_000_000u64;
        let ctx = WindowCtx {
            engine: &engine,
            current: &current,
            future: &future,
            pool: &pool,
            past_deltas: &deltas,
            budget,
            window_index: 1,
        };

        let strategies: Vec<Box<dyn DesignStrategy<ColumnarEngine>>> = vec![
            Box::new(NoDesign),
            Box::new(ExistingDesigner::new(&nominal)),
            Box::new(FutureKnowingDesigner::new(&nominal)),
            Box::new(MajorityVoteDesigner::new(
                &nominal,
                metric,
                GammaPolicy::AvgPastDeltas,
                1,
            )),
            Box::new(OptimalLocalSearchDesigner::new(
                ColumnarCandidates,
                metric,
                GammaPolicy::AvgPastDeltas,
                1,
            )),
            Box::new(CliffGuardStrategy::new(
                &nominal,
                metric,
                GammaPolicy::MaxPastDeltas,
                1,
            )),
        ];
        for s in &strategies {
            let d = s.design(&ctx);
            assert!(
                d.price_bytes(engine.catalog()) <= budget,
                "{} exceeded budget",
                s.name()
            );
        }
    }

    #[test]
    fn no_design_is_empty() {
        let (engine, current, future, pool) = ctx_fixture();
        let ctx = WindowCtx {
            engine: &engine,
            current: &current,
            future: &future,
            pool: &pool,
            past_deltas: &[],
            budget: 1 << 30,
            window_index: 0,
        };
        let d = <NoDesign as DesignStrategy<ColumnarEngine>>::design(&NoDesign, &ctx);
        assert!(d.is_empty());
    }

    #[test]
    fn future_knowing_beats_existing_on_drift() {
        let (engine, current, future, pool) = ctx_fixture();
        let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let ctx = WindowCtx {
            engine: &engine,
            current: &current,
            future: &future,
            pool: &pool,
            past_deltas: &[],
            budget: 2_000_000_000,
            window_index: 0,
        };
        let d_exist = ExistingDesigner::new(&nominal).design(&ctx);
        let d_oracle = FutureKnowingDesigner::new(&nominal).design(&ctx);
        let exist_cost = engine.workload_cost(&future, &d_exist).avg_ms;
        let oracle_cost = engine.workload_cost(&future, &d_oracle).avg_ms;
        assert!(oracle_cost < exist_cost);
    }

    #[test]
    fn strategy_names_match_paper() {
        let (engine, ..) = ctx_fixture();
        let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        assert_eq!(
            <NoDesign as DesignStrategy<ColumnarEngine>>::name(&NoDesign),
            "NoDesign"
        );
        assert_eq!(
            DesignStrategy::<ColumnarEngine>::name(&ExistingDesigner::new(&nominal)),
            "ExistingDesigner"
        );
        assert_eq!(
            DesignStrategy::<ColumnarEngine>::name(&CliffGuardStrategy::new(
                &nominal,
                metric,
                GammaPolicy::Fixed(0.1),
                0
            )),
            "CliffGuard"
        );
    }
}
