//! Algorithm 2: the CliffGuard robust designer.

use crate::config::{CliffGuardConfig, ConfigError};
use crate::session::{DesignSession, SessionOptions};
use cliffguard_designer::{NominalDesigner, Reliable};
use cliffguard_distance::WorkloadDistance;
use cliffguard_sim::{Engine, PlanningEngine};
use cliffguard_workload::{Query, Workload};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-iteration trace of a CliffGuard run (for the Figure 13 experiment
/// and for debugging), plus the session's resilience audit counters.
/// A checkpoint persists it with its floats as bit patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CliffGuardTrace {
    /// Worst-case (over the sampled neighborhood) average latency after
    /// each iteration, starting with the nominal design's.
    #[serde(rename = "worst_case_bits", with = "serde::bits")]
    pub worst_case_per_iter: Vec<f64>,
    /// Number of *logical* designer invocations (1 nominal + 1 per
    /// iteration); retries of a flaky designer do not inflate this.
    pub designer_calls: usize,
    /// Number of neighborhood samples actually obtained.
    pub samples: usize,
    /// Extra designer attempts spent on retries.
    pub retries: usize,
    /// Fault events observed (injected faults, timeouts, and validation
    /// gate rejections).
    pub faults: usize,
    /// Rendered [`DegradedReason`](cliffguard_resilience::DegradedReason)
    /// when the session finished on a fallback path; `None` for a clean
    /// run.
    pub degraded: Option<String>,
    /// Whether this trace continues a checkpointed session.
    pub resumed: bool,
}

/// The CliffGuard meta-designer: wraps a black-box nominal designer `D` and
/// a workload distance `δ`, and produces designs robust against workload
/// changes of up to Γ (the paper's Algorithm 2).
pub struct CliffGuard<'a, E: Engine, D, M> {
    engine: &'a E,
    designer: &'a D,
    metric: M,
    config: CliffGuardConfig,
}

impl<'a, E, D, M> CliffGuard<'a, E, D, M>
where
    E: PlanningEngine,
    D: NominalDesigner<E>,
    M: WorkloadDistance + Copy,
{
    /// Creates a CliffGuard instance.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use [`try_new`](Self::try_new)
    /// to handle that as a value.
    pub fn new(engine: &'a E, designer: &'a D, metric: M, config: CliffGuardConfig) -> Self {
        Self::try_new(engine, designer, metric, config)
            .unwrap_or_else(|e| panic!("invalid CliffGuardConfig: {e}"))
    }

    /// Creates a CliffGuard instance, rejecting invalid configurations.
    pub fn try_new(
        engine: &'a E,
        designer: &'a D,
        metric: M,
        config: CliffGuardConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self {
            engine,
            designer,
            metric,
            config,
        })
    }

    /// Finds a robust design for `w0` within `budget_bytes`.
    ///
    /// `pool` is the candidate-query universe the Γ-neighborhood sampler
    /// may draw perturbations from (e.g. the queries of all *past*
    /// windows). Returns the design and a trace.
    ///
    /// The descent is a [`DesignSession`] with [`SessionOptions::default`]:
    /// the validation gate retries an over-budget answer, or an empty one
    /// for a non-empty workload, and degrades to the best design so far
    /// (or the empty design) when retries run out, so the result always
    /// fits `budget_bytes`. Fault plans, deadlines and checkpoints need a
    /// [`DesignSession`] of their own.
    pub fn design(
        &self,
        w0: &Workload,
        budget_bytes: u64,
        pool: &[Arc<Query>],
    ) -> (E::Design, CliffGuardTrace) {
        DesignSession::new(
            self.engine,
            Reliable(self.designer),
            self.metric,
            self.config.clone(),
            SessionOptions::default(),
        )
        .expect("`new`/`try_new` validated this config")
        .run(w0, budget_bytes, pool)
        .into_design()
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

    #[test]
    fn gamma_zero_equals_nominal() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cg = CliffGuard::new(&e, &nominal, metric, CliffGuardConfig::new(0.0));
        let w0 = Workload::from_queries([(query(&[1, 2], 3), 10.0)]);
        let pool: Vec<Arc<cliffguard_workload::Query>> =
            (4..10).map(|i| Arc::new(query(&[i as u32], 3))).collect();
        let (robust, trace) = cg.design(&w0, 10_000_000_000, &pool);
        assert_eq!(trace.designer_calls, 1);
        assert_eq!(robust, nominal.design(&w0, 10_000_000_000));
    }

    #[test]
    fn robust_design_covers_neighborhood_better() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        // W0 uses columns {1,2}; the pool (≈ likely future) uses {5,6}.
        let w0 = Workload::from_queries([(query(&[1, 2], 3), 100.0)]);
        let pool: Vec<Arc<cliffguard_workload::Query>> = vec![
            Arc::new(query(&[5, 6], 7)),
            Arc::new(query(&[5, 8], 7)),
            Arc::new(query(&[6, 9], 7)),
        ];
        let cfg = CliffGuardConfig::new(0.01);
        let cg = CliffGuard::new(&e, &nominal, metric, cfg);
        let (robust, trace) = cg.design(&w0, 10_000_000_000, &pool);
        assert!(trace.designer_calls >= 2);
        assert!(trace.samples > 0);

        // The drifted workload: what the pool foreshadowed (the sampler
        // mixes in a random subset of the pool, so test on all of it).
        let drifted = Workload::from_queries([
            (query(&[5, 6], 7), 100.0),
            (query(&[5, 8], 7), 100.0),
            (query(&[6, 9], 7), 100.0),
        ]);
        let nominal_design = nominal.design(&w0, 10_000_000_000);
        let robust_cost = e.workload_cost(&drifted, &robust).avg_ms;
        let nominal_cost = e.workload_cost(&drifted, &nominal_design).avg_ms;
        assert!(
            robust_cost < nominal_cost,
            "robust {robust_cost} should beat nominal {nominal_cost} on drifted workload"
        );
    }

    #[test]
    fn worst_case_trace_is_monotone_nonincreasing() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let w0 = Workload::from_queries([(query(&[1, 2], 3), 50.0), (query(&[2, 4], 3), 50.0)]);
        let pool: Vec<Arc<cliffguard_workload::Query>> = (5..11)
            .map(|i| Arc::new(query(&[i as u32, i as u32 + 1], 3)))
            .collect();
        let cg = CliffGuard::new(&e, &nominal, metric, CliffGuardConfig::new(0.005));
        let (_, trace) = cg.design(&w0, 10_000_000_000, &pool);
        for w in trace.worst_case_per_iter.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "worst case increased: {:?}",
                trace.worst_case_per_iter
            );
        }
    }

    #[test]
    fn empty_workload_returns_empty_design() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cg = CliffGuard::new(&e, &nominal, metric, CliffGuardConfig::new(0.01));
        let (d, _) = cg.design(&Workload::new(), 1_000_000, &[]);
        assert!(d.is_empty());
    }

    #[test]
    fn empty_pool_degrades_to_nominal() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cg = CliffGuard::new(&e, &nominal, metric, CliffGuardConfig::new(0.01));
        let w0 = Workload::from_queries([(query(&[1, 2], 3), 10.0)]);
        let (d, trace) = cg.design(&w0, 10_000_000_000, &[]);
        assert_eq!(trace.designer_calls, 1);
        assert_eq!(trace.samples, 0);
        assert!(!d.is_empty());
    }

    #[test]
    fn budget_respected() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let w0 = Workload::from_queries([(query(&[1, 2], 3), 10.0)]);
        let pool: Vec<Arc<cliffguard_workload::Query>> =
            (4..10).map(|i| Arc::new(query(&[i as u32], 3))).collect();
        let budget = 400_000_000;
        let cg = CliffGuard::new(&e, &nominal, metric, CliffGuardConfig::new(0.01));
        let (d, _) = cg.design(&w0, budget, &pool);
        assert!(d.price_bytes(e.catalog()) <= budget);
    }
}
