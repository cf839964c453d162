//! Figures 8, 9, 11, 12, 13: the effect of CliffGuard's knobs — Γ, the
//! distance function, the sample size n, and the iteration count.

use crate::scale::Scale;
use crate::setup::{columnar_setup, ColumnarSetup};
use crate::table::{fnum, Table};
use cliffguard_core::baselines::{CliffGuardStrategy, ExistingDesigner};
use cliffguard_core::evaluate::{evaluate_strategy, EvalOptions};
use cliffguard_core::gamma::{consecutive_deltas, DeltaStats, GammaPolicy};
use cliffguard_designer::{ColumnarCandidates, GreedyDesigner};
use cliffguard_distance::{
    ClauseMask, DeltaEuclidean, DeltaLatency, DeltaSeparate, WorkloadDistance,
};
use cliffguard_sim::{ColumnarDesign, Engine};
use cliffguard_workload::generator::WorkloadProfile;
use cliffguard_workload::Query;

fn gamma_sweep(id: &str, profile: WorkloadProfile, scale: Scale, seed: u64) -> Vec<Table> {
    let setup = columnar_setup(profile, scale, seed);
    let metric = DeltaEuclidean::new(setup.n_columns);
    let nominal = GreedyDesigner::new(&setup.engine, ColumnarCandidates, "DBD");
    let opts = EvalOptions {
        budget_bytes: setup.budget,
        designable_factor: 3.0,
    };

    let typical = DeltaStats::of(&consecutive_deltas(&metric, &setup.windows)).avg;
    let existing = evaluate_strategy(
        &setup.engine,
        &ExistingDesigner::new(&nominal),
        &setup.windows,
        &metric,
        &opts,
    );

    let mut t = Table::new(
        id,
        format!(
            "Effect of the robustness knob Γ on workload {} (typical δ = {})",
            profile.name(),
            fnum(typical)
        ),
        &[
            "Γ",
            "CliffGuard avg",
            "CliffGuard max",
            "Existing avg",
            "Existing max",
        ],
    );
    for factor in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let gamma = typical * factor;
        let s = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::Fixed(gamma), seed);
        let r = evaluate_strategy(&setup.engine, &s, &setup.windows, &metric, &opts);
        t.row(vec![
            fnum(gamma),
            fnum(r.mean_avg_ms),
            fnum(r.mean_max_ms),
            fnum(existing.mean_avg_ms),
            fnum(existing.mean_max_ms),
        ]);
    }
    t.note("expected shape: Γ→0 converges to ExistingDesigner; a sweet spot in the middle;");
    t.note("very large Γ grows conservative but stays no worse than ExistingDesigner");
    vec![t]
}

/// Figure 8: Γ sweep on R1 (columnar engine).
pub mod fig08 {
    use super::*;

    /// Runs the experiment.
    pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
        gamma_sweep("fig08", WorkloadProfile::R1, scale, seed)
    }
}

/// Figure 9: Γ sweep on S2 (columnar engine).
pub mod fig09 {
    use super::*;

    /// Runs the experiment.
    pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
        gamma_sweep("fig09", WorkloadProfile::S2, scale, seed)
    }
}

/// Figure 11: the distance-function ablation — CliffGuard driven by each
/// clause-mask variant of `δ_euclidean`, by `δ_separate`, and by
/// `δ_latency`.
pub mod fig11 {
    use super::*;

    fn run_metric<M: WorkloadDistance + Copy + Sync>(
        setup: &ColumnarSetup,
        metric: M,
        seed: u64,
    ) -> (f64, f64) {
        let nominal = GreedyDesigner::new(&setup.engine, ColumnarCandidates, "DBD");
        let opts = EvalOptions {
            budget_bytes: setup.budget,
            designable_factor: 3.0,
        };
        let s = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::AUTO, seed);
        let r = evaluate_strategy(&setup.engine, &s, &setup.windows, &metric, &opts);
        (r.mean_avg_ms, r.mean_max_ms)
    }

    /// Runs the experiment.
    pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
        let setup = columnar_setup(WorkloadProfile::R1, scale, seed);
        let n = setup.n_columns;
        let mut t = Table::new(
            "fig11",
            "Effect of the distance function on CliffGuard (workload R1)",
            &["Distance", "Avg Latency (ms)", "Max Latency (ms)"],
        );
        for mask in [
            ClauseMask::S,
            ClauseMask::W,
            ClauseMask::G,
            ClauseMask::O,
            ClauseMask::SWGO,
        ] {
            let m = DeltaEuclidean::with_mask(n, mask);
            let (avg, max) = run_metric(&setup, m, seed);
            t.row(vec![m.name(), fnum(avg), fnum(max)]);
        }
        {
            let m = DeltaSeparate::new(n);
            let (avg, max) = run_metric(&setup, m, seed);
            t.row(vec![m.name(), fnum(avg), fnum(max)]);
        }
        {
            let bare = ColumnarDesign::empty();
            let engine = &setup.engine;
            let baseline = |q: &Query| engine.query_latency_ms(q, &bare);
            let m = DeltaLatency::new(n, 0.2, baseline);
            let (avg, max) = run_metric(&setup, &m, seed);
            t.row(vec![m.name(), fnum(avg), fnum(max)]);
        }
        t.note("paper: Euc-latency best, Euc-separate ≈ Euc-union (SWGO); W and G the most");
        t.note("informative single clauses; S surprisingly informative (correlated with W/G)");
        vec![t]
    }
}

/// Figure 12: the effect of the neighborhood sample size `n`.
pub mod fig12 {
    use super::*;

    /// Runs the experiment.
    pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
        let setup = columnar_setup(WorkloadProfile::R1, scale, seed);
        let metric = DeltaEuclidean::new(setup.n_columns);
        let nominal = GreedyDesigner::new(&setup.engine, ColumnarCandidates, "DBD");
        let opts = EvalOptions {
            budget_bytes: setup.budget,
            designable_factor: 3.0,
        };
        let mut t = Table::new(
            "fig12",
            "Effect of the sample size n on CliffGuard (workload R1)",
            &["n", "Avg Latency (ms)", "Max Latency (ms)"],
        );
        for n in [2usize, 5, 10, 20, 40, 80] {
            let mut s = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::AUTO, seed);
            s.config.n_samples = n;
            let r = evaluate_strategy(&setup.engine, &s, &setup.windows, &metric, &opts);
            t.row(vec![
                n.to_string(),
                fnum(r.mean_avg_ms),
                fnum(r.mean_max_ms),
            ]);
        }
        t.note("paper: ~10 samples already suffice to infer a good descent direction");
        vec![t]
    }
}

/// Figure 13: the effect of the iteration budget.
pub mod fig13 {
    use super::*;

    /// Runs the experiment.
    pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
        let setup = columnar_setup(WorkloadProfile::R1, scale, seed);
        let metric = DeltaEuclidean::new(setup.n_columns);
        let nominal = GreedyDesigner::new(&setup.engine, ColumnarCandidates, "DBD");
        let opts = EvalOptions {
            budget_bytes: setup.budget,
            designable_factor: 3.0,
        };
        let mut t = Table::new(
            "fig13",
            "Effect of the iteration count on CliffGuard (workload R1)",
            &["Iterations", "Avg Latency (ms)", "Max Latency (ms)"],
        );
        for iters in [0usize, 1, 2, 3, 5, 10, 25] {
            let mut s = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::AUTO, seed);
            s.config.max_iters = iters;
            s.config.patience = iters.max(1);
            let r = evaluate_strategy(&setup.engine, &s, &setup.windows, &metric, &opts);
            t.row(vec![
                iters.to_string(),
                fnum(r.mean_avg_ms),
                fnum(r.mean_max_ms),
            ]);
        }
        t.note("paper: converges within a few iterations — 'we rarely observe any improvement");
        t.note("after 5' (0 iterations = the nominal designer)");
        vec![t]
    }
}
