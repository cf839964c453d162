//! The headline claim, end to end: under workload drift, CliffGuard's
//! designs degrade gracefully while the nominal designer's fall off the
//! cliff — and with no drift, CliffGuard costs (almost) nothing. Also the
//! contracts `CliffGuard::design` keeps with its nominal designer: Γ = 0
//! returns the nominal design itself, and no design exceeds the budget.

use cliffguard::prelude::*;
use std::fmt::Debug;

/// A generated drifting log, cut into windows, with its catalog.
fn generated(profile: WorkloadProfile, seed: u64) -> (Catalog, Vec<Workload>) {
    let mut config = profile.config(seed).scaled(0.3);
    config.n_windows = 6;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);
    (CatalogGenerator::default().generate(&shape), windows)
}

fn run(profile: WorkloadProfile, seed: u64) -> (EvalSummary, EvalSummary, EvalSummary) {
    let (catalog, windows) = generated(profile, seed);
    let engine = ColumnarEngine::new(catalog);
    let metric = DeltaEuclidean::new(engine.catalog().column_count());
    let opts = EvalOptions {
        budget_bytes: 60 << 30,
        designable_factor: 3.0,
    };
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");

    let exist = evaluate_strategy(
        &engine,
        &mut ExistingDesigner::new(&nominal),
        &windows,
        &metric,
        &opts,
    );
    let mut cg = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::KMaxPastDeltas(1.5), 13);
    let robust = evaluate_strategy(&engine, &mut cg, &windows, &metric, &opts);
    let oracle = evaluate_strategy(
        &engine,
        &mut FutureKnowingDesigner::new(&nominal),
        &windows,
        &metric,
        &opts,
    );
    (exist, robust, oracle)
}

#[test]
fn cliffguard_beats_nominal_under_drift() {
    let (exist, robust, oracle) = run(WorkloadProfile::R1, 31);
    assert!(
        robust.mean_avg_ms < exist.mean_avg_ms,
        "avg: robust {:.0} vs nominal {:.0}",
        robust.mean_avg_ms,
        exist.mean_avg_ms
    );
    assert!(
        robust.mean_max_ms < exist.mean_max_ms,
        "max: robust {:.0} vs nominal {:.0}",
        robust.mean_max_ms,
        exist.mean_max_ms
    );
    // And the oracle lower-bounds everything.
    assert!(oracle.mean_avg_ms <= robust.mean_avg_ms * 1.01);
}

#[test]
fn cliffguard_harmless_without_drift() {
    // S1 is near-static: the nominal designer is already fine, and
    // CliffGuard must stay close (paper: "performs no worse than the
    // nominal designer").
    let (exist, robust, _) = run(WorkloadProfile::S1, 32);
    assert!(
        robust.mean_avg_ms <= exist.mean_avg_ms * 1.15,
        "robust {:.0} should track nominal {:.0} on static workloads",
        robust.mean_avg_ms,
        exist.mean_avg_ms
    );
}

#[test]
fn per_window_worst_case_improves_not_just_average() {
    let (exist, robust, _) = run(WorkloadProfile::S2, 33);
    // Count windows where CliffGuard's max latency is at least as good.
    let better = exist
        .windows
        .iter()
        .zip(&robust.windows)
        .filter(|(e, r)| r.max_ms <= e.max_ms * 1.001)
        .count();
    assert!(
        better * 2 >= exist.windows.len(),
        "CliffGuard should match or beat the nominal max in most windows ({better}/{})",
        exist.windows.len()
    );
}

/// At Γ = 0, `CliffGuard::design` is exactly `nominal.design` for every
/// window (pooled over earlier ones) and budget; 1 B fits no structure.
fn assert_gamma_zero_is_nominal<E, D>(engine: &E, nominal: &D, windows: &[Workload])
where
    E: PlanningEngine,
    E::Design: PartialEq + Debug,
    D: NominalDesigner<E>,
{
    let metric = DeltaEuclidean::new(engine.catalog().column_count());
    let cg = CliffGuard::new(engine, nominal, metric, CliffGuardConfig::new(0.0));
    for budget in [1, 64 << 10, 1 << 28, 1 << 32, 60 << 30] {
        for (i, w0) in windows.iter().enumerate() {
            let (robust, trace) = cg.design(w0, budget, &query_pool(&windows[..i]));
            assert_eq!(robust, nominal.design(w0, budget), "window {i}, {budget} B");
            assert_eq!(trace.designer_calls, 1);
            assert!(budget > 1 || robust.is_empty());
        }
    }
}

#[test]
fn gamma_zero_returns_exactly_the_nominal_design() {
    for profile in [
        WorkloadProfile::R1,
        WorkloadProfile::S1,
        WorkloadProfile::S2,
    ] {
        let (catalog, windows) = generated(profile, 41);
        let columnar = ColumnarEngine::new(catalog.clone());
        let dbd = GreedyDesigner::new(&columnar, ColumnarCandidates, "DBD");
        assert_gamma_zero_is_nominal(&columnar, &dbd, &windows);
        let row = RowEngine::new(catalog);
        let advisor = GreedyDesigner::new(&row, RowCandidates, "advisor");
        assert_gamma_zero_is_nominal(&row, &advisor, &windows);
    }
}

/// A nominal designer that designs for ten times the budget it is given.
struct OverSpender<'a, D>(&'a D);

impl<E: Engine, D: NominalDesigner<E>> NominalDesigner<E> for OverSpender<'_, D> {
    fn design(&self, w: &Workload, budget_bytes: u64) -> E::Design {
        self.0.design(w, budget_bytes.saturating_mul(10))
    }

    fn name(&self) -> String {
        format!("{} x10", self.0.name())
    }
}

#[test]
fn cliffguard_never_returns_an_over_budget_design() {
    let (catalog, windows) = generated(WorkloadProfile::R1, 31);
    let engine = ColumnarEngine::new(catalog);
    let dbd = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let over = OverSpender(&dbd);
    let metric = DeltaEuclidean::new(engine.catalog().column_count());
    let (budget, w0, pool) = (1 << 30, &windows[5], query_pool(&windows[..5]));
    assert!(over.design(w0, budget).price_bytes(engine.catalog()) > budget);
    for gamma in [0.0, 0.005, 0.05] {
        let cg = CliffGuard::new(&engine, &over, metric, CliffGuardConfig::new(gamma));
        let (design, trace) = cg.design(w0, budget, &pool);
        assert!(design.price_bytes(engine.catalog()) <= budget, "Γ {gamma}");
        assert!(trace.faults > 0, "Γ {gamma}: the validation gate must fire");
    }
}
