//! End-to-end pipeline: generator → catalog → parser-compatible queries →
//! windows → designers → evaluation, across both engines.

use cliffguard::core::evaluate::DesignableFilter;
use cliffguard::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

fn small_r1() -> (SchemaShape, Vec<Workload>) {
    let mut config = WorkloadProfile::R1.config(9).scaled(0.25);
    config.n_windows = 5;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);
    (shape, windows)
}

#[test]
fn columnar_pipeline_runs_and_orders_strategies() {
    let (shape, windows) = small_r1();
    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let metric = DeltaEuclidean::new(shape.column_count());
    let opts = EvalOptions {
        budget_bytes: 60 << 30,
        designable_factor: 3.0,
    };
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");

    let none = evaluate_strategy(&engine, &NoDesign, &windows, &metric, &opts);
    let exist = evaluate_strategy(
        &engine,
        &ExistingDesigner::new(&nominal),
        &windows,
        &metric,
        &opts,
    );
    let oracle = evaluate_strategy(
        &engine,
        &FutureKnowingDesigner::new(&nominal),
        &windows,
        &metric,
        &opts,
    );
    let cg = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::KMaxPastDeltas(1.5), 3);
    let robust = evaluate_strategy(&engine, &cg, &windows, &metric, &opts);

    // Sanity ordering on a drifting workload (paper's Figure 7a shape):
    // the oracle is best, NoDesign is worst, CliffGuard beats Existing.
    assert!(oracle.mean_avg_ms < none.mean_avg_ms);
    assert!(exist.mean_avg_ms <= none.mean_avg_ms * 1.001);
    assert!(
        robust.mean_avg_ms < exist.mean_avg_ms,
        "CliffGuard {:.1} should beat ExistingDesigner {:.1}",
        robust.mean_avg_ms,
        exist.mean_avg_ms
    );
    assert!(oracle.mean_avg_ms <= robust.mean_avg_ms * 1.001);
    // All strategies produced one record per evaluated window.
    assert_eq!(none.windows.len(), windows.len() - 1);
    assert_eq!(robust.windows.len(), windows.len() - 1);
}

#[test]
fn row_pipeline_runs() {
    let (shape, windows) = small_r1();
    let catalog = CatalogGenerator {
        fact_rows: 4_000_000,
        ..CatalogGenerator::default()
    }
    .generate(&shape);
    let engine = RowEngine::new(catalog);
    let metric = DeltaEuclidean::new(shape.column_count());
    let opts = EvalOptions {
        budget_bytes: 10 << 30,
        designable_factor: 3.0,
    };
    let advisor = GreedyDesigner::new(&engine, RowCandidates, "advisor");

    let none = evaluate_strategy(&engine, &NoDesign, &windows, &metric, &opts);
    let cg = CliffGuardStrategy::new(&advisor, metric, GammaPolicy::KMaxPastDeltas(1.5), 3);
    let robust = evaluate_strategy(&engine, &cg, &windows, &metric, &opts);
    assert!(robust.mean_avg_ms < none.mean_avg_ms);
}

#[test]
fn generated_queries_survive_sql_round_trip() {
    // Render generated queries to SQL and re-parse them against the
    // catalog: clause column sets must survive.
    let (shape, windows) = small_r1();
    let catalog = CatalogGenerator::default().generate(&shape);
    let mut checked = 0;
    for (q, _) in windows[0].iter().take(25) {
        let sql = catalog.render_sql(q);
        let parsed = parse_query(&sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(parsed.anchor, q.anchor, "{sql}");
        assert_eq!(parsed.select, q.select, "{sql}");
        assert_eq!(parsed.filter, q.filter, "{sql}");
        assert_eq!(parsed.group_by, q.group_by, "{sql}");
        checked += 1;
    }
    assert!(checked > 0);
}

/// Passes every call through to `inner`, keeping each design it returns
/// under the index of the window it was built for. Windows may be
/// designed on several threads, so the designs sit behind a lock.
struct Recording<S> {
    inner: S,
    designs: Mutex<BTreeMap<usize, ColumnarDesign>>,
}

impl<S: DesignStrategy<ColumnarEngine>> DesignStrategy<ColumnarEngine> for Recording<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn carries_state(&self) -> bool {
        self.inner.carries_state()
    }

    fn design(&self, ctx: &WindowCtx<'_, ColumnarEngine>) -> ColumnarDesign {
        let design = self.inner.design(ctx);
        let mut designs = self.designs.lock().unwrap();
        designs.insert(ctx.window_index, design.clone());
        design
    }
}

#[test]
fn evaluate_rows_equal_direct_costing_of_the_next_window() {
    // The five strategies `cliffguard evaluate` prints: each per-window
    // Avg/Max must be the engine's own cost of that window's design on
    // the designable part of the next window, bit for bit.
    fn check<S: DesignStrategy<ColumnarEngine>>(
        engine: &ColumnarEngine,
        windows: &[Workload],
        metric: &DeltaEuclidean,
        opts: &EvalOptions,
        strategy: S,
    ) {
        let recording = Recording {
            inner: strategy,
            designs: Mutex::default(),
        };
        let r = evaluate_strategy(engine, &recording, windows, metric, opts);
        let designs = recording.designs.into_inner().unwrap();
        assert!(!r.windows.is_empty(), "{}", r.strategy);
        assert_eq!(r.windows.len(), designs.len(), "{}", r.strategy);
        let mut filter = DesignableFilter::new(engine, opts.designable_factor);
        for (row, (&i, design)) in r.windows.iter().zip(&designs) {
            assert_eq!(row.window, i, "{}", r.strategy);
            let test = filter.filter_workload(&windows[i + 1]);
            let direct = engine.workload_cost(&test, design);
            assert_eq!(
                (row.avg_ms.to_bits(), row.max_ms.to_bits()),
                (direct.avg_ms.to_bits(), direct.max_ms.to_bits()),
                "{} diverged from the engine on window {i}",
                r.strategy
            );
        }
    }

    let (shape, windows) = small_r1();
    let engine = ColumnarEngine::new(CatalogGenerator::default().generate(&shape));
    let metric = DeltaEuclidean::new(shape.column_count());
    let opts = EvalOptions {
        budget_bytes: 60 << 30,
        designable_factor: 3.0,
    };
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let (e, w, m, o) = (&engine, &windows[..], &metric, &opts);
    check(e, w, m, o, NoDesign);
    check(e, w, m, o, ExistingDesigner::new(&nominal));
    check(e, w, m, o, FutureKnowingDesigner::new(&nominal));
    check(e, w, m, o, AdaptiveIndexingStrategy::<Projection>::new());
    let gamma = GammaPolicy::KMaxPastDeltas(1.5);
    check(
        e,
        w,
        m,
        o,
        CliffGuardStrategy::new(&nominal, metric, gamma, 7),
    );
}
