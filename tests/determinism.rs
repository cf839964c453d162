//! Reproducibility: every randomized component is seeded, so identical
//! seeds must give identical results across the whole pipeline.

use cliffguard::prelude::*;

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let mut config = WorkloadProfile::R1.config(77).scaled(0.2);
        config.n_windows = 4;
        let mut generator = DriftingGenerator::new(config.clone());
        let shape = generator.shape().clone();
        let windows = generator.generate().windows_days(config.window_days);
        let catalog = CatalogGenerator::default().generate(&shape);
        let engine = ColumnarEngine::new(catalog);
        let metric = DeltaEuclidean::new(shape.column_count());
        let opts = EvalOptions {
            budget_bytes: 60 << 30,
            designable_factor: 3.0,
        };
        let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let mut cg = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::KMaxPastDeltas(1.5), 5);
        let r = evaluate_strategy(&engine, &mut cg, &windows, &metric, &opts);
        (
            r.mean_avg_ms,
            r.mean_max_ms,
            r.windows.iter().map(|w| w.price_bytes).collect::<Vec<_>>(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn different_seeds_change_the_workload_not_the_contracts() {
    let gen = |seed| {
        let mut config = WorkloadProfile::S2.config(seed).scaled(0.2);
        config.n_windows = 3;
        DriftingGenerator::new(config.clone())
            .generate()
            .windows_days(config.window_days)
    };
    let a = gen(1);
    let b = gen(2);
    // Same shape...
    assert_eq!(a.len(), b.len());
    // ...different content.
    let metric = DeltaEuclidean::new(SchemaShape::analytic_default().column_count());
    assert!(metric.distance(&a[0], &b[0]) > 0.0);
}

#[test]
fn distance_deterministic_across_calls() {
    let mut config = WorkloadProfile::R1.config(3).scaled(0.2);
    config.n_windows = 2;
    let windows = DriftingGenerator::new(config.clone())
        .generate()
        .windows_days(config.window_days);
    let metric = DeltaEuclidean::new(SchemaShape::analytic_default().column_count());
    let d1 = metric.distance(&windows[0], &windows[1]);
    let d2 = metric.distance(&windows[0], &windows[1]);
    assert_eq!(d1, d2);
}

#[test]
fn adaptive_indexing_is_deterministic_across_runs() {
    // Every query of a window stamps its structures with the same window
    // index, so within a window the recency ranking is all ties. A budget
    // of half the first window's cracked structures fits only part of the
    // store, so the tie order decides the design. Each fresh strategy
    // instance gets a fresh hash-map seed.
    let mut config = WorkloadProfile::R1.config(5).scaled(0.3);
    config.n_windows = 4;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);
    let engine = ColumnarEngine::new(CatalogGenerator::default().generate(&shape));
    let metric = DeltaEuclidean::new(shape.column_count());
    let cracked: std::collections::HashSet<Projection> = windows[0]
        .queries()
        .flat_map(|q| engine.ideal_design_for(q).structures())
        .collect();
    let cracked_bytes: u64 = cracked
        .iter()
        .map(|s| ColumnarDesign::structure_price(s, engine.catalog()))
        .sum();
    assert!(cracked.len() >= 8, "want many same-window ties");
    let budget = cracked_bytes / 2;
    let opts = EvalOptions {
        budget_bytes: budget,
        designable_factor: 3.0,
    };
    let run = || {
        let mut strategy = AdaptiveIndexingStrategy::<Projection>::new();
        let fingerprints: Vec<u64> = windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let ctx = WindowCtx {
                    engine: &engine,
                    current: w,
                    future: w,
                    pool: &[],
                    past_deltas: &[],
                    budget,
                    window_index: i,
                };
                strategy.design(&ctx).fingerprint()
            })
            .collect();
        let mut strategy = AdaptiveIndexingStrategy::<Projection>::new();
        let r = evaluate_strategy(&engine, &mut strategy, &windows, &metric, &opts);
        let bits: Vec<(u64, u64)> = r
            .windows
            .iter()
            .map(|w| (w.avg_ms.to_bits(), w.max_ms.to_bits()))
            .collect();
        (
            fingerprints,
            r.mean_avg_ms.to_bits(),
            r.mean_max_ms.to_bits(),
            bits,
        )
    };
    let first = run();
    for _ in 1..8 {
        assert_eq!(run(), first);
    }
}
