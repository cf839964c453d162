//! Reproducibility: every randomized component is seeded, so identical
//! seeds must give identical results across the whole pipeline.

use cliffguard::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

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
        let cg = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::AUTO, 5);
        let r = evaluate_strategy(&engine, &cg, &windows, &metric, &opts);
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

/// Passes every call through to `inner`, keeping the fingerprint of each
/// design it returns under the index of its window. Windows may be
/// designed on several threads, so the fingerprints sit behind a lock.
struct Recording<'a> {
    inner: Box<dyn DesignStrategy<ColumnarEngine> + 'a>,
    fingerprints: Mutex<BTreeMap<usize, u64>>,
}

impl DesignStrategy<ColumnarEngine> for Recording<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn carries_state(&self) -> bool {
        self.inner.carries_state()
    }

    fn design(&self, ctx: &WindowCtx<'_, ColumnarEngine>) -> ColumnarDesign {
        let design = self.inner.design(ctx);
        let mut fingerprints = self.fingerprints.lock().unwrap();
        fingerprints.insert(ctx.window_index, design.fingerprint());
        design
    }
}

#[test]
fn every_strategy_is_deterministic_across_runs() {
    // Each fresh strategy instance gets fresh hash-map seeds, so a ranking
    // that breaks ties on hash-map order shows up as a different design
    // fingerprint on some rerun. Two budgets: 0.3 x the data bytes (the
    // CLI's default), and half of the first window's cracked structures,
    // where AdaptiveIndexing's all-tie recency ranking decides the design.
    let mut config = WorkloadProfile::R1.config(5).scaled(0.3);
    config.n_windows = 5;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);
    let engine = ColumnarEngine::new(CatalogGenerator::default().generate(&shape));
    let metric = DeltaEuclidean::new(shape.column_count());
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let gamma = GammaPolicy::AUTO;
    let data_bytes = engine.catalog().data_bytes();
    let cracked: std::collections::HashSet<Projection> = windows[0]
        .queries()
        .flat_map(|q| engine.ideal_design_for(q).structures())
        .collect();
    assert!(cracked.len() >= 8, "want many same-window ties");
    #[allow(clippy::disallowed_methods)] // an integer sum: order does not matter
    let cracked_bytes: u64 = cracked
        .iter()
        .map(|s| ColumnarDesign::structure_price(s, engine.catalog()))
        .sum();
    let budgets = [(data_bytes as f64 * 0.3) as u64, cracked_bytes / 2];
    let strategy = |k: usize| -> Box<dyn DesignStrategy<ColumnarEngine> + '_> {
        match k {
            0 => Box::new(NoDesign),
            1 => Box::new(ExistingDesigner::new(&nominal)),
            2 => Box::new(FutureKnowingDesigner::new(&nominal)),
            3 => Box::new(MajorityVoteDesigner::new(&nominal, metric, gamma, 7)),
            4 => Box::new(OptimalLocalSearchDesigner::new(
                ColumnarCandidates,
                metric,
                gamma,
                7,
            )),
            5 => Box::new(CliffGuardStrategy::new(&nominal, metric, gamma, 7)),
            _ => Box::new(AdaptiveIndexingStrategy::<Projection>::new()),
        }
    };
    for k in 0..7 {
        // The exact ILP's branch and bound dominates an unoptimized build,
        // so it runs at the tight budget over the first three windows. Its
        // neighborhood sampler is MajorityVote's and CliffGuard's, and its
        // candidates and benefit matrix are the greedy designer's that both
        // call, so all of them still run at every budget and window.
        let (budgets, windows) = match k {
            4 => (&budgets[1..], &windows[..3]),
            _ => (&budgets[..], &windows[..]),
        };
        for &budget in budgets {
            let opts = EvalOptions {
                budget_bytes: budget,
                designable_factor: 3.0,
            };
            let run = || {
                let recording = Recording {
                    inner: strategy(k),
                    fingerprints: Mutex::default(),
                };
                let r = evaluate_strategy(&engine, &recording, windows, &metric, &opts);
                let bits: Vec<(u64, u64)> = r
                    .windows
                    .iter()
                    .map(|w| (w.avg_ms.to_bits(), w.max_ms.to_bits()))
                    .collect();
                (
                    r.strategy,
                    recording.fingerprints.into_inner().unwrap(),
                    bits,
                )
            };
            let first = run();
            assert_eq!(first.1.len(), windows.len() - 1, "{}", first.0);
            for _ in 1..8 {
                assert_eq!(run(), first, "{} at budget {budget}", first.0);
            }
        }
    }
}
