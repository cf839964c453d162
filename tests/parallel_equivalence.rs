//! The determinism contract of the parallel evaluation harness:
//! `evaluate_strategy` designs the windows of a strategy on several
//! threads and must produce **byte-identical** results at 1, 2, and 8
//! threads, for every strategy. `CliffGuard::design` and
//! `GreedyDesigner::design`, which run inside those window tasks, are held
//! to the same contract.
//!
//! The thread count is process-global, so every test here serializes on
//! one lock; within a test, the 1-thread result is the baseline and each
//! higher count is compared field-by-field with `f64::to_bits` (no
//! epsilon: re-associated float reductions would differ in the low bits,
//! and catching exactly that is the point).

use cliffguard::prelude::*;
use std::sync::Mutex;

static THREAD_KNOB: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fixture() -> (SchemaShape, Vec<Workload>) {
    let mut config = WorkloadProfile::R1.config(13).scaled(0.2);
    config.n_windows = 4;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);
    (shape, windows)
}

#[test]
fn cliffguard_design_is_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let (shape, windows) = fixture();
    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let metric = DeltaEuclidean::new(shape.column_count());
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let cg = CliffGuard::new(&engine, &nominal, metric, CliffGuardConfig::new(0.01));
    let w0 = &windows[windows.len() - 2];
    let pool = query_pool(&windows[..windows.len() - 2]);
    let budget = 40u64 << 30;

    let mut baseline: Option<(ColumnarDesign, Vec<u64>)> = None;
    for threads in THREAD_COUNTS {
        set_threads(threads);
        let (design, trace) = cg.design(w0, budget, &pool);
        let trace_bits: Vec<u64> = trace
            .worst_case_per_iter
            .iter()
            .map(|x| x.to_bits())
            .collect();
        match &baseline {
            None => baseline = Some((design, trace_bits)),
            Some((d1, t1)) => {
                assert_eq!(d1, &design, "design diverged at {threads} threads");
                assert_eq!(t1, &trace_bits, "trace diverged at {threads} threads");
            }
        }
    }
}

#[test]
fn greedy_design_is_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let (shape, windows) = fixture();
    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let w0 = &windows[0];
    let budget = 40u64 << 30;

    let mut baseline: Option<(ColumnarDesign, u64)> = None;
    for threads in THREAD_COUNTS {
        set_threads(threads);
        let design = nominal.design(w0, budget);
        let cost_bits = engine.cost_f(w0, &design).to_bits();
        match &baseline {
            None => baseline = Some((design, cost_bits)),
            Some((d1, c1)) => {
                assert_eq!(d1, &design, "greedy design diverged at {threads} threads");
                assert_eq!(*c1, cost_bits, "design cost diverged at {threads} threads");
            }
        }
    }
}

#[test]
fn evaluate_strategy_is_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let (shape, windows) = fixture();
    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let metric = DeltaEuclidean::new(shape.column_count());
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let gamma = GammaPolicy::AUTO;
    let strategy = |k: usize| -> Box<dyn DesignStrategy<ColumnarEngine> + '_> {
        match k {
            0 => Box::new(NoDesign),
            1 => Box::new(ExistingDesigner::new(&nominal)),
            2 => Box::new(FutureKnowingDesigner::new(&nominal)),
            3 => Box::new(MajorityVoteDesigner::new(&nominal, metric, gamma, 5)),
            4 => Box::new(OptimalLocalSearchDesigner::new(
                ColumnarCandidates,
                metric,
                gamma,
                5,
            )),
            5 => Box::new(CliffGuardStrategy::new(&nominal, metric, gamma, 5)),
            _ => Box::new(AdaptiveIndexingStrategy::<Projection>::new()),
        }
    };

    // (window, avg, max, deployment, price, structures) per record —
    // everything deterministic; design wall-clock is excluded.
    type Row = (usize, u64, u64, u64, u64, usize);
    for k in 0..7 {
        // The exact ILP's branch and bound dominates an unoptimized build,
        // so it runs at a tight budget over the first three windows.
        let (budget, windows) = match k {
            4 => (2u64 << 30, &windows[..3]),
            _ => (40 << 30, &windows[..]),
        };
        let opts = EvalOptions {
            budget_bytes: budget,
            designable_factor: 3.0,
        };
        let run = |threads: usize| -> (String, Vec<Row>) {
            set_threads(threads);
            let summary = evaluate_strategy(&engine, &*strategy(k), windows, &metric, &opts);
            let rows = summary
                .windows
                .iter()
                .map(|r| {
                    (
                        r.window,
                        r.avg_ms.to_bits(),
                        r.max_ms.to_bits(),
                        r.deployment_ms.to_bits(),
                        r.price_bytes,
                        r.structures,
                    )
                })
                .collect();
            (summary.strategy, rows)
        };

        let (name, baseline) = run(THREAD_COUNTS[0]);
        assert_eq!(
            baseline.len(),
            windows.len() - 1,
            "{name}: fixture must evaluate every window"
        );
        for threads in &THREAD_COUNTS[1..] {
            assert_eq!(
                baseline,
                run(*threads).1,
                "{name}: evaluation diverged at {threads} threads"
            );
        }
    }
}
