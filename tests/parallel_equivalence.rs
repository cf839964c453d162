//! The determinism contract of the parallel cost-evaluation layer: every
//! parallelized path — `CliffGuard::design`, `GreedyDesigner::design`,
//! `evaluate_strategy` — must produce **byte-identical** results at 1, 2,
//! and 8 threads.
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
    let opts = EvalOptions {
        budget_bytes: 40 << 30,
        designable_factor: 3.0,
    };

    // (window, avg, max, deployment, price, structures) per record —
    // everything deterministic; design wall-clock is excluded.
    type Row = (usize, u64, u64, u64, u64, usize);
    let run = |threads: usize| -> Vec<Row> {
        set_threads(threads);
        let mut strategy =
            CliffGuardStrategy::new(&nominal, metric, GammaPolicy::KMaxPastDeltas(1.5), 5);
        let summary = evaluate_strategy(&engine, &mut strategy, &windows, &metric, &opts);
        summary
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
            .collect()
    };

    let baseline = run(THREAD_COUNTS[0]);
    assert!(
        !baseline.is_empty(),
        "fixture must evaluate at least one window"
    );
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            baseline,
            run(*threads),
            "evaluation diverged at {threads} threads"
        );
    }
}
