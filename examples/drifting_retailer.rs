//! A drifting analytics workload, end to end: generate a year-long query
//! log with topic churn (the paper's R1 scenario), re-design monthly, and
//! watch the nominal designer fall off the cliff while CliffGuard holds.
//!
//! Run with: `cargo run --release -p cliffguard --example drifting_retailer`

use cliffguard::prelude::*;

fn main() {
    // Year-long drifting workload over the default analytic schema.
    let mut config = WorkloadProfile::R1.config(42).scaled(0.5);
    config.n_windows = 8;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let log = generator.generate();
    let windows = log.windows_days(config.window_days);
    println!(
        "generated {} queries over {} windows of {} days",
        log.len(),
        windows.len(),
        config.window_days
    );

    // Catalog + engine over the same schema shape.
    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let metric = DeltaEuclidean::new(shape.column_count());

    // How much does the workload move between windows?
    let deltas = consecutive_deltas(&metric, &windows);
    let stats = DeltaStats::of(&deltas);
    println!(
        "inter-window delta: min {:.5}  max {:.5}  avg {:.5}\n",
        stats.min, stats.max, stats.avg
    );

    // Budget: ~30% of the base data size, echoing Vertica's auto-chosen
    // 50 GB for the paper's 151 GB dataset.
    let data_bytes = engine.catalog().data_bytes();
    let budget = (data_bytes as f64 * 0.3) as u64;
    let opts = EvalOptions {
        budget_bytes: budget,
        designable_factor: 3.0,
    };

    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");

    let existing = ExistingDesigner::new(&nominal);
    let cliffguard = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::AUTO, 7);

    let e = evaluate_strategy(&engine, &existing, &windows, &metric, &opts);
    let c = evaluate_strategy(&engine, &cliffguard, &windows, &metric, &opts);

    println!("window |   ExistingDesigner    |      CliffGuard");
    println!("       |  avg ms     max ms    |  avg ms     max ms");
    for (re, rc) in e.windows.iter().zip(&c.windows) {
        println!(
            "  {:>3}  | {:>8.1}  {:>9.1}   | {:>8.1}  {:>9.1}",
            re.window, re.avg_ms, re.max_ms, rc.avg_ms, rc.max_ms
        );
    }
    println!(
        "\nmeans  | {:>8.1}  {:>9.1}   | {:>8.1}  {:>9.1}",
        e.mean_avg_ms, e.mean_max_ms, c.mean_avg_ms, c.mean_max_ms
    );
    println!(
        "\nCliffGuard improves the average by {:.1}x and the worst case by {:.1}x",
        e.mean_avg_ms / c.mean_avg_ms,
        e.mean_max_ms / c.mean_max_ms
    );
}
