//! CliffGuard on a row store: the DBMS-X scenario. The same Algorithm 2
//! wraps an index/materialized-view advisor without any change — the
//! designer is a black box ("CliffGuard remains a generic framework
//! agnostic to the specific details of the design objects").
//!
//! Run with: `cargo run --release -p cliffguard --example rowstore_advisor`

use cliffguard::prelude::*;

fn main() {
    let mut config = WorkloadProfile::R1.config(21).scaled(0.4);
    config.n_windows = 6;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);

    // Smaller dataset, as in the paper's DBMS-X experiments (20 GB vs
    // Vertica's 151 GB; smaller budget too).
    let catalog = CatalogGenerator {
        fact_rows: 8_000_000,
        ..CatalogGenerator::default()
    }
    .generate(&shape);
    let engine = RowEngine::new(catalog);
    let metric = DeltaEuclidean::new(shape.column_count());

    let budget = 10u64 << 30; // "a maximum budget of 10GB"
    let opts = EvalOptions {
        budget_bytes: budget,
        designable_factor: 3.0,
    };
    let advisor = GreedyDesigner::new(&engine, RowCandidates, "DBMS-X advisor");

    let mut rows = Vec::new();
    let none = NoDesign;
    rows.push(evaluate_strategy(&engine, &none, &windows, &metric, &opts));
    let existing = ExistingDesigner::new(&advisor);
    rows.push(evaluate_strategy(
        &engine, &existing, &windows, &metric, &opts,
    ));
    let oracle = FutureKnowingDesigner::new(&advisor);
    rows.push(evaluate_strategy(
        &engine, &oracle, &windows, &metric, &opts,
    ));
    let cg = CliffGuardStrategy::new(&advisor, metric, GammaPolicy::AUTO, 5);
    rows.push(evaluate_strategy(&engine, &cg, &windows, &metric, &opts));

    println!("{:<24} {:>10} {:>10}", "strategy", "avg ms", "max ms");
    for r in &rows {
        println!(
            "{:<24} {:>10.1} {:>10.1}",
            r.strategy, r.mean_avg_ms, r.mean_max_ms
        );
    }
    let existing_avg = rows[1].mean_avg_ms;
    let cg_avg = rows[3].mean_avg_ms;
    println!(
        "\nCliffGuard vs the advisor: {:.1}x on average latency \
         (the paper reports 2-5x on DBMS-X)",
        existing_avg / cg_avg
    );
}
