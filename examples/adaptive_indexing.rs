//! Adaptive indexing ("database cracking") vs offline designers — the
//! comparison the paper's Sections 1 and 7 discuss: cracking abandons
//! offline design entirely and builds structures on demand as queries
//! arrive. It adapts, but it can only ever react; CliffGuard anticipates.
//!
//! Run with: `cargo run --release -p cliffguard --example adaptive_indexing`

use cliffguard::prelude::*;
use cliffguard::sim::Projection;

fn main() {
    let mut config = WorkloadProfile::R1.config(19).scaled(0.4);
    config.n_windows = 7;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);

    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let metric = DeltaEuclidean::new(shape.column_count());
    let data_bytes = engine.catalog().data_bytes();
    let opts = EvalOptions {
        budget_bytes: (data_bytes as f64 * 0.3) as u64,
        designable_factor: 3.0,
    };
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");

    println!("{:<22} {:>10} {:>10}", "strategy", "avg ms", "max ms");
    let print_run = |name: &str, r: EvalSummary| {
        println!(
            "{:<22} {:>10.1} {:>10.1}",
            name, r.mean_avg_ms, r.mean_max_ms
        );
    };
    print_run(
        "NoDesign",
        evaluate_strategy(&engine, &NoDesign, &windows, &metric, &opts),
    );
    print_run(
        "ExistingDesigner",
        evaluate_strategy(
            &engine,
            &ExistingDesigner::new(&nominal),
            &windows,
            &metric,
            &opts,
        ),
    );
    print_run(
        "AdaptiveIndexing",
        evaluate_strategy(
            &engine,
            &AdaptiveIndexingStrategy::<Projection>::new(),
            &windows,
            &metric,
            &opts,
        ),
    );
    print_run(
        "CliffGuard",
        evaluate_strategy(
            &engine,
            &CliffGuardStrategy::new(&nominal, metric, GammaPolicy::KMaxPastDeltas(1.5), 3),
            &windows,
            &metric,
            &opts,
        ),
    );
    println!(
        "\nCracking reacts (it keeps whatever recent queries cracked into being);\n\
         CliffGuard anticipates (it guards a Γ-neighborhood before the drift hits)."
    );
}
