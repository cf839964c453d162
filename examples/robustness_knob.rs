//! The robustness knob: sweep Γ and watch the nominal-optimality ↔
//! robustness trade-off (the paper's Figures 8–9 in miniature).
//!
//! Run with: `cargo run --release -p cliffguard --example robustness_knob`

use cliffguard::prelude::*;

fn main() {
    let mut config = WorkloadProfile::R1.config(11).scaled(0.4);
    config.n_windows = 6;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);

    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let metric = DeltaEuclidean::new(shape.column_count());
    let deltas = consecutive_deltas(&metric, &windows);
    let typical = DeltaStats::of(&deltas).avg;
    println!("typical inter-window delta: {typical:.5}\n");

    let budget = 60u64 << 30;
    let opts = EvalOptions {
        budget_bytes: budget,
        designable_factor: 3.0,
    };
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");

    // The Γ = 0 end of the sweep is exactly the nominal designer.
    let baseline = evaluate_strategy(
        &engine,
        &ExistingDesigner::new(&nominal),
        &windows,
        &metric,
        &opts,
    );
    println!(
        "gamma      avg ms     max ms   (ExistingDesigner: avg {:.1}, max {:.1})",
        baseline.mean_avg_ms, baseline.mean_max_ms
    );

    for factor in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0] {
        let gamma = typical * factor;
        let s = CliffGuardStrategy::new(&nominal, metric, GammaPolicy::Fixed(gamma), 3);
        let r = evaluate_strategy(&engine, &s, &windows, &metric, &opts);
        println!(
            "{gamma:<9.5} {:>8.1} {:>10.1}",
            r.mean_avg_ms, r.mean_max_ms
        );
    }
    println!(
        "\nAs in the paper: Γ→0 converges to the nominal designer; very large Γ\n\
         gets conservative but stays no worse than the nominal designer."
    );
}
