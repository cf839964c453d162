//! Table 1, Figure 5, Figure 6, and Figure 16: workload characterization
//! and distance-metric soundness.

/// Table 1: min/max/avg/std of `δ(W_i, W_{i+1})` for R1, S1, S2 over
/// 28-day windows.
pub mod table1 {
    use crate::scale::Scale;
    use crate::table::{fnum, Table};
    use cliffguard_core::gamma::{consecutive_deltas, DeltaStats};
    use cliffguard_distance::DeltaEuclidean;
    use cliffguard_workload::generator::{DriftingGenerator, SchemaShape, WorkloadProfile};

    /// Runs the experiment.
    pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
        let mut t = Table::new(
            "table1",
            "Inter-window workload change δ(W_i, W_{i+1}), 28-day windows",
            &["Workload", "Min", "Max", "Avg", "Std"],
        );
        let n_columns = SchemaShape::analytic_default().column_count();
        let metric = DeltaEuclidean::new(n_columns);
        for profile in [
            WorkloadProfile::R1,
            WorkloadProfile::S1,
            WorkloadProfile::S2,
        ] {
            let mut config = profile.config(seed).scaled(scale.volume_factor());
            config.n_windows = scale.windows();
            let windows = DriftingGenerator::new(config.clone())
                .generate()
                .windows_days(config.window_days);
            let stats = DeltaStats::of(&consecutive_deltas(&metric, &windows));
            t.row(vec![
                profile.name().into(),
                fnum(stats.min),
                fnum(stats.max),
                fnum(stats.avg),
                fnum(stats.std),
            ]);
        }
        t.note("paper (R1): min 0.00016, max 0.00311, avg 0.00120, std 0.00122");
        t.note("paper (S1): min/max within [0.1m, m] of R1; paper (S2): [m, M], avg 0.00178");
        t.note("expected shape: S1 ≪ R1 ≈ S2 in avg; S2 spread more uniform than R1");
        vec![t]
    }
}

/// Figure 5: fraction of queries belonging to templates shared between two
/// windows, vs the lag between them, for window sizes 7/14/21/28 days.
pub mod fig05 {
    use crate::scale::Scale;
    use crate::table::Table;
    use cliffguard_workload::generator::{DriftingGenerator, WorkloadProfile};

    /// Runs the experiment.
    pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
        let mut config = WorkloadProfile::R1
            .config(seed)
            .scaled(scale.volume_factor());
        config.n_windows = scale.windows();
        let log = DriftingGenerator::new(config).generate();

        let mut t = Table::new(
            "fig05",
            "Shared-template query fraction vs window lag (workload R1)",
            &["Lag", "7 days", "14 days", "21 days", "28 days"],
        );
        let per_size: Vec<Vec<cliffguard_workload::Workload>> = [7u64, 14, 21, 28]
            .iter()
            .map(|&d| log.windows_days(d))
            .collect();
        let max_lag = per_size[0].len().saturating_sub(1).min(20);
        for lag in 1..=max_lag {
            let mut cells = vec![lag.to_string()];
            for windows in &per_size {
                if lag >= windows.len() {
                    cells.push("-".into());
                    continue;
                }
                let mut total = 0.0;
                let mut n = 0;
                for i in 0..windows.len() - lag {
                    if windows[i].is_empty() || windows[i + lag].is_empty() {
                        continue;
                    }
                    total += windows[i + lag].shared_template_fraction(&windows[i]);
                    n += 1;
                }
                cells.push(if n == 0 {
                    "-".into()
                } else {
                    format!("{:.1}%", 100.0 * total / n as f64)
                });
            }
            t.row(cells);
        }
        t.note("paper: ~51% at lag 1 for 7-day windows, ~35% for 28-day; <10% past ~2.5 months");
        t.note("expected shape: overlap decays with lag; longer windows overlap less at lag 1");
        vec![t]
    }
}

/// Figure 6: average latency of a window `W` on the design made for `W0`,
/// as a function of `δ(W0, W)` — the empirical soundness (R1) of
/// `δ_euclidean`.
pub mod fig06 {
    use crate::scale::Scale;
    use crate::setup::columnar_setup;
    use crate::table::{fnum, Table};
    use cliffguard_designer::{ColumnarCandidates, GreedyDesigner, NominalDesigner};
    use cliffguard_distance::{DeltaEuclidean, NeighborhoodSampler, WorkloadDistance};
    use cliffguard_sim::Engine;
    use cliffguard_workload::generator::WorkloadProfile;
    use cliffguard_workload::query_pool;

    /// Runs the experiment.
    pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
        let setup = columnar_setup(WorkloadProfile::R1, scale, seed);
        let engine = &setup.engine;
        let metric = DeltaEuclidean::new(setup.n_columns);
        let designer = GreedyDesigner::new(engine, ColumnarCandidates, "DBD");

        // Pool: every distinct query in the trace.
        let pool = query_pool(&setup.windows);

        // For several anchor windows, perturb to increasing distances and
        // measure latency on the anchor's nominal design.
        let anchors = setup.windows.len().min(6);
        let n_buckets = 8usize;
        let max_alpha = 0.08;
        let mut bucket_sum = vec![0.0f64; n_buckets];
        let mut bucket_n = vec![0usize; n_buckets];
        for (a, w0) in setup.windows.iter().take(anchors).enumerate() {
            if w0.is_empty() {
                continue;
            }
            let design = designer.design(w0, setup.budget);
            let mut sampler =
                NeighborhoodSampler::new(metric, pool.clone(), seed ^ (a as u64) << 8);
            for k in 0..(n_buckets * 3) {
                let alpha = max_alpha * (k as f64 + 0.5) / (n_buckets * 3) as f64;
                let Ok(w) = sampler.sample_at(w0, alpha) else {
                    continue;
                };
                let d = metric.distance(w0, &w);
                let b = ((d / max_alpha) * n_buckets as f64) as usize;
                let b = b.min(n_buckets - 1);
                bucket_sum[b] += engine.workload_cost(&w, &design).avg_ms;
                bucket_n[b] += 1;
            }
        }

        let mut t = Table::new(
            "fig06",
            "Avg latency of W on D(W0) vs δ(W0, W) — soundness of δ_euclidean",
            &["δ(W0,W) bucket", "Avg latency (ms)", "samples"],
        );
        for b in 0..n_buckets {
            if bucket_n[b] == 0 {
                continue;
            }
            let mid = max_alpha * (b as f64 + 0.5) / n_buckets as f64;
            t.row(vec![
                fnum(mid),
                fnum(bucket_sum[b] / bucket_n[b] as f64),
                bucket_n[b].to_string(),
            ]);
        }
        t.note("expected shape: latency grows (≈monotonically) with distance — the paper's");
        t.note("'strong correlation and monotonic relationship between performance decay and δ'");
        vec![t]
    }
}

/// Figure 16: monotonicity of the latency-aware metric `δ_latency` for
/// ω = 0.1 (a) and ω = 0.2 (b): ratio of W's latency to W0's latency on
/// D(W0), bucketed by δ_latency(W0, W).
pub mod fig16 {
    use crate::scale::Scale;
    use crate::setup::columnar_setup;
    use crate::table::{fnum, Table};
    use cliffguard_designer::{ColumnarCandidates, GreedyDesigner, NominalDesigner};
    use cliffguard_distance::{
        DeltaEuclidean, DeltaLatency, NeighborhoodSampler, WorkloadDistance,
    };
    use cliffguard_sim::{ColumnarDesign, Engine};
    use cliffguard_workload::generator::WorkloadProfile;
    use cliffguard_workload::{query_pool, Query};

    /// Runs the experiment.
    pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
        let setup = columnar_setup(WorkloadProfile::R1, scale, seed);
        let engine = &setup.engine;
        let designer = GreedyDesigner::new(engine, ColumnarCandidates, "DBD");
        let euclid = DeltaEuclidean::new(setup.n_columns);

        let pool = query_pool(&setup.windows);

        let mut out = Vec::new();
        for (sub, omega) in [("fig16a", 0.1), ("fig16b", 0.2)] {
            let bare = ColumnarDesign::empty();
            let baseline = |q: &Query| engine.query_latency_ms(q, &bare);
            let dl = DeltaLatency::new(setup.n_columns, omega, baseline);
            let n_buckets = 6usize;
            let mut sums = vec![0.0f64; n_buckets];
            let mut ns = vec![0usize; n_buckets];
            let mut max_d: f64 = 1e-9;
            let mut samples: Vec<(f64, f64)> = Vec::new();

            for (a, w0) in setup.windows.iter().take(5).enumerate() {
                if w0.is_empty() {
                    continue;
                }
                let design = designer.design(w0, setup.budget);
                let w0_lat = engine.workload_cost(w0, &design).avg_ms.max(1e-9);
                let mut sampler =
                    NeighborhoodSampler::new(euclid, pool.clone(), seed ^ (a as u64) << 4);
                for k in 0..18 {
                    let alpha = 0.08 * (k as f64 + 0.5) / 18.0;
                    let Ok(w) = sampler.sample_at(w0, alpha) else {
                        continue;
                    };
                    let d = dl.distance(w0, &w);
                    let ratio = engine.workload_cost(&w, &design).avg_ms / w0_lat;
                    max_d = max_d.max(d);
                    samples.push((d, ratio));
                }
            }
            for (d, ratio) in &samples {
                let b = ((d / max_d) * n_buckets as f64) as usize;
                let b = b.min(n_buckets - 1);
                sums[b] += ratio;
                ns[b] += 1;
            }
            let mut t = Table::new(
                sub,
                format!("δ_latency (ω = {omega}) vs relative latency decay"),
                &["δ_latency bucket", "W latency / W0 latency", "samples"],
            );
            for b in 0..n_buckets {
                if ns[b] == 0 {
                    continue;
                }
                t.row(vec![
                    fnum(max_d * (b as f64 + 0.5) / n_buckets as f64),
                    fnum(sums[b] / ns[b] as f64),
                    ns[b].to_string(),
                ]);
            }
            t.note("paper: ω=0.1 is not monotone; ω=0.2 yields a relatively monotone trend");
            out.push(t);
        }
        out
    }
}
