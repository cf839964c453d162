//! Cost-kernel microbench: direct vs dense-kernel evaluation of a
//! Γ-neighborhood against a stream of candidate designs.
//!
//! Not a figure from the paper — the performance experiment for the dense
//! cost kernel. It rebuilds the exact shape of the descent loop's hot
//! path (every workload of a sampled neighborhood costed against every
//! design of a stream) two ways:
//!
//! * **direct** — [`Engine::workload_cost`] per (workload, design): full
//!   plan compilation on every call;
//! * **kernel** — one [`CostKernel`] epoch per design, then dense
//!   weighted folds.
//!
//! Every value the two paths produce is asserted **bit-identical**
//! in-line, and so is every delta epoch against its full rebuild — a
//! divergence panics, which is what the CI `bench-smoke` job relies on.
//! The table also reports the interner's dedup ratio and the
//! CELF-vs-eager selection comparison (identical output, fewer gain
//! evaluations).

use crate::scale::Scale;
use crate::setup::columnar_setup;
use crate::table::{fnum, Table};
use cliffguard_core::gamma::{consecutive_deltas, GammaPolicy};
use cliffguard_designer::{BenefitMatrix, CandidateGen, ColumnarCandidates};
use cliffguard_distance::{DeltaEuclidean, NeighborhoodSampler};
use cliffguard_sim::{ColumnarDesign, CostKernel, DesignEpoch, Engine, PhysicalDesign, Projection};
use cliffguard_workload::generator::WorkloadProfile;
use cliffguard_workload::{
    ColumnSet, InternedWorkload, PredOp, Query, QueryBuilder, QueryId, Workload,
};
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of the full (designs × neighborhood) sweep per path.
fn reps(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2,
        Scale::Quick => 4,
        Scale::Full => 8,
    }
}

/// Designs in the stream. Kept above the kernel's epoch-memo capacity so
/// cycling through the stream rebuilds every epoch on every repetition —
/// the memo never hides the build cost from the measurement.
const N_DESIGNS: usize = 8;

/// Runs the experiment.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let setup = columnar_setup(WorkloadProfile::R1, scale, seed);
    let engine = &setup.engine;
    let metric = DeltaEuclidean::new(setup.n_columns);
    let (w0, history) = setup.windows.split_last().expect("setup has windows");
    let deltas = consecutive_deltas(&metric, &setup.windows);
    let gamma = GammaPolicy::KMaxPastDeltas(1.5).resolve(&deltas);
    let mut pool: Vec<Arc<Query>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for w in history.iter().rev().take(4) {
        for q in w.queries() {
            if seen.insert(q.signature()) {
                pool.push(Arc::clone(q));
            }
        }
    }

    // The descent's workload set: Γ-neighborhood samples plus W0 itself.
    let mut sampler = NeighborhoodSampler::new(metric, pool, seed);
    let mut neighborhood = sampler.sample_neighborhood(w0, gamma, 20);
    neighborhood.push(w0.clone());

    // The design stream: single- and paired-candidate designs drawn from
    // the candidate generator, standing in for the descent's candidates.
    let candidates = ColumnarCandidates.candidates(engine, w0);
    assert!(!candidates.is_empty(), "setup must yield candidates");
    let designs: Vec<ColumnarDesign> = (0..N_DESIGNS)
        .map(|i| {
            let a = candidates[i % candidates.len()].clone();
            let b = candidates[(i + 1) % candidates.len()].clone();
            ColumnarDesign::from_structures(vec![a, b])
        })
        .collect();
    let reps = reps(scale);

    // --- direct: plan compilation on every call -----------------------
    let t0 = Instant::now();
    let mut direct_vals: Vec<f64> = Vec::new();
    for _ in 0..reps {
        for d in &designs {
            for w in &neighborhood {
                direct_vals.push(engine.workload_cost(w, d).avg_ms);
            }
        }
    }
    let direct_ms = t0.elapsed().as_secs_f64() * 1e3;

    // --- kernel: one epoch per design, dense folds --------------------
    // The build (interning + plan compilation) is charged to the kernel.
    let t0 = Instant::now();
    let (kernel, interned) = CostKernel::build(engine, &neighborhood);
    let mut kernel_vals: Vec<f64> = Vec::new();
    for _ in 0..reps {
        for d in &designs {
            let epoch = kernel.epoch(d);
            for iw in &interned {
                kernel_vals.push(kernel.workload_cost(iw, &epoch).avg_ms);
            }
        }
    }
    let kernel_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Bit-identity: both paths must agree on every single value.
    assert_eq!(direct_vals.len(), kernel_vals.len());
    for (i, (a, c)) in direct_vals.iter().zip(&kernel_vals).enumerate() {
        assert_eq!(
            a.to_bits(),
            c.to_bits(),
            "cost kernel diverged from direct at sample {i}: {a} vs {c}"
        );
    }

    // --- CELF vs eager selection --------------------------------------
    let matrix = BenefitMatrix::build(engine, w0, candidates.clone());
    let t0 = Instant::now();
    let (celf_chosen, reevaluations) = matrix.greedy_select_with_stats(setup.budget);
    let celf_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let eager_chosen = matrix.greedy_select_eager(setup.budget);
    let eager_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        celf_chosen, eager_chosen,
        "CELF selection diverged from the eager reference"
    );
    let eager_rescans = (eager_chosen.len() as u64) * (matrix.len() as u64);

    // --- delta vs full: single-structure touches ----------------------
    // A wide synthetic workload (far above the drift generator's template
    // pool) makes the full-rebuild cost visible: N distinct queries over
    // the fact table, each selecting one column and filtering the next
    // with a query-unique selectivity (signatures stay distinct). Every
    // target adds exactly one two-column projection to the base design,
    // so the touched set is one structure and only the ~N/columns queries
    // it covers are re-cost. Full path: a fresh kernel per target
    // (construction untimed) forces a from-scratch epoch build; delta
    // path: one kernel with the base memoized, every target built
    // incrementally via `epoch_from`. Bits are asserted equal per target.
    const TOUCHES: usize = 8;
    let n_delta_queries: usize = match scale {
        Scale::Tiny => 1024,
        Scale::Quick => 2048,
        Scale::Full => 4096,
    };
    let catalog = engine.catalog();
    // Every table wide enough for a two-column (select, filter) pair;
    // queries round-robin across them so touches to one table leave the
    // rest of the workload untouched — the shape real delta savings
    // come from.
    let wide_tables: Vec<cliffguard_workload::TableId> = catalog
        .tables()
        .filter(|&t| catalog.table(t).columns.len() >= 2)
        .collect();
    assert!(!wide_tables.is_empty(), "setup must have two-column tables");
    let fact = wide_tables[0];
    let fact_cols = catalog.table(fact).columns.len();
    let col0 = |t: cliffguard_workload::TableId| catalog.column_id(t, 0).0;
    let delta_w = Workload::from_queries((0..n_delta_queries).map(|i| {
        let t = wide_tables[i % wide_tables.len()];
        let n_cols = catalog.table(t).columns.len() as u32;
        let a = col0(t) + (i / wide_tables.len()) as u32 % (n_cols - 1);
        let sel = 0.001 + i as f64 * 1e-5;
        let q = QueryBuilder::new(t)
            .select(&[a])
            .filter(a + 1, PredOp::Eq, sel)
            .build();
        (q, 1.0)
    }));
    let delta_neighborhood = [delta_w];
    let two_col_projection = |k: u32| {
        let k = col0(fact) + k % (fact_cols as u32 - 1);
        Projection::new(
            fact,
            ColumnSet::from_ids(&[k, k + 1]),
            vec![cliffguard_workload::ColumnId(k)],
        )
    };
    let base = ColumnarDesign::from_structures(vec![two_col_projection(0), two_col_projection(2)]);
    let targets: Vec<ColumnarDesign> = (0..TOUCHES)
        .map(|i| {
            let mut structures = base.structures();
            structures.push(two_col_projection(4 + i as u32));
            ColumnarDesign::from_structures(structures)
        })
        .collect();

    let mut full_ms = 0.0;
    let mut full_epochs = Vec::with_capacity(TOUCHES * reps);
    for _ in 0..reps {
        for t in &targets {
            let (fresh, _) = CostKernel::build(engine, &delta_neighborhood);
            let t0 = Instant::now();
            full_epochs.push(fresh.epoch(t));
            full_ms += t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                fresh.stats().delta_builds,
                0,
                "fresh kernel must build fully"
            );
        }
    }

    let (delta_kernel, _) = CostKernel::build(engine, &delta_neighborhood);
    let _ = delta_kernel.epoch(&base);
    let mut delta_ms = 0.0;
    let mut delta_epochs = Vec::with_capacity(TOUCHES * reps);
    for _ in 0..reps {
        for t in &targets {
            let t0 = Instant::now();
            delta_epochs.push(delta_kernel.epoch_from(&base, t));
            delta_ms += t0.elapsed().as_secs_f64() * 1e3;
        }
    }
    for (i, (d, f)) in delta_epochs.iter().zip(&full_epochs).enumerate() {
        assert_eq!(d.fingerprint(), f.fingerprint());
        for (a, b) in d.latencies().iter().zip(f.latencies()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "delta epoch diverged from full build at target {i}"
            );
        }
    }
    let delta_stats = delta_kernel.stats();
    let recost_fraction = delta_stats.recosted_queries as f64
        / (delta_stats.delta_builds.max(1) * delta_stats.interned_queries.max(1) as u64) as f64;

    // --- autovectorized fold: 100k-distinct-query throughput ----------
    // A synthetic epoch and workload far above the generator's dedup
    // scale: the flat-slice fold is timed alone and bit-checked against
    // a naive entry-pair fold (same order, same operations).
    const FOLD_QUERIES: usize = 100_000;
    const FOLD_REPS: usize = 64;
    let mut word = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
    let mut next = || {
        word = word
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (word >> 40) as f64 / 1024.0
    };
    let lat: Vec<f64> = (0..FOLD_QUERIES).map(|_| 0.5 + next()).collect();
    let entries: Vec<(QueryId, f64)> = (0..FOLD_QUERIES)
        .map(|i| (QueryId(i as u32), 1.0 + next()))
        .collect();
    let fold_epoch = DesignEpoch::from_parts(0, lat);
    let fold_w = InternedWorkload::from_entries(entries);
    let t0 = Instant::now();
    let mut fold_sink = 0u64;
    for _ in 0..FOLD_REPS {
        fold_sink ^= fold_epoch.workload_cost(&fold_w).total_ms.to_bits();
    }
    let fold_secs = t0.elapsed().as_secs_f64();
    let fold_mqs = (FOLD_QUERIES * FOLD_REPS) as f64 / fold_secs.max(1e-9) / 1e6;
    let fold_cost = fold_epoch.workload_cost(&fold_w);
    let (mut total, mut weight, mut max) = (0.0, 0.0, 0.0f64);
    for &(id, wt) in fold_w.entries() {
        let l = fold_epoch.latencies()[id.index()];
        total += l * wt;
        weight += wt;
        max = max.max(l);
    }
    assert_eq!(
        fold_cost.total_ms.to_bits(),
        total.to_bits(),
        "flat-slice fold diverged from the naive entry-pair fold"
    );
    assert_eq!(fold_cost.avg_ms.to_bits(), (total / weight).to_bits());
    assert_eq!(fold_cost.max_ms.to_bits(), max.to_bits());
    // XOR of an even rep count self-cancels; the sink only keeps the
    // timed loop from being optimized away.
    assert_eq!(
        fold_sink,
        if FOLD_REPS % 2 == 0 {
            0
        } else {
            fold_cost.total_ms.to_bits()
        }
    );

    let stats = kernel.stats();
    let evaluations = direct_vals.len();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = cliffguard_parallel::current_threads();

    let mut t = Table::new(
        "costkernel",
        "cost-kernel microbench: neighborhood evaluation, two paths",
        &["Metric", "Value"],
    );
    t.row(vec!["gamma".into(), fnum(gamma)]);
    t.row(vec![
        "workloads x designs x reps".into(),
        format!("{} x {} x {}", neighborhood.len(), designs.len(), reps),
    ]);
    t.row(vec![
        "workload evaluations per path".into(),
        evaluations.to_string(),
    ]);
    t.row(vec!["direct wall ms".into(), fnum(direct_ms)]);
    t.row(vec!["kernel wall ms".into(), fnum(kernel_ms)]);
    t.row(vec![
        "kernel speedup vs direct".into(),
        fnum(direct_ms / kernel_ms.max(1e-9)),
    ]);
    t.row(vec![
        "interned queries".into(),
        stats.interned_queries.to_string(),
    ]);
    t.row(vec!["raw entries".into(), stats.raw_entries.to_string()]);
    t.row(vec!["dedup ratio".into(), fnum(stats.dedup_ratio)]);
    t.row(vec![
        "epoch builds".into(),
        (stats.epoch_builds + stats.delta_builds).to_string(),
    ]);
    t.row(vec![
        "epoch builds (full / delta)".into(),
        format!("{} / {}", stats.epoch_builds, stats.delta_builds),
    ]);
    t.row(vec![
        "delta touches x reps".into(),
        format!("{TOUCHES} x {reps}"),
    ]);
    t.row(vec![
        "delta workload queries".into(),
        format!("{n_delta_queries}"),
    ]);
    t.row(vec!["full epoch wall ms".into(), fnum(full_ms)]);
    t.row(vec!["delta epoch wall ms".into(), fnum(delta_ms)]);
    t.row(vec![
        "delta speedup vs full".into(),
        fnum(full_ms / delta_ms.max(1e-9)),
    ]);
    t.row(vec![
        "delta recosted fraction".into(),
        fnum(recost_fraction),
    ]);
    t.row(vec![
        "fold queries x reps".into(),
        format!("{FOLD_QUERIES} x {FOLD_REPS}"),
    ]);
    t.row(vec!["fold wall ms".into(), fnum(fold_secs * 1e3)]);
    t.row(vec!["fold Mqueries/s".into(), fnum(fold_mqs)]);
    t.row(vec![
        "CELF structures chosen".into(),
        celf_chosen.len().to_string(),
    ]);
    t.row(vec![
        "CELF re-evaluations (vs eager rescans)".into(),
        format!("{reevaluations} (vs {eager_rescans})"),
    ]);
    t.row(vec!["CELF wall ms".into(), fnum(celf_ms)]);
    t.row(vec!["eager wall ms".into(), fnum(eager_ms)]);
    t.row(vec![
        "cores (threads used)".into(),
        format!("{cores} ({threads})"),
    ]);
    t.note("both paths asserted bit-identical per evaluation before timing is reported");
    t.note("delta epochs asserted bit-identical to full builds per single-structure touch");
    t.note("wall times vary run to run; the identity assertions and counters are deterministic");
    vec![t]
}
