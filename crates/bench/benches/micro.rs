//! Microbenchmarks for CliffGuard's hot primitives: the workload distance
//! (the `O(T²·n)` quadratic form of Section 5), the Γ-neighborhood sampler
//! (Algorithm 4), the engine cost model, the nominal designer, and one
//! full CliffGuard design call — plus a serial-vs-parallel comparison of
//! the Γ-neighborhood worst-case evaluation.

use cliffguard_core::{CliffGuard, CliffGuardConfig};
use cliffguard_designer::{ColumnarCandidates, GreedyDesigner, NominalDesigner};
use cliffguard_distance::{DeltaEuclidean, NeighborhoodSampler, WorkloadDistance};
use cliffguard_sim::{ColumnarDesign, ColumnarEngine, Engine, PhysicalDesign};
use cliffguard_storage::CatalogGenerator;
use cliffguard_workload::generator::{DriftingGenerator, WorkloadProfile};
use cliffguard_workload::{Query, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

struct Fixture {
    engine: ColumnarEngine,
    w0: Workload,
    w1: Workload,
    pool: Vec<Arc<Query>>,
    n_columns: usize,
    budget: u64,
}

fn fixture() -> Fixture {
    let mut config = WorkloadProfile::R1.config(7).scaled(0.3);
    config.n_windows = 3;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);
    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let pool: Vec<Arc<Query>> = windows[0]
        .queries()
        .chain(windows[1].queries())
        .cloned()
        .collect();
    Fixture {
        engine,
        w0: windows[1].clone(),
        w1: windows[2].clone(),
        pool,
        n_columns: shape.column_count(),
        budget: 40 << 30,
    }
}

fn bench(c: &mut Criterion) {
    let f = fixture();
    let metric = DeltaEuclidean::new(f.n_columns);

    c.bench_function("distance/delta_euclidean", |b| {
        b.iter(|| black_box(metric.distance(&f.w0, &f.w1)))
    });

    c.bench_function("sampler/sample_at", |b| {
        let mut sampler = NeighborhoodSampler::new(metric, f.pool.clone(), 3);
        b.iter(|| black_box(sampler.sample_at(&f.w0, 0.01).ok()))
    });

    let design = {
        let nominal = GreedyDesigner::new(&f.engine, ColumnarCandidates, "DBD");
        nominal.design(&f.w0, f.budget)
    };
    c.bench_function("engine/workload_cost", |b| {
        b.iter(|| black_box(f.engine.workload_cost(&f.w1, &design)))
    });
    c.bench_function("engine/query_latency_empty_design", |b| {
        let q = f.w1.queries().next().unwrap();
        let empty = ColumnarDesign::empty();
        b.iter(|| black_box(f.engine.query_latency_ms(q, &empty)))
    });

    let mut g = c.benchmark_group("designer");
    g.sample_size(10);
    g.bench_function("greedy_design", |b| {
        let nominal = GreedyDesigner::new(&f.engine, ColumnarCandidates, "DBD");
        b.iter(|| {
            let d = nominal.design(&f.w0, f.budget);
            black_box(d.len())
        })
    });
    g.bench_function("cliffguard_design", |b| {
        let nominal = GreedyDesigner::new(&f.engine, ColumnarCandidates, "DBD");
        let cg = CliffGuard::new(&f.engine, &nominal, metric, CliffGuardConfig::new(0.01));
        b.iter(|| {
            let (d, _) = cg.design(&f.w0, f.budget, &f.pool);
            black_box(d.len())
        })
    });
    g.finish();

    parallel_worst_case_report(&f, metric);
}

/// Γ-neighborhood worst-case evaluation, the workload the parallel
/// cost-evaluation layer exists for: reports serial vs parallel wall
/// clock (and the speedup).
///
/// Not a criterion `bench_function`: the serial and parallel runs must be
/// timed against *each other* over the identical neighborhood.
fn parallel_worst_case_report(f: &Fixture, metric: DeltaEuclidean) {
    fn worst_case<C: Fn(&Workload) -> f64 + Sync>(neighborhood: &[Workload], cost: C) -> f64 {
        cliffguard_parallel::par_map(neighborhood, |w| cost(w))
            .into_iter()
            .fold(0.0, f64::max)
    }

    let test_mode = std::env::args().any(|a| a == "--test");
    let mut sampler = NeighborhoodSampler::new(metric, f.pool.clone(), 11);
    let neighborhood = sampler.sample_neighborhood(&f.w0, 0.01, if test_mode { 6 } else { 64 });
    if neighborhood.is_empty() {
        return;
    }
    let design = GreedyDesigner::new(&f.engine, ColumnarCandidates, "DBD").design(&f.w0, f.budget);
    let cost = |w: &Workload| f.engine.workload_cost(w, &design).avg_ms;

    // Serial baseline, then a parallel pass over the same neighborhood.
    let reps = if test_mode { 1 } else { 5 };
    cliffguard_parallel::set_threads(1);
    let t0 = std::time::Instant::now();
    let mut serial_result = 0.0;
    for _ in 0..reps {
        serial_result = worst_case(&neighborhood, cost);
    }
    let serial = t0.elapsed();

    let threads = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .max(4);
    cliffguard_parallel::set_threads(threads);
    let t0 = std::time::Instant::now();
    let mut parallel_result = 0.0;
    for _ in 0..reps {
        parallel_result = worst_case(&neighborhood, cost);
    }
    let parallel = t0.elapsed();
    assert_eq!(
        serial_result.to_bits(),
        parallel_result.to_bits(),
        "parallel worst-case must be bit-identical to serial"
    );

    if test_mode {
        println!("test parallel/worst_case_equivalence ... ok");
    } else {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-12);
        println!("parallel/worst_case_serial                   {reps} reps in {serial:>10.2?}");
        println!(
            "parallel/worst_case_{threads}_threads                {reps} reps in {parallel:>10.2?}  \
             speedup {speedup:.2}x on {cores} core(s)"
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
