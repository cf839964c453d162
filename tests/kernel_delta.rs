//! Delta epochs: bit-identity with full rebuilds.
//!
//! [`CostKernel::epoch_from`] re-costs only the queries whose plans depend
//! on a touched structure and splices them into a clone of the base
//! epoch. For any base/target design pair and any thread count, the
//! result must carry the exact bits a from-scratch build produces
//! (property-tested at 1 and 8 threads).

use cliffguard::prelude::*;
use proptest::prelude::*;
use std::sync::Mutex;

static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// Thread counts the identity must hold at (1 = fully inline baseline).
const THREAD_COUNTS: [usize; 2] = [1, 8];

/// Small drifting-workload fixture (same shape as `kernel_identity.rs`).
fn fixture(seed: u64) -> (ColumnarEngine, Vec<Workload>) {
    let mut config = WorkloadProfile::R1.config(seed).scaled(0.15);
    config.n_windows = 3;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);
    let catalog = CatalogGenerator::default().generate(&shape);
    (ColumnarEngine::new(catalog), windows)
}

/// A design assembled from candidate structures picked by two free indices.
fn design_from(engine: &ColumnarEngine, w: &Workload, a: usize, b: usize) -> ColumnarDesign {
    let candidates = ColumnarCandidates.candidates(engine, w);
    assert!(!candidates.is_empty(), "fixture must yield candidates");
    ColumnarDesign::from_structures(vec![
        candidates[a % candidates.len()].clone(),
        candidates[b % candidates.len()].clone(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `epoch_from(base, target)` carries the exact bits of a from-scratch
    /// `epoch(target)` for single-structure touches, at 1 and 8 threads.
    #[test]
    fn delta_epoch_equals_full_build_bit_identically(
        seed in 0u64..10_000,
        a in 0usize..64,
        b in 0usize..64,
        c in 0usize..64,
    ) {
        let _guard = THREAD_KNOB.lock().unwrap();
        let (engine, windows) = fixture(seed);
        // Base and target share structure `a`; `b` → `c` is the touch.
        let base = design_from(&engine, &windows[0], a, b);
        let target = design_from(&engine, &windows[0], a, c);

        for threads in THREAD_COUNTS {
            set_threads(threads);
            // Delta path: base epoch first, then the incremental rebuild.
            let (kernel, interned) = CostKernel::build(&engine, &windows);
            let _ = kernel.epoch(&base);
            let delta = kernel.epoch_from(&base, &target);

            // Reference: an untouched kernel that can only build fully.
            let (fresh, _) = CostKernel::build(&engine, &windows);
            let full = fresh.epoch(&target);
            prop_assert_eq!(fresh.stats().delta_builds, 0);

            prop_assert_eq!(delta.fingerprint(), full.fingerprint());
            for (i, (d, f)) in delta.latencies().iter().zip(full.latencies()).enumerate() {
                prop_assert_eq!(
                    d.to_bits(), f.to_bits(),
                    "delta diverged from full build at query {} with {} threads",
                    i, threads
                );
            }
            // The folds downstream of the epoch agree too.
            for iw in &interned {
                let dc = kernel.workload_cost(iw, &delta);
                let fc = fresh.workload_cost(iw, &full);
                prop_assert_eq!(dc.avg_ms.to_bits(), fc.avg_ms.to_bits());
                prop_assert_eq!(dc.max_ms.to_bits(), fc.max_ms.to_bits());
                prop_assert_eq!(dc.total_ms.to_bits(), fc.total_ms.to_bits());
            }
            // Identical designs are a no-touch delta: nothing re-costed.
            let before = kernel.stats().recosted_queries;
            let same = kernel.epoch_from(&base, &base);
            prop_assert_eq!(same.fingerprint(), base.fingerprint());
            prop_assert_eq!(kernel.stats().recosted_queries, before);
        }
        set_threads(1);
    }
}

/// Single-structure touches on a wide workload re-cost only the queries
/// the touched projection can serve, not every query on its table: the
/// dependency predicate, not the table-mask prefilter, keeps the re-costed
/// fraction under half. Three in four queries sit on the widest table,
/// so a predicate that matched on the table alone would re-cost at least
/// three quarters of the workload per touch.
#[test]
fn single_structure_touches_recost_under_half_the_workload() {
    const QUERIES: usize = 1024;
    const TOUCHES: usize = 8;
    let (engine, _) = fixture(7);
    let catalog = engine.catalog();
    let mut tables: Vec<TableId> = catalog
        .tables()
        .filter(|&t| catalog.table(t).columns.len() >= 2)
        .collect();
    // Widest first; ties keep catalog order.
    tables.sort_by_key(|&t| std::cmp::Reverse(catalog.table(t).columns.len()));
    assert!(tables.len() >= 2, "fixture must have two two-column tables");
    let (fact, others) = tables.split_first().expect("non-empty");
    let col0 = |t: TableId| catalog.column_id(t, 0).0;
    let width = |t: TableId| catalog.table(t).columns.len() as u32;

    // `select a / filter a+1` with a query-unique selectivity, so every
    // query interns separately.
    let workload = Workload::from_queries((0..QUERIES).map(|i| {
        let t = if i % 4 == 0 {
            others[i / 4 % others.len()]
        } else {
            *fact
        };
        let a = col0(t) + (i as u32 / 4) % (width(t) - 1);
        let q = QueryBuilder::new(t)
            .select(&[a])
            .filter(a + 1, PredOp::Eq, 0.001 + i as f64 * 1e-5)
            .build();
        (q, 1.0)
    }));
    let workloads = [workload];
    let two_col_projection = |k: u32| {
        let k = col0(*fact) + k % (width(*fact) - 1);
        Projection::new(*fact, ColumnSet::from_ids(&[k, k + 1]), vec![ColumnId(k)])
    };
    let base = ColumnarDesign::from_structures(vec![two_col_projection(0), two_col_projection(2)]);
    let targets: Vec<ColumnarDesign> = (0..TOUCHES as u32)
        .map(|i| {
            let mut structures = base.structures();
            structures.push(two_col_projection(4 + i));
            ColumnarDesign::from_structures(structures)
        })
        .collect();

    let (kernel, _) = CostKernel::build(&engine, &workloads);
    let _ = kernel.epoch(&base);
    for (i, target) in targets.iter().enumerate() {
        let delta = kernel.epoch_from(&base, target);
        let (fresh, _) = CostKernel::build(&engine, &workloads);
        let full = fresh.epoch(target);
        assert_eq!(
            fresh.stats().delta_builds,
            0,
            "fresh kernel must build fully"
        );
        assert_eq!(delta.fingerprint(), full.fingerprint());
        for (q, (d, f)) in delta.latencies().iter().zip(full.latencies()).enumerate() {
            assert_eq!(
                d.to_bits(),
                f.to_bits(),
                "delta epoch diverged from full build at target {i}, query {q}"
            );
        }
    }

    let stats = kernel.stats();
    assert_eq!(stats.interned_queries, QUERIES, "every query is distinct");
    assert_eq!(stats.delta_builds, TOUCHES as u64);
    let fraction =
        stats.recosted_queries as f64 / (stats.delta_builds * stats.interned_queries as u64) as f64;
    assert!(
        fraction > 0.0 && fraction < 0.5,
        "delta builds re-costed {fraction} of the workload per touch"
    );
}
