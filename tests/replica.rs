//! Replication properties: the router's argmin/tie-break contract, the
//! permutation invariance of the fleet fingerprint and routed costs, the
//! byte-identity of the replicated pipeline across thread counts (with
//! crash faults injected through `CLIFFGUARD_FAULTS`), and the R=1/k=0
//! reduction of the failure-aware objective to the uniform minimax —
//! bit-for-bit, no epsilon.

use cliffguard::prelude::*;
use cliffguard::sim::{combine_fingerprints, QueryRouter};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// `set_threads` is process-global; the thread-count tests serialize.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn epochs(lat: &[Vec<f64>], ids: &[u64]) -> Vec<Arc<DesignEpoch>> {
    lat.iter()
        .zip(ids)
        .map(|(l, &id)| Arc::new(DesignEpoch::from_parts(id, l.clone())))
        .collect()
}

/// Fleets of 1–4 replicas over 1–12 queries, with latencies drawn from a
/// coarse grid so exact ties actually occur and exercise the tie-break.
fn arb_latencies() -> impl Strategy<Value = Vec<Vec<f64>>> {
    let cell = (1u32..9).prop_map(|t| t as f64 * 0.5);
    let full = proptest::collection::vec(proptest::collection::vec(cell, 12), 4);
    (1usize..5, 1usize..13, full).prop_map(|(r, q, m)| {
        m.into_iter()
            .take(r)
            .map(|row| row.into_iter().take(q).collect())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routes_are_the_lowest_index_argmin(lat in arb_latencies()) {
        let ids: Vec<u64> = (0..lat.len() as u64).collect();
        let router = QueryRouter::new(epochs(&lat, &ids));
        for q in 0..router.query_count() {
            let mut best = 0usize;
            for r in 1..lat.len() {
                // Strict <: on a tie the earlier (lower) index wins.
                if lat[r][q] < lat[best][q] {
                    best = r;
                }
            }
            prop_assert_eq!(router.route(QueryId(q as u32)), best);
        }
    }

    #[test]
    fn permuting_replicas_preserves_fingerprint_and_routed_latency(
        lat in arb_latencies(),
        rot in 0usize..4,
    ) {
        // Rotate the fleet: replica identities travel with their epochs.
        let r = lat.len();
        let rot = rot % r;
        let ids: Vec<u64> = (0..r as u64).map(|i| 0x517c_c1b7_2722_0a95 ^ i).collect();
        let mut lat_p = lat.clone();
        let mut ids_p = ids.clone();
        lat_p.rotate_left(rot);
        ids_p.rotate_left(rot);
        let a = QueryRouter::new(epochs(&lat, &ids));
        let b = QueryRouter::new(epochs(&lat_p, &ids_p));
        // The set fingerprint is order-insensitive.
        prop_assert_eq!(
            combine_fingerprints(a.fingerprints().into_iter()),
            combine_fingerprints(b.fingerprints().into_iter())
        );
        // Under every failure mask (mapped through the rotation), the
        // routed latency is bit-identical: a tie may route to a different
        // replica *identity*, but never to a different latency.
        for mask in 0u32..(1 << r) {
            let mask_p = (0..r).fold(0u32, |m, i| {
                let old = (i + rot) % r;
                if mask & (1 << old) != 0 { m | (1 << i) } else { m }
            });
            for q in 0..a.query_count() {
                let id = QueryId(q as u32);
                let la = a.routed_latency_ms(id, mask);
                let lb = b.routed_latency_ms(id, mask_p);
                prop_assert_eq!(la.map(f64::to_bits), lb.map(f64::to_bits));
            }
        }
    }
}

fn fixture() -> (SchemaShape, Vec<Workload>) {
    let mut config = WorkloadProfile::R1.config(13).scaled(0.2);
    config.n_windows = 4;
    let mut generator = DriftingGenerator::new(config.clone());
    let shape = generator.shape().clone();
    let windows = generator.generate().windows_days(config.window_days);
    (shape, windows)
}

#[test]
fn degenerate_fleet_reduces_bit_for_bit_to_the_uniform_minimax() {
    let (shape, windows) = fixture();
    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let budget = 1u64 << 24;
    let base = designer.design(windows.last().unwrap(), budget);
    let out = design_replicated(
        &engine,
        &designer,
        &base,
        &windows,
        budget,
        &ReplicaOptions::default(),
    )
    .expect("R=1/k=0 runs");
    // The two-axis objective with one replica and no crash budget is
    // exactly the session's uniform worst-case fold.
    let (kernel, interned) = CostKernel::build(&engine, &windows);
    let epoch = kernel.epoch(&base);
    let direct = interned
        .iter()
        .map(|w| kernel.workload_cost(w, &epoch).avg_ms)
        .fold(0.0f64, f64::max);
    assert_eq!(out.audit.worst_case.to_bits(), direct.to_bits());
    assert_eq!(out.audit.worst_mask, 0);
    assert_eq!(out.design.len(), 1);
    assert_eq!(
        out.design.set_fingerprint(),
        combine_fingerprints(std::iter::once(base.fingerprint()))
    );
}

#[test]
fn env_injected_crash_faults_never_panic_and_audit_identically_across_threads() {
    let _guard = THREAD_KNOB.lock().unwrap();
    // The plan arrives the way a deployment injects it: via the
    // CLIFFGUARD_FAULTS environment variable.
    std::env::set_var(FAULTS_ENV, "replica-crash@1:1,replica-slow@2:0");
    let plan = FaultPlan::from_env()
        .expect("env spec parses")
        .expect("env spec present");
    std::env::remove_var(FAULTS_ENV);

    let (shape, windows) = fixture();
    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let budget = 1u64 << 24;
    let base = designer.design(windows.last().unwrap(), budget);
    let opts = ReplicaOptions {
        replicas: 3,
        max_failures: 1,
        faults: Some(plan),
    };

    let mut baseline: Option<String> = None;
    for threads in [1usize, 8] {
        set_threads(threads);
        let out = design_replicated(&engine, &designer, &base, &windows, budget, &opts)
            .expect("crash faults degrade, never fail");
        let audit = &out.audit;
        // The crash landed (replica 1), the fleet degraded instead of
        // dying, and the failover is on the audit trail.
        assert_eq!(audit.crashed_mask, 0b010, "{}", audit.to_json());
        assert_ne!(audit.slowed_mask, 0, "{}", audit.to_json());
        assert!(
            audit.failovers.iter().any(|f| f.kind == "replica-crash"),
            "{}",
            audit.to_json()
        );
        let shares = &audit.routing_shares;
        assert_eq!(
            shares[1].to_bits(),
            0.0f64.to_bits(),
            "crashed replica serves nothing"
        );
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let json = audit.to_json();
        match &baseline {
            None => baseline = Some(json),
            Some(b) => assert_eq!(
                b, &json,
                "audit must be byte-identical at {threads} threads"
            ),
        }
    }
    set_threads(1);
}

#[test]
fn divergent_fleets_are_never_worse_than_uniform_under_any_crash_budget() {
    let (shape, windows) = fixture();
    let catalog = CatalogGenerator::default().generate(&shape);
    let engine = ColumnarEngine::new(catalog);
    let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let budget = 1u64 << 24;
    let base = designer.design(windows.last().unwrap(), budget);
    for (replicas, max_failures) in [(2usize, 0usize), (2, 1), (3, 1), (3, 2)] {
        let opts = ReplicaOptions {
            replicas,
            max_failures,
            ..ReplicaOptions::default()
        };
        let out = design_replicated(&engine, &designer, &base, &windows, budget, &opts)
            .expect("fleet design runs");
        assert!(
            out.audit.worst_case <= out.audit.uniform_worst_case,
            "R={replicas} k={max_failures}: divergent {} > uniform {}",
            out.audit.worst_case,
            out.audit.uniform_worst_case
        );
        for replica in &out.design.replicas {
            assert!(replica.price_bytes(engine.catalog()) <= budget);
        }
    }
}
