//! Property-based tests for the workload distance metrics: the paper's
//! requirements R2 (intra-query similarity), R3 (symmetry), and R4
//! (triangle property), plus sampler guarantees and the anchored δ's
//! bit-identity with `distance`, on randomized workloads.

use cliffguard::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

const N_COLS: usize = 24;

/// A random query over up to `N_COLS` columns of table 0.
fn arb_query() -> impl Strategy<Value = Query> {
    (
        proptest::collection::vec(0..N_COLS as u32, 1..5),
        proptest::collection::vec((0..N_COLS as u32, 0.001f64..0.9), 0..3),
        proptest::collection::vec(0..N_COLS as u32, 0..3),
    )
        .prop_map(|(sel, filt, group)| {
            let mut b = QueryBuilder::new(TableId(0)).select(&sel);
            for (c, s) in filt {
                b = b.filter(c, PredOp::Eq, s);
            }
            if !group.is_empty() {
                b = b.group_by(&group);
            }
            b.build()
        })
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    proptest::collection::vec((arb_query(), 1.0f64..50.0), 1..8).prop_map(Workload::from_queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn euclidean_symmetric(a in arb_workload(), b in arb_workload()) {
        let d = DeltaEuclidean::new(N_COLS);
        prop_assert!((d.distance(&a, &b) - d.distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn euclidean_identity_and_nonnegative(a in arb_workload(), b in arb_workload()) {
        let d = DeltaEuclidean::new(N_COLS);
        prop_assert_eq!(d.distance(&a, &a), 0.0);
        prop_assert!(d.distance(&a, &b) >= 0.0);
        prop_assert!(d.distance(&a, &b) <= 1.0 + 1e-9);
    }

    #[test]
    fn sqrt_euclidean_triangle(
        a in arb_workload(),
        b in arb_workload(),
        c in arb_workload()
    ) {
        // The paper states δ is triangular (R4). As a quadratic form the
        // raw δ cannot be (δ scales with the square of the mass moved);
        // the metric that provably satisfies the triangle inequality is
        // √δ, and that is what gradient-style reasoning needs. We verify
        // √δ's triangle property on random workloads.
        let d = DeltaEuclidean::new(N_COLS);
        let ab = d.distance(&a, &b).sqrt();
        let bc = d.distance(&b, &c).sqrt();
        let ac = d.distance(&a, &c).sqrt();
        prop_assert!(ac <= ab + bc + 1e-9, "ac {} > ab {} + bc {}", ac, ab, bc);
    }

    #[test]
    fn separate_dominates_union_view(a in arb_workload(), b in arb_workload()) {
        // δ_separate sees every change δ_euclidean sees (clause moves add
        // information): if the union metric says "different", so must the
        // separate one.
        let du = DeltaEuclidean::new(N_COLS);
        let ds = DeltaSeparate::new(N_COLS);
        if du.distance(&a, &b) > 1e-12 {
            prop_assert!(ds.distance(&a, &b) > 0.0);
        }
    }

    #[test]
    fn sampler_respects_gamma(
        w in arb_workload(),
        gamma in 0.0005f64..0.02,
        seed in 0u64..100
    ) {
        let metric = DeltaEuclidean::new(N_COLS);
        // A pool disjoint-ish from the workload: shifted column ids.
        let pool: Vec<Arc<Query>> = (0..12)
            .map(|i| {
                Arc::new(
                    QueryBuilder::new(TableId(0))
                        .select(&[(i * 5) % N_COLS as u32, (i * 7 + 3) % N_COLS as u32])
                        .filter((i * 11 + 1) % N_COLS as u32, PredOp::Eq, 0.01)
                        .build(),
                )
            })
            .collect();
        let mut sampler = NeighborhoodSampler::new(metric, pool, seed);
        for s in sampler.sample_neighborhood(&w, gamma, 5) {
            prop_assert!(metric.distance(&w, &s) <= gamma * 1.001);
        }
    }

    #[test]
    fn latency_metric_interpolates(a in arb_workload(), b in arb_workload()) {
        let base = |q: &Query| 1.0 + q.select.len() as f64;
        let d0 = DeltaLatency::new(N_COLS, 0.0, base);
        let d1 = DeltaLatency::new(N_COLS, 1.0, base);
        let dh = DeltaLatency::new(N_COLS, 0.5, base);
        let lo = d0.distance(&a, &b);
        let hi = d1.distance(&a, &b);
        let mid = dh.distance(&a, &b);
        prop_assert!(mid >= lo.min(hi) - 1e-12 && mid <= lo.max(hi) + 1e-12);
    }
}

#[test]
fn r2_intra_query_similarity_on_clause_sets() {
    // Moving mass to a near-identical query must register a smaller δ than
    // moving it to a disjoint query (requirement R2).
    let d = DeltaEuclidean::new(N_COLS);
    let q = |sel: &[u32]| QueryBuilder::new(TableId(0)).select(sel).build();
    let base = Workload::from_queries([(q(&[1, 2, 3]), 10.0)]);
    let near = Workload::from_queries([(q(&[1, 2, 3]), 5.0), (q(&[1, 2, 4]), 5.0)]);
    let far = Workload::from_queries([(q(&[1, 2, 3]), 5.0), (q(&[10, 11, 12]), 5.0)]);
    assert!(d.distance(&base, &near) < d.distance(&base, &far));
}

/// A query over few columns, so representation keys repeat between `W0`
/// and the candidates under every clause mask.
fn arb_narrow_query() -> impl Strategy<Value = Query> {
    (
        proptest::collection::vec(0..6u32, 1..3),
        proptest::collection::vec((0..6u32, 1..4u32), 0..2),
        proptest::collection::vec(0..6u32, 0..2),
        proptest::collection::vec(0..6u32, 0..2),
    )
        .prop_map(|(sel, filt, group, order)| {
            let mut b = QueryBuilder::new(TableId(0)).select(&sel);
            for (c, step) in filt {
                b = b.filter(c, PredOp::Eq, 0.01 * step as f64);
            }
            if !group.is_empty() {
                b = b.group_by(&group);
            }
            if !order.is_empty() {
                b = b.order_by(&order);
            }
            b.build()
        })
}

/// The same representation key under every metric, another signature.
fn key_twin(q: &Query) -> Query {
    let mut twin = q.clone();
    twin.aggregates = !twin.aggregates;
    twin
}

/// Asserts `anchored(w0, candidates).distance_to(s)` has the bits of
/// `distance(w0, Q)` for each subset `s`, reusing one anchor across them.
fn assert_anchored_matches<M: WorkloadDistance>(
    metric: &M,
    w0: &Workload,
    candidates: &[Arc<Query>],
    subsets: &[Vec<usize>],
) {
    let mut anchored = metric.anchored(w0, candidates);
    for subset in subsets {
        let q = Workload::from_queries(subset.iter().map(|&i| ((*candidates[i]).clone(), 1.0)));
        assert_eq!(q.len(), subset.len(), "subset signatures must be distinct");
        let want = metric.distance(w0, &q);
        let got = anchored.distance_to(subset);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: anchored {got} vs distance {want} on {subset:?}",
            metric.name()
        );
    }
}

/// Every metric the sampler runs with: `δ_euclidean` under SWGO and each
/// single-clause mask, `δ_separate` and `δ_latency`.
fn assert_anchored_matches_for_every_metric(
    w0: &Workload,
    candidates: &[Arc<Query>],
    subsets: &[Vec<usize>],
) {
    for mask in [
        ClauseMask::SWGO,
        ClauseMask::S,
        ClauseMask::W,
        ClauseMask::G,
        ClauseMask::O,
    ] {
        let metric = DeltaEuclidean::with_mask(N_COLS, mask);
        assert_anchored_matches(&metric, w0, candidates, subsets);
    }
    assert_anchored_matches(&DeltaSeparate::new(N_COLS), w0, candidates, subsets);
    let baseline = |q: &Query| 1.5 + 3.0 * q.select.len() as f64 + q.predicates.len() as f64;
    assert_anchored_matches(
        &DeltaLatency::new(N_COLS, 0.2, baseline),
        w0,
        candidates,
        subsets,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn anchored_distance_is_bit_identical_to_distance(
        w0 in proptest::collection::vec((arb_narrow_query(), 1.0f64..20.0), 1..6),
        fresh in proptest::collection::vec(arb_narrow_query(), 0..10),
        picks in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..9), 1..5),
        twins in 0usize..4
    ) {
        let w0 = Workload::from_queries(w0);
        let mut candidates: Vec<Arc<Query>> = fresh.into_iter().map(Arc::new).collect();
        // Candidates sharing a key with a W0 query, and candidates sharing
        // a key with another candidate.
        let w0_twins: Vec<Query> = w0.queries().take(twins).map(|q| key_twin(q)).collect();
        let pool_twins: Vec<Query> = candidates.iter().take(twins).map(|q| key_twin(q)).collect();
        candidates.extend(w0_twins.into_iter().chain(pool_twins).map(Arc::new));
        // Index subsets with distinct signatures (the sampler's guard).
        let subsets: Vec<Vec<usize>> = picks
            .iter()
            .map(|p| {
                let mut subset: Vec<usize> = Vec::new();
                for &i in p {
                    let Some(i) = i.checked_rem(candidates.len()) else { break };
                    let sig = candidates[i].signature();
                    if subset.iter().all(|&j| candidates[j].signature() != sig) {
                        subset.push(i);
                    }
                }
                subset
            })
            .collect();
        assert_anchored_matches_for_every_metric(&w0, &candidates, &subsets);
    }
}

#[test]
fn anchored_distance_covers_shared_keys_and_a_one_query_w0() {
    let q_at = |sel: &[u32], filt: u32, selectivity: f64| {
        QueryBuilder::new(TableId(0))
            .select(sel)
            .filter(filt, PredOp::Eq, selectivity)
            .build()
    };
    let q = |sel: &[u32], filt: u32| q_at(sel, filt, 0.05);
    let w0 = Workload::from_queries([(q(&[1, 2], 3), 7.0)]);
    let own = w0.queries().next().expect("one query").clone();
    let candidates: Vec<Arc<Query>> = vec![
        // W0's key under another signature.
        Arc::new(key_twin(&own)),
        // Three candidates sharing one new key.
        Arc::new(q(&[4, 5], 6)),
        Arc::new(key_twin(&q(&[4, 5], 6))),
        Arc::new(q_at(&[4, 5], 6, 0.2)),
        Arc::new(q(&[9], 1)),
    ];
    let subsets = vec![
        vec![0],
        vec![1, 2, 3],
        vec![0, 1, 2],
        vec![4, 2, 0, 1],
        vec![3],
        vec![],
    ];
    assert_anchored_matches_for_every_metric(&w0, &candidates, &subsets);
}

#[test]
fn anchored_distance_drops_cancelled_mass_like_distance() {
    // W0 = {K: 0.1 + 0.2, L: 0.7}; Q puts 3 and 7 of its 10 unit weights on
    // K and L. Both differences round to ~2.8e-17 instead of 0, below the
    // support's 1e-15 cut, so δ is exactly 0.0 and must stay so.
    let on = |sel: &[u32], i: u32| {
        QueryBuilder::new(TableId(0))
            .select(sel)
            .filter(9, PredOp::Eq, 0.01 * (i + 1) as f64)
            .build()
    };
    let w0 = Workload::from_queries([
        (on(&[1, 2], 0), 0.1),
        (on(&[1, 2], 1), 0.2),
        (on(&[3, 4, 5], 0), 0.7),
    ]);
    let candidates: Vec<Arc<Query>> = (2..5)
        .map(|i| on(&[1, 2], i))
        .chain((1..8).map(|i| on(&[3, 4, 5], i)))
        .map(Arc::new)
        .collect();
    let all: Vec<usize> = (0..candidates.len()).collect();
    let q = Workload::from_queries(candidates.iter().map(|c| ((**c).clone(), 1.0)));
    assert_eq!(DeltaEuclidean::new(N_COLS).distance(&w0, &q), 0.0);
    assert_anchored_matches_for_every_metric(&w0, &candidates, &[all]);
}
