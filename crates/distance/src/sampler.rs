//! Sampling the workload space (Appendix B, Algorithm 4).
//!
//! CliffGuard's neighborhood exploration needs `n` perturbed workloads
//! `W_1 … W_n` with `δ(W_0, W_i) ≤ Γ`. Algorithm 4 reduces this to: given a
//! target distance `α`, find a disjoint query set `Q` with
//! `β = δ(W_0, Q) > α`, set `λ = √(α/β)` and `c = n·λ / (k·(1−λ))`, and
//! return `W_1 = W_0 ⊎ ⌊c⌋ · Q`.
//!
//! Why it works: mixing `c` copies of each of the `k` fresh queries into
//! `W_0` shifts exactly a `λ' = ck/(n+ck) = λ` fraction of the normalized
//! mass onto `Q`, so the difference vector is `λ` times the difference
//! vector between `W_0` and `Q` and the quadratic form scales by `λ²`:
//! `δ(W_0, W_1) = λ²·β = α`. Flooring `c` can only undershoot, so the
//! `δ ≤ Γ` guarantee is preserved.
//!
//! Each call computes the fresh pool, its signatures and the metric's
//! [anchor](WorkloadDistance::anchored) once; a draw is then an index
//! subset, a signature-collision check and one anchored `δ(W_0, Q)`. No
//! draw builds a workload or clones a query.

use crate::metric::{AnchoredDistance, WorkloadDistance};
use cliffguard_workload::{Query, QuerySignature, Workload};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Failure modes of the sampler.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleError {
    /// The candidate pool (minus `W_0`'s own queries) cannot reach the
    /// requested distance: no subset tried had `δ(W_0, Q) > α`.
    PoolExhausted {
        /// The α that could not be met.
        requested: f64,
        /// The largest β observed while trying.
        best_observed: f64,
    },
    /// `W_0` has no queries to perturb around.
    EmptyWorkload,
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::PoolExhausted { requested, best_observed } => write!(
                f,
                "candidate pool cannot reach distance {requested} (best β observed: {best_observed})"
            ),
            SampleError::EmptyWorkload => write!(f, "cannot sample around an empty workload"),
        }
    }
}

impl std::error::Error for SampleError {}

/// Draws perturbed workloads in the Γ-neighborhood of a given workload.
pub struct NeighborhoodSampler<D> {
    metric: D,
    pool: Vec<Arc<Query>>,
    rng: ChaCha8Rng,
    shape: Shape,
}

/// How many fresh queries a draw mixes in, and how often each size is
/// tried.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Maximum queries per disjoint set `Q` (the paper reports success with
    /// `k ≤ 5`; we allow a little slack).
    max_k: usize,
    /// Preferred `k` tried first: richer perturbations (more fresh queries
    /// per neighbor) make the neighborhood representative of real drift,
    /// where whole topics shift at once.
    preferred_k: usize,
    /// Random subsets tried per `k` before growing `k`.
    tries_per_k: usize,
}

impl<D: WorkloadDistance> NeighborhoodSampler<D> {
    /// Creates a sampler over a candidate query pool (e.g. the queries of
    /// all *past* windows — never future ones).
    pub fn new(metric: D, pool: Vec<Arc<Query>>, seed: u64) -> Self {
        Self {
            metric,
            pool,
            rng: ChaCha8Rng::seed_from_u64(seed),
            shape: Shape {
                max_k: 8,
                preferred_k: 5,
                tries_per_k: 24,
            },
        }
    }

    /// The underlying metric.
    pub fn metric(&self) -> &D {
        &self.metric
    }

    /// The number of 32-bit RNG words this sampler has consumed.
    ///
    /// Sampling is the only stochastic phase of a CliffGuard session, so
    /// this single number pins down the whole session's random state: a
    /// checkpoint records it and a resume re-samples with the same seed,
    /// then verifies it landed on the same position.
    pub fn rng_words_consumed(&self) -> u64 {
        self.rng.words_consumed()
    }

    /// Algorithm 4: returns `W_1` with `δ(W_0, W_1) ≤ α` and as close to
    /// `α` as the integer copy count allows.
    pub fn sample_at(&mut self, w0: &Workload, alpha: f64) -> Result<Workload, SampleError> {
        let (fresh, sigs) = fresh_candidates(&self.pool, w0);
        let mut draws = Draws::new(&self.metric, w0, &fresh, sigs);
        draws.sample_at(&mut self.rng, self.shape, alpha)
    }

    /// Samples `count` perturbed workloads with distances uniform in
    /// `(0, gamma]` (Algorithm 2, line 2). Unreachable α values are skipped,
    /// so fewer than `count` samples may be returned when the pool is thin;
    /// an empty result only happens if *every* draw failed.
    pub fn sample_neighborhood(
        &mut self,
        w0: &Workload,
        gamma: f64,
        count: usize,
    ) -> Vec<Workload> {
        let (fresh, sigs) = fresh_candidates(&self.pool, w0);
        let mut draws = Draws::new(&self.metric, w0, &fresh, sigs);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let alpha = self.rng.random::<f64>() * gamma;
            if let Ok(w) = draws.sample_at(&mut self.rng, self.shape, alpha) {
                out.push(w);
            }
        }
        out
    }
}

/// The pool's queries not already contained in `w0`, with their signatures.
fn fresh_candidates(pool: &[Arc<Query>], w0: &Workload) -> (Vec<Arc<Query>>, Vec<QuerySignature>) {
    pool.iter()
        .map(|q| (q, q.signature()))
        .filter(|&(_, sig)| w0.weight_of_sig(sig) == 0.0)
        .map(|(q, sig)| (Arc::clone(q), sig))
        .unzip()
}

/// Algorithm 4 around one `W_0`, with everything that does not depend on
/// α computed once.
struct Draws<'a> {
    w0: &'a Workload,
    fresh: &'a [Arc<Query>],
    sigs: Vec<QuerySignature>,
    anchor: Box<dyn AnchoredDistance + 'a>,
    /// `0..fresh.len()`, restored after every partial shuffle.
    order: Vec<usize>,
    subset: Vec<usize>,
}

impl<'a> Draws<'a> {
    fn new<D: WorkloadDistance>(
        metric: &'a D,
        w0: &'a Workload,
        fresh: &'a [Arc<Query>],
        sigs: Vec<QuerySignature>,
    ) -> Self {
        Self {
            w0,
            fresh,
            sigs,
            anchor: metric.anchored(w0, fresh),
            order: (0..fresh.len()).collect(),
            subset: Vec::new(),
        }
    }

    fn sample_at(
        &mut self,
        rng: &mut ChaCha8Rng,
        shape: Shape,
        alpha: f64,
    ) -> Result<Workload, SampleError> {
        if self.w0.is_empty() {
            return Err(SampleError::EmptyWorkload);
        }
        if alpha <= 0.0 {
            return Ok(self.w0.clone());
        }
        if self.fresh.is_empty() {
            return Err(SampleError::PoolExhausted {
                requested: alpha,
                best_observed: 0.0,
            });
        }

        let mut best_beta = 0.0f64;
        let n = self.w0.total_weight();
        let max_k = shape.max_k.min(self.fresh.len());
        let preferred = shape.preferred_k.min(max_k).max(1);
        let ks = std::iter::once(preferred).chain((1..=max_k).filter(|&k| k != preferred));
        // Fallback with 1 ≤ c < MIN_COPIES (coarse quantization), used only
        // if no subset allows an accurate copy count.
        const MIN_COPIES: f64 = 4.0;
        let mut coarse: Option<(Vec<usize>, f64)> = None;
        for k in ks {
            for _ in 0..shape.tries_per_k {
                self.draw_subset(rng, k);
                // Guard against signature collisions shrinking the set.
                if self.has_colliding_signatures() {
                    continue;
                }
                let beta = self.anchor.distance_to(&self.subset);
                best_beta = best_beta.max(beta);
                if beta > alpha {
                    let lambda = (alpha / beta).sqrt();
                    let c = (n * lambda / (k as f64 * (1.0 - lambda))).floor();
                    if c < 1.0 {
                        // α too small for this k (the integer copy count
                        // floors to zero); a smaller k gives a larger c,
                        // so keep trying.
                        continue;
                    }
                    if c < MIN_COPIES {
                        // Flooring would undershoot α badly; remember as a
                        // fallback but prefer a finer-grained k.
                        if coarse.is_none() {
                            coarse = Some((self.subset.clone(), c));
                        }
                        continue;
                    }
                    return Ok(self.mix(&self.subset, c));
                }
            }
        }
        if let Some((subset, c)) = coarse {
            return Ok(self.mix(&subset, c));
        }
        if best_beta > alpha {
            // Every subset that cleared α floored to zero copies: the
            // perturbation is below the integer-copy resolution; W0 itself
            // is the only point that close.
            return Ok(self.w0.clone());
        }
        Err(SampleError::PoolExhausted {
            requested: alpha,
            best_observed: best_beta,
        })
    }

    /// `W_0 ⊎ c · Q` for the fresh queries at `subset`.
    fn mix(&self, subset: &[usize], c: f64) -> Workload {
        let mut w1 = self.w0.clone();
        for &i in subset {
            w1.add(Arc::clone(&self.fresh[i]), c);
        }
        w1
    }

    /// A partial Fisher–Yates shuffle of `0..fresh.len()` into `subset`:
    /// the same RNG draws, and the same subset, as shuffling a fresh
    /// index vector, without rebuilding one per draw.
    fn draw_subset(&mut self, rng: &mut ChaCha8Rng, k: usize) {
        self.subset.clear();
        for i in 0..k {
            let j = rng.random_range(i..self.order.len());
            self.order.swap(i, j);
            // Remember j to undo the swap below.
            self.subset.push(j);
        }
        for i in (0..k).rev() {
            let j = std::mem::replace(&mut self.subset[i], self.order[i]);
            self.order.swap(i, j);
        }
    }

    /// Whether two drawn queries share a signature (a workload built from
    /// them would merge them into one entry).
    fn has_colliding_signatures(&self) -> bool {
        let sigs = &self.sigs;
        self.subset
            .iter()
            .enumerate()
            .any(|(a, &i)| self.subset[..a].iter().any(|&j| sigs[i] == sigs[j]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::{DeltaEuclidean, DeltaSeparate};
    use cliffguard_workload::{PredOp, Query, QueryBuilder, TableId};
    use proptest::prelude::*;

    /// The sampler before anchoring, kept as the reference the anchored one
    /// must match draw for draw: it rebuilds the fresh pool per call and
    /// builds `Q` as a workload for a full `distance` call per draw.
    fn reference_sample_at<D: WorkloadDistance>(
        s: &mut NeighborhoodSampler<D>,
        w0: &Workload,
        alpha: f64,
    ) -> Result<Workload, SampleError> {
        if w0.is_empty() {
            return Err(SampleError::EmptyWorkload);
        }
        if alpha <= 0.0 {
            return Ok(w0.clone());
        }
        let fresh: Vec<Arc<Query>> = s
            .pool
            .iter()
            .filter(|q| w0.weight_of(q) == 0.0)
            .cloned()
            .collect();
        if fresh.is_empty() {
            return Err(SampleError::PoolExhausted {
                requested: alpha,
                best_observed: 0.0,
            });
        }
        let mut best_beta = 0.0f64;
        let max_k = s.shape.max_k.min(fresh.len());
        let preferred = s.shape.preferred_k.min(max_k).max(1);
        let ks = std::iter::once(preferred).chain((1..=max_k).filter(|&k| k != preferred));
        const MIN_COPIES: f64 = 4.0;
        let mut coarse: Option<(Vec<Arc<Query>>, f64)> = None;
        for k in ks {
            for _ in 0..s.shape.tries_per_k {
                let q_set = reference_draw_subset(s, &fresh, k);
                let q_workload = Workload::from_queries(q_set.iter().map(|q| ((**q).clone(), 1.0)));
                if q_workload.len() != k {
                    continue;
                }
                let beta = s.metric.distance(w0, &q_workload);
                best_beta = best_beta.max(beta);
                if beta > alpha {
                    let lambda = (alpha / beta).sqrt();
                    let n = w0.total_weight();
                    let c = (n * lambda / (k as f64 * (1.0 - lambda))).floor();
                    if c < 1.0 {
                        continue;
                    }
                    if c < MIN_COPIES {
                        coarse.get_or_insert((q_set, c));
                        continue;
                    }
                    let mut w1 = w0.clone();
                    for q in &q_set {
                        w1.add(Arc::clone(q), c);
                    }
                    return Ok(w1);
                }
            }
        }
        if let Some((q_set, c)) = coarse {
            let mut w1 = w0.clone();
            for q in &q_set {
                w1.add(Arc::clone(q), c);
            }
            return Ok(w1);
        }
        if best_beta > alpha {
            return Ok(w0.clone());
        }
        Err(SampleError::PoolExhausted {
            requested: alpha,
            best_observed: best_beta,
        })
    }

    fn reference_draw_subset<D>(
        s: &mut NeighborhoodSampler<D>,
        fresh: &[Arc<Query>],
        k: usize,
    ) -> Vec<Arc<Query>> {
        let mut idx: Vec<usize> = (0..fresh.len()).collect();
        for i in 0..k {
            let j = s.rng.random_range(i..idx.len());
            idx.swap(i, j);
        }
        idx[..k].iter().map(|&i| Arc::clone(&fresh[i])).collect()
    }

    fn reference_sample_neighborhood<D: WorkloadDistance>(
        s: &mut NeighborhoodSampler<D>,
        w0: &Workload,
        gamma: f64,
        count: usize,
    ) -> Vec<Workload> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let alpha = s.rng.random::<f64>() * gamma;
            if let Ok(w) = reference_sample_at(s, w0, alpha) {
                out.push(w);
            }
        }
        out
    }

    /// A workload as its entries: query allocation and weight bits.
    fn entries(w: &Workload) -> Vec<(*const Query, u64)> {
        w.iter()
            .map(|(q, wt)| (Arc::as_ptr(q), wt.to_bits()))
            .collect()
    }

    /// A sample outcome with every float as its bit pattern.
    fn outcome(r: &Result<Workload, SampleError>) -> Result<Vec<(*const Query, u64)>, String> {
        match r {
            Ok(w) => Ok(entries(w)),
            Err(SampleError::PoolExhausted {
                requested,
                best_observed,
            }) => Err(format!(
                "exhausted {:x} {:x}",
                requested.to_bits(),
                best_observed.to_bits()
            )),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Runs `sample_neighborhood` and then `sample_at` at each α on two
    /// samplers seeded alike, one anchored and one the reference, and
    /// asserts identical outcomes and RNG positions after every call.
    fn assert_matches_reference<D: WorkloadDistance + Copy>(
        metric: D,
        w0: &Workload,
        pool: &[Arc<Query>],
        seed: u64,
        gamma: f64,
        alphas: &[f64],
    ) {
        let mut anchored = NeighborhoodSampler::new(metric, pool.to_vec(), seed);
        let mut reference = NeighborhoodSampler::new(metric, pool.to_vec(), seed);
        let got = anchored.sample_neighborhood(w0, gamma, 6);
        let want = reference_sample_neighborhood(&mut reference, w0, gamma, 6);
        assert_eq!(
            got.iter().map(entries).collect::<Vec<_>>(),
            want.iter().map(entries).collect::<Vec<_>>()
        );
        assert_eq!(
            anchored.rng_words_consumed(),
            reference.rng_words_consumed()
        );
        for &alpha in alphas {
            assert_eq!(
                outcome(&anchored.sample_at(w0, alpha)),
                outcome(&reference_sample_at(&mut reference, w0, alpha)),
                "alpha {alpha}"
            );
            assert_eq!(
                anchored.rng_words_consumed(),
                reference.rng_words_consumed()
            );
        }
    }

    const N: usize = 32;

    fn q(sel: &[u32]) -> Query {
        QueryBuilder::new(TableId(0)).select(sel).build()
    }

    fn base_workload() -> Workload {
        Workload::from_queries([(q(&[1, 2]), 40.0), (q(&[2, 3]), 30.0), (q(&[4]), 30.0)])
    }

    fn pool() -> Vec<Arc<Query>> {
        (5..30u32)
            .map(|i| Arc::new(q(&[i, i + 1, (i * 7) % 30])))
            .collect()
    }

    #[test]
    fn sampled_distance_close_to_target_and_bounded() {
        let metric = DeltaEuclidean::new(N);
        let mut s = NeighborhoodSampler::new(metric, pool(), 7);
        let w0 = base_workload();
        for alpha in [0.0005, 0.002, 0.01] {
            let w1 = s.sample_at(&w0, alpha).unwrap();
            let d = metric.distance(&w0, &w1);
            assert!(d <= alpha * 1.0001, "overshoot: {d} > {alpha}");
            assert!(d >= alpha * 0.5, "undershoot: {d} < half of {alpha}");
        }
    }

    #[test]
    fn zero_alpha_returns_w0() {
        let metric = DeltaEuclidean::new(N);
        let mut s = NeighborhoodSampler::new(metric, pool(), 7);
        let w0 = base_workload();
        let w1 = s.sample_at(&w0, 0.0).unwrap();
        assert_eq!(metric.distance(&w0, &w1), 0.0);
        assert_eq!(w1.len(), w0.len());
    }

    #[test]
    fn neighborhood_within_gamma() {
        let metric = DeltaEuclidean::new(N);
        let mut s = NeighborhoodSampler::new(metric, pool(), 13);
        let w0 = base_workload();
        let gamma = 0.005;
        let samples = s.sample_neighborhood(&w0, gamma, 20);
        assert!(!samples.is_empty());
        for w in &samples {
            assert!(metric.distance(&w0, w) <= gamma * 1.0001);
        }
    }

    #[test]
    fn sampled_workload_contains_original() {
        // Per Algorithm 4, W1 ⊇ W0 (queries are only added).
        let metric = DeltaEuclidean::new(N);
        let mut s = NeighborhoodSampler::new(metric, pool(), 3);
        let w0 = base_workload();
        let w1 = s.sample_at(&w0, 0.003).unwrap();
        for (query, wt) in w0.iter() {
            assert!(w1.weight_of(query) >= wt);
        }
        assert!(w1.total_weight() > w0.total_weight());
    }

    #[test]
    fn empty_workload_rejected() {
        let metric = DeltaEuclidean::new(N);
        let mut s = NeighborhoodSampler::new(metric, pool(), 3);
        assert!(matches!(
            s.sample_at(&Workload::new(), 0.1),
            Err(SampleError::EmptyWorkload)
        ));
    }

    #[test]
    fn exhausted_pool_reported() {
        let metric = DeltaEuclidean::new(N);
        // Pool = exactly W0's queries → nothing fresh to mix in.
        let w0 = base_workload();
        let own: Vec<Arc<Query>> = w0.queries().cloned().collect();
        let mut s = NeighborhoodSampler::new(metric, own, 3);
        match s.sample_at(&w0, 0.01) {
            Err(SampleError::PoolExhausted { .. }) => {}
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_alpha_reported() {
        let metric = DeltaEuclidean::new(N);
        let mut s = NeighborhoodSampler::new(metric, pool(), 3);
        let w0 = base_workload();
        // α = 0.9 is far beyond what this pool can produce (β ≲ 0.1).
        match s.sample_at(&w0, 0.9) {
            Err(SampleError::PoolExhausted { best_observed, .. }) => {
                assert!(best_observed < 0.9);
            }
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let metric = DeltaEuclidean::new(N);
        let w0 = base_workload();
        let mut s1 = NeighborhoodSampler::new(metric, pool(), 99);
        let mut s2 = NeighborhoodSampler::new(metric, pool(), 99);
        let a = s1.sample_neighborhood(&w0, 0.004, 5);
        let b = s2.sample_neighborhood(&w0, 0.004, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(metric.distance(x, y), 0.0);
        }
    }

    /// Queries over few columns, so keys repeat across W0 and the pool, and
    /// predicates whose selectivity alone tells signatures apart.
    fn small_query(sel: &[u32], filt: u32, sel_step: u32) -> Query {
        QueryBuilder::new(TableId(0))
            .select(sel)
            .filter(filt, PredOp::Eq, 0.01 * sel_step as f64)
            .build()
    }

    fn arb_small_query() -> impl Strategy<Value = Query> {
        (proptest::collection::vec(0..7u32, 1..4), 0..7u32, 1..4u32)
            .prop_map(|(sel, filt, step)| small_query(&sel, filt, step))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn anchored_sampler_matches_the_reference(
            w0_queries in proptest::collection::vec((arb_small_query(), 1u32..30), 1..6),
            pool_queries in proptest::collection::vec(arb_small_query(), 0..12),
            repeats in proptest::collection::vec(0usize..64, 0..4),
            seed in 0u64..1000,
            gamma in 0.0f64..0.4,
            scale in 0u32..3,
            separate in 0u32..2,
        ) {
            // Weight scales from fractional (coarse or zero copy counts)
            // to large (fine copy counts).
            let scale = [0.05, 1.0, 20.0][scale as usize];
            let w0 = Workload::from_queries(
                w0_queries.iter().map(|(q, wt)| (q.clone(), *wt as f64 * scale)),
            );
            let mut pool: Vec<Arc<Query>> = pool_queries.into_iter().map(Arc::new).collect();
            // Duplicate-signature entries: the same allocation again, and a
            // copy that differs only in its SQL text.
            for r in repeats {
                if let Some(q) = pool.get(r % pool.len().max(1)).cloned() {
                    let mut twin = (*q).clone();
                    twin.raw_sql = Some(format!("-- twin {r}"));
                    pool.push(q);
                    pool.push(Arc::new(twin));
                }
            }
            // Some of W0's own queries, which the fresh filter must drop.
            pool.extend(w0.queries().take(2).cloned());
            let alphas = [gamma * 0.3, gamma, 0.0, 0.6];
            if separate == 1 {
                assert_matches_reference(DeltaSeparate::new(N), &w0, &pool, seed, gamma, &alphas);
            } else {
                assert_matches_reference(DeltaEuclidean::new(N), &w0, &pool, seed, gamma, &alphas);
            }
        }
    }

    #[test]
    fn anchored_sampler_matches_the_reference_on_each_branch() {
        let metric = DeltaEuclidean::new(N);
        // Fine copy counts.
        assert_matches_reference(metric, &base_workload(), &pool(), 5, 0.01, &[0.004, 0.02]);
        // A light W0 floors copy counts below MIN_COPIES: the coarse
        // fallback answers.
        let light = Workload::from_queries([(q(&[1, 2]), 3.0), (q(&[2, 3]), 3.0)]);
        let mut s = NeighborhoodSampler::new(metric, pool(), 5);
        let w1 = s.sample_at(&light, 0.01).unwrap();
        let added: Vec<f64> = w1
            .iter()
            .filter(|(query, _)| light.weight_of(query) == 0.0)
            .map(|(_, wt)| wt)
            .collect();
        assert!(!added.is_empty() && added.iter().all(|&c| (1.0..4.0).contains(&c)));
        assert_matches_reference(metric, &light, &pool(), 5, 0.01, &[0.01, 0.001]);
        // A thin pool cannot reach α: PoolExhausted with its best β.
        let thin = vec![Arc::new(q(&[1, 3]))];
        let mut s = NeighborhoodSampler::new(metric, thin.clone(), 5);
        assert!(matches!(
            s.sample_at(&base_workload(), 0.5),
            Err(SampleError::PoolExhausted { best_observed, .. }) if best_observed > 0.0
        ));
        assert_matches_reference(metric, &base_workload(), &thin, 5, 0.5, &[0.5, 1e-6]);
        // A pool of signature twins: every multi-query draw collides.
        let a = Arc::new(q(&[7, 8]));
        let mut twin = (*a).clone();
        twin.raw_sql = Some("SELECT c7, c8 FROM t".into());
        let twins = vec![Arc::clone(&a), Arc::new(twin), a];
        assert_matches_reference(metric, &base_workload(), &twins, 5, 0.01, &[0.002, 0.01]);
    }

    #[test]
    fn sampling_around_a_huge_pool_finishes() {
        // 20 000 distinct candidates: a pool-squared f64 matrix would take
        // 3.2 GB, so this only finishes if the sampler's memory stays
        // bounded by W0's keys and the keys actually drawn.
        let pool: Vec<Arc<Query>> = (0..20_000u32)
            .map(|i| {
                let cols = [i % 61, 61 + (i / 61) % 61, 122 + i % 7];
                Arc::new(
                    QueryBuilder::new(TableId(0))
                        .select(&cols)
                        .filter(i % 13, PredOp::Eq, (1 + i) as f64 * 1e-5)
                        .build(),
                )
            })
            .collect();
        let metric = DeltaEuclidean::new(160);
        let mut s = NeighborhoodSampler::new(metric, pool, 17);
        let w0 = base_workload();
        let samples = s.sample_neighborhood(&w0, 0.01, 20);
        assert_eq!(samples.len(), 20);
        for w in &samples {
            assert!(metric.distance(&w0, w) <= 0.01 * 1.0001);
        }
    }
}
