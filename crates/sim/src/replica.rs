//! Query routing across a fleet of divergent replica designs.
//!
//! A replicated deployment keeps R copies of the data, each under a
//! *different* physical design, and routes every query to the replica
//! whose design serves it cheapest (the RITA idea). [`QueryRouter`] is
//! that routing layer over the dense cost kernel: it holds one
//! [`DesignEpoch`] latency vector per replica and answers per-query
//! argmin lookups in O(R) — or O(1) against the precomputed full-fleet
//! route table.
//!
//! Determinism contract (the replicated analogue of the kernel's):
//!
//! * **Tie-break**: the argmin scans replicas in ascending index with a
//!   strict `<` comparison, so exact latency ties always route to the
//!   lowest replica index. Routing is a pure function of the epochs —
//!   bit-identical at any thread count.
//! * **Degenerate fleet**: with one replica, no crashes, and unit scale
//!   factors, [`routed_workload_cost`](QueryRouter::routed_workload_cost)
//!   performs *exactly* the fold of
//!   [`CostKernel::workload_cost`](crate::CostKernel::workload_cost) —
//!   same entry order, same operations — so the replicated objective
//!   reduces bit-for-bit to the uniform one.
//! * **Failure masks**: a mask (bit `i` set = replica `i` crashed)
//!   reroutes each query to the argmin *surviving* replica, at that
//!   replica's own (scaled) latency.

use crate::engine::WorkloadCost;
use crate::kernel::DesignEpoch;
use cliffguard_workload::{InternedWorkload, QueryId};
use std::sync::Arc;

/// Routes interned queries to their argmin replica over per-replica
/// [`DesignEpoch`] latency vectors.
#[derive(Debug, Clone)]
pub struct QueryRouter {
    epochs: Vec<Arc<DesignEpoch>>,
    /// Per-replica latency scale (1.0 = healthy; >1 = degraded/slow).
    scales: Vec<f64>,
    /// Precomputed full-fleet (mask 0) route: query id → replica index.
    routes: Vec<u32>,
}

impl QueryRouter {
    /// Builds a router over one epoch per replica, all healthy.
    ///
    /// # Panics
    ///
    /// If `epochs` is empty or the latency vectors disagree in length
    /// (epochs must come from the same [`CostKernel`](crate::CostKernel)).
    pub fn new(epochs: Vec<Arc<DesignEpoch>>) -> Self {
        let scales = vec![1.0; epochs.len()];
        Self::with_scales(epochs, scales)
    }

    /// Builds a router with an explicit per-replica latency scale factor
    /// (`1.0` = healthy; a slow replica gets a factor `> 1.0`, which the
    /// argmin then routes around).
    ///
    /// # Panics
    ///
    /// If `epochs` is empty, `scales.len() != epochs.len()`, or the
    /// epochs' latency vectors disagree in length.
    pub fn with_scales(epochs: Vec<Arc<DesignEpoch>>, scales: Vec<f64>) -> Self {
        assert!(!epochs.is_empty(), "a router needs at least one replica");
        assert_eq!(scales.len(), epochs.len(), "one scale per replica");
        let n = epochs[0].latencies().len();
        for e in &epochs[1..] {
            assert_eq!(
                e.latencies().len(),
                n,
                "replica epochs must come from the same kernel"
            );
        }
        let mut router = Self {
            epochs,
            scales,
            routes: Vec::new(),
        };
        router.routes = (0..n)
            .map(|q| router.argmin(q, 0).expect("mask 0 always has survivors") as u32)
            .collect();
        router
    }

    /// The number of replicas in the fleet.
    pub fn replicas(&self) -> usize {
        self.epochs.len()
    }

    /// The number of distinct interned queries the route table covers.
    pub fn query_count(&self) -> usize {
        self.routes.len()
    }

    /// The scaled latency of query `q` on `replica`. A scale of exactly
    /// `1.0` returns the epoch latency bit-for-bit (no multiplication).
    #[inline]
    fn scaled(&self, replica: usize, q: usize) -> f64 {
        let l = self.epochs[replica].latencies()[q];
        let s = self.scales[replica];
        if s == 1.0 {
            l
        } else {
            l * s
        }
    }

    /// Argmin surviving replica for raw query index `q` under `mask`
    /// (ascending scan, strict `<`: ties go to the lowest index).
    #[inline]
    fn argmin(&self, q: usize, mask: u32) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for r in 0..self.epochs.len() {
            if mask & (1u32 << r) != 0 {
                continue;
            }
            let l = self.scaled(r, q);
            match best {
                Some((_, b)) if l >= b => {}
                _ => best = Some((r, l)),
            }
        }
        best.map(|(r, _)| r)
    }

    /// The full-fleet (no crashes) route for `id`: an O(1) table lookup.
    #[inline]
    pub fn route(&self, id: QueryId) -> usize {
        self.routes[id.index()] as usize
    }

    /// The route for `id` when the replicas in `mask` are crashed, or
    /// `None` if the mask kills the whole fleet. Mask `0` takes the O(1)
    /// table path.
    #[inline]
    pub fn route_masked(&self, id: QueryId, mask: u32) -> Option<usize> {
        if mask == 0 {
            Some(self.route(id))
        } else {
            self.argmin(id.index(), mask)
        }
    }

    /// The routed latency of `id` under `mask`.
    #[inline]
    pub fn routed_latency_ms(&self, id: QueryId, mask: u32) -> Option<f64> {
        let r = self.route_masked(id, mask)?;
        Some(self.scaled(r, id.index()))
    }

    /// The cost of `w` with every query served by its argmin surviving
    /// replica under `mask`. Returns `None` when the mask crashes the
    /// entire fleet.
    ///
    /// The fold mirrors [`CostKernel::workload_cost`](crate::CostKernel::workload_cost)
    /// operation-for-operation in entry order, so with one replica, mask
    /// `0` and unit scales the result is bit-identical to the
    /// unreplicated kernel cost.
    pub fn routed_workload_cost(&self, w: &InternedWorkload, mask: u32) -> Option<WorkloadCost> {
        if (0..self.epochs.len()).all(|r| mask & (1u32 << r) != 0) {
            return None;
        }
        let mut total = 0.0;
        let mut max: f64 = 0.0;
        let mut weight = 0.0;
        let ids = w.ids();
        let wts = w.weights();
        if mask == 0 {
            // Healthy-fleet fast path: a branch-free pass over the flat
            // id/weight slices and the precomputed route table — same
            // operations in the same entry order as the general path, so
            // the numbers are bit-identical.
            for (&id, &wt) in ids.iter().zip(wts) {
                let q = id as usize;
                let l = self.scaled(self.routes[q] as usize, q);
                total += l * wt;
                weight += wt;
                max = max.max(l);
            }
        } else {
            for (&id, &wt) in ids.iter().zip(wts) {
                let l = self.routed_latency_ms(QueryId(id), mask)?;
                total += l * wt;
                weight += wt;
                max = max.max(l);
            }
        }
        Some(WorkloadCost {
            avg_ms: total / weight,
            max_ms: max,
            total_ms: total,
        })
    }

    /// The fraction of `w`'s total weight routed to each replica under
    /// `mask` (crashed replicas get `0.0`). Empty workloads yield all
    /// zeros. Returns `None` when the mask kills the fleet.
    pub fn routing_shares(&self, w: &InternedWorkload, mask: u32) -> Option<Vec<f64>> {
        let mut routed = vec![0.0f64; self.epochs.len()];
        let mut weight = 0.0f64;
        for &(id, wt) in w.entries() {
            let r = self.route_masked(id, mask)?;
            routed[r] += wt;
            weight += wt;
        }
        if weight > 0.0 {
            for share in &mut routed {
                *share /= weight;
            }
        }
        Some(routed)
    }

    /// The per-replica epoch fingerprints, in replica order.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.fingerprint()).collect()
    }
}

/// Order-insensitive combination of per-replica design fingerprints — the
/// *set* fingerprint of a replicated design. Permuting the replicas never
/// changes it; the same bit-mix-and-sum scheme as the per-design
/// structure-set fingerprint, so collision behavior matches.
pub fn combine_fingerprints(fingerprints: impl Iterator<Item = u64>) -> u64 {
    crate::engine::combine_structure_hashes(fingerprints)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(fp: u64, lat: &[f64]) -> Arc<DesignEpoch> {
        Arc::new(DesignEpoch::from_parts(fp, lat.to_vec()))
    }

    #[test]
    fn ties_route_to_the_lowest_replica_index() {
        let r = QueryRouter::new(vec![epoch(1, &[5.0, 3.0]), epoch(2, &[5.0, 2.0])]);
        assert_eq!(r.route(QueryId(0)), 0, "exact tie → lowest index");
        assert_eq!(r.route(QueryId(1)), 1);
    }

    #[test]
    fn masked_routing_falls_over_to_survivors() {
        let r = QueryRouter::new(vec![epoch(1, &[1.0, 9.0]), epoch(2, &[9.0, 1.0])]);
        assert_eq!(r.route_masked(QueryId(0), 0b01), Some(1));
        assert_eq!(r.route_masked(QueryId(0), 0b10), Some(0));
        assert_eq!(r.route_masked(QueryId(0), 0b11), None, "fleet dead");
    }

    #[test]
    fn slow_scale_routes_around_the_degraded_replica() {
        let fast_on_0 = vec![epoch(1, &[1.0]), epoch(2, &[1.5])];
        let r = QueryRouter::with_scales(fast_on_0, vec![4.0, 1.0]);
        assert_eq!(r.route(QueryId(0)), 1, "scaled 4.0 > 1.5 → replica 1");
    }

    #[test]
    fn unit_inflation_is_bit_exact() {
        let r = QueryRouter::new(vec![epoch(1, &[3.5])]);
        let l = r.routed_latency_ms(QueryId(0), 0).unwrap();
        assert_eq!(l.to_bits(), 3.5f64.to_bits());
        let slow = QueryRouter::with_scales(vec![epoch(1, &[3.5])], vec![1.5]);
        let inflated = slow.routed_latency_ms(QueryId(0), 0).unwrap();
        assert_eq!(inflated.to_bits(), (3.5f64 * 1.5).to_bits());
    }

    #[test]
    fn set_fingerprint_is_order_insensitive() {
        let a = combine_fingerprints([1u64, 2, 3].into_iter());
        let b = combine_fingerprints([3u64, 1, 2].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, combine_fingerprints([1u64, 2].into_iter()));
    }
}
