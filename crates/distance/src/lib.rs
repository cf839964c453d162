//! Workload distance metrics and Γ-neighborhood sampling for CliffGuard.
//!
//! Section 5 of the paper defines how users express robustness guarantees:
//! a distance `δ` over pairs of SQL workloads, so that "robust for any
//! future workload `W` as long as `δ(W0, W) ≤ Γ`". This crate implements:
//!
//! * [`DeltaEuclidean`] — the paper's Eq. (9): workloads as sparse vectors
//!   of normalized frequencies over column-set query representations, with
//!   the Hamming-similarity matrix `S`; configurable clause mask
//!   (`Euc-union (S)`, `(W)`, `(G)`, `(O)`, `(SWGO)` of Figure 11).
//! * [`DeltaSeparate`] — the `δ_separate` per-clause 4-tuple variant.
//! * [`DeltaLatency`] — the latency-aware `δ_latency` of Appendix C
//!   (Eqs. 11–12) with its `ω` penalty factor.
//! * [`NeighborhoodSampler`] — Appendix B / Algorithm 4: efficiently draws
//!   perturbed workloads at a requested distance from `W0`, the primitive
//!   behind CliffGuard's neighborhood exploration. Its draws evaluate δ
//!   through [`AnchoredDistance`], which computes `W0`'s side once.
//! * [`WindowVector`] / [`window_delta`] — per-window sparse vectors for
//!   streaming ingest, sealed once per closed window: bit-reproducible
//!   inter-window δ for the online drift trigger.
//!
//! The requirements R1–R4 the paper states for a usable metric (soundness,
//! intra-query similarity, symmetry, triangle property) are covered by this
//! crate's unit and property tests; soundness (R1) is additionally verified
//! empirically end-to-end by the Figure 6 experiment in `cliffguard-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchor;
mod euclidean;
mod latency_aware;
mod metric;
mod online;
mod sampler;
mod vector;

pub use euclidean::{DeltaEuclidean, DeltaSeparate};
pub use latency_aware::DeltaLatency;
pub use metric::{AnchoredDistance, ClauseMask, WorkloadDistance};
pub use online::{window_delta, WindowVector};
pub use sampler::{NeighborhoodSampler, SampleError};
pub use vector::{diff_support, ReprKey};
