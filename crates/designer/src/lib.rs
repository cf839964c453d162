//! Nominal physical designers — the "existing designer" black boxes that
//! CliffGuard wraps.
//!
//! The paper's design principle (Section 2) is that CliffGuard *does not
//! replace* the DBMS's own designer: it treats it as a black box invoked
//! through its public API. This crate provides those black boxes for the
//! two simulated engines:
//!
//! * [`GreedyDesigner`] — the workhorse: per-query candidate generation
//!   ([`CandidateGen`]) followed by greedy benefit/price selection under a
//!   storage budget, the strategy of Vertica's DBD and most commercial
//!   advisors ("existing designers often use heuristics or greedy
//!   strategies" — the paper's footnote 4).
//! * [`IlpSelector`] — an exact branch-and-bound selection over a candidate
//!   set, used by the paper's `OptimalLocalSearchDesigner` baseline ("this
//!   algorithm then solves an Integer Linear Program…").
//! * [`ColumnarCandidates`] / [`RowCandidates`] — engine-specific candidate
//!   enumeration (projections; indexes and materialized views).
//!
//! Like real advisors, the greedy search evaluates candidates under the
//! *atomic configuration* approximation (each query is served by its single
//! best structure); final designs are always re-costed by the true engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod candidates;
mod greedy;
mod ilp;
mod traits;

pub use candidates::{ColumnarCandidates, RowCandidates};
pub use greedy::{BenefitMatrix, GreedyDesigner};
pub use ilp::IlpSelector;
pub use traits::{CandidateGen, DesignerFault, FallibleDesigner, NominalDesigner, Reliable};
