//! Workload modeling for the CliffGuard robust physical-design framework.
//!
//! This crate is the foundation of the reproduction of *CliffGuard: A
//! Principled Framework for Finding Robust Database Designs* (SIGMOD 2015).
//! It provides everything the paper needs to talk about "a workload":
//!
//! * [`ColumnSet`] — compact bitsets over the catalog's global column ids,
//!   the representation the paper uses for queries when computing workload
//!   distances (Section 5).
//! * [`Query`] / [`Predicate`] — the structural query model: per-clause
//!   column sets, predicates with selectivities, joins, and aggregation.
//! * [`parser`] — a small recursive-descent SQL `SELECT` parser that turns
//!   query text into [`Query`] values against a user-supplied
//!   [`NameResolver`] (the paper used Stephen Tu's SQL parser for the same
//!   purpose).
//! * [`Template`] — the clause-column-set query templates used by the
//!   paper's Figure 5 drift analysis.
//! * [`Workload`] — a weighted multiset of queries with normalized
//!   frequencies, unions, and template histograms.
//! * [`WorkloadInterner`] — dense [`QueryId`]s deduplicating structurally
//!   identical queries across a family of workloads (the target plus its
//!   Γ-neighborhood samples), turning cost evaluation into dot products.
//! * [`QueryLog`] — a timestamped query trace, split into the fixed-size
//!   windows (7/14/21/28 days) the evaluation section uses.
//! * [`LogStream`] — chunked streaming ingest of the same text-log format,
//!   chunking-invariant and allocation-amortized, feeding the online
//!   drift advisor in `cliffguard-core`.
//! * [`LogTape`] — seeded log fixtures with scripted drift episodes, the
//!   ground truth the streaming test harness replays.
//! * [`generator`] — seeded generative models for the paper's three
//!   workloads: the drifting real-world trace **R1** (simulated; the
//!   original Vertica customer trace is proprietary), the near-static
//!   **S1**, and the uniformly-drifting **S2**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod colset;
mod ids;
mod interner;
mod log;
mod query;
mod resolve;
mod template;
mod workload;

pub mod generator;
pub mod logio;
pub mod parser;
pub mod stream;
pub mod tape;

pub use colset::ColumnSet;
pub use ids::{ColumnId, TableId};
pub use interner::{InternedWorkload, QueryId, WorkloadInterner};
pub use log::{window_secs, LogEntry, QueryLog, SECS_PER_DAY};
pub use query::{PredOp, Predicate, Query, QueryBuilder, QuerySignature};
pub use resolve::{NameResolver, SimpleResolver};
pub use stream::{LogStream, StreamStats};
pub use tape::{LogTape, LogTapeConfig};
pub use template::{Template, TemplateId};
pub use workload::{query_pool, WeightedQuery, Workload};
