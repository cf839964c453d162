//! Database simulators for CliffGuard: a projection-based columnar engine
//! ("Vertica-like") and a row-store engine with indexes and materialized
//! views ("DBMS-X-like").
//!
//! The paper evaluates CliffGuard against two commercial systems it treats
//! as black boxes. This crate provides those black boxes as *analytical
//! simulators*: given a [`cliffguard_workload::Query`] and a physical
//! design, each engine's cost-based optimizer picks the cheapest access
//! path and returns a model latency in milliseconds. No bytes are stored;
//! everything derives from [`cliffguard_storage::Catalog`] statistics and
//! [`cliffguard_storage::CostConstants`].
//!
//! The models deliberately preserve the mechanism that makes nominal
//! designs brittle (Section 1):
//!
//! * **Columnar** ([`ColumnarEngine`]): a [`Projection`] only helps a query
//!   whose referenced columns it *covers*; its sorted prefix prunes the
//!   scan when predicate columns match, and sorted columns RLE-compress.
//!   Anything uncovered falls back to the super-projection — a full scan of
//!   the referenced columns with no pruning. That fallback *is* the cliff.
//! * **Row store** ([`RowEngine`]): B-tree [`Index`]es accelerate matching
//!   predicate prefixes (at random-I/O cost per fetched row unless
//!   covering); [`MatView`]s answer matching aggregates from pre-aggregated
//!   data. Benefits are real but smaller than columnar pruning, matching
//!   the paper's smaller DBMS-X margins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod columnar;
mod engine;
mod kernel;
mod replica;
mod row;

pub mod ddl;

pub use columnar::{
    ColumnarDesign, ColumnarEngine, ColumnarExplain, ColumnarPlan, Projection, TableAccess,
};
pub use engine::{table_mask_bit, Engine, PhysicalDesign, PlanningEngine, WorkloadCost};
pub use kernel::{CostKernel, DesignEpoch, KernelStats};
pub use replica::{combine_fingerprints, QueryRouter};
pub use row::{Index, MatView, RowDesign, RowEngine, RowPath, RowPlan, RowStructure};
