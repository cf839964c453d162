//! CliffGuard — a principled framework for finding robust database
//! designs.
//!
//! This is the facade crate of a from-scratch Rust reproduction of
//! *CliffGuard: A Principled Framework for Finding Robust Database
//! Designs* (Mozafari, Goh & Yoon, SIGMOD 2015). It re-exports the whole
//! workspace under one roof:
//!
//! * [`workload`] — queries, column sets, SQL parsing, templates, logs,
//!   and the drifting R1/S1/S2 workload generators.
//! * [`distance`] — the δ workload metrics and the Γ-neighborhood sampler.
//! * [`storage`] — catalog, statistics, and cost constants.
//! * [`sim`] — the columnar (projection) and row-store (index + view)
//!   engine simulators.
//! * [`designer`] — the nominal designers CliffGuard wraps.
//! * [`robust`] — the replica crash masks behind failure-aware replicated
//!   designs.
//! * [`core`] — CliffGuard itself (Algorithms 2–3), the baselines, and the
//!   windowed evaluation harness.
//! * [`parallel`] — the deterministic thread fan-out that designs the
//!   evaluation windows in parallel (`--threads` / `CLIFFGUARD_THREADS`).
//! * [`resilience`] — the fault-injected, deadline-aware session runtime:
//!   seeded fault plans (`CLIFFGUARD_FAULTS`), retry/backoff policies on a
//!   virtual clock, and graceful degradation.
//! * [`serve`] — the multi-tenant advisor-as-a-service daemon behind
//!   `cliffguard serve`: an NDJSON protocol, bounded admission, durable
//!   checkpointed sessions, and a deterministic serve-test harness.
//! * [`telemetry`] — first-party structured tracing (JSONL spans/events)
//!   and a metrics registry (counters, gauges, quantile histograms),
//!   disabled by default and wired through every layer above.
//!
//! # Quickstart
//!
//! ```
//! use cliffguard::prelude::*;
//!
//! // A catalog and engine over a small synthetic schema.
//! let shape = SchemaShape::new(vec![8, 4]);
//! let catalog = CatalogGenerator::default().generate(&shape);
//! let engine = ColumnarEngine::new(catalog);
//!
//! // A workload of one selective query.
//! let q = QueryBuilder::new(TableId(0))
//!     .select(&[1, 2])
//!     .filter(3, PredOp::Eq, 0.001)
//!     .build();
//! let w0 = Workload::from_queries([(q, 100.0)]);
//!
//! // Wrap the nominal designer in CliffGuard and ask for a robust design.
//! let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
//! let metric = DeltaEuclidean::new(12);
//! let cg = CliffGuard::new(&engine, &nominal, metric, CliffGuardConfig::new(0.005));
//! let (design, trace) = cg.design(&w0, 1 << 33, &[]);
//! assert!(trace.designer_calls >= 1);
//! assert!(design.price_bytes(engine.catalog()) <= 1 << 33);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cliffguard_core as core;
pub use cliffguard_designer as designer;
pub use cliffguard_distance as distance;
pub use cliffguard_parallel as parallel;
pub use cliffguard_resilience as resilience;
pub use cliffguard_robust as robust;
pub use cliffguard_serve as serve;
pub use cliffguard_sim as sim;
pub use cliffguard_storage as storage;
pub use cliffguard_telemetry as telemetry;
pub use cliffguard_workload as workload;

pub mod cli;
pub mod trace_analysis;
pub mod trace_schema;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use cliffguard_core::adaptive::AdaptiveIndexingStrategy;
    pub use cliffguard_core::baselines::{
        CliffGuardStrategy, DesignStrategy, ExistingDesigner, FutureKnowingDesigner,
        MajorityVoteDesigner, NoDesign, OptimalLocalSearchDesigner, WindowCtx,
    };
    pub use cliffguard_core::evaluate::{evaluate_strategy, EvalOptions, EvalSummary};
    pub use cliffguard_core::gamma::{consecutive_deltas, DeltaStats, GammaPolicy};
    pub use cliffguard_core::replica::MAX_REPLICAS;
    pub use cliffguard_core::{
        design_replicated, move_workload, AdvisorSnapshot, CliffGuard, CliffGuardConfig,
        ConfigError, DescentCheckpoint, DesignSession, EngineExt, FailoverEvent, OnlineAdvisor,
        OnlineAdvisorConfig, ReplicaAudit, ReplicaError, ReplicaOptions, ReplicaOutcome,
        ReplicatedDesign, ResumeError, SessionEnd, SessionOptions, WindowAudit, WindowPolicy,
        DEFAULT_INTERN_CAPACITY,
    };
    pub use cliffguard_designer::{
        BenefitMatrix, CandidateGen, ColumnarCandidates, DesignerFault, FallibleDesigner,
        GreedyDesigner, IlpSelector, NominalDesigner, Reliable, RowCandidates,
    };
    pub use cliffguard_distance::{
        AnchoredDistance, ClauseMask, DeltaEuclidean, DeltaLatency, DeltaSeparate,
        NeighborhoodSampler, WorkloadDistance,
    };
    pub use cliffguard_parallel::{current_threads, set_threads};
    pub use cliffguard_resilience::{
        session_designer, DegradedReason, FaultCounts, FaultKind, FaultPlan, FaultSpecError,
        FaultyDesigner, RetryPolicy, SessionClock, FAULTS_ENV,
    };
    pub use cliffguard_sim::{
        ColumnarDesign, ColumnarEngine, CostKernel, DesignEpoch, Engine, Index, KernelStats,
        MatView, PhysicalDesign, PlanningEngine, Projection, RowDesign, RowEngine, RowStructure,
    };
    pub use cliffguard_storage::{Catalog, CatalogGenerator, ColumnDef, ColumnStats, TableDef};
    pub use cliffguard_telemetry::{
        install, render_prometheus, FlightRecorder, Level, MetricsRegistry, MetricsSnapshot,
        TelemetryConfig, TelemetryGuard, TraceClock, TraceSink, LOG_ENV,
    };
    pub use cliffguard_workload::generator::{
        DriftingGenerator, GeneratorConfig, SchemaShape, WorkloadProfile,
    };
    pub use cliffguard_workload::{
        parser::parse_query, query_pool, ColumnId, ColumnSet, InternedWorkload, LogStream, LogTape,
        LogTapeConfig, PredOp, Query, QueryBuilder, QueryId, QueryLog, StreamStats, TableId,
        Workload, WorkloadInterner,
    };
}
