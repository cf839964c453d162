//! Advisor-as-a-service: the multi-tenant `cliffguard serve` daemon.
//!
//! The paper frames CliffGuard as a tool a DBA runs by hand; this crate
//! turns it into a long-running service a fleet of tenants can share.
//! Requests arrive as newline-delimited JSON — over stdin/stdout or a
//! TCP socket, all first-party code — and each `design` request runs a
//! full resilient [`DesignSession`](cliffguard_core::DesignSession) on a
//! shared worker pool:
//!
//! * **Protocol** ([`protocol`]): seven verbs (`design`, `ingest`,
//!   `status`, `metrics`, `dump`, `drain`, `shutdown`), total parsing
//!   (malformed frames get `error` responses, never a panic), bit-exact
//!   float transport. `metrics` takes `"format":"prometheus"` for text
//!   exposition, and a fresh TCP connection may scrape with a raw
//!   `GET /metrics` request line.
//! * **Streaming ingest** ([`ingest`]): per-tenant `ingest` frames feed
//!   raw query-log bytes through a chunk-boundary-oblivious
//!   [`LogStream`](cliffguard_workload::LogStream) into an online
//!   drift-triggered advisor; each frame is answered synchronously with
//!   the windows it closed, and with a state directory the session
//!   snapshot persists after every frame, so a killed daemon resumes the
//!   stream with a **byte-identical** trigger history.
//! * **Flight recorder**: each session tees its trace events into a
//!   bounded ring; degraded and panicked sessions leave a
//!   `flight-<tenant>-<seq>.jsonl` black box in the state directory,
//!   served by the `dump` verb.
//! * **Admission control** ([`daemon`]): a bounded in-flight queue;
//!   overflow is rejected with a reason, deterministically — queue slots
//!   change only at admissions and drain barriers, both tape-driven.
//! * **Durability** ([`store`]): every admitted request and its descent
//!   checkpoints persist under `--state-dir`; a killed daemon restarted
//!   on the same directory finishes each pending session with a final
//!   design and audit trail **bit-identical** to an uninterrupted run.
//! * **Scheduling** ([`scheduler`]): a panic-isolating worker pool whose
//!   interleaving is unobservable in the output stream.
//! * **Accounting** ([`tenant`]): per-tenant session stats, surfaced via
//!   `status`/`metrics` and as labeled telemetry series.
//! * **Testing** ([`harness`]): a first-class deterministic harness —
//!   virtual clock, scripted request tape, byte-comparable output.
//!
//! See DESIGN.md §12 for the protocol grammar and determinism contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod harness;
pub mod ingest;
pub mod protocol;
pub mod runner;
pub mod scheduler;
pub mod store;
pub mod tenant;
pub mod testdata;

pub use daemon::{Daemon, ServeConfig};
pub use harness::{design_line, HarnessError, ServeHarness};
pub use ingest::IngestSession;
pub use protocol::{
    parse_request, BudgetSpec, DesignReport, DesignRequest, DesignStatus, FlightInfo, GammaSpec,
    IngestRequest, MetricsFormat, ProtocolError, Request, Response,
};
pub use runner::{run_design, DesignInputs, DesignRun, RunOutcome, RunnerOptions};
pub use scheduler::WorkerPool;
pub use store::{CheckpointStore, PendingSession};
pub use tenant::{TenantRegistry, TenantStats};
