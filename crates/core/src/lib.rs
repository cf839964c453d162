//! CliffGuard: the robust physical-design meta-algorithm, its baselines,
//! and the paper's windowed evaluation harness.
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`CliffGuard`] — Algorithm 2: wraps any nominal designer and iterates
//!   *neighborhood exploration* (worst perturbed workloads under the
//!   current design) and *robust local moves* (re-invoking the designer on
//!   a weighted mixture of the original workload and its worst-neighbors,
//!   Algorithm 3) with backtracking step-size control
//!   (`λ_success`/`λ_failure`), until a robust design is reached.
//! * [`baselines`] — every competitor of Section 6.1: `NoDesign`,
//!   `ExistingDesigner`, `FutureKnowingDesigner`, `MajorityVoteDesigner`,
//!   `OptimalLocalSearchDesigner`.
//! * [`evaluate`] — the experimental protocol: divide a trace into 4-week
//!   windows, design at the end of each window, measure the next window's
//!   average and maximum latency, keep only queries a physical design can
//!   help (≥3× improvable), and average over windows.
//! * [`gamma`] — the Γ-selection heuristics the paper suggests (average,
//!   max, or `k×max` of past inter-window distances).
//! * [`online`] — the streaming drift advisor: sliding workload windows
//!   over a query-log stream, incremental inter-window δ, and the
//!   Γ-threshold redesign trigger with hysteresis/cooldown.
//! * [`session`] — the fault-tolerant design-session runtime every
//!   descent runs in ([`CliffGuard::design`] included): retry/backoff,
//!   deadlines, output validation, graceful degradation, and
//!   checkpoint/resume against a *fallible* designer.
//! * [`replica`] — failure-aware divergent replica designs: a two-axis
//!   minimax (drift scenarios × replica-crash masks) over a fleet of
//!   per-replica designs with argmin query routing and fault-injected
//!   failover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cliffguard;
mod config;
mod engines;
mod move_workload;

pub mod adaptive;
pub mod baselines;
pub mod evaluate;
pub mod gamma;
pub mod online;
pub mod replica;
pub mod session;

pub use cliffguard::{CliffGuard, CliffGuardTrace};
pub use config::{CliffGuardConfig, ConfigError};
pub use engines::EngineExt;
pub use move_workload::move_workload;
pub use online::{
    AdvisorSnapshot, OnlineAdvisor, OnlineAdvisorConfig, WindowAudit, WindowPolicy,
    DEFAULT_INTERN_CAPACITY, MAX_WINDOW_CLOSES_PER_ARRIVAL,
};
pub use replica::{
    design_replicated, FailoverEvent, ReplicaAudit, ReplicaError, ReplicaOptions, ReplicaOutcome,
    ReplicatedDesign,
};
pub use session::{DescentCheckpoint, DesignSession, ResumeError, SessionEnd, SessionOptions};
