//! Resilience primitives for CliffGuard design sessions.
//!
//! CliffGuard (Algorithm 2) treats the nominal designer as a *black box*,
//! and the paper's own deployment target — Vertica's Database Designer —
//! is an unreliable one: slow, occasionally failing, sometimes returning
//! designs that violate the storage budget. A robust-*design* system must
//! therefore itself be robust as a *system*: it retries transient
//! failures, bounds how long it will wait, degrades to the best design it
//! has instead of crashing, and can resume a killed session.
//!
//! This crate provides the reusable half of that machinery; the session
//! runtime that applies it to the descent lives in `cliffguard-core`:
//!
//! * [`SessionClock`] — a virtual (or real) millisecond clock, so backoff
//!   and deadline logic runs in microseconds under test.
//! * [`FaultPlan`] / [`FaultKind`] — deterministic, seeded fault
//!   injection, configurable from the `CLIFFGUARD_FAULTS` environment
//!   variable. The decision "does call N fault, and how?" is a pure
//!   function of `(plan, N)`, so injected faults are identical across
//!   runs, thread counts, and checkpoint resumes.
//! * [`FaultyDesigner`] — a wrapper applying a plan to any nominal
//!   designer; [`session_designer`] picks it or the plain designer for a
//!   session.
//! * [`RetryPolicy`] — capped exponential backoff plus per-call and
//!   per-session deadlines.
//! * [`DegradedReason`] — how a session reports that it finished on a
//!   fallback path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod degrade;
mod fault;
mod faulty;
mod retry;

pub use clock::SessionClock;
pub use degrade::DegradedReason;
pub use fault::{FaultKind, FaultPlan, FaultSpecError};
pub use faulty::{session_designer, FaultyDesigner};
pub use retry::RetryPolicy;

/// The environment variable holding a [`FaultPlan`] spec.
pub const FAULTS_ENV: &str = "CLIFFGUARD_FAULTS";
