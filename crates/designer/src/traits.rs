//! Designer abstractions.

use cliffguard_sim::Engine;
use cliffguard_workload::Workload;

/// A nominal designer `D(W, B)` — formulation (1) of the paper: given a
/// target workload and a storage budget, produce a design that (greedily /
/// approximately) minimizes `f(W, D)`.
pub trait NominalDesigner<E: Engine> {
    /// Produces a design for the workload within `budget_bytes`.
    fn design(&self, w: &Workload, budget_bytes: u64) -> E::Design;

    /// Designer name for reports.
    fn name(&self) -> String;
}

impl<E: Engine, D: NominalDesigner<E> + ?Sized> NominalDesigner<E> for &D {
    fn design(&self, w: &Workload, budget_bytes: u64) -> E::Design {
        (**self).design(w, budget_bytes)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

/// Why a designer invocation did not yield a usable design.
///
/// The paper treats the nominal designer as an unreliable black box (its
/// deployment target, Vertica's DBD, is "slow, occasionally failing").
/// This taxonomy is the error half of the fallible designer contract:
/// wrappers (fault injectors, RPC designers) *originate* `Unavailable`,
/// while the session runtime *derives* `TimedOut` from a deadline and
/// `OverBudget`/`EmptyDesign` from its output-validation gate. Every
/// variant is recoverable — the robust-design session retries, degrades,
/// or falls back rather than propagating these into the descent.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignerFault {
    /// The designer could not be reached or crashed mid-call.
    Unavailable(String),
    /// The call exceeded its per-call deadline.
    TimedOut {
        /// How long the call took (ms).
        elapsed_ms: u64,
        /// The deadline it blew (ms).
        deadline_ms: u64,
    },
    /// The returned design costs more storage than the budget allows.
    OverBudget {
        /// The design's storage price (bytes).
        price_bytes: u64,
        /// The budget it violates (bytes).
        budget_bytes: u64,
    },
    /// The designer returned an empty design for a non-empty workload.
    EmptyDesign,
}

impl std::fmt::Display for DesignerFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignerFault::Unavailable(why) => write!(f, "designer unavailable: {why}"),
            DesignerFault::TimedOut {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "designer call took {elapsed_ms}ms (deadline {deadline_ms}ms)"
            ),
            DesignerFault::OverBudget {
                price_bytes,
                budget_bytes,
            } => write!(
                f,
                "design overruns budget: {price_bytes} bytes > {budget_bytes} bytes"
            ),
            DesignerFault::EmptyDesign => {
                write!(f, "empty design returned for a non-empty workload")
            }
        }
    }
}

impl std::error::Error for DesignerFault {}

/// A designer whose invocations can fail.
///
/// This is the interface the resilient design-session runtime talks to:
/// anything that may be slow, flaky, or wrong implements it directly
/// (e.g. a fault injector), and every infallible [`NominalDesigner`]
/// gains it through the [`Reliable`] adapter.
pub trait FallibleDesigner<E: Engine> {
    /// Attempts one design call for `w` within `budget_bytes`.
    fn try_design(&self, w: &Workload, budget_bytes: u64) -> Result<E::Design, DesignerFault>;

    /// Designer name for reports.
    fn name(&self) -> String;

    /// Declares that `attempts` calls were already made in a previous
    /// incarnation of this designer (a checkpointed session resuming).
    /// Implementations with call-indexed internal state (fault injectors)
    /// realign themselves here; the default is a no-op.
    fn note_prior_attempts(&self, _attempts: u64) {}
}

impl<E: Engine, F: FallibleDesigner<E> + ?Sized> FallibleDesigner<E> for Box<F> {
    fn try_design(&self, w: &Workload, budget_bytes: u64) -> Result<E::Design, DesignerFault> {
        (**self).try_design(w, budget_bytes)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn note_prior_attempts(&self, attempts: u64) {
        (**self).note_prior_attempts(attempts)
    }
}

/// Adapter giving an infallible [`NominalDesigner`] the fallible
/// interface: every call succeeds.
///
/// Wrap by value or by reference (`Reliable(&designer)`), thanks to the
/// blanket `NominalDesigner` impl for references.
pub struct Reliable<D>(pub D);

impl<E: Engine, D: NominalDesigner<E>> FallibleDesigner<E> for Reliable<D> {
    fn try_design(&self, w: &Workload, budget_bytes: u64) -> Result<E::Design, DesignerFault> {
        Ok(self.0.design(w, budget_bytes))
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

/// Enumerates candidate structures for a workload on a given engine.
pub trait CandidateGen<E: Engine> {
    /// Candidate structures worth considering for `w` (deduplicated).
    fn candidates(
        &self,
        engine: &E,
        w: &Workload,
    ) -> Vec<<E::Design as cliffguard_sim::PhysicalDesign>::Structure>;
}
