//! The fault-injecting designer wrapper.

use crate::clock::SessionClock;
use crate::fault::{FaultKind, FaultPlan};
use cliffguard_designer::{DesignerFault, FallibleDesigner, NominalDesigner, Reliable};
use cliffguard_sim::Engine;
use cliffguard_workload::Workload;
use std::sync::Mutex;

/// Injected-fault counters, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// All faults injected.
    pub total: u64,
    /// Outright failures.
    pub fail: u64,
    /// Stalls (virtual latency).
    pub stall: u64,
    /// Over-budget designs returned.
    pub over_budget: u64,
    /// Empty designs returned.
    pub empty: u64,
    /// Stale designs returned.
    pub stale: u64,
    /// Replica crashes injected (consumed by the replica layer).
    pub replica_crash: u64,
    /// Replica slowdowns injected (consumed by the replica layer).
    pub replica_slow: u64,
    /// Panics injected (the worker-crash failure mode).
    pub panic: u64,
}

impl FaultCounts {
    fn record(&mut self, kind: FaultKind) {
        self.total += 1;
        match kind {
            FaultKind::Fail => self.fail += 1,
            FaultKind::Stall(_) => self.stall += 1,
            FaultKind::OverBudget => self.over_budget += 1,
            FaultKind::Empty => self.empty += 1,
            FaultKind::Stale => self.stale += 1,
            FaultKind::ReplicaCrash(_) => self.replica_crash += 1,
            FaultKind::ReplicaSlow(_) => self.replica_slow += 1,
            FaultKind::Panic => self.panic += 1,
        }
    }
}

struct FaultyState<D> {
    calls: u64,
    last_ok: Option<D>,
    injected: FaultCounts,
}

/// A [`FallibleDesigner`] that sabotages an inner [`NominalDesigner`]
/// according to a [`FaultPlan`].
///
/// Faults are decided purely by the (1-based) call index, so the same
/// plan produces the same misbehavior on every run. Stalls advance the
/// shared session clock; `OverBudget` re-invokes the inner designer with
/// an inflated budget; `Stale` replays the last *successful* design —
/// the cached answer for a previous workload, exactly the "designer
/// served me yesterday's design" failure mode.
pub struct FaultyDesigner<E: Engine, D> {
    inner: D,
    plan: FaultPlan,
    clock: SessionClock,
    state: Mutex<FaultyState<E::Design>>,
}

impl<E: Engine, D> FaultyDesigner<E, D> {
    /// Wraps `inner` with a fault plan on a session clock.
    pub fn new(inner: D, plan: FaultPlan, clock: SessionClock) -> Self {
        Self {
            inner,
            plan,
            clock,
            state: Mutex::new(FaultyState {
                calls: 0,
                last_ok: None,
                injected: FaultCounts::default(),
            }),
        }
    }

    /// Calls attempted so far.
    pub fn calls(&self) -> u64 {
        self.lock().calls
    }

    /// Faults injected so far, by kind.
    pub fn injected(&self) -> FaultCounts {
        self.lock().injected
    }

    /// Advances the call counter without invoking the designer, as if
    /// `attempts` calls had already been made.
    ///
    /// A resumed session uses this to re-align a fresh wrapper with the
    /// position an uninterrupted session would be at, so the remaining
    /// fault schedule matches. (The stale-design cache cannot be
    /// replayed: a `Stale` fault scheduled after the resume point falls
    /// back to `Fail` until a post-resume call succeeds.)
    pub fn fast_forward(&self, attempts: u64) {
        self.lock().calls = attempts;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultyState<E::Design>> {
        // A poisoned mutex means a *panicking* inner designer — the state
        // (counters + cache) is still coherent, so keep going rather than
        // propagate the panic into every later session.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<E, D> FallibleDesigner<E> for FaultyDesigner<E, D>
where
    E: Engine,
    D: NominalDesigner<E>,
{
    fn try_design(&self, w: &Workload, budget_bytes: u64) -> Result<E::Design, DesignerFault> {
        let mut st = self.lock();
        st.calls += 1;
        let call = st.calls;
        match self.plan.fault_for_call(call) {
            None => {
                let d = self.inner.design(w, budget_bytes);
                st.last_ok = Some(d.clone());
                Ok(d)
            }
            Some(kind @ FaultKind::Fail) => {
                st.injected.record(kind);
                Err(DesignerFault::Unavailable(format!(
                    "injected outage (call {call})"
                )))
            }
            Some(kind @ FaultKind::Stall(ms)) => {
                st.injected.record(kind);
                self.clock.advance_ms(ms);
                let d = self.inner.design(w, budget_bytes);
                st.last_ok = Some(d.clone());
                Ok(d)
            }
            Some(kind @ FaultKind::OverBudget) => {
                st.injected.record(kind);
                // Design as if the budget were 4x: with a candidate-rich
                // workload this overruns the real budget and must be
                // caught by the session's validation gate.
                Ok(self.inner.design(w, budget_bytes.saturating_mul(4)))
            }
            Some(kind @ FaultKind::Empty) => {
                st.injected.record(kind);
                Ok(E::Design::default())
            }
            Some(kind @ FaultKind::Stale) => {
                st.injected.record(kind);
                match st.last_ok.clone() {
                    Some(d) => Ok(d),
                    None => Err(DesignerFault::Unavailable(format!(
                        "injected stale response with no prior design (call {call})"
                    ))),
                }
            }
            // Replica faults target the *replicated-design layer*, not the
            // designer: the designer itself keeps working. Count the
            // injection and answer cleanly; the replica layer reads the
            // same plan by call index and applies the crash/slowdown.
            Some(kind @ (FaultKind::ReplicaCrash(_) | FaultKind::ReplicaSlow(_))) => {
                st.injected.record(kind);
                let d = self.inner.design(w, budget_bytes);
                st.last_ok = Some(d.clone());
                Ok(d)
            }
            // The worker-crash failure mode: the call unwinds instead of
            // returning. The counter is recorded (and the lock released)
            // first, so a catcher that inspects the wrapper afterwards
            // sees a coherent state. The fixed message keeps panic dumps
            // byte-deterministic.
            Some(kind @ FaultKind::Panic) => {
                st.injected.record(kind);
                drop(st);
                panic!("injected panic (call {call})");
            }
        }
    }

    fn name(&self) -> String {
        format!("Faulty({})", self.inner.name())
    }

    fn note_prior_attempts(&self, attempts: u64) {
        self.fast_forward(attempts);
    }
}

/// The designer a session runs: `inner` under `plan` when the plan
/// injects anything, else `inner` as it is. The two report different
/// names (`Faulty(…)` under a plan), so a trace shows which one ran.
pub fn session_designer<'a, E, D>(
    inner: D,
    plan: Option<&FaultPlan>,
    clock: &SessionClock,
) -> Box<dyn FallibleDesigner<E> + 'a>
where
    E: Engine + 'a,
    D: NominalDesigner<E> + 'a,
{
    match plan {
        Some(plan) if !plan.is_none() => {
            let faulty: FaultyDesigner<E, D> =
                FaultyDesigner::new(inner, plan.clone(), clock.clone());
            Box::new(faulty)
        }
        _ => Box::new(Reliable(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_sim::PhysicalDesign;
    use cliffguard_storage::{Catalog, CostConstants};
    use cliffguard_workload::{Query, QueryBuilder, TableId};

    /// Minimal engine/designer pair: 1 ms per selected column, designs
    /// are sets of column ids each pricing 100 bytes.
    struct ToyEngine {
        catalog: Catalog,
    }

    #[derive(Debug, Clone, Default, PartialEq)]
    struct ToyDesign(Vec<u32>);

    impl PhysicalDesign for ToyDesign {
        type Structure = u32;
        fn structures(&self) -> Vec<u32> {
            self.0.clone()
        }
        fn from_structures(s: Vec<u32>) -> Self {
            ToyDesign(s)
        }
        fn structure_price(_: &u32, _: &Catalog) -> u64 {
            100
        }
    }

    impl Engine for ToyEngine {
        type Design = ToyDesign;
        fn query_latency_ms(&self, q: &Query, _d: &ToyDesign) -> f64 {
            q.select.len() as f64
        }
        fn catalog(&self) -> &Catalog {
            &self.catalog
        }
        fn deployment_ms(&self, _d: &ToyDesign) -> f64 {
            CostConstants::default().build_ms(0.0)
        }
    }

    /// Designs one structure per selected column of the heaviest query,
    /// as many as the budget affords.
    struct ToyDesigner;

    impl NominalDesigner<ToyEngine> for ToyDesigner {
        fn design(&self, w: &Workload, budget_bytes: u64) -> ToyDesign {
            let afford = (budget_bytes / 100) as usize;
            let mut cols: Vec<u32> = w
                .iter()
                .flat_map(|(q, _)| q.select.iter().map(|c| c.0))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            cols.truncate(afford);
            ToyDesign(cols)
        }
        fn name(&self) -> String {
            "Toy".into()
        }
    }

    fn workload() -> Workload {
        Workload::from_queries([(
            QueryBuilder::new(TableId(0)).select(&[1, 2, 3]).build(),
            10.0,
        )])
    }

    #[test]
    fn faults_follow_the_plan() {
        let clock = SessionClock::virtual_clock();
        let plan = FaultPlan::none()
            .at(1, FaultKind::Fail)
            .at(2, FaultKind::Empty)
            .at(3, FaultKind::Stall(40))
            .at(4, FaultKind::OverBudget);
        let fd: FaultyDesigner<ToyEngine, _> =
            FaultyDesigner::new(ToyDesigner, plan, clock.clone());
        let w = workload();

        assert!(matches!(
            fd.try_design(&w, 300),
            Err(DesignerFault::Unavailable(_))
        ));
        assert_eq!(fd.try_design(&w, 300).unwrap(), ToyDesign::default());
        let stalled = fd.try_design(&w, 300).unwrap();
        assert_eq!(stalled.0.len(), 3);
        assert_eq!(clock.now_ms(), 40);
        // OverBudget inflates the budget: 2 affordable becomes more.
        let over = fd.try_design(&w, 200).unwrap();
        assert_eq!(over.0.len(), 3);
        // Clean call afterwards.
        let ok = fd.try_design(&w, 200).unwrap();
        assert_eq!(ok.0.len(), 2);
        let counts = fd.injected();
        assert_eq!(counts.total, 4);
        assert_eq!(counts.fail, 1);
        assert_eq!(counts.empty, 1);
        assert_eq!(counts.stall, 1);
        assert_eq!(counts.over_budget, 1);
        assert_eq!(fd.calls(), 5);
    }

    #[test]
    fn stale_replays_last_success_or_fails_cold() {
        let clock = SessionClock::virtual_clock();
        let plan = FaultPlan::none()
            .at(1, FaultKind::Stale)
            .at(3, FaultKind::Stale);
        let fd: FaultyDesigner<ToyEngine, _> = FaultyDesigner::new(ToyDesigner, plan, clock);
        let w = workload();
        // Call 1: stale with no history → fault.
        assert!(fd.try_design(&w, 300).is_err());
        // Call 2: clean, caches the design for `w`.
        let fresh = fd.try_design(&w, 300).unwrap();
        // Call 3: stale — replays call 2's design even for a different workload.
        let other =
            Workload::from_queries([(QueryBuilder::new(TableId(0)).select(&[7]).build(), 1.0)]);
        let stale = fd.try_design(&other, 300).unwrap();
        assert_eq!(stale, fresh);
        assert_eq!(fd.injected().stale, 2);
    }

    #[test]
    fn fast_forward_realigns_schedule() {
        let plan = FaultPlan::none().at(3, FaultKind::Fail);
        let clock = SessionClock::virtual_clock();
        let fd: FaultyDesigner<ToyEngine, _> = FaultyDesigner::new(ToyDesigner, plan, clock);
        fd.fast_forward(2);
        // The next call is call 3 → fails.
        assert!(fd.try_design(&workload(), 300).is_err());
    }
}
