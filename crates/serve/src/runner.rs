//! Runs one [`DesignRequest`]: the one code path from a catalog, a query
//! log and the design settings to a robust design and, when R > 1, a
//! replica fleet.
//!
//! The daemon runs it once per request, `cliffguard design` is a front
//! end over it, and the end-to-end tests run it one-shot to compare its
//! designs bit for bit against what the daemon serves. The pipeline:
//! decode the catalog → import the log → window → resolve the budget and
//! Γ → build the historical pool → run (or resume) the resilient session
//! → the fleet step.
//!
//! Determinism: a session runs on the clock its caller passes in
//! [`RunnerOptions::clock`]. Sessions never share a clock — a shared
//! clock would let one tenant's backoff stalls advance another tenant's
//! deadlines, making output depend on scheduling order.

use crate::protocol::{DesignReport, DesignRequest, GammaSpec};
use cliffguard_core::gamma::{consecutive_deltas, GammaPolicy};
use cliffguard_core::replica::MAX_REPLICAS;
use cliffguard_core::{
    design_replicated, CliffGuardConfig, CliffGuardTrace, DescentCheckpoint, DesignSession,
    ReplicaOptions, ReplicaOutcome, SessionEnd, SessionOptions,
};
use cliffguard_designer::{ColumnarCandidates, GreedyDesigner};
use cliffguard_distance::DeltaEuclidean;
use cliffguard_resilience::{session_designer, FaultPlan, RetryPolicy, SessionClock};
use cliffguard_sim::{ddl, ColumnarDesign, ColumnarEngine, Engine, PhysicalDesign};
use cliffguard_storage::Catalog;
use cliffguard_workload::logio::{import_log, ImportReport};
use cliffguard_workload::{query_pool, Workload};
use serde::Deserialize;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// The caller's knobs for one run: the daemon's, or the CLI's clock.
#[derive(Debug, Clone, Default)]
pub struct RunnerOptions {
    /// The session's clock: backoffs, deadlines, injected stalls and the
    /// flight recorder run on it. Give every session its own (see the
    /// module docs); the default is a fresh virtual clock.
    pub clock: SessionClock,
    /// Default per-session deadline (ms), when the request carries none.
    pub tenant_deadline_ms: Option<u64>,
    /// Checkpoint-observer cadence (0/1 = every iteration).
    pub checkpoint_every: usize,
    /// Daemon-wide kill switch: raised → sessions checkpoint and stop.
    pub stop: Option<Arc<AtomicBool>>,
    /// Abort each session before this 0-based iteration (the harness's
    /// kill simulation; `None` in production).
    pub abort_after_iterations: Option<usize>,
    /// The session's flight recorder: installed on the running thread
    /// for the duration of the session and bound to the session's clock,
    /// so its retained lines are byte-identical across reruns and worker
    /// counts in virtual-time mode. `None` skips recording entirely.
    pub recorder: Option<Arc<cliffguard_telemetry::FlightRecorder>>,
}

/// How one request's session ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The session finished (possibly degraded — see its trace).
    Done(Box<DesignRun>),
    /// The session was interrupted (daemon stopping); the checkpoint JSON
    /// resumes it bit-identically.
    Interrupted(String),
    /// The request's inputs were unusable; nothing ran.
    Rejected(String),
}

/// A request's inputs, decoded and checked: what the design step and the
/// fleet step read.
#[derive(Debug)]
pub struct DesignInputs {
    /// The cost model over the request's catalog.
    pub engine: ColumnarEngine,
    /// What importing the log parsed and skipped.
    pub import: ImportReport,
    /// The storage budget, resolved (bytes).
    pub budget_bytes: u64,
    /// The request's fault plan, if it names one.
    pub faults: Option<FaultPlan>,
    // The log split into windows; the last one, `W0`, is not empty.
    windows: Vec<Workload>,
    // Replica fleet size R, in `1..=MAX_REPLICAS`, and the crash budget k.
    replicas: usize,
    max_failures: usize,
}

impl DesignInputs {
    /// Decodes and checks a request's inputs; `Err` is the reason the
    /// request is rejected.
    pub fn new(req: &DesignRequest) -> Result<Self, String> {
        let mut catalog =
            Catalog::from_value(&req.catalog).map_err(|e| format!("bad catalog: {e}"))?;
        catalog.rebuild_index();
        let (log, import) = import_log(&req.log, &catalog);
        if log.is_empty() {
            return Err(format!(
                "no parseable queries in the log ({} unparseable, {} malformed)",
                import.skipped_sql, import.skipped_malformed
            ));
        }
        if !(1..=MAX_REPLICAS as u64).contains(&req.replicas) {
            return Err(format!(
                "replicas must be in 1..={MAX_REPLICAS}, got {}",
                req.replicas
            ));
        }
        let windows = log.windows_days(req.window_days);
        match windows.last() {
            None => return Err("log has no windows".into()),
            Some(w0) if w0.is_empty() => return Err("the last window is empty".into()),
            Some(_) => {}
        }
        let faults = match &req.faults {
            Some(spec) => Some(
                FaultPlan::from_spec(spec).map_err(|e| format!("bad fault spec `{spec}`: {e}"))?,
            ),
            None => None,
        };
        Ok(Self {
            budget_bytes: req.budget.bytes(&catalog),
            engine: ColumnarEngine::new(catalog),
            windows,
            import,
            faults,
            replicas: req.replicas as usize,
            max_failures: req.max_failures as usize,
        })
    }

    /// `W0`, the window the design is for.
    pub fn w0(&self) -> &Workload {
        self.windows
            .last()
            .expect("DesignInputs::new keeps a last window")
    }

    /// The nominal designer the session wraps.
    pub fn nominal(&self) -> GreedyDesigner<'_, ColumnarEngine, ColumnarCandidates> {
        GreedyDesigner::new(&self.engine, ColumnarCandidates, "DBD")
    }

    /// The failure-aware fleet step, `None` when R = 1: `base` seeds a
    /// fleet of R divergent replicas, scored over the drift windows ×
    /// crash masks. Replica faults in the plan fire by round index; a
    /// crash mid-run fails over to the best surviving routing instead of
    /// erroring out.
    pub fn fleet(
        &self,
        base: &ColumnarDesign,
    ) -> Result<Option<ReplicaOutcome<ColumnarDesign>>, String> {
        if self.replicas == 1 {
            return Ok(None);
        }
        let opts = ReplicaOptions {
            replicas: self.replicas,
            max_failures: self.max_failures,
            faults: self.faults.clone(),
            ..ReplicaOptions::default()
        };
        let nominal = self.nominal();
        design_replicated(
            &self.engine,
            &nominal,
            base,
            &self.windows,
            self.budget_bytes,
            &opts,
        )
        .map(Some)
        .map_err(|e| format!("bad replica setup: {e}"))
    }
}

/// A finished session and, when R > 1, its replica fleet.
#[derive(Debug)]
pub struct DesignRun {
    /// The request's decoded inputs.
    pub inputs: DesignInputs,
    /// The Γ the session ran with (resolved if the request said `auto`).
    pub gamma: f64,
    /// Distinct historical queries in the sampler's pool.
    pub pool_size: usize,
    /// The robust design.
    pub design: ColumnarDesign,
    /// The session trace, with its resilience counters.
    pub trace: CliffGuardTrace,
    /// The replica fleet, when R > 1.
    pub fleet: Option<ReplicaOutcome<ColumnarDesign>>,
}

impl DesignRun {
    /// The audited report the daemon answers with.
    pub fn report(&self) -> DesignReport {
        let catalog = self.inputs.engine.catalog();
        DesignReport {
            fingerprint: self.design.fingerprint(),
            structures: self.design.len(),
            price_bytes: self.design.price_bytes(catalog),
            gamma: self.gamma,
            budget_bytes: self.inputs.budget_bytes,
            designer_calls: self.trace.designer_calls,
            retries: self.trace.retries,
            faults: self.trace.faults,
            degraded: self.trace.degraded.clone(),
            worst_case_bits: self
                .trace
                .worst_case_per_iter
                .iter()
                .map(|x| x.to_bits())
                .collect(),
            ddl: ddl::columnar_script(&self.design, catalog),
            replicas: self.inputs.replicas as u64,
            replica_set_fingerprint: self
                .fleet
                .as_ref()
                .map_or(0, |f| f.design.set_fingerprint()),
            replica_audit: self.fleet.as_ref().map(|f| f.audit.to_json()),
        }
    }
}

/// Runs (or, given `checkpoint_json`, resumes) the design session for one
/// request, then its fleet step. `observer` receives each per-iteration
/// checkpoint rendered as JSON, at the configured cadence — the daemon
/// persists these.
///
/// A checkpoint that does not match the request's inputs (fingerprint or
/// sampler drift) is discarded and the session runs fresh: the fresh run
/// produces the same final design, just without the saved progress.
pub fn run_design(
    req: &DesignRequest,
    opts: &RunnerOptions,
    checkpoint_json: Option<&str>,
    observer: &mut dyn FnMut(&str),
) -> RunOutcome {
    let inputs = match DesignInputs::new(req) {
        Ok(inputs) => inputs,
        Err(reason) => return RunOutcome::Rejected(reason),
    };
    let (w0, history) = inputs
        .windows
        .split_last()
        .expect("DesignInputs::new keeps a last window");
    let budget_bytes = inputs.budget_bytes;
    let metric = DeltaEuclidean::new(inputs.engine.catalog().column_count());
    let gamma = match req.gamma {
        GammaSpec::Fixed(g) => g,
        GammaSpec::Auto => {
            GammaPolicy::KMaxPastDeltas(1.5).resolve(&consecutive_deltas(&metric, &inputs.windows))
        }
    };
    // The last four history windows, newest first.
    let pool = query_pool(history.iter().rev().take(4));

    let mut retry = RetryPolicy::default();
    if let Some(n) = req.max_retries {
        retry.max_retries = n;
    }
    if let Some(ms) = req.designer_deadline_ms {
        retry = retry.with_designer_deadline_ms(ms);
    }
    if let Some(ms) = req.deadline_ms.or(opts.tenant_deadline_ms) {
        retry = retry.with_session_deadline_ms(ms);
    }
    let clock = &opts.clock;
    // The recorder rides the session's own clock (virtual in the daemon's
    // deterministic mode) and captures every event this thread emits from
    // here to the end of the run — the session's black box.
    let _flight_guard = opts.recorder.as_ref().map(|rec| {
        let c = clock.clone();
        rec.set_clock(Arc::new(move || c.now_ms()));
        cliffguard_telemetry::record_on_thread(rec)
    });
    let options = SessionOptions {
        retry,
        clock: clock.clone(),
        stop: opts.stop.clone(),
        checkpoint_every: opts.checkpoint_every.max(1),
        abort_after_iterations: opts.abort_after_iterations,
    };
    let config = CliffGuardConfig::new(gamma).with_seed(req.seed);

    let end = {
        let nominal = inputs.nominal();
        let designer = session_designer(&nominal, inputs.faults.as_ref(), clock);
        let session = match DesignSession::new(&inputs.engine, designer, metric, config, options) {
            Ok(s) => s,
            Err(e) => return RunOutcome::Rejected(format!("bad configuration: {e}")),
        };
        let mut obs = |c: &DescentCheckpoint<ColumnarDesign>| observer(&c.to_json());
        match checkpoint_json.and_then(|j| DescentCheckpoint::<ColumnarDesign>::from_json(j).ok()) {
            Some(ckpt) => {
                match session.resume_with_observer(w0, budget_bytes, &pool, &ckpt, &mut obs) {
                    Ok(end) => end,
                    // Stale/mismatched checkpoint: a fresh run is
                    // bit-identical to the uninterrupted one anyway.
                    Err(_) => session.run_with_observer(w0, budget_bytes, &pool, &mut obs),
                }
            }
            None => session.run_with_observer(w0, budget_bytes, &pool, &mut obs),
        }
    };
    let (design, trace) = match end {
        SessionEnd::Interrupted(ckpt) => return RunOutcome::Interrupted(ckpt.to_json()),
        SessionEnd::Finished { design, trace } => (design, trace),
    };
    let fleet = match inputs.fleet(&design) {
        Ok(fleet) => fleet,
        Err(reason) => return RunOutcome::Rejected(reason),
    };
    RunOutcome::Done(Box::new(DesignRun {
        pool_size: pool.len(),
        inputs,
        gamma,
        design,
        trace,
        fleet,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;

    #[test]
    fn one_shot_run_produces_a_design() {
        let req = testdata::design_request("t0", 7);
        let mut n_ckpts = 0usize;
        let out = run_design(&req, &RunnerOptions::default(), None, &mut |_| n_ckpts += 1);
        let RunOutcome::Done(run) = out else {
            panic!("expected Done, got {out:?}");
        };
        let report = run.report();
        assert!(report.structures > 0, "tiny workload must yield structures");
        assert!(report.price_bytes <= report.budget_bytes);
        assert!(!report.worst_case_bits.is_empty());
        assert!(!report.ddl.is_empty());
        assert!(n_ckpts > 0, "observer must see per-iteration checkpoints");
    }

    #[test]
    fn reruns_are_bit_identical() {
        let req = testdata::design_request("t0", 7);
        let a = run_design(&req, &RunnerOptions::default(), None, &mut |_| {});
        let b = run_design(&req, &RunnerOptions::default(), None, &mut |_| {});
        match (a, b) {
            (RunOutcome::Done(a), RunOutcome::Done(b)) => assert_eq!(a.report(), b.report()),
            other => panic!("expected two Done outcomes, got {other:?}"),
        }
    }

    #[test]
    fn replicated_requests_carry_an_audit_and_survive_a_crash_fault() {
        let mut req = testdata::design_request("t0", 7);
        req.replicas = 3;
        req.max_failures = 1;
        req.faults = Some("replica-crash@1:1".into());
        let RunOutcome::Done(run) = run_design(&req, &RunnerOptions::default(), None, &mut |_| {})
        else {
            panic!("replicated run must finish");
        };
        let report = run.report();
        assert_eq!(report.replicas, 3);
        assert_ne!(report.replica_set_fingerprint, 0);
        let audit = report.replica_audit.as_deref().expect("audit present");
        assert!(audit.contains("\"crashed_mask\":2"), "{audit}");
        assert!(audit.contains("\"kind\":\"replica-crash\""), "{audit}");
        // Byte-identical rerun (the acceptance criterion's audit check).
        let RunOutcome::Done(again) =
            run_design(&req, &RunnerOptions::default(), None, &mut |_| {})
        else {
            panic!("rerun must finish");
        };
        assert_eq!(again.report(), report);
    }

    #[test]
    fn oversized_fleets_are_rejected_up_front() {
        let mut req = testdata::design_request("t0", 7);
        req.replicas = 64;
        let out = run_design(&req, &RunnerOptions::default(), None, &mut |_| {});
        assert!(matches!(out, RunOutcome::Rejected(_)), "{out:?}");
    }

    #[test]
    fn bad_inputs_are_rejected_not_paniced() {
        let mut req = testdata::design_request("t0", 7);
        req.log = "garbage that is not TSV".into();
        let out = run_design(&req, &RunnerOptions::default(), None, &mut |_| {});
        assert!(matches!(out, RunOutcome::Rejected(_)), "{out:?}");
    }

    #[test]
    fn interrupt_then_resume_matches_uninterrupted() {
        let req = testdata::design_request("t0", 7);
        let RunOutcome::Done(full) = run_design(&req, &RunnerOptions::default(), None, &mut |_| {})
        else {
            panic!("uninterrupted run must finish");
        };
        let killed = RunnerOptions {
            abort_after_iterations: Some(1),
            ..RunnerOptions::default()
        };
        let RunOutcome::Interrupted(ckpt) = run_design(&req, &killed, None, &mut |_| {}) else {
            panic!("abort_after_iterations(1) must interrupt");
        };
        let RunOutcome::Done(resumed) =
            run_design(&req, &RunnerOptions::default(), Some(&ckpt), &mut |_| {})
        else {
            panic!("resume must finish");
        };
        assert_eq!(
            resumed.report(),
            full.report(),
            "resumed session must be bit-identical"
        );
    }
}
