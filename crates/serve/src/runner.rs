//! Executes one [`DesignRequest`] as a resilient
//! [`DesignSession`](cliffguard_core::DesignSession).
//!
//! This is the daemon's unit of work, factored out so the end-to-end
//! tests can run the *same* pipeline one-shot (no daemon, no scheduler)
//! and compare designs bit-for-bit against what the daemon serves. The
//! pipeline mirrors `cliffguard design`: parse catalog → import log →
//! window → resolve Γ and budget → build the historical pool → run (or
//! resume) the session.
//!
//! Determinism: in virtual-time mode every run builds a **fresh** virtual
//! clock. Sessions never share a clock — a shared clock would let one
//! tenant's backoff stalls advance another tenant's deadlines, making
//! output depend on scheduling order.

use crate::protocol::{BudgetSpec, DesignReport, DesignRequest, GammaSpec};
use cliffguard_core::gamma::{consecutive_deltas, GammaPolicy};
use cliffguard_core::replica::MAX_REPLICAS;
use cliffguard_core::{
    design_replicated, CliffGuardConfig, DescentCheckpoint, DesignSession, ReplicaOptions,
    SessionEnd, SessionOptions,
};
use cliffguard_designer::{ColumnarCandidates, GreedyDesigner, Reliable};
use cliffguard_distance::DeltaEuclidean;
use cliffguard_resilience::{FaultPlan, FaultyDesigner, RetryPolicy, SessionClock};
use cliffguard_sim::{ddl, ColumnarDesign, ColumnarEngine, Engine, PhysicalDesign};
use cliffguard_storage::Catalog;
use cliffguard_workload::{logio::import_log, Query};
use serde::Deserialize;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Daemon-level knobs applied to every session it runs.
#[derive(Debug, Clone, Default)]
pub struct RunnerOptions {
    /// Run each session on a fresh virtual clock (deterministic) instead
    /// of the system clock.
    pub virtual_time: bool,
    /// Default per-session deadline (ms), when the request carries none.
    pub tenant_deadline_ms: Option<u64>,
    /// Checkpoint-observer cadence (0/1 = every iteration).
    pub checkpoint_every: usize,
    /// Daemon-wide kill switch: raised → sessions checkpoint and stop.
    pub stop: Option<Arc<AtomicBool>>,
    /// Abort each session before this 0-based iteration (the harness's
    /// kill simulation; `None` in production).
    pub abort_after_iterations: Option<usize>,
    /// Fault-plan spec applied when the request carries none (the
    /// daemon's `CLIFFGUARD_FAULTS`, resolved once at startup).
    pub default_faults: Option<String>,
    /// The session's flight recorder: installed on the running thread
    /// for the duration of the session and bound to the session's clock,
    /// so its retained lines are byte-identical across reruns and worker
    /// counts in virtual-time mode. `None` skips recording entirely.
    pub recorder: Option<Arc<cliffguard_telemetry::FlightRecorder>>,
}

/// How one request's session ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The session finished (possibly degraded — see the report).
    Done(Box<DesignReport>),
    /// The session was interrupted (daemon stopping); the checkpoint JSON
    /// resumes it bit-identically.
    Interrupted(String),
    /// The request's inputs were unusable; nothing ran.
    Rejected(String),
}

/// Runs (or, given `checkpoint_json`, resumes) the design session for one
/// request. `observer` receives each per-iteration checkpoint rendered as
/// JSON, at the configured cadence — the daemon persists these.
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
    let mut catalog = match Catalog::from_value(&req.catalog) {
        Ok(c) => c,
        Err(e) => return RunOutcome::Rejected(format!("bad catalog: {e}")),
    };
    catalog.rebuild_index();
    let (log, report) = import_log(&req.log, &catalog);
    if log.is_empty() {
        return RunOutcome::Rejected(format!(
            "no parseable queries in the log ({} unparseable, {} malformed)",
            report.skipped_sql, report.skipped_malformed
        ));
    }
    if !(1..=MAX_REPLICAS as u64).contains(&req.replicas) {
        return RunOutcome::Rejected(format!(
            "replicas must be in 1..={MAX_REPLICAS}, got {}",
            req.replicas
        ));
    }
    let windows = log.windows_days(req.window_days);
    let Some((w0, history)) = windows.split_last() else {
        return RunOutcome::Rejected("log has no windows".into());
    };
    if w0.is_empty() {
        return RunOutcome::Rejected("the last window is empty".into());
    }
    let engine = ColumnarEngine::new(catalog);
    let budget_bytes = match req.budget {
        BudgetSpec::Bytes(b) => b,
        BudgetSpec::Auto => {
            let data: u64 = engine
                .catalog()
                .tables()
                .map(|t| engine.catalog().table(t).rows * engine.catalog().table(t).row_width())
                .sum();
            (data as f64 * 0.3) as u64
        }
    };
    let metric = DeltaEuclidean::new(engine.catalog().column_count());
    let gamma = match req.gamma {
        GammaSpec::Fixed(g) => g,
        GammaSpec::Auto => {
            GammaPolicy::KMaxPastDeltas(1.5).resolve(&consecutive_deltas(&metric, &windows))
        }
    };
    // Same pool policy as the CLI: the last four history windows, deduped
    // by structural signature.
    let mut pool: Vec<Arc<Query>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for w in history.iter().rev().take(4) {
        for q in w.queries() {
            if seen.insert(q.signature()) {
                pool.push(Arc::clone(q));
            }
        }
    }

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
    let clock = if opts.virtual_time {
        SessionClock::virtual_clock()
    } else {
        SessionClock::system()
    };
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
        ..SessionOptions::default()
    };
    let config = CliffGuardConfig::new(gamma).with_seed(req.seed);
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");

    let fault_spec = req.faults.as_deref().or(opts.default_faults.as_deref());
    let plan = match fault_spec {
        Some(spec) => match FaultPlan::from_spec(spec) {
            Ok(p) => Some(p),
            Err(e) => return RunOutcome::Rejected(format!("bad fault spec `{spec}`: {e}")),
        },
        None => None,
    };
    // The replica layer reads the same plan (its replica-crash /
    // replica-slow entries fire by round index there).
    let replica_plan = plan.clone();

    // The two designer arms differ only in the wrapper type, so the whole
    // run/resume/report tail is shared via this closure-shaped helper.
    macro_rules! run_with {
        ($designer:expr) => {{
            let session = match DesignSession::new(&engine, $designer, metric, config, options) {
                Ok(s) => s,
                Err(e) => return RunOutcome::Rejected(format!("bad configuration: {e}")),
            };
            let mut obs = |c: &DescentCheckpoint<ColumnarDesign>| observer(&c.to_json());
            let end = match checkpoint_json
                .and_then(|j| DescentCheckpoint::<ColumnarDesign>::from_json(j).ok())
            {
                Some(ckpt) => {
                    match session.resume_with_observer(w0, budget_bytes, &pool, &ckpt, &mut obs) {
                        Ok(end) => end,
                        // Stale/mismatched checkpoint: a fresh run is
                        // bit-identical to the uninterrupted one anyway.
                        Err(_) => session.run_with_observer(w0, budget_bytes, &pool, &mut obs),
                    }
                }
                None => session.run_with_observer(w0, budget_bytes, &pool, &mut obs),
            };
            match end {
                SessionEnd::Interrupted(ckpt) => RunOutcome::Interrupted(ckpt.to_json()),
                SessionEnd::Finished { design, trace } => {
                    // The failure-aware replica layer runs after the
                    // session: the session's robust design seeds a fleet
                    // of R divergent replicas, scored over drift windows ×
                    // crash masks. Replica faults in the same plan fire by
                    // round index; a crash mid-run fails over to the best
                    // surviving routing instead of erroring out.
                    let (replica_set_fingerprint, replica_audit) = if req.replicas > 1 {
                        let ropts = ReplicaOptions {
                            replicas: req.replicas as usize,
                            max_failures: req.max_failures as usize,
                            faults: replica_plan.clone(),
                            ..ReplicaOptions::default()
                        };
                        match design_replicated(
                            &engine,
                            &nominal,
                            &design,
                            &windows,
                            budget_bytes,
                            &ropts,
                        ) {
                            Ok(out) => (out.design.set_fingerprint(), Some(out.audit.to_json())),
                            Err(e) => {
                                return RunOutcome::Rejected(format!("bad replica setup: {e}"))
                            }
                        }
                    } else {
                        (0, None)
                    };
                    RunOutcome::Done(Box::new(DesignReport {
                        fingerprint: design.fingerprint(),
                        structures: design.len(),
                        price_bytes: design.price_bytes(engine.catalog()),
                        gamma,
                        budget_bytes,
                        designer_calls: trace.designer_calls,
                        retries: trace.retries,
                        faults: trace.faults,
                        degraded: trace.degraded.clone(),
                        worst_case_bits: trace
                            .worst_case_per_iter
                            .iter()
                            .map(|x| x.to_bits())
                            .collect(),
                        ddl: ddl::columnar_script(&design, engine.catalog()),
                        replicas: req.replicas,
                        replica_set_fingerprint,
                        replica_audit,
                    }))
                }
            }
        }};
    }

    match plan {
        Some(plan) if !plan.is_none() => {
            let injector: FaultyDesigner<ColumnarEngine, _> =
                FaultyDesigner::new(&nominal, plan, clock.clone());
            run_with!(injector)
        }
        _ => run_with!(Reliable(&nominal)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;

    #[test]
    fn one_shot_run_produces_a_design() {
        let req = testdata::design_request("t0", 7);
        let mut n_ckpts = 0usize;
        let out = run_design(
            &req,
            &RunnerOptions {
                virtual_time: true,
                ..RunnerOptions::default()
            },
            None,
            &mut |_| n_ckpts += 1,
        );
        let RunOutcome::Done(report) = out else {
            panic!("expected Done, got {out:?}");
        };
        assert!(report.structures > 0, "tiny workload must yield structures");
        assert!(report.price_bytes <= report.budget_bytes);
        assert!(!report.worst_case_bits.is_empty());
        assert!(!report.ddl.is_empty());
        assert!(n_ckpts > 0, "observer must see per-iteration checkpoints");
    }

    #[test]
    fn reruns_are_bit_identical() {
        let req = testdata::design_request("t0", 7);
        let opts = RunnerOptions {
            virtual_time: true,
            ..RunnerOptions::default()
        };
        let a = run_design(&req, &opts, None, &mut |_| {});
        let b = run_design(&req, &opts, None, &mut |_| {});
        match (a, b) {
            (RunOutcome::Done(a), RunOutcome::Done(b)) => assert_eq!(a, b),
            other => panic!("expected two Done outcomes, got {other:?}"),
        }
    }

    #[test]
    fn replicated_requests_carry_an_audit_and_survive_a_crash_fault() {
        let mut req = testdata::design_request("t0", 7);
        req.replicas = 3;
        req.max_failures = 1;
        req.faults = Some("replica-crash@1:1".into());
        let opts = RunnerOptions {
            virtual_time: true,
            ..RunnerOptions::default()
        };
        let RunOutcome::Done(report) = run_design(&req, &opts, None, &mut |_| {}) else {
            panic!("replicated run must finish");
        };
        assert_eq!(report.replicas, 3);
        assert_ne!(report.replica_set_fingerprint, 0);
        let audit = report.replica_audit.as_deref().expect("audit present");
        assert!(audit.contains("\"crashed_mask\":2"), "{audit}");
        assert!(audit.contains("\"kind\":\"replica-crash\""), "{audit}");
        // Byte-identical rerun (the acceptance criterion's audit check).
        let RunOutcome::Done(again) = run_design(&req, &opts, None, &mut |_| {}) else {
            panic!("rerun must finish");
        };
        assert_eq!(again, report);
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
        let base = RunnerOptions {
            virtual_time: true,
            ..RunnerOptions::default()
        };
        let RunOutcome::Done(full) = run_design(&req, &base, None, &mut |_| {}) else {
            panic!("uninterrupted run must finish");
        };
        let killed = RunnerOptions {
            abort_after_iterations: Some(1),
            ..base.clone()
        };
        let RunOutcome::Interrupted(ckpt) = run_design(&req, &killed, None, &mut |_| {}) else {
            panic!("abort_after_iterations(1) must interrupt");
        };
        let RunOutcome::Done(resumed) = run_design(&req, &base, Some(&ckpt), &mut |_| {}) else {
            panic!("resume must finish");
        };
        assert_eq!(resumed, full, "resumed session must be bit-identical");
    }
}
