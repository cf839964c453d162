//! The resilient design-session runtime.
//!
//! In deployment the nominal designer is a slow, flaky black box (the
//! paper's target, Vertica's DBD, takes *hours* per call). A
//! [`DesignSession`] runs the Algorithm 2 descent against a
//! [`FallibleDesigner`]; [`CliffGuard::design`](crate::CliffGuard::design)
//! is a session with [`SessionOptions::default`] over a reliable one:
//!
//! * every designer invocation goes through a **retry loop** with capped
//!   exponential backoff and optional per-call / per-session deadlines
//!   ([`RetryPolicy`]), timed on a [`SessionClock`] (virtual by default,
//!   so the policy is exact and costs no wall time under test);
//! * designer output passes a **validation gate** — an over-budget design
//!   or an empty design for a non-empty workload is a recoverable
//!   [`DesignerFault`](cliffguard_designer::DesignerFault), not a
//!   silently-accepted answer;
//! * when retries are exhausted the session **degrades** instead of
//!   panicking: it returns the best design found so far (or the empty
//!   design if even line 1 never succeeded) with a rendered
//!   [`DegradedReason`] recorded in the trace;
//! * the descent state **checkpoints** after every iteration
//!   ([`DescentCheckpoint`]): a killed session can resume and finish with
//!   a final design bit-identical to an uninterrupted run's.
//!
//! Checkpoints serialize all floats as IEEE-754 bit patterns, so a
//! JSON round-trip cannot perturb the descent. The sampled neighborhood
//! is *not* serialized: sampling is the session's only stochastic phase,
//! so resume re-samples from the same seed and verifies (via the
//! sampler's RNG word counter and an input fingerprint) that it rebuilt
//! the identical neighborhood.

use crate::cliffguard::CliffGuardTrace;
use crate::config::{CliffGuardConfig, ConfigError};
use crate::move_workload::move_workload;
use cliffguard_designer::{DesignerFault, FallibleDesigner};
use cliffguard_distance::{NeighborhoodSampler, WorkloadDistance};
use cliffguard_resilience::{DegradedReason, RetryPolicy, SessionClock};
use cliffguard_sim::{CostKernel, Engine, PhysicalDesign, PlanningEngine};
use cliffguard_telemetry::{self as telemetry, Level};
use cliffguard_workload::{InternedWorkload, Query, Workload};
use serde::{map_get, Deserialize, Error as SerdeError, Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Robustness is a *priced* trade of nominal optimality (Figure 2): each
/// accepted move may spend some of W0's cost, but the total spend is
/// bounded by this factor over the nominal design's W0 cost.
pub(crate) const MAX_NOMINAL_REGRESSION: f64 = 1.15;

/// Runtime options of a [`DesignSession`].
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Retry/backoff/deadline policy for designer invocations.
    pub retry: RetryPolicy,
    /// The clock backoffs and deadlines run on.
    pub clock: SessionClock,
    /// Abort (as if killed) before running this 0-based iteration,
    /// returning [`SessionEnd::Interrupted`] with the checkpoint an
    /// uninterrupted run would have had at that point. Test hook for
    /// kill/resume coverage.
    pub abort_after_iterations: Option<usize>,
    /// Externally-driven kill switch. When the flag is raised the session
    /// stops at the next iteration boundary and returns
    /// [`SessionEnd::Interrupted`] with a resumable checkpoint — this is
    /// how a serving daemon turns SIGTERM into "persist and exit" instead
    /// of losing in-flight descents. `None` (the default) never stops.
    pub stop: Option<Arc<AtomicBool>>,
    /// Invoke the per-iteration checkpoint observer only every k-th
    /// completed iteration (`1` = every iteration, the default). A daemon
    /// that persists every checkpoint to disk uses this to trade recovery
    /// granularity against write amplification; resuming from a stale
    /// checkpoint replays the skipped iterations exactly, so the final
    /// design is bit-identical either way.
    pub checkpoint_every: usize,
}

impl Default for SessionOptions {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            clock: SessionClock::virtual_clock(),
            abort_after_iterations: None,
            stop: None,
            checkpoint_every: 1,
        }
    }
}

impl SessionOptions {
    /// Whether the external kill switch has been raised.
    fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }
}

/// How a design session ended.
#[derive(Debug, Clone)]
pub enum SessionEnd<D> {
    /// The descent ran to completion (possibly degraded — see
    /// [`CliffGuardTrace::degraded`]).
    Finished {
        /// The final design.
        design: D,
        /// The session trace.
        trace: CliffGuardTrace,
    },
    /// The session was aborted mid-descent
    /// ([`SessionOptions::abort_after_iterations`]); the checkpoint
    /// resumes it.
    Interrupted(Box<DescentCheckpoint<D>>),
}

impl<D> SessionEnd<D> {
    /// The design and trace, whichever way the session ended (an
    /// interrupted session yields its checkpoint's best-so-far).
    pub fn into_design(self) -> (D, CliffGuardTrace) {
        match self {
            SessionEnd::Finished { design, trace } => (design, trace),
            SessionEnd::Interrupted(c) => (c.design, c.trace),
        }
    }
}

/// Why a checkpoint could not be resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was taken for different inputs (config, workload,
    /// pool, or budget).
    FingerprintMismatch {
        /// Fingerprint of the inputs given to `resume`.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// Re-sampling the neighborhood consumed a different number of RNG
    /// words than the original session — the sampler (or its inputs)
    /// changed, so the rebuilt neighborhood cannot be trusted.
    SamplerDrift {
        /// RNG words the original session consumed.
        expected: u64,
        /// RNG words re-sampling consumed.
        found: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#x} does not match session inputs {expected:#x}"
            ),
            ResumeError::SamplerDrift { expected, found } => write!(
                f,
                "re-sampling consumed {found} RNG words, original session consumed {expected}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Serialized descent state: everything needed to finish a killed session
/// with a final design bit-identical to an uninterrupted run's.
///
/// Floats are serialized as `f64::to_bits` patterns; the neighborhood is
/// re-sampled on resume and verified against `rng_words` +
/// `fingerprint`.
#[derive(Debug, Clone)]
pub struct DescentCheckpoint<D> {
    /// Hash of (config, W0, pool, budget) the session ran with.
    pub fingerprint: u64,
    /// Next 0-based descent iteration to run.
    pub next_iter: usize,
    /// Current step size α.
    pub alpha: f64,
    /// Worst-case objective of the current design.
    pub current_worst: f64,
    /// Cap on the candidate's W0 cost (nominal cost × 1.15).
    pub w0_cap: f64,
    /// Consecutive non-improving iterations so far.
    pub stale: usize,
    /// Neighborhood indices accumulated from accepted iterations.
    pub accumulated: Vec<usize>,
    /// Physical designer attempts made (logical calls + retries) — used
    /// to realign call-indexed fault state on resume.
    pub attempts: u64,
    /// RNG words the neighborhood sampling consumed.
    pub rng_words: u64,
    /// The best design so far.
    pub design: D,
    /// The trace up to the checkpoint.
    pub trace: CliffGuardTrace,
}

impl<D: Serialize> DescentCheckpoint<D> {
    /// Renders the checkpoint as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| {
            // The shim serializer is total on the Value model; reaching
            // this means a broken Design serializer. Surface it as JSON.
            format!("{{\"error\":\"{e}\"}}")
        })
    }
}

impl<D: Deserialize> DescentCheckpoint<D> {
    /// Parses a checkpoint previously rendered with
    /// [`to_json`](Self::to_json).
    pub fn from_json(s: &str) -> Result<Self, SerdeError> {
        serde_json::from_str(s).map_err(|e| SerdeError::msg(e.to_string()))
    }
}

fn trace_to_value(t: &CliffGuardTrace) -> Value {
    Value::Map(vec![
        (
            "worst_case_bits".into(),
            Value::Seq(
                t.worst_case_per_iter
                    .iter()
                    .map(|x| Value::U64(x.to_bits()))
                    .collect(),
            ),
        ),
        ("designer_calls".into(), Value::U64(t.designer_calls as u64)),
        ("samples".into(), Value::U64(t.samples as u64)),
        ("retries".into(), Value::U64(t.retries as u64)),
        ("faults".into(), Value::U64(t.faults as u64)),
        (
            "degraded".into(),
            match &t.degraded {
                Some(s) => Value::Str(s.clone()),
                None => Value::Null,
            },
        ),
        ("resumed".into(), Value::Bool(t.resumed)),
    ])
}

fn trace_from_value(v: &Value) -> Result<CliffGuardTrace, SerdeError> {
    let m = v
        .as_map()
        .ok_or_else(|| SerdeError::msg("trace: expected map"))?;
    let bits: Vec<u64> = Vec::from_value(map_get(m, "worst_case_bits"))?;
    Ok(CliffGuardTrace {
        worst_case_per_iter: bits.into_iter().map(f64::from_bits).collect(),
        designer_calls: u64::from_value(map_get(m, "designer_calls"))? as usize,
        samples: u64::from_value(map_get(m, "samples"))? as usize,
        retries: u64::from_value(map_get(m, "retries"))? as usize,
        faults: u64::from_value(map_get(m, "faults"))? as usize,
        degraded: Option::<String>::from_value(map_get(m, "degraded"))?,
        resumed: bool::from_value(map_get(m, "resumed"))?,
    })
}

// Manual impls: the derive shim does not handle generic types, and the
// floats must round-trip as bit patterns anyway.
impl<D: Serialize> Serialize for DescentCheckpoint<D> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("version".into(), Value::U64(1)),
            ("fingerprint".into(), Value::U64(self.fingerprint)),
            ("next_iter".into(), Value::U64(self.next_iter as u64)),
            ("alpha_bits".into(), Value::U64(self.alpha.to_bits())),
            (
                "current_worst_bits".into(),
                Value::U64(self.current_worst.to_bits()),
            ),
            ("w0_cap_bits".into(), Value::U64(self.w0_cap.to_bits())),
            ("stale".into(), Value::U64(self.stale as u64)),
            (
                "accumulated".into(),
                Value::Seq(
                    self.accumulated
                        .iter()
                        .map(|&i| Value::U64(i as u64))
                        .collect(),
                ),
            ),
            ("attempts".into(), Value::U64(self.attempts)),
            ("rng_words".into(), Value::U64(self.rng_words)),
            ("design".into(), self.design.to_value()),
            ("trace".into(), trace_to_value(&self.trace)),
        ])
    }
}

impl<D: Deserialize> Deserialize for DescentCheckpoint<D> {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let m = v
            .as_map()
            .ok_or_else(|| SerdeError::msg("checkpoint: expected map"))?;
        let version = u64::from_value(map_get(m, "version"))?;
        if version != 1 {
            return Err(SerdeError::msg(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let accumulated: Vec<u64> = Vec::from_value(map_get(m, "accumulated"))?;
        Ok(Self {
            fingerprint: u64::from_value(map_get(m, "fingerprint"))?,
            next_iter: u64::from_value(map_get(m, "next_iter"))? as usize,
            alpha: f64::from_bits(u64::from_value(map_get(m, "alpha_bits"))?),
            current_worst: f64::from_bits(u64::from_value(map_get(m, "current_worst_bits"))?),
            w0_cap: f64::from_bits(u64::from_value(map_get(m, "w0_cap_bits"))?),
            stale: u64::from_value(map_get(m, "stale"))? as usize,
            accumulated: accumulated.into_iter().map(|i| i as usize).collect(),
            attempts: u64::from_value(map_get(m, "attempts"))?,
            rng_words: u64::from_value(map_get(m, "rng_words"))?,
            design: D::from_value(map_get(m, "design"))?,
            trace: trace_from_value(map_get(m, "trace"))?,
        })
    }
}

/// One designer invocation that failed for good.
struct CallFailure {
    /// Attempts made (1 + retries).
    attempts: u32,
    /// The last fault observed.
    last_fault: DesignerFault,
    /// `Some((elapsed, deadline))` when the retry loop stopped because the
    /// session deadline passed, not because retries ran out.
    session_deadline: Option<(u64, u64)>,
}

/// Mutable descent state threaded through the loop (the in-memory form of
/// a [`DescentCheckpoint`]).
struct Descent<D> {
    design: D,
    alpha: f64,
    current_worst: f64,
    w0_cap: f64,
    stale: usize,
    accumulated: Vec<usize>,
    next_iter: usize,
    attempts: u64,
}

/// A fault-tolerant, deadline-aware run of the Algorithm 2 descent.
///
/// Unlike [`CliffGuard`](crate::CliffGuard), the designer is held *by
/// value* (wrap a borrow in
/// [`Reliable`](cliffguard_designer::Reliable)`(&d)` for the infallible
/// case) so fault-injecting wrappers keep their call-state inside the
/// session.
pub struct DesignSession<'a, E: Engine, F, M> {
    engine: &'a E,
    designer: F,
    metric: M,
    config: CliffGuardConfig,
    options: SessionOptions,
}

impl<'a, E, F, M> DesignSession<'a, E, F, M>
where
    E: PlanningEngine,
    F: FallibleDesigner<E>,
    M: WorkloadDistance + Copy,
{
    /// Creates a session, rejecting invalid configurations.
    pub fn new(
        engine: &'a E,
        designer: F,
        metric: M,
        config: CliffGuardConfig,
        options: SessionOptions,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self {
            engine,
            designer,
            metric,
            config,
            options,
        })
    }

    /// Runs a fresh session.
    pub fn run(
        &self,
        w0: &Workload,
        budget_bytes: u64,
        pool: &[Arc<Query>],
    ) -> SessionEnd<E::Design> {
        self.run_with_observer(w0, budget_bytes, pool, &mut |_| {})
    }

    /// Runs a fresh session, handing `observer` the checkpoint after
    /// every completed iteration (e.g. to persist it).
    pub fn run_with_observer(
        &self,
        w0: &Workload,
        budget_bytes: u64,
        pool: &[Arc<Query>],
        observer: &mut dyn FnMut(&DescentCheckpoint<E::Design>),
    ) -> SessionEnd<E::Design> {
        let cfg = &self.config;
        let mut trace = CliffGuardTrace {
            worst_case_per_iter: Vec::new(),
            designer_calls: 1,
            samples: 0,
            retries: 0,
            faults: 0,
            degraded: None,
            resumed: false,
        };
        let mut attempts = 0u64;
        telemetry::event(Level::Info, "cliffguard.core.session.start")
            .f64("gamma", cfg.gamma)
            .u64("n_samples", cfg.n_samples as u64)
            .u64("max_iters", cfg.max_iters as u64)
            .u64("budget_bytes", budget_bytes)
            .str("designer", &self.designer.name())
            .emit();

        // Line 1: nominal design for W0 — the one call with no best-so-far
        // to fall back on. If it never succeeds, degrade to the empty
        // design (every engine accepts it; queries run unindexed).
        let design = match self.invoke_with_retry(w0, budget_bytes, &mut attempts, &mut trace) {
            Ok(d) => d,
            Err(fail) => {
                let reason = match fail.session_deadline {
                    Some((elapsed_ms, deadline_ms)) => DegradedReason::SessionDeadlineExceeded {
                        elapsed_ms,
                        deadline_ms,
                    },
                    None => DegradedReason::NominalDesignFailed {
                        attempts: fail.attempts,
                        last_fault: fail.last_fault.to_string(),
                    },
                };
                let reason = reason.to_string();
                note_degraded(&reason);
                trace.degraded = Some(reason);
                return finished(E::Design::default(), trace);
            }
        };
        if w0.is_empty() || cfg.gamma <= 0.0 || cfg.max_iters == 0 {
            // Γ = 0 degenerates to the nominal designer, by construction.
            return finished(design, trace);
        }

        // Line 2: sample perturbed workloads in the Γ-neighborhood of W0.
        let (mut neighborhood, rng_words) = self.sample(w0, pool);
        trace.samples = neighborhood.len();
        if neighborhood.is_empty() {
            // Thin pool: nothing to guard against; behave nominally.
            return finished(design, trace);
        }
        // W0 itself lies in its own Γ-neighborhood (δ = 0 ≤ Γ), so the
        // worst-case objective must cover it: a candidate that regresses
        // the original workload is not a robust improvement.
        neighborhood.push(w0.clone());

        // The dense cost kernel interns every query the descent will ever
        // cost (the neighborhood plus W0, which was just pushed last) and
        // compiles each distinct plan once. All descent-loop costing below
        // goes through per-design latency epochs instead of re-planning.
        let (kernel, interned) = CostKernel::build(self.engine, &neighborhood);
        kernel.publish_metrics();

        let current_worst = self.worst_case(&kernel, &interned, &design);
        trace.worst_case_per_iter.push(current_worst);
        let st = Descent {
            w0_cap: self.w0_cost(&kernel, &interned, &design) * MAX_NOMINAL_REGRESSION,
            design,
            alpha: cfg.alpha0,
            current_worst,
            stale: 0,
            accumulated: Vec::new(),
            next_iter: 0,
            attempts,
        };
        let fingerprint = fingerprint(cfg, w0, budget_bytes, pool);
        self.descend(
            w0,
            budget_bytes,
            &neighborhood,
            &kernel,
            &interned,
            fingerprint,
            rng_words,
            st,
            trace,
            observer,
        )
    }

    /// Resumes a checkpointed session.
    ///
    /// The inputs must be the ones the checkpoint was taken with; the
    /// rebuilt neighborhood is verified against the checkpoint's RNG
    /// position. On success the continuation is exact: the final design
    /// is bit-identical to what the uninterrupted session would have
    /// produced.
    pub fn resume(
        &self,
        w0: &Workload,
        budget_bytes: u64,
        pool: &[Arc<Query>],
        checkpoint: &DescentCheckpoint<E::Design>,
    ) -> Result<SessionEnd<E::Design>, ResumeError> {
        self.resume_with_observer(w0, budget_bytes, pool, checkpoint, &mut |_| {})
    }

    /// [`resume`](Self::resume) with a per-iteration checkpoint observer.
    pub fn resume_with_observer(
        &self,
        w0: &Workload,
        budget_bytes: u64,
        pool: &[Arc<Query>],
        checkpoint: &DescentCheckpoint<E::Design>,
        observer: &mut dyn FnMut(&DescentCheckpoint<E::Design>),
    ) -> Result<SessionEnd<E::Design>, ResumeError> {
        let fp = fingerprint(&self.config, w0, budget_bytes, pool);
        if fp != checkpoint.fingerprint {
            return Err(ResumeError::FingerprintMismatch {
                expected: fp,
                found: checkpoint.fingerprint,
            });
        }
        let (mut neighborhood, rng_words) = self.sample(w0, pool);
        if rng_words != checkpoint.rng_words {
            return Err(ResumeError::SamplerDrift {
                expected: checkpoint.rng_words,
                found: rng_words,
            });
        }
        neighborhood.push(w0.clone());
        let (kernel, interned) = CostKernel::build(self.engine, &neighborhood);
        kernel.publish_metrics();
        // Realign call-indexed designer state (fault schedules) with the
        // position an uninterrupted session would be at.
        self.designer.note_prior_attempts(checkpoint.attempts);
        let mut trace = checkpoint.trace.clone();
        trace.resumed = true;
        telemetry::event(Level::Info, "cliffguard.core.session.resume")
            .u64("next_iter", checkpoint.next_iter as u64)
            .u64("attempts", checkpoint.attempts)
            .emit();
        let st = Descent {
            design: checkpoint.design.clone(),
            alpha: checkpoint.alpha,
            current_worst: checkpoint.current_worst,
            w0_cap: checkpoint.w0_cap,
            stale: checkpoint.stale,
            accumulated: checkpoint.accumulated.clone(),
            next_iter: checkpoint.next_iter,
            attempts: checkpoint.attempts,
        };
        Ok(self.descend(
            w0,
            budget_bytes,
            &neighborhood,
            &kernel,
            &interned,
            fp,
            rng_words,
            st,
            trace,
            observer,
        ))
    }

    // ----------------------------------------------------- internals --

    /// Line 2 of Algorithm 2, for both a fresh run and a resume. Its wall
    /// time goes to the `sample_ms` histogram (metrics only, no trace
    /// event, like `designer_call_ms`).
    fn sample(&self, w0: &Workload, pool: &[Arc<Query>]) -> (Vec<Workload>, u64) {
        let cfg = &self.config;
        let wall0 = telemetry::metrics_enabled().then(Instant::now);
        let mut sampler = NeighborhoodSampler::new(self.metric, pool.to_vec(), cfg.seed);
        let neighborhood = sampler.sample_neighborhood(w0, cfg.gamma, cfg.n_samples);
        if let Some(wall0) = wall0 {
            if let Some(h) = telemetry::histogram("cliffguard.core.sample_ms") {
                h.record(telemetry::elapsed_ms(wall0));
            }
        }
        (neighborhood, sampler.rng_words_consumed())
    }

    /// Worst-case objective: max over the sampled neighborhood of the
    /// average query latency. The design's latency epoch is filled by
    /// worker threads in query order; the per-workload folds and the max
    /// run serially in sample order, so the result is bit-identical at
    /// any thread count.
    fn worst_case(
        &self,
        kernel: &CostKernel<'_, E>,
        interned: &[InternedWorkload],
        d: &E::Design,
    ) -> f64 {
        let epoch = kernel.epoch(d);
        interned
            .iter()
            .map(|w| kernel.workload_cost(w, &epoch).avg_ms)
            .fold(0.0, f64::max)
    }

    /// Cost of W0 under `d`. W0 is always pushed onto the neighborhood
    /// last, so it is the final interned workload.
    fn w0_cost(
        &self,
        kernel: &CostKernel<'_, E>,
        interned: &[InternedWorkload],
        d: &E::Design,
    ) -> f64 {
        let w0 = interned.last().expect("neighborhood contains W0");
        kernel.workload_cost(w0, &kernel.epoch(d)).avg_ms
    }

    /// One *logical* designer call: retry with backoff until the call
    /// succeeds (and passes the validation gate), retries run out, or a
    /// deadline fires.
    fn invoke_with_retry(
        &self,
        w: &Workload,
        budget_bytes: u64,
        attempts: &mut u64,
        trace: &mut CliffGuardTrace,
    ) -> Result<E::Design, CallFailure> {
        let policy = &self.options.retry;
        let clock = &self.options.clock;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            *attempts += 1;
            let t0 = clock.now_ms();
            // Wall time (not session time) for the latency histogram —
            // the metric profiles the real cost of a designer call, while
            // trace events below stay on the session clock so they remain
            // deterministic under a virtual clock.
            let wall0 = telemetry::metrics_enabled().then(Instant::now);
            let mut result = self.designer.try_design(w, budget_bytes);
            if let Some(wall0) = wall0 {
                if let Some(h) = telemetry::histogram("cliffguard.core.designer_call_ms") {
                    h.record(telemetry::elapsed_ms(wall0));
                }
                if let Some(c) = telemetry::counter("cliffguard.core.designer_attempts") {
                    c.incr(1);
                }
            }
            if let (Ok(_), Some(deadline_ms)) = (&result, policy.designer_deadline_ms) {
                let elapsed_ms = clock.now_ms().saturating_sub(t0);
                if elapsed_ms > deadline_ms {
                    // The answer arrived after the per-call deadline: a
                    // session that waits this long per call cannot meet
                    // its own promises, so the result is discarded.
                    result = Err(DesignerFault::TimedOut {
                        elapsed_ms,
                        deadline_ms,
                    });
                }
            }
            if let Ok(d) = &result {
                let price_bytes = d.price_bytes(self.engine.catalog());
                if price_bytes > budget_bytes {
                    result = Err(DesignerFault::OverBudget {
                        price_bytes,
                        budget_bytes,
                    });
                } else if d.is_empty() && !w.is_empty() {
                    result = Err(DesignerFault::EmptyDesign);
                }
            }
            let fault = match result {
                Ok(d) => return Ok(d),
                Err(f) => f,
            };
            trace.faults += 1;
            telemetry::event(Level::Warn, "cliffguard.core.session.fault")
                .u64("attempt", attempt as u64)
                .str("fault", &fault.to_string())
                .emit();
            if let Some(c) = telemetry::counter("cliffguard.core.faults") {
                c.incr(1);
            }
            if let Some(deadline_ms) = policy.session_deadline_ms {
                let now = clock.now_ms();
                if now >= deadline_ms {
                    return Err(CallFailure {
                        attempts: attempt,
                        last_fault: fault,
                        session_deadline: Some((now, deadline_ms)),
                    });
                }
            }
            if attempt > policy.max_retries {
                return Err(CallFailure {
                    attempts: attempt,
                    last_fault: fault,
                    session_deadline: None,
                });
            }
            trace.retries += 1;
            let backoff_ms = policy.backoff_ms(attempt - 1);
            telemetry::event(Level::Warn, "cliffguard.core.session.retry")
                .u64("attempt", attempt as u64)
                .u64("backoff_ms", backoff_ms)
                .emit();
            if let Some(c) = telemetry::counter("cliffguard.core.retries") {
                c.incr(1);
            }
            clock.sleep_ms(backoff_ms);
        }
    }

    fn snapshot(
        &self,
        st: &Descent<E::Design>,
        trace: &CliffGuardTrace,
        fingerprint: u64,
        rng_words: u64,
    ) -> DescentCheckpoint<E::Design> {
        DescentCheckpoint {
            fingerprint,
            next_iter: st.next_iter,
            alpha: st.alpha,
            current_worst: st.current_worst,
            w0_cap: st.w0_cap,
            stale: st.stale,
            accumulated: st.accumulated.clone(),
            attempts: st.attempts,
            rng_words,
            design: st.design.clone(),
            trace: trace.clone(),
        }
    }

    /// The descent loop (Algorithm 2 lines 5–17), resumable at any
    /// iteration boundary.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        w0: &Workload,
        budget_bytes: u64,
        neighborhood: &[Workload],
        kernel: &CostKernel<'_, E>,
        interned: &[InternedWorkload],
        fingerprint: u64,
        rng_words: u64,
        mut st: Descent<E::Design>,
        mut trace: CliffGuardTrace,
        observer: &mut dyn FnMut(&DescentCheckpoint<E::Design>),
    ) -> SessionEnd<E::Design> {
        let cfg = &self.config;
        // A resumed checkpoint may already have exhausted its patience
        // (the uninterrupted run stopped on its final iteration's break).
        if st.stale >= cfg.patience {
            return finished(st.design, trace);
        }
        for iter in st.next_iter..cfg.max_iters {
            st.next_iter = iter;
            let abort = self
                .options
                .abort_after_iterations
                .is_some_and(|k| iter >= k)
                || self.options.stop_requested();
            if abort {
                return SessionEnd::Interrupted(Box::new(self.snapshot(
                    &st,
                    &trace,
                    fingerprint,
                    rng_words,
                )));
            }
            if let Some(deadline_ms) = self.options.retry.session_deadline_ms {
                let now = self.options.clock.now_ms();
                if now >= deadline_ms {
                    let reason = DegradedReason::SessionDeadlineExceeded {
                        elapsed_ms: now,
                        deadline_ms,
                    }
                    .to_string();
                    note_degraded(&reason);
                    trace.degraded = Some(reason);
                    return finished(st.design, trace);
                }
            }

            // The per-iteration span (closed at the end of the loop body,
            // or on an early degraded return). Every field it carries is
            // derived from session state, so with a virtual clock the
            // whole record is deterministic.
            let wall_iter = telemetry::metrics_enabled().then(Instant::now);
            let mut iter_span = telemetry::event(Level::Info, "cliffguard.core.descent.iter")
                .u64("iter", iter as u64)
                .f64("gamma", cfg.gamma)
                .f64("alpha", st.alpha)
                .entered();

            // Line 6: the worst neighbors under the current design (top
            // worst_fraction, at least one). The kernel fills one latency
            // epoch for the design (workers fan out per query, results
            // land in query order); workload folds then run serially over
            // dense vectors, and the sort is stable, so the ranking is
            // independent of the thread count.
            let design_now = &st.design;
            let epoch_now = kernel.epoch(design_now);
            let mut scored: Vec<(usize, f64)> = interned
                .iter()
                .map(|w| kernel.workload_cost(w, &epoch_now).avg_ms)
                .enumerate()
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            let keep = ((neighborhood.len() as f64 * cfg.worst_fraction).ceil() as usize)
                .clamp(1, neighborhood.len());
            let current_worst_idx: Vec<usize> = scored[..keep].iter().map(|&(i, _)| i).collect();
            let mut merged_idx = st.accumulated.clone();
            for &i in &current_worst_idx {
                if !merged_idx.contains(&i) {
                    merged_idx.push(i);
                }
            }
            let worst_refs: Vec<&Workload> = merged_idx.iter().map(|&i| &neighborhood[i]).collect();
            iter_span.record_u64("neighbors", merged_idx.len() as u64);

            // Line 8: move the workload toward the worst neighbors. Every
            // query here comes from the neighborhood (or W0 itself), so
            // each lookup is a dense read from the epoch just filled.
            let moved = move_workload(
                w0,
                &worst_refs,
                |q| kernel.query_latency_ms(q, design_now, &epoch_now),
                st.alpha,
            );

            // Line 9: nominal design for the moved workload — the one
            // part of the iteration that talks to the unreliable world.
            trace.designer_calls += 1;
            let candidate =
                match self.invoke_with_retry(&moved, budget_bytes, &mut st.attempts, &mut trace) {
                    Ok(d) => Some(d),
                    Err(fail) => {
                        let reason = match fail.session_deadline {
                            Some((elapsed_ms, deadline_ms)) => {
                                DegradedReason::SessionDeadlineExceeded {
                                    elapsed_ms,
                                    deadline_ms,
                                }
                            }
                            None => DegradedReason::RetriesExhausted {
                                iteration: iter,
                                attempts: fail.attempts,
                                last_fault: fail.last_fault.to_string(),
                            },
                        };
                        let reason = reason.to_string();
                        note_degraded(&reason);
                        trace.degraded = Some(reason);
                        None
                    }
                };
            let Some(candidate) = candidate else {
                // Graceful degradation: the best design so far is still a
                // valid, budget-respecting answer.
                drop(iter_span);
                return finished(st.design, trace);
            };

            // Lines 10–15: accept on worst-case improvement; adapt α.
            let prev_worst = st.current_worst;
            let candidate_worst = self.worst_case(kernel, interned, &candidate);
            let accepted = candidate_worst < st.current_worst
                && self.w0_cost(kernel, interned, &candidate) <= st.w0_cap;
            if accepted {
                st.design = candidate;
                st.current_worst = candidate_worst;
                st.alpha =
                    (st.alpha * cfg.lambda_success).clamp(cfg.alpha_range.0, cfg.alpha_range.1);
                st.stale = 0;
                for i in current_worst_idx {
                    if !st.accumulated.contains(&i) {
                        st.accumulated.push(i);
                    }
                }
            } else {
                st.alpha =
                    (st.alpha * cfg.lambda_failure).clamp(cfg.alpha_range.0, cfg.alpha_range.1);
                st.stale += 1;
            }
            iter_span.record_bool("accepted", accepted);
            iter_span.record_f64("worst_case", st.current_worst);
            iter_span.record_f64("delta", prev_worst - st.current_worst);
            drop(iter_span);
            if let Some(wall_iter) = wall_iter {
                if let Some(h) = telemetry::histogram("cliffguard.core.iter_ms") {
                    h.record(telemetry::elapsed_ms(wall_iter));
                }
            }
            trace.worst_case_per_iter.push(st.current_worst);
            st.next_iter = iter + 1;
            if st.next_iter % self.options.checkpoint_every.max(1) == 0 {
                observer(&self.snapshot(&st, &trace, fingerprint, rng_words));
            }
            if st.stale >= cfg.patience {
                break; // Line 17: many iterations with no improvement.
            }
        }
        finished(st.design, trace)
    }
}

/// Every completed session funnels through here so a trace always closes
/// with exactly one `session.finish` record, whichever exit path ran.
fn finished<D>(design: D, trace: CliffGuardTrace) -> SessionEnd<D> {
    telemetry::event(Level::Info, "cliffguard.core.session.finish")
        .u64("designer_calls", trace.designer_calls as u64)
        .u64("retries", trace.retries as u64)
        .u64("faults", trace.faults as u64)
        .u64(
            "iters",
            trace.worst_case_per_iter.len().saturating_sub(1) as u64,
        )
        .bool("degraded", trace.degraded.is_some())
        .emit();
    if let Some(c) = telemetry::counter("cliffguard.core.sessions") {
        c.incr(1);
    }
    SessionEnd::Finished { design, trace }
}

/// Telemetry for a degradation decision; the caller sets the trace field.
///
/// Besides the warn event and counter, this freezes the thread's flight
/// recorder (when the session runs under one, as serve sessions do) so
/// the last moments before the degradation are preserved as a dump.
/// The freeze happens *after* the event is emitted, so the degradation
/// record itself is the final line of the black box.
fn note_degraded(reason: &str) {
    telemetry::event(Level::Warn, "cliffguard.core.session.degraded")
        .str("reason", reason)
        .emit();
    if let Some(c) = telemetry::counter("cliffguard.core.degraded_sessions") {
        c.incr(1);
    }
    telemetry::freeze_current(reason);
}

/// Hash of the session inputs, used to reject checkpoints taken for a
/// different (config, W0, pool, budget) tuple. Query identity uses the
/// structural [`Query::signature`], so re-parsed workloads fingerprint
/// identically.
fn fingerprint(
    cfg: &CliffGuardConfig,
    w0: &Workload,
    budget_bytes: u64,
    pool: &[Arc<Query>],
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| h = splitmix64(h ^ v);
    mix(cfg.gamma.to_bits());
    mix(cfg.n_samples as u64);
    mix(cfg.max_iters as u64);
    mix(cfg.alpha0.to_bits());
    mix(cfg.lambda_success.to_bits());
    mix(cfg.lambda_failure.to_bits());
    mix(cfg.worst_fraction.to_bits());
    mix(cfg.patience as u64);
    mix(cfg.alpha_range.0.to_bits());
    mix(cfg.alpha_range.1.to_bits());
    mix(cfg.seed);
    mix(budget_bytes);
    mix(w0.len() as u64);
    for (q, wt) in w0.iter() {
        mix(q.signature().0);
        mix(wt.to_bits());
    }
    mix(pool.len() as u64);
    for q in pool {
        mix(q.signature().0);
    }
    h
}

/// SplitMix64 finalizer (same mixer the sim crate uses for fingerprints).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_designer::{ColumnarCandidates, GreedyDesigner, NominalDesigner, Reliable};
    use cliffguard_distance::DeltaEuclidean;
    use cliffguard_resilience::{FaultKind, FaultPlan, FaultyDesigner};
    use cliffguard_sim::{ColumnarDesign, ColumnarEngine};
    use cliffguard_storage::{Catalog, ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::{PredOp, QueryBuilder, TableId};

    fn catalog() -> Catalog {
        Catalog::new(vec![TableDef {
            name: "fact".into(),
            columns: (0..12)
                .map(|i| ColumnDef {
                    name: format!("c{i}"),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(10_000),
                })
                .collect(),
            rows: 8_000_000,
        }])
    }

    fn query(sel: &[u32], filt: u32) -> cliffguard_workload::Query {
        QueryBuilder::new(TableId(0))
            .select(sel)
            .filter(filt, PredOp::Eq, 0.001)
            .build()
    }

    fn w0() -> Workload {
        Workload::from_queries([(query(&[1, 2], 3), 50.0), (query(&[2, 4], 3), 50.0)])
    }

    fn pool() -> Vec<Arc<cliffguard_workload::Query>> {
        (5..11)
            .map(|i| Arc::new(query(&[i as u32, i as u32 + 1], 3)))
            .collect()
    }

    const BUDGET: u64 = 10_000_000_000;

    #[test]
    fn cliffguard_design_is_a_default_session() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cfg = CliffGuardConfig::new(0.005);
        let cg = crate::CliffGuard::new(&e, &nominal, metric, cfg.clone());
        let (d_cg, t_cg) = cg.design(&w0(), BUDGET, &pool());

        let session = DesignSession::new(
            &e,
            Reliable(&nominal),
            metric,
            cfg,
            SessionOptions::default(),
        )
        .expect("valid config");
        let (d_session, t_session) = session.run(&w0(), BUDGET, &pool()).into_design();
        assert_eq!(d_cg, d_session);
        assert_eq!(t_cg, t_session);
        assert_eq!(t_session.retries, 0);
        assert_eq!(t_session.faults, 0);
        assert_eq!(t_session.degraded, None);
    }

    #[test]
    fn transient_faults_are_retried_through() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cfg = CliffGuardConfig::new(0.005);
        // Sabotage the first two attempts of the nominal call and one
        // mid-descent attempt; retries absorb all of it.
        let plan = FaultPlan::none()
            .at(1, FaultKind::Fail)
            .at(2, FaultKind::Stall(40))
            .at(4, FaultKind::Empty);
        let clock = SessionClock::virtual_clock();
        let injector: FaultyDesigner<ColumnarEngine, _> =
            FaultyDesigner::new(&nominal, plan, clock.clone());
        let options = SessionOptions {
            clock,
            ..SessionOptions::default()
        };
        let session =
            DesignSession::new(&e, injector, metric, cfg.clone(), options).expect("valid config");
        let (d, trace) = session.run(&w0(), BUDGET, &pool()).into_design();

        // Same answer as a clean run (stalls return the real design, and
        // fail/empty are retried into clean calls).
        let cg = crate::CliffGuard::new(&e, &nominal, metric, cfg);
        let (d_clean, t_clean) = cg.design(&w0(), BUDGET, &pool());
        assert_eq!(d, d_clean);
        assert_eq!(trace.worst_case_per_iter, t_clean.worst_case_per_iter);
        assert_eq!(trace.designer_calls, t_clean.designer_calls);
        assert_eq!(trace.retries, 2, "fail@1 and empty@4 each cost one retry");
        assert_eq!(trace.faults, 2);
        assert_eq!(trace.degraded, None);
    }

    #[test]
    fn nominal_never_succeeding_degrades_to_empty_design() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        // Every call is an outage: the nominal call and all 3 retries fail.
        let mut plan = FaultPlan::none();
        for call in 1..=8 {
            plan = plan.at(call, FaultKind::Fail);
        }
        let clock = SessionClock::virtual_clock();
        let injector: FaultyDesigner<ColumnarEngine, _> =
            FaultyDesigner::new(&nominal, plan, clock.clone());
        let options = SessionOptions {
            clock,
            ..SessionOptions::default()
        };
        let session =
            DesignSession::new(&e, injector, metric, CliffGuardConfig::new(0.01), options)
                .expect("valid config");
        let (d, trace) = session.run(&w0(), BUDGET, &pool()).into_design();
        assert!(d.is_empty());
        let degraded = trace.degraded.expect("session must report degradation");
        assert!(degraded.contains("nominal design failed"), "{degraded}");
        assert_eq!(trace.designer_calls, 1);
        assert_eq!(trace.retries, 3, "default policy: 3 retries");
        assert_eq!(trace.faults, 4, "one fault per attempt");
    }

    #[test]
    fn mid_descent_exhaustion_returns_best_so_far() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        // Call 1 (nominal) is clean; every later attempt fails.
        let mut plan = FaultPlan::none();
        for call in 2..64 {
            plan = plan.at(call, FaultKind::Fail);
        }
        let clock = SessionClock::virtual_clock();
        let injector: FaultyDesigner<ColumnarEngine, _> =
            FaultyDesigner::new(&nominal, plan, clock.clone());
        let options = SessionOptions {
            clock,
            ..SessionOptions::default()
        };
        let cfg = CliffGuardConfig::new(0.005);
        let session = DesignSession::new(&e, injector, metric, cfg, options).expect("valid config");
        let (d, trace) = session.run(&w0(), BUDGET, &pool()).into_design();
        // Best-so-far is the nominal design — still valid and non-empty.
        assert!(!d.is_empty());
        assert!(d.price_bytes(e.catalog()) <= BUDGET);
        let degraded = trace.degraded.expect("session must report degradation");
        assert!(
            degraded.contains("retries exhausted at iteration 0"),
            "{degraded}"
        );
    }

    #[test]
    fn session_deadline_stops_a_stalling_designer() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        // Every call stalls 400 virtual ms; the session allows 1000 ms.
        let mut plan = FaultPlan::none();
        for call in 1..64 {
            plan = plan.at(call, FaultKind::Stall(400));
        }
        let clock = SessionClock::virtual_clock();
        let injector: FaultyDesigner<ColumnarEngine, _> =
            FaultyDesigner::new(&nominal, plan, clock.clone());
        let options = SessionOptions {
            clock: clock.clone(),
            retry: RetryPolicy::default().with_session_deadline_ms(1_000),
            ..SessionOptions::default()
        };
        let session =
            DesignSession::new(&e, injector, metric, CliffGuardConfig::new(0.005), options)
                .expect("valid config");
        let (d, trace) = session.run(&w0(), BUDGET, &pool()).into_design();
        assert!(!d.is_empty(), "stalled calls still return designs");
        let degraded = trace.degraded.expect("deadline must degrade the session");
        assert!(degraded.contains("session deadline exceeded"), "{degraded}");
        assert!(clock.now_ms() >= 1_000);
    }

    #[test]
    fn per_call_deadline_rejects_slow_answers() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let plan = FaultPlan::none().at(1, FaultKind::Stall(500));
        let clock = SessionClock::virtual_clock();
        let injector: FaultyDesigner<ColumnarEngine, _> =
            FaultyDesigner::new(&nominal, plan, clock.clone());
        let options = SessionOptions {
            clock,
            retry: RetryPolicy::default().with_designer_deadline_ms(100),
            ..SessionOptions::default()
        };
        let session = DesignSession::new(&e, injector, metric, CliffGuardConfig::new(0.0), options)
            .expect("valid config");
        let (d, trace) = session.run(&w0(), BUDGET, &pool()).into_design();
        // The slow call was discarded and retried cleanly.
        assert!(!d.is_empty());
        assert_eq!(trace.faults, 1);
        assert_eq!(trace.retries, 1);
        assert_eq!(trace.degraded, None);
    }

    #[test]
    fn overbudget_designs_are_gated() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        // A budget that fits exactly the cheapest useful candidate, so the
        // clean design is non-empty but a 4x-inflated design overruns it.
        let tight_budget = {
            let m = nominal.matrix(&w0());
            (0..m.len())
                .filter(|&c| m.standalone_gain(c) > 0.0)
                .map(|c| m.prices[c])
                .min()
                .expect("w0 must have useful candidates")
        };
        assert!(tight_budget > 0);
        assert!(
            nominal
                .design(&w0(), tight_budget * 4)
                .price_bytes(e.catalog())
                > tight_budget,
            "the 4x-budget design must overrun the tight budget"
        );
        let plan = FaultPlan::none().at(1, FaultKind::OverBudget);
        let clock = SessionClock::virtual_clock();
        let injector: FaultyDesigner<ColumnarEngine, _> =
            FaultyDesigner::new(&nominal, plan, clock.clone());
        let options = SessionOptions {
            clock,
            ..SessionOptions::default()
        };
        let session = DesignSession::new(&e, injector, metric, CliffGuardConfig::new(0.0), options)
            .expect("valid config");
        let (d, trace) = session.run(&w0(), tight_budget, &pool()).into_design();
        assert!(!d.is_empty(), "the clean retry fits the tight budget");
        assert!(d.price_bytes(e.catalog()) <= tight_budget);
        assert_eq!(trace.faults, 1, "the over-budget answer was rejected");
        assert_eq!(trace.retries, 1);
    }

    #[test]
    fn checkpoint_json_round_trip_is_bit_exact() {
        let trace = CliffGuardTrace {
            worst_case_per_iter: vec![0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE],
            designer_calls: 3,
            samples: 20,
            retries: 1,
            faults: 2,
            degraded: Some("retries exhausted at iteration 1".into()),
            resumed: false,
        };
        let ckpt: DescentCheckpoint<ColumnarDesign> = DescentCheckpoint {
            fingerprint: 0xdead_beef_cafe_f00d,
            next_iter: 2,
            alpha: 0.1 + 0.2, // not representable cleanly in decimal
            current_worst: 123.456_789_012_345_67,
            w0_cap: 1.15 * (1.0 / 3.0),
            stale: 1,
            accumulated: vec![3, 1, 7],
            attempts: 9,
            rng_words: 1234,
            design: ColumnarDesign::default(),
            trace,
        };
        let json = ckpt.to_json();
        let back: DescentCheckpoint<ColumnarDesign> =
            DescentCheckpoint::from_json(&json).expect("round trip");
        assert_eq!(back.fingerprint, ckpt.fingerprint);
        assert_eq!(back.next_iter, ckpt.next_iter);
        assert_eq!(back.alpha.to_bits(), ckpt.alpha.to_bits());
        assert_eq!(back.current_worst.to_bits(), ckpt.current_worst.to_bits());
        assert_eq!(back.w0_cap.to_bits(), ckpt.w0_cap.to_bits());
        assert_eq!(back.stale, ckpt.stale);
        assert_eq!(back.accumulated, ckpt.accumulated);
        assert_eq!(back.attempts, ckpt.attempts);
        assert_eq!(back.rng_words, ckpt.rng_words);
        assert_eq!(back.design, ckpt.design);
        assert_eq!(back.trace, ckpt.trace);
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cfg = CliffGuardConfig::new(0.005);

        let uninterrupted = DesignSession::new(
            &e,
            Reliable(&nominal),
            metric,
            cfg.clone(),
            SessionOptions::default(),
        )
        .expect("valid config");
        let (d_full, t_full) = uninterrupted.run(&w0(), BUDGET, &pool()).into_design();
        assert!(
            t_full.worst_case_per_iter.len() > 2,
            "need >1 iteration to kill mid-way"
        );

        for k in 0..t_full.worst_case_per_iter.len() {
            let killed = DesignSession::new(
                &e,
                Reliable(&nominal),
                metric,
                cfg.clone(),
                SessionOptions {
                    abort_after_iterations: Some(k),
                    ..SessionOptions::default()
                },
            )
            .expect("valid config");
            let SessionEnd::Interrupted(ckpt) = killed.run(&w0(), BUDGET, &pool()) else {
                // k beyond the descent's natural end: nothing to resume.
                continue;
            };
            // Serialize / deserialize, as a real kill would.
            let restored: DescentCheckpoint<ColumnarDesign> =
                DescentCheckpoint::from_json(&ckpt.to_json()).expect("round trip");
            let resumed_session = DesignSession::new(
                &e,
                Reliable(&nominal),
                metric,
                cfg.clone(),
                SessionOptions::default(),
            )
            .expect("valid config");
            let (d_res, t_res) = resumed_session
                .resume(&w0(), BUDGET, &pool(), &restored)
                .expect("checkpoint accepted")
                .into_design();
            assert_eq!(
                d_res, d_full,
                "kill at iteration {k}: design must be bit-identical"
            );
            assert!(t_res.resumed);
            assert_eq!(t_res.worst_case_per_iter, t_full.worst_case_per_iter);
            assert_eq!(t_res.designer_calls, t_full.designer_calls);
        }
    }

    #[test]
    fn resume_rejects_mismatched_inputs() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cfg = CliffGuardConfig::new(0.005);
        let session = DesignSession::new(
            &e,
            Reliable(&nominal),
            metric,
            cfg.clone(),
            SessionOptions {
                abort_after_iterations: Some(1),
                ..SessionOptions::default()
            },
        )
        .expect("valid config");
        let SessionEnd::Interrupted(ckpt) = session.run(&w0(), BUDGET, &pool()) else {
            panic!("abort_after_iterations(1) must interrupt")
        };
        // Different budget → different fingerprint.
        let err = session
            .resume(&w0(), BUDGET / 2, &pool(), &ckpt)
            .expect_err("mismatched budget must be rejected");
        assert!(matches!(err, ResumeError::FingerprintMismatch { .. }));
        // Different pool → different fingerprint.
        let err = session
            .resume(&w0(), BUDGET, &pool()[1..], &ckpt)
            .expect_err("mismatched pool must be rejected");
        assert!(matches!(err, ResumeError::FingerprintMismatch { .. }));
    }

    #[test]
    fn faulty_resume_realigns_fault_schedule() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cfg = CliffGuardConfig::new(0.005);
        let plan = FaultPlan::none()
            .at(2, FaultKind::Fail)
            .at(5, FaultKind::Fail);
        let mk_session = |abort: Option<usize>| {
            let clock = SessionClock::virtual_clock();
            let injector: FaultyDesigner<ColumnarEngine, _> =
                FaultyDesigner::new(&nominal, plan.clone(), clock.clone());
            DesignSession::new(
                &e,
                injector,
                metric,
                cfg.clone(),
                SessionOptions {
                    clock,
                    abort_after_iterations: abort,
                    ..SessionOptions::default()
                },
            )
            .expect("valid config")
        };
        let (d_full, t_full) = mk_session(None).run(&w0(), BUDGET, &pool()).into_design();

        let SessionEnd::Interrupted(ckpt) = mk_session(Some(2)).run(&w0(), BUDGET, &pool()) else {
            panic!("abort_after_iterations(2) must interrupt")
        };
        let (d_res, t_res) = mk_session(None)
            .resume(&w0(), BUDGET, &pool(), &ckpt)
            .expect("checkpoint accepted")
            .into_design();
        assert_eq!(d_res, d_full);
        assert_eq!(t_res.worst_case_per_iter, t_full.worst_case_per_iter);
        assert_eq!(t_res.retries, t_full.retries);
        assert_eq!(t_res.faults, t_full.faults);
    }

    #[test]
    fn stop_switch_interrupts_and_resume_completes_identically() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cfg = CliffGuardConfig::new(0.005);
        let (d_full, t_full) = DesignSession::new(
            &e,
            Reliable(&nominal),
            metric,
            cfg.clone(),
            SessionOptions::default(),
        )
        .expect("valid config")
        .run(&w0(), BUDGET, &pool())
        .into_design();

        // Switch raised before the descent starts: the session checkpoints
        // at iteration 0 instead of running — the daemon-kill path.
        let stop = Arc::new(AtomicBool::new(true));
        let killed = DesignSession::new(
            &e,
            Reliable(&nominal),
            metric,
            cfg.clone(),
            SessionOptions {
                stop: Some(Arc::clone(&stop)),
                ..SessionOptions::default()
            },
        )
        .expect("valid config");
        let SessionEnd::Interrupted(ckpt) = killed.run(&w0(), BUDGET, &pool()) else {
            panic!("raised stop switch must interrupt the session")
        };
        assert_eq!(ckpt.next_iter, 0);

        stop.store(false, Ordering::Relaxed);
        let (d_res, t_res) = killed
            .resume(&w0(), BUDGET, &pool(), &ckpt)
            .expect("checkpoint accepted")
            .into_design();
        assert_eq!(d_res, d_full, "resume after a stop must be bit-identical");
        assert_eq!(t_res.worst_case_per_iter, t_full.worst_case_per_iter);
    }

    #[test]
    fn sparse_checkpoint_cadence_still_resumes_bit_identically() {
        let e = ColumnarEngine::new(catalog());
        let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
        let metric = DeltaEuclidean::new(12);
        let cfg = CliffGuardConfig::new(0.005);
        let mk = |every: usize| {
            DesignSession::new(
                &e,
                Reliable(&nominal),
                metric,
                cfg.clone(),
                SessionOptions {
                    checkpoint_every: every,
                    ..SessionOptions::default()
                },
            )
            .expect("valid config")
        };
        let mut dense: Vec<DescentCheckpoint<ColumnarDesign>> = Vec::new();
        let (d_full, _) = mk(1)
            .run_with_observer(&w0(), BUDGET, &pool(), &mut |c| dense.push(c.clone()))
            .into_design();
        let mut sparse: Vec<DescentCheckpoint<ColumnarDesign>> = Vec::new();
        let (d_sparse, _) = mk(2)
            .run_with_observer(&w0(), BUDGET, &pool(), &mut |c| sparse.push(c.clone()))
            .into_design();
        assert_eq!(d_full, d_sparse, "cadence must not change the descent");
        assert!(
            sparse.len() < dense.len(),
            "cadence 2 must skip checkpoints"
        );
        // Resuming from the *stale* (every-2nd) checkpoints replays the
        // skipped iterations exactly.
        for c in &sparse {
            let (d_res, _) = mk(1)
                .resume(&w0(), BUDGET, &pool(), c)
                .expect("checkpoint accepted")
                .into_design();
            assert_eq!(d_res, d_full, "resume from iter {}", c.next_iter);
        }
    }
}
