//! Telemetry audit: one seeded, fault-injected design session with the
//! full observability layer enabled.
//!
//! Not a figure from the paper — an operational experiment for the
//! first-party telemetry layer. It installs the metrics registry and an
//! in-memory JSONL trace, runs a design session on a virtual clock, and
//! reports the resulting snapshot: session counters, designer-call and
//! per-iteration latency quantiles, parallel fan-out counters, and the
//! number of trace lines captured. It then measures the
//! ops-plane costs: the flight recorder's wall-clock overhead on an
//! otherwise-untraced session (best-of-N with and without an installed
//! ring, asserted within 2% plus a small absolute floor for timer noise)
//! and `render_prometheus` throughput over the session's own snapshot.
//! The rows land in `results_full.json`, so a harness run records what
//! its own telemetry would have shown an operator.

use crate::scale::Scale;
use crate::setup::columnar_setup;
use crate::table::{fnum, Table};
use cliffguard_core::gamma::{consecutive_deltas, GammaPolicy};
use cliffguard_core::{CliffGuardConfig, DesignSession, SessionOptions};
use cliffguard_designer::{ColumnarCandidates, GreedyDesigner};
use cliffguard_distance::DeltaEuclidean;
use cliffguard_resilience::{FaultPlan, FaultyDesigner, SessionClock};
use cliffguard_sim::ColumnarEngine;
use cliffguard_telemetry as tel;
use cliffguard_workload::generator::WorkloadProfile;
use cliffguard_workload::Query;
use std::sync::Arc;

/// Runs the experiment.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let setup = columnar_setup(WorkloadProfile::R1, scale, seed);
    let metric = DeltaEuclidean::new(setup.n_columns);
    let nominal = GreedyDesigner::new(&setup.engine, ColumnarCandidates, "DBD");
    let (w0, history) = setup.windows.split_last().expect("setup has windows");
    let deltas = consecutive_deltas(&metric, &setup.windows);
    let gamma = GammaPolicy::KMaxPastDeltas(1.5).resolve(&deltas);
    let mut pool: Vec<Arc<Query>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for w in history.iter().rev().take(4) {
        for q in w.queries() {
            if seen.insert(q.signature()) {
                pool.push(Arc::clone(q));
            }
        }
    }

    let clock = SessionClock::virtual_clock();
    let guard = tel::install(tel::TelemetryConfig {
        trace: Some(tel::TraceSink::Memory),
        level: tel::Level::Debug,
        clock: {
            let c = clock.clone();
            tel::TraceClock::shared_ms(move || c.now_ms())
        },
        metrics: true,
    })
    .expect("telemetry installs");

    let plan = FaultPlan::from_spec("seed=1,rate=0.3").expect("valid fault spec");
    let injector: FaultyDesigner<ColumnarEngine, _> =
        FaultyDesigner::new(&nominal, plan, clock.clone());
    let session = DesignSession::new(
        &setup.engine,
        injector,
        metric,
        CliffGuardConfig::new(gamma),
        SessionOptions {
            clock,
            ..SessionOptions::default()
        },
    )
    .expect("valid config");
    let (_, session_trace) = session.run(w0, setup.budget, &pool).into_design();

    let snap = guard.registry().expect("registry installed").snapshot();
    let trace_lines = guard.memory().map_or(0, |m| m.lines().len());
    drop(guard); // uninstall before the next experiment runs

    let counter = |name: &str| snap.counter(name).unwrap_or(0).to_string();
    let mut t = Table::new(
        "telemetry",
        "metrics snapshot of one fault-injected design session (workload R1)",
        &["Metric", "Value"],
    );
    t.row(vec!["gamma".into(), fnum(gamma)]);
    t.row(vec![
        "designer calls".into(),
        session_trace.designer_calls.to_string(),
    ]);
    t.row(vec![
        "designer attempts".into(),
        counter("cliffguard.core.designer_attempts"),
    ]);
    t.row(vec!["retries".into(), counter("cliffguard.core.retries")]);
    t.row(vec!["faults".into(), counter("cliffguard.core.faults")]);
    if let Some(h) = snap.histogram("cliffguard.core.designer_call_ms") {
        t.row(vec![
            "designer call ms p50/p95/p99".into(),
            format!("{} / {} / {}", fnum(h.p50()), fnum(h.p95()), fnum(h.p99())),
        ]);
    }
    if let Some(h) = snap.histogram("cliffguard.core.iter_ms") {
        t.row(vec![
            "descent iter ms p50/p95".into(),
            format!("{} / {}", fnum(h.p50()), fnum(h.p95())),
        ]);
    }
    t.row(vec![
        "parallel calls (chunked / inline)".into(),
        format!(
            "{} / {}",
            counter("cliffguard.parallel.par_calls"),
            counter("cliffguard.parallel.inline_calls")
        ),
    ]);
    t.row(vec!["trace lines".into(), trace_lines.to_string()]);

    // Flight-recorder overhead: the same seeded session with no telemetry
    // installed, with and without a thread-installed ring. With nothing
    // installed each emission site is one atomic load; with a recorder it
    // formats the line and appends to the ring — the cost a serve session
    // pays for its always-on black box.
    let run_once = |recorder: Option<&Arc<tel::FlightRecorder>>| {
        let clock = SessionClock::virtual_clock();
        let _flight = recorder.map(|rec| {
            let c = clock.clone();
            rec.set_clock(Arc::new(move || c.now_ms()));
            tel::record_on_thread(rec)
        });
        let plan = FaultPlan::from_spec("seed=1,rate=0.3").expect("valid fault spec");
        let injector: FaultyDesigner<ColumnarEngine, _> =
            FaultyDesigner::new(&nominal, plan, clock.clone());
        let session = DesignSession::new(
            &setup.engine,
            injector,
            DeltaEuclidean::new(setup.n_columns),
            CliffGuardConfig::new(gamma),
            SessionOptions {
                clock,
                ..SessionOptions::default()
            },
        )
        .expect("valid config");
        let start = std::time::Instant::now();
        let _ = std::hint::black_box(session.run(w0, setup.budget, &pool).into_design());
        start.elapsed().as_secs_f64() * 1e3
    };
    const REPS: usize = 3;
    let off_best = (0..REPS)
        .map(|_| run_once(None))
        .fold(f64::INFINITY, f64::min);
    let on_best = (0..REPS)
        .map(|_| {
            let rec = Arc::new(tel::FlightRecorder::new(tel::DEFAULT_FLIGHT_CAPACITY));
            run_once(Some(&rec))
        })
        .fold(f64::INFINITY, f64::min);
    // The contract the serve daemon relies on: recording is cheap enough
    // to leave on for every session. 2% relative, plus an absolute floor
    // so sub-millisecond sessions don't fail on scheduler jitter.
    assert!(
        on_best <= off_best * 1.02 + 10.0,
        "flight recorder overhead out of contract: {on_best:.3} ms recorded \
         vs {off_best:.3} ms bare"
    );
    t.row(vec![
        format!("session best-of-{REPS} ms (recorder off)"),
        fnum(off_best),
    ]);
    t.row(vec![
        format!("session best-of-{REPS} ms (recorder on)"),
        fnum(on_best),
    ]);
    t.row(vec![
        "recorder overhead".into(),
        format!("{:+.2}%", (on_best / off_best - 1.0) * 100.0),
    ]);

    // Prometheus exposition throughput over this session's own snapshot.
    let body = tel::render_prometheus(&snap);
    let renders = 200;
    let start = std::time::Instant::now();
    let mut bytes = 0usize;
    for _ in 0..renders {
        bytes += std::hint::black_box(tel::render_prometheus(&snap)).len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    t.row(vec!["prometheus body bytes".into(), body.len().to_string()]);
    t.row(vec![
        "prometheus renders/sec".into(),
        fnum(renders as f64 / elapsed.max(1e-9)),
    ]);
    assert_eq!(bytes, body.len() * renders, "renders are deterministic");

    t.note("counters and the trace are deterministic: virtual clock + seeded faults");
    t.note("latency quantiles and recorder/exposition timings are wall-clock and vary run to run");
    vec![t]
}
