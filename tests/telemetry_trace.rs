//! Trace-determinism integration tests: a seeded, fault-injected design
//! session on a virtual clock must emit a **byte-identical** JSONL trace
//! across reruns and across thread counts, and every line must validate
//! against the golden schema in `schemas/trace.schema.json`.
//!
//! This is the observable half of the determinism contract: trace events
//! are emitted only from serial session code with virtual-clock
//! timestamps, while parallel workers record metrics through lock-free
//! atomics only — so the subscriber sees the same bytes at 1 thread and
//! at 8.

use cliffguard::prelude::*;
use cliffguard::trace_schema::TraceSchema;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Telemetry globals are process-wide; every test that installs a
/// subscriber serializes on this lock.
static TELEMETRY: Mutex<()> = Mutex::new(());

/// Takes [`TELEMETRY`]. A test that failed while holding it poisons it,
/// but the lock guards no data, so the next test goes on and reports its
/// own verdict.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(PoisonError::into_inner)
}

fn catalog() -> Catalog {
    Catalog::new(vec![TableDef {
        name: "fact".into(),
        columns: (0..12)
            .map(|i| ColumnDef {
                name: format!("c{i}"),
                width_bytes: 8,
                stats: ColumnStats::uniform(100_000),
            })
            .collect(),
        rows: 8_000_000,
    }])
}

fn query(sel: &[u32], filt: u32) -> Query {
    QueryBuilder::new(TableId(0))
        .select(sel)
        .filter(filt, PredOp::Eq, 0.0001)
        .build()
}

fn w0() -> Workload {
    Workload::from_queries([(query(&[1, 2], 3), 50.0), (query(&[3, 4], 5), 50.0)])
}

fn pool() -> Vec<Arc<Query>> {
    (5..11)
        .map(|c| Arc::new(query(&[c, c + 1], c - 1)))
        .collect()
}

const BUDGET: u64 = 10_000_000_000;

/// Installs telemetry that traces every level to memory on `clock`.
fn trace_to_memory(clock: TraceClock) -> TelemetryGuard {
    install(TelemetryConfig {
        trace: Some(TraceSink::Memory),
        level: Level::Debug,
        clock,
        metrics: true,
    })
    .expect("memory sink installs")
}

/// Runs one seeded, fault-injected session with tracing to memory and
/// returns the captured JSONL trace.
fn traced_run(spec: &str) -> String {
    let session_clock = SessionClock::virtual_clock();
    let c = session_clock.clone();
    let guard = trace_to_memory(TraceClock::shared_ms(move || c.now_ms()));

    let e = ColumnarEngine::new(catalog());
    let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
    let plan = FaultPlan::from_spec(spec).expect("valid fault spec");
    let injector: FaultyDesigner<ColumnarEngine, _> =
        FaultyDesigner::new(&nominal, plan, session_clock.clone());
    let session = DesignSession::new(
        &e,
        injector,
        DeltaEuclidean::new(12),
        CliffGuardConfig::new(0.01),
        SessionOptions {
            clock: session_clock,
            ..SessionOptions::default()
        },
    )
    .expect("valid config");
    let (d, _) = session.run(&w0(), BUDGET, &pool()).into_design();
    assert!(d.price_bytes(e.catalog()) <= BUDGET);
    guard.memory().expect("memory sink captured").to_jsonl()
}

const SPEC: &str = "seed=1,rate=0.3";

#[test]
fn trace_is_byte_identical_across_reruns() {
    let _lock = telemetry_lock();
    let t1 = traced_run(SPEC);
    let t2 = traced_run(SPEC);
    assert!(!t1.is_empty(), "trace must capture events");
    assert_eq!(t1, t2, "same seed + virtual clock must replay identically");
}

#[test]
fn trace_is_byte_identical_across_thread_counts() {
    let _lock = telemetry_lock();
    let saved = current_threads();
    set_threads(1);
    let t1 = traced_run(SPEC);
    set_threads(8);
    let t8 = traced_run(SPEC);
    set_threads(saved);
    assert_eq!(t1, t8, "trace must not depend on the thread count");
}

fn golden_schema() -> TraceSchema {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/trace.schema.json"
    );
    TraceSchema::load(std::path::Path::new(path)).expect("golden schema loads")
}

#[test]
fn trace_validates_against_golden_schema() {
    let _lock = telemetry_lock();
    // A faulted run exercises the fault/retry/degraded events too.
    let trace = traced_run("fail@1,stall@2:40");
    let n = golden_schema()
        .check_trace(&trace)
        .unwrap_or_else(|errs| panic!("schema violations: {errs:?}"));
    assert!(n >= 3, "expected start + iters + finish, got {n} lines");
    assert!(trace.contains("\"cliffguard.core.session.start\""));
    assert!(trace.contains("\"cliffguard.core.descent.iter\""));
    assert!(trace.contains("\"cliffguard.core.session.finish\""));
    assert!(trace.contains("\"cliffguard.core.session.fault\""));
}

#[test]
fn metrics_snapshot_covers_every_layer() {
    let _lock = telemetry_lock();
    let session_clock = SessionClock::virtual_clock();
    let guard = install(TelemetryConfig {
        metrics: true,
        ..Default::default()
    })
    .expect("metrics-only install");
    let e = ColumnarEngine::new(catalog());
    let nominal = GreedyDesigner::new(&e, ColumnarCandidates, "DBD");
    let session = DesignSession::new(
        &e,
        Reliable(&nominal),
        DeltaEuclidean::new(12),
        CliffGuardConfig::new(0.01),
        SessionOptions {
            clock: session_clock,
            ..SessionOptions::default()
        },
    )
    .unwrap();
    let _ = session.run(&w0(), BUDGET, &pool()).into_design();
    let snap = guard.registry().expect("registry present").snapshot();
    assert!(snap.counter("cliffguard.core.sessions") >= Some(1));
    assert!(snap.counter("cliffguard.core.designer_attempts") >= Some(1));
    let calls = snap
        .histogram("cliffguard.core.designer_call_ms")
        .expect("designer-call histogram recorded");
    assert!(calls.count >= 1);
    assert!(calls.p95() >= calls.p50());
    assert!(
        snap.histogram("cliffguard.core.iter_ms").is_some(),
        "per-iteration timings recorded"
    );
    assert!(
        snap.histogram("cliffguard.core.sample_ms").is_some(),
        "neighborhood sampling timed"
    );
    // Deterministic, sorted JSON export round-trips through the shim.
    let json = snap.to_json();
    assert!(json.contains("cliffguard.core.designer_call_ms"));
}

#[test]
fn daemon_trace_validates_against_golden_schema() {
    use cliffguard::serve::harness::{design_line, ingest_line, ServeHarness};
    use cliffguard::serve::{testdata, IngestRequest};

    let _lock = telemetry_lock();
    let guard = trace_to_memory(TraceClock::default());
    // One design, an ingest stream in two frames (the second closes it
    // with `eof`), a status scrape and a shutdown.
    let (catalog, tape) = testdata::ingest_fixture(LogTapeConfig::default());
    let (head, tail) = tape.text().split_at(tape.text().len() / 2);
    let mut first = IngestRequest::new("stream", catalog, head);
    first.window = Some(tape.config().window_len as u64);
    let mut last = IngestRequest::chunk_only("stream", tail);
    last.eof = true;
    ServeHarness::new().run_tape(&[
        design_line(&testdata::design_request("acme", 7)),
        ingest_line(&first),
        ingest_line(&last),
        r#"{"op":"status"}"#.into(),
        r#"{"op":"shutdown"}"#.into(),
    ]);
    let trace = guard.memory().expect("memory sink captured").to_jsonl();
    golden_schema()
        .check_trace(&trace)
        .unwrap_or_else(|errs| panic!("schema violations: {errs:?}"));
    for name in ["request", "session.end", "ingest.window", "shutdown"] {
        let name = format!("\"cliffguard.serve.{name}\"");
        assert!(trace.contains(&name), "no {name} in the trace");
    }
}
