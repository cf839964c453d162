//! Golden bytes of every persisted format: the session checkpoint, the
//! replica audit, the ingest snapshot and the design report.
//!
//! Each format promises exact floats (IEEE-754 bit patterns) and a fixed
//! key order, and the files a daemon leaves in its state directory must
//! keep decoding across versions. These tests pin each format's bytes
//! for fixed values, byte for byte, and decode the pinned bytes back:
//! a codec change that moves one byte, or stops reading a file an
//! earlier build wrote, fails here.

use cliffguard_core::{CliffGuardTrace, DescentCheckpoint, FailoverEvent, ReplicaAudit};
use cliffguard_resilience::SessionClock;
use cliffguard_serve::protocol::{DesignReport, GammaSpec, IngestRequest};
use cliffguard_serve::{testdata, IngestSession};
use cliffguard_sim::ColumnarDesign;
use cliffguard_workload::{LogTape, LogTapeConfig};
use serde::{Deserialize, Serialize, Value};

const CHECKPOINT: &str = include_str!("golden/checkpoint.json");
const REPLICA_AUDIT: &str = include_str!("golden/replica_audit.json");
const INGEST_COUNT_FIXED: &str = include_str!("golden/ingest_count_fixed.json");
const INGEST_LOG_TIME_AUTO: &str = include_str!("golden/ingest_log_time_auto.json");
const REPORT_R1: &str = include_str!("golden/report_r1.json");
const REPORT_R3: &str = include_str!("golden/report_r3.json");

/// The checkpoint of `checkpoint_json_round_trip_is_bit_exact` (in
/// `cliffguard_core::session`): floats that do not survive a decimal
/// round trip, a degraded trace.
fn checkpoint() -> DescentCheckpoint<ColumnarDesign> {
    DescentCheckpoint {
        version: serde::Version,
        fingerprint: 0xdead_beef_cafe_f00d,
        next_iter: 2,
        alpha: 0.1 + 0.2,
        current_worst: 123.456_789_012_345_67,
        w0_cap: 1.15 * (1.0 / 3.0),
        stale: 1,
        accumulated: vec![3, 1, 7],
        attempts: 9,
        rng_words: 1234,
        design: ColumnarDesign::default(),
        trace: CliffGuardTrace {
            worst_case_per_iter: vec![0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE],
            designer_calls: 3,
            samples: 20,
            retries: 1,
            faults: 2,
            degraded: Some("retries exhausted at iteration 1".into()),
            resumed: false,
        },
    }
}

/// A three-replica audit with one crash and one slow failover.
fn replica_audit() -> ReplicaAudit {
    ReplicaAudit {
        replicas: 3,
        max_failures: 1,
        divergent: true,
        rounds_run: 3,
        crashed_mask: 0b010,
        slowed_mask: 0b001,
        set_fingerprint: 0x0123_4567_89ab_cdef,
        worst_mask: 0b011,
        worst_case: 0.1 + 0.2,
        uniform_worst_case: 1.0 / 3.0,
        live_cost: 2.5,
        routing_shares: vec![0.25, 0.0, 0.75],
        failovers: vec![
            FailoverEvent {
                round: 1,
                replica: 1,
                kind: "replica-crash",
                suppressed: false,
                rerouted_queries: 4,
                rerouted_weight: 7.5,
            },
            FailoverEvent {
                round: 2,
                replica: 0,
                kind: "replica-slow",
                suppressed: false,
                rerouted_queries: 2,
                rerouted_weight: 1.0 / 7.0,
            },
        ],
    }
}

fn report(replicas: u64) -> DesignReport {
    let fleet = replicas > 1;
    DesignReport {
        fingerprint: 0xfeed_face_0bad_f00d,
        structures: 2,
        price_bytes: 123_456_789,
        gamma: 0.1 + 0.2,
        budget_bytes: 500_000_000,
        designer_calls: 6,
        retries: 1,
        faults: 2,
        degraded: None,
        worst_case_bits: vec![(1.0f64 / 3.0).to_bits(), 0.5f64.to_bits()],
        ddl: "CREATE PROJECTION t0_proj_0 AS SELECT c0, c1 FROM t0 ORDER BY c0;\n".into(),
        replicas,
        replica_set_fingerprint: if fleet { 0x0123_4567_89ab_cdef } else { 0 },
        replica_audit: fleet.then(|| replica_audit().to_json()),
    }
}

/// A small drift-scripted tape and its catalog.
fn fixture() -> (Value, LogTape) {
    testdata::ingest_fixture(LogTapeConfig {
        tables: 2,
        cols_per_table: 4,
        windows: 6,
        window_len: 8,
        window_secs: 60,
        episodes: vec![3],
        statements_per_regime: 3,
        header_noise: false,
        ..LogTapeConfig::default()
    })
}

/// An ingest session fed a little over half its tape (the cut falls
/// mid-line, so the stream holds a carry), with `knobs` on its first
/// frame.
fn ingest_mid_tape(knobs: impl FnOnce(&mut IngestRequest, &LogTape)) -> IngestSession {
    let (catalog, tape) = fixture();
    let mut req = IngestRequest::new("acme", catalog, "");
    knobs(&mut req, &tape);
    let mut session = IngestSession::create(&req, SessionClock::virtual_clock()).unwrap();
    let text = tape.text();
    session.feed(&text.as_bytes()[..text.len() / 2 + 3], false);
    session
}

fn ingest_count_fixed() -> IngestSession {
    ingest_mid_tape(|req, tape| {
        req.window = Some(tape.config().window_len as u64);
        req.gamma = GammaSpec::Fixed(tape.suggested_gamma());
    })
}

fn ingest_log_time_auto() -> IngestSession {
    ingest_mid_tape(|req, tape| {
        req.window_secs = Some(tape.config().window_secs);
        req.gamma = GammaSpec::Auto;
    })
}

#[test]
fn checkpoint_bytes_are_pinned_and_decode() {
    let json = checkpoint().to_json();
    assert_eq!(json, CHECKPOINT);
    assert!(json.starts_with("{\n  \"version\": 1,"), "{json}");
    let back = DescentCheckpoint::<ColumnarDesign>::from_json(CHECKPOINT).expect("decodes");
    assert_eq!(back.to_json(), CHECKPOINT);
    assert_eq!(back.alpha.to_bits(), (0.1f64 + 0.2).to_bits());
    assert_eq!(back.trace, checkpoint().trace);
}

#[test]
fn replica_audit_bytes_are_pinned() {
    assert_eq!(replica_audit().to_json(), REPLICA_AUDIT);
}

#[test]
fn ingest_snapshot_bytes_are_pinned_and_decode() {
    for (session, golden) in [
        (ingest_count_fixed(), INGEST_COUNT_FIXED),
        (ingest_log_time_auto(), INGEST_LOG_TIME_AUTO),
    ] {
        assert_eq!(session.to_json(), golden);
        let back =
            IngestSession::from_json(golden, SessionClock::virtual_clock()).expect("decodes");
        assert_eq!(back.to_json(), golden);
    }
}

#[test]
fn design_report_bytes_are_pinned_and_decode() {
    for (replicas, golden) in [(1, REPORT_R1), (3, REPORT_R3)] {
        let report = report(replicas);
        assert_eq!(serde_json::to_string(&report).unwrap(), golden);
        let back: DesignReport = serde_json::from_str(golden).expect("decodes");
        assert_eq!(back, report);
    }
    // R = 1 writes no replica key, the shape of a report persisted before
    // replication existed: it decodes as an unreplicated run.
    for key in ["replicas", "replica_set_fingerprint", "replica_audit"] {
        assert!(!REPORT_R1.contains(key), "{key} in {REPORT_R1}");
    }
    let old: DesignReport = serde_json::from_str(REPORT_R1).expect("decodes");
    assert_eq!(
        (old.replicas, old.replica_set_fingerprint, old.replica_audit),
        (1, 0, None)
    );
    let v = report(1).to_value();
    assert_eq!(DesignReport::from_value(&v).unwrap(), report(1));
}
