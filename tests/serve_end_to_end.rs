//! End-to-end tests of the `cliffguard serve` daemon.
//!
//! All runs go through the deterministic [`ServeHarness`]: virtual
//! clocks, scripted request tapes, in-memory I/O. The assertions are the
//! daemon's core promises — daemon output equals one-shot pipeline
//! output bit-for-bit, output is byte-identical across worker counts and
//! reruns, killed sessions resume bit-identically from the state
//! directory, and every request terminates in a response under every
//! fault plan.

use cliffguard_serve::harness::{design_line, design_reports, parse_output, ServeHarness};
use cliffguard_serve::{run_design, testdata, RunOutcome, RunnerOptions};
use serde::{map_get, Value};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;

/// The CI fault matrix: the same three plans the `fault-matrix` job
/// exports as `CLIFFGUARD_FAULTS` (keep in sync with
/// `.github/workflows/ci.yml` and `tests/resilience.rs`).
const FAULT_SPECS: [&str; 3] = [
    "seed=101,rate=0.3",
    "seed=202,rate=0.6,stall-ms=20",
    "fail@1,stall@2:40,overbudget@3,empty@4,stale@5",
];

const TENANT_SEEDS: [(&str, u64); 4] = [("acme", 11), ("bravo", 22), ("corp", 33), ("delta", 44)];

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cliffguard-serve-e2e-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tenant_tape() -> Vec<String> {
    let mut tape: Vec<String> = TENANT_SEEDS
        .iter()
        .map(|(tenant, seed)| design_line(&testdata::design_request(tenant, *seed)))
        .collect();
    tape.push(r#"{"op":"drain"}"#.into());
    tape
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    map_get(v.as_map().expect("response is an object"), key)
}

fn str_field(v: &Value, key: &str) -> String {
    match field(v, key) {
        Value::Str(s) => s.clone(),
        other => panic!("field {key}: expected string, got {other:?}"),
    }
}

fn u64_field(v: &Value, key: &str) -> u64 {
    match field(v, key) {
        Value::U64(n) => *n,
        other => panic!("field {key}: expected u64, got {other:?}"),
    }
}

#[test]
fn concurrent_tenants_match_one_shot_pipeline_at_1_and_8_workers() {
    // Ground truth: each tenant's request run one-shot, no daemon.
    let expected: Vec<u64> = TENANT_SEEDS
        .iter()
        .map(|(tenant, seed)| {
            let req = testdata::design_request(tenant, *seed);
            match run_design(&req, &RunnerOptions::default(), None, &mut |_| {}) {
                RunOutcome::Done(run) => run.report().fingerprint,
                other => panic!("one-shot run for {tenant} did not finish: {other:?}"),
            }
        })
        .collect();

    let tape = tenant_tape();
    let out1 = ServeHarness::new().with_max_concurrent(1).run_tape(&tape);
    let out8 = ServeHarness::new().with_max_concurrent(8).run_tape(&tape);
    assert_eq!(
        out1, out8,
        "worker count must be unobservable in the output stream"
    );

    let responses = parse_output(&out1);
    assert_eq!(responses.len(), TENANT_SEEDS.len() + 1, "{out1}");
    for (i, (tenant, _)) in TENANT_SEEDS.iter().enumerate() {
        let resp = &responses[i];
        assert_eq!(str_field(resp, "status"), "done", "tenant {tenant}");
        assert_eq!(str_field(resp, "tenant"), *tenant);
        assert_eq!(u64_field(resp, "seq"), i as u64 + 1, "admission order");
        let report = field(resp, "report");
        assert_eq!(
            u64_field(report, "fingerprint"),
            expected[i],
            "daemon design for {tenant} must be bit-identical to the one-shot pipeline"
        );
        assert!(u64_field(report, "structures") > 0);
    }
    assert_eq!(
        u64_field(&responses[TENANT_SEEDS.len()], "completed"),
        TENANT_SEEDS.len() as u64
    );

    // And the whole stream is reproducible.
    assert_eq!(
        out1,
        ServeHarness::new().with_max_concurrent(1).run_tape(&tape)
    );
}

#[test]
fn killed_daemon_resumes_bit_identically_from_state_dir() {
    let tape = tenant_tape();

    // Reference: an uninterrupted daemon on its own state directory.
    let clean_dir = tmpdir("clean");
    let clean_out = ServeHarness::new()
        .with_state_dir(&clean_dir)
        .run_tape(&tape);
    let clean_reports = design_reports(&clean_out);
    assert_eq!(clean_reports.len(), TENANT_SEEDS.len(), "{clean_out}");

    // Kill: every session aborts before iteration 1, checkpoints persist,
    // no design responses are emitted.
    let kill_dir = tmpdir("killed");
    let killed_out = ServeHarness::new()
        .with_state_dir(&kill_dir)
        .with_kill_after(1)
        .run_tape(&tape);
    assert!(
        design_reports(&killed_out).is_empty(),
        "killed sessions must not answer: {killed_out}"
    );

    // Restart on the same directory: pending sessions are re-admitted in
    // original order and complete before the new drain frame answers.
    let restart_out = ServeHarness::new()
        .with_state_dir(&kill_dir)
        .run_tape(&[r#"{"op":"drain"}"#.into()]);
    let responses = parse_output(&restart_out);
    assert_eq!(responses.len(), TENANT_SEEDS.len() + 1, "{restart_out}");
    for (i, (tenant, _)) in TENANT_SEEDS.iter().enumerate() {
        let resp = &responses[i];
        assert_eq!(str_field(resp, "tenant"), *tenant);
        assert_eq!(str_field(resp, "status"), "done");
        assert_eq!(field(resp, "resumed"), &Value::Bool(true));
        assert_eq!(
            u64_field(resp, "seq"),
            i as u64 + 1,
            "resumed sessions keep their original sequence numbers"
        );
    }

    // The audit trail — final design, worst-case trace, call counts, DDL —
    // is byte-identical to the uninterrupted run's.
    assert_eq!(design_reports(&restart_out), clean_reports);

    // A second restart finds nothing pending: results were persisted.
    let idle_out = ServeHarness::new()
        .with_state_dir(&kill_dir)
        .run_tape(&[r#"{"op":"drain"}"#.into()]);
    assert!(
        design_reports(&idle_out).is_empty(),
        "completed sessions must not re-run: {idle_out}"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

#[test]
fn every_fault_plan_terminates_every_request() {
    for spec in FAULT_SPECS {
        let mut tape: Vec<String> = TENANT_SEEDS[..2]
            .iter()
            .map(|(tenant, seed)| design_line(&testdata::design_request(tenant, *seed)))
            .collect();
        tape.push("definitely not json".into());
        tape.push(r#"{"op":"drain"}"#.into());
        let harness = ServeHarness::new().with_faults(spec);
        let out = harness.run_tape(&tape);
        let responses = parse_output(&out);
        // One response per frame: garbage gets `error`, every design
        // request terminates — no panics, no silent drops.
        assert_eq!(responses.len(), tape.len(), "plan `{spec}`: {out}");
        let mut design_count = 0;
        for resp in &responses {
            match str_field(resp, "op").as_str() {
                "design" => {
                    design_count += 1;
                    let status = str_field(resp, "status");
                    assert!(
                        ["done", "degraded", "rejected"].contains(&status.as_str()),
                        "plan `{spec}`: unexpected terminal status {status}"
                    );
                }
                "error" | "drain" => {}
                other => panic!("plan `{spec}`: unexpected op {other}"),
            }
        }
        assert_eq!(design_count, 2, "plan `{spec}`: {out}");
        // Faulty runs are still deterministic.
        assert_eq!(out, harness.run_tape(&tape), "plan `{spec}`");
    }
}

#[test]
fn per_request_fault_spec_shows_up_in_the_audit() {
    let (tenant, seed) = TENANT_SEEDS[0];
    let mut req = testdata::design_request(tenant, seed);
    req.faults = Some("fail@1,fail@2".into());
    let out = ServeHarness::new().run_tape(&[design_line(&req), r#"{"op":"drain"}"#.into()]);
    let responses = parse_output(&out);
    let report = field(&responses[0], "report");
    assert_eq!(u64_field(report, "faults"), 2, "{out}");
    assert_eq!(u64_field(report, "retries"), 2, "{out}");
    // Retries absorb the faults: same design as a clean run.
    let clean = testdata::design_request(tenant, seed);
    let RunOutcome::Done(clean_run) =
        run_design(&clean, &RunnerOptions::default(), None, &mut |_| {})
    else {
        panic!("clean run must finish");
    };
    assert_eq!(
        u64_field(report, "fingerprint"),
        clean_run.report().fingerprint
    );
}

#[test]
fn dropped_tcp_client_does_not_kill_the_daemon() {
    use cliffguard_serve::{Daemon, ServeConfig};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut daemon = Daemon::new(ServeConfig {
            virtual_time: true,
            ..ServeConfig::default()
        })
        .expect("daemon builds");
        daemon
            .serve_tcp(listener)
            .expect("a dropped client must not end the daemon");
    });

    // First client admits a session and vanishes without ever reading —
    // the daemon hits end-of-input (or a broken pipe at the final drain
    // barrier) with a response it cannot deliver, absorbs it, and keeps
    // accepting.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone stream");
        let (tenant, seed) = TENANT_SEEDS[1];
        writeln!(
            writer,
            "{}",
            design_line(&testdata::design_request(tenant, seed))
        )
        .unwrap();
        writer.flush().unwrap();
    }

    // Second client gets a full request/response cycle.
    let stream = TcpStream::connect(addr).expect("reconnect after a dropped client");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let (tenant, seed) = TENANT_SEEDS[2];
    writeln!(
        writer,
        "{}",
        design_line(&testdata::design_request(tenant, seed))
    )
    .unwrap();
    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    writer.flush().unwrap();
    let mut design_resp = String::new();
    reader.read_line(&mut design_resp).unwrap();
    assert!(design_resp.contains(r#""status":"done""#), "{design_resp}");
    assert!(design_resp.contains(&format!(r#""tenant":"{tenant}""#)));
    let mut shutdown_resp = String::new();
    reader.read_line(&mut shutdown_resp).unwrap();
    assert!(
        shutdown_resp.contains(r#""op":"shutdown""#),
        "{shutdown_resp}"
    );
    server.join().expect("server thread exits after shutdown");
}

#[test]
fn tcp_scrape_connections_get_an_immediate_snapshot_and_a_clean_close() {
    use cliffguard_serve::{Daemon, ServeConfig};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut daemon = Daemon::new(ServeConfig {
            virtual_time: true,
            ..ServeConfig::default()
        })
        .expect("daemon builds");
        daemon.serve_tcp(listener).expect("serve_tcp runs");
    });

    // A monitoring client sends a bare status/metrics frame and — unlike
    // a protocol client — never half-closes its write side. The daemon
    // must answer from the live snapshot and close the connection itself;
    // without the scrape fast path this client would wedge the daemon.
    for op in ["status", "metrics"] {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);
        writeln!(writer, r#"{{"op":"{op}"}}"#).unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("scrape answered");
        assert!(resp.contains(&format!(r#""op":"{op}""#)), "{resp}");
        let mut rest = String::new();
        let n = reader
            .read_line(&mut rest)
            .expect("read until server close");
        assert_eq!(n, 0, "server must close the scrape connection: {rest}");
    }

    // The daemon is still fully functional for protocol clients.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let (tenant, seed) = TENANT_SEEDS[0];
    writeln!(
        writer,
        "{}",
        design_line(&testdata::design_request(tenant, seed))
    )
    .unwrap();
    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    writer.flush().unwrap();
    let mut design_resp = String::new();
    reader.read_line(&mut design_resp).unwrap();
    assert!(design_resp.contains(r#""status":"done""#), "{design_resp}");
    server.join().expect("server thread exits after shutdown");
}

#[test]
fn tcp_listener_serves_the_same_protocol() {
    use cliffguard_serve::{Daemon, ServeConfig};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut daemon = Daemon::new(ServeConfig {
            virtual_time: true,
            ..ServeConfig::default()
        })
        .expect("daemon builds");
        daemon.serve_tcp(listener).expect("serve_tcp runs");
    });

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let (tenant, seed) = TENANT_SEEDS[0];
    writeln!(
        writer,
        "{}",
        design_line(&testdata::design_request(tenant, seed))
    )
    .unwrap();
    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    writer.flush().unwrap();

    let mut design_resp = String::new();
    reader.read_line(&mut design_resp).unwrap();
    assert!(design_resp.contains(r#""status":"done""#), "{design_resp}");
    assert!(design_resp.contains(&format!(r#""tenant":"{tenant}""#)));
    let mut shutdown_resp = String::new();
    reader.read_line(&mut shutdown_resp).unwrap();
    assert!(
        shutdown_resp.contains(r#""op":"shutdown""#),
        "{shutdown_resp}"
    );
    server.join().expect("server thread exits after shutdown");
}

// ------------------------------------------------------- streaming ingest --

use cliffguard_serve::harness::ingest_line;
use cliffguard_serve::{GammaSpec, IngestRequest};
use cliffguard_workload::{LogTape, LogTapeConfig};

/// Renders `tape` as `n_frames` ingest protocol lines for `tenant`,
/// cutting the text at deliberately awkward offsets (mid-line). The
/// first frame carries the catalog and the window/Γ knobs; the last
/// carries `eof`.
fn ingest_frames(tenant: &str, catalog: &Value, tape: &LogTape, n_frames: usize) -> Vec<String> {
    let text = tape.text();
    let step = text.len() / n_frames;
    let mut cuts: Vec<usize> = (1..n_frames)
        .map(|i| (i * step + 3).min(text.len()))
        .collect();
    cuts.push(text.len());
    let mut frames = Vec::new();
    let mut prev = 0usize;
    for (i, &cut) in cuts.iter().enumerate() {
        let chunk = &text[prev..cut];
        let mut req = if i == 0 {
            let mut r = IngestRequest::new(tenant, catalog.clone(), chunk);
            r.window = Some(tape.config().window_len as u64);
            r.gamma = GammaSpec::Fixed(tape.suggested_gamma());
            r
        } else {
            IngestRequest::chunk_only(tenant, chunk)
        };
        req.eof = i == cuts.len() - 1;
        frames.push(ingest_line(&req));
        prev = cut;
    }
    frames
}

/// Concatenates the `audits` arrays of every ingest response, in order.
fn ingest_audits(out: &str) -> Vec<String> {
    parse_output(out)
        .iter()
        .filter(|v| str_field(v, "op") == "ingest")
        .flat_map(|v| match field(v, "audits") {
            Value::Seq(items) => items
                .iter()
                .map(|a| match a {
                    Value::Str(s) => s.clone(),
                    other => panic!("audit line: expected string, got {other:?}"),
                })
                .collect::<Vec<_>>(),
            other => panic!("audits: expected array, got {other:?}"),
        })
        .collect()
}

#[test]
fn ingest_frames_close_windows_and_fire_exactly_on_the_scripted_episodes() {
    let (catalog, tape) = testdata::ingest_fixture(LogTapeConfig::default());
    let episodes: Vec<u64> = tape.episodes().iter().map(|&e| e as u64).collect();

    let harness = ServeHarness::new();
    let coarse = harness.run_tape(&ingest_frames("acme", &catalog, &tape, 3));
    let audits = ingest_audits(&coarse);
    assert_eq!(
        audits.len(),
        tape.config().windows,
        "every scripted window must close: {coarse}"
    );

    // The last response carries the cumulative trigger history.
    let responses = parse_output(&coarse);
    let last = responses.last().unwrap();
    assert_eq!(field(last, "closed"), &Value::Bool(true));
    let triggers: Vec<u64> = match field(last, "triggers") {
        Value::Seq(items) => items
            .iter()
            .map(|v| match v {
                Value::U64(n) => *n,
                other => panic!("trigger index: {other:?}"),
            })
            .collect(),
        other => panic!("triggers: {other:?}"),
    };
    assert_eq!(triggers, episodes, "zero false triggers: {coarse}");

    // Frame boundaries are unobservable: 17 awkward frames replay the
    // identical audit stream.
    let fine = harness.run_tape(&ingest_frames("acme", &catalog, &tape, 17));
    assert_eq!(ingest_audits(&fine), audits, "frame count must not matter");
}

#[test]
fn killed_daemon_resumes_ingest_with_an_identical_trigger_history() {
    let (catalog, tape) = testdata::ingest_fixture(LogTapeConfig::default());
    let frames = ingest_frames("acme", &catalog, &tape, 6);

    // Ground truth: one daemon sees the whole tape.
    let clean = ServeHarness::new().run_tape(&frames);
    let want = ingest_audits(&clean);
    assert_eq!(want.len(), tape.config().windows);

    // Kill mid-stream: daemon #1 ingests half the frames (no eof) and
    // dies at end of input; the session snapshot is on disk.
    let dir = tmpdir("ingest-resume");
    let first_out = ServeHarness::new()
        .with_state_dir(&dir)
        .run_tape(&frames[..3]);
    let mut got = ingest_audits(&first_out);

    // Daemon #2 on the same state directory: the next chunk-only frame
    // lazily reloads the snapshot and the stream continues byte-exactly.
    let second_out = ServeHarness::new()
        .with_state_dir(&dir)
        .run_tape(&frames[3..]);
    got.extend(ingest_audits(&second_out));
    assert_eq!(
        got, want,
        "kill/resume must replay the audit and trigger history byte-identically"
    );
    let last = parse_output(&second_out);
    let last = last.last().unwrap();
    let episodes: Vec<u64> = tape.episodes().iter().map(|&e| e as u64).collect();
    let triggers: Vec<u64> = match field(last, "triggers") {
        Value::Seq(items) => items
            .iter()
            .map(|v| match v {
                Value::U64(n) => *n,
                other => panic!("trigger index: {other:?}"),
            })
            .collect(),
        other => panic!("triggers: {other:?}"),
    };
    assert_eq!(triggers, episodes);

    // eof tore the snapshot down: a fresh chunk-only frame for the same
    // tenant now needs a catalog again.
    let probe = ServeHarness::new()
        .with_state_dir(&dir)
        .run_tape(&[ingest_line(&IngestRequest::chunk_only(
            "acme",
            "1\tSELECT c0 FROM t0\n",
        ))]);
    let probe_resp = parse_output(&probe);
    assert_eq!(str_field(&probe_resp[0], "op"), "error", "{probe}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_catalog_frame_resets_a_stale_abandoned_session() {
    let (catalog, tape) = testdata::ingest_fixture(LogTapeConfig::default());
    let frames = ingest_frames("acme", &catalog, &tape, 6);
    let want = ingest_audits(&ServeHarness::new().run_tape(&frames));

    // Abandon a session mid-tape (no eof): its snapshot stays on disk.
    let dir = tmpdir("ingest-reset");
    let _ = ServeHarness::new()
        .with_state_dir(&dir)
        .run_tape(&frames[..3]);

    // A client starting over sends a fresh catalog-bearing first frame:
    // the stale snapshot must not shadow it — the whole tape replays
    // from window 0 exactly as on a clean daemon, with the new frame's
    // knobs in effect.
    let out = ServeHarness::new().with_state_dir(&dir).run_tape(&frames);
    assert_eq!(
        ingest_audits(&out),
        want,
        "a catalog frame must discard the abandoned session"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
