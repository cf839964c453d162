//! End-to-end test of the `cliffguard` CLI binary: generate → stats →
//! design → evaluate over real files in a temp directory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cliffguard")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cliffguard-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a four-window R1 log (seed 7) and its catalog into `dir`,
/// returning their paths as `(catalog, log)`.
fn generate(dir: &Path) -> (String, String) {
    let (catalog, log) = (dir.join("catalog.json"), dir.join("log.tsv"));
    let (catalog, log) = (catalog.to_str().unwrap(), log.to_str().unwrap());
    let out = Command::new(bin())
        .args([
            "generate",
            "--profile",
            "R1",
            "--seed",
            "7",
            "--windows",
            "4",
        ])
        .args(["--scale", "0.2", "--out", log, "--catalog-out", catalog])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (catalog.to_string(), log.to_string())
}

/// Runs `cmd` with `flags` on a freshly generated catalog and log and
/// expects a refusal: exit code 1 and a message containing `why`.
fn assert_refused(cmd: &str, flags: &[&str], why: &str) {
    let dir = tmpdir(&format!("refused-{cmd}{}", flags.concat()));
    let (catalog, log) = generate(&dir);
    let out = Command::new(bin())
        .args([cmd, "--catalog", &catalog, "--log", &log])
        .args(flags)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{cmd} {flags:?}: {stderr}");
    assert!(stderr.contains(why), "{cmd} {flags:?}: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generate_stats_design_evaluate_pipeline() {
    let dir = tmpdir("pipeline");
    let log = dir.join("log.tsv");
    let catalog = dir.join("catalog.json");

    // generate
    let out = Command::new(bin())
        .args([
            "generate",
            "--profile",
            "R1",
            "--seed",
            "5",
            "--windows",
            "4",
            "--scale",
            "0.2",
            "--out",
            log.to_str().unwrap(),
            "--catalog-out",
            catalog.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(log.exists() && catalog.exists());
    let log_text = std::fs::read_to_string(&log).unwrap();
    assert!(log_text.lines().count() > 100);
    assert!(log_text.contains('\t'));

    // stats
    let out = Command::new(bin())
        .args([
            "stats",
            "--catalog",
            catalog.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inter-window delta"), "{stdout}");
    assert!(stdout.contains("suggested gamma"), "{stdout}");

    // design (robust) emits projection DDL
    let out = Command::new(bin())
        .args([
            "design",
            "--catalog",
            catalog.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--gamma",
            "auto",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ddl = String::from_utf8_lossy(&out.stdout);
    assert!(ddl.contains("CREATE PROJECTION"), "{ddl}");
    assert!(ddl.contains("ORDER BY"), "{ddl}");

    // design (nominal) also works
    let out = Command::new(bin())
        .args([
            "design",
            "--catalog",
            catalog.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--nominal",
            "true",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_design_is_deterministic_and_schema_valid() {
    let dir = tmpdir("telemetry");
    let log = dir.join("log.tsv");
    let catalog = dir.join("catalog.json");
    let out = Command::new(bin())
        .args([
            "generate",
            "--profile",
            "R1",
            "--seed",
            "5",
            "--windows",
            "4",
            "--scale",
            "0.2",
            "--out",
            log.to_str().unwrap(),
            "--catalog-out",
            catalog.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Two traced, fault-injected runs at different thread counts on the
    // virtual clock: byte-identical trace and DDL, valid metrics JSON.
    let run = |trace: &PathBuf, metrics: &PathBuf, threads: &str| {
        let out = Command::new(bin())
            .args([
                "design",
                "--catalog",
                catalog.to_str().unwrap(),
                "--log",
                log.to_str().unwrap(),
                "--gamma",
                "auto",
                "--virtual-clock",
                "--log-level",
                "debug",
                "--threads",
                threads,
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
            ])
            .env("CLIFFGUARD_FAULTS", "seed=1,rate=0.3")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let (t1, m1) = (dir.join("t1.jsonl"), dir.join("m1.json"));
    let (t2, m2) = (dir.join("t2.jsonl"), dir.join("m2.json"));
    let ddl1 = run(&t1, &m1, "1");
    let ddl2 = run(&t2, &m2, "8");
    assert_eq!(ddl1, ddl2, "DDL must not depend on the thread count");
    let trace1 = std::fs::read_to_string(&t1).unwrap();
    let trace2 = std::fs::read_to_string(&t2).unwrap();
    assert_eq!(trace1, trace2, "trace must be byte-identical at 1 vs 8");
    assert!(trace1.contains("\"cliffguard.core.descent.iter\""));
    let metrics = std::fs::read_to_string(&m1).unwrap();
    assert!(metrics.contains("cliffguard.core.designer_call_ms"));

    // validate-trace accepts the emitted trace against the golden schema.
    let schema = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/trace.schema.json"
    );
    let out = Command::new(bin())
        .args([
            "validate-trace",
            "--trace",
            t1.to_str().unwrap(),
            "--schema",
            schema,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A corrupted line is rejected with a line number.
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, format!("{trace1}{{\"t\":0,\"bogus\":1}}\n")).unwrap();
    let out = Command::new(bin())
        .args([
            "validate-trace",
            "--trace",
            bad.to_str().unwrap(),
            "--schema",
            schema,
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema violation"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_daemon_round_trips_over_stdin() {
    use cliffguard::serve::{harness::design_line, testdata};
    use std::io::Write;
    use std::process::Stdio;

    let mut child = Command::new(bin())
        .args(["serve", "--virtual-clock", "--max-concurrent", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        "{}",
        design_line(&testdata::design_request("acme", 7))
    )
    .unwrap();
    writeln!(stdin, r#"{{"op":"metrics"}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"shutdown"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains(r#""status":"done""#), "{}", lines[0]);
    assert!(lines[0].contains(r#""tenant":"acme""#), "{}", lines[0]);
    assert!(lines[1].contains(r#""op":"metrics""#), "{}", lines[1]);
    // The daemon keeps a metrics registry even without --metrics-out, so
    // the `metrics` verb reports real counters.
    assert!(lines[1].contains("cliffguard.serve"), "{}", lines[1]);
    assert!(lines[2].contains(r#""op":"shutdown""#), "{}", lines[2]);
}

#[test]
fn duplicate_flags_are_rejected() {
    let out = Command::new(bin())
        .args([
            "stats",
            "--catalog",
            "a.json",
            "--catalog",
            "b.json",
            "--log",
            "l.tsv",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--catalog"), "{stderr}");
    assert!(stderr.contains("more than once"), "{stderr}");
}

#[test]
fn cli_rejects_bad_input() {
    // unknown command
    let out = Command::new(bin()).arg("frobnicate").output().unwrap();
    assert!(!out.status.success());

    // missing flags
    let out = Command::new(bin()).arg("design").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required flag"));

    // unreadable catalog
    let out = Command::new(bin())
        .args([
            "stats",
            "--catalog",
            "/nonexistent.json",
            "--log",
            "/nonexistent.tsv",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = Command::new(bin()).arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

#[test]
fn cli_design_and_the_daemon_run_one_path() {
    use cliffguard::serve::{run_design, DesignReport, DesignRequest, RunOutcome, RunnerOptions};
    // Pinned on both sides: `--faults` outranks CLIFFGUARD_FAULTS, and a
    // request's own plan is the only one the runner reads.
    const PLAN: &str = "fail@1,stall@2:40,overbudget@3,empty@4,stale@5";
    let dir = tmpdir("one-path");
    let (catalog, log) = generate(&dir);
    let cli = |extra: &[&str]| {
        let out = Command::new(bin())
            .args(["design", "--catalog", &catalog, "--log", &log])
            .args(["--virtual-clock", "--faults", PLAN])
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{stderr}");
        (String::from_utf8(out.stdout).unwrap(), stderr)
    };
    let daemon = |replicas: u64, max_failures: u64| -> DesignReport {
        let catalog = serde_json::from_str(&std::fs::read_to_string(&catalog).unwrap()).unwrap();
        let mut req = DesignRequest::new("t", catalog, std::fs::read_to_string(&log).unwrap());
        req.seed = 0;
        req.faults = Some(PLAN.into());
        req.replicas = replicas;
        req.max_failures = max_failures;
        match run_design(&req, &RunnerOptions::default(), None, &mut |_| {}) {
            RunOutcome::Done(run) => run.report(),
            other => panic!("the daemon's run did not finish: {other:?}"),
        }
    };

    let (ddl, _) = cli(&[]);
    assert!(!ddl.is_empty());
    assert_eq!(ddl, daemon(1, 0).ddl);

    let (_, stderr) = cli(&["--replicas", "3", "--max-failures", "1"]);
    let audit = stderr
        .lines()
        .find_map(|l| l.strip_prefix("fleet audit: "))
        .unwrap_or_else(|| panic!("no fleet audit line in {stderr}"));
    assert_eq!(Some(audit), daemon(3, 1).replica_audit.as_deref());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn design_refuses_a_non_finite_gamma() {
    for gamma in ["nan", "inf"] {
        assert_refused("design", &["--gamma", gamma], "gamma must be finite");
    }
}

#[test]
fn zero_window_days_is_refused_not_a_panic() {
    for cmd in ["stats", "design", "evaluate"] {
        assert_refused(cmd, &["--window-days", "0"], "bad --window-days `0`");
    }
}

#[test]
fn non_numeric_window_days_is_refused() {
    let why = "bad --window-days `abc`";
    assert_refused("design", &["--window-days", "abc"], why);
}

#[test]
fn window_days_whose_seconds_overflow_u64_are_refused() {
    // 213503982334602 days × 86400 wraps to 61184 s unchecked.
    let why = "bad --window-days `213503982334602`";
    assert_refused("design", &["--window-days", "213503982334602"], why);
}

#[test]
fn ingest_refuses_a_non_finite_gamma() {
    for gamma in ["inf", "-inf", "nan"] {
        let why = "gamma must be a finite number >= 0";
        assert_refused("ingest", &["--gamma", gamma], why);
    }
}

/// The protocol's refusal of `"budget":0`.
const ZERO_BUDGET: &str = r#"budget must be "auto" or a positive integer"#;

#[test]
fn design_refuses_a_zero_budget() {
    assert_refused("design", &["--budget", "0"], ZERO_BUDGET);
}

#[test]
fn evaluate_refuses_a_zero_budget() {
    assert_refused("evaluate", &["--budget", "0"], ZERO_BUDGET);
}

#[test]
fn ingest_refuses_a_zero_budget() {
    assert_refused("ingest", &["--budget", "0"], ZERO_BUDGET);
}
