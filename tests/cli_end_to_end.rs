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

/// The CLI with `CLIFFGUARD_FAULTS` set to `faults`, or removed on `None`,
/// whatever this process inherited (CI runs the suite under fault plans).
fn cli_with_faults(faults: Option<&str>) -> Command {
    let mut cmd = Command::new(bin());
    match faults {
        Some(v) => cmd.env("CLIFFGUARD_FAULTS", v),
        None => cmd.env_remove("CLIFFGUARD_FAULTS"),
    };
    cmd
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
fn a_blank_fault_variable_leaves_the_daemon_without_a_plan() {
    use cliffguard::serve::{harness::design_line, testdata};
    use std::io::Write;
    use std::process::Stdio;

    let tape = format!(
        "{}\n{{\"op\":\"shutdown\"}}\n",
        design_line(&testdata::design_request("t0", 7))
    );
    // Serves the tape with CLIFFGUARD_FAULTS set to `faults` (unset on
    // `None`) and returns the replies and the admitted request envelope.
    let serve = |name: &str, faults: Option<&str>| {
        let dir = tmpdir(name);
        let state = dir.join("state");
        let mut child = cli_with_faults(faults)
            .args(["serve", "--virtual-clock", "--state-dir"])
            .arg(&state)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(tape.as_bytes()).unwrap();
        drop(stdin);
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let request = state.join("tenants/t0/1/request.json");
        let envelope: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(request).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (String::from_utf8(out.stdout).unwrap(), envelope)
    };
    let (blank, envelope) = serve("blank-faults", Some("  "));
    let keys: Vec<&str> = envelope
        .as_map()
        .expect("the envelope is a JSON object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert!(keys.contains(&"catalog"), "{keys:?}");
    assert!(
        !keys.contains(&"faults"),
        "a blank variable named a plan: {keys:?}"
    );
    let (unset, _) = serve("unset-faults", None);
    assert!(blank.contains(r#""status":"done""#), "{blank}");
    assert_eq!(blank, unset);
}

#[test]
fn trace_report_matches_the_committed_golden() {
    let dir = tmpdir("trace-report");
    let run = |args: &[&str], faults: Option<&str>| {
        let out = cli_with_faults(faults)
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    // CI's `trace-report` recipe, step for step.
    run(
        &[
            "generate",
            "--profile",
            "R1",
            "--seed",
            "7",
            "--out",
            "log.tsv",
            "--catalog-out",
            "catalog.json",
        ],
        None,
    );
    run(
        &[
            "design",
            "--catalog",
            "catalog.json",
            "--log",
            "log.tsv",
            "--gamma",
            "auto",
            "--virtual-clock",
            "--log-level",
            "debug",
            "--trace-out",
            "trace.jsonl",
        ],
        Some("seed=1,rate=0.3"),
    );
    let report = run(&["trace", "report", "trace.jsonl", "--json"], None);
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/trace_report.golden.json"
    ))
    .unwrap();
    assert!(
        report == golden,
        "the trace report moved from schemas/trace_report.golden.json:\n{}",
        String::from_utf8_lossy(&report)
    );
    let _ = std::fs::remove_dir_all(&dir);
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

/// Runs `cliffguard ingest` on `catalog`/`log` with `flags` under the
/// virtual clock and returns its stdout.
fn ingest(catalog: &str, log: &str, flags: &[&str]) -> String {
    let out = Command::new(bin())
        .args([
            "ingest",
            "--catalog",
            catalog,
            "--log",
            log,
            "--virtual-clock",
        ])
        .args(flags)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "ingest {flags:?}: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn cli_ingest_and_the_daemon_run_one_path() {
    use cliffguard::serve::harness::{ingest_line, parse_output};
    use cliffguard::serve::{GammaSpec, IngestRequest, ServeHarness};
    use serde::Value;
    const PLAN: &str = "fail@1,stall@2:40,overbudget@3,empty@4,stale@5";
    let dir = tmpdir("ingest-one-path");
    let (catalog, log) = generate(&dir);
    let catalog_value: Value =
        serde_json::from_str(&std::fs::read_to_string(&catalog).unwrap()).unwrap();
    let text = std::fs::read_to_string(&log).unwrap();
    let half = text.len() / 2;

    // The daemon, fed the log in two frames plus `eof`, closes the same
    // windows with the same audit lines as the CLI.
    for (flags, window, window_secs, gamma) in [
        (
            &["--window", "64", "--gamma", "auto"][..],
            Some(64),
            None,
            GammaSpec::Auto,
        ),
        (
            &["--window", "17", "--gamma", "0.0001"][..],
            Some(17),
            None,
            GammaSpec::Fixed(0.0001),
        ),
        (
            &["--window-secs", "86400"][..],
            None,
            Some(86400),
            GammaSpec::Auto,
        ),
    ] {
        let mut first = IngestRequest::new("t", catalog_value.clone(), &text[..half]);
        (first.window, first.window_secs, first.gamma) = (window, window_secs, gamma);
        let mut last = IngestRequest::chunk_only("t", "");
        last.eof = true;
        let frames = [first, IngestRequest::chunk_only("t", &text[half..]), last];
        let tape: Vec<String> = frames.iter().map(ingest_line).collect();
        let daemon: Vec<String> = parse_output(&ServeHarness::new().run_tape(&tape))
            .iter()
            .flat_map(
                |reply| match reply.as_map().map(|m| serde::map_get(m, "audits")) {
                    Some(Value::Seq(lines)) => lines.clone(),
                    _ => panic!("not an ingest reply: {reply:?}"),
                },
            )
            .map(|line| match line {
                Value::Str(s) => s,
                other => panic!("audit line: {other:?}"),
            })
            .collect();
        let cli = ingest(&catalog, &log, flags);
        let cli: Vec<&str> = cli.lines().filter(|l| l.starts_with('W')).collect();
        assert!(!cli.is_empty(), "{flags:?}");
        assert_eq!(cli, daemon, "{flags:?}");
    }

    // A trigger's inputs are captured at the close that fired it, so the
    // whole output, redesigns included, does not depend on where the reads
    // end.
    let designed = |chunk: &str| {
        let flags = ["--window", "64", "--gamma", "auto", "--faults", PLAN];
        ingest(
            &catalog,
            &log,
            &[&flags[..], &["--chunk-bytes", chunk]].concat(),
        )
    };
    let small = designed("1024");
    assert!(small.lines().any(|l| l.starts_with('T')), "{small}");
    assert_eq!(small, designed("1048576"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_trigger_before_a_log_time_gap_still_redesigns() {
    // Windows 0–1 repeat five of the log's statements and window 2 five
    // others, 20 arrivals per 100 s window; the next arrival comes at
    // t = 1000 (closing window 2 and padding 3–9 empty) or, without the
    // gap, at t = 300. Window 2 fires either way, and its redesign must
    // run on window 2 itself.
    let dir = tmpdir("ingest-gap");
    let (catalog, log) = generate(&dir);
    let text = std::fs::read_to_string(&log).unwrap();
    let mut statements: Vec<&str> = Vec::new();
    for sql in text
        .lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(_, sql)| sql)
    {
        if !statements.contains(&sql) {
            statements.push(sql);
        }
    }
    let run = |last_ts: u64| {
        let mut tsv = String::new();
        for w in 0..3usize {
            let regime = if w < 2 {
                &statements[..5]
            } else {
                &statements[5..10]
            };
            for i in 0..20 {
                tsv.push_str(&format!("{}\t{}\n", w * 100 + i * 5, regime[i % 5]));
            }
        }
        tsv.push_str(&format!("{last_ts}\t{}\n", statements[0]));
        let path = dir.join(format!("gap-{last_ts}.tsv"));
        std::fs::write(&path, tsv).unwrap();
        let flags = ["--window-secs", "100", "--gamma", "0.0001"];
        ingest(&catalog, path.to_str().unwrap(), &flags)
    };
    let t2_after_w2 = |out: &str| {
        let lines: Vec<&str> = out.lines().collect();
        let w2 = lines.iter().position(|l| l.starts_with("W2 ")).expect("W2");
        assert!(lines[w2].contains(" trigger=1 "), "{out}");
        assert!(lines[w2 + 1].starts_with("T2 "), "no T2 after W2:\n{out}");
        lines[w2 + 1].to_string()
    };
    let gap = run(1000);
    assert!(gap.contains("\nW9 arrivals=0 "), "{gap}");
    assert_eq!(t2_after_w2(&gap), t2_after_w2(&run(300)));
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

/// `cliffguard design` refuses a catalog whose `offsets` disagree with its
/// tables (emptied, or all zero) or whose table has no columns: exit 1
/// and `bad catalog`, not a panic and not a design for the wrong columns.
#[test]
fn design_refuses_a_corrupt_catalog() {
    let dir = tmpdir("corrupt-catalog");
    let (catalog, log) = generate(&dir);
    let good: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&catalog).unwrap()).unwrap();
    let with = |key: &str, edit: &dyn Fn(&mut serde::Value)| {
        let serde::Value::Map(mut m) = good.clone() else {
            panic!("a catalog is a JSON object");
        };
        edit(&mut m.iter_mut().find(|(k, _)| k == key).expect("key present").1);
        serde::Value::Map(m)
    };
    let empty = with("offsets", &|v| *v = serde::Value::Seq(vec![]));
    let zeros = with("offsets", &|v| {
        if let serde::Value::Seq(items) = v {
            items.iter_mut().for_each(|o| *o = serde::Value::U64(0));
        }
    });
    let no_columns = with("tables", &|v| {
        let serde::Value::Seq(tables) = v else {
            panic!("tables is an array");
        };
        let serde::Value::Map(table) = &mut tables[0] else {
            panic!("a table is an object");
        };
        table.iter_mut().find(|(k, _)| k == "columns").unwrap().1 = serde::Value::Seq(vec![]);
    });
    for (what, bad) in [
        ("empty offsets", empty),
        ("zero offsets", zeros),
        ("no columns", no_columns),
    ] {
        let path = dir.join("bad.json");
        std::fs::write(&path, serde_json::to_string(&bad).unwrap()).unwrap();
        let out = Command::new(bin())
            .args(["design", "--catalog", path.to_str().unwrap(), "--log", &log])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(stderr.contains("bad catalog"), "{what}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
