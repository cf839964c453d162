//! `perf` — the end-to-end benchmark of CliffGuard's `design`, `evaluate`,
//! `ingest` and `serve` paths, with per-layer attribution.
//!
//! ```text
//! perf --workload design|evaluate|ingest|serve|all [--seed N] [--seconds S]
//!      [--trace 0|1 | --traced] [--json OUT]
//! ```
//!
//! Each workload composes the public calls the CLI and the daemon make.
//! Inputs come from `--seed` and are built before timing starts. A run sets
//! up several times (`setup_s` is the median), then runs a closed loop for
//! `--seconds` and at least the workload's op floor, checks every output,
//! and prints its metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! reports the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer metrics, measured with the telemetry metrics registry on and
//! bench-side spans recorded, after an untraced phase that gives the
//! tracing overhead.

mod calibrate;
mod common;
mod design;
mod evaluate;
mod ingest;
mod serve;
mod spans;
mod stats;

use common::{peak_rss_mb, Bench, Plan, Quality, Settings, Tally};
use spans::{attribute, Attribution, Tracer};
use stats::{median, percentile, supports};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["design", "evaluate", "ingest", "serve"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The BENCHMARK.json metrics: end-to-end (untraced) or per-layer (traced).
    metrics: Vec<Metric>,
    /// Workload-specific detail.
    detail: Vec<Metric>,
    /// Each set-up's wall time and host-speed normalized time (s).
    setup_s: Vec<(f64, f64)>,
    ops: u64,
    spans_jsonl: Option<String>,
}

/// Removes the run's temporary directory on every exit path.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_workload(name: &str, s: &Settings, traced: bool) -> Result<Report, String> {
    match name {
        "design" => run::<design::DesignBench>(s, traced),
        "evaluate" => run::<evaluate::EvaluateBench>(s, traced),
        "ingest" => run::<ingest::IngestBench>(s, traced),
        "serve" => run::<serve::ServeBench>(s, traced),
        other => Err(format!(
            "unknown workload `{other}` (want {} or all)",
            WORKLOADS.join(", ")
        )),
    }
}

fn run<B: Bench>(s: &Settings, traced: bool) -> Result<Report, String> {
    let tracer = Tracer::default();
    let mut setup_s = Vec::new();
    let mut bench: Option<B> = None;
    let mut tally = Tally::default();
    for _ in 0..s.setups.max(1) {
        // The previous set-up (and its daemon) ends before the next starts.
        drop(bench.take());
        tally = Tally::default();
        let before = calibrate::rep_ns();
        let t0 = Instant::now();
        bench = Some(B::setup(s, &tracer, &mut tally)?);
        let wall = t0.elapsed().as_secs_f64();
        let rep = (before + calibrate::rep_ns()) / 2.0;
        setup_s.push((wall, wall * calibrate::NOMINAL_REP_NS / rep));
    }
    let mut bench = bench.expect("at least one set-up ran");
    let min_ops = if s.smoke { 2 } else { B::MIN_OPS };
    let mut report = Report {
        setup_s,
        ..Report::default()
    };
    if !traced {
        bench.measure(
            Plan {
                seconds: s.seconds,
                min_ops,
            },
            &tracer,
            &mut tally,
        );
        let quality = bench.finish(&mut tally);
        if !supports(tally.latency.len(), 95.0) {
            eprintln!(
                "perf: {} latency samples are too few for a p95 with ten samples beyond it",
                tally.latency.len()
            );
        }
        report.metrics = end_to_end(&tally, &report.setup_s);
        report.detail = raw_detail(&tally, &report.setup_s, quality);
    } else {
        let half = Plan {
            seconds: s.seconds / 2.0,
            min_ops: if s.smoke { 2 } else { 3 },
        };
        let mut plain = Tally::default();
        tracer.mark_traced_run();
        bench.measure(half, &tracer, &mut plain);
        let guard = cliffguard::telemetry::install(cliffguard::telemetry::TelemetryConfig {
            metrics: true,
            trace: None,
            ..Default::default()
        })
        .map_err(|e| format!("telemetry: {e}"))?;
        tracer.enable();
        bench.measure(half, &tracer, &mut tally);
        let snap = guard
            .registry()
            .expect("the metrics registry is installed")
            .snapshot();
        drop(guard);
        let (spans, ops) = tracer.take();
        let a = attribute(&spans, &ops);
        report.spans_jsonl = Some(spans::to_jsonl(&spans, &ops, &a));
        // Both phases in host-speed normalized time, so drift between
        // them does not pass for tracing overhead.
        let overhead = 100.0
            * ((speed_scale(&tally) * median(&tally.latency))
                / (speed_scale(&plain) * median(&plain.latency))
                - 1.0);
        report.metrics = per_layer(&a, &snap, &tally, overhead);
        report.detail = layer_detail(&a, &snap, tally.ops);
        tally.attempted += plain.attempted;
        tally.failed += plain.failed;
        tally.failures.extend(plain.failures);
        bench.finish(&mut tally);
    }
    report.detail.extend(
        tally
            .extra
            .iter()
            .map(|(k, &(v, unit))| metric(k, v, unit, 1)),
    );
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.failures = tally.failures;
    report.ops = tally.ops;
    Ok(report)
}

/// Host-speed scale of a measured phase: raw times × scale = times on a
/// host where one reference repetition takes [`calibrate::NOMINAL_REP_NS`].
fn speed_scale(t: &Tally) -> f64 {
    let n = t.reference_ns.len().max(1) as f64;
    calibrate::NOMINAL_REP_NS / (t.reference_ns.iter().sum::<f64>() / n)
}

/// The end-to-end metrics, measured with tracing off, in host-speed
/// normalized time.
fn end_to_end(t: &Tally, setup_s: &[(f64, f64)]) -> Vec<Metric> {
    let setup: Vec<f64> = setup_s.iter().map(|s| s.1).collect();
    let (n, k) = (t.latency.len(), speed_scale(t));
    vec![
        metric("latency_ms.p50", k * percentile(&t.latency, 50.0), "ms", n),
        metric("latency_ms.p95", k * percentile(&t.latency, 95.0), "ms", n),
        metric(
            "ops_per_s",
            t.ops as f64 / t.wall_s / k,
            "1/s",
            t.ops as usize,
        ),
        metric("setup_s", median(&setup), "s", setup.len()),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB", 1),
    ]
}

/// Raw wall-clock values, the host-speed sample, and design quality.
fn raw_detail(t: &Tally, setup_s: &[(f64, f64)], q: Quality) -> Vec<Metric> {
    let n = t.latency.len();
    let setup: Vec<f64> = setup_s.iter().map(|s| s.0).collect();
    vec![
        metric("wall.latency_ms.p50", percentile(&t.latency, 50.0), "ms", n),
        metric("wall.latency_ms.p95", percentile(&t.latency, 95.0), "ms", n),
        metric(
            "wall.ops_per_s",
            t.ops as f64 / t.wall_s,
            "1/s",
            t.ops as usize,
        ),
        metric("wall.setup_s", median(&setup), "s", setup.len()),
        metric(
            "reference_rep_ms",
            calibrate::NOMINAL_REP_NS / speed_scale(t) / 1e6,
            "ms",
            t.reference_ns.len(),
        ),
        metric("quality.next_avg_ms", q.avg_ms, "ms", 1),
        metric("quality.next_max_ms", q.max_ms, "ms", 1),
    ]
}

/// Nanoseconds per op as milliseconds.
fn per_op_ms(ns: u64, ops: u64) -> f64 {
    ns as f64 / 1e6 / ops.max(1) as f64
}

/// The per-layer metrics of a traced phase: span self times from the
/// bench, and the program's own telemetry counters and histograms.
fn per_layer(
    a: &Attribution,
    snap: &cliffguard::telemetry::MetricsSnapshot,
    t: &Tally,
    overhead_pct: f64,
) -> Vec<Metric> {
    let ops = t.ops;
    let n = ops as usize;
    let self_ns = |name: &str| a.names.get(name).map_or(0, |x| x.0);
    let extra = |k: &str| t.extra.get(k).map_or(0.0, |x| x.0);
    let parse_ns = self_ns("workload.import_log") + self_ns("workload.stream_feed");
    let records = extra("records_parsed");
    let hist = |k: &str| snap.histogram(&format!("cliffguard.{k}"));
    let hist_sum = |k: &str| hist(k).map_or(0.0, |h| h.sum);
    let hist_count = |k: &str| hist(k).map_or(0, |h| h.count);
    let hist_p50 = |k: &str| hist(k).map_or(0.0, |h| h.p50());
    let counter = |k: &str| snap.counter(&format!("cliffguard.{k}")).unwrap_or(0) as f64;
    let gauge = |k: &str| snap.gauge(&format!("cliffguard.{k}")).unwrap_or(0.0);
    let per_op = |x: f64| x / ops.max(1) as f64;
    let delta_builds = hist_count("sim.kernel.delta_build_ms");
    let interned = gauge("sim.kernel.interned_queries");
    vec![
        metric(
            "storage.catalog_decode_ms",
            per_op_ms(self_ns("storage.catalog_decode"), ops),
            "ms",
            n,
        ),
        metric("workload.parse_ms", per_op_ms(parse_ns, ops), "ms", n),
        metric(
            "workload.us_per_stmt",
            parse_ns as f64 / 1e3 / records.max(1.0),
            "us",
            records as usize,
        ),
        metric(
            "workload.distinct_ratio",
            extra("distinct_records") / records.max(1.0),
            "ratio",
            records as usize,
        ),
        metric(
            "designer.calls",
            per_op(hist_count("core.designer_call_ms") as f64),
            "count",
            n,
        ),
        metric(
            "designer.call_ms",
            per_op(hist_sum("core.designer_call_ms")),
            "ms",
            n,
        ),
        metric(
            "designer.call_ms.p50",
            hist_p50("core.designer_call_ms"),
            "ms",
            hist_count("core.designer_call_ms") as usize,
        ),
        metric(
            "designer.celf_reevaluations",
            per_op(counter("designer.celf.reevaluations")),
            "count",
            n,
        ),
        metric(
            "sim.epoch_build_ms",
            per_op(hist_sum("sim.kernel.build_ms")),
            "ms",
            n,
        ),
        metric(
            "sim.epoch_builds",
            per_op(hist_count("sim.kernel.build_ms") as f64),
            "count",
            n,
        ),
        metric(
            "sim.delta_build_ms",
            per_op(hist_sum("sim.kernel.delta_build_ms")),
            "ms",
            n,
        ),
        metric("sim.delta_builds", per_op(delta_builds as f64), "count", n),
        metric(
            "sim.recosted_fraction",
            counter("sim.kernel.recosted_queries") / (delta_builds as f64 * interned).max(1.0),
            "ratio",
            delta_builds as usize,
        ),
        metric("sim.interned_queries", interned, "count", 1),
        metric(
            "sim.dedup_ratio",
            gauge("sim.kernel.dedup_ratio"),
            "ratio",
            1,
        ),
        metric(
            "sim.direct_cost_calls",
            per_op(hist_count("sim.query_cost_ms") as f64),
            "count",
            n,
        ),
        metric("core.descent_ms", per_op(hist_sum("core.iter_ms")), "ms", n),
        metric(
            "core.descent_iters",
            per_op(hist_count("core.iter_ms") as f64),
            "count",
            n,
        ),
        metric(
            "core.iter_ms.p50",
            hist_p50("core.iter_ms"),
            "ms",
            hist_count("core.iter_ms") as usize,
        ),
        metric(
            "parallel.par_calls",
            per_op(counter("parallel.par_calls")),
            "count",
            n,
        ),
        metric(
            "parallel.inline_calls",
            per_op(counter("parallel.inline_calls")),
            "count",
            n,
        ),
        metric(
            "parallel.utilization",
            gauge("parallel.utilization"),
            "ratio",
            1,
        ),
        metric(
            "parallel.chunk_ms.p50",
            hist_p50("parallel.chunk_ms"),
            "ms",
            hist_count("parallel.chunk_ms") as usize,
        ),
        metric(
            "unattributed_ms",
            per_op_ms(a.unattributed_ns, ops),
            "ms",
            n,
        ),
        metric("telemetry.overhead_pct", overhead_pct, "%", t.latency.len()),
    ]
}

/// Self time per op of every layer and every span name, plus the
/// session time no designer call or epoch build explains.
fn layer_detail(
    a: &Attribution,
    snap: &cliffguard::telemetry::MetricsSnapshot,
    ops: u64,
) -> Vec<Metric> {
    let n = ops as usize;
    let mut out = vec![metric("op_wall_ms", per_op_ms(a.wall_ns, ops), "ms", n)];
    for (layer, &ns) in &a.layers {
        out.push(metric(
            &format!("layer.{layer}.self_ms"),
            per_op_ms(ns, ops),
            "ms",
            n,
        ));
    }
    for (name, &(ns, calls)) in &a.names {
        out.push(metric(
            &format!("span.{name}.self_ms"),
            per_op_ms(ns, ops),
            "ms",
            calls as usize,
        ));
    }
    // A session's self time already excludes its designer calls.
    if let Some(&(session_ns, _)) = a.names.get("core.session") {
        let builds_ms = [
            "cliffguard.sim.kernel.build_ms",
            "cliffguard.sim.kernel.delta_build_ms",
        ]
        .iter()
        .filter_map(|k| snap.histogram(k))
        .map(|h| h.sum)
        .sum::<f64>();
        let other = per_op_ms(session_ns, ops) - builds_ms / ops.max(1) as f64;
        out.push(metric("core.session_other_ms", other, "ms", n));
    }
    // Serve sessions run inside the daemon, out of the bench's sight: their
    // time is estimated from the daemon's descent-iteration histogram plus
    // one nominal designer call per session. The rest of a request, beyond
    // the probed decode and parse, is waiting: accept queueing, I/O and the
    // store.
    if let Some(&(request_ns, _)) = a.names.get("serve.request") {
        let hist = |k: &str| snap.histogram(k).map_or((0.0, 0), |h| (h.sum, h.count));
        let (iter_ms, _) = hist("cliffguard.core.iter_ms");
        let (call_ms, calls) = hist("cliffguard.core.designer_call_ms");
        let sessions = snap.counter("cliffguard.core.sessions").unwrap_or(0) as f64;
        let session = (iter_ms + sessions * call_ms / calls.max(1) as f64) / ops.max(1) as f64;
        let probed: u64 = [
            "serve.decode",
            "storage.catalog_decode",
            "workload.import_log",
        ]
        .iter()
        .filter_map(|k| a.names.get(k))
        .map(|x| x.0)
        .sum();
        let wait = per_op_ms(request_ns, ops) - per_op_ms(probed, ops) - session;
        out.push(metric("serve.session_ms", session, "ms", n));
        out.push(metric("serve.wait_ms", wait, "ms", n));
    }
    out
}

/// Renders a number for JSON: non-finite values have no JSON spelling.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// The closing line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!("{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}")
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"\"".into())
}

/// The full record of a run, for `--json`.
fn detail_json(workload: &str, s: &Settings, traced: bool, r: &Report, nproc: usize) -> String {
    let list = |ms: &[Metric]| {
        let items: Vec<String> = ms
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":{},\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                    json_string(&m.name),
                    json_num(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    };
    let setup: Vec<String> = r.setup_s.iter().map(|&(wall, _)| json_num(wall)).collect();
    let failures: Vec<String> = r.failures.iter().map(|f| json_string(f)).collect();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"traced\":{traced},\
         \"threads\":{},\"nproc\":{nproc},\"ops\":{},\"setup_wall_s\":[{}],\"attempted\":{},\
         \"failed\":{},\"failures\":[{}],\"metrics\":{},\"detail\":{}}}\n",
        s.seed,
        json_num(s.seconds),
        s.threads,
        r.ops,
        setup.join(","),
        r.attempted,
        r.failed,
        failures.join(","),
        list(&r.metrics),
        list(&r.detail),
    )
}

fn print_table(title: &str, ms: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<36} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in ms {
        println!(
            "  {:<36} {:>16.4} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        traced: false,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--traced" => out.traced = true,
            "--json" => out.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workload.is_empty() {
        return Err(format!(
            "--workload is required ({} or all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

/// `--workload all`: one child process per workload, so memory and
/// allocator state stay per workload. The closing line merges the
/// children's, with metrics named `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged: Vec<String> = Vec::new();
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if let Some(json) = &args.json {
            cmd.arg("--json")
                .arg(json.with_extension(format!("{w}.json")));
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("run {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let parsed: serde::Value = serde_json::from_str(last).unwrap_or(serde::Value::Null);
        let field = |k: &str| common::field(&parsed, k);
        correct &= out.status.success() && field("correct") == Some(&serde::Value::Bool(true));
        if let Some(serde::Value::U64(n)) = field("attempted") {
            attempted += n;
        }
        match field("failed") {
            Some(serde::Value::U64(n)) => failed += n,
            _ => failed += 1,
        }
        if let Some(serde::Value::Map(ms)) = field("metrics") {
            for (name, v) in ms {
                merged.push(format!(
                    "\"{w}.{name}\":{}",
                    serde_json::to_string(v).unwrap_or_default()
                ));
            }
        }
    }
    println!(
        "{}",
        result_line(
            correct,
            attempted,
            failed,
            &format!("{{{}}}", merged.join(","))
        )
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv).and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            run_one(&args)
        }
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run_one(args: &Args) -> Result<i32, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(4);
    cliffguard::parallel::set_threads(threads);
    let temp = TempDir(PathBuf::from(".perf_tmp").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&temp.0).map_err(|e| format!("{}: {e}", temp.0.display()))?;
    let s = Settings {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        setups: SETUPS,
        smoke: false,
        tmp: temp.0.clone(),
    };
    let report = run_workload(&args.workload, &s, args.traced)?;
    drop(temp);

    println!(
        "perf: workload={} seed={} seconds={} traced={} threads={threads} nproc={nproc} \
         setups={} ops={} attempted={} failed={}",
        args.workload,
        args.seed,
        args.seconds,
        args.traced,
        report.setup_s.len(),
        report.ops,
        report.attempted,
        report.failed,
    );
    for f in &report.failures {
        println!("perf: FAILED {f}");
    }
    print_table(
        if args.traced {
            "per-layer metrics (traced phase)"
        } else {
            "end-to-end metrics"
        },
        &report.metrics,
    );
    print_table("detail", &report.detail);
    if let Some(path) = &args.json {
        std::fs::write(
            path,
            detail_json(&args.workload, &s, args.traced, &report, nproc),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(spans) = &report.spans_jsonl {
            let spans_path = path.with_extension("spans.jsonl");
            std::fs::write(&spans_path, spans)
                .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        }
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.failed == 0 && finite;
    println!(
        "{}",
        result_line(
            correct,
            report.attempted,
            report.failed,
            &metrics_json(&report.metrics)
        )
    );
    Ok(if correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        common::field(&spec, section)
            .and_then(|v| v.as_seq())
            .expect("a metric list")
            .iter()
            .map(|m| match common::field(m, "name") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("metric name {other:?}"),
            })
            .collect()
    }

    /// Two measured ops of every workload, untraced and traced: every
    /// metric BENCHMARK.json names is emitted, and nothing fails.
    #[test]
    fn smoke_run_emits_every_benchmark_metric() {
        let end_to_end = spec_names("end_to_end");
        let per_layer = spec_names("per_layer");
        let dir =
            std::env::temp_dir().join(format!("cliffguard-perf-smoke-{}", std::process::id()));
        let _temp = TempDir(dir.clone());
        std::fs::create_dir_all(&dir).expect("temporary dir");
        cliffguard::parallel::set_threads(2);
        let s = Settings {
            seed: 7,
            seconds: 0.0,
            threads: 2,
            setups: 1,
            smoke: true,
            tmp: dir,
        };
        for w in WORKLOADS {
            for (traced, want) in [(false, &end_to_end), (true, &per_layer)] {
                let r = run_workload(w, &s, traced).unwrap_or_else(|e| panic!("{w}: {e}"));
                assert_eq!(r.failed, 0, "{w} traced={traced}: {:?}", r.failures);
                assert!(r.attempted >= 3, "{w}: {} attempted", r.attempted);
                let got: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(
                    got,
                    want.iter().map(String::as_str).collect::<Vec<_>>(),
                    "{w} traced={traced}"
                );
                for m in &r.metrics {
                    assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
                }
            }
        }
    }

    #[test]
    fn arguments_parse_as_documented() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = args(&[
            "--workload",
            "serve",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("serve", 9, 10.0, true)
        );
        assert!(
            !args(&["--workload", "design", "--trace", "0"])
                .unwrap()
                .traced
        );
        assert!(args(&["--workload", "design", "--traced"]).unwrap().traced);
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "design", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "design", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "design", "--bogus"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_line(
            true,
            5,
            0,
            &metrics_json(&[metric("latency_ms.p50", 1.25, "ms", 3)]),
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"latency_ms.p50":{"value":1.25,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn percentile_rule_matches_the_sample_floor() {
        // The op floors give p95 its ten samples beyond: 200 ops of one
        // sample (design), 16 × 13 redesigns (evaluate), 100 × 2 triggers
        // (ingest), 200 requests (serve).
        assert!(supports(design::DesignBench::MIN_OPS, 95.0));
        assert!(supports(evaluate::EvaluateBench::MIN_OPS * 13, 95.0));
        assert!(supports(ingest::IngestBench::MIN_OPS * 2, 95.0));
        assert!(supports(serve::ServeBench::MIN_OPS, 95.0));
    }
}
