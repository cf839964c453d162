//! The `cliffguard` command-line designer.
//!
//! A small operational frontend over the library, mirroring how the paper's
//! tool is used "alongside a database system" (Section 2): the DBA supplies
//! a catalog and a query log, picks a robustness knob Γ, and receives the
//! DDL of a robust design.
//!
//! ```text
//! cliffguard generate --profile R1 --seed 7 --out log.tsv --catalog-out catalog.json
//! cliffguard stats    --catalog catalog.json --log log.tsv
//! cliffguard design   --catalog catalog.json --log log.tsv --gamma auto
//! cliffguard evaluate --catalog catalog.json --log log.tsv
//! ```

use cliffguard::cli::{parse_flags, Flags};
use cliffguard::prelude::*;
use cliffguard::serve::{
    run_design, BudgetSpec, DesignInputs, DesignRequest, GammaSpec, RunOutcome, RunnerOptions,
};
use cliffguard::sim::ddl;
use cliffguard::trace_schema::TraceSchema;
use cliffguard::workload::logio::ImportReport;
use cliffguard::workload::{window_secs, SECS_PER_DAY};
use std::process::exit;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    let opts = match parse_flags(&args[1..]) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    };
    if let Some(t) = opts.get("threads") {
        match t.parse::<usize>() {
            Ok(n) if n > 0 => cliffguard::parallel::set_threads(n),
            _ => {
                eprintln!("error: --threads needs a positive integer, got `{t}`");
                exit(2);
            }
        }
    }
    // One clock drives the whole process: session retries/deadlines AND
    // trace timestamps. --virtual-clock makes both deterministic, so a
    // seeded run produces a byte-identical trace on every machine.
    let clock = if opts.contains_key("virtual-clock") {
        SessionClock::virtual_clock()
    } else {
        SessionClock::system()
    };
    // The serve daemon keeps a metrics registry regardless of
    // --metrics-out: its `metrics` protocol verb reports the snapshot to
    // clients on demand.
    let telemetry = match init_telemetry(&opts, &clock, cmd == "serve") {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "stats" => cmd_stats(&opts),
        "design" => cmd_design(&opts, &clock),
        "ingest" => cmd_ingest(&opts, &clock),
        "serve" => cmd_serve(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "validate-trace" => cmd_validate_trace(&opts),
        "trace" => cmd_trace(&args[1..], &opts),
        "--help" | "-h" | "help" => {
            usage();
            return;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    let result = result.and_then(|()| write_metrics(&opts, telemetry.as_ref()));
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!(
        "cliffguard — robust database designer (CliffGuard, SIGMOD 2015)\n\
         \n\
         commands:\n\
           generate  --profile R1|S1|S2 [--seed N] [--windows N] [--scale F]\n\
                     --out LOG.tsv --catalog-out CATALOG.json\n\
           stats     --catalog CATALOG.json --log LOG.tsv [--window-days N]\n\
           design    --catalog CATALOG.json --log LOG.tsv [--gamma auto|G]\n\
                     [--budget auto|BYTES] [--window-days N] [--nominal]\n\
                     [--max-retries N] [--designer-deadline-ms N]\n\
                     [--session-deadline-ms N] [--faults SPEC]\n\
                     [--replicas R] [--max-failures K]\n\
           ingest    --catalog CATALOG.json --log LOG.tsv|- [--window N]\n\
                     [--window-secs S] [--gamma auto|G] [--chunk-bytes N]\n\
                     [--warmup N] [--cooldown N] [--rearm-ratio F]\n\
                     [--no-design] [--budget auto|BYTES] [--faults SPEC]\n\
           serve     [--listen ADDR:PORT] [--state-dir DIR] [--max-concurrent N]\n\
                     [--max-queue N] [--tenant-deadline-ms N]\n\
                     [--checkpoint-every N] [--faults SPEC]\n\
           evaluate  --catalog CATALOG.json --log LOG.tsv [--budget auto|BYTES]\n\
                     [--window-days N]\n\
           validate-trace --trace TRACE.jsonl|- --schema SCHEMA.json\n\
           trace report TRACE.jsonl|- [--json]\n\
           trace diff BASELINE.jsonl CANDIDATE.jsonl [--json]\n\
                     [--max-worst-case-pct P] [--max-time-pct P]\n\
         \n\
         every command accepts --threads N (default: CLIFFGUARD_THREADS, else\n\
         all cores); results are identical at any thread count\n\
         \n\
         telemetry (off by default, zero overhead when off):\n\
           --trace-out FILE    write a structured JSONL trace of the run\n\
           --metrics-out FILE  write a metrics snapshot (counters, gauges,\n\
                               latency quantiles) as JSON on exit\n\
           --log-level L       trace verbosity: off|error|warn|info|debug|trace\n\
                               (default: CLIFFGUARD_LOG, else info)\n\
           --virtual-clock     timestamp the trace (and run the session) on a\n\
                               deterministic virtual clock: a seeded run then\n\
                               yields a byte-identical trace at any thread count\n\
         \n\
         design runs as a resilient session: designer calls are validated\n\
         (budget, non-emptiness) and retried with capped exponential backoff;\n\
         on exhausted retries it degrades to the best design so far. --faults\n\
         (or the CLIFFGUARD_FAULTS env var) injects a deterministic fault\n\
         plan for drills, e.g. `seed=7,rate=0.2` or `fail@1,stall@3:50`\n\
         \n\
         --replicas R designs a fleet of R divergent per-node designs (each\n\
         within the budget) robust to the worst crash of up to --max-failures\n\
         replicas on top of workload drift; queries route to their cheapest\n\
         surviving replica. `replica-crash@N:R` / `replica-slow@N:R` fault\n\
         specs inject mid-design replica loss; the audit records failovers\n\
         \n\
         ingest streams the log (or stdin with `-`) through the online drift\n\
         advisor in bounded memory: arrivals fold into sliding windows, every\n\
         close prints one audit line (delta and gamma as IEEE-754 bit\n\
         patterns), and a delta > gamma excursion launches a redesign unless\n\
         --no-design. The audit stream is byte-identical at any --chunk-bytes\n\
         \n\
         serve runs the multi-tenant advisor daemon: newline-delimited JSON\n\
         requests (design|ingest|status|metrics|drain|shutdown) on\n\
         stdin/stdout, or on a TCP socket with --listen; --state-dir makes\n\
         sessions durable (a killed daemon resumes design sessions and\n\
         streaming ingest tapes bit-identically on restart)"
    );
}

/// Installs the telemetry layer when `--trace-out` or `--metrics-out`
/// asks for it; otherwise leaves it disabled (the zero-overhead default).
/// Trace timestamps come from the session clock, so `--virtual-clock`
/// makes them deterministic.
fn init_telemetry(
    opts: &Flags,
    clock: &SessionClock,
    always_metrics: bool,
) -> Result<Option<TelemetryGuard>, String> {
    let mut trace_out = opts.get("trace-out").filter(|s| !s.is_empty()).cloned();
    let want_metrics = always_metrics || opts.contains_key("metrics-out");
    if trace_out.is_none() && !want_metrics {
        return Ok(None);
    }
    let mut config = TelemetryConfig {
        clock: {
            let c = clock.clone();
            TraceClock::shared_ms(move || c.now_ms())
        },
        metrics: want_metrics,
        ..Default::default()
    };
    if let Some(s) = opts.get("log-level") {
        match Level::parse(s).map_err(|e| format!("--log-level: {e}"))? {
            Some(level) => config.level = level,
            None => trace_out = None, // `off`: keep metrics, drop the trace
        }
    }
    config.trace = trace_out.map(|p| TraceSink::File(p.into()));
    let guard = cliffguard::telemetry::install(config).map_err(|e| format!("telemetry: {e}"))?;
    Ok(Some(guard))
}

/// Writes the end-of-run metrics snapshot when `--metrics-out` was given.
fn write_metrics(opts: &Flags, telemetry: Option<&TelemetryGuard>) -> Result<(), String> {
    let (Some(path), Some(guard)) = (opts.get("metrics-out").filter(|s| !s.is_empty()), telemetry)
    else {
        return Ok(());
    };
    let registry = guard.registry().ok_or("metrics registry not installed")?;
    let json = registry.snapshot().to_json();
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("metrics: wrote snapshot to {path}");
    Ok(())
}

fn flag<'a>(opts: &'a Flags, name: &str) -> Result<&'a str, String> {
    opts.get(name)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn load_catalog(opts: &Flags) -> Result<Catalog, String> {
    let path = flag(opts, "catalog")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut cat: Catalog = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
    cat.rebuild_index();
    Ok(cat)
}

fn numeric<T: std::str::FromStr>(opts: &Flags, name: &str) -> Result<Option<T>, String> {
    match opts.get(name) {
        None => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| format!("bad --{name} `{s}`")),
    }
}

fn print_import(report: &ImportReport) {
    eprintln!(
        "log: {} parsed, {} unparseable, {} malformed",
        report.parsed, report.skipped_sql, report.skipped_malformed
    );
}

fn load_log(opts: &Flags, catalog: &Catalog) -> Result<QueryLog, String> {
    let path = flag(opts, "log")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let (log, report) = cliffguard::workload::logio::import_log(&text, catalog);
    print_import(&report);
    if log.is_empty() {
        return Err("no parseable queries in the log".into());
    }
    Ok(log)
}

/// `--window-days`, under the same rule as the daemon's `window_days`.
fn window_days(opts: &Flags) -> Result<u64, String> {
    let Some(s) = opts.get("window-days") else {
        return Ok(28);
    };
    s.parse()
        .ok()
        .filter(|&days| window_secs(days).is_some())
        .ok_or_else(|| {
            format!(
                "bad --window-days `{s}` (want a whole number of days in 1..={})",
                u64::MAX / SECS_PER_DAY
            )
        })
}

/// `--budget`: `auto` or a positive byte count, as in the protocol.
fn budget_spec(opts: &Flags) -> Result<BudgetSpec, String> {
    match opts.get("budget").map(|s| s.as_str()) {
        None | Some("auto") | Some("") => Ok(BudgetSpec::Auto),
        Some(s) => match s.parse() {
            Ok(bytes) if bytes > 0 => Ok(BudgetSpec::Bytes(bytes)),
            _ => Err(format!(
                "bad --budget `{s}` (budget must be \"auto\" or a positive integer)"
            )),
        },
    }
}

/// The fault plan of `--faults`, else of `CLIFFGUARD_FAULTS`, with the
/// spec it parses from.
fn fault_spec(opts: &Flags) -> Result<Option<(String, FaultPlan)>, String> {
    let (spec, source) = match opts.get("faults") {
        Some(spec) => (spec.clone(), "--faults"),
        None => match std::env::var(FAULTS_ENV) {
            Ok(spec) if !spec.trim().is_empty() => (spec, FAULTS_ENV),
            _ => return Ok(None),
        },
    };
    let plan = FaultPlan::from_spec(&spec).map_err(|e| format!("{source}: {e}"))?;
    Ok(Some((spec, plan)))
}

// ------------------------------------------------------------- generate --

fn cmd_generate(opts: &Flags) -> Result<(), String> {
    let profile = match flag(opts, "profile")?.to_ascii_uppercase().as_str() {
        "R1" => WorkloadProfile::R1,
        "S1" => WorkloadProfile::S1,
        "S2" => WorkloadProfile::S2,
        other => return Err(format!("unknown profile `{other}` (want R1|S1|S2)")),
    };
    let seed: u64 = opts.get("seed").and_then(|s| s.parse().ok()).unwrap_or(42);
    let scale: f64 = opts
        .get("scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.45);
    let mut config = profile.config(seed).scaled(scale);
    if let Some(w) = opts.get("windows").and_then(|s| s.parse().ok()) {
        config.n_windows = w;
    }
    let mut generator = DriftingGenerator::new(config);
    let shape = generator.shape().clone();
    let log = generator.generate();
    let catalog = CatalogGenerator {
        seed,
        ..CatalogGenerator::default()
    }
    .generate(&shape);

    let out = flag(opts, "out")?;
    std::fs::write(out, catalog.export_log(&log)).map_err(|e| format!("write {out}: {e}"))?;
    let cat_out = flag(opts, "catalog-out")?;
    let json = serde_json::to_string_pretty(&catalog).map_err(|e| e.to_string())?;
    std::fs::write(cat_out, json).map_err(|e| format!("write {cat_out}: {e}"))?;
    eprintln!(
        "wrote {} queries to {out} and a {}-table catalog to {cat_out}",
        log.len(),
        catalog.table_count()
    );
    Ok(())
}

// ---------------------------------------------------------------- stats --

fn cmd_stats(opts: &Flags) -> Result<(), String> {
    let catalog = load_catalog(opts)?;
    let log = load_log(opts, &catalog)?;
    let days = window_days(opts)?;
    let windows = log.windows_days(days);
    let metric = DeltaEuclidean::new(catalog.column_count());
    let deltas = consecutive_deltas(&metric, &windows);
    let stats = DeltaStats::of(&deltas);
    println!("windows: {} of {days} days", windows.len());
    println!(
        "inter-window delta: min {:.5}  max {:.5}  avg {:.5}  std {:.5}",
        stats.min, stats.max, stats.avg, stats.std
    );
    println!(
        "suggested gamma (1.5 x max past delta): {:.5}",
        1.5 * stats.max
    );
    for (i, w) in windows.iter().enumerate() {
        let overlap = if i > 0 {
            format!(
                "{:>5.1}%",
                100.0 * w.shared_template_fraction(&windows[i - 1])
            )
        } else {
            "    -".into()
        };
        println!(
            "  W{i:<3} {:>6} queries  {:>5} distinct  overlap with prev {overlap}",
            w.total_weight(),
            w.len()
        );
    }
    Ok(())
}

// --------------------------------------------------------------- design --

/// The daemon's `design` request for these flags, with the sampler
/// seeded 0 (the protocol's default is 42).
fn design_request(opts: &Flags) -> Result<DesignRequest, String> {
    let path = flag(opts, "catalog")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let catalog = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let path = flag(opts, "log")?;
    let log = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut req = DesignRequest::new("cli", catalog, log);
    req.seed = 0;
    req.window_days = window_days(opts)?;
    req.budget = budget_spec(opts)?;
    req.faults = fault_spec(opts)?.map(|(spec, _)| spec);
    req.replicas = numeric(opts, "replicas")?.unwrap_or(1);
    req.max_failures = numeric(opts, "max-failures")?.unwrap_or(0);
    if !opts.contains_key("nominal") {
        if let Some(s) = opts
            .get("gamma")
            .filter(|s| !matches!(s.as_str(), "auto" | ""))
        {
            req.gamma = GammaSpec::Fixed(s.parse().map_err(|_| format!("bad --gamma `{s}`"))?);
        }
        req.max_retries = numeric(opts, "max-retries")?;
        req.designer_deadline_ms = numeric(opts, "designer-deadline-ms")?;
        req.deadline_ms = numeric(opts, "session-deadline-ms")?;
    }
    Ok(req)
}

/// Designs through [`run_design`], the daemon's design path, on this
/// process's clock; `--nominal` swaps the robust session for one nominal
/// design and keeps the fleet step.
fn cmd_design(opts: &Flags, clock: &SessionClock) -> Result<(), String> {
    let req = design_request(opts)?;
    let (inputs, design, fleet) = if opts.contains_key("nominal") {
        let inputs = DesignInputs::new(&req)?;
        print_import(&inputs.import);
        eprintln!("designing nominally for the last window");
        let design = inputs.nominal().design(inputs.w0(), inputs.budget_bytes);
        let fleet = inputs.fleet(&design)?;
        (inputs, design, fleet)
    } else {
        let runner = RunnerOptions {
            clock: clock.clone(),
            ..RunnerOptions::default()
        };
        let run = match run_design(&req, &runner, None, &mut |_| {}) {
            RunOutcome::Done(run) => *run,
            RunOutcome::Rejected(reason) => return Err(reason),
            RunOutcome::Interrupted(_) => return Err("the design session was interrupted".into()),
        };
        print_import(&run.inputs.import);
        eprintln!(
            "designing robustly: gamma = {:.5}, pool of {} historical queries",
            run.gamma, run.pool_size
        );
        if let Some(plan) = run.inputs.faults.as_ref().filter(|p| !p.is_none()) {
            eprintln!("fault injection active: {plan:?}");
        }
        let trace = &run.trace;
        eprintln!(
            "cliffguard: {} designer calls, {} samples, {} retries, {} faults, worst-case trace {:?}",
            trace.designer_calls,
            trace.samples,
            trace.retries,
            trace.faults,
            trace
                .worst_case_per_iter
                .iter()
                .map(|x| x.round())
                .collect::<Vec<_>>()
        );
        if let Some(reason) = &trace.degraded {
            eprintln!("warning: session degraded — {reason}");
        }
        (run.inputs, run.design, run.fleet)
    };

    if cliffguard::telemetry::metrics_enabled() {
        // The session's cost kernel published its gauges while running;
        // surface them here so a metrics run shows the dedup win without
        // opening the snapshot file.
        let interned = cliffguard::telemetry::gauge("cliffguard.sim.kernel.interned_queries")
            .map_or(0.0, |g| g.get());
        if interned > 0.0 {
            let ratio = cliffguard::telemetry::gauge("cliffguard.sim.kernel.dedup_ratio")
                .map_or(1.0, |g| g.get());
            let reevals = cliffguard::telemetry::counter("cliffguard.designer.celf.reevaluations")
                .map_or(0, |c| c.get());
            eprintln!(
                "cost kernel: {interned:.0} distinct queries interned, \
                 {ratio:.2}x dedup, {reevals} CELF re-evaluations"
            );
        }
    }

    let catalog = inputs.engine.catalog();
    eprintln!(
        "design: {} projections, {:.1} MB of {:.1} MB budget",
        design.len(),
        design.price_bytes(catalog) as f64 / (1 << 20) as f64,
        inputs.budget_bytes as f64 / (1 << 20) as f64
    );

    if let Some(outcome) = fleet {
        let audit = &outcome.audit;
        eprintln!(
            "fleet: R={} k={} {} worst-case {:.1} ms (uniform {:.1} ms), \
             worst mask {:#06b}, {} failover(s), set fingerprint {:016x}",
            audit.replicas,
            audit.max_failures,
            if audit.divergent {
                "divergent"
            } else {
                "uniform (divergence lost)"
            },
            audit.worst_case(),
            audit.uniform_worst_case(),
            audit.worst_mask,
            audit.failovers.len(),
            audit.set_fingerprint
        );
        let shares: Vec<String> = audit
            .routing_shares()
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect();
        eprintln!("fleet routing shares: [{}]", shares.join(", "));
        eprintln!("fleet audit: {}", audit.to_json());
        for (i, replica) in outcome.design.replicas.iter().enumerate() {
            print!(
                "-- replica {i}: {} projections\n{}",
                replica.len(),
                ddl::columnar_script(replica, catalog)
            );
        }
        return Ok(());
    }

    print!("{}", ddl::columnar_script(&design, catalog));
    Ok(())
}

// ---------------------------------------------------------------- ingest --

/// Parses the windowing/trigger flags shared by `ingest` into an advisor
/// configuration.
fn advisor_config(opts: &Flags, n_columns: usize) -> Result<OnlineAdvisorConfig, String> {
    let mut config = OnlineAdvisorConfig::new(n_columns);
    config.window = match (opts.get("window"), opts.get("window-secs")) {
        (Some(_), Some(_)) => {
            return Err("--window and --window-secs are mutually exclusive".into());
        }
        (Some(n), None) => match n.parse::<usize>() {
            Ok(n) if n > 0 => WindowPolicy::Count(n),
            _ => return Err(format!("bad --window `{n}` (want a positive count)")),
        },
        (None, Some(s)) => match s.parse::<u64>() {
            Ok(s) if s > 0 => WindowPolicy::LogTime(s),
            _ => return Err(format!("bad --window-secs `{s}` (want positive seconds)")),
        },
        (None, None) => WindowPolicy::Count(64),
    };
    config.gamma = match opts.get("gamma").map(|s| s.as_str()) {
        None | Some("auto") | Some("") => GammaPolicy::KMaxPastDeltas(1.5),
        Some(s) => {
            let g: f64 = s.parse().map_err(|_| format!("bad --gamma `{s}`"))?;
            if !g.is_finite() || g < 0.0 {
                return Err(format!(
                    "bad --gamma `{s}` (gamma must be a finite number >= 0)"
                ));
            }
            GammaPolicy::Fixed(g)
        }
    };
    if let Some(n) = opts.get("warmup") {
        config.warmup = n.parse().map_err(|_| format!("bad --warmup `{n}`"))?;
    }
    if let Some(n) = opts.get("cooldown") {
        config.cooldown = n.parse().map_err(|_| format!("bad --cooldown `{n}`"))?;
    }
    if let Some(r) = opts.get("rearm-ratio") {
        let ratio: f64 = r.parse().map_err(|_| format!("bad --rearm-ratio `{r}`"))?;
        if ratio.is_nan() || ratio < 0.0 {
            return Err(format!(
                "bad --rearm-ratio `{r}` (want a non-negative factor)"
            ));
        }
        config.rearm_ratio = ratio;
    }
    Ok(config)
}

/// Streams a query log through the online drift advisor: chunked reads,
/// sliding windows, incremental δ, and Γ-triggered redesigns. Every line
/// this command prints to stdout is deterministic — CI compares runs at
/// different chunk sizes byte-for-byte.
fn cmd_ingest(opts: &Flags, clock: &SessionClock) -> Result<(), String> {
    use std::io::{Read as _, Write as _};

    let catalog = load_catalog(opts)?;
    let config = advisor_config(opts, catalog.column_count())?;
    let chunk_bytes: usize = match opts.get("chunk-bytes") {
        None => 64 << 10,
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("bad --chunk-bytes `{s}` (want a positive size)")),
        },
    };
    let run_designs = !opts.contains_key("no-design");

    let engine = ColumnarEngine::new(catalog);
    let budget = budget_spec(opts)?.bytes(engine.catalog());
    let plan = fault_spec(opts)?.map(|(_, plan)| plan);

    let path = flag(opts, "log")?;
    let mut reader: Box<dyn std::io::Read> = if path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?)
    };

    let mut advisor = OnlineAdvisor::new(config, clock.clone());
    let mut stream = LogStream::new();
    let mut out = std::io::stdout().lock();
    // Window audits (plus the redesign inputs captured at trigger time)
    // are collected inside the sink and flushed after each chunk, keeping
    // the sink free of I/O and design work.
    let mut pending: Vec<PendingAudit> = Vec::new();
    let mut buf = vec![0u8; chunk_bytes];
    let started = std::time::Instant::now();

    loop {
        let n = reader
            .read(&mut buf)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 {
            break;
        }
        {
            let (advisor, pending) = (&mut advisor, &mut pending);
            let mut sink = |ts: u64, _id: QueryId, q: &Arc<Query>| {
                observe_into(advisor, pending, run_designs, ts, q);
            };
            stream.feed(&buf[..n], engine.catalog(), &mut sink);
        }
        // Keep the intern table bounded on an unbounded log: compaction
        // drops statements outside the advisor's retained windows and is
        // invisible to the audit stream (dropped statements re-parse on
        // their next arrival).
        advisor.compact_stream(&mut stream, DEFAULT_INTERN_CAPACITY);
        flush_window_audits(&mut out, &mut pending, &engine, budget, &plan, clock)?;
    }
    {
        let (advisor, pending) = (&mut advisor, &mut pending);
        let mut sink = |ts: u64, _id: QueryId, q: &Arc<Query>| {
            observe_into(advisor, pending, run_designs, ts, q);
        };
        stream.finish(engine.catalog(), &mut sink);
    }
    // The partial trailing window closes exactly as a full one would (it
    // can trigger too), so end-of-stream state is part of the audit.
    if let Some(audit) = advisor.finish() {
        push_audit(&mut advisor, &mut pending, run_designs, audit);
    }
    flush_window_audits(&mut out, &mut pending, &engine, budget, &plan, clock)?;

    let stats = stream.stats();
    writeln!(
        out,
        "ingest: lines={} parsed={} skipped_sql={} skipped_malformed={} bytes={} windows={} triggers={}",
        stats.lines,
        stats.parsed,
        stats.skipped_sql,
        stats.skipped_malformed,
        stats.bytes,
        advisor.windows_closed(),
        advisor.triggers().len(),
    )
    .map_err(|e| format!("write stdout: {e}"))?;

    let secs = started.elapsed().as_secs_f64();
    let mb = stats.bytes as f64 / (1 << 20) as f64;
    if secs > 0.0 {
        let mb_per_s = mb / secs;
        if let Some(g) = cliffguard::telemetry::gauge("cliffguard.ingest.mb_per_s") {
            g.set(mb_per_s);
        }
        eprintln!(
            "ingest: {mb:.2} MB in {secs:.3} s ({mb_per_s:.1} MB/s), {} cache resets",
            stream.cache_resets()
        );
    }
    Ok(())
}

/// Queued audit plus the redesign inputs captured at trigger time.
type PendingAudit = (WindowAudit, Option<(Workload, Vec<Arc<Query>>)>);

/// Folds one parsed arrival into the advisor and queues any closed-window
/// audits, capturing the redesign inputs (`W0` and the historical pool) at
/// the moment a trigger fires.
fn observe_into(
    advisor: &mut OnlineAdvisor,
    pending: &mut Vec<PendingAudit>,
    run_designs: bool,
    ts: u64,
    q: &Arc<Query>,
) {
    for audit in advisor.observe(ts, q) {
        push_audit(advisor, pending, run_designs, audit);
    }
}

/// Queues one closed-window audit (see [`observe_into`]).
fn push_audit(
    advisor: &mut OnlineAdvisor,
    pending: &mut Vec<PendingAudit>,
    run_designs: bool,
    audit: WindowAudit,
) {
    let action = (audit.triggered && run_designs).then(|| {
        (
            advisor.last_window().cloned().unwrap_or_default(),
            advisor.design_pool(),
        )
    });
    pending.push((audit, action));
}

/// Prints the queued window audits and runs the redesign captured at each
/// trigger (the same resilient session as `cliffguard design`).
fn flush_window_audits(
    out: &mut impl std::io::Write,
    pending: &mut Vec<PendingAudit>,
    engine: &ColumnarEngine,
    budget: u64,
    plan: &Option<FaultPlan>,
    clock: &SessionClock,
) -> Result<(), String> {
    for (audit, action) in pending.drain(..) {
        writeln!(out, "{}", audit.line()).map_err(|e| format!("write stdout: {e}"))?;
        let Some((w0, pool)) = action else {
            continue;
        };
        if w0.is_empty() {
            continue;
        }
        let metric = DeltaEuclidean::new(engine.catalog().column_count());
        let nominal = GreedyDesigner::new(engine, ColumnarCandidates, "DBD");
        let options = SessionOptions {
            clock: clock.clone(),
            ..SessionOptions::default()
        };
        let config = CliffGuardConfig::new(audit.gamma.max(0.0));
        let designer = session_designer(&nominal, plan.as_ref(), clock);
        let (design, trace) = DesignSession::new(engine, designer, metric, config, options)
            .map_err(|e| format!("bad configuration: {e}"))?
            .run(&w0, budget, &pool)
            .into_design();
        writeln!(
            out,
            "T{} projections={} bytes={} designer_calls={} retries={} faults={} degraded={}",
            audit.index,
            design.len(),
            design.price_bytes(engine.catalog()),
            trace.designer_calls,
            trace.retries,
            trace.faults,
            u8::from(trace.degraded.is_some()),
        )
        .map_err(|e| format!("write stdout: {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------- serve --

/// Runs the multi-tenant advisor daemon (`cliffguard-serve`) over
/// stdin/stdout, or over TCP with `--listen`.
fn cmd_serve(opts: &Flags) -> Result<(), String> {
    use cliffguard::serve::{Daemon, ServeConfig};

    let mut config = ServeConfig {
        virtual_time: opts.contains_key("virtual-clock"),
        state_dir: opts
            .get("state-dir")
            .filter(|s| !s.is_empty())
            .map(Into::into),
        ..ServeConfig::default()
    };
    if let Some(n) = numeric::<usize>(opts, "max-concurrent")? {
        if n == 0 {
            return Err("--max-concurrent needs a positive integer".into());
        }
        config.max_concurrent = n;
    }
    if let Some(n) = numeric::<usize>(opts, "max-queue")? {
        if n == 0 {
            return Err("--max-queue needs a positive integer".into());
        }
        config.max_queue = n;
    }
    config.tenant_deadline_ms = numeric(opts, "tenant-deadline-ms")?;
    if let Some(k) = numeric::<usize>(opts, "checkpoint-every")? {
        config.checkpoint_every = k;
    }
    // Like `design`, the daemon honors --faults / CLIFFGUARD_FAULTS. The
    // spec is validated here and resolved into each request's envelope at
    // admission, so a persisted session re-runs identically after a
    // restart regardless of the new daemon's defaults.
    let faults = match opts.get("faults") {
        Some(spec) => Some(spec.clone()),
        None => std::env::var(FAULTS_ENV).ok().filter(|s| !s.is_empty()),
    };
    if let Some(spec) = &faults {
        FaultPlan::from_spec(spec).map_err(|e| format!("--faults: {e}"))?;
    }
    config.default_faults = faults;

    let mut daemon = Daemon::new(config).map_err(|e| format!("serve: {e}"))?;
    match opts.get("listen").filter(|s| !s.is_empty()) {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr.as_str())
                .map_err(|e| format!("bind {addr}: {e}"))?;
            if let Ok(local) = listener.local_addr() {
                eprintln!("serve: listening on {local}");
            }
            daemon
                .serve_tcp(listener)
                .map_err(|e| format!("serve: {e}"))
        }
        None => {
            eprintln!("serve: reading NDJSON frames from stdin");
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout().lock();
            daemon
                .run(stdin.lock(), &mut stdout)
                .map(|_| ())
                .map_err(|e| format!("serve: {e}"))
        }
    }
}

// --------------------------------------------------------- validate-trace --

/// Reads a trace operand: a file path, or `-` for stdin (so a trace can
/// be piped straight out of a run or a flight dump without a temp file).
fn read_trace_input(path: &str) -> Result<String, String> {
    if path == "-" {
        use std::io::Read as _;
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("read stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
    }
}

/// Checks every line of a JSONL trace file against a golden schema; CI
/// runs this on a seeded session so a renamed event or dropped field
/// fails the build instead of silently breaking trace consumers.
fn cmd_validate_trace(opts: &Flags) -> Result<(), String> {
    let trace_path = flag(opts, "trace")?;
    let schema_path = flag(opts, "schema")?;
    let schema = TraceSchema::load(std::path::Path::new(schema_path))?;
    let trace = read_trace_input(trace_path)?;
    match schema.check_trace(&trace) {
        Ok(n) => {
            println!("{trace_path}: {n} lines conform to {schema_path}");
            Ok(())
        }
        Err(violations) => {
            for v in &violations {
                eprintln!("{trace_path}: {v}");
            }
            Err(format!("{} schema violation(s)", violations.len()))
        }
    }
}

// ---------------------------------------------------------------- trace --

/// `cliffguard trace report|diff`: offline analysis of JSONL traces.
/// Both renderings are deterministic — byte-identical traces produce
/// byte-identical reports — so CI compares them against golden files.
fn cmd_trace(args: &[String], opts: &Flags) -> Result<(), String> {
    use cliffguard::cli::positionals;
    use cliffguard::trace_analysis::{diff, parse_trace, DiffThresholds, Report};

    let pos = positionals(args);
    let json = opts.contains_key("json");
    let load = |path: &str| -> Result<Report, String> {
        let text = read_trace_input(path)?;
        Ok(Report::build(
            parse_trace(&text).map_err(|e| format!("{path}: {e}"))?,
        ))
    };
    match pos.first().map(String::as_str) {
        Some("report") => {
            let path = pos
                .get(1)
                .ok_or("usage: cliffguard trace report TRACE.jsonl|- [--json]")?;
            let report = load(path)?;
            if json {
                println!("{}", report.render_json(path));
            } else {
                print!("{}", report.render_text(path));
            }
            Ok(())
        }
        Some("diff") => {
            let usage = "usage: cliffguard trace diff BASELINE.jsonl CANDIDATE.jsonl \
                         [--json] [--max-worst-case-pct P] [--max-time-pct P]";
            let a = pos.get(1).ok_or(usage)?;
            let b = pos.get(2).ok_or(usage)?;
            let mut thresholds = DiffThresholds::default();
            let pct = |name: &str| -> Result<Option<f64>, String> {
                match opts.get(name) {
                    None => Ok(None),
                    Some(s) => match s.parse::<f64>() {
                        Ok(p) if p >= 0.0 => Ok(Some(p / 100.0)),
                        _ => Err(format!("bad --{name} `{s}` (want a percentage)")),
                    },
                }
            };
            if let Some(p) = pct("max-worst-case-pct")? {
                thresholds.worst_case_pct = p;
            }
            if let Some(p) = pct("max-time-pct")? {
                thresholds.elapsed_pct = p;
            }
            let d = diff(&load(a)?, &load(b)?, &thresholds);
            if json {
                println!("{}", d.render_json(a, b));
            } else {
                print!("{}", d.render_text(a, b));
            }
            if d.regressed() {
                Err(format!("{} trace regression(s)", d.regressions.len()))
            } else {
                Ok(())
            }
        }
        _ => Err("usage: cliffguard trace report|diff … (see --help)".into()),
    }
}

// ------------------------------------------------------------- evaluate --

fn cmd_evaluate(opts: &Flags) -> Result<(), String> {
    let catalog = load_catalog(opts)?;
    let log = load_log(opts, &catalog)?;
    let windows = log.windows_days(window_days(opts)?);
    if windows.len() < 2 {
        return Err("need at least two windows to evaluate".into());
    }
    let engine = ColumnarEngine::new(catalog);
    let budget = budget_spec(opts)?.bytes(engine.catalog());
    let metric = DeltaEuclidean::new(engine.catalog().column_count());
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let eval_opts = EvalOptions {
        budget_bytes: budget,
        designable_factor: 3.0,
    };

    println!("{:<24} {:>12} {:>12}", "strategy", "avg ms", "max ms");
    fn run<S: DesignStrategy<ColumnarEngine>>(
        engine: &ColumnarEngine,
        windows: &[Workload],
        metric: &DeltaEuclidean,
        eval_opts: &EvalOptions,
        name: &str,
        s: &mut S,
    ) {
        let r = evaluate_strategy(engine, s, windows, metric, eval_opts);
        println!(
            "{:<24} {:>12.1} {:>12.1}",
            name, r.mean_avg_ms, r.mean_max_ms
        );
    }
    run(
        &engine,
        &windows,
        &metric,
        &eval_opts,
        "NoDesign",
        &mut NoDesign,
    );
    run(
        &engine,
        &windows,
        &metric,
        &eval_opts,
        "ExistingDesigner",
        &mut ExistingDesigner::new(&nominal),
    );
    run(
        &engine,
        &windows,
        &metric,
        &eval_opts,
        "FutureKnowing (oracle)",
        &mut FutureKnowingDesigner::new(&nominal),
    );
    run(
        &engine,
        &windows,
        &metric,
        &eval_opts,
        "AdaptiveIndexing",
        &mut AdaptiveIndexingStrategy::<cliffguard::sim::Projection>::new(),
    );
    run(
        &engine,
        &windows,
        &metric,
        &eval_opts,
        "CliffGuard",
        &mut CliffGuardStrategy::new(&nominal, metric, GammaPolicy::KMaxPastDeltas(1.5), 7),
    );
    Ok(())
}
