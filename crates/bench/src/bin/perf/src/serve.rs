//! `serve`: one design request to the daemon per op.
//!
//! `Daemon::serve_tcp` runs on a bench thread over loopback with a durable
//! state directory, `max_concurrent` = threads and `max_queue` = 8. Each of
//! `threads` clients runs a closed loop: connect, send one design frame for
//! one of eight canned tenants plus `drain`, read until the `drain` reply,
//! close. A tenant's frame is `testdata::design_request(tenant, seed + i)`
//! (the R1 log at volume 0.2, four windows, about 49 KB); the generator's
//! fifth window, which the daemon never sees, measures design quality.

use crate::common::*;
use crate::spans::Tracer;
use cliffguard::prelude::*;
use cliffguard::serve::{
    design_line, parse_request, Daemon, DesignReport, DesignRequest, Request, ServeConfig,
};
use cliffguard::workload::logio::import_log;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TENANTS: u64 = 16;
const WINDOWS: usize = 4;
const SCALE: f64 = 0.2;
/// A reply slower than this counts as a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

struct Tenant {
    seed: u64,
    frame: String,
    catalog: Value,
    log_tsv: String,
    next: Workload,
    distinct: usize,
}

/// A tenant's frame, and the window after its log's last one.
fn generate(i: u64, seed: u64) -> Tenant {
    let mut config = WorkloadProfile::R1.config(seed).scaled(SCALE);
    config.n_windows = WINDOWS + 1;
    let window_secs = config.window_days * 86_400;
    let mut generator = DriftingGenerator::new(config);
    let shape = generator.shape().clone();
    let log = generator.generate();
    let catalog = CatalogGenerator {
        seed,
        ..CatalogGenerator::default()
    }
    .generate(&shape);
    // The generator draws windows in order, so the first four are exactly
    // the log `testdata::design_request` sends.
    let cut = log.entries().first().map_or(0, |e| e.timestamp) + WINDOWS as u64 * window_secs;
    let (seen, next): (Vec<_>, Vec<_>) = log
        .entries()
        .iter()
        .cloned()
        .partition(|e| e.timestamp < cut);
    let log_tsv = catalog.export_log(&QueryLog::from_entries(seen));
    let mut req = DesignRequest::new(format!("tenant-{i}"), catalog.to_value(), log_tsv.clone());
    req.seed = seed;
    Tenant {
        seed,
        frame: design_line(&req),
        catalog: catalog.to_value(),
        distinct: distinct_statements(&log_tsv),
        log_tsv,
        next: QueryLog::from_entries(next).as_workload(),
    }
}

/// The daemon on its bench thread.
struct Running {
    addr: SocketAddr,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Running {
    fn start(config: ServeConfig) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let thread = std::thread::spawn(move || {
            let mut daemon = Daemon::new(config).map_err(|e| format!("daemon: {e}"))?;
            daemon
                .serve_tcp(listener)
                .map_err(|e| format!("serve: {e}"))
        });
        Ok(Self {
            addr,
            thread: Some(thread),
        })
    }

    /// Sends the final `shutdown` frame and waits for the daemon to end.
    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = converse(
            self.addr,
            &["{\"op\":\"shutdown\"}\n"],
            "\"op\":\"shutdown\"",
        );
        let ended = thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        sent.and(ended)
    }
}

/// Connects, sends `frames`, and reads reply lines through the first one
/// containing `until`. Returns each line with its arrival time (ms after
/// the connect began).
fn converse(addr: SocketAddr, frames: &[&str], until: &str) -> Result<Vec<(f64, String)>, String> {
    let t0 = Instant::now();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("socket: {e}"))?;
    for frame in frames {
        (&stream)
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
    }
    let mut reader = BufReader::new(&stream);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(format!("connection closed before `{until}`")),
            Ok(_) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        let done = line.contains(until);
        lines.push((ms_since(t0), line.trim_end().to_string()));
        if done {
            return Ok(lines);
        }
    }
}

/// One design request: connect, send the frame and `drain`, read through
/// the `drain` reply. Returns connect → design reply (ms) and that reply.
fn request(addr: SocketAddr, frame: &str, tracer: &Tracer) -> Result<(f64, String), String> {
    let lines = {
        let _s = tracer.span("serve.request");
        converse(addr, &[frame, "\n{\"op\":\"drain\"}\n"], "\"op\":\"drain\"")?
    };
    match lines.as_slice() {
        [design, _drained] if design.1.contains("\"op\":\"design\"") => Ok(design.clone()),
        other => Err(format!("unexpected replies: {other:?}")),
    }
}

/// Client-side probes of the work the daemon does on a frame before its
/// session starts: protocol decode, catalog decode and log import.
/// Returns the records parsed.
fn probe(frame: &str, tracer: &Tracer) -> Result<usize, String> {
    let req = {
        let _s = tracer.span("serve.decode");
        match parse_request(frame) {
            Ok(Request::Design(req)) => req,
            other => {
                return Err(format!(
                    "frame does not decode to a design request: {other:?}"
                ))
            }
        }
    };
    let catalog = {
        let _s = tracer.span("storage.catalog_decode");
        let mut c = Catalog::from_value(&req.catalog).map_err(|e| format!("catalog: {e}"))?;
        c.rebuild_index();
        c
    };
    let _s = tracer.span("workload.import_log");
    Ok(import_log(&req.log, &catalog).1.parsed)
}

pub struct ServeBench {
    tenants: Vec<Tenant>,
    clients: usize,
    state_dir: PathBuf,
    daemon: Running,
    /// Every design reply so far, by tenant index.
    replies: Vec<(usize, String)>,
    /// Requests sent to this daemon, warm-up included.
    requests: u64,
    next_op: AtomicU64,
}

/// What one client's closed loop produced.
#[derive(Default)]
struct ClientRun {
    tally: Tally,
    replies: Vec<(usize, String)>,
    parsed: usize,
    distinct: usize,
}

impl ServeBench {
    /// One client's closed loop: client `c` of `n` cycles through tenants
    /// `c, c + n, c + 2n, …`.
    fn client(&self, c: usize, plan: Plan, started: Instant, tracer: &Tracer) -> ClientRun {
        let mut run = ClientRun::default();
        let mut j = 0;
        while !plan.done(started, j) {
            let t = (c + j * self.clients) % TENANTS as usize;
            j += 1;
            let tenant = &self.tenants[t];
            run.tally.calibrate();
            let _op = tracer.op(self.next_op.fetch_add(1, Ordering::Relaxed));
            run.tally.attempted += 1;
            // Both phases of a traced run probe, so the think time the
            // probes add to the closed loop is the same in each.
            if tracer.traced_run() {
                match probe(&tenant.frame, tracer) {
                    Ok(parsed) => {
                        run.parsed += parsed;
                        run.distinct += tenant.distinct;
                    }
                    Err(e) => run.tally.fail(format!("tenant-{t}: {e}")),
                }
            }
            match request(self.daemon.addr, &tenant.frame, tracer) {
                Ok((ms, reply)) => {
                    run.tally.latency.push(ms);
                    run.replies.push((t, reply));
                }
                Err(e) => run.tally.fail(format!("tenant-{t}: {e}")),
            }
        }
        run.tally.ops = j as u64;
        run
    }

    /// Runs every client's closed loop concurrently.
    fn run_clients(&mut self, plan: Plan, tracer: &Tracer, tally: &mut Tally) -> (usize, usize) {
        let per_client = Plan {
            seconds: plan.seconds,
            min_ops: plan.min_ops.div_ceil(self.clients),
        };
        let started = Instant::now();
        let this = &*self;
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..this.clients)
                .map(|c| scope.spawn(move || this.client(c, per_client, started, tracer)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        tally.wall_s = started.elapsed().as_secs_f64();
        let (mut parsed, mut distinct) = (0, 0);
        for run in runs {
            self.requests += run.tally.attempted;
            self.replies.extend(run.replies);
            parsed += run.parsed;
            distinct += run.distinct;
            tally.merge(run.tally);
        }
        (parsed, distinct)
    }
}

/// Files and bytes under `dir`.
fn tree_size(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .fold((0, 0), |(files, bytes), e| match e.metadata() {
            Ok(m) if m.is_dir() => {
                let (f, b) = tree_size(&e.path());
                (files + f, bytes + b)
            }
            Ok(m) => (files + 1, bytes + m.len()),
            Err(_) => (files, bytes),
        })
}

impl Bench for ServeBench {
    /// 100 requests per client, so 200 latency samples.
    const MIN_OPS: usize = 200;

    fn setup(s: &Settings, tracer: &Tracer, tally: &mut Tally) -> Result<Self, String> {
        let tenants = (0..TENANTS)
            .map(|i| generate(i, s.seed.wrapping_add(i)))
            .collect();
        // The previous set-up's daemon removed its state before this one.
        let state_dir = s.tmp.join("serve-state");
        let daemon = Running::start(ServeConfig {
            state_dir: Some(state_dir.clone()),
            max_concurrent: s.threads,
            max_queue: 8,
            ..ServeConfig::default()
        })?;
        let mut bench = Self {
            tenants,
            clients: s.threads,
            state_dir,
            daemon,
            replies: Vec::new(),
            requests: 0,
            next_op: AtomicU64::new(0),
        };
        let warmup = Plan {
            seconds: 0.0,
            min_ops: s.warmup(2) * bench.clients,
        };
        let mut warm = Tally::default();
        bench.run_clients(warmup, tracer, &mut warm);
        tally.attempted += warm.attempted;
        tally.failed += warm.failed;
        tally.failures.extend(warm.failures);
        Ok(bench)
    }

    fn measure(&mut self, plan: Plan, tracer: &Tracer, tally: &mut Tally) {
        let (parsed, distinct) = self.run_clients(plan, tracer, tally);
        tally.extra("records_parsed", parsed as f64, "count");
        tally.extra("distinct_records", distinct as f64, "count");
        let frame_bytes: usize = self.tenants.iter().map(|t| t.frame.len() + 1).sum();
        let frame_bytes = frame_bytes as f64 / TENANTS as f64;
        tally.extra("serve.frame_bytes", frame_bytes, "bytes");
        tally.extra("input_kib", frame_bytes / 1024.0, "KiB");
        let (files, bytes) = tree_size(&self.state_dir);
        let per = self.requests.max(1) as f64;
        tally.extra("serve.store_files_per_request", files as f64 / per, "count");
        tally.extra("serve.store_bytes_per_request", bytes as f64 / per, "bytes");
        tally.extra(
            "serve.store_write_amplification",
            bytes as f64 / per / frame_bytes,
            "ratio",
        );
    }

    fn finish(&mut self, tally: &mut Tally) -> Quality {
        let mut seen: HashMap<usize, u64> = HashMap::new();
        for (t, reply) in &self.replies {
            match reply_fingerprint(reply) {
                Ok(fp) => {
                    let first = *seen.entry(*t).or_insert(fp);
                    tally.check(fp == first, || {
                        format!("tenant-{t}: fingerprint {fp:016x}, first reply {first:016x}")
                    });
                }
                Err(e) => tally.fail(format!("tenant-{t}: {e}")),
            }
        }
        // The daemon's design must be the one the library path produces
        // on the same inputs; that design's next-window cost is the
        // quality number.
        let mut costs = Vec::new();
        let quiet = Tracer::default();
        for (t, tenant) in self.tenants.iter().enumerate() {
            let Some(&served) = seen.get(&t) else {
                continue;
            };
            let local = Catalog::from_value(&tenant.catalog)
                .map_err(|e| e.to_string())
                .and_then(|mut catalog| {
                    catalog.rebuild_index();
                    let (log, _) = import_log(&tenant.log_tsv, &catalog);
                    let windows = log.windows_days(28);
                    let engine = ColumnarEngine::new(catalog);
                    let d = design_session(&engine, &windows, tenant.seed, &quiet)?;
                    Ok((
                        d.design.fingerprint(),
                        next_window_cost(&engine, &d.design, &tenant.next),
                    ))
                });
            match local {
                Ok((fp, cost)) => {
                    tally.check(fp == served, || {
                        format!("tenant-{t}: served {served:016x}, library path {fp:016x}")
                    });
                    costs.push(cost);
                }
                Err(e) => tally.fail(format!("tenant-{t}: {e}")),
            }
        }
        Quality::mean(&costs)
    }
}

/// The design fingerprint of a `done` design reply, whose descent must
/// not have ended above its start.
fn reply_fingerprint(reply: &str) -> Result<u64, String> {
    let v: Value = serde_json::from_str(reply).map_err(|e| format!("reply: {e}"))?;
    if field(&v, "status") != Some(&Value::Str("done".into())) {
        return Err(format!("not done: {reply}"));
    }
    let report = DesignReport::from_value(field(&v, "report").ok_or("reply without a report")?)
        .map_err(|e| format!("report: {e}"))?;
    let worst: Vec<f64> = report
        .worst_case_bits
        .iter()
        .copied()
        .map(f64::from_bits)
        .collect();
    check_descent(&worst)?;
    Ok(report.fingerprint)
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        if let Err(e) = self.daemon.stop() {
            eprintln!("perf: stopping the daemon: {e}");
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}
