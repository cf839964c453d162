//! The `cliffguard serve` daemon: intake, admission, drain, recovery.
//!
//! One intake thread reads NDJSON frames and assigns each a sequence
//! number; design requests are admitted onto the shared worker pool, and
//! every other verb (`status`/`metrics`/`dump`/`drain`/`shutdown`) — plus
//! end of input — is a **drain barrier**: the daemon waits for all
//! admitted sessions in admission order, emits their responses, and only
//! then answers the verb.
//!
//! # Flight recorder
//!
//! Every admitted session carries its own bounded
//! [`FlightRecorder`](cliffguard_telemetry::FlightRecorder) retaining the
//! last trace events at **all** levels. When a session degrades (frozen
//! by the session core) or its worker panics (frozen by the submit
//! closure's catch), the drain barrier persists the dump as
//! `flight-<tenant>-<seq>.jsonl` in the state directory and the `dump`
//! verb serves the most recent one. In virtual-time mode the dump is
//! byte-identical across reruns and worker counts.
//!
//! # Determinism contract
//!
//! The output stream is a pure function of the input tape and the daemon
//! configuration (with `virtual_time`), independent of worker count and
//! completion order:
//!
//! * responses for design requests are emitted **only at barriers**, in
//!   admission (`seq`) order;
//! * queue occupancy changes only at admissions and barriers — both
//!   tape-driven — so a "queue full" rejection is deterministic;
//! * each session runs on its own fresh virtual clock and seeded sampler,
//!   so concurrent tenants cannot perturb each other's descents.
//!
//! # Recovery
//!
//! With a state directory, every admitted request is persisted before it
//! runs and its checkpoints are persisted as the descent progresses. A
//! daemon that dies mid-session leaves those sessions *pending*; the next
//! daemon started on the same directory re-admits them (in original
//! admission order, before reading any new input) and their responses are
//! emitted with `"resumed": true` — final design and audit trail
//! bit-identical to an uninterrupted run, per the session-layer resume
//! guarantee.

use crate::ingest::IngestSession;
use crate::protocol::{
    parse_request, DesignStatus, FlightInfo, IngestRequest, MetricsFormat, Request, Response,
    MAX_FRAME_BYTES,
};
use crate::runner::{run_design, RunOutcome, RunnerOptions};
use crate::scheduler::WorkerPool;
use crate::store::CheckpointStore;
use crate::tenant::TenantRegistry;
use cliffguard_resilience::SessionClock;
use cliffguard_telemetry::{
    self as telemetry, render_prometheus, FlightRecorder, Level, DEFAULT_FLIGHT_CAPACITY,
};
use serde::Value;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Daemon configuration (the `cliffguard serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where to persist session state; `None` disables durability (a kill
    /// then loses in-flight sessions).
    pub state_dir: Option<PathBuf>,
    /// Worker threads running design sessions concurrently.
    pub max_concurrent: usize,
    /// Admission cap: in-flight (admitted, not yet drained) sessions
    /// beyond this are rejected with a reason.
    pub max_queue: usize,
    /// Default per-session deadline (ms) for requests that carry none.
    pub tenant_deadline_ms: Option<u64>,
    /// Persist every k-th checkpoint (1 = every iteration).
    pub checkpoint_every: usize,
    /// Run sessions on fresh virtual clocks (deterministic output).
    pub virtual_time: bool,
    /// Fault-plan spec applied to requests that carry none (the daemon's
    /// `CLIFFGUARD_FAULTS`, resolved once at startup).
    pub default_faults: Option<String>,
    /// Test hook: abort every session before this 0-based iteration, as
    /// if the daemon were killed there. Interrupted sessions persist
    /// their checkpoint and emit **no** response; a restart on the same
    /// state directory completes them.
    pub kill_after_iterations: Option<usize>,
    /// External kill switch shared with a signal handler: raised →
    /// sessions checkpoint and the daemon stops admitting.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let threads = cliffguard_parallel::current_threads();
        Self {
            state_dir: None,
            max_concurrent: threads,
            max_queue: threads * 4,
            tenant_deadline_ms: None,
            checkpoint_every: 1,
            virtual_time: false,
            default_faults: None,
            kill_after_iterations: None,
            stop: None,
        }
    }
}

struct InFlight {
    seq: u64,
    tenant: String,
    resumed: bool,
    /// The session's flight recorder: frozen by the session on
    /// degradation (via `telemetry::freeze_current`) or by the worker's
    /// panic catch, then collected at the drain barrier.
    recorder: Arc<FlightRecorder>,
}

/// A fresh clock for one design or ingest session: virtual under
/// `virtual_time` (deterministic output), system otherwise.
fn session_clock(virtual_time: bool) -> SessionClock {
    if virtual_time {
        SessionClock::virtual_clock()
    } else {
        SessionClock::system()
    }
}

/// Best-effort panic-payload rendering, matching the worker pool's own
/// downcast so the frozen flight dump and the wire response carry the
/// same message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// One frame read from the wire by [`read_frame`].
enum Frame {
    /// A complete line (newline stripped) within the size limit.
    Line(String),
    /// A frame refused at the I/O layer (oversize or not UTF-8). It still
    /// consumes a sequence number and gets an `error` response.
    Refused(String),
    /// End of input.
    Eof,
}

/// Reads one newline-delimited frame without ever buffering more than
/// [`MAX_FRAME_BYTES`] (plus the reader's own block): once a frame
/// exceeds the limit, the rest of it is consumed and *discarded*, so a
/// client streaming gigabytes without a newline costs counting, not
/// memory. Invalid UTF-8 is likewise refused here instead of surfacing as
/// an I/O error that would end the stream.
fn read_frame<R: BufRead>(input: &mut R) -> io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversize = 0usize; // total frame length, once past the limit
    let mut saw_any = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            if !saw_any {
                return Ok(Frame::Eof);
            }
            break;
        }
        saw_any = true;
        let (take, saw_newline) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, true),
            None => (chunk.len(), false),
        };
        if oversize > 0 {
            oversize += take;
        } else if buf.len() + take > MAX_FRAME_BYTES {
            oversize = buf.len() + take;
            buf = Vec::new(); // drop what was buffered; the frame is refused
        } else {
            buf.extend_from_slice(&chunk[..take]);
        }
        input.consume(take + usize::from(saw_newline));
        if saw_newline {
            break;
        }
    }
    if oversize > 0 {
        return Ok(Frame::Refused(format!(
            "frame of {oversize} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Frame::Line(line)),
        Err(_) => Ok(Frame::Refused("frame is not valid UTF-8".into())),
    }
}

/// A running advisor-as-a-service instance. Feed it frames with
/// [`run`](Daemon::run) (stdin/stdout or any reader/writer pair) or
/// [`serve_tcp`](Daemon::serve_tcp).
pub struct Daemon {
    config: ServeConfig,
    store: Option<CheckpointStore>,
    pool: WorkerPool<RunOutcome>,
    tenants: TenantRegistry,
    in_flight: Vec<InFlight>,
    /// Per-tenant streaming ingest sessions, keyed by tenant. Handled
    /// synchronously (no pool, no barrier); with a state directory each
    /// session is persisted after every frame and lazily reloaded, so
    /// kill/resume replays the trigger history byte-identically.
    ingests: HashMap<String, IngestSession>,
    next_seq: u64,
    completed: u64,
    /// Most recent flight-recorder dump collected at a drain barrier,
    /// served by the `dump` verb.
    last_flight: Option<FlightInfo>,
}

impl Daemon {
    /// Builds the daemon and re-admits any pending sessions found in the
    /// state directory (their responses are emitted at the first
    /// barrier).
    pub fn new(config: ServeConfig) -> io::Result<Self> {
        let store = match &config.state_dir {
            Some(dir) => Some(CheckpointStore::open(dir.clone())?),
            None => None,
        };
        let next_seq = match &store {
            Some(s) => s.max_seq()? + 1,
            None => 1,
        };
        telemetry::event(Level::Info, "cliffguard.serve.start")
            .u64("max_concurrent", config.max_concurrent as u64)
            .u64("max_queue", config.max_queue as u64)
            .bool("durable", store.is_some())
            .emit();
        let mut daemon = Self {
            pool: WorkerPool::new(config.max_concurrent),
            store,
            config,
            tenants: TenantRegistry::new(),
            in_flight: Vec::new(),
            ingests: HashMap::new(),
            next_seq,
            completed: 0,
            last_flight: None,
        };
        daemon.recover()?;
        Ok(daemon)
    }

    /// Prometheus text exposition of the live metrics registry (empty
    /// when telemetry metrics are not installed).
    fn prometheus_body() -> String {
        telemetry::registry()
            .map(|r| render_prometheus(&r.snapshot()))
            .unwrap_or_default()
    }

    /// Answers a raw `GET <path>` request line with a minimal HTTP/1.0
    /// response and closes. `/metrics` serves the Prometheus text
    /// format; everything else is a 404. Request headers (if the client
    /// sent any) are never read — the connection closes after the body,
    /// which HTTP/1.0 clients and Prometheus scrapers both accept.
    fn answer_http_scrape(line: &str, out: &mut dyn Write) -> io::Result<()> {
        let path = line.split_whitespace().nth(1).unwrap_or("");
        let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
            ("200 OK", Self::prometheus_body())
        } else {
            ("404 Not Found", String::new())
        };
        write!(
            out,
            "HTTP/1.0 {status}\r\n\
             Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )?;
        out.flush()
    }

    /// Re-admits pending sessions from the store, original seq first.
    fn recover(&mut self) -> io::Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let pending = store.pending()?;
        if pending.is_empty() {
            return Ok(());
        }
        telemetry::event(Level::Info, "cliffguard.serve.recover")
            .u64("pending", pending.len() as u64)
            .emit();
        for p in pending {
            let Ok(Request::Design(req)) = parse_request(&p.request_line) else {
                // A corrupt envelope cannot be re-run; leave it on disk
                // for inspection rather than failing recovery.
                continue;
            };
            let row = self.tenants.stats_mut(&p.tenant);
            row.admitted += 1;
            row.resumed += 1;
            self.submit(p.seq, *req, p.checkpoint_json, true);
        }
        Ok(())
    }

    /// Queues one design session on the pool.
    fn submit(
        &mut self,
        seq: u64,
        req: crate::protocol::DesignRequest,
        checkpoint: Option<String>,
        resumed: bool,
    ) {
        let tenant = req.tenant.clone();
        let recorder = Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY));
        self.in_flight.push(InFlight {
            seq,
            tenant: tenant.clone(),
            resumed,
            recorder: recorder.clone(),
        });
        let mut opts = RunnerOptions {
            tenant_deadline_ms: self.config.tenant_deadline_ms,
            checkpoint_every: self.config.checkpoint_every,
            stop: self.config.stop.clone(),
            abort_after_iterations: self.config.kill_after_iterations,
            recorder: Some(recorder.clone()),
            ..RunnerOptions::default()
        };
        let virtual_time = self.config.virtual_time;
        let store = self.store.clone();
        self.pool.submit(
            seq,
            Box::new(move || {
                // Every session runs on its own clock, started when a
                // worker picks the session up.
                opts.clock = session_clock(virtual_time);
                // The inner catch exists only to freeze the session's
                // black box with the panic message; the payload is
                // re-raised so the pool still reports the panic as
                // `Err` and the drain barrier answers the tenant.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_design(&req, &opts, checkpoint.as_deref(), &mut |ckpt| {
                        if let Some(store) = &store {
                            let _ = store.save_checkpoint(&tenant, seq, ckpt);
                        }
                    })
                }));
                match result {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        recorder.freeze(&format!(
                            "worker panic: {}",
                            panic_message(payload.as_ref())
                        ));
                        std::panic::resume_unwind(payload);
                    }
                }
            }),
        );
    }

    /// Drain barrier: waits for every in-flight session in admission
    /// order, emits its response (interrupted sessions emit none), and
    /// frees all queue slots. Returns the number of design responses
    /// emitted.
    ///
    /// A broken writer (a TCP client that disconnected mid-drain) must
    /// not abort the barrier: every session still completes, persists its
    /// result, and updates tenant stats; the first write error is
    /// returned only after the queue is empty, so the daemon is left in a
    /// consistent state for the next connection.
    fn drain(&mut self, out: &mut dyn Write) -> io::Result<u64> {
        let mut emitted = 0u64;
        let mut write_err: Option<io::Error> = None;
        for flight in std::mem::take(&mut self.in_flight) {
            let InFlight {
                seq,
                tenant,
                resumed,
                recorder,
            } = flight;
            let (status, reason, report) = match self.pool.wait(seq) {
                Ok(RunOutcome::Done(run)) => {
                    let report = run.report();
                    match report.degraded.clone() {
                        Some(r) => (DesignStatus::Degraded, Some(r), Some(report)),
                        None => (DesignStatus::Done, None, Some(report)),
                    }
                }
                Ok(RunOutcome::Rejected(reason)) => (DesignStatus::Rejected, Some(reason), None),
                Ok(RunOutcome::Interrupted(ckpt)) => {
                    // The session checkpointed under a stop/kill: persist
                    // the final checkpoint and leave it pending — the
                    // restarted daemon owes the tenant this response.
                    if let Some(store) = &self.store {
                        let _ = store.save_checkpoint(&tenant, seq, &ckpt);
                    }
                    self.tenants.record_outcome(&tenant, "interrupted", None);
                    continue;
                }
                Err(panic_msg) => (
                    DesignStatus::Rejected,
                    Some(format!("internal error: {panic_msg}")),
                    None,
                ),
            };
            // A frozen recorder means the session hit its black-box
            // trigger — degradation (frozen by the session core) or a
            // worker panic (frozen by the submit closure). Persist the
            // dump and surface it through the `dump` verb. Clean and
            // rejected sessions never freeze, so `take_dump` is `None`.
            if let Some(dump) = recorder.take_dump() {
                if let Some(store) = &self.store {
                    let _ = store.save_flight(&tenant, seq, &dump.jsonl);
                }
                self.tenants.stats_mut(&tenant).flights += 1;
                if let Some(c) = telemetry::counter("cliffguard.serve.flight_dumps") {
                    c.incr(1);
                }
                self.last_flight = Some(FlightInfo {
                    tenant: tenant.clone(),
                    session_seq: seq,
                    reason: dump.reason,
                    flight: dump.jsonl,
                });
            }
            let outcome = status.name();
            let fingerprint = report.as_ref().map(|r| r.fingerprint);
            let response = Response::Design {
                seq,
                tenant: tenant.clone(),
                status,
                reason,
                report,
                resumed,
            };
            let line = response.to_line();
            if let Some(store) = &self.store {
                // Result first, then the wire: a crash between the two
                // re-emits nothing (the session is complete on disk) —
                // better than re-running a session the tenant saw finish.
                let _ = store.save_result(&tenant, seq, &line);
            }
            if write_err.is_none() {
                if let Err(e) = writeln!(out, "{line}") {
                    write_err = Some(e);
                }
            }
            self.tenants.record_outcome(&tenant, outcome, fingerprint);
            if status != DesignStatus::Rejected {
                self.completed += 1;
            }
            telemetry::event(Level::Info, "cliffguard.serve.session.end")
                .u64("seq", seq)
                .str("tenant", &tenant)
                .str("status", outcome)
                .emit();
            emitted += 1;
        }
        match write_err {
            Some(e) => Err(e),
            None => Ok(emitted),
        }
    }

    /// Handles one `ingest` frame synchronously: find (or lazily reload,
    /// or create) the tenant's streaming session, feed the chunk, persist
    /// the snapshot, answer. A catalog-bearing frame always starts a
    /// *fresh* session — any live session or persisted snapshot for the
    /// tenant (e.g. from a tape abandoned without `eof`) is discarded
    /// rather than silently continuing with the old window/Γ knobs. On
    /// `eof` the session is finalized and its snapshot removed.
    fn handle_ingest(&mut self, seq: u64, req: IngestRequest) -> Response {
        let tenant = req.tenant.clone();
        if req.catalog.is_some() {
            // Session reset: the frame's catalog and knobs win over any
            // stale state for this tenant.
            self.ingests.remove(&tenant);
            if let Some(store) = &self.store {
                let _ = store.remove_ingest(&tenant);
            }
            match IngestSession::create(&req, session_clock(self.config.virtual_time)) {
                Ok(session) => {
                    self.tenants.stats_mut(&tenant).admitted += 1;
                    self.ingests.insert(tenant.clone(), session);
                }
                Err(reason) => return Response::Error { seq, reason },
            }
        } else if !self.ingests.contains_key(&tenant) {
            // Lazily reload a snapshot a previous daemon persisted: the
            // resumed session replays the rest of the tape bit-identically
            // to an uninterrupted run.
            let loaded = self
                .store
                .as_ref()
                .and_then(|s| s.load_ingest(&tenant))
                .map(|json| {
                    IngestSession::from_json(&json, session_clock(self.config.virtual_time))
                });
            match loaded {
                Some(Ok(session)) => {
                    self.tenants.stats_mut(&tenant).resumed += 1;
                    self.ingests.insert(tenant.clone(), session);
                }
                Some(Err(e)) => {
                    return Response::Error {
                        seq,
                        reason: format!("ingest: corrupt snapshot for `{tenant}`: {e}"),
                    };
                }
                // `create` without a catalog yields the canonical
                // "first frame must carry a catalog" error.
                None => {
                    match IngestSession::create(&req, session_clock(self.config.virtual_time)) {
                        Ok(session) => {
                            self.tenants.stats_mut(&tenant).admitted += 1;
                            self.ingests.insert(tenant.clone(), session);
                        }
                        Err(reason) => return Response::Error { seq, reason },
                    }
                }
            }
        }
        let session = self.ingests.get_mut(&tenant).expect("just inserted");
        let audits = session.feed(&req.chunk, req.eof);
        for audit in &audits {
            telemetry::event(Level::Info, "cliffguard.serve.ingest.window")
                .u64("seq", seq)
                .str("tenant", &tenant)
                .u64("window", audit.index)
                .bool("triggered", audit.triggered)
                .emit();
        }
        let advisor = session.advisor();
        let stats = session.stats();
        let response = Response::Ingest {
            seq,
            tenant: tenant.clone(),
            windows: advisor.windows_closed(),
            audits: audits.iter().map(|a| a.line()).collect(),
            triggers: advisor.triggers().to_vec(),
            armed: advisor.armed(),
            cooldown: advisor.cooldown_left(),
            parsed: stats.parsed,
            skipped: stats.skipped_sql + stats.skipped_malformed,
            closed: req.eof,
        };
        if req.eof {
            self.ingests.remove(&tenant);
            if let Some(store) = &self.store {
                let _ = store.remove_ingest(&tenant);
            }
        } else if let Some(store) = &self.store {
            // Snapshot before the answer leaves: a crash after this point
            // resumes from a state the tenant's next frame expects.
            let json = self.ingests[&tenant].to_json();
            let _ = store.save_ingest(&tenant, &json);
        }
        response
    }

    fn status_snapshot(&self) -> Value {
        Value::Map(vec![
            (
                "max_concurrent".into(),
                Value::U64(self.config.max_concurrent as u64),
            ),
            ("max_queue".into(), Value::U64(self.config.max_queue as u64)),
            ("virtual_time".into(), Value::Bool(self.config.virtual_time)),
            (
                "durable".into(),
                Value::Bool(self.config.state_dir.is_some()),
            ),
            ("tenants".into(), Value::U64(self.tenants.len() as u64)),
            ("completed".into(), Value::U64(self.completed)),
            ("tenant_stats".into(), self.tenants.to_value()),
        ])
    }

    fn registry_snapshot() -> Option<Value> {
        let json = telemetry::registry()?.snapshot().to_json();
        serde_json::from_str(&json).ok()
    }

    /// Assigns the next sequence number, persisting the high-water mark
    /// so a restarted daemon never reuses a seq a client may have seen
    /// (error/verb frames leave no session directory to recover it from).
    fn take_seq(&mut self) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(store) = &self.store {
            store.record_seq(seq)?;
        }
        Ok(seq)
    }

    /// Processes one NDJSON stream to end of input (or `shutdown`).
    /// Returns `true` when a `shutdown` frame asked the whole daemon to
    /// stop — [`serve_tcp`](Self::serve_tcp) then stops accepting.
    pub fn run<R: BufRead, W: Write>(&mut self, input: R, out: &mut W) -> io::Result<bool> {
        self.run_stream(input, out, false)
    }

    /// [`run`](Self::run) with an optional scrape fast path: when
    /// `scrape` is set and the stream's **first** frame is a plain
    /// `status` or `metrics` — or a raw HTTP `GET /metrics` request
    /// line — the daemon answers from the current snapshot immediately —
    /// no drain barrier — and ends the stream so the connection closes
    /// cleanly. A monitoring client gets its answer without waiting on
    /// (or perturbing) in-flight sessions.
    /// Any other first frame, and every later frame, keeps the ordinary
    /// semantics: status/metrics mid-stream are still drain barriers, so
    /// their answers still reflect everything the same client submitted.
    fn run_stream<R: BufRead, W: Write>(
        &mut self,
        mut input: R,
        out: &mut W,
        scrape: bool,
    ) -> io::Result<bool> {
        let mut first = true;
        loop {
            let line = match read_frame(&mut input)? {
                Frame::Eof => break,
                Frame::Refused(reason) => {
                    // Oversize or non-UTF-8: refused at the I/O layer,
                    // answered like any other malformed frame.
                    first = false;
                    let seq = self.take_seq()?;
                    if let Some(c) = telemetry::counter("cliffguard.serve.frames") {
                        c.incr(1);
                    }
                    writeln!(out, "{}", Response::Error { seq, reason }.to_line())?;
                    out.flush()?;
                    continue;
                }
                Frame::Line(line) => line,
            };
            if line.trim().is_empty() {
                continue;
            }
            if scrape && first && line.starts_with("GET ") {
                // A raw HTTP scrape (`GET /metrics`) on a fresh
                // connection: answered from the live registry with
                // Prometheus text exposition — no drain barrier, no
                // sequence number consumed — then the connection
                // closes. Any other path gets a 404 and closes too.
                Self::answer_http_scrape(&line, out)?;
                return Ok(false);
            }
            let fresh = std::mem::take(&mut first);
            let seq = self.take_seq()?;
            if let Some(c) = telemetry::counter("cliffguard.serve.frames") {
                c.incr(1);
            }
            match parse_request(&line) {
                Err(e) => {
                    writeln!(
                        out,
                        "{}",
                        Response::Error {
                            seq,
                            reason: e.to_string()
                        }
                        .to_line()
                    )?;
                    out.flush()?;
                }
                Ok(Request::Design(mut req)) => {
                    telemetry::event(Level::Info, "cliffguard.serve.request")
                        .u64("seq", seq)
                        .str("tenant", &req.tenant)
                        .emit();
                    if self.in_flight.len() >= self.config.max_queue {
                        let reason = format!(
                            "queue full: {} sessions in flight, limit {} \
                             (send a drain/status/metrics frame to collect them)",
                            self.in_flight.len(),
                            self.config.max_queue
                        );
                        self.tenants.record_outcome(&req.tenant, "rejected", None);
                        writeln!(
                            out,
                            "{}",
                            Response::Design {
                                seq,
                                tenant: req.tenant.clone(),
                                status: DesignStatus::Rejected,
                                reason: Some(reason),
                                report: None,
                                resumed: false,
                            }
                            .to_line()
                        )?;
                        out.flush()?;
                        continue;
                    }
                    // Resolve the fault spec *into* the envelope, so the
                    // persisted request re-runs identically even if the
                    // restarted daemon has different defaults.
                    if req.faults.is_none() {
                        req.faults = self.config.default_faults.clone();
                    }
                    self.tenants.stats_mut(&req.tenant).admitted += 1;
                    if let Some(store) = &self.store {
                        store.save_request(
                            &req.tenant,
                            seq,
                            &Request::Design(req.clone()).to_line(),
                        )?;
                    }
                    self.submit(seq, *req, None, false);
                }
                Ok(Request::Ingest(req)) => {
                    // Streaming ingest is synchronous: no pool, no drain
                    // barrier — the frame is answered (and the session
                    // snapshot persisted) before the next frame is read.
                    let resp = self.handle_ingest(seq, *req);
                    writeln!(out, "{}", resp.to_line())?;
                    out.flush()?;
                }
                Ok(Request::Status) => {
                    let snap = scrape && fresh;
                    if !snap {
                        self.drain(out)?;
                    }
                    writeln!(
                        out,
                        "{}",
                        Response::Status {
                            seq,
                            snapshot: self.status_snapshot()
                        }
                        .to_line()
                    )?;
                    out.flush()?;
                    if snap {
                        // A scrape connection: answered, close cleanly.
                        return Ok(false);
                    }
                }
                Ok(Request::Metrics { format }) => {
                    let snap = scrape && fresh;
                    if !snap {
                        self.drain(out)?;
                    }
                    let line = match format {
                        MetricsFormat::Json => Response::Metrics {
                            seq,
                            tenants: self.tenants.to_value(),
                            registry: Self::registry_snapshot(),
                        }
                        .to_line(),
                        MetricsFormat::Prometheus => Response::MetricsText {
                            seq,
                            body: Self::prometheus_body(),
                        }
                        .to_line(),
                    };
                    writeln!(out, "{line}")?;
                    out.flush()?;
                    if snap {
                        return Ok(false);
                    }
                }
                Ok(Request::Dump) => {
                    // Like every other verb, `dump` is a drain barrier,
                    // so the answer reflects dumps from everything this
                    // client already submitted.
                    self.drain(out)?;
                    writeln!(
                        out,
                        "{}",
                        Response::Dump {
                            seq,
                            dump: self.last_flight.clone(),
                        }
                        .to_line()
                    )?;
                    out.flush()?;
                }
                Ok(Request::Drain) => {
                    let completed = self.drain(out)?;
                    writeln!(out, "{}", Response::Drained { seq, completed }.to_line())?;
                    out.flush()?;
                }
                Ok(Request::Shutdown) => {
                    self.drain(out)?;
                    writeln!(out, "{}", Response::Shutdown { seq }.to_line())?;
                    out.flush()?;
                    telemetry::event(Level::Info, "cliffguard.serve.shutdown")
                        .u64("seq", seq)
                        .emit();
                    return Ok(true);
                }
            }
        }
        // End of input is the final barrier: every admitted session still
        // terminates in a response (or a persisted pending checkpoint).
        self.drain(out)?;
        out.flush()?;
        Ok(false)
    }

    /// Serves connections from `listener`, one at a time, until a client
    /// sends `shutdown`. Sequence numbers and tenant state carry across
    /// connections. A connection-level failure — a client that
    /// disconnects before its drain barrier, a mid-stream socket error —
    /// ends that client only: its in-flight sessions still complete (and
    /// persist, with a state directory), and the daemon keeps accepting.
    /// Only listener/accept errors and `shutdown` stop the daemon.
    pub fn serve_tcp(&mut self, listener: TcpListener) -> io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".into());
            let reader = BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            // Fresh TCP connections get the scrape fast path: a leading
            // status/metrics frame is answered from the live snapshot
            // without a drain barrier, and the connection closes.
            match self.run_stream(reader, &mut writer, true) {
                Ok(true) => return Ok(()),
                Ok(false) => {}
                Err(e) => {
                    // The responses are undeliverable (the client is
                    // gone), but the sessions are not lost: drain to a
                    // sink so each one completes, persists its result,
                    // and frees its queue slot before the next client.
                    let _ = self.drain(&mut io::sink());
                    telemetry::event(Level::Warn, "cliffguard.serve.conn.error")
                        .str("peer", &peer)
                        .str("error", &e.to_string())
                        .emit();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{read_frame, Frame};
    use crate::harness::{design_line, ServeHarness};
    use crate::protocol::MAX_FRAME_BYTES;
    use std::io::{BufReader, Cursor};

    #[test]
    fn read_frame_splits_lines_and_reports_eof() {
        let mut input = BufReader::new(Cursor::new(b"one\n\ntwo".to_vec()));
        assert!(matches!(read_frame(&mut input).unwrap(), Frame::Line(l) if l == "one"));
        assert!(matches!(read_frame(&mut input).unwrap(), Frame::Line(l) if l.is_empty()));
        assert!(matches!(read_frame(&mut input).unwrap(), Frame::Line(l) if l == "two"));
        assert!(matches!(read_frame(&mut input).unwrap(), Frame::Eof));
    }

    #[test]
    fn read_frame_refuses_oversize_frames_without_buffering_them() {
        // One giant newline-less frame, then a normal one: the giant frame
        // is refused with its true length, and the stream keeps working.
        let huge_len = MAX_FRAME_BYTES + 3;
        let mut bytes = vec![b'x'; huge_len];
        bytes.extend_from_slice(b"\n{\"op\":\"drain\"}\n");
        // A tiny BufReader block proves the refusal can't come from one
        // fill_buf seeing the whole frame.
        let mut input = BufReader::with_capacity(4096, Cursor::new(bytes));
        match read_frame(&mut input).unwrap() {
            Frame::Refused(reason) => {
                assert!(reason.contains(&huge_len.to_string()), "{reason}");
                assert!(reason.contains("exceeds"), "{reason}");
            }
            _ => panic!("oversize frame must be refused"),
        }
        assert!(
            matches!(read_frame(&mut input).unwrap(), Frame::Line(l) if l == "{\"op\":\"drain\"}")
        );
    }

    #[test]
    fn non_utf8_frames_get_an_error_response_and_the_daemon_survives() {
        let mut bytes = vec![0xff, 0xfe, 0x80];
        bytes.extend_from_slice(b"\n{\"op\":\"drain\"}\n");
        let mut daemon = super::Daemon::new(super::ServeConfig {
            virtual_time: true,
            ..super::ServeConfig::default()
        })
        .expect("daemon builds");
        let mut out: Vec<u8> = Vec::new();
        daemon
            .run(BufReader::new(Cursor::new(bytes)), &mut out)
            .expect("a bad frame must not end the stream");
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains(r#""op":"error""#), "{}", lines[0]);
        assert!(lines[0].contains("UTF-8"), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"drain""#), "{}", lines[1]);
    }

    struct FailingWriter;

    impl std::io::Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client gone",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn broken_writer_completes_the_drain_before_surfacing_the_error() {
        let mut daemon = super::Daemon::new(super::ServeConfig {
            virtual_time: true,
            ..super::ServeConfig::default()
        })
        .expect("daemon builds");
        let mut tape = String::new();
        for (tenant, seed) in [("acme", 7u64), ("bravo", 8)] {
            tape.push_str(&design_line(&crate::testdata::design_request(tenant, seed)));
            tape.push('\n');
        }
        tape.push_str("{\"op\":\"drain\"}\n");
        let err = daemon
            .run(BufReader::new(Cursor::new(tape)), &mut FailingWriter)
            .expect_err("a dead client's drain must surface its write error");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // The barrier still ran to completion: both sessions finished,
        // the queue is empty, and the daemon serves the next stream.
        let mut out: Vec<u8> = Vec::new();
        let input = BufReader::new(Cursor::new("{\"op\":\"status\"}\n".to_string()));
        daemon.run(input, &mut out).expect("daemon still serves");
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains(r#""completed":2"#), "{out}");
    }

    #[test]
    fn garbage_frames_get_error_responses_and_the_daemon_survives() {
        let harness = ServeHarness::new();
        let out = harness.run_tape(&[
            "this is not json".into(),
            r#"{"op":"teleport"}"#.into(),
            r#"{"op":"drain"}"#.into(),
        ]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].contains(r#""op":"error""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"error""#), "{}", lines[1]);
        assert!(lines[2].contains(r#""op":"drain""#), "{}", lines[2]);
    }

    #[test]
    fn a_leading_scrape_frame_answers_immediately_and_ends_the_stream() {
        let mut daemon = super::Daemon::new(super::ServeConfig {
            virtual_time: true,
            ..super::ServeConfig::default()
        })
        .expect("daemon builds");
        // Scrape stream: a leading status is answered from the snapshot
        // and the stream ends — the frames behind it are never read.
        let tape = format!(
            "{{\"op\":\"status\"}}\n{}\n{{\"op\":\"drain\"}}\n",
            design_line(&crate::testdata::design_request("acme", 7))
        );
        let mut out: Vec<u8> = Vec::new();
        let shutdown = daemon
            .run_stream(BufReader::new(Cursor::new(tape.clone())), &mut out, true)
            .expect("scrape stream runs");
        assert!(!shutdown);
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "scrape must answer exactly once: {out}");
        assert!(lines[0].contains(r#""op":"status""#), "{}", lines[0]);
        assert!(lines[0].contains(r#""completed":0"#), "{}", lines[0]);
        // The same tape without the scrape flag keeps the barrier
        // semantics: every frame is read and answered.
        let mut out: Vec<u8> = Vec::new();
        daemon
            .run_stream(BufReader::new(Cursor::new(tape)), &mut out, false)
            .expect("plain stream runs");
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.lines().count(), 3, "{out}");
    }

    #[test]
    fn a_mid_stream_scrape_frame_is_still_a_drain_barrier() {
        let mut daemon = super::Daemon::new(super::ServeConfig {
            virtual_time: true,
            ..super::ServeConfig::default()
        })
        .expect("daemon builds");
        // Even on a scrape-capable stream, a status behind a design frame
        // drains first, so the answer reflects the submitted session.
        let tape = format!(
            "{}\n{{\"op\":\"metrics\"}}\n",
            design_line(&crate::testdata::design_request("acme", 7))
        );
        let mut out: Vec<u8> = Vec::new();
        daemon
            .run_stream(BufReader::new(Cursor::new(tape)), &mut out, true)
            .expect("stream runs");
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains(r#""status":"done""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"metrics""#), "{}", lines[1]);
    }

    #[test]
    fn queue_full_rejections_are_deterministic() {
        let mut harness = ServeHarness::new();
        harness.config.max_queue = 2;
        let mut tape: Vec<String> = (0..4)
            .map(|i| design_line(&crate::testdata::design_request(&format!("t{i}"), 7)))
            .collect();
        tape.push(r#"{"op":"drain"}"#.into());
        let out1 = harness.run_tape(&tape);
        let out2 = harness.run_tape(&tape);
        assert_eq!(out1, out2, "same tape must produce identical bytes");
        // Frames 3 and 4 overflow the 2-slot queue and are rejected
        // immediately; 1 and 2 complete at the drain barrier.
        let lines: Vec<&str> = out1.lines().collect();
        assert_eq!(lines.len(), 5, "{out1}");
        assert!(lines[0].contains(r#""status":"rejected""#), "{}", lines[0]);
        assert!(lines[0].contains("queue full"), "{}", lines[0]);
        assert!(lines[1].contains(r#""status":"rejected""#), "{}", lines[1]);
        assert!(lines[2].contains(r#""seq":1"#), "{}", lines[2]);
        assert!(lines[3].contains(r#""seq":2"#), "{}", lines[3]);
        assert!(lines[4].contains(r#""op":"drain""#), "{}", lines[4]);
    }

    /// A unique temp dir for one test (removed by the test itself).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cliffguard-daemon-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_leading_http_get_scrapes_prometheus_text_and_closes() {
        let mut daemon = super::Daemon::new(super::ServeConfig {
            virtual_time: true,
            ..super::ServeConfig::default()
        })
        .expect("daemon builds");
        // A raw HTTP request line, then frames that must never be read:
        // the scrape answers from the live registry and ends the stream.
        let tape = format!(
            "GET /metrics HTTP/1.0\n{}\n{{\"op\":\"drain\"}}\n",
            design_line(&crate::testdata::design_request("acme", 7))
        );
        let mut out: Vec<u8> = Vec::new();
        let shutdown = daemon
            .run_stream(BufReader::new(Cursor::new(tape)), &mut out, true)
            .expect("scrape stream runs");
        assert!(!shutdown);
        let out = String::from_utf8(out).unwrap();
        assert!(out.starts_with("HTTP/1.0 200 OK\r\n"), "{out}");
        assert!(
            out.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
            "{out}"
        );
        assert!(out.contains("Connection: close\r\n"), "{out}");
        let body = out.split("\r\n\r\n").nth(1).expect("header/body split");
        let len: usize = out
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("length header")
            .trim()
            .parse()
            .expect("numeric length");
        assert_eq!(len, body.len(), "Content-Length must match the body");
        assert!(
            !out.contains(r#""op":"#),
            "no NDJSON frame may leak into an HTTP scrape: {out}"
        );
        // The scrape consumed no sequence number: the next stream's
        // first frame is still seq 1.
        let mut out: Vec<u8> = Vec::new();
        let input = BufReader::new(Cursor::new("{\"op\":\"status\"}\n".to_string()));
        daemon.run(input, &mut out).expect("daemon still serves");
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains(r#""seq":1"#), "{out}");
        // Unknown paths get a 404, still closing cleanly.
        let mut out: Vec<u8> = Vec::new();
        let input = BufReader::new(Cursor::new("GET /other HTTP/1.0\n".to_string()));
        daemon
            .run_stream(input, &mut out, true)
            .expect("404 path runs");
        let out = String::from_utf8(out).unwrap();
        assert!(out.starts_with("HTTP/1.0 404 Not Found\r\n"), "{out}");
    }

    #[test]
    fn a_mid_stream_prometheus_metrics_frame_is_still_a_drain_barrier() {
        let mut daemon = super::Daemon::new(super::ServeConfig {
            virtual_time: true,
            ..super::ServeConfig::default()
        })
        .expect("daemon builds");
        let tape = format!(
            "{}\n{{\"op\":\"metrics\",\"format\":\"prometheus\"}}\n",
            design_line(&crate::testdata::design_request("acme", 7))
        );
        let mut out: Vec<u8> = Vec::new();
        daemon
            .run_stream(BufReader::new(Cursor::new(tape)), &mut out, true)
            .expect("stream runs");
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains(r#""status":"done""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"metrics""#), "{}", lines[1]);
        assert!(
            lines[1].contains(r#""format":"prometheus""#),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains(r#""body":""#), "{}", lines[1]);
    }

    #[test]
    fn a_malformed_metrics_format_gets_an_error_frame() {
        let harness = ServeHarness::new();
        let out = harness.run_tape(&[
            r#"{"op":"metrics","format":"xml"}"#.into(),
            r#"{"op":"metrics","format":7}"#.into(),
            r#"{"op":"drain"}"#.into(),
        ]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].contains(r#""op":"error""#), "{}", lines[0]);
        assert!(lines[0].contains("format"), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"error""#), "{}", lines[1]);
        assert!(lines[2].contains(r#""op":"drain""#), "{}", lines[2]);
    }

    #[test]
    fn dump_reports_unavailable_when_no_session_froze_a_recorder() {
        let harness = ServeHarness::new();
        let out = harness.run_tape(&[
            design_line(&crate::testdata::design_request("acme", 7)),
            r#"{"op":"dump"}"#.into(),
        ]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains(r#""status":"done""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"dump""#), "{}", lines[1]);
        assert!(lines[1].contains(r#""available":false"#), "{}", lines[1]);
    }

    #[test]
    fn a_panicking_worker_answers_the_tenant_and_leaves_a_flight_dump() {
        let dir = scratch_dir("panic-dump");
        let mut req = crate::testdata::design_request("acme", 7);
        req.faults = Some("panic@1".into());
        let tape = vec![design_line(&req), r#"{"op":"dump"}"#.into()];
        let run = |workers: usize| {
            ServeHarness::new()
                .with_max_concurrent(workers)
                .with_state_dir(dir.join(format!("w{workers}")))
                .run_tape(&tape)
        };
        let out = run(1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains(r#""status":"rejected""#), "{}", lines[0]);
        assert!(
            lines[0].contains("internal error: injected panic (call 1)"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains(r#""available":true"#), "{}", lines[1]);
        assert!(lines[1].contains(r#""tenant":"acme""#), "{}", lines[1]);
        assert!(
            lines[1].contains("worker panic: injected panic (call 1)"),
            "{}",
            lines[1]
        );
        // The black box is persisted next to the session state.
        let on_disk = std::fs::read_to_string(dir.join("w1").join("flight-acme-1.jsonl"))
            .expect("flight dump persists");
        assert!(!on_disk.is_empty());
        assert!(on_disk.ends_with('\n'), "dump is newline-terminated");
        for line in on_disk.lines() {
            assert!(
                line.starts_with("{\"t\":"),
                "flight lines are trace JSONL: {line}"
            );
        }
        // Byte-identical across reruns and worker counts: the recorder
        // rides the session's own virtual clock and thread.
        assert_eq!(out, run(8), "dump must not depend on worker count");
        let on_disk_8 = std::fs::read_to_string(dir.join("w8").join("flight-acme-1.jsonl"))
            .expect("flight dump persists at 8 workers");
        assert_eq!(on_disk, on_disk_8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_degraded_session_leaves_a_flight_dump_ending_in_the_degradation() {
        let dir = scratch_dir("degraded-dump");
        let mut req = crate::testdata::design_request("acme", 7);
        // Call 1 (the nominal design) and call 2 (iteration 0) succeed;
        // the next call fails with no retry budget, degrading the
        // session mid-descent — so the black box shows completed
        // iterations before the failure.
        req.faults = Some("fail@3,fail@4,fail@5,fail@6".into());
        req.max_retries = Some(0);
        let tape = vec![design_line(&req), r#"{"op":"dump"}"#.into()];
        // Reruns use fresh state dirs: a reused dir would advance the
        // persisted seq high-water mark and legitimately change `seq`.
        let run = |tag: &str| {
            ServeHarness::new()
                .with_state_dir(dir.join(tag))
                .run_tape(&tape)
        };
        let out = run("a");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains(r#""status":"degraded""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"dump""#), "{}", lines[1]);
        assert!(lines[1].contains(r#""available":true"#), "{}", lines[1]);
        let on_disk = std::fs::read_to_string(dir.join("a").join("flight-acme-1.jsonl"))
            .expect("flight dump persists");
        let last = on_disk.lines().last().expect("dump has lines");
        assert!(
            last.contains("cliffguard.core.session.degraded"),
            "the degradation event must be the last line of the black box: {last}"
        );
        // No subscriber is installed in this test, yet the black box
        // still holds the descent history leading up to the failure.
        assert!(
            on_disk.contains("cliffguard.core.descent.iter"),
            "flight dumps hold the descent history:\n{on_disk}"
        );
        assert!(
            on_disk.contains(r#""kind":"span""#),
            "iteration spans are retained:\n{on_disk}"
        );
        assert!(
            on_disk.contains("cliffguard.core.session.fault"),
            "the injected fault is on record:\n{on_disk}"
        );
        assert_eq!(out, run("b"), "byte-identical reruns");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_and_metrics_report_tenant_stats() {
        let harness = ServeHarness::new();
        let out = harness.run_tape(&[
            design_line(&crate::testdata::design_request("acme", 7)),
            r#"{"op":"status"}"#.into(),
            r#"{"op":"metrics"}"#.into(),
            r#"{"op":"shutdown"}"#.into(),
        ]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].contains(r#""tenant":"acme""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"status""#), "{}", lines[1]);
        assert!(lines[1].contains(r#""completed":1"#), "{}", lines[1]);
        assert!(lines[1].contains(r#""acme""#), "{}", lines[1]);
        assert!(lines[2].contains(r#""op":"metrics""#), "{}", lines[2]);
        assert!(lines[3].contains(r#""op":"shutdown""#), "{}", lines[3]);
    }
}
