//! The newline-delimited JSON protocol of `cliffguard serve`.
//!
//! One request per line in, one response per line out. The grammar is
//! deliberately tiny — a handful of verbs — and every frame is a single
//! JSON object, so any language with a JSON library is a client:
//!
//! ```text
//! {"op":"design","tenant":"acme","catalog":{...},"log":"<tsv>","gamma":"auto"}
//! {"op":"ingest","tenant":"acme","catalog":{...},"chunk":"<tsv bytes>","gamma":0.001}
//! {"op":"ingest","tenant":"acme","chunk":"<more bytes>"}
//! {"op":"ingest","tenant":"acme","chunk":"","eof":true}
//! {"op":"status"}
//! {"op":"metrics"}
//! {"op":"metrics","format":"prometheus"}
//! {"op":"dump"}
//! {"op":"drain"}
//! {"op":"shutdown"}
//! ```
//!
//! `ingest` streams a query log chunk-at-a-time through a per-tenant
//! [`OnlineAdvisor`](cliffguard_core::OnlineAdvisor): the first frame
//! carries the catalog and the advisor knobs; later frames carry only
//! bytes (split anywhere, even mid-UTF-8); `"eof":true` flushes the
//! trailing partial line and closes the open window. Each frame is
//! answered immediately (no drain barrier) with the window audits it
//! closed and the session's trigger history.
//!
//! Parsing is total: a malformed frame yields a [`ProtocolError`], never a
//! panic, and the daemon answers it with an `error` response instead of
//! dying. Requests round-trip through [`Request::to_line`] /
//! [`parse_request`] bit-exactly, which is what lets the daemon persist a
//! request envelope and re-run it after a crash with identical inputs. A
//! fixed Γ travels under its own key, `gamma_bits`, as an IEEE-754 bit
//! pattern (like the checkpoint format); the human-facing `gamma` key
//! accepts `"auto"` or a plain non-negative number, so `{"gamma":2}` and
//! `{"gamma":2.0}` both mean Γ = 2 — the two keys are mutually exclusive.

use cliffguard_core::gamma::GammaPolicy;
use cliffguard_core::{OnlineAdvisorConfig, WindowPolicy};
use cliffguard_storage::Catalog;
use cliffguard_workload::{window_secs, SECS_PER_DAY};
use serde::{map_get, Deserialize, Serialize, Value};

/// Maximum accepted frame length (bytes). A daemon reading a socket must
/// bound memory per frame; 64 MiB comfortably fits a multi-month query
/// log embedded in a request.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Maximum tenant-id length.
pub const MAX_TENANT_LEN: usize = 64;

/// Why a frame was not accepted as a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// Γ for a design request: resolved from drift history or pinned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GammaSpec {
    /// `"auto"`: [`GammaPolicy::AUTO`], 1.5 × the maximum past
    /// inter-window δ.
    Auto,
    /// A fixed Γ ≥ 0.
    Fixed(f64),
}

/// Storage budget for a design request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSpec {
    /// `"auto"`: 30% of the raw data size.
    Auto,
    /// A fixed byte budget.
    Bytes(u64),
}

impl BudgetSpec {
    /// The budget in bytes for `catalog`.
    pub fn bytes(self, catalog: &Catalog) -> u64 {
        match self {
            BudgetSpec::Auto => (catalog.data_bytes() as f64 * 0.3) as u64,
            BudgetSpec::Bytes(b) => b,
        }
    }
}

/// A `design` request: everything one tenant's design session needs,
/// self-contained (the daemon persists this envelope verbatim so a killed
/// session restarts from identical inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRequest {
    /// Tenant id: `[A-Za-z0-9_.-]{1,64}` (it names a state directory).
    pub tenant: String,
    /// The catalog, as the same JSON object `cliffguard generate` writes.
    pub catalog: Value,
    /// The query log, as TSV text (`timestamp\tSQL` per line).
    pub log: String,
    /// Robustness knob.
    pub gamma: GammaSpec,
    /// Storage budget.
    pub budget: BudgetSpec,
    /// Window length for splitting the log (days).
    pub window_days: u64,
    /// Seed for the Γ-neighborhood sampler.
    pub seed: u64,
    /// Designer retry budget override (else the daemon default).
    pub max_retries: Option<u32>,
    /// Per-designer-call deadline override (ms).
    pub designer_deadline_ms: Option<u64>,
    /// Per-session deadline override (ms, else the daemon's
    /// `--tenant-deadline-ms`).
    pub deadline_ms: Option<u64>,
    /// Fault-plan spec for drills (else the daemon's `CLIFFGUARD_FAULTS`).
    pub faults: Option<String>,
    /// Replica fleet size R (1 = unreplicated; >1 runs the failure-aware
    /// divergent replica design after the session).
    pub replicas: u64,
    /// Crash budget k of the failure adversary (clamped to R−1).
    pub max_failures: u64,
}

impl DesignRequest {
    /// A request with the protocol defaults for `tenant` over
    /// `catalog`/`log`.
    pub fn new(tenant: impl Into<String>, catalog: Value, log: impl Into<String>) -> Self {
        Self {
            tenant: tenant.into(),
            catalog,
            log: log.into(),
            gamma: GammaSpec::Auto,
            budget: BudgetSpec::Auto,
            window_days: 28,
            seed: 42,
            max_retries: None,
            designer_deadline_ms: None,
            deadline_ms: None,
            faults: None,
            replicas: 1,
            max_failures: 0,
        }
    }
}

/// An `ingest` frame: one chunk of a tenant's streaming query log.
///
/// The advisor knobs (`window`/`window_secs`, `gamma`, `warmup`,
/// `cooldown`) and the catalog are read when the tenant's ingest session
/// is created (its first frame, or never for a session recovered from the
/// state directory); later frames carry only bytes. A catalog-bearing
/// frame always starts a *fresh* session, discarding any live session or
/// stale persisted snapshot for the tenant — so a client starting over
/// never silently continues an abandoned tape.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRequest {
    /// Tenant id: `[A-Za-z0-9_.-]{1,64}` (it names a state directory).
    pub tenant: String,
    /// The catalog (required on the session's first frame).
    pub catalog: Option<Value>,
    /// Log bytes. Chunk boundaries may fall anywhere — mid-line and even
    /// mid-UTF-8-sequence (JSON strings are UTF-8, but the *carry* across
    /// frames still re-splits at byte granularity downstream).
    pub chunk: String,
    /// Flush the trailing partial line and close the open window.
    pub eof: bool,
    /// Count-based window length (arrivals per window).
    pub window: Option<u64>,
    /// Log-time window length (seconds); exclusive with `window`.
    pub window_secs: Option<u64>,
    /// Trigger threshold Γ (`auto` = [`GammaPolicy::AUTO`]).
    pub gamma: GammaSpec,
    /// Windows that must close before the first trigger may fire.
    pub warmup: u64,
    /// Window closes suppressed after each trigger.
    pub cooldown: u64,
}

impl IngestRequest {
    /// A first-frame request with the protocol defaults.
    pub fn new(tenant: impl Into<String>, catalog: Value, chunk: impl Into<String>) -> Self {
        Self {
            tenant: tenant.into(),
            catalog: Some(catalog),
            chunk: chunk.into(),
            eof: false,
            window: None,
            window_secs: None,
            gamma: GammaSpec::Auto,
            warmup: 1,
            cooldown: 1,
        }
    }

    /// A follow-up frame carrying only bytes.
    pub fn chunk_only(tenant: impl Into<String>, chunk: impl Into<String>) -> Self {
        Self {
            tenant: tenant.into(),
            catalog: None,
            chunk: chunk.into(),
            eof: false,
            window: None,
            window_secs: None,
            gamma: GammaSpec::Auto,
            warmup: 1,
            cooldown: 1,
        }
    }

    /// The drift advisor's configuration under this frame's knobs, over
    /// `n_columns` columns. This is the one knob rule: the wire,
    /// `cliffguard ingest` and a restored session snapshot all go through
    /// it. `window` and `window_secs` are mutually exclusive and each at
    /// least 1 (neither means 64-arrival windows), and a fixed Γ is finite
    /// and non-negative.
    pub fn advisor_config(&self, n_columns: usize) -> Result<OnlineAdvisorConfig, String> {
        let mut config = OnlineAdvisorConfig::new(n_columns);
        config.window = match (self.window, self.window_secs) {
            (Some(_), Some(_)) => return Err("ingest: give window or window_secs, not both".into()),
            (Some(0), None) | (None, Some(0)) => {
                return Err("ingest: window lengths must be >= 1".into())
            }
            (Some(n), None) => WindowPolicy::Count(saturating(n)),
            (None, Some(s)) => WindowPolicy::LogTime(s),
            (None, None) => config.window,
        };
        config.gamma = match self.gamma {
            GammaSpec::Auto => GammaPolicy::AUTO,
            GammaSpec::Fixed(g) if g.is_finite() && g >= 0.0 => GammaPolicy::Fixed(g),
            GammaSpec::Fixed(_) => return Err("ingest: gamma must be a finite number >= 0".into()),
        };
        config.warmup = saturating(self.warmup);
        config.cooldown = saturating(self.cooldown);
        Ok(config)
    }
}

/// A wire count as a `usize`, saturating where `usize` is narrower.
fn saturating(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a design session for one tenant.
    Design(Box<DesignRequest>),
    /// Feed one chunk of a tenant's streaming query log.
    Ingest(Box<IngestRequest>),
    /// Drain in-flight work, then report daemon + per-tenant state.
    Status,
    /// Drain in-flight work, then report the metrics registry snapshot.
    Metrics {
        /// Wire format of the answer (JSON snapshot or Prometheus text).
        format: MetricsFormat,
    },
    /// Drain in-flight work, then report the most recent flight-recorder
    /// dump (a worker panic or session degradation black box).
    Dump,
    /// Drain in-flight work (an explicit flow-control sync point).
    Drain,
    /// Drain, respond, and stop the daemon.
    Shutdown,
}

/// Output format of the `metrics` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The structured registry snapshot inside a JSON frame (default).
    #[default]
    Json,
    /// Prometheus text exposition (v0.0.4), carried as a string field of
    /// a JSON frame mid-stream or as raw text on the scrape fast path.
    Prometheus,
}

/// Is `t` a valid tenant id (non-empty, bounded, path- and label-safe)?
pub fn valid_tenant(t: &str) -> bool {
    !t.is_empty()
        && t.len() <= MAX_TENANT_LEN
        && t.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
        && !t.starts_with('.')
}

/// Parses one NDJSON frame into a [`Request`]. Total: every failure mode
/// is an `Err`, never a panic.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(err(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
            line.len()
        )));
    }
    let v: Value = serde_json::from_str(line).map_err(|e| err(format!("bad JSON: {e}")))?;
    let m = v
        .as_map()
        .ok_or_else(|| err("frame must be a JSON object"))?;
    let op = match map_get(m, "op") {
        Value::Str(s) => s.as_str(),
        Value::Null => return Err(err("missing \"op\"")),
        _ => return Err(err("\"op\" must be a string")),
    };
    match op {
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics {
            format: parse_metrics_format(m)?,
        }),
        "dump" => Ok(Request::Dump),
        "drain" => Ok(Request::Drain),
        "shutdown" => Ok(Request::Shutdown),
        "design" => Ok(Request::Design(Box::new(parse_design(m)?))),
        "ingest" => Ok(Request::Ingest(Box::new(parse_ingest(m)?))),
        other => Err(err(format!(
            "unknown op `{other}` (want design|ingest|status|metrics|dump|drain|shutdown)"
        ))),
    }
}

/// Parses the optional `"format"` key of a `metrics` frame. Total like
/// everything else here: an unknown or non-string format is an `Err`
/// (wired back as an `error` frame), never a panic.
fn parse_metrics_format(m: &[(String, Value)]) -> Result<MetricsFormat, ProtocolError> {
    match map_get(m, "format") {
        Value::Null => Ok(MetricsFormat::Json),
        Value::Str(s) => match s.as_str() {
            "json" => Ok(MetricsFormat::Json),
            "prometheus" => Ok(MetricsFormat::Prometheus),
            other => Err(err(format!(
                "metrics: unknown format `{other}` (want json|prometheus)"
            ))),
        },
        _ => Err(err("metrics: \"format\" must be a string")),
    }
}

fn parse_design(m: &[(String, Value)]) -> Result<DesignRequest, ProtocolError> {
    let tenant = match map_get(m, "tenant") {
        Value::Str(s) => s.clone(),
        _ => return Err(err("design: missing string \"tenant\"")),
    };
    if !valid_tenant(&tenant) {
        return Err(err(format!(
            "design: tenant `{tenant}` is not [A-Za-z0-9_.-]{{1,{MAX_TENANT_LEN}}} \
             (and must not start with '.')"
        )));
    }
    let catalog = match map_get(m, "catalog") {
        Value::Map(_) => map_get(m, "catalog").clone(),
        _ => return Err(err("design: missing object \"catalog\"")),
    };
    let log = match map_get(m, "log") {
        Value::Str(s) => s.clone(),
        _ => return Err(err("design: missing string \"log\"")),
    };
    let gamma = parse_gamma(m, "design")?;
    let budget = match map_get(m, "budget") {
        Value::Null => BudgetSpec::Auto,
        Value::Str(s) if s == "auto" => BudgetSpec::Auto,
        Value::U64(b) if *b > 0 => BudgetSpec::Bytes(*b),
        _ => return Err(err("design: budget must be \"auto\" or a positive integer")),
    };
    let u64_field = |key: &str, default: u64| -> Result<u64, ProtocolError> {
        match map_get(m, key) {
            Value::Null => Ok(default),
            Value::U64(n) => Ok(*n),
            _ => Err(err(format!("design: {key} must be a non-negative integer"))),
        }
    };
    let opt_u64 = |key: &str| -> Result<Option<u64>, ProtocolError> {
        match map_get(m, key) {
            Value::Null => Ok(None),
            Value::U64(n) => Ok(Some(*n)),
            _ => Err(err(format!("design: {key} must be a non-negative integer"))),
        }
    };
    let window_days = u64_field("window_days", 28)?;
    if window_secs(window_days).is_none() {
        return Err(err(format!(
            "design: window_days must be in 1..={}",
            u64::MAX / SECS_PER_DAY
        )));
    }
    let faults = match map_get(m, "faults") {
        Value::Null => None,
        Value::Str(s) => Some(s.clone()),
        _ => return Err(err("design: faults must be a fault-spec string")),
    };
    let replicas = u64_field("replicas", 1)?;
    if replicas == 0 {
        return Err(err("design: replicas must be >= 1"));
    }
    Ok(DesignRequest {
        tenant,
        catalog,
        log,
        gamma,
        budget,
        window_days,
        seed: u64_field("seed", 42)?,
        max_retries: opt_u64("max_retries")?.map(|n| n.min(u32::MAX as u64) as u32),
        designer_deadline_ms: opt_u64("designer_deadline_ms")?,
        deadline_ms: opt_u64("deadline_ms")?,
        faults,
        replicas,
        max_failures: u64_field("max_failures", 0)?,
    })
}

/// Parses the shared `gamma`/`gamma_bits` pair (`verb` prefixes errors).
fn parse_gamma(m: &[(String, Value)], verb: &str) -> Result<GammaSpec, ProtocolError> {
    let gamma = match (map_get(m, "gamma_bits"), map_get(m, "gamma")) {
        // Bit-exact transport: a persisted envelope must re-run with the
        // exact Γ the original request carried.
        (Value::U64(bits), Value::Null) => GammaSpec::Fixed(f64::from_bits(*bits)),
        (Value::U64(_), _) => {
            return Err(err(format!(
                "{verb}: give gamma or gamma_bits, not both (they could disagree)"
            )))
        }
        (Value::Null, Value::Null) => GammaSpec::Auto,
        (Value::Null, Value::Str(s)) if s == "auto" => GammaSpec::Auto,
        // A plain number is the numeric Γ, whether the client spelled it
        // as an integer or a float: {"gamma":2} == {"gamma":2.0} == 2.0.
        (Value::Null, Value::U64(g)) => GammaSpec::Fixed(*g as f64),
        (Value::Null, Value::F64(g)) if *g >= 0.0 => GammaSpec::Fixed(*g),
        (Value::Null, Value::I64(_) | Value::F64(_)) => {
            return Err(err(format!("{verb}: gamma must be >= 0")))
        }
        (Value::Null, _) => return Err(err(format!("{verb}: gamma must be \"auto\" or a number"))),
        (_, _) => {
            return Err(err(format!(
                "{verb}: gamma_bits must be a non-negative integer (an f64 bit pattern)"
            )))
        }
    };
    if let GammaSpec::Fixed(g) = gamma {
        if !g.is_finite() || g < 0.0 {
            return Err(err(format!("{verb}: gamma must be a finite number >= 0")));
        }
    }
    Ok(gamma)
}

fn parse_ingest(m: &[(String, Value)]) -> Result<IngestRequest, ProtocolError> {
    let tenant = match map_get(m, "tenant") {
        Value::Str(s) => s.clone(),
        _ => return Err(err("ingest: missing string \"tenant\"")),
    };
    if !valid_tenant(&tenant) {
        return Err(err(format!(
            "ingest: tenant `{tenant}` is not [A-Za-z0-9_.-]{{1,{MAX_TENANT_LEN}}} \
             (and must not start with '.')"
        )));
    }
    let catalog = match map_get(m, "catalog") {
        Value::Null => None,
        Value::Map(_) => Some(map_get(m, "catalog").clone()),
        _ => return Err(err("ingest: \"catalog\" must be an object")),
    };
    let chunk = match map_get(m, "chunk") {
        Value::Str(s) => s.clone(),
        Value::Null => return Err(err("ingest: missing string \"chunk\"")),
        _ => return Err(err("ingest: \"chunk\" must be a string")),
    };
    let eof = match map_get(m, "eof") {
        Value::Null => false,
        Value::Bool(b) => *b,
        _ => return Err(err("ingest: \"eof\" must be a boolean")),
    };
    let opt_u64 = |key: &str| -> Result<Option<u64>, ProtocolError> {
        match map_get(m, key) {
            Value::Null => Ok(None),
            Value::U64(n) => Ok(Some(*n)),
            _ => Err(err(format!("ingest: {key} must be a non-negative integer"))),
        }
    };
    let req = IngestRequest {
        tenant,
        catalog,
        chunk,
        eof,
        window: opt_u64("window")?,
        window_secs: opt_u64("window_secs")?,
        gamma: parse_gamma(m, "ingest")?,
        warmup: opt_u64("warmup")?.unwrap_or(1),
        cooldown: opt_u64("cooldown")?.unwrap_or(1),
    };
    // The knob rule needs no catalog to pass its verdict.
    req.advisor_config(0).map_err(err)?;
    Ok(req)
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Status => Value::Map(vec![("op".into(), Value::Str("status".into()))]),
            Request::Metrics { format } => {
                let mut m = vec![("op".into(), Value::Str("metrics".into()))];
                // The format key travels only when non-default, keeping
                // persisted PR-5-era envelopes and this serializer aligned.
                if *format == MetricsFormat::Prometheus {
                    m.push(("format".into(), Value::Str("prometheus".into())));
                }
                Value::Map(m)
            }
            Request::Dump => Value::Map(vec![("op".into(), Value::Str("dump".into()))]),
            Request::Drain => Value::Map(vec![("op".into(), Value::Str("drain".into()))]),
            Request::Shutdown => Value::Map(vec![("op".into(), Value::Str("shutdown".into()))]),
            Request::Design(d) => {
                let mut m = vec![
                    ("op".into(), Value::Str("design".into())),
                    ("tenant".into(), Value::Str(d.tenant.clone())),
                    ("catalog".into(), d.catalog.clone()),
                    ("log".into(), Value::Str(d.log.clone())),
                    match d.gamma {
                        GammaSpec::Auto => ("gamma".into(), Value::Str("auto".into())),
                        // U64 bit pattern under its own key: survives JSON
                        // exactly, and cannot be mistaken for a numeric Γ.
                        GammaSpec::Fixed(g) => ("gamma_bits".into(), Value::U64(g.to_bits())),
                    },
                    (
                        "budget".into(),
                        match d.budget {
                            BudgetSpec::Auto => Value::Str("auto".into()),
                            BudgetSpec::Bytes(b) => Value::U64(b),
                        },
                    ),
                    ("window_days".into(), Value::U64(d.window_days)),
                    ("seed".into(), Value::U64(d.seed)),
                ];
                if let Some(n) = d.max_retries {
                    m.push(("max_retries".into(), Value::U64(n as u64)));
                }
                if let Some(n) = d.designer_deadline_ms {
                    m.push(("designer_deadline_ms".into(), Value::U64(n)));
                }
                if let Some(n) = d.deadline_ms {
                    m.push(("deadline_ms".into(), Value::U64(n)));
                }
                if let Some(s) = &d.faults {
                    m.push(("faults".into(), Value::Str(s.clone())));
                }
                // Replica fields travel only when non-default, so PR-5-era
                // persisted envelopes and this serializer stay aligned.
                if d.replicas != 1 {
                    m.push(("replicas".into(), Value::U64(d.replicas)));
                }
                if d.max_failures != 0 {
                    m.push(("max_failures".into(), Value::U64(d.max_failures)));
                }
                Value::Map(m)
            }
            Request::Ingest(i) => {
                let mut m = vec![
                    ("op".into(), Value::Str("ingest".into())),
                    ("tenant".into(), Value::Str(i.tenant.clone())),
                ];
                if let Some(c) = &i.catalog {
                    m.push(("catalog".into(), c.clone()));
                }
                m.push(("chunk".into(), Value::Str(i.chunk.clone())));
                if i.eof {
                    m.push(("eof".into(), Value::Bool(true)));
                }
                if let Some(n) = i.window {
                    m.push(("window".into(), Value::U64(n)));
                }
                if let Some(n) = i.window_secs {
                    m.push(("window_secs".into(), Value::U64(n)));
                }
                match i.gamma {
                    GammaSpec::Auto => {}
                    GammaSpec::Fixed(g) => m.push(("gamma_bits".into(), Value::U64(g.to_bits()))),
                }
                if i.warmup != 1 {
                    m.push(("warmup".into(), Value::U64(i.warmup)));
                }
                if i.cooldown != 1 {
                    m.push(("cooldown".into(), Value::U64(i.cooldown)));
                }
                Value::Map(m)
            }
        }
    }
}

impl Request {
    /// Renders the request as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

// ------------------------------------------------------------ responses --

/// Terminal status of a design request. Every admitted or refused request
/// ends in exactly one of these — the protocol has no silent drops (the
/// one exception is a daemon killed mid-session, whose restart emits the
/// response with `resumed: true`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignStatus {
    /// The session finished cleanly.
    Done,
    /// The session finished by graceful degradation (see `reason`).
    Degraded,
    /// The request was refused (queue full, bad inputs) — see `reason`.
    Rejected,
}

impl DesignStatus {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            DesignStatus::Done => "done",
            DesignStatus::Degraded => "degraded",
            DesignStatus::Rejected => "rejected",
        }
    }
}

/// The audited outcome of one completed design session.
///
/// The three replica fields are absent on the wire when unreplicated
/// (`replicas` 1, fingerprint 0, no audit) and default when absent, so
/// results persisted before replication existed still parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignReport {
    /// Order-insensitive structure hash of the final design.
    pub fingerprint: u64,
    /// Number of structures (projections) in the design.
    pub structures: usize,
    /// Storage price of the design (bytes).
    pub price_bytes: u64,
    /// The Γ the session ran with (resolved if the request said `auto`).
    #[serde(rename = "gamma_bits", with = "serde::bits")]
    pub gamma: f64,
    /// The budget the session ran with (resolved if `auto`).
    pub budget_bytes: u64,
    /// Designer calls made (logical, not counting retries).
    pub designer_calls: usize,
    /// Retries absorbed.
    pub retries: usize,
    /// Faults observed.
    pub faults: usize,
    /// Degradation reason, when the session degraded.
    pub degraded: Option<String>,
    /// Worst-case objective per iteration, as IEEE-754 bit patterns (the
    /// audit trail a kill/resume test compares byte-for-byte).
    pub worst_case_bits: Vec<u64>,
    /// The design, rendered as DDL.
    pub ddl: String,
    /// Replica fleet size the request asked for (1 = unreplicated).
    #[serde(skip_serializing_if = "is_one", default = "one")]
    pub replicas: u64,
    /// Order-insensitive fingerprint of the replicated design *set*
    /// (0 when unreplicated).
    #[serde(skip_serializing_if = "is_zero", default = "u64::default")]
    pub replica_set_fingerprint: u64,
    /// The deterministic replica audit (JSON, see
    /// `cliffguard_core::ReplicaAudit::to_json`), when `replicas > 1`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub replica_audit: Option<String>,
}

fn one() -> u64 {
    1
}

fn is_one(n: &u64) -> bool {
    *n == 1
}

fn is_zero(n: &u64) -> bool {
    *n == 0
}

/// One flight-recorder dump as the `dump` verb reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightInfo {
    /// Tenant whose session produced the dump.
    pub tenant: String,
    /// The session's daemon sequence number (matches the `seq` of its
    /// `design` response).
    pub session_seq: u64,
    /// Why the dump was taken: the degradation reason or panic message.
    pub reason: String,
    /// The retained trace lines as JSONL (newline-terminated).
    pub flight: String,
}

/// A protocol response, rendered as one NDJSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Terminal answer to a design request.
    Design {
        /// Sequence number of the request this answers.
        seq: u64,
        /// The tenant.
        tenant: String,
        /// Terminal status.
        status: DesignStatus,
        /// Reason, for `rejected` (and `degraded` carries it in the
        /// report too).
        reason: Option<String>,
        /// The audited outcome (absent on rejection).
        report: Option<DesignReport>,
        /// Whether this session was recovered from the state directory
        /// after a daemon restart.
        resumed: bool,
    },
    /// Answer to one `ingest` frame (emitted immediately, no barrier).
    Ingest {
        /// Sequence number of the frame this answers.
        seq: u64,
        /// The tenant.
        tenant: String,
        /// Windows closed over the whole session so far.
        windows: u64,
        /// Audit lines ([`WindowAudit::line`](cliffguard_core::WindowAudit::line))
        /// of the windows closed by *this* frame, in close order.
        audits: Vec<String>,
        /// Full trigger history: indices of every window that fired.
        triggers: Vec<u64>,
        /// Whether the trigger is armed after this frame.
        armed: bool,
        /// Cooldown windows remaining after this frame.
        cooldown: u64,
        /// Records parsed over the whole session so far.
        parsed: u64,
        /// Records skipped (bad SQL + malformed lines) so far.
        skipped: u64,
        /// Whether this frame closed the session (`"eof":true`).
        closed: bool,
    },
    /// Answer to `status`.
    Status {
        /// Sequence number of the request this answers.
        seq: u64,
        /// The daemon + per-tenant state, pre-rendered as a JSON value.
        snapshot: Value,
    },
    /// Answer to `metrics`.
    Metrics {
        /// Sequence number of the request this answers.
        seq: u64,
        /// Per-tenant session stats.
        tenants: Value,
        /// The metrics-registry snapshot, when telemetry metrics are
        /// installed (`null` otherwise).
        registry: Option<Value>,
    },
    /// Answer to `metrics` with `"format":"prometheus"`: the exposition
    /// text carried inside an NDJSON frame.
    MetricsText {
        /// Sequence number of the request this answers.
        seq: u64,
        /// Prometheus text exposition (v0.0.4) of the registry snapshot
        /// (empty when no metrics registry is installed).
        body: String,
    },
    /// Answer to `dump`: the most recent flight-recorder dump, if any
    /// session has degraded or panicked since the daemon started.
    Dump {
        /// Sequence number of the request this answers.
        seq: u64,
        /// The dump, absent while no failure has been recorded.
        dump: Option<FlightInfo>,
    },
    /// Answer to `drain`: all previously admitted sessions have completed
    /// and their responses were emitted before this line.
    Drained {
        /// Sequence number of the request this answers.
        seq: u64,
        /// Design sessions completed by this drain.
        completed: u64,
    },
    /// Answer to an unparseable frame.
    Error {
        /// Sequence number assigned to the bad frame.
        seq: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// Final line before the daemon exits on `shutdown`.
    Shutdown {
        /// Sequence number of the request this answers.
        seq: u64,
    },
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Design {
                seq,
                tenant,
                status,
                reason,
                report,
                resumed,
            } => {
                let mut m = vec![
                    ("seq".into(), Value::U64(*seq)),
                    ("op".into(), Value::Str("design".into())),
                    ("tenant".into(), Value::Str(tenant.clone())),
                    ("status".into(), Value::Str(status.name().into())),
                ];
                if let Some(r) = reason {
                    m.push(("reason".into(), Value::Str(r.clone())));
                }
                if let Some(rep) = report {
                    m.push(("report".into(), rep.to_value()));
                }
                m.push(("resumed".into(), Value::Bool(*resumed)));
                Value::Map(m)
            }
            Response::Ingest {
                seq,
                tenant,
                windows,
                audits,
                triggers,
                armed,
                cooldown,
                parsed,
                skipped,
                closed,
            } => Value::Map(vec![
                ("seq".into(), Value::U64(*seq)),
                ("op".into(), Value::Str("ingest".into())),
                ("tenant".into(), Value::Str(tenant.clone())),
                ("windows".into(), Value::U64(*windows)),
                (
                    "audits".into(),
                    Value::Seq(audits.iter().map(|a| Value::Str(a.clone())).collect()),
                ),
                (
                    "triggers".into(),
                    Value::Seq(triggers.iter().map(|&t| Value::U64(t)).collect()),
                ),
                ("armed".into(), Value::Bool(*armed)),
                ("cooldown".into(), Value::U64(*cooldown)),
                ("parsed".into(), Value::U64(*parsed)),
                ("skipped".into(), Value::U64(*skipped)),
                ("closed".into(), Value::Bool(*closed)),
            ]),
            Response::Status { seq, snapshot } => Value::Map(vec![
                ("seq".into(), Value::U64(*seq)),
                ("op".into(), Value::Str("status".into())),
                ("daemon".into(), snapshot.clone()),
            ]),
            Response::Metrics {
                seq,
                tenants,
                registry,
            } => Value::Map(vec![
                ("seq".into(), Value::U64(*seq)),
                ("op".into(), Value::Str("metrics".into())),
                ("tenants".into(), tenants.clone()),
                ("registry".into(), registry.clone().unwrap_or(Value::Null)),
            ]),
            Response::MetricsText { seq, body } => Value::Map(vec![
                ("seq".into(), Value::U64(*seq)),
                ("op".into(), Value::Str("metrics".into())),
                ("format".into(), Value::Str("prometheus".into())),
                ("body".into(), Value::Str(body.clone())),
            ]),
            Response::Dump { seq, dump } => {
                let mut m = vec![
                    ("seq".into(), Value::U64(*seq)),
                    ("op".into(), Value::Str("dump".into())),
                    ("available".into(), Value::Bool(dump.is_some())),
                ];
                if let Some(d) = dump {
                    m.push(("tenant".into(), Value::Str(d.tenant.clone())));
                    m.push(("session".into(), Value::U64(d.session_seq)));
                    m.push(("reason".into(), Value::Str(d.reason.clone())));
                    m.push(("flight".into(), Value::Str(d.flight.clone())));
                }
                Value::Map(m)
            }
            Response::Drained { seq, completed } => Value::Map(vec![
                ("seq".into(), Value::U64(*seq)),
                ("op".into(), Value::Str("drain".into())),
                ("completed".into(), Value::U64(*completed)),
            ]),
            Response::Error { seq, reason } => Value::Map(vec![
                ("seq".into(), Value::U64(*seq)),
                ("op".into(), Value::Str("error".into())),
                ("reason".into(), Value::Str(reason.clone())),
            ]),
            Response::Shutdown { seq } => Value::Map(vec![
                ("seq".into(), Value::U64(*seq)),
                ("op".into(), Value::Str("shutdown".into())),
            ]),
        }
    }
}

impl Response {
    /// Renders the response as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_catalog_value() -> Value {
        Value::Map(vec![("tables".into(), Value::Seq(vec![]))])
    }

    #[test]
    fn verbs_parse() {
        assert_eq!(parse_request(r#"{"op":"status"}"#), Ok(Request::Status));
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#),
            Ok(Request::Metrics {
                format: MetricsFormat::Json
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"prometheus"}"#),
            Ok(Request::Metrics {
                format: MetricsFormat::Prometheus
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"json"}"#),
            Ok(Request::Metrics {
                format: MetricsFormat::Json
            })
        );
        assert_eq!(parse_request(r#"{"op":"dump"}"#), Ok(Request::Dump));
        assert_eq!(parse_request(r#"{"op":"drain"}"#), Ok(Request::Drain));
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
        // Malformed formats are protocol errors, never panics.
        assert!(parse_request(r#"{"op":"metrics","format":"xml"}"#).is_err());
        assert!(parse_request(r#"{"op":"metrics","format":7}"#).is_err());
    }

    #[test]
    fn malformed_frames_error_without_panicking() {
        for bad in [
            "",
            "not json",
            "[]",
            "42",
            r#"{"op":7}"#,
            r#"{"op":"teleport"}"#,
            r#"{"op":"design"}"#,
            r#"{"op":"design","tenant":""}"#,
            r#"{"op":"design","tenant":"../etc","catalog":{},"log":"x"}"#,
            r#"{"op":"design","tenant":".hidden","catalog":{},"log":"x"}"#,
            r#"{"op":"design","tenant":"t","catalog":{},"log":"x","gamma":-0.5}"#,
            r#"{"op":"design","tenant":"t","catalog":{},"log":"x","gamma":-2}"#,
            r#"{"op":"design","tenant":"t","catalog":{},"log":"x","gamma_bits":1.5}"#,
            r#"{"op":"design","tenant":"t","catalog":{},"log":"x","gamma":1.0,"gamma_bits":7}"#,
            r#"{"op":"design","tenant":"t","catalog":{},"log":"x","budget":0}"#,
            r#"{"op":"design","tenant":"t","catalog":{},"log":"x","window_days":0}"#,
            r#"{"op":"design","tenant":"t","catalog":[],"log":"x"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn window_days_whose_seconds_overflow_u64_are_rejected() {
        // 213503982334602 days × 86400 wraps to 61184 s unchecked.
        let frame = |days: u64| {
            format!(
                r#"{{"op":"design","tenant":"t","catalog":{{}},"log":"x","window_days":{days}}}"#
            )
        };
        let max = u64::MAX / SECS_PER_DAY;
        assert!(parse_request(&frame(max + 1)).is_err());
        assert!(parse_request(&frame(max)).is_ok());
    }

    #[test]
    fn integer_and_float_gamma_mean_the_same_number() {
        // {"gamma":2} must be Γ = 2.0, not f64::from_bits(2) ≈ 1e-323 —
        // the bit-exact transport lives under gamma_bits, never gamma.
        let int = r#"{"op":"design","tenant":"t","catalog":{},"log":"x","gamma":2}"#;
        let float = r#"{"op":"design","tenant":"t","catalog":{},"log":"x","gamma":2.0}"#;
        for frame in [int, float] {
            let Ok(Request::Design(req)) = parse_request(frame) else {
                panic!("must parse: {frame}");
            };
            assert_eq!(req.gamma, GammaSpec::Fixed(2.0), "{frame}");
        }
        let bits = format!(
            r#"{{"op":"design","tenant":"t","catalog":{{}},"log":"x","gamma_bits":{}}}"#,
            2.0f64.to_bits()
        );
        let Ok(Request::Design(req)) = parse_request(&bits) else {
            panic!("must parse: {bits}");
        };
        assert_eq!(req.gamma, GammaSpec::Fixed(2.0));
    }

    #[test]
    fn replica_fields_round_trip_and_default_when_absent() {
        let mut req = DesignRequest::new("acme", tiny_catalog_value(), "1\tSELECT a FROM t;\n");
        req.replicas = 3;
        req.max_failures = 1;
        let line = Request::Design(Box::new(req.clone())).to_line();
        assert_eq!(parse_request(&line), Ok(Request::Design(Box::new(req))));
        // A PR-5-era frame with no replica keys parses with R=1, k=0, and
        // serializes without them.
        let old = r#"{"op":"design","tenant":"t","catalog":{},"log":"x"}"#;
        let Ok(Request::Design(req)) = parse_request(old) else {
            panic!("must parse: {old}");
        };
        assert_eq!((req.replicas, req.max_failures), (1, 0));
        let line = Request::Design(req).to_line();
        assert!(!line.contains("replicas"), "{line}");
        // Bad values are refused.
        for bad in [
            r#"{"op":"design","tenant":"t","catalog":{},"log":"x","replicas":0}"#,
            r#"{"op":"design","tenant":"t","catalog":{},"log":"x","replicas":"two"}"#,
            r#"{"op":"design","tenant":"t","catalog":{},"log":"x","max_failures":-1}"#,
        ] {
            assert!(parse_request(bad).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn replica_report_fields_survive_the_wire_and_default_when_absent() {
        let rep = DesignReport {
            fingerprint: 1,
            structures: 2,
            price_bytes: 3,
            gamma: 0.5,
            budget_bytes: 4,
            designer_calls: 5,
            retries: 0,
            faults: 0,
            degraded: None,
            worst_case_bits: vec![],
            ddl: "x".into(),
            replicas: 3,
            replica_set_fingerprint: 0xfeed,
            replica_audit: Some("{\"replicas\":3}".into()),
        };
        let back = DesignReport::from_value(&rep.to_value()).unwrap();
        assert_eq!(back, rep);
        // An unreplicated report carries no replica keys...
        let uni = DesignReport {
            replicas: 1,
            replica_set_fingerprint: 0,
            replica_audit: None,
            ..rep
        };
        let v = uni.to_value();
        assert_eq!(map_get(v.as_map().unwrap(), "replicas"), &Value::Null);
        // ...and still round-trips via the absence defaults.
        assert_eq!(DesignReport::from_value(&v).unwrap(), uni);
    }

    #[test]
    fn ingest_frames_parse_round_trip_and_reject_bad_shapes() {
        // First frame: catalog + knobs.
        let mut req = IngestRequest::new("acme", tiny_catalog_value(), "1\tSELECT a FROM t\n");
        req.window = Some(8);
        req.gamma = GammaSpec::Fixed(0.1 + 0.2);
        req.warmup = 2;
        let line = Request::Ingest(Box::new(req.clone())).to_line();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(parse_request(&line), Ok(Request::Ingest(Box::new(req))));
        // Follow-up frame: bytes only; defaults fill in.
        let follow = r#"{"op":"ingest","tenant":"acme","chunk":"2\tSELECT b FROM t\n"}"#;
        let Ok(Request::Ingest(req)) = parse_request(follow) else {
            panic!("must parse: {follow}");
        };
        assert_eq!(req.catalog, None);
        assert_eq!((req.window, req.window_secs), (None, None));
        assert_eq!(req.gamma, GammaSpec::Auto);
        assert_eq!((req.warmup, req.cooldown), (1, 1));
        assert!(!req.eof);
        let back = Request::Ingest(req.clone()).to_line();
        assert_eq!(parse_request(&back), Ok(Request::Ingest(req)));
        // eof frames round-trip.
        let eof = r#"{"op":"ingest","tenant":"acme","chunk":"","eof":true}"#;
        let Ok(Request::Ingest(req)) = parse_request(eof) else {
            panic!("must parse: {eof}");
        };
        assert!(req.eof);
        // Malformed frames are protocol errors, never panics.
        for bad in [
            r#"{"op":"ingest"}"#,
            r#"{"op":"ingest","tenant":""}"#,
            r#"{"op":"ingest","tenant":"../x","chunk":""}"#,
            r#"{"op":"ingest","tenant":"t"}"#,
            r#"{"op":"ingest","tenant":"t","chunk":7}"#,
            r#"{"op":"ingest","tenant":"t","chunk":"","eof":"yes"}"#,
            r#"{"op":"ingest","tenant":"t","chunk":"","catalog":[]}"#,
            r#"{"op":"ingest","tenant":"t","chunk":"","window":0}"#,
            r#"{"op":"ingest","tenant":"t","chunk":"","window":4,"window_secs":60}"#,
            r#"{"op":"ingest","tenant":"t","chunk":"","gamma":-0.5}"#,
            r#"{"op":"ingest","tenant":"t","chunk":"","gamma":1.0,"gamma_bits":7}"#,
        ] {
            assert!(parse_request(bad).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn ingest_responses_are_single_lines_with_bit_pattern_audits() {
        let r = Response::Ingest {
            seq: 4,
            tenant: "acme".into(),
            windows: 3,
            audits: vec!["W2 arrivals=4 distinct=2 delta_bits=0000000000000000 \
                 gamma_bits=3f50624dd2f1a9fc trigger=0 armed=1 cooldown=0 span=200..230"
                .into()],
            triggers: vec![1],
            armed: true,
            cooldown: 0,
            parsed: 12,
            skipped: 1,
            closed: false,
        };
        let line = r.to_line();
        assert!(!line.contains('\n'), "{line}");
        assert!(line.starts_with(r#"{"seq":4,"op":"ingest""#), "{line}");
        assert!(line.contains(r#""triggers":[1]"#), "{line}");
        assert!(line.contains("delta_bits=0000000000000000"), "{line}");
    }

    #[test]
    fn design_round_trips_with_newlines_and_gamma_bits() {
        let mut req = DesignRequest::new("acme-1", tiny_catalog_value(), "1\tSELECT a FROM t;\n");
        req.gamma = GammaSpec::Fixed(0.1 + 0.2); // not decimal-clean
        req.budget = BudgetSpec::Bytes(1 << 30);
        req.seed = 7;
        req.faults = Some("seed=1,rate=0.3".into());
        req.deadline_ms = Some(5_000);
        let line = Request::Design(Box::new(req.clone())).to_line();
        assert!(!line.contains('\n'), "NDJSON frames are one line: {line}");
        let back = parse_request(&line).expect("round trip");
        assert_eq!(back, Request::Design(Box::new(req)));
    }

    #[test]
    fn responses_are_single_lines() {
        let r = Response::Design {
            seq: 3,
            tenant: "t".into(),
            status: DesignStatus::Done,
            reason: None,
            report: Some(DesignReport {
                fingerprint: 0xabc,
                structures: 2,
                price_bytes: 10,
                gamma: 0.1 + 0.2,
                budget_bytes: 100,
                designer_calls: 4,
                retries: 1,
                faults: 1,
                degraded: None,
                worst_case_bits: vec![1.5f64.to_bits()],
                ddl: "CREATE PROJECTION p (\n  a\n);\n".into(),
                replicas: 1,
                replica_set_fingerprint: 0,
                replica_audit: None,
            }),
            resumed: false,
        };
        let line = r.to_line();
        assert!(!line.contains('\n'), "{line}");
        // The report round-trips through the wire value bit-exactly.
        let v: Value = serde_json::from_str(&line).unwrap();
        let rep = DesignReport::from_value(map_get(v.as_map().unwrap(), "report")).unwrap();
        assert_eq!(rep.gamma.to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(rep.ddl.contains('\n'));
    }
}
