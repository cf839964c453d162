//! Per-tenant streaming-ingest sessions: the one observe → trigger →
//! redesign loop behind the daemon's `ingest` verb and `cliffguard ingest`.
//!
//! An [`IngestSession`] pairs a [`LogStream`] (chunked statement
//! splitting + parse cache) with an [`OnlineAdvisor`] (sliding windows,
//! incremental δ, Γ trigger) for one tenant. [`feed`](IngestSession::feed)
//! takes raw bytes and returns every window it closed, with the inputs of
//! a redesign captured at the close that fired it;
//! [`redesign`](IngestSession::redesign) runs that redesign. The CLI
//! feeds one read at a time and redesigns at each trigger. The daemon
//! feeds each `ingest` frame synchronously — no worker pool, no drain
//! barrier — reports triggers without redesigning, and persists
//! [`to_json`](IngestSession::to_json) after every frame, so a killed
//! daemon restarted on the same state directory resumes the session
//! mid-stream and replays the remaining chunks to a byte-identical
//! window-audit and trigger history.
//!
//! The persistence surface is exact by construction: window workloads are
//! integer-weighted (raw counts survive JSON), δ history and a fixed Γ
//! travel as IEEE-754 bit patterns ([`serde::bits`]), and the stream
//! carry is a byte array (a chunk may end mid-UTF-8-sequence, so it is
//! *not* a JSON string). A snapshot is restored through the same knob
//! rule as a frame ([`IngestRequest::advisor_config`]), so a corrupt one
//! is refused, not altered.

use crate::protocol::{GammaSpec, IngestRequest};
use cliffguard_core::gamma::GammaPolicy;
use cliffguard_core::{
    AdvisorSnapshot, CliffGuardConfig, CliffGuardTrace, DesignSession, OnlineAdvisor,
    SessionOptions, WindowAudit, WindowPolicy, DEFAULT_INTERN_CAPACITY,
};
use cliffguard_designer::{ColumnarCandidates, GreedyDesigner};
use cliffguard_distance::DeltaEuclidean;
use cliffguard_resilience::{session_designer, FaultPlan, SessionClock};
use cliffguard_sim::{ColumnarDesign, ColumnarEngine, Engine};
use cliffguard_storage::Catalog;
use cliffguard_workload::{LogStream, Query, StreamStats, Workload};
use serde::{Deserialize, Serialize, Value, Version};
use std::sync::Arc;

/// One tenant's live streaming-ingest state.
#[derive(Debug)]
pub struct IngestSession {
    tenant: String,
    /// The catalog as received on the wire, persisted verbatim so the
    /// snapshot re-parses with identical inputs.
    catalog_value: Value,
    /// The cost model over the catalog: the stream's name resolver and
    /// the redesigns' engine.
    engine: ColumnarEngine,
    stream: LogStream,
    advisor: OnlineAdvisor,
    /// Interner-compaction threshold (distinct queries); once the
    /// stream's intern table exceeds it after a frame, the table is
    /// compacted down to the advisor's retained windows so an unbounded
    /// tape cannot grow memory without limit.
    intern_capacity: usize,
}

/// A window that one [`feed`](IngestSession::feed) closed.
#[derive(Debug)]
pub struct ClosedWindow {
    /// The window's audit.
    pub audit: WindowAudit,
    /// What a redesign at this window runs on: `Some` when the window
    /// fired and holds arrivals (an empty window, padded over a log-time
    /// gap, has nothing to design for).
    pub trigger: Option<TriggerInputs>,
}

/// The inputs of a triggered redesign, captured at the close that fired.
#[derive(Debug)]
pub struct TriggerInputs {
    /// The window that fired, the redesign's `W0`.
    pub w0: Workload,
    /// The retained windows before it, deduplicated: the historical pool.
    pub pool: Vec<Arc<Query>>,
}

impl ClosedWindow {
    /// `audit`, with the redesign inputs read off `advisor` as its close
    /// left it.
    fn capture(advisor: &OnlineAdvisor, audit: WindowAudit) -> Self {
        let trigger = advisor
            .last_window()
            .filter(|w0| audit.triggered && !w0.is_empty())
            .map(|w0| TriggerInputs {
                w0: w0.clone(),
                pool: advisor.design_pool(),
            });
        Self { audit, trigger }
    }
}

impl IngestSession {
    /// Opens a session from its first frame. Fails (with a wire-ready
    /// reason) when the frame carries no catalog, a bad catalog, or
    /// knobs the knob rule refuses.
    pub fn create(req: &IngestRequest, clock: SessionClock) -> Result<Self, String> {
        let Some(catalog_value) = &req.catalog else {
            return Err(format!(
                "ingest: no session for tenant `{}` — the first frame must carry a catalog",
                req.tenant
            ));
        };
        let catalog =
            Catalog::from_value(catalog_value).map_err(|e| format!("ingest: bad catalog: {e}"))?;
        let config = req.advisor_config(catalog.column_count())?;
        Ok(Self {
            tenant: req.tenant.clone(),
            catalog_value: catalog_value.clone(),
            engine: ColumnarEngine::new(catalog),
            stream: LogStream::new(),
            advisor: OnlineAdvisor::new(config, clock),
            intern_capacity: DEFAULT_INTERN_CAPACITY,
        })
    }

    /// The tenant this session belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Feeds one chunk of log bytes (boundaries may fall anywhere, even
    /// mid-UTF-8 sequence); `eof` flushes the trailing partial line and
    /// closes the open window. Returns every window this call closed, in
    /// close order.
    pub fn feed(&mut self, chunk: &[u8], eof: bool) -> Vec<ClosedWindow> {
        let mut closed = Vec::new();
        {
            // A redesign's inputs are read inside the close: one arrival
            // can close several windows, and each close rotates them.
            let mut on_close =
                |advisor: &OnlineAdvisor, audit| closed.push(ClosedWindow::capture(advisor, audit));
            let advisor = &mut self.advisor;
            let mut sink =
                |ts: u64, _id, q: &Arc<Query>| advisor.observe_with(ts, q, &mut on_close);
            self.stream.feed(chunk, self.engine.catalog(), &mut sink);
            if eof {
                self.stream.finish(self.engine.catalog(), &mut sink);
            }
        }
        if eof {
            // The partial trailing window closes exactly as a full one
            // would (it can trigger too).
            if let Some(audit) = self.advisor.finish() {
                closed.push(ClosedWindow::capture(&self.advisor, audit));
            }
        }
        // Bound the intern table across an unbounded tape: compaction is
        // invisible to the audit stream (dropped statements re-parse and
        // re-intern on their next arrival), so running it per frame keeps
        // memory flat without perturbing determinism.
        self.advisor
            .compact_stream(&mut self.stream, self.intern_capacity);
        closed
    }

    /// Runs the resilient redesign a fired window asks for, at the
    /// window's resolved Γ: the session `cliffguard design` runs (the
    /// greedy DBD designer behind the fault plan's injector, δ over the
    /// catalog's columns), on `inputs`' `W0` and pool, on `clock`.
    pub fn redesign(
        &self,
        inputs: &TriggerInputs,
        gamma: f64,
        budget: u64,
        faults: Option<&FaultPlan>,
        clock: &SessionClock,
    ) -> Result<(ColumnarDesign, CliffGuardTrace), String> {
        let metric = DeltaEuclidean::new(self.engine.catalog().column_count());
        let nominal = GreedyDesigner::new(&self.engine, ColumnarCandidates, "DBD");
        let options = SessionOptions {
            clock: clock.clone(),
            ..SessionOptions::default()
        };
        let config = CliffGuardConfig::new(gamma.max(0.0));
        let designer = session_designer(&nominal, faults, clock);
        let designed = DesignSession::new(&self.engine, designer, metric, config, options)
            .map_err(|e| format!("bad configuration: {e}"))?
            .run(&inputs.w0, budget, &inputs.pool)
            .into_design();
        Ok(designed)
    }

    /// Overrides the interner-compaction threshold (tests use a tiny
    /// bound to exercise compaction on small tapes).
    pub fn set_intern_capacity(&mut self, capacity: usize) {
        self.intern_capacity = capacity.max(1);
    }

    /// Distinct queries currently held by the stream's intern table.
    pub fn interned_queries(&self) -> usize {
        self.stream.interner().len()
    }

    /// The cost model over the session's catalog.
    pub fn engine(&self) -> &ColumnarEngine {
        &self.engine
    }

    /// The drift advisor (trigger history, armed state, window count).
    pub fn advisor(&self) -> &OnlineAdvisor {
        &self.advisor
    }

    /// The stream's parse counters.
    pub fn stats(&self) -> &StreamStats {
        self.stream.stats()
    }

    /// How many times the stream's statement cache hit its bound.
    pub fn cache_resets(&self) -> u64 {
        self.stream.cache_resets()
    }

    /// Serializes the session's restorable state as one JSON document.
    pub fn to_json(&self) -> String {
        let cfg = self.advisor.config();
        let (window_count, window_log_secs) = match cfg.window {
            WindowPolicy::Count(n) => (Some(n as u64), None),
            WindowPolicy::LogTime(s) => (None, Some(s)),
            WindowPolicy::ClockTime(_) => {
                unreachable!("the knob rule builds count and log-time windows only")
            }
        };
        let (gamma_bits, gamma) = match cfg.gamma {
            GammaPolicy::Fixed(g) => (Some(g), None),
            // Every non-fixed policy the wire can produce is `auto`.
            _ => (None, Some("auto".to_string())),
        };
        let file = IngestFile {
            version: Version,
            tenant: self.tenant.clone(),
            catalog: self.catalog_value.clone(),
            window_count,
            window_log_secs,
            gamma_bits,
            gamma,
            warmup: cfg.warmup as u64,
            cooldown: cfg.cooldown as u64,
            carry: self.stream.carry().to_vec(),
            stats: self.stream.stats().clone(),
            cache_resets: self.stream.cache_resets(),
            advisor: self.advisor.snapshot(),
        };
        serde_json::to_string(&file).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// Rebuilds a session from [`to_json`](Self::to_json). The snapshot's
    /// knobs go through [`create`](Self::create), and so through the knob
    /// rule; a carry byte above 255 is refused. The restored advisor
    /// state is bit-identical to the live one (integer window counts,
    /// bit-pattern δ history), so replaying the remaining chunks yields
    /// the same audits and triggers as an uninterrupted run.
    pub fn from_json(json: &str, clock: SessionClock) -> Result<Self, String> {
        let file: IngestFile = serde_json::from_str(json).map_err(|e| e.to_string())?;
        // The knobs of the frame that opened the session.
        let mut knobs = IngestRequest::new(file.tenant, file.catalog, "");
        knobs.window = file.window_count;
        knobs.window_secs = file.window_log_secs;
        if knobs.window.is_none() && knobs.window_secs.is_none() {
            return Err("snapshot carries no window policy".into());
        }
        if let Some(g) = file.gamma_bits {
            knobs.gamma = GammaSpec::Fixed(g);
        }
        knobs.warmup = file.warmup;
        knobs.cooldown = file.cooldown;
        let mut session = Self::create(&knobs, clock.clone())?;
        session.stream = LogStream::restore(file.carry, file.stats, file.cache_resets);
        let config = session.advisor.config().clone();
        session.advisor = OnlineAdvisor::restore(config, clock, file.advisor);
        Ok(session)
    }
}

/// The ingest snapshot file ([`IngestSession::to_json`]): the opening
/// frame's tenant, catalog and knobs, then the stream's and the
/// advisor's state. Exactly one window key is present, and either
/// `gamma_bits` (a fixed Γ) or `"gamma":"auto"`.
#[derive(Serialize, Deserialize)]
struct IngestFile {
    version: Version<1>,
    tenant: String,
    /// The catalog as the first frame carried it.
    catalog: Value,
    #[serde(skip_serializing_if = "Option::is_none")]
    window_count: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    window_log_secs: Option<u64>,
    #[serde(with = "serde::bits", skip_serializing_if = "Option::is_none")]
    gamma_bits: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    gamma: Option<String>,
    warmup: u64,
    cooldown: u64,
    carry: Vec<u8>,
    stats: StreamStats,
    cache_resets: u64,
    advisor: AdvisorSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;
    use cliffguard_workload::{LogTape, LogTapeConfig};

    fn small_fixture() -> (Value, LogTape) {
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

    fn first_frame(tenant: &str, catalog: Value, tape: &LogTape) -> IngestRequest {
        let mut req = IngestRequest::new(tenant, catalog, "");
        req.window = Some(tape.config().window_len as u64);
        req.gamma = GammaSpec::Fixed(tape.suggested_gamma());
        req
    }

    #[test]
    fn create_requires_a_catalog() {
        let req = IngestRequest::chunk_only("acme", "1\tSELECT c0 FROM t0\n");
        let err = IngestSession::create(&req, SessionClock::virtual_clock()).unwrap_err();
        assert!(err.contains("must carry a catalog"), "{err}");
    }

    #[test]
    fn feed_windows_and_triggers_on_the_scripted_episode() {
        let (catalog, tape) = small_fixture();
        let req = first_frame("acme", catalog, &tape);
        let mut sess = IngestSession::create(&req, SessionClock::virtual_clock()).unwrap();
        let audits = sess.feed(tape.text().as_bytes(), true);
        assert_eq!(audits.len(), tape.config().windows);
        let fired: Vec<u64> = audits
            .iter()
            .filter(|w| w.audit.triggered)
            .map(|w| w.audit.index)
            .collect();
        assert_eq!(fired, vec![3], "exactly the episode window fires");
        assert_eq!(sess.advisor().triggers(), &[3]);
        assert_eq!(
            sess.stats().parsed as usize,
            tape.config().windows * tape.config().window_len
        );
    }

    #[test]
    fn snapshot_round_trip_replays_byte_identically() {
        let (catalog, tape) = small_fixture();
        let text = tape.text();
        let req = first_frame("acme", catalog, &tape);

        let want: Vec<String> = {
            let mut s = IngestSession::create(&req, SessionClock::virtual_clock()).unwrap();
            s.feed(text.as_bytes(), true)
                .iter()
                .map(|w| w.audit.line())
                .collect()
        };

        // Kill after an awkward split (mid-line; the tape is ASCII, so any
        // byte offset is a char boundary), resume from JSON, finish.
        let cut = text.len() / 2 + 3;
        let mut first = IngestSession::create(&req, SessionClock::virtual_clock()).unwrap();
        let mut got: Vec<String> = first
            .feed(&text.as_bytes()[..cut], false)
            .iter()
            .map(|w| w.audit.line())
            .collect();
        let json = first.to_json();
        drop(first);
        let mut resumed = IngestSession::from_json(&json, SessionClock::virtual_clock()).unwrap();
        assert_eq!(resumed.tenant(), "acme");
        got.extend(
            resumed
                .feed(&text.as_bytes()[cut..], true)
                .iter()
                .map(|w| w.audit.line()),
        );
        assert_eq!(got, want, "kill/resume must replay byte-identically");
        assert_eq!(resumed.advisor().triggers(), &[3]);
    }

    #[test]
    fn feed_compacts_the_interner_without_perturbing_audits() {
        // Four one-way regimes: statements of regimes the advisor's
        // window history has forgotten are *gone*, so a bounded interner
        // must end up strictly smaller than an unbounded one.
        let (catalog, tape) = testdata::ingest_fixture(LogTapeConfig {
            tables: 4,
            cols_per_table: 4,
            windows: 12,
            window_len: 8,
            window_secs: 60,
            episodes: vec![3, 6, 9],
            statements_per_regime: 3,
            header_noise: false,
            ..LogTapeConfig::default()
        });
        let text = tape.text();
        let req = first_frame("acme", catalog, &tape);

        let mut plain = IngestSession::create(&req, SessionClock::virtual_clock()).unwrap();
        let want: Vec<String> = plain
            .feed(text.as_bytes(), true)
            .iter()
            .map(|w| w.audit.line())
            .collect();

        // A tiny compaction bound, fed in small frames so the bound is
        // crossed mid-stream: the intern table stays below the plain
        // run's and the audit stream is byte-identical.
        let mut tight = IngestSession::create(&req, SessionClock::virtual_clock()).unwrap();
        tight.set_intern_capacity(2);
        let mut got: Vec<String> = Vec::new();
        for chunk in text.as_bytes().chunks(64) {
            got.extend(tight.feed(chunk, false).iter().map(|w| w.audit.line()));
        }
        got.extend(tight.feed(&[], true).iter().map(|w| w.audit.line()));
        assert_eq!(got, want, "compaction must be invisible to the audits");
        assert!(
            tight.interned_queries() < plain.interned_queries(),
            "tight={} plain={}",
            tight.interned_queries(),
            plain.interned_queries()
        );
        assert!(tight.interned_queries() <= tight.advisor().retained_signatures().len());
    }

    #[test]
    fn from_json_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "not json",
            "[]",
            r#"{"version":2}"#,
            r#"{"version":1,"tenant":"t"}"#,
        ] {
            assert!(
                IngestSession::from_json(bad, SessionClock::virtual_clock()).is_err(),
                "must reject: {bad}"
            );
        }

        // A live snapshot with one field corrupted is refused, not
        // altered: no carry byte wraps, and the knob rule holds.
        let (catalog, tape) = small_fixture();
        let req = first_frame("acme", catalog, &tape);
        let mut live = IngestSession::create(&req, SessionClock::virtual_clock()).unwrap();
        let text = tape.text().as_bytes();
        live.feed(&text[..text.len() / 2 + 3], false);
        let json = live.to_json();
        assert!(IngestSession::from_json(&json, SessionClock::virtual_clock()).is_ok());
        let with = |key: &str, value: Value| {
            let Ok(Value::Map(mut m)) = serde_json::from_str::<Value>(&json) else {
                panic!("a snapshot is a JSON object");
            };
            let slot = m.iter_mut().find(|(k, _)| k == key).expect("key present");
            slot.1 = value;
            serde_json::to_string(&Value::Map(m)).unwrap()
        };
        for (key, value, why) in [
            ("carry", Value::Seq(vec![Value::U64(256)]), "carry"),
            (
                "gamma_bits",
                Value::U64(f64::NAN.to_bits()),
                "gamma must be",
            ),
            (
                "gamma_bits",
                Value::U64((-1.0f64).to_bits()),
                "gamma must be",
            ),
            ("window_count", Value::U64(0), "window lengths must be"),
        ] {
            let err =
                IngestSession::from_json(&with(key, value.clone()), SessionClock::virtual_clock())
                    .expect_err(key);
            assert!(err.contains(why), "{key}={value:?}: {err}");
        }
    }
}
