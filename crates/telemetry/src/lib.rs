//! First-party observability for the CliffGuard workspace.
//!
//! The robust-design search is a quantitative system — its whole value
//! claim is "worst-case cost over a Γ-neighborhood" — yet a run used to
//! be a black box between the CLI banner and the final DDL. This crate
//! is the one telemetry layer every other crate talks to:
//!
//! * **Structured tracing** ([`event`]): leveled events and spans with
//!   typed key-value fields, serialized as one JSON object per line
//!   (JSONL) to a file, an arbitrary writer, or an in-memory buffer.
//!   Timestamps come from a pluggable clock, so a session running on the
//!   virtual [`SessionClock`] produces **byte-identical traces** across
//!   reruns and thread counts (`SessionClock` lives in
//!   `cliffguard-resilience`; the bridge is a plain `Fn() -> u64`, which
//!   keeps this crate dependency-free).
//! * **Metrics** ([`metrics`]): counters, gauges, and log-linear-bucket
//!   histograms with p50/p95/p99 export and mergeable snapshots,
//!   registered by name (`cliffguard.<crate>.<name>`), renderable as
//!   Prometheus exposition text via [`render_prometheus`].
//! * **Flight recorder** ([`flight`]): a bounded per-session ring of the
//!   most recent trace lines — all levels, subscriber or not — dumped
//!   on degradation or a worker panic as the session's black box.
//! * **A disabled-by-default fast path**: when nothing is installed,
//!   every instrumentation site costs two relaxed atomic loads (level
//!   gate + flight-recorder gate) and nothing else — no allocation, no
//!   formatting, no locks.
//!
//! # Usage
//!
//! ```
//! use cliffguard_telemetry as telemetry;
//! use telemetry::{Level, TelemetryConfig, TraceSink};
//!
//! let guard = telemetry::install(TelemetryConfig {
//!     trace: Some(TraceSink::Memory),
//!     level: Level::Debug,
//!     metrics: true,
//!     ..TelemetryConfig::default()
//! })
//! .unwrap();
//!
//! telemetry::event(Level::Info, "cliffguard.doc.example")
//!     .u64("answer", 42)
//!     .emit();
//! if let Some(c) = telemetry::counter("cliffguard.doc.calls") {
//!     c.incr(1);
//! }
//!
//! let lines = guard.memory().unwrap().lines();
//! assert_eq!(lines.len(), 1);
//! assert!(lines[0].contains("\"name\":\"cliffguard.doc.example\""));
//! let snap = guard.registry().unwrap().snapshot();
//! assert_eq!(snap.counter("cliffguard.doc.calls"), Some(1));
//! // Dropping the guard uninstalls everything and restores the fast path.
//! ```
//!
//! [`SessionClock`]: https://docs.rs/cliffguard-resilience

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod flight;
mod json;
mod level;
pub mod metrics;
mod prometheus;
mod subscriber;

pub use event::{event, EventBuilder, SpanGuard};
pub use flight::{
    capture_on_thread, freeze_current, record_on_thread, CaptureGuard, CapturedLines, FlightDump,
    FlightRecorder, RecorderGuard, DEFAULT_FLIGHT_CAPACITY,
};
pub use level::Level;
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use prometheus::render_prometheus;
pub use subscriber::{
    install, MemoryTrace, TelemetryConfig, TelemetryGuard, TraceClock, TraceSink,
};

use metrics::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable selecting the trace level when the caller does
/// not pick one explicitly: `off`, `error`, `warn`, `info`, `debug`, or
/// `trace`.
pub const LOG_ENV: &str = "CLIFFGUARD_LOG";

/// The installed subscriber's maximum level (0 = tracing disabled).
/// This is the entire cost of a disabled instrumentation site.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Whether a metrics registry is installed. Same idea as [`MAX_LEVEL`]:
/// one relaxed load answers "should I even time this?".
static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// The installed subscriber and registry. A `Mutex<Option<Arc<..>>>`
/// rather than a lock-free slot: the lock is only touched on the
/// *enabled* path (and at install/uninstall), never on the fast path.
static SUBSCRIBER: Mutex<Option<Arc<subscriber::Shared>>> = Mutex::new(None);
static REGISTRY: Mutex<Option<Arc<MetricsRegistry>>> = Mutex::new(None);

/// Whether an event at `level` would currently be recorded.
///
/// This is the fast path every instrumentation site runs first: one
/// relaxed atomic load. With no subscriber installed it returns `false`
/// and the site does nothing else.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Whether a metrics registry is currently installed.
///
/// Sites that time work (e.g. a stopwatch around a cost-model call)
/// check this before touching the clock.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// The installed metrics registry, if any.
pub fn registry() -> Option<Arc<MetricsRegistry>> {
    if !metrics_enabled() {
        return None;
    }
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// The counter `name` of the installed registry (`None` when metrics are
/// off). Handles are `Arc`s — resolve once, then update lock-free.
pub fn counter(name: &str) -> Option<Arc<Counter>> {
    registry().map(|r| r.counter(name))
}

/// The gauge `name` of the installed registry (`None` when metrics are
/// off).
pub fn gauge(name: &str) -> Option<Arc<Gauge>> {
    registry().map(|r| r.gauge(name))
}

/// The histogram `name` of the installed registry (`None` when metrics
/// are off).
pub fn histogram(name: &str) -> Option<Arc<Histogram>> {
    registry().map(|r| r.histogram(name))
}

/// Milliseconds elapsed since `start`, as the `f64` histograms record.
pub fn elapsed_ms(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Renders a metric name with one label in Prometheus style, e.g.
/// `labeled("cliffguard.serve.sessions", "tenant", "acme")` →
/// `cliffguard.serve.sessions{tenant="acme"}`.
///
/// The registry keys metrics by flat name, so a labeled series is simply
/// a distinct name; snapshots and merges treat each label value as its
/// own counter/gauge/histogram. Characters that would corrupt the rendered
/// name (`{`, `}`, `"`, newlines) are replaced with `_` — callers pass
/// tenant ids and similar externally-supplied strings here.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    let clean: String = value
        .chars()
        .map(|c| match c {
            '{' | '}' | '"' | '\n' | '\r' => '_',
            c => c,
        })
        .collect();
    format!("{name}{{{key}=\"{clean}\"}}")
}

pub(crate) fn current_subscriber() -> Option<Arc<subscriber::Shared>> {
    SUBSCRIBER.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

pub(crate) fn set_globals(sub: Option<Arc<subscriber::Shared>>, reg: Option<Arc<MetricsRegistry>>) {
    // Order matters on install: publish the state before flipping the
    // fast-path flags, so a site that sees "enabled" finds a subscriber.
    let max = sub.as_ref().map_or(0, |s| s.level as u8);
    *SUBSCRIBER.lock().unwrap_or_else(|e| e.into_inner()) = sub;
    let on = reg.is_some();
    *REGISTRY.lock().unwrap_or_else(|e| e.into_inner()) = reg;
    MAX_LEVEL.store(max, Ordering::Relaxed);
    METRICS_ON.store(on, Ordering::Relaxed);
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::Mutex;

    /// The subscriber and registry are process globals; tests that
    /// install them serialize on this lock (same idiom as the
    /// thread-knob lock in `cliffguard-parallel`).
    pub static GLOBALS: Mutex<()> = Mutex::new(());
}

#[cfg(test)]
mod label_tests {
    use super::labeled;

    #[test]
    fn labeled_renders_and_sanitizes() {
        assert_eq!(
            labeled("cliffguard.serve.sessions", "tenant", "acme"),
            "cliffguard.serve.sessions{tenant=\"acme\"}"
        );
        // Hostile label values cannot corrupt the rendered name.
        assert_eq!(labeled("m", "tenant", "a\"}{b\n"), "m{tenant=\"a___b_\"}");
        // Distinct label values are distinct registry keys.
        assert_ne!(labeled("m", "t", "a"), labeled("m", "t", "b"));
    }
}
