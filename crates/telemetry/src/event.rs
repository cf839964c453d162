//! Events and spans: the structured-tracing half of the crate.
//!
//! A trace is a sequence of single-line JSON records with a fixed key
//! order:
//!
//! ```text
//! {"t":<ms>,"kind":"event","level":"info","name":"cliffguard.core.session.start","fields":{...}}
//! {"t":<ms>,"kind":"span","level":"info","name":"cliffguard.core.descent.iter","dur_ms":<ms>,"fields":{...}}
//! ```
//!
//! `t` is the record's timestamp on the subscriber clock (for a span:
//! when it was entered) and `dur_ms` is the span's clock time from
//! [`EventBuilder::entered`] to drop. Fields keep insertion order; field
//! values are `u64`/`i64`/`f64`/`bool`/string.

use crate::json::{push_f64, push_str_literal};
use crate::level::Level;
use crate::subscriber::Shared;
use std::sync::Arc;

/// Starts building an event named `name` at `level`.
///
/// When no subscriber is installed (or `level` is filtered out) this
/// returns an inert builder: every method is a no-op and nothing
/// allocates. The name should follow the workspace convention
/// `cliffguard.<crate>.<name>`.
///
/// A thread-installed [`FlightRecorder`](crate::FlightRecorder) widens
/// the gate: while one is active on the calling thread, the record is
/// built even when the subscriber would filter the level (or there is
/// no subscriber at all), and the rendered line is teed into the
/// recorder's ring. The subscriber's own output is unaffected either
/// way — the recorder adds no trace events.
pub fn event(level: Level, name: &'static str) -> EventBuilder {
    let recorder = if crate::flight::recorders_active() {
        crate::flight::current_recorder()
    } else {
        None
    };
    let shared = if crate::enabled(level) {
        crate::current_subscriber().filter(|s| (level as u8) <= (s.level as u8))
    } else {
        None
    };
    if shared.is_none() && recorder.is_none() {
        return EventBuilder { inner: None };
    }
    EventBuilder {
        inner: Some(Box::new(Record {
            shared,
            recorder,
            level,
            name,
            fields: String::new(),
        })),
    }
}

struct Record {
    shared: Option<Arc<Shared>>,
    recorder: Option<Arc<crate::flight::FlightRecorder>>,
    level: Level,
    name: &'static str,
    /// The body of the `fields` object, without braces: `"k":v,"k2":v2`.
    fields: String,
}

impl Record {
    fn push_key(&mut self, key: &str) {
        if !self.fields.is_empty() {
            self.fields.push(',');
        }
        push_str_literal(&mut self.fields, key);
        self.fields.push(':');
    }

    /// The record's timestamp source: the subscriber clock when one is
    /// attached, else the recorder's clock (the session's virtual clock
    /// in the serve daemon), else 0.
    fn now_ms(&self) -> u64 {
        match (&self.shared, &self.recorder) {
            (Some(s), _) => s.now_ms(),
            (None, Some(r)) => r.now_ms(),
            (None, None) => 0,
        }
    }

    fn emit(&self, t_ms: u64, dur_ms: Option<u64>) {
        let mut line = String::with_capacity(96 + self.fields.len());
        line.push_str("{\"t\":");
        line.push_str(&t_ms.to_string());
        line.push_str(",\"kind\":");
        line.push_str(if dur_ms.is_some() {
            "\"span\""
        } else {
            "\"event\""
        });
        line.push_str(",\"level\":\"");
        line.push_str(self.level.as_str());
        line.push_str("\",\"name\":");
        push_str_literal(&mut line, self.name);
        if let Some(d) = dur_ms {
            line.push_str(",\"dur_ms\":");
            line.push_str(&d.to_string());
        }
        line.push_str(",\"fields\":{");
        line.push_str(&self.fields);
        line.push_str("}}");
        if let Some(shared) = &self.shared {
            shared.write_line(&line);
        }
        if let Some(recorder) = &self.recorder {
            recorder.append(&line);
        }
    }
}

/// A pending event; add fields, then [`emit`](Self::emit) it or enter it
/// as a span.
#[must_use = "an EventBuilder does nothing until .emit() or .entered()"]
pub struct EventBuilder {
    inner: Option<Box<Record>>,
}

impl EventBuilder {
    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        if let Some(r) = &mut self.inner {
            r.push_key(key);
            r.fields.push_str(&v.to_string());
        }
        self
    }

    /// Adds a signed integer field.
    pub fn i64(mut self, key: &str, v: i64) -> Self {
        if let Some(r) = &mut self.inner {
            r.push_key(key);
            r.fields.push_str(&v.to_string());
        }
        self
    }

    /// Adds a float field (non-finite values encode as `null`).
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        if let Some(r) = &mut self.inner {
            r.push_key(key);
            push_f64(&mut r.fields, v);
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        if let Some(r) = &mut self.inner {
            r.push_key(key);
            r.fields.push_str(if v { "true" } else { "false" });
        }
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        if let Some(r) = &mut self.inner {
            r.push_key(key);
            push_str_literal(&mut r.fields, v);
        }
        self
    }

    /// Writes the event now (`kind = "event"`).
    pub fn emit(self) {
        if let Some(r) = &self.inner {
            r.emit(r.now_ms(), None);
        }
    }

    /// Turns the pending event into a span: the record is written when
    /// the returned guard drops, with `dur_ms` measured on the
    /// subscriber clock and `t` set to the enter time.
    pub fn entered(self) -> SpanGuard {
        let start_ms = self.inner.as_ref().map(|r| r.now_ms());
        SpanGuard {
            inner: self.inner,
            start_ms: start_ms.unwrap_or(0),
        }
    }
}

/// A live span; dropped = closed and written. Late fields added through
/// the `record_*` methods appear after the fields set at build time.
pub struct SpanGuard {
    inner: Option<Box<Record>>,
    start_ms: u64,
}

impl SpanGuard {
    /// Adds an unsigned integer field to the span before it closes.
    pub fn record_u64(&mut self, key: &str, v: u64) {
        if let Some(r) = &mut self.inner {
            r.push_key(key);
            r.fields.push_str(&v.to_string());
        }
    }

    /// Adds a float field to the span before it closes.
    pub fn record_f64(&mut self, key: &str, v: f64) {
        if let Some(r) = &mut self.inner {
            r.push_key(key);
            push_f64(&mut r.fields, v);
        }
    }

    /// Adds a boolean field to the span before it closes.
    pub fn record_bool(&mut self, key: &str, v: bool) {
        if let Some(r) = &mut self.inner {
            r.push_key(key);
            r.fields.push_str(if v { "true" } else { "false" });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(r) = &self.inner {
            let end = r.now_ms();
            r.emit(self.start_ms, Some(end.saturating_sub(self.start_ms)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscriber::{install, TelemetryConfig, TraceClock, TraceSink};
    use crate::test_lock::GLOBALS;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn disabled_builder_is_inert() {
        let _lock = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        // No subscriber installed: all of this must be a no-op.
        event(Level::Error, "cliffguard.test.noop")
            .u64("a", 1)
            .str("b", "x")
            .emit();
        let mut span = event(Level::Error, "cliffguard.test.noop").entered();
        span.record_f64("c", 1.5);
        drop(span);
    }

    #[test]
    fn span_records_duration_on_shared_clock() {
        let _lock = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let ticks = Arc::new(AtomicU64::new(100));
        let t2 = Arc::clone(&ticks);
        let guard = install(TelemetryConfig {
            trace: Some(TraceSink::Memory),
            level: Level::Info,
            clock: TraceClock::shared_ms(move || t2.load(Ordering::Relaxed)),
            metrics: false,
        })
        .unwrap();
        let mut span = event(Level::Info, "cliffguard.test.span")
            .u64("iter", 3)
            .entered();
        ticks.store(140, Ordering::Relaxed);
        span.record_f64("worst", 2.5);
        span.record_bool("accepted", true);
        drop(span);
        let lines = guard.memory().unwrap().lines();
        assert_eq!(
            lines,
            vec![
                r#"{"t":100,"kind":"span","level":"info","name":"cliffguard.test.span","dur_ms":40,"fields":{"iter":3,"worst":2.5,"accepted":true}}"#
            ]
        );
    }

    #[test]
    fn recorder_tees_without_touching_the_subscriber() {
        let _lock = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let guard = install(TelemetryConfig {
            trace: Some(TraceSink::Memory),
            level: Level::Info,
            clock: TraceClock::shared_ms(|| 7),
            metrics: false,
        })
        .unwrap();
        let rec = Arc::new(crate::flight::FlightRecorder::new(8));
        {
            let _g = crate::flight::record_on_thread(&rec);
            // Info passes the subscriber: both sinks see identical bytes.
            event(Level::Info, "cliffguard.test.both")
                .u64("a", 1)
                .emit();
            // Debug is filtered by the subscriber but retained by the
            // recorder — the black box keeps everything.
            event(Level::Debug, "cliffguard.test.only_recorder").emit();
        }
        // After the guard drops, nothing reaches the recorder.
        event(Level::Info, "cliffguard.test.after").emit();
        let trace = guard.memory().unwrap().lines();
        assert_eq!(trace.len(), 2);
        assert!(trace[0].contains("cliffguard.test.both"));
        assert!(trace[1].contains("cliffguard.test.after"));
        let recorded = rec.lines();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[0], trace[0]);
        assert!(recorded[1].contains("\"name\":\"cliffguard.test.only_recorder\""));
    }

    #[test]
    fn recorder_works_with_no_subscriber_on_its_own_clock() {
        let _lock = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(crate::flight::FlightRecorder::new(8));
        let ticks = Arc::new(AtomicU64::new(30));
        let t2 = Arc::clone(&ticks);
        rec.set_clock(Arc::new(move || t2.load(Ordering::Relaxed)));
        let _g = crate::flight::record_on_thread(&rec);
        event(Level::Trace, "cliffguard.test.blackbox")
            .str("s", "x")
            .emit();
        let mut span = event(Level::Debug, "cliffguard.test.blackbox_span").entered();
        ticks.store(45, Ordering::Relaxed);
        span.record_bool("ok", true);
        drop(span);
        assert_eq!(
            rec.lines(),
            vec![
                r#"{"t":30,"kind":"event","level":"trace","name":"cliffguard.test.blackbox","fields":{"s":"x"}}"#,
                r#"{"t":30,"kind":"span","level":"debug","name":"cliffguard.test.blackbox_span","dur_ms":15,"fields":{"ok":true}}"#,
            ]
        );
    }

    #[test]
    fn field_types_encode_exactly() {
        let _lock = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let guard = install(TelemetryConfig {
            trace: Some(TraceSink::Memory),
            level: Level::Trace,
            clock: TraceClock::shared_ms(|| 5),
            metrics: false,
        })
        .unwrap();
        event(Level::Trace, "cliffguard.test.kinds")
            .u64("u", u64::MAX)
            .i64("i", -7)
            .f64("f", 0.5)
            .f64("nan", f64::NAN)
            .bool("yes", true)
            .str("s", "a\"b")
            .emit();
        let lines = guard.memory().unwrap().lines();
        assert_eq!(
            lines[0],
            format!(
                "{{\"t\":5,\"kind\":\"event\",\"level\":\"trace\",\"name\":\"cliffguard.test.kinds\",\"fields\":{{\"u\":{},\"i\":-7,\"f\":0.5,\"nan\":null,\"yes\":true,\"s\":\"a\\\"b\"}}}}",
                u64::MAX
            )
        );
    }
}
