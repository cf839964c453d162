//! Flight recorder: a bounded ring of the most recent trace lines.
//!
//! A [`FlightRecorder`] is the session's black box. It retains the last
//! N rendered trace lines — *regardless of the subscriber's level, and
//! even with no subscriber installed at all* — so that when a session
//! degrades or a serve worker panics, the moments leading up to the
//! failure can be dumped for post-mortem analysis.
//!
//! The recorder is a *tee*, never a source: it observes the same
//! rendered bytes the tracing layer produces and adds no events of its
//! own, so the byte-identity contract on traces is untouched. Lines are
//! timestamped on the recorder's own clock (normally the session's
//! virtual clock) when no subscriber supplies one, which keeps dump
//! content byte-identical across reruns and thread counts.
//!
//! Install is per-thread: [`record_on_thread`] returns a guard that
//! routes every event built on the calling thread into the recorder
//! until dropped. One recorder per session/tenant, installed on the
//! worker thread that runs the session, is the intended shape. The
//! disabled fast path stays cheap: when no recorder is active anywhere
//! in the process, instrumentation sites pay one extra relaxed atomic
//! load and never touch thread-local storage.
//!
//! Its per-thread sibling, [`capture_on_thread`], holds back the lines a
//! thread writes to the subscriber so that work mapped on several threads
//! can write its trace in input order after the join.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Ring capacity used by the serve daemon's per-session recorders.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// A frozen flight-recorder dump: the retained lines at freeze time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Why the dump was taken (degradation reason or panic message).
    pub reason: String,
    /// The retained trace lines as JSONL (newline-terminated).
    pub jsonl: String,
    /// Lines that had already fallen out of the ring when frozen.
    pub dropped: u64,
}

struct Inner {
    ring: VecDeque<String>,
    dropped: u64,
    clock: Option<ClockFn>,
    dump: Option<FlightDump>,
}

/// A bounded, lock-cheap ring buffer of the most recent trace lines.
///
/// See the [module docs](self) for the lifecycle. All methods take
/// `&self`; the ring is guarded by a mutex that is only contended if
/// two threads share one recorder, which the intended
/// one-recorder-per-worker shape never does.
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &inner.ring.len())
            .field("dropped", &inner.dropped)
            .field("frozen", &inner.dump.is_some())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` lines (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                dropped: 0,
                clock: None,
                dump: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets the clock used to timestamp lines recorded while no
    /// subscriber supplies a timestamp. The serve runner binds this to
    /// the session's own (virtual) clock before the session starts.
    pub fn set_clock(&self, clock: ClockFn) {
        self.lock().clock = Some(clock);
    }

    /// The recorder clock's current time (0 before [`set_clock`](Self::set_clock)).
    pub fn now_ms(&self) -> u64 {
        let f = self.lock().clock.clone();
        f.map_or(0, |f| f())
    }

    /// Appends one rendered trace line, evicting the oldest beyond
    /// capacity.
    pub fn append(&self, line: &str) {
        let mut inner = self.lock();
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(line.to_string());
    }

    /// Lines currently retained, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Lines evicted so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Freezes the current ring into a pending dump, replacing any
    /// earlier dump. The ring itself keeps recording; the dump is the
    /// snapshot at the moment of failure.
    pub fn freeze(&self, reason: &str) {
        let mut inner = self.lock();
        let mut jsonl = String::new();
        for line in &inner.ring {
            jsonl.push_str(line);
            jsonl.push('\n');
        }
        inner.dump = Some(FlightDump {
            reason: reason.to_string(),
            jsonl,
            dropped: inner.dropped,
        });
    }

    /// Takes the pending dump, if a freeze has happened since the last
    /// take.
    pub fn take_dump(&self) -> Option<FlightDump> {
        self.lock().dump.take()
    }
}

/// Count of thread-installed recorders across the process; the fast
/// path checks this before touching thread-local storage.
static ACTIVE_RECORDERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The recorders installed on this thread, innermost last.
    static CURRENT: RefCell<Vec<Arc<FlightRecorder>>> = const { RefCell::new(Vec::new()) };
}

/// Routes every event built on the calling thread into `recorder` until
/// the returned guard drops. Nested installs shadow (innermost wins).
pub fn record_on_thread(recorder: &Arc<FlightRecorder>) -> RecorderGuard {
    CURRENT.with(|c| c.borrow_mut().push(Arc::clone(recorder)));
    ACTIVE_RECORDERS.fetch_add(1, Ordering::Relaxed);
    RecorderGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Uninstalls the thread's innermost recorder on drop.
pub struct RecorderGuard {
    // The guard pops this thread's stack; sending it elsewhere would
    // pop the wrong one.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
        ACTIVE_RECORDERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether any thread currently has a recorder installed (one relaxed
/// load — the recorder's share of the disabled fast path).
#[inline]
pub(crate) fn recorders_active() -> bool {
    ACTIVE_RECORDERS.load(Ordering::Relaxed) != 0
}

/// The calling thread's innermost recorder, if one is installed.
pub(crate) fn current_recorder() -> Option<Arc<FlightRecorder>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Freezes the calling thread's recorder (if any) with `reason`.
/// Returns whether a recorder was present. `DesignSession` calls this
/// at its degradation sites; it is a no-op outside a recorded session.
pub fn freeze_current(reason: &str) -> bool {
    match current_recorder() {
        Some(r) => {
            r.freeze(reason);
            true
        }
        None => false,
    }
}

thread_local! {
    /// The capture buffers open on this thread, innermost last.
    static CAPTURES: RefCell<Vec<Vec<String>>> = const { RefCell::new(Vec::new()) };
}

/// Holds back every trace line the calling thread writes to the
/// subscriber until the returned guard is finished; nested captures
/// shadow (innermost wins).
///
/// This is how work mapped on several threads keeps the trace
/// byte-identical to a serial run: `par_map` captures each item's lines
/// and, after the join, writes them with [`CapturedLines::emit`] in input
/// order. Captures only reorder subscriber output; a flight recorder
/// still tees each line when it is built.
pub fn capture_on_thread() -> CaptureGuard {
    CAPTURES.with(|c| c.borrow_mut().push(Vec::new()));
    CaptureGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Closes the thread's innermost capture: [`finish`](Self::finish)
/// returns its lines, a plain drop (say, on a panic) discards them.
pub struct CaptureGuard {
    // The guard pops this thread's stack; sending it elsewhere would
    // pop the wrong one.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl CaptureGuard {
    /// Closes the capture and returns the lines it held back.
    pub fn finish(self) -> CapturedLines {
        let lines = CAPTURES.with(|c| c.borrow_mut().pop()).unwrap_or_default();
        std::mem::forget(self);
        CapturedLines(lines)
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        CAPTURES.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Trace lines held back by a capture, in the order they were built.
#[derive(Debug)]
pub struct CapturedLines(Vec<String>);

impl CapturedLines {
    /// Writes the lines as if the calling thread emitted them now: into
    /// its innermost capture if one is open, else to the subscriber.
    pub fn emit(self) {
        if self.0.is_empty() {
            return;
        }
        if let Some(shared) = crate::current_subscriber() {
            for line in &self.0 {
                write_or_capture(&shared, line);
            }
        }
    }
}

/// Writes one rendered line to `shared`, unless the calling thread has a
/// capture open, which holds it instead.
pub(crate) fn write_or_capture(shared: &crate::subscriber::Shared, line: &str) {
    let held = CAPTURES.with(|c| match c.borrow_mut().last_mut() {
        Some(buf) => {
            buf.push(line.to_string());
            true
        }
        None => false,
    });
    if !held {
        shared.write_line(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.append(&format!("line {i}"));
        }
        assert_eq!(rec.lines(), vec!["line 2", "line 3", "line 4"]);
        assert_eq!(rec.dropped(), 2);
    }

    #[test]
    fn freeze_snapshots_and_take_consumes() {
        let rec = FlightRecorder::new(8);
        rec.append("a");
        rec.append("b");
        rec.freeze("it broke");
        rec.append("c");
        let dump = rec.take_dump().expect("frozen dump");
        assert_eq!(dump.reason, "it broke");
        assert_eq!(dump.jsonl, "a\nb\n");
        assert_eq!(dump.dropped, 0);
        assert!(rec.take_dump().is_none());
        // A later freeze sees the post-freeze ring.
        rec.freeze("again");
        assert_eq!(rec.take_dump().unwrap().jsonl, "a\nb\nc\n");
    }

    #[test]
    fn thread_install_is_scoped_and_nested() {
        let outer = Arc::new(FlightRecorder::new(4));
        let inner = Arc::new(FlightRecorder::new(4));
        assert!(current_recorder().is_none());
        {
            let _g1 = record_on_thread(&outer);
            assert!(Arc::ptr_eq(&current_recorder().unwrap(), &outer));
            {
                let _g2 = record_on_thread(&inner);
                assert!(Arc::ptr_eq(&current_recorder().unwrap(), &inner));
                assert!(freeze_current("inner failure"));
            }
            assert!(Arc::ptr_eq(&current_recorder().unwrap(), &outer));
        }
        assert!(current_recorder().is_none());
        assert!(inner.take_dump().is_some());
        assert!(outer.take_dump().is_none());
        assert!(!freeze_current("nobody listening"));
    }

    #[test]
    fn recorder_clock_defaults_to_zero() {
        let rec = FlightRecorder::new(2);
        assert_eq!(rec.now_ms(), 0);
        rec.set_clock(Arc::new(|| 42));
        assert_eq!(rec.now_ms(), 42);
    }
}
