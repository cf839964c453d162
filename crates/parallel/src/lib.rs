//! Deterministic coarse-grain parallelism for CliffGuard.
//!
//! The evaluation protocol of Section 6.1 redesigns at the end of every
//! window from that window and its history alone, so the windows of a
//! stateless strategy are independent tasks of a few to a few hundred
//! milliseconds each. This crate provides the one primitive that maps
//! them — [`par_map`] — built on `std::thread::scope`, plus a
//! process-wide thread-count knob ([`set_threads`] /
//! [`current_threads`], seeded from the `CLIFFGUARD_THREADS` environment
//! variable).
//!
//! Finer maps (an epoch fill, a benefit matrix, a window's test costing)
//! take tens to a few hundred microseconds, about what a few scoped
//! spawns cost, and stay plain iterator maps in their crates (DESIGN.md
//! §8).
//!
//! # Determinism contract
//!
//! [`par_map`] applies a pure function to every element of a slice and
//! returns the results **in input order**, regardless of the thread
//! count. Callers then reduce serially over that ordered `Vec`, so every
//! floating-point reduction happens in exactly the order the serial code
//! would have used: results are **bit-identical** at 1, 2, or 64 threads.
//! (This is why the crate exposes an ordered map rather than a parallel
//! fold — re-associating f64 additions across threads would change
//! low-order bits with the thread count.) The trace lines an item emits
//! are held back per item and written in input order after the join, so
//! traces are byte-identical at any thread count too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cliffguard_telemetry as telemetry;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Process-wide thread count. 0 = not yet resolved (lazily read from the
/// environment on first use).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on the thread count, to keep a typo like
/// `CLIFFGUARD_THREADS=10000` from spawning 10 000 OS threads.
const MAX_THREADS: usize = 256;

/// Sets the process-wide worker thread count (clamped to `1..=256`).
///
/// `1` disables parallelism entirely: [`par_map`] then runs inline on the
/// calling thread. This is what `--threads` on the CLI and bench
/// harnesses call.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// The current worker thread count.
///
/// Resolution order: the last [`set_threads`] call, else the
/// `CLIFFGUARD_THREADS` environment variable, else
/// `std::thread::available_parallelism()`.
pub fn current_threads() -> usize {
    let n = THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = threads_from_env()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    let resolved = resolved.clamp(1, MAX_THREADS);
    // Another thread may have resolved concurrently; first write wins so
    // the answer is stable for the rest of the process.
    match THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => resolved,
        Err(existing) => existing,
    }
}

fn threads_from_env() -> Option<usize> {
    std::env::var("CLIFFGUARD_THREADS")
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&n| n > 0)
}

thread_local! {
    /// Whether this thread is mapping an item of a fanned-out [`par_map`].
    static IN_ITEM: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as mapping items until dropped. Only a thread
/// outside any item enters one, so the drop restores `false`.
struct InItem;

impl InItem {
    fn enter() -> Self {
        IN_ITEM.with(|c| c.set(true));
        InItem
    }
}

impl Drop for InItem {
    fn drop(&mut self) {
        IN_ITEM.with(|c| c.set(false));
    }
}

/// Maps `f` over `items`, returning results in input order.
///
/// With more than one thread and more than one item, `min(threads,
/// items)` workers (the caller and scoped threads) take item indices
/// from one shared counter, so uneven items balance themselves. The
/// trace lines each item emits are captured and written in input order
/// after the join, so the trace matches a serial run's byte for byte. A
/// `par_map` called from inside an item maps inline on that item's
/// thread, and so does one with a single thread or item. The output is
/// exactly `items.iter().map(f).collect()` for any thread count.
///
/// Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = current_threads().min(items.len());
    if workers <= 1 || IN_ITEM.with(Cell::get) {
        if let Some(c) = telemetry::counter("cliffguard.parallel.inline_calls") {
            c.incr(1);
        }
        return items.iter().map(f).collect();
    }
    // Metrics only: each worker's busy time (its chunk) and the fan-out's
    // utilization.
    let t_all = telemetry::metrics_enabled().then(Instant::now);
    let chunk_hist = telemetry::histogram("cliffguard.parallel.chunk_ms");
    let busy_us = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let work = || {
        let _in_item = InItem::enter();
        let t0 = chunk_hist.as_ref().map(|_| Instant::now());
        let mut done = Vec::new();
        loop {
            // The counter only hands out indices; results reach the
            // caller through the join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let capture = telemetry::capture_on_thread();
            done.push((i, f(item), capture.finish()));
        }
        if let (Some(h), Some(t0)) = (&chunk_hist, t0) {
            let us = t0.elapsed().as_micros() as u64;
            busy_us.fetch_add(us, Ordering::Relaxed);
            h.record(us as f64 / 1e3);
        }
        done
    };
    let shares = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut shares = vec![work()];
        for h in handles {
            match h.join() {
                Ok(share) => shares.push(share),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        shares
    });
    if let Some(t_all) = t_all {
        if let Some(c) = telemetry::counter("cliffguard.parallel.par_calls") {
            c.incr(1);
        }
        if let Some(c) = telemetry::counter("cliffguard.parallel.items") {
            c.incr(items.len() as u64);
        }
        if let Some(g) = telemetry::gauge("cliffguard.parallel.threads") {
            g.set(workers as f64);
        }
        let wall_us = t_all.elapsed().as_micros() as u64;
        if wall_us > 0 {
            if let Some(g) = telemetry::gauge("cliffguard.parallel.utilization") {
                // Busy worker time over available worker time: 1.0 =
                // every worker busy from spawn to join.
                g.set(busy_us.load(Ordering::Relaxed) as f64 / (wall_us * workers as u64) as f64);
            }
        }
    }
    // Each index was taken exactly once; put the results, and the trace
    // lines their items emitted, back in input order.
    let mut done: Vec<_> = shares.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(i, ..)| i);
    done.into_iter()
        .map(|(_, r, lines)| {
            lines.emit();
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// `set_threads` and the installed telemetry are process state; every
    /// test that maps serializes on this lock so cargo's parallel test
    /// runner cannot interleave them and counter counts are exact. A test
    /// that panics while holding it poisons it; the lock guards no data,
    /// so the next test takes the guard back.
    static THREAD_KNOB: Mutex<()> = Mutex::new(());

    fn knob() -> MutexGuard<'static, ()> {
        THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spins for `us` microseconds and returns `r`.
    fn spin<R>(us: u64, r: R) -> R {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(us) {
            std::hint::spin_loop();
        }
        r
    }

    fn metrics() -> telemetry::TelemetryGuard {
        telemetry::install(telemetry::TelemetryConfig {
            metrics: true,
            ..Default::default()
        })
        .unwrap()
    }

    fn count(t: &telemetry::TelemetryGuard, name: &str) -> u64 {
        let snap = t.registry().unwrap().snapshot();
        snap.counter(name).unwrap_or(0)
    }

    fn me() -> ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn par_map_preserves_order() {
        let _guard = knob();
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 64] {
            set_threads(threads);
            let out = par_map(&items, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_items_come_back_in_input_order() {
        let _guard = knob();
        // 0 to 2 ms per item, so items finish out of input order.
        let items: Vec<u64> = (0..24).collect();
        for threads in [1, 2, 3, 8] {
            set_threads(threads);
            let out = par_map(&items, |&x| spin((x * 7 % 5) * 500, x + 1));
            assert_eq!(out, (1..25).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn fold_is_bit_identical_across_thread_counts() {
        let _guard = knob();
        let t = metrics();
        // Values chosen so addition order matters in the low bits.
        let items: Vec<f64> = (0..97).map(|i| 1.0 / (i as f64 + 0.3)).collect();
        let sum = |xs: Vec<f64>| xs.into_iter().fold(0.0f64, |a, x| a + x);
        set_threads(1);
        let serial = par_map(&items, |&x| x.sin());
        let serial_sum = sum(serial.clone());
        for (i, threads) in [2, 3, 8].into_iter().enumerate() {
            set_threads(threads);
            let parallel = par_map(&items, |&x| x.sin());
            assert_eq!(
                count(&t, "cliffguard.parallel.par_calls"),
                i as u64 + 1,
                "threads={threads}: one more fan-out"
            );
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&serial), bits(&parallel), "threads={threads}");
            assert_eq!(
                serial_sum.to_bits(),
                sum(parallel).to_bits(),
                "threads={threads}"
            );
        }
        assert_eq!(count(&t, "cliffguard.parallel.inline_calls"), 1);
    }

    #[test]
    fn empty_and_single_inputs() {
        let _guard = knob();
        set_threads(8);
        let empty: Vec<i32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn small_inputs_cap_thread_count() {
        let _guard = knob();
        let t = metrics();
        set_threads(8);
        // A map of n < 8 items runs on n workers, the caller included.
        for n in [2u64, 3, 5] {
            let items: Vec<u64> = (0..n).collect();
            assert_eq!(
                par_map(&items, |&x| x * 2),
                (0..n).map(|x| x * 2).collect::<Vec<_>>()
            );
            let snap = t.registry().unwrap().snapshot();
            assert_eq!(snap.gauge("cliffguard.parallel.threads"), Some(n as f64));
        }
        assert_eq!(count(&t, "cliffguard.parallel.par_calls"), 3);
        assert_eq!(count(&t, "cliffguard.parallel.inline_calls"), 0);
    }

    #[test]
    fn one_thread_never_spawns() {
        let _guard = knob();
        let t = metrics();
        set_threads(1);
        let items: Vec<u64> = (0..16).collect();
        let caller = me();
        assert!(par_map(&items, |_| me()).into_iter().all(|id| id == caller));
        assert_eq!(count(&t, "cliffguard.parallel.par_calls"), 0);
        assert_eq!(count(&t, "cliffguard.parallel.inline_calls"), 1);
    }

    #[test]
    fn nested_maps_spawn_nothing() {
        let _guard = knob();
        let t = metrics();
        set_threads(4);
        let outer: Vec<u64> = (0..4).collect();
        let inner: Vec<u64> = (0..8).collect();
        // Every inner item runs on the thread of the outer item that
        // mapped it.
        let nested = par_map(&outer, |_| {
            let here = me();
            par_map(&inner, |_| me()).into_iter().all(|id| id == here)
        });
        assert_eq!(nested, vec![true; 4]);
        assert_eq!(count(&t, "cliffguard.parallel.par_calls"), 1);
        assert_eq!(count(&t, "cliffguard.parallel.inline_calls"), 4);
    }

    #[test]
    fn metrics_record_chunks_when_enabled() {
        let _guard = knob();
        let t = metrics();
        set_threads(4);
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(par_map(&items, |&x| spin(20, x + 1))[99], 100);
        set_threads(1);
        let _ = par_map(&items, |&x| x);
        let snap = t.registry().unwrap().snapshot();
        assert_eq!(snap.counter("cliffguard.parallel.par_calls"), Some(1));
        assert_eq!(snap.counter("cliffguard.parallel.inline_calls"), Some(1));
        assert_eq!(snap.counter("cliffguard.parallel.items"), Some(100));
        let chunks = snap.histogram("cliffguard.parallel.chunk_ms").unwrap();
        assert_eq!(chunks.count, 4, "one sample per worker");
        let util = snap.gauge("cliffguard.parallel.utilization").unwrap_or(0.0);
        assert!((0.0..=1.5).contains(&util), "utilization {util}");
    }

    #[test]
    fn trace_lines_come_back_in_input_order() {
        let _guard = knob();
        let t = telemetry::install(telemetry::TelemetryConfig {
            trace: Some(telemetry::TraceSink::Memory),
            level: telemetry::Level::Info,
            clock: telemetry::TraceClock::shared_ms(|| 0),
            metrics: false,
        })
        .unwrap();
        let items: Vec<u64> = (0..12).collect();
        let emit = |&x: &u64| {
            telemetry::event(telemetry::Level::Info, "cliffguard.test.item")
                .u64("x", x)
                .emit();
            spin((11 - x) * 100, ());
            telemetry::event(telemetry::Level::Info, "cliffguard.test.item_done")
                .u64("x", x)
                .emit();
        };
        set_threads(1);
        par_map(&items, emit);
        let serial = t.memory().unwrap().lines();
        assert_eq!(serial.len(), 24);
        for threads in [2, 3, 8] {
            set_threads(threads);
            par_map(&items, emit);
            let lines = t.memory().unwrap().lines();
            assert_eq!(lines[lines.len() - 24..], serial[..], "threads={threads}");
        }
    }

    #[test]
    fn set_threads_clamps() {
        let _guard = knob();
        set_threads(0);
        assert_eq!(current_threads(), 1);
        set_threads(1_000_000);
        assert_eq!(current_threads(), 256);
        set_threads(4);
        assert_eq!(current_threads(), 4);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _guard = knob();
        // Uses whatever thread count is active; panic must surface either way.
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&items, |&x| if x == 63 { panic!("boom") } else { x });
    }

    /// Eight items at 2 threads. Items 0 and 1 each wait for the other, so
    /// the caller maps one of them and the spawned worker the other; the
    /// items of the caller's chunk (or of the worker's) panic.
    fn split_map_panicking_in_the_callers_chunk(callers: bool) {
        let _guard = knob();
        set_threads(2);
        let caller = me();
        let both_started = Barrier::new(2);
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map(&items, |&x| {
            if x < 2 {
                both_started.wait();
            }
            if (me() == caller) == callers {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn split_panics_propagate_from_the_callers_chunk() {
        split_map_panicking_in_the_callers_chunk(true);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn split_panics_propagate_from_a_spawned_chunk() {
        split_map_panicking_in_the_callers_chunk(false);
    }
}
