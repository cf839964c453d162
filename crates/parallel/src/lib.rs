//! Deterministic data parallelism for CliffGuard's hot loops.
//!
//! The robust-design search spends almost all of its time in three
//! embarrassingly parallel maps: costing every distinct query of a
//! Γ-neighborhood against a design (the cost kernel's epoch fills and
//! delta recosts), costing every candidate structure of the benefit
//! matrix, and costing every query of an evaluation window. This crate
//! provides the one primitive they share — [`par_map`] — built on
//! `std::thread::scope`, plus a process-wide thread-count knob
//! ([`set_threads`] / [`current_threads`], seeded from the
//! `CLIFFGUARD_THREADS` environment variable).
//!
//! Most of those maps are small: a benefit matrix or an epoch fill of a
//! Γ-neighborhood takes tens to a few hundred microseconds, while each
//! scoped thread spawn plus join costs tens of microseconds. [`par_map`]
//! therefore maps inline first and fans out only a map that has already
//! run past a 200 µs budget with at least as much work left, so small
//! maps never pay for threads they cannot use.
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
//! low-order bits with the thread count.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cliffguard_telemetry as telemetry;
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

/// Wall time a map spends on the calling thread before [`par_map`]
/// considers fanning out: many times what one scoped thread spawn plus
/// join costs (DESIGN.md §8).
const SPLIT_BUDGET_NS: u128 = 200_000;

/// Items [`par_map`] maps inline between two clock reads.
const CLOCK_STRIDE: usize = 8;

/// Maps `f` over `items`, returning results in input order.
///
/// The map starts inline on the calling thread and reads the clock once
/// per 8 items. It fans out only once the inline prefix has taken 200 µs
/// and, at the prefix's pace, the items left would take 200 µs more:
/// those are then split into at most [`current_threads`] contiguous
/// chunks, the caller maps the first and one scoped thread maps each of
/// the others, and the results are stitched back in chunk order. The
/// output is exactly `items.iter().map(f).collect()` for any thread
/// count; with one thread the map never reads the clock.
///
/// Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = current_threads();
    let mut out = Vec::with_capacity(items.len());
    if threads > 1 && items.len() > CLOCK_STRIDE {
        let start = Instant::now();
        for stride in items.chunks(CLOCK_STRIDE) {
            out.extend(stride.iter().map(&f));
            let left = (items.len() - out.len()) as u128;
            if left == 0 {
                break;
            }
            // Spent at least the budget, and the rest would take at least
            // the budget again: spent · left / done ≥ budget.
            let spent = start.elapsed().as_nanos();
            if spent >= SPLIT_BUDGET_NS && spent * left >= SPLIT_BUDGET_NS * out.len() as u128 {
                fan_out(items, &f, threads, &mut out);
                return out;
            }
        }
    } else {
        out.extend(items.iter().map(f));
    }
    if telemetry::metrics_enabled() {
        if let Some(c) = telemetry::counter("cliffguard.parallel.inline_calls") {
            c.incr(1);
        }
    }
    out
}

/// Maps the items of `items` past `out.len()` on at most `threads`
/// contiguous chunks and appends the results to `out` in input order.
/// The calling thread maps the first chunk while scoped threads map the
/// others.
fn fan_out<T, R, F>(items: &[T], f: &F, threads: usize, out: &mut Vec<R>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let rest = &items[out.len()..];
    // Telemetry is metrics-only here: per-chunk wall times and thread
    // utilization, recorded from worker threads into lock-free handles.
    // No trace *events* are ever emitted from workers — trace byte-
    // identity across thread counts holds because only serial control
    // code writes to the subscriber.
    let profile = telemetry::metrics_enabled().then(|| {
        (
            telemetry::histogram("cliffguard.parallel.chunk_ms"),
            Instant::now(),
        )
    });
    let chunk_hist = profile.as_ref().and_then(|(h, _)| h.as_deref());
    let busy_us = AtomicU64::new(0);
    let map_chunk = |c: &[T]| {
        let t0 = chunk_hist.map(|_| Instant::now());
        let part = c.iter().map(f).collect::<Vec<R>>();
        if let (Some(h), Some(t0)) = (chunk_hist, t0) {
            let us = t0.elapsed().as_micros() as u64;
            busy_us.fetch_add(us, Ordering::Relaxed);
            h.record(us as f64 / 1e3);
        }
        part
    };
    let mut chunks = rest.chunks(rest.len().div_ceil(threads));
    let first = chunks.next().expect("fan_out is called with items left");
    let n_chunks = std::thread::scope(|scope| {
        let map_chunk = &map_chunk;
        let handles: Vec<_> = chunks.map(|c| scope.spawn(move || map_chunk(c))).collect();
        out.extend(map_chunk(first));
        let n_chunks = handles.len() + 1;
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        n_chunks
    });
    if let Some((_, t_all)) = profile {
        if let Some(c) = telemetry::counter("cliffguard.parallel.par_calls") {
            c.incr(1);
        }
        if let Some(c) = telemetry::counter("cliffguard.parallel.items") {
            c.incr(items.len() as u64);
        }
        if let Some(g) = telemetry::gauge("cliffguard.parallel.threads") {
            g.set(n_chunks as f64);
        }
        let wall_us = t_all.elapsed().as_micros() as u64;
        if wall_us > 0 {
            if let Some(g) = telemetry::gauge("cliffguard.parallel.utilization") {
                // Busy worker time over available worker time for this
                // fan-out: 1.0 = perfectly balanced chunks.
                g.set(busy_us.load(Ordering::Relaxed) as f64 / (wall_us * n_chunks as u64) as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

    /// `set_threads` and the installed metrics registry are process
    /// state; every test that maps serializes on this lock so cargo's
    /// parallel test runner cannot interleave them and counter counts are
    /// exact. A test that panics while holding it poisons it; the lock
    /// guards no data, so the next test takes the guard back.
    static THREAD_KNOB: Mutex<()> = Mutex::new(());

    fn knob() -> MutexGuard<'static, ()> {
        THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spins for at least 50 µs and returns `r`. A map of a dozen or more
    /// such items has spent the split budget at its first clock read and
    /// has at least as much left, so it splits there whatever the load.
    fn slow<R>(r: R) -> R {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(50) {
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
    fn fold_is_bit_identical_across_thread_counts() {
        let _guard = knob();
        let t = metrics();
        // Values chosen so addition order matters in the low bits.
        let items: Vec<f64> = (0..97).map(|i| 1.0 / (i as f64 + 0.3)).collect();
        let sum = |xs: Vec<f64>| xs.into_iter().fold(0.0f64, |a, x| a + x);
        set_threads(1);
        let serial = par_map(&items, |&x| slow(x.sin()));
        let serial_sum = sum(serial.clone());
        for (i, threads) in [2, 3, 8].into_iter().enumerate() {
            set_threads(threads);
            let parallel = par_map(&items, |&x| slow(x.sin()));
            assert_eq!(
                count(&t, "cliffguard.parallel.par_calls"),
                i as u64 + 1,
                "threads={threads}: one more split map"
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
        // A map within the split budget stays on the calling thread: at
        // one stride, a few strides and a thousand trivial items alike.
        for n in [CLOCK_STRIDE - 1, 3 * CLOCK_STRIDE + 1, 1000] {
            let items: Vec<u64> = (0..n as u64).collect();
            assert_eq!(
                par_map(&items, |&x| x * 2),
                items.iter().map(|&x| x * 2).collect::<Vec<_>>()
            );
        }
        assert_eq!(count(&t, "cliffguard.parallel.inline_calls"), 3);
        assert_eq!(count(&t, "cliffguard.parallel.par_calls"), 0);
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
    fn metrics_record_chunks_when_enabled() {
        let _guard = knob();
        let t = metrics();
        set_threads(4);
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(par_map(&items, |&x| slow(x + 1))[99], 100);
        set_threads(1);
        let _ = par_map(&items, |&x| x);
        let snap = t.registry().unwrap().snapshot();
        assert!(snap.counter("cliffguard.parallel.par_calls") >= Some(1));
        assert!(snap.counter("cliffguard.parallel.inline_calls") >= Some(1));
        assert!(snap.counter("cliffguard.parallel.items") >= Some(100));
        let chunks = snap.histogram("cliffguard.parallel.chunk_ms").unwrap();
        assert!(
            chunks.count >= 4,
            "one sample per chunk, got {}",
            chunks.count
        );
        let util = snap.gauge("cliffguard.parallel.utilization").unwrap_or(0.0);
        assert!((0.0..=1.5).contains(&util), "utilization {util}");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _guard = knob();
        // Uses whatever thread count is active; panic must surface either way.
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&items, |&x| if x == 63 { panic!("boom") } else { x });
    }

    /// 64 slow items at 2 threads: the prefix is items 0..8, the caller
    /// maps 8..36 and one scoped thread maps 36..64.
    fn split_map_panicking_at(bad: u32) {
        let _guard = knob();
        set_threads(2);
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&items, |&x| if x == bad { panic!("boom") } else { slow(x) });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn split_panics_propagate_from_the_callers_chunk() {
        split_map_panicking_at(10);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn split_panics_propagate_from_a_spawned_chunk() {
        split_map_panicking_at(63);
    }
}
