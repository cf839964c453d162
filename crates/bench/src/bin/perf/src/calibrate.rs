//! A fixed reference kernel that measures how fast this host runs right
//! now.
//!
//! Shared hosts drift: the same op on the same input takes up to ~35%
//! longer or shorter from one minute to the next, far more than any bound
//! a regression check can use. One repetition of this kernel runs on the
//! measuring thread before every op, so it samples the host in the same
//! states the ops do; dividing op times by the mean repetition time
//! cancels the drift (across ten runs of one input, Σop/Σrep stayed
//! within ±1.3% while raw op times moved ±20%). The kernel is the
//! benchmark's own code and never changes with the program under test.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One repetition takes about this long on the host the baseline was
/// measured on; reported times are scaled to a host where it takes
/// exactly this long.
pub const NOMINAL_REP_NS: f64 = 1e6;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e4b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The kinds of work the design paths do, in code the benchmark owns: a
/// sort, hash-map traffic, string formatting and parsing, and a
/// floating-point fold.
fn kernel() -> u64 {
    let mut s = 42u64;
    let mut v: Vec<u64> = (0..16_384).map(|_| splitmix(&mut s)).collect();
    v.sort_unstable();
    let mut m: HashMap<u64, u64> = HashMap::new();
    for &x in v.iter().step_by(4) {
        *m.entry(x % 1024).or_default() += x >> 32;
    }
    let mut acc = 0u64;
    for (i, &x) in v.iter().take(2_000).enumerate() {
        let text = format!(
            "{i}\tselect c{} from t{} where c{} < {x}",
            i % 7,
            i % 3,
            i % 5
        );
        let ts = text.split('\t').next().and_then(|t| t.parse::<u64>().ok());
        acc = acc
            .wrapping_add(ts.unwrap_or(0))
            .wrapping_add(text.len() as u64);
    }
    let mut f = 0.0f64;
    for (i, &x) in v.iter().enumerate() {
        f = f.mul_add(0.999_999, (x as f64).sqrt() / (i as f64 + 1.0));
    }
    acc ^ m.len() as u64 ^ f.to_bits()
}

/// Times one repetition (ns). An untimed repetition runs first, so the
/// timed one finds its data in cache and its allocations on the free list
/// whatever the op before it left behind.
pub fn rep_ns() -> f64 {
    black_box(kernel());
    let t0 = Instant::now();
    black_box(kernel());
    t0.elapsed().as_nanos() as f64
}
