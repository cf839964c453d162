//! Per-column statistics and selectivity estimation.
//!
//! The simulators never materialize rows; everything downstream (scan
//! fractions, group counts, compression ratios) is derived from these
//! statistics, the same information a real optimizer keeps in its catalog.

use cliffguard_workload::PredOp;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Terms of the direct sum behind a Zipf column's equality selectivity.
const ZIPF_TERMS: u64 = 1024;

/// Entries the shared Zipf memo holds before it starts over, so a
/// long-running daemon fed ever new catalogs stays bounded.
const ZIPF_MEMO_CAPACITY: usize = 4096;

/// Collision probability `Σ p_i² / (Σ p_i)²` of a Zipf(θ) distribution
/// over `n` values, `p_i ∝ 1/i^θ`: a direct sum of up to [`ZIPF_TERMS`]
/// terms, which is closed-form-free but cheap enough to approximate this
/// way.
///
/// The ratio depends on nothing but `(n, θ)`, and the parser estimates
/// one equality predicate after another on the same columns, so each
/// ratio is summed once and memoized per `(n, θ bits)` in one map shared
/// by every catalog: a catalog decoded again, as each request to the
/// daemon does, finds its ratios there while the memo still holds them.
/// The memo is filled on demand, never for every column up front, and
/// holds plain ratios; the `1/ndv` clamp and the per-[`PredOp`] rule stay
/// with the caller. The stored value is the sum's own result, so a hit is
/// bit-identical to summing again.
fn zipf_collision(n: u64, theta: f64) -> f64 {
    static MEMO: OnceLock<Mutex<HashMap<(u64, u64), f64>>> = OnceLock::new();
    let memo = MEMO.get_or_init(Mutex::default);
    let key = (n, theta.to_bits());
    // A poisoned memo still holds only finished ratios.
    if let Some(&ratio) = memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return ratio;
    }
    let ratio = zipf_collision_uncached(n, theta);
    let mut map = memo.lock().unwrap_or_else(PoisonError::into_inner);
    if map.len() >= ZIPF_MEMO_CAPACITY {
        map.clear();
    }
    map.insert(key, ratio);
    ratio
}

/// The sum behind [`zipf_collision`], computed every time.
fn zipf_collision_uncached(n: u64, theta: f64) -> f64 {
    let h: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
    let sq: f64 = (1..=n).map(|i| (i as f64).powf(-2.0 * theta)).sum();
    sq / (h * h)
}

/// Value distribution of a column, as the optimizer models it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Values uniformly spread over the NDV domain.
    Uniform,
    /// Zipf-skewed values with the given exponent (> 0); hot values absorb
    /// most rows, making equality predicates on them less selective than
    /// `1/ndv`.
    Zipf(f64),
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub ndv: u64,
    /// Value distribution.
    pub distribution: Distribution,
}

impl ColumnStats {
    /// Uniform stats with the given NDV.
    pub fn uniform(ndv: u64) -> Self {
        Self {
            ndv: ndv.max(1),
            distribution: Distribution::Uniform,
        }
    }

    /// Zipf-skewed stats.
    pub fn zipf(ndv: u64, exponent: f64) -> Self {
        Self {
            ndv: ndv.max(1),
            distribution: Distribution::Zipf(exponent),
        }
    }

    /// Estimated selectivity of a predicate of kind `op` against this
    /// column, for an "average" literal.
    ///
    /// * `Eq` on a uniform column → `1/ndv`; on a skewed column the expected
    ///   matched fraction is the second moment of the value distribution
    ///   (the probability two random rows share a value), which we
    ///   approximate for Zipf(θ) — hot literals are likelier to be queried.
    /// * `Range` → a default 20% span (refined by the caller if the query
    ///   carries an explicit selectivity).
    /// * `In` → `k/ndv` for a nominal list size `k = 5`.
    /// * `Like` → 10% (prefix match heuristic).
    pub fn selectivity(&self, op: PredOp) -> f64 {
        let ndv = self.ndv as f64;
        let eq = match self.distribution {
            Distribution::Uniform => 1.0 / ndv,
            Distribution::Zipf(theta) => {
                zipf_collision(self.ndv.min(ZIPF_TERMS), theta).clamp(1.0 / ndv, 1.0)
            }
        };
        match op {
            PredOp::Eq => eq.clamp(1e-9, 1.0),
            PredOp::Range => 0.2,
            PredOp::In => (5.0 * eq).clamp(1e-9, 1.0),
            PredOp::Like => 0.1,
        }
    }

    /// Expected number of groups when grouping `rows` rows by this column.
    pub fn group_count(&self, rows: u64) -> u64 {
        self.ndv.min(rows).max(1)
    }

    /// Run-length-encoding compression ratio achieved when this column is
    /// sorted: ~`rows/ndv` values per run means the sorted column stores
    /// `ndv` runs. Clamped to `[1, 64]` — real encoders cap out.
    pub fn rle_ratio(&self, rows: u64) -> f64 {
        if self.ndv == 0 {
            return 1.0;
        }
        (rows as f64 / self.ndv as f64).clamp(1.0, 64.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_eq_selectivity_is_inverse_ndv() {
        let s = ColumnStats::uniform(100);
        assert!((s.selectivity(PredOp::Eq) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn zipf_eq_selectivity_exceeds_uniform() {
        let u = ColumnStats::uniform(1000);
        let z = ColumnStats::zipf(1000, 1.0);
        assert!(z.selectivity(PredOp::Eq) > u.selectivity(PredOp::Eq));
        assert!(z.selectivity(PredOp::Eq) < 1.0);
    }

    #[test]
    fn op_ordering_sane() {
        let s = ColumnStats::uniform(1000);
        assert!(s.selectivity(PredOp::Eq) < s.selectivity(PredOp::In));
        assert!(s.selectivity(PredOp::In) < s.selectivity(PredOp::Range));
    }

    #[test]
    fn group_count_capped_by_rows() {
        let s = ColumnStats::uniform(1_000_000);
        assert_eq!(s.group_count(500), 500);
        assert_eq!(ColumnStats::uniform(10).group_count(500), 10);
    }

    #[test]
    fn rle_ratio_bounds() {
        assert_eq!(ColumnStats::uniform(1).rle_ratio(1_000_000), 64.0);
        assert_eq!(ColumnStats::uniform(1_000_000).rle_ratio(100), 1.0);
        let mid = ColumnStats::uniform(100).rle_ratio(1000);
        assert!((mid - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ndv_zero_guarded() {
        let s = ColumnStats::uniform(0);
        assert_eq!(s.ndv, 1);
        assert_eq!(s.group_count(10), 1);
    }
}
