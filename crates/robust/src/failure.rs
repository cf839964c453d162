//! Failure masks: the second adversary axis for replicated designs.
//!
//! CliffGuard's minimax objective hardens a design against *workload
//! drift* (the Γ-ball). A divergent replica set — R replicas, each with
//! its own physical design, queries routed to their argmin replica — adds
//! a second way the environment can misbehave: a replica can crash, and
//! every query it was serving lands on designs never tuned for it. This
//! module provides the scenario enumeration for that axis: a
//! [`FailureMask`] is a bitset of crashed replicas, and the failure-aware
//! robust objective is the worst cost over *both* the Γ-ball and every
//! mask with up to `k` crashes (see `cliffguard-core`'s replica module
//! for the composed objective).
//!
//! Everything here is deterministic and allocation-light: masks enumerate
//! in ascending numeric order (the all-alive mask `0` first), and
//! [`worst_over_masks`] breaks ties toward the lowest mask, so results
//! are bit-identical at any thread count.

/// A set of crashed replicas, encoded as a bitset over replica indices:
/// bit `i` set means replica `i` is down. Mask `0` is the all-alive
/// scenario.
pub type FailureMask = u32;

/// The hard cap on replica-set size imposed by the `u32` mask encoding
/// and the exhaustive mask enumeration.
pub const MAX_REPLICAS: usize = 16;

/// Whether `replica` is crashed under `mask`.
#[inline]
pub fn is_crashed(mask: FailureMask, replica: usize) -> bool {
    mask & (1u32 << replica) != 0
}

/// The number of surviving replicas under `mask` for a fleet of
/// `replicas`.
#[inline]
pub fn survivors(mask: FailureMask, replicas: usize) -> usize {
    replicas - (mask & low_bits(replicas)).count_ones() as usize
}

/// A mask with the low `replicas` bits set (the "everyone crashed"
/// pattern, used to clamp foreign bits).
#[inline]
fn low_bits(replicas: usize) -> FailureMask {
    if replicas >= 32 {
        u32::MAX
    } else {
        (1u32 << replicas) - 1
    }
}

/// Enumerates every failure scenario for a fleet of `replicas` with up to
/// `max_failures` simultaneous crashes, in ascending numeric mask order
/// (so mask `0`, all replicas alive, is always first).
///
/// At least one replica always survives: the crash budget is clamped to
/// `replicas - 1`, so the all-dead mask is never enumerated. Replica
/// counts are capped at [`MAX_REPLICAS`] (the enumeration is exhaustive
/// over `2^replicas` patterns).
///
/// # Panics
///
/// If `replicas` is `0` or exceeds [`MAX_REPLICAS`].
pub fn enumerate_masks(replicas: usize, max_failures: usize) -> Vec<FailureMask> {
    assert!(
        (1..=MAX_REPLICAS).contains(&replicas),
        "replicas must be in 1..={MAX_REPLICAS}, got {replicas}"
    );
    let k = max_failures.min(replicas - 1) as u32;
    (0..1u32 << replicas)
        .filter(|m| m.count_ones() <= k)
        .collect()
}

/// The worst (highest-cost) scenario among `scored` `(mask, cost)` pairs.
/// Strictly-greater comparison: ties keep the earliest pair, so with
/// masks in ascending order the lowest mask wins — deterministic
/// regardless of how the costs were computed.
pub fn worst_over_masks(scored: &[(FailureMask, f64)]) -> Option<(FailureMask, f64)> {
    let mut best: Option<(FailureMask, f64)> = None;
    for &(mask, cost) in scored {
        match best {
            Some((_, b)) if cost <= b => {}
            _ => best = Some((mask, cost)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_replica_has_only_the_alive_mask() {
        assert_eq!(enumerate_masks(1, 0), vec![0]);
        assert_eq!(enumerate_masks(1, 5), vec![0], "crash budget clamps to R-1");
    }

    #[test]
    fn masks_enumerate_ascending_with_zero_first() {
        let masks = enumerate_masks(3, 1);
        assert_eq!(masks, vec![0b000, 0b001, 0b010, 0b100]);
        let masks = enumerate_masks(3, 2);
        assert_eq!(masks, vec![0b000, 0b001, 0b010, 0b011, 0b100, 0b101, 0b110]);
    }

    #[test]
    fn all_dead_is_never_enumerated() {
        for r in 1..=4 {
            for k in 0..=4 {
                let full = low_bits(r);
                assert!(
                    !enumerate_masks(r, k).contains(&full) || r == 1 && full == 0,
                    "R={r} k={k} must not enumerate the all-dead mask"
                );
            }
        }
        // R=1's only mask is 0 == low_bits(1)? No: low_bits(1) == 1.
        assert_eq!(low_bits(1), 1);
    }

    #[test]
    fn survivors_counts_only_fleet_bits() {
        assert_eq!(survivors(0, 3), 3);
        assert_eq!(survivors(0b101, 3), 1);
        // Foreign high bits are ignored.
        assert_eq!(survivors(0b1000_0101, 3), 1);
    }

    #[test]
    fn worst_over_masks_breaks_ties_toward_the_earliest() {
        assert_eq!(worst_over_masks(&[]), None);
        let scored = [(0u32, 5.0), (1, 7.0), (2, 7.0), (3, 6.0)];
        assert_eq!(worst_over_masks(&scored), Some((1, 7.0)));
        let flat = [(0u32, 4.0), (1, 4.0), (2, 4.0)];
        assert_eq!(worst_over_masks(&flat), Some((0, 4.0)));
    }
}
