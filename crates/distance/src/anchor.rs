//! `δ(W0, ·)` with `W0`'s side computed once.
//!
//! Algorithm 4 (Appendix B) evaluates `δ(W0, Q)` for many small unit-weight
//! query sets `Q` drawn from one candidate pool. From scratch, every draw
//! rebuilds `W0`'s sparse support and recomputes each Hamming entry of `S`
//! between `W0`'s keys. [`EuclideanAnchor`] keeps what does not depend on
//! `Q`:
//!
//! * `W0`'s normalized mass per representation key, summed in `W0` entry
//!   order and listed in key order (what `diff_support` produces);
//! * the upper triangle of `S` over `W0`'s `T0` distinct keys;
//! * for each candidate key that is not a `W0` key, its `S` row against
//!   `W0`'s keys, filled the first time a draw contains it.
//!
//! A draw subtracts `1/|Q|` per member from its key's mass, merges the
//! draw's new keys into key order and runs the quadratic form over the
//! cached `S` entries. Every float operation is the one `quadratic_form`
//! over `diff_support` performs, in the same order, so the result is
//! bit-identical. Memory is `O(T0² + drawn·T0)` plus one key slot per
//! candidate; nothing grows with the square of the pool.

use crate::euclidean::s_norm;
use crate::metric::{AnchoredDistance, ClauseMask};
use crate::vector::ReprKey;
use cliffguard_workload::{Query, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a metric maps a query to its representation key.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Repr {
    /// [`ReprKey::union_of`] under a clause mask (`δ_euclidean`).
    Union(ClauseMask),
    /// [`ReprKey::separate_of`] (`δ_separate`).
    Separate,
}

impl Repr {
    fn key(self, q: &Query) -> ReprKey {
        match self {
            Repr::Union(mask) => ReprKey::union_of(q, mask),
            Repr::Separate => ReprKey::separate_of(q),
        }
    }
}

/// `S_{a,b}` of Eq. (9), computed as `quadratic_form` computes it.
fn s_entry(a: &ReprKey, b: &ReprKey, n_columns: usize) -> f64 {
    a.hamming(b) as f64 / s_norm(a, n_columns)
}

/// Marks a candidate whose key has not been looked up yet.
const UNSEEN: u32 = u32::MAX;

/// The Euclidean part of `δ(W0, Q)` (Eq. 9) for one fixed `W0`, shared by
/// `δ_euclidean`, `δ_separate` and `δ_latency`.
pub(crate) struct EuclideanAnchor<'a> {
    candidates: &'a [Arc<Query>],
    repr: Repr,
    n_columns: usize,
    /// `W0`'s distinct keys in key order.
    keys: Vec<ReprKey>,
    /// `W0`'s normalized mass per key.
    mass: Vec<f64>,
    /// Upper triangle of `S` over `keys`, row by row: `S[t][u]` for `t < u`
    /// sits at `row_start(t) + (u - t - 1)`.
    tri: Vec<f64>,
    /// Each candidate's key id (`UNSEEN` until first drawn): below
    /// `keys.len()` a `W0` key, otherwise new key `id - keys.len()`.
    key_of: Vec<u32>,
    /// Drawn keys that are not `W0` keys, in first-drawn order, each with
    /// its insertion point in `keys`.
    new_keys: Vec<(ReprKey, usize)>,
    new_ids: BTreeMap<ReprKey, u32>,
    /// `S` rows of the new keys against `keys`, `keys.len()` entries each.
    rows: Vec<f64>,
    draw: Draw,
}

/// Per-draw buffers, kept to avoid reallocating on every draw.
#[derive(Default)]
struct Draw {
    /// Key ids of the draw's members with their member counts.
    members: Vec<(u32, u32)>,
    /// `W0`'s masses minus the draw's frequencies.
    mass: Vec<f64>,
    /// The draw's new keys: insertion point, new-key index and `|mass|`.
    new: Vec<(usize, usize, f64)>,
    /// The support in key order: `|mass|` and slot (a `W0` key `t`, or
    /// `T0 + i` for `new[i]`).
    abs: Vec<f64>,
    slot: Vec<usize>,
}

impl<'a> EuclideanAnchor<'a> {
    pub(crate) fn new(
        repr: Repr,
        n_columns: usize,
        w0: &Workload,
        candidates: &'a [Arc<Query>],
    ) -> Self {
        let mut support: BTreeMap<ReprKey, f64> = BTreeMap::new();
        for (q, f) in w0.normalized() {
            *support.entry(repr.key(q)).or_insert(0.0) += f;
        }
        let (keys, mass): (Vec<ReprKey>, Vec<f64>) = support.into_iter().unzip();
        let mut tri = Vec::with_capacity(keys.len() * keys.len().saturating_sub(1) / 2);
        for (t, a) in keys.iter().enumerate() {
            tri.extend(keys[t + 1..].iter().map(|b| s_entry(a, b, n_columns)));
        }
        Self {
            candidates,
            repr,
            n_columns,
            keys,
            mass,
            tri,
            key_of: vec![UNSEEN; candidates.len()],
            new_keys: Vec::new(),
            new_ids: BTreeMap::new(),
            rows: Vec::new(),
            draw: Draw::default(),
        }
    }

    /// The key id of candidate `c`, looked up (and its `S` row filled) on
    /// its first draw only.
    fn key_id(&mut self, c: usize) -> u32 {
        if self.key_of[c] != UNSEEN {
            return self.key_of[c];
        }
        let key = self.repr.key(&self.candidates[c]);
        let id = match self.keys.binary_search(&key) {
            Ok(t) => t as u32,
            Err(pos) => match self.new_ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = (self.keys.len() + self.new_keys.len()) as u32;
                    let n_columns = self.n_columns;
                    self.rows
                        .extend(self.keys.iter().map(|k| s_entry(&key, k, n_columns)));
                    self.new_ids.insert(key.clone(), id);
                    self.new_keys.push((key, pos));
                    id
                }
            },
        };
        self.key_of[c] = id;
        id
    }
}

impl AnchoredDistance for EuclideanAnchor<'_> {
    fn distance_to(&mut self, subset: &[usize]) -> f64 {
        let t0 = self.keys.len();
        self.draw.members.clear();
        for &c in subset {
            let id = self.key_id(c);
            let members = &mut self.draw.members;
            match members.iter_mut().find(|(m, _)| *m == id) {
                Some((_, n)) => *n += 1,
                None => members.push((id, 1)),
            }
        }
        // Each of Q's |Q| unit weights normalizes to 1/|Q|; diff_support
        // subtracts it once per member from the member's key.
        let f = 1.0 / subset.len() as f64;
        let d = &mut self.draw;
        d.mass.clear();
        d.mass.extend_from_slice(&self.mass);
        d.new.clear();
        for &(id, n) in &d.members {
            let id = id as usize;
            let slot = if id < t0 {
                &mut d.mass[id]
            } else {
                let i = id - t0;
                d.new.push((self.new_keys[i].1, i, 0.0));
                &mut d.new.last_mut().expect("just pushed").2
            };
            for _ in 0..n {
                *slot -= f;
            }
        }

        // Merge the new keys into key order (diff_support's sort) and drop
        // cancelled entries as it does.
        let new_keys = &self.new_keys;
        d.new.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| new_keys[a.1].0.cmp(&new_keys[b.1].0))
        });
        d.abs.clear();
        d.slot.clear();
        let mut next = 0;
        for t in 0..=t0 {
            while next < d.new.len() && d.new[next].0 == t {
                let a = d.new[next].2.abs();
                if a > 1e-15 {
                    d.abs.push(a);
                    d.slot.push(t0 + next);
                }
                next += 1;
            }
            if t < t0 {
                let a = d.mass[t].abs();
                if a > 1e-15 {
                    d.abs.push(a);
                    d.slot.push(t);
                }
            }
        }

        // The quadratic form, pair by pair in quadratic_form's order; only
        // pairs of the draw's new keys need a Hamming distance.
        let new_key = |i: usize| &new_keys[d.new[i].1].0;
        let new_row = |i: usize| &self.rows[d.new[i].1 * t0..][..t0];
        let mut total = 0.0;
        for i in 0..d.abs.len() {
            let (si, two_ai) = (d.slot[i], 2.0 * d.abs[i]);
            if si < t0 {
                let row = &self.tri[si * t0 - si * (si + 1) / 2..];
                for j in (i + 1)..d.abs.len() {
                    let sj = d.slot[j];
                    let s = if sj < t0 {
                        row[sj - si - 1]
                    } else {
                        new_row(sj - t0)[si]
                    };
                    total += two_ai * d.abs[j] * s;
                }
            } else {
                let row = new_row(si - t0);
                for j in (i + 1)..d.abs.len() {
                    let sj = d.slot[j];
                    let s = if sj < t0 {
                        row[sj]
                    } else {
                        s_entry(new_key(si - t0), new_key(sj - t0), self.n_columns)
                    };
                    total += two_ai * d.abs[j] * s;
                }
            }
        }
        total
    }
}
