//! Compact bitsets over global column ids.
//!
//! The paper encodes a query as the set of columns it references — "each
//! projection can be represented as a vector in `{0,1}^m` where the i'th
//! coordinate represents the presence or absence of the i'th column"
//! (Challenge C3). [`ColumnSet`] is that vector, stored as packed 64-bit
//! words with canonical (trailing-zero-trimmed) representation so that
//! equality and hashing are structural.

use crate::ids::ColumnId;
use serde::{Deserialize, Serialize};

const WORD_BITS: usize = 64;

/// A set of [`ColumnId`]s backed by a packed bitset.
///
/// The representation is canonical: trailing all-zero words are trimmed, so
/// two sets with identical membership always compare equal and hash
/// identically no matter how they were built.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnSet {
    words: Vec<u64>,
}

impl ColumnSet {
    /// Creates an empty set.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from an iterator of column ids.
    #[allow(clippy::should_implement_trait)] // FromIterator is also implemented; the inherent name is clearer at call sites
    pub fn from_iter<I: IntoIterator<Item = ColumnId>>(iter: I) -> Self {
        let mut s = Self::new();
        for c in iter {
            s.insert(c);
        }
        s
    }

    /// Creates a set from raw u32 column indices (test/convenience helper).
    pub fn from_ids(ids: &[u32]) -> Self {
        Self::from_iter(ids.iter().map(|&i| ColumnId(i)))
    }

    /// Inserts a column; returns `true` if it was newly added.
    pub fn insert(&mut self, c: ColumnId) -> bool {
        let (w, b) = (c.index() / WORD_BITS, c.index() % WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let newly = self.words[w] & mask == 0;
        self.words[w] |= mask;
        newly
    }

    /// Removes a column; returns `true` if it was present.
    pub fn remove(&mut self, c: ColumnId) -> bool {
        let (w, b) = (c.index() / WORD_BITS, c.index() % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        if present {
            self.trim();
        }
        present
    }

    /// Tests membership.
    #[inline]
    pub fn contains(&self, c: ColumnId) -> bool {
        let (w, b) = (c.index() / WORD_BITS, c.index() % WORD_BITS);
        self.words.get(w).is_some_and(|&word| word & (1 << b) != 0)
    }

    /// Number of columns in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Union, in place.
    pub fn union_with(&mut self, other: &Self) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Returns the union of two sets.
    pub fn union(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns the intersection of two sets.
    pub fn intersection(&self, other: &Self) -> Self {
        let n = self.words.len().min(other.words.len());
        let mut words: Vec<u64> = (0..n).map(|i| self.words[i] & other.words[i]).collect();
        while words.last() == Some(&0) {
            words.pop();
        }
        Self { words }
    }

    /// Returns `self \ other`.
    pub fn difference(&self, other: &Self) -> Self {
        let mut words: Vec<u64> = self
            .words
            .iter()
            .enumerate()
            .map(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0))
            .collect();
        while words.last() == Some(&0) {
            words.pop();
        }
        Self { words }
    }

    /// Hamming distance: the number of columns present in exactly one of the
    /// two sets. This is the `S_{i,j}` numerator of the paper's Eq. (9).
    pub fn hamming(&self, other: &Self) -> usize {
        let n = self.words.len().max(other.words.len());
        (0..n)
            .map(|i| {
                let a = self.words.get(i).copied().unwrap_or(0);
                let b = other.words.get(i).copied().unwrap_or(0);
                (a ^ b).count_ones() as usize
            })
            .sum()
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Whether the two sets share no columns.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over member column ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(ColumnId((wi * WORD_BITS) as u32 + b))
                }
            })
        })
    }

    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl FromIterator<ColumnId> for ColumnSet {
    fn from_iter<I: IntoIterator<Item = ColumnId>>(iter: I) -> Self {
        ColumnSet::from_iter(iter)
    }
}

impl std::fmt::Display for ColumnSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", c.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = ColumnSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ColumnId(3)));
        assert!(!s.insert(ColumnId(3)));
        assert!(s.insert(ColumnId(130)));
        assert!(s.contains(ColumnId(3)));
        assert!(s.contains(ColumnId(130)));
        assert!(!s.contains(ColumnId(4)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(ColumnId(130)));
        assert!(!s.remove(ColumnId(130)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn canonical_equality_after_remove() {
        let mut a = ColumnSet::from_ids(&[1]);
        let mut b = ColumnSet::from_ids(&[1, 500]);
        b.remove(ColumnId(500));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
        a.remove(ColumnId(1));
        assert!(a.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = ColumnSet::from_ids(&[1, 2, 3, 100]);
        let b = ColumnSet::from_ids(&[2, 3, 4]);
        assert_eq!(a.union(&b), ColumnSet::from_ids(&[1, 2, 3, 4, 100]));
        assert_eq!(a.intersection(&b), ColumnSet::from_ids(&[2, 3]));
        assert_eq!(a.difference(&b), ColumnSet::from_ids(&[1, 100]));
        assert_eq!(a.hamming(&b), 3); // {1,4,100}
        assert!(ColumnSet::from_ids(&[2, 3]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&ColumnSet::from_ids(&[7, 8])));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn iter_ascending() {
        let s = ColumnSet::from_ids(&[65, 2, 0, 130]);
        let v: Vec<u32> = s.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![0, 2, 65, 130]);
    }

    #[test]
    fn display_formats() {
        let s = ColumnSet::from_ids(&[4, 1]);
        assert_eq!(s.to_string(), "{1,4}");
    }
}
