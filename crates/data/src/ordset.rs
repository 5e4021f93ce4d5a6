//! An insertion-ordered set of tuples with single-copy storage.
//!
//! The seed representation stored every relation twice — a `Vec<Tuple>` for
//! deterministic iteration plus a `HashSet<Tuple>` for membership — and every
//! evaluator re-invented the same pair for answer deduplication.  [`TupleSet`]
//! keeps one owned copy of each tuple (in insertion order) and maintains a
//! side table from tuple *hash* to position, so membership stays O(1)
//! expected without duplicating tuple storage.
//!
//! The side table is compact: one `u64 → u32` entry per tuple, with no heap
//! allocation of its own.  Distinct tuples whose 64-bit hashes collide are
//! told apart by comparing against the stored tuples; only such a genuine
//! collision puts a position into a second, normally empty, table.  Cloning a
//! set (what a copy-on-write commit does to a touched relation) therefore
//! copies two flat tables instead of allocating a bucket per tuple.

use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A deduplicated, insertion-ordered collection of [`Tuple`]s.
///
/// Used as the single storage of [`crate::Relation`] and as the answer-set
/// accumulator of the evaluators in `si-query`/`si-core`.
#[derive(Debug, Clone, Default)]
pub struct TupleSet {
    tuples: Vec<Tuple>,
    /// tuple hash → position of the earliest stored tuple with that hash.
    first: HashMap<u64, u32>,
    /// tuple hash → positions of later tuples with the same hash (in
    /// insertion order); empty unless two distinct tuples collide.
    collisions: HashMap<u64, Vec<u32>>,
}

/// The hash a tuple is filed under: the hash of its value slice, which is
/// exactly what hashing the [`Tuple`] itself produces.
fn hash_of(values: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    values.hash(&mut h);
    h.finish()
}

impl TupleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TupleSet::default()
    }

    /// Creates an empty set sized for `capacity` tuples.
    pub fn with_capacity(capacity: usize) -> Self {
        TupleSet {
            tuples: Vec::with_capacity(capacity),
            first: HashMap::with_capacity(capacity),
            collisions: HashMap::new(),
        }
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the set holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples as a slice, in insertion order.
    pub fn as_slice(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterates over the tuples in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// The tuple stored at `position`, if any.
    pub fn get(&self, position: usize) -> Option<&Tuple> {
        self.tuples.get(position)
    }

    /// The position of the tuple with exactly `values`, given their hash.
    fn find(&self, hash: u64, values: &[Value]) -> Option<u32> {
        let &first = self.first.get(&hash)?;
        if self.tuples[first as usize].values() == values {
            return Some(first);
        }
        self.collisions
            .get(&hash)?
            .iter()
            .copied()
            .find(|&p| self.tuples[p as usize].values() == values)
    }

    /// Position of `tuple` in insertion order, if present.
    pub fn position_of(&self, tuple: &Tuple) -> Option<usize> {
        self.find(hash_of(tuple.values()), tuple.values())
            .map(|p| p as usize)
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.contains_values(tuple.values())
    }

    /// Membership test for the tuple with exactly `values`, without
    /// building a [`Tuple`] (a tuple hashes exactly like its value slice).
    pub fn contains_values(&self, values: &[Value]) -> bool {
        self.find(hash_of(values), values).is_some()
    }

    /// Inserts `tuple`, ignoring duplicates; returns `true` when it was new.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        self.insert_hashed(hash_of(tuple.values()), tuple)
    }

    fn insert_hashed(&mut self, hash: u64, tuple: Tuple) -> bool {
        let position = u32::try_from(self.tuples.len()).expect("TupleSet exceeds u32 positions");
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(position);
            }
            Entry::Occupied(slot) => {
                if self.tuples[*slot.get() as usize] == tuple {
                    return false;
                }
                let later = self.collisions.entry(hash).or_default();
                if later.iter().any(|&p| self.tuples[p as usize] == tuple) {
                    return false;
                }
                later.push(position);
            }
        }
        self.tuples.push(tuple);
        true
    }

    /// Removes `tuple` if present, preserving the insertion order of the
    /// remaining tuples; returns `true` when something was removed.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        self.remove_returning_position(tuple).is_some()
    }

    /// Removes `tuple` if present, returning the position it occupied so
    /// that callers maintaining side structures (e.g. secondary indexes) can
    /// shift their own entries without a second lookup.
    ///
    /// Removal is O(n) because all later positions shift, but the side
    /// tables are adjusted in place — no key is re-hashed.
    pub fn remove_returning_position(&mut self, tuple: &Tuple) -> Option<usize> {
        self.remove_hashed(hash_of(tuple.values()), tuple.values())
    }

    fn remove_hashed(&mut self, hash: u64, values: &[Value]) -> Option<usize> {
        let position = self.find(hash, values)?;
        let first = self.first.get_mut(&hash).expect("found tuples are filed");
        if *first == position {
            // Promote the earliest colliding tuple, if any, to the first slot.
            match self.collisions.get_mut(&hash) {
                Some(later) => {
                    *first = later.remove(0);
                    if later.is_empty() {
                        self.collisions.remove(&hash);
                    }
                }
                None => {
                    self.first.remove(&hash);
                }
            }
        } else {
            let later = self
                .collisions
                .get_mut(&hash)
                .expect("a tuple not in the first slot is a collision");
            later.retain(|&p| p != position);
            if later.is_empty() {
                self.collisions.remove(&hash);
            }
        }
        self.tuples.remove(position as usize);
        let later = self.collisions.values_mut().flat_map(|ps| ps.iter_mut());
        for p in self.first.values_mut().chain(later) {
            if *p > position {
                *p -= 1;
            }
        }
        Some(position as usize)
    }

    /// Drops all tuples.
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.first.clear();
        self.collisions.clear();
    }

    /// Consumes the set, returning the tuples in insertion order.
    pub fn into_vec(self) -> Vec<Tuple> {
        self.tuples
    }
}

impl PartialEq for TupleSet {
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
    }
}

impl Eq for TupleSet {}

impl FromIterator<Tuple> for TupleSet {
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        let mut set = TupleSet::new();
        for t in iter {
            set.insert(t);
        }
        set
    }
}

impl Extend<Tuple> for TupleSet {
    fn extend<T: IntoIterator<Item = Tuple>>(&mut self, iter: T) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl<'a> IntoIterator for &'a TupleSet {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

impl IntoIterator for TupleSet {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.tuples.into_iter()
    }
}

impl fmt::Display for TupleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn insert_deduplicates_and_preserves_order() {
        let mut s = TupleSet::new();
        assert!(s.insert(tuple![3]));
        assert!(s.insert(tuple![1]));
        assert!(!s.insert(tuple![3]));
        assert!(s.insert(tuple![2]));
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_slice(), &[tuple![3], tuple![1], tuple![2]]);
        assert!(s.contains(&tuple![1]));
        assert!(!s.contains(&tuple![9]));
        assert_eq!(s.position_of(&tuple![2]), Some(2));
    }

    #[test]
    fn remove_preserves_order_of_the_rest() {
        let mut s: TupleSet = vec![tuple![1], tuple![2], tuple![3]].into_iter().collect();
        assert!(s.remove(&tuple![2]));
        assert!(!s.remove(&tuple![2]));
        assert_eq!(s.as_slice(), &[tuple![1], tuple![3]]);
        assert!(s.contains(&tuple![3]));
        assert_eq!(s.position_of(&tuple![3]), Some(1));
    }

    #[test]
    fn iteration_and_conversions() {
        let s: TupleSet = vec![tuple![1, "a"], tuple![2, "b"], tuple![1, "a"]]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().count(), 2);
        assert_eq!((&s).into_iter().count(), 2);
        let v = s.clone().into_vec();
        assert_eq!(v, vec![tuple![1, "a"], tuple![2, "b"]]);
        assert_eq!(s.clone().into_iter().count(), 2);
        assert!(s.to_string().contains("(1, \"a\")"));
    }

    #[test]
    fn equality_is_order_sensitive_like_a_vec() {
        let a: TupleSet = vec![tuple![1], tuple![2]].into_iter().collect();
        let b: TupleSet = vec![tuple![1], tuple![2]].into_iter().collect();
        let c: TupleSet = vec![tuple![2], tuple![1]].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s: TupleSet = vec![tuple![1]].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(&tuple![1]));
        assert!(s.insert(tuple![1]));
    }

    #[test]
    fn contains_values_agrees_with_contains() {
        let s: TupleSet = vec![tuple![1, "a"], tuple![2, "b"]].into_iter().collect();
        assert!(s.contains_values(tuple![1, "a"].values()));
        assert!(s.contains_values(&[Value::int(2), Value::str("b")]));
        assert!(!s.contains_values(&[Value::int(2)]));
        assert!(!s.contains_values(&[]));
        // A tuple and its value slice are filed under the same hash.
        let t = tuple![7, "x"];
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        assert_eq!(h.finish(), hash_of(t.values()));
    }

    #[test]
    fn colliding_hashes_are_told_apart_and_removed_in_order() {
        // Force every tuple under one hash: the side table must keep them
        // distinct, promote on removal and shift later positions.
        const H: u64 = 42;
        let mut s = TupleSet::new();
        for i in 0..4 {
            assert!(s.insert_hashed(H, tuple![i]));
        }
        assert!(
            !s.insert_hashed(H, tuple![0]),
            "duplicate of the first slot"
        );
        assert!(!s.insert_hashed(H, tuple![2]), "duplicate of a collision");
        assert_eq!(s.len(), 4);
        for i in 0..4 {
            assert_eq!(s.find(H, tuple![i].values()), Some(i as u32));
        }
        // Remove the first slot: tuple 1 is promoted, everyone shifts down.
        assert_eq!(s.remove_hashed(H, tuple![0].values()), Some(0));
        assert_eq!(s.find(H, tuple![1].values()), Some(0));
        assert_eq!(s.find(H, tuple![3].values()), Some(2));
        // Remove a collision entry in the middle.
        assert_eq!(s.remove_hashed(H, tuple![2].values()), Some(1));
        assert_eq!(s.find(H, tuple![3].values()), Some(1));
        assert_eq!(s.find(H, tuple![2].values()), None);
        assert_eq!(s.as_slice(), &[tuple![1], tuple![3]]);
        assert_eq!(s.remove_hashed(H, tuple![1].values()), Some(0));
        assert_eq!(s.remove_hashed(H, tuple![3].values()), Some(0));
        assert!(s.is_empty() && s.first.is_empty() && s.collisions.is_empty());
    }

    #[test]
    fn survives_many_inserts_with_collisions_resolved_by_equality() {
        let mut s = TupleSet::new();
        for i in 0..1000 {
            assert!(s.insert(tuple![i, i % 7]));
        }
        for i in 0..1000 {
            assert!(!s.insert(tuple![i, i % 7]));
            assert!(s.contains(&tuple![i, i % 7]));
        }
        assert_eq!(s.len(), 1000);
    }
}
