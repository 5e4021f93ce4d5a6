//! The secondary-index subsystem: equality hash indexes on attribute
//! subsets, with lazy construction and incremental maintenance.
//!
//! An access constraint `(R, X, N, T)` of the paper promises that
//! `σ_{X=a̅}(R)` can be retrieved via an index in at most `T` time and has at
//! most `N` tuples.  Two types realise that promise physically:
//!
//! * [`HashIndex`] — a single hash index over a fixed list of key positions,
//!   mapping the projection of each tuple onto those positions to the list
//!   of tuple positions carrying that key;
//! * [`IndexPool`] — the per-relation collection of indexes.  Indexes are
//!   *declared* cheaply (an access schema can demand dozens of them) and
//!   **built lazily on first probe**; once built they are maintained
//!   incrementally through every insertion and deletion, including the
//!   deletions arriving via [`crate::Delta`] updates.
//!
//! The pool also serves *subset probes*: a probe on positions `P` that has no
//! exact index can still run through any declared index on `P' ⊆ P`, with the
//! residual `P ∖ P'` equalities applied as a post-filter by the caller — this
//! is what keeps access paths index-backed instead of scan-backed when the
//! planner binds more attributes than the access constraint requires.
//!
//! ```
//! use si_data::index::IndexPool;
//! use si_data::{tuple, Value};
//!
//! let tuples = vec![tuple![1, "a"], tuple![1, "b"], tuple![2, "c"]];
//! let mut pool = IndexPool::new();
//! pool.declare(vec![0]);                       // cheap: nothing is built yet
//! assert!(!pool.is_built(&[0]));
//! // First probe builds the index, later probes reuse it.
//! let hits = pool.lookup(&[0], &[Value::int(1)], &tuples).unwrap();
//! assert_eq!(hits, vec![0, 1]);
//! assert!(pool.is_built(&[0]));
//! ```

use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::OnceLock;

/// A hash index over a fixed list of key positions of a relation.
///
/// The index stores *positions* into the owning relation's tuple vector so
/// that the relation remains the single owner of tuple storage.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    key_positions: Vec<usize>,
    buckets: HashMap<Vec<Value>, Vec<usize>>,
}

impl HashIndex {
    /// Builds an index on `key_positions` over the given tuples.
    pub fn build(key_positions: Vec<usize>, tuples: &[Tuple]) -> Self {
        let mut index = HashIndex {
            key_positions,
            buckets: HashMap::new(),
        };
        for (pos, tuple) in tuples.iter().enumerate() {
            index.insert(pos, tuple);
        }
        index
    }

    /// The key positions this index is built on.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_positions
    }

    /// Registers `tuple`, stored at `position` in the relation, in the index.
    pub fn insert(&mut self, position: usize, tuple: &Tuple) {
        let key = self.key_of(tuple);
        self.buckets.entry(key).or_default().push(position);
    }

    /// Removes the entry for `tuple` previously stored at `position`.
    ///
    /// Removing a pair that was never inserted is a no-op.
    pub fn remove(&mut self, position: usize, tuple: &Tuple) {
        let key = self.key_of(tuple);
        if let Some(bucket) = self.buckets.get_mut(&key) {
            bucket.retain(|&p| p != position);
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }

    /// Removes the entry for `tuple` at `position` and shifts every stored
    /// position greater than `position` down by one.
    ///
    /// This is the incremental-maintenance hook for order-preserving storage
    /// ([`crate::TupleSet`]), where deleting a tuple shifts all later tuples
    /// one slot to the left.  It touches every entry once but never re-hashes
    /// a key or re-projects a tuple, unlike a full rebuild.
    pub fn remove_shifted(&mut self, position: usize, tuple: &Tuple) {
        self.remove(position, tuple);
        for bucket in self.buckets.values_mut() {
            for p in bucket.iter_mut() {
                if *p > position {
                    *p -= 1;
                }
            }
        }
    }

    /// Returns the positions of all tuples whose key equals `key`.
    pub fn lookup(&self, key: &[Value]) -> &[usize] {
        self.buckets.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tuples matching `key` without materialising them.
    pub fn bucket_size(&self, key: &[Value]) -> usize {
        self.buckets.get(key).map(Vec::len).unwrap_or(0)
    }

    /// The largest bucket size, i.e. the smallest `N` for which the indexed
    /// relation satisfies the cardinality half of an access constraint on
    /// these key positions.
    pub fn max_bucket_size(&self) -> usize {
        self.buckets.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of distinct keys currently present.
    pub fn distinct_keys(&self) -> usize {
        self.buckets.len()
    }

    /// Iterates over `(key, positions)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<usize>)> {
        self.buckets.iter()
    }

    /// Extracts the key of `tuple` for this index.
    fn key_of(&self, tuple: &Tuple) -> Vec<Value> {
        self.key_positions.iter().map(|&p| tuple[p]).collect()
    }
}

/// A relation's collection of secondary indexes, keyed by their (sorted,
/// deduplicated) key positions.
///
/// The pool distinguishes **declared** from **built** indexes.  Declaring is
/// O(1) and records intent — typically every `(R, X)` an access schema
/// promises.  The physical [`HashIndex`] is built the first time a probe
/// actually needs it (paying one pass over the relation) and from then on is
/// maintained incrementally by [`IndexPool::tuple_inserted`] /
/// [`IndexPool::tuple_removed`] as the owning relation changes — including
/// changes applied through [`crate::Delta`] updates, which reach the pool via
/// the relation's insert/remove paths.
///
/// Lazy construction happens behind a shared reference (probes take `&self`):
/// each declared index is a [`OnceLock`] cell, so a probe is a map lookup
/// plus [`OnceLock::get_or_init`] and takes no lock once the index is built.
/// Concurrent first probes build the index exactly once.  The set of
/// declared indexes only changes through `&mut self`.
#[derive(Debug, Default)]
pub struct IndexPool {
    indexes: BTreeMap<Vec<usize>, OnceLock<HashIndex>>,
    /// Indexes built by probes of this pool (test instrumentation).
    #[cfg(test)]
    lazy_builds: std::sync::atomic::AtomicUsize,
}

impl Clone for IndexPool {
    fn clone(&self) -> Self {
        IndexPool {
            indexes: self.indexes.clone(),
            #[cfg(test)]
            lazy_builds: Default::default(),
        }
    }
}

impl IndexPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        IndexPool::default()
    }

    /// Declares an index on `positions` without building it.  The positions
    /// are normalised (sorted, deduplicated).  Returns `true` when the
    /// declaration was new.
    pub fn declare(&mut self, mut positions: Vec<usize>) -> bool {
        positions.sort_unstable();
        positions.dedup();
        match self.indexes.entry(positions) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(OnceLock::new());
                true
            }
        }
    }

    /// True iff an index on exactly `positions` was declared or built.
    pub fn is_declared(&self, positions: &[usize]) -> bool {
        self.indexes.contains_key(&*normalise(positions))
    }

    /// True iff the index on exactly `positions` has been materialised.
    pub fn is_built(&self, positions: &[usize]) -> bool {
        self.built(positions).is_some()
    }

    fn built(&self, positions: &[usize]) -> Option<&HashIndex> {
        self.indexes.get(&*normalise(positions))?.get()
    }

    /// The normalised key positions of every declared-or-built index — what
    /// a hash-partition split re-declares on each shard so access-schema
    /// promises keep holding shard-locally.
    pub fn declared_positions(&self) -> Vec<Vec<usize>> {
        self.indexes.keys().cloned().collect()
    }

    /// Builds the index on `positions` now (declaring it if necessary).
    pub fn build_now(&mut self, positions: Vec<usize>, tuples: &[Tuple]) {
        let key = normalise(&positions).into_owned();
        let cell = self.indexes.entry(key.clone()).or_default();
        cell.get_or_init(|| HashIndex::build(key, tuples));
    }

    /// Probes the index on exactly `positions` with `key` and runs `f` over
    /// the matching tuple positions, borrowed from the bucket.  A
    /// declared-but-unbuilt index is materialised first; concurrent first
    /// probes build it once, and `f` runs with no lock held.  `key` must be
    /// aligned with the *normalised* (sorted, deduplicated) positions.
    /// Returns `f`'s result, or `None` when no index on `positions` is
    /// declared.
    pub fn probe<R>(
        &self,
        positions: &[usize],
        key: &[Value],
        tuples: &[Tuple],
        f: impl FnOnce(&[usize]) -> R,
    ) -> Option<R> {
        let norm = normalise(positions);
        let index = self.indexes.get(&*norm)?.get_or_init(|| {
            #[cfg(test)]
            self.lazy_builds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            HashIndex::build(norm.to_vec(), tuples)
        });
        Some(f(index.lookup(key)))
    }

    /// [`IndexPool::probe`] collecting the matching tuple positions.
    pub fn lookup(
        &self,
        positions: &[usize],
        key: &[Value],
        tuples: &[Tuple],
    ) -> Option<Vec<usize>> {
        self.probe(positions, key, tuples, <[usize]>::to_vec)
    }

    /// The best declared-or-built index usable for a probe on `positions`:
    /// the one covering the most probe positions (ties broken towards
    /// already-built indexes, then deterministically by key).  Returns the
    /// index's normalised key positions; the caller supplies the residual
    /// `positions ∖ result` equalities as a post-filter.
    pub fn best_subset(&self, positions: &[usize]) -> Option<Vec<usize>> {
        let target: BTreeSet<usize> = positions.iter().copied().collect();
        self.indexes
            .iter()
            .filter(|(k, _)| !k.is_empty() && k.iter().all(|p| target.contains(p)))
            .max_by(|(a, a_cell), (b, b_cell)| {
                (a.len(), a_cell.get().is_some())
                    .cmp(&(b.len(), b_cell.get().is_some()))
                    // On ties, prefer the lexicographically smaller key (the
                    // smaller key must compare greater to win `max_by`).
                    .then_with(|| b.cmp(a))
            })
            .map(|(k, _)| k.clone())
    }

    /// Maintains every built index after `tuple` was appended at `position`.
    pub fn tuple_inserted(&mut self, position: usize, tuple: &Tuple) {
        for index in self.indexes.values_mut().filter_map(OnceLock::get_mut) {
            index.insert(position, tuple);
        }
    }

    /// Maintains every built index after `tuple` was removed from `position`
    /// of an order-preserving store (later positions shift down by one).
    pub fn tuple_removed(&mut self, position: usize, tuple: &Tuple) {
        for index in self.indexes.values_mut().filter_map(OnceLock::get_mut) {
            index.remove_shifted(position, tuple);
        }
    }

    /// Runs `f` over the built index on `positions`, if there is one.
    pub fn with_built<R>(&self, positions: &[usize], f: impl FnOnce(&HashIndex) -> R) -> Option<R> {
        self.built(positions).map(f)
    }

    /// Number of declared indexes, built or not.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True iff nothing is declared or built.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }
}

/// `positions` sorted and deduplicated — borrowed when they already are,
/// which is every probe the relation layer issues.
fn normalise(positions: &[usize]) -> Cow<'_, [usize]> {
    if positions.windows(2).all(|w| w[0] < w[1]) {
        return Cow::Borrowed(positions);
    }
    let mut key = positions.to_vec();
    key.sort_unstable();
    key.dedup();
    Cow::Owned(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn friend_tuples() -> Vec<Tuple> {
        vec![
            tuple![1, 2],
            tuple![1, 3],
            tuple![2, 3],
            tuple![3, 1],
            tuple![1, 4],
        ]
    }

    #[test]
    fn build_and_lookup() {
        let tuples = friend_tuples();
        let idx = HashIndex::build(vec![0], &tuples);
        assert_eq!(idx.key_positions(), &[0]);
        assert_eq!(idx.lookup(&[Value::int(1)]), &[0, 1, 4]);
        assert_eq!(idx.lookup(&[Value::int(2)]), &[2]);
        assert_eq!(idx.lookup(&[Value::int(9)]), &[] as &[usize]);
        assert_eq!(idx.bucket_size(&[Value::int(1)]), 3);
        assert_eq!(idx.bucket_size(&[Value::int(9)]), 0);
        assert_eq!(idx.max_bucket_size(), 3);
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn multi_attribute_keys() {
        let tuples = friend_tuples();
        let idx = HashIndex::build(vec![0, 1], &tuples);
        assert_eq!(idx.lookup(&[Value::int(1), Value::int(3)]), &[1]);
        assert_eq!(idx.max_bucket_size(), 1);
        assert_eq!(idx.distinct_keys(), 5);
    }

    #[test]
    fn empty_key_positions_bucket_everything_together() {
        let tuples = friend_tuples();
        let idx = HashIndex::build(vec![], &tuples);
        assert_eq!(idx.lookup(&[]).len(), 5);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn insert_and_remove_maintain_buckets() {
        let tuples = friend_tuples();
        let mut idx = HashIndex::build(vec![0], &tuples);
        idx.insert(5, &tuple![1, 9]);
        assert_eq!(idx.lookup(&[Value::int(1)]), &[0, 1, 4, 5]);
        idx.remove(1, &tuple![1, 3]);
        assert_eq!(idx.lookup(&[Value::int(1)]), &[0, 4, 5]);
        // removing an entry twice is a no-op
        idx.remove(1, &tuple![1, 3]);
        assert_eq!(idx.lookup(&[Value::int(1)]), &[0, 4, 5]);
        // removing the last entry for a key drops the bucket
        idx.remove(2, &tuple![2, 3]);
        assert_eq!(idx.lookup(&[Value::int(2)]), &[] as &[usize]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn remove_shifted_mirrors_vec_removal() {
        let mut tuples = friend_tuples();
        let mut idx = HashIndex::build(vec![0], &tuples);
        // Remove the tuple at position 1 the way an ordered store would.
        let removed = tuples.remove(1);
        idx.remove_shifted(1, &removed);
        // Every remaining entry must point at the tuple it indexed.
        for (key, positions) in idx.iter() {
            for &p in positions {
                assert_eq!(&vec![tuples[p][0]], key);
            }
        }
        assert_eq!(idx.lookup(&[Value::int(1)]), &[0, 3]);
    }

    #[test]
    fn iter_exposes_all_buckets() {
        let tuples = friend_tuples();
        let idx = HashIndex::build(vec![0], &tuples);
        let total: usize = idx.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, tuples.len());
    }

    #[test]
    fn pool_builds_lazily_on_first_probe() {
        let tuples = friend_tuples();
        let mut pool = IndexPool::new();
        assert!(pool.declare(vec![0]));
        assert!(!pool.declare(vec![0]));
        assert!(pool.is_declared(&[0]));
        assert!(!pool.is_built(&[0]));
        assert_eq!(pool.len(), 1);
        let hits = pool.lookup(&[0], &[Value::int(1)], &tuples).unwrap();
        assert_eq!(hits, vec![0, 1, 4]);
        assert!(pool.is_built(&[0]));
        // Undeclared probes return None rather than scanning.
        assert!(pool.lookup(&[1], &[Value::int(3)], &tuples).is_none());
    }

    #[test]
    fn probe_borrows_the_bucket_and_builds_before_reading() {
        let tuples = friend_tuples();
        let mut pool = IndexPool::new();
        pool.declare(vec![0]);
        let hits = pool.probe(&[0], &[Value::int(1)], &tuples, |hits| {
            hits.iter().map(|&p| tuples[p][1]).collect::<Vec<_>>()
        });
        assert_eq!(
            hits,
            Some(vec![Value::int(2), Value::int(3), Value::int(4)])
        );
        assert!(pool.is_built(&[0]));
        assert_eq!(
            pool.probe(&[1], &[Value::int(3)], &tuples, |h| h.len()),
            None
        );
        // Unnormalised positions are normalised before the lookup.
        pool.build_now(vec![0, 1], &tuples);
        let key = [Value::int(1), Value::int(3)];
        assert_eq!(
            pool.probe(&[1, 0, 1], &key, &tuples, <[usize]>::to_vec),
            Some(vec![1])
        );
    }

    #[test]
    fn concurrent_first_probes_build_a_declared_index_once() {
        let tuples = friend_tuples();
        let mut pool = IndexPool::new();
        pool.declare(vec![0]);
        let start = std::sync::Barrier::new(2);
        let hits: Vec<Option<Vec<usize>>> = std::thread::scope(|s| {
            let probes: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        pool.lookup(&[0], &[Value::int(1)], &tuples)
                    })
                })
                .collect();
            probes.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(hits, vec![Some(vec![0, 1, 4]), Some(vec![0, 1, 4])]);
        assert!(pool.is_built(&[0]));
        assert_eq!(
            pool.lazy_builds.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn a_probe_callback_may_probe_the_same_pool_again() {
        let tuples = friend_tuples();
        let mut pool = IndexPool::new();
        pool.declare(vec![0]);
        pool.declare(vec![1]);
        // For every friend of 1, the friends of that friend: the inner probe
        // runs inside the outer one's callback, on the same pool (one of them
        // building its index on the way).
        let nested = pool.probe(&[0], &[Value::int(1)], &tuples, |hits| {
            hits.iter()
                .map(|&p| {
                    let friend = tuples[p][1];
                    pool.lookup(&[0], &[friend], &tuples).unwrap().len()
                        + pool.lookup(&[1], &[friend], &tuples).unwrap().len()
                })
                .collect::<Vec<_>>()
        });
        // 2 → {3} and ← {1}; 3 → {1} and ← {1, 2}; 4 → {} and ← {1}.
        assert_eq!(nested, Some(vec![2, 3, 1]));
    }

    #[test]
    fn pool_maintains_built_indexes_incrementally() {
        let mut tuples = friend_tuples();
        let mut pool = IndexPool::new();
        pool.build_now(vec![0], &tuples);
        tuples.push(tuple![1, 9]);
        pool.tuple_inserted(5, &tuple![1, 9]);
        assert_eq!(
            pool.lookup(&[0], &[Value::int(1)], &tuples).unwrap(),
            vec![0, 1, 4, 5]
        );
        let removed = tuples.remove(0);
        pool.tuple_removed(0, &removed);
        assert_eq!(
            pool.lookup(&[0], &[Value::int(1)], &tuples).unwrap(),
            vec![0, 3, 4]
        );
        for p in pool.lookup(&[0], &[Value::int(2)], &tuples).unwrap() {
            assert_eq!(tuples[p][0], Value::int(2));
        }
    }

    #[test]
    fn pool_best_subset_prefers_widest_cover() {
        let mut pool = IndexPool::new();
        pool.declare(vec![0]);
        pool.declare(vec![0, 1]);
        assert_eq!(pool.best_subset(&[0, 1, 2]), Some(vec![0, 1]));
        assert_eq!(pool.best_subset(&[0, 2]), Some(vec![0]));
        assert_eq!(pool.best_subset(&[2]), None);
        // The empty-key index never serves subset probes.
        pool.declare(vec![]);
        assert_eq!(pool.best_subset(&[2]), None);
    }

    #[test]
    fn pool_clone_carries_declarations_and_builds() {
        let tuples = friend_tuples();
        let mut pool = IndexPool::new();
        pool.declare(vec![0]);
        pool.build_now(vec![1], &tuples);
        let clone = pool.clone();
        assert!(clone.is_declared(&[0]));
        assert!(clone.is_built(&[1]));
        assert!(!clone.is_empty());
        assert_eq!(clone.with_built(&[1], |idx| idx.distinct_keys()), Some(4));
        assert_eq!(clone.with_built(&[0], |idx| idx.distinct_keys()), None);
    }
}
