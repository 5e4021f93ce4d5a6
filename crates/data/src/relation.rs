//! Set-semantics relations with attached secondary indexes.

use crate::error::DataError;
use crate::index::IndexPool;
use crate::ordset::TupleSet;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// A finite relation: a set of tuples of a fixed arity, plus an [`IndexPool`]
/// of secondary hash indexes on attribute subsets.
///
/// Tuples are stored in insertion order (deduplicated) so that iteration is
/// deterministic; the paper's set semantics is preserved because duplicate
/// insertions are ignored.  Indexes are declared cheaply (see
/// [`Relation::declare_index`]), built lazily on first probe, and maintained
/// incrementally through [`Relation::insert`] / [`Relation::remove`] — which
/// is also the path [`crate::Delta`] updates take.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    /// Single-copy storage: an insertion-ordered set.  Iteration order and
    /// O(1) membership come from the same structure, instead of the seed's
    /// duplicated `Vec<Tuple>` + `HashSet<Tuple>` pair.
    tuples: TupleSet,
    /// Declared and built indexes, keyed by their (sorted) key positions.
    indexes: IndexPool,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: TupleSet::new(),
            indexes: IndexPool::new(),
        }
    }

    /// Creates a relation and bulk-inserts `tuples`.
    pub fn with_tuples(schema: RelationSchema, tuples: Vec<Tuple>) -> Result<Self> {
        let mut r = Relation::new(schema);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The tuples as a slice (insertion order).
    pub fn tuples(&self) -> &[Tuple] {
        self.tuples.as_slice()
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Membership test for the tuple with exactly `values`, without building
    /// a [`Tuple`].
    pub fn contains_values(&self, values: &[Value]) -> bool {
        self.tuples.contains_values(values)
    }

    /// Inserts a tuple, ignoring exact duplicates (set semantics).
    ///
    /// Returns `true` when the tuple was new.  Every *built* index is
    /// maintained incrementally; declared-but-unbuilt indexes cost nothing.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                relation: self.schema.name().to_owned(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        let position = self.tuples.len();
        if !self.tuples.insert(tuple) {
            return Ok(false);
        }
        let stored = &self.tuples.as_slice()[position];
        self.indexes.tuple_inserted(position, stored);
        Ok(true)
    }

    /// Removes a tuple if present; returns `true` when something was removed.
    ///
    /// Built indexes are maintained incrementally (entries after the removed
    /// position shift down by one, mirroring the ordered storage) instead of
    /// being rebuilt from scratch.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let Some(position) = self.tuples.remove_returning_position(tuple) else {
            return false;
        };
        self.indexes.tuple_removed(position, tuple);
        true
    }

    /// Declares an index on the given attribute names without building it.
    ///
    /// The physical index is materialised by the first probe that needs it
    /// (see [`Relation::select_eq`]); until then the declaration costs O(1).
    pub fn declare_index(&mut self, attributes: &[String]) -> Result<()> {
        let positions = self.schema.positions_of(attributes)?;
        self.indexes.declare(positions);
        Ok(())
    }

    /// Ensures a hash index exists on the given attribute names, building it
    /// immediately.  Prefer [`Relation::declare_index`] unless the probe
    /// pattern is known to be hot from the start.
    pub fn ensure_index(&mut self, attributes: &[String]) -> Result<()> {
        let positions = self.schema.positions_of(attributes)?;
        self.indexes.build_now(positions, self.tuples.as_slice());
        Ok(())
    }

    /// True iff an index on exactly these attributes is declared or built.
    pub fn has_index(&self, attributes: &[String]) -> bool {
        match self.schema.positions_of(attributes) {
            Ok(positions) => self.indexes.is_declared(&positions),
            Err(_) => false,
        }
    }

    /// True iff the index on exactly these attributes has been materialised.
    pub fn has_built_index(&self, attributes: &[String]) -> bool {
        match self.schema.positions_of(attributes) {
            Ok(positions) => self.indexes.is_built(&positions),
            Err(_) => false,
        }
    }

    /// The relation's index pool (read only).
    pub fn indexes(&self) -> &IndexPool {
        &self.indexes
    }

    /// The attribute lists of every declared-or-built index, resolved back
    /// to names (normalised position order).  A hash-partition split uses
    /// this to re-declare the same indexes on every shard.
    pub fn declared_indexes(&self) -> Vec<Vec<String>> {
        self.indexes
            .declared_positions()
            .into_iter()
            .map(|positions| {
                positions
                    .into_iter()
                    .map(|p| self.schema.attributes()[p].clone())
                    .collect()
            })
            .collect()
    }

    /// Selects the tuples whose attributes `attributes` equal `key`
    /// (σ_{X=a̅}(R)), and reports whether an index served the probe: the
    /// name-resolving, collecting wrapper over [`Relation::for_each_eq`].
    pub fn select_eq(&self, attributes: &[String], key: &[Value]) -> Result<(Vec<Tuple>, bool)> {
        let positions = self.schema.positions_of(attributes)?;
        let mut matches = Vec::new();
        let used_index = self.for_each_eq(&positions, key, |t| matches.push(t.clone()));
        Ok((matches, used_index))
    }

    /// Calls `f` on every tuple whose values at `positions` equal `key`
    /// (σ_{X=a̅}(R) over resolved positions), borrowing each tuple from
    /// storage, and reports whether an index served the probe.
    ///
    /// Resolution order:
    /// 1. an index on exactly the probed positions (built lazily on this
    ///    first probe if it was only declared);
    /// 2. the widest declared-or-built index on a *subset* of the probed
    ///    positions, with the residual equalities applied as a post-filter —
    ///    the probe stays index-backed even when the caller binds more
    ///    attributes than any single index covers;
    /// 3. a full scan, only when no index can serve any part of the probe.
    ///
    /// A `key` that is not aligned with `positions` (different lengths)
    /// matches nothing.  `f` runs with no lock held (see
    /// [`IndexPool::probe`]).
    pub fn for_each_eq(
        &self,
        positions: &[usize],
        key: &[Value],
        mut f: impl FnMut(&Tuple),
    ) -> bool {
        if positions.len() != key.len() {
            return false;
        }
        let tuples = self.tuples.as_slice();
        // A probe key that repeats a position with conflicting values can
        // over-approximate after normalisation; re-check the original
        // predicate to stay exact.
        let mut emit = |hits: &[usize]| {
            for &p in hits {
                let t = &tuples[p];
                if t.matches_on(positions, key) {
                    f(t);
                }
            }
        };
        let (sorted_positions, sorted_key) = normalise_probe(positions, key);
        if self
            .indexes
            .probe(&sorted_positions, &sorted_key, tuples, &mut emit)
            .is_some()
        {
            return true;
        }

        // No exact index: probe the widest subset index and post-filter.
        if let Some(sub) = self.indexes.best_subset(&sorted_positions) {
            let sub_key: Vec<Value> = sub
                .iter()
                .map(|p| {
                    let i = sorted_positions
                        .iter()
                        .position(|q| q == p)
                        .expect("subset positions come from the probe");
                    sorted_key[i]
                })
                .collect();
            self.indexes
                .probe(&sub, &sub_key, tuples, &mut emit)
                .expect("best_subset returned a declared index");
            return true;
        }

        tuples
            .iter()
            .filter(|t| t.matches_on(positions, key))
            .for_each(f);
        false
    }

    /// The maximum number of tuples sharing any single value combination on
    /// `attributes` — the tight cardinality bound `N` for an access
    /// constraint on those attributes.
    pub fn fanout_on(&self, attributes: &[String]) -> Result<usize> {
        let positions = self.schema.positions_of(attributes)?;
        let mut counts: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
        for t in &self.tuples {
            let key: Vec<Value> = positions.iter().map(|&p| t[p]).collect();
            *counts.entry(key).or_insert(0) += 1;
        }
        Ok(counts.values().copied().max().unwrap_or(0))
    }

    /// Number of distinct values in each column, in schema order, over the
    /// union of `parts`: one relation stored as disjoint pieces (the shards
    /// of a sharded store; an unsharded relation is its only part).  The raw
    /// material of the planner's per-relation statistics.
    pub fn column_distincts(parts: &[&Relation]) -> Vec<usize> {
        let arity = parts.first().map_or(0, |r| r.schema.arity());
        let mut seen: Vec<HashSet<Value>> = (0..arity).map(|_| HashSet::new()).collect();
        for t in parts.iter().flat_map(|r| r.tuples.iter()) {
            for (pos, set) in seen.iter_mut().enumerate() {
                set.insert(t[pos]);
            }
        }
        seen.into_iter().map(|s| s.len()).collect()
    }

    /// Collects every value appearing in any tuple (contribution to the
    /// active domain).
    pub fn collect_adom(&self, into: &mut HashSet<Value>) {
        for t in &self.tuples {
            for v in t.iter() {
                into.insert(*v);
            }
        }
    }
}

/// Aligns a probe with the normalisation indexes use for their key positions
/// (sorted, deduplicated, keeping the first value of a repeated position).
/// Borrows when the positions are already strictly increasing — every
/// single-attribute probe.
fn normalise_probe<'a>(
    positions: &'a [usize],
    key: &'a [Value],
) -> (Cow<'a, [usize]>, Cow<'a, [Value]>) {
    if positions.windows(2).all(|w| w[0] < w[1]) {
        return (Cow::Borrowed(positions), Cow::Borrowed(key));
    }
    let mut pairs: Vec<(usize, Value)> =
        positions.iter().copied().zip(key.iter().copied()).collect();
    pairs.sort_by_key(|(p, _)| *p);
    pairs.dedup_by(|a, b| a.0 == b.0);
    (
        pairs.iter().map(|(p, _)| *p).collect(),
        pairs.iter().map(|(_, v)| *v).collect(),
    )
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in self.tuples.iter().take(20) {
            writeln!(f, "  {t}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  … ({} more)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn person() -> Relation {
        let schema = RelationSchema::new("person", &["id", "name", "city"]);
        Relation::with_tuples(
            schema,
            vec![
                tuple![1, "ann", "NYC"],
                tuple![2, "bob", "LA"],
                tuple![3, "cat", "NYC"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_respects_set_semantics_and_arity() {
        let mut r = person();
        assert_eq!(r.len(), 3);
        assert!(!r.insert(tuple![1, "ann", "NYC"]).unwrap());
        assert_eq!(r.len(), 3);
        assert!(r.insert(tuple![4, "dan", "SF"]).unwrap());
        assert_eq!(r.len(), 4);
        let err = r.insert(tuple![5, "eve"]).unwrap_err();
        assert!(matches!(
            err,
            DataError::ArityMismatch {
                expected: 3,
                actual: 2,
                ..
            }
        ));
    }

    #[test]
    fn contains_and_remove() {
        let mut r = person();
        assert!(r.contains(&tuple![2, "bob", "LA"]));
        assert!(r.remove(&tuple![2, "bob", "LA"]));
        assert!(!r.contains(&tuple![2, "bob", "LA"]));
        assert!(!r.remove(&tuple![2, "bob", "LA"]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn select_eq_without_index_scans() {
        let r = person();
        let (rows, used_index) = r.select_eq(&["city".into()], &[Value::str("NYC")]).unwrap();
        assert!(!used_index);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn select_eq_with_index_probes() {
        let mut r = person();
        r.ensure_index(&["city".into()]).unwrap();
        let (rows, used_index) = r.select_eq(&["city".into()], &[Value::str("NYC")]).unwrap();
        assert!(used_index);
        assert_eq!(rows.len(), 2);
        let (rows, _) = r
            .select_eq(&["city".into()], &[Value::str("Tokyo")])
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn declared_index_builds_on_first_probe() {
        let mut r = person();
        r.declare_index(&["city".into()]).unwrap();
        assert!(r.has_index(&["city".into()]));
        assert!(!r.has_built_index(&["city".into()]));
        let (rows, used_index) = r.select_eq(&["city".into()], &[Value::str("NYC")]).unwrap();
        assert!(used_index);
        assert_eq!(rows.len(), 2);
        assert!(r.has_built_index(&["city".into()]));
    }

    #[test]
    fn subset_index_serves_wider_probes() {
        let mut r = person();
        r.declare_index(&["city".into()]).unwrap();
        // No index on {id, city}, but the city index covers part of the probe.
        let (rows, used_index) = r
            .select_eq(
                &["id".into(), "city".into()],
                &[Value::int(3), Value::str("NYC")],
            )
            .unwrap();
        assert!(used_index);
        assert_eq!(rows, vec![tuple![3, "cat", "NYC"]]);
    }

    #[test]
    fn index_is_maintained_under_insert_and_remove() {
        let mut r = person();
        r.ensure_index(&["city".into()]).unwrap();
        r.insert(tuple![4, "dan", "NYC"]).unwrap();
        let (rows, used) = r.select_eq(&["city".into()], &[Value::str("NYC")]).unwrap();
        assert!(used);
        assert_eq!(rows.len(), 3);
        r.remove(&tuple![1, "ann", "NYC"]);
        let (rows, used) = r.select_eq(&["city".into()], &[Value::str("NYC")]).unwrap();
        assert!(used);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn multi_attribute_select_normalises_positions() {
        let mut r = person();
        r.ensure_index(&["city".into(), "id".into()]).unwrap();
        // Probe with attributes listed in a different order than the index key.
        let (rows, used) = r
            .select_eq(
                &["id".into(), "city".into()],
                &[Value::int(3), Value::str("NYC")],
            )
            .unwrap();
        assert!(used);
        assert_eq!(rows, vec![tuple![3, "cat", "NYC"]]);
    }

    #[test]
    fn for_each_eq_borrows_matches_and_agrees_with_select_eq() {
        let mut r = person();
        r.insert(tuple![4, "dan", "NYC"]).unwrap();
        let city = Value::str("NYC");
        // Scan, then exact index, then subset index + post-filter.
        for declare in [None, Some(vec!["city".to_string()])] {
            if let Some(attrs) = declare {
                r.declare_index(&attrs).unwrap();
            }
            let mut seen = Vec::new();
            let used = r.for_each_eq(&[2], &[city], |t| seen.push(t[0]));
            assert_eq!(used, r.has_index(&["city".into()]));
            assert_eq!(seen, vec![Value::int(1), Value::int(3), Value::int(4)]);
            let (rows, _) = r.select_eq(&["city".into()], &[city]).unwrap();
            assert_eq!(rows.len(), 3);
            let mut wide = Vec::new();
            r.for_each_eq(&[2, 0], &[city, Value::int(3)], |t| wide.push(t.clone()));
            assert_eq!(wide, vec![tuple![3, "cat", "NYC"]]);
        }
        // A repeated position with conflicting values matches nothing, and a
        // key that does not align with the positions matches nothing.
        let mut none = 0;
        r.for_each_eq(&[2, 2], &[city, Value::str("LA")], |_| none += 1);
        r.for_each_eq(&[2, 0], &[city], |_| none += 1);
        assert_eq!(none, 0);
        assert!(r.contains_values(&[Value::int(4), Value::str("dan"), city]));
        assert!(!r.contains_values(&[Value::int(4)]));
    }

    #[test]
    fn fanout_reports_tight_bound() {
        let r = person();
        assert_eq!(r.fanout_on(&["city".into()]).unwrap(), 2);
        assert_eq!(r.fanout_on(&["id".into()]).unwrap(), 1);
        let empty = Relation::new(RelationSchema::new("e", &["a"]));
        assert_eq!(empty.fanout_on(&["a".into()]).unwrap(), 0);
    }

    #[test]
    fn column_distincts_count_per_column() {
        let r = person();
        assert_eq!(Relation::column_distincts(&[&r]), vec![3, 3, 2]);
        let empty = Relation::new(RelationSchema::new("e", &["a"]));
        assert_eq!(Relation::column_distincts(&[&empty]), vec![0]);
    }

    #[test]
    fn collect_adom_gathers_all_values() {
        let r = person();
        let mut adom = HashSet::new();
        r.collect_adom(&mut adom);
        assert!(adom.contains(&Value::int(1)));
        assert!(adom.contains(&Value::str("NYC")));
        assert_eq!(adom.len(), 8); // 3 ids + 3 names + 2 distinct cities
    }

    #[test]
    fn has_index_reports_declared_and_built() {
        let mut r = person();
        assert!(!r.has_index(&["id".into()]));
        r.ensure_index(&["id".into()]).unwrap();
        assert!(r.has_index(&["id".into()]));
        assert!(r.has_built_index(&["id".into()]));
        assert!(!r.has_index(&["nope".into()]));
        assert!(!r.indexes().is_empty());
    }

    #[test]
    fn unknown_attribute_errors_propagate() {
        let mut r = person();
        assert!(r.select_eq(&["zip".into()], &[Value::int(0)]).is_err());
        assert!(r.fanout_on(&["zip".into()]).is_err());
        assert!(r.declare_index(&["zip".into()]).is_err());
    }

    #[test]
    fn display_mentions_name_and_count() {
        let r = person();
        let s = r.to_string();
        assert!(s.contains("person"));
        assert!(s.contains("3 tuples"));
    }
}
