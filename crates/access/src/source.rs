//! The access-mediated retrieval surface, abstracted over storage.
//!
//! [`AccessSource`] is the interface the bounded executors in `si-core`
//! evaluate against.  It captures exactly what Theorem 4.2's evaluation
//! strategy needs — constraint-authorised fetches, embedded enumerations,
//! membership probes, and a [`MeterSink`] every access is charged to — while
//! leaving the storage behind it open:
//!
//! * [`crate::AccessIndexedDatabase`] — an owned, mutable [`si_data::Database`]
//!   (the original single-threaded experiment surface);
//! * [`SnapshotAccess`] — a pinned, immutable
//!   [`DatabaseSnapshot`] version shared between
//!   worker threads by `Arc`, with a *per-worker* meter;
//! * [`crate::ShardedAccess`] — a pinned sharded view (the `si-engine`
//!   serving surface), and [`crate::ReplicatedAccess`], its wire-backed twin.
//!
//! The fetch-bound semantics (what is charged per probe, the role of the
//! residual post-filter) are identical for every implementation and are
//! documented once, on [`crate::AccessIndexedDatabase`]; the shared logic
//! lives in this trait's provided methods, so an implementor only supplies
//! the four accessors.
//!
//! ## The borrowing primitive
//!
//! [`AccessSource::for_each_via`] is the one fetch: it hands every tuple
//! that survives the residual filter to a callback as a `&Tuple` borrowed
//! from storage — no tuple is cloned and no result vector is built, which
//! is what keeps a bounded read's allocations independent of the tuples it
//! fetches.  [`AccessSource::fetch_via`] and [`AccessSource::fetch`] are
//! provided collects over it, for callers that want owned rows.
//!
//! The callback runs while the probed relation's index guard is held (see
//! [`si_data::IndexPool::probe`]), so it **must not probe the same relation
//! of the same source** — it may record, bind and filter, and it may probe
//! other relations.  The bounded executor only records.
//!
//! A probe whose attribute list and key differ in length is rejected with
//! [`si_data::DataError::ArityMismatch`] rather than silently truncated.

use crate::constraint::AccessConstraint;
use crate::embedded::EmbeddedConstraint;
use crate::indexed::AccessError;
use crate::schema::AccessSchema;
use si_data::{
    AccessMeter, DataError, Database, DatabaseSchema, DatabaseSnapshot, MeterSink, MeterSnapshot,
    Relation, RelationSchema, Tuple, Value,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A short list kept inline up to `N` entries and spilled to the heap
/// beyond: probe keys are a handful of attributes, so splitting one
/// allocates nothing.
#[derive(Debug)]
struct InlineVec<T: Copy, const N: usize> {
    len: usize,
    inline: [T; N],
    spilled: Vec<T>,
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    fn new(fill: T) -> Self {
        InlineVec {
            len: 0,
            inline: [fill; N],
            spilled: Vec::new(),
        }
    }

    fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = value;
        } else {
            if self.len == N {
                self.spilled.extend_from_slice(&self.inline);
            }
            self.spilled.push(value);
        }
        self.len += 1;
    }

    fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

/// Probe attributes held inline; a wider probe spills to the heap.
const PROBE_INLINE: usize = 4;

/// A probe split into its pushed-down index part and residual filter — the
/// decomposition every [`AccessSource`] surface shares.
///
/// The constraint's attribute set forms the index key; bound attributes
/// outside it become positional post-filter equalities.  Attributes are
/// resolved to positions once, here.  Charging (and, for the sharded
/// surfaces, routing) is defined on this one split, which is what keeps
/// `ShardedAccess`'s *mirror accounting* exactly equal to the unsharded
/// surfaces: both run the same split, the same per-relation probe and the
/// same charge points.
#[derive(Debug)]
pub(crate) struct ProbeSplit {
    index_positions: InlineVec<usize, PROBE_INLINE>,
    index_key: InlineVec<Value, PROBE_INLINE>,
    filter: InlineVec<(usize, Value), PROBE_INLINE>,
}

/// Splits `(attrs, key)` against the pushed-down attribute set `pushed`
/// (a plain constraint's `X`, or an embedded constraint's `from`).
pub(crate) fn split_probe(
    pushed: &[String],
    rel_schema: &RelationSchema,
    attrs: &[String],
    key: &[Value],
) -> Result<ProbeSplit, AccessError> {
    if attrs.len() != key.len() {
        return Err(AccessError::Data(DataError::ArityMismatch {
            relation: rel_schema.name().to_owned(),
            expected: attrs.len(),
            actual: key.len(),
        }));
    }
    let mut split = ProbeSplit {
        index_positions: InlineVec::new(0),
        index_key: InlineVec::new(Value::Null),
        filter: InlineVec::new((0, Value::Null)),
    };
    for (a, v) in attrs.iter().zip(key) {
        let position = rel_schema.position_of(a)?;
        if pushed.contains(a) {
            split.index_positions.push(position);
            split.index_key.push(*v);
        } else {
            split.filter.push((position, *v));
        }
    }
    Ok(split)
}

/// Runs the pushed-down part of a probe against one relation, collecting
/// owned rows: `select_eq` on `attrs = key`, or — for `attrs = ∅`, where the
/// constraint bounds the whole relation — a (bounded) iteration.
///
/// This is the owned wrapper over the shard-local fetch every surface runs
/// (the unsharded probe, [`crate::ShardedAccess`]'s per-shard leg): a
/// remote shard replica serving a [`crate::remote::ShardProber::probe`]
/// calls exactly this function, so the raw fetched set — the one the meter
/// charges — cannot drift between in-process and transport-backed
/// execution.
pub fn raw_index_probe(
    rel: &Relation,
    attrs: &[String],
    key: &[Value],
) -> Result<Vec<Tuple>, AccessError> {
    let split = split_probe(attrs, rel.schema(), attrs, key)?;
    let mut out = Vec::new();
    split.for_each(rel, &mut |t| out.push(t.clone()));
    Ok(out)
}

impl ProbeSplit {
    /// Runs the index part against one relation, handing each raw
    /// (pre-residual) match to `f` (see [`raw_index_probe`]).
    pub(crate) fn for_each(&self, rel: &Relation, f: &mut dyn FnMut(&Tuple)) {
        if self.index_positions().is_empty() {
            rel.iter().for_each(f);
        } else {
            rel.for_each_eq(self.index_positions(), self.index_key(), f);
        }
    }

    /// The pushed-down positions, in probe order.
    pub(crate) fn index_positions(&self) -> &[usize] {
        self.index_positions.as_slice()
    }

    /// The pushed-down key, aligned with [`ProbeSplit::index_positions`].
    pub(crate) fn index_key(&self) -> &[Value] {
        self.index_key.as_slice()
    }

    /// The value the pushed-down part binds at `position`, if any — what a
    /// sharded surface routes on.
    pub(crate) fn index_value(&self, position: usize) -> Option<Value> {
        let i = self.index_positions().iter().position(|&p| p == position)?;
        Some(self.index_key()[i])
    }

    /// The value the residual filter requires at `position`, if any.
    pub(crate) fn filter_value(&self, position: usize) -> Option<Value> {
        let filter = self.filter.as_slice();
        filter.iter().find(|(p, _)| *p == position).map(|(_, v)| *v)
    }

    /// Applies the residual filter.
    pub(crate) fn residual_keeps(&self, tuple: &Tuple) -> bool {
        let filter = self.filter.as_slice();
        filter.iter().all(|(p, v)| tuple.get(*p) == Some(v))
    }

    /// A plain fetch's charging: one probe and `time` units, then every raw
    /// tuple `probe` delivers (pre-residual), of which those passing the
    /// residual filter reach `f`.
    pub(crate) fn metered_fetch(
        &self,
        meter: &dyn MeterSink,
        time: u64,
        f: &mut dyn FnMut(&Tuple),
        probe: impl FnOnce(&mut dyn FnMut(&Tuple)) -> Result<(), AccessError>,
    ) -> Result<(), AccessError> {
        meter.add_probe();
        meter.add_time(time);
        let mut fetched = 0u64;
        probe(&mut |t| {
            fetched += 1;
            if self.residual_keeps(t) {
                f(t);
            }
        })?;
        meter.add_tuples(fetched);
        Ok(())
    }

    /// An embedded fetch's charging and tail: one probe and `time` units,
    /// then the raw tuples `probe` delivers are residual-filtered, projected
    /// onto `positions` and deduplicated in arrival order; the distinct
    /// projections are what is charged.
    pub(crate) fn metered_embedded(
        &self,
        meter: &dyn MeterSink,
        time: u64,
        positions: &[usize],
        probe: impl FnOnce(&mut dyn FnMut(&Tuple)) -> Result<(), AccessError>,
    ) -> Result<Vec<Tuple>, AccessError> {
        meter.add_probe();
        meter.add_time(time);
        let mut seen: BTreeSet<Tuple> = BTreeSet::new();
        let mut out = Vec::new();
        probe(&mut |t| {
            if self.residual_keeps(t) {
                let proj = t.project(positions);
                if seen.insert(proj.clone()) {
                    out.push(proj);
                }
            }
        })?;
        meter.add_tuples(out.len() as u64);
        Ok(out)
    }
}

/// The embedded constraint every surface selects for
/// [`AccessSource::fetch_embedded`]: usable with the bound attributes,
/// covering the requested projection, minimal `N` (ties broken by
/// declaration order via `min_by_key`).
pub(crate) fn best_embedded<'a>(
    access: &'a AccessSchema,
    relation: &str,
    attrs: &[String],
    onto: &[String],
) -> Result<&'a EmbeddedConstraint, AccessError> {
    let bound: BTreeSet<&str> = attrs.iter().map(String::as_str).collect();
    let onto_set: BTreeSet<&str> = onto.iter().map(String::as_str).collect();
    access
        .embedded()
        .iter()
        .filter(|e| {
            e.relation == relation && e.usable_with(&bound) && onto_set.is_subset(&e.onto_set())
        })
        .min_by_key(|e| e.bound)
        .ok_or_else(|| AccessError::NoConstraint {
            relation: relation.to_owned(),
            bound_attributes: attrs.to_vec(),
        })
}

/// Storage-agnostic access-schema-mediated retrieval.
///
/// Implementors provide relation lookup, the access schema and a meter; the
/// provided methods implement the paper's fetch semantics on top (and are
/// the *only* retrieval primitives bounded executors may use).  Surfaces
/// without a single local relation (sharded, replicated) override
/// [`AccessSource::for_each_via`] and the non-fetch primitives instead.
pub trait AccessSource {
    /// The database schema of the underlying instance.
    fn db_schema(&self) -> &DatabaseSchema;

    /// The access schema authorising fetches.
    fn access_schema(&self) -> &AccessSchema;

    /// Looks up a relation of the underlying instance.
    fn source_relation(&self, name: &str) -> Result<&Relation, AccessError>;

    /// The sink every access is charged to.
    fn meter_sink(&self) -> &dyn MeterSink;

    /// Snapshot of the meter (convenience).
    fn meter_snapshot(&self) -> MeterSnapshot {
        self.meter_sink().snapshot()
    }

    /// The full underlying instance, when this source can expose one.
    ///
    /// Bounded evaluation never needs this — it is the escape hatch for the
    /// paper's *offline precomputation* setting (Section 5), where `Q(D)` is
    /// computed once by unrestricted evaluation before bounded maintenance
    /// takes over.  Owned surfaces ([`crate::AccessIndexedDatabase`]) return
    /// their database; shared snapshot views return `None`, which forces
    /// callers onto the metered, access-mediated path.
    fn full_instance(&self) -> Option<&Database> {
        None
    }

    /// Fetches `σ_{attrs = key}(relation)` through the tightest usable
    /// access constraint.  See [`crate::AccessIndexedDatabase::fetch`].
    fn fetch(
        &self,
        relation: &str,
        attrs: &[String],
        key: &[Value],
    ) -> Result<Vec<Tuple>, AccessError> {
        let bound: BTreeSet<&str> = attrs.iter().map(String::as_str).collect();
        let constraint = self
            .access_schema()
            .best_constraint(relation, &bound)
            .ok_or_else(|| AccessError::NoConstraint {
                relation: relation.to_owned(),
                bound_attributes: attrs.to_vec(),
            })?;
        self.fetch_via(constraint, relation, attrs, key)
    }

    /// Fetches `σ_{attrs = key}(relation)` through a specific constraint
    /// (chosen by a planner) and hands every matching tuple to `f`, borrowed
    /// from storage — the borrowing primitive every other fetch collects
    /// over.  Charged exactly like [`crate::AccessIndexedDatabase::fetch_via`].
    ///
    /// `f` must not probe `relation` of this source (see the module docs).
    fn for_each_via(
        &self,
        constraint: &AccessConstraint,
        relation: &str,
        attrs: &[String],
        key: &[Value],
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<(), AccessError> {
        debug_assert_eq!(constraint.relation, relation);
        let rel = self.source_relation(relation)?;
        let split = split_probe(&constraint.on, rel.schema(), attrs, key)?;
        split.metered_fetch(self.meter_sink(), constraint.time, f, |raw| {
            split.for_each(rel, raw);
            Ok(())
        })
    }

    /// Fetches through a specific constraint, collecting owned rows: a
    /// collect over [`AccessSource::for_each_via`].
    /// See [`crate::AccessIndexedDatabase::fetch_via`].
    fn fetch_via(
        &self,
        constraint: &AccessConstraint,
        relation: &str,
        attrs: &[String],
        key: &[Value],
    ) -> Result<Vec<Tuple>, AccessError> {
        let mut out = Vec::new();
        self.for_each_via(constraint, relation, attrs, key, &mut |t| {
            out.push(t.clone())
        })?;
        Ok(out)
    }

    /// Fetches the projection `π_onto(σ_{attrs = key}(relation))` through an
    /// embedded constraint.  See
    /// [`crate::AccessIndexedDatabase::fetch_embedded`].
    fn fetch_embedded(
        &self,
        relation: &str,
        attrs: &[String],
        key: &[Value],
        onto: &[String],
    ) -> Result<Vec<Tuple>, AccessError> {
        let constraint = best_embedded(self.access_schema(), relation, attrs, onto)?;
        let rel = self.source_relation(relation)?;
        let positions = rel.schema().positions_of(onto)?;
        let split = split_probe(&constraint.from, rel.schema(), attrs, key)?;
        split.metered_embedded(self.meter_sink(), constraint.time, &positions, |raw| {
            split.for_each(rel, raw);
            Ok(())
        })
    }

    /// Membership probe: is the tuple with exactly `values` in `relation`?
    /// Always permitted; charged as one probe fetching at most one tuple.
    /// Takes the value slice so callers need not build a [`Tuple`].
    /// See [`crate::AccessIndexedDatabase::contains`].
    fn contains(&self, relation: &str, values: &[Value]) -> Result<bool, AccessError> {
        let rel = self.source_relation(relation)?;
        let meter = self.meter_sink();
        meter.add_probe();
        meter.add_time(1);
        let found = rel.contains_values(values);
        if found {
            meter.add_tuples(1);
        }
        Ok(found)
    }

    /// Retrieves the entire relation; only allowed under a full-access grant.
    /// See [`crate::AccessIndexedDatabase::full_scan`].
    fn full_scan(&self, relation: &str) -> Result<Vec<Tuple>, AccessError> {
        if !self.access_schema().has_full_access(relation) {
            return Err(AccessError::FullScanNotAllowed(relation.to_owned()));
        }
        let rel = self.source_relation(relation)?;
        let meter = self.meter_sink();
        meter.add_scan();
        meter.add_tuples(rel.len() as u64);
        Ok(rel.iter().cloned().collect())
    }

    /// Does any constraint authorise probing `relation` when `attrs` can be
    /// bound?
    fn can_fetch(&self, relation: &str, attrs: &[String]) -> bool {
        let bound: BTreeSet<&str> = attrs.iter().map(String::as_str).collect();
        self.access_schema()
            .best_constraint(relation, &bound)
            .is_some()
    }
}

/// A pinned snapshot version wrapped with an access schema and a per-worker
/// meter: the [`AccessSource`] of the concurrent serving layer.
///
/// Both the snapshot and the access schema are held by `Arc`, so a
/// `SnapshotAccess` is cheap to create — one per worker, per request — and
/// [`SnapshotAccess::fork`] hands each worker thread its own meter over the
/// same pinned version.  Charging stays on a thread-local sink (no atomics
/// on the fetch path); callers aggregate the per-worker
/// [`MeterSnapshot`]s afterwards, e.g. into a
/// [`SharedMeter`](si_data::SharedMeter).
///
/// Constructing a `SnapshotAccess` does *not* declare the access schema's
/// indexes: declarations live inside the relations, so declare them on the
/// [`si_data::Database`] (see [`AccessSchema::required_indexes`]) before the
/// snapshot store is created — `si-engine` does exactly that.
#[derive(Debug)]
pub struct SnapshotAccess<M: MeterSink = AccessMeter> {
    snapshot: Arc<DatabaseSnapshot>,
    access: Arc<AccessSchema>,
    meter: M,
}

impl<M: MeterSink + Default> SnapshotAccess<M> {
    /// Wraps a pinned snapshot with an access schema and a fresh meter.
    pub fn new(snapshot: Arc<DatabaseSnapshot>, access: Arc<AccessSchema>) -> Self {
        SnapshotAccess {
            snapshot,
            access,
            meter: M::default(),
        }
    }

    /// A sibling view over the same pinned snapshot with a fresh meter —
    /// what each worker thread of a partitioned execution gets.
    pub fn fork(&self) -> Self {
        SnapshotAccess {
            snapshot: self.snapshot.clone(),
            access: self.access.clone(),
            meter: M::default(),
        }
    }
}

impl<M: MeterSink> SnapshotAccess<M> {
    /// Wraps a pinned snapshot with an explicit meter.
    pub fn with_meter(
        snapshot: Arc<DatabaseSnapshot>,
        access: Arc<AccessSchema>,
        meter: M,
    ) -> Self {
        SnapshotAccess {
            snapshot,
            access,
            meter,
        }
    }

    /// The pinned snapshot version.
    pub fn snapshot(&self) -> &Arc<DatabaseSnapshot> {
        &self.snapshot
    }

    /// The meter charged by this view's fetches.
    pub fn meter(&self) -> &M {
        &self.meter
    }
}

impl<M: MeterSink> AccessSource for SnapshotAccess<M> {
    fn db_schema(&self) -> &DatabaseSchema {
        self.snapshot.schema()
    }

    fn access_schema(&self) -> &AccessSchema {
        &self.access
    }

    fn source_relation(&self, name: &str) -> Result<&Relation, AccessError> {
        self.snapshot.relation(name).map_err(AccessError::Data)
    }

    fn meter_sink(&self) -> &dyn MeterSink {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::facebook_access_schema;
    use si_data::schema::social_schema;
    use si_data::{tuple, Database, SharedMeter, SnapshotStore};

    fn store_with_indexes() -> (SnapshotStore, Arc<AccessSchema>) {
        let (db, access) = db_with_indexes();
        (SnapshotStore::new(db), Arc::new(access))
    }

    fn db_with_indexes() -> (Database, AccessSchema) {
        let access = facebook_access_schema(5000);
        let mut db = Database::empty(social_schema());
        db.insert_all(
            "person",
            vec![
                tuple![1, "ann", "NYC"],
                tuple![2, "bob", "NYC"],
                tuple![3, "cat", "LA"],
            ],
        )
        .unwrap();
        db.insert_all("friend", vec![tuple![1, 2], tuple![1, 3], tuple![2, 3]])
            .unwrap();
        for (relation, attrs) in access.required_indexes() {
            if !attrs.is_empty() {
                db.declare_index(&relation, &attrs).unwrap();
            }
        }
        (db, access)
    }

    #[test]
    fn probes_whose_key_does_not_align_with_their_attributes_are_rejected() {
        // `friend(id1, id2)` probed with one value for two attributes used to
        // zip the key short and return every `friend(1, *)` row.  Every
        // surface must refuse it, before charging anything.
        let (db, access) = db_with_indexes();
        let owned = crate::AccessIndexedDatabase::new(db.clone(), access.clone()).unwrap();
        let snapshot: SnapshotAccess = SnapshotAccess::new(
            SnapshotStore::new(db.clone()).pin(),
            Arc::new(access.clone()),
        );
        let partition = si_data::PartitionMap::new().with("friend", "id1");
        let sharded_store = si_data::ShardedSnapshotStore::new(db, partition, 2).unwrap();
        let sharded: crate::ShardedAccess =
            crate::ShardedAccess::new(sharded_store.pin(), Arc::new(access));
        let surfaces: [&dyn AccessSource; 3] = [&owned, &snapshot, &sharded];
        let two = ["id1".to_string(), "id2".to_string()];
        let one = ["id1".to_string()];
        for (i, source) in surfaces.into_iter().enumerate() {
            for (attrs, key) in [
                (&two[..], &[Value::int(1)][..]),
                (&one[..], &[Value::int(1), Value::int(2)][..]),
            ] {
                let err = source.fetch("friend", attrs, key).unwrap_err();
                assert!(
                    matches!(
                        err,
                        AccessError::Data(DataError::ArityMismatch { expected, actual, .. })
                            if expected == attrs.len() && actual == key.len()
                    ),
                    "surface {i}: {err}"
                );
            }
            assert_eq!(
                source.meter_snapshot(),
                MeterSnapshot::default(),
                "surface {i}"
            );
            // The aligned probe still serves.
            let key = [Value::int(1), Value::int(2)];
            assert_eq!(
                source.fetch("friend", &two, &key).unwrap(),
                vec![tuple![1, 2]]
            );
        }
        let rel = owned.database().relation("friend").unwrap();
        assert!(raw_index_probe(rel, &two, &[Value::int(1)]).is_err());
    }

    #[test]
    fn snapshot_access_fetches_like_the_owned_surface() {
        let (store, access) = store_with_indexes();
        let view: SnapshotAccess = SnapshotAccess::new(store.pin(), access);
        let friends = view
            .fetch("friend", &["id1".into()], &[Value::int(1)])
            .unwrap();
        assert_eq!(friends.len(), 2);
        let snap = view.meter_snapshot();
        assert_eq!(snap.index_probes, 1);
        assert_eq!(snap.tuples_fetched, 2);
        // Membership probes are always allowed.
        assert!(view.contains("friend", tuple![2, 3].values()).unwrap());
        assert!(!view.contains("friend", tuple![9, 9].values()).unwrap());
        // Unauthorised probes are rejected.
        assert!(matches!(
            view.fetch("visit", &["id".into()], &[Value::int(1)]),
            Err(AccessError::NoConstraint { .. })
        ));
        assert!(view.can_fetch("person", &["id".into()]));
        assert!(!view.can_fetch("visit", &["id".into()]));
        assert!(matches!(
            view.full_scan("friend"),
            Err(AccessError::FullScanNotAllowed(_))
        ));
    }

    #[test]
    fn forked_views_share_the_version_but_not_the_meter() {
        let (store, access) = store_with_indexes();
        let view: SnapshotAccess = SnapshotAccess::new(store.pin(), access);
        let forked = view.fork();
        forked
            .fetch("friend", &["id1".into()], &[Value::int(1)])
            .unwrap();
        assert_eq!(forked.meter_snapshot().index_probes, 1);
        assert_eq!(view.meter_snapshot().index_probes, 0);
        assert!(Arc::ptr_eq(view.snapshot(), forked.snapshot()));
    }

    #[test]
    fn pinned_views_ignore_later_commits() {
        let (store, access) = store_with_indexes();
        let pinned: SnapshotAccess = SnapshotAccess::new(store.pin(), access.clone());
        store
            .commit(si_data::Delta::new().insert("friend", tuple![1, 4]))
            .unwrap();
        let fresh: SnapshotAccess = SnapshotAccess::new(store.pin(), access);
        let old = pinned
            .fetch("friend", &["id1".into()], &[Value::int(1)])
            .unwrap();
        let new = fresh
            .fetch("friend", &["id1".into()], &[Value::int(1)])
            .unwrap();
        assert_eq!(old.len(), 2);
        assert_eq!(new.len(), 3);
    }

    #[test]
    fn shared_meter_backed_view_aggregates_across_threads() {
        let (store, access) = store_with_indexes();
        let view: SnapshotAccess<SharedMeter> =
            SnapshotAccess::with_meter(store.pin(), access, SharedMeter::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let view = &view;
                s.spawn(move || {
                    view.fetch("friend", &["id1".into()], &[Value::int(1)])
                        .unwrap();
                });
            }
        });
        assert_eq!(view.meter_snapshot().index_probes, 4);
        assert_eq!(view.meter_snapshot().tuples_fetched, 8);
    }
}
