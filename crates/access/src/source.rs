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
//! ## The positional primitive
//!
//! Every fetch is resolved against the database schema *once*, into a
//! [`ResolvedProbe`]: the relation's id and name, the positions pushed into
//! the index probe, the positions left to the residual filter, and the time
//! charged.  A planner resolves its probes at plan time; the per-request
//! primitives then take the resolved probe plus a key and do no name or
//! string work:
//!
//! * [`AccessSource::for_each_via`] hands every tuple that survives the
//!   residual filter to a callback as a `&Tuple` borrowed from storage — no
//!   tuple is cloned and no result vector is built, which is what keeps a
//!   bounded read's allocations independent of the tuples it fetches;
//! * [`AccessSource::fetch_embedded_via`] and [`AccessSource::contains_at`]
//!   are the embedded enumeration and the membership probe.
//!
//! The name-addressed [`AccessSource::fetch`], [`AccessSource::fetch_via`],
//! [`AccessSource::fetch_embedded`] and [`AccessSource::contains`] are
//! resolve-then-probe wrappers over them, for callers that hold attribute
//! names and want owned rows.  The callback may do anything, including
//! probing the same relation again: index probes hold no lock while it runs.
//!
//! A probe whose key differs in length from its attribute list is rejected
//! with [`si_data::DataError::ArityMismatch`] rather than silently
//! truncated.

use crate::constraint::AccessConstraint;
use crate::embedded::EmbeddedConstraint;
use crate::indexed::AccessError;
use crate::schema::AccessSchema;
use si_data::{
    AccessMeter, DataError, Database, DatabaseSchema, DatabaseSnapshot, MeterSink, MeterSnapshot,
    Relation, Tuple, Value,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A fetch resolved against a database schema ahead of any key: which
/// relation it reads, which positions form the index key, which are checked
/// afterwards, and what it is charged.
///
/// The constraint's pushed-down attribute set (a plain constraint's `X`, an
/// embedded constraint's `from`) forms the index key; bound attributes
/// outside it become positional post-filter equalities.  Charging (and, for
/// the sharded surfaces, routing) is defined on this one split, which is
/// what keeps `ShardedAccess`'s *mirror accounting* exactly equal to the
/// unsharded surfaces: both run the same split, the same per-relation probe
/// and the same charge points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedProbe {
    /// The relation's id in the schema the probe was resolved against (see
    /// [`DatabaseSchema::relation_id`]).
    pub relation: usize,
    /// The relation's name.
    pub relation_name: String,
    /// Positions pushed into the index probe, in key order.
    pub pushed: Vec<usize>,
    /// Positions checked by the residual filter, in key order after
    /// [`ResolvedProbe::pushed`].
    pub residual: Vec<usize>,
    /// Time units charged per probe.
    pub time: u64,
}

impl ResolvedProbe {
    /// Resolves a probe of `relation` on the attributes `attrs`, pushing the
    /// ones in `pushed` into the index and charging `time` per probe.
    ///
    /// Returns the probe and its key order: entry `i` is the index into
    /// `attrs` of the attribute whose value goes at key position `i`
    /// (pushed positions first, then residual ones).
    pub fn resolve<A: AsRef<str>>(
        schema: &DatabaseSchema,
        relation: &str,
        pushed: &[String],
        time: u64,
        attrs: &[A],
    ) -> Result<(ResolvedProbe, Vec<usize>), AccessError> {
        let id = schema.relation_id(relation)?;
        let rel_schema = schema.relation_at(id).expect("resolved id is in range");
        let mut probe = ResolvedProbe {
            relation: id,
            relation_name: relation.to_owned(),
            pushed: Vec::new(),
            residual: Vec::new(),
            time,
        };
        let (mut pushed_order, mut residual_order) = (Vec::new(), Vec::new());
        for (i, a) in attrs.iter().enumerate() {
            let a = a.as_ref();
            let position = rel_schema.position_of(a)?;
            if pushed.iter().any(|p| p == a) {
                probe.pushed.push(position);
                pushed_order.push(i);
            } else {
                probe.residual.push(position);
                residual_order.push(i);
            }
        }
        pushed_order.extend(residual_order);
        Ok((probe, pushed_order))
    }
}

/// Resolves a name-addressed probe against `schema` and lays `key` out in
/// the probe's key order: the one step every name wrapper shares.
fn resolve_named(
    schema: &DatabaseSchema,
    relation: &str,
    pushed: &[String],
    time: u64,
    attrs: &[String],
    key: &[Value],
) -> Result<(ResolvedProbe, Vec<Value>), AccessError> {
    check_key_len(relation, attrs.len(), key.len())?;
    let (probe, order) = ResolvedProbe::resolve(schema, relation, pushed, time, attrs)?;
    let key = order.iter().map(|&i| key[i]).collect();
    Ok((probe, key))
}

/// Rejects a probe key whose length differs from the attributes it binds,
/// before anything is charged.
fn check_key_len(relation: &str, expected: usize, actual: usize) -> Result<(), AccessError> {
    if expected == actual {
        return Ok(());
    }
    Err(AccessError::Data(DataError::ArityMismatch {
        relation: relation.to_owned(),
        expected,
        actual,
    }))
}

/// A resolved probe paired with one key, split into its index part and
/// residual part — the decomposition every [`AccessSource`] surface
/// charges and routes on.
#[derive(Debug)]
pub(crate) struct ProbeSplit<'a> {
    probe: &'a ResolvedProbe,
    index_key: &'a [Value],
    filter_key: &'a [Value],
}

/// Runs an index probe on `positions = key` against one relation, handing
/// each match to `f`: `for_each_eq`, or — for no positions, where the
/// constraint bounds the whole relation — a (bounded) iteration.
fn index_probe(rel: &Relation, positions: &[usize], key: &[Value], f: &mut dyn FnMut(&Tuple)) {
    if positions.is_empty() {
        rel.iter().for_each(f);
    } else {
        rel.for_each_eq(positions, key, f);
    }
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
    check_key_len(rel.name(), attrs.len(), key.len())?;
    let positions = rel.schema().positions_of(attrs)?;
    let mut out = Vec::new();
    index_probe(rel, &positions, key, &mut |t| out.push(t.clone()));
    Ok(out)
}

impl<'a> ProbeSplit<'a> {
    /// Pairs `probe` with `key` (laid out in the probe's key order),
    /// rejecting a key of the wrong length.
    pub(crate) fn new(probe: &'a ResolvedProbe, key: &'a [Value]) -> Result<Self, AccessError> {
        let expected = probe.pushed.len() + probe.residual.len();
        check_key_len(&probe.relation_name, expected, key.len())?;
        let (index_key, filter_key) = key.split_at(probe.pushed.len());
        Ok(ProbeSplit {
            probe,
            index_key,
            filter_key,
        })
    }

    /// Runs the index part against one relation, handing each raw
    /// (pre-residual) match to `f` (see [`raw_index_probe`]).
    pub(crate) fn for_each(&self, rel: &Relation, f: &mut dyn FnMut(&Tuple)) {
        index_probe(rel, self.index_positions(), self.index_key, f);
    }

    /// The pushed-down positions, in probe order.
    pub(crate) fn index_positions(&self) -> &[usize] {
        &self.probe.pushed
    }

    /// The pushed-down key, aligned with [`ProbeSplit::index_positions`].
    pub(crate) fn index_key(&self) -> &[Value] {
        self.index_key
    }

    /// The value the pushed-down part binds at `position`, if any — what a
    /// sharded surface routes on.
    pub(crate) fn index_value(&self, position: usize) -> Option<Value> {
        let i = self.index_positions().iter().position(|&p| p == position)?;
        Some(self.index_key[i])
    }

    /// The value the residual filter requires at `position`, if any.
    pub(crate) fn filter_value(&self, position: usize) -> Option<Value> {
        let i = self.probe.residual.iter().position(|&p| p == position)?;
        Some(self.filter_key[i])
    }

    /// Applies the residual filter.
    pub(crate) fn residual_keeps(&self, tuple: &Tuple) -> bool {
        let mut residual = self.probe.residual.iter().zip(self.filter_key);
        residual.all(|(&p, v)| tuple.get(p) == Some(v))
    }

    /// A plain fetch's charging: one probe and the probe's time, then every
    /// raw tuple `probe` delivers (pre-residual), of which those passing the
    /// residual filter reach `f`.
    pub(crate) fn metered_fetch(
        &self,
        meter: &dyn MeterSink,
        f: &mut dyn FnMut(&Tuple),
        probe: impl FnOnce(&mut dyn FnMut(&Tuple)) -> Result<(), AccessError>,
    ) -> Result<(), AccessError> {
        meter.add_probe();
        meter.add_time(self.probe.time);
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

    /// An embedded fetch's charging and tail: one probe and the probe's
    /// time, then the raw tuples `probe` delivers are residual-filtered,
    /// projected onto `positions` and deduplicated in arrival order; the
    /// distinct projections are what is charged.
    pub(crate) fn metered_embedded(
        &self,
        meter: &dyn MeterSink,
        positions: &[usize],
        probe: impl FnOnce(&mut dyn FnMut(&Tuple)) -> Result<(), AccessError>,
    ) -> Result<Vec<Tuple>, AccessError> {
        meter.add_probe();
        meter.add_time(self.probe.time);
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
/// declaration order via `min_by_key`).  A planner that resolves embedded
/// probes ahead of time selects with this same function.
pub fn best_embedded<'a>(
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

/// The error a probe of a relation id the storage does not have reports.
pub(crate) fn unknown_relation(name: &str) -> AccessError {
    AccessError::Data(DataError::UnknownRelation(name.to_owned()))
}

/// Storage-agnostic access-schema-mediated retrieval.
///
/// Implementors provide relation lookup, the access schema and a meter; the
/// provided methods implement the paper's fetch semantics on top (and are
/// the *only* retrieval primitives bounded executors may use).  Surfaces
/// without a single local relation (sharded, replicated) override the
/// positional primitives — [`AccessSource::for_each_via`],
/// [`AccessSource::fetch_embedded_via`], [`AccessSource::contains_at`] — and
/// [`AccessSource::full_scan`] instead.
pub trait AccessSource {
    /// The database schema of the underlying instance.
    fn db_schema(&self) -> &DatabaseSchema;

    /// The access schema authorising fetches.
    fn access_schema(&self) -> &AccessSchema;

    /// Looks up a relation of the underlying instance.
    fn source_relation(&self, name: &str) -> Result<&Relation, AccessError>;

    /// Looks up the relation with id `relation` (named `name`) — by name
    /// unless the storage is laid out by id.
    fn source_relation_at(&self, relation: usize, name: &str) -> Result<&Relation, AccessError> {
        let _ = relation;
        self.source_relation(name)
    }

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

    /// Runs a resolved plain-constraint probe with `key` (laid out in the
    /// probe's key order) and hands every matching tuple to `f`, borrowed
    /// from storage — the borrowing primitive every other fetch collects
    /// over.  Charged exactly like [`crate::AccessIndexedDatabase::fetch_via`].
    fn for_each_via(
        &self,
        probe: &ResolvedProbe,
        key: &[Value],
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<(), AccessError> {
        let split = ProbeSplit::new(probe, key)?;
        let rel = self.source_relation_at(probe.relation, &probe.relation_name)?;
        split.metered_fetch(self.meter_sink(), f, |raw| {
            split.for_each(rel, raw);
            Ok(())
        })
    }

    /// Runs a resolved embedded-constraint probe with `key` and returns the
    /// distinct projections of the matches onto `onto` (positions), in
    /// arrival order.  Charged exactly like
    /// [`crate::AccessIndexedDatabase::fetch_embedded`].
    fn fetch_embedded_via(
        &self,
        probe: &ResolvedProbe,
        key: &[Value],
        onto: &[usize],
    ) -> Result<Vec<Tuple>, AccessError> {
        let split = ProbeSplit::new(probe, key)?;
        let rel = self.source_relation_at(probe.relation, &probe.relation_name)?;
        split.metered_embedded(self.meter_sink(), onto, |raw| {
            split.for_each(rel, raw);
            Ok(())
        })
    }

    /// Membership probe on the relation with id `relation` (named `name`):
    /// is the tuple with exactly `values` in it?  Always permitted; charged
    /// as one probe fetching at most one tuple.
    fn contains_at(
        &self,
        relation: usize,
        name: &str,
        values: &[Value],
    ) -> Result<bool, AccessError> {
        let rel = self.source_relation_at(relation, name)?;
        let meter = self.meter_sink();
        meter.add_probe();
        meter.add_time(1);
        let found = rel.contains_values(values);
        if found {
            meter.add_tuples(1);
        }
        Ok(found)
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
    /// (chosen by a planner), collecting owned rows: resolves the probe,
    /// then collects over [`AccessSource::for_each_via`].
    /// See [`crate::AccessIndexedDatabase::fetch_via`].
    fn fetch_via(
        &self,
        constraint: &AccessConstraint,
        relation: &str,
        attrs: &[String],
        key: &[Value],
    ) -> Result<Vec<Tuple>, AccessError> {
        debug_assert_eq!(constraint.relation, relation);
        let (probe, key) = resolve_named(
            self.db_schema(),
            relation,
            &constraint.on,
            constraint.time,
            attrs,
            key,
        )?;
        let mut out = Vec::new();
        self.for_each_via(&probe, &key, &mut |t| out.push(t.clone()))?;
        Ok(out)
    }

    /// Fetches the projection `π_onto(σ_{attrs = key}(relation))` through an
    /// embedded constraint: selects it, resolves the probe, then runs
    /// [`AccessSource::fetch_embedded_via`].  See
    /// [`crate::AccessIndexedDatabase::fetch_embedded`].
    fn fetch_embedded(
        &self,
        relation: &str,
        attrs: &[String],
        key: &[Value],
        onto: &[String],
    ) -> Result<Vec<Tuple>, AccessError> {
        let constraint = best_embedded(self.access_schema(), relation, attrs, onto)?;
        let positions = self.db_schema().relation(relation)?.positions_of(onto)?;
        let (probe, key) = resolve_named(
            self.db_schema(),
            relation,
            &constraint.from,
            constraint.time,
            attrs,
            key,
        )?;
        self.fetch_embedded_via(&probe, &key, &positions)
    }

    /// Membership probe: is the tuple with exactly `values` in `relation`?
    /// Always permitted; charged as one probe fetching at most one tuple.
    /// Takes the value slice so callers need not build a [`Tuple`].
    /// See [`crate::AccessIndexedDatabase::contains`].
    fn contains(&self, relation: &str, values: &[Value]) -> Result<bool, AccessError> {
        let id = self.db_schema().relation_id(relation)?;
        self.contains_at(id, relation, values)
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

/// A pinned snapshot version wrapped with an access schema and a
/// per-request meter.
///
/// Both the snapshot and the access schema are held by `Arc`, so a
/// `SnapshotAccess` is cheap to create — one per request.  Charging stays
/// on a thread-local sink (no atomics on the fetch path); callers
/// aggregate the per-request [`MeterSnapshot`]s afterwards, e.g. into a
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

    fn source_relation_at(&self, relation: usize, name: &str) -> Result<&Relation, AccessError> {
        self.snapshot
            .relation_at(relation)
            .ok_or_else(|| unknown_relation(name))
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
    fn a_resolved_probe_serves_every_surface_and_may_nest() {
        let (db, access) = db_with_indexes();
        let owned = crate::AccessIndexedDatabase::new(db.clone(), access.clone()).unwrap();
        let snapshot: SnapshotAccess = SnapshotAccess::new(
            SnapshotStore::new(db.clone()).pin(),
            Arc::new(access.clone()),
        );
        let partition = si_data::PartitionMap::new().with("friend", "id1");
        let sharded_store = si_data::ShardedSnapshotStore::new(db, partition, 2).unwrap();
        let sharded: crate::ShardedAccess =
            crate::ShardedAccess::new(sharded_store.pin(), Arc::new(access.clone()));
        let surfaces: [&dyn AccessSource; 3] = [&owned, &snapshot, &sharded];

        // friend probed on (id2, id1) through the id1 constraint: id1 is
        // pushed into the index, id2 is a residual filter, and the key is
        // laid out pushed-first.
        let constraint = access.constraints_on("friend").next().unwrap().clone();
        let attrs = ["id2".to_string(), "id1".to_string()];
        let (probe, order) = ResolvedProbe::resolve(
            &social_schema(),
            "friend",
            &constraint.on,
            constraint.time,
            &attrs,
        )
        .unwrap();
        assert_eq!(probe.relation, 0);
        assert_eq!(
            (probe.pushed.as_slice(), probe.residual.as_slice()),
            (&[0][..], &[1][..])
        );
        assert_eq!(order, vec![1, 0]);
        let key = [Value::int(1), Value::int(3)];
        for (i, source) in surfaces.into_iter().enumerate() {
            let mut hits = Vec::new();
            source
                .for_each_via(&probe, &key, &mut |t| {
                    // The callback may probe the same relation again.
                    let back = source.fetch("friend", &["id1".into()], &[t[1]]).unwrap();
                    hits.push((t.clone(), back.len()));
                })
                .unwrap();
            assert_eq!(hits, vec![(tuple![1, 3], 0)], "surface {i}");
            // Named and positional probes agree, charges included.
            let before = source.meter_snapshot();
            let named = source
                .fetch_via(
                    &constraint,
                    "friend",
                    &attrs,
                    &[Value::int(3), Value::int(1)],
                )
                .unwrap();
            assert_eq!(named, vec![tuple![1, 3]], "surface {i}");
            let charged = source.meter_snapshot().since(&before);
            assert_eq!((charged.index_probes, charged.tuples_fetched), (1, 2));
            // A key of the wrong length is refused before anything is charged.
            let before = source.meter_snapshot();
            assert!(matches!(
                source.for_each_via(&probe, &key[..1], &mut |_| {}),
                Err(AccessError::Data(DataError::ArityMismatch {
                    expected: 2,
                    actual: 1,
                    ..
                }))
            ));
            assert_eq!(source.meter_snapshot(), before, "surface {i}");
        }
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
