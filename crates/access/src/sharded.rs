//! Access-mediated retrieval over a hash-partitioned store:
//! [`ShardedAccess`], the [`AccessSource`] of the sharded serving layer.
//!
//! A `ShardedAccess` wraps a pinned [`ShardedSnapshotView`] (one coherent
//! vector of per-shard snapshot versions) with an access schema and a
//! per-worker meter, and implements every retrieval primitive by *routing*
//! or *scatter-gathering*:
//!
//! * **Routed probe** — when the probe pushes an equality on the relation's
//!   partition column into the shard-local index probe (the partition
//!   attribute is in the chosen constraint's `X` and bound to a literal
//!   value), every matching tuple lives on one shard by construction, and
//!   that single shard-local probe returns *exactly* the set the unsharded
//!   probe would.  One shard touched, identical accounting.
//! * **Fan-out** — any other fetch probes every shard and concatenates the
//!   results **in shard order** (shard 0 first).  The union of per-shard
//!   matches is exactly the unsharded match set, so the charged tuple count
//!   is identical; only the sequence order may differ (a deterministic
//!   permutation — compare answers sorted).
//!
//! Either way a logical fetch is charged exactly like its unsharded
//! counterpart — one probe, the constraint's time, the matching tuples —
//! so [`si_data::MeterSnapshot`] accounting (and, through it, the paper's fetch
//! bound `M`) stays exact under sharding.  This "mirror" accounting is what
//! the shard-equivalence harness pins down.
//!
//! ## Routing never guesses
//!
//! Routing fires **only** on a literal equality on the partition column
//! that is part of the pushed-down index probe.  A partition column bound
//! any other way — through an *embedded* constraint's output projection, or
//! as a residual post-filter outside the constraint's `X` — falls back to
//! fan-out: the value either does not exist at probe time (embedded
//! outputs enumerate many partition values) or is not part of the index
//! probe (routing would fetch a shard-local subset and break the mirror
//! accounting).  Wrong-single-shard routing is therefore impossible by
//! construction; the regression tests pin the embedded case.
//!
//! ## Pruned routing (opt-in)
//!
//! [`ShardedAccess::with_pruned_routing`] additionally routes on a literal
//! partition-column equality that the chosen constraint relegates to the
//! residual filter.  Answers are still exact — all result tuples carry the
//! partition value, hence live on the routed shard — but the shard-local
//! index probe now fetches a *subset* of what the unsharded probe would, so
//! accounting is `≤` rather than `=`.  On skewed instances this is the
//! payoff of partitioning (the `sharding` bench measures it); keep it off
//! when exact unsharded-mirror accounting is required.

use crate::indexed::AccessError;
use crate::schema::AccessSchema;
use crate::source::{unknown_relation, AccessSource, ProbeSplit, ResolvedProbe};
use si_data::{
    AccessMeter, DatabaseSchema, MeterSink, Relation, ShardedSnapshotView, Tuple, Value,
};
use std::cell::Cell;
use std::sync::Arc;

/// A pinned sharded view wrapped with an access schema and a per-request
/// meter: the sharded counterpart of [`crate::SnapshotAccess`].
///
/// Cheap to create (two `Arc` clones) per request.  The meter is charged
/// once per *logical* fetch — mirror
/// accounting — while [`ShardedAccess::routed_fetches`] /
/// [`ShardedAccess::fanned_fetches`] count how often routing pinned a
/// single shard versus scattering.
#[derive(Debug)]
pub struct ShardedAccess<M: MeterSink = AccessMeter> {
    view: Arc<ShardedSnapshotView>,
    access: Arc<AccessSchema>,
    meter: M,
    prune_residual_routes: bool,
    routed: Cell<u64>,
    fanned: Cell<u64>,
}

impl<M: MeterSink + Default> ShardedAccess<M> {
    /// Wraps a pinned sharded view with an access schema and a fresh meter.
    pub fn new(view: Arc<ShardedSnapshotView>, access: Arc<AccessSchema>) -> Self {
        ShardedAccess {
            view,
            access,
            meter: M::default(),
            prune_residual_routes: false,
            routed: Cell::new(0),
            fanned: Cell::new(0),
        }
    }
}

impl<M: MeterSink> ShardedAccess<M> {
    /// Wraps a pinned sharded view with an explicit meter.
    pub fn with_meter(view: Arc<ShardedSnapshotView>, access: Arc<AccessSchema>, meter: M) -> Self {
        ShardedAccess {
            view,
            access,
            meter,
            prune_residual_routes: false,
            routed: Cell::new(0),
            fanned: Cell::new(0),
        }
    }

    /// Enables (or disables) pruned routing: literal partition-column
    /// equalities in the *residual* filter also pin the shard.  Answers stay
    /// exact; the meter may charge fewer tuples than the unsharded probe
    /// (see the module docs).
    pub fn with_pruned_routing(mut self, prune: bool) -> Self {
        self.prune_residual_routes = prune;
        self
    }

    /// The pinned sharded view.
    pub fn view(&self) -> &Arc<ShardedSnapshotView> {
        &self.view
    }

    /// The meter charged by this view's fetches.
    pub fn meter(&self) -> &M {
        &self.meter
    }

    /// Logical fetches served by a single routed shard.
    pub fn routed_fetches(&self) -> u64 {
        self.routed.get()
    }

    /// Logical fetches scattered across every shard.
    pub fn fanned_fetches(&self) -> u64 {
        self.fanned.get()
    }

    /// The shard pinned by a literal equality on the partition column of
    /// relation `relation` (an id) within the split's pushed-down part;
    /// `None` forces fan-out.
    fn route_for(&self, relation: usize, split: &ProbeSplit) -> Option<usize> {
        let position = self.view.partition_position_at(relation)?;
        let value = split.index_value(position)?;
        Some(self.view.route_partition_value(value))
    }

    /// Pruned-mode fallback: a literal partition-column equality in the
    /// residual filter also pins the shard.
    fn route_for_residual(&self, relation: usize, split: &ProbeSplit) -> Option<usize> {
        if !self.prune_residual_routes {
            return None;
        }
        let position = self.view.partition_position_at(relation)?;
        let value = split.filter_value(position)?;
        Some(self.view.route_partition_value(value))
    }

    /// Runs the shared [`ProbeSplit`] index probe over the routed shard, or
    /// over every shard in shard order when `target` is `None`, handing each
    /// raw (pre-residual) match to `f` borrowed from its shard.
    fn probe_shards(
        &self,
        probe: &ResolvedProbe,
        target: Option<usize>,
        split: &ProbeSplit,
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<(), AccessError> {
        let shards = match target {
            Some(shard) => {
                self.routed.set(self.routed.get() + 1);
                std::slice::from_ref(self.view.shard(shard))
            }
            None => {
                self.fanned.set(self.fanned.get() + 1);
                self.view.shards()
            }
        };
        for shard in shards {
            let rel = shard
                .relation_at(probe.relation)
                .ok_or_else(|| unknown_relation(&probe.relation_name))?;
            split.for_each(rel, f);
        }
        Ok(())
    }
}

impl<M: MeterSink> AccessSource for ShardedAccess<M> {
    fn db_schema(&self) -> &DatabaseSchema {
        self.view.schema()
    }

    fn access_schema(&self) -> &AccessSchema {
        &self.access
    }

    /// There is no single relation behind a sharded source; every retrieval
    /// primitive is overridden to route or fan out instead.
    fn source_relation(&self, name: &str) -> Result<&Relation, AccessError> {
        Err(AccessError::ShardedRelation(name.to_owned()))
    }

    fn meter_sink(&self) -> &dyn MeterSink {
        &self.meter
    }

    fn for_each_via(
        &self,
        probe: &ResolvedProbe,
        key: &[Value],
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<(), AccessError> {
        // The exact split and charging the unsharded surface runs (shared
        // code, so the mirror-accounting guarantee cannot drift): the
        // constraint's X forms the index key, the rest is a residual filter,
        // and the pre-residual count is charged once for the logical fetch.
        let split = ProbeSplit::new(probe, key)?;
        let target = self
            .route_for(probe.relation, &split)
            .or_else(|| self.route_for_residual(probe.relation, &split));
        split.metered_fetch(&self.meter, f, |raw| {
            self.probe_shards(probe, target, &split, raw)
        })
    }

    fn fetch_embedded_via(
        &self,
        probe: &ResolvedProbe,
        key: &[Value],
        onto: &[usize],
    ) -> Result<Vec<Tuple>, AccessError> {
        // Probe split and the projection/dedup tail are the unsharded
        // surface's own helpers, so the charged count is the unsharded one
        // by construction.
        let split = ProbeSplit::new(probe, key)?;

        // Route only on the pushed-down `X[ ]` part.  The partition column
        // appearing in `onto` binds it through the constraint's *output* —
        // its values vary per matching tuple, so single-shard routing would
        // be wrong; fan out (this is the regression the tests pin).
        let target = self.route_for(probe.relation, &split);

        // Cross-shard fetch in shard-merged order, then one dedup over the
        // merged sequence: the deduplicated *set* equals the unsharded one.
        split.metered_embedded(&self.meter, onto, |raw| {
            self.probe_shards(probe, target, &split, raw)
        })
    }

    fn contains_at(
        &self,
        relation: usize,
        name: &str,
        values: &[Value],
    ) -> Result<bool, AccessError> {
        // A membership probe carries the whole tuple, so its home shard is
        // always known — routing is total here.
        let shard = self.view.route_tuple_at(relation, values);
        let rel = self
            .view
            .shard(shard)
            .relation_at(relation)
            .ok_or_else(|| unknown_relation(name))?;
        self.meter.add_probe();
        self.meter.add_time(1);
        let found = rel.contains_values(values);
        if found {
            self.meter.add_tuples(1);
        }
        Ok(found)
    }

    fn full_scan(&self, relation: &str) -> Result<Vec<Tuple>, AccessError> {
        if !self.access.has_full_access(relation) {
            return Err(AccessError::FullScanNotAllowed(relation.to_owned()));
        }
        let mut out = Vec::new();
        for shard in self.view.shards() {
            out.extend(shard.relation(relation)?.iter().cloned());
        }
        self.meter.add_scan();
        self.meter.add_tuples(out.len() as u64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::facebook_access_schema;
    use crate::{AccessConstraint, AccessIndexedDatabase, EmbeddedConstraint, SnapshotAccess};
    use si_data::schema::social_schema;
    use si_data::{tuple, Database, Delta, PartitionMap, ShardedSnapshotStore, SnapshotStore};

    fn social_partition() -> PartitionMap {
        PartitionMap::new()
            .with("person", "id")
            .with("friend", "id1")
            .with("visit", "id")
            .with("restr", "rid")
    }

    fn db() -> Database {
        let mut db = Database::empty(social_schema());
        for i in 0..30i64 {
            let city = if i % 3 == 0 { "NYC" } else { "LA" };
            db.insert("person", tuple![i, format!("p{i}"), city])
                .unwrap();
            db.insert("friend", tuple![0, i]).unwrap();
            db.insert("visit", tuple![i, 100 + i % 5]).unwrap();
        }
        for r in 0..5i64 {
            db.insert("restr", tuple![100 + r, format!("r{r}"), "NYC", "A"])
                .unwrap();
        }
        db
    }

    fn access() -> AccessSchema {
        facebook_access_schema(5000)
            .with(AccessConstraint::new("visit", &["id"], 1000, 1))
            .with(AccessConstraint::new("visit", &["rid"], 1000, 1))
    }

    fn declared(mut db: Database, access: &AccessSchema) -> Database {
        for (relation, attrs) in access.required_indexes() {
            if !attrs.is_empty() {
                db.declare_index(&relation, &attrs).unwrap();
            }
        }
        db
    }

    fn sharded(shards: usize) -> (Arc<ShardedSnapshotView>, Arc<AccessSchema>) {
        let access = access();
        let store =
            ShardedSnapshotStore::new(declared(db(), &access), social_partition(), shards).unwrap();
        (store.pin(), Arc::new(access))
    }

    fn unsharded() -> (SnapshotStore, Arc<AccessSchema>) {
        let access = access();
        (
            SnapshotStore::new(declared(db(), &access)),
            Arc::new(access),
        )
    }

    #[test]
    fn routed_probe_touches_one_shard_and_mirrors_unsharded_accounting() {
        let (store, access) = unsharded();
        let plain: SnapshotAccess = SnapshotAccess::new(store.pin(), access.clone());
        let expect = plain
            .fetch("friend", &["id1".into()], &[Value::int(0)])
            .unwrap();
        for shards in [1usize, 2, 3, 8] {
            let (view, access) = sharded(shards);
            let sa: ShardedAccess = ShardedAccess::new(view, access);
            let got = sa
                .fetch("friend", &["id1".into()], &[Value::int(0)])
                .unwrap();
            // id1 is the partition column and part of the constraint's X:
            // routed, and the fetched set equals the unsharded one exactly
            // (same order too — one shard holds every id1 = 0 tuple).
            assert_eq!(got, expect, "shards={shards}");
            assert_eq!(sa.routed_fetches(), 1);
            assert_eq!(sa.fanned_fetches(), 0);
            assert_eq!(
                sa.meter_snapshot(),
                plain.meter_snapshot(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn unbound_partition_column_fans_out_with_identical_counts() {
        let (store, access) = unsharded();
        let plain: SnapshotAccess = SnapshotAccess::new(store.pin(), access.clone());
        // visit is partitioned by id; probing by rid cannot route.
        let mut expect = plain
            .fetch("visit", &["rid".into()], &[Value::int(100)])
            .unwrap();
        expect.sort();
        for shards in [2usize, 3, 8] {
            let (view, access) = sharded(shards);
            let sa: ShardedAccess = ShardedAccess::new(view, access);
            let mut got = sa
                .fetch("visit", &["rid".into()], &[Value::int(100)])
                .unwrap();
            got.sort();
            assert_eq!(got, expect, "shards={shards}");
            assert_eq!(sa.fanned_fetches(), 1);
            assert_eq!(sa.routed_fetches(), 0);
            assert_eq!(
                sa.meter_snapshot(),
                plain.meter_snapshot(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn residual_partition_equality_fans_out_under_mirror_accounting() {
        // Probe visit by (rid, id) through the rid constraint: id — the
        // partition column — is a residual literal, not part of the index
        // probe.  Mirror mode must fan out and charge exactly what the
        // unsharded probe charges (all rid matches, filtered afterwards).
        let (store, access) = unsharded();
        let plain: SnapshotAccess = SnapshotAccess::new(store.pin(), access.clone());
        let rid_constraint = access
            .constraints()
            .iter()
            .find(|c| c.relation == "visit" && c.is_on(&["rid".into()]))
            .unwrap()
            .clone();
        let attrs = ["rid".to_string(), "id".to_string()];
        let key = [Value::int(100), Value::int(5)];
        let expect = plain
            .fetch_via(&rid_constraint, "visit", &attrs, &key)
            .unwrap();
        let (view, access2) = sharded(4);
        let sa: ShardedAccess = ShardedAccess::new(view.clone(), access2.clone());
        let mut got = sa
            .fetch_via(&rid_constraint, "visit", &attrs, &key)
            .unwrap();
        got.sort();
        let mut expect_sorted = expect.clone();
        expect_sorted.sort();
        assert_eq!(got, expect_sorted);
        assert_eq!(sa.fanned_fetches(), 1);
        assert_eq!(sa.meter_snapshot(), plain.meter_snapshot());

        // Pruned mode routes on the residual literal: same answers, fewer
        // (or equal) tuples fetched, one shard touched.
        let pruned: ShardedAccess = ShardedAccess::new(view, access2).with_pruned_routing(true);
        let mut got = pruned
            .fetch_via(&rid_constraint, "visit", &attrs, &key)
            .unwrap();
        got.sort();
        assert_eq!(got, expect_sorted);
        assert_eq!(pruned.routed_fetches(), 1);
        assert!(pruned.meter_snapshot().tuples_fetched <= plain.meter_snapshot().tuples_fetched);
    }

    #[test]
    fn embedded_output_binding_of_the_partition_column_fans_out() {
        // Embedded constraint visit(rid → id): the partition column (id) is
        // bound through the constraint's *output*, not a literal — a router
        // that trusted "id is bound" would pick one shard and silently lose
        // every projection living elsewhere.  The fetch must fan out.
        let access = Arc::new(access().with_embedded(EmbeddedConstraint::new(
            "visit",
            &["rid"],
            &["id"],
            1000,
            1,
        )));
        let store = SnapshotStore::new(declared(db(), &access));
        let plain: SnapshotAccess = SnapshotAccess::new(store.pin(), access.clone());
        let mut expect = plain
            .fetch_embedded("visit", &["rid".into()], &[Value::int(100)], &["id".into()])
            .unwrap();
        expect.sort();
        assert!(expect.len() > 1, "needs projections on several shards");
        for shards in [2usize, 3, 8] {
            let sharded_store =
                ShardedSnapshotStore::new(declared(db(), &access), social_partition(), shards)
                    .unwrap();
            let sa: ShardedAccess = ShardedAccess::new(sharded_store.pin(), access.clone());
            let mut got = sa
                .fetch_embedded("visit", &["rid".into()], &[Value::int(100)], &["id".into()])
                .unwrap();
            got.sort();
            assert_eq!(got, expect, "shards={shards}");
            assert_eq!(sa.fanned_fetches(), 1, "must fan out, never route");
            assert_eq!(sa.routed_fetches(), 0);
            // Cross-shard dedup keeps the charged count identical.
            assert_eq!(
                sa.meter_snapshot(),
                plain.meter_snapshot(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn contains_routes_to_the_home_shard() {
        let (view, access) = sharded(3);
        let sa: ShardedAccess = ShardedAccess::new(view, access);
        assert!(sa.contains("friend", tuple![0, 7].values()).unwrap());
        assert!(!sa.contains("friend", tuple![9, 9].values()).unwrap());
        let snap = sa.meter_snapshot();
        assert_eq!(snap.index_probes, 2);
        assert_eq!(snap.tuples_fetched, 1);
    }

    #[test]
    fn full_scan_merges_in_shard_order_and_is_gated() {
        let (view, access) = sharded(3);
        let sa: ShardedAccess = ShardedAccess::new(view.clone(), access.clone());
        assert!(matches!(
            sa.full_scan("friend"),
            Err(AccessError::FullScanNotAllowed(_))
        ));
        let open = Arc::new((*access).clone().with_full_access("friend"));
        let sa: ShardedAccess = ShardedAccess::new(view, open);
        let rows = sa.full_scan("friend").unwrap();
        assert_eq!(rows.len(), 30);
        let snap = sa.meter_snapshot();
        assert_eq!(snap.full_scans, 1);
        assert_eq!(snap.tuples_fetched, 30);
        // Shard-order merge: shard 0's rows first (each shard preserves the
        // global insertion order restricted to itself).
        let view = sa.view();
        let mut expected = Vec::new();
        for shard in view.shards() {
            expected.extend(shard.relation("friend").unwrap().iter().cloned());
        }
        assert_eq!(rows, expected);
    }

    #[test]
    fn source_relation_is_refused_and_full_instance_absent() {
        let (view, access) = sharded(2);
        let sa: ShardedAccess = ShardedAccess::new(view, access);
        assert!(matches!(
            sa.source_relation("friend"),
            Err(AccessError::ShardedRelation(_))
        ));
        assert!(sa.full_instance().is_none());
    }

    #[test]
    fn pinned_views_ignore_later_commits() {
        let access = access();
        let store =
            ShardedSnapshotStore::new(declared(db(), &access), social_partition(), 3).unwrap();
        let access = Arc::new(access);
        let pinned: ShardedAccess = ShardedAccess::new(store.pin(), access.clone());
        store
            .commit(Delta::new().insert("friend", tuple![0, 99]))
            .unwrap();
        let fresh: ShardedAccess = ShardedAccess::new(store.pin(), access);
        let old = pinned
            .fetch("friend", &["id1".into()], &[Value::int(0)])
            .unwrap();
        let new = fresh
            .fetch("friend", &["id1".into()], &[Value::int(0)])
            .unwrap();
        assert_eq!(old.len(), 30);
        assert_eq!(new.len(), 31);
        assert_eq!(pinned.view().epoch(), 0);
        assert_eq!(fresh.view().epoch(), 1);
    }

    #[test]
    fn sharded_fetch_agrees_with_the_owned_surface() {
        // The same queries against AccessIndexedDatabase (the original
        // owned surface) and an 8-way sharded view: identical sets and
        // identical accounting.
        let access = access();
        let adb = AccessIndexedDatabase::new(db(), access.clone()).unwrap();
        let (view, shared_access) = sharded(8);
        let sa: ShardedAccess = ShardedAccess::new(view, shared_access);
        for p in 0..10i64 {
            let mut a = adb
                .fetch("visit", &["id".into()], &[Value::int(p)])
                .unwrap();
            let mut b = sa.fetch("visit", &["id".into()], &[Value::int(p)]).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "p={p}");
        }
        assert_eq!(adb.meter_snapshot(), sa.meter_snapshot());
    }
}
