//! Access-mediated retrieval over *remote* shard replicas:
//! [`ReplicatedAccess`], the [`AccessSource`] of the replicated serving
//! plane.
//!
//! A `ReplicatedAccess` is [`crate::ShardedAccess`]'s transport-backed
//! twin.  Where `ShardedAccess` holds a pinned
//! [`si_data::ShardedSnapshotView`] and probes shard relations in-process,
//! `ReplicatedAccess` holds a [`PartitionRouter`] (the same routing state a
//! sharded store derives from its partition map) and a [`ShardProber`] —
//! anything that can run the raw shard-local index probe, typically a set
//! of wire clients talking to shard replica servers.
//!
//! ## The mirror split survives the wire
//!
//! The division of labour is chosen so transport-backed accounting is
//! *byte-identical* to in-process sharded accounting, not merely close:
//!
//! * The **replica** runs only [`crate::source::raw_index_probe`] — the
//!   pushed-down `select_eq` (or bounded iteration for `X = ∅`) — and
//!   returns the raw matches in shard-local order, which the primary's
//!   [`AccessSource::for_each_via`] iterates.  No residual filtering, no
//!   projection, no metering happens remotely.
//! * The **primary** (this type) does everything else exactly as
//!   `ShardedAccess` does: the `ResolvedProbe` split, routing on
//!   literal partition-column equalities in the pushed-down part, the
//!   probe/time/tuple charges at the same points, residual filtering and
//!   embedded projection-dedup on the gathered rows.
//!
//! Since both surfaces share the probe split, `raw_index_probe`, the routing
//! state and the charge points, the fetched sets and
//! [`si_data::MeterSnapshot`]s cannot drift — the replication-equivalence
//! harness pins this with the sharded harness's own workload.
//!
//! Routing decisions are made against the router, never against data, so
//! they are exactly the decisions `ShardedAccess` makes
//! ([`PartitionRouter::position`] answers the same question
//! `ShardedSnapshotView::partition_position_at` does).  Fan-out gathers in
//! shard order (shard 0 first) like the in-process surface.

use crate::indexed::AccessError;
use crate::schema::AccessSchema;
use crate::source::{unknown_relation, AccessSource, ProbeSplit, ResolvedProbe};
use si_data::{AccessMeter, DatabaseSchema, MeterSink, PartitionRouter, Relation, Tuple, Value};
use std::cell::Cell;
use std::sync::Arc;

/// The raw shard-probe surface a [`ReplicatedAccess`] gathers from — one
/// replica server per shard, behind any transport.
///
/// Implementations execute the *pushed-down* probe only (see
/// [`crate::source::raw_index_probe`]); residual filtering, projection and
/// metering stay on the primary.  Probes are pinned to the epoch the
/// implementation was created for — a replica that does not retain that
/// epoch fails the probe with [`AccessError::EpochUnavailable`] rather than
/// serving from a different version.
pub trait ShardProber {
    /// Number of shards (must equal the router's).
    fn shard_count(&self) -> usize;

    /// Runs the pushed-down index probe on one shard's pinned version,
    /// returning raw matches in shard-local order.
    fn probe(
        &self,
        shard: usize,
        relation: &str,
        attrs: &[String],
        key: &[Value],
    ) -> Result<Vec<Tuple>, AccessError>;

    /// Membership probe on one shard's pinned version.
    fn contains(&self, shard: usize, relation: &str, tuple: &Tuple) -> Result<bool, AccessError>;

    /// Full iteration of one shard's relation (the fan-out leg of a gated
    /// full scan).
    fn scan(&self, shard: usize, relation: &str) -> Result<Vec<Tuple>, AccessError>;
}

/// An epoch-pinned, transport-backed [`AccessSource`] over replicated
/// shards: the replicated counterpart of [`crate::ShardedAccess`].
///
/// Cheap to create per request (three `Arc` clones plus the prober); the
/// meter is charged once per *logical* fetch with the exact unsharded
/// amounts (mirror accounting), while [`ReplicatedAccess::routed_fetches`]
/// / [`ReplicatedAccess::fanned_fetches`] count how often routing pinned a
/// single replica versus scattering to all of them.
#[derive(Debug)]
pub struct ReplicatedAccess<P: ShardProber, M: MeterSink = AccessMeter> {
    schema: Arc<DatabaseSchema>,
    access: Arc<AccessSchema>,
    router: Arc<PartitionRouter>,
    prober: P,
    meter: M,
    prune_residual_routes: bool,
    routed: Cell<u64>,
    fanned: Cell<u64>,
}

impl<P: ShardProber, M: MeterSink + Default> ReplicatedAccess<P, M> {
    /// Wraps a prober with the routing state and schemas it serves.
    ///
    /// `router` must have been derived from the same partition map and
    /// shard count the replicas were built with — routing decisions are
    /// made here, against the router, and trusted by the replicas.
    pub fn new(
        schema: Arc<DatabaseSchema>,
        access: Arc<AccessSchema>,
        router: Arc<PartitionRouter>,
        prober: P,
    ) -> Self {
        debug_assert_eq!(router.shards(), prober.shard_count());
        ReplicatedAccess {
            schema,
            access,
            router,
            prober,
            meter: M::default(),
            prune_residual_routes: false,
            routed: Cell::new(0),
            fanned: Cell::new(0),
        }
    }
}

impl<P: ShardProber, M: MeterSink> ReplicatedAccess<P, M> {
    /// Enables (or disables) pruned routing — same contract as
    /// [`crate::ShardedAccess::with_pruned_routing`]: answers stay exact,
    /// accounting becomes `≤` the unsharded mirror.
    pub fn with_pruned_routing(mut self, prune: bool) -> Self {
        self.prune_residual_routes = prune;
        self
    }

    /// The routing state shared with the replicas.
    pub fn router(&self) -> &Arc<PartitionRouter> {
        &self.router
    }

    /// The prober behind this source.
    pub fn prober(&self) -> &P {
        &self.prober
    }

    /// The meter charged by this view's fetches.
    pub fn meter(&self) -> &M {
        &self.meter
    }

    /// Logical fetches served by a single routed replica.
    pub fn routed_fetches(&self) -> u64 {
        self.routed.get()
    }

    /// Logical fetches scattered across every replica.
    pub fn fanned_fetches(&self) -> u64 {
        self.fanned.get()
    }

    /// The shard pinned by a literal equality on `relation`'s partition
    /// column within the pushed-down probe part; `None` forces fan-out.
    /// Mirrors `ShardedAccess::route_for` decision-for-decision.
    fn route_for(&self, relation: &str, split: &ProbeSplit) -> Option<usize> {
        let position = self.router.position(relation)?;
        let value = split.index_value(position)?;
        self.router.route_value(relation, value)
    }

    /// Pruned-mode fallback: a literal partition-column equality in the
    /// residual filter also pins the shard.
    fn route_for_residual(&self, relation: &str, split: &ProbeSplit) -> Option<usize> {
        if !self.prune_residual_routes {
            return None;
        }
        let position = self.router.position(relation)?;
        let value = split.filter_value(position)?;
        self.router.route_value(relation, value)
    }

    /// Runs the pushed-down probe on the routed replica, or on every
    /// replica in shard order, concatenating the raw fetched tuples.
    fn gather_split(
        &self,
        probe: &ResolvedProbe,
        target: Option<usize>,
        split: &ProbeSplit,
    ) -> Result<Vec<Tuple>, AccessError> {
        let relation = probe.relation_name.as_str();
        let rel_schema = self
            .schema
            .relation_at(probe.relation)
            .ok_or_else(|| unknown_relation(relation))?;
        // The wire speaks attribute names; the probe resolved positions.
        let attrs: Vec<String> = split
            .index_positions()
            .iter()
            .map(|&p| rel_schema.attributes()[p].clone())
            .collect();
        let key = split.index_key();
        match target {
            Some(shard) => {
                self.routed.set(self.routed.get() + 1);
                self.prober.probe(shard, relation, &attrs, key)
            }
            None => {
                self.fanned.set(self.fanned.get() + 1);
                let mut out = Vec::new();
                for shard in 0..self.prober.shard_count() {
                    out.extend(self.prober.probe(shard, relation, &attrs, key)?);
                }
                Ok(out)
            }
        }
    }
}

impl<P: ShardProber, M: MeterSink> AccessSource for ReplicatedAccess<P, M> {
    fn db_schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    fn access_schema(&self) -> &AccessSchema {
        &self.access
    }

    /// There is no local relation behind a replicated source; every
    /// retrieval primitive is overridden to route or fan out over the wire.
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
        // The same split and charging the unsharded and sharded surfaces
        // run; the replica executes only its pushed-down part, and the
        // owned wire rows are iterated here.
        let split = ProbeSplit::new(probe, key)?;
        let relation = probe.relation_name.as_str();
        let target = self
            .route_for(relation, &split)
            .or_else(|| self.route_for_residual(relation, &split));
        split.metered_fetch(&self.meter, f, |raw| {
            self.gather_split(probe, target, &split)?
                .iter()
                .for_each(raw);
            Ok(())
        })
    }

    fn fetch_embedded_via(
        &self,
        probe: &ResolvedProbe,
        key: &[Value],
        onto: &[usize],
    ) -> Result<Vec<Tuple>, AccessError> {
        let split = ProbeSplit::new(probe, key)?;

        // Route only on the pushed-down part — an embedded output binding
        // of the partition column enumerates many partition values, so it
        // must fan out (same rule, and same regression, as ShardedAccess).
        let target = self.route_for(&probe.relation_name, &split);

        split.metered_embedded(&self.meter, onto, |raw| {
            self.gather_split(probe, target, &split)?
                .iter()
                .for_each(raw);
            Ok(())
        })
    }

    fn contains_at(
        &self,
        _relation: usize,
        name: &str,
        values: &[Value],
    ) -> Result<bool, AccessError> {
        // A membership probe carries the whole tuple: routing is total.  The
        // wire carries an owned tuple.
        let tuple = Tuple::new(values.to_vec());
        let shard = self.router.route(name, &tuple);
        self.meter.add_probe();
        self.meter.add_time(1);
        let found = self.prober.contains(shard, name, &tuple)?;
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
        for shard in 0..self.prober.shard_count() {
            out.extend(self.prober.scan(shard, relation)?);
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
    use crate::source::raw_index_probe;
    use crate::{AccessConstraint, ShardedAccess};
    use si_data::schema::social_schema;
    use si_data::{tuple, Database, PartitionMap, ShardedSnapshotStore, ShardedSnapshotView};

    /// An in-process prober over a pinned sharded view: exactly what a wire
    /// client does, minus the wire.  Used to pin `ReplicatedAccess` against
    /// `ShardedAccess` without an engine.
    struct LocalProber {
        view: Arc<ShardedSnapshotView>,
    }

    impl ShardProber for LocalProber {
        fn shard_count(&self) -> usize {
            self.view.shard_count()
        }

        fn probe(
            &self,
            shard: usize,
            relation: &str,
            attrs: &[String],
            key: &[Value],
        ) -> Result<Vec<Tuple>, AccessError> {
            raw_index_probe(self.view.shard(shard).relation(relation)?, attrs, key)
        }

        fn contains(
            &self,
            shard: usize,
            relation: &str,
            tuple: &Tuple,
        ) -> Result<bool, AccessError> {
            Ok(self.view.shard(shard).relation(relation)?.contains(tuple))
        }

        fn scan(&self, shard: usize, relation: &str) -> Result<Vec<Tuple>, AccessError> {
            Ok(self
                .view
                .shard(shard)
                .relation(relation)?
                .iter()
                .cloned()
                .collect())
        }
    }

    fn partition() -> PartitionMap {
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
        db
    }

    fn surfaces(
        shards: usize,
    ) -> (
        ShardedAccess,
        ReplicatedAccess<LocalProber>,
        Arc<ShardedSnapshotView>,
    ) {
        let access = facebook_access_schema(5000)
            .with(AccessConstraint::new("visit", &["id"], 1000, 1))
            .with(AccessConstraint::new("visit", &["rid"], 1000, 1));
        let mut db = db();
        for (relation, attrs) in access.required_indexes() {
            if !attrs.is_empty() {
                db.declare_index(&relation, &attrs).unwrap();
            }
        }
        let schema = Arc::new(db.schema().clone());
        let router = Arc::new(partition().router(&schema, shards).unwrap());
        let store = ShardedSnapshotStore::new(db, partition(), shards).unwrap();
        let view = store.pin();
        let access = Arc::new(access);
        let sharded = ShardedAccess::new(view.clone(), access.clone());
        let replicated =
            ReplicatedAccess::new(schema, access, router, LocalProber { view: view.clone() });
        (sharded, replicated, view)
    }

    #[test]
    fn replicated_fetches_mirror_sharded_exactly() {
        for shards in [1usize, 2, 3, 8] {
            let (sharded, replicated, _) = surfaces(shards);
            // Routed: id1 is friend's partition column.
            let a = sharded
                .fetch("friend", &["id1".into()], &[Value::int(0)])
                .unwrap();
            let b = replicated
                .fetch("friend", &["id1".into()], &[Value::int(0)])
                .unwrap();
            assert_eq!(a, b, "shards={shards}");
            // Fanned: probing visit by rid cannot route.
            let a = sharded
                .fetch("visit", &["rid".into()], &[Value::int(100)])
                .unwrap();
            let b = replicated
                .fetch("visit", &["rid".into()], &[Value::int(100)])
                .unwrap();
            assert_eq!(a, b, "shards={shards} (same shard-order concat)");
            assert_eq!(sharded.meter_snapshot(), replicated.meter_snapshot());
            assert_eq!(sharded.routed_fetches(), replicated.routed_fetches());
            assert_eq!(sharded.fanned_fetches(), replicated.fanned_fetches());
            assert_eq!(replicated.routed_fetches(), 1);
            assert_eq!(replicated.fanned_fetches(), 1);
        }
    }

    #[test]
    fn contains_and_scan_mirror_sharded() {
        let (sharded, replicated, _) = surfaces(3);
        assert!(replicated
            .contains("friend", tuple![0, 7].values())
            .unwrap());
        assert!(!replicated
            .contains("friend", tuple![9, 9].values())
            .unwrap());
        sharded.contains("friend", tuple![0, 7].values()).unwrap();
        sharded.contains("friend", tuple![9, 9].values()).unwrap();
        assert_eq!(sharded.meter_snapshot(), replicated.meter_snapshot());

        assert!(matches!(
            replicated.full_scan("friend"),
            Err(AccessError::FullScanNotAllowed(_))
        ));
        assert!(matches!(
            replicated.source_relation("friend"),
            Err(AccessError::ShardedRelation(_))
        ));
    }

    #[test]
    fn prober_failures_surface_as_errors_not_partial_answers() {
        struct Failing {
            down: usize,
        }
        impl ShardProber for Failing {
            fn shard_count(&self) -> usize {
                2
            }
            fn probe(
                &self,
                shard: usize,
                _relation: &str,
                _attrs: &[String],
                _key: &[Value],
            ) -> Result<Vec<Tuple>, AccessError> {
                if shard == self.down {
                    Err(AccessError::Remote("replica is down".into()))
                } else {
                    Ok(vec![tuple![0, 1]])
                }
            }
            fn contains(
                &self,
                _shard: usize,
                _relation: &str,
                _tuple: &Tuple,
            ) -> Result<bool, AccessError> {
                Err(AccessError::Remote("down".into()))
            }
            fn scan(&self, _shard: usize, _relation: &str) -> Result<Vec<Tuple>, AccessError> {
                Err(AccessError::Remote("down".into()))
            }
        }
        let access = Arc::new(facebook_access_schema(5000).with(AccessConstraint::new(
            "friend",
            &["id2"],
            5000,
            1,
        )));
        let schema = Arc::new(social_schema());
        let router = Arc::new(partition().router(&schema, 2).unwrap());
        // The replica that is *not* home to `friend` id1 = 0 goes down, so
        // the routed probe below still reaches a healthy shard.
        let home = router.route_value("friend", Value::int(0)).unwrap();
        let replicated: ReplicatedAccess<Failing> =
            ReplicatedAccess::new(schema, access, router, Failing { down: 1 - home });
        // visit is probed by rid → fan-out → shard 1's failure poisons the
        // whole fetch (never a silent partial answer)...
        let err = replicated
            .fetch("friend", &["id2".into()], &[Value::int(1)])
            .unwrap_err();
        assert!(matches!(err, AccessError::Remote(_)), "{err}");
        // ...while a routed probe to the healthy shard still serves.
        let ok = replicated
            .fetch("friend", &["id1".into()], &[Value::int(0)])
            .unwrap();
        assert_eq!(ok.len(), 1);
    }
}
