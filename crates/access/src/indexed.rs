//! Access-schema-aware retrieval.
//!
//! [`AccessIndexedDatabase`] wraps a [`Database`] together with an
//! [`AccessSchema`] and *declares* the indexes promised by the schema; each
//! index is materialised lazily by its first probe (see
//! [`si_data::IndexPool`]) and maintained incrementally from then on.  The
//! `fetch*` methods are the *only* retrieval primitives the bounded
//! (scale-independent) executors in `si-core` are allowed to use.
//!
//! ## Fetch-bound semantics
//!
//! Every fetch is authorised by an access constraint `(R, X, N, T)` and is
//! charged to the built-in [`AccessMeter`] as follows:
//!
//! * what the index returns for the `X`-part of the probe — i.e.
//!   `σ_{X=a̅}(R)`, at most `N` tuples on conforming data — is charged as
//!   `tuples_fetched`, *before* any residual equalities on
//!   `attrs ∖ X` are applied as a post-filter (the paper's accounting:
//!   the post-filter runs on already-fetched tuples);
//! * one `index_probe` and `T` `time_units` are charged per probe,
//!   regardless of how many tuples come back;
//! * membership probes ([`AccessIndexedDatabase::contains`]) charge one
//!   probe and at most one tuple;
//! * full scans are permitted only for relations the schema declares fully
//!   accessible (the `A(R)` augmentation of Proposition 5.5) and charge
//!   every tuple of the relation.
//!
//! Consequently a plan's measured `tuples_fetched` is bounded by the
//! [`crate::StaticCost`] accumulated from its constraints — the invariant
//! the experiments check — while the *expected* charge is what
//! [`crate::CostModel`] estimates from statistics.

use crate::conformance::{violations, Violation};
use crate::constraint::AccessConstraint;
use crate::schema::AccessSchema;
use crate::source::AccessSource;
use si_data::{
    AccessMeter, DataError, Database, DatabaseSchema, MeterSink, MeterSnapshot, Relation, Tuple,
    Value,
};
use std::fmt;

/// Errors raised by access-schema-mediated retrieval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// Underlying storage error.
    Data(DataError),
    /// No access constraint authorises the requested fetch.
    NoConstraint {
        /// Relation that was probed.
        relation: String,
        /// Attributes the caller could bind.
        bound_attributes: Vec<String>,
    },
    /// A full scan was requested on a relation without full access.
    FullScanNotAllowed(String),
    /// The database does not conform to the access schema.
    NotConforming(Vec<Violation>),
    /// The relation is hash-partitioned across shards: no single-relation
    /// surface exists (raised by [`crate::ShardedAccess::source_relation`];
    /// every retrieval primitive routes or fans out instead).
    ShardedRelation(String),
    /// A remote shard server could not serve the probe (wire failure,
    /// disconnected replica, malformed reply).
    Remote(String),
    /// The remote replica does not retain the epoch the read was pinned to:
    /// it is either ahead of replication (`requested > newest`) or past the
    /// replica's retention window (`requested < oldest`).
    EpochUnavailable {
        /// The epoch the read was pinned to.
        requested: u64,
        /// Oldest epoch the replica still retains.
        oldest: u64,
        /// Newest epoch the replica has applied.
        newest: u64,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::Data(e) => write!(f, "{e}"),
            AccessError::NoConstraint {
                relation,
                bound_attributes,
            } => write!(
                f,
                "no access constraint on `{relation}` is usable with bound attributes {bound_attributes:?}"
            ),
            AccessError::FullScanNotAllowed(r) => {
                write!(f, "relation `{r}` is not declared fully accessible")
            }
            AccessError::NotConforming(vs) => {
                write!(f, "database does not conform to the access schema ({} violations)", vs.len())
            }
            AccessError::ShardedRelation(r) => {
                write!(
                    f,
                    "relation `{r}` is hash-partitioned across shards; use the fetch primitives, \
                     not the single-relation surface"
                )
            }
            AccessError::Remote(msg) => {
                write!(f, "remote shard fetch failed: {msg}")
            }
            AccessError::EpochUnavailable {
                requested,
                oldest,
                newest,
            } => write!(
                f,
                "epoch {requested} unavailable on replica (retains [{oldest}, {newest}])"
            ),
        }
    }
}

impl std::error::Error for AccessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccessError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for AccessError {
    fn from(e: DataError) -> Self {
        AccessError::Data(e)
    }
}

/// A database wrapped with an access schema, its indexes and an access meter.
#[derive(Debug)]
pub struct AccessIndexedDatabase {
    db: Database,
    access: AccessSchema,
    meter: AccessMeter,
}

impl AccessIndexedDatabase {
    /// Declares the indexes required by `access` over `db`.
    ///
    /// Declaration is O(1) per index: the physical structures are built by
    /// their first probe and maintained incrementally afterwards, so wrapping
    /// a large instance costs nothing for constraints that are never probed.
    ///
    /// This does *not* require `db` to conform to `access`; use
    /// [`AccessIndexedDatabase::checked`] for the conforming variant.
    pub fn new(mut db: Database, access: AccessSchema) -> Result<Self, AccessError> {
        access.validate(db.schema()).map_err(AccessError::Data)?;
        for (relation, attrs) in access.required_indexes() {
            if !attrs.is_empty() {
                db.declare_index(&relation, &attrs)?;
            }
        }
        Ok(AccessIndexedDatabase {
            db,
            access,
            meter: AccessMeter::new(),
        })
    }

    /// Like [`AccessIndexedDatabase::new`] but additionally verifies that the
    /// database conforms to the access schema.
    pub fn checked(db: Database, access: AccessSchema) -> Result<Self, AccessError> {
        let vs = violations(&db, &access);
        if !vs.is_empty() {
            return Err(AccessError::NotConforming(vs));
        }
        AccessIndexedDatabase::new(db, access)
    }

    /// The underlying database (read only).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database.  Intended for applying
    /// updates; indexes are maintained by the relation layer.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The access schema.
    pub fn access_schema(&self) -> &AccessSchema {
        &self.access
    }

    /// The access meter charged by every fetch.
    pub fn meter(&self) -> &AccessMeter {
        &self.meter
    }

    /// Collects a fresh statistics snapshot of the wrapped database, ready
    /// for [`crate::CostModel`] / the cost-based planner.  Statistics reads
    /// are not metered: they are planning-time work, not data access.
    pub fn statistics(&self) -> si_data::stats::DatabaseStats {
        self.db.statistics()
    }

    /// Snapshot of the meter (convenience).
    pub fn meter_snapshot(&self) -> MeterSnapshot {
        self.meter.snapshot()
    }

    /// Resets the access meter.
    pub fn reset_meter(&self) {
        self.meter.reset()
    }

    /// Fetches `σ_{attrs = key}(relation)` through an access constraint.
    ///
    /// The fetch is authorised by the tightest constraint whose input
    /// attribute set `X` is contained in `attrs`; the index is probed on `X`
    /// and the remaining `attrs ∖ X` equalities are applied as a post-filter
    /// (all fetched tuples are charged to the meter, matching the paper's
    /// accounting where `σ_{X=a̅}(R)` is what the index returns).
    pub fn fetch(
        &self,
        relation: &str,
        attrs: &[String],
        key: &[Value],
    ) -> Result<Vec<Tuple>, AccessError> {
        AccessSource::fetch(self, relation, attrs, key)
    }

    /// Fetches through a specific constraint (used by planners that have
    /// already chosen their constraint).
    pub fn fetch_via(
        &self,
        constraint: &AccessConstraint,
        relation: &str,
        attrs: &[String],
        key: &[Value],
    ) -> Result<Vec<Tuple>, AccessError> {
        AccessSource::fetch_via(self, constraint, relation, attrs, key)
    }

    /// Fetches the projection `π_onto(σ_{attrs = key}(relation))` through an
    /// embedded constraint.  The distinct projected tuples are what is
    /// charged to the meter, matching the embedded constraint's bound.
    pub fn fetch_embedded(
        &self,
        relation: &str,
        attrs: &[String],
        key: &[Value],
        onto: &[String],
    ) -> Result<Vec<Tuple>, AccessError> {
        AccessSource::fetch_embedded(self, relation, attrs, key, onto)
    }

    /// Membership probe: is the tuple with exactly `values` in `relation`?
    ///
    /// Providing values for *all* attributes identifies at most one tuple, so
    /// a membership probe is always permitted regardless of the access
    /// schema (this is the implicit "controlled by all its free variables"
    /// reading used in Example 4.1 of the paper).  It is charged as one probe
    /// fetching at most one tuple.
    pub fn contains(&self, relation: &str, values: &[Value]) -> Result<bool, AccessError> {
        AccessSource::contains(self, relation, values)
    }

    /// Retrieves the entire relation.  Only allowed when the access schema
    /// grants full access to it (Proposition 5.5's `A(R)`).
    pub fn full_scan(&self, relation: &str) -> Result<Vec<Tuple>, AccessError> {
        AccessSource::full_scan(self, relation)
    }

    /// Does any constraint authorise probing `relation` when `attrs` can be
    /// bound?
    pub fn can_fetch(&self, relation: &str, attrs: &[String]) -> bool {
        AccessSource::can_fetch(self, relation, attrs)
    }
}

impl AccessSource for AccessIndexedDatabase {
    fn db_schema(&self) -> &DatabaseSchema {
        self.db.schema()
    }

    fn access_schema(&self) -> &AccessSchema {
        &self.access
    }

    fn source_relation(&self, name: &str) -> Result<&Relation, AccessError> {
        self.db.relation(name).map_err(AccessError::Data)
    }

    fn meter_sink(&self) -> &dyn MeterSink {
        &self.meter
    }

    fn full_instance(&self) -> Option<&Database> {
        Some(&self.db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::AccessConstraint;
    use crate::embedded::EmbeddedConstraint;
    use crate::schema::facebook_access_schema;
    use si_data::schema::{social_schema, social_schema_dated};
    use si_data::tuple;

    fn db() -> Database {
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
        db.insert_all(
            "restr",
            vec![
                tuple![10, "sushi", "NYC", "A"],
                tuple![11, "taco", "LA", "B"],
            ],
        )
        .unwrap();
        db.insert_all("visit", vec![tuple![2, 10], tuple![3, 11]])
            .unwrap();
        db
    }

    #[test]
    fn construction_declares_indexes_and_first_probe_builds_them() {
        let adb = AccessIndexedDatabase::new(db(), facebook_access_schema(5000)).unwrap();
        let friend = adb.database().relation("friend").unwrap();
        assert!(friend.has_index(&["id1".into()]));
        assert!(!friend.has_built_index(&["id1".into()]));
        assert!(adb
            .database()
            .relation("person")
            .unwrap()
            .has_index(&["id".into()]));
        adb.fetch("friend", &["id1".into()], &[Value::int(1)])
            .unwrap();
        assert!(adb
            .database()
            .relation("friend")
            .unwrap()
            .has_built_index(&["id1".into()]));
    }

    #[test]
    fn statistics_snapshot_is_unmetered() {
        let adb = AccessIndexedDatabase::new(db(), facebook_access_schema(5000)).unwrap();
        let stats = adb.statistics();
        assert_eq!(stats.relation("friend").unwrap().rows, 3);
        assert_eq!(adb.meter_snapshot().tuples_fetched, 0);
        assert_eq!(adb.meter_snapshot().index_probes, 0);
    }

    #[test]
    fn checked_rejects_non_conforming_databases() {
        let a = AccessSchema::new().with(AccessConstraint::new("friend", &["id1"], 1, 1));
        let err = AccessIndexedDatabase::checked(db(), a).unwrap_err();
        assert!(matches!(err, AccessError::NotConforming(_)));
        assert!(err.to_string().contains("violations"));
        let ok = AccessIndexedDatabase::checked(db(), facebook_access_schema(5000));
        assert!(ok.is_ok());
    }

    #[test]
    fn construction_validates_schema() {
        let a = AccessSchema::new().with(AccessConstraint::new("enemy", &["x"], 1, 1));
        assert!(matches!(
            AccessIndexedDatabase::new(db(), a),
            Err(AccessError::Data(_))
        ));
    }

    #[test]
    fn fetch_uses_constraint_and_charges_meter() {
        let adb = AccessIndexedDatabase::new(db(), facebook_access_schema(5000)).unwrap();
        let friends = adb
            .fetch("friend", &["id1".into()], &[Value::int(1)])
            .unwrap();
        assert_eq!(friends.len(), 2);
        let snap = adb.meter_snapshot();
        assert_eq!(snap.index_probes, 1);
        assert_eq!(snap.tuples_fetched, 2);
        assert_eq!(snap.time_units, 2);
        assert_eq!(snap.full_scans, 0);
    }

    #[test]
    fn fetch_with_extra_bound_attributes_post_filters() {
        let adb = AccessIndexedDatabase::new(db(), facebook_access_schema(5000)).unwrap();
        // Bind both id and city; only the id constraint exists, city filters.
        let people = adb
            .fetch(
                "person",
                &["id".into(), "city".into()],
                &[Value::int(3), Value::str("LA")],
            )
            .unwrap();
        assert_eq!(people, vec![tuple![3, "cat", "LA"]]);
        let none = adb
            .fetch(
                "person",
                &["id".into(), "city".into()],
                &[Value::int(3), Value::str("NYC")],
            )
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn fetch_without_constraint_is_rejected() {
        let adb = AccessIndexedDatabase::new(db(), facebook_access_schema(5000)).unwrap();
        let err = adb
            .fetch("visit", &["id".into()], &[Value::int(2)])
            .unwrap_err();
        assert!(matches!(err, AccessError::NoConstraint { .. }));
        assert!(err.to_string().contains("visit"));
        assert!(!adb.can_fetch("visit", &["id".into()]));
        assert!(adb.can_fetch("friend", &["id1".into()]));
    }

    #[test]
    fn empty_x_constraint_allows_bounded_whole_relation_fetch() {
        let a = facebook_access_schema(5000).with(AccessConstraint::new("restr", &[], 100, 1));
        let adb = AccessIndexedDatabase::new(db(), a).unwrap();
        let all = adb.fetch("restr", &[], &[]).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(adb.meter().tuples_fetched(), 2);
    }

    #[test]
    fn full_scan_requires_grant() {
        let a = facebook_access_schema(5000).with_full_access("visit");
        let adb = AccessIndexedDatabase::new(db(), a).unwrap();
        assert_eq!(adb.full_scan("visit").unwrap().len(), 2);
        assert_eq!(adb.meter().full_scans(), 1);
        assert!(matches!(
            adb.full_scan("friend"),
            Err(AccessError::FullScanNotAllowed(_))
        ));
    }

    #[test]
    fn fetch_embedded_projects_and_bounds() {
        let mut d = Database::empty(social_schema_dated());
        d.insert_all(
            "visit",
            vec![
                tuple![1, 10, 2013, 5, 1],
                tuple![1, 11, 2013, 5, 1],
                tuple![2, 12, 2013, 6, 2],
                tuple![1, 13, 2014, 1, 1],
            ],
        )
        .unwrap();
        let a = AccessSchema::new().with_embedded(EmbeddedConstraint::new(
            "visit",
            &["yy"],
            &["mm", "dd"],
            366,
            3,
        ));
        let adb = AccessIndexedDatabase::new(d, a).unwrap();
        let dates = adb
            .fetch_embedded(
                "visit",
                &["yy".into()],
                &[Value::int(2013)],
                &["mm".into(), "dd".into()],
            )
            .unwrap();
        // (5,1) appears twice but is projected once; (6,2) once.
        assert_eq!(dates.len(), 2);
        assert_eq!(adb.meter().tuples_fetched(), 2);
        assert_eq!(adb.meter().time_units(), 3);

        // Requesting attributes outside the constraint's Y fails.
        assert!(adb
            .fetch_embedded(
                "visit",
                &["yy".into()],
                &[Value::int(2013)],
                &["rid".into()],
            )
            .is_err());
        // Requesting with unbound X fails.
        assert!(adb
            .fetch_embedded("visit", &["mm".into()], &[Value::int(5)], &["dd".into()])
            .is_err());
    }

    #[test]
    fn membership_probe_is_always_allowed_and_cheap() {
        let adb = AccessIndexedDatabase::new(db(), facebook_access_schema(5000)).unwrap();
        assert!(adb.contains("visit", tuple![2, 10].values()).unwrap());
        assert!(!adb.contains("visit", tuple![9, 9].values()).unwrap());
        let snap = adb.meter_snapshot();
        assert_eq!(snap.index_probes, 2);
        assert_eq!(snap.tuples_fetched, 1);
        assert!(adb.contains("enemy", tuple![1].values()).is_err());
    }

    #[test]
    fn meter_reset_and_snapshot() {
        let adb = AccessIndexedDatabase::new(db(), facebook_access_schema(5000)).unwrap();
        adb.fetch("friend", &["id1".into()], &[Value::int(1)])
            .unwrap();
        assert!(adb.meter_snapshot().tuples_fetched > 0);
        adb.reset_meter();
        assert_eq!(adb.meter_snapshot().tuples_fetched, 0);
    }

    #[test]
    fn database_mut_allows_updates_and_keeps_indexes() {
        let mut adb = AccessIndexedDatabase::new(db(), facebook_access_schema(5000)).unwrap();
        adb.database_mut().insert("friend", tuple![1, 4]).unwrap();
        let friends = adb
            .fetch("friend", &["id1".into()], &[Value::int(1)])
            .unwrap();
        assert_eq!(friends.len(), 3);
    }
}
