//! Epoch-versioned, copy-on-write database snapshots.
//!
//! Concurrent query serving needs readers that never block on writers and a
//! writer that never waits for readers.  This module provides the storage
//! side of that contract:
//!
//! * [`DatabaseSnapshot`] — one immutable version of an instance.  Relations
//!   are held behind [`Arc`]s, so a snapshot is a vector of `Arc<Relation>`
//!   in schema order plus an epoch number; cloning a snapshot handle is a reference-count
//!   bump, never a data copy.
//! * [`SnapshotStore`] — the versioned store.  Readers *pin* the current
//!   version ([`SnapshotStore::pin`], a read-lock-and-`Arc`-clone) and keep
//!   answering against it for as long as they hold the `Arc`, regardless of
//!   what the writer does.  A writer *commits* a [`Delta`]
//!   ([`SnapshotStore::commit`]), which builds the next version **copy on
//!   write at relation granularity**: only relations the delta touches are
//!   cloned; untouched relations — including any secondary indexes already
//!   built inside their [`crate::IndexPool`]s — are shared with the previous
//!   version by `Arc`.
//!
//! The result is snapshot isolation in the database sense: every reader sees
//! exactly the version it pinned (the paper's `D` is fixed for the duration
//! of a bounded evaluation, which is what makes its fetch bound `M`
//! meaningful), and `D ⊕ ∆D` becomes the next version atomically.
//!
//! Lazily-declared indexes still work on a pinned snapshot: index
//! materialisation happens behind `&Relation` (see [`crate::IndexPool`]),
//! so the first probe of a declared index builds it *inside the shared
//! relation*, and every later version that does not touch the relation
//! reuses the built index for free.

use crate::database::Database;
use crate::delta::Delta;
use crate::relation::Relation;
use crate::schema::DatabaseSchema;
use crate::stats::DatabaseStats;
use crate::Result;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One immutable, epoch-stamped version of a database instance.
///
/// Obtained from a [`SnapshotStore`]; shared between readers as
/// `Arc<DatabaseSnapshot>`.  The relations are `Arc<Relation>`s so that
/// successive versions share every relation the intervening deltas did not
/// touch, laid out in schema (name) order so a relation id from
/// [`DatabaseSchema::relation_id`] addresses one directly
/// ([`DatabaseSnapshot::relation_at`]).
#[derive(Debug, Clone)]
pub struct DatabaseSnapshot {
    epoch: u64,
    schema: DatabaseSchema,
    /// Indexed by relation id.
    relations: Vec<Arc<Relation>>,
}

impl DatabaseSnapshot {
    /// Wraps a database as version 0, taking ownership of its relations
    /// without copying them.
    pub fn from_database(db: Database) -> Self {
        let (schema, relations) = db.into_parts();
        // A database holds exactly its schema's relations, and both iterate
        // in name order.
        debug_assert!(relations
            .keys()
            .map(String::as_str)
            .eq(schema.relations().map(|r| r.name())));
        DatabaseSnapshot {
            epoch: 0,
            schema,
            relations: relations.into_values().map(Arc::new).collect(),
        }
    }

    /// Wraps a database as an arbitrary epoch — the crash-recovery path,
    /// where the replayed state must resume at its pre-crash version number
    /// rather than restart at 0.
    pub fn from_database_at(db: Database, epoch: u64) -> Self {
        let mut snap = DatabaseSnapshot::from_database(db);
        snap.epoch = epoch;
        snap
    }

    /// The version number: 0 for the initial snapshot, +1 per commit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The database schema (identical across all versions of a store).
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        Ok(&self.relations[self.schema.relation_id(name)?])
    }

    /// The relation with id `id` (see [`DatabaseSchema::relation_id`]), if
    /// there is one: the probe path's lookup, with no name resolution.
    pub fn relation_at(&self, id: usize) -> Option<&Relation> {
        self.relations.get(id).map(Arc::as_ref)
    }

    /// Iterates over all relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter().map(Arc::as_ref)
    }

    /// Total number of tuples, `|D|` of this version.
    pub fn size(&self) -> usize {
        self.relations().map(Relation::len).sum()
    }

    /// Collects fresh statistics for this version (planning-time work; see
    /// [`DatabaseStats`]).
    pub fn statistics(&self) -> DatabaseStats {
        DatabaseStats::collect_relations(self.relations())
    }

    /// True iff this version and `other` share the physical storage of
    /// `relation` (no intervening delta touched it).
    pub fn shares_relation(&self, other: &DatabaseSnapshot, relation: &str) -> bool {
        let (Ok(a), Ok(b)) = (
            self.schema.relation_id(relation),
            other.schema.relation_id(relation),
        ) else {
            return false;
        };
        Arc::ptr_eq(&self.relations[a], &other.relations[b])
    }

    /// Materialises the snapshot as an owned [`Database`] (a deep copy of
    /// every relation).  Intended for single-threaded cross-checks and
    /// tests, not for the serving path.
    pub fn to_database(&self) -> Database {
        Database::from_parts(
            self.schema.clone(),
            self.relations()
                .map(|rel| (rel.name().to_owned(), rel.clone()))
                .collect(),
        )
    }

    /// Applies `delta`, producing the next version.
    ///
    /// Validation mirrors [`Delta::validate`] (deletions must be present,
    /// insertions absent, `∆D ∩ ∇D = ∅`), evaluated against *this* version.
    /// Only relations the delta touches are cloned; their built indexes are
    /// cloned with them and then maintained incrementally through the
    /// insert/remove paths, so no index is ever rebuilt from scratch.
    pub fn apply(&self, delta: &Delta) -> Result<DatabaseSnapshot> {
        // Validate against the current version first so that a bad delta
        // leaves nothing half-cloned.
        delta.validate_relations(|name| self.relation(name))?;

        let mut relations = self.relations.clone();
        for (name, rd) in delta.iter() {
            if rd.is_empty() {
                continue;
            }
            let id = self
                .schema
                .relation_id(name)
                .expect("validated above: relation exists");
            let entry = &mut relations[id];
            // Copy-on-write: this is the only per-commit data copy, and it is
            // confined to the touched relation.
            let rel = Arc::make_mut(entry);
            for t in &rd.deletions {
                rel.remove(t);
            }
            for t in &rd.insertions {
                rel.insert(t.clone())?;
            }
        }
        Ok(DatabaseSnapshot {
            epoch: self.epoch + 1,
            schema: self.schema.clone(),
            relations,
        })
    }
}

impl fmt::Display for DatabaseSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot[epoch={} |D|={}]", self.epoch, self.size())
    }
}

/// The epoch-versioned snapshot store: many pinning readers, one committing
/// writer at a time.
///
/// * [`SnapshotStore::pin`] is the reader path: a brief read lock to clone
///   the current `Arc`.  Readers then run entirely against their pinned
///   version — commits can neither block them nor change what they see.
/// * [`SnapshotStore::commit`] is the writer path: the (possibly expensive)
///   copy-on-write application runs under a dedicated writer mutex *without*
///   holding the readers' lock; only the final pointer swap takes the write
///   lock.  Concurrent committers serialise on the writer mutex, so no
///   update is ever lost.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<DatabaseSnapshot>>,
    writer: Mutex<()>,
    pins: AtomicU64,
}

impl SnapshotStore {
    /// Creates a store whose version 0 is `db`.
    pub fn new(db: Database) -> Self {
        SnapshotStore {
            current: RwLock::new(Arc::new(DatabaseSnapshot::from_database(db))),
            writer: Mutex::new(()),
            pins: AtomicU64::new(0),
        }
    }

    /// Creates a store whose current version is `db` **at** `epoch` — the
    /// crash-recovery constructor ([`DatabaseSnapshot::from_database_at`]).
    /// Subsequent commits continue from `epoch + 1`.
    pub fn restore(db: Database, epoch: u64) -> Self {
        SnapshotStore {
            current: RwLock::new(Arc::new(DatabaseSnapshot::from_database_at(db, epoch))),
            writer: Mutex::new(()),
            pins: AtomicU64::new(0),
        }
    }

    /// Pins the current version: a cheap `Arc` clone the caller can hold for
    /// as long as it likes.
    pub fn pin(&self) -> Arc<DatabaseSnapshot> {
        self.pins.fetch_add(1, Ordering::Relaxed);
        self.current
            .read()
            .expect("snapshot store poisoned")
            .clone()
    }

    /// Number of [`SnapshotStore::pin`] calls over the store's lifetime —
    /// each is one read-lock acquisition on the serving path, the
    /// contention signal the batching experiments report (a shared-fetch
    /// group pins once for the whole group).
    pub fn pins(&self) -> u64 {
        self.pins.load(Ordering::Relaxed)
    }

    /// The current epoch (equals `self.pin().epoch()`).
    pub fn epoch(&self) -> u64 {
        self.pin().epoch()
    }

    /// Applies `delta` to the latest version and installs the result as the
    /// new current version, returning it.
    ///
    /// On error the store is left unchanged.  Commits from multiple threads
    /// are serialised; readers are only blocked for the pointer swap.
    pub fn commit(&self, delta: &Delta) -> Result<Arc<DatabaseSnapshot>> {
        let _writer = self.writer.lock().expect("snapshot writer poisoned");
        let base = self.pin();
        let next = Arc::new(base.apply(delta)?);
        *self.current.write().expect("snapshot store poisoned") = next.clone();
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DataError;
    use crate::schema::social_schema;
    use crate::{tuple, Value};

    fn base() -> Database {
        let mut db = Database::empty(social_schema());
        db.insert_all(
            "person",
            vec![tuple![1, "ann", "NYC"], tuple![2, "bob", "LA"]],
        )
        .unwrap();
        db.insert_all("friend", vec![tuple![1, 2], tuple![2, 1]])
            .unwrap();
        db
    }

    #[test]
    fn version_zero_mirrors_the_database() {
        let snap = DatabaseSnapshot::from_database(base());
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.size(), 4);
        assert_eq!(snap.relation("friend").unwrap().len(), 2);
        assert!(snap.relation("enemy").is_err());
        let id = snap.schema().relation_id("friend").unwrap();
        assert!(std::ptr::eq(
            snap.relation_at(id).unwrap(),
            snap.relation("friend").unwrap()
        ));
        assert!(snap.relation_at(snap.schema().len()).is_none());
        assert_eq!(snap.statistics().total_rows(), 4);
        assert!(snap.to_string().contains("epoch=0"));
        assert_eq!(snap.to_database().size(), 4);
    }

    #[test]
    fn apply_is_copy_on_write_at_relation_granularity() {
        let v0 = DatabaseSnapshot::from_database(base());
        let mut delta = Delta::new();
        delta.insert("friend", tuple![1, 3]);
        let v1 = v0.apply(&delta).unwrap();
        assert_eq!(v1.epoch(), 1);
        // Touched relation diverges…
        assert!(!v0.shares_relation(&v1, "friend"));
        assert_eq!(v0.relation("friend").unwrap().len(), 2);
        assert_eq!(v1.relation("friend").unwrap().len(), 3);
        // …untouched relations are physically shared.
        assert!(v0.shares_relation(&v1, "person"));
    }

    #[test]
    fn built_indexes_carry_across_versions() {
        let mut db = base();
        db.ensure_index("person", &["city".into()]).unwrap();
        db.ensure_index("friend", &["id1".into()]).unwrap();
        let v0 = DatabaseSnapshot::from_database(db);
        let mut delta = Delta::new();
        delta
            .insert("friend", tuple![1, 3])
            .delete("friend", tuple![2, 1]);
        let v1 = v0.apply(&delta).unwrap();
        // The shared person index is still built (no copy happened)…
        assert!(v1
            .relation("person")
            .unwrap()
            .has_built_index(&["city".into()]));
        // …and the cloned friend index was maintained incrementally.
        let (rows, used) = v1
            .relation("friend")
            .unwrap()
            .select_eq(&["id1".into()], &[Value::int(1)])
            .unwrap();
        assert!(used);
        assert_eq!(rows, vec![tuple![1, 2], tuple![1, 3]]);
        let (rows, _) = v1
            .relation("friend")
            .unwrap()
            .select_eq(&["id1".into()], &[Value::int(2)])
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn lazily_declared_index_built_on_a_snapshot_is_shared_forward() {
        let mut db = base();
        db.declare_index("person", &["city".into()]).unwrap();
        let v0 = DatabaseSnapshot::from_database(db);
        assert!(!v0
            .relation("person")
            .unwrap()
            .has_built_index(&["city".into()]));
        // First probe builds the index behind &Relation.
        v0.relation("person")
            .unwrap()
            .select_eq(&["city".into()], &[Value::str("NYC")])
            .unwrap();
        assert!(v0
            .relation("person")
            .unwrap()
            .has_built_index(&["city".into()]));
        // A commit that does not touch person reuses the built index.
        let v1 = v0
            .apply(Delta::new().insert("friend", tuple![1, 3]))
            .unwrap();
        assert!(v0.shares_relation(&v1, "person"));
        assert!(v1
            .relation("person")
            .unwrap()
            .has_built_index(&["city".into()]));
    }

    #[test]
    fn apply_validates_like_delta_validate() {
        let v0 = DatabaseSnapshot::from_database(base());
        // Insertion of an existing tuple.
        let dup = Delta::insertions_into("friend", vec![tuple![1, 2]]);
        assert!(matches!(v0.apply(&dup), Err(DataError::InvalidUpdate(_))));
        // Deletion of a missing tuple.
        let missing = Delta::deletions_from("friend", vec![tuple![9, 9]]);
        assert!(matches!(
            v0.apply(&missing),
            Err(DataError::InvalidUpdate(_))
        ));
        // Insert/delete overlap.
        let mut overlap = Delta::new();
        overlap.delete("friend", tuple![1, 2]);
        overlap.insert("friend", tuple![1, 2]);
        assert!(matches!(
            v0.apply(&overlap),
            Err(DataError::InvalidUpdate(_))
        ));
        // Arity and unknown relation errors propagate.
        let bad = Delta::insertions_into("friend", vec![tuple![1, 2, 3]]);
        assert!(matches!(
            v0.apply(&bad),
            Err(DataError::ArityMismatch { .. })
        ));
        let unknown = Delta::insertions_into("enemy", vec![tuple![1]]);
        assert!(matches!(
            v0.apply(&unknown),
            Err(DataError::UnknownRelation(_))
        ));
    }

    #[test]
    fn store_pins_are_isolated_from_commits() {
        let store = SnapshotStore::new(base());
        let pinned = store.pin();
        assert_eq!(store.epoch(), 0);
        store
            .commit(Delta::new().insert("friend", tuple![1, 3]))
            .unwrap();
        store
            .commit(Delta::new().delete("friend", tuple![2, 1]))
            .unwrap();
        assert_eq!(store.epoch(), 2);
        // The old pin still sees version 0.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.relation("friend").unwrap().len(), 2);
        assert!(pinned.relation("friend").unwrap().contains(&tuple![2, 1]));
        // A fresh pin sees both commits.
        let now = store.pin();
        assert_eq!(now.relation("friend").unwrap().len(), 2);
        assert!(now.relation("friend").unwrap().contains(&tuple![1, 3]));
        assert!(!now.relation("friend").unwrap().contains(&tuple![2, 1]));
    }

    #[test]
    fn restore_resumes_at_the_given_epoch() {
        let store = SnapshotStore::restore(base(), 7);
        assert_eq!(store.epoch(), 7);
        assert_eq!(store.pin().size(), 4);
        store
            .commit(Delta::new().insert("friend", tuple![1, 3]))
            .unwrap();
        assert_eq!(store.epoch(), 8);
    }

    #[test]
    fn failed_commit_leaves_the_store_unchanged() {
        let store = SnapshotStore::new(base());
        let err = store.commit(&Delta::insertions_into("friend", vec![tuple![1, 2]]));
        assert!(err.is_err());
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.pin().size(), 4);
    }

    #[test]
    fn concurrent_commits_all_land() {
        let store = SnapshotStore::new(base());
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..10 {
                        let tup = tuple![100 + t, 200 + i];
                        store.commit(Delta::new().insert("friend", tup)).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.epoch(), 40);
        assert_eq!(store.pin().relation("friend").unwrap().len(), 2 + 40);
    }
}
