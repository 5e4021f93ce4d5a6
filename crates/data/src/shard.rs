//! Hash-partitioned sharded storage: N epoch-versioned stores behind one
//! routing function.
//!
//! The paper's bounded plans fetch a small, data-independent slice of `D` —
//! which means the slice can live anywhere.  This module partitions `D`
//! itself: a [`ShardedSnapshotStore`] holds `N` ordinary
//! [`SnapshotStore`]s, each owning a hash-partition of every relation, with
//! a [`PartitionMap`] declaring the *partition column* per relation.  A
//! tuple lives on the shard selected by the stable hash of its partition
//! column's value ([`shard_of_value`]); relations without a declared
//! partition column are spread by the hash of the whole tuple (they can
//! still be fetched, just never routed to a single shard).
//!
//! One shard is the unsharded case, and it is cheap: the source database
//! becomes shard 0 as it is (no copy), and routing answers shard 0 without
//! hashing.  `si-engine` runs every engine on this store; an unsharded
//! engine is the 1-shard store under an empty [`PartitionMap`].
//!
//! ## Commit / epoch contract
//!
//! A cross-shard [`ShardedSnapshotStore::commit`] splits the [`Delta`] by
//! route ([`ShardedSnapshotStore::split`]) and commits shard-locally —
//! **every** shard commits on every global commit, empty sub-deltas
//! included, so each shard's local epoch always equals the global epoch.
//! All sub-deltas are validated against the current shard versions *before*
//! any shard commits, so a bad delta leaves every shard untouched.  Readers
//! pin a [`ShardedSnapshotView`] — one coherent vector of per-shard
//! [`DatabaseSnapshot`]s at a common epoch — and keep answering against it
//! regardless of later commits, exactly like the single-store contract.
//!
//! ## Merge-order contract
//!
//! Consumers that fan a retrieval across shards (see
//! `si_access::ShardedAccess`) concatenate per-shard results **in shard
//! order** (shard 0 first).  Within a shard, insertion order follows the
//! global insertion order restricted to that shard, so the merged sequence
//! is a deterministic permutation of the unsharded one: answer/witness
//! *sets*, tuple counts and meters are identical to unsharded execution,
//! while sequence order may differ (compare sorted).
//!
//! ## Statistics
//!
//! Planning happens once, globally: [`ShardedSnapshotView::statistics`]
//! merges per-shard relations into exactly the [`DatabaseStats`] the
//! unsharded instance would produce (row counts summed, per-column distinct
//! counts deduplicated across shards), so the cost-based planner picks the
//! same plan either way.  [`ShardedSnapshotStore::shard_stats`] exposes the
//! per-shard balance.

use crate::database::Database;
use crate::delta::Delta;
use crate::error::DataError;
use crate::relation::Relation;
use crate::schema::DatabaseSchema;
use crate::snapshot::{DatabaseSnapshot, SnapshotStore};
use crate::stats::DatabaseStats;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Stable 64-bit hash of a value (FNV-1a over a canonical byte encoding).
///
/// Symbols hash their *resolved string*, not their interner id, so routing
/// is independent of interning order and therefore stable across processes
/// and runs — a seeded test scenario shards identically every time.
fn value_hash(value: Value) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fold = |mut h: u64, bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
        h
    };
    match value {
        Value::Null => fold(OFFSET, &[0]),
        Value::Bool(b) => fold(OFFSET, &[1, u8::from(b)]),
        Value::Int(i) => {
            let h = fold(OFFSET, &[2]);
            fold(h, &i.to_le_bytes())
        }
        Value::Sym(s) => {
            let h = fold(OFFSET, &[3]);
            fold(h, s.as_str().as_bytes())
        }
    }
}

/// The shard a partition-column value routes to, out of `shards`.
pub fn shard_of_value(value: Value, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (value_hash(value) % shards as u64) as usize
}

/// The shard a whole tuple routes to when its relation has no declared
/// partition column (fold of the per-value hashes).
pub fn shard_of_tuple(values: &[Value], shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for v in values {
        h = h.rotate_left(5) ^ value_hash(*v);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The declared partition column per relation: `relation → attribute`.
///
/// Relations absent from the map are spread by whole-tuple hash; relations
/// present route every tuple by the hash of the named attribute's value,
/// which is what makes exact-match probes on that attribute single-shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionMap {
    columns: BTreeMap<String, String>,
}

impl PartitionMap {
    /// An empty map (every relation spreads by whole-tuple hash).
    pub fn new() -> Self {
        PartitionMap::default()
    }

    /// Declares `attribute` as the partition column of `relation` (builder).
    pub fn with(mut self, relation: impl Into<String>, attribute: impl Into<String>) -> Self {
        self.set(relation, attribute);
        self
    }

    /// Declares `attribute` as the partition column of `relation`.
    pub fn set(&mut self, relation: impl Into<String>, attribute: impl Into<String>) -> &mut Self {
        self.columns.insert(relation.into(), attribute.into());
        self
    }

    /// The declared partition column of `relation`, if any.
    pub fn attribute(&self, relation: &str) -> Option<&str> {
        self.columns.get(relation).map(String::as_str)
    }

    /// Iterates over `(relation, attribute)` pairs in relation order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &String)> {
        self.columns.iter()
    }

    /// Resolves every declared column against `schema`, failing on unknown
    /// relations or attributes.  Returns `relation → column position`.
    pub fn resolve(&self, schema: &DatabaseSchema) -> Result<BTreeMap<String, usize>> {
        self.columns
            .iter()
            .map(|(relation, attribute)| {
                let rel = schema.relation(relation)?;
                Ok((relation.clone(), rel.position_of(attribute)?))
            })
            .collect()
    }

    /// Builds a standalone [`PartitionRouter`] for this map, resolved
    /// against `schema`, routing across `shards` shards.  The router shares
    /// the exact routing code a [`ShardedSnapshotStore`] uses, so consumers
    /// that replay deltas outside a live store (WAL recovery) cannot drift
    /// from the store's placement.
    pub fn router(&self, schema: &DatabaseSchema, shards: usize) -> Result<PartitionRouter> {
        if shards == 0 {
            return Err(DataError::InvalidUpdate(
                "a partition router needs at least one shard".into(),
            ));
        }
        Ok(PartitionRouter {
            state: PartitionState::new(self.clone(), schema, shards)?,
        })
    }
}

/// The routing function of a sharded store, detached from any store: maps
/// `(relation, tuple)` to a shard index and splits [`Delta`]s accordingly.
/// Obtained from [`PartitionMap::router`].
#[derive(Debug)]
pub struct PartitionRouter {
    state: PartitionState,
}

impl PartitionRouter {
    /// Number of shards routed across.
    pub fn shards(&self) -> usize {
        self.state.shards
    }

    /// The shard `tuple` of `relation` routes to (total).
    pub fn route(&self, relation: &str, tuple: &Tuple) -> usize {
        self.state.route(relation, tuple.values())
    }

    /// The partition column's position in `relation`, if one was declared —
    /// the same answer a pinned [`ShardedSnapshotView`] over this map would
    /// give, so routing decisions made against a router (e.g. by a
    /// replicated access source) cannot drift from the store's.
    pub fn position(&self, relation: &str) -> Option<usize> {
        self.state.positions.get(relation).copied()
    }

    /// The shard a partition-column value of `relation` routes to, if the
    /// relation has a declared partition column (mirror of
    /// [`ShardedSnapshotView::route_partition_value`]).
    pub fn route_value(&self, relation: &str, value: Value) -> Option<usize> {
        self.state.route_value(relation, value)
    }

    /// Splits a delta into per-shard deltas by routing every tuple (index
    /// `i` of the result targets shard `i`).
    pub fn split(&self, delta: &Delta) -> Vec<Delta> {
        self.state.split(delta)
    }
}

/// Resolved routing state shared by the store and every pinned view.
#[derive(Debug)]
struct PartitionState {
    map: PartitionMap,
    /// Partition column position per relation (only declared relations).
    positions: BTreeMap<String, usize>,
    /// The same positions indexed by relation id.
    positions_by_id: Vec<Option<usize>>,
    shards: usize,
}

impl PartitionState {
    fn new(map: PartitionMap, schema: &DatabaseSchema, shards: usize) -> Result<Self> {
        let positions = map.resolve(schema)?;
        let positions_by_id = schema
            .relations()
            .map(|rel| positions.get(rel.name()).copied())
            .collect();
        Ok(PartitionState {
            map,
            positions,
            positions_by_id,
            shards,
        })
    }

    fn route_partition_value(&self, value: Value) -> usize {
        match self.shards {
            1 => 0,
            n => shard_of_value(value, n),
        }
    }

    fn route(&self, relation: &str, values: &[Value]) -> usize {
        self.route_on(self.positions.get(relation).copied(), values)
    }

    /// Routes a tuple whose relation has its partition column at `position`
    /// (`None`: no partition column).
    fn route_on(&self, position: Option<usize>, values: &[Value]) -> usize {
        // One shard holds everything: skip the hash, which resolves every
        // symbol to its string.
        if self.shards == 1 {
            return 0;
        }
        match position {
            Some(pos) => match values.get(pos) {
                Some(v) => shard_of_value(*v, self.shards),
                // Arity mismatches are caught by validation; spreading keeps
                // routing total in the meantime.
                None => shard_of_tuple(values, self.shards),
            },
            None => shard_of_tuple(values, self.shards),
        }
    }

    fn route_value(&self, relation: &str, value: Value) -> Option<usize> {
        self.positions
            .contains_key(relation)
            .then(|| self.route_partition_value(value))
    }

    fn split(&self, delta: &Delta) -> Vec<Delta> {
        let mut parts = vec![Delta::new(); self.shards];
        for (relation, rd) in delta.iter() {
            for t in &rd.insertions {
                parts[self.route(relation, t.values())].insert(relation.clone(), t.clone());
            }
            for t in &rd.deletions {
                parts[self.route(relation, t.values())].delete(relation.clone(), t.clone());
            }
        }
        parts
    }
}

/// One coherent, epoch-stamped view of every shard: the sharded analogue of
/// a pinned [`DatabaseSnapshot`].
///
/// All per-shard snapshots carry the same epoch (the global epoch).  Cloning
/// the `Arc` handle pins the whole vector.
#[derive(Debug)]
pub struct ShardedSnapshotView {
    epoch: u64,
    partition: Arc<PartitionState>,
    shards: Vec<Arc<DatabaseSnapshot>>,
}

impl ShardedSnapshotView {
    /// The global epoch (equals every shard's local epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The database schema (identical across shards and versions).
    pub fn schema(&self) -> &DatabaseSchema {
        self.shards[0].schema()
    }

    /// The pinned per-shard snapshots, in shard order.
    pub fn shards(&self) -> &[Arc<DatabaseSnapshot>] {
        &self.shards
    }

    /// One shard's pinned snapshot.
    pub fn shard(&self, i: usize) -> &Arc<DatabaseSnapshot> {
        &self.shards[i]
    }

    /// The partition declaration this view was sharded under.
    pub fn partition_map(&self) -> &PartitionMap {
        &self.partition.map
    }

    /// The partition column's position in the relation with id `relation`
    /// (see [`DatabaseSchema::relation_id`]), if one was declared.
    pub fn partition_position_at(&self, relation: usize) -> Option<usize> {
        self.partition
            .positions_by_id
            .get(relation)
            .copied()
            .flatten()
    }

    /// The shard a value of a partition column routes to (whichever
    /// relation's: every partitioned relation hashes its column the same
    /// way).
    pub fn route_partition_value(&self, value: Value) -> usize {
        self.partition.route_partition_value(value)
    }

    /// The shard the tuple of `relation` with exactly `values` lives on
    /// (total: falls back to the whole-tuple hash for relations without a
    /// partition column).  Takes the value slice so a membership probe can
    /// route without building a [`Tuple`].
    pub fn route_tuple(&self, relation: &str, values: &[Value]) -> usize {
        self.partition.route(relation, values)
    }

    /// [`ShardedSnapshotView::route_tuple`] by relation id (see
    /// [`DatabaseSchema::relation_id`]): no name lookup.
    pub fn route_tuple_at(&self, relation: usize, values: &[Value]) -> usize {
        self.partition
            .route_on(self.partition_position_at(relation), values)
    }

    /// Splits a delta into per-shard deltas by routing every tuple.
    pub fn split(&self, delta: &Delta) -> Vec<Delta> {
        self.partition.split(delta)
    }

    /// Total rows of `relation` across shards.
    pub fn relation_rows(&self, relation: &str) -> Result<usize> {
        let mut rows = 0;
        for shard in &self.shards {
            rows += shard.relation(relation)?.len();
        }
        Ok(rows)
    }

    /// Total number of tuples, `|D|` of this version across all shards.
    pub fn size(&self) -> usize {
        self.shards.iter().map(|s| s.size()).sum()
    }

    /// Live `(relation, total rows)` pairs — the cheap drift signal, summed
    /// across shards.
    pub fn row_counts(&self) -> Vec<(String, usize)> {
        self.schema()
            .relation_names()
            .into_iter()
            .map(|name| {
                let rows = self
                    .shards
                    .iter()
                    .map(|s| s.relation(&name).map(Relation::len).unwrap_or(0))
                    .sum();
                (name, rows)
            })
            .collect()
    }

    /// Collects *global* statistics: exactly what the unsharded instance
    /// would produce (rows summed, per-column distincts deduplicated across
    /// shards), so plans ranked against them are shard-count-independent.
    pub fn statistics(&self) -> DatabaseStats {
        DatabaseStats::collect_parts(self.schema().relations().map(|rel| {
            let parts = self
                .shards
                .iter()
                .filter_map(|s| s.relation(rel.name()).ok())
                .collect();
            (rel, parts)
        }))
    }

    /// Materialises the view as one owned [`Database`] (shard-order merge of
    /// every relation).  For single-threaded cross-checks and tests, not for
    /// the serving path.
    pub fn to_database(&self) -> Database {
        let mut db = Database::empty(self.schema().clone());
        for shard in &self.shards {
            for rel in shard.relations() {
                for t in rel.iter() {
                    db.insert(rel.name(), t.clone())
                        .expect("shards are disjoint partitions of one instance");
                }
            }
        }
        db
    }
}

impl fmt::Display for ShardedSnapshotView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sharded[epoch={} shards={} |D|={}]",
            self.epoch,
            self.shard_count(),
            self.size()
        )
    }
}

/// Per-shard balance numbers, for observability and the sharding bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// The shard's local epoch (always the global epoch).
    pub epoch: u64,
    /// Tuples currently stored on the shard.
    pub rows: usize,
    /// Delta tuples routed to the shard over the store's lifetime.
    pub routed_tuples: u64,
}

/// `N` hash-partitioned [`SnapshotStore`]s behind one routing function and
/// one coherent global epoch.  See the module docs for the commit/epoch and
/// merge-order contracts.
#[derive(Debug)]
pub struct ShardedSnapshotStore {
    shards: Vec<SnapshotStore>,
    partition: Arc<PartitionState>,
    current: RwLock<Arc<ShardedSnapshotView>>,
    writer: Mutex<()>,
    routed: Vec<AtomicU64>,
    pins: AtomicU64,
}

impl ShardedSnapshotStore {
    /// Splits `db` into `shards` hash-partitions and wraps each in a
    /// [`SnapshotStore`] at epoch 0.
    ///
    /// With one shard, `db` itself becomes shard 0 — no copy, and indexes it
    /// has already built stay built.  With more, declared secondary indexes
    /// of `db` are re-declared on every shard (still lazily built), so
    /// access-schema-promised indexes keep working shard-locally.  Fails if
    /// the partition map names an unknown relation or attribute, or if
    /// `shards` is 0.
    pub fn new(db: Database, partition: PartitionMap, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(DataError::InvalidUpdate(
                "a sharded store needs at least one shard".into(),
            ));
        }
        let state = PartitionState::new(partition, db.schema(), shards)?;
        if shards == 1 {
            return Ok(Self::assemble(vec![db], state, 0));
        }

        // Split: same schema everywhere, declared indexes carried over,
        // tuples routed.  Per-shard insertion order follows the source
        // relation's order restricted to the shard.
        let mut parts: Vec<Database> = (0..shards)
            .map(|_| Database::empty(db.schema().clone()))
            .collect();
        for rel in db.relations() {
            let declared = rel.declared_indexes();
            for part in parts.iter_mut() {
                for attrs in &declared {
                    part.declare_index(rel.name(), attrs)?;
                }
            }
            for t in rel.iter() {
                let shard = state.route(rel.name(), t.values());
                parts[shard].insert(rel.name(), t.clone())?;
            }
        }
        Ok(Self::assemble(parts, state, 0))
    }

    /// Rebuilds a sharded store from already-partitioned shard contents
    /// **at** `epoch` — the crash-recovery constructor.  `parts[i]` becomes
    /// shard `i` verbatim (no re-routing), so the shard layout of the
    /// pre-crash store is preserved exactly.
    ///
    /// Validates what [`ShardedSnapshotStore::new`] makes true by
    /// construction: all parts share one schema, the partition map resolves
    /// against it, and every stored tuple lives on the shard the routing
    /// function assigns it — a checkpoint written under a different shard
    /// count or partition map is rejected rather than silently mis-routed.
    pub fn restore(parts: Vec<Database>, partition: PartitionMap, epoch: u64) -> Result<Self> {
        if parts.is_empty() {
            return Err(DataError::InvalidUpdate(
                "a sharded store needs at least one shard".into(),
            ));
        }
        let schema = parts[0].schema().clone();
        for (i, part) in parts.iter().enumerate() {
            if *part.schema() != schema {
                return Err(DataError::Invariant(format!(
                    "restore: shard {i} schema differs from shard 0"
                )));
            }
        }
        let state = PartitionState::new(partition, &schema, parts.len())?;
        for (i, part) in parts.iter().enumerate() {
            for rel in part.relations() {
                for t in rel.iter() {
                    let home = state.route(rel.name(), t.values());
                    if home != i {
                        return Err(DataError::Invariant(format!(
                            "restore: {} tuple {t} stored on shard {i} but routes to {home}",
                            rel.name()
                        )));
                    }
                }
            }
        }
        Ok(Self::assemble(parts, state, epoch))
    }

    /// Wraps partitioned shard contents, one [`SnapshotStore`] each, as a
    /// store whose current view is at `epoch`.
    fn assemble(parts: Vec<Database>, partition: PartitionState, epoch: u64) -> Self {
        let partition = Arc::new(partition);
        let shards: Vec<SnapshotStore> = parts
            .into_iter()
            .map(|db| SnapshotStore::restore(db, epoch))
            .collect();
        let view = Arc::new(ShardedSnapshotView {
            epoch,
            partition: Arc::clone(&partition),
            shards: shards.iter().map(SnapshotStore::pin).collect(),
        });
        ShardedSnapshotStore {
            routed: (0..shards.len()).map(|_| AtomicU64::new(0)).collect(),
            shards,
            partition,
            current: RwLock::new(view),
            writer: Mutex::new(()),
            pins: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partition declaration.
    pub fn partition_map(&self) -> &PartitionMap {
        &self.partition.map
    }

    /// Pins the current coherent view: a cheap `Arc` clone.
    pub fn pin(&self) -> Arc<ShardedSnapshotView> {
        self.pins.fetch_add(1, Ordering::Relaxed);
        self.current.read().expect("sharded store poisoned").clone()
    }

    /// Number of [`ShardedSnapshotStore::pin`] calls over the store's
    /// lifetime — one read-lock acquisition each, pinning the whole
    /// coherent shard vector (see [`SnapshotStore::pins`]).
    pub fn pins(&self) -> u64 {
        self.pins.load(Ordering::Relaxed)
    }

    /// The current global epoch.
    pub fn epoch(&self) -> u64 {
        self.pin().epoch()
    }

    /// Splits a delta into per-shard deltas by routing every tuple (index
    /// `i` of the result targets shard `i`).
    pub fn split(&self, delta: &Delta) -> Vec<Delta> {
        self.partition.split(delta)
    }

    /// Commits `delta` across shards: splits it by route, validates every
    /// sub-delta against the current shard versions, then commits each shard
    /// locally (empty sub-deltas included, keeping every local epoch equal
    /// to the global epoch) and installs the next coherent view.
    ///
    /// On validation error no shard is touched.  Commits from multiple
    /// threads serialise; readers are only blocked for the pointer swap.
    pub fn commit(&self, delta: &Delta) -> Result<Arc<ShardedSnapshotView>> {
        let _writer = self.writer.lock().expect("sharded writer poisoned");
        let base = self.pin();
        let parts = base.split(delta);

        // Validate every sub-delta against its shard's current version
        // before any shard commits: a bad delta must leave all shards (and
        // their common epoch) untouched.
        for (part, shard) in parts.iter().zip(base.shards()) {
            part.validate_relations(|name| shard.relation(name))?;
        }

        let mut next_shards = Vec::with_capacity(self.shards.len());
        for (i, (store, part)) in self.shards.iter().zip(&parts).enumerate() {
            // Validated above against the same pinned versions (the writer
            // lock excludes interleaving commits), so this cannot fail.
            let snapshot = store
                .commit(part)
                .expect("pre-validated sub-delta must commit");
            self.routed[i].fetch_add(part.size() as u64, Ordering::Relaxed);
            next_shards.push(snapshot);
        }
        let view = Arc::new(ShardedSnapshotView {
            epoch: base.epoch() + 1,
            partition: Arc::clone(&self.partition),
            shards: next_shards,
        });
        *self.current.write().expect("sharded store poisoned") = Arc::clone(&view);
        Ok(view)
    }

    /// Per-shard balance: local epoch, stored rows, and delta tuples routed
    /// to the shard since the store was created.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let view = self.pin();
        view.shards()
            .iter()
            .enumerate()
            .map(|(shard, snapshot)| ShardStats {
                shard,
                epoch: snapshot.epoch(),
                rows: snapshot.size(),
                routed_tuples: self.routed[shard].load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::social_schema;
    use crate::tuple;

    fn social_partition() -> PartitionMap {
        PartitionMap::new()
            .with("person", "id")
            .with("friend", "id1")
            .with("visit", "id")
            .with("restr", "rid")
    }

    fn base() -> Database {
        let mut db = Database::empty(social_schema());
        for i in 0..40i64 {
            db.insert("person", tuple![i, format!("p{i}"), "NYC"])
                .unwrap();
            db.insert("friend", tuple![i, (i + 1) % 40]).unwrap();
            db.insert("visit", tuple![i, 100 + i % 7]).unwrap();
        }
        for r in 0..7i64 {
            db.insert("restr", tuple![100 + r, format!("r{r}"), "NYC", "A"])
                .unwrap();
        }
        db
    }

    #[test]
    fn routing_is_stable_and_total() {
        let store = ShardedSnapshotStore::new(base(), social_partition(), 3).unwrap();
        let view = store.pin();
        for i in 0..40i64 {
            let t = tuple![i, (i + 1) % 40];
            let a = view.route_tuple("friend", t.values());
            let b = view.route_tuple("friend", t.values());
            assert_eq!(a, b);
            assert_eq!(a, view.route_partition_value(Value::int(i)));
            let id = view.schema().relation_id("friend").unwrap();
            assert_eq!(a, view.route_tuple_at(id, t.values()));
            assert!(a < 3);
        }
        // Partition metadata is exposed.
        assert_eq!(view.partition_map().attribute("friend"), Some("id1"));
        let schema = view.schema();
        let id = |name: &str| schema.relation_id(name).unwrap();
        assert_eq!(view.partition_position_at(id("friend")), Some(0));
        assert_eq!(view.partition_position_at(id("restr")), Some(0));
        assert_eq!(view.partition_position_at(schema.len()), None);
        assert_eq!(store.partition_map().attribute("visit"), Some("id"));
    }

    #[test]
    fn split_partitions_the_whole_instance() {
        let db = base();
        let total = db.size();
        let store = ShardedSnapshotStore::new(db.clone(), social_partition(), 3).unwrap();
        let view = store.pin();
        assert_eq!(view.size(), total);
        assert_eq!(view.shard_count(), 3);
        // Every tuple is on exactly its routed shard.
        for rel in db.relations() {
            for t in rel.iter() {
                let home = view.route_tuple(rel.name(), t.values());
                for (i, shard) in view.shards().iter().enumerate() {
                    let present = shard.relation(rel.name()).unwrap().contains(t);
                    assert_eq!(present, i == home, "{} {t} on shard {i}", rel.name());
                }
            }
        }
        // Merged view equals the original instance.
        let merged = view.to_database();
        assert_eq!(merged.size(), total);
        assert!(merged.contains_database(&db) && db.contains_database(&merged));
    }

    #[test]
    fn one_shard_degenerates_to_the_plain_store() {
        let mut db = base();
        let size = db.size();
        // One shard is the source database itself, not a re-inserted copy:
        // an index the database already built stays built.
        db.ensure_index("friend", &["id1".into()]).unwrap();
        let store = ShardedSnapshotStore::new(db, social_partition(), 1).unwrap();
        let view = store.pin();
        assert_eq!(view.shard(0).size(), size);
        let friend = view.shard(0).relation("friend").unwrap();
        assert!(friend.has_built_index(&["id1".into()]));
        assert!(ShardedSnapshotStore::new(base(), social_partition(), 0).is_err());
    }

    #[test]
    fn partition_map_validates_against_the_schema() {
        let bad_rel = PartitionMap::new().with("enemy", "id");
        assert!(matches!(
            ShardedSnapshotStore::new(base(), bad_rel, 2),
            Err(DataError::UnknownRelation(_))
        ));
        let bad_attr = PartitionMap::new().with("person", "zip");
        assert!(matches!(
            ShardedSnapshotStore::new(base(), bad_attr, 2),
            Err(DataError::UnknownAttribute { .. })
        ));
        assert_eq!(social_partition().iter().count(), 4);
    }

    #[test]
    fn commit_splits_by_route_and_keeps_epochs_coherent() {
        let store = ShardedSnapshotStore::new(base(), social_partition(), 3).unwrap();
        let pinned = store.pin();
        let mut delta = Delta::new();
        for i in 0..10i64 {
            delta.insert("visit", tuple![i, 200 + i]);
        }
        delta.delete("friend", tuple![0, 1]);
        let parts = store.split(&delta);
        assert_eq!(parts.iter().map(Delta::size).sum::<usize>(), delta.size());

        let v1 = store.commit(&delta).unwrap();
        assert_eq!(v1.epoch(), 1);
        // Every shard advanced, even ones with an empty sub-delta.
        for shard in v1.shards() {
            assert_eq!(shard.epoch(), 1);
        }
        assert_eq!(v1.size(), pinned.size() + 10 - 1);
        // The pinned view still sees epoch 0 in full.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.relation_rows("visit").unwrap(), 40);
        assert_eq!(v1.relation_rows("visit").unwrap(), 50);
        // Routed-tuple accounting sums to the delta size.
        let stats = store.shard_stats();
        assert_eq!(
            stats.iter().map(|s| s.routed_tuples).sum::<u64>(),
            delta.size() as u64
        );
        assert_eq!(stats.iter().map(|s| s.rows).sum::<usize>(), v1.size());
    }

    #[test]
    fn failed_commits_leave_every_shard_untouched() {
        let store = ShardedSnapshotStore::new(base(), social_partition(), 3).unwrap();
        // A batch whose *last* tuple is invalid: nothing may land.
        let mut delta = Delta::new();
        delta.insert("visit", tuple![0, 999]);
        delta.insert("friend", tuple![0, 1]); // already present
        assert!(store.commit(&delta).is_err());
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.pin().size(), base().size());
        for shard in store.pin().shards() {
            assert_eq!(shard.epoch(), 0);
        }
    }

    #[test]
    fn merged_statistics_equal_the_unsharded_statistics() {
        let db = base();
        let unsharded = db.statistics();
        for shards in [1usize, 2, 3, 8] {
            let store = ShardedSnapshotStore::new(db.clone(), social_partition(), shards).unwrap();
            assert_eq!(store.pin().statistics(), unsharded, "shards={shards}");
        }
    }

    #[test]
    fn declared_indexes_survive_the_split() {
        let mut db = base();
        db.declare_index("friend", &["id1".into()]).unwrap();
        db.declare_index("person", &["city".into()]).unwrap();
        let store = ShardedSnapshotStore::new(db, social_partition(), 3).unwrap();
        for shard in store.pin().shards() {
            assert!(shard.relation("friend").unwrap().has_index(&["id1".into()]));
            assert!(shard
                .relation("person")
                .unwrap()
                .has_index(&["city".into()]));
            // Still lazy: nothing built yet.
            assert!(!shard
                .relation("friend")
                .unwrap()
                .has_built_index(&["id1".into()]));
        }
        // A shard-local probe builds and answers through the shard index.
        let view = store.pin();
        let home = view.route_partition_value(Value::int(7));
        let (rows, used) = view
            .shard(home)
            .relation("friend")
            .unwrap()
            .select_eq(&["id1".into()], &[Value::int(7)])
            .unwrap();
        assert!(used);
        assert_eq!(rows, vec![tuple![7, 8]]);
    }

    #[test]
    fn concurrent_commits_all_land_coherently() {
        let store = ShardedSnapshotStore::new(base(), social_partition(), 3).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..10i64 {
                        let tup = tuple![100 + t, 300 + t * 100 + i];
                        store.commit(Delta::new().insert("visit", tup)).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.epoch(), 40);
        let view = store.pin();
        for shard in view.shards() {
            assert_eq!(shard.epoch(), 40);
        }
        assert_eq!(view.relation_rows("visit").unwrap(), 40 + 40);
    }

    #[test]
    fn detached_router_agrees_with_the_store() {
        let store = ShardedSnapshotStore::new(base(), social_partition(), 3).unwrap();
        let view = store.pin();
        let router = social_partition().router(view.schema(), 3).unwrap();
        assert_eq!(router.shards(), 3);
        let mut delta = Delta::new();
        for i in 0..10i64 {
            delta.insert("visit", tuple![i, 200 + i]);
        }
        delta.delete("friend", tuple![0, 1]);
        assert_eq!(router.split(&delta), view.split(&delta));
        for rel in base().relations() {
            for t in rel.iter() {
                assert_eq!(
                    router.route(rel.name(), t),
                    view.route_tuple(rel.name(), t.values())
                );
            }
        }
        assert!(social_partition().router(view.schema(), 0).is_err());
    }

    #[test]
    fn restore_preserves_layout_and_rejects_misrouted_parts() {
        let store = ShardedSnapshotStore::new(base(), social_partition(), 3).unwrap();
        let view = store.pin();
        let parts: Vec<Database> = view.shards().iter().map(|s| s.to_database()).collect();

        let restored = ShardedSnapshotStore::restore(parts.clone(), social_partition(), 5).unwrap();
        assert_eq!(restored.epoch(), 5);
        for shard in restored.pin().shards() {
            assert_eq!(shard.epoch(), 5);
        }
        let merged = restored.pin().to_database();
        let orig = view.to_database();
        assert!(merged.contains_database(&orig) && orig.contains_database(&merged));
        // Same routing function as the original store.
        for rel in orig.relations() {
            for t in rel.iter() {
                assert_eq!(
                    restored.pin().route_tuple(rel.name(), t.values()),
                    view.route_tuple(rel.name(), t.values())
                );
            }
        }

        // Parts laid out under a different shard count mis-route and are
        // rejected, as is an empty part vector.
        let two: Vec<Database> = parts.iter().take(2).cloned().collect();
        assert!(matches!(
            ShardedSnapshotStore::restore(two, social_partition(), 5),
            Err(DataError::Invariant(_))
        ));
        assert!(ShardedSnapshotStore::restore(vec![], social_partition(), 0).is_err());
    }

    #[test]
    fn display_summarises_the_view() {
        let store = ShardedSnapshotStore::new(base(), social_partition(), 2).unwrap();
        let text = store.pin().to_string();
        assert!(text.contains("epoch=0") && text.contains("shards=2"));
    }
}
