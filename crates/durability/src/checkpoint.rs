//! Checkpoints: a full, framed snapshot of every shard's contents at one
//! epoch, published under a content-derived id.
//!
//! A checkpoint file holds exactly one frame (`len ‖ crc32 ‖ payload`)
//! whose payload is `magic ‖ version ‖ epoch ‖ backend ‖ shard pages`.
//! The FNV-1a hash of the payload is embedded in the file *name*
//! (`ckpt-<epoch>-<id>.ckpt`), so recovery validates a candidate twice
//! over: the frame CRC catches byte damage, the name/content id catches a
//! file whose content is not what it was published as (e.g. a partially
//! overwritten or mis-renamed file).  Checkpoints are written to a `.tmp`
//! name, synced, then renamed — a crash mid-write leaves only junk that
//! recovery discards, never a plausible-but-wrong checkpoint.

use crate::{DurabilityError, Result};
use si_data::codec::{self, CodecError, Reader, RelationPage};
use si_data::{
    Database, DatabaseSchema, DatabaseSnapshot, PartitionMap, RelationSchema, ShardedSnapshotView,
};

const MAGIC: &[u8; 4] = b"SICP";
const VERSION: u8 = 1;
const BACKEND_SINGLE: u8 = 0;
const BACKEND_SHARDED: u8 = 1;

/// Which store flavour a checkpoint captured — recovery rebuilds the same
/// flavour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointBackend {
    /// A plain [`si_data::SnapshotStore`] (one shard).
    Single,
    /// A [`si_data::ShardedSnapshotStore`] under the given partition map
    /// (shard count = the checkpoint's page-list count).
    Sharded {
        /// The partition-column declaration the store was sharded under.
        partition: PartitionMap,
    },
}

/// A decoded checkpoint: the complete durable state at `epoch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The epoch the snapshot was taken at.
    pub epoch: u64,
    /// Store flavour (and partition map, if sharded).
    pub backend: CheckpointBackend,
    /// Relation pages per shard, in shard order.  Single-store checkpoints
    /// have exactly one entry.
    pub shards: Vec<Vec<RelationPage>>,
}

fn pages_of(snapshot: &DatabaseSnapshot) -> Vec<RelationPage> {
    snapshot
        .relations()
        .map(RelationPage::from_relation)
        .collect()
}

impl Checkpoint {
    /// Captures a single-store snapshot.
    pub fn single(snapshot: &DatabaseSnapshot) -> Self {
        Checkpoint {
            epoch: snapshot.epoch(),
            backend: CheckpointBackend::Single,
            shards: vec![pages_of(snapshot)],
        }
    }

    /// Captures a coherent sharded view (per-shard pages, partition map).
    pub fn sharded(view: &ShardedSnapshotView) -> Self {
        Checkpoint {
            epoch: view.epoch(),
            backend: CheckpointBackend::Sharded {
                partition: view.partition_map().clone(),
            },
            shards: view.shards().iter().map(|s| pages_of(s)).collect(),
        }
    }

    /// Number of shards captured.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Serialises the checkpoint payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        codec::put_u64(&mut out, self.epoch);
        match &self.backend {
            CheckpointBackend::Single => out.push(BACKEND_SINGLE),
            CheckpointBackend::Sharded { partition } => {
                out.push(BACKEND_SHARDED);
                codec::put_u32(&mut out, partition.iter().count() as u32);
                for (relation, attribute) in partition.iter() {
                    codec::put_str(&mut out, relation);
                    codec::put_str(&mut out, attribute);
                }
            }
        }
        codec::put_u32(&mut out, self.shards.len() as u32);
        for pages in &self.shards {
            codec::put_u32(&mut out, pages.len() as u32);
            for page in pages {
                page.encode(&mut out);
            }
        }
        out
    }

    /// Decodes a checkpoint payload (the contents of one valid frame).
    pub fn decode(bytes: &[u8]) -> std::result::Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let mut magic = [0u8; 4];
        for m in &mut magic {
            *m = r.u8()?;
        }
        if &magic != MAGIC {
            return Err(CodecError::Invalid("bad checkpoint magic".into()));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(CodecError::Invalid(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let epoch = r.u64()?;
        let backend = match r.u8()? {
            BACKEND_SINGLE => CheckpointBackend::Single,
            BACKEND_SHARDED => {
                let n = r.count()?;
                let mut partition = PartitionMap::new();
                for _ in 0..n {
                    let relation = r.str()?.to_owned();
                    let attribute = r.str()?.to_owned();
                    partition.set(relation, attribute);
                }
                CheckpointBackend::Sharded { partition }
            }
            b => return Err(CodecError::Invalid(format!("bad backend tag {b}"))),
        };
        let shard_count = r.count()?;
        if shard_count == 0 {
            return Err(CodecError::Invalid("checkpoint with zero shards".into()));
        }
        if backend == CheckpointBackend::Single && shard_count != 1 {
            return Err(CodecError::Invalid(
                "single-store checkpoint with several shards".into(),
            ));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let pages = r.count()?;
            let mut shard = Vec::with_capacity(pages);
            for _ in 0..pages {
                shard.push(RelationPage::decode(&mut r)?);
            }
            shards.push(shard);
        }
        r.expect_end()?;
        Ok(Checkpoint {
            epoch,
            backend,
            shards,
        })
    }

    /// Rebuilds one owned [`Database`] per shard from the pages (declared
    /// indexes re-declared, still built lazily; statistics and materialized
    /// answers are *not* part of a checkpoint — they are derived state,
    /// recomputed from scratch after recovery).
    pub fn databases(&self) -> Result<Vec<Database>> {
        self.shards
            .iter()
            .map(|pages| {
                let schemas = pages
                    .iter()
                    .map(|page| {
                        let attrs: Vec<&str> = page.attributes.iter().map(String::as_str).collect();
                        RelationSchema::new(&page.name, &attrs)
                    })
                    .collect();
                let schema =
                    DatabaseSchema::from_relations(schemas).map_err(DurabilityError::Data)?;
                let mut db = Database::empty(schema);
                for page in pages {
                    for attrs in &page.declared {
                        db.declare_index(&page.name, attrs)
                            .map_err(DurabilityError::Data)?;
                    }
                    db.insert_all(&page.name, page.tuples.iter().cloned())
                        .map_err(DurabilityError::Data)?;
                }
                Ok(db)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_data::schema::social_schema;
    use si_data::{tuple, ShardedSnapshotStore, SnapshotStore};

    fn base() -> Database {
        let mut db = Database::empty(social_schema());
        for i in 0..20i64 {
            db.insert("person", tuple![i, format!("p{i}"), "NYC"])
                .unwrap();
            db.insert("friend", tuple![i, (i + 1) % 20]).unwrap();
        }
        db.declare_index("friend", &["id1".into()]).unwrap();
        db
    }

    #[test]
    fn single_checkpoints_round_trip_and_rebuild() {
        let store = SnapshotStore::restore(base(), 9);
        let ckpt = Checkpoint::single(&store.pin());
        assert_eq!(ckpt.epoch, 9);
        assert_eq!(ckpt.shard_count(), 1);

        let bytes = ckpt.encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(decoded, ckpt);

        let dbs = decoded.databases().unwrap();
        assert_eq!(dbs.len(), 1);
        let db = &dbs[0];
        let orig = base();
        assert!(db.contains_database(&orig) && orig.contains_database(db));
        // Declared indexes came back (lazily).
        assert!(db.relation("friend").unwrap().has_index(&["id1".into()]));
        assert!(!db
            .relation("friend")
            .unwrap()
            .has_built_index(&["id1".into()]));
    }

    #[test]
    fn sharded_checkpoints_carry_the_partition_map() {
        let partition = PartitionMap::new()
            .with("person", "id")
            .with("friend", "id1");
        let store = ShardedSnapshotStore::new(base(), partition.clone(), 3).unwrap();
        let ckpt = Checkpoint::sharded(&store.pin());
        assert_eq!(ckpt.shard_count(), 3);
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
        match &decoded.backend {
            CheckpointBackend::Sharded { partition: p } => assert_eq!(*p, partition),
            other => panic!("wrong backend: {other:?}"),
        }
        // Per-shard databases merge back to the original instance.
        let dbs = decoded.databases().unwrap();
        let mut merged = Database::empty(social_schema());
        for db in &dbs {
            for rel in db.relations() {
                for t in rel.iter() {
                    merged.insert(rel.name(), t.clone()).unwrap();
                }
            }
        }
        let orig = base();
        assert!(merged.contains_database(&orig) && orig.contains_database(&merged));
    }

    #[test]
    fn decode_rejects_damage() {
        let store = SnapshotStore::new(base());
        let bytes = Checkpoint::single(&store.pin()).encode();
        assert!(Checkpoint::decode(&bytes[..bytes.len() - 3]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(Checkpoint::decode(&wrong_magic).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert!(Checkpoint::decode(&wrong_version).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Checkpoint::decode(&trailing).is_err());
        // A single-store checkpoint holds exactly one shard.
        let mut doubled = Checkpoint::single(&store.pin());
        doubled.shards.push(doubled.shards[0].clone());
        assert!(Checkpoint::decode(&doubled.encode()).is_err());
    }
}
