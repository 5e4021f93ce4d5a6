//! The one file of the benchmark that calls into the repository's crates.
//!
//! Every other module sees the system under test through the opaque types
//! defined here ([`Sut`], [`Req`], [`Change`], [`Dataset`], ...).  A later PR
//! that reshapes the engine's API edits the engine, not the benchmark; this
//! header is the list of public functions that must stay callable for the
//! ledger to keep measuring the same thing.
//!
//! **Engine surface** (`si_engine`):
//! `Engine::{new, new_durable, new_sharded, recover, execute, commit,
//! commit_group, subscribe, checkpoint, metrics, telemetry, shard_stats,
//! snapshot}`, `EngineConfig`, `Request::new`,
//! `QueryResponse::{answers, accesses, materialized, service}`,
//! `EngineSnapshot::{epoch, size, statistics, schema, to_database}`,
//! `ObservableQuery::drain`, `AnswerUpdate::apply_to`.
//! Visibility-only probes additionally use `Engine::{submit, attach_replica,
//! execute_replicated}`, `PendingResponse::wait` and `ShardReplica::{new,
//! spawn}`.
//!
//! **Stage functions** (the public entry points the traced run re-enacts an
//! operation through, one per layer):
//! reads — `si_engine::canonicalize` → `PlanCache::{insert, get}` →
//! `Engine::snapshot` (a `SnapshotStore::pin`) → `si_core::bounded::
//! fetch_bounded` over `SnapshotAccess` / `ShardedAccess` →
//! `SharedFetch::into_answer`; planning — `CostBasedPlanner::plan_costed`;
//! writes — `DeltaBatch::{new, fold, merged}` → `codec::delta_bytes` /
//! `Wal::{create, append}` → `SnapshotStore::commit` /
//! `ShardedSnapshotStore::commit`.
//!
//! **Layer primitives** timed in isolation: `IndexPool::lookup`,
//! `TupleSet::insert`, `codec::{delta_bytes, delta_from_bytes, crc32,
//! content_id}`, `RelationPage::{from_relation, encode}`,
//! `Checkpoint::{single, sharded, encode}`, `LatencyHistogram::record`,
//! `si_wire::{Duplex::pair, Connection}`, and the `Storage` trait, which
//! [`FlushedStorage`] implements around `DirStorage`.
//!
//! **Workload generators** (`si_workload`): `SocialGenerator`,
//! `social_requests`, `visit_update_stream`, `q1`, `q2`,
//! `serving_access_schema`, `social_partition_map`; oracle:
//! `si_query::evaluate_cq`.

use crate::stats::median;
use si_access::{AccessSchema, ShardedAccess, SnapshotAccess};
use si_core::bounded::{fetch_bounded, SharedFetch};
use si_core::CostBasedPlanner;
use si_data::codec::{self, RelationPage};
use si_data::{
    AccessMeter, Database, DatabaseSnapshot, DatabaseStats, Delta, DeltaBatch,
    ShardedSnapshotStore, SnapshotStore, Tuple, TupleSet, Value,
};
use si_durability::{Checkpoint, CheckpointBackend, DirStorage, Storage, Wal};
use si_engine::{
    canonicalize, CachedPlan, CanonicalQuery, Engine, EngineConfig, EngineSnapshot,
    ObservableQuery, PlanCache, QueryResponse, Request, ShardReplica,
};
use si_query::evaluate_cq;
use si_telemetry::LatencyHistogram;
use si_workload::{
    q1, q2, serving_access_schema, social_partition_map, social_requests, visit_update_stream,
    SocialConfig, SocialGenerator,
};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Friend cap of the serving access schema every workload runs under.
const FRIEND_CAP: usize = 5000;
/// Data shards of the `mixed_hot` engine.
const HOT_SHARDS: usize = 2;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An answer tuple; the other modules only sort, compare and clone rows.
pub type Row = Tuple;

/// One prepared request.
#[derive(Clone)]
pub struct Req(Request);

/// One update (a `Delta`).
#[derive(Clone)]
pub struct Change(Delta);

/// Updates committed together by one `commit_group` call.
pub struct Group(Vec<Delta>);

impl Group {
    pub fn new(changes: Vec<Change>) -> Group {
        Group(changes.into_iter().map(|c| c.0).collect())
    }
    /// Number of deltas.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// The two query shapes of the social workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Friends of `p` who live in NYC.
    Q1,
    /// A-rated NYC restaurants visited by `p`'s NYC friends.
    Q2,
}

impl Req {
    /// The request for `shape` at person `p`.
    pub fn hot(shape: Shape, p: i64) -> Req {
        let query = match shape {
            Shape::Q1 => q1(),
            Shape::Q2 => q2(),
        };
        Req(Request::new(query, vec!["p".into()], vec![Value::int(p)]))
    }
}

/// The seeded request stream of the serve workloads: 80 % Q1 / 20 % Q2,
/// person drawn with quadratic skew.
pub fn request_pool(persons: usize, count: usize, seed: u64) -> Vec<Req> {
    social_requests(persons, count, seed)
        .into_iter()
        .map(|g| Req(Request::new(g.query, g.parameters, g.values)))
        .collect()
}

fn fact(a: i64, b: i64) -> Tuple {
    vec![Value::int(a), Value::int(b)].into()
}

impl Change {
    pub fn insert_friend(p: i64, x: i64) -> Change {
        Change(Delta::insertions_into("friend", vec![fact(p, x)]))
    }
    pub fn delete_friend(p: i64, x: i64) -> Change {
        Change(Delta::deletions_from("friend", vec![fact(p, x)]))
    }
    pub fn insert_visit(id: i64, rid: i64) -> Change {
        Change(Delta::insertions_into("visit", vec![fact(id, rid)]))
    }
    pub fn delete_visit(id: i64, rid: i64) -> Change {
        Change(Delta::deletions_from("visit", vec![fact(id, rid)]))
    }
}

/// A generated database, not yet handed to an engine.
pub struct Dataset(Database);

/// Facts `mixed_hot`'s update stream toggles, all absent from the generated
/// database: per hot person `p`, `friend(p, x)` with `x` in NYC (changes
/// Q1(p)) and `visit(f, rid)` with `f` an NYC friend of `p` and `rid` an
/// A-rated NYC restaurant (changes Q2(p)).
pub struct HotFacts {
    pub friend: Vec<Vec<(i64, i64)>>,
    pub visit: Vec<Vec<(i64, i64)>>,
}

fn int_at(t: &Tuple, i: usize) -> i64 {
    t.get(i).and_then(Value::as_int).unwrap_or(-1)
}

fn str_at(t: &Tuple, i: usize) -> &'static str {
    t.get(i).and_then(Value::as_str).unwrap_or("")
}

impl Dataset {
    /// The generator's default instance at `persons`.  The database is a
    /// fixture, the same for every seed: seeding it as well moved
    /// `tuples_per_read` by 3–12 % between seeds (the hot persons' friend
    /// counts change) and latency with it, which is more than the
    /// regressions the ledger is there to catch.  `--seed` drives the
    /// request and update streams.
    pub fn generate(persons: usize) -> Dataset {
        Dataset(SocialGenerator::new(SocialConfig::with_persons(persons)).generate())
    }

    /// `|D|` in tuples.
    pub fn tuples(&self) -> usize {
        self.0.size()
    }

    /// `batches` updates of 2 inserted + 1 deleted `visit` facts, each valid
    /// against the instance as evolved by its predecessors.
    pub fn update_stream(&self, batches: usize, seed: u64) -> Vec<Change> {
        visit_update_stream(&self.0, batches, 2, 1, seed)
            .into_iter()
            .map(Change)
            .collect()
    }

    /// The reference answer: single-threaded `evaluate_cq`, sorted.
    pub fn expected(&self, req: &Req) -> Res<Vec<Row>> {
        let bindings: Vec<(String, Value)> = req
            .0
            .parameters
            .iter()
            .cloned()
            .zip(req.0.values.iter().copied())
            .collect();
        let mut answers = evaluate_cq(&req.0.query.bind(&bindings), &self.0, None).map_err(err)?;
        answers.sort();
        Ok(answers)
    }

    pub fn apply(&mut self, change: &Change) -> Res<()> {
        change.0.apply_in_place(&mut self.0).map_err(err)
    }

    /// Up to `per_person` toggle candidates of each kind for persons
    /// `0..hot`.
    pub fn hot_facts(&self, hot: usize, per_person: usize) -> Res<HotFacts> {
        let hot = hot as i64;
        let mut nyc: Vec<i64> = Vec::new();
        for t in self.0.relation("person").map_err(err)?.iter() {
            if str_at(t, 2) == "NYC" {
                nyc.push(int_at(t, 0));
            }
        }
        nyc.sort_unstable();
        let nyc_set: HashSet<i64> = nyc.iter().copied().collect();
        let mut friends: HashMap<i64, Vec<i64>> = HashMap::new();
        for t in self.0.relation("friend").map_err(err)?.iter() {
            let p = int_at(t, 0);
            if (0..hot).contains(&p) {
                friends.entry(p).or_default().push(int_at(t, 1));
            }
        }
        let mut a_nyc: Vec<i64> = Vec::new();
        for t in self.0.relation("restr").map_err(err)?.iter() {
            if str_at(t, 2) == "NYC" && str_at(t, 3) == "A" {
                a_nyc.push(int_at(t, 0));
            }
        }
        a_nyc.sort_unstable();
        let relevant: HashSet<i64> = friends.values().flatten().copied().collect();
        let mut visited: HashSet<(i64, i64)> = HashSet::new();
        for t in self.0.relation("visit").map_err(err)?.iter() {
            let id = int_at(t, 0);
            if relevant.contains(&id) {
                visited.insert((id, int_at(t, 1)));
            }
        }
        if nyc.is_empty() || a_nyc.is_empty() {
            return Err("no NYC persons or A-rated NYC restaurants generated".into());
        }
        let mut out = HotFacts {
            friend: Vec::new(),
            visit: Vec::new(),
        };
        for p in 0..hot {
            let mut mine = friends.remove(&p).unwrap_or_default();
            mine.sort_unstable();
            let start = (p as usize * 37) % nyc.len();
            let friend: Vec<(i64, i64)> = (0..nyc.len())
                .map(|i| nyc[(start + i) % nyc.len()])
                .filter(|x| *x != p && mine.binary_search(x).is_err())
                .take(per_person)
                .map(|x| (p, x))
                .collect();
            let visit: Vec<(i64, i64)> = mine
                .iter()
                .filter(|f| nyc_set.contains(f))
                .filter_map(|f| {
                    a_nyc
                        .iter()
                        .find(|rid| !visited.contains(&(*f, **rid)))
                        .map(|rid| (*f, *rid))
                })
                .take(per_person)
                .collect();
            out.friend.push(friend);
            out.visit.push(visit);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Storage that can forget what was never flushed
// ---------------------------------------------------------------------------

#[derive(Default)]
struct FileState {
    len: u64,
    synced: u64,
}

struct FlushedInner {
    dir: DirStorage,
    files: Mutex<HashMap<String, FileState>>,
    log_bytes: AtomicU64,
    log_appends: AtomicU64,
    append_nanos: AtomicU64,
    sync_nanos: AtomicU64,
    checkpoint_bytes: AtomicU64,
}

/// What the durability layer wrote, as seen at the `Storage` boundary.
#[derive(Clone, Copy, Default)]
pub struct StorageCounters {
    /// Bytes appended to log segments (`wal-*.log`).
    pub log_bytes: u64,
    /// Non-empty appends to log segments — one per WAL record.
    pub log_appends: u64,
    pub append_nanos: u64,
    pub sync_nanos: u64,
    pub syncs: u64,
    /// Bytes appended to checkpoint files.
    pub checkpoint_bytes: u64,
}

/// `DirStorage` behind a wrapper that remembers, per file, how many bytes a
/// `sync` has covered.  [`FlushedStorage::crash`] cuts every file back to
/// that length, so a recovery that follows reads only flushed bytes: killing
/// a process leaves the operating system's cache intact, and the test has to
/// discard the unflushed tail itself.
#[derive(Clone)]
pub struct FlushedStorage(Arc<FlushedInner>);

impl std::fmt::Debug for FlushedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlushedStorage({:?})", self.0.dir)
    }
}

impl FlushedStorage {
    pub fn open(root: &Path) -> Res<FlushedStorage> {
        Ok(FlushedStorage(Arc::new(FlushedInner {
            dir: DirStorage::open(root).map_err(err)?,
            files: Mutex::new(HashMap::new()),
            log_bytes: AtomicU64::new(0),
            log_appends: AtomicU64::new(0),
            append_nanos: AtomicU64::new(0),
            sync_nanos: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
        })))
    }

    pub fn counters(&self) -> StorageCounters {
        StorageCounters {
            log_bytes: self.0.log_bytes.load(Ordering::Relaxed),
            log_appends: self.0.log_appends.load(Ordering::Relaxed),
            append_nanos: self.0.append_nanos.load(Ordering::Relaxed),
            sync_nanos: self.0.sync_nanos.load(Ordering::Relaxed),
            syncs: self.0.dir.syncs(),
            checkpoint_bytes: self.0.checkpoint_bytes.load(Ordering::Relaxed),
        }
    }

    /// Discards every byte no `sync` covered; returns how many were cut.
    pub fn crash(&self) -> Res<u64> {
        let mut files = self.0.files.lock().expect("file table poisoned");
        let mut cut = 0;
        for (name, state) in files.iter_mut() {
            if state.len > state.synced {
                self.0.dir.truncate(name, state.synced).map_err(err)?;
                cut += state.len - state.synced;
                state.len = state.synced;
            }
        }
        Ok(cut)
    }

    fn files(&self) -> std::sync::MutexGuard<'_, HashMap<String, FileState>> {
        self.0.files.lock().expect("file table poisoned")
    }
}

impl Storage for FlushedStorage {
    fn list(&self) -> si_durability::Result<Vec<String>> {
        self.0.dir.list()
    }
    fn read(&self, name: &str) -> si_durability::Result<Vec<u8>> {
        self.0.dir.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> si_durability::Result<()> {
        let start = Instant::now();
        self.0.dir.append(name, bytes)?;
        self.0
            .append_nanos
            .fetch_add(nanos(start), Ordering::Relaxed);
        self.files().entry(name.to_owned()).or_default().len += bytes.len() as u64;
        if name.starts_with("wal-") {
            self.0
                .log_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            if !bytes.is_empty() {
                self.0.log_appends.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.0
                .checkpoint_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }
    fn sync(&self, name: &str) -> si_durability::Result<()> {
        let start = Instant::now();
        self.0.dir.sync(name)?;
        self.0.sync_nanos.fetch_add(nanos(start), Ordering::Relaxed);
        if let Some(state) = self.files().get_mut(name) {
            state.synced = state.len;
        }
        Ok(())
    }
    fn rename(&self, from: &str, to: &str) -> si_durability::Result<()> {
        self.0.dir.rename(from, to)?;
        let mut files = self.files();
        if let Some(state) = files.remove(from) {
            files.insert(to.to_owned(), state);
        }
        Ok(())
    }
    fn remove(&self, name: &str) -> si_durability::Result<()> {
        self.0.dir.remove(name)?;
        self.files().remove(name);
        Ok(())
    }
    fn truncate(&self, name: &str, len: u64) -> si_durability::Result<()> {
        self.0.dir.truncate(name, len)?;
        if let Some(state) = self.files().get_mut(name) {
            state.len = len;
            state.synced = state.synced.min(len);
        }
        Ok(())
    }
    fn syncs(&self) -> u64 {
        self.0.dir.syncs()
    }
}

// ---------------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------------

/// The engine.
pub struct Sut(Engine);

/// One served response.
pub struct Reply(QueryResponse);

impl Reply {
    pub fn tuples_fetched(&self) -> u64 {
        self.0.accesses.tuples_fetched
    }
    pub fn materialized(&self) -> bool {
        self.0.materialized
    }
    pub fn into_sorted_answers(self) -> Vec<Row> {
        let mut answers = self.0.answers;
        answers.sort();
        answers
    }
}

/// The counters of `Engine::metrics()` the ledger reads.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub materialized_hits: u64,
    pub maintenance_runs: u64,
    pub maintenance_fallbacks: u64,
    pub maintenance_tuples: u64,
    pub group_commits: u64,
    pub snapshot_pins: u64,
    pub deliveries: u64,
    pub resyncs: u64,
    pub overflows: u64,
}

/// What two engines must agree on to count as the same state.
#[derive(PartialEq, Debug)]
pub struct Fingerprint {
    pub epoch: u64,
    pub size: usize,
    pub content_id: u64,
    stats: DatabaseStats,
}

/// Median phase times of the engine's own recent commit spans
/// (`Engine::telemetry().commit_log()`), in microseconds.
#[derive(Clone, Copy, Default)]
pub struct CommitPhases {
    pub merge_us: f64,
    pub wal_us: f64,
    pub fsync_us: f64,
    pub apply_us: f64,
    pub maintenance_us: f64,
}

fn base_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

impl Sut {
    /// `Engine::new`, materialization off.
    pub fn new_plain(data: Dataset) -> Res<Sut> {
        Engine::new(data.0, serving_access_schema(FRIEND_CAP), base_config())
            .map(Sut)
            .map_err(err)
    }

    /// `Engine::new_durable` with the engine's default flush policy: one
    /// fsync per commit pass, no automatic checkpoints.
    pub fn new_durable(data: Dataset, storage: &FlushedStorage) -> Res<Sut> {
        Engine::new_durable(
            data.0,
            serving_access_schema(FRIEND_CAP),
            Box::new(storage.clone()),
            base_config(),
        )
        .map(Sut)
        .map_err(err)
    }

    /// `Engine::new_sharded` over [`HOT_SHARDS`] shards with the
    /// materialized layer on (capacity 256, admitted on the 2nd execution).
    pub fn new_sharded_hot(data: Dataset) -> Res<Sut> {
        Engine::new_sharded(
            data.0,
            serving_access_schema(FRIEND_CAP),
            social_partition_map(),
            HOT_SHARDS,
            EngineConfig {
                materialize_capacity: 256,
                materialize_after: 2,
                ..base_config()
            },
        )
        .map(Sut)
        .map_err(err)
    }

    pub fn recover(storage: &FlushedStorage) -> Res<Sut> {
        Engine::recover(
            Box::new(storage.clone()),
            serving_access_schema(FRIEND_CAP),
            base_config(),
        )
        .map(Sut)
        .map_err(err)
    }

    #[inline]
    pub fn execute(&self, req: &Req) -> Res<Reply> {
        self.0.execute(&req.0).map(Reply).map_err(err)
    }

    #[inline]
    pub fn commit(&self, change: &Change) -> Res<u64> {
        self.0.commit(&change.0).map_err(err)
    }

    /// Number of deltas of the group the engine refused.
    #[inline]
    pub fn commit_group(&self, group: &Group) -> usize {
        self.0
            .commit_group(&group.0)
            .iter()
            .filter(|r| r.is_err())
            .count()
    }

    pub fn subscribe(&self, req: &Req) -> Res<Feed> {
        self.0.subscribe(&req.0).map(Feed).map_err(err)
    }

    pub fn checkpoint(&self) -> Res<()> {
        self.0.checkpoint().map_err(err)
    }

    pub fn counters(&self) -> Counters {
        let m = self.0.metrics();
        Counters {
            requests: m.requests,
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            materialized_hits: m.materialized_hits,
            maintenance_runs: m.maintenance_runs,
            maintenance_fallbacks: m.maintenance_fallbacks,
            maintenance_tuples: m.maintenance_accesses.tuples_fetched,
            group_commits: m.group_commits,
            snapshot_pins: m.snapshot_pins,
            deliveries: m.subscription_deliveries,
            resyncs: m.subscription_resyncs,
            overflows: m.subscription_overflows,
        }
    }

    pub fn commit_phases(&self) -> CommitPhases {
        let spans = self.0.telemetry().commit_log().recent();
        let us = |pick: fn(&si_telemetry::CommitSpan) -> u64| {
            median(spans.iter().map(|s| pick(s) as f64 / 1e3).collect())
        };
        CommitPhases {
            merge_us: us(|s| s.merge_nanos),
            wal_us: us(|s| s.wal_nanos),
            fsync_us: us(|s| s.fsync_nanos),
            apply_us: us(|s| s.apply_nanos),
            maintenance_us: us(|s| s.maintenance_nanos),
        }
    }

    /// Largest over mean of the tuples routed to each shard by commits (1.0
    /// on an unsharded engine or before any commit).
    pub fn shard_skew(&self) -> f64 {
        let routed: Vec<f64> = self
            .0
            .shard_stats()
            .iter()
            .map(|s| s.routed_tuples as f64)
            .collect();
        let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
        if mean == 0.0 {
            return 1.0;
        }
        routed.iter().copied().fold(0.0, f64::max) / mean
    }

    pub fn fingerprint(&self) -> Fingerprint {
        let snapshot = self.0.snapshot();
        let checkpoint = match &snapshot {
            EngineSnapshot::Single(s) => Checkpoint::single(s),
            EngineSnapshot::Sharded(v) => Checkpoint::sharded(v),
        };
        Fingerprint {
            epoch: snapshot.epoch(),
            size: snapshot.size(),
            content_id: codec::content_id(&checkpoint.encode()),
            stats: snapshot.statistics(),
        }
    }

    /// The current version of the store (of its first shard, if sharded).
    fn first_shard(&self) -> Arc<DatabaseSnapshot> {
        match self.0.snapshot() {
            EngineSnapshot::Single(s) => s,
            EngineSnapshot::Sharded(v) => Arc::clone(v.shard(0)),
        }
    }

    /// The current version as an owned database, for the oracle.
    pub fn to_dataset(&self) -> Dataset {
        Dataset(self.0.snapshot().to_database())
    }
}

/// A live subscription.
pub struct Feed(ObservableQuery);

impl Feed {
    /// Applies every queued update to `state`, the subscriber's replayed
    /// answer, and returns how many there were.
    pub fn drain_into(&self, state: &mut Vec<Row>) -> u64 {
        let updates = self.0.drain();
        for update in &updates {
            update.apply_to(state);
        }
        updates.len() as u64
    }
}

// ---------------------------------------------------------------------------
// Stage functions: reads
// ---------------------------------------------------------------------------

pub struct Canon(CanonicalQuery);
pub struct Plan(CachedPlan);
pub struct Pinned(EngineSnapshot);
pub struct Fetched(SharedFetch);

/// The read path's layers behind their public entry points, with a plan
/// cache of the runner's own holding the same plans the engine's does.
pub struct ReadStages {
    access: Arc<AccessSchema>,
    cache: PlanCache,
    /// Median cold `plan_costed` time over the prepared shapes.
    pub plan_us: f64,
}

impl ReadStages {
    /// Plans each shape cold (timed) against the engine's current
    /// statistics and caches the plans.
    pub fn prepare(sut: &Sut, shapes: &[Req]) -> Res<ReadStages> {
        let snapshot = sut.0.snapshot();
        let stats = snapshot.statistics();
        let access = Arc::new(sut.0.access_schema().clone());
        let cache = PlanCache::new(16);
        let mut times = Vec::new();
        for shape in shapes {
            let canonical = canonicalize(&shape.0.query, &shape.0.parameters);
            let mut costed = None;
            for _ in 0..5 {
                let planner = CostBasedPlanner::new(snapshot.schema(), &access, &stats);
                let start = Instant::now();
                costed = Some(
                    planner
                        .plan_costed(&canonical.query, &canonical.parameters, None)
                        .map_err(err)?,
                );
                times.push(nanos(start) as f64 / 1e3);
            }
            let costed = costed.expect("planned at least once");
            cache.insert(
                canonical.key,
                CachedPlan {
                    plan: Arc::new(costed.plan),
                    stats_epoch: 0,
                    estimated_tuples: costed.estimated_tuples,
                },
            );
        }
        Ok(ReadStages {
            access,
            cache,
            plan_us: median(times),
        })
    }

    #[inline]
    pub fn canonicalize(&self, req: &Req) -> Canon {
        Canon(canonicalize(&req.0.query, &req.0.parameters))
    }

    #[inline]
    pub fn cache_get(&self, canon: &Canon) -> Option<Plan> {
        self.cache.get(&canon.0.key, 0).map(Plan)
    }

    #[inline]
    pub fn pin(&self, sut: &Sut) -> Pinned {
        Pinned(sut.0.snapshot())
    }

    #[inline]
    pub fn fetch(&self, pinned: &Pinned, plan: &Plan, req: &Req) -> Res<Fetched> {
        match &pinned.0 {
            EngineSnapshot::Single(snap) => {
                let view =
                    SnapshotAccess::<AccessMeter>::new(Arc::clone(snap), Arc::clone(&self.access));
                fetch_bounded(&plan.0.plan, &req.0.values, &view)
            }
            EngineSnapshot::Sharded(view) => {
                let source =
                    ShardedAccess::<AccessMeter>::new(Arc::clone(view), Arc::clone(&self.access));
                fetch_bounded(&plan.0.plan, &req.0.values, &source)
            }
        }
        .map(Fetched)
        .map_err(err)
    }

    /// `SharedFetch::into_answer`, which is what a single request's
    /// execution runs; `finalize_one` would add a clone of the fetched rows
    /// that only shared fetches pay.
    #[inline]
    pub fn finalize(&self, fetched: Fetched, plan: &Plan) -> Res<usize> {
        fetched
            .0
            .into_answer(&plan.0.plan)
            .map(|a| a.answers.len())
            .map_err(err)
    }
}

// ---------------------------------------------------------------------------
// Stage functions: writes
// ---------------------------------------------------------------------------

enum ShadowStore {
    Single(SnapshotStore),
    Sharded(ShardedSnapshotStore),
}

/// The net effect of a group of changes.
pub struct Folded {
    merged: Delta,
    pub ops_in: usize,
    pub ops_out: usize,
}

/// The write path's layers behind their public entry points, over a shadow
/// copy of the engine's store that the runner keeps in step by applying
/// every change the engine commits.
pub struct WriteStages {
    store: ShadowStore,
    wal: Option<Wal>,
}

impl WriteStages {
    /// `data` must be the database the engine was built from.  The indexes
    /// the engine probes are built up front, so that a shadow commit clones
    /// what a warmed-up engine's commit clones.  With `log`, changes are
    /// also appended (and fsynced) to a WAL of the runner's own.
    pub fn new(mut data: Dataset, sharded: bool, log: Option<&FlushedStorage>) -> Res<WriteStages> {
        let access = serving_access_schema(FRIEND_CAP);
        for (relation, attrs) in access.required_indexes() {
            if !attrs.is_empty() {
                data.0.ensure_index(&relation, &attrs).map_err(err)?;
            }
        }
        let store = if sharded {
            ShadowStore::Sharded(
                ShardedSnapshotStore::new(data.0, social_partition_map(), HOT_SHARDS)
                    .map_err(err)?,
            )
        } else {
            ShadowStore::Single(SnapshotStore::new(data.0))
        };
        let wal = match log {
            None => None,
            Some(storage) => {
                // The base checkpoint's content does not matter to `append`.
                let base = Checkpoint {
                    epoch: 0,
                    backend: CheckpointBackend::Single,
                    shards: vec![Vec::new()],
                };
                Some(Wal::create(Box::new(storage.clone()), &base).map_err(err)?)
            }
        };
        Ok(WriteStages { store, wal })
    }

    pub fn fold(&self, group: &Group) -> Res<Folded> {
        fn fold_all<B: si_data::DeltaBase>(base: &B, deltas: &[Delta]) -> Res<Delta> {
            let mut batch = DeltaBatch::new(base);
            for delta in deltas {
                batch.fold(delta).map_err(err)?;
            }
            Ok(batch.merged())
        }
        let merged = match &self.store {
            ShadowStore::Single(store) => fold_all(store.pin().as_ref(), &group.0)?,
            ShadowStore::Sharded(store) => fold_all(store.pin().as_ref(), &group.0)?,
        };
        Ok(Folded {
            ops_in: group.0.iter().map(Delta::size).sum(),
            ops_out: merged.size(),
            merged,
        })
    }

    /// Bytes of the record `log` would frame.
    pub fn encode(&self, folded: &Folded) -> usize {
        codec::delta_bytes(&folded.merged).len()
    }

    pub fn has_log(&self) -> bool {
        self.wal.is_some()
    }

    /// `Wal::append`: one framed record, one fsync.
    pub fn log(&mut self, folded: &Folded) -> Res<()> {
        match &mut self.wal {
            Some(wal) => {
                let epoch = wal.next_epoch();
                wal.append(epoch, &folded.merged).map_err(err)
            }
            None => Ok(()),
        }
    }

    pub fn apply(&self, folded: &Folded) -> Res<()> {
        match &self.store {
            ShadowStore::Single(store) => store.commit(&folded.merged).map(drop),
            ShadowStore::Sharded(store) => store.commit(&folded.merged).map(drop),
        }
        .map_err(err)
    }
}

/// Median `SnapshotStore::commit` time, in microseconds, of `commits`
/// 2-insert + 1-delete `visit` updates on a fresh store of `persons`.
pub fn snapshot_commit_us(persons: usize, commits: usize, seed: u64) -> Res<f64> {
    let data = Dataset::generate(persons);
    let changes = data.update_stream(commits, seed);
    let stages = WriteStages::new(data, false, None)?;
    let mut times = Vec::new();
    for change in changes {
        let folded = stages.fold(&Group::new(vec![change]))?;
        let start = Instant::now();
        stages.apply(&folded)?;
        times.push(nanos(start) as f64 / 1e3);
    }
    Ok(median(times))
}

// ---------------------------------------------------------------------------
// Layer primitives, timed in isolation
// ---------------------------------------------------------------------------

/// Mean nanoseconds of one `IndexPool::lookup` on `friend(id1)` over `n`
/// pseudo-random person ids (first shard of a sharded engine).
pub fn probe_index_lookup(sut: &Sut, persons: usize, n: usize, seed: u64) -> Res<f64> {
    let shard = sut.first_shard();
    let friend = shard.relation("friend").map_err(err)?;
    let mut x = seed | 1;
    let keys: Vec<[Value; 1]> = (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            [Value::int(((x >> 33) % persons as u64) as i64)]
        })
        .collect();
    // Build (or find built) once, outside the timing.
    friend
        .indexes()
        .lookup(&[0], &keys[0], friend.tuples())
        .ok_or("friend(id1) index is not declared")?;
    let start = Instant::now();
    let mut hits = 0usize;
    for key in &keys {
        hits += friend
            .indexes()
            .lookup(&[0], key, friend.tuples())
            .map_or(0, |v| v.len());
    }
    black_box(hits);
    Ok(nanos(start) as f64 / n as f64)
}

/// Mean nanoseconds of one `TupleSet::insert` of a fresh 2-value tuple.
pub fn probe_tupleset_insert(n: usize) -> f64 {
    let tuples: Vec<Tuple> = (0..n as i64).map(|i| fact(i, i ^ 0x5555)).collect();
    let mut set = TupleSet::new();
    let start = Instant::now();
    for t in tuples {
        set.insert(t);
    }
    let ns = nanos(start) as f64 / n as f64;
    black_box(set.len());
    ns
}

#[derive(Default, Clone, Copy)]
pub struct CodecNumbers {
    pub encode_delta_ns: f64,
    pub decode_delta_ns: f64,
    pub crc32_mb_s: f64,
    pub page_encode_mb_s: f64,
}

/// Delta encode/decode per change, `crc32` throughput over 4 MiB, and
/// `RelationPage` encode throughput over the engine's `visit` relation.
pub fn probe_codec(sut: &Sut, changes: &[Change]) -> Res<CodecNumbers> {
    let mut out = CodecNumbers::default();
    if !changes.is_empty() {
        let reps = (20_000 / changes.len()).max(1);
        let start = Instant::now();
        let mut encoded = Vec::new();
        for _ in 0..reps {
            encoded.clear();
            encoded.extend(changes.iter().map(|c| codec::delta_bytes(&c.0)));
        }
        out.encode_delta_ns = nanos(start) as f64 / (reps * changes.len()) as f64;
        let start = Instant::now();
        for _ in 0..reps {
            for bytes in &encoded {
                black_box(codec::delta_from_bytes(bytes).map_err(err)?);
            }
        }
        out.decode_delta_ns = nanos(start) as f64 / (reps * changes.len()) as f64;
    }
    let buffer: Vec<u8> = (0..4usize << 20).map(|i| (i * 31 % 251) as u8).collect();
    let start = Instant::now();
    for _ in 0..8 {
        black_box(codec::crc32(black_box(&buffer)));
    }
    out.crc32_mb_s = 8.0 * buffer.len() as f64 / 1e6 / start.elapsed().as_secs_f64();
    let shard = sut.first_shard();
    let visit = shard.relation("visit").map_err(err)?;
    let start = Instant::now();
    let mut bytes = Vec::new();
    RelationPage::from_relation(visit).encode(&mut bytes);
    out.page_encode_mb_s = bytes.len() as f64 / 1e6 / start.elapsed().as_secs_f64();
    Ok(out)
}

/// Mean nanoseconds of one `LatencyHistogram::record`.
pub fn probe_hist_record(n: usize) -> f64 {
    let hist = LatencyHistogram::new();
    let start = Instant::now();
    for i in 0..n as u64 {
        hist.record(black_box(20_000 + (i & 0xfff)));
    }
    let ns = nanos(start) as f64 / n as f64;
    black_box(hist.count());
    ns
}

/// Median microseconds a request spends outside `serve` when it goes
/// through the worker pool: (`submit` + `wait`) − `QueryResponse::service`.
pub fn probe_pool(sut: &Sut, reqs: &[Req]) -> Res<f64> {
    let mut overheads = Vec::with_capacity(reqs.len());
    for req in reqs {
        let request = req.0.clone();
        let start = Instant::now();
        let response = sut.0.submit(request).map_err(err)?.wait().map_err(err)?;
        let total = nanos(start);
        let service = u64::try_from(response.service.as_nanos()).unwrap_or(u64::MAX);
        overheads.push(total.saturating_sub(service) as f64 / 1e3);
    }
    Ok(median(overheads))
}

#[derive(Default, Clone, Copy)]
pub struct WireNumbers {
    /// Extra microseconds per index probe when it crosses the wire.
    pub roundtrip_us: f64,
    pub bytes_per_probe: f64,
    /// Median `execute_replicated` latency over median `execute` latency.
    pub overhead_ratio: f64,
}

/// Attaches one in-process replica per shard and serves `reqs` both ways.
/// Sharded engines only.  `reqs` should be requests the materialized layer
/// does not answer, since the replicated path has no such layer.
pub fn probe_wire(sut: &Sut, reqs: &[Req]) -> Res<WireNumbers> {
    let mut replicas = Vec::new();
    for shard in 0..HOT_SHARDS {
        let (primary_end, replica_end) = si_wire::Duplex::pair();
        let replica = Arc::new(ShardReplica::new(8));
        let conn = Arc::new(si_wire::Connection::new(Arc::new(replica_end)));
        let handle = replica.spawn(Arc::clone(&conn));
        sut.0
            .attach_replica(shard, Arc::new(primary_end))
            .map_err(err)?;
        replicas.push((conn, handle));
    }
    let wire_bytes = |replicas: &[(Arc<si_wire::Connection>, _)]| -> u64 {
        replicas
            .iter()
            .map(|(c, _)| c.bytes_sent() + c.bytes_received())
            .sum()
    };
    let bytes_before = wire_bytes(&replicas);
    let (mut local, mut remote) = (Vec::new(), Vec::new());
    let (mut probes, mut failed) = (0u64, 0usize);
    for req in reqs {
        let start = Instant::now();
        let over_wire = sut.0.execute_replicated(&req.0);
        remote.push(nanos(start) as f64);
        let start = Instant::now();
        let in_process = sut.0.execute(&req.0);
        local.push(nanos(start) as f64);
        match (over_wire, in_process) {
            (Ok(a), Ok(b)) => {
                probes += a.accesses.index_probes;
                let (mut x, mut y) = (a.answers, b.answers);
                x.sort();
                y.sort();
                failed += usize::from(x != y);
            }
            _ => failed += 1,
        }
    }
    let bytes = wire_bytes(&replicas) - bytes_before;
    for (conn, handle) in replicas {
        conn.shutdown();
        // The serve loop ends with `Closed` once its connection is shut.
        let _ = handle.join().map_err(|_| "replica thread panicked")?;
    }
    if failed > 0 {
        return Err(format!("{failed} replicated answers diverged or failed"));
    }
    let extra: f64 = remote.iter().sum::<f64>() - local.iter().sum::<f64>();
    Ok(WireNumbers {
        roundtrip_us: extra / 1e3 / probes.max(1) as f64,
        bytes_per_probe: bytes as f64 / probes.max(1) as f64,
        overhead_ratio: median(remote) / median(local).max(1.0),
    })
}
