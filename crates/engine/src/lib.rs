//! # `si-engine` — concurrent query serving over bounded plans
//!
//! The paper's bounded-evaluation guarantee (*"On Scale Independence for
//! Querying Big Data"*, Fan, Geerts, Libkin, PODS 2014) says a controlled
//! query answers by fetching a small, data-independent fraction of `D`.
//! This crate turns that guarantee into *throughput*: if each request
//! touches a bounded handful of tuples, many requests can be served
//! concurrently from shared, immutable snapshots — and requests whose bound
//! is too large can be refused up front.
//!
//! A request travels **admit → plan-cache → snapshot → execute → merge**:
//!
//! 1. **Admission control** — the query is canonicalized
//!    ([`shape`]) and planned (or fetched from the plan cache); a plan whose
//!    worst-case fetch count exceeds [`EngineConfig::fetch_budget`] is
//!    rejected ([`EngineError::RejectedByBudget`]) before touching data, and
//!    submissions beyond [`EngineConfig::max_queue`] are shed
//!    ([`EngineError::Overloaded`]).
//! 2. **Prepared plans** — [`cache::PlanCache`] keys
//!    [`CostBasedPlanner`](si_core::CostBasedPlanner) output by
//!    (query shape, statistics epoch); commits that drift the statistics
//!    past [`EngineConfig::stats_drift_threshold`] bump the epoch and plans
//!    re-rank lazily.  On top of it, [`materialize::MaterializedSet`] keeps
//!    the *answers* of hot (shape, parameter values) pairs and
//!    [`Engine::commit`] **maintains** them by bounded delta propagation
//!    instead of invalidating them — a repeated hot request after a small
//!    commit is served with zero base-data accesses
//!    (enable via [`EngineConfig::materialize_capacity`]).
//! 3. **Snapshot isolation** — every execution pins an epoch-versioned
//!    view of the store; a single writer commits [`Delta`]s copy-on-write
//!    at relation granularity, so readers never block and never see a torn
//!    instance.  Every engine runs on one store,
//!    [`si_data::ShardedSnapshotStore`]: [`Engine::new`] is its 1-shard case
//!    (the database itself, uncopied), and [`Engine::new_sharded`]
//!    **hash-partitions** the instance.  Commits split by route under one
//!    coherent global epoch, executions plan once against exact global
//!    statistics and scatter-gather through [`si_access::ShardedAccess`]
//!    (partition-column probes route to a single shard, everything else
//!    fans out in shard order), and answers, epochs and access accounting do
//!    not depend on the shard count.
//! 4. **Concurrent serving, one serve body** — a fixed worker pool
//!    (hand-rolled on `std::thread` + mpsc) serves requests concurrently,
//!    each on one thread.  Every read — lone, pinned, replicated, or a
//!    member of a shared-fetch batch — runs the same body (arity →
//!    canonicalize → materialized fast path → plan → execute → meter →
//!    record → trace); only how the plan is executed differs.  Per-request
//!    meters are aggregated into the engine's [`SharedMeter`].
//!
//! ```
//! use si_engine::{Engine, EngineConfig, Request};
//! use si_workload::{SocialConfig, SocialGenerator};
//! use si_data::Value;
//!
//! let db = SocialGenerator::new(SocialConfig::with_persons(200)).generate();
//! let access = si_workload::serving_access_schema(5000);
//! let engine = Engine::new(db, access, EngineConfig::default()).unwrap();
//!
//! let request = Request::new(si_workload::q1(), vec!["p".into()], vec![Value::int(7)]);
//! let first = engine.execute(&request).unwrap();
//! let second = engine.execute(&request).unwrap();
//! assert!(!first.cache_hit && second.cache_hit);
//! assert_eq!(first.answers, second.answers);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod commit_queue;
pub mod error;
pub mod materialize;
mod pool;
pub mod replica;
mod serve;
pub mod shape;
pub mod subscribe;
mod telemetry;

pub use cache::{CachedPlan, PlanCache};
pub use commit_queue::CommitTicket;
pub use error::EngineError;
pub use materialize::{
    AnswerChange, MaintenanceSummary, MaterializedAnswer, MaterializedKey, MaterializedSet, PinSet,
};
pub use replica::{ReplicaClient, ReplicaSet, ReplicaStatus, ShardReplica, WireProber};
pub use shape::{canonicalize, CanonicalQuery, ShapeKey};
pub use si_telemetry::{
    BatchMembership, CommitSpan, Phase, PhaseTimings, Provenance, RequestTrace, TelemetryRegistry,
};
pub use subscribe::{AnswerUpdate, ChangeSet, ObservableQuery, SubscriptionRegistry};

use serve::Read;
use si_access::AccessSchema;
use si_core::bounded::execute_bounded;
use si_core::{maintenance_is_bounded, BoundedPlan, CoreError, IncrementalBoundedEvaluator};
use si_data::{
    Database, DatabaseSchema, DatabaseSnapshot, DatabaseStats, Delta, DeltaBatch, MeterSink,
    MeterSnapshot, PartitionMap, ShardStats, ShardedSnapshotStore, ShardedSnapshotView,
    SharedMeter, Tuple, Value,
};
use si_durability::{Checkpoint, CheckpointBackend, DurabilityConfig, DurabilityError, Wal};
use si_query::{ConjunctiveQuery, Var};
use si_telemetry::Sample;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use telemetry::EngineTelemetry;

/// Convenience result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Tuning knobs of the serving engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Worker threads in the serving pool (≥ 1); requests submitted through
    /// [`Engine::submit`] are executed by these threads.
    pub workers: usize,
    /// Admission budget: reject any request whose cheapest bounded plan has
    /// a worst-case fetch count above this (`None` = admit everything
    /// plannable).
    pub fetch_budget: Option<u64>,
    /// Load-shedding bound on requests queued in the pool (0 = unbounded).
    pub max_queue: usize,
    /// Re-collect statistics (and invalidate cached plans) when some
    /// relation's row count drifts by more than this fraction since the last
    /// collection.
    pub stats_drift_threshold: f64,
    /// Maximum number of cached plan shapes.
    pub plan_cache_capacity: usize,
    /// Maximum number of materialized (shape, parameter values) answers that
    /// are *maintained* across commits instead of re-executed
    /// (see [`materialize::MaterializedSet`]).  `0` disables the layer — the
    /// default, because materialization trades write-path maintenance work
    /// for read-path savings, which only pays on workloads with repeated hot
    /// requests.
    pub materialize_capacity: usize,
    /// Admission threshold of the materialized layer: a (shape, values) pair
    /// is materialized once it has been executed this many times (`1` =
    /// every executed request is materialized).
    pub materialize_after: u64,
    /// Most deltas the group committer coalesces into one commit pass (≥ 1).
    /// Only [`Engine::commit_async`] goes through the committer;
    /// [`Engine::commit`] stays a synchronous group of one.
    pub commit_batch_max: usize,
    /// How long the group committer waits for more queued deltas after the
    /// first one arrives, before it commits what it has gathered
    /// (`Duration::ZERO` = coalesce only what is already queued).
    pub commit_linger: Duration,
    /// Serve pool submissions through [`Engine::execute_batch`]: each worker
    /// drains the requests already queued behind the one it dequeued and
    /// groups identical (shape, parameter values) pairs onto one shared
    /// fetch.  Off by default — answers are identical either way, this knob
    /// only changes how the fetch cost is spent.
    pub batch_requests: bool,
    /// Durability policy for engines built with [`Engine::new_durable`],
    /// [`Engine::new_sharded_durable`] or [`Engine::recover`]: every commit
    /// pass appends one epoch-stamped record to a write-ahead log **before**
    /// the in-memory store applies it (fsync-on-commit; an async commit
    /// storm folds into one record and pays one fsync), and checkpoints
    /// truncate the log per the policy.  Ignored — no logging — on engines
    /// built with [`Engine::new`] / [`Engine::new_sharded`], which take no
    /// storage.  `None` here makes the durable constructors use
    /// [`DurabilityConfig::default`].
    pub durability: Option<DurabilityConfig>,
    /// Build a full [`RequestTrace`] (inline phase timings, provenance, cost
    /// accounting) for every `N`th served request; `0` — the default —
    /// disables tracing entirely, leaving the serve path one sampler branch
    /// away from trace-free (requests that cross
    /// [`EngineConfig::slow_threshold`] still get a post-hoc trace, and a
    /// request built with [`Request::with_trace`] is always traced).
    /// Sampled and slow traces feed the registry's slow-query log.
    pub trace_sample_every: u64,
    /// Worst-K capacity (per axis: latency, tuples fetched) of the slow-query
    /// log behind [`Engine::telemetry`]; `0` disables the log.
    pub slow_log_capacity: usize,
    /// Service time at or above this marks a request slow: its trace is
    /// flagged `slow` and offered to the slow log even when unsampled.
    pub slow_threshold: Duration,
    /// Bounded per-subscriber update queue depth for
    /// [`Engine::subscribe`] (≥ 1).  A subscriber whose queue is full does
    /// **not** block the committer: the queue is collapsed into a single
    /// [`AnswerUpdate::Resync`] carrying the current full answer
    /// (drop-to-resync backpressure).
    pub subscriber_queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            fetch_budget: None,
            max_queue: 1024,
            stats_drift_threshold: 0.2,
            plan_cache_capacity: 256,
            materialize_capacity: 0,
            materialize_after: 2,
            commit_batch_max: 64,
            commit_linger: Duration::ZERO,
            batch_requests: false,
            durability: None,
            trace_sample_every: 0,
            slow_log_capacity: 32,
            slow_threshold: Duration::from_millis(50),
            subscriber_queue_capacity: 64,
        }
    }
}

/// One prepared-query request: the query template, its parameter variables,
/// and this invocation's parameter values (one per parameter, in order).
#[derive(Debug, Clone)]
pub struct Request {
    /// The conjunctive query template.
    pub query: ConjunctiveQuery,
    /// The parameter variables bound at execution time (the paper's `x̄`).
    pub parameters: Vec<Var>,
    /// The values for `parameters`, in order.
    pub values: Vec<Value>,
    /// Opt-in tracing: when true this request is always traced — regardless
    /// of [`EngineConfig::trace_sample_every`] — and its [`RequestTrace`]
    /// comes back on [`QueryResponse::trace`].
    pub trace: bool,
}

impl Request {
    /// Bundles a request.
    pub fn new(query: ConjunctiveQuery, parameters: Vec<Var>, values: Vec<Value>) -> Self {
        Request {
            query,
            parameters,
            values,
            trace: false,
        }
    }

    /// Asks the engine to trace this request and attach the trace to the
    /// response (builder style).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// A pinned engine version: the reader side of snapshot isolation.
///
/// Obtained from [`Engine::snapshot`]; hold it and every
/// [`Engine::execute_at`] sees exactly this version, no matter how many
/// commits happen meanwhile.  Cloning is an `Arc` bump.
///
/// Every engine runs on a [`ShardedSnapshotStore`] — an unsharded engine is
/// its 1-shard case — so engines only produce `Sharded`.  `Single` is never
/// produced; it is kept for source compatibility with code that matches on
/// the variants, and [`Engine::execute_at`] refuses it.
#[derive(Debug, Clone)]
pub enum EngineSnapshot {
    /// A pinned version of a plain snapshot store.  Never produced by an
    /// engine (see the type docs).
    Single(Arc<DatabaseSnapshot>),
    /// A coherent pinned view across every shard of the engine's store.
    Sharded(Arc<ShardedSnapshotView>),
}

impl EngineSnapshot {
    /// The snapshot epoch (for sharded engines, the common global epoch).
    pub fn epoch(&self) -> u64 {
        match self {
            EngineSnapshot::Single(snap) => snap.epoch(),
            EngineSnapshot::Sharded(view) => view.epoch(),
        }
    }

    /// Number of data shards in this version (1 for an unsharded engine) —
    /// the uniform way to inspect layout, instead of matching the variants.
    pub fn shard_count(&self) -> usize {
        match self {
            EngineSnapshot::Single(_) => 1,
            EngineSnapshot::Sharded(view) => view.shard_count(),
        }
    }

    /// Per-shard epochs, in shard order.  Every shard commits on every
    /// global commit, so each entry equals [`epoch`](Self::epoch) — the
    /// coherence invariant the sharded recovery tests pin.
    pub fn shard_epochs(&self) -> Vec<u64> {
        match self {
            EngineSnapshot::Single(snap) => vec![snap.epoch()],
            EngineSnapshot::Sharded(view) => view.shards().iter().map(|s| s.epoch()).collect(),
        }
    }

    /// The database schema.
    pub fn schema(&self) -> &DatabaseSchema {
        match self {
            EngineSnapshot::Single(snap) => snap.schema(),
            EngineSnapshot::Sharded(view) => view.schema(),
        }
    }

    /// Total number of tuples, `|D|` of this version.
    pub fn size(&self) -> usize {
        match self {
            EngineSnapshot::Single(snap) => snap.size(),
            EngineSnapshot::Sharded(view) => view.size(),
        }
    }

    /// Collects statistics for this version: the exact *global* statistics,
    /// identical however the instance is sharded, so plans ranked against
    /// them are shard-count-independent.
    pub fn statistics(&self) -> DatabaseStats {
        match self {
            EngineSnapshot::Single(snap) => snap.statistics(),
            EngineSnapshot::Sharded(view) => view.statistics(),
        }
    }

    /// Materialises the version as one owned [`Database`] (a shard-order
    /// merge).  Single-threaded cross-checks and tests only.
    pub fn to_database(&self) -> Database {
        match self {
            EngineSnapshot::Single(snap) => snap.to_database(),
            EngineSnapshot::Sharded(view) => view.to_database(),
        }
    }
}

/// The answer to a served request, with its provenance.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The answer tuples (identical to single-threaded evaluation of the
    /// query on the pinned snapshot version).
    pub answers: Vec<Tuple>,
    /// Exact access cost of this execution (summed across shards).
    pub accesses: MeterSnapshot,
    /// The snapshot epoch the request executed against.
    pub epoch: u64,
    /// True when the plan came from the prepared-plan cache.
    pub cache_hit: bool,
    /// True when the answer was served from the materialized answer cache —
    /// zero base-data accesses, no plan consulted.
    pub materialized: bool,
    /// The plan's data-independent worst-case cost (what admission checked).
    pub static_cost: si_access::StaticCost,
    /// Wall-clock service time (planning + execution, excluding queueing).
    pub service: Duration,
    /// The request's flight record, present only when the request opted in
    /// via [`Request::with_trace`] (sampled traces go to the slow log, not
    /// here — responses stay allocation-free unless asked).
    pub trace: Option<Arc<RequestTrace>>,
}

/// A point-in-time view of the engine's counters.
///
/// # Consistency contract
///
/// The snapshot is **weakly consistent**: each counter is read with a relaxed
/// atomic load (or one short lock acquisition), with no global barrier across
/// them, so counters incremented at different points of an in-flight request
/// or commit may be observed mid-flight — e.g. `requests` can momentarily
/// exceed `cache_hits + cache_misses + materialized_hits + ` (rejections)
/// while a request sits between its admission bump and its cache lookup.
/// Each individual counter is exact (nothing is ever lost or double-counted),
/// and once the engine is quiescent — no in-flight requests or commits — the
/// snapshot is exact too, which is what tests should rely on.
///
/// Two reads are stronger than relaxed: `stats_epoch` and `snapshot_epoch`
/// are read **coherently** (the snapshot epoch is read while the statistics
/// lock is held), so this snapshot never shows a statistics epoch from a
/// commit whose snapshot epoch it missed: `stats_epoch` only advances, under
/// that lock, *after* the committed store epoch is visible.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetrics {
    /// Requests that entered `serve` (admitted or rejected there).
    pub requests: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (including stats-epoch invalidations).
    pub cache_misses: u64,
    /// Requests rejected by the fetch-budget admission check.
    pub rejected_by_budget: u64,
    /// Submissions shed because the queue was full.
    pub shed_overload: u64,
    /// Deltas committed.
    pub commits: u64,
    /// Statistics re-collections triggered by drift.
    pub stats_refreshes: u64,
    /// Current statistics epoch.
    pub stats_epoch: u64,
    /// Current snapshot epoch.
    pub snapshot_epoch: u64,
    /// Total access counts merged from every served request.
    pub accesses: MeterSnapshot,
    /// Requests served from the materialized answer cache (zero accesses).
    pub materialized_hits: u64,
    /// Materialized answers currently admitted.
    pub materialized_entries: u64,
    /// Materialized answers maintained across commits by delta propagation.
    pub maintenance_runs: u64,
    /// Materialized answers dropped to the bounded-plan fallback (stale at
    /// the commit, gate-rejected, or maintenance errored).
    pub maintenance_fallbacks: u64,
    /// Materialized answers evicted (FIFO capacity + cost-based).
    pub materialized_evictions: u64,
    /// Total base-data accesses of the write-path maintenance work (kept
    /// separate from `accesses`, which counts the read path).
    pub maintenance_accesses: MeterSnapshot,
    /// Commit passes: each applied one (possibly merged) delta with one
    /// epoch bump, one maintenance pass and one drift probe.  A synchronous
    /// [`Engine::commit`] is a pass of one, so on an unbatched engine this
    /// equals `commits`.
    pub group_commits: u64,
    /// Deltas that shared a commit pass with at least one other delta (a
    /// pass merging `n ≥ 2` deltas adds `n`; passes of one add nothing).
    pub deltas_coalesced: u64,
    /// Requests served through a shared-fetch group of size ≥ 2 (every
    /// member counts, including those the materialized layer answered).
    pub batched_requests: u64,
    /// Fetch phases executed on behalf of a request group and shared by its
    /// members (charged once in `accesses`, attributed as per-response
    /// shares).
    pub shared_fetches: u64,
    /// Snapshot pins taken on the store so far — every pin is one
    /// lock-guarded version acquisition, so this counts the engine's
    /// lock-acquisition traffic on the storage layer.
    pub snapshot_pins: u64,
    /// WAL records appended (0 on non-durable engines).  Each record is one
    /// commit pass, so `wal_records < commits` measures group-commit
    /// amortization of the log itself.
    pub wal_records: u64,
    /// Storage fsyncs issued by the durability plane (0 on non-durable
    /// engines): one per WAL record plus one per checkpoint publish.
    pub wal_syncs: u64,
    /// Checkpoints written since this engine was built (the durable
    /// constructors' initial checkpoint counts; 0 on non-durable engines).
    pub checkpoints: u64,
    /// Requests currently admitted to the worker pool and not yet replied to
    /// (gauge; bounded by [`EngineConfig::max_queue`] when that is non-zero).
    pub queue_depth: u64,
    /// Requests currently inside the serve path (gauge).
    pub in_flight: u64,
    /// Request traces emitted so far: sampled, post-hoc slow, and opted-in.
    pub traces_emitted: u64,
    /// Live subscription handles (gauge).
    pub subscribers: u64,
    /// Answer updates currently queued across all subscribers (gauge).
    pub subscription_queue_depth: u64,
    /// Change-sets delivered to subscriber queues so far.
    pub subscription_deliveries: u64,
    /// Resync markers delivered so far (registration, maintenance drop,
    /// queue overflow, recovery re-seeding).
    pub subscription_resyncs: u64,
    /// Subscriber-queue overflows so far (each collapsed one queue into a
    /// single Resync).
    pub subscription_overflows: u64,
}

/// Statistics snapshot + the epoch the plan cache keys against.
#[derive(Debug)]
struct StatsEpoch {
    stats: Arc<si_data::DatabaseStats>,
    epoch: u64,
}

/// The durability plane of a durable engine: the WAL, the policy, and how
/// many commit passes have been logged since the last automatic checkpoint
/// decision.  Guarded by a mutex inside [`Shared`]; commits only touch it
/// under the commit lock, so the mutex is uncontended — it exists because
/// [`Wal`] appends through `&mut self` while [`Shared`] is shared by `&`.
#[derive(Debug)]
struct DurableState {
    wal: Wal,
    policy: DurabilityConfig,
    passes: u64,
}

/// Engine state shared between the public handle and the pool workers.
///
/// Every read goes through one serve body (`serve.rs`): arity →
/// canonicalize → materialized fast path → plan → execute → meter → record
/// → trace.  Lone, pinned, replicated and batched reads differ only in how
/// the plan is executed — over the local shards, over the replicas, or as
/// a shared-fetch group member.
#[derive(Debug)]
pub(crate) struct Shared {
    config: EngineConfig,
    access: Arc<AccessSchema>,
    store: ShardedSnapshotStore,
    cache: PlanCache,
    materialized: MaterializedSet,
    /// Serialises [`Shared::commit`]s so that the base version pinned for
    /// answer maintenance is always the true predecessor of the committed
    /// version (the snapshot store's own writer mutex orders the swap, this
    /// mutex orders the maintenance around it).
    commit_lock: Mutex<()>,
    stats: RwLock<StatsEpoch>,
    meter: SharedMeter,
    maintenance_meter: SharedMeter,
    requests: AtomicU64,
    rejected_by_budget: AtomicU64,
    shed_overload: AtomicU64,
    commits: AtomicU64,
    stats_refreshes: AtomicU64,
    maintenance_runs: AtomicU64,
    maintenance_fallbacks: AtomicU64,
    group_commits: AtomicU64,
    deltas_coalesced: AtomicU64,
    batched_requests: AtomicU64,
    shared_fetches: AtomicU64,
    pub(crate) queued: AtomicUsize,
    /// `Some` on durable engines: commits log here *before* they apply.
    wal: Option<Mutex<DurableState>>,
    /// The observability plane: registry, histograms, sampler, gauges.
    telemetry: EngineTelemetry,
    /// The reactive plane: subscribed keys → bounded subscriber queues.
    /// `Arc`-shared with every [`ObservableQuery`] handle and, across
    /// [`Engine::recover_with_subscriptions`], with the recovered engine.
    subscriptions: Arc<SubscriptionRegistry>,
    /// The replication plane, created lazily by the first
    /// [`Engine::attach_replica`]: per-shard wire clients, replay log, and
    /// the read-your-writes epoch wait.
    replication: RwLock<Option<Arc<ReplicaSet>>>,
}

impl Shared {
    /// Commits one delta synchronously: a group commit of one, so the
    /// validation, maintenance and drift behaviour (and every error kind) is
    /// exactly the committer path's.
    fn commit(&self, delta: &Delta) -> Result<u64> {
        self.commit_group(std::slice::from_ref(delta))
            .pop()
            .expect("a group of one yields exactly one outcome")
    }

    /// Commits a batch of deltas as **one** storage commit, maintaining
    /// materialized answers across it and re-collecting statistics when row
    /// counts drifted.
    ///
    /// Each delta is validated *atomically* against the evolved state
    /// `base ⊕ (accepted deltas so far)` — exactly what a sequential chain
    /// of individual commits would check — and folded into one net-effect
    /// [`Delta`] ([`DeltaBatch`]): a tuple deleted by one delta and
    /// reinserted by a later one cancels out entirely.  A delta that fails
    /// validation folds nothing and gets its own `Err`; later deltas see
    /// the state as if it never existed, mirroring a failed individual
    /// commit.  The accepted deltas then share ONE epoch bump, ONE
    /// maintenance pass over the merged delta (per shard) and ONE
    /// statistics drift probe, and every accepted delta's
    /// outcome is `Ok(new epoch)`.
    pub(crate) fn commit_group(&self, deltas: &[Delta]) -> Vec<Result<u64>> {
        if deltas.is_empty() {
            return Vec::new();
        }
        let pass_start = Instant::now();
        // All engine commits serialise here, so `base` below really is the
        // predecessor of the committed version — the pair of pinned versions
        // bounded answer maintenance runs between.
        let _writer = self.commit_lock.lock().expect("commit lock poisoned");
        let base = self.store.pin();

        let merge_start = Instant::now();
        let mut batch = DeltaBatch::new(base.as_ref());
        let outcomes: Vec<Option<EngineError>> = deltas
            .iter()
            .map(|delta| batch.fold(delta).err().map(EngineError::Data))
            .collect();
        let merged = batch.merged();
        let merge_nanos = nanos_of(merge_start.elapsed());
        let accepted = outcomes.iter().filter(|o| o.is_none()).count() as u64;
        if accepted == 0 {
            return outcomes
                .into_iter()
                .map(|o| Err(o.expect("every delta was rejected")))
                .collect();
        }

        // Write-ahead: on a durable engine the merged delta is logged and
        // fsynced *before* the store applies it.  A whole gathered batch is
        // one record — one fsync — which is where group commit amortises
        // the durability cost.  A failed append fails every accepted delta
        // and leaves the in-memory store untouched: the engine never serves
        // state the log does not hold.
        let mut wal_nanos = 0u64;
        let mut fsync_nanos = 0u64;
        if let Some(wal) = &self.wal {
            let wal_start = Instant::now();
            let mut durable = wal.lock().expect("wal lock poisoned");
            let syncs_before = durable.wal.timings();
            if let Err(e) = durable.wal.append(base.epoch() + 1, &merged) {
                let err = EngineError::Durability(e);
                return outcomes
                    .into_iter()
                    .map(|o| Err(o.unwrap_or_else(|| err.clone())))
                    .collect();
            }
            fsync_nanos = durable
                .wal
                .timings()
                .sync_nanos
                .saturating_sub(syncs_before.sync_nanos);
            wal_nanos = nanos_of(wal_start.elapsed());
            self.telemetry.fsync.record(fsync_nanos);
        }

        let apply_start = Instant::now();
        let snapshot = match self.store.commit(&merged) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                // The merged delta validated against `base` above, so the
                // store refusing it is an invariant breach; surface the
                // storage error on every accepted delta.
                let err = EngineError::Data(e);
                return outcomes
                    .into_iter()
                    .map(|o| Err(o.unwrap_or_else(|| err.clone())))
                    .collect();
            }
        };
        let apply_nanos = nanos_of(apply_start.elapsed());

        // Replication ship point: the commit is applied (and, on durable
        // engines, logged), so stream it to the replicas.  Still under the
        // commit lock — attach/reconnect also runs under it, so no record
        // can slip between a resync and the live stream.  Sends do not wait
        // for acks; replicated reads wait on the ack watermark instead.
        let replication = self
            .replication
            .read()
            .expect("replication lock poisoned")
            .clone();
        if let Some(set) = replication {
            set.ship(&snapshot, &merged);
        }

        self.commits.fetch_add(accepted, Ordering::Relaxed);
        self.group_commits.fetch_add(1, Ordering::Relaxed);
        if accepted >= 2 {
            self.deltas_coalesced.fetch_add(accepted, Ordering::Relaxed);
        }

        // Automatic checkpoint: every `checkpoint_every` logged passes,
        // publish the just-committed version and truncate the log under it.
        // The commit is already durable in the log, so a checkpoint failure
        // (e.g. the fault-injected disk dying mid-publish) must not fail
        // the commit — it only postpones truncation; recovery replays the
        // longer log tail instead.
        let mut checkpoint_nanos = 0u64;
        if let Some(wal) = &self.wal {
            let mut durable = wal.lock().expect("wal lock poisoned");
            durable.passes += 1;
            let every = durable.policy.checkpoint_every;
            if every > 0 && durable.passes.is_multiple_of(every) {
                let ckpt_start = Instant::now();
                let keep = durable.policy.keep_checkpoints;
                let _ = durable
                    .wal
                    .checkpoint(&Checkpoint::sharded(&snapshot), keep);
                checkpoint_nanos = nanos_of(ckpt_start.elapsed());
                self.telemetry.checkpoint.record(checkpoint_nanos);
            }
        }

        // Maintenance path: propagate the merged delta into every admitted
        // answer (commit → propagate → merge), falling back — dropping the
        // entry — where the Corollary-5.3 gate or the maintenance work
        // itself says no.  Readers keep serving throughout: they either
        // pinned `base` (entries still answer for it until maintained) or
        // pin `snapshot` after maintenance publishes the new epoch.  This
        // single pass over the net effect is where group commit wins: n
        // coalesced deltas pay one pass over their (often much smaller)
        // merged delta instead of n passes.
        let mut maintenance_nanos = 0u64;
        let mut shard_maintenance_nanos: Vec<u64> = Vec::new();
        let mut subscriber_changes: Vec<AnswerChange> = Vec::new();
        if !self.materialized.is_disabled() {
            let maint_start = Instant::now();
            let touched = merged.touched_relations();
            // The delta is split by route ONCE per commit; every admitted
            // entry's maintenance then iterates the same shard-local
            // sub-deltas.
            let parts = base.split(&merged);
            // Per-shard maintenance time, summed across maintained entries.
            let shard_nanos: Mutex<Vec<u64>> = Mutex::new(vec![0; base.shard_count()]);
            let summary = self.materialized.maintain_tracked(
                base.epoch(),
                snapshot.epoch(),
                &touched,
                |query, parameters, relation| {
                    maintenance_is_bounded(
                        query,
                        snapshot.schema(),
                        &self.access,
                        relation,
                        parameters,
                    )
                    .unwrap_or(false)
                },
                |evaluator| self.maintain_one(evaluator, &base, &snapshot, &parts, &shard_nanos),
                // Track answer deltas only for subscribed keys: the pass
                // already knows exactly which tuples entered/left each
                // answer, the predicate just gates the per-key diff cost.
                |key| self.subscriptions.is_subscribed(key),
            );
            self.maintenance_runs
                .fetch_add(summary.maintained, Ordering::Relaxed);
            self.maintenance_fallbacks
                .fetch_add(summary.fallbacks, Ordering::Relaxed);
            self.maintenance_meter.merge(&summary.accesses);
            subscriber_changes = summary.changes;
            maintenance_nanos = nanos_of(maint_start.elapsed());
            self.telemetry.maintenance.record(maintenance_nanos);
            shard_maintenance_nanos = shard_nanos.into_inner().expect("shard timing poisoned");
        }

        // Reactive fan-out, still under the commit lock (the registration
        // fence): deliver each subscribed key's change-set, and resync every
        // subscribed key that is *not* current at the committed epoch — the
        // previously silent fallback-by-drop cases (stale entry, gate
        // rejection, maintenance error) plus racing re-records all surface
        // here as an explicit Resync instead of a quietly stalled stream.
        if !self.subscriptions.is_empty() {
            self.fan_out(&snapshot, subscriber_changes, pass_start);
        }

        // Cheap drift probe: row counts only, no tuple scan.
        let drifted = {
            let guard = self.stats.read().expect("stats lock poisoned");
            guard
                .stats
                .max_relative_row_drift_counts(snapshot.row_counts())
                > self.config.stats_drift_threshold
        };
        if drifted {
            // Full re-collection outside any lock; concurrent committers may
            // both re-collect (each bumps the epoch — harmless, plans just
            // refresh lazily against whichever snapshot won).
            let fresh = Arc::new(snapshot.statistics());
            let mut guard = self.stats.write().expect("stats lock poisoned");
            guard.stats = fresh;
            guard.epoch += 1;
            self.stats_refreshes.fetch_add(1, Ordering::Relaxed);
            // Every entry planned under the old epoch is now permanently
            // unreachable (lookups pass the current epoch) — reclaim it
            // eagerly instead of letting dead weight age live shapes out of
            // the FIFO.
            let current = guard.epoch;
            drop(guard);
            self.cache.purge_stale(current);
        }
        let epoch = snapshot.epoch();

        // The pass's flight record: one span per commit, one histogram
        // sample for the end-to-end latency.
        let total_nanos = nanos_of(pass_start.elapsed());
        self.telemetry.commit.record(total_nanos);
        self.telemetry.registry.commit_log().record(CommitSpan {
            epoch,
            gather_size: deltas.len() as u64,
            ops: merged.size() as u64,
            merge_nanos,
            wal_nanos,
            fsync_nanos,
            apply_nanos,
            checkpoint_nanos,
            maintenance_nanos,
            shard_maintenance_nanos,
            total_nanos,
        });
        outcomes
            .into_iter()
            .map(|o| match o {
                Some(e) => Err(e),
                None => Ok(epoch),
            })
            .collect()
    }

    /// Bounded maintenance of one materialized answer across the commit
    /// `base → snapshot` of a delta (phase 2 of
    /// [`MaterializedSet::maintain_with`], running outside its lock).
    ///
    /// Section-5 maintenance runs **per shard on the shard-local delta**
    /// (`parts`, split by route once per commit) — each run's fetches route
    /// through the sharded views, so per-shard deltas touch per-shard data
    /// plus whatever cross-shard completions the rest-queries need.  The
    /// composition is exact because every deletion re-check and insertion
    /// completion evaluates against the full committed version.
    fn maintain_one(
        &self,
        evaluator: &mut IncrementalBoundedEvaluator,
        base: &Arc<ShardedSnapshotView>,
        snapshot: &Arc<ShardedSnapshotView>,
        parts: &[Delta],
        shard_nanos: &Mutex<Vec<u64>>,
    ) -> std::result::Result<MeterSnapshot, CoreError> {
        let old_view = self.local_source(base);
        let new_view = self.local_source(snapshot);
        let mut cost = MeterSnapshot::default();
        for (shard, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let part_start = Instant::now();
            // The store's commit already validated the delta against `base`;
            // no need to re-validate it per answer.
            let outcome = evaluator.maintain_across_unchecked(&old_view, &new_view, part);
            {
                let mut nanos = shard_nanos.lock().expect("shard timing poisoned");
                if let Some(slot) = nanos.get_mut(shard) {
                    *slot += nanos_of(part_start.elapsed());
                }
            }
            match outcome {
                Ok(c) => cost = cost.plus(&c),
                Err(e) => {
                    // The fetches before the failure still happened, but the
                    // summary only carries successful runs: account
                    // everything this evaluator fetched so far — earlier
                    // sub-deltas included — exactly once.  The views' meters
                    // are fresh, so their totals are this run's whole cost,
                    // and `cost` is discarded.
                    self.maintenance_meter.merge(
                        &old_view
                            .meter()
                            .snapshot()
                            .plus(&new_view.meter().snapshot()),
                    );
                    return Err(e);
                }
            }
        }
        Ok(cost)
    }

    /// Registers a reactive subscription for `request`'s answers (see
    /// [`Engine::subscribe`]).  Runs under the commit lock so the pin, the
    /// initial full answer, and the recorded entry all land against one
    /// epoch — the first maintenance pass after registration starts from
    /// exactly the state the subscriber was handed.
    fn subscribe(&self, request: &Request) -> Result<ObservableQuery> {
        let canonical = serve::admit(request)?;
        let key: MaterializedKey = (canonical.key.clone(), request.values.clone());
        let _fence = self.commit_lock.lock().expect("commit lock poisoned");
        let snapshot = self.store.pin();
        let epoch = snapshot.epoch();
        let (cached, _cache_hit) = self.plan_for(&snapshot, &canonical)?;
        let (answers, accesses) = self
            .run_full_query(&snapshot, &cached.plan, &key.1)
            .map_err(EngineError::Core)?;
        // Seeding is write-path work: charge the maintenance meter, not the
        // serve-path request counters.
        self.maintenance_meter.merge(&accesses);
        let full = Arc::new(answers.clone());
        let observable = self.subscriptions.register(
            key.clone(),
            canonical.query.clone(),
            canonical.parameters.clone(),
            self.config.subscriber_queue_capacity,
            epoch,
            Arc::clone(&full),
        );
        // The key is pinned now, so the record is admitted immediately and
        // survives capacity/cost eviction for as long as the handle lives.
        self.materialized.record(
            key,
            &canonical.query,
            &canonical.parameters,
            &answers,
            epoch,
            cached.stats_epoch,
            cached.plan.static_cost(),
            accesses,
        );
        Ok(observable)
    }

    /// Reactive fan-out of one commit, under the commit lock.
    ///
    /// Keys that were incrementally maintained this pass deliver their
    /// change-set (empty ones are elided inside the registry).  Every other
    /// subscribed key went through a maintenance drop (stale entry, gate
    /// rejection, run error) or lost a publish race to a re-recording
    /// reader — its stream cannot be advanced incrementally, so the
    /// subscriber gets an explicit [`AnswerUpdate::Resync`] instead of a
    /// silently stalled stream.
    fn fan_out(
        &self,
        snapshot: &Arc<ShardedSnapshotView>,
        changes: Vec<AnswerChange>,
        pass_start: Instant,
    ) {
        let epoch = snapshot.epoch();
        let mut handled: HashSet<MaterializedKey> = HashSet::with_capacity(changes.len());
        for change in changes {
            let set = ChangeSet {
                epoch,
                added: change.added,
                removed: change.removed,
            };
            let enqueued = self
                .subscriptions
                .deliver_changes(&change.key, &set, &change.full);
            if enqueued > 0 {
                self.telemetry
                    .delivery
                    .record(nanos_of(pass_start.elapsed()));
            }
            handled.insert(change.key);
        }
        for shape in self.subscriptions.subscribed() {
            if handled.contains(&shape.key) {
                continue;
            }
            let full = match self.materialized.current_answers(&shape.key, epoch) {
                // Current without a change-set: a racing reader re-recorded
                // the entry mid-pass, so the incremental delta was lost.
                Some(full) => full,
                // Dropped or missing: recompute from scratch and re-record
                // (the pin re-admits it for the next pass).  A recompute
                // failure leaves the key for the next commit's catch-all.
                None => {
                    let canonical = CanonicalQuery {
                        key: shape.key.0.clone(),
                        query: shape.query,
                        parameters: shape.parameters,
                    };
                    match self.reseed_subscription(snapshot, &canonical, &shape.key) {
                        Some(full) => full,
                        None => continue,
                    }
                }
            };
            let enqueued = self.subscriptions.deliver_resync(&shape.key, epoch, &full);
            if enqueued > 0 {
                self.telemetry
                    .delivery
                    .record(nanos_of(pass_start.elapsed()));
            }
        }
    }

    /// Recomputes a subscribed answer from scratch against `snapshot` and
    /// re-records it (pinned, so admission is immediate).  Returns `None` on
    /// planning or execution failure — the caller retries at a later commit.
    fn reseed_subscription(
        &self,
        snapshot: &Arc<ShardedSnapshotView>,
        canonical: &CanonicalQuery,
        key: &MaterializedKey,
    ) -> Option<Arc<Vec<Tuple>>> {
        let (cached, _cache_hit) = self.plan_for(snapshot, canonical).ok()?;
        let (answers, accesses) = self.run_full_query(snapshot, &cached.plan, &key.1).ok()?;
        // Write-path work: charged to maintenance, invisible to the
        // serve-path request counters.
        self.maintenance_meter.merge(&accesses);
        self.materialized.record(
            key.clone(),
            &canonical.query,
            &canonical.parameters,
            &answers,
            snapshot.epoch(),
            cached.stats_epoch,
            cached.plan.static_cost(),
            accesses,
        );
        Some(Arc::new(answers))
    }

    /// One bounded plan execution against a pinned version, without any of
    /// the serve path's tracing or materialization offers (used to seed and
    /// re-seed subscriptions).
    fn run_full_query(
        &self,
        snapshot: &Arc<ShardedSnapshotView>,
        plan: &BoundedPlan,
        values: &[Value],
    ) -> std::result::Result<(Vec<Tuple>, MeterSnapshot), CoreError> {
        let result = execute_bounded(plan, values, &self.local_source(snapshot))?;
        Ok((result.answers, result.accesses))
    }

    fn metrics(&self) -> EngineMetrics {
        // Read the store epoch *while holding* the statistics read lock: a
        // drift refresh bumps `stats.epoch` under the write lock strictly
        // after the committed store epoch is visible, so this acquire pair
        // can never observe a new statistics epoch with an old snapshot
        // epoch (the coherence the `EngineMetrics` rustdoc promises).
        let (stats_epoch, snapshot_epoch) = {
            let guard = self.stats.read().expect("stats lock poisoned");
            (guard.epoch, self.store.epoch())
        };
        let (wal_records, wal_syncs, checkpoints) = match &self.wal {
            None => (0, 0, 0),
            Some(wal) => {
                let durable = wal.lock().expect("wal lock poisoned");
                (
                    durable.wal.records(),
                    durable.wal.storage().syncs(),
                    durable.wal.checkpoints(),
                )
            }
        };
        EngineMetrics {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            rejected_by_budget: self.rejected_by_budget.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            stats_refreshes: self.stats_refreshes.load(Ordering::Relaxed),
            stats_epoch,
            snapshot_epoch,
            accesses: self.meter.snapshot(),
            materialized_hits: self.materialized.hits(),
            materialized_entries: self.materialized.len() as u64,
            maintenance_runs: self.maintenance_runs.load(Ordering::Relaxed),
            maintenance_fallbacks: self.maintenance_fallbacks.load(Ordering::Relaxed),
            materialized_evictions: self.materialized.evictions(),
            maintenance_accesses: self.maintenance_meter.snapshot(),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            deltas_coalesced: self.deltas_coalesced.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            shared_fetches: self.shared_fetches.load(Ordering::Relaxed),
            snapshot_pins: self.store.pins(),
            wal_records,
            wal_syncs,
            checkpoints,
            queue_depth: self.queued.load(Ordering::Relaxed) as u64,
            in_flight: self.telemetry.in_flight.load(Ordering::Relaxed),
            traces_emitted: self.telemetry.traces_emitted.load(Ordering::Relaxed),
            subscribers: self.subscriptions.subscriber_count(),
            subscription_queue_depth: self.subscriptions.queued_updates(),
            subscription_deliveries: self.subscriptions.delivered(),
            subscription_resyncs: self.subscriptions.resyncs(),
            subscription_overflows: self.subscriptions.overflows(),
        }
    }

    /// Contributes every engine counter and gauge to the telemetry
    /// registry's exposition page (the collector registered at build time).
    fn collect_samples(&self, out: &mut Vec<Sample>) {
        let m = self.metrics();
        out.push(Sample::counter("si_requests_total", m.requests));
        out.push(Sample::counter("si_plan_cache_hits_total", m.cache_hits));
        out.push(Sample::counter(
            "si_plan_cache_misses_total",
            m.cache_misses,
        ));
        out.push(Sample::counter(
            "si_rejected_by_budget_total",
            m.rejected_by_budget,
        ));
        out.push(Sample::counter("si_shed_overload_total", m.shed_overload));
        out.push(Sample::counter("si_commits_total", m.commits));
        out.push(Sample::counter(
            "si_stats_refreshes_total",
            m.stats_refreshes,
        ));
        out.push(Sample::gauge("si_stats_epoch", m.stats_epoch));
        out.push(Sample::gauge("si_snapshot_epoch", m.snapshot_epoch));
        for (name, value) in m.accesses.named_counters() {
            out.push(Sample::counter("si_accesses_total", value).label("counter", name));
        }
        out.push(Sample::counter(
            "si_materialized_hits_total",
            m.materialized_hits,
        ));
        out.push(Sample::gauge(
            "si_materialized_entries",
            m.materialized_entries,
        ));
        out.push(Sample::counter(
            "si_maintenance_runs_total",
            m.maintenance_runs,
        ));
        out.push(Sample::counter(
            "si_maintenance_fallbacks_total",
            m.maintenance_fallbacks,
        ));
        out.push(Sample::counter(
            "si_materialized_evictions_total",
            m.materialized_evictions,
        ));
        for (name, value) in m.maintenance_accesses.named_counters() {
            out.push(
                Sample::counter("si_maintenance_accesses_total", value).label("counter", name),
            );
        }
        out.push(Sample::counter("si_group_commits_total", m.group_commits));
        out.push(Sample::counter(
            "si_deltas_coalesced_total",
            m.deltas_coalesced,
        ));
        out.push(Sample::counter(
            "si_batched_requests_total",
            m.batched_requests,
        ));
        out.push(Sample::counter("si_shared_fetches_total", m.shared_fetches));
        out.push(Sample::counter("si_snapshot_pins_total", m.snapshot_pins));
        out.push(Sample::counter("si_wal_records_total", m.wal_records));
        out.push(Sample::counter("si_wal_syncs_total", m.wal_syncs));
        out.push(Sample::counter("si_checkpoints_total", m.checkpoints));
        out.push(Sample::gauge("si_queue_depth", m.queue_depth));
        out.push(Sample::gauge("si_in_flight", m.in_flight));
        out.push(Sample::counter("si_traces_emitted_total", m.traces_emitted));
        out.push(Sample::gauge("si_subscribers", m.subscribers));
        out.push(Sample::gauge(
            "si_subscription_queue_depth",
            m.subscription_queue_depth,
        ));
        out.push(Sample::counter(
            "si_subscription_deliveries_total",
            m.subscription_deliveries,
        ));
        out.push(Sample::counter(
            "si_subscription_resyncs_total",
            m.subscription_resyncs,
        ));
        out.push(Sample::counter(
            "si_subscription_overflows_total",
            m.subscription_overflows,
        ));
        if let Some(wal) = &self.wal {
            let durable = wal.lock().expect("wal lock poisoned");
            out.push(Sample::gauge(
                "si_wal_segment_bytes",
                durable.wal.segment_bytes(),
            ));
        }
        for stats in self.store.shard_stats() {
            out.push(
                Sample::gauge("si_shard_rows", stats.rows).label("shard", stats.shard.to_string()),
            );
        }
        let replication = self
            .replication
            .read()
            .expect("replication lock poisoned")
            .clone();
        if let Some(set) = replication {
            let primary = self.store.epoch();
            for status in set.statuses() {
                let shard = status.shard.to_string();
                out.push(
                    Sample::gauge("si_replica_epoch", status.acked_epoch)
                        .label("shard", shard.clone()),
                );
                out.push(
                    Sample::gauge("si_replica_lag", primary.saturating_sub(status.acked_epoch))
                        .label("shard", shard.clone()),
                );
                out.push(
                    Sample::gauge("si_replica_connected", u64::from(status.connected))
                        .label("shard", shard),
                );
            }
        }
    }
}

/// Checks `access` against `db`'s schema and declares every index it
/// promises (lazily built, inside whichever version first probes it).
fn declare_indexes(db: &mut Database, access: &AccessSchema) -> Result<()> {
    access.validate(db.schema())?;
    for (relation, attrs) in access.required_indexes() {
        if !attrs.is_empty() {
            db.declare_index(&relation, &attrs)?;
        }
    }
    Ok(())
}

/// Saturating `Duration` → nanoseconds (u64).
fn nanos_of(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A response that has been submitted to the worker pool but may not have
/// completed yet.
#[derive(Debug)]
pub struct PendingResponse {
    receiver: mpsc::Receiver<Result<QueryResponse>>,
}

impl PendingResponse {
    /// Blocks until the response is ready.
    pub fn wait(self) -> Result<QueryResponse> {
        self.receiver
            .recv()
            .map_err(|_| EngineError::ShuttingDown)?
    }

    /// Returns the response if it is already ready.
    pub fn try_wait(&self) -> Option<Result<QueryResponse>> {
        self.receiver.try_recv().ok()
    }
}

/// The concurrent query-serving engine.  See the crate docs for the request
/// lifecycle.
///
/// `Engine` is `Sync`: clients may call [`Engine::execute`] from any number
/// of threads (closed-loop serving), or [`Engine::submit`] to hand requests
/// to the fixed worker pool (open-loop serving).  Exactly one logical writer
/// should call [`Engine::commit`]; concurrent commits are safe but
/// serialise.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    pool: pool::WorkerPool,
    committer: commit_queue::CommitQueue,
}

impl Engine {
    /// Builds an engine over an initial instance and an access schema: the
    /// 1-shard case of [`Engine::new_sharded`], whose only shard is `db`
    /// itself (no copy).
    ///
    /// Declares every index the access schema promises (lazily — each
    /// materialises on first probe, inside whichever snapshot version first
    /// needs it) and collects the statistics epoch 0.
    pub fn new(db: Database, access: AccessSchema, config: EngineConfig) -> Result<Engine> {
        Self::new_sharded(db, access, PartitionMap::new(), 1, config)
    }

    /// Builds a **durable** engine over an initial instance: the instance is
    /// published to `storage` as the base checkpoint, and from then on every
    /// commit pass appends one epoch-stamped record to the write-ahead log —
    /// fsynced — *before* the in-memory store applies it.  After a crash,
    /// [`Engine::recover`] over the same storage rebuilds an engine whose
    /// state is exactly the maximal durable prefix of the commit history.
    /// The 1-shard case of [`Engine::new_sharded_durable`].
    ///
    /// The policy knobs come from [`EngineConfig::durability`]
    /// ([`DurabilityConfig::default`] if unset).
    pub fn new_durable(
        db: Database,
        access: AccessSchema,
        storage: Box<dyn si_durability::Storage>,
        config: EngineConfig,
    ) -> Result<Engine> {
        Self::new_sharded_durable(db, access, PartitionMap::new(), 1, storage, config)
    }

    /// Builds an engine over a **hash-partitioned** store: `shards`
    /// partitions of the initial instance, routed by `partition` (the
    /// declared partition column per relation — see
    /// [`si_data::PartitionMap`]).
    ///
    /// Requests plan once against exact global statistics and execute
    /// scatter-gather: probes that bind a relation's partition column route
    /// to a single shard, everything else fans across shards merging in
    /// shard order — answers, epochs and access accounting are identical to
    /// the unsharded engine (the shard-equivalence suite pins this).
    /// Commits split the delta by route and commit shard-locally under one
    /// coherent global epoch; materialized answers are maintained per shard
    /// on the shard-local delta.
    pub fn new_sharded(
        db: Database,
        access: AccessSchema,
        partition: PartitionMap,
        shards: usize,
        config: EngineConfig,
    ) -> Result<Engine> {
        let (store, stats) = Self::prepare(db, &access, partition, shards)?;
        Ok(Self::build(
            store,
            access,
            stats,
            config,
            None,
            Arc::new(SubscriptionRegistry::new()),
        ))
    }

    /// Builds a **durable** hash-partitioned engine: [`Engine::new_sharded`]
    /// plus the write-ahead log of [`Engine::new_durable`].  The base
    /// checkpoint captures every shard's pages and the partition map, so
    /// recovery rebuilds the same layout and routing.
    pub fn new_sharded_durable(
        db: Database,
        access: AccessSchema,
        partition: PartitionMap,
        shards: usize,
        storage: Box<dyn si_durability::Storage>,
        config: EngineConfig,
    ) -> Result<Engine> {
        let (store, stats) = Self::prepare(db, &access, partition, shards)?;
        let wal = Wal::create(storage, &Checkpoint::sharded(&store.pin()))
            .map_err(EngineError::Durability)?;
        Ok(Self::build(
            store,
            access,
            stats,
            config,
            Some(wal),
            Arc::new(SubscriptionRegistry::new()),
        ))
    }

    /// The constructors' shared first step: validate `access` against the
    /// schema and declare its indexes, collect the statistics of epoch 0,
    /// then partition `db` into the engine's store.
    fn prepare(
        mut db: Database,
        access: &AccessSchema,
        partition: PartitionMap,
        shards: usize,
    ) -> Result<(ShardedSnapshotStore, Arc<DatabaseStats>)> {
        declare_indexes(&mut db, access)?;
        let stats = Arc::new(db.statistics());
        Ok((ShardedSnapshotStore::new(db, partition, shards)?, stats))
    }

    /// Rebuilds a durable engine from `storage` after a crash: newest valid
    /// checkpoint + replay of the contiguous log tail (the torn final
    /// record, if any, is dropped and the log repaired in place).  The
    /// recovered store resumes at the durable epoch with the checkpointed
    /// shard layout and partition map (a single-store checkpoint restores
    /// as one shard); statistics are re-collected from scratch, declared
    /// indexes rebuild lazily, and the materialized answer cache restarts
    /// cold — derived state is never trusted from disk.
    pub fn recover(
        storage: Box<dyn si_durability::Storage>,
        access: AccessSchema,
        config: EngineConfig,
    ) -> Result<Engine> {
        Self::recover_inner(
            storage,
            access,
            config,
            Arc::new(SubscriptionRegistry::new()),
        )
    }

    /// [`Engine::recover`], carrying the subscription registry of the engine
    /// that crashed.  Live [`ObservableQuery`] handles keep their pins
    /// through recovery: every surviving subscription is re-seeded against
    /// the recovered store and its subscribers receive one
    /// [`AnswerUpdate::Resync`] stamped with the recovered epoch — the
    /// explicit signal that anything delivered past the durable prefix must
    /// be discarded.
    pub fn recover_with_subscriptions(
        storage: Box<dyn si_durability::Storage>,
        access: AccessSchema,
        config: EngineConfig,
        subscriptions: Arc<SubscriptionRegistry>,
    ) -> Result<Engine> {
        let engine = Self::recover_inner(storage, access, config, Arc::clone(&subscriptions))?;
        {
            let shared = &engine.shared;
            let _fence = shared.commit_lock.lock().expect("commit lock poisoned");
            let snapshot = shared.store.pin();
            let epoch = snapshot.epoch();
            for shape in subscriptions.subscribed() {
                let canonical = CanonicalQuery {
                    key: shape.key.0.clone(),
                    query: shape.query,
                    parameters: shape.parameters,
                };
                // A re-seed failure here leaves the key for the first
                // commit's catch-all resync.
                if let Some(full) = shared.reseed_subscription(&snapshot, &canonical, &shape.key) {
                    subscriptions.deliver_resync(&shape.key, epoch, &full);
                }
            }
        }
        Ok(engine)
    }

    fn recover_inner(
        storage: Box<dyn si_durability::Storage>,
        access: AccessSchema,
        config: EngineConfig,
        subscriptions: Arc<SubscriptionRegistry>,
    ) -> Result<Engine> {
        let (recovered, wal) = Wal::recover(storage).map_err(EngineError::Durability)?;
        let mut databases = recovered.databases;
        for db in &mut databases {
            declare_indexes(db, &access)?;
        }
        let partition = match recovered.backend {
            CheckpointBackend::Sharded { partition } => partition,
            // A single-store checkpoint (what unsharded durable engines
            // wrote before every engine ran on the sharded store) holds one
            // database: it restores as a 1-shard store.
            CheckpointBackend::Single => PartitionMap::new(),
        };
        let store = ShardedSnapshotStore::restore(databases, partition, recovered.epoch)?;
        let stats = Arc::new(store.pin().statistics());
        Ok(Self::build(
            store,
            access,
            stats,
            config,
            Some(wal),
            subscriptions,
        ))
    }

    fn build(
        store: ShardedSnapshotStore,
        access: AccessSchema,
        stats: Arc<DatabaseStats>,
        config: EngineConfig,
        wal: Option<Wal>,
        subscriptions: Arc<SubscriptionRegistry>,
    ) -> Engine {
        let shared = Arc::new(Shared {
            access: Arc::new(access),
            store,
            cache: PlanCache::new(config.plan_cache_capacity),
            // The materialized set shares the registry's pin set, so
            // subscribed shapes bypass admission and survive eviction for as
            // long as a subscriber holds them.
            materialized: MaterializedSet::with_pins(
                config.materialize_capacity,
                config.materialize_after,
                Arc::clone(subscriptions.pins()),
            ),
            subscriptions,
            commit_lock: Mutex::new(()),
            stats: RwLock::new(StatsEpoch { stats, epoch: 0 }),
            meter: SharedMeter::new(),
            maintenance_meter: SharedMeter::new(),
            requests: AtomicU64::new(0),
            rejected_by_budget: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            stats_refreshes: AtomicU64::new(0),
            maintenance_runs: AtomicU64::new(0),
            maintenance_fallbacks: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            deltas_coalesced: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            shared_fetches: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            wal: wal.map(|wal| {
                Mutex::new(DurableState {
                    wal,
                    policy: config.durability.clone().unwrap_or_default(),
                    passes: 0,
                })
            }),
            telemetry: EngineTelemetry::new(&config),
            replication: RwLock::new(None),
            config: config.clone(),
        });
        // The registry lives inside `Shared`, so its collector holds a weak
        // reference back — no `Arc` cycle, scrapes after teardown yield
        // nothing instead of leaking the engine.
        let weak = Arc::downgrade(&shared);
        shared.telemetry.registry.register_collector(move |out| {
            if let Some(shared) = weak.upgrade() {
                shared.collect_samples(out);
            }
        });
        let pool = pool::WorkerPool::start(Arc::clone(&shared), config.workers);
        let committer = commit_queue::CommitQueue::start(Arc::clone(&shared));
        Engine {
            shared,
            pool,
            committer,
        }
    }

    /// Serves a request synchronously on the calling thread (admit →
    /// plan-cache → pin snapshot → execute → merge).
    pub fn execute(&self, request: &Request) -> Result<QueryResponse> {
        self.shared.serve(request, Read::Current, 0)
    }

    /// Serves a request against a caller-pinned snapshot version instead of
    /// the current one — the reader side of snapshot isolation: hold the
    /// snapshot from [`Engine::snapshot`] and every execution sees exactly
    /// that version, no matter how many commits happen meanwhile.
    ///
    /// Fails with [`EngineError::EpochUnavailable`] for a version this engine
    /// does not hold: one from a later epoch than it has committed, or a
    /// `Single` snapshot, which no engine produces.
    pub fn execute_at(
        &self,
        snapshot: &EngineSnapshot,
        request: &Request,
    ) -> Result<QueryResponse> {
        match snapshot {
            EngineSnapshot::Sharded(view) => self.shared.serve(request, Read::At(view), 0),
            EngineSnapshot::Single(snap) => Err(EngineError::EpochUnavailable {
                requested: snap.epoch(),
                newest: self.epoch(),
            }),
        }
    }

    /// Attaches (or re-attaches) a shard replica over `transport`, syncing
    /// it to the current version before it joins the serving set.
    ///
    /// The handshake runs under the commit lock, so
    /// no commit can slip between the resync and the live WAL stream: the
    /// replica is brought to the pinned epoch — by replaying the logged
    /// record tail when it bridges the gap, or by a full snapshot bootstrap
    /// otherwise — and every later commit is shipped as one
    /// [`si_wire::Message::WalRecord`] per shard.  Reconnecting after a
    /// torn wire is the same call with a fresh transport; the replica
    /// resumes from its clean applied prefix.
    pub fn attach_replica(
        &self,
        shard: usize,
        transport: Arc<dyn si_wire::Transport>,
    ) -> Result<()> {
        let _writer = self
            .shared
            .commit_lock
            .lock()
            .expect("commit lock poisoned");
        let store = &self.shared.store;
        let view = store.pin();
        let set = {
            let existing = self
                .shared
                .replication
                .read()
                .expect("replication lock poisoned")
                .clone();
            match existing {
                Some(set) => set,
                None => {
                    let schema = Arc::new(view.schema().clone());
                    let router = store
                        .partition_map()
                        .router(&schema, store.shard_count())
                        .map_err(EngineError::Data)?;
                    let set = Arc::new(ReplicaSet::new(
                        schema,
                        Arc::clone(&self.shared.access),
                        Arc::new(router),
                        Arc::clone(&self.shared.telemetry.replication),
                    ));
                    *self
                        .shared
                        .replication
                        .write()
                        .expect("replication lock poisoned") = Some(Arc::clone(&set));
                    set
                }
            }
        };
        set.attach(shard, transport, &view)
    }

    /// Per-shard replica liveness and acknowledged epochs (empty until the
    /// first [`Engine::attach_replica`]).
    pub fn replica_statuses(&self) -> Vec<ReplicaStatus> {
        self.shared
            .replication
            .read()
            .expect("replication lock poisoned")
            .as_ref()
            .map(|set| set.statuses())
            .unwrap_or_default()
    }

    /// Adjusts how long replicated reads wait for every replica to
    /// acknowledge the pinned epoch before refusing with
    /// [`EngineError::EpochUnavailable`].  No-op before the first attach.
    pub fn set_replica_epoch_wait(&self, timeout: Duration) {
        if let Some(set) = self
            .shared
            .replication
            .read()
            .expect("replication lock poisoned")
            .as_ref()
        {
            set.set_epoch_wait(timeout);
        }
    }

    /// Serves a request through the attached replicas instead of the local
    /// shards: pin the current version, wait for every replica to
    /// acknowledge that epoch (read-your-writes), then execute over the
    /// wire with [`si_access::ReplicatedAccess`].  It is the same serve
    /// body as [`Engine::execute`] — admission, plan cache, meter, trace —
    /// except that it skips the materialized answer layer.
    ///
    /// Answers, witnesses and [`MeterSnapshot`] accounting are identical to
    /// [`Engine::execute`] at the same version — the replicas run only the
    /// raw pushed-down probes; routing, residual filtering and metering
    /// stay here.  Fails with [`EngineError::EpochUnavailable`] when a
    /// lagging replica cannot acknowledge the pinned epoch in time, and
    /// with [`EngineError::Replication`] when a shard has no replica.
    pub fn execute_replicated(&self, request: &Request) -> Result<QueryResponse> {
        self.shared.serve(request, Read::Replicated, 0)
    }

    /// Registers a reactive subscription for `request`'s answers.
    ///
    /// The returned [`ObservableQuery`] immediately holds one
    /// [`AnswerUpdate::Resync`] carrying the full answer at the registration
    /// epoch; from then on every commit that changes the answer pushes an
    /// epoch-stamped [`ChangeSet`] (group commits deliver the net effect,
    /// no-op commits are elided).  When the engine cannot advance the stream
    /// incrementally — maintenance fell back, the subscriber's queue
    /// overflowed, or the engine recovered from a crash — the subscriber
    /// gets a fresh `Resync` instead of going silently stale.  Applying the
    /// updates in order from epoch 0 reconstructs exactly what a cold query
    /// would answer at every epoch.
    ///
    /// Subscribed shapes are pinned into the materialized layer: they bypass
    /// hotness admission and survive eviction until the handle drops.
    pub fn subscribe(&self, request: &Request) -> Result<ObservableQuery> {
        self.shared.subscribe(request)
    }

    /// The engine's subscription registry — shared state behind every
    /// [`ObservableQuery`] this engine hands out.  Keep a clone and pass it
    /// to [`Engine::recover_with_subscriptions`] to carry live
    /// subscriptions across a crash.
    pub fn subscriptions(&self) -> Arc<SubscriptionRegistry> {
        Arc::clone(&self.shared.subscriptions)
    }

    /// Queues a request on the worker pool, shedding load when the queue is
    /// at capacity.
    pub fn submit(&self, request: Request) -> Result<PendingResponse> {
        let max = self.shared.config.max_queue;
        let queued = self.shared.queued.fetch_add(1, Ordering::Relaxed);
        if max > 0 && queued >= max {
            self.shared.queued.fetch_sub(1, Ordering::Relaxed);
            self.shared.shed_overload.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::Overloaded {
                queued,
                max_queue: max,
            });
        }
        let (reply, receiver) = mpsc::channel();
        match self.pool.submit(pool::Job {
            request,
            reply,
            submitted: Instant::now(),
        }) {
            Ok(()) => Ok(PendingResponse { receiver }),
            Err(e) => {
                self.shared.queued.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Serves a slice of requests against **one** pinned current version,
    /// sharing the fetch phase among requests with identical canonical
    /// shape and parameter values.
    ///
    /// Responses come back in request order and each is exactly what
    /// [`Engine::execute`] would have produced for that request at that
    /// version (same answers, same cache-hit and materialized flags).  The
    /// difference is cost: a group of `k` identical requests runs the fetch
    /// phase **once**, the engine meter is charged once, and each sharing
    /// response reports an attributed share `C/k` (remainder on the first)
    /// so that response shares still sum to the true global cost.  Requests
    /// the materialized layer answers report zero, as always.
    ///
    /// Each member runs the same serve body as [`Engine::execute`], in
    /// request order; a member's trace is emitted once its share is known,
    /// so trace and response meter agree.  A batch of one is exactly
    /// [`Engine::execute`].
    pub fn execute_batch(&self, requests: &[Request]) -> Vec<Result<QueryResponse>> {
        self.shared.serve_batch(requests, &[])
    }

    /// Applies an update to the current version, returning the new snapshot
    /// epoch.  Statistics re-collect (and cached plans invalidate) when the
    /// committed row counts drift past the configured threshold.
    ///
    /// This is a synchronous **group commit of one**: one epoch bump, one
    /// maintenance pass, no queueing.  To coalesce many small commits into
    /// one pass, use [`Engine::commit_async`] / [`Engine::commit_group`].
    pub fn commit(&self, delta: &Delta) -> Result<u64> {
        self.shared.commit(delta)
    }

    /// Commits a batch of deltas as **one** storage commit: each delta is
    /// validated atomically against the evolved state (exactly as a
    /// sequential chain of [`Engine::commit`]s would) and folded into one
    /// net-effect delta — delete-then-reinsert across the batch cancels —
    /// then the accepted deltas share one epoch bump, one maintenance pass
    /// and one statistics drift probe.  Returns one outcome per delta, in
    /// order: `Ok(new epoch)` for each accepted delta, its own validation
    /// error for each rejected one (rejected deltas fold nothing).
    pub fn commit_group(&self, deltas: &[Delta]) -> Vec<Result<u64>> {
        self.shared.commit_group(deltas)
    }

    /// Enqueues a delta on the group committer and returns immediately; the
    /// committer gathers queued deltas — up to
    /// [`EngineConfig::commit_batch_max`], waiting at most
    /// [`EngineConfig::commit_linger`] for stragglers — and commits each
    /// gathered batch through [`Engine::commit_group`].  The returned
    /// ticket resolves to this delta's own outcome.
    pub fn commit_async(&self, delta: Delta) -> Result<CommitTicket> {
        self.committer.enqueue(delta)
    }

    /// Blocks until every delta enqueued via [`Engine::commit_async`]
    /// *before this call* has been committed (or rejected).
    pub fn flush_commits(&self) -> Result<()> {
        self.committer.flush()
    }

    /// True when this engine logs commits to a write-ahead log (built via a
    /// durable constructor or [`Engine::recover`]).
    pub fn is_durable(&self) -> bool {
        self.shared.wal.is_some()
    }

    /// Manually checkpoints a durable engine: publishes the current version
    /// (tmp → sync → atomic rename under a content-derived name), truncates
    /// the log beneath it and prunes old checkpoints per
    /// [`DurabilityConfig::keep_checkpoints`].  Serialises with commits, so
    /// the published state is exactly one committed version.  Errors on a
    /// non-durable engine.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = &self.shared.wal else {
            return Err(EngineError::Durability(DurabilityError::Invariant(
                "engine has no durability plane; build it with a durable constructor".into(),
            )));
        };
        // Same lock order as the commit path: commit lock, then WAL.
        let _writer = self
            .shared
            .commit_lock
            .lock()
            .expect("commit lock poisoned");
        let ckpt = Checkpoint::sharded(&self.shared.store.pin());
        let mut durable = wal.lock().expect("wal lock poisoned");
        let keep = durable.policy.keep_checkpoints;
        durable
            .wal
            .checkpoint(&ckpt, keep)
            .map_err(EngineError::Durability)
    }

    /// Pins the current snapshot version: always a `Sharded` view (one shard
    /// on an unsharded engine).
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot::Sharded(self.shared.store.pin())
    }

    /// Number of data shards (1 for an engine built with [`Engine::new`]).
    pub fn data_shards(&self) -> usize {
        self.shared.store.shard_count()
    }

    /// Per-shard balance numbers, one entry per data shard (one entry
    /// holding every row on an unsharded engine).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shared.store.shard_stats()
    }

    /// The current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.store.epoch()
    }

    /// The access schema the engine serves under.
    pub fn access_schema(&self) -> &AccessSchema {
        &self.shared.access
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// A snapshot of the engine counters.
    pub fn metrics(&self) -> EngineMetrics {
        self.shared.metrics()
    }

    /// The engine's telemetry registry: latency histograms, the slow-query
    /// log, the commit-span log, and [`TelemetryRegistry::render`] — the
    /// Prometheus-style text exposition of every engine counter and gauge.
    ///
    /// ```
    /// # use si_engine::{Engine, EngineConfig, Request};
    /// # use si_data::Value;
    /// # let db = si_workload::SocialGenerator::new(
    /// #     si_workload::SocialConfig::with_persons(50)).generate();
    /// # let access = si_workload::serving_access_schema(5000);
    /// # let engine = Engine::new(db, access, EngineConfig::default()).unwrap();
    /// # let request = Request::new(si_workload::q1(), vec!["p".into()], vec![Value::int(7)]);
    /// # engine.execute(&request).unwrap();
    /// let page = engine.telemetry().render();
    /// assert!(page.contains("si_requests_total 1"));
    /// ```
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.shared.telemetry.registry
    }

    /// Retunes the request-trace sampling rate at runtime (the live
    /// counterpart of [`EngineConfig::trace_sample_every`]): 0 turns inline
    /// tracing off, 1 traces every request, N traces 1-in-N.  Takes effect
    /// for subsequently admitted requests; slow-query capture and the
    /// per-request opt-in are unaffected.
    pub fn set_trace_sampling(&self, every: u64) {
        self.shared.telemetry.sampler.set_every(every);
    }
}

// Compile-time thread-safety audit of the serving layer (see the matching
// block in `si-data`): the engine handle is shared by reference across
// client threads, responses and requests cross thread boundaries.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineConfig>();
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<Request>();
    assert_send_sync::<QueryResponse>();
    assert_send_sync::<EngineMetrics>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<CachedPlan>();
    assert_send_sync::<ShardReplica>();
    assert_send_sync::<ReplicaClient>();
    assert_send_sync::<ReplicaSet>();
    assert_send_sync::<ReplicaStatus>();
    assert_send_sync::<MaterializedSet>();
    assert_send_sync::<MaterializedAnswer>();
    assert_send_sync::<PinSet>();
    assert_send_sync::<SubscriptionRegistry>();
    assert_send_sync::<ObservableQuery>();
    assert_send_sync::<AnswerUpdate>();
    assert_send_sync::<ChangeSet>();
    assert_send_sync::<Shared>();
    const fn assert_send<T: Send>() {}
    assert_send::<PendingResponse>();
    assert_send::<CommitTicket>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use si_data::schema::social_schema;
    use si_data::tuple;
    use si_query::parse_cq;

    fn q1() -> ConjunctiveQuery {
        parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap()
    }

    fn small_db() -> Database {
        let mut db = Database::empty(social_schema());
        db.insert_all(
            "person",
            vec![
                tuple![1, "ann", "NYC"],
                tuple![2, "bob", "NYC"],
                tuple![3, "cat", "LA"],
                tuple![4, "dan", "NYC"],
            ],
        )
        .unwrap();
        db.insert_all(
            "friend",
            vec![tuple![1, 2], tuple![1, 3], tuple![1, 4], tuple![2, 4]],
        )
        .unwrap();
        db
    }

    fn engine(config: EngineConfig) -> Engine {
        Engine::new(small_db(), si_access::facebook_access_schema(5000), config).unwrap()
    }

    fn req(p: i64) -> Request {
        Request::new(q1(), vec!["p".into()], vec![Value::int(p)])
    }

    #[test]
    fn execute_answers_and_caches() {
        let engine = engine(EngineConfig::default());
        let first = engine.execute(&req(1)).unwrap();
        let mut answers = first.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["bob"], tuple!["dan"]]);
        assert!(!first.cache_hit);
        assert_eq!(first.epoch, 0);
        assert_eq!(first.static_cost.max_tuples, 10_000);
        // Same shape, different value: plan-cache hit.
        let second = engine.execute(&req(2)).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.answers, vec![tuple!["dan"]]);
        // Alpha-renamed query: still a hit.
        let renamed = parse_cq(r#"Zed(x, n) :- friend(x, i), person(i, n, "NYC")"#).unwrap();
        let third = engine
            .execute(&Request::new(
                renamed,
                vec!["x".into()],
                vec![Value::int(1)],
            ))
            .unwrap();
        assert!(third.cache_hit);
        let m = engine.metrics();
        assert_eq!(m.requests, 3);
        assert_eq!(m.cache_hits, 2);
        assert_eq!(m.cache_misses, 1);
        assert!(m.accesses.tuples_fetched > 0);
    }

    #[test]
    fn admission_rejects_over_budget_requests() {
        let engine = engine(EngineConfig {
            fetch_budget: Some(9_999),
            ..EngineConfig::default()
        });
        let err = engine.execute(&req(1)).unwrap_err();
        assert_eq!(
            err,
            EngineError::RejectedByBudget {
                budget: 9_999,
                cheapest: 10_000
            }
        );
        assert_eq!(engine.metrics().rejected_by_budget, 1);
        // A generous budget admits.
        let engine = engine_with_budget(Some(10_000));
        assert!(engine.execute(&req(1)).is_ok());
    }

    fn engine_with_budget(fetch_budget: Option<u64>) -> Engine {
        engine(EngineConfig {
            fetch_budget,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn parameter_arity_is_checked() {
        let engine = engine(EngineConfig::default());
        let bad = Request::new(q1(), vec!["p".into()], vec![]);
        assert_eq!(
            engine.execute(&bad).unwrap_err(),
            EngineError::ParameterArity {
                expected: 1,
                actual: 0
            }
        );
    }

    #[test]
    fn commit_advances_epochs_and_refreshes_stats_on_drift() {
        let engine = engine(EngineConfig {
            stats_drift_threshold: 0.0, // every commit drifts
            ..EngineConfig::default()
        });
        assert_eq!(engine.epoch(), 0);
        let answers_before = engine.execute(&req(2)).unwrap();
        let epoch = engine
            .commit(Delta::new().insert("friend", tuple![2, 1]))
            .unwrap();
        assert_eq!(epoch, 1);
        let m = engine.metrics();
        assert_eq!(m.commits, 1);
        assert_eq!(m.stats_refreshes, 1);
        assert_eq!(m.stats_epoch, 1);
        // The cached plan was invalidated (stats epoch moved): next request
        // re-plans, and sees the new data.
        let after = engine.execute(&req(2)).unwrap();
        assert!(!after.cache_hit);
        assert_eq!(after.epoch, 1);
        let mut answers = after.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["ann"], tuple!["dan"]]);
        assert_eq!(answers_before.answers, vec![tuple!["dan"]]);
    }

    #[test]
    fn plan_cache_metrics_track_cold_warm_and_invalidated_requests() {
        let engine = engine(EngineConfig {
            stats_drift_threshold: 0.0, // every commit bumps the stats epoch
            ..EngineConfig::default()
        });
        engine.execute(&req(1)).unwrap(); // cold → miss
        engine.execute(&req(2)).unwrap(); // warm (same shape) → hit
        engine
            .commit(Delta::new().insert("friend", tuple![3, 4]))
            .unwrap();
        engine.execute(&req(1)).unwrap(); // invalidated by the epoch bump → miss
        engine.execute(&req(2)).unwrap(); // warm again → hit
        let m = engine.metrics();
        assert_eq!(m.cache_hits, 2);
        assert_eq!(m.cache_misses, 2);
        assert_eq!(m.stats_epoch, 1);
    }

    #[test]
    fn pinned_snapshots_serve_old_versions() {
        let engine = engine(EngineConfig::default());
        let pinned = engine.snapshot();
        engine
            .commit(Delta::new().delete("friend", tuple![1, 2]))
            .unwrap();
        let old = engine.execute_at(&pinned, &req(1)).unwrap();
        let new = engine.execute(&req(1)).unwrap();
        assert_eq!(old.epoch, 0);
        assert_eq!(new.epoch, 1);
        let mut old_answers = old.answers;
        old_answers.sort();
        assert_eq!(old_answers, vec![tuple!["bob"], tuple!["dan"]]);
        assert_eq!(new.answers, vec![tuple!["dan"]]);
    }

    #[test]
    fn execute_at_refuses_epochs_the_store_has_not_committed() {
        // Unsharded: a snapshot from another engine's future is refused
        // with a typed error instead of silently serving foreign data.
        let behind = engine(EngineConfig::default());
        let ahead = engine(EngineConfig::default());
        for _ in 0..3 {
            ahead
                .commit(Delta::new().insert("friend", tuple![3, 1]))
                .unwrap();
            ahead
                .commit(Delta::new().delete("friend", tuple![3, 1]))
                .unwrap();
        }
        let future = ahead.snapshot();
        assert_eq!(future.epoch(), 6);
        assert_eq!(
            behind.execute_at(&future, &req(1)).unwrap_err(),
            EngineError::EpochUnavailable {
                requested: 6,
                newest: 0
            }
        );
        // Pins at or behind the store's epoch still serve; the foreign
        // future stays refused with the updated watermark.
        behind
            .commit(Delta::new().insert("friend", tuple![2, 1]))
            .unwrap();
        let pinned = behind.snapshot();
        assert!(behind.execute_at(&pinned, &req(1)).is_ok());
        assert_eq!(
            behind.execute_at(&future, &req(1)).unwrap_err(),
            EngineError::EpochUnavailable {
                requested: 6,
                newest: 1
            }
        );

        // Sharded engines enforce the same guard.
        let behind = sharded_engine(3, EngineConfig::default());
        let ahead = sharded_engine(3, EngineConfig::default());
        ahead
            .commit(Delta::new().insert("friend", tuple![3, 1]))
            .unwrap();
        let future = ahead.snapshot();
        assert_eq!(
            behind.execute_at(&future, &req(1)).unwrap_err(),
            EngineError::EpochUnavailable {
                requested: 1,
                newest: 0
            }
        );
    }

    #[test]
    fn stats_epoch_bump_purges_dead_plan_cache_entries_eagerly() {
        let engine = engine(EngineConfig {
            stats_drift_threshold: 0.0, // every commit bumps the stats epoch
            ..EngineConfig::default()
        });
        engine.execute(&req(1)).unwrap();
        assert_eq!(engine.shared.cache.len(), 1);
        assert_eq!(engine.shared.cache.purged(), 0);
        // The drift-triggered epoch bump reclaims the now-dead entry at the
        // commit itself — no lookups, no capacity pressure required.
        engine
            .commit(Delta::new().insert("friend", tuple![3, 4]))
            .unwrap();
        assert_eq!(engine.shared.cache.purged(), 1);
        assert_eq!(engine.shared.cache.len(), 0);
        // Re-planning under the fresh epoch repopulates and stays put.
        engine.execute(&req(1)).unwrap();
        assert_eq!(engine.shared.cache.len(), 1);
        assert_eq!(engine.shared.cache.purged(), 1);
    }

    /// Boots one [`ShardReplica`] per shard over in-process duplex pipes
    /// and attaches them to the engine.
    fn attach_replica_fleet(engine: &Engine, shards: usize) -> Vec<Arc<ShardReplica>> {
        let mut replicas = Vec::new();
        for shard in 0..shards {
            let (primary_end, replica_end) = si_wire::Duplex::pair();
            let replica = Arc::new(ShardReplica::new(8));
            let conn = Arc::new(si_wire::Connection::new(Arc::new(replica_end)));
            replica.spawn(conn);
            engine.attach_replica(shard, Arc::new(primary_end)).unwrap();
            replicas.push(replica);
        }
        replicas
    }

    #[test]
    fn replicated_execution_matches_local_sharded_execution() {
        let config = EngineConfig {
            materialize_after: u64::MAX, // keep both paths on the plan path
            ..EngineConfig::default()
        };
        let engine = sharded_engine(2, config);
        let replicas = attach_replica_fleet(&engine, 2);
        for p in 1..=4 {
            let local = engine.execute(&req(p)).unwrap();
            let remote = engine.execute_replicated(&req(p)).unwrap();
            let mut a = local.answers.clone();
            let mut b = remote.answers.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "p={p}");
            assert_eq!(local.accesses, remote.accesses, "p={p}");
            assert_eq!(local.epoch, remote.epoch);
            assert_eq!(local.static_cost, remote.static_cost);
        }
        // Read-your-writes: the commit is visible through the replicas
        // immediately after `commit` returns.
        engine
            .commit(Delta::new().insert("friend", tuple![2, 1]))
            .unwrap();
        let local = engine.execute(&req(2)).unwrap();
        let remote = engine.execute_replicated(&req(2)).unwrap();
        let mut a = local.answers.clone();
        let mut b = remote.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(local.accesses, remote.accesses);
        assert_eq!(remote.epoch, 1);
        for replica in &replicas {
            assert_eq!(replica.newest_epoch(), Some(1));
        }
        let statuses = engine.replica_statuses();
        assert_eq!(statuses.len(), 2);
        for status in statuses {
            assert!(status.connected);
            assert_eq!(status.acked_epoch, 1);
        }
    }

    #[test]
    fn lagging_replica_refuses_then_serves_after_catching_up() {
        let engine = sharded_engine(2, EngineConfig::default());
        let replicas = attach_replica_fleet(&engine, 2);
        // Freeze shard 0's WAL application and commit: the replica cannot
        // acknowledge the new epoch, so the epoch-wait times out with a
        // typed refusal instead of serving a stale version.
        replicas[0].pause();
        engine.set_replica_epoch_wait(Duration::from_millis(50));
        engine
            .commit(Delta::new().insert("friend", tuple![2, 1]))
            .unwrap();
        assert_eq!(
            engine.execute_replicated(&req(2)).unwrap_err(),
            EngineError::EpochUnavailable {
                requested: 1,
                newest: 0
            }
        );
        // Resume: the queued record applies, the ack lands, and the same
        // read now serves the committed epoch.
        replicas[0].resume();
        engine.set_replica_epoch_wait(Duration::from_secs(5));
        let served = engine.execute_replicated(&req(2)).unwrap();
        assert_eq!(served.epoch, 1);
        let mut answers = served.answers;
        answers.sort();
        assert_eq!(answers, vec![tuple!["ann"], tuple!["dan"]]);
    }

    #[test]
    fn submit_serves_through_the_pool() {
        let engine = engine(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let pending: Vec<PendingResponse> =
            (1..=4).map(|p| engine.submit(req(p)).unwrap()).collect();
        let responses: Vec<QueryResponse> =
            pending.into_iter().map(|p| p.wait().unwrap()).collect();
        assert_eq!(responses.len(), 4);
        let mut a0 = responses[0].answers.clone();
        a0.sort();
        assert_eq!(a0, vec![tuple!["bob"], tuple!["dan"]]);
        assert!(responses[3].answers.is_empty());
        assert_eq!(engine.metrics().requests, 4);
    }

    #[test]
    fn materialized_answers_serve_with_zero_accesses_and_survive_commits() {
        let engine = engine(EngineConfig {
            materialize_capacity: 16,
            materialize_after: 1,
            ..EngineConfig::default()
        });
        let first = engine.execute(&req(1)).unwrap();
        assert!(!first.materialized);
        assert!(first.accesses.tuples_fetched > 0);
        // Admitted on the first execution (threshold 1): the repeat is
        // served from maintained answers without touching data.
        let second = engine.execute(&req(1)).unwrap();
        assert!(second.materialized);
        assert!(!second.cache_hit);
        assert_eq!(second.accesses, MeterSnapshot::default());
        assert_eq!(second.answers, first.answers);
        assert_eq!(second.static_cost, first.static_cost);

        // A commit touching `friend` is *maintained* into the entry: the
        // next request is still a materialized hit and sees the new answer.
        engine
            .commit(Delta::new().insert("friend", tuple![1, 1]))
            .unwrap();
        let third = engine.execute(&req(1)).unwrap();
        assert!(third.materialized, "maintenance must keep the entry warm");
        assert_eq!(third.epoch, 1);
        let mut answers = third.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["ann"], tuple!["bob"], tuple!["dan"]]);

        let m = engine.metrics();
        assert_eq!(m.materialized_hits, 2);
        assert_eq!(m.materialized_entries, 1);
        assert_eq!(m.maintenance_runs, 1);
        assert_eq!(m.maintenance_fallbacks, 0);
        // The maintenance work was bounded (a point probe, not a re-run) and
        // is accounted on the write path, not in the serve meter.
        assert!(m.maintenance_accesses.tuples_fetched >= 1);
        assert!(m.maintenance_accesses.tuples_fetched <= 4);
        assert_eq!(m.maintenance_accesses.full_scans, 0);
    }

    #[test]
    fn materialization_threshold_counts_executions() {
        let engine = engine(EngineConfig {
            materialize_capacity: 16,
            materialize_after: 3,
            ..EngineConfig::default()
        });
        assert!(!engine.execute(&req(1)).unwrap().materialized);
        assert!(!engine.execute(&req(1)).unwrap().materialized);
        // Third execution admits; the fourth is the first materialized hit.
        assert!(!engine.execute(&req(1)).unwrap().materialized);
        assert!(engine.execute(&req(1)).unwrap().materialized);
        // A different parameter value is a separate hotness counter.
        assert!(!engine.execute(&req(2)).unwrap().materialized);
    }

    #[test]
    fn uneconomical_entries_are_evicted_back_to_the_plan_path() {
        let engine = engine(EngineConfig {
            materialize_capacity: 16,
            materialize_after: 1,
            ..EngineConfig::default()
        });
        // Person 5 has no friends: re-execution fetches 0 tuples, so *any*
        // maintenance work is costlier than recomputing on demand.
        let zero = engine.execute(&req(5)).unwrap();
        assert_eq!(zero.accesses.tuples_fetched, 0);
        assert!(engine.execute(&req(5)).unwrap().materialized);
        // The commit gives person 5 a friend; maintenance fetches ≥ 1 tuple
        // and the cost comparison evicts the entry.
        engine
            .commit(Delta::new().insert("friend", tuple![5, 2]))
            .unwrap();
        let m = engine.metrics();
        assert_eq!(m.maintenance_runs, 1);
        assert_eq!(m.materialized_evictions, 1);
        assert_eq!(m.materialized_entries, 0);
        // The next request falls back to the bounded-plan path — with the
        // maintained-then-evicted answer still correct via re-execution.
        let after = engine.execute(&req(5)).unwrap();
        assert!(!after.materialized);
        assert_eq!(after.answers, vec![tuple!["bob"]]);
    }

    #[test]
    fn execute_at_old_versions_bypasses_materialized_answers() {
        let engine = engine(EngineConfig {
            materialize_capacity: 16,
            materialize_after: 1,
            ..EngineConfig::default()
        });
        engine.execute(&req(1)).unwrap();
        let pinned = engine.snapshot();
        engine
            .commit(Delta::new().insert("friend", tuple![1, 1]))
            .unwrap();
        // The entry was maintained to epoch 1; the pinned epoch-0 read must
        // not be served from it.
        let old = engine.execute_at(&pinned, &req(1)).unwrap();
        assert!(!old.materialized);
        let mut answers = old.answers;
        answers.sort();
        assert_eq!(answers, vec![tuple!["bob"], tuple!["dan"]]);
        // The current version is served from the maintained entry.
        let new = engine.execute(&req(1)).unwrap();
        assert!(new.materialized);
        let mut answers = new.answers;
        answers.sort();
        assert_eq!(answers, vec![tuple!["ann"], tuple!["bob"], tuple!["dan"]]);
    }

    fn social_partition() -> PartitionMap {
        PartitionMap::new()
            .with("person", "id")
            .with("friend", "id1")
            .with("visit", "id")
            .with("restr", "rid")
    }

    fn sharded_engine(shards: usize, config: EngineConfig) -> Engine {
        Engine::new_sharded(
            small_db(),
            si_access::facebook_access_schema(5000),
            social_partition(),
            shards,
            config,
        )
        .unwrap()
    }

    #[test]
    fn data_sharded_engine_is_answer_epoch_and_meter_identical() {
        let plain = engine(EngineConfig::default());
        for shards in [1usize, 2, 3, 8] {
            let sharded = sharded_engine(shards, EngineConfig::default());
            assert_eq!(sharded.data_shards(), shards);
            for p in 1..=4 {
                let a = sharded.execute(&req(p)).unwrap();
                let b = plain.execute(&req(p)).unwrap();
                let mut sa = a.answers.clone();
                let mut sb = b.answers.clone();
                sa.sort();
                sb.sort();
                assert_eq!(sa, sb, "shards={shards} p={p}");
                assert_eq!(a.accesses, b.accesses, "shards={shards} p={p}");
                assert_eq!(a.epoch, b.epoch);
                assert_eq!(a.static_cost, b.static_cost);
            }
            // Same commit, same epochs, same post-commit answers.
            let delta = Delta::new().insert("friend", tuple![2, 1]).clone();
            let es = sharded.commit(&delta).unwrap();
            assert_eq!(es, 1);
            let after = sharded.execute(&req(2)).unwrap();
            let mut answers = after.answers.clone();
            answers.sort();
            assert_eq!(answers, vec![tuple!["ann"], tuple!["dan"]]);
            assert_eq!(after.epoch, 1);
        }
        assert_eq!(plain.data_shards(), 1);
        let stats = plain.shard_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].rows, small_db().size());
    }

    #[test]
    fn sharded_engine_reports_shard_balance_and_merged_snapshots() {
        let engine = sharded_engine(3, EngineConfig::default());
        let stats = engine.shard_stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(
            stats.iter().map(|s| s.rows).sum::<usize>(),
            small_db().size()
        );
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.size(), small_db().size());
        // Merged statistics equal unsharded collection exactly.
        assert_eq!(snapshot.statistics(), small_db().statistics());
        let merged = snapshot.to_database();
        assert!(merged.contains_database(&small_db()));
        assert_eq!(merged.size(), small_db().size());
    }

    #[test]
    fn sharded_engine_serves_pinned_old_versions() {
        let engine = sharded_engine(3, EngineConfig::default());
        let pinned = engine.snapshot();
        engine
            .commit(Delta::new().delete("friend", tuple![1, 2]))
            .unwrap();
        let old = engine.execute_at(&pinned, &req(1)).unwrap();
        let new = engine.execute(&req(1)).unwrap();
        assert_eq!(old.epoch, 0);
        assert_eq!(new.epoch, 1);
        let mut old_answers = old.answers;
        old_answers.sort();
        assert_eq!(old_answers, vec![tuple!["bob"], tuple!["dan"]]);
        assert_eq!(new.answers, vec![tuple!["dan"]]);
    }

    #[test]
    fn sharded_engine_maintains_materialized_answers_per_shard_delta() {
        let engine = sharded_engine(
            3,
            EngineConfig {
                materialize_capacity: 16,
                materialize_after: 1,
                ..EngineConfig::default()
            },
        );
        let first = engine.execute(&req(1)).unwrap();
        assert!(!first.materialized);
        assert!(engine.execute(&req(1)).unwrap().materialized);
        // A multi-tuple commit that splits across shards is maintained into
        // the entry; the next request is still a zero-access hit.
        let mut delta = Delta::new();
        delta.insert("friend", tuple![1, 1]);
        delta.insert("visit", tuple![2, 10]);
        engine.commit(&delta).unwrap();
        let third = engine.execute(&req(1)).unwrap();
        assert!(third.materialized, "maintenance must keep the entry warm");
        assert_eq!(third.epoch, 1);
        let mut answers = third.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["ann"], tuple!["bob"], tuple!["dan"]]);
        let m = engine.metrics();
        assert_eq!(m.maintenance_runs, 1);
        assert_eq!(m.maintenance_fallbacks, 0);
        assert_eq!(m.maintenance_accesses.full_scans, 0);
    }

    #[test]
    fn group_commit_coalesces_into_one_epoch_bump() {
        let engine = engine(EngineConfig::default());
        let deltas = vec![
            Delta::new().insert("friend", tuple![3, 1]).clone(),
            Delta::new().delete("friend", tuple![3, 1]).clone(),
            Delta::new().insert("friend", tuple![3, 1]).clone(),
            Delta::new().insert("friend", tuple![4, 1]).clone(),
        ];
        let outcomes = engine.commit_group(&deltas);
        assert_eq!(outcomes.len(), 4);
        for outcome in &outcomes {
            assert_eq!(outcome.as_ref().copied(), Ok(1), "one shared epoch");
        }
        assert_eq!(engine.epoch(), 1);
        let m = engine.metrics();
        assert_eq!(m.commits, 4);
        assert_eq!(m.group_commits, 1);
        assert_eq!(m.deltas_coalesced, 4);
        // The final state is what four sequential commits would have left.
        let answers = engine.execute(&req(3)).unwrap().answers;
        let mut answers = answers;
        answers.sort();
        assert_eq!(answers, vec![tuple!["ann"]]);
        assert_eq!(
            engine.execute(&req(4)).unwrap().answers,
            vec![tuple!["ann"]]
        );
    }

    #[test]
    fn group_commit_rejects_bad_deltas_individually() {
        let engine = engine(EngineConfig::default());
        let deltas = vec![
            // Valid: new edge.
            Delta::new().insert("friend", tuple![3, 1]).clone(),
            // Invalid: deletes a tuple that does not exist (not even after
            // the first delta).
            Delta::new().delete("friend", tuple![9, 9]).clone(),
            // Valid, and depends on the first delta's insertion.
            Delta::new().delete("friend", tuple![3, 1]).clone(),
        ];
        let outcomes = engine.commit_group(&deltas);
        assert_eq!(outcomes[0].as_ref().copied(), Ok(1));
        assert!(matches!(outcomes[1], Err(EngineError::Data(_))));
        assert_eq!(outcomes[2].as_ref().copied(), Ok(1));
        let m = engine.metrics();
        assert_eq!(m.commits, 2);
        assert_eq!(m.group_commits, 1);
        assert_eq!(m.deltas_coalesced, 2);
        // Net effect of the accepted pair is empty: state unchanged.
        assert!(engine.execute(&req(3)).unwrap().answers.is_empty());
    }

    #[test]
    fn sync_commit_is_a_group_of_one() {
        let engine = engine(EngineConfig::default());
        engine
            .commit(Delta::new().insert("friend", tuple![2, 1]))
            .unwrap();
        let m = engine.metrics();
        assert_eq!(m.commits, 1);
        assert_eq!(m.group_commits, 1);
        assert_eq!(m.deltas_coalesced, 0, "a pass of one coalesces nothing");
        // Error kinds match the sequential path.
        let err = engine
            .commit(Delta::new().delete("friend", tuple![9, 9]))
            .unwrap_err();
        assert!(matches!(err, EngineError::Data(_)));
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn commit_async_coalesces_queued_deltas() {
        let engine = engine(EngineConfig {
            commit_linger: Duration::from_millis(500),
            commit_batch_max: 64,
            ..EngineConfig::default()
        });
        let tickets: Vec<CommitTicket> = (0..8)
            .map(|i| {
                engine
                    .commit_async(Delta::new().insert("friend", tuple![4, i]).clone())
                    .unwrap()
            })
            .collect();
        engine.flush_commits().unwrap();
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap(), 1, "all eight share one epoch");
        }
        let m = engine.metrics();
        assert_eq!(m.snapshot_epoch, 1);
        assert_eq!(m.commits, 8);
        assert_eq!(m.group_commits, 1);
        assert_eq!(m.deltas_coalesced, 8);
    }

    #[test]
    fn dropping_the_engine_resolves_every_queued_commit_ticket() {
        // A long linger guarantees teardown lands while the committer is
        // still gathering: shutdown must drain the queue, not strand it.
        let engine = engine(EngineConfig {
            commit_linger: Duration::from_secs(5),
            commit_batch_max: 3,
            ..EngineConfig::default()
        });
        let tickets: Vec<CommitTicket> = (0..8)
            .map(|i| {
                engine
                    .commit_async(Delta::new().insert("friend", tuple![4, i]).clone())
                    .unwrap()
            })
            .collect();
        drop(engine);
        let mut epochs = Vec::new();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let epoch = ticket
                .wait()
                .unwrap_or_else(|e| panic!("ticket {i} stranded by shutdown: {e:?}"));
            epochs.push(epoch);
        }
        // Every delta was applied, in order, across the drained batches.
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*epochs.last().unwrap(), 3, "8 deltas in batches of 3");
    }

    #[test]
    fn dropping_a_durable_engine_resolves_every_queued_commit_ticket() {
        let disk = SimDisk::new();
        let engine = durable_engine(
            &disk,
            EngineConfig {
                commit_linger: Duration::from_secs(5),
                commit_batch_max: 64,
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<CommitTicket> = (0..4)
            .map(|i| {
                engine
                    .commit_async(Delta::new().insert("friend", tuple![4, i]).clone())
                    .unwrap()
            })
            .collect();
        drop(engine);
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(
                ticket
                    .wait()
                    .unwrap_or_else(|e| panic!("durable ticket {i} stranded by shutdown: {e:?}")),
                1,
                "the drained batch shares one epoch"
            );
        }
        // The drained commits are durable: recovery sees all four rows.
        let recovered = Engine::recover(
            Box::new(disk),
            si_access::facebook_access_schema(5000),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.epoch(), 1);
        // Person 4's new friends 0..4 resolve to the NYC persons 1 and 2.
        let mut answers = recovered.execute(&req(4)).unwrap().answers;
        answers.sort();
        assert_eq!(answers, vec![tuple!["ann"], tuple!["bob"]]);
    }

    #[test]
    fn flush_commits_on_an_idle_queue_returns_immediately() {
        let engine = engine(EngineConfig::default());
        engine.flush_commits().unwrap();
        assert_eq!(engine.metrics().group_commits, 0);
    }

    #[test]
    fn execute_batch_shares_the_fetch_and_attributes_exact_shares() {
        let engine = engine(EngineConfig::default());
        let baseline = engine.execute(&req(1)).unwrap();
        let fetch_cost = baseline.accesses;
        assert!(fetch_cost.tuples_fetched > 0);
        let before = engine.metrics().accesses;

        let batch: Vec<Request> = (0..5).map(|_| req(1)).collect();
        let responses = engine.execute_batch(&batch);
        let responses: Vec<QueryResponse> = responses.into_iter().map(|r| r.unwrap()).collect();
        for response in &responses {
            assert_eq!(response.answers, baseline.answers);
            assert!(!response.materialized);
        }
        // The engine meter was charged the fetch cost ONCE for the group.
        let after = engine.metrics().accesses;
        assert_eq!(
            after.tuples_fetched - before.tuples_fetched,
            fetch_cost.tuples_fetched
        );
        // Per-response attributed shares sum to exactly the fetch cost.
        let summed: u64 = responses.iter().map(|r| r.accesses.tuples_fetched).sum();
        assert_eq!(summed, fetch_cost.tuples_fetched);
        // The first sharer carries the remainder; later ones report C/5.
        assert_eq!(
            responses[1].accesses.tuples_fetched,
            fetch_cost.tuples_fetched / 5
        );
        let m = engine.metrics();
        assert_eq!(m.shared_fetches, 1);
        assert_eq!(m.batched_requests, 5);
        assert_eq!(m.requests, 6);
    }

    #[test]
    fn execute_batch_mixes_groups_and_singletons_in_request_order() {
        let engine = engine(EngineConfig::default());
        let batch = vec![req(1), req(2), req(1), req(3), req(1)];
        let responses = engine.execute_batch(&batch);
        assert_eq!(responses.len(), 5);
        for (i, p) in [(0usize, 1i64), (1, 2), (2, 1), (3, 3), (4, 1)] {
            let lone = engine.execute(&req(p)).unwrap();
            assert_eq!(
                responses[i].as_ref().unwrap().answers,
                lone.answers,
                "i={i}"
            );
        }
        let m = engine.metrics();
        // One group of three plus two singletons.
        assert_eq!(m.shared_fetches, 1);
        assert_eq!(m.batched_requests, 3);
    }

    #[test]
    fn execute_batch_matches_unbatched_materialization_exactly() {
        let config = EngineConfig {
            materialize_capacity: 16,
            materialize_after: 2,
            ..EngineConfig::default()
        };
        let batched = engine(config.clone());
        let unbatched = engine(config);
        let batch: Vec<Request> = (0..4).map(|_| req(1)).collect();
        let batched_responses: Vec<QueryResponse> = batched
            .execute_batch(&batch)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let unbatched_responses: Vec<QueryResponse> = batch
            .iter()
            .map(|r| unbatched.execute(r).unwrap())
            .collect();
        for (b, u) in batched_responses.iter().zip(&unbatched_responses) {
            assert_eq!(b.answers, u.answers);
            assert_eq!(b.materialized, u.materialized);
            assert_eq!(b.cache_hit, u.cache_hit);
        }
        // Members 1–2 execute (hotness below threshold, then admission),
        // members 3–4 are materialized hits — in both engines.
        assert_eq!(
            batched.metrics().materialized_hits,
            unbatched.metrics().materialized_hits
        );
        assert_eq!(batched.metrics().materialized_hits, 2);
        // The two executing members shared one fetch.
        assert_eq!(batched.metrics().shared_fetches, 1);
    }

    #[test]
    fn batched_pool_submissions_answer_identically_and_release_queue_slots() {
        let engine = engine(EngineConfig {
            workers: 2,
            batch_requests: true,
            ..EngineConfig::default()
        });
        let pending: Vec<PendingResponse> = (0..12)
            .map(|i| engine.submit(req(1 + (i % 2))).unwrap())
            .collect();
        let responses: Vec<QueryResponse> =
            pending.into_iter().map(|p| p.wait().unwrap()).collect();
        for (i, response) in responses.iter().enumerate() {
            let lone = engine.execute(&req(1 + (i as i64 % 2))).unwrap();
            assert_eq!(response.answers, lone.answers, "i={i}");
        }
        // Every reply was delivered, so every queue slot comes back.  The
        // worker releases the slot just *after* sending the reply, so give
        // the last decrement a moment to land.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.shared.queued.load(Ordering::Relaxed) != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "queue slots leaked: {} still held",
                engine.shared.queued.load(Ordering::Relaxed)
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn queue_depth_gauge_is_bounded_by_max_queue_and_excess_is_shed() {
        let engine = engine(EngineConfig {
            workers: 1,
            max_queue: 2,
            ..EngineConfig::default()
        });
        // Wedge the single worker mid-request: every serve takes the stats
        // read lock inside `plan_for`, so holding the write lock here parks
        // the pool deterministically with its queue slots still held.
        let gate = engine.shared.stats.write().expect("stats lock");
        let a = engine.submit(req(1)).unwrap();
        let b = engine.submit(req(2)).unwrap();
        // The wedged request shows up on the in-flight gauge once the worker
        // picks it up (it enters the serve path before blocking on stats).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.shared.telemetry.in_flight.load(Ordering::Relaxed) != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never entered the serve path"
            );
            std::thread::yield_now();
        }
        // Both slots are held, so the third submission is shed — and the
        // gauge's backing counter sits exactly at the bound, never past it
        // (`metrics()` itself needs the stats lock this test is holding, so
        // the counter is read directly here).
        let err = engine.submit(req(3)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Overloaded {
                queued: 2,
                max_queue: 2
            }
        ));
        assert_eq!(engine.shared.queued.load(Ordering::Relaxed), 2);
        drop(gate);
        a.wait().unwrap();
        b.wait().unwrap();
        // Replies delivered: the queue drains, the gauges return to zero and
        // the shed is visible both on `metrics()` and the rendered page.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let m = engine.metrics();
            assert!(
                m.queue_depth <= 2,
                "queue depth {} past bound",
                m.queue_depth
            );
            if m.queue_depth == 0 && m.in_flight == 0 {
                assert_eq!(m.shed_overload, 1);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "queue slots leaked: depth {}",
                m.queue_depth
            );
            std::thread::yield_now();
        }
        let page = engine.telemetry().render();
        assert!(page.contains("si_queue_depth 0"));
        assert!(page.contains("si_in_flight 0"));
        assert!(page.contains("si_shed_overload_total 1"));
    }

    #[test]
    fn metrics_epoch_pair_reads_coherently_under_concurrent_commits() {
        const COMMITS: u64 = 200;
        // Drift threshold 0 re-collects statistics on every commit, so each
        // commit bumps both epochs — the tightest possible interleaving for
        // the coherence contract (`stats_epoch <= snapshot_epoch`, exact
        // equality at rest).
        let engine = engine(EngineConfig {
            stats_drift_threshold: 0.0,
            ..EngineConfig::default()
        });
        std::thread::scope(|s| {
            let committer = s.spawn(|| {
                for i in 0..COMMITS {
                    let mut delta = Delta::new();
                    if i % 2 == 0 {
                        delta.insert("friend", tuple![9, 1]);
                    } else {
                        delta.delete("friend", tuple![9, 1]);
                    }
                    engine.commit(&delta).unwrap();
                }
            });
            loop {
                let m = engine.metrics();
                // The acquire pair can never observe a fresh statistics
                // epoch against a stale snapshot epoch.
                assert!(
                    m.stats_epoch <= m.snapshot_epoch,
                    "incoherent read: stats epoch {} vs snapshot epoch {}",
                    m.stats_epoch,
                    m.snapshot_epoch
                );
                if m.snapshot_epoch >= COMMITS {
                    break;
                }
                std::thread::yield_now();
            }
            committer.join().unwrap();
        });
        // At rest the pair is exact, not merely ordered: every commit
        // drifted, so both epochs advanced in lock-step.
        let m = engine.metrics();
        assert_eq!(m.snapshot_epoch, COMMITS);
        assert_eq!(m.stats_epoch, COMMITS);
        assert_eq!(m.commits, COMMITS);
        assert_eq!(m.stats_refreshes, COMMITS);
    }

    #[test]
    fn sharded_engine_group_commit_and_batched_serving_match_unsharded() {
        let sharded = sharded_engine(3, EngineConfig::default());
        let plain = engine(EngineConfig::default());
        let deltas = vec![
            Delta::new().insert("friend", tuple![3, 1]).clone(),
            Delta::new().delete("friend", tuple![3, 1]).clone(),
            Delta::new().insert("visit", tuple![2, 10]).clone(),
        ];
        let a = sharded.commit_group(&deltas);
        let b = plain.commit_group(&deltas);
        assert!(a.iter().all(|r| r.as_ref().copied() == Ok(1)));
        assert!(b.iter().all(|r| r.as_ref().copied() == Ok(1)));
        let batch: Vec<Request> = (0..3).map(|_| req(1)).collect();
        for (s, p) in sharded
            .execute_batch(&batch)
            .into_iter()
            .zip(plain.execute_batch(&batch))
        {
            let mut sa = s.unwrap().answers;
            let mut pa = p.unwrap().answers;
            sa.sort();
            pa.sort();
            assert_eq!(sa, pa);
        }
        assert_eq!(sharded.metrics().shared_fetches, 1);
    }

    use si_durability::SimDisk;

    fn durable_engine(disk: &SimDisk, config: EngineConfig) -> Engine {
        Engine::new_durable(
            small_db(),
            si_access::facebook_access_schema(5000),
            Box::new(disk.clone()),
            config,
        )
        .unwrap()
    }

    #[test]
    fn durable_engine_logs_commits_and_recovers_identically() {
        let disk = SimDisk::new();
        let engine = durable_engine(&disk, EngineConfig::default());
        assert!(engine.is_durable());
        let before_crash = engine.execute(&req(1)).unwrap();
        engine
            .commit(Delta::new().insert("friend", tuple![3, 1]))
            .unwrap();
        engine
            .commit(Delta::new().insert("person", tuple![9, "eve", "NYC"]))
            .unwrap();
        let m = engine.metrics();
        assert_eq!(m.wal_records, 2);
        assert_eq!(m.checkpoints, 1); // the initial one
        assert_eq!(m.wal_syncs, 1 + 2); // initial checkpoint + 2 commits
        let pre = engine.execute(&req(3)).unwrap();
        drop(engine);

        let recovered = Engine::recover(
            Box::new(disk),
            si_access::facebook_access_schema(5000),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.epoch(), 2);
        let post = recovered.execute(&req(3)).unwrap();
        let mut a = pre.answers.clone();
        let mut b = post.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(pre.epoch, post.epoch);
        // Statistics were re-collected from the recovered data, so the
        // recovered engine plans like the pre-crash one.
        assert_eq!(pre.static_cost, post.static_cost);
        // The recovered WAL keeps appending where the durable history ends.
        recovered
            .commit(Delta::new().insert("visit", tuple![2, 10]))
            .unwrap();
        assert_eq!(recovered.epoch(), 3);
        let _ = before_crash;
    }

    #[test]
    fn durable_engine_auto_checkpoints_and_group_commits_share_one_record() {
        let disk = SimDisk::new();
        let engine = durable_engine(
            &disk,
            EngineConfig {
                durability: Some(si_durability::DurabilityConfig {
                    checkpoint_every: 2,
                    keep_checkpoints: 1,
                }),
                ..EngineConfig::default()
            },
        );
        // One group of three deltas: one WAL record, one fsync.
        let deltas = vec![
            Delta::new().insert("friend", tuple![3, 1]).clone(),
            Delta::new().insert("friend", tuple![3, 2]).clone(),
            Delta::new().insert("visit", tuple![2, 10]).clone(),
        ];
        for r in engine.commit_group(&deltas) {
            r.unwrap();
        }
        let m = engine.metrics();
        assert_eq!((m.commits, m.wal_records), (3, 1));
        assert_eq!(m.checkpoints, 1);

        // Second pass trips `checkpoint_every = 2`.
        engine
            .commit(Delta::new().insert("friend", tuple![4, 1]))
            .unwrap();
        assert_eq!(engine.metrics().checkpoints, 2);

        // Recovery starts from that checkpoint: nothing left to replay.
        drop(engine);
        let recovered = Engine::recover(
            Box::new(disk),
            si_access::facebook_access_schema(5000),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.epoch(), 2);
    }

    #[test]
    fn sharded_durable_engine_recovers_layout_and_shard_epochs() {
        let disk = SimDisk::new();
        let durable = Engine::new_sharded_durable(
            small_db(),
            si_access::facebook_access_schema(5000),
            social_partition(),
            3,
            Box::new(disk.clone()),
            EngineConfig::default(),
        )
        .unwrap();
        durable
            .commit(Delta::new().insert("friend", tuple![3, 1]))
            .unwrap();
        drop(durable);
        let recovered = Engine::recover(
            Box::new(disk),
            si_access::facebook_access_schema(5000),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.data_shards(), 3);
        let snapshot = recovered.snapshot();
        assert_eq!(snapshot.shard_count(), 3);
        // Coherence: every shard's local epoch equals the global epoch.
        assert_eq!(snapshot.shard_epochs(), vec![1, 1, 1]);
        let plain = engine(EngineConfig::default());
        plain
            .commit(Delta::new().insert("friend", tuple![3, 1]))
            .unwrap();
        let mut a = recovered.execute(&req(3)).unwrap().answers;
        let mut b = plain.execute(&req(3)).unwrap().answers;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn single_store_checkpoints_recover_as_one_shard() {
        // The storage unsharded durable engines wrote before every engine
        // ran on the sharded store: a single-store base checkpoint plus
        // logged records.
        let disk = SimDisk::new();
        let base = DatabaseSnapshot::from_database(small_db());
        let mut wal = Wal::create(Box::new(disk.clone()), &Checkpoint::single(&base)).unwrap();
        let deltas = [
            Delta::new().insert("friend", tuple![3, 1]).clone(),
            Delta::new()
                .delete("friend", tuple![1, 2])
                .insert("person", tuple![9, "eve", "NYC"])
                .clone(),
        ];
        let mut oracle = small_db();
        for (epoch, delta) in (1..).zip(&deltas) {
            wal.append(epoch, delta).unwrap();
            delta.apply_in_place(&mut oracle).unwrap();
        }
        drop(wal);

        let recovered = Engine::recover(
            Box::new(disk),
            si_access::facebook_access_schema(5000),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.data_shards(), 1);
        assert_eq!(recovered.epoch(), 2);
        let merged = recovered.snapshot().to_database();
        assert!(merged.contains_database(&oracle) && oracle.contains_database(&merged));
        for p in 1..=4 {
            let mut served = recovered.execute(&req(p)).unwrap().answers;
            served.sort();
            let bound = q1().bind(&[("p".into(), Value::int(p))]);
            let mut naive = si_query::evaluate_cq(&bound, &oracle, None).unwrap();
            naive.sort();
            assert_eq!(served, naive, "p={p}");
        }
    }

    #[test]
    fn wal_failure_fails_the_commit_and_leaves_the_store_untouched() {
        let disk = SimDisk::new();
        let engine = durable_engine(&disk, EngineConfig::default());
        engine
            .commit(Delta::new().insert("friend", tuple![3, 1]))
            .unwrap();
        disk.kill_after(disk.written()); // every further write dies
        let err = engine
            .commit(Delta::new().insert("friend", tuple![4, 1]))
            .unwrap_err();
        assert!(matches!(err, EngineError::Durability(_)));
        // Nothing undurable is served: the store still sits at epoch 1.
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.metrics().wal_records, 1);
    }

    #[test]
    fn checkpoint_requires_a_durable_engine() {
        let plain = engine(EngineConfig::default());
        assert!(matches!(
            plain.checkpoint().unwrap_err(),
            EngineError::Durability(_)
        ));
        let disk = SimDisk::new();
        let durable = durable_engine(&disk, EngineConfig::default());
        durable
            .commit(Delta::new().insert("friend", tuple![3, 1]))
            .unwrap();
        durable.checkpoint().unwrap();
        assert_eq!(durable.metrics().checkpoints, 2);
    }

    /// The subscribed key of `req(p)`.
    fn sub_key(p: i64) -> MaterializedKey {
        (canonicalize(&q1(), &["p".into()]).key, vec![Value::int(p)])
    }

    /// A query whose maintenance over `friend` is broken both ways: the
    /// rest-query `visit(b, c)` has no access constraint, so the Corollary
    /// 5.3 gate rejects it when consulted, and a run slipping past a cached
    /// verdict errors when it plans the rest-query lazily.
    fn unmaintainable_query() -> ConjunctiveQuery {
        parse_cq("B(a, c) :- friend(a, b), visit(b, c)").unwrap()
    }

    #[test]
    fn subscriptions_stream_epoch_stamped_changesets() {
        let engine = engine(EngineConfig::default());
        let sub = engine.subscribe(&req(1)).unwrap();
        // Registration hands the full answer at the fenced epoch.
        let mut state: Vec<Tuple> = match sub.try_recv().expect("initial resync") {
            AnswerUpdate::Resync { epoch, full_answer } => {
                assert_eq!(epoch, 0);
                let mut full = full_answer.as_ref().clone();
                full.sort();
                assert_eq!(full, vec![tuple!["bob"], tuple!["dan"]]);
                full
            }
            other => panic!("expected the initial resync, got {other:?}"),
        };
        // A commit that changes the answer pushes one epoch-stamped delta.
        engine
            .commit(Delta::new().insert("friend", tuple![1, 1]))
            .unwrap();
        match sub.try_recv().expect("change-set for epoch 1") {
            AnswerUpdate::Changes(set) => {
                assert_eq!(set.epoch, 1);
                assert_eq!(set.added, vec![tuple!["ann"]]);
                assert!(set.removed.is_empty());
                AnswerUpdate::Changes(set).apply_to(&mut state);
            }
            other => panic!("expected a change-set, got {other:?}"),
        }
        // A commit that does not touch the answer is elided entirely.
        engine
            .commit(Delta::new().insert("friend", tuple![3, 4]))
            .unwrap();
        assert!(sub.try_recv().is_none(), "no-op commits must be elided");
        // A deletion flows through `removed`.
        engine
            .commit(Delta::new().delete("friend", tuple![1, 2]))
            .unwrap();
        match sub.try_recv().expect("change-set for epoch 3") {
            AnswerUpdate::Changes(set) => {
                assert_eq!(set.epoch, 3);
                assert!(set.added.is_empty());
                assert_eq!(set.removed, vec![tuple!["bob"]]);
                AnswerUpdate::Changes(set).apply_to(&mut state);
            }
            other => panic!("expected a change-set, got {other:?}"),
        }
        // The replayed state equals what a cold query answers now.
        let mut cold = engine.execute(&req(1)).unwrap().answers;
        cold.sort();
        assert_eq!(state, cold);
        let m = engine.metrics();
        assert_eq!(m.subscribers, 1);
        assert_eq!(m.subscription_deliveries, 2);
        assert_eq!(m.subscription_resyncs, 1);
        assert_eq!(m.subscription_overflows, 0);
        // Subscription seeding is write-path work, not a served request.
        assert_eq!(m.requests, 1);
        // Dropping the handle unregisters and unpins.
        drop(sub);
        assert_eq!(engine.metrics().subscribers, 0);
        assert!(engine.subscriptions().is_empty());
    }

    #[test]
    fn fallback_by_drop_notifies_subscribers_on_each_trigger() {
        // Trigger 1 — stale entry: a commit raced the recording, the answers
        // are for some other epoch and cannot be maintained.
        let stale = engine(EngineConfig::default());
        let sub = stale.subscribe(&req(1)).unwrap();
        sub.drain();
        stale
            .shared
            .materialized
            .force_valid_epoch(&sub_key(1), 999);
        stale
            .commit(Delta::new().insert("friend", tuple![2, 3]))
            .unwrap();
        assert_eq!(stale.metrics().maintenance_fallbacks, 1);
        match sub.try_recv().expect("resync after the stale drop") {
            AnswerUpdate::Resync { epoch, full_answer } => {
                assert_eq!(epoch, 1);
                let mut full = full_answer.as_ref().clone();
                full.sort();
                assert_eq!(full, vec![tuple!["bob"], tuple!["dan"]]);
            }
            other => panic!("stale drop must resync, got {other:?}"),
        }
        // The re-seeded entry resumes incremental delivery.
        stale
            .commit(Delta::new().insert("friend", tuple![1, 1]))
            .unwrap();
        match sub.try_recv().expect("change-set after re-seeding") {
            AnswerUpdate::Changes(set) => assert_eq!(set.added, vec![tuple!["ann"]]),
            other => panic!("expected a change-set, got {other:?}"),
        }

        // Trigger 2 — gate rejection: the entry's evaluator is not
        // maintainable for the touched relation (Corollary 5.3 fails).
        let gated = engine(EngineConfig::default());
        let q2 = parse_cq("Q2(f) :- friend(p, f)").unwrap();
        let sub = gated
            .subscribe(&Request::new(
                q2.clone(),
                vec!["p".into()],
                vec![Value::int(1)],
            ))
            .unwrap();
        sub.drain();
        let key = (canonicalize(&q2, &["p".into()]).key, vec![Value::int(1)]);
        gated.shared.materialized.record(
            key,
            &unmaintainable_query(),
            &[],
            &[],
            0,
            0,
            si_access::StaticCost::default(),
            MeterSnapshot::default(),
        );
        gated
            .commit(Delta::new().insert("friend", tuple![2, 3]))
            .unwrap();
        assert_eq!(gated.metrics().maintenance_fallbacks, 1);
        match sub.try_recv().expect("resync after the gate rejection") {
            AnswerUpdate::Resync { epoch, full_answer } => {
                assert_eq!(epoch, 1);
                let mut full = full_answer.as_ref().clone();
                full.sort();
                assert_eq!(full, vec![tuple![2], tuple![3], tuple![4]]);
            }
            other => panic!("gate rejection must resync, got {other:?}"),
        }

        // Trigger 3 — maintenance error: the shape's cached gate verdict
        // (earned by the healthy evaluator) lets the broken one through, and
        // its lazy rest-query planning fails mid-run.
        let errored = engine(EngineConfig::default());
        let sub = errored.subscribe(&req(1)).unwrap();
        sub.drain();
        errored
            .commit(Delta::new().insert("friend", tuple![1, 1]))
            .unwrap();
        assert!(matches!(sub.try_recv(), Some(AnswerUpdate::Changes(_))));
        errored.shared.materialized.record(
            sub_key(1),
            &unmaintainable_query(),
            &[],
            &[],
            1,
            0,
            si_access::StaticCost::default(),
            MeterSnapshot::default(),
        );
        errored
            .commit(Delta::new().insert("friend", tuple![2, 3]))
            .unwrap();
        assert_eq!(errored.metrics().maintenance_fallbacks, 1);
        match sub.try_recv().expect("resync after the maintenance error") {
            AnswerUpdate::Resync { epoch, full_answer } => {
                assert_eq!(epoch, 2);
                let mut full = full_answer.as_ref().clone();
                full.sort();
                assert_eq!(full, vec![tuple!["ann"], tuple!["bob"], tuple!["dan"]]);
            }
            other => panic!("maintenance error must resync, got {other:?}"),
        }
    }

    #[test]
    fn subscription_overflow_collapses_to_a_single_resync() {
        let engine = engine(EngineConfig {
            subscriber_queue_capacity: 2,
            ..EngineConfig::default()
        });
        let sub = engine.subscribe(&req(1)).unwrap();
        // Nobody drains: each commit below changes the answer, so updates
        // pile up past the capacity of 2 and collapse.
        engine
            .commit(Delta::new().insert("friend", tuple![1, 1]))
            .unwrap();
        engine
            .commit(Delta::new().delete("friend", tuple![1, 1]))
            .unwrap();
        engine
            .commit(Delta::new().insert("friend", tuple![1, 1]))
            .unwrap();
        assert!(sub.queue_len() <= 2, "queue must stay bounded");
        assert_eq!(sub.overflows(), 1);
        let updates = sub.drain();
        // The tail update is one resync carrying the current full answer —
        // replaying it lands on exactly the cold answer.
        let resyncs = updates
            .iter()
            .filter(|u| matches!(u, AnswerUpdate::Resync { .. }))
            .count();
        assert_eq!(resyncs, 1, "overflow must collapse into one resync");
        let mut state = Vec::new();
        for update in &updates {
            update.apply_to(&mut state);
        }
        let mut cold = engine.execute(&req(1)).unwrap().answers;
        cold.sort();
        assert_eq!(state, cold);
        assert_eq!(engine.metrics().subscription_overflows, 1);
    }

    #[test]
    fn group_commits_deliver_the_net_effect_changeset() {
        let engine = engine(EngineConfig::default());
        let sub = engine.subscribe(&req(1)).unwrap();
        sub.drain();
        // A storm that cancels out entirely is elided: the group advances
        // the epoch but the answer never changed.
        let outcomes = engine.commit_group(&[
            Delta::new().insert("friend", tuple![1, 1]).clone(),
            Delta::new().delete("friend", tuple![1, 1]).clone(),
        ]);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert!(
            sub.try_recv().is_none(),
            "a cancelled-out group must deliver nothing"
        );
        // A group with a net effect delivers exactly one change-set.
        let outcomes = engine.commit_group(&[
            Delta::new()
                .insert("person", tuple![5, "eve", "NYC"])
                .clone(),
            Delta::new().insert("friend", tuple![1, 5]).clone(),
        ]);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        let updates = sub.drain();
        assert_eq!(updates.len(), 1, "one net change-set per group");
        match &updates[0] {
            AnswerUpdate::Changes(set) => {
                assert_eq!(set.epoch, engine.epoch());
                assert_eq!(set.added, vec![tuple!["eve"]]);
                assert!(set.removed.is_empty());
            }
            other => panic!("expected the net change-set, got {other:?}"),
        }
    }

    #[test]
    fn subscribed_shapes_are_pinned_past_admission_and_eviction() {
        // Capacity 0 disables the materialized layer for ordinary requests,
        // yet a subscription must still be maintained incrementally.
        let engine = engine(EngineConfig {
            materialize_capacity: 0,
            materialize_after: 1,
            ..EngineConfig::default()
        });
        let sub = engine.subscribe(&req(1)).unwrap();
        sub.drain();
        // The pinned entry even serves ordinary requests for the same key...
        assert!(engine.execute(&req(1)).unwrap().materialized);
        // ...while unsubscribed keys still see a zero-capacity layer.
        engine.execute(&req(2)).unwrap();
        assert!(!engine.execute(&req(2)).unwrap().materialized);
        engine
            .commit(Delta::new().insert("friend", tuple![1, 1]))
            .unwrap();
        assert!(matches!(sub.try_recv(), Some(AnswerUpdate::Changes(_))));
        assert_eq!(engine.metrics().maintenance_runs, 1);
        // Unsubscribing releases the pin; with capacity 0 the layer is
        // disabled again and the next commit maintains nothing.
        drop(sub);
        engine
            .commit(Delta::new().insert("friend", tuple![4, 1]))
            .unwrap();
        assert_eq!(engine.metrics().maintenance_runs, 1);
    }

    #[test]
    fn recovery_resyncs_surviving_subscribers_at_the_recovered_epoch() {
        let disk = SimDisk::new();
        let engine = durable_engine(&disk, EngineConfig::default());
        let sub = engine.subscribe(&req(1)).unwrap();
        let registry = engine.subscriptions();
        engine
            .commit(Delta::new().insert("friend", tuple![1, 1]))
            .unwrap();
        sub.drain();
        drop(engine);
        let recovered = Engine::recover_with_subscriptions(
            Box::new(disk),
            si_access::facebook_access_schema(5000),
            EngineConfig::default(),
            registry,
        )
        .unwrap();
        assert_eq!(recovered.epoch(), 1);
        // The handle survived the crash: it is told exactly where the
        // durable prefix ends, with the full answer to restart from.
        match sub.try_recv().expect("resync at the recovered epoch") {
            AnswerUpdate::Resync { epoch, full_answer } => {
                assert_eq!(epoch, 1);
                let mut full = full_answer.as_ref().clone();
                full.sort();
                assert_eq!(full, vec![tuple!["ann"], tuple!["bob"], tuple!["dan"]]);
            }
            other => panic!("recovery must resync, got {other:?}"),
        }
        // And the stream continues incrementally on the recovered engine.
        recovered
            .commit(Delta::new().delete("friend", tuple![1, 1]))
            .unwrap();
        match sub.try_recv().expect("post-recovery change-set") {
            AnswerUpdate::Changes(set) => {
                assert_eq!(set.epoch, 2);
                assert_eq!(set.removed, vec![tuple!["ann"]]);
            }
            other => panic!("expected a change-set, got {other:?}"),
        }
        assert_eq!(recovered.metrics().subscribers, 1);
    }
}
