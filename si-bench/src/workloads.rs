//! The four workloads: set-up, measured windows, probes, verification.
//!
//! All load is closed-loop — this is an in-process library whose callers
//! wait for the reply — and comes from at most two runnable threads.

use crate::driver::{
    self, Change, Counters, Dataset, Feed, FlushedStorage, Group, HotFacts, ReadStages, Req, Res,
    Row, Shape, StorageCounters, Sut, WriteStages,
};
use crate::metrics::{Layers, Workload};
use crate::stats::{median, quantile_sorted, sorted, sorted_nanos};
use crate::trace::{self, Recorder};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Reader threads of the serve workloads (and of `write_large`'s read probe).
const CLIENTS: usize = 2;
/// Persons the `mixed_hot` reader asks about, and live subscriptions.
const HOT_PERSONS: usize = 64;
const SUBSCRIBED_PERSONS: usize = 8;
/// Single-fact deltas per `commit_group` call on `mixed_hot`.
const GROUP_SIZE: usize = 8;
/// One read in this many is re-enacted through the stage functions when
/// tracing; every commit is, because the shadow store has to see them all.
const TRACE_EVERY: u64 = 64;
/// Seed of the warm-up's request stream, whatever `--seed` says.
const WARM_SEED: u64 = 0x5eed;

pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// A directory of this run's own, inside the checkout.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub layers: Layers,
    /// Figures and remarks printed with the report but not gated.
    pub notes: Vec<String>,
}

/// Sizes of one workload.  `--quick` shrinks every database to 2 000
/// persons and every count to about 1 %.
struct Scale {
    persons: usize,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
    /// Requests generated per reader.
    pool: usize,
    warm_reads: usize,
    /// Updates generated (an upper bound on commits per run).
    changes: usize,
    /// Commits of the serve workloads' write probe.
    probe_commits: usize,
    /// Reads per client of `write_large`'s read probe.
    probe_reads: usize,
    /// Sampled replies compared with the oracle.
    verify_samples: usize,
    /// Commits between the checkpoint and the crash on `write_large`.
    tail_commits: usize,
}

fn scale(workload: Workload, quick: bool) -> Scale {
    if quick {
        return Scale {
            persons: 2_000,
            setups: 1,
            pool: 2_000,
            warm_reads: 200,
            changes: 60,
            probe_commits: 5,
            probe_reads: 200,
            verify_samples: 8,
            tail_commits: 2,
        };
    }
    match workload {
        Workload::ServeSmall => Scale {
            persons: 2_000,
            setups: 5,
            pool: 10_000,
            warm_reads: 2_000,
            changes: 260,
            probe_commits: 250,
            probe_reads: 0,
            verify_samples: 200,
            tail_commits: 0,
        },
        Workload::ServeLarge => Scale {
            persons: 200_000,
            setups: 3,
            pool: 40_000,
            warm_reads: 2_000,
            changes: 30,
            probe_commits: 20,
            probe_reads: 0,
            verify_samples: 24,
            tail_commits: 0,
        },
        Workload::WriteLarge => Scale {
            persons: 200_000,
            setups: 3,
            pool: 20_000,
            warm_reads: 2_000,
            changes: 400,
            probe_commits: 0,
            probe_reads: 50_000,
            verify_samples: 12,
            tail_commits: 4,
        },
        Workload::MixedHot => Scale {
            persons: 20_000,
            setups: 3,
            pool: 0,
            warm_reads: 0,
            changes: 0,
            probe_commits: 0,
            probe_reads: 0,
            verify_samples: 0,
            tail_commits: 0,
        },
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn nanos_u32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// A fresh directory under `scratch` for one durable engine.
fn storage_dir(scratch: &Path, name: &str) -> Res<PathBuf> {
    let dir = scratch.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(dir)
}

/// `VmHWM`, the process's peak resident set, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct SetupTimes {
    generate_s: f64,
    engine_new_s: f64,
    warm_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate_s + self.engine_new_s + self.warm_s
    }
}

/// Everything made from the seed, before an engine exists.
struct Inputs {
    data: Dataset,
    /// The warm-up's requests, the same for every seed, so that
    /// `tuples_per_read` — counted over them — depends on the code and the
    /// database alone.
    warm: Vec<Req>,
    pools: Vec<Vec<Req>>,
    changes: Vec<Change>,
    hot: Option<HotFacts>,
    generate_s: f64,
}

/// A subscription and the answer replayed from its update stream alone.
struct Subscription {
    feed: Feed,
    req: Req,
    state: Vec<Row>,
    updates: u64,
}

struct Rig {
    sut: Sut,
    pools: Vec<Vec<Req>>,
    changes: Vec<Change>,
    /// Changes of `changes` the engine has committed so far (a prefix).
    committed: usize,
    hot: Option<HotFacts>,
    subscriptions: Vec<Subscription>,
    storage: Option<FlushedStorage>,
    times: SetupTimes,
    /// Mean tuples fetched per request over the first warm-up pass.
    tuples_per_read: f64,
    failed: u64,
    attempted: u64,
}

fn hot_pool() -> Vec<Req> {
    // 60 % Q1 / 40 % Q2 over the hottest persons: per 5 persons, 3 Q1-only
    // and 2 asked both ways would skew by person, so interleave by slot.
    let mut pool = Vec::new();
    for p in 0..HOT_PERSONS as i64 {
        for slot in 0..5 {
            let shape = if slot < 3 { Shape::Q1 } else { Shape::Q2 };
            pool.push(Req::hot(shape, p));
        }
    }
    pool
}

fn make_inputs(workload: Workload, sc: &Scale, seed: u64) -> Res<Inputs> {
    let start = Instant::now();
    let data = Dataset::generate(sc.persons);
    let (warm, pools, changes, hot) = match workload {
        Workload::MixedHot => (
            hot_pool(),
            vec![hot_pool()], // the reader's pool is the warm-up's
            Vec::new(),
            Some(data.hot_facts(HOT_PERSONS, 4)?),
        ),
        _ => (
            driver::request_pool(sc.persons, sc.warm_reads, WARM_SEED),
            (0..CLIENTS)
                .map(|c| driver::request_pool(sc.persons, sc.pool, seed ^ (0x9e37 + c as u64)))
                .collect(),
            data.update_stream(sc.changes, seed ^ 0x5bd1),
            None,
        ),
    };
    Ok(Inputs {
        data,
        warm,
        pools,
        changes,
        hot,
        generate_s: secs(start.elapsed()),
    })
}

/// Constructs the workload's engine and warms it up: the lazy indexes get
/// built, the two plans cached, and (where the main window commits) the
/// first, slower commit is paid.
fn construct(workload: Workload, inputs: Inputs, scratch: &Path, tag: &str) -> Res<Rig> {
    let Inputs {
        data,
        warm,
        pools,
        changes,
        hot,
        generate_s,
    } = inputs;
    let start = Instant::now();
    let mut storage = None;
    let sut = match workload {
        Workload::ServeSmall | Workload::ServeLarge => Sut::new_plain(data)?,
        Workload::WriteLarge => {
            let s = FlushedStorage::open(&storage_dir(scratch, tag)?)?;
            let sut = Sut::new_durable(data, &s)?;
            storage = Some(s);
            sut
        }
        Workload::MixedHot => Sut::new_sharded_hot(data)?,
    };
    let mut subscriptions = Vec::new();
    if workload == Workload::MixedHot {
        for p in 0..SUBSCRIBED_PERSONS as i64 {
            for shape in [Shape::Q1, Shape::Q2] {
                let req = Req::hot(shape, p);
                let feed = sut.subscribe(&req)?;
                subscriptions.push(Subscription {
                    feed,
                    req,
                    state: Vec::new(),
                    updates: 0,
                });
            }
        }
    }
    let engine_new_s = secs(start.elapsed());

    let start = Instant::now();
    let (mut failed, mut attempted) = (0u64, 0u64);
    let (mut tuples, mut first_pass) = (0u64, 0u64);
    let mut committed = 0;
    match workload {
        Workload::MixedHot => {
            // Three passes: plan path, admitted at the 2nd execution, served
            // from the materialized layer at the 3rd.
            for pass in 0..3 {
                for req in &warm {
                    attempted += 1;
                    match sut.execute(req) {
                        Ok(reply) if pass == 0 => {
                            tuples += reply.tuples_fetched();
                            first_pass += 1;
                        }
                        Ok(_) => {}
                        Err(_) => failed += 1,
                    }
                }
            }
        }
        _ => {
            for req in &warm {
                attempted += 1;
                match sut.execute(req) {
                    Ok(reply) => {
                        tuples += reply.tuples_fetched();
                        first_pass += 1;
                    }
                    Err(_) => failed += 1,
                }
            }
            if workload == Workload::WriteLarge {
                attempted += 1;
                failed += u64::from(sut.commit(&changes[0]).is_err());
                committed = 1;
            }
        }
    }
    let warm_s = secs(start.elapsed());
    Ok(Rig {
        sut,
        pools,
        changes,
        committed,
        hot,
        subscriptions,
        storage,
        times: SetupTimes {
            generate_s,
            engine_new_s,
            warm_s,
        },
        tuples_per_read: tuples as f64 / first_pass.max(1) as f64,
        failed,
        attempted,
    })
}

// ---------------------------------------------------------------------------
// Read windows
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Until<'a> {
    Deadline(Instant),
    Count(u64),
    Flag(&'a AtomicBool),
}

struct ReadPlan<'a> {
    until: Until<'a>,
    origin: Instant,
    /// Slices the window is cut into; percentiles are taken per slice and
    /// their median reported, so that one disturbed second moves nothing.
    slices: usize,
    slice_len: Duration,
    /// Keep the answers of one reply in this many, up to `max_samples`.
    sample_every: u64,
    max_samples: usize,
    stages: Option<&'a ReadStages>,
}

struct ClientLog {
    slices: Vec<Vec<u32>>,
    ops: u64,
    failed: u64,
    planned: u64,
    planned_tuples: u64,
    /// Latencies of replies the materialized layer served (traced runs).
    hit_nanos: Vec<u32>,
    samples: Vec<(usize, Vec<Row>)>,
    recorder: Option<Recorder>,
    traced_pins: u64,
}

fn read_client(sut: &Sut, pool: &[Req], plan: &ReadPlan<'_>, thread: u32) -> ClientLog {
    let mut log = ClientLog {
        slices: (0..plan.slices).map(|_| Vec::new()).collect(),
        ops: 0,
        failed: 0,
        planned: 0,
        planned_tuples: 0,
        hit_nanos: Vec::new(),
        samples: Vec::new(),
        recorder: plan.stages.map(|_| Recorder::new(plan.origin, thread)),
        traced_pins: 0,
    };
    let slice_nanos = plan.slice_len.as_nanos().max(1);
    let mut n: u64 = 0;
    loop {
        match plan.until {
            Until::Count(count) if n >= count => break,
            Until::Flag(stop) if stop.load(Ordering::Relaxed) => break,
            _ => {}
        }
        let i = (n % pool.len() as u64) as usize;
        let req = &pool[i];
        let t0 = Instant::now();
        let result = sut.execute(req);
        let t1 = Instant::now();
        if let Until::Deadline(deadline) = plan.until {
            if t1 >= deadline {
                break;
            }
        }
        let took = nanos_u32(t1 - t0);
        let slice = ((t1 - plan.origin).as_nanos() / slice_nanos) as usize;
        log.slices[slice.min(plan.slices - 1)].push(took);
        log.ops += 1;
        match result {
            Err(_) => log.failed += 1,
            Ok(reply) => {
                let materialized = reply.materialized();
                if materialized {
                    if plan.stages.is_some() {
                        log.hit_nanos.push(took);
                    }
                } else {
                    log.planned += 1;
                    log.planned_tuples += reply.tuples_fetched();
                }
                if let (Some(stages), Some(rec)) = (plan.stages, log.recorder.as_mut()) {
                    if n.is_multiple_of(TRACE_EVERY) && rec.has_room() {
                        let op = (u64::from(thread) << 48) | n;
                        if reenact_read(sut, stages, rec, req, materialized, (t0, t1), op).is_err()
                        {
                            log.failed += 1;
                        }
                        log.traced_pins += u64::from(!materialized);
                    }
                }
                if n.is_multiple_of(plan.sample_every) && log.samples.len() < plan.max_samples {
                    log.samples.push((i, reply.into_sorted_answers()));
                }
            }
        }
        n += 1;
    }
    log
}

/// Replays one served request through the read path's stage functions as
/// child spans of the real call.
fn reenact_read(
    sut: &Sut,
    stages: &ReadStages,
    rec: &mut Recorder,
    req: &Req,
    materialized: bool,
    (t0, t1): (Instant, Instant),
    op: u64,
) -> Res<()> {
    if materialized {
        let parent = rec.record("engine.execute.materialized", t0, t1, None, op);
        rec.child("engine.shape.canonicalize", parent, op, || {
            stages.canonicalize(req)
        });
        return Ok(());
    }
    let parent = rec.record("engine.execute", t0, t1, None, op);
    let canon = rec.child("engine.shape.canonicalize", parent, op, || {
        stages.canonicalize(req)
    });
    let plan = rec
        .child("engine.cache.get", parent, op, || stages.cache_get(&canon))
        .ok_or("shape missing from the runner's plan cache")?;
    let pinned = rec.child("data.snapshot.pin", parent, op, || stages.pin(sut));
    let fetched = rec.child("core.exec.fetch", parent, op, || {
        stages.fetch(&pinned, &plan, req)
    })?;
    rec.child("core.exec.finalize", parent, op, || {
        stages.finalize(fetched, &plan)
    })?;
    Ok(())
}

/// Runs one reader per pool, started together.
fn read_window(sut: &Sut, pools: &[Vec<Req>], plan: &ReadPlan<'_>) -> Vec<ClientLog> {
    let barrier = Barrier::new(pools.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(c, pool)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    read_client(sut, pool, plan, c as u32)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    })
}

#[derive(Default, Clone, Copy)]
struct ReadFigures {
    p50_us: f64,
    p95_us: f64,
    qps: f64,
    ops: u64,
}

/// Per (client, slice) percentiles and per-slice throughput, each reduced to
/// its median over the cells that hold enough samples for a p95.
fn read_figures(logs: &[ClientLog], slice_len: Duration) -> ReadFigures {
    let (mut p50s, mut p95s) = (Vec::new(), Vec::new());
    let slices = logs.first().map_or(0, |l| l.slices.len());
    let mut per_slice = vec![0u64; slices];
    for log in logs {
        for (s, cell) in log.slices.iter().enumerate() {
            per_slice[s] += cell.len() as u64;
            if cell.len() >= 100 || slices == 1 {
                let v = sorted_nanos(cell);
                p50s.push(quantile_sorted(&v, 0.50) / 1e3);
                p95s.push(quantile_sorted(&v, 0.95) / 1e3);
            }
        }
    }
    let ops = logs.iter().map(|l| l.ops).sum();
    let qps = median(
        per_slice
            .iter()
            .map(|n| *n as f64 / secs(slice_len).max(1e-9))
            .collect(),
    );
    ReadFigures {
        p50_us: median(p50s),
        p95_us: median(p95s),
        qps,
        ops,
    }
}

// ---------------------------------------------------------------------------
// Commit windows
// ---------------------------------------------------------------------------

#[derive(Default)]
struct CommitLog {
    nanos: Vec<f64>,
    deltas: u64,
    failed: u64,
    elapsed: Duration,
    ops_in: u64,
    ops_out: u64,
    drain_nanos: Vec<f64>,
}

#[derive(Default, Clone, Copy)]
struct CommitFigures {
    p50_ms: f64,
    p90_ms: f64,
    deltas_per_s: f64,
}

fn commit_figures(log: &CommitLog) -> CommitFigures {
    let v = sorted(log.nanos.clone());
    CommitFigures {
        p50_ms: quantile_sorted(&v, 0.50) / 1e6,
        p90_ms: quantile_sorted(&v, 0.90) / 1e6,
        deltas_per_s: log.deltas as f64 / secs(log.elapsed).max(1e-9),
    }
}

/// The write path's shadow copy and where its spans go (traced runs).
struct WriteTracer {
    stages: WriteStages,
    recorder: Recorder,
}

/// Replays one committed group through the write path's stage functions as
/// child spans of the real call, which also keeps the shadow store in step.
fn reenact_commit(
    tracer: &mut WriteTracer,
    log: &mut CommitLog,
    group: &Group,
    parent_name: &'static str,
    (t0, t1): (Instant, Instant),
    op: u64,
) -> Res<()> {
    let WriteTracer { stages, recorder } = tracer;
    let parent = recorder.record(parent_name, t0, t1, None, op);
    let folded = recorder.child("data.delta.fold", parent, op, || stages.fold(group))?;
    log.ops_in += folded.ops_in as u64;
    log.ops_out += folded.ops_out as u64;
    if stages.has_log() {
        recorder.child("data.codec.encode_delta", parent, op, || {
            stages.encode(&folded)
        });
        recorder.child("durability.wal.append", parent, op, || stages.log(&folded))?;
    }
    recorder.child("data.snapshot.commit", parent, op, || stages.apply(&folded))
}

/// One writer committing `rig.changes` from where the last window stopped.
fn commit_window(
    rig: &mut Rig,
    until: Until<'_>,
    mut tracer: Option<&mut WriteTracer>,
) -> CommitLog {
    let mut log = CommitLog::default();
    let start = Instant::now();
    while rig.committed < rig.changes.len() {
        if let Until::Count(count) = until {
            if log.deltas + log.failed >= count {
                break;
            }
        }
        let change = &rig.changes[rig.committed];
        let t0 = Instant::now();
        let result = rig.sut.commit(change);
        let t1 = Instant::now();
        rig.committed += 1;
        match result {
            Ok(_) => log.deltas += 1,
            Err(_) => log.failed += 1,
        }
        log.nanos.push((t1 - t0).as_nanos() as f64);
        if let Some(tracer) = tracer.as_deref_mut() {
            let group = Group::new(vec![change.clone()]);
            let op = rig.committed as u64;
            if reenact_commit(tracer, &mut log, &group, "engine.commit", (t0, t1), op).is_err() {
                log.failed += 1;
            }
        }
        if let Until::Deadline(deadline) = until {
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    log.elapsed = start.elapsed();
    log
}

// ---------------------------------------------------------------------------
// mixed_hot's update stream
// ---------------------------------------------------------------------------

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Fact {
    Friend(i64, i64),
    Visit(i64, i64),
}

/// Groups of [`GROUP_SIZE`] single-fact deltas, each valid against the
/// instance as evolved so far.  Even groups toggle facts that change a
/// subscribed answer (`friend(p, x)` for a subscribed `p` and NYC `x`,
/// `visit(f, rid)` for an NYC friend `f` of a hot `p` and an A-rated NYC
/// `rid`).  Odd groups toggle cold facts only — `visit` on restaurants no
/// `restr` row names, `friend` to ids no `person` row names — and carry one
/// insert-then-delete pair that folds away.  Every group touches both
/// relations, so that the store copies the same amount for each and commit
/// latency has one mode.
struct HotStream {
    rng: SplitMix,
    facts: HotFacts,
    present: HashSet<Fact>,
    cold_person_base: i64,
    cold_persons: usize,
    groups: u64,
}

impl HotStream {
    fn new(facts: HotFacts, persons: usize, seed: u64) -> HotStream {
        HotStream {
            rng: SplitMix(seed ^ 0x6a09_e667),
            facts,
            present: HashSet::new(),
            cold_person_base: (persons / 2) as i64,
            cold_persons: persons / 2,
            groups: 0,
        }
    }

    fn toggle(&mut self, fact: Fact) -> Change {
        let inserting = self.present.insert(fact);
        if !inserting {
            self.present.remove(&fact);
        }
        match (fact, inserting) {
            (Fact::Friend(p, x), true) => Change::insert_friend(p, x),
            (Fact::Friend(p, x), false) => Change::delete_friend(p, x),
            (Fact::Visit(f, r), true) => Change::insert_visit(f, r),
            (Fact::Visit(f, r), false) => Change::delete_visit(f, r),
        }
    }

    /// A cold fact: a person of the upper half of the id range and one of 64
    /// ids outside the generated ones, so that toggles revisit facts.
    fn cold(&mut self, friend: bool) -> Fact {
        let person = self.cold_person_base + self.rng.below(self.cold_persons) as i64;
        let other = 5_000_000 + self.rng.below(64) as i64;
        if friend {
            Fact::Friend(person, other)
        } else {
            Fact::Visit(person, other)
        }
    }

    fn hot(&mut self, friend: bool, persons: usize) -> Option<Fact> {
        let p = self.rng.below(persons);
        let list = if friend {
            &self.facts.friend[p]
        } else {
            &self.facts.visit[p]
        };
        if list.is_empty() {
            return None;
        }
        let (a, b) = list[self.rng.below(list.len())];
        Some(if friend {
            Fact::Friend(a, b)
        } else {
            Fact::Visit(a, b)
        })
    }

    fn next_group(&mut self) -> Group {
        let mut chosen: Vec<Fact> = Vec::with_capacity(GROUP_SIZE);
        let mut changes = Vec::with_capacity(GROUP_SIZE);
        if self.groups.is_multiple_of(2) {
            // The first friend and the first visit toggle name a subscribed
            // person, so the group is sure to change a subscribed answer.
            let wanted = [
                (true, SUBSCRIBED_PERSONS),
                (false, SUBSCRIBED_PERSONS),
                (true, HOT_PERSONS),
                (false, HOT_PERSONS),
                (true, HOT_PERSONS),
                (false, HOT_PERSONS),
            ];
            for (friend, persons) in wanted {
                for _ in 0..8 {
                    match self.hot(friend, persons) {
                        Some(f) if !chosen.contains(&f) => {
                            chosen.push(f);
                            break;
                        }
                        _ => {}
                    }
                }
            }
        } else {
            let pair = self.cold(false);
            if !self.present.contains(&pair) {
                changes.push(self.toggle(pair));
                changes.push(self.toggle(pair));
            }
            chosen.push(self.cold(true));
        }
        while chosen.len() + changes.len() < GROUP_SIZE {
            let f = self.cold(false);
            if !chosen.contains(&f) {
                chosen.push(f);
            }
        }
        for f in chosen {
            changes.push(self.toggle(f));
        }
        self.groups += 1;
        Group::new(changes)
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// `mixed_hot`'s window: a reader over the hot pool while a writer commits
/// groups and drains the subscriptions, until the deadline.
fn mixed_window(
    rig: &mut Rig,
    stream: &mut HotStream,
    seconds: f64,
    plan: &ReadPlan<'_>,
    mut tracer: Option<&mut WriteTracer>,
) -> (Vec<ClientLog>, CommitLog) {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let Rig {
        sut,
        pools,
        subscriptions,
        ..
    } = rig;
    let sut: &Sut = sut;
    let reader_plan = ReadPlan {
        until: Until::Flag(&stop),
        ..*plan
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            barrier.wait();
            read_client(sut, &pools[0], &reader_plan, 0)
        });
        let mut log = CommitLog::default();
        barrier.wait();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        loop {
            let group = stream.next_group();
            let t0 = Instant::now();
            let refused = sut.commit_group(&group);
            let t1 = Instant::now();
            log.nanos.push((t1 - t0).as_nanos() as f64);
            log.failed += refused as u64;
            log.deltas += (group.len() - refused) as u64;
            let drain_start = Instant::now();
            for sub in subscriptions.iter_mut() {
                sub.updates += sub.feed.drain_into(&mut sub.state);
            }
            log.drain_nanos
                .push(drain_start.elapsed().as_nanos() as f64 / subscriptions.len().max(1) as f64);
            if let Some(tracer) = tracer.as_deref_mut() {
                let op = stream.groups;
                if reenact_commit(
                    tracer,
                    &mut log,
                    &group,
                    "engine.commit_group",
                    (t0, t1),
                    op,
                )
                .is_err()
                {
                    log.failed += 1;
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        log.elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        (vec![reader.join().expect("reader thread panicked")], log)
    })
}

/// Compares sampled replies with the oracle; returns (checks, mismatches).
fn verify_samples(oracle: &Dataset, pools: &[Vec<Req>], logs: &[ClientLog]) -> Res<(u64, u64)> {
    let (mut checks, mut wrong) = (0, 0);
    for (pool, log) in pools.iter().zip(logs) {
        for (i, answers) in &log.samples {
            checks += 1;
            wrong += u64::from(oracle.expected(&pool[*i])? != *answers);
        }
    }
    Ok((checks, wrong))
}

fn delta(after: u64, before: u64) -> f64 {
    after.saturating_sub(before) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Engine and storage counters at the edges of the measured parts.
struct Marks {
    before: Counters,
    after: Counters,
    /// Where the read part of the run begins and ends.
    reads_from: Counters,
    reads_to: Counters,
    /// Storage counters around the commit window (durable engines).
    storage: Option<(StorageCounters, StorageCounters)>,
}

/// The per-layer figures that come from `Engine::metrics()`,
/// `Engine::telemetry()` and the `Storage` boundary; read in every run.
fn counter_layers(
    layers: &mut Layers,
    workload: Workload,
    marks: &Marks,
    read_logs: &[ClientLog],
    commit_log: &CommitLog,
    sut: &Sut,
) {
    let Marks {
        before,
        after,
        reads_from,
        reads_to,
        storage,
    } = marks;
    let planned: u64 = read_logs.iter().map(|l| l.planned).sum();
    let planned_tuples: u64 = read_logs.iter().map(|l| l.planned_tuples).sum();
    let traced_pins: u64 = read_logs.iter().map(|l| l.traced_pins).sum();
    let window_requests = delta(reads_to.requests, reads_from.requests);
    layers.set(
        "engine.cache.hit_ratio",
        ratio(
            delta(reads_to.cache_hits, reads_from.cache_hits),
            delta(
                reads_to.cache_hits + reads_to.cache_misses,
                reads_from.cache_hits + reads_from.cache_misses,
            ),
        ),
    );
    layers.set(
        "core.exec.tuples_per_fetch",
        ratio(planned_tuples as f64, planned as f64),
    );
    layers.set(
        "engine.materialize.hit_ratio",
        ratio(
            delta(reads_to.materialized_hits, reads_from.materialized_hits),
            window_requests,
        ),
    );
    if workload == Workload::MixedHot {
        let groups = delta(after.group_commits, before.group_commits);
        let per_group = |a: u64, b: u64| ratio(delta(a, b), groups);
        layers.set(
            "engine.materialize.maintenance_runs_per_commit",
            per_group(after.maintenance_runs, before.maintenance_runs),
        );
        layers.set(
            "engine.materialize.maintenance_tuples_per_commit",
            per_group(after.maintenance_tuples, before.maintenance_tuples),
        );
        layers.set(
            "engine.materialize.fallbacks",
            delta(after.maintenance_fallbacks, before.maintenance_fallbacks),
        );
        layers.set(
            "engine.subscribe.deliveries_per_commit",
            per_group(after.deliveries, before.deliveries),
        );
        layers.set(
            "engine.subscribe.resyncs",
            delta(after.resyncs, before.resyncs),
        );
        layers.set(
            "engine.subscribe.overflows",
            delta(after.overflows, before.overflows),
        );
        layers.set(
            "engine.subscribe.drain_ns",
            median(commit_log.drain_nanos.clone()),
        );
        layers.set("access.sharded.probe_skew", sut.shard_skew());
    } else {
        // Commits pin too, so pins per read is only taken where no writer
        // runs beside the readers.
        layers.set(
            "data.snapshot.pins_per_read",
            ratio(
                delta(reads_to.snapshot_pins, reads_from.snapshot_pins) - traced_pins as f64,
                window_requests,
            ),
        );
    }
    let phases = sut.commit_phases();
    layers.set("engine.commit.merge_us", phases.merge_us);
    layers.set("engine.commit.wal_us", phases.wal_us);
    layers.set("engine.commit.fsync_us", phases.fsync_us);
    layers.set("engine.commit.apply_us", phases.apply_us);
    layers.set("engine.commit.maintenance_us", phases.maintenance_us);
    if let Some((a, b)) = storage {
        let records = delta(b.log_appends, a.log_appends);
        let syncs = delta(b.syncs, a.syncs);
        let bytes = delta(b.log_bytes, a.log_bytes);
        let commits = commit_log.deltas as f64;
        layers.set(
            "durability.wal.append_us",
            ratio(delta(b.append_nanos, a.append_nanos) / 1e3, records),
        );
        layers.set(
            "durability.wal.fsync_us",
            ratio(delta(b.sync_nanos, a.sync_nanos) / 1e3, syncs),
        );
        layers.set("durability.wal.syncs_per_commit", ratio(syncs, commits));
        layers.set("durability.wal.bytes_per_record", ratio(bytes, records));
        layers.set("durability.wal.bytes_per_delta", ratio(bytes, commits));
    }
}

/// The per-layer figures the spans give: each stage's median, and the
/// serve path's self time.
fn span_layers(
    layers: &mut Layers,
    notes: &mut Vec<String>,
    recorders: &[Recorder],
    hit_nanos: &[u32],
    commit_log: &CommitLog,
) {
    let med =
        |name: &str| -> f64 { median(recorders.iter().flat_map(|r| r.durations(name)).collect()) };
    let staged = [
        (
            "engine.shape.canonicalize_ns",
            "engine.shape.canonicalize",
            1.0,
        ),
        ("engine.cache.get_ns", "engine.cache.get", 1.0),
        ("data.snapshot.pin_ns", "data.snapshot.pin", 1.0),
        ("core.exec.fetch_us", "core.exec.fetch", 1e3),
        ("core.exec.finalize_us", "core.exec.finalize", 1e3),
    ];
    let mut staged_us = 0.0;
    for (metric, span, per_unit) in staged {
        let nanos = med(span);
        layers.set(metric, nanos / per_unit);
        staged_us += nanos / 1e3;
    }
    let self_us = median(
        recorders
            .iter()
            .flat_map(|r| r.self_times("engine.execute"))
            .collect(),
    ) / 1e3;
    layers.set("engine.serve.self_us", self_us);
    layers.set(
        "engine.materialize.hit_ns",
        quantile_sorted(&sorted_nanos(hit_nanos), 0.5),
    );
    layers.set("data.delta.fold_us", med("data.delta.fold") / 1e3);
    layers.set(
        "data.delta.coalesce_ratio",
        ratio(commit_log.ops_out as f64, commit_log.ops_in as f64),
    );
    layers.set("data.snapshot.commit_us", med("data.snapshot.commit") / 1e3);
    layers.set("trace.sample_every", TRACE_EVERY as f64);
    layers.set(
        "trace.spans",
        recorders.iter().map(|r| r.spans.len()).sum::<usize>() as f64,
    );
    notes.push(format!(
        "reads: staged children {staged_us:.2} us + engine.serve.self_us {self_us:.2} us = {:.2} us; \
         sampled parents' median {:.2} us \
         (children replay cache-warm, so they under-state a cache-miss-bound layer)",
        staged_us + self_us,
        med("engine.execute") / 1e3,
    ));
}

/// Layer primitives timed in isolation, on this workload's own data.
fn primitive_layers(layers: &mut Layers, params: &Params, sc: &Scale, rig: &Rig) -> Res<()> {
    let n = if params.quick { 2_000 } else { 200_000 };
    layers.set(
        "data.index.lookup_ns",
        driver::probe_index_lookup(&rig.sut, sc.persons, n, params.seed)?,
    );
    layers.set("data.tupleset.insert_ns", driver::probe_tupleset_insert(n));
    layers.set("telemetry.hist.record_ns", driver::probe_hist_record(n * 5));
    let mut sample: Vec<Change> = rig.changes.iter().take(200).cloned().collect();
    if sample.is_empty() {
        // mixed_hot makes its changes on the fly; any single fact does.
        sample.push(Change::insert_visit(1, 5_100_000));
    }
    let codec = driver::probe_codec(&rig.sut, &sample)?;
    layers.set("data.codec.encode_delta_ns", codec.encode_delta_ns);
    layers.set("data.codec.decode_delta_ns", codec.decode_delta_ns);
    layers.set("data.codec.crc32_mb_s", codec.crc32_mb_s);
    layers.set("data.codec.page_encode_mb_s", codec.page_encode_mb_s);
    let through_pool = if params.quick { 100 } else { 2_000 };
    let through_pool: Vec<Req> = rig.pools[0].iter().take(through_pool).cloned().collect();
    layers.set(
        "engine.pool.submit_overhead_us",
        driver::probe_pool(&rig.sut, &through_pool)?,
    );
    match params.workload {
        Workload::WriteLarge => {
            // The commit-vs-|D| curve of the store alone; the largest point
            // is the shadow store's, measured in the commit window.
            let commits = if params.quick { 5 } else { 30 };
            layers.set(
                "data.snapshot.commit_us_2k",
                driver::snapshot_commit_us(2_000, commits, params.seed)?,
            );
            layers.set(
                "data.snapshot.commit_us_20k",
                driver::snapshot_commit_us(20_000, commits, params.seed)?,
            );
            layers.set(
                "data.snapshot.commit_us_200k",
                layers.get("data.snapshot.commit_us"),
            );
        }
        Workload::MixedHot => {
            // Requests the materialized layer does not hold: the replicated
            // path has no such layer, so only these compare like with like.
            let cold = if params.quick { 20 } else { 200 };
            let cold: Vec<Req> = (0..cold)
                .map(|i| Req::hot(Shape::Q1, (HOT_PERSONS + i) as i64))
                .collect();
            let wire = driver::probe_wire(&rig.sut, &cold)?;
            layers.set("wire.roundtrip_us", wire.roundtrip_us);
            layers.set("wire.bytes_per_probe", wire.bytes_per_probe);
            layers.set("engine.replica.overhead_ratio", wire.overhead_ratio);
        }
        Workload::ServeSmall | Workload::ServeLarge => {}
    }
    Ok(())
}

pub fn run(params: &Params) -> Res<Report> {
    let workload = params.workload;
    let sc = scale(workload, params.quick);
    let mut layers = Layers::zeroed();
    let mut notes = Vec::new();

    // ---- set-up #1: the engine the run measures -------------------------
    let inputs = make_inputs(workload, &sc, params.seed)?;
    let tuples = inputs.data.tuples();
    let mut rig = construct(workload, inputs, &params.scratch, "engine")?;
    let (mut attempted, mut failed) = (rig.attempted, rig.failed);
    let tuples_per_read = rig.tuples_per_read;
    let mut setup_times = vec![rig.times];
    for sub in &mut rig.subscriptions {
        // The fenced initial Resync is the replay's starting state.
        sub.updates += sub.feed.drain_into(&mut sub.state);
    }

    // ---- tracing gear (not part of set-up, not timed) -------------------
    let origin = Instant::now();
    let mut read_stages = None;
    let mut write_tracer = None;
    if params.traced {
        let shapes = [Req::hot(Shape::Q1, 0), Req::hot(Shape::Q2, 0)];
        let stages = ReadStages::prepare(&rig.sut, &shapes)?;
        layers.set("core.costplan.plan_us", stages.plan_us);
        read_stages = Some(stages);
        // A second copy of the same database for the shadow store, brought
        // to the engine's state by the changes the warm-up committed.
        let mut shadow = Dataset::generate(sc.persons);
        for change in &rig.changes[..rig.committed] {
            shadow.apply(change)?;
        }
        let shadow_log = match workload {
            Workload::WriteLarge => Some(FlushedStorage::open(&storage_dir(
                &params.scratch,
                "shadow-wal",
            )?)?),
            _ => None,
        };
        let sharded = workload == Workload::MixedHot;
        write_tracer = Some(WriteTracer {
            stages: WriteStages::new(shadow, sharded, shadow_log.as_ref())?,
            recorder: Recorder::new(origin, 100),
        });
    }

    // ---- the measured window and the probes ------------------------------
    let slices = (params.seconds.round() as usize).max(1);
    let slice_len = Duration::from_secs_f64(params.seconds / slices as f64);
    let before = rig.sut.counters();
    let storage_before = rig.storage.as_ref().map(FlushedStorage::counters);
    let window_start = Instant::now();
    let deadline = window_start + Duration::from_secs_f64(params.seconds);
    let read_plan = ReadPlan {
        until: Until::Deadline(deadline),
        origin: window_start,
        slices,
        slice_len,
        sample_every: if params.quick { 50 } else { 1_000 },
        max_samples: sc.verify_samples.div_ceil(CLIENTS),
        stages: read_stages.as_ref(),
    };
    let (mut read_logs, read_fig, commit_log);
    // Counters where the read part of the run begins and ends, and storage
    // counters where the commit window ends.
    let (reads_from, reads_to);
    let mut storage_after = None;
    match workload {
        Workload::ServeSmall | Workload::ServeLarge => {
            read_logs = read_window(&rig.sut, &rig.pools, &read_plan);
            read_fig = read_figures(&read_logs, slice_len);
            (reads_from, reads_to) = (before, rig.sut.counters());
            // Write probe: the same store's commit cost, no readers.  The
            // first commit pays one-off costs and is not counted.
            let first = commit_window(&mut rig, Until::Count(1), write_tracer.as_mut());
            attempted += 1;
            failed += first.failed;
            let count = Until::Count(sc.probe_commits as u64);
            commit_log = commit_window(&mut rig, count, write_tracer.as_mut());
        }
        Workload::WriteLarge => {
            commit_log = commit_window(&mut rig, Until::Deadline(deadline), write_tracer.as_mut());
            storage_after = rig.storage.as_ref().map(FlushedStorage::counters);
            reads_from = rig.sut.counters();
            // Read probe: the serve stream on the store the commits rebuilt.
            let probe_start = Instant::now();
            let probe_plan = ReadPlan {
                until: Until::Count(sc.probe_reads as u64),
                origin: probe_start,
                slices: 1,
                ..read_plan
            };
            read_logs = read_window(&rig.sut, &rig.pools, &probe_plan);
            // One slice, as long as the probe took.
            read_fig = read_figures(&read_logs, probe_start.elapsed());
            reads_to = rig.sut.counters();
        }
        Workload::MixedHot => {
            let facts = rig.hot.take().ok_or("mixed_hot without hot facts")?;
            let mut stream = HotStream::new(facts, sc.persons, params.seed);
            (read_logs, commit_log) = mixed_window(
                &mut rig,
                &mut stream,
                params.seconds,
                &read_plan,
                write_tracer.as_mut(),
            );
            read_fig = read_figures(&read_logs, slice_len);
            (reads_from, reads_to) = (before, rig.sut.counters());
        }
    }
    let after = rig.sut.counters();
    let peak_rss = peak_rss_mb();
    let commit_fig = commit_figures(&commit_log);
    for log in &read_logs {
        attempted += log.ops;
        failed += log.failed;
    }
    attempted += commit_log.deltas + commit_log.failed;
    failed += commit_log.failed;

    counter_layers(
        &mut layers,
        workload,
        &Marks {
            before,
            after,
            reads_from,
            reads_to,
            storage: storage_before.zip(storage_after),
        },
        &read_logs,
        &commit_log,
        &rig.sut,
    );

    // ---- traced run: spans and layer primitives ---------------------------
    if let Some(tracer) = write_tracer.take() {
        let mut recorders: Vec<Recorder> = read_logs
            .iter_mut()
            .filter_map(|log| log.recorder.take())
            .collect();
        recorders.push(tracer.recorder);
        let hits: Vec<u32> = read_logs
            .iter()
            .flat_map(|l| l.hit_nanos.iter().copied())
            .collect();
        span_layers(&mut layers, &mut notes, &recorders, &hits, &commit_log);
        layers.set("trace.read_p50_us", read_fig.p50_us);
        layers.set("trace.commit_p50_ms", commit_fig.p50_ms);
        trace::write(&params.trace_out, workload.name(), params.seed, &recorders)?;
        notes.push(format!("spans written to {}", params.trace_out.display()));
        primitive_layers(&mut layers, params, &sc, &rig)?;
    }

    // ---- verification, outside every timed window ------------------------
    let verify_start = Instant::now();
    let mut oracle_changes = 0;
    match workload {
        Workload::WriteLarge => {
            // Checkpoint, a short log tail, crash, recover.
            let storage = rig.storage.clone().ok_or("write_large without storage")?;
            let bytes_before = storage.counters().checkpoint_bytes;
            let start = Instant::now();
            rig.sut.checkpoint()?;
            layers.set("durability.checkpoint.write_s", secs(start.elapsed()));
            layers.set(
                "durability.checkpoint.bytes",
                delta(storage.counters().checkpoint_bytes, bytes_before),
            );
            // The read probe's samples saw every change committed so far.
            oracle_changes = rig.committed;
            let tail = commit_window(&mut rig, Until::Count(sc.tail_commits as u64), None);
            attempted += tail.deltas + tail.failed;
            failed += tail.failed;
            let live = rig.sut.fingerprint();
            drop(rig.sut);
            let cut = storage.crash()?;
            let start = Instant::now();
            let recovered = Sut::recover(&storage)?;
            layers.set("durability.recover.load_s", secs(start.elapsed()));
            let back = recovered.fingerprint();
            attempted += 1;
            if back != live {
                failed += 1;
                notes.push(format!(
                    "RECOVERY MISMATCH: live {live:?} recovered {back:?}"
                ));
            }
            notes.push(format!(
                "recovered to epoch {} of {} from flushed bytes only \
                 ({cut} unflushed bytes discarded, {} log records replayed)",
                back.epoch, live.epoch, sc.tail_commits
            ));
        }
        Workload::MixedHot => {
            let (checks, wrong) = verify_mixed(&mut rig, &mut notes)?;
            attempted += checks;
            failed += wrong;
            drop(rig.sut);
        }
        Workload::ServeSmall | Workload::ServeLarge => drop(rig.sut),
    }
    let mut verify_s = secs(verify_start.elapsed());

    // ---- the remaining set-ups; the first regenerated database is also the
    // oracle for the sampled replies (mixed_hot used the engine's own) -----
    for k in 1..sc.setups.max(2) {
        let mut inputs = make_inputs(workload, &sc, params.seed)?;
        if k == 1 && workload != Workload::MixedHot {
            let start = Instant::now();
            for change in &rig.changes[..oracle_changes] {
                inputs.data.apply(change)?;
            }
            let (checks, wrong) = verify_samples(&inputs.data, &rig.pools, &read_logs)?;
            attempted += checks;
            failed += wrong;
            verify_s += secs(start.elapsed());
        }
        if k < sc.setups {
            setup_times.push(construct(workload, inputs, &params.scratch, "setup")?.times);
        }
    }

    let pick = |f: fn(&SetupTimes) -> f64| median(setup_times.iter().map(f).collect());
    layers.set("setup.generate_s", pick(|t| t.generate_s));
    layers.set("setup.engine_new_s", pick(|t| t.engine_new_s));
    layers.set("setup.warm_s", pick(|t| t.warm_s));
    layers.set("verify_s", verify_s);
    layers.set("window.reads", read_fig.ops as f64);
    layers.set("window.commits", commit_log.nanos.len() as f64);
    layers.set("window.failed", failed as f64);
    layers.set("dataset.tuples", tuples as f64);
    let commit_nanos = sorted(commit_log.nanos.clone());
    let deciles: Vec<String> = (1..10)
        .map(|d| {
            format!(
                "{:.2}",
                quantile_sorted(&commit_nanos, d as f64 / 10.0) / 1e6
            )
        })
        .collect();
    notes.push(format!("commit latency deciles, ms: {}", deciles.join(" ")));
    notes.push(format!(
        "|D| = {tuples} tuples ({} persons); {} reads and {} commits measured; {} set-ups",
        sc.persons,
        read_fig.ops,
        commit_log.nanos.len(),
        setup_times.len()
    ));
    Ok(Report {
        attempted: attempted.max(1),
        failed,
        end_to_end: vec![
            ("setup_s", pick(SetupTimes::total)),
            ("read_p50_us", read_fig.p50_us),
            ("read_p95_us", read_fig.p95_us),
            ("read_qps", read_fig.qps),
            ("tuples_per_read", tuples_per_read),
            ("commit_p50_ms", commit_fig.p50_ms),
            ("commit_p90_ms", commit_fig.p90_ms),
            ("deltas_per_s", commit_fig.deltas_per_s),
            ("peak_rss_mb", peak_rss),
        ],
        layers,
        notes,
    })
}

/// `mixed_hot` after quiesce: every subscription's replayed answer and every
/// hot request against the oracle, and proof that the reactive and the
/// maintenance planes did work.
fn verify_mixed(rig: &mut Rig, notes: &mut Vec<String>) -> Res<(u64, u64)> {
    let (mut checks, mut wrong) = (0u64, 0u64);
    for sub in &mut rig.subscriptions {
        sub.updates += sub.feed.drain_into(&mut sub.state);
    }
    let oracle = rig.sut.to_dataset();
    for sub in &rig.subscriptions {
        let expected = oracle.expected(&sub.req)?;
        let served = rig.sut.execute(&sub.req)?.into_sorted_answers();
        checks += 2;
        wrong += u64::from(sub.state != expected) + u64::from(served != expected);
    }
    for p in 0..HOT_PERSONS as i64 {
        for shape in [Shape::Q1, Shape::Q2] {
            let req = Req::hot(shape, p);
            checks += 1;
            let served = rig.sut.execute(&req)?.into_sorted_answers();
            wrong += u64::from(served != oracle.expected(&req)?);
        }
    }
    let counters = rig.sut.counters();
    checks += 2;
    wrong += u64::from(counters.deliveries == 0) + u64::from(counters.maintenance_runs == 0);
    notes.push(format!(
        "{} subscription deliveries, {} maintenance runs, {} updates replayed over {} subscriptions",
        counters.deliveries,
        counters.maintenance_runs,
        rig.subscriptions.iter().map(|s| s.updates).sum::<u64>(),
        rig.subscriptions.len()
    ));
    Ok((checks, wrong))
}
