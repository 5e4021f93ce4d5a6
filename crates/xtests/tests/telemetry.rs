//! Observability suites: histogram properties and trace completeness.
//!
//! Two property families over the `si-telemetry` plane:
//!
//! 1. **Histogram laws** — across 100 seeded distributions (uniform,
//!    octave-walk, near-constant, heavy-tail mixtures) every quantile the
//!    log-linear histogram reports stays within its bucket's relative-error
//!    bound (≤ 1/64) of the **true** order statistic of the recorded values;
//!    merging snapshots is bucket-for-bucket indistinguishable from having
//!    recorded the union; and 8 threads hammering one histogram lose no
//!    counts (wait-free relaxed recording still sums exactly).
//!
//! 2. **Trace completeness** — every serving mode of the engine (cold plan,
//!    warm plan-cache hit, materialized hit, shared-fetch batch member,
//!    sharded scatter-gather, replicated, durable, pool-queued, pool-batched)
//!    yields a request trace
//!    whose phase durations partition the measured service interval, whose
//!    tuple counts equal the response's access meter **exactly**, and whose
//!    provenance matches the response flags; an injected slow query lands in
//!    the bounded slow log even with sampling off.
//!
//! CI runs this suite in `--release` as well: the histogram and trace hot
//! paths are all relaxed atomics, and release mode is where lost-update bugs
//! would surface.

use si_data::{Database, Delta, Value};
use si_durability::SimDisk;
use si_engine::{Engine, EngineConfig, Provenance, Request, RequestTrace, ShardReplica};
use si_telemetry::{HistogramSnapshot, LatencyHistogram};
use si_wire::{Connection, Duplex};
use si_workload::rng::SplitMix64;
use si_workload::{serving_access_schema, social_partition_map, SocialConfig, SocialGenerator};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Histogram property suite
// ---------------------------------------------------------------------------

/// One seeded value stream; the mode cycles through qualitatively different
/// shapes so bucket boundaries, octave jumps and extreme tails all get hit.
fn distribution(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(0x41C0_FFEE ^ seed);
    let n = 400 + (seed as usize % 7) * 100;
    (0..n)
        .map(|_| match seed % 5 {
            // Sub-microsecond uniform (exercises the exact unit buckets).
            0 => rng.next_u64() % 10_000,
            // Uniform up to ~2 s.
            1 => rng.next_u64() % 2_000_000_000,
            // Octave walk: powers of two land exactly on bucket bounds.
            2 => 1u64 << rng.gen_range(0usize..40),
            // Near-constant cluster inside one bucket.
            3 => 1_000_000 + rng.next_u64() % 64,
            // Heavy tail: mostly cheap, occasionally ~a minute.
            _ => {
                if rng.gen_range(0..10u8) < 9 {
                    rng.next_u64() % 100_000
                } else {
                    rng.next_u64() % 60_000_000_000
                }
            }
        })
        .collect()
}

#[test]
fn quantiles_stay_within_bucket_error_across_seeded_distributions() {
    for seed in 0..100u64 {
        let values = distribution(seed);
        let hist = LatencyHistogram::new();
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let snap = hist.snapshot();
        assert_eq!(snap.count() as usize, sorted.len(), "seed {seed}");
        assert_eq!(snap.min(), sorted[0], "seed {seed}");
        assert_eq!(snap.max(), *sorted.last().unwrap(), "seed {seed}");
        assert_eq!(snap.sum(), values.iter().sum::<u64>(), "seed {seed}");
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            // The true order statistic at the same rank the histogram
            // targets: the rank-ceil(q·n) smallest value.
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let estimate = snap.quantile(q);
            // The reported value is the midpoint of the bucket holding the
            // true order statistic (clamped to the exact extrema), so it can
            // be off by at most the bucket's relative-error bound of 1/64.
            let bound = truth as f64 / 64.0 + 1e-9;
            assert!(
                (estimate as f64 - truth as f64).abs() <= bound,
                "seed {seed} q {q}: estimate {estimate} vs true {truth}"
            );
        }
    }
}

#[test]
fn merging_snapshots_is_indistinguishable_from_recording_the_union() {
    for seed in 0..100u64 {
        let xs = distribution(seed);
        let ys = distribution(seed + 1_000);
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        for &v in &xs {
            a.record(v);
            union.record(v);
        }
        for &v in &ys {
            b.record(v);
            union.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot(), "merge != union at seed {seed}");
        // Commutative, with the empty snapshot as identity.
        let mut flipped = b.snapshot();
        flipped.merge(&a.snapshot());
        assert_eq!(flipped, merged, "merge not commutative at seed {seed}");
        let mut padded = merged.clone();
        padded.merge(&HistogramSnapshot::empty());
        assert_eq!(padded, merged, "empty not identity at seed {seed}");
    }
}

#[test]
fn concurrent_recording_from_eight_threads_loses_no_counts() {
    let shared = Arc::new(LatencyHistogram::new());
    let streams: Vec<Vec<u64>> = (0..8).map(|t| distribution(0xC0DE + t)).collect();
    // A sequential twin records the concatenation of every stream.
    let twin = LatencyHistogram::new();
    for stream in &streams {
        for &v in stream {
            twin.record(v);
        }
    }
    let handles: Vec<_> = streams
        .into_iter()
        .map(|stream| {
            let hist = Arc::clone(&shared);
            std::thread::spawn(move || {
                for v in stream {
                    hist.record(v);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // Bucket-for-bucket identical: count, sum, extrema and every bucket.
    assert_eq!(shared.snapshot(), twin.snapshot());
}

// ---------------------------------------------------------------------------
// Trace completeness suite
// ---------------------------------------------------------------------------

fn social_db() -> Database {
    SocialGenerator::new(SocialConfig::with_persons(60)).generate()
}

fn request(p: i64) -> Request {
    Request::new(si_workload::q1(), vec!["p".into()], vec![Value::int(p)]).with_trace()
}

/// The partition-by-construction contract: phase durations are charged by a
/// single stopwatch, so they can never exceed the measured total, and the
/// unattributed tail (the gap between the final mark and the total read) is
/// a couple of instructions.
fn assert_phases_reconcile(trace: &RequestTrace) {
    assert!(trace.phases_recorded, "inline trace must record phases");
    let sum = trace.phases.total();
    assert!(
        sum <= trace.total_nanos,
        "phase sum {sum} exceeds total {}",
        trace.total_nanos
    );
    let gap = trace.total_nanos - sum;
    assert!(
        gap <= 5_000_000,
        "unattributed tail of {gap} ns between phase sum {sum} and total {}",
        trace.total_nanos
    );
}

#[test]
fn every_serving_mode_yields_a_complete_trace() {
    let db = social_db();
    let access = serving_access_schema(5_000);
    let engine = Engine::new(
        db.clone(),
        access.clone(),
        EngineConfig {
            trace_sample_every: 1,
            materialize_capacity: 8,
            materialize_after: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();

    // Cold: a fresh planning pass.
    let cold = engine.execute(&request(1)).unwrap();
    let t = cold
        .trace
        .as_ref()
        .expect("opted-in request carries a trace");
    assert_eq!(t.provenance, Provenance::Planned { cache_hit: false });
    assert_eq!(t.fetched_tuples, cold.accesses.tuples_fetched);
    assert_eq!(t.answers, cold.answers.len() as u64);
    assert_eq!(t.epoch, cold.epoch);
    assert!(t.batch.is_none());
    assert_phases_reconcile(t);

    // Warm: same shape, different parameter — plan-cache hit, but the
    // materialized layer cannot shortcut it.
    let warm = engine.execute(&request(2)).unwrap();
    let t = warm.trace.as_ref().unwrap();
    assert_eq!(t.provenance, Provenance::Planned { cache_hit: true });
    assert_eq!(t.fetched_tuples, warm.accesses.tuples_fetched);
    assert_phases_reconcile(t);

    // Materialized: p=1 crossed the hotness threshold on its first run, so
    // this serve touches zero base data — and the trace says so.
    let hit = engine.execute(&request(1)).unwrap();
    assert!(hit.materialized, "second serve of a hot key must hit");
    let t = hit.trace.as_ref().unwrap();
    assert_eq!(t.provenance, Provenance::Materialized);
    assert_eq!(t.fetched_tuples, 0);
    assert_eq!(hit.accesses.tuples_fetched, 0);
    assert_eq!(t.answers, hit.answers.len() as u64);
    assert_phases_reconcile(t);

    // Batched: three identical requests group onto one shared fetch; each
    // member's trace reports the group and its *attributed* tuple share,
    // which must equal the response meter exactly.
    let batch: Vec<Request> = (0..3).map(|_| request(3)).collect();
    for result in engine.execute_batch(&batch) {
        let response = result.unwrap();
        let t = response.trace.as_ref().unwrap();
        let membership = t.batch.expect("group member records its batch");
        assert_eq!(membership.group_size, 3);
        assert!(membership.shared_fetch);
        assert_eq!(t.fetched_tuples, response.accesses.tuples_fetched);
        assert_eq!(t.answers, response.answers.len() as u64);
        assert_phases_reconcile(t);
    }

    // Every request served so far was sampled (rate 1): the emitted-trace
    // counter accounts for 100% of them.
    let m = engine.metrics();
    assert_eq!(m.traces_emitted, m.requests);
    assert_eq!(engine.telemetry().slow_log().offered(), m.requests);

    // Sharded: the trace carries the routed-vs-fanned shard probe split.
    let sharded = Engine::new_sharded(
        db.clone(),
        access.clone(),
        social_partition_map(),
        3,
        EngineConfig {
            trace_sample_every: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let response = sharded.execute(&request(1)).unwrap();
    let t = response.trace.as_ref().unwrap();
    assert!(
        t.routed_fetches + t.fanned_fetches > 0,
        "sharded serve must report its probe split"
    );
    assert_eq!(t.fetched_tuples, response.accesses.tuples_fetched);
    assert_phases_reconcile(t);

    // Replicated: the same serve body over the wire, one replica per shard.
    for shard in 0..3 {
        let (primary_end, replica_end) = Duplex::pair();
        let replica = Arc::new(ShardReplica::new(8));
        replica.spawn(Arc::new(Connection::new(Arc::new(replica_end))));
        sharded
            .attach_replica(shard, Arc::new(primary_end))
            .unwrap();
    }
    let response = sharded.execute_replicated(&request(1)).unwrap();
    let t = response.trace.as_ref().unwrap();
    assert!(matches!(t.provenance, Provenance::Planned { .. }));
    assert_eq!(t.fetched_tuples, response.accesses.tuples_fetched);
    assert!(
        t.routed_fetches + t.fanned_fetches > 0,
        "replicated serve must report its probe split"
    );
    assert_phases_reconcile(t);

    // Durable: commits write ahead, and the commit log exposes the span
    // breakdown (gather, merge, WAL, apply, maintenance) for the pass.
    let durable = Engine::new_durable(
        db.clone(),
        access.clone(),
        Box::new(SimDisk::new()),
        EngineConfig {
            trace_sample_every: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut delta = Delta::new();
    delta.insert("friend", vec![Value::int(900), Value::int(901)].into());
    durable.commit(&delta).unwrap();
    let response = durable.execute(&request(1)).unwrap();
    let t = response.trace.as_ref().unwrap();
    assert_eq!(t.epoch, 1);
    assert_phases_reconcile(t);
    let spans = durable.telemetry().commit_log().recent();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].epoch, 1);
    assert_eq!(spans[0].gather_size, 1);
    assert_eq!(spans[0].ops, 1);
    assert!(durable.metrics().wal_records >= 1);
    let page = durable.telemetry().render();
    assert!(page.contains("si_wal_segment_bytes"));
    assert!(page.contains("si_fsync_latency_ns"));

    // Pool-queued: workers measure queue wait into the histogram and thread
    // it through to each trace.
    let pooled = Engine::new(
        db.clone(),
        access.clone(),
        EngineConfig {
            workers: 2,
            trace_sample_every: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let pending: Vec<_> = (0..4)
        .map(|i| pooled.submit(request(1 + i)).unwrap())
        .collect();
    for p in pending {
        let response = p.wait().unwrap();
        let t = response.trace.as_ref().unwrap();
        assert_eq!(t.fetched_tuples, response.accesses.tuples_fetched);
        assert_phases_reconcile(t);
    }
    let queue_wait = pooled.telemetry().histogram("si_queue_wait_ns").snapshot();
    assert_eq!(queue_wait.count(), 4);

    // Pool-batched: one worker drains what queued up behind the job it took
    // and groups it onto a shared fetch; every member's trace still carries
    // its own queue wait.
    let batched = Engine::new(
        db,
        access,
        EngineConfig {
            workers: 1,
            batch_requests: true,
            trace_sample_every: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let pending: Vec<_> = (0..8)
        .map(|_| batched.submit(request(1)).unwrap())
        .collect();
    for p in pending {
        let response = p.wait().unwrap();
        let t = response.trace.as_ref().unwrap();
        assert!(t.queue_wait_nanos > 0, "a pooled trace lost its queue wait");
        assert_eq!(t.fetched_tuples, response.accesses.tuples_fetched);
        assert_phases_reconcile(t);
    }
}

#[test]
fn injected_slow_queries_land_in_the_slow_log() {
    // Sampling off, slow threshold zero: every request is an unsampled slow
    // outlier and must still get a post-hoc trace into the bounded log.
    let engine = Engine::new(
        social_db(),
        serving_access_schema(5_000),
        EngineConfig {
            slow_threshold: Duration::ZERO,
            slow_log_capacity: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for p in 0..6 {
        engine
            .execute(&Request::new(
                si_workload::q1(),
                vec!["p".into()],
                vec![Value::int(p)],
            ))
            .unwrap();
    }
    let log = engine.telemetry().slow_log();
    assert_eq!(log.offered(), 6, "every slow request reaches the log");
    assert_eq!(log.len(), 4, "the log is bounded at its capacity");
    let worst = log.worst_by_latency();
    assert_eq!(worst.len(), 4);
    // Retained slowest-first, every entry marked slow, none with inline
    // phases (they were outside the sample).
    assert!(worst
        .windows(2)
        .all(|w| w[0].total_nanos >= w[1].total_nanos));
    for trace in worst.iter().chain(log.worst_by_tuples().iter()) {
        assert!(trace.slow);
        assert!(!trace.phases_recorded);
        assert_eq!(trace.phases.total(), 0);
    }
    assert_eq!(engine.metrics().traces_emitted, 6);
    assert!(log.render().contains("SLOW"));
}

// ---------------------------------------------------------------------------
// Recovery gauge coherence
// ---------------------------------------------------------------------------

/// Regression: a recovered engine's very first scrape — before any request
/// or commit — must already report the recovered epoch and the recovered
/// per-shard row counts.  The gauges are computed from live pinned
/// snapshots, so a freshly recovered serving stack never renders a page
/// that contradicts the store it is serving from.
#[test]
fn recovered_engines_render_coherent_gauges_before_any_request() {
    let db = social_db();
    let access = serving_access_schema(5_000);
    let config = EngineConfig::default();
    let disk = SimDisk::new();
    let engine = Engine::new_sharded_durable(
        db.clone(),
        access.clone(),
        social_partition_map(),
        3,
        Box::new(disk.clone()),
        config.clone(),
    )
    .unwrap();
    // A few commits so the recovered state differs from the base checkpoint.
    let mut evolving = db;
    for seed in 0..3u64 {
        let delta = si_workload::visit_insertions(&evolving, 5, 0xC0FE ^ seed);
        if delta.is_empty() {
            continue;
        }
        engine.commit(&delta).unwrap();
        delta.apply_in_place(&mut evolving).unwrap();
    }
    let epoch = engine.epoch();
    assert!(epoch > 0, "the scenario must commit at least once");
    let pre_crash = engine.shard_stats();
    drop(engine);

    let recovered = Engine::recover(Box::new(disk), access, config).unwrap();
    // First scrape, zero requests served, zero commits applied since boot.
    let page = recovered.telemetry().render();
    assert!(
        page.contains(&format!("si_snapshot_epoch {epoch}\n")),
        "recovered page must report the recovered epoch {epoch}:\n{page}"
    );
    assert!(page.contains("si_requests_total 0\n"));
    for stats in &pre_crash {
        let line = format!(
            "si_shard_rows{{shard=\"{}\"}} {}\n",
            stats.shard, stats.rows
        );
        assert!(
            page.contains(&line),
            "recovered page must report the pre-crash shard rows `{line}`:\n{page}"
        );
    }
    // The gauges agree with the recovered store itself.
    assert_eq!(recovered.epoch(), epoch);
    let post: Vec<(usize, usize)> = recovered
        .shard_stats()
        .iter()
        .map(|s| (s.shard, s.rows))
        .collect();
    let pre: Vec<(usize, usize)> = pre_crash.iter().map(|s| (s.shard, s.rows)).collect();
    assert_eq!(post, pre, "recovered shard layout diverged");
}
