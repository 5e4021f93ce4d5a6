//! Snapshot-isolation property tests: N reader threads answering queries
//! against pinned snapshot versions while a writer commits seeded delta
//! batches.  Every reader's answers must equal the single-threaded
//! evaluation of its pinned version, and plan-cache hits must produce the
//! same answers as cold planning.

use si_data::{tuple, Delta, Tuple, Value};
use si_engine::{Engine, EngineConfig, EngineError, Request};
use si_query::evaluate_cq;
use si_workload::{
    serving_access_schema, social_partition_map, social_requests, SocialConfig, SocialGenerator,
};
use std::sync::atomic::{AtomicU64, Ordering};

const PERSONS: usize = 300;

fn generated_db() -> si_data::Database {
    SocialGenerator::new(SocialConfig {
        persons: PERSONS,
        restaurants: 40,
        avg_friends: 12,
        avg_visits: 4,
        ..SocialConfig::default()
    })
    .generate()
}

fn engine(config: EngineConfig) -> Engine {
    Engine::new(generated_db(), serving_access_schema(5000), config).unwrap()
}

fn sharded_engine(shards: usize, config: EngineConfig) -> Engine {
    Engine::new_sharded(
        generated_db(),
        serving_access_schema(5000),
        social_partition_map(),
        shards,
        config,
    )
    .unwrap()
}

/// A delta whose tuples are fresh by construction: batch `i` inserts visit
/// facts with an rid range no other batch (and no generated visit) uses.
fn fresh_visit_batch(batch: usize) -> Delta {
    let mut delta = Delta::new();
    for j in 0..25i64 {
        let person = (batch as i64 * 7 + j) % PERSONS as i64;
        let rid = 2_000_000 + batch as i64 * 1_000 + j;
        delta.insert("visit", tuple![person, rid]);
    }
    delta
}

/// The single-threaded ground truth: bind the parameters and evaluate the CQ
/// naively over a deep copy of the pinned version.
fn naive_answers(request: &Request, snapshot: &si_engine::EngineSnapshot) -> Vec<Tuple> {
    let bindings: Vec<(String, Value)> = request
        .parameters
        .iter()
        .cloned()
        .zip(request.values.iter().copied())
        .collect();
    let bound = request.query.bind(&bindings);
    let mut answers = evaluate_cq(&bound, &snapshot.to_database(), None).unwrap();
    answers.sort();
    answers
}

#[test]
fn readers_on_pinned_snapshots_agree_with_single_threaded_evaluation() {
    let engine = engine(EngineConfig {
        workers: 2,
        stats_drift_threshold: 0.05, // let the writer invalidate plans mid-run
        ..EngineConfig::default()
    });
    let readers = 4usize;
    let rounds = 24usize;
    let batches = 30usize;
    let checked = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Writer: commits fresh batches, then deletes every other batch.
        let writer_engine = &engine;
        scope.spawn(move || {
            for b in 0..batches {
                writer_engine.commit(&fresh_visit_batch(b)).unwrap();
                if b >= 2 && b % 2 == 0 {
                    // Delete a slice of batch b-2 (still present: only even
                    // batches delete, and they target even-older batches).
                    let mut delta = Delta::new();
                    for j in 0..5i64 {
                        let person = ((b as i64 - 2) * 7 + j) % PERSONS as i64;
                        let rid = 2_000_000 + (b as i64 - 2) * 1_000 + j;
                        delta.delete("visit", tuple![person, rid]);
                    }
                    writer_engine.commit(&delta).unwrap();
                }
            }
        });

        for reader in 0..readers {
            let engine = &engine;
            let checked = &checked;
            scope.spawn(move || {
                let stream = social_requests(PERSONS, rounds, 1000 + reader as u64);
                for generated in stream {
                    let request =
                        Request::new(generated.query, generated.parameters, generated.values);
                    // Pin a version; the writer keeps committing meanwhile.
                    let pinned = engine.snapshot();
                    let response = engine.execute_at(&pinned, &request).unwrap();
                    assert_eq!(
                        response.epoch,
                        pinned.epoch(),
                        "response must report the pinned version"
                    );
                    let mut served = response.answers.clone();
                    served.sort();
                    assert_eq!(
                        served,
                        naive_answers(&request, &pinned),
                        "pinned answers diverged from single-threaded evaluation \
                         (epoch {})",
                        pinned.epoch()
                    );
                    checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(checked.load(Ordering::Relaxed), (readers * rounds) as u64);
    let metrics = engine.metrics();
    // The writer really ran (30 insert batches + 14 delete batches)…
    assert_eq!(metrics.commits, 44);
    assert_eq!(metrics.snapshot_epoch, 44);
    // …the cache served most requests, and drift invalidated it at least once.
    assert!(metrics.cache_hits > 0, "plan cache never hit");
    assert!(
        metrics.stats_refreshes > 0,
        "stats drift never triggered a refresh"
    );
}

#[test]
fn materialized_serving_agrees_with_single_threaded_evaluation_under_commits() {
    // Readers hammer a small hot set of (shape, value) pairs through the
    // materialized answer cache while the writer keeps committing visit
    // insert/delete batches; whenever no commit raced the execution, the
    // served answers must equal naive single-threaded evaluation of the
    // version the response reports.
    let engine = engine(EngineConfig {
        workers: 2,
        materialize_capacity: 64,
        materialize_after: 1,
        stats_drift_threshold: 0.05,
        ..EngineConfig::default()
    });
    let readers = 3usize;
    let rounds = 40usize;
    let batches = 20usize;
    let verified = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let writer_engine = &engine;
        scope.spawn(move || {
            for b in 0..batches {
                writer_engine.commit(&fresh_visit_batch(b)).unwrap();
                if b >= 2 && b % 2 == 0 {
                    let mut delta = Delta::new();
                    for j in 0..5i64 {
                        let person = ((b as i64 - 2) * 7 + j) % PERSONS as i64;
                        let rid = 2_000_000 + (b as i64 - 2) * 1_000 + j;
                        delta.delete("visit", tuple![person, rid]);
                    }
                    writer_engine.commit(&delta).unwrap();
                }
            }
        });

        for reader in 0..readers {
            let engine = &engine;
            let verified = &verified;
            scope.spawn(move || {
                // A hot set of 4 persons: every pair repeats ~10 times, so
                // answers are admitted, maintained and re-served many times.
                let stream = social_requests(4, rounds, 500 + reader as u64);
                for generated in stream {
                    let request =
                        Request::new(generated.query, generated.parameters, generated.values);
                    let pinned = engine.snapshot();
                    let response = engine.execute(&request).unwrap();
                    if response.epoch == pinned.epoch() {
                        // No commit raced the execution: the response is for
                        // the pinned version and can be cross-checked.
                        let mut served = response.answers.clone();
                        served.sort();
                        assert_eq!(
                            served,
                            naive_answers(&request, &pinned),
                            "answers diverged at epoch {} (materialized: {})",
                            response.epoch,
                            response.materialized
                        );
                        verified.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    // The vast majority of executions are commit-free and were verified.
    assert!(
        verified.load(Ordering::Relaxed) > (readers * rounds / 2) as u64,
        "too few verifiable executions: {}",
        verified.load(Ordering::Relaxed)
    );
    let metrics = engine.metrics();
    assert_eq!(metrics.commits, 29);
    assert!(
        metrics.materialized_hits > 0,
        "hot repeats never hit the materialized cache"
    );
    assert!(
        metrics.maintenance_runs > 0,
        "commits never maintained an admitted answer"
    );
    // Write-path maintenance is bounded work: no full scans ever.
    assert_eq!(metrics.maintenance_accesses.full_scans, 0);
}

#[test]
fn plan_cache_hits_equal_cold_planned_answers() {
    // A warmed engine (every shape cached) and a cold engine must serve
    // identical answers for an identical request stream.
    let warmed = engine(EngineConfig::default());
    let stream = social_requests(PERSONS, 60, 7);
    // Warm-up pass: plans every shape.
    for g in &stream {
        let req = Request::new(g.query.clone(), g.parameters.clone(), g.values.clone());
        warmed.execute(&req).unwrap();
    }
    let cold = engine(EngineConfig::default());
    let mut hits = 0u64;
    for g in &stream {
        let req = Request::new(g.query.clone(), g.parameters.clone(), g.values.clone());
        let warm_response = warmed.execute(&req).unwrap();
        let cold_response = cold.execute(&req).unwrap();
        if warm_response.cache_hit {
            hits += 1;
        }
        assert_eq!(
            warm_response.answers, cold_response.answers,
            "cache hit must not change answers"
        );
        assert_eq!(warm_response.accesses, cold_response.accesses);
    }
    assert_eq!(hits, 60, "second pass must be all cache hits");
}

#[test]
fn sharded_serving_stays_equivalent_under_concurrent_commits() {
    let sharded = sharded_engine(4, EngineConfig::default());
    let stream = social_requests(PERSONS, 40, 99);
    std::thread::scope(|scope| {
        let writer = &sharded;
        scope.spawn(move || {
            for b in 0..10 {
                writer.commit(&fresh_visit_batch(100 + b)).unwrap();
            }
        });
        let engine = &sharded;
        scope.spawn(move || {
            for g in &stream {
                let req = Request::new(g.query.clone(), g.parameters.clone(), g.values.clone());
                let pinned = engine.snapshot();
                let response = engine.execute_at(&pinned, &req).unwrap();
                let mut served = response.answers.clone();
                served.sort();
                assert_eq!(served, naive_answers(&req, &pinned));
            }
        });
    });
}

#[test]
fn pool_serving_matches_naive_evaluation_on_a_quiescent_engine() {
    let engine = engine(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    let stream = social_requests(PERSONS, 50, 3);
    let snapshot = engine.snapshot(); // no writer: current version is stable
    let pending: Vec<_> = stream
        .iter()
        .map(|g| {
            engine
                .submit(Request::new(
                    g.query.clone(),
                    g.parameters.clone(),
                    g.values.clone(),
                ))
                .unwrap()
        })
        .collect();
    for (g, pending) in stream.iter().zip(pending) {
        let req = Request::new(g.query.clone(), g.parameters.clone(), g.values.clone());
        let response = pending.wait().unwrap();
        let mut served = response.answers;
        served.sort();
        assert_eq!(served, naive_answers(&req, &snapshot));
    }
}

#[test]
fn sharded_readers_pinned_across_sharded_commits_agree_with_naive_evaluation() {
    // Concurrent chaos over a hash-partitioned store: readers pin coherent
    // cross-shard views while a writer streams commits whose deltas split
    // across shards — including delete-then-reinsert interleavings where a
    // slice of an old batch is deleted in one commit and the *same tuples*
    // (routing to several different shards) come back in the next.  Every
    // reader's answers must equal single-threaded evaluation of its pinned
    // global epoch, and the response must report that epoch.
    let engine = sharded_engine(
        3,
        EngineConfig {
            workers: 2,
            stats_drift_threshold: 0.05,
            ..EngineConfig::default()
        },
    );
    let readers = 4usize;
    let rounds = 24usize;
    let batches = 24usize;
    let checked = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let writer_engine = &engine;
        scope.spawn(move || {
            for b in 0..batches {
                writer_engine.commit(&fresh_visit_batch(b)).unwrap();
                if b >= 2 && b % 2 == 0 {
                    // Delete a slice of batch b-2…
                    let mut delete = Delta::new();
                    let mut restore = Delta::new();
                    for j in 0..5i64 {
                        let person = ((b as i64 - 2) * 7 + j) % PERSONS as i64;
                        let rid = 2_000_000 + (b as i64 - 2) * 1_000 + j;
                        delete.delete("visit", tuple![person, rid]);
                        restore.insert("visit", tuple![person, rid]);
                    }
                    writer_engine.commit(&delete).unwrap();
                    // …and re-insert exactly those tuples one epoch later:
                    // the five persons hash to different shards, so the
                    // delete/re-insert pair splits across shards both times.
                    writer_engine.commit(&restore).unwrap();
                }
            }
        });

        for reader in 0..readers {
            let engine = &engine;
            let checked = &checked;
            scope.spawn(move || {
                let stream = social_requests(PERSONS, rounds, 2000 + reader as u64);
                for generated in stream {
                    let request =
                        Request::new(generated.query, generated.parameters, generated.values);
                    let pinned = engine.snapshot();
                    let response = engine.execute_at(&pinned, &request).unwrap();
                    assert_eq!(
                        response.epoch,
                        pinned.epoch(),
                        "response must report the pinned global epoch"
                    );
                    let mut served = response.answers.clone();
                    served.sort();
                    assert_eq!(
                        served,
                        naive_answers(&request, &pinned),
                        "pinned sharded answers diverged from single-threaded \
                         evaluation (epoch {})",
                        pinned.epoch()
                    );
                    checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(checked.load(Ordering::Relaxed), (readers * rounds) as u64);
    let metrics = engine.metrics();
    // 24 insert batches + 11 delete/re-insert pairs.
    assert_eq!(metrics.commits, 46);
    assert_eq!(metrics.snapshot_epoch, 46);
    assert!(metrics.cache_hits > 0, "plan cache never hit");
    // The store really is partitioned: several shards received commits.
    let stats = engine.shard_stats();
    assert_eq!(stats.len(), 3);
    assert!(stats.iter().all(|s| s.routed_tuples > 0));
    // Shard-epoch coherence, inspected uniformly through the pinned
    // snapshot: every shard commits on every global commit.
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.shard_count(), 3);
    assert_eq!(snapshot.shard_epochs(), vec![46; 3]);
}

#[test]
fn sharded_materialized_serving_survives_delete_then_reinsert_across_shards() {
    // Materialized answers maintained per shard-local delta: a hot request
    // set is admitted, then the writer deletes and re-inserts visit facts
    // of the hot persons across shards; whenever no commit raced the
    // execution, the served answers must equal naive evaluation, and the
    // delete-then-reinsert round trips must land back on the same answers.
    let engine = sharded_engine(
        3,
        EngineConfig {
            workers: 2,
            materialize_capacity: 64,
            materialize_after: 1,
            stats_drift_threshold: 0.05,
            ..EngineConfig::default()
        },
    );
    let readers = 3usize;
    let rounds = 30usize;
    let batches = 12usize;
    let verified = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let writer_engine = &engine;
        scope.spawn(move || {
            for b in 0..batches {
                writer_engine.commit(&fresh_visit_batch(b)).unwrap();
                if b >= 2 && b % 2 == 0 {
                    let mut delete = Delta::new();
                    let mut restore = Delta::new();
                    for j in 0..5i64 {
                        let person = ((b as i64 - 2) * 7 + j) % PERSONS as i64;
                        let rid = 2_000_000 + (b as i64 - 2) * 1_000 + j;
                        delete.delete("visit", tuple![person, rid]);
                        restore.insert("visit", tuple![person, rid]);
                    }
                    writer_engine.commit(&delete).unwrap();
                    writer_engine.commit(&restore).unwrap();
                }
            }
        });

        for reader in 0..readers {
            let engine = &engine;
            let verified = &verified;
            scope.spawn(move || {
                let stream = social_requests(4, rounds, 700 + reader as u64);
                for generated in stream {
                    let request =
                        Request::new(generated.query, generated.parameters, generated.values);
                    let pinned = engine.snapshot();
                    let response = engine.execute(&request).unwrap();
                    if response.epoch == pinned.epoch() {
                        let mut served = response.answers.clone();
                        served.sort();
                        assert_eq!(
                            served,
                            naive_answers(&request, &pinned),
                            "sharded answers diverged at epoch {} (materialized: {})",
                            response.epoch,
                            response.materialized
                        );
                        verified.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert!(
        verified.load(Ordering::Relaxed) > (readers * rounds / 2) as u64,
        "too few verifiable executions: {}",
        verified.load(Ordering::Relaxed)
    );
    let metrics = engine.metrics();
    assert_eq!(metrics.commits, 22);
    assert!(
        metrics.materialized_hits > 0,
        "hot repeats never hit the materialized cache"
    );
    assert!(
        metrics.maintenance_runs > 0,
        "sharded commits never maintained an admitted answer"
    );
    assert_eq!(metrics.maintenance_accesses.full_scans, 0);
}

#[test]
fn overload_shedding_reports_queue_pressure() {
    // One worker, a queue of 1, and requests that keep the worker busy long
    // enough for the submitter to outrun it.
    let engine = engine(EngineConfig {
        workers: 1,
        max_queue: 1,
        ..EngineConfig::default()
    });
    let mut shed = 0;
    let mut pending = Vec::new();
    for i in 0..50 {
        match engine.submit(Request::new(
            si_workload::q1(),
            vec!["p".into()],
            vec![Value::int(i % PERSONS as i64)],
        )) {
            Ok(p) => pending.push(p),
            Err(EngineError::Overloaded { max_queue, .. }) => {
                assert_eq!(max_queue, 1);
                shed += 1;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    for p in pending {
        p.wait().unwrap();
    }
    // With a queue bound of 1 and 50 rapid-fire submissions, at least one
    // must have been shed; the metric agrees.
    assert!(shed > 0, "no submission was shed");
    assert_eq!(engine.metrics().shed_overload, shed);
}

#[test]
fn unsharded_engines_pin_one_shard_views_and_refuse_single_store_snapshots() {
    let engine = engine(EngineConfig::default());
    // `Engine::new` is the 1-shard case of the sharded store.
    let si_engine::EngineSnapshot::Sharded(view) = engine.snapshot() else {
        panic!("engines pin sharded views");
    };
    assert_eq!(view.shard_count(), 1);
    // No engine produces `Single`, so it names a version this engine does
    // not hold.
    let foreign = si_engine::EngineSnapshot::Single(std::sync::Arc::new(
        si_data::DatabaseSnapshot::from_database(generated_db()),
    ));
    let request = Request::new(si_workload::q1(), vec!["p".into()], vec![Value::int(1)]);
    assert_eq!(
        engine.execute_at(&foreign, &request).unwrap_err(),
        EngineError::EpochUnavailable {
            requested: 0,
            newest: 0
        }
    );
}
