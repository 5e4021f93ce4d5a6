//! Transport-equivalence harness for the replication plane: serving through
//! wire-attached shard replicas must be indistinguishable from in-process
//! sharded serving.
//!
//! Every seed deterministically generates a scenario — a seeded social
//! instance, the serving access constraints (plus a `visit(rid)` constraint
//! so a forced-fan-out shape is plannable), four CQ shapes, and a stream of
//! mixed insert/delete commit batches.  At every epoch, for every shape and
//! parameter, the same request executes through
//!
//! * the unsharded engine (`Engine::execute`),
//! * sharded engines at shard counts {1, 2, 8} (`Engine::execute`), and
//! * the **same sharded engines through their attached replicas**
//!   (`Engine::execute_replicated`) — every probe crosses the framed wire
//!   protocol to a `ShardReplica` behind an in-process duplex pipe — plus,
//!   once per seed, the unsharded engine through its own replica,
//!
//! asserting that answers (sorted), the full access meter, the epoch and
//! the static cost are identical, with 0 divergent cases.  Further suites
//! cover replica lag (a paused replica forces a typed epoch-wait refusal,
//! then serves after catching up), reconnect resync (WAL replay after a
//! severed wire; snapshot bootstrap for a fresh replica), and epoch-pinned
//! reads at the wire level (historical probes inside the retention window
//! answer; probes outside it are refused with the window bounds).
//! CI runs this suite in `--release` as well.

use si_access::{AccessConstraint, AccessSchema};
use si_data::{Database, Delta, Tuple, Value};
use si_engine::{Engine, EngineConfig, EngineError, Request, ShardReplica};
use si_query::{evaluate_cq, parse_cq, ConjunctiveQuery};
use si_wire::{Connection, Duplex, Message, PROTOCOL_VERSION};
use si_workload::rng::SplitMix64;
use si_workload::{serving_access_schema, social_partition_map, SocialConfig, SocialGenerator};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEEDS: u64 = 10;
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const OPS_PER_SEED: usize = 20;
const RETAIN: usize = 8;

/// The four CQ shapes with their parameter variable.  `Qr` probes `visit`
/// by `rid` while `visit` partitions on `id`, so its fetch fans out across
/// every shard — over the wire, that is one probe per replica.
fn shapes() -> Vec<(ConjunctiveQuery, String)> {
    vec![
        (si_workload::q1(), "p".to_string()),
        (
            parse_cq(r#"Z(a, b) :- friend(a, i), person(i, b, "LA")"#).unwrap(),
            "a".to_string(),
        ),
        (si_workload::q2(), "p".to_string()),
        (
            parse_cq("Qr(rid, id) :- visit(id, rid)").unwrap(),
            "rid".to_string(),
        ),
    ]
}

fn access() -> AccessSchema {
    serving_access_schema(5_000).with(AccessConstraint::new("visit", &["rid"], 1_000, 1))
}

/// Materialization off: replicated execution always runs the bounded plan,
/// so the in-process twin must too for meter-exact comparison.
fn config() -> EngineConfig {
    EngineConfig {
        materialize_after: u64::MAX,
        ..EngineConfig::default()
    }
}

fn seeded_db(seed: u64) -> Database {
    SocialGenerator::new(SocialConfig {
        persons: 20 + (seed as usize % 5) * 6,
        restaurants: 5 + (seed as usize % 3) * 3,
        avg_friends: 3 + (seed as usize % 4),
        avg_visits: 2 + (seed as usize % 3),
        seed,
        ..SocialConfig::default()
    })
    .generate()
}

/// One valid mixed-polarity batch against the evolving oracle.
fn gen_delta(rng: &mut SplitMix64, oracle: &Database, fresh: &mut usize) -> Delta {
    let mut delta = Delta::new();
    let mut planned: BTreeSet<(String, Tuple)> = BTreeSet::new();
    let persons = oracle
        .relation("person")
        .map(|r| r.len())
        .unwrap_or(1)
        .max(1);
    for _ in 0..(2 + rng.gen_range(0..3usize)) {
        let kind = rng.gen_range(0..100u8);
        if kind < 35 {
            *fresh += 1;
            let t: Tuple = vec![
                Value::from(rng.gen_range(0..persons)),
                Value::from(9_000_000 + *fresh),
            ]
            .into();
            if planned.insert(("visit".into(), t.clone())) {
                delta.insert("visit", t);
            }
        } else if kind < 55 {
            let rel = oracle.relation("visit").unwrap();
            if !rel.is_empty() {
                if let Some(t) = rel.iter().nth(rng.gen_range(0..rel.len())).cloned() {
                    if planned.insert(("visit".into(), t.clone())) {
                        delta.delete("visit", t);
                    }
                }
            }
        } else if kind < 75 {
            let t: Tuple = vec![
                Value::from(rng.gen_range(0..persons)),
                Value::from(rng.gen_range(0..persons)),
            ]
            .into();
            if !oracle.contains("friend", &t).unwrap()
                && planned.insert(("friend".into(), t.clone()))
            {
                delta.insert("friend", t);
            }
        } else if kind < 90 {
            let rel = oracle.relation("friend").unwrap();
            if !rel.is_empty() {
                if let Some(t) = rel.iter().nth(rng.gen_range(0..rel.len())).cloned() {
                    if planned.insert(("friend".into(), t.clone())) {
                        delta.delete("friend", t);
                    }
                }
            }
        } else {
            *fresh += 1;
            let t: Tuple = vec![
                Value::from(2_000_000 + *fresh),
                Value::str(format!("p{fresh}")),
                Value::str(if kind.is_multiple_of(2) { "NYC" } else { "LA" }),
            ]
            .into();
            delta.insert("person", t);
        }
    }
    delta
}

fn sorted(mut answers: Vec<Tuple>) -> Vec<Tuple> {
    answers.sort();
    answers
}

fn parameter_values(shape: &str, oracle: &Database) -> Vec<Value> {
    if shape == "Qr" {
        let mut rids: Vec<Value> = oracle
            .relation("restr")
            .map(|r| r.iter().filter_map(|t| t.get(0).copied()).take(2).collect())
            .unwrap_or_default();
        rids.push(Value::int(-1));
        rids
    } else {
        vec![Value::int(0), Value::int(1)]
    }
}

/// Boots one [`ShardReplica`] per shard over duplex pipes and attaches the
/// fleet; returns each replica with its serve-side connection handle.
fn attach_fleet(engine: &Engine, shards: usize) -> Vec<(Arc<ShardReplica>, Arc<Connection>)> {
    (0..shards)
        .map(|shard| {
            let (primary_end, replica_end) = Duplex::pair();
            let replica = Arc::new(ShardReplica::new(RETAIN));
            let conn = Arc::new(Connection::new(Arc::new(replica_end)));
            replica.spawn(Arc::clone(&conn));
            engine.attach_replica(shard, Arc::new(primary_end)).unwrap();
            (replica, conn)
        })
        .collect()
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    done()
}

#[test]
fn replicated_serving_is_answer_epoch_and_meter_identical_under_commits() {
    let shapes = shapes();
    let mut cases = 0u64;

    for seed in 0..SEEDS {
        let db = seeded_db(seed);
        let access = access();
        let plain = Engine::new(db.clone(), access.clone(), config()).unwrap();
        // The unsharded engine is the 1-shard case of the sharded store, so
        // one replica serves its whole instance.
        let _plain_fleet = attach_fleet(&plain, 1);
        let probe = Request::new(si_workload::q1(), vec!["p".into()], vec![Value::int(1)]);
        let local = plain.execute(&probe).unwrap();
        let remote = plain.execute_replicated(&probe).unwrap();
        assert_eq!(sorted(remote.answers), sorted(local.answers), "seed {seed}");
        assert_eq!(remote.epoch, local.epoch, "seed {seed}");
        assert_eq!(remote.accesses, local.accesses, "seed {seed}");
        let sharded: Vec<Engine> = SHARD_COUNTS
            .iter()
            .map(|&n| {
                Engine::new_sharded(
                    db.clone(),
                    access.clone(),
                    social_partition_map(),
                    n,
                    config(),
                )
                .unwrap()
            })
            .collect();
        let _fleets: Vec<_> = sharded
            .iter()
            .zip(SHARD_COUNTS)
            .map(|(engine, n)| attach_fleet(engine, n))
            .collect();
        let mut oracle = db;
        let mut rng = SplitMix64::seed_from_u64(0x4E7 ^ seed);
        let mut fresh = 700_000usize;

        for op in 0..OPS_PER_SEED {
            if rng.gen_range(0..100u8) < 30 {
                let delta = gen_delta(&mut rng, &oracle, &mut fresh);
                if delta.is_empty() {
                    continue;
                }
                let epoch = plain.commit(&delta).unwrap();
                for engine in &sharded {
                    assert_eq!(engine.commit(&delta).unwrap(), epoch, "seed {seed} op {op}");
                }
                delta.apply_in_place(&mut oracle).unwrap();
            } else {
                let (query, parameter) = &shapes[rng.gen_range(0..shapes.len())];
                for value in parameter_values(&query.name, &oracle) {
                    let request = Request::new(query.clone(), vec![parameter.clone()], vec![value]);
                    let expected = plain.execute(&request).unwrap();
                    let bound = query.bind(&[(parameter.clone(), value)]);
                    let naive = sorted(evaluate_cq(&bound, &oracle, None).unwrap());
                    assert_eq!(
                        sorted(expected.answers.clone()),
                        naive,
                        "seed {seed} op {op}"
                    );
                    for engine in &sharded {
                        let local = engine.execute(&request).unwrap();
                        // Read-your-writes: the replicated read waits for
                        // every replica to acknowledge the pinned epoch,
                        // then must match the in-process sharded execution
                        // on every observable axis.
                        let remote = engine.execute_replicated(&request).unwrap();
                        let label = format!("seed {seed} op {op} {}", query.name);
                        assert_eq!(sorted(remote.answers.clone()), naive, "{label}");
                        assert_eq!(remote.accesses, local.accesses, "{label}");
                        assert_eq!(remote.accesses, expected.accesses, "{label}");
                        assert_eq!(remote.epoch, expected.epoch, "{label}");
                        assert_eq!(remote.static_cost, expected.static_cost, "{label}");
                        cases += 1;
                    }
                }
            }
        }
        // Every replica converges to the primary's epoch (acks are
        // asynchronous, so poll) and stayed connected through the full
        // commit/read interleaving.
        for engine in &sharded {
            let epoch = engine.snapshot().epoch();
            assert!(
                wait_until(Duration::from_secs(5), || {
                    engine
                        .replica_statuses()
                        .iter()
                        .all(|s| s.connected && s.acked_epoch == epoch)
                }),
                "seed {seed}: replicas never converged to epoch {epoch}: {:?}",
                engine.replica_statuses()
            );
        }
    }
    assert!(cases >= 900, "only {cases} transport-equivalence cases ran");
    println!("transport-equivalence: {cases} replicated executions, 0 divergent");
}

#[test]
fn lagging_replica_forces_typed_refusal_then_serves_read_your_writes() {
    let db = seeded_db(3);
    let engine =
        Engine::new_sharded(db.clone(), access(), social_partition_map(), 2, config()).unwrap();
    let fleet = attach_fleet(&engine, 2);
    let request = Request::new(si_workload::q1(), vec!["p".into()], vec![Value::int(1)]);
    engine.execute_replicated(&request).unwrap();

    // Freeze shard 1's WAL application and commit: its ack watermark stays
    // behind, so the epoch wait must time out with a typed refusal rather
    // than serve a version the replica does not hold.
    fleet[1].0.pause();
    engine.set_replica_epoch_wait(Duration::from_millis(50));
    let epoch = engine
        .commit(Delta::new().insert("friend", tuple_of(&[1, 0])))
        .unwrap();
    assert!(matches!(
        engine.execute_replicated(&request).unwrap_err(),
        EngineError::EpochUnavailable { requested, .. } if requested == epoch
    ));
    let statuses = engine.replica_statuses();
    assert!(
        statuses.iter().any(|s| s.acked_epoch < epoch),
        "a paused replica must show lag: {statuses:?}"
    );
    // The lag is visible on the exposition page while the replica is stuck.
    let page = engine.telemetry().render();
    assert!(
        page.contains("si_replica_lag"),
        "missing lag gauge:\n{page}"
    );

    // Resume: the queued record applies, the ack lands, and the same read
    // serves the committed epoch with answers equal to the local path.
    fleet[1].0.resume();
    engine.set_replica_epoch_wait(Duration::from_secs(5));
    let remote = engine.execute_replicated(&request).unwrap();
    let local = engine.execute(&request).unwrap();
    assert_eq!(remote.epoch, epoch);
    assert_eq!(sorted(remote.answers), sorted(local.answers));
    assert_eq!(remote.accesses, local.accesses);
}

#[test]
fn severed_wire_resyncs_on_reconnect_via_wal_replay_and_snapshot() {
    let db = seeded_db(5);
    let engine =
        Engine::new_sharded(db.clone(), access(), social_partition_map(), 2, config()).unwrap();
    let fleet = attach_fleet(&engine, 2);
    let request = Request::new(si_workload::q1(), vec!["p".into()], vec![Value::int(0)]);
    engine
        .commit(Delta::new().insert("friend", tuple_of(&[0, 1])))
        .unwrap();
    engine.execute_replicated(&request).unwrap();

    // Tear shard 0's wire.  The primary notices and reports the shard
    // disconnected; replicated reads refuse instead of serving stale state.
    fleet[0].1.shutdown();
    assert!(
        wait_until(Duration::from_secs(5), || {
            !engine.replica_statuses()[0].connected
        }),
        "primary never observed the severed wire"
    );
    engine.set_replica_epoch_wait(Duration::from_millis(40));
    let epoch = engine
        .commit(Delta::new().insert("friend", tuple_of(&[0, 2])))
        .unwrap();
    assert!(engine.execute_replicated(&request).is_err());
    engine.set_replica_epoch_wait(Duration::from_secs(5));

    // Reconnect the *same* replica over a fresh wire: it still holds epoch
    // `epoch - 1`, and the primary's replay log covers the gap, so resync
    // is WAL replay — no snapshot retransfer — straight to the tip.
    assert_eq!(fleet[0].0.newest_epoch(), Some(epoch - 1));
    let (primary_end, replica_end) = Duplex::pair();
    fleet[0]
        .0
        .spawn(Arc::new(Connection::new(Arc::new(replica_end))));
    engine.attach_replica(0, Arc::new(primary_end)).unwrap();
    assert_eq!(fleet[0].0.newest_epoch(), Some(epoch));
    let status = engine.replica_statuses()[0].clone();
    assert!(status.connected);
    assert_eq!(status.acked_epoch, epoch);

    // A *fresh* replica on shard 1 resyncs the other way: full snapshot
    // bootstrap at the current epoch.
    let (primary_end, replica_end) = Duplex::pair();
    let fresh = Arc::new(ShardReplica::new(RETAIN));
    fresh.spawn(Arc::new(Connection::new(Arc::new(replica_end))));
    engine.attach_replica(1, Arc::new(primary_end)).unwrap();
    assert_eq!(fresh.newest_epoch(), Some(epoch));

    // Both paths serve: replicated answers equal the local ones again.
    let remote = engine.execute_replicated(&request).unwrap();
    let local = engine.execute(&request).unwrap();
    assert_eq!(remote.epoch, epoch);
    assert_eq!(sorted(remote.answers), sorted(local.answers));
    assert_eq!(remote.accesses, local.accesses);
}

#[test]
fn attaching_over_a_dropped_peer_fails_instead_of_hanging() {
    let engine =
        Engine::new_sharded(seeded_db(1), access(), social_partition_map(), 2, config()).unwrap();
    let (primary_end, replica_end) = Duplex::pair();
    drop(replica_end);
    // The attach runs on its own thread so a hang fails the test instead of
    // stalling the suite; the engine comes back through the join.
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let outcome = engine.attach_replica(0, Arc::new(primary_end));
        let _ = done.send(());
        (engine, outcome)
    });
    finished
        .recv_timeout(Duration::from_secs(5))
        .expect("attach over a dropped peer never returned");
    let (engine, outcome) = worker.join().unwrap();
    assert!(matches!(outcome, Err(EngineError::Replication(_))));
    // The attach held the commit lock; it is released, so commits proceed.
    let epoch = engine
        .commit(Delta::new().insert("visit", tuple_of(&[1, 8_000_000])))
        .unwrap();
    assert_eq!(epoch, 1);
}

#[test]
fn epoch_pinned_wire_probes_serve_the_retention_window_and_refuse_outside_it() {
    let db = seeded_db(7);
    let engine =
        Engine::new_sharded(db.clone(), access(), social_partition_map(), 1, config()).unwrap();
    let fleet = attach_fleet(&engine, 1);
    let replica = Arc::clone(&fleet[0].0);
    let request = Request::new(si_workload::q1(), vec!["p".into()], vec![Value::int(1)]);

    // Ten commits with retention 8: the replica's window slides to [3, 10].
    for i in 0..10i64 {
        engine
            .commit(Delta::new().insert("visit", tuple_of(&[1, 8_000_000 + i])))
            .unwrap();
    }
    engine.execute_replicated(&request).unwrap(); // forces the epoch wait
    assert_eq!(replica.newest_epoch(), Some(10));
    assert_eq!(replica.oldest_epoch(), Some(3));
    assert_eq!(replica.retained_epochs(), (3..=10).collect::<Vec<u64>>());

    // Speak the wire protocol directly on a second connection to the same
    // replica: epoch-pinned probes answer inside the window and refuse
    // outside it, reporting the window bounds.
    let (client_end, server_end) = Duplex::pair();
    replica.spawn(Arc::new(Connection::new(Arc::new(server_end))));
    let client = Connection::new(Arc::new(client_end));
    client
        .send(&Message::Hello {
            version: PROTOCOL_VERSION,
            shard: 0,
            epoch: 10,
            seed: Vec::new(),
        })
        .unwrap();
    assert_eq!(
        client.recv().unwrap(),
        Message::HelloAck {
            version: PROTOCOL_VERSION,
            epoch: 10
        }
    );
    let probe_at = |id: u64, epoch: u64| {
        client
            .send(&Message::Probe {
                id,
                epoch,
                relation: "visit".into(),
                attrs: vec!["id".into()],
                key: vec![Value::int(1)],
            })
            .unwrap();
        client.recv().unwrap()
    };
    // Pinned before the window and after the tip: refused with the bounds.
    for (id, epoch) in [(1u64, 2u64), (2, 11)] {
        assert_eq!(
            probe_at(id, epoch),
            Message::Refused {
                id,
                requested: epoch,
                oldest: 3,
                newest: 10
            }
        );
    }
    // Every retained epoch answers, and each historical answer equals that
    // epoch's actual state — the commits above insert one `visit` row per
    // epoch for person 1, so the row count grows with the pinned epoch.
    for epoch in 3..=10u64 {
        let expected: BTreeSet<Tuple> = replica
            .database_at(epoch)
            .unwrap()
            .relation("visit")
            .unwrap()
            .iter()
            .filter(|t| t.get(0) == Some(&Value::int(1)))
            .cloned()
            .collect();
        match probe_at(100 + epoch, epoch) {
            Message::Rows { id, tuples } => {
                assert_eq!(id, 100 + epoch);
                let got: BTreeSet<Tuple> = tuples.into_iter().collect();
                assert_eq!(got, expected, "epoch {epoch}");
            }
            other => panic!("epoch {epoch}: unexpected reply {other:?}"),
        }
    }
}

fn tuple_of(ints: &[i64]) -> Tuple {
    ints.iter()
        .map(|i| Value::int(*i))
        .collect::<Vec<_>>()
        .into()
}
