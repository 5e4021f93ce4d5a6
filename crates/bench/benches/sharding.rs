//! Sharded scatter-gather: correctness pre-pass plus the routed-vs-fan-out
//! fetch study on a skewed instance.
//!
//! Custom harness (`harness = false`): like the throughput bench, this
//! measures quantities the criterion shim cannot — a divergence count and
//! tuples-fetched totals from exact meters.
//!
//! **Pre-pass** — N concurrent requests against a 4-shard engine (pool
//! workers on top of data sharding) are cross-checked
//! against naive single-threaded evaluation of the merged instance; any
//! divergence fails the bench.
//!
//! **Routed vs fan-out** — the skewed instance gives one hot restaurant
//! most of the `visit` traffic.  The same logical probe
//! `σ_{rid = hot, id = p}(visit)` through the `visit(rid)` constraint is
//! answered two ways over an 8-shard store:
//!
//! * *forced fan-out* (mirror accounting, what unsharded execution and the
//!   equivalence harness measure): every shard is probed by `rid`, the hot
//!   restaurant's visits are fetched wherever they live and `id = p` is a
//!   residual filter — the full hot bucket is paid on every probe;
//! * *routed* (pruned mode): the literal `id = p` — `visit`'s partition
//!   column — pins shard `h(p)`, so only that shard's slice of the hot
//!   bucket is fetched.
//!
//! The acceptance bar is a ≥ 4× reduction in tuples fetched per probe; with
//! 8 shards and an evenly hashed hot bucket the expected ratio is ~8×.

use si_access::{AccessConstraint, AccessSource, ShardedAccess};
use si_data::{tuple, Database, Tuple, Value};
use si_engine::{Engine, EngineConfig, Request};
use si_query::evaluate_cq;
use si_workload::{
    serving_access_schema, social_partition_map, social_requests, SocialConfig, SocialGenerator,
};
use std::sync::Arc;
use std::time::Instant;

const PERSONS: usize = 2_000;
const VERIFY_SAMPLE: usize = 300;
const DATA_SHARDS: usize = 8;
const HOT_RID: i64 = 7_000_000;
const PROBES: usize = 64;

fn naive_answers(request: &Request, db: &Database) -> Vec<Tuple> {
    let bindings: Vec<(String, Value)> = request
        .parameters
        .iter()
        .cloned()
        .zip(request.values.iter().copied())
        .collect();
    let mut answers = evaluate_cq(&request.query.bind(&bindings), db, None).unwrap();
    answers.sort();
    answers
}

/// Concurrent sharded serving vs single-threaded evaluation: 0 divergent.
fn correctness_prepass() {
    let db = SocialGenerator::new(SocialConfig {
        persons: PERSONS,
        restaurants: 200,
        ..SocialConfig::default()
    })
    .generate();
    let engine = Engine::new_sharded(
        db,
        serving_access_schema(5000),
        social_partition_map(),
        4,
        EngineConfig {
            workers: 4,
            max_queue: 0,
            ..EngineConfig::default()
        },
    )
    .expect("sharded engine construction");
    let requests: Vec<Request> = social_requests(PERSONS, VERIFY_SAMPLE, 23)
        .into_iter()
        .map(|g| Request::new(g.query, g.parameters, g.values))
        .collect();
    let ground_truth_db = engine.snapshot().to_database();
    let pending: Vec<_> = requests
        .iter()
        .map(|r| engine.submit(r.clone()).expect("submit"))
        .collect();
    let mut divergent = 0usize;
    for (request, pending) in requests.iter().zip(pending) {
        let response = pending.wait().expect("response");
        let mut served = response.answers;
        served.sort();
        if served != naive_answers(request, &ground_truth_db) {
            divergent += 1;
        }
    }
    println!(
        "correctness: {divergent}/{VERIFY_SAMPLE} divergent answers \
         (4-shard engine, pool, vs single-threaded)"
    );
    assert_eq!(
        divergent, 0,
        "sharded serving diverged from naive evaluation"
    );
    let stats = engine.shard_stats();
    let rows: Vec<usize> = stats.iter().map(|s| s.rows).collect();
    println!("shard balance (rows): {rows:?}\n");
}

/// A skewed instance: every person has a handful of cold visits plus one
/// visit to the hot restaurant, so `σ_{rid = hot}(visit)` is |persons| wide
/// while `σ_{id = p}(visit)` stays narrow.
fn skewed_db() -> Database {
    let mut db = SocialGenerator::new(SocialConfig {
        persons: PERSONS,
        restaurants: 100,
        avg_visits: 3,
        ..SocialConfig::default()
    })
    .generate();
    db.insert("restr", tuple![HOT_RID, "hot-spot", "NYC", "A"])
        .unwrap();
    for p in 0..PERSONS as i64 {
        db.insert("visit", tuple![p, HOT_RID]).unwrap();
    }
    db
}

fn main() {
    correctness_prepass();

    let access = Arc::new(serving_access_schema(5000).with(AccessConstraint::new(
        "visit",
        &["rid"],
        PERSONS + 10,
        1,
    )));
    let mut db = skewed_db();
    for (relation, attrs) in access.required_indexes() {
        if !attrs.is_empty() {
            db.declare_index(&relation, &attrs).unwrap();
        }
    }
    let store =
        si_data::ShardedSnapshotStore::new(db, social_partition_map(), DATA_SHARDS).unwrap();
    let view = store.pin();
    let rid_constraint = access
        .constraints()
        .iter()
        .find(|c| c.relation == "visit" && c.is_on(&["rid".into()]))
        .unwrap()
        .clone();
    let attrs = ["rid".to_string(), "id".to_string()];

    println!(
        "routed vs fan-out: {PROBES} probes of σ_{{rid = hot, id = p}}(visit) over \
         {DATA_SHARDS} shards, hot bucket = {PERSONS} tuples\n"
    );

    let fanout: ShardedAccess = ShardedAccess::new(view.clone(), access.clone());
    let routed: ShardedAccess =
        ShardedAccess::new(view.clone(), access.clone()).with_pruned_routing(true);

    let mut checked = 0usize;
    let fan_start = Instant::now();
    for p in 0..PROBES as i64 {
        let key = [Value::int(HOT_RID), Value::int(p * 17 % PERSONS as i64)];
        let rows = fanout
            .fetch_via(&rid_constraint, "visit", &attrs, &key)
            .unwrap();
        checked += rows.len();
    }
    let fan_elapsed = fan_start.elapsed();
    let fan_tuples = fanout.meter_snapshot().tuples_fetched;

    let routed_start = Instant::now();
    for p in 0..PROBES as i64 {
        let key = [Value::int(HOT_RID), Value::int(p * 17 % PERSONS as i64)];
        let rows = routed
            .fetch_via(&rid_constraint, "visit", &attrs, &key)
            .unwrap();
        checked -= rows.len(); // identical answers → net zero
    }
    let routed_elapsed = routed_start.elapsed();
    let routed_tuples = routed.meter_snapshot().tuples_fetched;

    assert_eq!(
        checked, 0,
        "routed and fan-out probes must answer identically"
    );
    assert_eq!(fanout.fanned_fetches(), PROBES as u64);
    assert_eq!(routed.routed_fetches(), PROBES as u64);

    let ratio = fan_tuples as f64 / routed_tuples.max(1) as f64;
    println!(
        "{:>12}  {:>14}  {:>12}  {:>12}",
        "mode", "tuples fetched", "per probe", "wall-clock"
    );
    println!(
        "{:>12}  {:>14}  {:>12.1}  {:>10.2?}",
        "fan-out",
        fan_tuples,
        fan_tuples as f64 / PROBES as f64,
        fan_elapsed
    );
    println!(
        "{:>12}  {:>14}  {:>12.1}  {:>10.2?}",
        "routed",
        routed_tuples,
        routed_tuples as f64 / PROBES as f64,
        routed_elapsed
    );
    println!("\nrouted probe fetches {ratio:.1}x fewer tuples than forced fan-out");
    assert!(
        ratio >= 4.0,
        "routing must save >= 4x tuples on the skewed instance (got {ratio:.1}x)"
    );
}
