//! Randomized shard-equivalence harness: hash-partitioned scatter-gather
//! execution must be indistinguishable from unsharded execution.
//!
//! Every seed deterministically generates a scenario — a seeded social
//! instance, the serving access constraints (plus a `visit(rid)` constraint
//! so a forced-fan-out shape is plannable), four CQ shapes, and a stream of
//! mixed insert/delete commit batches valid against the evolving instance.
//! At every epoch, for every shape and parameter, the **same cost-based
//! plan** (ranked against the unsharded statistics — the sharded view's
//! merged statistics are asserted identical) executes against
//!
//! * the unsharded `SnapshotStore` through `SnapshotAccess`,
//! * a `ShardedSnapshotStore` at shard counts {1, 2, 3, 8} through
//!   `ShardedAccess`, and
//! * the naive oracle (`evaluate_cq` over an owned database),
//!
//! asserting that answers (sorted — fan-out merges in shard order, a
//! deterministic permutation), the witness *fact set*, the global epoch and
//! the full [`MeterSnapshot`] are identical, with 0 divergent cases.  The
//! shape pool includes a query whose probe never binds the partition column
//! (`visit` partitioned by `id`, probed by `rid`), so forced fan-out is
//! exercised on every seed; routed probes are exercised by the per-person
//! shapes.  CI runs this suite in `--release` as well.

use si_access::{AccessConstraint, AccessSchema, ShardedAccess, SnapshotAccess};
use si_core::bounded::execute_bounded;
use si_core::CostBasedPlanner;
use si_data::{Database, Delta, PartitionMap, ShardedSnapshotStore, SnapshotStore, Tuple, Value};
use si_engine::{Engine, EngineConfig, Request};
use si_query::{evaluate_cq, parse_cq, ConjunctiveQuery};
use si_workload::rng::SplitMix64;
use si_workload::{serving_access_schema, social_partition_map, SocialConfig, SocialGenerator};
use std::collections::BTreeSet;
use std::sync::Arc;

const SEEDS: u64 = 120;
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const COMMITS_PER_SEED: usize = 3;

/// The four CQ shapes with their parameter variable.  `Qr` probes `visit`
/// by `rid` while `visit` partitions on `id`: its fetch can never route and
/// must fan out across every shard.
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

fn declared(mut db: Database, access: &AccessSchema) -> Database {
    for (relation, attrs) in access.required_indexes() {
        if !attrs.is_empty() {
            db.declare_index(&relation, &attrs).unwrap();
        }
    }
    db
}

/// One valid mixed-polarity batch against the evolving oracle: visit/friend
/// insertions and deletions plus occasional fresh persons — tuples routed
/// to different shards by construction.
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
            // Fresh rid far above the generator's 1_000_000-offset ids.
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

fn witness_set(answer: &si_core::bounded::BoundedAnswer) -> BTreeSet<(String, Tuple)> {
    answer.witness().facts.into_iter().collect()
}

fn sorted(mut answers: Vec<Tuple>) -> Vec<Tuple> {
    answers.sort();
    answers
}

/// Parameter values per shape: per-person shapes probe two hot persons,
/// the fan-out shape probes two real restaurant ids (plus one miss).
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

#[test]
fn sharded_execution_is_answer_witness_epoch_and_meter_identical() {
    let access = Arc::new(access());
    let shapes = shapes();
    let mut cases = 0u64;
    let mut executions = 0u64;
    let mut fanned = 0u64;
    let mut routed = 0u64;

    for seed in 0..SEEDS {
        let db = declared(seeded_db(seed), &access);
        let mut oracle = db.clone();
        let unsharded = SnapshotStore::new(db.clone());
        let stores: Vec<ShardedSnapshotStore> = SHARD_COUNTS
            .iter()
            .map(|&n| ShardedSnapshotStore::new(db.clone(), social_partition_map(), n).unwrap())
            .collect();
        let mut rng = SplitMix64::seed_from_u64(0x5AAD ^ seed);
        let mut fresh = 0usize;

        for round in 0..=COMMITS_PER_SEED {
            let snapshot = unsharded.pin();
            let stats = snapshot.statistics();
            let views: Vec<_> = stores.iter().map(|s| s.pin()).collect();
            for view in &views {
                // Epoch coherence and exact merged statistics: the planner
                // sees the same world sharded or not.
                assert_eq!(view.epoch(), snapshot.epoch(), "seed {seed} round {round}");
                assert_eq!(view.statistics(), stats, "seed {seed} round {round}");
            }
            let planner = CostBasedPlanner::new(snapshot.schema(), &access, &stats);

            for (query, parameter) in &shapes {
                let plan = planner
                    .plan(query, std::slice::from_ref(parameter))
                    .unwrap();
                for value in parameter_values(&query.name, &oracle) {
                    let seq_source: SnapshotAccess =
                        SnapshotAccess::new(snapshot.clone(), access.clone());
                    let seq = execute_bounded(&plan, &[value], &seq_source).unwrap();
                    let expected_answers = sorted(seq.answers.clone());
                    let expected_witness = witness_set(&seq);
                    // The oracle agrees with the unsharded execution.
                    let bound = query.bind(&[(parameter.clone(), value)]);
                    let naive = sorted(evaluate_cq(&bound, &oracle, None).unwrap());
                    assert_eq!(
                        expected_answers, naive,
                        "unsharded vs oracle: seed {seed} round {round} {}",
                        query.name
                    );

                    for view in &views {
                        let source: ShardedAccess =
                            ShardedAccess::new(view.clone(), access.clone());
                        let shr = execute_bounded(&plan, &[value], &source).unwrap();
                        let label = format!(
                            "seed {seed} round {round} {} v={value:?} shards={}",
                            query.name,
                            view.shard_count()
                        );
                        assert_eq!(sorted(shr.answers.clone()), expected_answers, "{label}");
                        assert_eq!(witness_set(&shr), expected_witness, "{label}");
                        assert_eq!(shr.accesses, seq.accesses, "{label}");
                        fanned += source.fanned_fetches();
                        routed += source.routed_fetches();
                        executions += 1;
                    }
                    cases += 1;
                }
            }

            if round < COMMITS_PER_SEED {
                let delta = gen_delta(&mut rng, &oracle, &mut fresh);
                if delta.is_empty() {
                    continue;
                }
                unsharded.commit(&delta).unwrap();
                for store in &stores {
                    store.commit(&delta).unwrap();
                }
                delta.apply_in_place(&mut oracle).unwrap();
            }
        }
    }

    assert!(cases >= 120 * 4, "only {cases} cases ran");
    // Both routing outcomes were exercised heavily (multi-shard stores fan
    // out the Qr probes and route the per-person ones).
    assert!(fanned > 1_000, "only {fanned} fan-out fetches");
    assert!(routed > 1_000, "only {routed} routed fetches");
    println!(
        "shard-equivalence: {cases} cases / {executions} sharded executions, 0 divergent \
         ({routed} routed, {fanned} fanned)"
    );
}

#[test]
fn pruned_routing_keeps_answers_exact_with_no_more_fetches() {
    // Pruned routing (residual partition literals pin the shard) must keep
    // answers and witnesses exact; its fetch counts may only shrink.
    let access = Arc::new(access());
    let shapes = shapes();
    for seed in 0..24u64 {
        let db = declared(seeded_db(seed), &access);
        let oracle = db.clone();
        let snapshot = SnapshotStore::new(db.clone()).pin();
        let stats = snapshot.statistics();
        let planner = CostBasedPlanner::new(snapshot.schema(), &access, &stats);
        let store = ShardedSnapshotStore::new(db, social_partition_map(), 3).unwrap();
        let view = store.pin();
        for (query, parameter) in &shapes {
            let plan = planner
                .plan(query, std::slice::from_ref(parameter))
                .unwrap();
            for value in parameter_values(&query.name, &oracle) {
                let seq_source: SnapshotAccess =
                    SnapshotAccess::new(snapshot.clone(), access.clone());
                let seq = execute_bounded(&plan, &[value], &seq_source).unwrap();
                let pruned_source: ShardedAccess =
                    ShardedAccess::new(view.clone(), access.clone()).with_pruned_routing(true);
                let pruned = execute_bounded(&plan, &[value], &pruned_source).unwrap();
                assert_eq!(sorted(pruned.answers), sorted(seq.answers), "seed {seed}");
                assert!(
                    pruned.accesses.tuples_fetched <= seq.accesses.tuples_fetched,
                    "pruned routing fetched more than unsharded (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn embedded_constraint_bindings_of_the_partition_column_force_fan_out() {
    // Regression (the "wrong single shard" trap): Q3's embedded plan binds
    // visit's partition column (`id`) through constraint *outputs* and
    // residual filters, never as a pushed-down literal on the enumerate
    // step.  Routing must fall back to fan-out there — and still route the
    // steps that do push the partition column — with answers, witness and
    // meter identical to unsharded.
    use si_access::EmbeddedConstraint;
    use si_data::schema::social_schema_dated;
    let schema = social_schema_dated();
    let access = Arc::new(
        si_access::facebook_access_schema(5000)
            .with_embedded(EmbeddedConstraint::new(
                "visit",
                &["yy"],
                &["mm", "dd"],
                366,
                3,
            ))
            .with_embedded(EmbeddedConstraint::functional_dependency(
                "visit",
                &["id", "yy", "mm", "dd"],
                &["rid"],
                1,
            )),
    );
    let mut db = Database::empty(schema.clone());
    for i in 2..40i64 {
        db.insert("friend", tuple_of(&[1, i])).unwrap();
        let city = if i % 2 == 0 { "NYC" } else { "LA" };
        db.insert(
            "person",
            vec![Value::int(i), Value::str(format!("p{i}")), Value::str(city)].into(),
        )
        .unwrap();
        db.insert(
            "visit",
            tuple_of(&[i, 100 + i % 3, 2013, 1 + (i % 12), 1 + (i % 28)]),
        )
        .unwrap();
    }
    for r in 0..3i64 {
        let rating = if r % 2 == 0 { "A" } else { "B" };
        db.insert(
            "restr",
            vec![
                Value::int(100 + r),
                Value::str(format!("r{r}")),
                Value::str("NYC"),
                Value::str(rating),
            ]
            .into(),
        )
        .unwrap();
    }
    let db = declared(db, &access);
    let q3 = parse_cq(
        r#"Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), person(id, pn, "NYC"), restr(rid, rn, "NYC", "A")"#,
    )
    .unwrap();
    let planner = si_core::BoundedPlanner::new(&schema, &access);
    let plan = planner.plan(&q3, &["p".into(), "yy".into()]).unwrap();
    let values = [Value::int(1), Value::int(2013)];

    let snapshot = SnapshotStore::new(db.clone()).pin();
    let seq_source: SnapshotAccess = SnapshotAccess::new(snapshot, access.clone());
    let seq = execute_bounded(&plan, &values, &seq_source).unwrap();
    assert!(!seq.answers.is_empty(), "the scenario must produce answers");

    let partition = PartitionMap::new()
        .with("person", "id")
        .with("friend", "id1")
        .with("visit", "id")
        .with("restr", "rid");
    for shards in [2usize, 3, 8] {
        let store = ShardedSnapshotStore::new(db.clone(), partition.clone(), shards).unwrap();
        let source: ShardedAccess = ShardedAccess::new(store.pin(), access.clone());
        let shr = execute_bounded(&plan, &values, &source).unwrap();
        assert_eq!(sorted(shr.answers.clone()), sorted(seq.answers.clone()));
        assert_eq!(witness_set(&shr), witness_set(&seq), "shards={shards}");
        assert_eq!(shr.accesses, seq.accesses, "shards={shards}");
        // The embedded enumerate fanned out; the pushed-down probes routed.
        assert!(source.fanned_fetches() > 0, "enumerate step must fan out");
        assert!(source.routed_fetches() > 0, "literal probes must route");
    }
}

fn tuple_of(ints: &[i64]) -> Tuple {
    ints.iter()
        .map(|i| Value::int(*i))
        .collect::<Vec<_>>()
        .into()
}

#[test]
fn sharded_engine_matches_unsharded_engine_and_oracle_under_commits() {
    // End-to-end: the full engine (plan cache, admission, materialized
    // answers off) over 2- and 8-way sharded stores against the unsharded
    // engine and the naive oracle, through interleaved commits.
    let shapes = shapes();
    for seed in 0..12u64 {
        let db = seeded_db(seed);
        let access = access();
        let plain = Engine::new(db.clone(), access.clone(), EngineConfig::default()).unwrap();
        let sharded: Vec<Engine> = [2usize, 8]
            .iter()
            .map(|&n| {
                Engine::new_sharded(
                    db.clone(),
                    access.clone(),
                    social_partition_map(),
                    n,
                    EngineConfig::default(),
                )
                .unwrap()
            })
            .collect();
        let mut oracle = db;
        let mut rng = SplitMix64::seed_from_u64(0xE4E0 ^ seed);
        let mut fresh = 500_000usize;

        for op in 0..24usize {
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
                        let got = engine.execute(&request).unwrap();
                        assert_eq!(sorted(got.answers.clone()), naive, "seed {seed} op {op}");
                        assert_eq!(got.epoch, expected.epoch);
                        assert_eq!(got.accesses, expected.accesses, "seed {seed} op {op}");
                        assert_eq!(got.static_cost, expected.static_cost);
                    }
                }
            }
        }
        // The sharded engines really did split their commits across shards,
        // and every shard's local epoch tracks the global one (uniform
        // inspection through the engine snapshot).
        for engine in &sharded {
            let stats = engine.shard_stats();
            assert!(stats.iter().filter(|s| s.routed_tuples > 0).count() >= 2);
            let snapshot = engine.snapshot();
            assert_eq!(
                snapshot.shard_epochs(),
                vec![snapshot.epoch(); snapshot.shard_count()]
            );
        }
    }
}
