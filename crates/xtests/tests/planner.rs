//! Cross-crate properties of the cost-based bounded planner.
//!
//! The planner may pick any atom ordering it likes — the answers must not
//! change.  These tests drive the planner end to end (statistics collection →
//! plan enumeration → bounded execution) over randomized databases, queries
//! and parameter values, asserting answer-equivalence with naive evaluation,
//! and pin down the two behaviours the statistics exist to produce: picking
//! index-backed paths over bounded scans, and beating the greedy declared-
//! bound ordering on skewed data.

use si_access::{AccessConstraint, AccessIndexedDatabase, AccessSchema};
use si_core::bounded::{execute_bounded, BoundedPlanner, CostBasedPlanner, PlanStep};
use si_data::schema::social_schema;
use si_data::{tuple, Database, DatabaseSchema, RelationSchema, Tuple, Value};
use si_query::{evaluate_cq, parse_cq, ConjunctiveQuery};
use si_workload::rng::SplitMix64;

/// The acceptance bar: at least 100 seeded cases.
const CASES: u64 = 120;

fn access() -> AccessSchema {
    si_access::facebook_access_schema(5000).with(AccessConstraint::new("visit", &["id"], 1000, 1))
}

/// A small random social database (same shape as the tier-1 properties).
fn random_db(rng: &mut SplitMix64) -> Database {
    let people = rng.gen_range(3usize..9);
    let mut db = Database::empty(social_schema());
    let cities = ["NYC", "LA", "SF"];
    for id in 0..people {
        db.insert(
            "person",
            tuple![id, format!("p{id}"), cities[id % cities.len()]],
        )
        .unwrap();
    }
    for rid in 0..4usize {
        let city = if rid % 2 == 0 { "NYC" } else { "LA" };
        let rating = if rid % 3 == 0 { "A" } else { "B" };
        db.insert("restr", tuple![100 + rid, format!("r{rid}"), city, rating])
            .unwrap();
    }
    for _ in 0..rng.gen_range(0usize..25) {
        let a = rng.gen_range(0usize..people);
        let b = rng.gen_range(0usize..people);
        if a != b {
            db.insert("friend", tuple![a, b]).unwrap();
        }
    }
    for _ in 0..rng.gen_range(0usize..15) {
        let p = rng.gen_range(0usize..people);
        let r = rng.gen_range(0usize..4);
        db.insert("visit", tuple![p, 100 + r]).unwrap();
    }
    db
}

/// Parameterised queries exercised by the property: (query, parameters).
fn query_family() -> Vec<(ConjunctiveQuery, Vec<String>)> {
    vec![
        (
            parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap(),
            vec!["p".into()],
        ),
        (
            parse_cq(
                r#"Q2(p, rn) :- friend(p, id), visit(id, rid), person(id, pn, "NYC"), restr(rid, rn, "NYC", "A")"#,
            )
            .unwrap(),
            vec!["p".into()],
        ),
        (
            parse_cq("Qstar(x) :- friend(p, x), friend(q, x)").unwrap(),
            vec!["p".into(), "q".into()],
        ),
        (
            parse_cq(r#"Qv(rn) :- visit(p, rid), restr(rid, rn, city, rate)"#).unwrap(),
            vec!["p".into()],
        ),
    ]
}

fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort();
    tuples
}

/// Planner-chosen plans are answer-equivalent to naive evaluation, across
/// ≥ 100 seeded random databases, queries and parameter values — and agree
/// with the greedy plans they replace.
#[test]
fn cost_based_plans_are_answer_equivalent_to_naive_evaluation() {
    let schema = social_schema();
    let access = access();
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let db = random_db(&mut rng);
        let stats = db.statistics();
        let planner = CostBasedPlanner::new(&schema, &access, &stats);
        let greedy_planner = BoundedPlanner::new(&schema, &access);
        let adb = AccessIndexedDatabase::new(db, access.clone()).unwrap();

        for (q, params) in query_family() {
            let values: Vec<Value> = params
                .iter()
                .map(|_| Value::int(rng.gen_range(0i64..9)))
                .collect();
            let costed = planner
                .plan_costed(&q, &params, None)
                .unwrap_or_else(|e| panic!("seed {seed}: {} unplannable: {e}", q.name));
            let bounded = execute_bounded(&costed.plan, &values, &adb)
                .unwrap_or_else(|e| panic!("seed {seed}: executing {} failed: {e}", q.name));

            let bindings: Vec<(String, Value)> =
                params.iter().cloned().zip(values.iter().cloned()).collect();
            let naive = evaluate_cq(&q.bind(&bindings), adb.database(), None).unwrap();
            assert_eq!(
                sorted(bounded.answers.clone()),
                sorted(naive),
                "seed {seed}: cost-based plan for {} disagrees with naive evaluation",
                q.name
            );

            // The replaced greedy ordering agrees too, and the static bound
            // still caps the measured fetches.
            let greedy = greedy_planner.plan(&q, &params).unwrap();
            let greedy_answers = execute_bounded(&greedy, &values, &adb).unwrap().answers;
            assert_eq!(
                sorted(bounded.answers.clone()),
                sorted(greedy_answers),
                "seed {seed}: cost-based and greedy plans disagree on {}",
                q.name
            );
            assert!(
                bounded.accesses.tuples_fetched <= costed.plan.static_cost().max_tuples,
                "seed {seed}: measured fetches exceed the static bound on {}",
                q.name
            );
        }
    }
}

/// The planner prefers an index-backed access path when the statistics make
/// the (bounded) scan path strictly worse, even though the declared bounds
/// cannot tell the two apart.
#[test]
fn planner_prefers_index_backed_path_over_bounded_scan() {
    let schema = social_schema();
    // Same declared N on both paths: greedy has no signal, statistics do.
    let access = AccessSchema::new()
        .with(AccessConstraint::new("person", &[], 1000, 1))
        .with(AccessConstraint::new("person", &["id"], 1000, 1));
    let mut db = Database::empty(schema.clone());
    for id in 0..200i64 {
        db.insert("person", tuple![id, format!("p{id}"), "NYC"])
            .unwrap();
    }
    let stats = db.statistics();
    let planner = CostBasedPlanner::new(&schema, &access, &stats);
    let q = parse_cq("Q(name) :- person(p, name, city)").unwrap();
    let costed = planner.plan_costed(&q, &["p".into()], None).unwrap();
    match &costed.plan.steps()[0] {
        PlanStep::Fetch { constraint, .. } => {
            assert_eq!(
                constraint.on,
                vec!["id".to_string()],
                "expected the indexed path, got the scan constraint"
            );
        }
        other => panic!("expected a fetch step, got {other}"),
    }
    // And the index-backed plan really fetches 200× less.
    let adb = AccessIndexedDatabase::new(db, access).unwrap();
    let result = execute_bounded(&costed.plan, &[Value::int(7)], &adb).unwrap();
    assert_eq!(result.answers, vec![tuple!["p7"]]);
    assert_eq!(result.accesses.tuples_fetched, 1);
}

/// On the skewed 3-atom join of the `planner` bench, the cost-based ordering
/// fetches at least 2× fewer tuples than the greedy declared-bound ordering
/// (deterministic, meter-based twin of the wall-clock bench).
#[test]
fn cost_based_ordering_dominates_greedy_on_skewed_join() {
    let schema = DatabaseSchema::from_relations(vec![
        RelationSchema::new("r", &["a", "x"]),
        RelationSchema::new("s", &["b", "x"]),
        RelationSchema::new("t", &["x", "y"]),
    ])
    .unwrap();
    let mut db = Database::empty(schema.clone());
    for j in 0..500i64 {
        db.insert("r", tuple![0, j]).unwrap();
    }
    for a in 1..=1000i64 {
        db.insert("r", tuple![a, a % 500]).unwrap();
    }
    for b in 0..10i64 {
        for j in 0..50i64 {
            db.insert("s", tuple![b, (b * 50 + j) % 500]).unwrap();
        }
    }
    for x in 0..500i64 {
        db.insert("t", tuple![x, x + 10_000]).unwrap();
    }
    let access = AccessSchema::new()
        .with(AccessConstraint::new("r", &["a"], 500, 1))
        .with(AccessConstraint::new("s", &["b"], 50, 1))
        .with(AccessConstraint::new("t", &["x"], 1, 1));
    let stats = db.statistics();
    let q = parse_cq("Q(y) :- r(p, x), s(q, x), t(x, y)").unwrap();
    let params = ["p".to_string(), "q".to_string()];

    let greedy = BoundedPlanner::new(&schema, &access)
        .plan(&q, &params)
        .unwrap();
    let costed = CostBasedPlanner::new(&schema, &access, &stats)
        .plan_costed(&q, &params, None)
        .unwrap();
    let adb = AccessIndexedDatabase::new(db, access).unwrap();

    let run = |plan: &si_core::BoundedPlan| -> (Vec<Tuple>, u64) {
        adb.reset_meter();
        let mut answers = Vec::new();
        for p in 1..=32i64 {
            let result = execute_bounded(plan, &[Value::int(p), Value::int(p % 10)], &adb).unwrap();
            answers.extend(result.answers);
        }
        (sorted(answers), adb.meter_snapshot().tuples_fetched)
    };
    let (greedy_answers, greedy_fetched) = run(&greedy);
    let (cost_answers, cost_fetched) = run(&costed.plan);
    assert_eq!(greedy_answers, cost_answers);
    assert!(
        cost_fetched * 2 <= greedy_fetched,
        "cost-based ordering fetched {cost_fetched}, greedy {greedy_fetched}: expected ≥ 2× gap"
    );
}
