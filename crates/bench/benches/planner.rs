//! Greedy vs cost-based atom ordering on a skewed 3-atom join.
//!
//! The workload is adversarial for declared-bound ordering: relation `r` has
//! one heavy key (so its access constraint must declare a large `N`) but an
//! average fanout of ~1.5, while `s` has a uniform fanout of 200 (declared
//! `N = 200`).  The greedy planner orders by declared bounds and starts with
//! `s`; the cost-based planner orders by statistics and starts with `r`.
//! Both plans are executed through the same bounded executor over the same
//! access-indexed database, so the measured gap is purely the ordering.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use si_access::{AccessConstraint, AccessIndexedDatabase, AccessSchema};
use si_core::bounded::{execute_bounded, BoundedPlan, BoundedPlanner, CostBasedPlanner};
use si_data::{tuple, Database, DatabaseSchema, RelationSchema, Value};
use si_query::{parse_cq, ConjunctiveQuery};

fn chain_schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::new("r", &["a", "x"]),
        RelationSchema::new("s", &["b", "x"]),
        RelationSchema::new("t", &["x", "y"]),
    ])
    .unwrap()
}

fn skewed_db() -> Database {
    let mut db = Database::empty(chain_schema());
    // r: heavy key 0 carries 2000 tuples; keys 1..=4000 carry one each.
    for j in 0..2000i64 {
        db.insert("r", tuple![0, j]).unwrap();
    }
    for a in 1..=4000i64 {
        db.insert("r", tuple![a, a % 2000]).unwrap();
    }
    // s: 20 keys, uniform fanout 200.
    for b in 0..20i64 {
        for j in 0..200i64 {
            db.insert("s", tuple![b, (b * 200 + j) % 2000]).unwrap();
        }
    }
    // t: fanout 2 per x.
    for x in 0..2000i64 {
        db.insert("t", tuple![x, x + 10_000]).unwrap();
        db.insert("t", tuple![x, x + 20_000]).unwrap();
    }
    db
}

fn access_schema() -> AccessSchema {
    AccessSchema::new()
        // The heavy key forces the declared bound up to 2000.
        .with(AccessConstraint::new("r", &["a"], 2000, 1))
        .with(AccessConstraint::new("s", &["b"], 200, 1))
        .with(AccessConstraint::new("t", &["x"], 2, 1))
}

fn query() -> ConjunctiveQuery {
    parse_cq("Q(y) :- r(p, x), s(q, x), t(x, y)").unwrap()
}

fn run_plan(plan: &BoundedPlan, adb: &AccessIndexedDatabase) -> usize {
    let mut total = 0usize;
    for p in 1..=64i64 {
        let q = p % 20;
        let result = execute_bounded(plan, &[Value::int(p), Value::int(q)], adb).unwrap();
        total += result.answers.len();
    }
    total
}

fn bench_planner(c: &mut Criterion) {
    let schema = chain_schema();
    let access = access_schema();
    let db = skewed_db();
    let stats = db.statistics();
    let q = query();
    let params = ["p".to_string(), "q".to_string()];

    let greedy = BoundedPlanner::new(&schema, &access)
        .plan(&q, &params)
        .unwrap();
    let costed = CostBasedPlanner::new(&schema, &access, &stats)
        .plan_costed(&q, &params, None)
        .unwrap();
    // The orderings genuinely differ: greedy trusts the declared bounds and
    // starts with `s`; the statistics start with `r`.
    assert_eq!(greedy.steps()[0].atom_index(), 1);
    assert_eq!(costed.plan.steps()[0].atom_index(), 0);
    assert!(!costed.greedy_fallback);

    let adb = AccessIndexedDatabase::new(db, access.clone()).unwrap();
    // Both plans answer identically.
    assert_eq!(run_plan(&greedy, &adb), run_plan(&costed.plan, &adb));

    let mut group = c.benchmark_group("planner/skewed_3atom_join");
    group.sample_size(10);
    group.bench_function("greedy_ordering", |b| {
        b.iter(|| black_box(run_plan(&greedy, &adb)))
    });
    group.bench_function("cost_based_ordering", |b| {
        b.iter(|| black_box(run_plan(&costed.plan, &adb)))
    });
    group.finish();

    // Report the fetch-count gap alongside the wall-clock numbers.
    adb.reset_meter();
    run_plan(&greedy, &adb);
    let greedy_fetched = adb.meter_snapshot().tuples_fetched;
    adb.reset_meter();
    run_plan(&costed.plan, &adb);
    let cost_fetched = adb.meter_snapshot().tuples_fetched;
    eprintln!(
        "planner/skewed_3atom_join: tuples fetched greedy={greedy_fetched} cost_based={cost_fetched} ({}x)",
        greedy_fetched / cost_fetched.max(1)
    );
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
