//! Cross-crate integration tests: the paper's running examples exercised end
//! to end through the public APIs of every crate.

use si_access::{facebook_access_schema, AccessConstraint, AccessIndexedDatabase};
use si_core::prelude::*;
use si_core::{check_witness, decide_qdsi, decide_qsi, QsiAnswer, SearchLimits};
use si_data::schema::social_schema;
use si_data::Value;
use si_workload::{
    example_46_access_schema, paper_views, q1, q2, q2_rewriting, q3, visit_insertions,
    SocialConfig, SocialGenerator,
};

fn workload_db(persons: usize) -> si_data::Database {
    SocialGenerator::new(SocialConfig {
        persons,
        restaurants: 50,
        ..SocialConfig::default()
    })
    .generate()
}

#[test]
fn example_11a_q1_end_to_end() {
    let access = facebook_access_schema(5000);
    let schema = social_schema();
    let db = workload_db(500);

    // Controllability (Example 4.1) and planning (Theorem 4.2).
    let analyzer = ControllabilityAnalyzer::new(&schema, &access);
    assert!(analyzer
        .is_controlled_by(&q1().to_fo(), &["p".into()])
        .unwrap());
    let plan = BoundedPlanner::new(&schema, &access)
        .plan(&q1(), &["p".into()])
        .unwrap();
    assert_eq!(plan.static_cost().max_tuples, 10_000);

    // Bounded execution agrees with naive evaluation and yields a witness.
    let adb = AccessIndexedDatabase::checked(db, access).unwrap();
    for p in [0i64, 3, 7, 11] {
        let bounded = execute_bounded(&plan, &[Value::int(p)], &adb).unwrap();
        let naive = execute_naive(&q1(), &["p".into()], &[Value::int(p)], adb.database()).unwrap();
        let mut a = bounded.answers.clone();
        let mut b = naive.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(bounded.accesses.tuples_fetched <= plan.static_cost().max_tuples);
        assert!(bounded.accesses.tuples_fetched <= naive.accesses.tuples_fetched);
        let bound_q: AnyQuery = q1().bind(&[("p".into(), Value::int(p))]).into();
        assert!(check_witness(
            &bound_q,
            adb.database(),
            &bounded.witness(),
            bounded.witness().size()
        )
        .unwrap());
    }
}

#[test]
fn qdsi_and_qsi_agree_with_the_paper_s_classification() {
    let schema = social_schema();
    let limits = SearchLimits::default();
    // Q1 with p free is not scale-independent over all instances (monotone,
    // non-trivial).
    let answer = decide_qsi(&q1().into(), &schema, 50, 0, &limits).unwrap();
    assert!(matches!(answer, QsiAnswer::NotScaleIndependent(_)));
    // On a concrete small instance QDSI finds minimal witnesses.
    let db = workload_db(30);
    let bound: AnyQuery = q1().bind(&[("p".into(), Value::int(1))]).into();
    let all = decide_qdsi(&bound, &db, db.size(), &limits).unwrap();
    assert!(all.scale_independent);
    let tight = decide_qdsi(&bound, &db, 0, &limits).unwrap();
    // With zero budget the query is scale-independent iff it has no answers.
    assert_eq!(
        tight.scale_independent,
        bound.answers(&db).unwrap().is_empty()
    );
}

#[test]
fn example_46_q3_embedded_pipeline() {
    let access = example_46_access_schema(5000);
    let db = SocialGenerator::new(SocialConfig {
        persons: 400,
        restaurants: 40,
        dated_visits: true,
        ..SocialConfig::default()
    })
    .generate();
    let schema = db.schema().clone();
    assert!(si_access::conforms(&db, &access));

    let analyzer = EmbeddedControllability::new(&schema, &access);
    assert!(analyzer
        .is_embedded_controlled(&q3(), &["p".into(), "yy".into()])
        .unwrap());

    let plan = BoundedPlanner::new(&schema, &access)
        .plan(&q3(), &["p".into(), "yy".into()])
        .unwrap();
    let adb = AccessIndexedDatabase::new(db, access).unwrap();
    let bounded = execute_bounded(&plan, &[Value::int(3), Value::int(2013)], &adb).unwrap();
    let naive = execute_naive(
        &q3(),
        &["p".into(), "yy".into()],
        &[Value::int(3), Value::int(2013)],
        adb.database(),
    )
    .unwrap();
    let mut a = bounded.answers.clone();
    let mut b = naive.answers.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(bounded.accesses.full_scans, 0);
}

#[test]
fn example_11b_incremental_maintenance() {
    let access =
        facebook_access_schema(5000).with(AccessConstraint::new("visit", &["id"], 1_000, 1));
    let db = workload_db(800);
    let mut adb = AccessIndexedDatabase::new(db, access).unwrap();
    let mut evaluator =
        IncrementalBoundedEvaluator::new(q2(), vec!["p".into()], vec![Value::int(5)], &adb)
            .unwrap();

    for seed in 0..3u64 {
        let delta = visit_insertions(adb.database(), 40, seed);
        let cost = evaluator.apply_update(&mut adb, &delta).unwrap();
        assert_eq!(cost.full_scans, 0);
        // Bounded maintenance: a small constant number of probes per ∆-tuple.
        assert!(cost.index_probes <= 6 * delta.size() as u64);
        let mut maintained = evaluator.answers();
        let mut recomputed = execute_naive(&q2(), &["p".into()], &[Value::int(5)], adb.database())
            .unwrap()
            .answers;
        maintained.sort();
        recomputed.sort();
        assert_eq!(maintained, recomputed);
    }
}

#[test]
fn example_11c_views_pipeline() {
    let views = paper_views();
    let access = facebook_access_schema(5000);
    let schema = social_schema();
    let db = workload_db(1_000);

    // The paper's Q'2 verifies as a rewriting and is found by the search.
    assert!(si_core::is_rewriting(&q2(), &views, &q2_rewriting()).unwrap());
    let found = si_core::find_rewriting(&q2(), &views).unwrap().unwrap();
    assert_eq!(si_core::views::base_part_size(&found, &views), 1);
    assert!(si_core::is_scale_independent_using_views(
        &q2(),
        &views,
        &schema,
        &access,
        &["p".into(), "rn".into()],
        64
    )
    .unwrap()
    .is_some());

    let materialized = views.materialize_views_only(&db).unwrap();
    let adb = AccessIndexedDatabase::new(db, access).unwrap();
    let with_views = execute_with_views(
        &q2_rewriting(),
        &views,
        &["p".into()],
        &[Value::int(9)],
        &adb,
        &materialized,
    )
    .unwrap();
    let naive = execute_naive(&q2(), &["p".into()], &[Value::int(9)], adb.database()).unwrap();
    let mut a = with_views.answers.clone();
    let mut b = naive.answers.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(with_views.accesses.tuples_fetched <= 5_000);
    assert!(with_views.accesses.tuples_fetched < naive.accesses.tuples_fetched);
}
