//! Property-based tests of the core invariants, spanning crates.
//!
//! The build environment is offline, so instead of `proptest` these
//! properties run a deterministic randomized loop: a seeded [`SplitMix64`]
//! stream generates small random social-graph instances, random parameter
//! values and random updates, and each property is asserted over every case.
//! Failures print the offending seed so a case can be replayed by hand.
//!
//! Covered invariants:
//!
//! * the interned hash-join CQ evaluator agrees with naive active-domain FO
//!   evaluation (`evaluate_cq(Q) = evaluate_fo(Q^FO)` as sets);
//! * intern/resolve round-trips are lossless for every [`Value`] variant,
//!   including `Null`;
//! * bounded evaluation agrees with naive evaluation and its witness really
//!   is a witness (`Q(D_Q) = Q(D)` with `|D_Q|` within the static bound);
//! * change propagation satisfies `E(D ⊕ ∆D) = (E(D) − E∇) ∪ E∆`;
//! * CQ→RA translation preserves answers;
//! * applying an update preserves exact size accounting.

use si_access::{facebook_access_schema, AccessIndexedDatabase};
use si_core::check_witness;
use si_core::prelude::*;
use si_data::schema::social_schema;
use si_data::{tuple, Database, Delta, Symbol, Tuple, Value};
use si_query::{cq_to_ra, evaluate_cq, evaluate_fo, evaluate_ra, RaExpr};
use si_workload::q1;
use si_workload::rng::SplitMix64;

const CASES: u64 = 48;

/// Builds a small random social database from a seeded stream.
fn random_db(rng: &mut SplitMix64) -> Database {
    let people = rng.gen_range(3usize..8);
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
    for _ in 0..rng.gen_range(0usize..20) {
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

fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort();
    tuples
}

#[test]
fn interned_cq_evaluation_agrees_with_naive_fo() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let db = random_db(&mut rng);
        // Unbound Q1 exercises joins; the bound version exercises constants.
        let queries = [
            q1(),
            q1().bind(&[("p".into(), Value::int(rng.gen_range(0i64..8)))]),
        ];
        for q in queries {
            let via_cq = sorted(evaluate_cq(&q, &db, None).unwrap());
            let via_fo = sorted(evaluate_fo(&q.to_fo(), &db).unwrap());
            assert_eq!(via_cq, via_fo, "CQ ≠ FO for `{q}` (seed {seed})");
        }
    }
}

#[test]
fn interned_cq_answers_contain_no_duplicates() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed * 31 + 5);
        let db = random_db(&mut rng);
        let answers = evaluate_cq(&q1(), &db, None).unwrap();
        let distinct: std::collections::BTreeSet<&Tuple> = answers.iter().collect();
        assert_eq!(distinct.len(), answers.len(), "duplicates (seed {seed})");
    }
}

#[test]
fn intern_resolve_round_trips_are_lossless() {
    // Every variant survives construction → accessor → display → reparse.
    let mut rng = SplitMix64::seed_from_u64(7);
    for case in 0..500u64 {
        match case % 4 {
            0 => {
                let v = Value::Null;
                assert!(v.is_null());
                assert_eq!(v.to_string(), "NULL");
            }
            1 => {
                let b = rng.gen_range(0usize..2) == 0;
                let v = Value::bool(b);
                assert_eq!(v.as_bool(), Some(b));
            }
            2 => {
                let i = rng.next_u64() as i64;
                let v = Value::int(i);
                assert_eq!(v.as_int(), Some(i));
            }
            _ => {
                let s = format!("sym-{}-{}", case, rng.gen_range(0usize..50));
                let v = Value::str(s.clone());
                // Resolution returns exactly the interned text…
                assert_eq!(v.as_str(), Some(s.as_str()));
                // …and re-interning the resolved text yields the same symbol.
                assert_eq!(v, Value::str(v.as_str().unwrap()));
                assert_eq!(Symbol::intern(&s).as_str(), s);
            }
        }
    }
    // Interning is idempotent and order-independent for equal strings.
    let a = Value::str("idempotent");
    let b = Value::str(String::from("idempotent"));
    assert_eq!(a, b);
    // Distinct strings stay distinct.
    assert_ne!(Value::str("x1"), Value::str("x2"));
    // Symbol equality is value equality, and ordering is lexicographic.
    assert!(Value::str("abc") < Value::str("abd"));
    assert!(Value::str("zzz") > Value::str("aaa"));
}

#[test]
fn bounded_q1_agrees_with_naive_and_yields_a_witness() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed * 131 + 17);
        let db = random_db(&mut rng);
        let p = rng.gen_range(0i64..8);
        let access = facebook_access_schema(5000);
        let schema = db.schema().clone();
        let plan = BoundedPlanner::new(&schema, &access)
            .plan(&q1(), &["p".into()])
            .unwrap();
        let adb = AccessIndexedDatabase::new(db, access).unwrap();
        let bounded = execute_bounded(&plan, &[Value::int(p)], &adb).unwrap();
        let naive = execute_naive(&q1(), &["p".into()], &[Value::int(p)], adb.database()).unwrap();
        assert_eq!(
            sorted(bounded.answers.clone()),
            sorted(naive.answers),
            "bounded ≠ naive (seed {seed}, p {p})"
        );
        assert!(bounded.accesses.tuples_fetched <= plan.static_cost().max_tuples);
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
fn change_propagation_is_exact_for_q1_algebra() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed * 977 + 3);
        let db = random_db(&mut rng);
        let schema = db.schema().clone();
        let expr: RaExpr = cq_to_ra(&q1(), &schema).unwrap();

        // Build a well-formed update: fresh friend insertions + possibly one
        // existing friend deletion.
        let mut delta = Delta::new();
        for _ in 0..rng.gen_range(0usize..6) {
            let t = tuple![rng.gen_range(0usize..8), rng.gen_range(0usize..8) + 10];
            if !db.contains("friend", &t).unwrap()
                && !delta
                    .relation_delta("friend")
                    .map(|d| d.insertions.contains(&t))
                    .unwrap_or(false)
            {
                delta.insert("friend", t);
            }
        }
        if rng.gen_range(0usize..2) == 0 {
            if let Some(t) = db.relation("friend").unwrap().iter().next().cloned() {
                delta.delete("friend", t);
            }
        }
        if delta.validate(&db).is_err() {
            continue;
        }

        let old = evaluate_ra(&expr, &db).unwrap();
        let maintained = si_core::incremental::maintain(&expr, &old, &db, &delta).unwrap();
        let updated = delta.apply(&db).unwrap();
        let direct = evaluate_ra(&expr, &updated).unwrap();
        assert_eq!(
            sorted(maintained.tuples.clone()),
            sorted(direct.align_to(&maintained.attributes).unwrap().tuples),
            "maintenance drifted (seed {seed})"
        );
    }
}

#[test]
fn cq_to_ra_translation_preserves_answers() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed * 613 + 11);
        let db = random_db(&mut rng);
        let p = rng.gen_range(0i64..8);
        let schema = db.schema().clone();
        let bound = q1().bind(&[("p".into(), Value::int(p))]);
        let expr = cq_to_ra(&bound, &schema).unwrap();
        assert_eq!(
            sorted(evaluate_ra(&expr, &db).unwrap().tuples),
            sorted(evaluate_cq(&bound, &db, None).unwrap()),
            "RA ≠ CQ (seed {seed}, p {p})"
        );
    }
}

#[test]
fn delta_apply_preserves_size_accounting() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed * 271 + 9);
        let db = random_db(&mut rng);
        let mut delta = Delta::new();
        for _ in 0..rng.gen_range(0usize..8) {
            let t = tuple![rng.gen_range(0usize..8), rng.gen_range(0usize..8) + 20];
            if !db.contains("friend", &t).unwrap() {
                delta.insert("friend", t);
            }
        }
        if delta.validate(&db).is_err() {
            continue;
        }
        let distinct_inserts: std::collections::BTreeSet<_> = delta
            .relation_delta("friend")
            .map(|d| d.insertions.iter().cloned().collect())
            .unwrap_or_default();
        let updated = delta.apply(&db).unwrap();
        assert_eq!(updated.size(), db.size() + distinct_inserts.len());
        for t in &distinct_inserts {
            assert!(updated.contains("friend", t).unwrap());
        }
    }
}
