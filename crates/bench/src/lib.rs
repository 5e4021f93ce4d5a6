//! # `si-bench` — benchmark harness
//!
//! Shared setup code for the Criterion benches and the `experiments` binary
//! that regenerates the paper-style tables E1–E8 (see PAPER.md for the
//! source paper; each table's banner names the example or theorem it
//! reproduces).

#![forbid(unsafe_code)]

use si_access::{facebook_access_schema, AccessConstraint, AccessIndexedDatabase, AccessSchema};
use si_core::prelude::*;
use si_data::{Database, MeterSnapshot, Value};
use si_query::ConjunctiveQuery;
use si_workload::{q1, q2, SocialConfig, SocialGenerator};

/// A single measured row: a label, the database size, and the bounded vs
/// naive access cost.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Row label (e.g. the number of persons).
    pub label: String,
    /// Total database size |D|.
    pub database_size: usize,
    /// Tuples fetched by the bounded (scale-independent) evaluation.
    pub bounded_tuples: u64,
    /// Tuples fetched by the naive evaluation.
    pub naive_tuples: u64,
}

impl CostRow {
    /// The naive/bounded access ratio (how much the bounded plan saves).
    pub fn ratio(&self) -> f64 {
        if self.bounded_tuples == 0 {
            f64::INFINITY
        } else {
            self.naive_tuples as f64 / self.bounded_tuples as f64
        }
    }
}

/// The access schema used by the Q2 experiments: the Facebook schema plus an
/// index bound on `visit(id)`.
pub fn q2_access_schema() -> AccessSchema {
    facebook_access_schema(5000).with(AccessConstraint::new("visit", &["id"], 1_000, 1))
}

/// Generates a social database with `persons` people (fixed knobs otherwise).
pub fn social_database(persons: usize) -> Database {
    SocialGenerator::new(SocialConfig {
        persons,
        restaurants: (persons / 20).max(10),
        ..SocialConfig::default()
    })
    .generate()
}

/// Generates the dated variant used by the Q3 experiment.
pub fn dated_social_database(persons: usize) -> Database {
    SocialGenerator::new(SocialConfig {
        persons,
        restaurants: (persons / 20).max(10),
        dated_visits: true,
        ..SocialConfig::default()
    })
    .generate()
}

/// Runs one bounded-vs-naive comparison for a query with a single `p`
/// parameter and returns the two access costs.
pub fn bounded_vs_naive(
    query: &ConjunctiveQuery,
    access: &AccessSchema,
    db: Database,
    p: i64,
) -> (MeterSnapshot, MeterSnapshot, usize) {
    let schema = db.schema().clone();
    let size = db.size();
    let planner = BoundedPlanner::new(&schema, access);
    let plan = planner
        .plan(query, &["p".into()])
        .expect("query must be plannable for the bounded/naive comparison");
    let adb = AccessIndexedDatabase::new(db, access.clone()).expect("access schema valid");
    let bounded = execute_bounded(&plan, &[Value::int(p)], &adb).expect("bounded execution");
    let naive = execute_naive(query, &["p".into()], &[Value::int(p)], adb.database())
        .expect("naive execution");
    assert_eq!(
        sorted(bounded.answers.clone()),
        sorted(naive.answers.clone()),
        "bounded and naive evaluation must agree"
    );
    (bounded.accesses, naive.accesses, size)
}

fn sorted(mut v: Vec<si_data::Tuple>) -> Vec<si_data::Tuple> {
    v.sort();
    v
}

/// E2 helper: the Q1 scaling series.
pub fn q1_scaling_rows(person_counts: &[usize]) -> Vec<CostRow> {
    person_counts
        .iter()
        .map(|&n| {
            let (bounded, naive, size) =
                bounded_vs_naive(&q1(), &facebook_access_schema(5000), social_database(n), 7);
            CostRow {
                label: n.to_string(),
                database_size: size,
                bounded_tuples: bounded.tuples_fetched,
                naive_tuples: naive.tuples_fetched,
            }
        })
        .collect()
}

/// E5 helper: the Q2-with-views series (base accesses with views vs naive).
pub fn q2_views_rows(person_counts: &[usize]) -> Vec<CostRow> {
    use si_workload::{paper_views, q2_rewriting};
    let views = paper_views();
    let rewriting = q2_rewriting();
    person_counts
        .iter()
        .map(|&n| {
            let db = social_database(n);
            let size = db.size();
            let materialized = views.materialize_views_only(&db).expect("materialise");
            let adb = AccessIndexedDatabase::new(db, facebook_access_schema(5000))
                .expect("access schema valid");
            let with_views = execute_with_views(
                &rewriting,
                &views,
                &["p".into()],
                &[Value::int(7)],
                &adb,
                &materialized,
            )
            .expect("view-based execution");
            let naive = execute_naive(&q2(), &["p".into()], &[Value::int(7)], adb.database())
                .expect("naive execution");
            CostRow {
                label: n.to_string(),
                database_size: size,
                bounded_tuples: with_views.accesses.tuples_fetched,
                naive_tuples: naive.accesses.tuples_fetched,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_scaling_rows_show_flat_bounded_cost() {
        let rows = q1_scaling_rows(&[200, 800]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].naive_tuples > rows[0].naive_tuples);
        // Bounded cost is tied to the fanout of person 7, not to |D|.
        assert!(rows[1].bounded_tuples < rows[1].naive_tuples);
        assert!(rows[0].ratio() > 1.0);
    }

    #[test]
    fn q2_views_rows_touch_few_base_tuples() {
        let rows = q2_views_rows(&[200]);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].bounded_tuples <= 5_000);
        assert!(rows[0].bounded_tuples < rows[0].naive_tuples);
    }
}
