//! The unbounded baseline used by every experiment.
//!
//! A conventional engine without access-schema knowledge answers a query by
//! scanning (at least) every relation the query mentions, so the number of
//! base tuples it touches grows linearly with `|D|`.  [`execute_naive`] wraps
//! the hash-join evaluator of `si-query` with the same result shape as
//! [`crate::bounded::exec::execute_bounded`], so experiments can compare the
//! two directly.

use crate::bounded::exec::BoundedAnswer;
use crate::error::CoreError;
use si_data::{AccessMeter, Database, Value};
use si_query::{evaluate_cq, ConjunctiveQuery, Var};

/// Evaluates `query` with `parameters` bound to `values` by full (unbounded)
/// evaluation over `db`, reporting the same [`BoundedAnswer`] shape as the
/// bounded executor.  The witness is left empty: naive evaluation has no
/// notion of a small witness — it reads whole relations.
pub fn execute_naive(
    query: &ConjunctiveQuery,
    parameters: &[Var],
    values: &[Value],
    db: &Database,
) -> Result<BoundedAnswer, CoreError> {
    if parameters.len() != values.len() {
        return Err(CoreError::Invariant(format!(
            "expected {} parameter values, got {}",
            parameters.len(),
            values.len()
        )));
    }
    let bindings: Vec<(Var, Value)> = parameters
        .iter()
        .cloned()
        .zip(values.iter().cloned())
        .collect();
    let bound = query.bind(&bindings);
    let meter = AccessMeter::new();
    let answers = evaluate_cq(&bound, db, Some(&meter))?;
    Ok(BoundedAnswer::without_witness(answers, meter.snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_data::schema::social_schema;
    use si_data::tuple;
    use si_query::parse_cq;

    fn db() -> Database {
        let mut db = Database::empty(social_schema());
        db.insert_all(
            "person",
            vec![
                tuple![1, "ann", "NYC"],
                tuple![2, "bob", "NYC"],
                tuple![3, "cat", "LA"],
            ],
        )
        .unwrap();
        db.insert_all("friend", vec![tuple![1, 2], tuple![1, 3], tuple![2, 3]])
            .unwrap();
        db
    }

    #[test]
    fn naive_execution_scans_whole_relations() {
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let d = db();
        let result = execute_naive(&q1, &["p".into()], &[Value::int(1)], &d).unwrap();
        assert_eq!(result.answers, vec![tuple!["bob"]]);
        // Naive evaluation scanned both relations entirely.
        assert_eq!(result.accesses.full_scans, 2);
        assert_eq!(
            result.accesses.tuples_fetched,
            (d.relation("friend").unwrap().len() + d.relation("person").unwrap().len()) as u64
        );
        assert_eq!(result.witness().size(), 0);
    }

    #[test]
    fn parameter_mismatch_is_rejected() {
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        assert!(matches!(
            execute_naive(&q1, &["p".into()], &[], &db()),
            Err(CoreError::Invariant(_))
        ));
    }
}
