//! Scale independence using views: the VQSI decision procedure and the
//! view-based bounded executor (Section 6).
//!
//! * [`decide_vqsi_cq`] implements the NP characterisation from the proof of
//!   Theorem 6.1: a data-selecting CQ `Q` is scale-independent w.r.t. `M`
//!   using `V` iff it has a rewriting `Q'` in which every distinguished
//!   variable is constrained and whose base part has at most `M` atoms; for
//!   Boolean queries the base-part condition alone suffices.
//! * [`is_scale_independent_using_views`] is the Corollary 6.2 sufficient
//!   condition: a rewriting whose base part is x̄-controlled under the access
//!   schema, with x̄ covering the unconstrained distinguished variables.
//! * [`execute_with_views`] evaluates a rewriting by running a bounded plan
//!   for its base part (counting base-data accesses) and joining the result
//!   with the materialised views (assumed cached, hence free), returning the
//!   same [`BoundedAnswer`] shape as the other executors.

use crate::bounded::{execute_bounded, BoundedAnswer, BoundedPlanner};
use crate::error::CoreError;
use crate::views::constrained::unconstrained_variables;
use crate::views::rewrite::{base_part_size, find_rewritings, split_rewriting};
use crate::views::view::ViewSet;
use si_access::{AccessIndexedDatabase, AccessSchema};
use si_data::{Database, DatabaseSchema, MeterSnapshot, Value};
use si_query::{evaluate_cq, ConjunctiveQuery, Var};

/// Outcome of a VQSI decision.
#[derive(Debug, Clone, PartialEq)]
pub struct VqsiOutcome {
    /// Whether `Q ∈ VSQ(V, M)`.
    pub scale_independent: bool,
    /// A rewriting witnessing the positive answer, when one was found.
    pub rewriting: Option<ConjunctiveQuery>,
    /// Number of candidate rewritings examined.
    pub candidates_examined: usize,
}

/// Decides whether the CQ `query` is scale-independent w.r.t. `m` using
/// `views` (Theorem 6.1 characterisation), searching up to `max_candidates`
/// rewritings.
pub fn decide_vqsi_cq(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    m: usize,
    max_candidates: usize,
) -> Result<VqsiOutcome, CoreError> {
    let rewritings = find_rewritings(query, views, max_candidates)?;
    let examined = rewritings.len();
    for rewriting in rewritings {
        let base_size = base_part_size(&rewriting, views);
        if base_size > m {
            continue;
        }
        if query.is_boolean() || unconstrained_variables(&rewriting, views).is_empty() {
            return Ok(VqsiOutcome {
                scale_independent: true,
                rewriting: Some(rewriting),
                candidates_examined: examined,
            });
        }
    }
    Ok(VqsiOutcome {
        scale_independent: false,
        rewriting: None,
        candidates_examined: examined,
    })
}

/// Corollary 6.2 sufficient condition: is `query` x̄-scale-independent under
/// `access` using `views`, for `x̄ = params`?  Returns the witnessing
/// rewriting when the answer is positive.
pub fn is_scale_independent_using_views(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    schema: &DatabaseSchema,
    access: &AccessSchema,
    params: &[Var],
    max_candidates: usize,
) -> Result<Option<ConjunctiveQuery>, CoreError> {
    let planner = BoundedPlanner::new(schema, access);
    for rewriting in find_rewritings(query, views, max_candidates)? {
        // (a) the parameters must cover the unconstrained distinguished
        //     variables of the rewriting;
        let unconstrained = unconstrained_variables(&rewriting, views);
        if !unconstrained.iter().all(|v| params.contains(v)) {
            continue;
        }
        // (b) the base part must be controlled (bounded-plannable) under A
        //     once the parameters and the view part's shared variables are
        //     supplied.
        let (base_atoms, view_atoms) = split_rewriting(&rewriting, views);
        if base_atoms.is_empty() {
            return Ok(Some(rewriting));
        }
        let mut given: Vec<Var> = params.to_vec();
        for atom in &view_atoms {
            for v in atom.variables() {
                if !given.contains(&v) {
                    given.push(v);
                }
            }
        }
        let base_query = ConjunctiveQuery {
            name: format!("{}#base", rewriting.name),
            head: Vec::new(),
            atoms: base_atoms.iter().map(|a| (*a).clone()).collect(),
            equalities: Vec::new(),
        };
        // Restrict the given variables to those appearing in the base part —
        // planning only needs (and only accepts) variables of the query.
        let base_vars = base_query.body_variables();
        let given: Vec<Var> = given
            .into_iter()
            .filter(|v| base_vars.contains(v))
            .collect();
        if planner.plan(&base_query, &given).is_ok() {
            return Ok(Some(rewriting));
        }
    }
    Ok(None)
}

/// Executes a rewriting: the base part runs as a bounded plan over `adb`
/// (its accesses are the reported cost), the view part is answered from the
/// materialised views `materialized` (reads of cached views are free, per the
/// paper's assumption).  `params`/`values` fix the rewriting's parameters.
pub fn execute_with_views(
    rewriting: &ConjunctiveQuery,
    views: &ViewSet,
    params: &[Var],
    values: &[Value],
    adb: &AccessIndexedDatabase,
    materialized: &Database,
) -> Result<BoundedAnswer, CoreError> {
    let (base_atoms, _) = split_rewriting(rewriting, views);
    let schema = adb.database().schema().clone();
    let planner = BoundedPlanner::new(&schema, adb.access_schema());

    // 1. Bounded evaluation of the base part, keeping *all* its variables as
    //    the output so the view part can be joined afterwards.
    let (base, restricted_base) = if base_atoms.is_empty() {
        (
            BoundedAnswer::without_witness(Vec::new(), MeterSnapshot::default()),
            Database::empty(schema.clone()),
        )
    } else {
        let base_query = ConjunctiveQuery {
            name: format!("{}#base", rewriting.name),
            head: Vec::new(),
            atoms: base_atoms.iter().map(|a| (*a).clone()).collect(),
            equalities: rewriting
                .equalities
                .iter()
                .filter(|(l, r)| {
                    let in_base = |t: &si_query::Term| match t {
                        si_query::Term::Var(v) => base_atoms
                            .iter()
                            .any(|a| a.variables().iter().any(|x| x == v)),
                        si_query::Term::Const(_) => true,
                    };
                    in_base(l) && in_base(r)
                })
                .cloned()
                .collect(),
        };
        let base_vars = base_query.body_variables();
        let given: Vec<Var> = params
            .iter()
            .filter(|v| base_vars.contains(*v))
            .cloned()
            .collect();
        let given_values: Vec<Value> = params
            .iter()
            .zip(values.iter())
            .filter(|(v, _)| base_vars.contains(*v))
            .map(|(_, val)| *val)
            .collect();
        let plan = planner.plan(&base_query, &given)?;
        let result = execute_bounded(&plan, &given_values, adb)?;
        // The fetched base facts are D_Q: build a restricted base database
        // containing exactly them, for the final join.
        let restricted = result.witness().to_database(adb.database())?;
        (result, restricted)
    };

    // 2. Combine: a database holding the restricted base relations plus the
    //    materialised view extents, then evaluate the rewriting (with the
    //    parameters bound) over it with the ordinary CQ evaluator — no
    //    further base accesses are charged because the restricted base is the
    //    already-fetched D_Q.
    let combined_schema = views.extended_schema(&schema)?;
    let mut combined = Database::empty(combined_schema);
    for relation in restricted_base.relations() {
        for t in relation.iter() {
            combined.insert(relation.name(), t.clone())?;
        }
    }
    for view in views.views() {
        if let Ok(rel) = materialized.relation(&view.name) {
            for t in rel.iter() {
                combined.insert(&view.name, t.clone())?;
            }
        }
    }
    let bindings: Vec<(Var, Value)> = params.iter().cloned().zip(values.iter().cloned()).collect();
    let answers = evaluate_cq(&rewriting.bind(&bindings), &combined, None)?;

    // The reported witness and cost are the base part's.
    Ok(BoundedAnswer { answers, ..base })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::view::ViewDef;
    use si_access::facebook_access_schema;
    use si_data::schema::social_schema;
    use si_data::tuple;
    use si_query::parse_cq;

    fn views() -> ViewSet {
        ViewSet::new()
            .with(ViewDef::new(
                "v1",
                parse_cq(r#"V1(rid, rn, rating) :- restr(rid, rn, "NYC", rating)"#).unwrap(),
            ))
            .with(ViewDef::new(
                "v2",
                parse_cq(r#"V2(id, rid) :- visit(id, rid), person(id, pn, "NYC")"#).unwrap(),
            ))
    }

    fn q2() -> ConjunctiveQuery {
        parse_cq(
            r#"Q2(p, rn) :- friend(p, id), visit(id, rid), person(id, pn, "NYC"), restr(rid, rn, "NYC", "A")"#,
        )
        .unwrap()
    }

    fn db() -> Database {
        let mut db = Database::empty(social_schema());
        db.insert_all(
            "person",
            vec![
                tuple![1, "ann", "NYC"],
                tuple![2, "bob", "NYC"],
                tuple![3, "cat", "LA"],
                tuple![4, "dan", "NYC"],
            ],
        )
        .unwrap();
        db.insert_all(
            "friend",
            vec![tuple![1, 2], tuple![1, 3], tuple![1, 4], tuple![2, 4]],
        )
        .unwrap();
        db.insert_all(
            "restr",
            vec![
                tuple![10, "sushi", "NYC", "A"],
                tuple![11, "taco", "NYC", "B"],
                tuple![12, "pasta", "LA", "A"],
            ],
        )
        .unwrap();
        db.insert_all(
            "visit",
            vec![tuple![2, 10], tuple![4, 10], tuple![4, 11], tuple![3, 12]],
        )
        .unwrap();
        db
    }

    #[test]
    fn vqsi_decision_follows_theorem_61() {
        // Data-selecting Q2 with free p and rn: the best rewriting has one
        // base atom, but rn (and p) stay unconstrained, so the query is NOT
        // in VSQ(V, M) for any M under the characterisation…
        let out = decide_vqsi_cq(&q2(), &views(), 10, 64).unwrap();
        assert!(!out.scale_independent);
        assert!(out.candidates_examined >= 2);
        // …whereas the Boolean version only needs the base part to be small.
        let boolean = ConjunctiveQuery {
            name: "Q2bool".into(),
            head: vec![],
            atoms: q2().atoms.clone(),
            equalities: q2().equalities.clone(),
        };
        let out = decide_vqsi_cq(&boolean, &views(), 1, 64).unwrap();
        assert!(out.scale_independent);
        assert_eq!(base_part_size(out.rewriting.as_ref().unwrap(), &views()), 1);
        let out = decide_vqsi_cq(&boolean, &views(), 0, 64).unwrap();
        assert!(!out.scale_independent);
        // Fixing p by a constant constrains it; rn remains unconstrained →
        // still no (rn is connected to friend through the views).
        let fixed = parse_cq(
            r#"Q2f(rn) :- friend(1, id), visit(id, rid), person(id, pn, "NYC"), restr(rid, rn, "NYC", "A")"#,
        )
        .unwrap();
        let out = decide_vqsi_cq(&fixed, &views(), 10, 64).unwrap();
        assert!(!out.scale_independent);
    }

    #[test]
    fn corollary_62_accepts_q2_with_p_fixed() {
        // Example 6.3: under the 5000-friend access schema, Q2 is
        // p-scale-independent using V1, V2.
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let rewriting = is_scale_independent_using_views(
            &q2(),
            &views(),
            &schema,
            &access,
            &["p".into(), "rn".into()],
            64,
        )
        .unwrap();
        // rn is unconstrained, so it must be among the parameters; with both
        // p and rn given the rewriting's base part (friend) is p-controlled.
        assert!(rewriting.is_some());
        // Without the views, Q2 itself is not p-scale-independent under A
        // (visit has no constraint).
        let planner = BoundedPlanner::new(&schema, &access);
        assert!(planner.plan(&q2(), &["p".into(), "rn".into()]).is_err());
        // And without any parameters the condition fails (p unconstrained).
        assert!(
            is_scale_independent_using_views(&q2(), &views(), &schema, &access, &[], 64)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn execute_with_views_touches_only_the_friend_tuples() {
        let schema_db = db();
        let vs = views();
        let access = facebook_access_schema(5000);
        let materialized = vs.materialize_views_only(&schema_db).unwrap();
        let adb = AccessIndexedDatabase::new(schema_db, access).unwrap();
        let rewriting =
            parse_cq(r#"Q2p(p, rn) :- friend(p, id), v2(id, rid), v1(rid, rn, "A")"#).unwrap();

        let result = execute_with_views(
            &rewriting,
            &vs,
            &["p".into()],
            &[Value::int(1)],
            &adb,
            &materialized,
        )
        .unwrap();
        let mut answers = result.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["sushi"]]);
        // Only the friend tuples of p were fetched from the base data.
        assert_eq!(result.accesses.tuples_fetched, 3);
        assert_eq!(result.accesses.full_scans, 0);
        assert_eq!(result.witness().size(), 3);

        // The answers agree with evaluating the original Q2 directly.
        let direct = evaluate_cq(
            &q2().bind(&[("p".into(), Value::int(1))]),
            adb.database(),
            None,
        )
        .unwrap();
        assert_eq!(answers, direct);
    }

    #[test]
    fn complete_rewritings_need_no_base_access() {
        // A query fully answerable from V2 alone.
        let q = parse_cq(r#"Q(id, rid) :- visit(id, rid), person(id, pn, "NYC")"#).unwrap();
        let vs = views();
        let schema_db = db();
        let materialized = vs.materialize_views_only(&schema_db).unwrap();
        let adb = AccessIndexedDatabase::new(schema_db, facebook_access_schema(5000)).unwrap();
        let rewriting = parse_cq("Qc(id, rid) :- v2(id, rid)").unwrap();
        assert!(crate::views::rewrite::is_rewriting(&q, &vs, &rewriting).unwrap());
        let result = execute_with_views(&rewriting, &vs, &[], &[], &adb, &materialized).unwrap();
        assert_eq!(result.accesses.tuples_fetched, 0);
        assert_eq!(result.answers.len(), 3);
        // Theorem 6.1: a complete rewriting means VQSI holds with M = 0 for
        // the Boolean version; the data-selecting version additionally has
        // all head variables constrained (no base atoms at all).
        let out = decide_vqsi_cq(&q, &vs, 0, 64).unwrap();
        assert!(out.scale_independent);
    }
}
