//! Cost-based plan enumeration: dynamic programming over atom sets.
//!
//! The greedy [`super::plan::BoundedPlanner`] orders atoms by the *declared*
//! worst-case bounds `N` of the access constraints.  Declared bounds must
//! hold for every key, so on skewed data they can be wildly pessimistic — a
//! relation with one heavy key forces a large `N` even when the average
//! fanout is 1 — and the greedy order then fetches orders of magnitude more
//! tuples than necessary.
//!
//! [`CostBasedPlanner`] instead enumerates atom orderings with dynamic
//! programming over subsets of consumed atoms.  Each DP state is a set of
//! consumed atoms; transitions consume one more atom through a
//! [`PlanStep::Fetch`] or [`PlanStep::Check`] and are ranked by the
//! *expected* number of tuples fetched, estimated by the statistics-driven
//! [`CostModel`] (row counts, per-column distinct counts).  Alongside the
//! estimate every state carries the exact worst-case [`StaticCost`]
//! accumulated from the constraints, and states whose worst case exceeds an
//! optional **fetch budget** are pruned — the access-constraint fetch bound
//! is the admissibility test, the estimates only rank admissible plans
//! (see `si_access::cost` for the invariants).
//!
//! Queries that need embedded constraints ([`PlanStep::Enumerate`] steps) or
//! have more atoms than the enumeration cap fall back to the greedy planner,
//! so every query plannable before stays plannable; the DP only ever
//! improves the ordering.

use crate::bounded::plan::{BoundedPlan, BoundedPlanner, PlanStep};
use crate::error::CoreError;
use si_access::{AccessSchema, CostModel, StaticCost};
use si_data::stats::DatabaseStats;
use si_data::DatabaseSchema;
use si_query::{ConjunctiveQuery, Term, Var};
use std::collections::BTreeSet;

/// Beyond this many atoms the 2^n enumeration is not worth the planning time
/// and the greedy planner takes over.
const MAX_DP_ATOMS: usize = 12;

/// A plan together with the planner's evidence for choosing it.
#[derive(Debug, Clone, PartialEq)]
pub struct CostedPlan {
    /// The chosen plan, executable by [`crate::bounded::execute_bounded`].
    pub plan: BoundedPlan,
    /// Expected tuples fetched per execution under the statistics snapshot.
    pub estimated_tuples: f64,
    /// Number of DP states expanded while enumerating orderings.
    pub states_explored: usize,
    /// True when the greedy planner produced the plan (embedded constraints
    /// or too many atoms for enumeration).
    pub greedy_fallback: bool,
}

/// Plans bounded evaluations by enumerating atom orderings and ranking them
/// with statistical cost estimates.
#[derive(Debug, Clone)]
pub struct CostBasedPlanner<'a> {
    schema: &'a DatabaseSchema,
    access: &'a AccessSchema,
    model: CostModel<'a>,
}

/// What the DP keeps per atom subset when two orderings reach it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rank {
    /// Minimise expected tuples fetched (the planning objective).
    Estimate,
    /// Minimise worst-case tuples fetched (the budget-soundness retry).
    WorstCase,
}

/// One DP state: the best known way to have consumed a set of atoms.
#[derive(Debug, Clone)]
struct State {
    /// Expected number of partial bindings alive after these steps.
    est_rows: f64,
    /// Expected total tuples fetched so far.
    est_cost: f64,
    /// Exact worst-case cost so far (from declared bounds).
    static_cost: StaticCost,
    /// Worst-case number of partial bindings (product of step bounds).
    static_mult: u64,
    /// Predecessor mask and the step taken from it (None for the seed).
    via: Option<(usize, PlanStep)>,
}

impl<'a> CostBasedPlanner<'a> {
    /// Creates a planner over a database schema, an access schema and a
    /// statistics snapshot (see [`DatabaseStats::collect`]).
    pub fn new(
        schema: &'a DatabaseSchema,
        access: &'a AccessSchema,
        stats: &'a DatabaseStats,
    ) -> Self {
        CostBasedPlanner {
            schema,
            access,
            model: CostModel::new(stats),
        }
    }

    /// Builds the cheapest (by expected tuples fetched) bounded plan for
    /// `query` with the given execution-time `parameters`.
    pub fn plan(
        &self,
        query: &ConjunctiveQuery,
        parameters: &[Var],
    ) -> Result<BoundedPlan, CoreError> {
        self.plan_costed(query, parameters, None).map(|c| c.plan)
    }

    /// Like [`CostBasedPlanner::plan`], returning the cost evidence and
    /// enforcing an optional fetch budget: partial plans whose *worst-case*
    /// tuple count (per the access constraints) exceeds `fetch_budget` are
    /// pruned, and [`CoreError::FetchBudgetExceeded`] is returned when no
    /// plan survives.
    ///
    /// The DP keeps one state per atom subset (ranked by estimated cost), so
    /// with a budget a low-estimate/high-worst-case ordering could shadow the
    /// one that fits.  To keep the budget decision sound, a failed budgeted
    /// run is retried ranking states by worst case — then the kept state per
    /// subset minimises exactly the pruned quantity — before concluding that
    /// no ordering fits.
    pub fn plan_costed(
        &self,
        query: &ConjunctiveQuery,
        parameters: &[Var],
        fetch_budget: Option<u64>,
    ) -> Result<CostedPlan, CoreError> {
        query.validate(self.schema)?;
        if query.atoms.len() > MAX_DP_ATOMS {
            return self.fallback(query, parameters, fetch_budget);
        }
        if let Some(costed) = self.run_dp(query, parameters, fetch_budget, Rank::Estimate)? {
            return Ok(costed);
        }
        if let Some(budget) = fetch_budget {
            if let Some(costed) = self.run_dp(query, parameters, fetch_budget, Rank::WorstCase)? {
                return Ok(costed);
            }
            // No ordering fits the budget; find the cheapest worst case
            // (unbudgeted, worst-case-ranked) purely for the error report.
            if let Some(costed) = self.run_dp(query, parameters, None, Rank::WorstCase)? {
                return Err(CoreError::FetchBudgetExceeded {
                    budget,
                    cheapest: costed.plan.static_cost().max_tuples,
                });
            }
        }
        self.fallback(query, parameters, fetch_budget)
    }

    /// One DP pass; returns `None` when no Fetch/Check-only ordering covers
    /// all atoms (within the budget, when one is given).
    fn run_dp(
        &self,
        query: &ConjunctiveQuery,
        parameters: &[Var],
        fetch_budget: Option<u64>,
        rank: Rank,
    ) -> Result<Option<CostedPlan>, CoreError> {
        let n = query.atoms.len();
        // Seed bound variables: parameters plus variables equated to
        // constants; variable/variable equalities are closed over per state.
        let mut seed: BTreeSet<Var> = parameters.iter().cloned().collect();
        for (l, r) in &query.equalities {
            match (l, r) {
                (Term::Var(v), Term::Const(_)) | (Term::Const(_), Term::Var(v)) => {
                    seed.insert(v.clone());
                }
                _ => {}
            }
        }
        let var_var: Vec<(&Var, &Var)> = query
            .equalities
            .iter()
            .filter_map(|(l, r)| match (l, r) {
                (Term::Var(a), Term::Var(b)) => Some((a, b)),
                _ => None,
            })
            .collect();
        let bound_vars = |mask: usize| -> BTreeSet<Var> {
            let mut bound = seed.clone();
            for (i, atom) in query.atoms.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    bound.extend(atom.variables());
                }
            }
            loop {
                let mut changed = false;
                for (a, b) in &var_var {
                    if bound.contains(*a) && bound.insert((*b).clone()) {
                        changed = true;
                    }
                    if bound.contains(*b) && bound.insert((*a).clone()) {
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            bound
        };

        let full = (1usize << n) - 1;
        let mut states: Vec<Option<State>> = vec![None; full + 1];
        states[0] = Some(State {
            est_rows: 1.0,
            est_cost: 0.0,
            static_cost: StaticCost::zero(),
            static_mult: 1,
            via: None,
        });
        let mut explored = 0usize;

        for mask in 0..=full {
            let Some(state) = states[mask].clone() else {
                continue;
            };
            explored += 1;
            let bound = bound_vars(mask);
            for (i, atom) in query.atoms.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let rel = self.schema.relation(&atom.relation)?;
                let position_bound = |pos: usize| match &atom.terms[pos] {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                };
                let bound_attrs: Vec<String> = rel
                    .attributes()
                    .iter()
                    .enumerate()
                    .filter(|(pos, _)| position_bound(*pos))
                    .map(|(_, a)| a.clone())
                    .collect();
                let all_bound = bound_attrs.len() == atom.terms.len();

                let mut candidates: Vec<(PlanStep, f64, f64, usize, u64)> = Vec::new();
                if all_bound {
                    // Membership probe: fetches at most one tuple; the
                    // expected survivors are the chance the tuple exists.
                    let est = self.model.estimated_check(&atom.relation, &bound_attrs);
                    candidates.push((PlanStep::Check { atom_index: i }, est, est, 1, 1));
                } else {
                    for constraint in self.access.constraints_on(&atom.relation) {
                        let usable = constraint
                            .on
                            .iter()
                            .map(|a| rel.position_of(a))
                            .collect::<Result<Vec<_>, _>>()?
                            .into_iter()
                            .all(position_bound);
                        if !usable {
                            continue;
                        }
                        let fetched = self.model.estimated_fetch_via(constraint);
                        let survive = self
                            .model
                            .estimated_matches(&atom.relation, &bound_attrs)
                            .min(fetched);
                        candidates.push((
                            PlanStep::Fetch {
                                atom_index: i,
                                constraint: constraint.clone(),
                                probe_attributes: bound_attrs.clone(),
                            },
                            fetched,
                            survive,
                            constraint.bound,
                            constraint.time,
                        ));
                    }
                }

                let next_mask = mask | (1 << i);
                for (step, est_fetched, est_survive, step_bound, step_time) in candidates {
                    let static_cost = state.static_cost.per_result(
                        state.static_mult,
                        StaticCost::single_fetch(step_bound, step_time),
                    );
                    if let Some(budget) = fetch_budget {
                        if static_cost.max_tuples > budget {
                            continue;
                        }
                    }
                    let candidate = State {
                        est_rows: state.est_rows * est_survive,
                        est_cost: state.est_cost + state.est_rows * est_fetched,
                        static_cost,
                        static_mult: state.static_mult.saturating_mul(step_bound as u64),
                        via: Some((mask, step)),
                    };
                    let better = match &states[next_mask] {
                        None => true,
                        Some(existing) => match rank {
                            Rank::Estimate => {
                                (candidate.est_cost, candidate.static_cost.max_tuples)
                                    < (existing.est_cost, existing.static_cost.max_tuples)
                            }
                            Rank::WorstCase => {
                                (candidate.static_cost.max_tuples, candidate.est_cost)
                                    < (existing.static_cost.max_tuples, existing.est_cost)
                            }
                        },
                    };
                    if better {
                        states[next_mask] = Some(candidate);
                    }
                }
            }
        }

        let Some(best) = states[full].clone() else {
            return Ok(None);
        };

        // Reconstruct the step sequence by walking predecessor masks.
        let mut steps: Vec<PlanStep> = Vec::with_capacity(n);
        let mut cursor = full;
        while cursor != 0 {
            let state = states[cursor].as_ref().expect("reached state has an entry");
            let (prev, step) = state.via.clone().expect("non-seed state has a predecessor");
            steps.push(step);
            cursor = prev;
        }
        steps.reverse();

        Ok(Some(CostedPlan {
            plan: BoundedPlan::from_parts(
                query.clone(),
                parameters.to_vec(),
                steps,
                best.static_cost,
                self.schema,
                self.access,
            )?,
            estimated_tuples: best.est_cost,
            states_explored: explored,
            greedy_fallback: false,
        }))
    }

    /// Greedy fallback for queries the DP cannot cover (embedded-constraint
    /// enumerations, oversized atom counts, or budget-pruned dead ends).
    fn fallback(
        &self,
        query: &ConjunctiveQuery,
        parameters: &[Var],
        fetch_budget: Option<u64>,
    ) -> Result<CostedPlan, CoreError> {
        let plan = BoundedPlanner::new(self.schema, self.access).plan(query, parameters)?;
        if let Some(budget) = fetch_budget {
            let cheapest = plan.static_cost().max_tuples;
            if cheapest > budget {
                return Err(CoreError::FetchBudgetExceeded { budget, cheapest });
            }
        }
        let estimated_tuples = self.estimate_plan(&plan);
        Ok(CostedPlan {
            plan,
            estimated_tuples,
            states_explored: 0,
            greedy_fallback: true,
        })
    }

    /// Expected tuples fetched by an existing plan under this model — the
    /// estimate used to compare a greedy plan with the DP winner.
    pub fn estimate_plan(&self, plan: &BoundedPlan) -> f64 {
        let mut rows = 1.0f64;
        let mut cost = 0.0f64;
        for step in plan.steps() {
            let atom = &plan.query().atoms[step.atom_index()];
            match step {
                PlanStep::Fetch {
                    constraint,
                    probe_attributes,
                    ..
                } => {
                    let fetched = self.model.estimated_fetch_via(constraint);
                    let survive = self
                        .model
                        .estimated_matches(&atom.relation, probe_attributes)
                        .min(fetched);
                    cost += rows * fetched;
                    rows *= survive;
                }
                PlanStep::Enumerate { constraint, .. } => {
                    let fetched = self
                        .model
                        .estimated_matches(&atom.relation, &constraint.from)
                        .min(constraint.bound as f64);
                    cost += rows * fetched;
                    rows *= fetched.max(1.0);
                }
                PlanStep::Check { .. } => {
                    let attrs: Vec<String> = self
                        .schema
                        .relation(&atom.relation)
                        .map(|r| r.attributes().to_vec())
                        .unwrap_or_default();
                    let est = self.model.estimated_check(&atom.relation, &attrs);
                    cost += rows * est;
                    rows *= est;
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::exec::execute_bounded;
    use si_access::{facebook_access_schema, AccessConstraint, AccessIndexedDatabase};
    use si_data::schema::social_schema;
    use si_data::{tuple, Database, Value};
    use si_query::parse_cq;

    fn social_db() -> Database {
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
            vec![
                tuple![1, 2],
                tuple![1, 3],
                tuple![1, 4],
                tuple![2, 4],
                tuple![3, 1],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn q1_cost_based_plan_matches_greedy_semantics() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let stats = social_db().statistics();
        let planner = CostBasedPlanner::new(&schema, &access, &stats);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let costed = planner.plan_costed(&q1, &["p".into()], None).unwrap();
        assert!(!costed.greedy_fallback);
        assert!(costed.states_explored >= 3);
        // Same shape and static bound as the paper recipe.
        assert_eq!(costed.plan.steps().len(), 2);
        assert_eq!(costed.plan.static_cost().max_tuples, 10_000);
        // The estimate reflects the actual tiny database, not the bound.
        assert!(costed.estimated_tuples < 10.0);

        // Executing the plan gives the same answers as the greedy one.
        let adb = AccessIndexedDatabase::new(social_db(), access.clone()).unwrap();
        let result = execute_bounded(&costed.plan, &[Value::int(1)], &adb).unwrap();
        let greedy = BoundedPlanner::new(&schema, &access)
            .plan(&q1, &["p".into()])
            .unwrap();
        let greedy_result = execute_bounded(&greedy, &[Value::int(1)], &adb).unwrap();
        let mut a = result.answers.clone();
        let mut b = greedy_result.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn planner_prefers_index_backed_path_when_stats_make_scan_worse() {
        // Two ways to resolve the person atom once `id` is bound: a bounded
        // whole-relation fetch (the X = ∅ "scan path") and an indexed probe
        // on id.  Both declare the same worst-case N, so the greedy planner
        // cannot tell them apart — the statistics can.
        let schema = social_schema();
        let access = si_access::AccessSchema::new()
            .with(AccessConstraint::new("person", &[], 1000, 1))
            .with(AccessConstraint::new("person", &["id"], 1000, 1))
            .with(AccessConstraint::new("friend", &["id1"], 1000, 1));
        let stats = social_db().statistics();
        let planner = CostBasedPlanner::new(&schema, &access, &stats);
        let q = parse_cq(r#"Q(name) :- person(p, name, city)"#).unwrap();
        let costed = planner.plan_costed(&q, &["p".into()], None).unwrap();
        match &costed.plan.steps()[0] {
            PlanStep::Fetch { constraint, .. } => {
                assert_eq!(constraint.on, vec!["id".to_string()]);
            }
            other => panic!("expected an indexed fetch, got {other}"),
        }
        // 4 persons, key column: one expected tuple instead of four.
        assert!(costed.estimated_tuples <= 1.0 + f64::EPSILON);
    }

    #[test]
    fn skewed_data_reorders_atoms_against_declared_bounds() {
        // friend is skewed: declared N must cover the heavy key (1000), but
        // the average fanout is ~1.  A uniform "visit" with declared N = 100
        // looks cheaper to the greedy planner and worse to the statistics.
        let schema = social_schema();
        let mut db = Database::empty(schema.clone());
        for i in 0..1000i64 {
            db.insert("friend", tuple![0, i + 1]).unwrap();
        }
        for i in 1..2000i64 {
            db.insert("friend", tuple![i, 0]).unwrap();
        }
        for q in 0..20i64 {
            for x in 0..100i64 {
                db.insert("visit", tuple![q, q * 100 + x]).unwrap();
            }
        }
        let access = si_access::AccessSchema::new()
            .with(AccessConstraint::new("friend", &["id1"], 1000, 1))
            .with(AccessConstraint::new("visit", &["id"], 100, 1));
        let stats = db.statistics();
        let planner = CostBasedPlanner::new(&schema, &access, &stats);
        // Both atoms share x; p and q are parameters.
        let q = parse_cq("Q(x) :- friend(p, x), visit(q, x)").unwrap();

        let greedy = BoundedPlanner::new(&schema, &access)
            .plan(&q, &["p".into(), "q".into()])
            .unwrap();
        let costed = planner
            .plan_costed(&q, &["p".into(), "q".into()], None)
            .unwrap();
        // Greedy starts with visit (declared 100 < 1000); the cost-based
        // planner starts with friend (expected ~1.5 < 100).
        assert_eq!(greedy.steps()[0].atom_index(), 1);
        assert_eq!(costed.plan.steps()[0].atom_index(), 0);
        assert!(costed.estimated_tuples < planner.estimate_plan(&greedy));
    }

    #[test]
    fn fetch_budget_prunes_and_reports() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let stats = social_db().statistics();
        let planner = CostBasedPlanner::new(&schema, &access, &stats);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        // The only plan fetches ≤ 10000 tuples; a budget of 9999 rejects it.
        let err = planner
            .plan_costed(&q1, &["p".into()], Some(9_999))
            .unwrap_err();
        match err {
            CoreError::FetchBudgetExceeded { budget, cheapest } => {
                assert_eq!(budget, 9_999);
                assert_eq!(cheapest, 10_000);
            }
            other => panic!("unexpected error {other}"),
        }
        let ok = planner
            .plan_costed(&q1, &["p".into()], Some(10_000))
            .unwrap();
        assert_eq!(ok.plan.static_cost().max_tuples, 10_000);
    }

    #[test]
    fn budget_retry_finds_low_worst_case_ordering_shadowed_by_estimates() {
        use si_data::{DatabaseSchema, RelationSchema};
        // Diamond: x and y can be consumed in either order before z.  The
        // estimates prefer y-first (skewed: est 1, declared N = 100); the
        // worst case prefers x-first (uniform: est 10, declared N = 10).
        // With a budget between the two worst cases, the estimate-ranked DP
        // shadows the feasible ordering at mask {x, y} — the worst-case
        // retry must still find it.
        let schema = DatabaseSchema::from_relations(vec![
            RelationSchema::new("x", &["a", "u"]),
            RelationSchema::new("y", &["b", "v"]),
            RelationSchema::new("z", &["u", "v", "w"]),
        ])
        .unwrap();
        let mut db = Database::empty(schema.clone());
        for a in 0..100i64 {
            for j in 0..10i64 {
                db.insert("x", tuple![a, a * 10 + j]).unwrap();
            }
        }
        for b in 0..1000i64 {
            db.insert("y", tuple![b, b]).unwrap();
        }
        let access = si_access::AccessSchema::new()
            .with(AccessConstraint::new("x", &["a"], 10, 1))
            .with(AccessConstraint::new("y", &["b"], 100, 1))
            .with(AccessConstraint::new("z", &["u", "v"], 1, 1));
        let stats = db.statistics();
        let planner = CostBasedPlanner::new(&schema, &access, &stats);
        let q = parse_cq("Q(w) :- x(p, u), y(q, v), z(u, v, w)").unwrap();
        let params = ["p".to_string(), "q".to_string()];

        // Unbudgeted, the estimates pick y-first (worst case 2100)…
        let unbudgeted = planner.plan_costed(&q, &params, None).unwrap();
        assert_eq!(unbudgeted.plan.steps()[0].atom_index(), 1);
        assert_eq!(unbudgeted.plan.static_cost().max_tuples, 2100);
        // …but a 2050-tuple budget admits only x-first (worst case 2010).
        let budgeted = planner.plan_costed(&q, &params, Some(2050)).unwrap();
        assert_eq!(budgeted.plan.steps()[0].atom_index(), 0);
        assert_eq!(budgeted.plan.static_cost().max_tuples, 2010);
        // Below every ordering, the error reports the true cheapest.
        let err = planner.plan_costed(&q, &params, Some(2000)).unwrap_err();
        assert_eq!(
            err,
            CoreError::FetchBudgetExceeded {
                budget: 2000,
                cheapest: 2010
            }
        );
    }

    #[test]
    fn embedded_constraint_queries_fall_back_to_greedy() {
        use si_access::EmbeddedConstraint;
        use si_data::schema::social_schema_dated;
        let schema = social_schema_dated();
        let access = facebook_access_schema(5000)
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
            ));
        let db = Database::empty(schema.clone());
        let stats = db.statistics();
        let planner = CostBasedPlanner::new(&schema, &access, &stats);
        let q3 = parse_cq(
            r#"Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), person(id, pn, "NYC"), restr(rid, rn, "NYC", "A")"#,
        )
        .unwrap();
        let costed = planner
            .plan_costed(&q3, &["p".into(), "yy".into()], None)
            .unwrap();
        assert!(costed.greedy_fallback);
        assert!(costed
            .plan
            .steps()
            .iter()
            .any(|s| matches!(s, PlanStep::Enumerate { .. })));
    }

    #[test]
    fn unplannable_queries_report_blocked_atoms() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let db = Database::empty(schema.clone());
        let stats = db.statistics();
        let planner = CostBasedPlanner::new(&schema, &access, &stats);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let err = planner.plan(&q1, &[]).unwrap_err();
        assert!(matches!(err, CoreError::NotBoundedPlannable { .. }));
    }
}
