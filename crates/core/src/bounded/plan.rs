//! Bounded (scale-independent) query plans — the constructive content of
//! Theorem 4.2 and Proposition 4.5.
//!
//! Given a conjunctive query, a choice of parameter variables (the `x̄` whose
//! values will be supplied at execution time) and an access schema, the
//! planner produces an ordered list of *access steps*, each of which is
//! authorised by an access constraint and therefore touches a
//! data-independent number of tuples:
//!
//! * [`PlanStep::Fetch`] — probe an index promised by a plain constraint
//!   `(R, X, N, T)`; binds the remaining variables of the atom and consumes
//!   it (at most `N` tuples per probe);
//! * [`PlanStep::Enumerate`] — use an embedded constraint `(R, X[Y], N, T)`
//!   to enumerate candidate values for so-far-unbound variables (at most `N`
//!   combinations per probe) without consuming the atom;
//! * [`PlanStep::Check`] — all positions of an atom are bound: verify the
//!   tuple with a membership probe (at most one tuple).
//!
//! If the planner succeeds, the query (with the chosen parameters) is
//! scale-independent under the access schema and [`BoundedPlan::static_cost`]
//! is a data-independent bound on the tuples fetched; if it fails, it reports
//! the atoms that no constraint can cover
//! ([`CoreError::NotBoundedPlannable`]).

use crate::bounded::physical::{compile, PhysicalPlan};
use crate::error::CoreError;
use si_access::{AccessConstraint, AccessSchema, EmbeddedConstraint, StaticCost};
use si_data::DatabaseSchema;
use si_query::{ConjunctiveQuery, Term, Var};
use std::collections::BTreeSet;
use std::fmt;

/// One access step of a bounded plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Probe the index of a plain access constraint.
    Fetch {
        /// Index of the atom (in the bound query's atom list) this consumes.
        atom_index: usize,
        /// The constraint that authorises the probe.
        constraint: AccessConstraint,
        /// Attributes bound at probe time (constraint attributes plus any
        /// additional already-bound attributes used as a residual filter).
        probe_attributes: Vec<String>,
    },
    /// Enumerate candidate values through an embedded constraint.
    Enumerate {
        /// Index of the atom whose variables are being enumerated.
        atom_index: usize,
        /// The embedded constraint used.
        constraint: EmbeddedConstraint,
    },
    /// Verify a fully-bound atom with a membership probe.
    Check {
        /// Index of the atom this consumes.
        atom_index: usize,
    },
}

impl PlanStep {
    /// The data-independent bound on tuples produced per invocation.
    pub fn bound(&self) -> usize {
        match self {
            PlanStep::Fetch { constraint, .. } => constraint.bound,
            PlanStep::Enumerate { constraint, .. } => constraint.bound,
            PlanStep::Check { .. } => 1,
        }
    }

    /// The time bound charged per invocation.
    pub fn time(&self) -> u64 {
        match self {
            PlanStep::Fetch { constraint, .. } => constraint.time,
            PlanStep::Enumerate { constraint, .. } => constraint.time,
            PlanStep::Check { .. } => 1,
        }
    }

    /// Does the step consume (fully resolve) its atom?
    pub fn consumes_atom(&self) -> bool {
        !matches!(self, PlanStep::Enumerate { .. })
    }

    /// The atom index the step refers to.
    pub fn atom_index(&self) -> usize {
        match self {
            PlanStep::Fetch { atom_index, .. }
            | PlanStep::Enumerate { atom_index, .. }
            | PlanStep::Check { atom_index } => *atom_index,
        }
    }
}

impl fmt::Display for PlanStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanStep::Fetch {
                atom_index,
                constraint,
                ..
            } => write!(f, "fetch atom #{atom_index} via {constraint}"),
            PlanStep::Enumerate {
                atom_index,
                constraint,
            } => write!(f, "enumerate atom #{atom_index} via {constraint}"),
            PlanStep::Check { atom_index } => write!(f, "membership-check atom #{atom_index}"),
        }
    }
}

/// A bounded plan for a conjunctive query with fixed parameter variables.
///
/// Built only by the planners, which also compile it into its physical form
/// (row slots, resolved probes, key programs; see `bounded::physical`).  The
/// logical parts are read-only so the compiled form cannot go stale.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedPlan {
    query: ConjunctiveQuery,
    parameters: Vec<Var>,
    steps: Vec<PlanStep>,
    /// Data-independent worst-case cost.
    cost: StaticCost,
    physical: PhysicalPlan,
}

impl BoundedPlan {
    /// Assembles a plan from its parts and compiles it against the schema
    /// and access schema it was planned under (crate-internal: planners are
    /// the only producers of well-formed step sequences).
    pub(crate) fn from_parts(
        query: ConjunctiveQuery,
        parameters: Vec<Var>,
        steps: Vec<PlanStep>,
        cost: StaticCost,
        schema: &DatabaseSchema,
        access: &AccessSchema,
    ) -> Result<Self, CoreError> {
        let physical = compile(&query, &parameters, &steps, schema, access)?;
        Ok(BoundedPlan {
            query,
            parameters,
            steps,
            cost,
            physical,
        })
    }

    /// The query, with its parameters left symbolic: they are bound at
    /// execution time.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The parameter variables whose values must be supplied to execute.
    pub fn parameters(&self) -> &[Var] {
        &self.parameters
    }

    /// The ordered access steps.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    pub(crate) fn physical(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// The data-independent worst-case cost of executing the plan once.
    pub fn static_cost(&self) -> StaticCost {
        self.cost
    }

    /// The output variables (head variables that are not parameters).
    pub fn output_variables(&self) -> Vec<Var> {
        self.query
            .head
            .iter()
            .filter(|v| !self.parameters.contains(v))
            .cloned()
            .collect()
    }
}

impl fmt::Display for BoundedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BoundedPlan for {} with parameters ({})",
            self.query.name,
            self.parameters.join(", ")
        )?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {i}. {s}")?;
        }
        write!(f, "  worst case: {}", self.cost)
    }
}

/// Plans bounded evaluations of conjunctive queries under an access schema.
#[derive(Debug, Clone)]
pub struct BoundedPlanner<'a> {
    schema: &'a DatabaseSchema,
    access: &'a AccessSchema,
}

impl<'a> BoundedPlanner<'a> {
    /// Creates a planner.
    pub fn new(schema: &'a DatabaseSchema, access: &'a AccessSchema) -> Self {
        BoundedPlanner { schema, access }
    }

    /// Builds a bounded plan for `query` assuming values for `parameters`
    /// will be supplied at execution time.
    ///
    /// Fails with [`CoreError::NotBoundedPlannable`] when some atom cannot be
    /// covered — i.e. the query is not (known to be) x̄-controlled for
    /// `x̄ = parameters`.
    pub fn plan(
        &self,
        query: &ConjunctiveQuery,
        parameters: &[Var],
    ) -> Result<BoundedPlan, CoreError> {
        query.validate(self.schema)?;
        let mut bound: BTreeSet<Var> = parameters.iter().cloned().collect();
        // Equalities to constants bind variables up front.
        for (l, r) in &query.equalities {
            match (l, r) {
                (Term::Var(v), Term::Const(_)) | (Term::Const(_), Term::Var(v)) => {
                    bound.insert(v.clone());
                }
                _ => {}
            }
        }

        let mut consumed: BTreeSet<usize> = BTreeSet::new();
        let mut used_enumerations: BTreeSet<(usize, String)> = BTreeSet::new();
        let mut steps: Vec<PlanStep> = Vec::new();
        let mut cost = StaticCost::zero();
        let mut multiplicity: u64 = 1;

        while consumed.len() < query.atoms.len() {
            // Propagate variable/variable equalities.
            loop {
                let mut changed = false;
                for (l, r) in &query.equalities {
                    if let (Term::Var(a), Term::Var(b)) = (l, r) {
                        if bound.contains(a) && bound.insert(b.clone()) {
                            changed = true;
                        }
                        if bound.contains(b) && bound.insert(a.clone()) {
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }

            let candidate = self.best_candidate(query, &bound, &consumed, &used_enumerations)?;
            let Some(step) = candidate else {
                let blocked: Vec<String> = query
                    .atoms
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !consumed.contains(i))
                    .map(|(_, a)| a.to_string())
                    .collect();
                return Err(CoreError::NotBoundedPlannable {
                    blocked_atoms: blocked,
                });
            };

            // Account for the step and update the planner state.
            cost = cost.per_result(
                multiplicity,
                StaticCost::single_fetch(step.bound(), step.time()),
            );
            multiplicity = multiplicity.saturating_mul(step.bound() as u64);
            let atom = &query.atoms[step.atom_index()];
            match &step {
                PlanStep::Fetch { .. } | PlanStep::Check { .. } => {
                    consumed.insert(step.atom_index());
                    for v in atom.variables() {
                        bound.insert(v);
                    }
                }
                PlanStep::Enumerate { constraint, .. } => {
                    used_enumerations.insert((step.atom_index(), constraint.to_string()));
                    let rel = self.schema.relation(&atom.relation)?;
                    for a in &constraint.onto {
                        let pos = rel.position_of(a)?;
                        if let Term::Var(v) = &atom.terms[pos] {
                            bound.insert(v.clone());
                        }
                    }
                }
            }
            steps.push(step);
        }

        BoundedPlan::from_parts(
            query.clone(),
            parameters.to_vec(),
            steps,
            cost,
            self.schema,
            self.access,
        )
    }

    /// Finds the cheapest applicable step, preferring consuming steps.
    fn best_candidate(
        &self,
        query: &ConjunctiveQuery,
        bound: &BTreeSet<Var>,
        consumed: &BTreeSet<usize>,
        used_enumerations: &BTreeSet<(usize, String)>,
    ) -> Result<Option<PlanStep>, CoreError> {
        let mut best: Option<(usize, bool, PlanStep)> = None; // (bound, !consumes, step)
        let mut consider = |candidate: PlanStep| {
            let key = (candidate.bound(), !candidate.consumes_atom());
            match &best {
                Some((b, nc, _)) if (*b, *nc) <= key => {}
                _ => best = Some((key.0, key.1, candidate)),
            }
        };

        for (i, atom) in query.atoms.iter().enumerate() {
            if consumed.contains(&i) {
                continue;
            }
            let rel = self.schema.relation(&atom.relation)?;
            let position_bound = |pos: usize| match &atom.terms[pos] {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(v),
            };
            let all_bound = (0..atom.terms.len()).all(position_bound);
            if all_bound {
                consider(PlanStep::Check { atom_index: i });
                continue;
            }
            // Plain constraints whose X positions are all bound.
            for constraint in self.access.constraints_on(&atom.relation) {
                let usable = constraint
                    .on
                    .iter()
                    .map(|a| rel.position_of(a))
                    .collect::<Result<Vec<_>, _>>()?
                    .into_iter()
                    .all(position_bound);
                if usable {
                    let probe_attributes: Vec<String> = rel
                        .attributes()
                        .iter()
                        .enumerate()
                        .filter(|(pos, _)| position_bound(*pos))
                        .map(|(_, a)| a.clone())
                        .collect();
                    consider(PlanStep::Fetch {
                        atom_index: i,
                        constraint: constraint.clone(),
                        probe_attributes,
                    });
                }
            }
            // Embedded constraints that can bind at least one new variable.
            for constraint in self.access.embedded_on(&atom.relation) {
                if used_enumerations.contains(&(i, constraint.to_string())) {
                    continue;
                }
                let inputs_ok = constraint
                    .from
                    .iter()
                    .map(|a| rel.position_of(a))
                    .collect::<Result<Vec<_>, _>>()?
                    .into_iter()
                    .all(position_bound);
                if !inputs_ok {
                    continue;
                }
                let binds_something = constraint
                    .onto
                    .iter()
                    .map(|a| rel.position_of(a))
                    .collect::<Result<Vec<_>, _>>()?
                    .into_iter()
                    .any(|pos| !position_bound(pos));
                if binds_something {
                    consider(PlanStep::Enumerate {
                        atom_index: i,
                        constraint: constraint.clone(),
                    });
                }
            }
        }
        Ok(best.map(|(_, _, step)| step))
    }

    /// Convenience: is the query x̄-plannable (and hence scale-independent by
    /// Theorem 4.2) for `x̄ = parameters`?
    pub fn is_plannable(&self, query: &ConjunctiveQuery, parameters: &[Var]) -> bool {
        self.plan(query, parameters).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_access::{facebook_access_schema, AccessSchema, EmbeddedConstraint};
    use si_data::schema::{social_schema, social_schema_dated};
    use si_query::parse_cq;

    fn q1() -> ConjunctiveQuery {
        parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap()
    }

    fn q3() -> ConjunctiveQuery {
        parse_cq(
            r#"Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), person(id, pn, "NYC"), restr(rid, rn, "NYC", "A")"#,
        )
        .unwrap()
    }

    #[test]
    fn q1_plan_matches_the_paper_recipe() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let plan = planner.plan(&q1(), &["p".into()]).unwrap();
        // Two steps: fetch friends of p, then probe person by id.
        assert_eq!(plan.steps().len(), 2);
        assert!(matches!(plan.steps()[0], PlanStep::Fetch { .. }));
        assert!(matches!(plan.steps()[1], PlanStep::Fetch { .. }));
        // Worst case: 5000 friend tuples + 5000 person probes of 1 tuple each
        // = 10000 tuples, matching Example 1.1(a)'s M ≥ 10000.
        assert_eq!(plan.static_cost().max_tuples, 10_000);
        assert_eq!(plan.output_variables(), vec!["name".to_string()]);
        assert!(plan.to_string().contains("fetch atom #0"));
    }

    #[test]
    fn q1_is_not_plannable_without_parameters_or_constraints() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let err = planner.plan(&q1(), &[]).unwrap_err();
        match err {
            CoreError::NotBoundedPlannable { blocked_atoms } => {
                assert_eq!(blocked_atoms.len(), 2);
            }
            other => panic!("unexpected error {other}"),
        }
        let planner_no_access = AccessSchema::new();
        let planner2 = BoundedPlanner::new(&schema, &planner_no_access);
        assert!(!planner2.is_plannable(&q1(), &["p".into()]));
    }

    #[test]
    fn constants_make_atoms_plannable_without_parameters() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q = parse_cq(r#"Q(name) :- friend(1, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q, &[]).unwrap();
        assert_eq!(plan.static_cost().max_tuples, 10_000);
    }

    #[test]
    fn q3_needs_embedded_constraints() {
        let schema = social_schema_dated();
        let plain = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &plain);
        assert!(!planner.is_plannable(&q3(), &["p".into(), "yy".into()]));

        let enriched = facebook_access_schema(5000)
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
        let planner = BoundedPlanner::new(&schema, &enriched);
        let plan = planner.plan(&q3(), &["p".into(), "yy".into()]).unwrap();
        // The plan uses at least one Enumerate step (the 366-day bound) and a
        // membership check for the visit atom itself.
        assert!(plan
            .steps()
            .iter()
            .any(|s| matches!(s, PlanStep::Enumerate { .. })));
        assert!(plan
            .steps()
            .iter()
            .any(|s| matches!(s, PlanStep::Check { .. })));
        // Still not plannable with p alone.
        assert!(!planner.is_plannable(&q3(), &["p".into()]));
    }

    #[test]
    fn equalities_to_constants_seed_the_plan() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q = parse_cq(r#"Q(name) :- friend(p, id), person(id, name, "NYC"), p = 1"#).unwrap();
        assert!(planner.is_plannable(&q, &[]));
        // And variable/variable equalities propagate bound-ness.
        let q = parse_cq(r#"Q(name) :- friend(q, id), person(id, name, "NYC"), q = p"#).unwrap();
        assert!(planner.is_plannable(&q, &["p".into()]));
        assert!(!planner.is_plannable(&q, &[]));
    }

    #[test]
    fn cheaper_constraints_are_preferred() {
        let schema = social_schema();
        // Two constraints on friend: a loose one on id1 and a key on both.
        let access = facebook_access_schema(5000).with(si_access::AccessConstraint::new(
            "friend",
            &["id1", "id2"],
            1,
            1,
        ));
        let planner = BoundedPlanner::new(&schema, &access);
        // With both endpoints bound the planner picks the key (bound 1) — via
        // a membership check or the tight constraint, never the 5000 one.
        let q = parse_cq("Q(a, b) :- friend(a, b)").unwrap();
        let plan = planner.plan(&q, &["a".into(), "b".into()]).unwrap();
        assert_eq!(plan.static_cost().max_tuples, 1);
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let bad = parse_cq("Q(x) :- enemy(x)").unwrap();
        assert!(planner.plan(&bad, &[]).is_err());
    }

    #[test]
    fn plan_step_accessors() {
        let fetch = PlanStep::Fetch {
            atom_index: 3,
            constraint: si_access::AccessConstraint::new("friend", &["id1"], 5000, 2),
            probe_attributes: vec!["id1".into()],
        };
        assert_eq!(fetch.bound(), 5000);
        assert_eq!(fetch.time(), 2);
        assert!(fetch.consumes_atom());
        assert_eq!(fetch.atom_index(), 3);
        let check = PlanStep::Check { atom_index: 1 };
        assert_eq!(check.bound(), 1);
        assert_eq!(check.time(), 1);
        let enumerate = PlanStep::Enumerate {
            atom_index: 0,
            constraint: EmbeddedConstraint::new("visit", &["yy"], &["mm"], 366, 3),
        };
        assert!(!enumerate.consumes_atom());
        assert!(enumerate.to_string().contains("enumerate"));
    }
}
