//! The decision problem QDSI: is `Q` scale-independent in `D` w.r.t. `M`?
//!
//! Section 3 of the paper shows that QDSI is Σp3-complete for CQ and
//! PSPACE-complete for FO (combined complexity), so any exact procedure is
//! necessarily exponential in the worst case.  This module implements the
//! algorithms underlying the *upper bound* proofs:
//!
//! * for monotone queries (CQ/UCQ) the witness search reduces to a weighted
//!   set-cover–style search over the *provenance* of the answers
//!   (each answer tuple must keep at least one of its derivations);
//! * for Boolean CQ the `O(1)` fast path of Corollary 3.2 applies whenever
//!   `‖Q‖ ≤ M`;
//! * for FO the procedure enumerates sub-instances of size ≤ `M` and solves
//!   the witness problem for each, exactly as in the proof of Theorem 3.1.
//!
//! All exponential searches are guarded by [`SearchLimits`] so that callers
//! (and the complexity benchmarks of experiment E1) control the blow-up
//! explicitly.

use crate::bounded::{execute_bounded, CostBasedPlanner};
use crate::error::CoreError;
use crate::si::{check_witness, AnyQuery, Witness};
use si_access::AccessIndexedDatabase;
use si_data::stats::DatabaseStats;
use si_data::{Database, Tuple};
use si_query::cq_eval::satisfying_bindings;
use si_query::{ConjunctiveQuery, Term};
use std::collections::BTreeSet;

/// Guards on the exponential parts of the exact decision procedures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum number of candidate subsets the FO procedure may enumerate.
    pub max_subsets: u64,
    /// Maximum number of derivation-choice combinations the CQ set-cover
    /// search may explore before giving up.
    pub max_branches: u64,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_subsets: 2_000_000,
            max_branches: 5_000_000,
        }
    }
}

/// How the decision was reached (reported for the experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionMethod {
    /// Boolean CQ with `‖Q‖ ≤ M` (Corollary 3.2): constant time.
    BooleanCqFastPath,
    /// The trivial witness `D_Q = D` fits the budget (`M ≥ |D|`).
    WholeDatabase,
    /// Monotone provenance cover search (CQ/UCQ).
    ProvenanceCover,
    /// Exhaustive sub-instance enumeration (FO).
    SubsetEnumeration,
    /// A bounded plan under the access schema produced the witness directly
    /// (see [`decide_qdsi_with_access`]): no exponential search ran.
    BoundedPlanFastPath,
}

/// Outcome of a QDSI decision.
#[derive(Debug, Clone, PartialEq)]
pub struct QdsiOutcome {
    /// Whether `Q ∈ SQ_L(D, M)`.
    pub scale_independent: bool,
    /// A minimal-size witness when one exists and the procedure produced one.
    pub witness: Option<Witness>,
    /// Which procedure produced the answer.
    pub method: DecisionMethod,
    /// Number of candidate witnesses / branches explored (work measure used
    /// by the Table 1 experiments).
    pub explored: u64,
}

/// Decides whether `query` is scale-independent in `db` w.r.t. `m`.
pub fn decide_qdsi(
    query: &AnyQuery,
    db: &Database,
    m: usize,
    limits: &SearchLimits,
) -> Result<QdsiOutcome, CoreError> {
    // Q ∈ SQ_L(D, |D|) always: the whole database is a witness.
    if m >= db.size() {
        return Ok(QdsiOutcome {
            scale_independent: true,
            witness: Some(Witness::from_facts(db.all_facts())),
            method: DecisionMethod::WholeDatabase,
            explored: 0,
        });
    }
    match query {
        AnyQuery::Cq(q) => decide_monotone(query, std::slice::from_ref(q), db, m, limits),
        AnyQuery::Ucq(q) => decide_monotone(query, &q.disjuncts, db, m, limits),
        AnyQuery::Fo(_) => decide_fo(query, db, m, limits),
    }
}

/// Decides QDSI with the help of an access schema, reusing the cost-based
/// planner's estimates before falling back to the exact searches.
///
/// When the cost-based planner finds a bounded plan for a closed CQ (no
/// execution-time parameters), executing the plan fetches a witness `D_Q`
/// directly: the facts the plan touches support every answer, so
/// `Q(D_Q) = Q(D)` by monotonicity.  If that witness fits the budget `m`
/// (verified by [`check_witness`]), the answer is "yes" without any
/// exponential search — the same statistics and cost estimates that drive
/// bounded execution thereby answer the controllability check.  In every
/// other case the decision falls through to [`decide_qdsi`].
pub fn decide_qdsi_with_access(
    query: &AnyQuery,
    adb: &AccessIndexedDatabase,
    m: usize,
    limits: &SearchLimits,
    stats: &DatabaseStats,
) -> Result<QdsiOutcome, CoreError> {
    if let AnyQuery::Cq(q) = query {
        let planner = CostBasedPlanner::new(adb.database().schema(), adb.access_schema(), stats);
        if let Ok(plan) = planner.plan(q, &[]) {
            let witness = execute_bounded(&plan, &[], adb)?.witness();
            if witness.size() <= m && check_witness(query, adb.database(), &witness, m)? {
                return Ok(QdsiOutcome {
                    scale_independent: true,
                    witness: Some(witness),
                    method: DecisionMethod::BoundedPlanFastPath,
                    explored: 0,
                });
            }
        }
    }
    decide_qdsi(query, adb.database(), m, limits)
}

/// Computes a minimum-size witness for a monotone query, or `None` when every
/// witness exceeds `m` facts.  Exposed for the benchmarks, which report the
/// witness sizes themselves.
pub fn minimal_witness_monotone(
    query: &AnyQuery,
    disjuncts: &[ConjunctiveQuery],
    db: &Database,
    m: usize,
    limits: &SearchLimits,
) -> Result<(Option<Witness>, u64), CoreError> {
    // Provenance: for every answer tuple, the alternative fact sets that
    // derive it (across all disjuncts).
    let answers = query.answer_set(db)?;
    if answers.is_empty() {
        // Monotone query with empty answer: the empty witness works.
        return Ok((Some(Witness::empty()), 0));
    }

    let mut per_answer: Vec<Vec<BTreeSet<(String, Tuple)>>> = Vec::new();
    let answer_list: Vec<Tuple> = answers.iter().cloned().collect();
    for answer in &answer_list {
        let mut derivations: Vec<BTreeSet<(String, Tuple)>> = Vec::new();
        for d in disjuncts {
            if d.arity() != answer.arity() {
                continue;
            }
            let bound = d.bind(
                &d.head
                    .iter()
                    .cloned()
                    .zip(answer.iter().cloned())
                    .collect::<Vec<_>>(),
            );
            let bindings = satisfying_bindings(&bound, db, None)?;
            for row in &bindings.rows {
                let mut facts: BTreeSet<(String, Tuple)> = BTreeSet::new();
                for atom in &bound.atoms {
                    let tuple: Option<Tuple> = atom
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Const(c) => Some(*c),
                            Term::Var(v) => bindings.vars.id_of(v).and_then(|id| row.get(id)),
                        })
                        .collect();
                    if let Some(tuple) = tuple {
                        facts.insert((atom.relation.clone(), tuple));
                    }
                }
                if !derivations.contains(&facts) {
                    derivations.push(facts);
                }
            }
        }
        if derivations.is_empty() {
            return Err(CoreError::Invariant(format!(
                "answer {answer} has no derivation — evaluator inconsistency"
            )));
        }
        // Prefer small derivations first to find good covers early.
        derivations.sort_by_key(BTreeSet::len);
        per_answer.push(derivations);
    }

    // Order answers by fewest alternatives first (most constrained first).
    let mut order: Vec<usize> = (0..per_answer.len()).collect();
    order.sort_by_key(|&i| per_answer[i].len());

    let mut best: Option<BTreeSet<(String, Tuple)>> = None;
    let mut explored: u64 = 0;
    let mut chosen: BTreeSet<(String, Tuple)> = BTreeSet::new();
    search_cover(
        &per_answer,
        &order,
        0,
        &mut chosen,
        &mut best,
        m,
        limits,
        &mut explored,
    )?;
    Ok((
        best.map(|facts| Witness::from_facts(facts.into_iter().collect())),
        explored,
    ))
}

#[allow(clippy::too_many_arguments)]
fn search_cover(
    per_answer: &[Vec<BTreeSet<(String, Tuple)>>],
    order: &[usize],
    depth: usize,
    chosen: &mut BTreeSet<(String, Tuple)>,
    best: &mut Option<BTreeSet<(String, Tuple)>>,
    m: usize,
    limits: &SearchLimits,
    explored: &mut u64,
) -> Result<(), CoreError> {
    // Prune on the budget and on the best solution found so far.
    let bound = best
        .as_ref()
        .map(|b| b.len().saturating_sub(1))
        .unwrap_or(m);
    if chosen.len() > bound {
        return Ok(());
    }
    if depth == order.len() {
        if best
            .as_ref()
            .map(|b| chosen.len() < b.len())
            .unwrap_or(true)
        {
            *best = Some(chosen.clone());
        }
        return Ok(());
    }
    *explored += 1;
    if *explored > limits.max_branches {
        return Err(CoreError::SearchSpaceTooLarge(format!(
            "provenance cover search exceeded {} branches",
            limits.max_branches
        )));
    }
    let answer = order[depth];
    for derivation in &per_answer[answer] {
        let added: Vec<(String, Tuple)> = derivation
            .iter()
            .filter(|f| !chosen.contains(*f))
            .cloned()
            .collect();
        for f in &added {
            chosen.insert(f.clone());
        }
        search_cover(
            per_answer,
            order,
            depth + 1,
            chosen,
            best,
            m,
            limits,
            explored,
        )?;
        for f in &added {
            chosen.remove(f);
        }
    }
    Ok(())
}

fn decide_monotone(
    query: &AnyQuery,
    disjuncts: &[ConjunctiveQuery],
    db: &Database,
    m: usize,
    limits: &SearchLimits,
) -> Result<QdsiOutcome, CoreError> {
    // Corollary 3.2 fast path: a true Boolean CQ/UCQ needs at most ‖Q‖ facts,
    // a false one needs none, so ‖Q‖ ≤ M answers "yes" in constant time.
    if query.is_boolean() {
        if let Some(tableau) = query.tableau_size() {
            if tableau <= m {
                return Ok(QdsiOutcome {
                    scale_independent: true,
                    witness: None,
                    method: DecisionMethod::BooleanCqFastPath,
                    explored: 0,
                });
            }
        }
    }
    let (witness, explored) = minimal_witness_monotone(query, disjuncts, db, m, limits)?;
    match witness {
        Some(w) if w.size() <= m => Ok(QdsiOutcome {
            scale_independent: true,
            witness: Some(w),
            method: DecisionMethod::ProvenanceCover,
            explored,
        }),
        other => Ok(QdsiOutcome {
            scale_independent: false,
            witness: other.filter(|w| w.size() <= m),
            method: DecisionMethod::ProvenanceCover,
            explored,
        }),
    }
}

fn decide_fo(
    query: &AnyQuery,
    db: &Database,
    m: usize,
    limits: &SearchLimits,
) -> Result<QdsiOutcome, CoreError> {
    let facts = db.all_facts();
    let n = facts.len();
    // Number of subsets of size ≤ m (checked against the guard).
    let mut subsets: u64 = 0;
    let mut acc: u64 = 1;
    for k in 0..=m.min(n) {
        if k > 0 {
            acc = acc.saturating_mul((n - k + 1) as u64) / k as u64;
        }
        subsets = subsets.saturating_add(acc);
        if subsets > limits.max_subsets {
            return Err(CoreError::SearchSpaceTooLarge(format!(
                "FO witness search over {n} facts with M = {m} exceeds {} candidate subsets",
                limits.max_subsets
            )));
        }
    }

    let target = query.answer_set(db)?;
    let mut explored: u64 = 0;
    // Enumerate subsets of size ≤ m by recursive choice.
    let mut current: Vec<(String, Tuple)> = Vec::new();
    let found = enumerate_subsets(
        query,
        db,
        &target,
        &facts,
        0,
        m,
        &mut current,
        &mut explored,
    )?;
    Ok(QdsiOutcome {
        scale_independent: found.is_some(),
        witness: found,
        method: DecisionMethod::SubsetEnumeration,
        explored,
    })
}

#[allow(clippy::too_many_arguments)]
fn enumerate_subsets(
    query: &AnyQuery,
    db: &Database,
    target: &BTreeSet<Tuple>,
    facts: &[(String, Tuple)],
    start: usize,
    remaining: usize,
    current: &mut Vec<(String, Tuple)>,
    explored: &mut u64,
) -> Result<Option<Witness>, CoreError> {
    *explored += 1;
    let sub = db.sub_database(current)?;
    if &query.answer_set(&sub)? == target {
        return Ok(Some(Witness::from_facts(current.clone())));
    }
    if remaining == 0 {
        return Ok(None);
    }
    for i in start..facts.len() {
        current.push(facts[i].clone());
        let found = enumerate_subsets(
            query,
            db,
            target,
            facts,
            i + 1,
            remaining - 1,
            current,
            explored,
        )?;
        current.pop();
        if found.is_some() {
            return Ok(found);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_data::schema::social_schema;
    use si_data::tuple;
    use si_query::ast::{c, v, Atom};
    use si_query::{ConjunctiveQuery, FoQuery, Formula, UnionQuery};

    fn db() -> Database {
        let mut db = Database::empty(social_schema());
        db.insert_all(
            "person",
            vec![
                tuple![1, "ann", "NYC"],
                tuple![2, "bob", "NYC"],
                tuple![3, "cat", "NYC"],
                tuple![4, "dan", "LA"],
            ],
        )
        .unwrap();
        db.insert_all(
            "friend",
            vec![tuple![1, 2], tuple![1, 3], tuple![1, 4], tuple![2, 3]],
        )
        .unwrap();
        db
    }

    fn q1_bound(p: i64) -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            "Q1",
            vec!["name".into()],
            vec![
                Atom::new("friend", vec![c(p), v("id")]),
                Atom::new("person", vec![v("id"), v("name"), c("NYC")]),
            ],
        )
    }

    #[test]
    fn whole_database_budget_is_always_yes() {
        let q: AnyQuery = q1_bound(1).into();
        let d = db();
        let out = decide_qdsi(&q, &d, d.size(), &SearchLimits::default()).unwrap();
        assert!(out.scale_independent);
        assert_eq!(out.method, DecisionMethod::WholeDatabase);
    }

    #[test]
    fn q1_needs_two_facts_per_answer() {
        let q: AnyQuery = q1_bound(1).into();
        let d = db();
        // Person 1 has NYC friends 2 and 3: answers {bob, cat}; each answer
        // needs its friend edge and its person tuple → minimum witness 4.
        let out = decide_qdsi(&q, &d, 4, &SearchLimits::default()).unwrap();
        assert!(out.scale_independent);
        assert_eq!(out.method, DecisionMethod::ProvenanceCover);
        let w = out.witness.unwrap();
        assert_eq!(w.size(), 4);
        assert!(crate::si::check_witness(&q, &d, &w, 4).unwrap());

        let out = decide_qdsi(&q, &d, 3, &SearchLimits::default()).unwrap();
        assert!(!out.scale_independent);
    }

    #[test]
    fn shared_facts_are_counted_once() {
        // Q(n1, n2) :- friend(x, y), person(y, n1, "NYC"), person(y, n2, "NYC")
        // Answers repeat the same person fact; the cover must share it.
        let q = ConjunctiveQuery::new(
            "Q",
            vec!["y".into()],
            vec![
                Atom::new("friend", vec![v("x"), v("y")]),
                Atom::new("person", vec![v("y"), v("n"), c("NYC")]),
            ],
        );
        let d = db();
        // Answers: y ∈ {2, 3} (via friend(1,2); friend(1,3)/friend(2,3)).
        let q: AnyQuery = q.into();
        let out = decide_qdsi(&q, &d, 4, &SearchLimits::default()).unwrap();
        assert!(out.scale_independent);
        assert_eq!(out.witness.unwrap().size(), 4);
        let out = decide_qdsi(&q, &d, 3, &SearchLimits::default()).unwrap();
        assert!(!out.scale_independent);
    }

    #[test]
    fn boolean_cq_fast_path() {
        let q: AnyQuery = ConjunctiveQuery::new(
            "B",
            vec![],
            vec![
                Atom::new("friend", vec![v("x"), v("y")]),
                Atom::new("person", vec![v("y"), v("n"), c("NYC")]),
            ],
        )
        .into();
        let d = db();
        let out = decide_qdsi(&q, &d, 2, &SearchLimits::default()).unwrap();
        assert!(out.scale_independent);
        assert_eq!(out.method, DecisionMethod::BooleanCqFastPath);
        // With M = 1 the fast path does not apply; the true minimum is 2.
        let out = decide_qdsi(&q, &d, 1, &SearchLimits::default()).unwrap();
        assert!(!out.scale_independent);
        assert_eq!(out.method, DecisionMethod::ProvenanceCover);
    }

    #[test]
    fn false_boolean_cq_has_empty_witness() {
        let q: AnyQuery = ConjunctiveQuery::new(
            "B",
            vec![],
            vec![Atom::new("person", vec![v("x"), v("n"), c("Tokyo")])],
        )
        .into();
        let d = db();
        let out = decide_qdsi(&q, &d, 0, &SearchLimits::default()).unwrap();
        assert!(out.scale_independent);
    }

    #[test]
    fn ucq_witness_covers_all_disjunct_answers() {
        let u = UnionQuery::new("U", vec![q1_bound(1), q1_bound(2)]).unwrap();
        let q: AnyQuery = u.into();
        let d = db();
        // Answers: from p=1: bob, cat; from p=2: cat. "cat" can be derived
        // via either disjunct; the cover picks the cheapest combination:
        // {friend(1,2), person(2)}, {friend(1,3) or friend(2,3), person(3)} → 4 facts.
        let out = decide_qdsi(&q, &d, 4, &SearchLimits::default()).unwrap();
        assert!(out.scale_independent);
        assert_eq!(out.witness.unwrap().size(), 4);
        let out = decide_qdsi(&q, &d, 3, &SearchLimits::default()).unwrap();
        assert!(!out.scale_independent);
    }

    #[test]
    fn fo_subset_enumeration_handles_negation() {
        // Q() := ∃x,n,c (person(x,n,c) ∧ ¬∃y friend(x,y))
        // "some person has no friends" — true (person 4 has no outgoing edge
        // … actually person 4 has none; person 3 has none either).
        let body = Formula::exists(
            vec!["x".into(), "n".into(), "ci".into()],
            Formula::Atom(Atom::new("person", vec![v("x"), v("n"), v("ci")])).and(
                Formula::exists(
                    vec!["y".into()],
                    Formula::Atom(Atom::new("friend", vec![v("x"), v("y")])),
                )
                .negate(),
            ),
        );
        let q: AnyQuery = FoQuery::boolean("NoFriends", body).into();
        let d = db();
        // A single person fact whose id has no friend edge in the *witness*
        // suffices: note the witness may drop friend edges freely because the
        // query is not monotone.  So M = 1 works.
        let out = decide_qdsi(&q, &d, 1, &SearchLimits::default()).unwrap();
        assert!(out.scale_independent);
        assert_eq!(out.method, DecisionMethod::SubsetEnumeration);
        assert_eq!(out.witness.unwrap().size(), 1);

        // M = 0: the empty database makes the query false while Q(D) is true.
        let out = decide_qdsi(&q, &d, 0, &SearchLimits::default()).unwrap();
        assert!(!out.scale_independent);
    }

    #[test]
    fn fo_search_guard_triggers_on_large_budgets() {
        let q: AnyQuery = FoQuery::boolean(
            "B",
            Formula::exists(
                vec!["x".into(), "y".into()],
                Formula::Atom(Atom::new("friend", vec![v("x"), v("y")])),
            ),
        )
        .into();
        let d = db();
        let limits = SearchLimits {
            max_subsets: 5,
            max_branches: 5,
        };
        let err = decide_qdsi(&q, &d, 4, &limits).unwrap_err();
        assert!(matches!(err, CoreError::SearchSpaceTooLarge(_)));
    }

    #[test]
    fn cover_search_guard_triggers() {
        let q: AnyQuery = q1_bound(1).into();
        let d = db();
        let limits = SearchLimits {
            max_subsets: 1,
            max_branches: 1,
        };
        let err = decide_qdsi(&q, &d, 2, &limits).unwrap_err();
        assert!(matches!(err, CoreError::SearchSpaceTooLarge(_)));
    }

    #[test]
    fn access_fast_path_answers_via_bounded_plan() {
        use si_access::{facebook_access_schema, AccessIndexedDatabase};

        let q: AnyQuery = q1_bound(1).into();
        let adb = AccessIndexedDatabase::new(db(), facebook_access_schema(5000)).unwrap();
        let stats = adb.statistics();
        // Person 1 has NYC friends 2 and 3: the plan fetches 3 friend edges
        // and 3 person tuples (one LA) — a 6-fact witness, within m = 6.
        let out = decide_qdsi_with_access(&q, &adb, 6, &SearchLimits::default(), &stats).unwrap();
        assert!(out.scale_independent);
        assert_eq!(out.method, DecisionMethod::BoundedPlanFastPath);
        assert_eq!(out.explored, 0);
        let w = out.witness.unwrap();
        assert!(w.size() <= 6);
        assert!(crate::si::check_witness(&q, adb.database(), &w, 6).unwrap());

        // A tighter budget defeats the plan witness and falls back to the
        // exact provenance search (minimum witness is 4).
        let out = decide_qdsi_with_access(&q, &adb, 4, &SearchLimits::default(), &stats).unwrap();
        assert!(out.scale_independent);
        assert_eq!(out.method, DecisionMethod::ProvenanceCover);

        // Open queries (free variables, no parameters supplied) cannot take
        // the fast path and fall back too.
        let open: AnyQuery = ConjunctiveQuery::new(
            "Q1",
            vec!["name".into()],
            vec![
                Atom::new("friend", vec![v("p"), v("id")]),
                Atom::new("person", vec![v("id"), v("name"), c("NYC")]),
            ],
        )
        .into();
        let out =
            decide_qdsi_with_access(&open, &adb, 4, &SearchLimits::default(), &stats).unwrap();
        assert_ne!(out.method, DecisionMethod::BoundedPlanFastPath);
    }

    #[test]
    fn monotone_empty_answer_gives_empty_witness() {
        let q: AnyQuery = q1_bound(99).into();
        let d = db();
        let out = decide_qdsi(&q, &d, 0, &SearchLimits::default()).unwrap();
        assert!(out.scale_independent);
        assert_eq!(out.witness.unwrap().size(), 0);
    }
}
