//! Execution of bounded plans against any [`AccessSource`].
//!
//! The executor realises the evaluation strategy from the proof of
//! Theorem 4.2: it maintains a set of partial assignments for the query's
//! variables and extends them step by step, touching the base data only
//! through the access-schema-mediated retrieval primitives of
//! [`AccessSource`] (an owned [`si_access::AccessIndexedDatabase`], a pinned
//! [`si_access::ShardedAccess`] version, …).  The result records the
//! answers, the witness `D_Q` (the base facts actually used) and the exact
//! access cost.
//!
//! Compilation lives in the planner: every [`BoundedPlan`] carries its
//! physical form — variables numbered into row slots, each step's probe
//! resolved to a relation id and pushed/residual positions, each probe key
//! a program of constants and slots.  A request binds its parameter values
//! into the seed row and runs the steps; it does no name resolution and
//! builds no strings.
//!
//! The partial assignments are rows of one flat `Vec<Option<Value>>` slab,
//! `stride` values each (one per variable, and at least one so that a
//! variable-free query still has rows).  Extending a row by a fetched tuple
//! is an `extend_from_slice` of the row plus in-place binds, undone by a
//! truncate when the tuple does not match.
//!
//! Fetches go through the borrowing primitive
//! [`AccessSource::for_each_via`]: each fetched tuple is matched against the
//! atom in place without being cloned.  The witness is recorded flat — the
//! used facts' values appended to one arena, plus an `(atom, offset)` entry
//! per fact — and only rendered into a [`Witness`] of `(relation, tuple)`
//! facts when [`BoundedAnswer::witness`] is called, so a serving path that
//! never reads it never pays for it.
//!
//! Execution has two phases — run the steps ([`fetch_bounded`]), then
//! finalise (equality filter, projection, dedup) — so that requests sharing
//! `(plan, parameter values, snapshot)` can run the fetch once and each
//! finalise from the shared [`SharedFetch`].

use crate::bounded::physical::{PhysicalPlan, SlotTerm, StepOp};
use crate::bounded::plan::BoundedPlan;
use crate::error::CoreError;
use crate::si::Witness;
use si_access::AccessSource;
use si_data::{MeterSnapshot, Tuple, TupleSet, Value};
use std::sync::Arc;

/// The result of executing a bounded plan.
///
/// The witness `D_Q` — the base facts fetched and used by the evaluation —
/// is kept in the flat form the executor recorded it in and rendered by
/// [`BoundedAnswer::witness`] on demand.  Equality compares answers, access
/// cost and the rendered witness.
#[derive(Debug, Clone)]
pub struct BoundedAnswer {
    /// The answer tuples, projected onto the plan's output variables.
    pub answers: Vec<Tuple>,
    /// The access cost of this execution (difference of meter snapshots).
    pub accesses: MeterSnapshot,
    pub(crate) witness_log: WitnessLog,
}

impl BoundedAnswer {
    /// An answer with an empty witness (evaluations that do not track one).
    pub(crate) fn without_witness(answers: Vec<Tuple>, accesses: MeterSnapshot) -> Self {
        BoundedAnswer {
            answers,
            accesses,
            witness_log: WitnessLog::default(),
        }
    }

    /// The witness `D_Q`: every base fact the evaluation fetched and used,
    /// deduplicated, in the order the executor first used it (plan-step
    /// major, row order within a step).
    ///
    /// Rendered from the recorded log on each call: it allocates one
    /// `(relation, tuple)` pair per distinct fact, so callers that need it
    /// more than once should keep the result.
    pub fn witness(&self) -> Witness {
        self.witness_log.render()
    }
}

impl PartialEq for BoundedAnswer {
    fn eq(&self, other: &Self) -> bool {
        self.answers == other.answers
            && self.accesses == other.accesses
            && self.witness() == other.witness()
    }
}

impl Eq for BoundedAnswer {}

/// The facts an execution used, recorded flat: one value arena plus a
/// `(atom index, offset)` entry per fact, in the order they were used.  A
/// fact's values run from its offset to the next fact's; its arity is the
/// atom's.  Relation names are attached once, when the answer is finalised,
/// by sharing the plan's name list.
#[derive(Debug, Clone, Default)]
pub(crate) struct WitnessLog {
    /// Relation name per atom of the plan's query.
    relations: Arc<[String]>,
    values: Vec<Value>,
    facts: Vec<(usize, usize)>,
}

impl WitnessLog {
    fn push(&mut self, atom: usize, values: &[Value]) {
        self.facts.push((atom, self.values.len()));
        self.values.extend_from_slice(values);
    }

    /// Renders the recorded facts as `(relation, tuple)` pairs,
    /// deduplicated in first-use order.
    fn render(&self) -> Witness {
        let facts = self.facts.iter().enumerate().map(|(i, &(atom, start))| {
            let end = self
                .facts
                .get(i + 1)
                .map_or(self.values.len(), |&(_, next)| next);
            let values = self.values[start..end].to_vec();
            (self.relations[atom].clone(), Tuple::new(values))
        });
        Witness::from_facts(facts.collect())
    }
}

/// Refuses a source whose schema does not have each step's relation at the
/// id the plan resolved it to: a plan compiled for one schema would
/// otherwise index the wrong relation of another.
fn check_source<A: AccessSource>(physical: &PhysicalPlan, adb: &A) -> Result<(), CoreError> {
    let schema = adb.db_schema();
    for step in &physical.steps {
        let (id, name) = step.op.relation();
        let found = schema.relation_at(id).map(|r| r.name());
        if found != Some(name) {
            return Err(CoreError::Invariant(format!(
                "plan reads `{name}` as relation #{id}, where the source's schema has {}",
                found.map_or("no relation".to_owned(), |f| format!("`{f}`"))
            )));
        }
    }
    Ok(())
}

/// The seed slab: the plan's seed row with the parameter values bound, or
/// no row when they contradict its constant equalities.
fn seed_rows(
    physical: &PhysicalPlan,
    parameter_values: &[Value],
) -> Result<Vec<Option<Value>>, CoreError> {
    if parameter_values.len() != physical.params.len() {
        return Err(CoreError::Invariant(format!(
            "plan expects {} parameter values, got {}",
            physical.params.len(),
            parameter_values.len()
        )));
    }
    if !physical.seed_consistent {
        return Ok(Vec::new());
    }
    let mut row = physical.seed.clone();
    for (&slot, &value) in physical.params.iter().zip(parameter_values) {
        match row[slot] {
            Some(existing) if existing != value => return Ok(Vec::new()),
            _ => row[slot] = Some(value),
        }
    }
    Ok(row)
}

/// Appends `row` extended by matching `terms` against `values` (a tuple
/// borrowed from storage) to the slab `next`; appends nothing and returns
/// `false` on any inconsistency (arity, constant mismatch or conflicting
/// binding).
fn extend_row(
    next: &mut Vec<Option<Value>>,
    row: &[Option<Value>],
    terms: &[SlotTerm],
    values: &[Value],
) -> bool {
    if values.len() != terms.len() {
        return false;
    }
    let base = next.len();
    next.extend_from_slice(row);
    let extended = &mut next[base..];
    for (term, &value) in terms.iter().zip(values) {
        let consistent = match *term {
            SlotTerm::Const(c) => c == value,
            SlotTerm::Slot(slot) => match extended[slot] {
                Some(bound) => bound == value,
                None => {
                    extended[slot] = Some(value);
                    true
                }
            },
        };
        if !consistent {
            next.truncate(base);
            return false;
        }
    }
    true
}

/// Evaluates a key program over `row` into `key`.
fn fill_key(key: &mut Vec<Value>, program: &[SlotTerm], row: &[Option<Value>]) {
    key.clear();
    key.extend(
        program
            .iter()
            .map(|term| term.value(row).expect("compiled key slots are bound")),
    );
}

/// Runs the plan's compiled steps over the slab `rows`, recording the base
/// facts used in `witness`.
fn run_steps<A: AccessSource>(
    physical: &PhysicalPlan,
    mut rows: Vec<Option<Value>>,
    adb: &A,
    witness: &mut WitnessLog,
) -> Result<Vec<Option<Value>>, CoreError> {
    let stride = physical.stride;
    let mut key: Vec<Value> = Vec::new();
    for step in &physical.steps {
        if rows.is_empty() {
            break;
        }
        for row in rows.chunks_exact_mut(stride) {
            for &(from, to) in &step.copies {
                row[to] = row[from];
            }
        }
        let mut next: Vec<Option<Value>> = Vec::new();
        match &step.op {
            StepOp::Fetch {
                probe,
                key: program,
                terms,
            } => {
                for row in rows.chunks_exact(stride) {
                    fill_key(&mut key, program, row);
                    adb.for_each_via(probe, &key, &mut |t| {
                        if extend_row(&mut next, row, terms, t.values()) {
                            witness.push(step.atom, t.values());
                        }
                    })?;
                }
            }
            StepOp::Enumerate {
                probe,
                key: program,
                onto,
                terms,
            } => {
                for row in rows.chunks_exact(stride) {
                    fill_key(&mut key, program, row);
                    for proj in adb.fetch_embedded_via(probe, &key, onto)? {
                        extend_row(&mut next, row, terms, proj.values());
                    }
                }
            }
            StepOp::Check {
                relation,
                relation_name,
                terms,
            } => {
                // The probed values are assembled in the reused key buffer:
                // no tuple is built to test membership.
                for row in rows.chunks_exact(stride) {
                    fill_key(&mut key, terms, row);
                    if adb.contains_at(*relation, relation_name, &key)? {
                        witness.push(step.atom, &key);
                        next.extend_from_slice(row);
                    }
                }
            }
        }
        rows = next;
    }
    Ok(rows)
}

/// Applies the final equality filter and output projection to the slab
/// `rows` and assembles the [`BoundedAnswer`].
fn finalize(
    physical: &PhysicalPlan,
    rows: &[Option<Value>],
    mut witness: WitnessLog,
    accesses: MeterSnapshot,
) -> Result<BoundedAnswer, CoreError> {
    let mut answers = TupleSet::new();
    for row in rows.chunks_exact(physical.stride) {
        // Equalities between variables bound by different steps.
        let keep = physical
            .var_var_eqs
            .iter()
            .all(|&(a, b)| matches!((row[a], row[b]), (Some(va), Some(vb)) if va == vb))
            && physical
                .var_const_eqs
                .iter()
                .all(|&(slot, c)| row[slot] == Some(c));
        if !keep {
            continue;
        }
        // Project onto the output variables, deduplicating in derivation
        // order.
        let values = physical
            .outputs
            .iter()
            .map(|&slot| row[slot])
            .collect::<Option<Vec<Value>>>()
            .ok_or_else(|| {
                CoreError::Invariant("output variable not bound at the end of the plan".into())
            })?;
        answers.insert(Tuple::new(values));
    }
    witness.relations = Arc::clone(&physical.relations);
    Ok(BoundedAnswer {
        answers: answers.into_vec(),
        accesses,
        witness_log: witness,
    })
}

/// The completed fetch phase of a bounded execution, before any request
/// finalised an answer from it.
///
/// Everything up to and including the plan steps depends only on
/// `(plan, parameter values, snapshot)` — not on *which* of several
/// concurrent requests asked — so N requests with an identical canonical
/// shape, identical parameter values and the same pinned snapshot epoch can
/// run the fetch **once** and each finalise its own [`BoundedAnswer`] from
/// the shared surviving rows.  [`SharedFetch::finalize_one`] touches no base
/// data: the per-request phase is the equality filter, output projection and
/// dedup of the finalisation pass, so its marginal data-access cost is zero and the
/// fetch cost ([`SharedFetch::accesses`]) is charged once for the group.
///
/// Every finalisation is bit-identical to what [`execute_bounded`] would
/// have produced for the same `(plan, values, snapshot)` — same answer
/// order, same witness, same access snapshot.
pub struct SharedFetch {
    /// The surviving rows, `stride` values each.
    rows: Vec<Option<Value>>,
    stride: usize,
    witness: WitnessLog,
    accesses: MeterSnapshot,
}

impl SharedFetch {
    /// The access cost of the fetch phase — charged once per shared fetch,
    /// however many requests finalise from it.
    pub fn accesses(&self) -> MeterSnapshot {
        self.accesses
    }

    /// Number of partial assignments that survived the plan steps.
    pub fn surviving_rows(&self) -> usize {
        self.rows.len() / self.stride
    }

    /// Finalises one request's answer from the shared fetched slice —
    /// equality filter, projection, dedup; zero base-data accesses.  `plan`
    /// must be the plan this fetch ran (same `Arc` in the serving layer).
    pub fn finalize_one(&self, plan: &BoundedPlan) -> Result<BoundedAnswer, CoreError> {
        debug_assert_eq!(plan.physical().stride, self.stride);
        finalize(
            plan.physical(),
            &self.rows,
            self.witness.clone(),
            self.accesses,
        )
    }

    /// Finalises the last answer, consuming the fetch (the single-request
    /// path: no clone of the witness).
    pub fn into_answer(self, plan: &BoundedPlan) -> Result<BoundedAnswer, CoreError> {
        debug_assert_eq!(plan.physical().stride, self.stride);
        finalize(plan.physical(), &self.rows, self.witness, self.accesses)
    }
}

/// Runs the fetch phase of `plan` — seed, every plan step — over `adb` and
/// returns the [`SharedFetch`] requests finalise answers from.
///
/// `parameter_values` must supply one value per plan parameter, in order.
pub fn fetch_bounded<A: AccessSource>(
    plan: &BoundedPlan,
    parameter_values: &[Value],
    adb: &A,
) -> Result<SharedFetch, CoreError> {
    let physical = plan.physical();
    check_source(physical, adb)?;
    let before = adb.meter_snapshot();
    let mut witness = WitnessLog::default();
    let seed = seed_rows(physical, parameter_values)?;
    let rows = run_steps(physical, seed, adb, &mut witness)?;
    let accesses = adb.meter_snapshot().since(&before);
    Ok(SharedFetch {
        rows,
        stride: physical.stride,
        witness,
        accesses,
    })
}

/// Executes `plan` with the given parameter values over `adb`.
///
/// `parameter_values` must supply one value per plan parameter, in order.
pub fn execute_bounded<A: AccessSource>(
    plan: &BoundedPlan,
    parameter_values: &[Value],
    adb: &A,
) -> Result<BoundedAnswer, CoreError> {
    fetch_bounded(plan, parameter_values, adb)?.into_answer(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::plan::BoundedPlanner;
    use si_access::{facebook_access_schema, AccessIndexedDatabase, EmbeddedConstraint};
    use si_data::schema::{social_schema, social_schema_dated};
    use si_data::{tuple, Database};
    use si_query::{evaluate_cq, parse_cq};

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
    fn q1_bounded_execution_matches_naive_and_is_bounded() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();
        let adb = AccessIndexedDatabase::new(social_db(), access).unwrap();

        let result = execute_bounded(&plan, &[Value::int(1)], &adb).unwrap();
        let mut answers = result.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["bob"], tuple!["dan"]]);

        // Same answers as naive evaluation with p bound to 1.
        let bound = q1.bind(&[("p".into(), Value::int(1))]);
        let mut naive = evaluate_cq(&bound, adb.database(), None).unwrap();
        naive.sort();
        assert_eq!(answers, naive);

        // Access cost: 3 friend tuples + 3 person probes (1 tuple each for
        // NYC friends 2, 4 and LA friend 3 which yields a tuple that fails
        // the city filter → fetched but filtered by the probe itself).
        assert!(result.accesses.tuples_fetched <= 6);
        assert!(result.accesses.full_scans == 0);

        // The witness really is a witness.
        assert!(crate::si::check_witness(
            &crate::si::AnyQuery::Cq(bound),
            adb.database(),
            &result.witness(),
            result.witness().size()
        )
        .unwrap());
    }

    #[test]
    fn bounded_execution_for_person_without_nyc_friends_is_empty() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();
        let adb = AccessIndexedDatabase::new(social_db(), access).unwrap();
        // Person 4 has no outgoing friend edges.
        let result = execute_bounded(&plan, &[Value::int(4)], &adb).unwrap();
        assert!(result.answers.is_empty());
        assert_eq!(result.witness().size(), 0);
    }

    #[test]
    fn q2_with_restaurant_key_is_bounded() {
        // Q2 for a fixed person: friend, visit, person, restr.  visit has no
        // constraint in the plain Facebook schema, so add one on id.
        let schema = social_schema();
        let access = facebook_access_schema(5000).with(si_access::AccessConstraint::new(
            "visit",
            &["id"],
            1000,
            1,
        ));
        let planner = BoundedPlanner::new(&schema, &access);
        let q2 = parse_cq(
            r#"Q2(p, rn) :- friend(p, id), visit(id, rid), person(id, pn, "NYC"), restr(rid, rn, "NYC", "A")"#,
        )
        .unwrap();
        let plan = planner.plan(&q2, &["p".into()]).unwrap();
        let adb = AccessIndexedDatabase::new(social_db(), access).unwrap();
        let result = execute_bounded(&plan, &[Value::int(1)], &adb).unwrap();
        assert_eq!(result.answers, vec![tuple!["sushi"]]);
        // Cross-check against naive evaluation.
        let bound = q2.bind(&[("p".into(), Value::int(1))]);
        assert_eq!(
            result.answers,
            evaluate_cq(&bound, adb.database(), None).unwrap()
        );
    }

    #[test]
    fn q3_embedded_plan_executes_correctly() {
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
        let planner = BoundedPlanner::new(&schema, &access);
        let q3 = parse_cq(
            r#"Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), person(id, pn, "NYC"), restr(rid, rn, "NYC", "A")"#,
        )
        .unwrap();
        let plan = planner.plan(&q3, &["p".into(), "yy".into()]).unwrap();

        let mut db = Database::empty(schema.clone());
        db.insert_all(
            "person",
            vec![
                tuple![1, "ann", "NYC"],
                tuple![2, "bob", "NYC"],
                tuple![3, "cat", "LA"],
            ],
        )
        .unwrap();
        db.insert_all("friend", vec![tuple![1, 2], tuple![1, 3]])
            .unwrap();
        db.insert_all(
            "restr",
            vec![
                tuple![10, "sushi", "NYC", "A"],
                tuple![11, "taco", "NYC", "B"],
            ],
        )
        .unwrap();
        db.insert_all(
            "visit",
            vec![
                tuple![2, 10, 2013, 5, 1],
                tuple![2, 11, 2013, 6, 2],
                tuple![3, 10, 2013, 7, 3],
                tuple![2, 10, 2014, 1, 1],
            ],
        )
        .unwrap();
        let adb = AccessIndexedDatabase::new(db, access).unwrap();
        let result = execute_bounded(&plan, &[Value::int(1), Value::int(2013)], &adb).unwrap();
        // Friend 2 (NYC) visited sushi (A-rated, NYC) in 2013; taco is
        // B-rated; friend 3 lives in LA.
        assert_eq!(result.answers, vec![tuple!["sushi"]]);
        // Cross-check with naive evaluation of the bound query.
        let bound = q3.bind(&[("p".into(), Value::int(1)), ("yy".into(), Value::int(2013))]);
        assert_eq!(
            result.answers,
            evaluate_cq(&bound, adb.database(), None).unwrap()
        );
        assert!(result.accesses.full_scans == 0);
    }

    #[test]
    fn parameter_arity_mismatch_is_rejected() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();
        let adb = AccessIndexedDatabase::new(social_db(), facebook_access_schema(5000)).unwrap();
        assert!(matches!(
            execute_bounded(&plan, &[], &adb),
            Err(CoreError::Invariant(_))
        ));
    }

    #[test]
    fn contradictory_equalities_produce_empty_answers() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q = parse_cq(r#"Q(name) :- friend(1, id), person(id, name, "NYC"), 1 = 2"#).unwrap();
        let plan = planner.plan(&q, &[]).unwrap();
        let adb = AccessIndexedDatabase::new(social_db(), access).unwrap();
        let result = execute_bounded(&plan, &[], &adb).unwrap();
        assert!(result.answers.is_empty());
        assert_eq!(result.accesses.tuples_fetched, 0);
    }

    #[test]
    fn shared_fetch_finalisations_are_bit_identical_to_execute_bounded() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();
        let adb = AccessIndexedDatabase::new(social_db(), access).unwrap();

        let reference = execute_bounded(&plan, &[Value::int(1)], &adb).unwrap();
        let fetch = fetch_bounded(&plan, &[Value::int(1)], &adb).unwrap();
        assert_eq!(fetch.accesses(), reference.accesses);
        // Every finalisation from the shared slice equals the reference —
        // same answer order, same witness, same access snapshot.
        for _ in 0..3 {
            let one = fetch.finalize_one(&plan).unwrap();
            assert_eq!(one.answers, reference.answers);
            assert_eq!(one.witness(), reference.witness());
            assert_eq!(one.accesses, reference.accesses);
        }
        let last = fetch.into_answer(&plan).unwrap();
        assert_eq!(last.answers, reference.answers);
        assert_eq!(last.witness(), reference.witness());
        assert_eq!(last.accesses, reference.accesses);
    }

    #[test]
    fn finalize_one_touches_no_base_data() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();
        let adb = AccessIndexedDatabase::new(social_db(), access).unwrap();

        let fetch = fetch_bounded(&plan, &[Value::int(1)], &adb).unwrap();
        assert!(fetch.surviving_rows() > 0);
        let after_fetch = adb.meter_snapshot();
        for _ in 0..5 {
            fetch.finalize_one(&plan).unwrap();
        }
        // The per-request phase is filter + projection + dedup over the
        // already-fetched slice: the meter must not have moved at all.
        assert_eq!(adb.meter_snapshot(), after_fetch);
    }

    #[test]
    fn shared_fetch_of_empty_result_finalises_empty() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();
        let adb = AccessIndexedDatabase::new(social_db(), access).unwrap();
        // Person 4 has no outgoing friend edges.
        let fetch = fetch_bounded(&plan, &[Value::int(4)], &adb).unwrap();
        let one = fetch.finalize_one(&plan).unwrap();
        assert!(one.answers.is_empty());
        assert_eq!(one.witness().size(), 0);
    }

    #[test]
    fn variable_free_queries_run_on_every_execution_path() {
        use si_data::{PartitionMap, ShardedSnapshotStore, SnapshotStore};
        use std::sync::Arc;
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let mut db = Database::empty(schema.clone());
        db.insert_all(
            "person",
            vec![tuple![1, "ann", "NYC"], tuple![2, "bob", "NYC"]],
        )
        .unwrap();
        db.insert("friend", tuple![1, 2]).unwrap();
        for (relation, attrs) in access.required_indexes() {
            if !attrs.is_empty() {
                db.declare_index(&relation, &attrs).unwrap();
            }
        }
        let store = SnapshotStore::new(db.clone());
        let partition = PartitionMap::new()
            .with("person", "id")
            .with("friend", "id1");
        let sharded: Vec<_> = [1usize, 3]
            .into_iter()
            .map(|n| ShardedSnapshotStore::new(db.clone(), partition.clone(), n).unwrap())
            .collect();
        let owned = AccessIndexedDatabase::new(db, access.clone()).unwrap();
        let access = Arc::new(access.clone());

        // (query, answers, tuples fetched, witness size)
        let cases: [(&str, Vec<Tuple>, u64, usize); 4] = [
            ("B() :- friend(1, 2)", vec![tuple![]], 1, 1),
            ("B() :- friend(1, 3)", vec![], 0, 0),
            (
                r#"B() :- friend(1, x), person(x, n, "NYC")"#,
                vec![tuple![]],
                2,
                2,
            ),
            ("B() :- friend(1, 2), 1 = 2", vec![], 0, 0),
        ];
        for (text, answers, fetched, witness) in cases {
            let plan = planner.plan(&parse_cq(text).unwrap(), &[]).unwrap();
            let reference = execute_bounded(&plan, &[], &owned).unwrap();
            assert_eq!(reference.answers, answers, "{text}");
            assert_eq!(reference.accesses.tuples_fetched, fetched, "{text}");
            assert_eq!(reference.witness().size(), witness, "{text}");

            let snap =
                si_access::SnapshotAccess::<si_data::AccessMeter>::new(store.pin(), access.clone());
            let mut runs = vec![("sequential snapshot", execute_bounded(&plan, &[], &snap))];
            let shared = fetch_bounded(&plan, &[], &snap).unwrap();
            runs.push(("finalize_one", shared.finalize_one(&plan)));
            for store in &sharded {
                let view = store.pin();
                let source = si_access::ShardedAccess::<si_data::AccessMeter>::new(
                    view.clone(),
                    access.clone(),
                );
                runs.push(("sharded", execute_bounded(&plan, &[], &source)));
            }
            for (path, run) in runs {
                assert_eq!(run.unwrap(), reference, "{text} on the {path} path");
            }
        }
    }

    #[test]
    fn a_plan_refuses_a_source_whose_schema_lays_relations_out_differently() {
        use si_data::schema::RelationSchema;
        use si_data::{DatabaseSchema, PartitionMap, ShardedSnapshotStore, SnapshotStore};
        use std::sync::Arc;
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();

        // The same relations plus `enemy`, which sorts first and so shifts
        // every relation id the plan resolved.
        let mut shifted = DatabaseSchema::new();
        shifted
            .add_relation(RelationSchema::new("enemy", &["id1", "id2"]))
            .unwrap();
        for rel in schema.relations() {
            shifted.add_relation(rel.clone()).unwrap();
        }
        let mut db = Database::empty(shifted);
        for rel in social_db().relations() {
            db.insert_all(rel.name(), rel.iter().cloned()).unwrap();
        }
        db.insert_all("enemy", vec![tuple![1, 3], tuple![3, 1]])
            .unwrap();
        let access = Arc::new(access.clone());

        let snap = si_access::SnapshotAccess::<si_data::AccessMeter>::new(
            SnapshotStore::new(db.clone()).pin(),
            access.clone(),
        );
        let partition = PartitionMap::new().with("friend", "id1");
        let view = ShardedSnapshotStore::new(db, partition, 2).unwrap().pin();
        let sharded = si_access::ShardedAccess::<si_data::AccessMeter>::new(view, access.clone());
        let refused = |result: Result<BoundedAnswer, CoreError>| matches!(result, Err(CoreError::Invariant(msg)) if msg.contains("friend"));
        assert!(refused(execute_bounded(&plan, &[Value::int(1)], &snap)));
        assert!(refused(execute_bounded(&plan, &[Value::int(1)], &sharded)));
        assert!(fetch_bounded(&plan, &[Value::int(1)], &snap).is_err());
    }

    #[test]
    fn static_cost_upper_bounds_measured_cost() {
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();
        let adb = AccessIndexedDatabase::new(social_db(), access).unwrap();
        for p in 1..=4 {
            let result = execute_bounded(&plan, &[Value::int(p)], &adb).unwrap();
            assert!(result.accesses.tuples_fetched <= plan.static_cost().max_tuples);
            assert!(result.accesses.index_probes <= plan.static_cost().max_probes);
        }
    }
}
