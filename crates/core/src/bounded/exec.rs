//! Execution of bounded plans against any [`AccessSource`].
//!
//! The executor realises the evaluation strategy from the proof of
//! Theorem 4.2: it maintains a set of partial assignments for the query's
//! variables and extends them step by step, touching the base data only
//! through the access-schema-mediated retrieval primitives of
//! [`AccessSource`] (an owned [`si_access::AccessIndexedDatabase`], a pinned
//! [`si_access::SnapshotAccess`] version, …).  The result records the
//! answers, the witness `D_Q` (the base facts actually used) and the exact
//! access cost.
//!
//! Fetches go through the borrowing primitive
//! [`AccessSource::for_each_via`]: each fetched tuple is matched against the
//! atom in place and extends a binding without being cloned.  The witness is
//! recorded flat — the used facts' values appended to one arena, plus an
//! `(atom, offset)` entry per fact — and only rendered into a [`Witness`] of
//! `(relation, tuple)` facts when [`BoundedAnswer::witness`] is called, so a
//! serving path that never reads it never pays for it.
//!
//! Assignments are flat [`Binding`]s over a [`VarTable`] built once per
//! execution: variables are numbered up front, atoms and equalities are
//! compiled to slot ids, and every extension step clones a flat slab of
//! `Copy` values instead of a `BTreeMap` — the copy-cheap data plane shared
//! with the `si-query` evaluators.
//!
//! Execution is split into three phases — [`compile`](self) the plan to slot
//! ids, run the steps, finalise (equality filter, projection, dedup) — so
//! that [`execute_bounded_partitioned`] can run the *first* fetch once and
//! fan the surviving rows out morsel-style across worker threads, each
//! worker running the remaining steps over its contiguous chunk with its own
//! meter.  Rows never interact across steps, so the partitioned result
//! (answers, witness, access counts) is identical to the sequential one —
//! the property the `si-engine` correctness tests pin down.

use crate::bounded::plan::{BoundedPlan, PlanStep};
use crate::error::CoreError;
use crate::si::Witness;
use crate::trace::{ExecPhase, TraceSink};
use si_access::AccessSource;
use si_data::{MeterSnapshot, Tuple, TupleSet, Value};
use si_query::binding::{Binding, VarId, VarTable};
use si_query::Term;

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
    /// major, row order within a step — also under partitioned execution).
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
/// atom's.  Relation names are attached once, when the answer is finalised.
#[derive(Debug, Clone, Default)]
pub(crate) struct WitnessLog {
    /// Relation name per atom of the plan's query.
    relations: Vec<String>,
    values: Vec<Value>,
    facts: Vec<(usize, usize)>,
}

impl WitnessLog {
    fn push(&mut self, atom: usize, values: &[Value]) {
        self.facts.push((atom, self.values.len()));
        self.values.extend_from_slice(values);
    }

    /// Appends `other`'s facts after this log's, preserving their order.
    fn append(&mut self, other: WitnessLog) {
        let base = self.values.len();
        self.facts.extend(
            other
                .facts
                .iter()
                .map(|&(atom, offset)| (atom, base + offset)),
        );
        self.values.extend(other.values);
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

/// An atom term compiled to the plan's variable table.
#[derive(Debug, Clone, Copy)]
enum CTerm {
    Slot(VarId),
    Const(Value),
}

/// Where a probe-key component comes from.
#[derive(Debug, Clone)]
enum KeySrc {
    Const(Value),
    Slot(VarId),
}

/// Extends `binding` with the bindings induced by matching the compiled atom
/// against a tuple's `values` (borrowed from storage); returns `None` on any
/// inconsistency (constant mismatch or conflicting variable binding).
fn extend_binding(binding: &Binding, cterms: &[CTerm], values: &[Value]) -> Option<Binding> {
    if values.len() != cterms.len() {
        return None;
    }
    let mut extended = binding.clone();
    for (ct, &value) in cterms.iter().zip(values) {
        match ct {
            CTerm::Const(c) => {
                if *c != value {
                    return None;
                }
            }
            CTerm::Slot(id) => {
                if !extended.bind(*id, value) {
                    return None;
                }
            }
        }
    }
    Some(extended)
}

/// A plan compiled to slot ids, ready to run (phase 1 of execution).
struct CompiledPlan {
    vars: VarTable,
    /// Per-atom compiled terms, indexed like `plan.query.atoms`.
    cterms: Vec<Vec<CTerm>>,
    var_var_eqs: Vec<(VarId, VarId)>,
    var_const_eqs: Vec<(VarId, Value)>,
    /// The seed row (parameters + constant equalities), or none when the
    /// equalities are contradictory.
    seed_rows: Vec<Binding>,
    /// Which slots the seed binds (boundness is uniform across rows).
    seed_bound: Vec<bool>,
}

/// Numbers the variables once and translates atoms and equalities to slot
/// ids; builds the seed binding from the parameter values.
fn compile(plan: &BoundedPlan, parameter_values: &[Value]) -> Result<CompiledPlan, CoreError> {
    if parameter_values.len() != plan.parameters.len() {
        return Err(CoreError::Invariant(format!(
            "plan expects {} parameter values, got {}",
            plan.parameters.len(),
            parameter_values.len()
        )));
    }
    let mut vars = VarTable::new();
    for p in &plan.parameters {
        vars.intern(p);
    }
    for v in plan.query.body_variables() {
        vars.intern(&v);
    }
    let compiled: Vec<Vec<CTerm>> = plan
        .query
        .atoms
        .iter()
        .map(|atom| {
            atom.terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => CTerm::Slot(vars.intern(v)),
                    Term::Const(c) => CTerm::Const(*c),
                })
                .collect()
        })
        .collect();
    let mut var_var_eqs: Vec<(VarId, VarId)> = Vec::new();
    let mut var_const_eqs: Vec<(VarId, Value)> = Vec::new();
    let mut consistent = true;
    for (l, r) in &plan.query.equalities {
        match (l, r) {
            (Term::Var(a), Term::Var(b)) => {
                var_var_eqs.push((vars.intern(a), vars.intern(b)));
            }
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                var_const_eqs.push((vars.intern(v), *c));
            }
            (Term::Const(c1), Term::Const(c2)) => {
                if c1 != c2 {
                    consistent = false;
                }
            }
        }
    }

    // Seed binding: parameters plus variables equated to constants.
    let mut seed = Binding::for_table(&vars);
    for (p, value) in plan.parameters.iter().zip(parameter_values.iter()) {
        let id = vars.id_of(p).expect("parameter interned above");
        if !seed.bind(id, *value) {
            consistent = false;
        }
    }
    for (id, c) in &var_const_eqs {
        if !seed.bind(*id, *c) {
            consistent = false;
        }
    }

    // Boundness is uniform across the rows of a step, so it is tracked once.
    let seed_bound: Vec<bool> = (0..vars.len() as VarId)
        .map(|id| seed.is_bound(id))
        .collect();
    let seed_rows: Vec<Binding> = if consistent { vec![seed] } else { Vec::new() };
    Ok(CompiledPlan {
        vars,
        cterms: compiled,
        var_var_eqs,
        var_const_eqs,
        seed_rows,
        seed_bound,
    })
}

/// Runs a slice of plan steps over `rows` (phase 2), extending `bound` and
/// recording the base facts used in `witness`.
///
/// This is the morsel body: the sequential executor calls it once with every
/// step, the partitioned executor calls it per worker with the tail of the
/// step list and a chunk of the first step's output rows.  Rows never
/// interact, so running chunks on separate workers and concatenating
/// preserves the sequential row order exactly.
fn run_steps<A: AccessSource>(
    plan: &BoundedPlan,
    compiled: &CompiledPlan,
    steps: &[PlanStep],
    mut rows: Vec<Binding>,
    bound: &mut [bool],
    adb: &A,
    witness: &mut WitnessLog,
) -> Result<Vec<Binding>, CoreError> {
    let schema = adb.db_schema();
    let vars = &compiled.vars;
    let var_var_eqs = &compiled.var_var_eqs;

    for step in steps {
        if rows.is_empty() {
            break;
        }
        // Propagate variable/variable equalities into each row where one side
        // is known, and fold the resulting boundness into `bound`.
        for row in rows.iter_mut() {
            loop {
                let mut changed = false;
                for (a, b) in var_var_eqs {
                    match (row.get(*a), row.get(*b)) {
                        (Some(va), None) => {
                            row.set(*b, va);
                            changed = true;
                        }
                        (None, Some(vb)) => {
                            row.set(*a, vb);
                            changed = true;
                        }
                        _ => {}
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        loop {
            let mut changed = false;
            for (a, b) in var_var_eqs {
                let (ba, bb) = (bound[*a as usize], bound[*b as usize]);
                if ba != bb {
                    bound[*a as usize] = true;
                    bound[*b as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let atom_index = step.atom_index();
        let atom = &plan.query.atoms[atom_index];
        let cterms = &compiled.cterms[atom_index];
        let rel_schema = schema.relation(&atom.relation)?;
        let mut next: Vec<Binding> = Vec::new();

        match step {
            PlanStep::Fetch {
                probe_attributes,
                constraint,
                ..
            } => {
                // Resolve the probe attributes once: constants and bound
                // slots form the key; positions that became bound later (not
                // in the recorded list) are checked after the fetch by
                // `extend_binding`.
                let mut fetch_attrs: Vec<String> = Vec::new();
                let mut key_src: Vec<KeySrc> = Vec::new();
                for a in probe_attributes {
                    let pos = rel_schema.position_of(a)?;
                    match cterms[pos] {
                        CTerm::Const(c) => {
                            fetch_attrs.push(a.clone());
                            key_src.push(KeySrc::Const(c));
                        }
                        CTerm::Slot(id) => {
                            if bound[id as usize] {
                                fetch_attrs.push(a.clone());
                                key_src.push(KeySrc::Slot(id));
                            }
                        }
                    }
                }
                let mut key: Vec<Value> = Vec::with_capacity(key_src.len());
                for row in &rows {
                    key.clear();
                    for src in &key_src {
                        key.push(match src {
                            KeySrc::Const(c) => *c,
                            KeySrc::Slot(id) => row.get(*id).expect("bound slot carries a value"),
                        });
                    }
                    // Fetch through the constraint the *planner* chose: the
                    // plan is the authority on the access path, so a tied or
                    // looser constraint in the schema cannot silently turn an
                    // index-backed step into a bounded scan.  Tuples arrive
                    // borrowed; only the values of used facts are copied,
                    // into the witness log.
                    adb.for_each_via(constraint, &atom.relation, &fetch_attrs, &key, &mut |t| {
                        if let Some(extended) = extend_binding(row, cterms, t.values()) {
                            witness.push(atom_index, t.values());
                            next.push(extended);
                        }
                    })?;
                }
                for ct in cterms {
                    if let CTerm::Slot(id) = ct {
                        bound[*id as usize] = true;
                    }
                }
            }
            PlanStep::Enumerate { constraint, .. } => {
                // Enumerate values for the constraint's output attributes that
                // are not yet bound.
                let mut from_attrs: Vec<String> = Vec::new();
                let mut key_src: Vec<KeySrc> = Vec::new();
                for a in &constraint.from {
                    let pos = rel_schema.position_of(a)?;
                    match cterms[pos] {
                        CTerm::Const(c) => {
                            from_attrs.push(a.clone());
                            key_src.push(KeySrc::Const(c));
                        }
                        CTerm::Slot(id) => {
                            if !bound[id as usize] {
                                return Err(CoreError::Invariant(format!(
                                    "enumerate step requires `{}` to be bound",
                                    vars.name_of(id)
                                )));
                            }
                            from_attrs.push(a.clone());
                            key_src.push(KeySrc::Slot(id));
                        }
                    }
                }
                let onto = &constraint.onto;
                let onto_cterms: Vec<CTerm> = onto
                    .iter()
                    .map(|a| rel_schema.position_of(a).map(|pos| cterms[pos]))
                    .collect::<Result<_, _>>()?;
                let mut key: Vec<Value> = Vec::with_capacity(key_src.len());
                for row in &rows {
                    key.clear();
                    for src in &key_src {
                        key.push(match src {
                            KeySrc::Const(c) => *c,
                            KeySrc::Slot(id) => row.get(*id).expect("bound slot carries a value"),
                        });
                    }
                    let projections =
                        adb.fetch_embedded(&atom.relation, &from_attrs, &key, onto)?;
                    for proj in projections {
                        // proj is a tuple over `onto` attribute order.
                        if let Some(extended) = extend_binding(row, &onto_cterms, proj.values()) {
                            next.push(extended);
                        }
                    }
                }
                for ct in &onto_cterms {
                    if let CTerm::Slot(id) = ct {
                        bound[*id as usize] = true;
                    }
                }
            }
            PlanStep::Check { .. } => {
                // The probed values are assembled in one reused buffer: no
                // tuple is built to test membership.
                let mut values: Vec<Value> = Vec::with_capacity(cterms.len());
                for row in &rows {
                    values.clear();
                    for ct in cterms {
                        values.push(match ct {
                            CTerm::Const(c) => *c,
                            CTerm::Slot(id) => row.get(*id).ok_or_else(|| {
                                CoreError::Invariant(
                                    "membership check reached with unbound variables".into(),
                                )
                            })?,
                        });
                    }
                    if adb.contains(&atom.relation, &values)? {
                        witness.push(atom_index, &values);
                        next.push(row.clone());
                    }
                }
            }
        }
        rows = next;
    }
    Ok(rows)
}

/// Applies the final equality filter and output projection (phase 3) and
/// assembles the [`BoundedAnswer`].
fn finalize(
    plan: &BoundedPlan,
    compiled: &CompiledPlan,
    mut rows: Vec<Binding>,
    mut witness: WitnessLog,
    accesses: MeterSnapshot,
) -> Result<BoundedAnswer, CoreError> {
    // Final equality filter (covers equalities between variables bound by
    // different steps).
    rows.retain(|row| {
        compiled
            .var_var_eqs
            .iter()
            .all(|(a, b)| match (row.get(*a), row.get(*b)) {
                (Some(va), Some(vb)) => va == vb,
                _ => false,
            })
            && compiled
                .var_const_eqs
                .iter()
                .all(|(id, c)| row.get(*id) == Some(*c))
    });

    // Project onto the output variables, deduplicating in derivation order.
    let outputs = plan.output_variables();
    let output_ids: Vec<VarId> = outputs
        .iter()
        .map(|v| {
            compiled.vars.id_of(v).ok_or_else(|| {
                CoreError::Invariant(format!("output variable `{v}` missing from the plan"))
            })
        })
        .collect::<Result<_, _>>()?;
    let mut answers = TupleSet::new();
    for row in &rows {
        let tuple = row.project(&output_ids).ok_or_else(|| {
            CoreError::Invariant("output variable not bound at the end of the plan".into())
        })?;
        answers.insert(tuple);
    }

    witness.relations = plan
        .query
        .atoms
        .iter()
        .map(|a| a.relation.clone())
        .collect();
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
    compiled: CompiledPlan,
    rows: Vec<Binding>,
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
        self.rows.len()
    }

    /// Finalises one request's answer from the shared fetched slice —
    /// equality filter, projection, dedup; zero base-data accesses.  `plan`
    /// must be the plan this fetch ran (same `Arc` in the serving layer).
    pub fn finalize_one(&self, plan: &BoundedPlan) -> Result<BoundedAnswer, CoreError> {
        finalize(
            plan,
            &self.compiled,
            self.rows.clone(),
            self.witness.clone(),
            self.accesses,
        )
    }

    /// Finalises the last answer, consuming the fetch (the single-request
    /// path: no clone of rows or witness).
    pub fn into_answer(self, plan: &BoundedPlan) -> Result<BoundedAnswer, CoreError> {
        finalize(plan, &self.compiled, self.rows, self.witness, self.accesses)
    }
}

/// Runs the fetch phase of `plan` — compile, seed, every plan step — over
/// `adb` and returns the [`SharedFetch`] requests finalise answers from.
///
/// `parameter_values` must supply one value per plan parameter, in order.
pub fn fetch_bounded<A: AccessSource>(
    plan: &BoundedPlan,
    parameter_values: &[Value],
    adb: &A,
) -> Result<SharedFetch, CoreError> {
    let before = adb.meter_snapshot();
    let compiled = compile(plan, parameter_values)?;
    let mut bound = compiled.seed_bound.clone();
    let mut witness = WitnessLog::default();
    let rows = run_steps(
        plan,
        &compiled,
        &plan.steps,
        compiled.seed_rows.clone(),
        &mut bound,
        adb,
        &mut witness,
    )?;
    let accesses = adb.meter_snapshot().since(&before);
    Ok(SharedFetch {
        compiled,
        rows,
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

/// Wall-clock nanoseconds since `start`, saturating.
fn nanos_since(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// [`execute_bounded`] with per-phase timing reported to `sink`.
///
/// Identical result to [`execute_bounded`]; additionally reports the
/// duration of the fetch phase (compile + seed + plan steps) and of the
/// finalize pass (equality filter + projection + dedup) as
/// [`ExecPhase::Fetch`] / [`ExecPhase::Finalize`].
pub fn execute_bounded_traced<A: AccessSource>(
    plan: &BoundedPlan,
    parameter_values: &[Value],
    adb: &A,
    sink: &mut dyn TraceSink,
) -> Result<BoundedAnswer, CoreError> {
    let start = std::time::Instant::now();
    let fetch = fetch_bounded(plan, parameter_values, adb)?;
    sink.exec_phase(ExecPhase::Fetch, nanos_since(start));
    let start = std::time::Instant::now();
    let answer = fetch.into_answer(plan)?;
    sink.exec_phase(ExecPhase::Finalize, nanos_since(start));
    Ok(answer)
}

/// Executes `plan` morsel-style across `workers` threads.
///
/// The first step runs once (its probe key is the seed binding — the
/// parameters); the surviving partial bindings are split into `workers`
/// contiguous chunks, and each worker runs the remaining steps over its
/// chunk against its own [`AccessSource`] obtained from `source` — in the
/// serving layer that is a [`si_access::SnapshotAccess::fork`] over the same
/// pinned snapshot with a fresh per-worker meter.
///
/// Chunking preserves row order and rows never interact across steps, so
/// the merged answers, witness and access counts are **identical** to
/// [`execute_bounded`] — parallelism changes wall-clock time only.  With
/// `workers <= 1`, fewer than two plan steps, or fewer than two surviving
/// rows, execution stays on the calling thread.
pub fn execute_bounded_partitioned<A, F>(
    plan: &BoundedPlan,
    parameter_values: &[Value],
    source: F,
    workers: usize,
) -> Result<BoundedAnswer, CoreError>
where
    A: AccessSource,
    F: Fn() -> A + Sync,
{
    partitioned_impl(plan, parameter_values, source, workers, None)
}

/// [`execute_bounded_partitioned`] with per-phase timing reported to `sink`.
///
/// The fetch phase covers the first-step probe, the morsel fan-out, and the
/// merge of worker results; the finalize phase is the sequential equality
/// filter + projection + dedup over the merged rows.
pub fn execute_bounded_partitioned_traced<A, F>(
    plan: &BoundedPlan,
    parameter_values: &[Value],
    source: F,
    workers: usize,
    sink: &mut dyn TraceSink,
) -> Result<BoundedAnswer, CoreError>
where
    A: AccessSource,
    F: Fn() -> A + Sync,
{
    partitioned_impl(plan, parameter_values, source, workers, Some(sink))
}

fn partitioned_impl<A, F>(
    plan: &BoundedPlan,
    parameter_values: &[Value],
    source: F,
    workers: usize,
    mut sink: Option<&mut dyn TraceSink>,
) -> Result<BoundedAnswer, CoreError>
where
    A: AccessSource,
    F: Fn() -> A + Sync,
{
    let main = source();
    if workers <= 1 || plan.steps.len() < 2 {
        return match sink {
            Some(sink) => execute_bounded_traced(plan, parameter_values, &main, sink),
            None => execute_bounded(plan, parameter_values, &main),
        };
    }
    let fetch_start = std::time::Instant::now();
    let before = main.meter_snapshot();
    let compiled = compile(plan, parameter_values)?;
    let mut bound = compiled.seed_bound.clone();
    let mut witness = WitnessLog::default();
    let (first, rest) = plan.steps.split_first().expect("checked: >= 2 steps");
    let rows = run_steps(
        plan,
        &compiled,
        std::slice::from_ref(first),
        compiled.seed_rows.clone(),
        &mut bound,
        &main,
        &mut witness,
    )?;

    if rows.len() < 2 {
        let rows = run_steps(plan, &compiled, rest, rows, &mut bound, &main, &mut witness)?;
        let accesses = main.meter_snapshot().since(&before);
        if let Some(sink) = sink.as_deref_mut() {
            sink.exec_phase(ExecPhase::Fetch, nanos_since(fetch_start));
        }
        let finalize_start = std::time::Instant::now();
        let answer = finalize(plan, &compiled, rows, witness, accesses);
        if let Some(sink) = sink {
            sink.exec_phase(ExecPhase::Finalize, nanos_since(finalize_start));
        }
        return answer;
    }
    let mut accesses = main.meter_snapshot().since(&before);

    // Contiguous chunks keep the sequential row order when concatenated.
    // Workers record witness facts in one log *per step* so the merge can
    // interleave them step-major (all workers' step-2 facts, then step-3,
    // …) — the order the sequential executor produces.
    type WorkerResult = Result<(Vec<Binding>, Vec<WitnessLog>, MeterSnapshot), CoreError>;
    let chunk_size = rows.len().div_ceil(workers);
    let worker_results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(chunk_size)
            .map(|chunk| {
                let compiled = &compiled;
                let source = &source;
                let bound_after_first = bound.clone();
                scope.spawn(move || {
                    let src = source();
                    let before = src.meter_snapshot();
                    let mut bound = bound_after_first;
                    let mut chunk_rows = chunk.to_vec();
                    let mut witness_per_step: Vec<WitnessLog> = Vec::with_capacity(rest.len());
                    // One run_steps call per step: identical semantics to one
                    // call with the whole slice (rows and boundness thread
                    // through), but the witness stays step-separable.
                    for step in rest {
                        let mut witness = WitnessLog::default();
                        chunk_rows = run_steps(
                            plan,
                            compiled,
                            std::slice::from_ref(step),
                            chunk_rows,
                            &mut bound,
                            &src,
                            &mut witness,
                        )?;
                        witness_per_step.push(witness);
                    }
                    Ok((
                        chunk_rows,
                        witness_per_step,
                        src.meter_snapshot().since(&before),
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partitioned worker panicked"))
            .collect()
    });

    let mut all_rows: Vec<Binding> = Vec::new();
    let mut witness_by_step: Vec<Vec<WitnessLog>> = Vec::new();
    for result in worker_results {
        let (rows_i, witness_i, accesses_i) = result?;
        all_rows.extend(rows_i);
        witness_by_step.push(witness_i);
        accesses = accesses.plus(&accesses_i);
    }
    // Step-major, worker-minor: exactly the sequential append order.
    for step_index in 0..rest.len() {
        for worker_witness in &mut witness_by_step {
            if let Some(log) = worker_witness.get_mut(step_index) {
                witness.append(std::mem::take(log));
            }
        }
    }
    if let Some(sink) = sink.as_deref_mut() {
        sink.exec_phase(ExecPhase::Fetch, nanos_since(fetch_start));
    }
    let finalize_start = std::time::Instant::now();
    let answer = finalize(plan, &compiled, all_rows, witness, accesses);
    if let Some(sink) = sink {
        sink.exec_phase(ExecPhase::Finalize, nanos_since(finalize_start));
    }
    answer
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
    fn partitioned_execution_is_bit_identical_to_sequential() {
        use si_data::SnapshotStore;
        use std::sync::Arc;
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();

        // A database where person 1 has many friends, so the first fetch
        // yields enough rows for every worker to get a non-trivial chunk.
        let mut db = Database::empty(schema);
        for i in 2..200i64 {
            db.insert("friend", tuple![1, i]).unwrap();
            let city = if i % 3 == 0 { "NYC" } else { "LA" };
            db.insert("person", tuple![i, format!("p{i}"), city])
                .unwrap();
        }
        for (relation, attrs) in access.required_indexes() {
            if !attrs.is_empty() {
                db.declare_index(&relation, &attrs).unwrap();
            }
        }
        let sequential = {
            let adb = AccessIndexedDatabase::new(db.clone(), access.clone()).unwrap();
            execute_bounded(&plan, &[Value::int(1)], &adb).unwrap()
        };

        let store = SnapshotStore::new(db);
        let access = Arc::new(access);
        for workers in [1usize, 2, 3, 4, 8, 64] {
            let snap = store.pin();
            let make = || {
                si_access::SnapshotAccess::<si_data::AccessMeter>::new(snap.clone(), access.clone())
            };
            let parallel =
                execute_bounded_partitioned(&plan, &[Value::int(1)], make, workers).unwrap();
            // Identical answers *in the same order*, identical witness,
            // identical access accounting.
            assert_eq!(parallel.answers, sequential.answers, "workers={workers}");
            assert_eq!(
                parallel.witness(),
                sequential.witness(),
                "workers={workers}"
            );
            assert_eq!(parallel.accesses, sequential.accesses, "workers={workers}");
        }
    }

    #[test]
    fn partitioned_three_step_plan_keeps_the_sequential_witness_order() {
        // Witness facts are appended step-major in sequential execution; a
        // chunk-major merge would reorder them on plans with 3+ steps (this
        // is a regression test for exactly that bug).
        use si_data::SnapshotStore;
        use std::sync::Arc;
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
        assert!(plan.steps.len() >= 3, "Q2 must exercise a multi-step tail");

        let mut db = Database::empty(schema);
        for i in 2..120i64 {
            db.insert("friend", tuple![1, i]).unwrap();
            let city = if i % 2 == 0 { "NYC" } else { "LA" };
            db.insert("person", tuple![i, format!("p{i}"), city])
                .unwrap();
            db.insert("visit", tuple![i, 1000 + i % 7]).unwrap();
        }
        for r in 0..7i64 {
            let rating = if r % 2 == 0 { "A" } else { "B" };
            db.insert("restr", tuple![1000 + r, format!("r{r}"), "NYC", rating])
                .unwrap();
        }
        for (relation, attrs) in access.required_indexes() {
            if !attrs.is_empty() {
                db.declare_index(&relation, &attrs).unwrap();
            }
        }
        let sequential = {
            let adb = AccessIndexedDatabase::new(db.clone(), access.clone()).unwrap();
            execute_bounded(&plan, &[Value::int(1)], &adb).unwrap()
        };
        assert!(!sequential.answers.is_empty());

        let store = SnapshotStore::new(db);
        let access = Arc::new(access);
        let snap = store.pin();
        for workers in [2usize, 3, 4, 8] {
            let make = || {
                si_access::SnapshotAccess::<si_data::AccessMeter>::new(snap.clone(), access.clone())
            };
            let parallel =
                execute_bounded_partitioned(&plan, &[Value::int(1)], make, workers).unwrap();
            assert_eq!(parallel.answers, sequential.answers, "workers={workers}");
            assert_eq!(
                parallel.witness(),
                sequential.witness(),
                "workers={workers}"
            );
            assert_eq!(parallel.accesses, sequential.accesses, "workers={workers}");
        }
    }

    #[test]
    fn partitioned_execution_handles_empty_and_tiny_row_sets() {
        use si_data::SnapshotStore;
        use std::sync::Arc;
        let schema = social_schema();
        let access = facebook_access_schema(5000);
        let planner = BoundedPlanner::new(&schema, &access);
        let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
        let plan = planner.plan(&q1, &["p".into()]).unwrap();
        let store = SnapshotStore::new(social_db());
        let access = Arc::new(access);
        let snap = store.pin();
        let make =
            || si_access::SnapshotAccess::<si_data::AccessMeter>::new(snap.clone(), access.clone());
        // Person 4 has no outgoing friends: first fetch yields zero rows.
        let empty = execute_bounded_partitioned(&plan, &[Value::int(4)], make, 4).unwrap();
        assert!(empty.answers.is_empty());
        // Person 2 has exactly one friend: single-row fast path.
        let one = execute_bounded_partitioned(&plan, &[Value::int(2)], make, 4).unwrap();
        assert_eq!(one.answers, vec![tuple!["dan"]]);
    }

    #[test]
    fn partitioned_execution_over_a_sharded_source_matches_sequential_unsharded() {
        // Data sharding (ShardedAccess over a hash-partitioned store) and
        // morsel sharding (execute_bounded_partitioned) compose: each worker
        // forks a sharded source over the same pinned shard vector, and the
        // merged result keeps the answer *set*, witness *set* and meter
        // identical to sequential execution over the unsharded store.
        use si_data::{PartitionMap, ShardedSnapshotStore, SnapshotStore};
        use std::collections::BTreeSet;
        use std::sync::Arc;
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

        let mut db = Database::empty(schema);
        for i in 2..150i64 {
            db.insert("friend", tuple![1, i]).unwrap();
            let city = if i % 2 == 0 { "NYC" } else { "LA" };
            db.insert("person", tuple![i, format!("p{i}"), city])
                .unwrap();
            db.insert("visit", tuple![i, 1000 + i % 5]).unwrap();
        }
        for r in 0..5i64 {
            let rating = if r % 2 == 0 { "A" } else { "B" };
            db.insert("restr", tuple![1000 + r, format!("r{r}"), "NYC", rating])
                .unwrap();
        }
        for (relation, attrs) in access.required_indexes() {
            if !attrs.is_empty() {
                db.declare_index(&relation, &attrs).unwrap();
            }
        }
        let sequential = {
            let store = SnapshotStore::new(db.clone());
            let view = si_access::SnapshotAccess::<si_data::AccessMeter>::new(
                store.pin(),
                Arc::new(access.clone()),
            );
            execute_bounded(&plan, &[Value::int(1)], &view).unwrap()
        };
        assert!(!sequential.answers.is_empty());
        let partition = PartitionMap::new()
            .with("person", "id")
            .with("friend", "id1")
            .with("visit", "id")
            .with("restr", "rid");

        let canon = |answer: &BoundedAnswer| {
            let mut answers = answer.answers.clone();
            answers.sort();
            let facts: BTreeSet<(String, Tuple)> = answer.witness().facts.into_iter().collect();
            (answers, facts)
        };
        let expected = canon(&sequential);
        for data_shards in [1usize, 3, 8] {
            let store =
                ShardedSnapshotStore::new(db.clone(), partition.clone(), data_shards).unwrap();
            let view = store.pin();
            let access = Arc::new(access.clone());
            for workers in [1usize, 2, 4, 8] {
                let make = || {
                    si_access::ShardedAccess::<si_data::AccessMeter>::new(
                        view.clone(),
                        access.clone(),
                    )
                };
                let parallel =
                    execute_bounded_partitioned(&plan, &[Value::int(1)], make, workers).unwrap();
                assert_eq!(
                    canon(&parallel),
                    expected,
                    "data_shards={data_shards} workers={workers}"
                );
                assert_eq!(
                    parallel.accesses, sequential.accesses,
                    "data_shards={data_shards} workers={workers}"
                );
            }
        }
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
