//! The physical form of a bounded plan: everything execution needs that does
//! not depend on parameter values, resolved once when the plan is built.
//!
//! Boundness is static — which variables a step may rely on is fixed by the
//! step order, not by the data — so every step's probe key, its probe split
//! and the equality propagation before it are known at plan time.  The
//! planner numbers the query's variables into row *slots*, resolves each
//! step's probe against the database schema into a
//! [`si_access::ResolvedProbe`] (relation id, pushed and residual
//! positions), and writes each key as a small program of constants and
//! slots.  A request then only binds parameter values into the seed row and
//! runs the steps (see [`super::exec`]).

use crate::bounded::plan::PlanStep;
use crate::error::CoreError;
use si_access::{best_embedded, AccessSchema, ResolvedProbe};
use si_data::{DatabaseSchema, Value};
use si_query::{ConjunctiveQuery, Term, Var};
use std::sync::Arc;

/// An atom term, or a probe-key component, over the row slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotTerm {
    Slot(usize),
    Const(Value),
}

impl SlotTerm {
    /// The term's value in `row`, if it is bound there.
    pub(crate) fn value(self, row: &[Option<Value>]) -> Option<Value> {
        match self {
            SlotTerm::Slot(slot) => row[slot],
            SlotTerm::Const(c) => Some(c),
        }
    }
}

/// What one plan step does to each row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StepOp {
    /// Probe a plain constraint's index with `key` and extend the row by
    /// matching `terms` (the whole atom) against each fetched tuple.
    Fetch {
        probe: ResolvedProbe,
        key: Vec<SlotTerm>,
        terms: Vec<SlotTerm>,
    },
    /// Enumerate the distinct projections onto `onto` (positions) through an
    /// embedded constraint and extend the row by matching `terms` (the
    /// atom's terms at `onto`) against each.
    Enumerate {
        probe: ResolvedProbe,
        key: Vec<SlotTerm>,
        onto: Vec<usize>,
        terms: Vec<SlotTerm>,
    },
    /// Keep the row iff the fully bound atom `terms` is in the relation.
    Check {
        relation: usize,
        relation_name: String,
        terms: Vec<SlotTerm>,
    },
}

impl StepOp {
    /// The relation the step reads: its id and name.
    pub(crate) fn relation(&self) -> (usize, &str) {
        match self {
            StepOp::Fetch { probe, .. } | StepOp::Enumerate { probe, .. } => {
                (probe.relation, &probe.relation_name)
            }
            StepOp::Check {
                relation,
                relation_name,
                ..
            } => (*relation, relation_name),
        }
    }
}

/// One compiled plan step.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PhysicalStep {
    /// The atom the step reads (indexes the witness relation names).
    pub(crate) atom: usize,
    /// Variable/variable equalities propagated into every row before the
    /// step: `(from, to)` slot copies, applied in order.
    pub(crate) copies: Vec<(usize, usize)>,
    pub(crate) op: StepOp,
}

/// A bounded plan compiled to row slots and resolved probes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PhysicalPlan {
    /// Values per row: one slot per variable, and at least one so that a
    /// variable-free query still has rows to count.
    pub(crate) stride: usize,
    /// The seed row before parameters: variables equated to constants bound.
    pub(crate) seed: Vec<Option<Value>>,
    /// False when the query's constant equalities contradict each other —
    /// then no row survives the seed.
    pub(crate) seed_consistent: bool,
    /// The slot of each parameter, in parameter order.
    pub(crate) params: Vec<usize>,
    pub(crate) steps: Vec<PhysicalStep>,
    /// The final equality filter.
    pub(crate) var_var_eqs: Vec<(usize, usize)>,
    pub(crate) var_const_eqs: Vec<(usize, Value)>,
    /// The slots projected onto the answer, in output order.
    pub(crate) outputs: Vec<usize>,
    /// Relation name per atom, shared with every answer's witness.
    pub(crate) relations: Arc<[String]>,
}

/// The slot of `v`, numbering it if it is new.
fn slot_of<'q>(vars: &mut Vec<&'q Var>, v: &'q Var) -> usize {
    match vars.iter().position(|x| *x == v) {
        Some(slot) => slot,
        None => {
            vars.push(v);
            vars.len() - 1
        }
    }
}

/// Compiles a planner's step sequence for `query` with `parameters` against
/// the schema and access schema it was planned under.
pub(crate) fn compile(
    query: &ConjunctiveQuery,
    parameters: &[Var],
    steps: &[PlanStep],
    schema: &DatabaseSchema,
    access: &AccessSchema,
) -> Result<PhysicalPlan, CoreError> {
    // Parameters first, then the body's variables in order of appearance.
    let mut vars: Vec<&Var> = Vec::new();
    let params: Vec<usize> = parameters.iter().map(|p| slot_of(&mut vars, p)).collect();
    let atom_terms: Vec<Vec<SlotTerm>> = query
        .atoms
        .iter()
        .map(|atom| {
            atom.terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => SlotTerm::Slot(slot_of(&mut vars, v)),
                    Term::Const(c) => SlotTerm::Const(*c),
                })
                .collect()
        })
        .collect();
    let mut var_var_eqs = Vec::new();
    let mut var_const_eqs = Vec::new();
    let mut seed_consistent = true;
    for (l, r) in &query.equalities {
        match (l, r) {
            (Term::Var(a), Term::Var(b)) => {
                var_var_eqs.push((slot_of(&mut vars, a), slot_of(&mut vars, b)));
            }
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                var_const_eqs.push((slot_of(&mut vars, v), *c));
            }
            (Term::Const(c1), Term::Const(c2)) => seed_consistent &= c1 == c2,
        }
    }
    let stride = vars.len().max(1);
    let mut seed = vec![None; stride];
    for &(slot, c) in &var_const_eqs {
        match seed[slot] {
            Some(existing) => seed_consistent &= existing == c,
            None => seed[slot] = Some(c),
        }
    }

    // Which slots every row binds, step by step.
    let mut bound = vec![false; stride];
    for &slot in &params {
        bound[slot] = true;
    }
    for &(slot, _) in &var_const_eqs {
        bound[slot] = true;
    }
    let is_bound = |bound: &[bool], term: SlotTerm| match term {
        SlotTerm::Slot(slot) => bound[slot],
        SlotTerm::Const(_) => true,
    };

    let mut physical_steps = Vec::with_capacity(steps.len());
    for step in steps {
        // Propagate variable/variable equalities where one side is bound, in
        // a fixed order: the copies every row gets.
        let mut copies = Vec::new();
        loop {
            let mut changed = false;
            for &(a, b) in &var_var_eqs {
                let copy = match (bound[a], bound[b]) {
                    (true, false) => (a, b),
                    (false, true) => (b, a),
                    _ => continue,
                };
                copies.push(copy);
                bound[copy.1] = true;
                changed = true;
            }
            if !changed {
                break;
            }
        }

        let atom_index = step.atom_index();
        let atom = &query.atoms[atom_index];
        let terms = &atom_terms[atom_index];
        let rel_schema = schema.relation(&atom.relation)?;
        let op = match step {
            PlanStep::Fetch {
                constraint,
                probe_attributes,
                ..
            } => {
                // Constants and bound slots form the key; positions the
                // planner listed but that are unbound here are matched after
                // the fetch.
                let mut attrs = Vec::new();
                let mut key = Vec::new();
                for a in probe_attributes {
                    let term = terms[rel_schema.position_of(a)?];
                    if is_bound(&bound, term) {
                        attrs.push(a);
                        key.push(term);
                    }
                }
                // The plan is the authority on the access path: the probe
                // goes through the constraint the planner chose, so a tied or
                // looser constraint in the schema cannot turn an index-backed
                // step into a bounded scan.
                let (probe, order) = ResolvedProbe::resolve(
                    schema,
                    &atom.relation,
                    &constraint.on,
                    constraint.time,
                    &attrs,
                )?;
                for term in terms {
                    if let SlotTerm::Slot(slot) = term {
                        bound[*slot] = true;
                    }
                }
                StepOp::Fetch {
                    probe,
                    key: order.iter().map(|&i| key[i]).collect(),
                    terms: terms.clone(),
                }
            }
            PlanStep::Enumerate { constraint, .. } => {
                let mut key = Vec::new();
                for a in &constraint.from {
                    let term = terms[rel_schema.position_of(a)?];
                    if !is_bound(&bound, term) {
                        return Err(CoreError::Invariant(format!(
                            "enumerate step requires `{a}` of `{}` to be bound",
                            atom.relation
                        )));
                    }
                    key.push(term);
                }
                let onto = rel_schema.positions_of(&constraint.onto)?;
                let chosen =
                    best_embedded(access, &atom.relation, &constraint.from, &constraint.onto)?;
                let (probe, order) = ResolvedProbe::resolve(
                    schema,
                    &atom.relation,
                    &chosen.from,
                    chosen.time,
                    &constraint.from,
                )?;
                let onto_terms: Vec<SlotTerm> = onto.iter().map(|&p| terms[p]).collect();
                for term in &onto_terms {
                    if let SlotTerm::Slot(slot) = term {
                        bound[*slot] = true;
                    }
                }
                StepOp::Enumerate {
                    probe,
                    key: order.iter().map(|&i| key[i]).collect(),
                    onto,
                    terms: onto_terms,
                }
            }
            PlanStep::Check { .. } => {
                if !terms.iter().all(|&t| is_bound(&bound, t)) {
                    return Err(CoreError::Invariant(format!(
                        "membership check of `{}` reached with unbound variables",
                        atom.relation
                    )));
                }
                StepOp::Check {
                    relation: schema.relation_id(&atom.relation)?,
                    relation_name: atom.relation.clone(),
                    terms: terms.clone(),
                }
            }
        };
        physical_steps.push(PhysicalStep {
            atom: atom_index,
            copies,
            op,
        });
    }

    let outputs = query
        .head
        .iter()
        .filter(|v| !parameters.contains(v))
        .map(|v| {
            vars.iter().position(|x| *x == v).ok_or_else(|| {
                CoreError::Invariant(format!("output variable `{v}` missing from the plan"))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(PhysicalPlan {
        stride,
        seed,
        seed_consistent,
        params,
        steps: physical_steps,
        var_var_eqs,
        var_const_eqs,
        outputs,
        relations: query.atoms.iter().map(|a| a.relation.clone()).collect(),
    })
}
