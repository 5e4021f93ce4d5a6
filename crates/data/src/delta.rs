//! Updates `∆D = (∆D, ∇D)` as defined in Section 5 of the paper.
//!
//! An update consists of a list of tuples to be inserted (`∆D`) and a list of
//! tuples to be deleted (`∇D`).  Well-formedness requires `∇D ⊆ D`,
//! `∆D ∩ D = ∅` and `∆D ∩ ∇D = ∅`; [`Delta::apply`] checks these conditions
//! and produces `D ⊕ ∆D = (D − ∇D) ∪ ∆D`, applied relation-wise.

use crate::database::Database;
use crate::error::DataError;
use crate::relation::Relation;
use crate::shard::ShardedSnapshotView;
use crate::snapshot::DatabaseSnapshot;
use crate::tuple::Tuple;
use crate::Result;
use std::collections::BTreeMap;
use std::fmt;

/// Insertions and deletions targeting a single relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// Tuples to insert (`∆D` restricted to this relation).
    pub insertions: Vec<Tuple>,
    /// Tuples to delete (`∇D` restricted to this relation).
    pub deletions: Vec<Tuple>,
}

impl RelationDelta {
    /// Number of tuples mentioned by this per-relation update.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// True iff neither insertions nor deletions are present.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }
}

/// A full update `∆D = (∆D, ∇D)` over a database, organised per relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    relations: BTreeMap<String, RelationDelta>,
}

impl Delta {
    /// Creates an empty update.
    pub fn new() -> Self {
        Delta::default()
    }

    /// Records a tuple insertion into `relation`.
    pub fn insert(&mut self, relation: impl Into<String>, tuple: Tuple) -> &mut Self {
        self.relations
            .entry(relation.into())
            .or_default()
            .insertions
            .push(tuple);
        self
    }

    /// Records a tuple deletion from `relation`.
    pub fn delete(&mut self, relation: impl Into<String>, tuple: Tuple) -> &mut Self {
        self.relations
            .entry(relation.into())
            .or_default()
            .deletions
            .push(tuple);
        self
    }

    /// Builds an insertion-only update into a single relation.
    pub fn insertions_into(relation: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        let mut delta = Delta::new();
        let relation = relation.into();
        for t in tuples {
            delta.insert(relation.clone(), t);
        }
        delta
    }

    /// Builds a deletion-only update from a single relation.
    pub fn deletions_from(relation: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        let mut delta = Delta::new();
        let relation = relation.into();
        for t in tuples {
            delta.delete(relation.clone(), t);
        }
        delta
    }

    /// Total number of tuples mentioned, `|∆D|` in the paper's notation
    /// (insertions plus deletions).
    pub fn size(&self) -> usize {
        self.relations.values().map(RelationDelta::len).sum()
    }

    /// True iff the update changes nothing.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// True iff the update contains no deletions.
    pub fn is_insertion_only(&self) -> bool {
        self.relations.values().all(|d| d.deletions.is_empty())
    }

    /// Names of the relations touched by the update.
    pub fn touched_relations(&self) -> Vec<String> {
        self.relations
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// The per-relation slice of the update.
    pub fn relation_delta(&self, relation: &str) -> Option<&RelationDelta> {
        self.relations.get(relation)
    }

    /// Iterates over `(relation, delta)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &RelationDelta)> {
        self.relations.iter()
    }

    /// Checks the well-formedness conditions of Section 5 against `db`:
    /// deletions must already be present, insertions must be absent, and no
    /// tuple may be both inserted and deleted.
    pub fn validate(&self, db: &Database) -> Result<()> {
        self.validate_relations(|name| db.relation(name))
    }

    /// [`Delta::validate`] generalised over the storage surface: `lookup`
    /// resolves a relation name to the relation of whatever instance the
    /// update targets (an owned [`Database`], a pinned
    /// [`crate::DatabaseSnapshot`] version, …).
    pub fn validate_relations<'a, F>(&self, lookup: F) -> Result<()>
    where
        F: Fn(&str) -> Result<&'a Relation>,
    {
        for (relation, delta) in &self.relations {
            let rel = lookup(relation)?;
            for t in &delta.insertions {
                if t.arity() != rel.schema().arity() {
                    return Err(DataError::ArityMismatch {
                        relation: relation.clone(),
                        expected: rel.schema().arity(),
                        actual: t.arity(),
                    });
                }
                if rel.contains(t) {
                    return Err(DataError::InvalidUpdate(format!(
                        "insertion {t} into `{relation}` is not disjoint from D"
                    )));
                }
            }
            for t in &delta.deletions {
                if !rel.contains(t) {
                    return Err(DataError::InvalidUpdate(format!(
                        "deletion {t} from `{relation}` is not contained in D"
                    )));
                }
                if delta.insertions.contains(t) {
                    return Err(DataError::InvalidUpdate(format!(
                        "tuple {t} of `{relation}` appears in both ∆D and ∇D"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Applies the update, returning `D ⊕ ∆D` as a new database.
    ///
    /// The original database is left untouched; callers that want in-place
    /// application can use [`Delta::apply_in_place`].
    pub fn apply(&self, db: &Database) -> Result<Database> {
        self.validate(db)?;
        let mut out = db.clone();
        self.apply_unchecked(&mut out)?;
        Ok(out)
    }

    /// Applies the update in place after validating it.
    pub fn apply_in_place(&self, db: &mut Database) -> Result<()> {
        self.validate(db)?;
        self.apply_unchecked(db)
    }

    fn apply_unchecked(&self, db: &mut Database) -> Result<()> {
        for (relation, delta) in &self.relations {
            for t in &delta.deletions {
                db.remove(relation, t)?;
            }
            for t in &delta.insertions {
                db.insert(relation, t.clone())?;
            }
        }
        Ok(())
    }
}

/// The read-only membership surface a [`DeltaBatch`] validates against:
/// just enough of an instance to decide relation arity and tuple
/// membership.  Unlike [`Delta::validate_relations`], which hands out whole
/// [`Relation`]s, this works where no merged relation exists — a
/// [`ShardedSnapshotView`] answers membership by *routing* the tuple to its
/// home shard.
pub trait DeltaBase {
    /// The arity of `relation` (unknown relations error).
    fn arity(&self, relation: &str) -> Result<usize>;
    /// True iff `relation` contains `tuple` in this instance.
    fn contains(&self, relation: &str, tuple: &Tuple) -> Result<bool>;
}

impl DeltaBase for Database {
    fn arity(&self, relation: &str) -> Result<usize> {
        Ok(self.relation(relation)?.schema().arity())
    }

    fn contains(&self, relation: &str, tuple: &Tuple) -> Result<bool> {
        Ok(self.relation(relation)?.contains(tuple))
    }
}

impl DeltaBase for DatabaseSnapshot {
    fn arity(&self, relation: &str) -> Result<usize> {
        Ok(self.relation(relation)?.schema().arity())
    }

    fn contains(&self, relation: &str, tuple: &Tuple) -> Result<bool> {
        Ok(self.relation(relation)?.contains(tuple))
    }
}

impl DeltaBase for ShardedSnapshotView {
    fn arity(&self, relation: &str) -> Result<usize> {
        Ok(self.schema().relation(relation)?.arity())
    }

    fn contains(&self, relation: &str, tuple: &Tuple) -> Result<bool> {
        // Shards partition the instance, so membership is decided entirely
        // on the tuple's home shard.
        let home = self.route_tuple(relation, tuple.values());
        Ok(self.shard(home).relation(relation)?.contains(tuple))
    }
}

/// The net effect of one tuple across a folded batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetOp {
    Insert,
    Delete,
}

/// An order-preserving fold of a sequence of [`Delta`]s into one net-effect
/// update: `base ⊕ merged = ((base ⊕ d₁) ⊕ d₂) ⊕ …` for every folded `dᵢ`.
///
/// Each [`DeltaBatch::fold`] validates its delta against the *evolved*
/// state (`base` plus the net effect folded so far) with exactly the
/// Section-5 well-formedness rules a sequential [`Delta::apply`] chain
/// would enforce, and folds **atomically**: an invalid delta errors and
/// leaves the running merge untouched, mirroring the sequential contract
/// where a bad commit leaves the store unchanged and later commits proceed.
///
/// Cross-delta churn cancels to its net effect: a tuple deleted by one
/// delta and reinserted by a later one (the batch was pinned on
/// delete-then-reinsert semantics) nets to *no change*, and an
/// insert-then-delete pair nets away likewise — which is why a group commit
/// of a small-commit storm maintains answers over far fewer tuples than the
/// storm applied commit by commit.  Within a single delta the paper's
/// `∆D ∩ ∇D = ∅` rule still holds (overlap is an error, not a
/// cancellation), exactly as in [`Delta::validate`].
///
/// The merged delta is well formed against `base` by construction: a tuple
/// ends in the insertion list only if `base` lacks it, in the deletion list
/// only if `base` contains it, and never in both.
#[derive(Debug)]
pub struct DeltaBatch<'a, B: DeltaBase> {
    base: &'a B,
    net: BTreeMap<String, BTreeMap<Tuple, NetOp>>,
    folded: usize,
}

impl<'a, B: DeltaBase> DeltaBatch<'a, B> {
    /// Starts an empty batch over `base`.
    pub fn new(base: &'a B) -> Self {
        DeltaBatch {
            base,
            net: BTreeMap::new(),
            folded: 0,
        }
    }

    /// Number of deltas folded so far (invalid ones are not counted).
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// True iff the folded deltas net to no change.
    pub fn is_noop(&self) -> bool {
        self.net.values().all(BTreeMap::is_empty)
    }

    /// Membership of `tuple` in `base ⊕ (net effect so far)`.
    fn effective_contains(&self, relation: &str, tuple: &Tuple) -> Result<bool> {
        match self.net.get(relation).and_then(|m| m.get(tuple)) {
            Some(NetOp::Insert) => Ok(true),
            Some(NetOp::Delete) => Ok(false),
            None => self.base.contains(relation, tuple),
        }
    }

    /// Validates `delta` against the evolved state and folds it into the
    /// running net effect.  All-or-nothing: on error the batch is unchanged.
    ///
    /// Validation mirrors [`Delta::validate_relations`] — same checks, same
    /// error kinds, same per-relation check order — evaluated against
    /// `base ⊕ (net effect so far)` instead of a materialised instance.
    pub fn fold(&mut self, delta: &Delta) -> Result<()> {
        // Phase 1: validate the whole delta against the pre-delta state
        // (sequential `apply` validates before it mutates, so duplicate
        // mentions within one delta see the same pre-state there and here).
        for (relation, rd) in delta.iter() {
            let arity = self.base.arity(relation)?;
            for t in &rd.insertions {
                if t.arity() != arity {
                    return Err(DataError::ArityMismatch {
                        relation: relation.clone(),
                        expected: arity,
                        actual: t.arity(),
                    });
                }
                if self.effective_contains(relation, t)? {
                    return Err(DataError::InvalidUpdate(format!(
                        "insertion {t} into `{relation}` is not disjoint from D"
                    )));
                }
            }
            for t in &rd.deletions {
                if !self.effective_contains(relation, t)? {
                    return Err(DataError::InvalidUpdate(format!(
                        "deletion {t} from `{relation}` is not contained in D"
                    )));
                }
                if rd.insertions.contains(t) {
                    return Err(DataError::InvalidUpdate(format!(
                        "tuple {t} of `{relation}` appears in both ∆D and ∇D"
                    )));
                }
            }
        }

        // Phase 2: apply the state transitions — deletions before
        // insertions, matching the application order of a single delta.
        // Transitions are idempotent under within-delta duplicates, exactly
        // like the set-semantics insert/remove of the stores.
        for (relation, rd) in delta.iter() {
            let entry = self.net.entry(relation.clone()).or_default();
            for t in &rd.deletions {
                match entry.get(t) {
                    // An earlier delta's insertion cancels away.
                    Some(NetOp::Insert) => {
                        entry.remove(t);
                    }
                    // Duplicate deletion within this delta: no-op.
                    Some(NetOp::Delete) => {}
                    // Base contains the tuple (validated): net deletion.
                    None => {
                        entry.insert(t.clone(), NetOp::Delete);
                    }
                }
            }
            for t in &rd.insertions {
                match entry.get(t) {
                    // Reinsertion of a tuple an earlier delta deleted: the
                    // pair nets to no change (base still contains it).
                    Some(NetOp::Delete) => {
                        entry.remove(t);
                    }
                    // Duplicate insertion within this delta: no-op.
                    Some(NetOp::Insert) => {}
                    // Base lacks the tuple (validated): net insertion.
                    None => {
                        entry.insert(t.clone(), NetOp::Insert);
                    }
                }
            }
        }
        self.folded += 1;
        Ok(())
    }

    /// The net-effect update: applying it to `base` once yields exactly the
    /// instance the folded deltas produce applied one by one.
    pub fn merged(&self) -> Delta {
        let mut delta = Delta::new();
        for (relation, ops) in &self.net {
            for (t, op) in ops {
                match op {
                    NetOp::Insert => delta.insert(relation.clone(), t.clone()),
                    NetOp::Delete => delta.delete(relation.clone(), t.clone()),
                };
            }
        }
        delta
    }
}

impl Delta {
    /// Folds `deltas` (in order) into one net-effect update over `base`,
    /// failing on the first delta that is invalid against the evolved state.
    /// See [`DeltaBatch`] for the incremental, error-tolerant form.
    pub fn merge<B: DeltaBase>(base: &B, deltas: &[Delta]) -> Result<Delta> {
        let mut batch = DeltaBatch::new(base);
        for delta in deltas {
            batch.fold(delta)?;
        }
        Ok(batch.merged())
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "∆D[")?;
        let mut first = true;
        for (rel, d) in &self.relations {
            if !first {
                write!(f, "; ")?;
            }
            first = false;
            write!(f, "{rel}: +{} −{}", d.insertions.len(), d.deletions.len())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::social_schema;
    use crate::tuple;

    fn db() -> Database {
        let mut db = Database::empty(social_schema());
        db.insert("person", tuple![1, "ann", "NYC"]).unwrap();
        db.insert("friend", tuple![1, 2]).unwrap();
        db.insert("visit", tuple![1, 10]).unwrap();
        db
    }

    #[test]
    fn builders_and_size() {
        let mut delta = Delta::new();
        delta
            .insert("visit", tuple![2, 10])
            .insert("visit", tuple![3, 10])
            .delete("friend", tuple![1, 2]);
        assert_eq!(delta.size(), 3);
        assert!(!delta.is_empty());
        assert!(!delta.is_insertion_only());
        assert_eq!(delta.touched_relations(), vec!["friend", "visit"]);
        assert_eq!(delta.relation_delta("visit").unwrap().insertions.len(), 2);
        assert!(delta.relation_delta("person").is_none());
        assert_eq!(delta.iter().count(), 2);
    }

    #[test]
    fn insertion_only_constructor() {
        let delta = Delta::insertions_into("visit", vec![tuple![5, 10], tuple![6, 10]]);
        assert!(delta.is_insertion_only());
        assert_eq!(delta.size(), 2);
        let delta = Delta::deletions_from("visit", vec![tuple![1, 10]]);
        assert!(!delta.is_insertion_only());
    }

    #[test]
    fn apply_produces_d_oplus_delta() {
        let base = db();
        let mut delta = Delta::new();
        delta.insert("visit", tuple![2, 11]);
        delta.delete("friend", tuple![1, 2]);
        let updated = delta.apply(&base).unwrap();
        assert!(updated.contains("visit", &tuple![2, 11]).unwrap());
        assert!(!updated.contains("friend", &tuple![1, 2]).unwrap());
        // Base must be unchanged.
        assert!(base.contains("friend", &tuple![1, 2]).unwrap());
        assert!(!base.contains("visit", &tuple![2, 11]).unwrap());
        assert_eq!(updated.size(), base.size());
    }

    #[test]
    fn apply_in_place_mutates() {
        let mut base = db();
        let delta = Delta::insertions_into("visit", vec![tuple![9, 9]]);
        delta.apply_in_place(&mut base).unwrap();
        assert!(base.contains("visit", &tuple![9, 9]).unwrap());
    }

    #[test]
    fn apply_maintains_secondary_indexes() {
        let mut base = db();
        base.insert("friend", tuple![1, 3]).unwrap();
        base.ensure_index("friend", &["id1".into()]).unwrap();
        let mut delta = Delta::new();
        delta
            .insert("friend", tuple![1, 4])
            .delete("friend", tuple![1, 2]);
        delta.apply_in_place(&mut base).unwrap();
        let friend = base.relation("friend").unwrap();
        let (rows, used_index) = friend
            .select_eq(&["id1".into()], &[crate::Value::int(1)])
            .unwrap();
        assert!(used_index);
        assert_eq!(rows, vec![tuple![1, 3], tuple![1, 4]]);
    }

    #[test]
    fn validation_rejects_non_disjoint_insertions() {
        let base = db();
        let delta = Delta::insertions_into("visit", vec![tuple![1, 10]]);
        assert!(matches!(
            delta.apply(&base),
            Err(DataError::InvalidUpdate(_))
        ));
    }

    #[test]
    fn validation_rejects_missing_deletions() {
        let base = db();
        let delta = Delta::deletions_from("visit", vec![tuple![7, 7]]);
        assert!(matches!(
            delta.apply(&base),
            Err(DataError::InvalidUpdate(_))
        ));
    }

    #[test]
    fn validation_rejects_overlapping_insert_delete() {
        let base = db();
        let mut delta = Delta::new();
        // The tuple is in D, so deleting is fine, but it also appears in the
        // insertion list which the paper forbids (∆D ∩ ∇D = ∅).  Insertion of
        // an existing tuple is caught first; craft the overlap the other way.
        delta.delete("visit", tuple![1, 10]);
        delta.insert("visit", tuple![1, 10]);
        let err = delta.apply(&base).unwrap_err();
        assert!(matches!(err, DataError::InvalidUpdate(_)));
    }

    #[test]
    fn validation_rejects_bad_arity_and_unknown_relation() {
        let base = db();
        let delta = Delta::insertions_into("visit", vec![tuple![1, 2, 3]]);
        assert!(matches!(
            delta.apply(&base),
            Err(DataError::ArityMismatch { .. })
        ));
        let delta = Delta::insertions_into("enemy", vec![tuple![1]]);
        assert!(matches!(
            delta.apply(&base),
            Err(DataError::UnknownRelation(_))
        ));
    }

    #[test]
    fn batch_fold_merges_to_the_sequential_net_effect() {
        let base = db();
        let mut batch = DeltaBatch::new(&base);
        // d1: insert a fresh visit; d2: delete it again (insert-then-delete
        // nets away); d3: delete an original tuple; d4: reinsert it
        // (delete-then-reinsert nets away); d5: a surviving insertion.
        let d1 = Delta::insertions_into("visit", vec![tuple![7, 70]]);
        let d2 = Delta::deletions_from("visit", vec![tuple![7, 70]]);
        let d3 = Delta::deletions_from("friend", vec![tuple![1, 2]]);
        let d4 = Delta::insertions_into("friend", vec![tuple![1, 2]]);
        let d5 = Delta::insertions_into("visit", vec![tuple![8, 80]]);
        for d in [&d1, &d2, &d3, &d4, &d5] {
            batch.fold(d).unwrap();
        }
        assert_eq!(batch.folded(), 5);
        let merged = batch.merged();
        assert_eq!(merged.size(), 1);
        assert!(merged.relation_delta("visit").unwrap().insertions == vec![tuple![8, 80]]);
        // Applying the merged delta once equals applying the batch one by one.
        let mut sequential = base.clone();
        for d in [&d1, &d2, &d3, &d4, &d5] {
            d.apply_in_place(&mut sequential).unwrap();
        }
        let grouped = merged.apply(&base).unwrap();
        assert!(grouped.contains_database(&sequential) && sequential.contains_database(&grouped));
    }

    #[test]
    fn batch_validates_against_the_evolved_state() {
        let base = db();
        let mut batch = DeltaBatch::new(&base);
        // Deleting a tuple an earlier folded delta inserted is fine…
        batch
            .fold(&Delta::insertions_into("visit", vec![tuple![5, 50]]))
            .unwrap();
        batch
            .fold(&Delta::deletions_from("visit", vec![tuple![5, 50]]))
            .unwrap();
        // …deleting it twice is not (the evolved state lacks it).
        let err = batch
            .fold(&Delta::deletions_from("visit", vec![tuple![5, 50]]))
            .unwrap_err();
        assert!(matches!(err, DataError::InvalidUpdate(_)));
        // Inserting a tuple an earlier delta already inserted is rejected.
        batch
            .fold(&Delta::insertions_into("visit", vec![tuple![6, 60]]))
            .unwrap();
        assert!(batch
            .fold(&Delta::insertions_into("visit", vec![tuple![6, 60]]))
            .is_err());
        assert_eq!(batch.folded(), 3);
    }

    #[test]
    fn invalid_folds_leave_the_batch_untouched() {
        let base = db();
        let mut batch = DeltaBatch::new(&base);
        batch
            .fold(&Delta::insertions_into("visit", vec![tuple![5, 50]]))
            .unwrap();
        // A delta whose *second* relation is invalid must fold nothing: the
        // valid friend deletion may not leak into the net effect.
        let mut bad = Delta::new();
        bad.delete("friend", tuple![1, 2]);
        bad.insert("visit", tuple![1, 10]); // already in base
        assert!(batch.fold(&bad).is_err());
        let merged = batch.merged();
        assert_eq!(merged.size(), 1);
        assert!(merged.relation_delta("friend").is_none());
        // Later valid deltas still fold — the sequential apply-and-continue
        // contract.
        batch
            .fold(&Delta::deletions_from("friend", vec![tuple![1, 2]]))
            .unwrap();
        assert_eq!(batch.merged().size(), 2);
    }

    #[test]
    fn batch_error_kinds_match_sequential_validation() {
        let base = db();
        let mut batch = DeltaBatch::new(&base);
        assert!(matches!(
            batch.fold(&Delta::insertions_into("visit", vec![tuple![1, 2, 3]])),
            Err(DataError::ArityMismatch { .. })
        ));
        assert!(matches!(
            batch.fold(&Delta::insertions_into("enemy", vec![tuple![1]])),
            Err(DataError::UnknownRelation(_))
        ));
        let mut overlap = Delta::new();
        overlap.delete("visit", tuple![1, 10]);
        overlap.insert("visit", tuple![1, 10]);
        assert!(matches!(
            batch.fold(&overlap),
            Err(DataError::InvalidUpdate(_))
        ));
        assert!(batch.is_noop());
        assert_eq!(batch.folded(), 0);
    }

    #[test]
    fn merge_helper_folds_or_fails_fast() {
        let base = db();
        let deltas = vec![
            Delta::insertions_into("visit", vec![tuple![5, 50]]),
            Delta::deletions_from("visit", vec![tuple![5, 50]]),
        ];
        let merged = Delta::merge(&base, &deltas).unwrap();
        assert!(merged.is_empty());
        let bad = vec![Delta::insertions_into("visit", vec![tuple![1, 10]])];
        assert!(Delta::merge(&base, &bad).is_err());
    }

    #[test]
    fn delta_base_is_uniform_over_snapshots_and_sharded_views() {
        use crate::shard::{PartitionMap, ShardedSnapshotStore};
        use crate::snapshot::SnapshotStore;
        let store = SnapshotStore::new(db());
        let snap = store.pin();
        assert_eq!(DeltaBase::arity(snap.as_ref(), "visit").unwrap(), 2);
        assert!(DeltaBase::contains(snap.as_ref(), "visit", &tuple![1, 10]).unwrap());
        assert!(!DeltaBase::contains(snap.as_ref(), "visit", &tuple![9, 9]).unwrap());
        let sharded = ShardedSnapshotStore::new(
            db(),
            PartitionMap::new()
                .with("visit", "id")
                .with("friend", "id1"),
            3,
        )
        .unwrap();
        let view = sharded.pin();
        assert_eq!(DeltaBase::arity(view.as_ref(), "person").unwrap(), 3);
        assert!(DeltaBase::contains(view.as_ref(), "friend", &tuple![1, 2]).unwrap());
        assert!(!DeltaBase::contains(view.as_ref(), "friend", &tuple![2, 9]).unwrap());
        assert!(DeltaBase::arity(view.as_ref(), "enemy").is_err());
        // A merge over a sharded view validates by routed membership.
        let deltas = vec![
            Delta::deletions_from("friend", vec![tuple![1, 2]]),
            Delta::insertions_into("friend", vec![tuple![1, 2]]),
        ];
        assert!(Delta::merge(view.as_ref(), &deltas).unwrap().is_empty());
    }

    #[test]
    fn display_summarises_counts() {
        let mut delta = Delta::new();
        delta
            .insert("visit", tuple![2, 10])
            .delete("friend", tuple![1, 2]);
        let s = delta.to_string();
        assert!(s.contains("visit: +1 −0"));
        assert!(s.contains("friend: +0 −1"));
    }
}
