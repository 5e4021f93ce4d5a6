//! Per-relation statistics: the raw material of the cost-based planner.
//!
//! The planner in `si-core` chooses between access paths using *estimated*
//! cardinalities, while the access constraints of the paper provide
//! *worst-case* bounds.  The two are deliberately kept apart: a constraint
//! `(R, X, N, T)` must hold for every key (so `N` is the maximum fanout),
//! whereas the expected number of tuples matching a random key is
//! `|R| / |π_X(R)|` — often orders of magnitude smaller on skewed data.
//! [`DatabaseStats`] records, per relation, the row count and the number of
//! distinct values per column; `si_access::cost` turns these into fetch-cost
//! estimates.
//!
//! Statistics are a snapshot: collect them with [`DatabaseStats::collect`]
//! (one pass over the instance) and re-collect after bulk updates.  Estimates
//! degrade gracefully when stale — they only influence plan *choice*, never
//! correctness, because every enumerated plan answers the query exactly.
//!
//! ```
//! use si_data::stats::DatabaseStats;
//! use si_data::schema::social_schema;
//! use si_data::{tuple, Database};
//!
//! let mut db = Database::empty(social_schema());
//! db.insert_all("friend", vec![tuple![1, 2], tuple![1, 3], tuple![2, 3]]).unwrap();
//! let stats = DatabaseStats::collect(&db);
//! let friend = stats.relation("friend").unwrap();
//! assert_eq!(friend.rows, 3);
//! assert_eq!(friend.distinct("id1"), Some(2));
//! // Expected tuples matching a random id1: 3 rows / 2 distinct keys.
//! assert_eq!(friend.estimated_matches(&["id1".into()]), 1.5);
//! ```

use crate::database::Database;
use crate::relation::Relation;
use crate::schema::RelationSchema;
use std::collections::BTreeMap;

/// Statistics of a single relation: row count and per-column distinct counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelationStats {
    /// Number of tuples in the relation.
    pub rows: usize,
    /// Distinct value count per column, keyed by attribute name.
    pub columns: BTreeMap<String, usize>,
}

impl RelationStats {
    /// Collects statistics of one relation in one pass over its tuples.
    ///
    /// The relation may be stored as disjoint `parts` — the shards of a
    /// [`crate::ShardedSnapshotStore`], or the whole relation as its only
    /// part: rows are summed and distinct values counted across parts, so
    /// the result does not depend on how the relation is split.
    pub fn collect(schema: &RelationSchema, parts: &[&Relation]) -> Self {
        let distincts = Relation::column_distincts(parts);
        RelationStats {
            rows: parts.iter().map(|r| r.len()).sum(),
            columns: schema.attributes().iter().cloned().zip(distincts).collect(),
        }
    }

    /// Distinct value count of `attribute`, if known.
    pub fn distinct(&self, attribute: &str) -> Option<usize> {
        self.columns.get(attribute).copied()
    }

    /// Expected number of tuples matching an equality selection on
    /// `attributes` with a *random* key, under the standard independence and
    /// uniformity assumptions: `rows · Π 1/distinct(a)`.
    ///
    /// Invariants: the estimate is `rows` for an empty attribute list, `0`
    /// for an empty relation, never negative and never above `rows`.
    /// Duplicate attributes are counted once; unknown attributes contribute
    /// no selectivity (factor 1) rather than failing, so stale statistics
    /// degrade estimates, not correctness.
    pub fn estimated_matches(&self, attributes: &[String]) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let mut est = self.rows as f64;
        let mut seen: Vec<&str> = Vec::with_capacity(attributes.len());
        for a in attributes {
            if seen.contains(&a.as_str()) {
                continue;
            }
            seen.push(a);
            if let Some(d) = self.columns.get(a) {
                if *d > 0 {
                    est /= *d as f64;
                }
            }
        }
        est.min(self.rows as f64)
    }
}

/// Statistics for every relation of a database instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatabaseStats {
    relations: BTreeMap<String, RelationStats>,
}

impl DatabaseStats {
    /// Collects statistics for every relation of `db` in one pass each.
    pub fn collect(db: &Database) -> Self {
        Self::collect_relations(db.relations())
    }

    /// Collects statistics from an iterator of relations — the entry point
    /// shared by [`Database::statistics`] and the versioned
    /// [`crate::snapshot::DatabaseSnapshot::statistics`].
    pub fn collect_relations<'a>(relations: impl Iterator<Item = &'a Relation>) -> Self {
        Self::collect_parts(relations.map(|r| (r.schema(), vec![r])))
    }

    /// Collects statistics from `(schema, parts)` pairs, one per relation,
    /// each relation stored as disjoint parts (see [`RelationStats::collect`])
    /// — the entry point of the sharded store's exact cross-shard merge
    /// ([`crate::ShardedSnapshotView::statistics`]).
    pub fn collect_parts<'a>(
        relations: impl Iterator<Item = (&'a RelationSchema, Vec<&'a Relation>)>,
    ) -> Self {
        let relations = relations
            .map(|(schema, parts)| {
                (
                    schema.name().to_owned(),
                    RelationStats::collect(schema, &parts),
                )
            })
            .collect();
        DatabaseStats { relations }
    }

    /// Statistics of a single relation, if present.
    pub fn relation(&self, name: &str) -> Option<&RelationStats> {
        self.relations.get(name)
    }

    /// Iterates over `(relation name, stats)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &RelationStats)> {
        self.relations.iter()
    }

    /// Total number of tuples across relations (`|D|` as sampled).
    pub fn total_rows(&self) -> usize {
        self.relations.values().map(|s| s.rows).sum()
    }

    /// How far the live row counts have drifted from this snapshot: the
    /// maximum over relations of `|len − rows| / max(rows, 1)`.
    ///
    /// This is the cheap staleness signal the `si-engine` plan cache uses to
    /// decide when to re-collect statistics and invalidate prepared plans —
    /// it reads only relation lengths, never scans tuples.  Relations absent
    /// from the snapshot count with `rows = 0`.
    pub fn max_relative_row_drift<'a>(&self, relations: impl Iterator<Item = &'a Relation>) -> f64 {
        self.max_relative_row_drift_counts(relations.map(|r| (r.name().to_owned(), r.len())))
    }

    /// [`DatabaseStats::max_relative_row_drift`] over pre-summed
    /// `(relation, rows)` pairs — the form a sharded view reports, where a
    /// relation's live row count is the sum across shards.
    pub fn max_relative_row_drift_counts(
        &self,
        counts: impl IntoIterator<Item = (String, usize)>,
    ) -> f64 {
        let mut drift = 0.0f64;
        for (name, len) in counts {
            let sampled = self.relation(&name).map(|s| s.rows).unwrap_or(0);
            let delta = len.abs_diff(sampled) as f64;
            drift = drift.max(delta / sampled.max(1) as f64);
        }
        drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::social_schema;
    use crate::tuple;

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
    fn collect_counts_rows_and_distincts() {
        let stats = DatabaseStats::collect(&db());
        let person = stats.relation("person").unwrap();
        assert_eq!(person.rows, 3);
        assert_eq!(person.distinct("id"), Some(3));
        assert_eq!(person.distinct("city"), Some(2));
        assert_eq!(person.distinct("zip"), None);
        let friend = stats.relation("friend").unwrap();
        assert_eq!(friend.distinct("id1"), Some(2));
        assert_eq!(stats.total_rows(), 6);
        assert_eq!(stats.iter().count(), 4);
        assert!(stats.relation("enemy").is_none());
    }

    #[test]
    fn estimated_matches_follows_the_uniformity_model() {
        let stats = DatabaseStats::collect(&db());
        let person = stats.relation("person").unwrap();
        // Key column: one expected match.
        assert_eq!(person.estimated_matches(&["id".into()]), 1.0);
        // Skewed column: 3 rows over 2 cities.
        assert_eq!(person.estimated_matches(&["city".into()]), 1.5);
        // Conjunction multiplies selectivities.
        assert_eq!(person.estimated_matches(&["id".into(), "city".into()]), 0.5);
        // Empty attribute list estimates the whole relation.
        assert_eq!(person.estimated_matches(&[]), 3.0);
        // Duplicates count once; unknown attributes are neutral.
        assert_eq!(
            person.estimated_matches(&["id".into(), "id".into(), "zip".into()]),
            1.0
        );
    }

    #[test]
    fn estimates_are_clamped() {
        let empty = RelationStats::default();
        assert_eq!(empty.estimated_matches(&["a".into()]), 0.0);
        let degenerate = RelationStats {
            rows: 4,
            columns: [("a".to_string(), 0usize)].into_iter().collect(),
        };
        // A zero distinct count (empty column snapshot) is neutral, and the
        // estimate never exceeds the row count.
        assert_eq!(degenerate.estimated_matches(&["a".into()]), 4.0);
    }
}
