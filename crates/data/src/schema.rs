//! Relation and database schemas.
//!
//! A relational schema `R = (R1, …, Rn)` associates a fixed attribute list
//! with each relation name (paper, Section 2).  Attributes are referred to by
//! name in the public API and resolved to positional indexes internally.

use crate::error::DataError;
use crate::Result;
use std::fmt;

/// The signature of a single relation: a name plus an ordered attribute list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    name: String,
    attributes: Vec<String>,
}

impl RelationSchema {
    /// Creates a relation schema.  Attribute names must be distinct.
    pub fn new(name: impl Into<String>, attributes: &[&str]) -> Self {
        let name = name.into();
        let attributes: Vec<String> = attributes.iter().map(|a| (*a).to_owned()).collect();
        debug_assert!(
            {
                let mut sorted = attributes.clone();
                sorted.sort();
                sorted.dedup();
                sorted.len() == attributes.len()
            },
            "attribute names of `{name}` must be distinct"
        );
        RelationSchema { name, attributes }
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered attribute names.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Number of attributes (arity).
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Resolves an attribute name to its position.
    pub fn position_of(&self, attribute: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a == attribute)
            .ok_or_else(|| DataError::UnknownAttribute {
                relation: self.name.clone(),
                attribute: attribute.to_owned(),
            })
    }

    /// Resolves a list of attribute names to positions, preserving order.
    pub fn positions_of(&self, attributes: &[String]) -> Result<Vec<usize>> {
        attributes.iter().map(|a| self.position_of(a)).collect()
    }

    /// True iff `attribute` is one of this relation's attributes.
    pub fn has_attribute(&self, attribute: &str) -> bool {
        self.attributes.iter().any(|a| a == attribute)
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.attributes.join(", "))
    }
}

/// A database schema: a collection of relation schemas keyed by name.
///
/// Relations are kept in name order, and a relation's position in that order
/// is its *id* ([`DatabaseSchema::relation_id`]): storage that lays its
/// relations out in the same order (a [`crate::DatabaseSnapshot`]) can be
/// probed by id with no name lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseSchema {
    /// Sorted by name, names unique.
    relations: Vec<RelationSchema>,
}

impl DatabaseSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        DatabaseSchema::default()
    }

    /// Creates a schema from a list of relation schemas.
    ///
    /// Fails if two relations share a name.
    pub fn from_relations(relations: Vec<RelationSchema>) -> Result<Self> {
        let mut schema = DatabaseSchema::new();
        for r in relations {
            schema.add_relation(r)?;
        }
        Ok(schema)
    }

    /// Adds a relation schema, failing on duplicates.
    pub fn add_relation(&mut self, relation: RelationSchema) -> Result<()> {
        match self.search(relation.name()) {
            Ok(_) => Err(DataError::DuplicateRelation(relation.name().to_owned())),
            Err(at) => {
                self.relations.insert(at, relation);
                Ok(())
            }
        }
    }

    fn search(&self, name: &str) -> std::result::Result<usize, usize> {
        self.relations.binary_search_by(|r| r.name().cmp(name))
    }

    /// Looks up a relation schema by name.
    pub fn relation(&self, name: &str) -> Result<&RelationSchema> {
        self.relation_id(name).map(|id| &self.relations[id])
    }

    /// The id of relation `name`: its position in name order.
    pub fn relation_id(&self, name: &str) -> Result<usize> {
        self.search(name)
            .map_err(|_| DataError::UnknownRelation(name.to_owned()))
    }

    /// The relation schema with id `id`, if there is one.
    pub fn relation_at(&self, id: usize) -> Option<&RelationSchema> {
        self.relations.get(id)
    }

    /// True iff the schema declares `name`.
    pub fn has_relation(&self, name: &str) -> bool {
        self.search(name).is_ok()
    }

    /// Iterates over all relation schemas in name (id) order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.iter()
    }

    /// Relation names in lexicographic order.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.iter().map(|r| r.name.clone()).collect()
    }

    /// Number of relations declared by the schema.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff the schema declares no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

impl fmt::Display for DatabaseSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Builds the four-relation social-network schema used throughout the paper's
/// examples: `person(id, name, city)`, `friend(id1, id2)`,
/// `restr(rid, name, city, rating)` and `visit(id, rid)`.
pub fn social_schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::new("person", &["id", "name", "city"]),
        RelationSchema::new("friend", &["id1", "id2"]),
        RelationSchema::new("restr", &["rid", "name", "city", "rating"]),
        RelationSchema::new("visit", &["id", "rid"]),
    ])
    .expect("social schema relation names are distinct")
}

/// Builds the extended social schema of Example 4.1 where `visit` carries a
/// date: `visit(id, rid, yy, mm, dd)`.
pub fn social_schema_dated() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::new("person", &["id", "name", "city"]),
        RelationSchema::new("friend", &["id1", "id2"]),
        RelationSchema::new("restr", &["rid", "name", "city", "rating"]),
        RelationSchema::new("visit", &["id", "rid", "yy", "mm", "dd"]),
    ])
    .expect("social schema relation names are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_schema_resolves_attributes() {
        let r = RelationSchema::new("person", &["id", "name", "city"]);
        assert_eq!(r.name(), "person");
        assert_eq!(r.arity(), 3);
        assert_eq!(r.position_of("name").unwrap(), 1);
        assert!(r.has_attribute("city"));
        assert!(!r.has_attribute("zip"));
        assert!(matches!(
            r.position_of("zip"),
            Err(DataError::UnknownAttribute { .. })
        ));
        assert_eq!(
            r.positions_of(&["city".into(), "id".into()]).unwrap(),
            vec![2, 0]
        );
    }

    #[test]
    fn database_schema_rejects_duplicates() {
        let mut s = DatabaseSchema::new();
        s.add_relation(RelationSchema::new("r", &["a"])).unwrap();
        let err = s
            .add_relation(RelationSchema::new("r", &["b"]))
            .unwrap_err();
        assert_eq!(err, DataError::DuplicateRelation("r".into()));
    }

    #[test]
    fn database_schema_lookup_and_iteration() {
        let s = social_schema();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.has_relation("friend"));
        assert!(!s.has_relation("enemy"));
        assert_eq!(s.relation("restr").unwrap().arity(), 4);
        assert!(matches!(
            s.relation("enemy"),
            Err(DataError::UnknownRelation(_))
        ));
        assert_eq!(
            s.relation_names(),
            vec!["friend", "person", "restr", "visit"]
        );
        assert_eq!(s.relations().count(), 4);
        // Ids are positions in name order, whatever the declaration order.
        assert_eq!(s.relation_id("person").unwrap(), 1);
        assert_eq!(s.relation_at(1).unwrap().name(), "person");
        assert!(s.relation_at(4).is_none());
        assert!(s.relation_id("enemy").is_err());
    }

    #[test]
    fn dated_schema_extends_visit() {
        let s = social_schema_dated();
        assert_eq!(s.relation("visit").unwrap().arity(), 5);
        assert!(s.relation("visit").unwrap().has_attribute("yy"));
    }

    #[test]
    fn display_renders_signatures() {
        let r = RelationSchema::new("friend", &["id1", "id2"]);
        assert_eq!(r.to_string(), "friend(id1, id2)");
        let s = social_schema();
        let text = s.to_string();
        assert!(text.contains("person(id, name, city)"));
        assert!(text.contains("friend(id1, id2)"));
    }
}
