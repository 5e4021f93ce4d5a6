//! # `si-core` — scale independence for querying big data
//!
//! A Rust implementation of the framework of *"On Scale Independence for
//! Querying Big Data"* (Wenfei Fan, Floris Geerts, Leonid Libkin, PODS 2014).
//!
//! A query `Q` is **scale-independent** in a database `D` w.r.t. a budget `M`
//! when some `D_Q ⊆ D` with at most `M` tuples satisfies `Q(D_Q) = Q(D)`:
//! the answer can be computed by fetching a bounded amount of data, no matter
//! how big `D` grows.  This crate provides:
//!
//! * [`si`] — the definitions, witnesses, and the witness problem;
//! * [`qdsi`] / [`qsi`] — exact decision procedures for the QDSI and QSI
//!   problems of Section 3 (with explicit search-space guards, since the
//!   problems are Σp3-/PSPACE-complete and undecidable respectively);
//! * [`controllability`] — the syntactic sufficient conditions of Sections 4
//!   and 5: x̄-controlled FO queries under access schemas, embedded
//!   controllability (closure of embedded constraints), the `RA_A` rules for
//!   relational algebra and its increment/decrement forms, and the
//!   QCntl/QCntlmin problems;
//! * [`bounded`] — bounded (scale-independent) query plans and their
//!   executor: the constructive content of Theorem 4.2, plus the unbounded
//!   baseline;
//! * [`incremental`] — incremental scale independence: change propagation,
//!   bounded maintenance under updates, and ∆QSI;
//! * [`views`] — scale independence using views: rewritings, constrained
//!   variables, VQSI, and view-assisted bounded execution.
//!
//! ## Execution representation
//!
//! All executors in this crate run on the **copy-cheap data plane** shared
//! with `si-query`: `si_data::Value` is a `Copy` enum with interned strings.
//! The Theorem-4.2 executor runs a plan compiled once by the planner
//! (variables numbered into row slots, probes resolved to relation ids) over
//! one flat `Vec<Option<Value>>` row slab, so extending an assignment copies
//! a flat array of `Copy` values instead of a `BTreeMap<Var, Value>`;
//! incremental maintenance uses the flat `si_query::binding::Binding` slabs
//! over a `si_query::binding::VarTable`.
//!
//! ## Quick start
//!
//! ```
//! use si_core::prelude::*;
//! use si_data::{tuple, Database, Value};
//! use si_data::schema::social_schema;
//! use si_query::parse_cq;
//!
//! // The paper's Q1: friends of p living in NYC.
//! let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
//!
//! // Access schema: at most 5000 friends per person, `id` is a key of person.
//! let access = si_access::facebook_access_schema(5000);
//! let schema = social_schema();
//!
//! // Q1 is p-controlled, hence scale-independent once p is fixed.
//! let planner = BoundedPlanner::new(&schema, &access);
//! let plan = planner.plan(&q1, &["p".into()]).unwrap();
//! assert_eq!(plan.static_cost().max_tuples, 10_000);
//!
//! // Execute it against a (tiny) conforming database.
//! let mut db = Database::empty(schema);
//! db.insert("person", tuple![2, "bob", "NYC"]).unwrap();
//! db.insert("friend", tuple![1, 2]).unwrap();
//! let adb = si_access::AccessIndexedDatabase::new(db, access).unwrap();
//! let result = execute_bounded(&plan, &[Value::int(1)], &adb).unwrap();
//! assert_eq!(result.answers, vec![tuple!["bob"]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod controllability;
pub mod error;
pub mod incremental;
pub mod qdsi;
pub mod qsi;
pub mod si;
pub mod views;

pub use bounded::{
    execute_bounded, execute_naive, fetch_bounded, BoundedAnswer, BoundedPlan, BoundedPlanner,
    CostBasedPlanner, CostedPlan, PlanStep, SharedFetch,
};
pub use controllability::{
    decide_qcntl, decide_qcntl_min, minimal_controlling_sets, AlgebraControllability,
    ControlFamily, ControllabilityAnalyzer, EmbeddedControllability, ExprForm, QcntlOutcome,
};
pub use error::CoreError;
pub use incremental::{
    decide_delta_qsi, decide_delta_qsi_for_update, maintenance_is_bounded,
    IncrementalBoundedEvaluator,
};
pub use qdsi::{decide_qdsi, decide_qdsi_with_access, DecisionMethod, QdsiOutcome, SearchLimits};
pub use qsi::{decide_qsi, QsiAnswer};
pub use si::{check_witness, is_witness, AnyQuery, Witness};
pub use views::{
    decide_vqsi_cq, execute_with_views, find_cheapest_rewriting, find_rewriting, is_rewriting,
    is_scale_independent_using_views, ViewDef, ViewSet, VqsiOutcome,
};

/// Convenience result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// A convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::bounded::{execute_bounded, execute_naive, BoundedPlanner, CostBasedPlanner};
    pub use crate::controllability::{
        AlgebraControllability, ControllabilityAnalyzer, EmbeddedControllability, ExprForm,
    };
    pub use crate::incremental::IncrementalBoundedEvaluator;
    pub use crate::qdsi::{decide_qdsi, SearchLimits};
    pub use crate::qsi::decide_qsi;
    pub use crate::si::AnyQuery;
    pub use crate::views::{execute_with_views, ViewDef, ViewSet};
    pub use crate::CoreError;
}
