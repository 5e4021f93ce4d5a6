//! # `si-access` — access schemas
//!
//! Implementation of the access schemas of Section 4 of *"On Scale
//! Independence for Querying Big Data"* (Fan, Geerts, Libkin, PODS 2014):
//!
//! * [`constraint`] — plain constraints `(R, X, N, T)`;
//! * [`embedded`] — embedded constraints `(R, X[Y], N, T)` and functional
//!   dependencies as the special case `N = 1`;
//! * [`schema`] — the access schema `A` itself, including the `A(R)`
//!   full-access augmentation of Proposition 5.5;
//! * [`conformance`] — checking that a database conforms to `A`;
//! * [`indexed`] — [`AccessIndexedDatabase`], the retrieval layer that
//!   lazily materialises the promised indexes and meters every fetch;
//! * [`source`] — [`AccessSource`], the storage-agnostic retrieval trait the
//!   bounded executors evaluate against, and [`SnapshotAccess`], its
//!   implementation over pinned [`si_data::DatabaseSnapshot`] versions (the
//!   concurrent serving surface used by `si-engine`);
//! * [`sharded`] — [`ShardedAccess`], the same trait over a pinned
//!   hash-partitioned [`si_data::ShardedSnapshotView`]: exact-match probes
//!   on the partition column route to a single shard, everything else
//!   scatter-gathers in shard order with unsharded-identical accounting;
//! * [`remote`] — [`ReplicatedAccess`], `ShardedAccess`'s transport-backed
//!   twin: the same routing and charge points against a [`ShardProber`]
//!   (shard replica servers behind a wire), with replicas executing only
//!   the raw pushed-down probe so accounting stays byte-identical;
//! * [`cost`] — the two-sided cost model: static, data-independent bounds
//!   ([`StaticCost`]) that *admit* bounded plans, and statistics-driven
//!   estimates ([`CostModel`]) that *rank* them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod constraint;
pub mod cost;
pub mod embedded;
pub mod indexed;
pub mod remote;
pub mod schema;
pub mod sharded;
pub mod source;

pub use conformance::{conforms, violations, Violation};
pub use constraint::AccessConstraint;
pub use cost::{CostModel, StaticCost};
pub use embedded::EmbeddedConstraint;
pub use indexed::{AccessError, AccessIndexedDatabase};
pub use remote::{ReplicatedAccess, ShardProber};
pub use schema::{facebook_access_schema, AccessSchema};
pub use sharded::ShardedAccess;
pub use source::{best_embedded, raw_index_probe, AccessSource, ResolvedProbe, SnapshotAccess};

/// Convenience result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, AccessError>;
