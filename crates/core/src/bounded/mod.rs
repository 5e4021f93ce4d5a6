//! Bounded (scale-independent) evaluation: the constructive side of
//! Theorem 4.2 and Proposition 4.5 — plan construction (greedy and
//! cost-based), plan execution over an access-indexed database, and the
//! unbounded baseline used for comparison.

pub mod costplan;
pub mod exec;
pub mod naive;
mod physical;
pub mod plan;

pub use costplan::{CostBasedPlanner, CostedPlan};
pub use exec::{execute_bounded, fetch_bounded, BoundedAnswer, SharedFetch};
pub use naive::execute_naive;
pub use plan::{BoundedPlan, BoundedPlanner, PlanStep};
