//! Error type of the serving layer.

use si_access::AccessError;
use si_core::CoreError;
use si_data::DataError;
use si_durability::DurabilityError;
use std::fmt;

/// Errors raised by the query-serving engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Propagated planner/executor error.
    Core(CoreError),
    /// Propagated storage error (snapshot commits, bad deltas, …).
    Data(DataError),
    /// Propagated durability-plane error (WAL append, checkpoint, recovery).
    /// On a durable engine a commit whose WAL append fails returns this and
    /// leaves the in-memory store untouched — nothing undurable is served.
    Durability(DurabilityError),
    /// Admission control rejected the request: every bounded plan's
    /// worst-case fetch count exceeds the engine's fetch budget.  This is the
    /// paper's boundedness guarantee used as a *load-shedding* signal — an
    /// unbounded (or too-expensive) query is turned away before it touches
    /// the data.
    RejectedByBudget {
        /// The engine's per-request worst-case fetch budget.
        budget: u64,
        /// The cheapest worst case among the plans found.
        cheapest: u64,
    },
    /// Load shed: the submission queue is at capacity.
    Overloaded {
        /// Requests pending when the submission was refused.
        queued: usize,
        /// The configured queue capacity.
        max_queue: usize,
    },
    /// The request supplies the wrong number of parameter values.
    ParameterArity {
        /// Parameters the query declares.
        expected: usize,
        /// Values the request supplied.
        actual: usize,
    },
    /// The engine's worker pool has shut down.
    ShuttingDown,
    /// The requested epoch cannot be served: it is ahead of what the store
    /// (or, for replicated reads, a replica) has committed/applied, or it
    /// has fallen out of a replica's retention window.  Raised by
    /// [`Engine::execute_at`](crate::Engine::execute_at) for snapshots from
    /// a different store's future or of a kind no engine produces, and by
    /// replicated execution when the epoch wait for read-your-writes times
    /// out.
    EpochUnavailable {
        /// The epoch the caller pinned.
        requested: u64,
        /// The newest epoch available to serve.
        newest: u64,
    },
    /// A replication-plane failure: the attach handshake failed, a shard has
    /// no replica attached, or a replica connection died mid-operation.
    Replication(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "{e}"),
            EngineError::Data(e) => write!(f, "{e}"),
            EngineError::Durability(e) => write!(f, "{e}"),
            EngineError::RejectedByBudget { budget, cheapest } => write!(
                f,
                "admission control rejected the request: cheapest plan fetches ≤{cheapest} tuples, budget is {budget}"
            ),
            EngineError::Overloaded { queued, max_queue } => write!(
                f,
                "engine overloaded: {queued} requests queued (capacity {max_queue})"
            ),
            EngineError::ParameterArity { expected, actual } => write!(
                f,
                "request supplies {actual} parameter values, query declares {expected}"
            ),
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::EpochUnavailable { requested, newest } => write!(
                f,
                "epoch {requested} is not available to serve (newest is {newest})"
            ),
            EngineError::Replication(msg) => write!(f, "replication failure: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Data(e) => Some(e),
            EngineError::Durability(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    /// A replica that cannot serve the pinned epoch surfaces as the engine's
    /// own [`EngineError::EpochUnavailable`]; every other core error wraps.
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Access(AccessError::EpochUnavailable {
                requested, newest, ..
            }) => EngineError::EpochUnavailable { requested, newest },
            other => EngineError::Core(other),
        }
    }
}

impl From<DataError> for EngineError {
    fn from(e: DataError) -> Self {
        EngineError::Data(e)
    }
}

impl From<DurabilityError> for EngineError {
    fn from(e: DurabilityError) -> Self {
        EngineError::Durability(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: EngineError = CoreError::Unsupported("agg".into()).into();
        assert!(e.to_string().contains("agg"));
        assert!(std::error::Error::source(&e).is_some());
        let e: EngineError = DataError::UnknownRelation("r".into()).into();
        assert!(e.to_string().contains("unknown relation"));
        let e: EngineError = DurabilityError::NoCheckpoint.into();
        assert!(e.to_string().contains("checkpoint"));
        assert!(std::error::Error::source(&e).is_some());
        let e = EngineError::RejectedByBudget {
            budget: 10,
            cheapest: 20,
        };
        assert!(e.to_string().contains("budget is 10"));
        assert!(std::error::Error::source(&e).is_none());
        assert!(EngineError::Overloaded {
            queued: 5,
            max_queue: 4
        }
        .to_string()
        .contains("capacity 4"));
        assert!(EngineError::ParameterArity {
            expected: 2,
            actual: 1
        }
        .to_string()
        .contains("declares 2"));
        assert!(EngineError::ShuttingDown.to_string().contains("shutting"));
        assert!(EngineError::EpochUnavailable {
            requested: 7,
            newest: 3
        }
        .to_string()
        .contains("epoch 7"));
        assert!(EngineError::Replication("wire tore".into())
            .to_string()
            .contains("wire tore"));
    }
}
