//! Per-request traces: phase timings, plan provenance, and cost accounting.
//!
//! A [`RequestTrace`] is the engine's flight record for one served query:
//! which plan shape ran, where the time went phase by phase
//! (admit → plan-cache lookup → snapshot pin → fetch → finalize → reply),
//! how many tuples the planner *estimated* versus how many the executor
//! *actually* fetched, how shard probes split between routed and fanned, and
//! whether the answer came from the materialized cache or a shared batch
//! fetch. Traces are built inline on the serve path only for sampled
//! requests (see [`Sampler`]); slow outliers outside the sample still get a
//! post-hoc trace with `phases_recorded == false`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Serve-path phases, in hot-path order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Arity validation and shape canonicalization.
    Admit,
    /// Materialized-answer and prepared-plan cache lookup (including a
    /// cost-based planning pass on a cache miss).
    PlanLookup,
    /// Pinning the epoch-versioned snapshot.
    SnapshotPin,
    /// Bounded fetch: index probes and tuple retrieval.
    Fetch,
    /// Residual-join finalization of fetched rows into answers.
    Finalize,
    /// Response assembly, meter merge, and materialization offer.
    Reply,
}

impl Phase {
    /// All phases, in serve order.
    pub const ALL: [Phase; 6] = [
        Phase::Admit,
        Phase::PlanLookup,
        Phase::SnapshotPin,
        Phase::Fetch,
        Phase::Finalize,
        Phase::Reply,
    ];

    /// Stable lowercase name used in rendered traces and exposition labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admit => "admit",
            Phase::PlanLookup => "plan_lookup",
            Phase::SnapshotPin => "snapshot_pin",
            Phase::Fetch => "fetch",
            Phase::Finalize => "finalize",
            Phase::Reply => "reply",
        }
    }
}

/// Per-phase nanosecond durations for one request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    nanos: [u64; Phase::ALL.len()],
}

impl PhaseTimings {
    /// Nanoseconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Adds `nanos` to `phase` (phases touched twice accumulate).
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase as usize] += nanos;
    }

    /// Sum over all phases.
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Iterates `(phase, nanos)` in serve order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.get(p)))
    }
}

/// A monotonic stopwatch that charges elapsed time to phases.
///
/// `mark(phase)` attributes everything since the previous mark (or
/// construction) to `phase`, so the resulting [`PhaseTimings`] partition the
/// wall-clock interval from construction to the final mark exactly — phase
/// sums reconcile with the total by design, not by luck.
#[derive(Debug)]
pub struct PhaseClock {
    started: Instant,
    last: Instant,
    timings: PhaseTimings,
}

impl Default for PhaseClock {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseClock {
    /// Starts the stopwatch.
    pub fn new() -> Self {
        let now = Instant::now();
        PhaseClock {
            started: now,
            last: now,
            timings: PhaseTimings::default(),
        }
    }

    /// Charges the time since the previous mark to `phase`.
    pub fn mark(&mut self, phase: Phase) {
        let now = Instant::now();
        let nanos = u64::try_from(now.duration_since(self.last).as_nanos()).unwrap_or(u64::MAX);
        self.timings.add(phase, nanos);
        self.last = now;
    }

    /// Total wall-clock nanoseconds since construction.
    pub fn total_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The accumulated per-phase timings.
    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }
}

/// Where a served answer came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Executed a bounded plan; `cache_hit` is true when the prepared plan
    /// came from the plan cache rather than a fresh planning pass.
    Planned {
        /// True when the plan-cache lookup hit.
        cache_hit: bool,
    },
    /// Served from the incrementally maintained materialized answer cache
    /// (zero data-plane accesses).
    Materialized,
}

/// Batch/shared-fetch membership of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchMembership {
    /// Number of requests coalesced into the group.
    pub group_size: u32,
    /// True when the group shared one executed fetch (identical shape and
    /// parameters) rather than merely sharing a snapshot pin.
    pub shared_fetch: bool,
}

/// The flight record of one served request.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Canonical (alpha-renamed) shape key of the query.
    pub shape: String,
    /// Snapshot epoch the request was served at.
    pub epoch: u64,
    /// Per-phase durations; meaningful only when `phases_recorded`.
    pub phases: PhaseTimings,
    /// True when the trace was built inline (sampled); false for post-hoc
    /// slow-query traces, whose phase array is all zeros.
    pub phases_recorded: bool,
    /// End-to-end service time in nanoseconds (excludes queue wait).
    pub total_nanos: u64,
    /// Time spent queued in the worker pool before service (0 when executed
    /// directly on the caller's thread).
    pub queue_wait_nanos: u64,
    /// Where the answer came from.
    pub provenance: Provenance,
    /// The planner's tuple estimate for the chosen plan (0.0 for
    /// materialized hits, which fetch nothing).
    pub estimated_tuples: f64,
    /// Tuples actually fetched, exactly as metered on the response.
    pub fetched_tuples: u64,
    /// Answers returned.
    pub answers: u64,
    /// Shard probes answered by the single routed shard (0 when unsharded).
    pub routed_fetches: u64,
    /// Shard probes that had to fan out to every shard (0 when unsharded).
    pub fanned_fetches: u64,
    /// Batch membership, when the request was served as part of a group.
    pub batch: Option<BatchMembership>,
    /// True when service time exceeded the engine's slow threshold.
    pub slow: bool,
}

impl RequestTrace {
    /// Planner estimation error as the ratio `(actual + 1) / (estimated + 1)`
    /// — 1.0 is a perfect estimate, > 1 underestimation, < 1 overestimation.
    /// (The +1 smoothing keeps zero-fetch materialized hits finite.)
    pub fn estimation_ratio(&self) -> f64 {
        (self.fetched_tuples as f64 + 1.0) / (self.estimated_tuples + 1.0)
    }

    /// One-line human-readable rendering (used by the slow log).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>9}µs epoch={} shape={} tuples={} est={:.1} answers={} {}",
            self.total_nanos / 1000,
            self.epoch,
            self.shape,
            self.fetched_tuples,
            self.estimated_tuples,
            self.answers,
            match self.provenance {
                Provenance::Materialized => "materialized",
                Provenance::Planned { cache_hit: true } => "plan=cached",
                Provenance::Planned { cache_hit: false } => "plan=fresh",
            },
        );
        if self.routed_fetches + self.fanned_fetches > 0 {
            out.push_str(&format!(
                " routed={} fanned={}",
                self.routed_fetches, self.fanned_fetches
            ));
        }
        if let Some(b) = self.batch {
            out.push_str(&format!(
                " group={}{}",
                b.group_size,
                if b.shared_fetch { " shared" } else { "" }
            ));
        }
        if self.queue_wait_nanos > 0 {
            out.push_str(&format!(" qwait={}µs", self.queue_wait_nanos / 1000));
        }
        if self.phases_recorded {
            out.push_str(" |");
            for (p, ns) in self.phases.iter() {
                out.push_str(&format!(" {}={}µs", p.name(), ns / 1000));
            }
        }
        if self.slow {
            out.push_str(" SLOW");
        }
        out
    }
}

/// Deterministic 1-in-N request sampler with an always-off mode.
///
/// `every == 0` disables sampling entirely (`hit` is one relaxed load and a
/// branch); `every == 1` samples every request; `every == N` samples requests
/// `0, N, 2N, …` in admission order via a relaxed shared counter.  The rate
/// can be retuned at runtime with [`set_every`](Self::set_every) — turning
/// tracing on against a live system is the whole point of a sampling knob.
#[derive(Debug)]
pub struct Sampler {
    every: AtomicU64,
    counter: AtomicU64,
}

impl Sampler {
    /// Creates a sampler firing once every `every` requests (0 = never).
    pub fn new(every: u64) -> Self {
        Sampler {
            every: AtomicU64::new(every),
            counter: AtomicU64::new(0),
        }
    }

    /// True when sampling is enabled at all.
    pub fn enabled(&self) -> bool {
        self.every.load(Ordering::Relaxed) != 0
    }

    /// Retunes the sampling rate; takes effect for subsequent draws.
    pub fn set_every(&self, every: u64) {
        self.every.store(every, Ordering::Relaxed);
    }

    /// Draws the next sampling decision.
    pub fn hit(&self) -> bool {
        let every = self.every.load(Ordering::Relaxed);
        if every == 0 {
            return false;
        }
        self.counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_clock_partitions_wall_clock() {
        let mut clock = PhaseClock::new();
        clock.mark(Phase::Admit);
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.mark(Phase::Fetch);
        clock.mark(Phase::Reply);
        let t = clock.timings();
        assert!(t.get(Phase::Fetch) >= 2_000_000);
        assert_eq!(t.total(), t.iter().map(|(_, n)| n).sum::<u64>());
        // total since construction can only exceed the charged phases by the
        // (tiny) tail after the last mark.
        assert!(clock.total_nanos() >= t.total());
    }

    #[test]
    fn sampler_rates() {
        let off = Sampler::new(0);
        assert!(!off.enabled());
        assert!((0..10).all(|_| !off.hit()));

        let every = Sampler::new(1);
        assert!((0..10).all(|_| every.hit()));

        let third = Sampler::new(3);
        let hits = (0..9).filter(|_| third.hit()).count();
        assert_eq!(hits, 3);
    }

    #[test]
    fn estimation_ratio_is_smoothed() {
        let t = RequestTrace {
            shape: "q".into(),
            epoch: 0,
            phases: PhaseTimings::default(),
            phases_recorded: false,
            total_nanos: 10,
            queue_wait_nanos: 0,
            provenance: Provenance::Materialized,
            estimated_tuples: 0.0,
            fetched_tuples: 0,
            answers: 1,
            routed_fetches: 0,
            fanned_fetches: 0,
            batch: None,
            slow: false,
        };
        assert_eq!(t.estimation_ratio(), 1.0);
        assert!(t.render().contains("materialized"));
    }
}
