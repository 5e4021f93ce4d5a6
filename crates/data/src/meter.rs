//! Deterministic access metering.
//!
//! Scale independence is defined in terms of *how many tuples of the base
//! data are accessed*, not wall-clock time.  Every retrieval path in the
//! workspace (indexed fetches, full scans, naive evaluation) reports to a
//! [`MeterSink`], so that experiments can verify claims such as
//! "`Q(D)` was computed by fetching at most `M` tuples of `D`" exactly,
//! independent of machine speed.
//!
//! Two sinks are provided:
//!
//! * [`AccessMeter`] — `Cell`-based, the cheapest possible counters for
//!   single-threaded evaluation (deliberately `!Sync`);
//! * [`SharedMeter`] — `AtomicU64`-based and `Sync`, for aggregating counts
//!   across the worker threads of the `si-engine` serving layer.  Workers
//!   keep charging a thread-local [`AccessMeter`] on the hot path and fold
//!   the result into a `SharedMeter` once per request
//!   ([`SharedMeter::merge`]), so the atomics never sit on a fetch loop.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The interface every retrieval path charges its access counts to.
///
/// All methods take `&self`: sinks use interior mutability (`Cell` for the
/// single-threaded [`AccessMeter`], atomics for the thread-safe
/// [`SharedMeter`]) so that a sink can be shared immutably between an
/// executor and the storage layer it drives.  The trait is object safe —
/// generic retrieval code can hold a `&dyn MeterSink`.
pub trait MeterSink {
    /// Records that `n` base tuples were fetched.
    fn add_tuples(&self, n: u64);
    /// Records one index probe.
    fn add_probe(&self);
    /// Records one full relation scan.
    fn add_scan(&self);
    /// Charges `t` abstract time units.
    fn add_time(&self, t: u64);
    /// Takes an immutable snapshot of the counters.
    fn snapshot(&self) -> MeterSnapshot;
    /// Resets every counter to zero.
    fn reset(&self);
}

/// Counters describing how much of the base data an evaluation touched.
///
/// The meter uses interior mutability (`Cell`) so that it can be shared
/// immutably between an executor and the storage layer it drives.
#[derive(Debug, Default)]
pub struct AccessMeter {
    tuples_fetched: Cell<u64>,
    index_probes: Cell<u64>,
    full_scans: Cell<u64>,
    time_units: Cell<u64>,
}

/// An immutable snapshot of an [`AccessMeter`], convenient for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeterSnapshot {
    /// Number of base tuples materialised by retrievals.
    pub tuples_fetched: u64,
    /// Number of index probes issued.
    pub index_probes: u64,
    /// Number of full relation scans performed.
    pub full_scans: u64,
    /// Abstract time units charged by the access-schema cost model (the `T`
    /// components of access constraints).
    pub time_units: u64,
}

impl AccessMeter {
    /// Creates a meter with all counters at zero.
    pub fn new() -> Self {
        AccessMeter::default()
    }

    /// Records that `n` base tuples were fetched.
    pub fn add_tuples(&self, n: u64) {
        self.tuples_fetched.set(self.tuples_fetched.get() + n);
    }

    /// Records one index probe.
    pub fn add_probe(&self) {
        self.index_probes.set(self.index_probes.get() + 1);
    }

    /// Records one full relation scan.
    pub fn add_scan(&self) {
        self.full_scans.set(self.full_scans.get() + 1);
    }

    /// Charges `t` abstract time units.
    pub fn add_time(&self, t: u64) {
        self.time_units.set(self.time_units.get() + t);
    }

    /// Number of base tuples fetched so far.
    pub fn tuples_fetched(&self) -> u64 {
        self.tuples_fetched.get()
    }

    /// Number of index probes so far.
    pub fn index_probes(&self) -> u64 {
        self.index_probes.get()
    }

    /// Number of full scans so far.
    pub fn full_scans(&self) -> u64 {
        self.full_scans.get()
    }

    /// Abstract time units charged so far.
    pub fn time_units(&self) -> u64 {
        self.time_units.get()
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.tuples_fetched.set(0);
        self.index_probes.set(0);
        self.full_scans.set(0);
        self.time_units.set(0);
    }

    /// Takes an immutable snapshot of the counters.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            tuples_fetched: self.tuples_fetched.get(),
            index_probes: self.index_probes.get(),
            full_scans: self.full_scans.get(),
            time_units: self.time_units.get(),
        }
    }
}

impl MeterSink for AccessMeter {
    fn add_tuples(&self, n: u64) {
        AccessMeter::add_tuples(self, n)
    }
    fn add_probe(&self) {
        AccessMeter::add_probe(self)
    }
    fn add_scan(&self) {
        AccessMeter::add_scan(self)
    }
    fn add_time(&self, t: u64) {
        AccessMeter::add_time(self, t)
    }
    fn snapshot(&self) -> MeterSnapshot {
        AccessMeter::snapshot(self)
    }
    fn reset(&self) {
        AccessMeter::reset(self)
    }
}

/// A thread-safe meter: the same counters as [`AccessMeter`], kept in
/// `AtomicU64`s so that per-worker counts aggregate without locks.
///
/// Per-counter increments are lock-free `fetch_add`s with relaxed ordering —
/// the counters are statistics, not synchronisation points.  The intended
/// pattern for hot loops is still a thread-local [`AccessMeter`] per worker,
/// folded in once per unit of work via [`SharedMeter::merge`].
#[derive(Debug, Default)]
pub struct SharedMeter {
    tuples_fetched: AtomicU64,
    index_probes: AtomicU64,
    full_scans: AtomicU64,
    time_units: AtomicU64,
}

impl SharedMeter {
    /// Creates a shared meter with all counters at zero.
    pub fn new() -> Self {
        SharedMeter::default()
    }

    /// Adds an already-aggregated snapshot (e.g. a worker's per-request
    /// [`AccessMeter`] delta) into the shared counters: four atomic adds
    /// instead of one per fetch.
    pub fn merge(&self, delta: &MeterSnapshot) {
        self.tuples_fetched
            .fetch_add(delta.tuples_fetched, Ordering::Relaxed);
        self.index_probes
            .fetch_add(delta.index_probes, Ordering::Relaxed);
        self.full_scans
            .fetch_add(delta.full_scans, Ordering::Relaxed);
        self.time_units
            .fetch_add(delta.time_units, Ordering::Relaxed);
    }

    /// Number of base tuples fetched so far.
    pub fn tuples_fetched(&self) -> u64 {
        self.tuples_fetched.load(Ordering::Relaxed)
    }

    /// Number of index probes so far.
    pub fn index_probes(&self) -> u64 {
        self.index_probes.load(Ordering::Relaxed)
    }

    /// Number of full scans so far.
    pub fn full_scans(&self) -> u64 {
        self.full_scans.load(Ordering::Relaxed)
    }

    /// Abstract time units charged so far.
    pub fn time_units(&self) -> u64 {
        self.time_units.load(Ordering::Relaxed)
    }
}

impl MeterSink for SharedMeter {
    fn add_tuples(&self, n: u64) {
        self.tuples_fetched.fetch_add(n, Ordering::Relaxed);
    }
    fn add_probe(&self) {
        self.index_probes.fetch_add(1, Ordering::Relaxed);
    }
    fn add_scan(&self) {
        self.full_scans.fetch_add(1, Ordering::Relaxed);
    }
    fn add_time(&self, t: u64) {
        self.time_units.fetch_add(t, Ordering::Relaxed);
    }
    fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            tuples_fetched: self.tuples_fetched(),
            index_probes: self.index_probes(),
            full_scans: self.full_scans(),
            time_units: self.time_units(),
        }
    }
    fn reset(&self) {
        self.tuples_fetched.store(0, Ordering::Relaxed);
        self.index_probes.store(0, Ordering::Relaxed);
        self.full_scans.store(0, Ordering::Relaxed);
        self.time_units.store(0, Ordering::Relaxed);
    }
}

impl fmt::Display for MeterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fetched={} probes={} scans={} time={}",
            self.tuples_fetched, self.index_probes, self.full_scans, self.time_units
        )
    }
}

impl MeterSnapshot {
    /// Component-wise difference `self − earlier`, useful for measuring a
    /// single evaluation inside a longer-running meter.
    pub fn since(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            tuples_fetched: self.tuples_fetched - earlier.tuples_fetched,
            index_probes: self.index_probes - earlier.index_probes,
            full_scans: self.full_scans - earlier.full_scans,
            time_units: self.time_units - earlier.time_units,
        }
    }

    /// Component-wise sum, used to aggregate several access-cost deltas
    /// (e.g. per-shard maintenance runs) into one report.
    pub fn plus(&self, other: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            tuples_fetched: self.tuples_fetched + other.tuples_fetched,
            index_probes: self.index_probes + other.index_probes,
            full_scans: self.full_scans + other.full_scans,
            time_units: self.time_units + other.time_units,
        }
    }

    /// Every counter with its stable exposition name, in declaration order.
    ///
    /// This is the metrics-plane integration point: exporters iterate the
    /// snapshot instead of hand-listing fields, so a counter added here is
    /// automatically picked up by every exposition surface built on top.
    pub fn named_counters(&self) -> [(&'static str, u64); 4] {
        [
            ("tuples_fetched", self.tuples_fetched),
            ("index_probes", self.index_probes),
            ("full_scans", self.full_scans),
            ("time_units", self.time_units),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = AccessMeter::new();
        m.add_tuples(3);
        m.add_tuples(2);
        m.add_probe();
        m.add_scan();
        m.add_time(7);
        assert_eq!(m.tuples_fetched(), 5);
        assert_eq!(m.index_probes(), 1);
        assert_eq!(m.full_scans(), 1);
        assert_eq!(m.time_units(), 7);
    }

    #[test]
    fn snapshot_and_reset() {
        let m = AccessMeter::new();
        m.add_tuples(10);
        m.add_probe();
        let snap = m.snapshot();
        assert_eq!(snap.tuples_fetched, 10);
        assert_eq!(snap.index_probes, 1);
        m.reset();
        assert_eq!(m.snapshot(), MeterSnapshot::default());
    }

    #[test]
    fn since_subtracts_componentwise() {
        let m = AccessMeter::new();
        m.add_tuples(4);
        let before = m.snapshot();
        m.add_tuples(6);
        m.add_scan();
        let after = m.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.tuples_fetched, 6);
        assert_eq!(delta.full_scans, 1);
        assert_eq!(delta.index_probes, 0);
    }

    #[test]
    fn meter_is_shareable_immutably() {
        let m = AccessMeter::new();
        let r1 = &m;
        let r2 = &m;
        r1.add_tuples(1);
        r2.add_tuples(1);
        assert_eq!(m.tuples_fetched(), 2);
    }

    #[test]
    fn shared_meter_aggregates_across_threads() {
        let shared = SharedMeter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Hot path: a thread-local Cell meter…
                    let local = AccessMeter::new();
                    for _ in 0..100 {
                        local.add_tuples(2);
                        local.add_probe();
                    }
                    local.add_time(5);
                    // …folded into the shared sink once.
                    shared.merge(&MeterSink::snapshot(&local));
                });
            }
        });
        assert_eq!(shared.tuples_fetched(), 800);
        assert_eq!(shared.index_probes(), 400);
        assert_eq!(shared.time_units(), 20);
        assert_eq!(shared.full_scans(), 0);
    }

    #[test]
    fn shared_meter_implements_the_sink_directly() {
        let shared = SharedMeter::new();
        let sink: &dyn MeterSink = &shared;
        sink.add_tuples(3);
        sink.add_probe();
        sink.add_scan();
        sink.add_time(2);
        let snap = sink.snapshot();
        assert_eq!(snap.tuples_fetched, 3);
        assert_eq!(snap.index_probes, 1);
        assert_eq!(snap.full_scans, 1);
        assert_eq!(snap.time_units, 2);
        sink.reset();
        assert_eq!(sink.snapshot(), MeterSnapshot::default());
    }

    #[test]
    fn access_meter_serves_as_a_dyn_sink() {
        let m = AccessMeter::new();
        let sink: &dyn MeterSink = &m;
        sink.add_tuples(4);
        sink.add_time(1);
        assert_eq!(m.tuples_fetched(), 4);
        assert_eq!(sink.snapshot().time_units, 1);
    }

    #[test]
    fn display_mentions_all_counters() {
        let m = AccessMeter::new();
        m.add_tuples(2);
        m.add_time(3);
        let s = m.snapshot().to_string();
        assert!(s.contains("fetched=2"));
        assert!(s.contains("time=3"));
    }
}
