//! The names the ledger is kept under: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics.  `BENCHMARK.json` at the root
//! of the repository repeats these tables; a test holds the two together.

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ServeSmall,
    ServeLarge,
    WriteLarge,
    MixedHot,
}

impl Workload {
    /// In the order `BENCHMARK.json` lists them: the two that fit in a few
    /// hundred MiB first, so that `mixed_hot` — the one most sensitive to
    /// what the host does with memory — does not run in the wake of the
    /// 200 000-person workloads' gigabytes.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSmall,
        Workload::MixedHot,
        Workload::ServeLarge,
        Workload::WriteLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::ServeLarge => "serve_large",
            Workload::WriteLarge => "write_large",
            Workload::MixedHot => "mixed_hot",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (see `main.rs` for what each
/// means on a workload whose main window does not produce it).
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "read_p50_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "read_p95_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "read_qps", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "tuples_per_read", unit: "count", higher_is_better: false, bound: 0.05 },
    EndToEnd { name: "commit_p50_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "commit_p90_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "deltas_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", higher_is_better: false, bound: 0.10 },
];

/// (name, unit, higher is better).  A metric a workload does not exercise
/// reads 0 there.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, bool); 62] = [
    ("engine.shape.canonicalize_ns", "ns", false),
    ("engine.cache.get_ns", "ns", false),
    ("engine.cache.hit_ratio", "ratio", true),
    ("core.costplan.plan_us", "us", false),
    ("data.snapshot.pin_ns", "ns", false),
    ("data.snapshot.pins_per_read", "count", false),
    ("data.index.lookup_ns", "ns", false),
    ("data.tupleset.insert_ns", "ns", false),
    ("core.exec.fetch_us", "us", false),
    ("core.exec.finalize_us", "us", false),
    ("core.exec.tuples_per_fetch", "count", false),
    ("engine.serve.self_us", "us", false),
    ("engine.materialize.hit_ratio", "ratio", true),
    ("engine.materialize.hit_ns", "ns", false),
    ("engine.materialize.maintenance_runs_per_commit", "count", false),
    ("engine.materialize.fallbacks", "count", false),
    ("engine.materialize.maintenance_tuples_per_commit", "count", false),
    ("access.sharded.probe_skew", "ratio", false),
    ("engine.pool.submit_overhead_us", "us", false),
    ("wire.roundtrip_us", "us", false),
    ("wire.bytes_per_probe", "bytes", false),
    ("engine.replica.overhead_ratio", "ratio", false),
    ("telemetry.hist.record_ns", "ns", false),
    ("data.snapshot.commit_us", "us", false),
    ("data.snapshot.commit_us_2k", "us", false),
    ("data.snapshot.commit_us_20k", "us", false),
    ("data.snapshot.commit_us_200k", "us", false),
    ("data.delta.fold_us", "us", false),
    ("data.delta.coalesce_ratio", "ratio", false),
    ("engine.commit.merge_us", "us", false),
    ("engine.commit.wal_us", "us", false),
    ("engine.commit.fsync_us", "us", false),
    ("engine.commit.apply_us", "us", false),
    ("engine.commit.maintenance_us", "us", false),
    ("engine.subscribe.deliveries_per_commit", "count", true),
    ("engine.subscribe.resyncs", "count", false),
    ("engine.subscribe.overflows", "count", false),
    ("engine.subscribe.drain_ns", "ns", false),
    ("data.codec.encode_delta_ns", "ns", false),
    ("data.codec.decode_delta_ns", "ns", false),
    ("data.codec.crc32_mb_s", "MB/s", true),
    ("data.codec.page_encode_mb_s", "MB/s", true),
    ("durability.wal.append_us", "us", false),
    ("durability.wal.fsync_us", "us", false),
    ("durability.wal.syncs_per_commit", "count", false),
    ("durability.wal.bytes_per_record", "bytes", false),
    ("durability.wal.bytes_per_delta", "bytes", false),
    ("durability.checkpoint.write_s", "s", false),
    ("durability.checkpoint.bytes", "bytes", false),
    ("durability.recover.load_s", "s", false),
    ("setup.generate_s", "s", false),
    ("setup.engine_new_s", "s", false),
    ("setup.warm_s", "s", false),
    ("verify_s", "s", false),
    ("trace.read_p50_us", "us", false),
    ("trace.commit_p50_ms", "ms", false),
    ("trace.sample_every", "count", false),
    ("trace.spans", "count", true),
    ("window.reads", "count", true),
    ("window.commits", "count", true),
    ("window.failed", "count", false),
    ("dataset.tuples", "count", false),
];

/// The per-layer metrics of one run, every name present.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn zeroed() -> Layers {
        Layers(PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect())
    }

    /// Panics on a name that is not in [`PER_LAYER`]: that is a bug in the
    /// runner, and a silent extra key would break the output contract.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
