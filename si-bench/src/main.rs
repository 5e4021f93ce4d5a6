//! # `si-bench` — the repository's performance ledger
//!
//! The paper's promise is that the cost of a bounded query depends on the
//! access schema and not on `|D|`.  This runner records, in wall-clock on
//! this box, how far the engine keeps that promise, and attributes the time
//! to the repository's layers.  One command runs one workload, checks its
//! answers, and prints every metric by name and unit:
//!
//! ```text
//! cargo run --release --manifest-path si-bench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! The last line of standard output is one JSON object, `{"correct",
//! "attempted", "failed", "metrics"}`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  A wrong answer, a
//! refused request or an error counts in `failed`, makes `correct` false and
//! the exit code 1.  The workload seed is an argument; the engine sees only
//! the inputs generated from it: `--seed` drives the request and update
//! streams, while the database is a fixture, the generator's default
//! instance at each size (seeding it too moved `tuples_per_read` by 3–12 %
//! between seeds, and latency with it).  All load comes from this process,
//! with at most two runnable threads (`nproc` here) and
//! `EngineConfig::workers = 1`.
//! Latencies are this sandbox's, not a device's: reads are served from
//! memory, and an `fsync` on the sandbox's disk says nothing about a real
//! one.
//!
//! Other modes: `--suite <out.json> --seeds <a,b,...> [--rev <id>]` runs
//! every workload at every seed (one child process each, plus one traced
//! run per workload) and writes a result set; `--compare <a.json> <b.json>`
//! holds two result sets against each other with the bounds of
//! `BENCHMARK.json`; `--quick` shrinks every workload to 2 000 persons and
//! about 1 % of the operations, for the smoke test in this file.
//!
//! ## Workloads
//!
//! All four are closed-loop — an in-process library whose callers wait for
//! the reply — and time-boxed by `--seconds` (the harness fixes run length,
//! so operation counts are not fixed); what is counted over a fixed prefix
//! (`tuples_per_read`, WAL bytes per delta) repeats exactly for a seed.
//!
//! * **`serve_small`** — 2 000 persons (≈52 k tuples, fits in CPU cache),
//!   `Engine::new`, materialization off.  Two clients each call
//!   `Engine::execute` over their own `social_requests` stream (80 % Q1 /
//!   20 % Q2, quadratic person skew).  Two shapes, so every request takes
//!   the cached-plan path.  *Why:* CPU-bound — canonicalize, plan-cache
//!   lookup, hashing and allocation do the work and index probes hit cache;
//!   ROADMAP item 4 (a)/(b) must show here.
//! * **`serve_large`** — 200 000 persons (≈5.2 M tuples, ≈1.3 GB resident),
//!   same stream and clients.  *Why:* the paper's claim in wall-clock.
//!   `tuples_per_read` equals `serve_small`'s, so any latency gap is
//!   `|D|`-dependence (cache and TLB misses in index probes and tuple
//!   fetch).  Layout and hasher changes show here; a canonicalize fix shows
//!   proportionally less.
//! * **`write_large`** — 200 000 persons, `Engine::new_durable` over
//!   `DirStorage` in a scratch directory, engine-default flush policy (one
//!   fsync per commit pass, `checkpoint_every: 0`).  One writer calls
//!   `Engine::commit` with 2-insert + 1-delete `visit` deltas
//!   (`visit_update_stream`); no readers in the window.  Afterwards:
//!   `Engine::checkpoint`, four more commits (a log tail), the engine is
//!   dropped, unflushed bytes are discarded, `Engine::recover`.  *Why:* the
//!   write path alone (merge → WAL → fsync → store apply), Θ(`|R|`) today
//!   and ROADMAP item 3's target; the only workload on `si-durability`.
//! * **`mixed_hot`** — 20 000 persons, `Engine::new_sharded` over 2 shards,
//!   `materialize_capacity: 256`, `materialize_after: 2`, 16 live
//!   `Engine::subscribe` handles.  A reader executes over the 64 hottest
//!   persons (60 % Q1 / 40 % Q2) while a writer calls `Engine::commit_group`
//!   with 8 single-fact deltas and drains the subscriber queues after each
//!   group.  Every second group toggles facts that change a subscribed
//!   answer (`friend(p, x)` for hot `p` and NYC `x`, `visit(f, rid)` for NYC
//!   friends of hot `p` and A-rated NYC `rid`); the rest toggle cold `visit`
//!   and `friend` facts, one pair of which folds away.  Every group touches
//!   both relations, so the store copies as much for each.  *Why:* the same store and materialized set used the other way
//!   round — reads are materialized hits unless a commit just moved the
//!   epoch, writes pay maintenance and fan-out.  A gain for one side paid
//!   by the other shows only here; the only workload on `ShardedAccess`,
//!   `DeltaBatch` folding and subscription fan-out.
//!
//! ## End-to-end metrics, on every workload
//!
//! The benchmark contract wants every end-to-end metric from every
//! workload, so a workload whose window lacks an operation measures it in a
//! short probe *after* the window, on the same engine, with nothing else
//! running.  The probes are the `|D|` sweep the ROADMAP asks for: commit
//! latency is read at 2 k (`serve_small`), 20 k sharded (`mixed_hot`) and
//! 200 k (`serve_large` plain, `write_large` durable); read latency at the
//! same four points.
//!
//! | metric | bound | window | probe |
//! |---|---|---|---|
//! | `setup_s` | 25 % | all: generate + construct + warm-up, median of the run's set-ups | |
//! | `read_p50_us`, `read_p95_us`, `read_qps` | 25 % | `serve_*`, `mixed_hot` | `write_large`: 2 clients × 50 000 reads after the commits |
//! | `tuples_per_read` | 5 % | all: mean `tuples_fetched` over the warm-up's first pass (fixed count, cold-plan path) | |
//! | `commit_p50_ms`, `commit_p90_ms`, `deltas_per_s` | 25 % | `write_large`, `mixed_hot` | `serve_small`: 250 commits, `serve_large`: 20, after the reads |
//! | `peak_rss_mb` | 10 % | all: `VmHWM` after window and probe, before verification | |
//!
//! The bounds are what this sandbox allows, not what one would like (5 % on
//! a median).  Within a run the one-second slices agree to ±3 %, and runs
//! of one seed minutes apart agree to 1 % — until the host changes regime:
//! the same binary and seed then read 25 µs or 31 µs for minutes at a time,
//! with bursts of +40 % for tens of seconds, and a compute-only calibration
//! loop follows only half of that, so it cannot be normalised away.  Over
//! ten seeds the interquartile spread of a timing came to 3–17 % of its
//! median (`baseline/` has the sets), and a bound has to sit well above
//! that to mean anything; `--compare` reports *unresolved* where it does
//! not.  A change that claims less than the bound needs the paired,
//! alternating runs of the choosing-metrics guide, not this gate.
//!
//! Read percentiles are taken per (client, one-second slice) and the median
//! over slices reported; throughput likewise per slice.  The read tail is
//! p95, not p99: on `mixed_hot` the distribution has a knee between p98
//! (2.4 µs, materialized hits) and p99.9 (≈40 µs, plan-path executions
//! right after a commit), and p99 sits on its steep part, reading 2.7 to
//! 6.0 µs from run to run (interquartile spread 32 % and 49 % over two sets
//! of ten seeds).  What the writer does to readers there shows in
//! `engine.materialize.hit_ratio`.  The commit tail is p90 because a window
//! holds 40–60 commits at 200 k persons.
//! `recover_s` and `wal_bytes_per_delta` exist only on the durable workload
//! and are therefore kept as per-layer metrics
//! (`durability.recover.load_s`, `durability.wal.bytes_per_delta`).
//! Derived, ungated figures printed by `--suite` and `--compare`:
//! `serve_flatness = read_p50_us(serve_large) / read_p50_us(serve_small)`
//! and the commit-vs-`|D|` curve.
//!
//! ## Layers → end-to-end metrics
//!
//! Per-layer numbers come from the `--trace 1` run, by timing calls into a
//! layer's public functions from the runner or by reading
//! `Engine::metrics()`, `Engine::telemetry()` and the `Storage` boundary;
//! no span is added inside any crate.
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | `engine.shape` | `canonicalize_ns` | `read_p50_us` on `serve_small`; a smaller share on `serve_large`; ≈0 on `mixed_hot` |
//! | `engine.cache` | `get_ns`, `hit_ratio` | as `engine.shape` |
//! | `core.costplan` | `plan_us` (cold Q1/Q2) | `setup_s`, first-request `read_p95_us`; no workload is plan-bound |
//! | `data.snapshot` (reads) | `pin_ns`, `pins_per_read` | `read_p50_us` on `serve_small`; `read_p95_us` on `mixed_hot` (contention with the writer) |
//! | `data.index` | `lookup_ns` | `read_p50_us` on `serve_large`, where it is cache-miss bound |
//! | `data.tupleset` | `insert_ns` | `setup_s` on the 200 k workloads |
//! | `core.exec` | `fetch_us`, `finalize_us`, `tuples_per_fetch` | `read_p50_us` on `serve_large`; the large − small gap should sit here |
//! | `engine.serve` | `self_us` (execute − Σ staged children) | `read_p50_us` on `serve_small` (response assembly, meter merge, telemetry) |
//! | `engine.materialize` | `hit_ratio`, `hit_ns`, `maintenance_runs_per_commit`, `fallbacks`, `maintenance_tuples_per_commit` | `read_p50_us` ↓ and `commit_p50_ms` ↑ on `mixed_hot`; nothing on `serve_*` |
//! | `access.sharded` | `probe_skew` (max / mean of `shard_stats().routed_tuples`) | `read_p95_us` on `mixed_hot` |
//! | `engine.pool` | `submit_overhead_us` (`submit` + `wait` − `service`) | **none** — `execute` bypasses the pool; a pool optimisation needs a benchmark extension first |
//! | `wire`, `engine.replica` | `roundtrip_us`, `bytes_per_probe`, `overhead_ratio` | **none** — visibility only; replication is parked |
//! | `telemetry` | `hist.record_ns` | `read_p50_us` on `serve_small` (tiny) |
//! | `data.snapshot` (writes) | `commit_us`; `_2k`, `_20k`, `_200k` in `write_large`'s traced run | `commit_p50_ms` on `write_large` (≥ 90 % of it) |
//! | `engine.commit` | `merge_us`, `wal_us`, `fsync_us`, `apply_us`, `maintenance_us` — the engine's own `CommitSpan`s | the same, without replay bias |
//! | `data.delta` | `fold_us`, `coalesce_ratio` | `commit_p50_ms`, `deltas_per_s` on `mixed_hot` |
//! | `engine.subscribe` | `deliveries_per_commit`, `resyncs`, `overflows`, `drain_ns` | `commit_p50_ms` on `mixed_hot` (fan-out is inside the commit) |
//! | `data.codec` | `encode_delta_ns`, `decode_delta_ns`, `crc32_mb_s`, `page_encode_mb_s` | `durability.*` and `setup_s` on `write_large` |
//! | `durability` | `wal.append_us`, `wal.fsync_us`, `wal.syncs_per_commit`, `wal.bytes_per_record`, `wal.bytes_per_delta`, `checkpoint.write_s`, `checkpoint.bytes`, `recover.load_s` | `commit_p50_ms` (fsync is a fraction of a millisecond of ≈165 ms today) on `write_large` |
//! | `setup` | `generate_s`, `engine_new_s`, `warm_s`, `verify_s` | `setup_s` |
//!
//! How they interact.  On `serve_*` nothing contends and throughput scales
//! linearly to the two clients, so a layer's saving moves `read_p50_us` by
//! its share and `read_qps` by the same fraction.  `tuples_per_read` is
//! equal across sizes, so the small-to-large latency gap is the memory
//! hierarchy, not plan cost.  On `write_large`, `deltas_per_s ≈ 1 / mean
//! commit`, and the store's copy dominates until ROADMAP item 3 lands;
//! after that the fsync does.  On `mixed_hot` a faster writer moves the
//! epoch more often, which can lower `engine.materialize.hit_ratio` and
//! raise `read_p95_us`: that trade is the point of the workload.
//!
//! ## The traced run
//!
//! `--trace 1` re-enacts one read in 64, and every commit, through the
//! layers' public stage functions on the same thread right after the real
//! call returned, and records spans (name, start, end, parent, operation
//! id) in memory: `canonicalize` → `PlanCache::get` → `Engine::snapshot`
//! (the pin) → `fetch_bounded` → `SharedFetch::finalize_one`, and
//! `DeltaBatch::fold` → `delta_bytes` / `Wal::append` → `SnapshotStore::
//! commit` on a shadow copy of the store.  The parent span is the real
//! `Engine::execute` / `commit` / `commit_group` call and self time is the
//! parent minus its children.  The replay runs cache-warm, which
//! under-states a cache-miss-bound layer; the output says so.  Spans are
//! written as JSON next to the executable when the run ends.  End-to-end
//! metrics come only from untraced runs; the traced run's own
//! `trace.read_p50_us` and `trace.commit_p50_ms` against them are the
//! tracing overhead, which `--suite` prints.
//!
//! ## Correctness checks, outside the timed windows
//!
//! * `serve_*`: sampled replies (200 / 24) against `evaluate_cq` on a
//!   regenerated copy of the database — the second set-up's input, which is
//!   what the engine was given, since nothing is committed before the read
//!   window.  (`snapshot().to_database()` takes 5 s at 200 k persons.)
//! * `write_large`: the recovered engine equals the live one in epoch,
//!   size, statistics and checkpoint content id, from flushed bytes only
//!   ([`driver::FlushedStorage`] cuts every file back to its last `sync`);
//!   sampled read-probe replies against the regenerated database with the
//!   committed deltas applied.
//! * `mixed_hot`: after quiesce, each subscription's drained updates
//!   replayed over its initial answer equal both a fresh `execute` and the
//!   oracle on `snapshot().to_database()`; every hot request equals the
//!   oracle; deliveries and maintenance runs are non-zero.
//!
//! ## Scratch directory and flush policy
//!
//! Durable engines write under `si-bench-scratch/` next to the executable
//! (inside the build directory), removed when the run ends.  The flush
//! policy is the engine's default and identical on both sides of any
//! comparison.  If `fsync` spread on the sandbox disk ever breaks a bound,
//! point the scratch directory at tmpfs on both sides and say so in the
//! result set; with the store copy at ≈165 ms per commit that has not been
//! needed.

mod driver;
mod json;
mod ledger;
mod metrics;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Params, Report};

const USAGE: &str = "usage:
  si-bench --workload <serve_small|serve_large|write_large|mixed_hot> --seed <u64>
           [--seconds <s>] [--trace <0|1>] [--quick]
  si-bench --suite <out.json> --seeds <a,b,...> [--seconds <s>] [--rev <id>] [--quick]
  si-bench --compare <a.json> <b.json> [--bounds <BENCHMARK.json>]";

/// Seconds one run measures when `--seconds` is not given; `BENCHMARK.json`
/// carries the same number as `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 8.0;
const QUICK_SECONDS: f64 = 0.25;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    suite: Option<PathBuf>,
    seeds: Vec<u64>,
    rev: String,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        suite: None,
        seeds: Vec::new(),
        rev: "unknown".into(),
        compare: None,
        bounds: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed wants a u64")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--quick" => cli.quick = true,
            "--suite" => cli.suite = Some(PathBuf::from(value()?)),
            "--seeds" => {
                cli.seeds = value()?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| "--seeds wants u64,u64,..."))
                    .collect::<Result<_, _>>()?;
            }
            "--rev" => cli.rev = value()?,
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--bounds" => cli.bounds = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Where this process may write: next to the executable, which is inside
/// the build directory and therefore inside the checkout and git-ignored.
fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    Ok(dir.join("si-bench-scratch"))
}

/// Runs one workload in this process.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<Report, String> {
    let root = scratch_root()?;
    let scratch = root.join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let params = Params {
        workload,
        seed,
        seconds,
        traced,
        quick,
        trace_out: root
            .join("traces")
            .join(format!("{}-{seed}.json", workload.name())),
        scratch: scratch.clone(),
    };
    let report = workloads::run(&params);
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

/// The metrics object of the result line: end-to-end metrics of an untraced
/// run, per-layer metrics of a traced one.
pub fn result_metrics(report: &Report, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, *unit, report.layers.get(name)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = report
                    .end_to_end
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map_or(f64::NAN, |(_, v)| *v);
                (m.name, m.unit, value)
            })
            .collect()
    }
}

pub fn result_line(report: &Report, traced: bool) -> String {
    let metrics = result_metrics(report, traced)
        .into_iter()
        .map(|(name, unit, value)| {
            (
                name,
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn print_report(workload: Workload, seed: u64, seconds: f64, traced: bool, report: &Report) {
    println!(
        "si-bench {} seed {seed} seconds {seconds} trace {} ({} threads available)",
        workload.name(),
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "  end to end{}:",
        if traced {
            " (traced run: not for the ledger)"
        } else {
            ""
        }
    );
    for (name, value) in &report.end_to_end {
        let unit = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit);
        println!("    {name:<18} {value:>14.4} {unit}");
    }
    println!("  per layer:");
    for (name, unit, _) in PER_LAYER {
        let value = report.layers.get(name);
        if value != 0.0 {
            println!("    {name:<50} {value:>14.4} {unit}");
        }
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    println!("  ops {} failed {}", report.attempted, report.failed);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("si-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = cli.seconds.unwrap_or(if cli.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let outcome = if let Some((a, b)) = &cli.compare {
        ledger::compare(a, b, &cli.bounds)
    } else if let Some(out) = &cli.suite {
        ledger::suite(out, &cli.seeds, seconds, cli.quick, &cli.rev).map(|()| true)
    } else {
        let Some(workload) = cli.workload.as_deref().and_then(Workload::parse) else {
            eprintln!("si-bench: --workload is missing or unknown\n{USAGE}");
            return ExitCode::from(2);
        };
        run_workload(workload, cli.seed, seconds, cli.traced, cli.quick).map(|report| {
            print_report(workload, cli.seed, seconds, cli.traced, &report);
            println!("{}", result_line(&report, cli.traced));
            report.failed == 0
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("si-bench: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(spec: &Json, key: &str) -> Vec<String> {
        spec.get(key)
            .expect("key present")
            .as_arr()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    /// All four workloads in quick mode: every metric `BENCHMARK.json` names
    /// is printed exactly once with a finite value, and nothing fails.
    #[test]
    fn quick_runs_print_every_benchmark_metric_once_and_nothing_fails() {
        let spec = benchmark_json();
        assert_eq!(
            names(&spec, "workloads"),
            Workload::ALL.map(|w| w.name().to_owned())
        );
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let wanted = names(&spec, key);
            for workload in Workload::ALL {
                let report = run_workload(workload, 7, QUICK_SECONDS, traced, true)
                    .unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name()));
                assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.notes);
                let line = Json::parse(&result_line(&report, traced)).expect("result line parses");
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                let printed: Vec<&str> = line
                    .get("metrics")
                    .expect("metrics")
                    .as_obj()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let unique: BTreeSet<&str> = printed.iter().copied().collect();
                assert_eq!(unique.len(), printed.len(), "a metric is printed twice");
                assert_eq!(
                    unique,
                    wanted.iter().map(String::as_str).collect::<BTreeSet<_>>(),
                    "{} trace {traced}",
                    workload.name()
                );
                for (name, metric) in line.get("metrics").expect("metrics").as_obj() {
                    let value = metric.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{} {name} is not finite",
                        workload.name()
                    );
                    if !traced {
                        assert!(value > Some(0.0), "{} {name} is zero", workload.name());
                    }
                }
            }
        }
    }

    /// The tables in `metrics.rs` and `BENCHMARK.json` say the same thing.
    #[test]
    fn benchmark_json_repeats_the_metric_tables() {
        let spec = benchmark_json();
        let end_to_end = spec.get("end_to_end").expect("end_to_end").as_arr();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        let per_layer = spec.get("per_layer").expect("per_layer").as_arr();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, higher)) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
            let better = if *higher { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
