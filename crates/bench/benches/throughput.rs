//! Serving throughput and latency: QPS and p50/p95/p99 service time for
//! 1/2/4/8 engine workers on the skewed social workload, with scaling
//! efficiency against the single-worker baseline.
//!
//! This bench uses a custom harness (`harness = false`, plain `main`): the
//! criterion shim measures mean time per iteration, while a serving bench
//! needs wall-clock QPS over an open-loop request queue plus per-request
//! latency percentiles.
//!
//! Before timing anything, a correctness pre-pass answers a sample of the
//! request stream both through the engine (4 workers, concurrent) and by
//! naive single-threaded evaluation; any
//! divergence fails the bench.  The timed runs then drain REQUESTS pooled
//! requests per worker count.  Reported latency is *service* time (plan
//! cache + snapshot pin + bounded execution, measured inside the worker) —
//! queueing delay in an open-loop drain is an artefact of submitting
//! everything up front, not of the engine.
//!
//! A final arm compares **batched** against **unbatched** serving on a
//! bursty workload (waves of identical hot requests).  It deliberately
//! reports *work*, not wall-clock: tuples fetched and snapshot pins (each
//! pin is one lock-guarded version acquisition) per 1 000 requests — the
//! axes shared-fetch grouping actually moves, and ones a laptop-noise
//! timing run cannot blur.

use si_data::Tuple;
use si_engine::{Engine, EngineConfig, Request};
use si_query::evaluate_cq;
use si_telemetry::LatencyHistogram;
use si_workload::{
    burst_requests, serving_access_schema, social_requests, SocialConfig, SocialGenerator,
};
use std::time::Instant;

const PERSONS: usize = 2_000;
const REQUESTS: usize = 6_000;
const VERIFY_SAMPLE: usize = 300;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn generated_requests(count: usize, seed: u64) -> Vec<Request> {
    social_requests(PERSONS, count, seed)
        .into_iter()
        .map(|g| Request::new(g.query, g.parameters, g.values))
        .collect()
}

fn make_engine(workers: usize) -> Engine {
    let db = SocialGenerator::new(SocialConfig {
        persons: PERSONS,
        restaurants: 200,
        ..SocialConfig::default()
    })
    .generate();
    Engine::new(
        db,
        serving_access_schema(5000),
        EngineConfig {
            workers,
            max_queue: 0, // the bench intentionally floods the queue
            ..EngineConfig::default()
        },
    )
    .expect("engine construction")
}

fn naive_answers(request: &Request, db: &si_data::Database) -> Vec<Tuple> {
    let bindings: Vec<(String, si_data::Value)> = request
        .parameters
        .iter()
        .cloned()
        .zip(request.values.iter().copied())
        .collect();
    let mut answers = evaluate_cq(&request.query.bind(&bindings), db, None).unwrap();
    answers.sort();
    answers
}

/// Concurrent engine answers vs single-threaded evaluation: must be 0 apart.
fn correctness_prepass() {
    let engine = make_engine(4);
    let requests = generated_requests(VERIFY_SAMPLE, 17);
    let ground_truth_db = engine.snapshot().to_database();
    let pending: Vec<_> = requests
        .iter()
        .map(|r| engine.submit(r.clone()).expect("submit"))
        .collect();
    let mut divergent = 0usize;
    for (request, pending) in requests.iter().zip(pending) {
        let response = pending.wait().expect("response");
        let mut served = response.answers;
        served.sort();
        if served != naive_answers(request, &ground_truth_db) {
            divergent += 1;
        }
    }
    println!(
        "correctness: {divergent}/{VERIFY_SAMPLE} divergent answers (engine vs single-threaded)"
    );
    assert_eq!(
        divergent, 0,
        "concurrent serving diverged from single-threaded evaluation"
    );
}

/// Batched vs unbatched serving on a bursty stream: identical answers,
/// work (tuples fetched, snapshot pins) reported per 1 000 requests.
fn batched_vs_unbatched() {
    const BURSTS: usize = 125;
    const BURST_SIZE: usize = 8;
    let total = (BURSTS * BURST_SIZE) as f64;
    let stream = burst_requests(PERSONS, BURSTS, BURST_SIZE, 99);
    let requests: Vec<Request> = stream
        .into_iter()
        .map(|g| Request::new(g.query, g.parameters, g.values))
        .collect();
    let batched = make_engine(1);
    let unbatched = make_engine(1);

    let mut divergent = 0usize;
    for wave in requests.chunks(BURST_SIZE) {
        let grouped = batched.execute_batch(wave);
        for (request, response) in wave.iter().zip(grouped) {
            let single = unbatched.execute(request).expect("unbatched serve");
            let response = response.expect("batched serve");
            if response.answers != single.answers {
                divergent += 1;
            }
        }
    }
    assert_eq!(divergent, 0, "batched serving diverged from unbatched");

    println!(
        "\nbatched vs unbatched serving: {BURSTS} bursts x {BURST_SIZE} identical requests \
         (60% Q1 / 40% Q2, quadratic person skew); work per 1k requests, not wall-clock\n"
    );
    println!(
        "{:>9}  {:>12}  {:>10}  {:>14}",
        "arm", "tuples/1k", "pins/1k", "shared_fetches"
    );
    let mb = batched.metrics();
    let mu = unbatched.metrics();
    for (arm, m) in [("unbatched", &mu), ("batched", &mb)] {
        println!(
            "{:>9}  {:>12.1}  {:>10.1}  {:>14}",
            arm,
            m.accesses.tuples_fetched as f64 * 1_000.0 / total,
            m.snapshot_pins as f64 * 1_000.0 / total,
            m.shared_fetches,
        );
    }
    println!(
        "\nbatching: {:.1}x fewer tuples fetched, {:.1}x fewer snapshot pins \
         ({} fetch executions served {} requests)",
        mu.accesses.tuples_fetched as f64 / mb.accesses.tuples_fetched.max(1) as f64,
        mu.snapshot_pins as f64 / mb.snapshot_pins.max(1) as f64,
        mb.shared_fetches,
        mb.batched_requests,
    );
    assert!(
        4 * mb.accesses.tuples_fetched <= mu.accesses.tuples_fetched,
        "shared-fetch batching must cut tuple accesses at least 4x on bursts"
    );
}

fn main() {
    correctness_prepass();
    batched_vs_unbatched();

    println!(
        "\nserving {REQUESTS} requests (80% Q1 / 20% Q2, quadratic person skew) over \
         {PERSONS} persons\n"
    );
    println!(
        "{:>7}  {:>10}  {:>9}  {:>9}  {:>9}  {:>10}",
        "workers", "qps", "p50(us)", "p95(us)", "p99(us)", "efficiency"
    );

    let mut baseline_qps = None;
    for workers in WORKER_COUNTS {
        let engine = make_engine(workers);
        let requests = generated_requests(REQUESTS, 42);
        // Warm up: build the lazy indexes and the plan cache before timing.
        for request in requests.iter().take(100) {
            engine.execute(request).unwrap();
        }

        // One feeder (client connection) per pool worker: a single submitter
        // costs ~30µs per submission (request clone + reply channel) and
        // would cap throughput below what even two workers can drain.
        let mut slices: Vec<Vec<Request>> = Vec::with_capacity(workers);
        let per_slice = REQUESTS.div_ceil(workers);
        for chunk in requests.chunks(per_slice) {
            slices.push(chunk.to_vec());
        }

        // Per-request service time goes straight into the lock-free
        // log-linear histogram shared by all feeders — the same primitive
        // the engine's own serve path records into — and the percentiles
        // below are read from its snapshot (≤ 1/64 relative error, exact
        // max), replacing the sort-and-index percentile math this bench
        // used to hand-roll.
        let latency = LatencyHistogram::new();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for slice in slices {
                let engine = &engine;
                let latency = &latency;
                scope.spawn(move || {
                    let pending: Vec<_> = slice
                        .into_iter()
                        .map(|r| engine.submit(r).expect("submit"))
                        .collect();
                    for p in pending {
                        latency.record_duration(p.wait().expect("response").service);
                    }
                });
            }
        });
        let wall = start.elapsed().as_secs_f64();
        let lat = latency.snapshot();

        let qps = REQUESTS as f64 / wall;
        let base = *baseline_qps.get_or_insert(qps);
        println!(
            "{:>7}  {:>10.0}  {:>9.1}  {:>9.1}  {:>9.1}  {:>9.2}x",
            workers,
            qps,
            lat.p50() as f64 / 1e3,
            lat.p95() as f64 / 1e3,
            lat.p99() as f64 / 1e3,
            qps / base,
        );

        let metrics = engine.metrics();
        assert_eq!(metrics.requests as usize, REQUESTS + 100);
        assert!(metrics.cache_hits > metrics.cache_misses);
    }
    println!("\nefficiency = QPS relative to the 1-worker pool baseline");
}
