//! `serve_social`: the si-engine serving layer end to end.
//!
//! Run with `cargo run -p si-examples --bin serve_social --release`.
//!
//! Builds a social instance, wraps it in an [`Engine`], and drives it from
//! four client threads issuing the paper's Q1/Q2 with skewed person
//! parameters while a writer thread keeps committing fresh `visit` facts.
//! Along the way it demonstrates the four pillars:
//!
//! * snapshot isolation — a snapshot pinned before the writer starts still
//!   answers from version 0 afterwards;
//! * prepared plans — the second occurrence of each query shape is a cache
//!   hit;
//! * concurrent bounded execution — requests are served concurrently from
//!   the worker pool, each on one thread;
//! * admission control — a 9 999-tuple fetch budget rejects Q1 (worst case
//!   10 000) before it touches any data.

use si_data::Value;
use si_engine::{Engine, EngineConfig, EngineError, Request};
use si_workload::{
    serving_access_schema, social_requests, visit_insertions, SocialConfig, SocialGenerator,
};

const PERSONS: usize = 1_000;
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 250;
const COMMITS: usize = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generator = SocialGenerator::new(SocialConfig {
        persons: PERSONS,
        restaurants: 100,
        ..SocialConfig::default()
    });
    let db = generator.generate();
    println!(
        "instance: |D| = {} tuples over the social schema",
        db.size()
    );

    let engine = Engine::new(
        db,
        serving_access_schema(5000),
        EngineConfig {
            workers: CLIENTS,
            ..EngineConfig::default()
        },
    )?;

    // Pin version 0 before any write happens.
    let genesis = engine.snapshot();

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        // The writer: fresh visit insertions, one batch at a time.
        let writer = &engine;
        scope.spawn(move || {
            for i in 0..COMMITS {
                // Build the batch against the *current* version so it is
                // guaranteed well-formed.
                let current = writer.snapshot().to_database();
                let delta = visit_insertions(&current, 50, 900 + i as u64);
                writer.commit(&delta).expect("commit");
            }
        });
        // The clients: skewed Q1/Q2 traffic through the worker pool.
        for client in 0..CLIENTS {
            let engine = &engine;
            scope.spawn(move || {
                let stream = social_requests(PERSONS, REQUESTS_PER_CLIENT, client as u64);
                let pending: Vec<_> = stream
                    .into_iter()
                    .map(|g| {
                        engine
                            .submit(Request::new(g.query, g.parameters, g.values))
                            .expect("submit")
                    })
                    .collect();
                for p in pending {
                    p.wait().expect("response");
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let metrics = engine.metrics();
    let served = CLIENTS * REQUESTS_PER_CLIENT;
    println!(
        "served {} requests in {:.1?} (~{:.0} q/s) with {} workers",
        served,
        elapsed,
        served as f64 / elapsed.as_secs_f64(),
        CLIENTS
    );
    println!(
        "plan cache: {} hits / {} misses over {} lookups",
        metrics.cache_hits,
        metrics.cache_misses,
        metrics.cache_hits + metrics.cache_misses
    );
    println!(
        "writer: {} commits -> snapshot epoch {}, {} statistics refreshes",
        metrics.commits, metrics.snapshot_epoch, metrics.stats_refreshes
    );
    println!("access meter (all requests): {}", metrics.accesses);

    // Snapshot isolation: the pinned genesis version still answers as of
    // epoch 0, while the current version has all the committed visits.
    let hot = Request::new(si_workload::q1(), vec!["p".into()], vec![Value::int(0)]);
    let at_genesis = engine.execute_at(&genesis, &hot)?;
    let now = engine.execute(&hot)?;
    println!(
        "snapshot isolation: genesis pin answers at epoch {}, fresh execution at epoch {}",
        at_genesis.epoch, now.epoch
    );
    assert_eq!(at_genesis.epoch, 0);
    assert_eq!(now.epoch, metrics.snapshot_epoch);
    assert_eq!(at_genesis.answers, now.answers, "Q1 ignores visit inserts");

    // Admission control: a budget below Q1's static bound sheds the request.
    let strict = Engine::new(
        generator.generate(),
        serving_access_schema(5000),
        EngineConfig {
            fetch_budget: Some(9_999),
            ..EngineConfig::default()
        },
    )?;
    match strict.execute(&hot) {
        Err(EngineError::RejectedByBudget { budget, cheapest }) => println!(
            "admission control: Q1 rejected up front (worst case {cheapest} > budget {budget})"
        ),
        other => panic!("expected a budget rejection, got {other:?}"),
    }

    Ok(())
}
