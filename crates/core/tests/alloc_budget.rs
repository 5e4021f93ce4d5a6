//! Allocation budget of a bounded read.
//!
//! A bounded evaluation is priced by the tuples it fetches (Theorem 4.2); its
//! heap traffic should be priced the same way.  A counting global allocator
//! measures one warmed Q1 read — `fetch_bounded` + `into_answer` over a
//! 1-shard [`ShardedAccess`], which is what the serving engine runs per
//! request — and the read may allocate at most once per two fetched tuples.
//! The plan is compiled once, when it is built; fetched tuples are borrowed
//! from the index, rows are ranges of one flat slab extended in place and
//! the witness is recorded flat, so the remaining allocations are one tuple
//! per answer and amortised vector growth.
//!
//! Run it in release mode too (`cargo test -p si-core --test alloc_budget
//! --release`): the count must not depend on optimisation.

use si_access::{facebook_access_schema, ShardedAccess};
use si_core::bounded::{fetch_bounded, BoundedPlanner};
use si_data::schema::social_schema;
use si_data::{tuple, AccessMeter, Database, PartitionMap, ShardedSnapshotStore, Value};
use si_query::parse_cq;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts allocation calls made by threads that switched counting on.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on the calling thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const PERSONS: i64 = 2000;
const FRIENDS: i64 = 58;

/// 2 000 persons, a third of them in NYC, each with 58 friends.
fn social_graph() -> Database {
    let mut db = Database::empty(social_schema());
    for i in 0..PERSONS {
        let city = if i % 3 == 0 { "NYC" } else { "LA" };
        db.insert("person", tuple![i, format!("p{i}"), city])
            .unwrap();
        for k in 1..=FRIENDS {
            db.insert("friend", tuple![i, (i + 37 * k) % PERSONS])
                .unwrap();
        }
    }
    db
}

#[test]
fn a_warmed_q1_read_allocates_at_most_once_per_two_fetched_tuples() {
    let access = facebook_access_schema(5000);
    let mut db = social_graph();
    for (relation, attrs) in access.required_indexes() {
        if !attrs.is_empty() {
            db.declare_index(&relation, &attrs).unwrap();
        }
    }
    let partition = PartitionMap::new()
        .with("person", "id")
        .with("friend", "id1");
    let store = ShardedSnapshotStore::new(db, partition, 1).unwrap();
    let schema = social_schema();
    let planner = BoundedPlanner::new(&schema, &access);
    let q1 = parse_cq(r#"Q1(p, name) :- friend(p, id), person(id, name, "NYC")"#).unwrap();
    let plan = planner.plan(&q1, &["p".into()]).unwrap();
    let view = store.pin();
    let access = Arc::new(access);
    let values = [Value::int(7)];

    let read = || {
        let source = ShardedAccess::<AccessMeter>::new(Arc::clone(&view), Arc::clone(&access));
        fetch_bounded(&plan, &values, &source)
            .unwrap()
            .into_answer(&plan)
            .unwrap()
    };
    // Warm-up: the first probe of each declared index builds it.
    let warm = read();
    let (answer, allocations) = allocations_of(read);
    assert_eq!(answer, warm);

    let fetched = answer.accesses.tuples_fetched as usize;
    assert_eq!(
        fetched,
        2 * FRIENDS as usize,
        "58 friends + 58 person probes"
    );
    assert!(!answer.answers.is_empty());
    println!(
        "warmed Q1 read: {allocations} allocations for {fetched} tuples fetched \
         ({:.2} per tuple)",
        allocations as f64 / fetched as f64
    );
    assert!(
        2 * allocations <= fetched,
        "{allocations} allocations for {fetched} fetched tuples exceeds 0.5 per tuple"
    );
}
