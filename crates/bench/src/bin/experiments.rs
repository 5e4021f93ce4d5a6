//! Regenerates the paper-style experiment tables E1–E8 of the source paper
//! (see PAPER.md), each banner naming the example, table or theorem it
//! reproduces: Table 1's QDSI decision procedures, the bounded plans of
//! Examples 1.1 and 4.1–4.6, incremental Q2 (Example 5.6), Q2 using views
//! (Example 6.3), and Theorems 4.4, 5.4 and 6.1.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p si-bench --bin experiments            # all experiments
//! cargo run --release -p si-bench --bin experiments -- table1  # one experiment
//! ```
//!
//! Experiment ids: `table1`, `q1`, `q3`, `q2inc`, `q2views`, `qcntl`, `ra`,
//! `vqsi`, `ablation`.  An unknown id prints the usage line and exits with
//! status 2.

use si_access::{facebook_access_schema, AccessIndexedDatabase};
use si_bench::{
    dated_social_database, q1_scaling_rows, q2_access_schema, q2_views_rows, social_database,
};
use si_core::controllability::{AlgebraControllability, ExprForm};
use si_core::prelude::*;
use si_core::{decide_qcntl, decide_qdsi, DecisionMethod, SearchLimits};
use si_data::schema::{social_schema, social_schema_dated};
use si_data::{Database, Value};
use si_query::{cq_to_ra, parse_fo_query};
use si_workload::{
    example_46_access_schema, paper_views, q1, q2, q2_rewriting, q3, visit_insertions,
    SocialConfig, SocialGenerator,
};
use std::time::Instant;

/// Every experiment id, in run order.
const EXPERIMENTS: [&str; 9] = [
    "table1", "q1", "q3", "q2inc", "q2views", "qcntl", "ra", "vqsi", "ablation",
];

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = which.iter().find(|w| !EXPERIMENTS.contains(&w.as_str())) {
        eprintln!("unknown experiment `{unknown}`");
        eprintln!("usage: experiments [{}]...", EXPERIMENTS.join("|"));
        std::process::exit(2);
    }
    let run = |name: &str| which.is_empty() || which.iter().any(|w| w == name);
    let started = Instant::now();

    if run("table1") {
        exp_table1();
    }
    if run("q1") {
        exp_q1();
    }
    if run("q3") {
        exp_q3();
    }
    if run("q2inc") {
        exp_q2_incremental();
    }
    if run("q2views") {
        exp_q2_views();
    }
    if run("qcntl") {
        exp_qcntl();
    }
    if run("ra") {
        exp_ra_rules();
    }
    if run("vqsi") {
        exp_vqsi();
    }
    if run("ablation") {
        exp_ablation();
    }
    eprintln!("\n(total wall time {:.1?})", started.elapsed());
}

fn banner(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// E1 — Table 1: empirical growth of the exact QDSI decision procedures.
fn exp_table1() {
    banner("E1 (Table 1): QDSI decision-procedure work vs instance size");
    let limits = SearchLimits {
        max_subsets: 50_000_000,
        max_branches: 50_000_000,
    };
    println!(
        "{:<26} {:>6} {:>4} {:>12} {:>10} {:>12}",
        "query / language", "|D|", "M", "explored", "SI?", "time"
    );
    for persons in [6usize, 8, 10, 12, 14] {
        let db = tiny_database(persons);
        // CQ data-selecting (provenance cover) — per Theorem 3.3 NP-hard.
        let cq: AnyQuery = q1().bind(&[("p".into(), Value::int(0))]).into();
        let t = Instant::now();
        let out = decide_qdsi(&cq, &db, 4, &limits).expect("cq qdsi");
        println!(
            "{:<26} {:>6} {:>4} {:>12} {:>10} {:>12?}",
            "CQ data-selecting",
            db.size(),
            4,
            out.explored,
            out.scale_independent,
            t.elapsed()
        );
        // Boolean CQ fast path — O(1) per Corollary 3.2.
        let boolean: AnyQuery = si_query::ConjunctiveQuery {
            name: "B".into(),
            head: vec![],
            atoms: q1().atoms.clone(),
            equalities: vec![],
        }
        .into();
        let t = Instant::now();
        let out = decide_qdsi(&boolean, &db, 2, &limits).expect("bool qdsi");
        println!(
            "{:<26} {:>6} {:>4} {:>12} {:>10} {:>12?}",
            "CQ Boolean (‖Q‖ ≤ M)",
            db.size(),
            2,
            out.explored,
            format!(
                "{}/{:?}",
                out.scale_independent,
                DecisionMethod::BooleanCqFastPath == out.method
            ),
            t.elapsed()
        );
        // FO subset enumeration — PSPACE/Σ-hard flavour: exponential blow-up.
        if persons <= 10 {
            let fo: AnyQuery = parse_fo_query(
                r#"NoFriends() := exists x, n, c. person(x, n, c) & ! (exists y. friend(x, y))"#,
            )
            .expect("fo query")
            .into();
            let t = Instant::now();
            let out = decide_qdsi(&fo, &db, 2, &limits).expect("fo qdsi");
            println!(
                "{:<26} {:>6} {:>4} {:>12} {:>10} {:>12?}",
                "FO Boolean (subsets)",
                db.size(),
                2,
                out.explored,
                out.scale_independent,
                t.elapsed()
            );
        }
    }
}

fn tiny_database(persons: usize) -> Database {
    SocialGenerator::new(SocialConfig {
        persons,
        restaurants: 3,
        avg_friends: 3,
        avg_visits: 1,
        nyc_percent: 100,
        ..SocialConfig::default()
    })
    .generate()
}

/// E2 — Q1 scaling: bounded vs naive access cost as |D| grows.
fn exp_q1() {
    banner("E2 (Ex. 1.1(a)/4.1): Q1 bounded vs naive access cost");
    println!(
        "{:<10} {:>10} {:>16} {:>16} {:>10}",
        "persons", "|D|", "bounded tuples", "naive tuples", "ratio"
    );
    for row in q1_scaling_rows(&[1_000, 4_000, 16_000, 64_000]) {
        println!(
            "{:<10} {:>10} {:>16} {:>16} {:>10.1}",
            row.label,
            row.database_size,
            row.bounded_tuples,
            row.naive_tuples,
            row.ratio()
        );
    }
}

/// E3 — Q3 with embedded constraints (Example 4.6).
fn exp_q3() {
    banner("E3 (Ex. 4.6): Q3 under plain vs embedded access schemas");
    let schema = social_schema_dated();
    let plain = facebook_access_schema(5000);
    let enriched = example_46_access_schema(5000);
    let planner_plain = BoundedPlanner::new(&schema, &plain);
    let planner_rich = BoundedPlanner::new(&schema, &enriched);
    println!(
        "plannable(p,yy) under plain schema:    {}",
        planner_plain
            .plan(&q3(), &["p".into(), "yy".into()])
            .is_ok()
    );
    println!(
        "plannable(p,yy) under embedded schema: {}",
        planner_rich.plan(&q3(), &["p".into(), "yy".into()]).is_ok()
    );
    println!(
        "{:<10} {:>10} {:>16} {:>16}",
        "persons", "|D|", "bounded tuples", "naive tuples"
    );
    for persons in [1_000usize, 4_000, 16_000] {
        let db = dated_social_database(persons);
        let size = db.size();
        let plan = planner_rich
            .plan(&q3(), &["p".into(), "yy".into()])
            .expect("plannable");
        let adb = AccessIndexedDatabase::new(db, enriched.clone()).expect("adb");
        let bounded =
            execute_bounded(&plan, &[Value::int(7), Value::int(2013)], &adb).expect("exec");
        let naive = execute_naive(
            &q3(),
            &["p".into(), "yy".into()],
            &[Value::int(7), Value::int(2013)],
            adb.database(),
        )
        .expect("naive");
        println!(
            "{:<10} {:>10} {:>16} {:>16}",
            persons, size, bounded.accesses.tuples_fetched, naive.accesses.tuples_fetched
        );
    }
}

/// E4 — incremental maintenance of Q2 under visit insertions.
fn exp_q2_incremental() {
    banner("E4 (Ex. 1.1(b)/5.6): incremental Q2 under visit insertions");
    let access = q2_access_schema();
    println!(
        "{:<10} {:>10} {:>8} {:>14} {:>14} {:>18}",
        "persons", "|D|", "|∆D|", "maint. probes", "maint. tuples", "recompute tuples"
    );
    for persons in [2_000usize, 8_000, 32_000] {
        let db = social_database(persons);
        let size = db.size();
        let mut adb = AccessIndexedDatabase::new(db, access.clone()).expect("adb");
        let mut evaluator =
            IncrementalBoundedEvaluator::new(q2(), vec!["p".into()], vec![Value::int(7)], &adb)
                .expect("evaluator");
        let delta = visit_insertions(adb.database(), 100, 99);
        let cost = evaluator.apply_update(&mut adb, &delta).expect("update");
        let recompute =
            execute_naive(&q2(), &["p".into()], &[Value::int(7)], adb.database()).expect("naive");
        println!(
            "{:<10} {:>10} {:>8} {:>14} {:>14} {:>18}",
            persons,
            size,
            delta.size(),
            cost.index_probes,
            cost.tuples_fetched,
            recompute.accesses.tuples_fetched
        );
    }
}

/// E5 — Q2 answered through the views V1, V2.
fn exp_q2_views() {
    banner("E5 (Ex. 1.1(c)/6.3): Q2 using views V1, V2");
    println!(
        "{:<10} {:>10} {:>20} {:>16} {:>10}",
        "persons", "|D|", "base tuples (views)", "naive tuples", "ratio"
    );
    for row in q2_views_rows(&[1_000, 4_000, 16_000]) {
        println!(
            "{:<10} {:>10} {:>20} {:>16} {:>10.1}",
            row.label,
            row.database_size,
            row.bounded_tuples,
            row.naive_tuples,
            row.ratio()
        );
    }
}

/// E6 — QCntl search-space growth (Theorem 4.4).
fn exp_qcntl() {
    banner("E6 (Thm 4.4): QCntl minimal-controlling-set search");
    use si_access::AccessConstraint;
    use si_data::{DatabaseSchema, RelationSchema};
    println!(
        "{:<14} {:>14} {:>14} {:>12}",
        "#attributes", "#constraints", "#minimal sets", "time"
    );
    for k in [4usize, 6, 8, 10, 12] {
        let attrs: Vec<String> = (0..k).map(|i| format!("a{i}")).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let schema = DatabaseSchema::from_relations(vec![RelationSchema::new("r", &attr_refs)])
            .expect("schema");
        // One constraint per pair of adjacent attributes: many incomparable
        // candidate keys, mirroring the prime-attribute reduction.
        let mut access = si_access::AccessSchema::new();
        for i in 0..k - 1 {
            access.add(AccessConstraint::new(
                "r",
                &[&attrs[i], &attrs[i + 1]],
                10,
                1,
            ));
        }
        let head = attrs.join(", ");
        let q = parse_fo_query(&format!("Q({head}) := r({head})")).expect("query");
        let t = Instant::now();
        let sets = si_core::minimal_controlling_sets(&q, &schema, &access).expect("sets");
        let out = decide_qcntl(&q, &schema, &access, 2).expect("qcntl");
        println!(
            "{:<14} {:>14} {:>14} {:>12?}",
            k,
            k - 1,
            sets.len(),
            t.elapsed()
        );
        assert!(out.controllable_within);
    }
}

/// E7 — RA_A rules: scale-independent σ_X=a(E) and incremental forms.
fn exp_ra_rules() {
    banner("E7 (Thm 5.4): RA_A controllability of the Q1/Q2 algebra plans");
    let schema = social_schema();
    let access = q2_access_schema();
    // Proposition 5.5 augmentation A(R): the updated relations are declared
    // fully accessible, which is what makes the change forms derivable.
    let augmented = q2_access_schema()
        .with_full_access("friend")
        .with_full_access("visit")
        .with_full_access("person")
        .with_full_access("restr");
    let analyzer_augmented = AlgebraControllability::new(&schema, &augmented);
    let analyzer = AlgebraControllability::new(&schema, &access);
    for (name, query) in [("Q1", q1()), ("Q2", q2())] {
        let expr = cq_to_ra(&query, &schema).expect("translate");
        let plain = analyzer
            .controlling_sets(&expr, ExprForm::Plain)
            .expect("plain");
        let delta = analyzer
            .controlling_sets(&expr, ExprForm::Delta)
            .expect("delta");
        let nabla = analyzer
            .controlling_sets(&expr, ExprForm::Nabla)
            .expect("nabla");
        println!(
            "{name}: (E,X) minimal sets = {:?}; (E∆) = {:?}; (E∇) = {:?}; σ_p SI = {}; incrementally SI = {}",
            plain.sets(),
            delta.sets(),
            nabla.sets(),
            analyzer.is_scale_independent(&expr, &["p".into()]).expect("si"),
            analyzer
                .is_incrementally_scale_independent(&expr, &["p".into()])
                .expect("inc si"),
        );
        println!(
            "{name} under A(R) augmentation (Prop 5.5): incrementally SI = {}",
            analyzer_augmented
                .is_incrementally_scale_independent(&expr, &["p".into()])
                .expect("inc si augmented"),
        );
    }
}

/// E8 — VQSI decision cost vs number of views.
fn exp_vqsi() {
    banner("E8 (Thm 6.1): VQSI rewriting search");
    let views = paper_views();
    for m in [0usize, 1, 4] {
        let t = Instant::now();
        let out = si_core::decide_vqsi_cq(&q2(), &views, m, 64).expect("vqsi");
        println!(
            "VQSI(Q2 data-selecting, M={m}): {} ({} candidates, {:?})",
            out.scale_independent,
            out.candidates_examined,
            t.elapsed()
        );
        let boolean = si_query::ConjunctiveQuery {
            name: "Q2bool".into(),
            head: vec![],
            atoms: q2().atoms.clone(),
            equalities: vec![],
        };
        let out = si_core::decide_vqsi_cq(&boolean, &views, m, 64).expect("vqsi");
        println!(
            "VQSI(Q2 Boolean,        M={m}): {} ({} candidates)",
            out.scale_independent, out.candidates_examined
        );
    }
    // Corollary 6.2 under the access schema.
    let ok = si_core::is_scale_independent_using_views(
        &q2(),
        &views,
        &social_schema(),
        &facebook_access_schema(5000),
        &["p".into(), "rn".into()],
        64,
    )
    .expect("cor 6.2");
    println!(
        "Corollary 6.2 (p, rn fixed): rewriting found = {} (base part = {:?})",
        ok.is_some(),
        ok.map(|r| si_core::views::base_part_size(&r, &views))
    );
    let _ = q2_rewriting();
}

/// Ablations: index reuse, ‖Q‖ pruning, A(R) full-scan augmentation.
fn exp_ablation() {
    banner("Ablations");
    // (a) Boolean-CQ ‖Q‖ ≤ M fast path vs full provenance cover.
    let db = tiny_database(12);
    let boolean: AnyQuery = si_query::ConjunctiveQuery {
        name: "B".into(),
        head: vec![],
        atoms: q1().atoms.clone(),
        equalities: vec![],
    }
    .into();
    let limits = SearchLimits::default();
    let fast = decide_qdsi(&boolean, &db, 2, &limits).expect("fast");
    let slow = decide_qdsi(&boolean, &db, 1, &limits).expect("slow");
    println!(
        "‖Q‖-pruning ablation: fast path explored {} branches, full cover explored {}",
        fast.explored, slow.explored
    );
    // (b) Access schema with vs without the visit index for Q2 planning.
    let schema = social_schema();
    let with_idx = BoundedPlanner::new(&schema, &q2_access_schema())
        .plan(&q2(), &["p".into()])
        .is_ok();
    let without_idx = BoundedPlanner::new(&schema, &facebook_access_schema(5000))
        .plan(&q2(), &["p".into()])
        .is_ok();
    println!("visit-index ablation: plannable with index = {with_idx}, without = {without_idx}");
    // (c) Full-access augmentation A(R) of Proposition 5.5.
    let augmented = facebook_access_schema(5000).with_full_access("visit");
    let analyzer = AlgebraControllability::new(&schema, &augmented);
    let expr = cq_to_ra(&q2(), &schema).expect("translate");
    println!(
        "A(visit) augmentation: σ_p(E_Q2) scale-independent = {}",
        analyzer
            .is_scale_independent(&expr, &["p".into()])
            .expect("si")
    );
}
