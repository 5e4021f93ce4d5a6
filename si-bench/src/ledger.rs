//! Result sets: `--suite` writes one, `--compare` holds two against each
//! other with the bounds of `BENCHMARK.json`.
//!
//! A result set is one JSON file: the revision, `nproc` and build profile it
//! was measured on, and one entry per run (workload, seed, traced or not,
//! the run's result line).

use crate::driver::Res;
use crate::json::Json;
use crate::metrics::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use std::path::Path;
use std::process::Command;

/// The last line of a run's standard output, parsed.
fn result_of(stdout: &str) -> Res<Json> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    Json::parse(line)
}

/// Runs every workload at every seed in a child process each (so that peak
/// RSS and heap state are a run's own), plus one traced run per workload at
/// the first seed, and writes the result set to `out`.
pub fn suite(out: &Path, seeds: &[u64], seconds: f64, quick: bool, rev: &str) -> Res<()> {
    if seeds.is_empty() {
        return Err("--suite needs --seeds".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        let plan = seeds
            .iter()
            .map(|s| (*s, false))
            .chain(std::iter::once((seeds[0], true)));
        for (seed, traced) in plan {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child to end.
            let output = cmd.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = result_of(&stdout).map_err(|e| {
                format!(
                    "{} seed {seed} trace {traced}: {e}\n{}",
                    workload.name(),
                    String::from_utf8_lossy(&output.stderr)
                )
            })?;
            eprintln!(
                "{} seed {seed} trace {}: {}",
                workload.name(),
                u8::from(traced),
                if output.status.success() {
                    "ok"
                } else {
                    "FAILED"
                }
            );
            runs.push(Json::obj(vec![
                ("workload", Json::str(workload.name())),
                ("seed", Json::Num(seed as f64)),
                ("trace", Json::Num(f64::from(u8::from(traced)))),
                ("result", result),
            ]));
        }
    }
    let set = Json::obj(vec![
        ("rev", Json::str(rev)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("profile", Json::str("release, lto = thin, debug = false")),
        ("run_seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(out, set.render()).map_err(|e| e.to_string())?;
    print!("{}", summary(&set));
    Ok(())
}

/// The values of `metric` on `workload`, one per run of the chosen kind.
fn values(set: &Json, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    set.get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(f64::from(u8::from(traced)))
        })
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn failures(set: &Json) -> u64 {
    set.get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|run| run.get("result")?.get("failed")?.as_f64())
        .sum::<f64>() as u64
}

/// Medians and spreads of the end-to-end metrics, the derived figures, and
/// the tracing overhead.
pub fn summary(set: &Json) -> String {
    let mut out = format!(
        "result set: rev {} nproc {} profile [{}] run_seconds {} failed {}\n",
        set.get("rev").and_then(Json::as_str).unwrap_or("?"),
        set.get("nproc").and_then(Json::as_f64).unwrap_or(0.0),
        set.get("profile").and_then(Json::as_str).unwrap_or("?"),
        set.get("run_seconds").and_then(Json::as_f64).unwrap_or(0.0),
        failures(set)
    );
    let med = |workload: Workload, traced: bool, metric: &str| {
        median(values(set, workload.name(), traced, metric))
    };
    for workload in Workload::ALL {
        out += &format!("  {}\n", workload.name());
        for m in &END_TO_END {
            let v = values(set, workload.name(), false, m.name);
            out += &format!(
                "    {:<18} median {:>14.4} {:<6} spread {:>6.2} % of a {:>4.1} % bound ({} runs)\n",
                m.name,
                median(v.clone()),
                m.unit,
                spread(&v) * 100.0,
                m.bound * 100.0,
                v.len()
            );
        }
        let traced_read = med(workload, true, "trace.read_p50_us");
        if traced_read > 0.0 {
            out += &format!(
                "    tracing overhead: read_p50_us {:.2} traced against {:.2} untraced; \
                 commit_p50_ms {:.3} against {:.3}\n",
                traced_read,
                med(workload, false, "read_p50_us"),
                med(workload, true, "trace.commit_p50_ms"),
                med(workload, false, "commit_p50_ms"),
            );
        }
    }
    let flatness = med(Workload::ServeLarge, false, "read_p50_us")
        / med(Workload::ServeSmall, false, "read_p50_us");
    out += &format!(
        "  derived: serve_flatness = read_p50_us(serve_large) / read_p50_us(serve_small) = {flatness:.3}\n"
    );
    out += &format!(
        "  derived: commit_p50_ms vs |D|: 2k {:.3} (serve_small), 20k sharded {:.3} (mixed_hot, groups of 8), \
         200k {:.3} (serve_large), 200k durable {:.3} (write_large)\n",
        med(Workload::ServeSmall, false, "commit_p50_ms"),
        med(Workload::MixedHot, false, "commit_p50_ms"),
        med(Workload::ServeLarge, false, "commit_p50_ms"),
        med(Workload::WriteLarge, false, "commit_p50_ms"),
    );
    out += &format!(
        "  derived: SnapshotStore::commit alone (write_large traced): 2k {:.1} us, 20k {:.1} us, 200k {:.1} us\n",
        med(Workload::WriteLarge, true, "data.snapshot.commit_us_2k"),
        med(Workload::WriteLarge, true, "data.snapshot.commit_us_20k"),
        med(Workload::WriteLarge, true, "data.snapshot.commit_us_200k"),
    );
    out
}

/// The bound `BENCHMARK.json` fixes for each end-to-end metric, with the
/// direction the metric improves in.
fn bounds(path: &Path) -> Res<Vec<(String, bool, f64)>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Json::parse(&text)?;
    spec.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_arr()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let known = END_TO_END
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| format!("{name} is not a metric of this runner"))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_owned(), known.higher_is_better, bound))
        })
        .collect()
}

/// Holds set `b` against set `a`, per (metric, workload), with the metric's
/// own bound.  A median worse by more than the bound is a *breach*; where
/// either set's own spread is wider than the bound the pair is *unresolved*,
/// not unchanged.  `Ok(false)` on any breach or failed operation.
pub fn compare(a: &Path, b: &Path, bounds_path: &Path) -> Res<bool> {
    let load = |p: &Path| -> Res<Json> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
    };
    let (set_a, set_b) = (load(a)?, load(b)?);
    let bounds = bounds(bounds_path)?;
    print!("A = {}\n{}", a.display(), summary(&set_a));
    print!("B = {}\n{}", b.display(), summary(&set_b));
    println!("B against A, per metric and workload:");
    let (mut breaches, mut unresolved) = (0, 0);
    for workload in Workload::ALL {
        for (name, higher_is_better, bound) in &bounds {
            let va = values(&set_a, workload.name(), false, name);
            let vb = values(&set_b, workload.name(), false, name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{} {name}: missing from a result set",
                    workload.name()
                ));
            }
            let (ma, mb) = (median(va.clone()), median(vb.clone()));
            // Positive = B is worse.
            let worse = if *higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let noise = spread(&va).max(spread(&vb));
            let verdict = if worse > *bound {
                breaches += 1;
                "BREACH"
            } else if noise > *bound {
                unresolved += 1;
                "unresolved"
            } else {
                "within bound"
            };
            println!(
                "  {:<12} {:<16} A {:>13.4} B {:>13.4} worse by {:>+7.2} % spread {:>5.2} % bound {:>4.1} %  {verdict}",
                workload.name(),
                name,
                ma,
                mb,
                worse * 100.0,
                noise * 100.0,
                bound * 100.0
            );
        }
    }
    println!("per layer (no bound; medians of the traced runs, where either is non-zero):");
    for workload in Workload::ALL {
        for (name, unit, _) in PER_LAYER {
            let ma = median(values(&set_a, workload.name(), true, name));
            let mb = median(values(&set_b, workload.name(), true, name));
            if ma != 0.0 || mb != 0.0 {
                println!(
                    "  {:<12} {name:<50} A {ma:>14.4} B {mb:>14.4} {unit}",
                    workload.name()
                );
            }
        }
    }
    let failed = failures(&set_a) + failures(&set_b);
    println!("{breaches} breaches, {unresolved} unresolved, {failed} failed operations");
    Ok(breaches == 0 && failed == 0)
}
