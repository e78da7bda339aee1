//! `cbt-eval` — regenerate any table/figure of the reproduction.
//!
//! ```text
//! cbt-eval <experiment> [--quick] [--jobs N]
//! cbt-eval all [--quick] [--jobs N]
//! cbt-eval list
//! ```
//!
//! Independent trials (one per seed) fan out over `--jobs N` worker
//! threads (default: `CBT_EVAL_JOBS` or the machine's parallelism);
//! results are merged in seed order, so the output is identical for
//! any N. Results are printed and also written as JSON under
//! `target/eval-results/`.

use cbt_eval::experiments::*;
use cbt_eval::Report;
use std::path::PathBuf;

/// A named experiment runner (`quick` flag → smaller presets).
type Runner = (&'static str, Box<dyn Fn(bool) -> Report>);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // Parsed through the shared parallelism knob so `--jobs` and the
    // node's `--shards` reject bad values with identical messages.
    let jobs_knob = cbt::parallelism::EVAL_JOBS;
    if let Some(i) = args.iter().position(|a| a == jobs_knob.flag_name()) {
        let value = args.get(i + 1).map(String::as_str).unwrap_or("");
        match jobs_knob.parse_flag(value) {
            Ok(n) => cbt_eval::parallel::set_jobs(n),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let mut skip_next = false;
    let which = args
        .iter()
        .find(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--jobs" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .cloned()
        .unwrap_or_default();

    let runners: Vec<Runner> = vec![
        ("spec-e1", Box::new(|_| spec::e1())),
        ("spec-e2", Box::new(|_| spec::e2())),
        ("spec-e3", Box::new(|_| spec::e3())),
        ("spec-e4", Box::new(|_| spec::e4())),
        ("spec-e5", Box::new(|_| spec::e5())),
        ("spec-e6", Box::new(|_| spec::e6())),
        (
            "state-scaling",
            Box::new(|q| state::run(&if q { state::Params::quick() } else { Default::default() })),
        ),
        (
            "tree-cost",
            Box::new(|q| {
                treecost::run(&if q { treecost::Params::quick() } else { Default::default() })
            }),
        ),
        (
            "delay-ratio",
            Box::new(|q| delay::run(&if q { delay::Params::quick() } else { Default::default() })),
        ),
        (
            "traffic-concentration",
            Box::new(|q| {
                traffic::run(&if q { traffic::Params::quick() } else { Default::default() })
            }),
        ),
        (
            "control-overhead",
            Box::new(|q| {
                overhead::run(&if q { overhead::Params::quick() } else { Default::default() })
            }),
        ),
        (
            "join-latency",
            Box::new(|q| {
                latency::run(&if q { latency::Params::quick() } else { Default::default() })
            }),
        ),
        (
            "core-placement",
            Box::new(|q| {
                placement::run(&if q { placement::Params::quick() } else { Default::default() })
            }),
        ),
        (
            "multi-core",
            Box::new(|q| {
                multicore::run(&if q { multicore::Params::quick() } else { Default::default() })
            }),
        ),
        (
            "shardscale",
            Box::new(|q| {
                shardscale::run(&if q { shardscale::Params::quick() } else { Default::default() })
            }),
        ),
        (
            "netscale",
            Box::new(|q| {
                netscale::run(&if q { netscale::Params::quick() } else { Default::default() })
            }),
        ),
        (
            "protoscale",
            Box::new(|q| {
                protoscale::run(&if q { protoscale::Params::quick() } else { Default::default() })
            }),
        ),
        (
            "soak",
            Box::new(|q| soak::run(&if q { soak::Params::quick() } else { Default::default() })),
        ),
        (
            "explore",
            Box::new(|q| {
                explore::run(&if q { explore::Params::quick() } else { Default::default() })
            }),
        ),
    ];

    match which.as_str() {
        "" | "help" | "--help" => {
            eprintln!("usage: cbt-eval <experiment|all|list> [--quick]");
            eprintln!("experiments:");
            for (name, _) in &runners {
                eprintln!("  {name}");
            }
            std::process::exit(if which.is_empty() { 2 } else { 0 });
        }
        "list" => {
            for (name, _) in &runners {
                println!("{name}");
            }
        }
        "all" => {
            let mut timings = Vec::new();
            let mut rows = Vec::new();
            for (name, run) in &runners {
                let t0 = std::time::Instant::now();
                let report = run(quick);
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                println!("{}", report.render());
                write_json(name, &report);
                // Scaling rows from the implementation benchmarks are
                // benchmark records in their own right; carry them into
                // the consolidated record alongside the wall timings.
                if let Some((_, key)) = BENCH_ROWS.iter().find(|(n, _)| n == name) {
                    rows.push((*key, report.json.clone()));
                }
                write_bench_fleet(name, &report);
                timings.push(serde_json::json!({
                    "experiment": *name,
                    "wall_ms": wall_ms,
                }));
            }
            write_bench(timings, rows, quick);
        }
        name => match runners.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => {
                let report = run(quick);
                println!("{}", report.render());
                write_json(name, &report);
                write_bench_fleet(name, &report);
            }
            None => {
                eprintln!("unknown experiment '{name}'; try `cbt-eval list`");
                std::process::exit(2);
            }
        },
    }
}

/// The implementation benchmarks whose JSON rides along in
/// `BENCH_eval.json`, and the key each goes under.
const BENCH_ROWS: [(&str, &str); 5] = [
    ("shardscale", "shard_scaling"),
    ("netscale", "netscale"),
    ("protoscale", "protoscale"),
    ("soak", "soak"),
    ("explore", "explore"),
];

/// Consolidated wall-clock timings for an `all` run — the evaluation
/// suite's own benchmark record (timings vary run to run; the
/// experiment JSONs next to it do not).
fn write_bench(timings: Vec<serde_json::Value>, rows: Vec<(&str, serde_json::Value)>, quick: bool) {
    let dir = PathBuf::from("target");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let total: f64 = timings.iter().filter_map(|t| t["wall_ms"].as_f64()).sum();
    let mut payload = serde_json::json!({
        "suite": "cbt-eval all",
        "quick": quick,
        "jobs": cbt_eval::parallel::jobs(),
        "total_wall_ms": total,
        "experiments": timings,
    });
    if let serde_json::Value::Object(m) = &mut payload {
        for (key, json) in rows {
            m.insert(key.into(), json);
        }
    }
    let path = dir.join("BENCH_eval.json");
    if let Ok(s) = serde_json::to_string_pretty(&payload) {
        let _ = std::fs::write(&path, s);
        eprintln!("[written {}]", path.display());
    }
}

/// Writes the summary rows of a fleet experiment (`protoscale`,
/// `soak`) to `BENCH_<name>.json` in the working directory — run from
/// the repo root, that's the in-repo perf-trajectory record the CI
/// smoke and the committed snapshots use (the other BENCH files live
/// under `target/` and are never committed). Other experiments have
/// no such record.
fn write_bench_fleet(name: &str, report: &Report) {
    if !matches!(name, "protoscale" | "soak") {
        return;
    }
    let payload = serde_json::json!({
        "suite": format!("cbt-eval {name}"),
        "findings": report.findings,
        "rows": report.json,
    });
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(&payload) {
        let _ = std::fs::write(&path, s);
        eprintln!("[written {}]", path.display());
    }
}

fn write_json(name: &str, report: &Report) {
    let dir = PathBuf::from("target/eval-results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let _ = std::fs::write(&path, report.to_file_json());
    eprintln!("[written {}]", path.display());
}
