//! `cbt-benchmark` — the repo benchmark's command line.
//!
//! ```text
//! cbt-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//! cbt-benchmark [--seed N] [--seconds S] [--smoke]              every workload, untraced then traced, cross-checked
//! cbt-benchmark sweep --runs R [--seed N] [--seconds S] --out F R untraced runs per workload, spreads printed
//! cbt-benchmark compare <setA> <setB>                           verdict per (workload, metric); exit 1 on regression
//! cbt-benchmark probe pending_transit_local_join                known-failure repro
//! cbt-benchmark contract                                        BENCHMARK.json as the registry defines it
//! ```

use cbt_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use cbt_benchmark::proc::CountingAlloc;
use cbt_benchmark::{compare, contract, known_failures, runner, stats};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    runs: usize,
    record: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: contract::RUN_SECONDS,
        trace: false,
        smoke: false,
        runs: 10,
        record: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<u64>().map_err(|_| format!("{name}: not a number: {v}"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = number("--seed", value("--seed")?)?,
            "--seconds" => a.seconds = number("--seconds", value("--seconds")?)?.clamp(1, 60),
            "--trace" => a.trace = number("--trace", value("--trace")?)? != 0,
            "--runs" => a.runs = number("--runs", value("--runs")?)?.max(2) as usize,
            "--record" => a.record = Some(PathBuf::from(value("--record")?)),
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => a.smoke = true,
            s if s.starts_with("--") => return Err(format!("unknown option {s}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

/// One run in this process; the last stdout line is the driver's JSON.
fn run_one(a: &Args, workload: &str) -> ExitCode {
    if !runner::is_workload(workload) {
        eprintln!("unknown workload {workload}; one of: {}", WORKLOADS.map(|(w, _)| w).join(", "));
        return ExitCode::from(2);
    }
    let out = runner::run(workload, a.seed, a.seconds, a.trace);
    for n in &out.notes {
        eprintln!("note: {n}");
    }
    if let Some(path) = &a.record {
        let line = runner::record_json(workload, a.seed, a.seconds, a.trace, &out);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            // One write call, so two runs appending side by side (the
            // smoke preset) cannot interleave their lines.
            .and_then(|mut f| f.write_all(format!("{line}\n").as_bytes()));
        if let Err(e) = appended {
            eprintln!("cannot record to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", runner::driver_json(&out, a.trace));
    ExitCode::SUCCESS
}

/// Starts one workload run in a fresh process (peak RSS is per
/// process) that appends its record to `record`.
fn spawn_run(workload: &str, seed: u64, seconds: u64, trace: bool, record: &Path) -> Option<Child> {
    let exe = std::env::current_exe().expect("own executable path");
    Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--record")
        .arg(record)
        .stdout(std::process::Stdio::null())
        .spawn()
        .ok()
}

/// Waits for a run started by [`spawn_run`]; true if it exited 0.
fn finished_ok(child: Option<Child>) -> bool {
    child.is_some_and(|mut c| matches!(c.wait(), Ok(s) if s.success()))
}

fn fresh(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::File::create(path).map(|_| ())
}

fn load_records(path: &Path) -> Vec<serde_json::Value> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect()
}

/// Every workload untraced (end-to-end numbers), then traced
/// (per-layer numbers + tracing overhead), cross-checked and printed.
fn full_run(a: &Args) -> ExitCode {
    let seconds = if a.smoke { 1 } else { a.seconds };
    let path = a.out.clone().unwrap_or_else(|| runner::out_dir().join("latest.jsonl"));
    if let Err(e) = fresh(&path) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for (w, why) in WORKLOADS {
        println!("== {w}: {why}");
        // A measurement runs its two passes one after the other; the
        // smoke preset only checks that they work, and uses both cores.
        let plain = spawn_run(w, a.seed, seconds, false, &path);
        let early = a.smoke.then(|| spawn_run(w, a.seed, seconds, true, &path));
        let plain_ok = finished_ok(plain);
        let traced_ok =
            finished_ok(early.unwrap_or_else(|| spawn_run(w, a.seed, seconds, true, &path)));
        if !(plain_ok && traced_ok) {
            println!("   a run failed (untraced ok: {plain_ok}, traced ok: {traced_ok})");
            ok = false;
        }
        let recs = load_records(&path);
        let find = |t: u64| {
            recs.iter()
                .find(|r| r["workload"].as_str() == Some(w) && r["trace"].as_u64() == Some(t))
        };
        let (Some(plain), Some(traced)) = (find(0), find(1)) else {
            ok = false;
            continue;
        };
        for (label, r) in [("untraced", plain), ("traced", traced)] {
            let (att, failed) =
                (r["attempted"].as_u64().unwrap_or(0), r["failed"].as_u64().unwrap_or(0));
            let correct = r["correct"].as_bool().unwrap_or(false);
            println!(
                "   {label}: attempted {att} failed {failed} correct {correct} wall {:.2} s",
                r["wall_s"].as_f64().unwrap_or(0.0)
            );
            if let Some(notes) = r["notes"].as_array() {
                for n in notes {
                    println!("      note: {}", n.as_str().unwrap_or(""));
                }
            }
            ok &= correct;
        }
        for m in &END_TO_END {
            let v = plain["values"][m.name].as_f64().unwrap_or(0.0);
            println!("   {:<34} {:>16.6} {}", m.name, v, m.unit);
        }
        for m in PER_LAYER {
            if let Some(v) = traced["values"].get(m.name).and_then(|v| v.as_f64()) {
                println!("   {:<34} {:>16.6} {}", m.name, v, m.unit);
            }
        }
        // Same seed, same inputs: every count of the traced run must
        // equal the untraced run's.
        let (pe, te) = (&plain["exact"], &traced["exact"]);
        let same =
            pe.as_object().is_some_and(|m| m.iter().all(|(k, v)| te.get(k.as_str()) == Some(v)));
        println!("   traced counts equal untraced counts: {same}");
        ok &= same;
        // Side by side (smoke) the two walls say nothing about tracing.
        if !a.smoke {
            let ratio =
                traced["wall_s"].as_f64().unwrap_or(0.0) / plain["wall_s"].as_f64().unwrap_or(1.0);
            println!(
                "   {:<34} {:>16.6} ratio (traced wall / untraced wall)",
                "trace.overhead_ratio", ratio
            );
        }
    }
    let probe = known_failures::pending_transit_local_join();
    println!("== probe {}: {} — {}", probe.name, probe.status, probe.detail);
    println!("results: {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `runs` untraced runs of every workload, each with its own seed;
/// prints the spread of every end-to-end metric.
fn sweep(a: &Args) -> ExitCode {
    let Some(path) = &a.out else {
        eprintln!("sweep needs --out FILE");
        return ExitCode::from(2);
    };
    if let Err(e) = fresh(path) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    for (w, _) in WORKLOADS {
        for i in 0..a.runs as u64 {
            if !finished_ok(spawn_run(w, a.seed + i, a.seconds, false, path)) {
                eprintln!("{w} seed {} failed", a.seed + i);
                return ExitCode::FAILURE;
            }
        }
    }
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let set = match compare::parse_set(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{:<14} {:<16} {:>14} {:>9} {:>7}", "workload", "metric", "median", "spread", "bound");
    for (w, _) in WORKLOADS {
        for m in &END_TO_END {
            if let Some(v) = set.get(&(w.to_string(), m.name.to_string())) {
                println!(
                    "{:<14} {:<16} {:>14.6} {:>8.2}% {:>6.0}%",
                    w,
                    m.name,
                    stats::median(v),
                    stats::spread(v).unwrap_or(0.0) * 100.0,
                    m.bound * 100.0
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = a.workload.clone() {
        return run_one(&a, &w);
    }
    match a.positional.first().map(String::as_str) {
        None => full_run(&a),
        Some("sweep") => sweep(&a),
        Some("contract") => {
            println!("{}", contract::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("probe")
            if a.positional.get(1).map(String::as_str) == Some("pending_transit_local_join") =>
        {
            let r = known_failures::pending_transit_local_join();
            println!("{}: {} — {}", r.name, r.status, r.detail);
            ExitCode::SUCCESS
        }
        Some("compare") if a.positional.len() == 3 => {
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| compare::parse_set(&t))
            };
            match (read(&a.positional[1]), read(&a.positional[2])) {
                (Ok(sa), Ok(sb)) => {
                    if compare::report(&compare::compare(&sa, &sb)) {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        Some(other) => {
            eprintln!("unknown command {other}");
            ExitCode::from(2)
        }
    }
}
