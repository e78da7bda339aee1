//! `BENCHMARK.json` at the repo root is the registry, spelled out —
//! and stays inside the limits the driver refuses a file for.

use cbt_benchmark::contract;
use cbt_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::HashSet;

fn name_ok(n: &str) -> bool {
    let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first && n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_file_equals_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed.trim_end(),
        contract::benchmark_json(),
        "regenerate with `cbt-benchmark contract`"
    );
    assert!(committed.len() <= 64 * 1024);
    let v: serde_json::Value = serde_json::from_str(&committed).expect("valid JSON");
    let keys: Vec<&String> = v.as_object().unwrap().iter().map(|(k, _)| k).collect();
    let want = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    assert_eq!(keys.len(), want.len());
    for k in want {
        assert!(v.get(k).is_some(), "missing key {k}");
    }
}

#[test]
fn registry_is_inside_the_contract_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&contract::RUN_SECONDS));
    let mut seen = HashSet::new();
    for (name, why) in WORKLOADS {
        assert!(name_ok(name), "{name}");
        assert!(seen.insert(name), "{name} used twice");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} chars", why.len());
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s carries the largest bound");
}
