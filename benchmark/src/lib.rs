//! # cbt-benchmark — the repo benchmark
//!
//! Four workloads over the system's public APIs, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced run of the
//! same inputs. See `README.md` for the layer → metric → end-to-end
//! map and `../BENCHMARK.json` for the contract the driver checks.

pub mod compare;
pub mod contract;
pub mod fleet;
pub mod known_failures;
pub mod lan_flood;
pub mod live_flood;
pub mod metrics;
pub mod payload;
pub mod probes;
pub mod proc;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod wrap;
