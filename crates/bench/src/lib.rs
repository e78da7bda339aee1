//! Helper-free crate: the benchmarks live in `benches/`. Criterion
//! microbenches for the substrates no `benchmark/` workload isolates:
//! the wire codec, the timer service, the graph algorithms and the
//! engine's control-plane operations. End-to-end timings are the
//! benchmark's workloads; the forward path's zero-allocation claims are
//! tests (`crates/core/tests/forward_allocs.rs`).
