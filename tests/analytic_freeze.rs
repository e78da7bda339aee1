//! Frozen analytic outputs: the `--quick` JSON of every experiment that
//! reads shortest-path trees (`AllPairs`, the shared and source trees of
//! `cbt-baselines`, the delay and load metrics), pinned as a 64-bit
//! FNV-1a digest of the exact document `cbt-eval` writes. A change to
//! the shortest-path layer that moves any distance, tie-break or tree
//! edge moves one of these digests.
//!
//! Two of them (`control-overhead`, `join-latency`) also export the
//! packet simulator's observability counters, whose timer-lag sample
//! count depends on the engine's shard count, so each experiment carries
//! one digest per `CBT_SHARDS` setting the suite runs under.

use cbt::CbtConfig;
use cbt_eval::experiments::{
    delay, latency, multicore, overhead, placement, state, traffic, treecost,
};
use cbt_eval::Report;

/// FNV-1a over the bytes of `s` (same constants as the event-stream
/// freeze: SipHash output is not promised stable across releases).
fn fnv1a(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

type Run = fn() -> Report;

/// `(cbt-eval name, quick run, digest at 1 shard, digest at 2 shards)`.
const FROZEN: [(&str, Run, u64, u64); 8] = [
    (
        "state-scaling",
        || state::run(&state::Params::quick()),
        0x085a_4c1b_969a_842e,
        0x085a_4c1b_969a_842e,
    ),
    (
        "tree-cost",
        || treecost::run(&treecost::Params::quick()),
        0x2682_ed4c_ba95_8083,
        0x2682_ed4c_ba95_8083,
    ),
    (
        "control-overhead",
        || overhead::run(&overhead::Params::quick()),
        0x5957_fd48_4ddb_9c01,
        0xa008_882e_dc2e_8ac1,
    ),
    (
        "join-latency",
        || latency::run(&latency::Params::quick()),
        0xd93c_9dde_08b7_2f60,
        0x5329_377e_8590_4028,
    ),
    (
        "delay-ratio",
        || delay::run(&delay::Params::quick()),
        0xb371_09ce_6428_85a3,
        0xb371_09ce_6428_85a3,
    ),
    (
        "traffic-concentration",
        || traffic::run(&traffic::Params::quick()),
        0x1d5b_84f9_5610_509e,
        0x1d5b_84f9_5610_509e,
    ),
    (
        "core-placement",
        || placement::run(&placement::Params::quick()),
        0x110b_abd5_f1e9_6078,
        0x110b_abd5_f1e9_6078,
    ),
    (
        "multi-core",
        || multicore::run(&multicore::Params::quick()),
        0x4562_1963_8efa_d3cb,
        0x4562_1963_8efa_d3cb,
    ),
];

#[test]
fn analytic_quick_outputs_are_frozen() {
    let shards = CbtConfig::default().shards;
    assert!(matches!(shards, 1 | 2), "digests are pinned at 1 and 2 shards, not {shards}");
    let moved: Vec<String> = FROZEN
        .iter()
        .filter_map(|&(name, run, one, two)| {
            let want = if shards == 1 { one } else { two };
            let got = fnv1a(&run().to_file_json());
            (got != want).then(|| format!("{name}: {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "{shards} shard(s):\n{}", moved.join("\n"));
}
