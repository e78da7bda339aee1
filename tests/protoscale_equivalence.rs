//! Protoscale equivalence (ISSUE 9 satellite): at ~1k routers, the
//! tree the *live engines* build by exchanging real JOIN/ACK control
//! frames must be edge-identical to the analytic walk over the same
//! SPF trees — and the whole exercise must be invariant under engine
//! sharding (`CBT_SHARDS=2` replays byte-identically).
//!
//! The hard asserts (engine FIB edges == analytic span, fleet-wide
//! silence after teardown, zero decode errors) live inside
//! [`protoscale::equivalence`]; these tests pin the scale and the
//! cross-shard determinism on top.

use cbt_eval::experiments::protoscale;
use cbt_obs::{CtlKind, ProtocolCounters};
use cbt_topology::generate::TransitStubParams;
use std::collections::BTreeMap;

/// 2 × 4 × (1 + 3·40) = 968 routers — the ~1k gate from the Impl-5
/// experiment, run with the session's `CBT_SHARDS` default so the CI
/// sharded pass (`CBT_SHARDS=2 cargo test`) exercises it too.
const TOPO: TransitStubParams = cbt_eval::fleet::TOPO_1K;

#[test]
fn live_engines_rebuild_the_analytic_tree_at_1k_routers() {
    let eq = protoscale::equivalence(TOPO, 8, 32, None, 9393);
    assert_eq!(eq.routers, 968);
    assert_eq!(eq.groups, 8);
    assert!(eq.members > 0);
    // Non-degenerate trees: every member either is on a shared path or
    // contributes edges; a zero here means the joins never happened.
    assert!(eq.tree_edges >= eq.groups as u64, "trees are degenerate: {}", eq.tree_edges);
    // Teardown traffic exists (quits + acks) and postdates the build.
    assert!(eq.total_frames > eq.join_frames);
    assert!(eq.silent_us > eq.settle_us);
    // Commit against commit, not only shard count against shard count:
    // every deterministic field, as captured at 28f0f33 (the parent of
    // the PR that moved this gate onto `cbt_eval::fleet`). A value that
    // moves means the wire behaviour moved.
    assert_eq!(eq.members, 251);
    assert_eq!(eq.tree_edges, 980);
    assert_eq!(eq.join_frames, 1960);
    assert_eq!(eq.total_frames, 3920);
    assert_eq!(eq.settle_us, 2_251_000);
    assert_eq!(eq.silent_us, 27_000_000);
    assert_counted_twice_alike(&eq.ctl, &eq.group_rows);
}

/// Conservation between the two places control traffic is counted: for
/// every kind, the world's per-group rows (counted where a frame is
/// encoded, and where it is decoded past the receiver's own-address
/// check) sum to the engines' per-type rows, sent and received.
fn assert_counted_twice_alike(
    engines: &ProtocolCounters,
    groups: &BTreeMap<u32, ProtocolCounters>,
) {
    let mut world = ProtocolCounters::default();
    groups.values().for_each(|row| world.merge(row));
    for k in CtlKind::ALL {
        assert_eq!(world.sent(k), engines.sent(k), "{k:?} sent");
        assert_eq!(world.received(k), engines.received(k), "{k:?} received");
    }
    assert!(world.received(CtlKind::QuitAck) > 0, "the teardown was counted");
}

#[test]
fn equivalence_is_deterministic_across_engine_shards() {
    let one = protoscale::equivalence(TOPO, 8, 32, Some(1), 9393);
    let two = protoscale::equivalence(TOPO, 8, 32, Some(2), 9393);
    assert_counted_twice_alike(&one.ctl, &one.group_rows);
    assert_counted_twice_alike(&two.ctl, &two.group_rows);
    // Group-space sharding is an internal engine detail: the wire
    // behaviour — frame counts, tree shape, settle and silence
    // instants — must not move by a single microsecond or frame.
    assert_eq!(one.tree_edges, two.tree_edges);
    assert_eq!(one.join_frames, two.join_frames);
    assert_eq!(one.total_frames, two.total_frames);
    assert_eq!(one.settle_us, two.settle_us);
    assert_eq!(one.silent_us, two.silent_us);
}
