//! What a shortest-path tree costs on the heap, counted on the 9 888-
//! router transit-stub of the fleet benchmark with a warmed
//! `SpfScratch`: a full run allocates its two columns (`dist`, `pred`;
//! 12 B per node) and nothing else, a recompute in place allocates
//! nothing, the first removal repair adds the three child-list columns,
//! and every repair after it allocates nothing.

mod common;

use cbt_topology::{transit_stub, CsrGraph, SpfScratch, SpfTree, TransitStubParams};
use common::alloc;

/// 4 × 8 × (1 + 4·77) = 9 888 routers.
const TOPO: TransitStubParams = TransitStubParams {
    transit_domains: 4,
    transit_size: 8,
    stubs_per_transit_node: 4,
    stub_size: 77,
};

/// The graph, the endpoints and slots of its first stub uplink (an edge
/// on the core's tree, so the fault detaches a subtree), and the core.
fn fleet() -> (CsrGraph, (u32, u32), [u32; 2], u32) {
    let g = transit_stub(TOPO, 1);
    let edges: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
    let (csr, pairs) = CsrGraph::from_edges(g.node_count(), &edges);
    let transit = TOPO.transit_nodes() as u32;
    let k = edges.iter().position(|&(a, b, _)| a.min(b) < transit && a.max(b) >= transit);
    let k = k.expect("a stub uplink");
    (csr, (edges[k].0, edges[k].1), pairs[k], 0)
}

/// Takes the edge down and repairs, then brings it back and repairs;
/// returns the allocations of each repair.
fn flap(
    t: &mut SpfTree,
    g: &mut CsrGraph,
    e: (u32, u32),
    slots: [u32; 2],
    s: &mut SpfScratch,
) -> [u64; 2] {
    slots.iter().for_each(|&slot| g.set_slot_live(slot, false));
    let (down, touched) = alloc::count(|| t.repair_removals(g, &[e], &[], s));
    assert!(touched > 0, "the fault detaches part of the tree");
    slots.iter().for_each(|&slot| g.set_slot_live(slot, true));
    let (up, _) = alloc::count(|| t.repair_additions(g, &[e], &[], s));
    [down.allocs, up.allocs]
}

#[test]
fn full_trees_are_lean_and_repairs_allocate_their_child_lists_once() {
    let (mut g, e, slots, core) = fleet();
    let n = g.node_count();
    assert_eq!(n, 9_888);

    // Warm the scratch with the same runs the counted window makes.
    let mut scratch = SpfScratch::new();
    let mut warm = SpfTree::full(&g, core, &mut scratch);
    for _ in 0..2 {
        flap(&mut warm, &mut g, e, slots, &mut scratch);
    }

    let (full, mut t) = alloc::count(|| SpfTree::full(&g, core, &mut scratch));
    assert_eq!(full.allocs, 2, "a full run allocates dist and pred only");
    assert_eq!(full.live, 12 * n as i64, "12 B per node stay live");
    assert_eq!(t.mem_bytes(), 12 * n);

    let (recompute, _) = alloc::count(|| t.recompute_full(&g, &mut scratch));
    assert_eq!(recompute.allocs, 0, "a recompute reuses the tree's columns");

    assert_eq!(
        flap(&mut t, &mut g, e, slots, &mut scratch),
        [3, 0],
        "the first removal builds the child lists"
    );
    assert_eq!(t.mem_bytes(), 24 * n);
    for round in 0..3 {
        assert_eq!(flap(&mut t, &mut g, e, slots, &mut scratch), [0, 0], "round {round}");
    }
    t.assert_matches_full(&g, &mut scratch);
}
