//! Differential test: the tree the packet-level protocol actually
//! builds must equal the graph-level prediction (union of member→core
//! unicast shortest paths) that the quantitative experiments
//! (S93-T1/T2/F1/F2) are computed from. This is the bridge that makes
//! the graph-level sweeps statements about the *protocol*, not just
//! about graphs.

use cbt::{CbtConfig, CbtWorld};
use cbt_baselines::cbt_shared_tree;
use cbt_netsim::{SimDuration, SimTime, WorldConfig};
use cbt_topology::{generate, AllPairs, Graph, HostId, NetworkSpec, NodeId, RouterId};
use cbt_wire::GroupId;
use std::collections::BTreeSet;

/// Extracts the protocol-built tree as a router-level edge set:
/// (child router, parent router) pairs from every FIB entry.
fn protocol_tree(cw: &mut CbtWorld, n: usize, group: GroupId) -> BTreeSet<(u32, u32)> {
    let mut edges = BTreeSet::new();
    for i in 0..n {
        let r = RouterId(i as u32);
        let Some(parent_addr) = cw.router(r).sharded().group_view(group).parent else { continue };
        let parent = cw.net.router_of(parent_addr).expect("parent is a router");
        let (a, b) = if r.0 < parent.0 { (r.0, parent.0) } else { (parent.0, r.0) };
        edges.insert((a, b));
    }
    edges
}

fn graph_tree_edges(tree: &Graph) -> BTreeSet<(u32, u32)> {
    tree.edges().map(|(a, b, _)| (a.0.min(b.0), a.0.max(b.0))).collect()
}

#[test]
fn protocol_tree_matches_graph_prediction_across_seeds() {
    for seed in 0..5u64 {
        let graph = generate::waxman(generate::WaxmanParams { n: 30, ..Default::default() }, seed);
        let ap = AllPairs::compute(&graph);
        // Deterministic member draw: every third router.
        let members: Vec<NodeId> = (0..30).step_by(3).map(|i| NodeId(i as u32)).collect();
        let core = ap.medoid(&members).expect("connected");
        let members: Vec<NodeId> = members.into_iter().filter(|m| *m != core).collect();

        // Graph-level prediction.
        let predicted = cbt_shared_tree(&graph, core, &members);

        // Packet-level protocol run.
        let net = NetworkSpec::from_graph_with_stub_lans(&graph);
        let core_addr = net.router_addr(RouterId(core.0));
        let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
        for m in &members {
            cw.host(HostId(m.0)).join_at(
                SimTime::from_secs(1),
                GroupId::numbered(1),
                vec![core_addr],
            );
        }
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(10));

        let built = protocol_tree(&mut cw, 30, GroupId::numbered(1));
        let predicted = graph_tree_edges(&predicted);
        assert_eq!(
            built, predicted,
            "seed {seed}: protocol tree diverged from the unicast-shortest-path prediction"
        );
    }
}

/// The protocol tree is always loop-free, spans exactly the member DRs
/// plus the routers between them and the core, and every on-tree
/// non-core router has exactly one parent.
#[test]
fn protocol_tree_invariants_under_staggered_joins() {
    let graph = generate::waxman(generate::WaxmanParams { n: 25, ..Default::default() }, 9);
    let members: Vec<NodeId> = (1..25).step_by(2).map(|i| NodeId(i as u32)).collect();
    let core = NodeId(0);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);
    let core_addr = net.router_addr(RouterId(0));
    let group = GroupId::numbered(2);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    // Joins staggered so later ones hit the growing tree mid-flight.
    for (i, m) in members.iter().enumerate() {
        cw.host(HostId(m.0)).join_at(
            SimTime::from_secs(1) + SimDuration::from_millis(137 * i as u64),
            group,
            vec![core_addr],
        );
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(15));

    // Reconstruct as a graph and check the invariants.
    let mut tree = Graph::with_nodes(25);
    let mut on_tree_routers = Vec::new();
    for i in 0..25u32 {
        let engine_on = cw.router(RouterId(i)).sharded().group_view(group).on_tree;
        if engine_on {
            on_tree_routers.push(NodeId(i));
        }
        if let Some(p) = cw.router(RouterId(i)).sharded().group_view(group).parent {
            let parent = cw.net.router_of(p).unwrap();
            tree.add_edge(NodeId(i), NodeId(parent.0), 1);
        }
    }
    assert!(tree.is_forest(), "parent pointers form no cycle");
    // Every member DR is on-tree, and connected to the core within the
    // parent-pointer graph.
    let csr = cbt_topology::CsrGraph::from_graph(&tree);
    let sp = cbt_topology::SpfTree::full(&csr, core.0, &mut cbt_topology::SpfScratch::new());
    for m in &members {
        assert!(
            cw.router(RouterId(m.0)).sharded().group_view(group).on_tree,
            "member DR {m} attached"
        );
        assert!(sp.dist(m.0).is_some(), "member DR {m} reaches the core through the tree");
    }
    // The core has no parent; everyone else on-tree has exactly one.
    assert_eq!(cw.router(RouterId(core.0)).sharded().group_view(group).parent, None);
}
