//! Simultaneous joins: the §2.5 pending-join cache exists exactly for
//! joins that race each other mid-flight. These scenarios make joins
//! collide as hard as the topology allows and assert the resulting
//! trees are still correct.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{PacketKind, SimTime, WorldConfig};
use cbt_topology::{generate, Graph, HostId, NetworkBuilder, NetworkSpec, NodeId, RouterId};
use cbt_wire::{ControlType, GroupId};

/// Diamond: two equal-cost paths between the joiners' DRs and the core.
///
/// ```text
///        Rtop
///       /    \
///  Rwest      Reast
///       \    /
///        Rbot(core)
/// ```
#[test]
fn diamond_simultaneous_joins_converge() {
    let mut b = NetworkBuilder::new();
    let r_top = b.router("Rtop");
    let r_west = b.router("Rwest");
    let r_east = b.router("Reast");
    let r_bot = b.router("Rbot");
    b.link(r_top, r_west, 1);
    b.link(r_top, r_east, 1);
    b.link(r_west, r_bot, 1);
    b.link(r_east, r_bot, 1);
    let s_top = b.lan("Stop");
    b.attach(s_top, r_top);
    let h_top = b.host("HT", s_top);
    let s_west = b.lan("Swest");
    b.attach(s_west, r_west);
    let h_west = b.host("HW", s_west);
    let s_east = b.lan("Seast");
    b.attach(s_east, r_east);
    let h_east = b.host("HE", s_east);
    let net = b.build();
    let core = net.router_addr(r_bot);
    let group = GroupId::numbered(1);

    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    // All three joins fire at the exact same instant.
    for h in [h_top, h_west, h_east] {
        cw.host(h).join_at(SimTime::from_secs(1), group, vec![core]);
    }
    cw.host(h_top).send_at(SimTime::from_secs(3), group, b"race".to_vec(), 16);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(6));

    for r in [r_top, r_west, r_east] {
        assert!(cw.router(r).sharded().is_on_tree(group));
        assert!(!cw.router(r).sharded().has_pending_join(group));
    }
    // Parent pointers form a tree rooted at the core (acyclic and all
    // connected to Rbot).
    let mut tree = Graph::with_nodes(4);
    for (i, r) in [r_top, r_west, r_east, r_bot].iter().enumerate() {
        if let Some(p) = cw.router(*r).sharded().parent_of(group) {
            let parent = cw.net.router_of(p).unwrap();
            tree.add_edge(NodeId(i as u32), NodeId(parent.0), 1);
        }
    }
    assert!(tree.is_forest(), "no cycle out of the racing joins");
    // Delivery: both other members got exactly one copy.
    assert_eq!(cw.host(h_west).received().len(), 1);
    assert_eq!(cw.host(h_east).received().len(), 1);
    assert!(cw.host(h_top).received().is_empty());
}

/// Same-instant joins along a shared path: members stacked on one line
/// all join at t=1. The joins meet each other as pending state; the
/// §2.5 cache must absorb them (joins_cached > 0) and every branch
/// completes.
#[test]
fn chain_of_simultaneous_joins_uses_the_pending_cache() {
    // line: core — R1 — R2 — R3 — R4, members behind R1..R4.
    let graph = generate::line(5);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);
    let core = net.router_addr(RouterId(0));
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    for i in 1..5u32 {
        cw.host(HostId(i)).join_at(SimTime::from_secs(1), group, vec![core]);
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(6));

    let mut cached_total = 0;
    for i in 1..5u32 {
        let engine = cw.router(RouterId(i)).sharded();
        assert!(engine.is_on_tree(group), "R{i} attached");
        cached_total += engine.obs_snapshot().joins_cached;
    }
    assert!(
        cached_total > 0,
        "at least one join raced into a pending router and was cached (§2.5)"
    );
    // Each router sent at most one join upstream despite the pile-up:
    // total joins on the wire = 4 originations (one per hop that needed
    // establishing), not 4 members × path length.
    let joins = cw.world.trace().count(PacketKind::Control(ControlType::JoinRequest));
    assert_eq!(joins, 4, "one establishing join per new tree hop");
}

/// Randomised stress: on Waxman graphs, ALL members of a large group
/// join at the same instant. Converged trees must match the staggered
/// result (join order must not matter).
#[test]
fn simultaneous_equals_staggered_tree() {
    for seed in 0..3u64 {
        let graph = generate::waxman(generate::WaxmanParams { n: 30, ..Default::default() }, seed);
        let members: Vec<NodeId> = (1..30).step_by(2).map(NodeId).collect();
        let group = GroupId::numbered(1);

        let run = |stagger_ms: u64| {
            let net = NetworkSpec::from_graph_with_stub_lans(&graph);
            let core = net.router_addr(RouterId(0));
            let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
            for (i, m) in members.iter().enumerate() {
                cw.host(HostId(m.0)).join_at(
                    SimTime::from_secs(1)
                        + cbt_netsim::SimDuration::from_millis(stagger_ms * i as u64),
                    group,
                    vec![core],
                );
            }
            cw.world.start();
            cw.world.run_until(SimTime::from_secs(20));
            // Collect (router, parent router) edges.
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for i in 0..30u32 {
                if let Some(p) = cw.router(RouterId(i)).sharded().parent_of(group) {
                    edges.push((i, cw.net.router_of(p).unwrap().0));
                }
            }
            edges.sort();
            edges
        };

        assert_eq!(run(0), run(300), "seed {seed}: join timing must not change the converged tree");
    }
}
