//! Core failover: the §6.1 re-attachment machinery under a primary-core
//! crash, on a random wide-area topology.
//!
//! Builds a 40-router Waxman graph, joins ten members toward a
//! two-entry core list, kills the primary core router cold, and
//! narrates the recovery: echo timeouts firing, REJOINs steering to the
//! secondary core, and data flowing again.
//!
//! ```text
//! cargo run --example core_failover
//! ```

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimDuration, SimTime, WorldConfig};
use cbt_topology::{generate, AllPairs, HostId, NetworkSpec, NodeId, RouterId};
use cbt_wire::GroupId;

fn main() {
    // Seeded Waxman topology, reproducible run after run.
    let graph = generate::waxman(generate::WaxmanParams { n: 40, ..Default::default() }, 7);
    let ap = AllPairs::compute(&graph);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);

    // Members: ten routers spread over the graph (every 4th node).
    let members: Vec<NodeId> = (0..40).step_by(4).map(|i| NodeId(i as u32)).collect();
    let primary = ap.medoid(&members).expect("connected");
    let secondary = ap.center().filter(|c| *c != primary).unwrap_or(NodeId(1));
    let members: Vec<NodeId> =
        members.into_iter().filter(|m| *m != primary && *m != secondary).collect();
    let cores = vec![net.router_addr(RouterId(primary.0)), net.router_addr(RouterId(secondary.0))];
    let group = GroupId::numbered(1);

    println!("topology:  Waxman n=40 (seed 7), {} edges", graph.edge_count());
    println!("cores:     primary R{} | secondary R{}", primary.0, secondary.0);
    println!("members:   {} routers\n", members.len());

    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    for m in &members {
        cw.host(HostId(m.0)).join_at(SimTime::from_secs(1), group, cores.clone());
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(8));

    let on_tree = |cw: &mut CbtWorld| {
        members
            .iter()
            .filter(|m| cw.router(RouterId(m.0)).sharded().group_view(group).on_tree)
            .count()
    };
    println!("t=8s   all joined: {}/{} member DRs on-tree", on_tree(&mut cw), members.len());

    // Kill the primary core.
    println!("t=8s   *** primary core R{} crashes ***", primary.0);
    cw.fail_router(RouterId(primary.0));

    // Recovery is judged by the honest signal: end-to-end delivery.
    // (FIB entries through the dead core look intact until the echo
    // timeout — 9 s under fast timers — declares the parent dead.)
    let sender = HostId(members[0].0);
    let receiver = HostId(members[members.len() - 1].0);
    let receiver_start = cw.host(receiver).received().len();
    let kill_at = cw.world.now();
    let mut recovered_at = None;
    for round in 1..=12u64 {
        let t_probe = cw.world.now();
        cw.host(sender).send_at(t_probe, group, format!("probe-{round}").into_bytes(), 64);
        cw.touch_host(sender);
        cw.world.run_until(kill_at + SimDuration::from_secs(3 * round));
        let delivered = cw.host(receiver).received().len() > receiver_start;
        let failures: u64 = members
            .iter()
            .map(|m| cw.router(RouterId(m.0)).sharded().obs_snapshot().parent_failures)
            .sum();
        println!(
            "t={:>2}s after crash: probe {} — {} ({} parent-failure events so far, {}/{} DRs attached)",
            3 * round,
            round,
            if delivered { "DELIVERED" } else { "lost" },
            failures,
            on_tree(&mut cw),
            members.len(),
        );
        if delivered {
            recovered_at = Some(3 * round);
            break;
        }
    }
    let recovered_at = recovered_at.expect("secondary core absorbed the group");
    println!(
        "\nok: service restored {recovered_at}s after the crash \
         (echo timeout 9s + rejoin to the secondary core), with zero manual intervention."
    );
}
