//! The smallest netscale fleet: a three-router p2p line `0 — 1 — 2`
//! (1 ms per hop) of real engines, the core at router 0.

use cbt::{node_addr, CbtConfig, FleetRib, FleetRoutes, P2pNode, ShardedRouter};
use cbt_netsim::{NetscaleWorld, SimDuration, SimTime};
use cbt_topology::{CsrGraph, RouterId, SpfScratch, SpfTree};
use cbt_wire::GroupId;
use std::sync::{Arc, RwLock};

/// The one group the line carries.
pub fn group() -> GroupId {
    GroupId::numbered(1)
}

/// Builds the line in the fleet benchmark's engine configuration
/// (compact-idle, fast timers), one shard whatever `CBT_SHARDS` says.
pub fn line() -> NetscaleWorld<P2pNode> {
    let edges = vec![(0, 1, 1), (1, 2, 1)];
    let (csr, pairs) = CsrGraph::from_edges(3, &edges);
    let tree = SpfTree::full(&csr, 0, &mut SpfScratch::new());
    let rib = Arc::new(RwLock::new(FleetRib::new(&csr, &[0], &[tree])));
    let cfg = CbtConfig { compact_idle: true, shards: 1, ..CbtConfig::fast() };
    let nodes = (0..3u32)
        .map(|i| {
            let degree = (csr.slot_base(i + 1) - csr.slot_base(i)) as usize;
            let rib = Arc::clone(&rib);
            P2pNode::new(ShardedRouter::p2p(
                RouterId(i),
                node_addr(i),
                degree,
                cfg.clone(),
                move || Box::new(FleetRoutes::new(Arc::clone(&rib), i)),
                SimTime::ZERO,
            ))
        })
        .collect();
    NetscaleWorld::new(nodes, &csr, &pairs, &edges, |w| SimDuration::from_millis(w as u64))
}

/// A member of [`group`] attaches behind router `r`.
pub fn join(world: &mut NetscaleWorld<P2pNode>, r: u32) {
    world.with_node(r, |nd, now, out| {
        nd.router.learn_cores(group(), &[node_addr(0)]);
        let act = nd.router.local_join(now, group());
        nd.deliver(act, out);
    });
}
