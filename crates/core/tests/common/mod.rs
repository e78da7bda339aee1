//! Support shared by the test binaries: the counting allocator
//! ([`alloc`]), and the smallest netscale fleet — a three-router p2p
//! line `0 — 1 — 2` (1 ms per hop) of real engines, the core at
//! router 0.

// Each test binary compiles its own copy and uses a subset of it.
#![allow(dead_code)]

pub mod alloc;

use cbt::{node_addr, CbtConfig, FleetRib, FleetRoutes, Input, P2pNode, ShardedRouter};
use cbt_netsim::{NetscaleWorld, SimDuration, SimTime};
use cbt_topology::{CsrGraph, RouterId, SpfScratch, SpfTree};
use cbt_wire::GroupId;
use std::sync::{Arc, RwLock};

/// The line's links: `(a, b, latency ms)`.
const EDGES: [(u32, u32, u32); 2] = [(0, 1, 1), (1, 2, 1)];

/// Interfaces per router: the ends have one, the middle two.
const DEGREE: [usize; 3] = [1, 2, 1];

/// The one group the line carries.
pub fn group() -> GroupId {
    GroupId::numbered(1)
}

/// The line's route table, rooted at the core.
pub fn rib() -> Arc<RwLock<FleetRib>> {
    let (csr, _) = CsrGraph::from_edges(3, &EDGES);
    let tree = SpfTree::full(&csr, 0, &mut SpfScratch::new());
    Arc::new(RwLock::new(FleetRib::repairable(&csr, &[0], vec![tree])))
}

/// Boots router `i` of the line in the fleet benchmark's engine
/// configuration (compact-idle, fast timers), one shard whatever
/// `CBT_SHARDS` says.
pub fn engine(rib: &Arc<RwLock<FleetRib>>, i: u32) -> ShardedRouter {
    let cfg = CbtConfig { compact_idle: true, shards: 1, ..CbtConfig::fast() };
    ShardedRouter::p2p(
        RouterId(i),
        node_addr(i),
        DEGREE[i as usize],
        cfg,
        || Box::new(FleetRoutes::new(Arc::clone(rib), i)),
        SimTime::ZERO,
    )
}

/// Builds the line over `rib`, every engine booted by [`engine`].
pub fn line(rib: &Arc<RwLock<FleetRib>>) -> NetscaleWorld<P2pNode> {
    let (csr, pairs) = CsrGraph::from_edges(3, &EDGES);
    let nodes = (0..3u32).map(|i| P2pNode::new(engine(rib, i))).collect();
    NetscaleWorld::new(nodes, &csr, &pairs, &EDGES, |w| SimDuration::from_millis(w as u64))
}

/// A member of [`group`] attaches behind router `r`.
pub fn join(world: &mut NetscaleWorld<P2pNode>, r: u32) {
    world.with_node(r, |nd, now, out| {
        nd.router.learn_cores(group(), &[node_addr(0)]);
        nd.step(now, Input::Join(group()), out);
    });
}
