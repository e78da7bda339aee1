//! # Netscale adapter — real CBT engines as [`cbt_netsim::NsNode`]s
//!
//! Glue between the full protocol engine and the flat netscale world:
//!
//! * a deterministic **router-id ⇄ address** bijection (no address
//!   tables at 100k routers);
//! * [`FleetRib`] — shared routes toward the core set: the
//!   [`SpfRoutes`] core with one tree per core over a copy of the
//!   [`CsrGraph`] the world delivers frames on, so "interface `k`
//!   toward the core" and "the world's port `k`" agree by construction;
//!   each engine reads it through its [`RouteHandle`], as in the simulator;
//! * [`P2pNode`] — wraps a [`ShardedRouter`] (so `CBT_SHARDS` steering
//!   works unchanged at netscale), framing control messages as
//!   `[source address | wire encoding]`, written straight into a
//!   buffer from the world's frame pool and counted in its group table.
//!
//! The adapter carries **no data plane**: netscale runs are control-
//! plane experiments, and any data or IGMP emission (impossible on a
//! bare p2p fleet anyway) is counted and dropped rather than silently
//! ignored.

use crate::engine::{ctl_kind, RouteHandle, RouteLookup};
use crate::events::{Input, RouterAction};
use crate::shard::ShardedRouter;
use cbt_netsim::{NsNode, NsOutbox, SimTime};
use cbt_routing::{Hop, SpfRoutes};
use cbt_topology::{CsrGraph, IfIndex, RouterId, SpfScratch, SpfTree};
use cbt_wire::{Addr, ControlMessage};
use std::cell::RefCell;

/// The identity address of fleet router `i`: `10.x.y.z` with `i`
/// little-ended into the host octets. Covers fleets up to 2^24 nodes.
pub fn node_addr(i: u32) -> Addr {
    debug_assert!(i < (1 << 24), "fleet address space is 10.0.0.0/8");
    Addr::from_octets(10, (i >> 16) as u8, (i >> 8) as u8, i as u8)
}

/// Inverse of [`node_addr`].
pub fn addr_node(a: Addr) -> u32 {
    let [_, x, y, z] = a.octets();
    ((x as u32) << 16) | ((y as u32) << 8) | z as u32
}

/// Routing state toward the experiment's core set, shared by every
/// engine in the fleet through a [`RouteHandle`]: the [`SpfRoutes`] core, one
/// tree per core over a clone of the fleet's [`CsrGraph`], and a version.
///
/// Lookups resolve **core addresses only**: `dst` names fleet node
/// `addr_node(dst)`, and a node without a tree is not a core, so the
/// route is unreachable. A slot's interface is its offset in the node's
/// slot range, the world's port number. Hops read the clone, so a mask
/// the caller sets (or probes and undoes) takes effect only once
/// [`FleetRib::apply_removals`] / [`FleetRib::apply_additions`] copy it
/// over and repair every tree. Repairs run between world event-loop
/// steps under the write lock, so every engine sees one route version
/// per step; [`FleetRib::version`] names it.
pub struct FleetRib {
    routes: SpfRoutes,
    /// Bumped once per applied liveness event.
    version: u64,
}

impl FleetRib {
    /// Builds the rib from one SPF tree per core. `core_nodes` are the
    /// fleet node-ids of the cores; trees must be rooted at them (same
    /// order) and computed over `graph` — the exact graph the netscale
    /// world was wired from. The trees are kept so liveness events can
    /// patch routes in place instead of rebuilding from scratch.
    pub fn repairable(graph: &CsrGraph, core_nodes: &[u32], trees: Vec<SpfTree>) -> Self {
        let roots: Vec<u32> = trees.iter().map(SpfTree::root).collect();
        assert_eq!(roots, core_nodes, "one SPF tree per core, rooted at it");
        FleetRib { routes: SpfRoutes::new(graph.clone(), trees), version: 0 }
    }

    /// The route version, bumped once per applied liveness event.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Takes over `graph`'s masks for removed edges / downed nodes,
    /// patches every core tree and bumps the version. Returns total
    /// nodes re-settled across trees.
    pub fn apply_removals(
        &mut self,
        graph: &CsrGraph,
        removed_pairs: &[(u32, u32)],
        downed: &[u32],
        scratch: &mut SpfScratch,
    ) -> u64 {
        self.routes.graph_mut().copy_masks_from(graph);
        self.version += 1;
        self.routes.repair_removals(removed_pairs, downed, scratch)
    }

    /// Counterpart of [`FleetRib::apply_removals`] for restored edges
    /// and rebooted nodes.
    pub fn apply_additions(
        &mut self,
        graph: &CsrGraph,
        added_pairs: &[(u32, u32)],
        restored: &[u32],
        scratch: &mut SpfScratch,
    ) -> u64 {
        self.routes.graph_mut().copy_masks_from(graph);
        self.version += 1;
        self.routes.repair_additions(added_pairs, restored, scratch)
    }

    /// Hard-asserts the rib's masks are `graph`'s and every repaired
    /// tree equals a from-scratch SPF over them — checked after each
    /// fault event in the soak harness.
    pub fn assert_matches_full_spf(&self, graph: &CsrGraph, scratch: &mut SpfScratch) {
        assert!(self.routes.graph().masks_eq(graph), "rib masks lag the graph's");
        self.routes.assert_matches_full_spf(scratch);
    }

    /// Next hop from `me` toward core `dst`, if routable. A mask set
    /// after the SPF ran (mid-flap window) can leave no live slot
    /// toward the predecessor: the node is unroutable until the rib is
    /// repaired, not a panic.
    fn hop(&self, me: u32, dst: Addr) -> Option<Hop> {
        let core = addr_node(dst);
        let i = self.routes.find(core).filter(|_| node_addr(core) == dst)?;
        let base = self.routes.graph().slot_base(me);
        let (next, dist, iface) = self.routes.hop(i, me, None, |s| IfIndex(s - base))?;
        Some(Hop { iface, router: RouterId(next), addr: node_addr(next), dist })
    }
}

impl RouteLookup for RouteHandle<FleetRib> {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        self.table.read().expect("rib lock poisoned").hop(self.me, dst)
    }
}

thread_local! {
    /// The action buffer every [`P2pNode`] on this thread lends its
    /// engine for the length of one step. One buffer for the
    /// whole fleet: kept per node it would be resident in ten thousand
    /// copies, built per call it is an allocation per keepalive.
    static ACTIONS: RefCell<Vec<RouterAction>> = const { RefCell::new(Vec::new()) };
}

/// A real CBT router living in a [`cbt_netsim::NetscaleWorld`] slot.
///
/// Frames are `[4-byte source address, big-endian | control wire
/// encoding]`. Undecodable frames are counted and dropped — the fleet
/// carries no faults by default, so a nonzero count is a bug.
pub struct P2pNode {
    /// The sharded engine front (1 shard unless `CBT_SHARDS` says
    /// otherwise — determinism runs steer the same traffic across 2).
    pub router: ShardedRouter,
    /// Emissions a bare p2p fleet cannot carry (IGMP, data-plane).
    pub dropped_non_control: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Control messages lost because encoding failed. A silent
    /// discard here once cost every downstream retransmission its
    /// trigger — the clean-wire gates assert this stays zero.
    pub encode_errors: u64,
}

impl P2pNode {
    /// Wraps a booted sharded engine.
    pub fn new(router: ShardedRouter) -> Self {
        P2pNode { router, dropped_non_control: 0, decode_errors: 0, encode_errors: 0 }
    }

    /// Replaces the engine after a §6.2 crash/restart: the new router
    /// comes up with empty protocol state while the adapter's loss
    /// counters survive (they diagnose the slot, not the incarnation).
    pub fn restart(&mut self, router: ShardedRouter) {
        self.router = router;
    }

    /// Steps the engine with one input and ships what it emitted —
    /// how experiment drivers inject membership
    /// ([`Input::Join`]/[`Input::Leave`]) through
    /// `NetscaleWorld::with_node`.
    pub fn step(&mut self, now: SimTime, input: Input, out: &mut NsOutbox) {
        ACTIONS.with_borrow_mut(|act| {
            self.router.step(now, input, act);
            self.ship(act, out);
        });
    }

    /// Ships actions a caller already holds as netscale frames.
    pub fn deliver(&mut self, mut actions: Vec<RouterAction>, out: &mut NsOutbox) {
        self.ship(&mut actions, out);
    }

    /// Drains `actions` into netscale frames, each encoded in place
    /// behind its source prefix in a pooled buffer.
    fn ship(&mut self, actions: &mut Vec<RouterAction>, out: &mut NsOutbox) {
        let src = self.router.id_addr().octets();
        for a in actions.drain(..) {
            match a {
                RouterAction::SendControl { iface, dst: _, msg } => {
                    let frame = out.frame(iface.0);
                    frame.extend_from_slice(&src);
                    if msg.encode_append(frame).is_err() {
                        out.unsend();
                        self.encode_errors += 1;
                    } else {
                        out.groups.sent(msg.group().addr().0, ctl_kind(msg.control_type()));
                    }
                }
                _ => self.dropped_non_control += 1,
            }
        }
    }
}

impl NsNode for P2pNode {
    fn on_frame(&mut self, now: SimTime, iface: u32, frame: &[u8], out: &mut NsOutbox) {
        if frame.len() < 4 {
            self.decode_errors += 1;
            return;
        }
        let src = Addr::from_octets(frame[0], frame[1], frame[2], frame[3]);
        let Ok(msg) = ControlMessage::decode(&frame[4..]) else {
            self.decode_errors += 1;
            return;
        };
        // Counted where the engine counts it: past its own-address check.
        if !self.router.is_my_addr(src) {
            out.groups.received(msg.group().addr().0, ctl_kind(msg.control_type()));
        }
        // The input is built inside the closure, as in `on_timer`, so
        // the router's match on its kind folds away; handed through
        // `step` it is captured by value, and the echo path ran about
        // 12 % slower.
        ACTIONS.with_borrow_mut(|act| {
            self.router.step(now, Input::Control { iface: IfIndex(iface), src, msg }, act);
            self.ship(act, out);
        });
    }

    fn on_timer(&mut self, now: SimTime, out: &mut NsOutbox) {
        ACTIONS.with_borrow_mut(|act| {
            self.router.step(now, Input::Timer, act);
            self.ship(act, out);
        });
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.router.next_wakeup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_netsim::{NetscaleWorld, SimDuration};
    use cbt_obs::CtlKind;
    use cbt_topology::SpfScratch;
    use cbt_wire::{GroupId, JoinSubcode};
    use std::sync::{Arc, RwLock};

    /// Control messages by kind over `world`: its group table's column
    /// sums, and the engines' rows summed.
    fn ctl(world: &NetscaleWorld<P2pNode>) -> [cbt_obs::ProtocolCounters; 2] {
        let mut sums = [cbt_obs::ProtocolCounters::default(); 2];
        world.groups().iter().for_each(|(_, row)| sums[0].merge(&row));
        (0..3).for_each(|i| sums[1].merge(&world.node(i).router.obs_snapshot().ctl));
        sums
    }

    /// The world's table counts a control frame where the adapter
    /// encodes it, and where it decodes it past the engine's
    /// own-address check, so its rows sum to what the engines count by
    /// kind. A message that fails to encode is counted by the engine
    /// only, and a frame claiming the receiver's own address by neither.
    #[test]
    fn the_world_table_counts_what_the_engines_count() {
        // 0 — 1 — 2 line, core at 0; a member joins behind 2.
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let (g, pairs) = CsrGraph::from_edges(3, &edges);
        let tree = SpfTree::full(&g, 0, &mut SpfScratch::new());
        let rib = Arc::new(RwLock::new(FleetRib::repairable(&g, &[0], vec![tree])));
        let cfg = crate::CbtConfig { shards: 1, ..crate::CbtConfig::fast() };
        let nodes = (0..3u32)
            .map(|i| {
                let routes = || Box::new(RouteHandle::new(Arc::clone(&rib), i)) as _;
                let degree = if i == 1 { 2 } else { 1 };
                let r = ShardedRouter::p2p(
                    RouterId(i),
                    node_addr(i),
                    degree,
                    cfg.clone(),
                    routes,
                    SimTime::ZERO,
                );
                P2pNode::new(r)
            })
            .collect();
        let mut world =
            NetscaleWorld::new(nodes, &g, &pairs, &edges, |w| SimDuration::from_millis(w.into()));
        let group = GroupId::numbered(1);
        world.with_node(2, |nd, now, out| {
            nd.router.learn_cores(group, &[node_addr(0)]);
            nd.step(now, Input::Join(group), out);
        });
        world.run_until(SimTime::from_secs(30));
        let (_, row) = world.groups().iter().next().expect("the group's row");
        assert_eq!(row.received(CtlKind::JoinAck), 2, "one ack per hop");
        assert!(row.received(CtlKind::EchoReply) > 0, "keepalives counted");
        let [table, engines] = ctl(&world);
        assert_eq!(table, engines);

        // Too many cores to encode: node 1's engine would have counted
        // it, the wire never carries it.
        let bad = GroupId::numbered(2);
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: bad,
            origin: node_addr(1),
            target_core: node_addr(0),
            cores: vec![node_addr(0); cbt_wire::header::MAX_CORES + 1],
        };
        world.with_node(1, |nd, _, out| {
            let dst = node_addr(0);
            nd.ship(&mut vec![RouterAction::SendControl { iface: IfIndex(0), dst, msg }], out);
        });
        assert_eq!(world.node(1).encode_errors, 1);
        assert_eq!(world.groups().iter().len(), 1, "a frame that failed to encode");

        // A frame from node 0 whose prefix claims node 1's address: the
        // engine drops it unread, and the world does not count it.
        let echo = ControlMessage::EchoRequest { group, origin: node_addr(1), group_mask: None };
        let (before, events) = (ctl(&world), world.trace.events);
        world.with_node(0, |_, _, out| {
            let frame = out.frame(0);
            frame.extend_from_slice(&node_addr(1).octets());
            echo.encode_append(frame).expect("encodes");
        });
        world.run_until(world.now() + SimDuration::from_millis(2));
        assert_eq!(world.trace.events, events + 1, "the spoof alone arrived");
        assert_eq!(world.node(1).decode_errors, 0, "and decoded");
        assert_eq!(ctl(&world), before, "neither side counts it");
    }

    #[test]
    fn addressing_round_trips() {
        for i in [0u32, 1, 255, 256, 65_535, 99_967, (1 << 24) - 1] {
            assert_eq!(addr_node(node_addr(i)), i);
        }
        assert_eq!(node_addr(0), Addr::from_octets(10, 0, 0, 0));
        assert_eq!(node_addr(0x01_02_03), Addr::from_octets(10, 1, 2, 3));
    }

    #[test]
    fn fleet_rib_routes_toward_the_core_in_slot_order() {
        // 0 — 1 — 2 line, core at 0.
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let (g, _) = CsrGraph::from_edges(3, &edges);
        let mut scratch = SpfScratch::new();
        let tree = SpfTree::full(&g, 0, &mut scratch);
        let rib = FleetRib::repairable(&g, &[0], vec![tree]);

        let h = rib.hop(2, node_addr(0)).expect("reachable");
        assert_eq!(h.router, RouterId(1));
        assert_eq!(h.addr, node_addr(1));
        assert_eq!(h.iface, IfIndex(0), "node 2's only slot points at 1");
        assert_eq!(h.dist, 2);

        let h = rib.hop(1, node_addr(0)).expect("reachable");
        assert_eq!(h.router, RouterId(0));
        assert_eq!(h.iface, IfIndex(0), "slot toward 0 precedes slot toward 2");

        assert!(rib.hop(0, node_addr(0)).is_none(), "the core has no upstream");
        assert!(rib.hop(1, node_addr(2)).is_none(), "non-core lookups are refused");
        let outside = Addr::from_octets(192, 0, 0, 0); // addr_node maps it to the core
        assert!(rib.hop(2, outside).is_none(), "only the core's own address routes to it");
    }

    #[test]
    fn rib_build_survives_a_slot_masked_after_the_spf_ran() {
        // 0 — 1 — 2 line, core at 0. The 1↔2 edge is masked *between*
        // the SPF build and the rib build — the mid-flap window. This
        // used to panic ("SPF predecessor is a live neighbour"); node 2
        // must instead come out unreachable until the rib is repaired.
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let (mut g, pairs) = CsrGraph::from_edges(3, &edges);
        let mut scratch = SpfScratch::new();
        let tree = SpfTree::full(&g, 0, &mut scratch);
        g.set_slot_live(pairs[1][0], false);
        g.set_slot_live(pairs[1][1], false);
        let rib = FleetRib::repairable(&g, &[0], vec![tree]);
        assert!(rib.hop(2, node_addr(0)).is_none(), "stranded, not panicking");
        assert!(rib.hop(1, node_addr(0)).is_some(), "unaffected nodes still route");
    }

    #[test]
    fn repairable_rib_reroutes_around_a_flap_and_back() {
        // A square: 0 — 1 — 3 and 0 — 2 — 3, core at 0. Node 3 prefers
        // the cheaper path via 1 until that edge flaps.
        let edges = vec![(0, 1, 1), (0, 2, 5), (1, 3, 1), (2, 3, 5)];
        let (mut g, pairs) = CsrGraph::from_edges(4, &edges);
        let mut scratch = SpfScratch::new();
        let tree = SpfTree::full(&g, 0, &mut scratch);
        let mut rib = FleetRib::repairable(&g, &[0], vec![tree]);
        assert_eq!(rib.version(), 0);
        assert_eq!(rib.hop(3, node_addr(0)).unwrap().router, RouterId(1));

        // Flap 1↔3: mask the graph, repair, verify against scratch SPF.
        g.set_slot_live(pairs[2][0], false);
        g.set_slot_live(pairs[2][1], false);
        rib.apply_removals(&g, &[(1, 3)], &[], &mut scratch);
        assert_eq!(rib.version(), 1);
        rib.assert_matches_full_spf(&g, &mut scratch);
        let h = rib.hop(3, node_addr(0)).expect("rerouted");
        assert_eq!(h.router, RouterId(2), "detour via the expensive side");
        assert_eq!(h.dist, 10);

        // Restore and converge back to the cheap path.
        g.set_slot_live(pairs[2][0], true);
        g.set_slot_live(pairs[2][1], true);
        rib.apply_additions(&g, &[(1, 3)], &[], &mut scratch);
        assert_eq!(rib.version(), 2);
        rib.assert_matches_full_spf(&g, &mut scratch);
        assert_eq!(rib.hop(3, node_addr(0)).unwrap().router, RouterId(1));
    }

    #[test]
    fn parallel_edges_route_over_the_lowest_live_slot() {
        // Core 0 and node 1 joined twice at equal cost: the tree keeps
        // predecessor 0 throughout, so only the rib's own masks decide
        // which of node 1's two slots the hop leaves by.
        let (mut g, pairs) = CsrGraph::from_edges(2, &[(0, 1, 1), (0, 1, 1)]);
        let mut scratch = SpfScratch::new();
        let tree = SpfTree::full(&g, 0, &mut scratch);
        let mut rib = FleetRib::repairable(&g, &[0], vec![tree]);
        let iface = |rib: &FleetRib| rib.hop(1, node_addr(0)).expect("reachable").iface;
        assert_eq!(iface(&rib), IfIndex(0));

        g.set_slot_live(pairs[0][0], false);
        g.set_slot_live(pairs[0][1], false);
        assert_eq!(iface(&rib), IfIndex(0), "an unapplied mask moves nothing");
        rib.apply_removals(&g, &[(0, 1)], &[], &mut scratch);
        rib.assert_matches_full_spf(&g, &mut scratch);
        let h = rib.hop(1, node_addr(0)).expect("the parallel edge survives");
        assert_eq!((h.iface, h.router, h.dist), (IfIndex(1), RouterId(0), 1));

        g.set_slot_live(pairs[0][0], true);
        g.set_slot_live(pairs[0][1], true);
        rib.apply_additions(&g, &[(0, 1)], &[], &mut scratch);
        rib.assert_matches_full_spf(&g, &mut scratch);
        assert_eq!(iface(&rib), IfIndex(0), "back on the lower slot");
    }

    #[test]
    fn repairable_rib_handles_a_crashed_core_side_node() {
        // 0 — 1 — 2 line, core at 0; crash node 1 and the tail is
        // unreachable, restore it and routes come back.
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let (mut g, _) = CsrGraph::from_edges(3, &edges);
        let mut scratch = SpfScratch::new();
        let tree = SpfTree::full(&g, 0, &mut scratch);
        let mut rib = FleetRib::repairable(&g, &[0], vec![tree]);

        g.set_node_up(1, false);
        rib.apply_removals(&g, &[], &[1], &mut scratch);
        rib.assert_matches_full_spf(&g, &mut scratch);
        assert!(rib.hop(2, node_addr(0)).is_none(), "severed by the crash");
        assert!(rib.hop(1, node_addr(0)).is_none(), "the crashed node itself");

        g.set_node_up(1, true);
        rib.apply_additions(&g, &[], &[1], &mut scratch);
        rib.assert_matches_full_spf(&g, &mut scratch);
        assert_eq!(rib.hop(2, node_addr(0)).unwrap().router, RouterId(1));
    }
}
