//! Per-router next-hop tables (the Routing Information Base): the
//! [`SpfRoutes`] core's address map for a `NetworkSpec`.
//!
//! The router graph has one undirected edge per point-to-point link and
//! per pair of routers sharing a LAN, so a link and a LAN between the
//! same two routers are two parallel edges, masked independently. Trees
//! are built on demand, one per destination router — CBT only asks for
//! routes toward cores and members, a tiny fraction of all n² pairs —
//! and a new [`FailureSet`] is applied incrementally. Each CSR slot
//! records its sender's interface and the peer's address on that link
//! or LAN, so the core's hop rule (the lowest live interface toward the
//! SPF predecessor) resolves to a [`Hop`] without subnet matching.
//! `tests/rib_differential.rs` in the `cbt` crate holds this table and
//! the netscale `FleetRib` equal on one topology.

use crate::failure::FailureSet;
use crate::spf_routes::SpfRoutes;
use cbt_topology::csr::{CsrGraph, SpfScratch};
use cbt_topology::network::Owner;
use cbt_topology::{Attachment, IfIndex, LanId, LinkId, NetworkSpec, RouterId};
use cbt_wire::Addr;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// One resolved forwarding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Interface to send out of.
    pub iface: IfIndex,
    /// The next-hop router.
    pub router: RouterId,
    /// The next-hop router's address on the shared medium — this is the
    /// unicast destination for one hop of a hop-by-hop join.
    pub addr: Addr,
    /// Remaining distance to the destination, next hop inclusive.
    pub dist: u64,
}

/// What an edge of the router graph crosses.
#[derive(Debug, Clone, Copy)]
enum Medium {
    Link(LinkId),
    Lan(LanId),
}

impl Medium {
    fn down(self, failures: &FailureSet) -> bool {
        match self {
            Medium::Link(l) => failures.link_down(l),
            Medium::Lan(l) => failures.lan_down(l),
        }
    }
}

/// One undirected edge of the router graph.
#[derive(Debug)]
struct Edge {
    ends: (u32, u32),
    /// The directed slot pair `[a→b, b→a]`.
    slots: [u32; 2],
    medium: Medium,
}

/// A converged routing table for every router in a network.
///
/// `Rib::compute` builds the failure-masked CSR router graph; SPF
/// trees materialise lazily per destination in the route core.
/// Per-router overrides can be layered on to model the transiently
/// inconsistent tables of the §6.3 loop scenario.
#[derive(Debug)]
pub struct Rib {
    /// Per directed slot: the sender's interface and the peer's address
    /// on that link or LAN.
    slot_hops: Vec<(IfIndex, Addr)>,
    /// Every link, then every LAN's router pairs.
    edges: Vec<Edge>,
    /// The failure set currently masked into the core's graph.
    applied: FailureSet,
    /// Manual next-hop overrides: (from, dst_router) → forced next router.
    overrides: HashMap<(RouterId, RouterId), RouterId>,
    /// The route core and the scratch its lazy tree builds use
    /// (interior mutability: route lookups are `&self` and shared
    /// across engine shards).
    routes: Mutex<(SpfRoutes, SpfScratch)>,
}

impl Rib {
    /// Builds the masked router graph for `net` with `failures`
    /// applied. Trees are computed on first use per destination.
    pub fn compute(net: &NetworkSpec, failures: &FailureSet) -> Self {
        // The interface and address router `r` has on `medium`.
        let on = |r: RouterId, medium: Attachment| {
            let ifaces = &net.routers[r.0 as usize].ifaces;
            let (i, s) = ifaces
                .iter()
                .enumerate()
                .find(|(_, s)| s.attachment == medium)
                .expect("an edge is attached at both ends");
            (IfIndex(i as u32), s.addr)
        };
        // Each edge, and the (interface, address) of both ends on it.
        let mut edges = Vec::new();
        let mut ends = Vec::new();
        for (j, l) in net.links.iter().enumerate() {
            let link = LinkId(j as u32);
            edges.push(((l.a.0, l.b.0, l.cost), Medium::Link(link)));
            ends.push([
                on(l.a, Attachment::Link { link, peer: l.b }),
                on(l.b, Attachment::Link { link, peer: l.a }),
            ]);
        }
        for (k, lan) in net.lans.iter().enumerate() {
            let id = LanId(k as u32);
            for (i, &a) in lan.routers.iter().enumerate() {
                for &b in &lan.routers[i + 1..] {
                    edges.push(((a.0, b.0, 1), Medium::Lan(id)));
                    ends.push([on(a, Attachment::Lan(id)), on(b, Attachment::Lan(id))]);
                }
            }
        }
        let weighted: Vec<(u32, u32, u32)> = edges.iter().map(|&(e, _)| e).collect();
        let (graph, slot_pairs) = CsrGraph::from_edges(net.routers.len(), &weighted);
        let mut slot_hops = vec![(IfIndex(0), Addr(0)); graph.slot_count()];
        for (&[ab, ba], &[a, b]) in slot_pairs.iter().zip(&ends) {
            // a→b leaves by a's interface toward b's address, and back.
            slot_hops[ab as usize] = (a.0, b.1);
            slot_hops[ba as usize] = (b.0, a.1);
        }
        let edges = edges
            .into_iter()
            .zip(slot_pairs)
            .map(|(((a, b, _), medium), slots)| Edge { ends: (a, b), slots, medium })
            .collect();
        let mut rib = Rib {
            routes: Mutex::new((SpfRoutes::new(graph, Vec::new()), SpfScratch::new())),
            slot_hops,
            edges,
            applied: FailureSet::none(),
            overrides: HashMap::new(),
        };
        rib.apply_failures(failures);
        rib
    }

    /// Convenience: converged tables with nothing failed.
    pub fn converged(net: &NetworkSpec) -> Self {
        Self::compute(net, &FailureSet::none())
    }

    /// Applies a new failure state **incrementally**: the delta
    /// against the currently-applied set is masked in place and every
    /// kept tree repaired, removals first, then restorations (see
    /// [`SpfRoutes`]). Overrides that reference failed elements are
    /// cleared.
    pub fn apply_failures(&mut self, target: &FailureSet) {
        let (spf, scratch) = self.routes.get_mut().expect("rib routes poisoned");
        // Removals are masked now; additions are only collected and
        // unmasked after the removal repairs.
        let mut removed_pairs: Vec<(u32, u32)> = Vec::new();
        let mut downed: Vec<u32> = Vec::new();
        let mut added_pairs: Vec<(u32, u32)> = Vec::new();
        let mut added_slots: Vec<u32> = Vec::new();
        let mut restored: Vec<u32> = Vec::new();
        for e in &self.edges {
            let (was, now) = (e.medium.down(&self.applied), e.medium.down(target));
            if was == now {
                continue;
            }
            if now {
                for s in e.slots {
                    spf.graph_mut().set_slot_live(s, false);
                }
                removed_pairs.push(e.ends);
            } else {
                added_slots.extend(e.slots);
                added_pairs.push(e.ends);
            }
        }
        for r in 0..spf.graph().node_count() as u32 {
            let id = RouterId(r);
            let (was, now) = (self.applied.router_down(id), target.router_down(id));
            if was == now {
                continue;
            }
            if now {
                spf.graph_mut().set_node_up(r, false);
                downed.push(r);
            } else {
                restored.push(r);
            }
        }
        spf.repair_removals(&removed_pairs, &downed, scratch);
        let graph = spf.graph_mut();
        for &s in &added_slots {
            graph.set_slot_live(s, true);
        }
        for &r in &restored {
            graph.set_node_up(r, true);
        }
        spf.repair_additions(&added_pairs, &restored, scratch);
        self.applied = target.clone();
        // Drop overrides that reference failed elements: either
        // endpoint router down, or no usable adjacency from → via
        // remains (the overridden link/LAN failed).
        let graph = spf.graph();
        self.overrides.retain(|&(from, dst), &mut via| {
            graph.is_node_up(from.0)
                && graph.is_node_up(dst.0)
                && graph.is_node_up(via.0)
                && graph.live_neighbors(from.0).any(|(v, _)| v == via.0)
        });
    }

    /// The route core and its scratch, locked.
    fn routes(&self) -> MutexGuard<'_, (SpfRoutes, SpfScratch)> {
        self.routes.lock().expect("rib routes poisoned")
    }

    /// Forces `from`'s next hop toward `dst` to be `via`, regardless of
    /// SPF. `via` must be a live physical neighbour for the result to be
    /// resolvable. This models stale/inconsistent tables (§6.3).
    pub fn set_override(&mut self, from: RouterId, dst: RouterId, via: RouterId) {
        self.overrides.insert((from, dst), via);
    }

    /// Clears one override.
    pub fn clear_override(&mut self, from: RouterId, dst: RouterId) {
        self.overrides.remove(&(from, dst));
    }

    /// The next router on `from`'s path toward router `dst`.
    ///
    /// Returns `None` when `dst` is unreachable or `from == dst`.
    pub fn next_router(&self, from: RouterId, dst: RouterId) -> Option<RouterId> {
        if from == dst {
            return None;
        }
        if let Some(&via) = self.overrides.get(&(from, dst)) {
            return Some(via);
        }
        let (spf, scratch) = &mut *self.routes();
        let i = spf.find_or_build(dst.0, scratch)?;
        spf.tree(i).toward_root(from.0).map(RouterId)
    }

    /// Distance (in routing metric) from `from` to router `dst`.
    pub fn dist(&self, from: RouterId, dst: RouterId) -> Option<u64> {
        let (spf, scratch) = &mut *self.routes();
        let i = spf.find_or_build(dst.0, scratch)?;
        spf.tree(i).dist(from.0)
    }

    /// Resolves `from`'s route toward `dst_addr` to a concrete [`Hop`]
    /// by the core's hop rule: which interface, which next-hop address.
    ///
    /// `dst_addr` may be any address owned by a router (identity or
    /// interface) or by a host (the route then leads to the host's LAN).
    pub fn route(&self, net: &NetworkSpec, from: RouterId, dst_addr: Addr) -> Option<Hop> {
        let dst = match net.owner_of(dst_addr)? {
            Owner::Router(r) => r,
            // Route to the first attached (lowest-addressed) live
            // router of the host's LAN.
            Owner::Host(h) => {
                let lan = net.hosts[h.0 as usize].lan;
                let routes = self.routes();
                let up = |r: &&RouterId| routes.0.graph().is_node_up(r.0);
                *net.lans[lan.0 as usize].routers.iter().find(up)?
            }
        };
        if dst == from {
            return None;
        }
        let via = self.overrides.get(&(from, dst)).map(|v| v.0);
        let (spf, scratch) = &mut *self.routes();
        let i = spf.find_or_build(dst.0, scratch)?;
        let (next, dist, (iface, addr)) =
            spf.hop(i, from.0, via, |s| self.slot_hops[s as usize])?;
        Some(Hop { iface, router: RouterId(next), addr, dist })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::{figure1, NetworkBuilder};

    #[test]
    fn figure1_join_paths() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let r = |n: usize| f.router(n);
        // §2.5: R1 → R4 goes via R3.
        assert_eq!(rib.next_router(r(1), r(4)), Some(r(3)));
        assert_eq!(rib.next_router(r(3), r(4)), Some(r(4)));
        // §2.6: R6 → R4 goes via R2 (same-subnet next hop).
        assert_eq!(rib.next_router(r(6), r(4)), Some(r(2)));
        assert_eq!(rib.next_router(r(2), r(4)), Some(r(3)));
    }

    #[test]
    fn route_resolves_iface_and_addr() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let core_addr = f.net.router_addr(f.router(4));
        let hop = rib.route(&f.net, f.router(1), core_addr).unwrap();
        assert_eq!(hop.router, f.router(3));
        // The hop address is R3's address on the R1–R3 /30.
        let r3 = &f.net.routers[f.router(3).0 as usize];
        assert!(r3.ifaces.iter().any(|i| i.addr == hop.addr));
        assert_eq!(hop.dist, 2);
    }

    #[test]
    fn route_over_shared_lan_targets_peer_lan_address() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let hop = rib.route(&f.net, f.router(6), f.net.router_addr(f.router(4))).unwrap();
        assert_eq!(hop.router, f.router(2));
        let s4 = f.subnet(4);
        let (_, r2_on_s4) = f.net.routers[f.router(2).0 as usize].iface_on_lan(s4).unwrap();
        assert_eq!(hop.addr, r2_on_s4.addr, "next hop address is on the shared LAN");
    }

    #[test]
    fn self_route_is_none() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        assert_eq!(rib.next_router(f.router(4), f.router(4)), None);
        assert!(rib.route(&f.net, f.router(4), f.net.router_addr(f.router(4))).is_none());
    }

    #[test]
    fn link_failure_reroutes_or_disconnects() {
        // R0 —l0— R1 —l1— R2, plus spare path R0 —l2— R3 —l3— R2.
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        let l0 = b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        b.link(r0, r3, 1);
        b.link(r3, r2, 1);
        let net = b.build();

        let rib = Rib::converged(&net);
        assert_eq!(rib.next_router(r0, r2), Some(r1), "prefer via R1 (tie-break id)");

        let mut failures = FailureSet::none();
        failures.fail_link(l0);
        let rib = Rib::compute(&net, &failures);
        assert_eq!(rib.next_router(r0, r2), Some(r3), "reroute after failure");
        assert_eq!(rib.next_router(r0, r1), Some(r3), "R1 now two hops away");

        failures.fail_router(r3);
        let rib = Rib::compute(&net, &failures);
        assert_eq!(rib.next_router(r0, r2), None, "fully cut off");
    }

    #[test]
    fn lan_failure_disconnects_lan_only_paths() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let lan = b.lan("S0");
        b.attach(lan, r0);
        b.attach(lan, r1);
        let net = b.build();
        assert_eq!(Rib::converged(&net).next_router(r0, r1), Some(r1));
        let mut failures = FailureSet::none();
        failures.fail_lan(lan);
        assert_eq!(Rib::compute(&net, &failures).next_router(r0, r1), None);
    }

    #[test]
    fn overrides_shadow_spf() {
        let f = figure1();
        let mut rib = Rib::converged(&f.net);
        // Force R3 to (wrongly) believe R4 is reached via R1.
        rib.set_override(f.router(3), f.router(4), f.router(1));
        assert_eq!(rib.next_router(f.router(3), f.router(4)), Some(f.router(1)));
        rib.clear_override(f.router(3), f.router(4));
        assert_eq!(rib.next_router(f.router(3), f.router(4)), Some(f.router(4)));
    }

    #[test]
    fn route_to_host_address_reaches_its_lan() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let host_g = f.net.host_addr(f.hosts.g); // on S10 behind R8
        let hop = rib.route(&f.net, f.router(4), host_g).unwrap();
        assert_eq!(hop.router, f.router(8));
    }

    #[test]
    fn unknown_address_routes_nowhere() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        assert!(rib.route(&f.net, f.router(1), Addr::from_octets(203, 0, 113, 1)).is_none());
    }

    /// Every (from, dst) next hop and distance of `a` must equal `b`'s.
    fn assert_tables_equal(net: &NetworkSpec, a: &Rib, b: &Rib, label: &str) {
        for from in 0..net.routers.len() as u32 {
            for dst in 0..net.routers.len() as u32 {
                let (from, dst) = (RouterId(from), RouterId(dst));
                assert_eq!(
                    a.next_router(from, dst),
                    b.next_router(from, dst),
                    "{label} {from:?}→{dst:?}"
                );
                assert_eq!(a.dist(from, dst), b.dist(from, dst), "{label} dist {from:?}→{dst:?}");
            }
        }
    }

    /// The roots of the trees the rib keeps.
    fn kept_roots(rib: &Rib) -> Vec<u32> {
        let routes = rib.routes();
        let spf = &routes.0;
        (0..spf.graph().node_count() as u32).filter(|&r| spf.find(r).is_some()).collect()
    }

    #[test]
    fn incremental_apply_equals_from_scratch() {
        let f = figure1();
        let n = f.net.routers.len();
        let mut inc = Rib::converged(&f.net);
        // Warm every tree so repairs actually run.
        for dst in 0..n as u32 {
            let _ = inc.dist(RouterId(0), RouterId(dst));
        }
        let mut failures = FailureSet::none();
        failures.fail_link(cbt_topology::LinkId(0));
        failures.fail_router(f.router(7));
        inc.apply_failures(&failures);
        let scratch = Rib::compute(&f.net, &failures);
        assert_tables_equal(&f.net, &inc, &scratch, "after failures");
        // Heal everything and fail a LAN in the same batch.
        let mut failures2 = FailureSet::none();
        failures2.fail_lan(f.subnet(4));
        inc.apply_failures(&failures2);
        assert_eq!(kept_roots(&inc).len(), n, "trees are repaired in place, none dropped");
        inc.routes().0.assert_matches_full_spf(&mut SpfScratch::new());
        let scratch2 = Rib::compute(&f.net, &failures2);
        assert_tables_equal(&f.net, &inc, &scratch2, "after heal + LAN fail");
    }

    #[test]
    fn apply_failures_clears_stale_overrides() {
        // R0 —l0— R1 —l1— R2, plus spare path R0 —l2— R3 —l3— R2.
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        let l0 = b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        b.link(r0, r3, 1);
        b.link(r3, r2, 1);
        let net = b.build();
        let mut rib = Rib::converged(&net);
        rib.set_override(r0, r2, r1); // rides link l0
        rib.set_override(r3, r2, r2); // independent of l0
        let mut failures = FailureSet::none();
        failures.fail_link(l0);
        rib.apply_failures(&failures);
        assert_eq!(
            rib.next_router(r0, r2),
            Some(r3),
            "override referencing the failed link was cleared"
        );
        assert_eq!(rib.next_router(r3, r2), Some(r2), "unrelated override survives");
        // A downed via-router also invalidates.
        let mut rib = Rib::converged(&net);
        rib.set_override(r0, r2, r1);
        let mut failures = FailureSet::none();
        failures.fail_router(r1);
        rib.apply_failures(&failures);
        assert_eq!(rib.next_router(r0, r2), Some(r3), "override through downed router cleared");
    }

    #[test]
    fn trees_are_computed_on_demand_not_eagerly() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let r4 = f.router(4);
        assert_eq!(kept_roots(&rib), [], "construction computes nothing");
        let _ = rib.next_router(f.router(1), r4);
        assert_eq!(kept_roots(&rib), [r4.0], "one destination asked for, one tree built");
        // Down R3 behind the rib's back: the kept tree does not see it,
        // a rebuilt one would route R1 around it.
        let r3 = f.router(3);
        rib.routes().0.graph_mut().set_node_up(r3.0, false);
        assert_eq!(rib.next_router(f.router(1), r4), Some(r3), "second lookup reuses the tree");
        assert_eq!(kept_roots(&rib), [r4.0]);
        let mut failures = FailureSet::none();
        failures.fail_router(r3);
        assert_ne!(Rib::compute(&f.net, &failures).next_router(f.router(1), r4), Some(r3));
    }

    /// A and B share a p2p link (A's interface 0) *and* a LAN (A's
    /// interface 1); the core C sits behind B.
    fn link_beside_lan() -> (NetworkSpec, LinkId, LanId) {
        let mut b = NetworkBuilder::new();
        let (a, bb, c) = (b.router("A"), b.router("B"), b.router("C"));
        let link = b.link(a, bb, 1);
        let lan = b.lan("S");
        b.attach(lan, a);
        b.attach(lan, bb);
        b.link(bb, c, 1);
        (b.build(), link, lan)
    }

    #[test]
    fn route_takes_the_live_side_of_a_parallel_adjacency() {
        let (net, link, lan) = link_beside_lan();
        let (a, bb, c) = (RouterId(0), RouterId(1), RouterId(2));
        let on_link = net.routers[1].ifaces[0].addr;
        let (_, on_lan) = net.routers[1].iface_on_lan(lan).unwrap();
        let hop = |iface, addr| Some(Hop { iface: IfIndex(iface), router: bb, addr, dist: 2 });
        let core = net.router_addr(c);
        let mut rib = Rib::converged(&net);
        assert_eq!(rib.route(&net, a, core), hop(0, on_link), "both up: the lower interface");
        let mut failures = FailureSet::none();
        failures.fail_link(link);
        rib.apply_failures(&failures);
        assert_eq!(rib.route(&net, a, core), hop(1, on_lan.addr), "link down: over the LAN");
        assert_eq!(Rib::compute(&net, &failures).route(&net, a, core), hop(1, on_lan.addr));
        let mut failures = FailureSet::none();
        failures.fail_lan(lan);
        rib.apply_failures(&failures);
        assert_eq!(rib.route(&net, a, core), hop(0, on_link), "LAN down: over the link");
    }

    #[test]
    fn host_route_enters_its_lan_at_the_first_live_router() {
        // R links to X and Y, which both sit on the host's LAN (X first).
        let mut b = NetworkBuilder::new();
        let (r, x, y) = (b.router("R"), b.router("X"), b.router("Y"));
        b.link(r, x, 1);
        b.link(r, y, 1);
        let lan = b.lan("S");
        b.attach(lan, x);
        b.attach(lan, y);
        let host = b.host("H", lan);
        let net = b.build();
        let to_host = net.host_addr(host);
        let rib = Rib::converged(&net);
        assert_eq!(rib.route(&net, r, to_host).map(|h| h.router), Some(x));
        let mut failures = FailureSet::none();
        failures.fail_router(x);
        let hop = Rib::compute(&net, &failures).route(&net, r, to_host);
        assert_eq!(hop.map(|h| (h.router, h.iface)), Some((y, IfIndex(1))), "X is down");
    }
}
