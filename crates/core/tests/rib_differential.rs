//! The two route tables against each other: `Rib` (the simulator's,
//! over a `NetworkSpec`) and `FleetRib` (the netscale fleet's, over a
//! bare `CsrGraph`) must pick the same next router, interface and
//! distance toward every core from every router, fault-free and through
//! a link flap, a router crash and their restoration.
//!
//! One Waxman graph is built both ways. `from_graph_with_stub_lans`
//! gives each router its links in edge order before its stub LAN, and
//! `CsrGraph::from_edges` gives it its slots in the same order, so a
//! link's interface number and its slot offset coincide.

use cbt::{node_addr, FleetRib, FleetRoutes, RouteLookup};
use cbt_routing::{FailureSet, Rib};
use cbt_topology::{
    waxman, CsrGraph, LinkId, NetworkSpec, RouterId, SpfScratch, SpfTree, WaxmanParams,
};
use std::sync::{Arc, RwLock};

const CORES: [u32; 3] = [0, 17, 41];

struct Both {
    net: NetworkSpec,
    rib: Rib,
    failures: FailureSet,
    csr: CsrGraph,
    pairs: Vec<[u32; 2]>,
    fleet: Arc<RwLock<FleetRib>>,
    scratch: SpfScratch,
}

impl Both {
    fn new() -> Both {
        let g = waxman(WaxmanParams { n: 60, alpha: 0.25, beta: 0.2 }, 33);
        let net = NetworkSpec::from_graph_with_stub_lans(&g);
        let edges: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
        let (csr, pairs) = CsrGraph::from_edges(g.node_count(), &edges);
        let mut scratch = SpfScratch::new();
        let trees = CORES.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
        let fleet = Arc::new(RwLock::new(FleetRib::repairable(&csr, &CORES, trees)));
        Both {
            rib: Rib::converged(&net),
            net,
            failures: FailureSet::none(),
            csr,
            pairs,
            fleet,
            scratch,
        }
    }

    /// Fails or restores link `k` in both tables.
    fn set_link(&mut self, k: usize, up: bool) {
        let l = &self.net.links[k];
        let pair = [(l.a.0, l.b.0)];
        for s in self.pairs[k] {
            self.csr.set_slot_live(s, up);
        }
        let mut fleet = self.fleet.write().unwrap();
        if up {
            self.failures.restore_link(LinkId(k as u32));
            fleet.apply_additions(&self.csr, &pair, &[], &mut self.scratch);
        } else {
            self.failures.fail_link(LinkId(k as u32));
            fleet.apply_removals(&self.csr, &pair, &[], &mut self.scratch);
        }
        self.rib.apply_failures(&self.failures);
    }

    /// Crashes or restores router `r` in both tables.
    fn set_router(&mut self, r: u32, up: bool) {
        self.csr.set_node_up(r, up);
        let mut fleet = self.fleet.write().unwrap();
        if up {
            self.failures.restore_router(RouterId(r));
            fleet.apply_additions(&self.csr, &[], &[r], &mut self.scratch);
        } else {
            self.failures.fail_router(RouterId(r));
            fleet.apply_removals(&self.csr, &[], &[r], &mut self.scratch);
        }
        self.rib.apply_failures(&self.failures);
    }

    /// Every router's hop toward every core agrees between the tables;
    /// returns how many of those hops exist.
    fn assert_agree(&mut self, label: &str) -> usize {
        self.fleet.read().unwrap().assert_matches_full_spf(&self.csr, &mut self.scratch);
        let mut routed = 0;
        for me in 0..self.net.routers.len() as u32 {
            let fleet = FleetRoutes::new(Arc::clone(&self.fleet), me);
            for &c in &CORES {
                let core_addr = self.net.routers[c as usize].addr;
                let sim = self.rib.route(&self.net, RouterId(me), core_addr);
                let flat = fleet.hop_toward(node_addr(c));
                let key = |h: cbt_routing::Hop| (h.router, h.iface, h.dist);
                assert_eq!(sim.map(key), flat.map(key), "{label}: router {me} toward core {c}");
                routed += flat.is_some() as usize;
            }
        }
        routed
    }
}

#[test]
fn rib_and_fleet_rib_route_alike_through_a_flap_and_a_crash() {
    let mut both = Both::new();
    let all = both.net.routers.len() * CORES.len() - CORES.len();
    assert_eq!(both.assert_agree("fault-free"), all, "a Waxman graph is connected");

    // Flap the first hop of router 59's path toward core 0, and crash
    // the busiest router that is not a core.
    let next = both.rib.next_router(RouterId(59), RouterId(0)).unwrap().0;
    let link = both
        .net
        .links
        .iter()
        .position(|l| (l.a.0, l.b.0) == (59, next) || (l.a.0, l.b.0) == (next, 59))
        .unwrap();
    let crash = (0..both.csr.node_count() as u32)
        .filter(|r| !CORES.contains(r))
        .max_by_key(|&r| both.csr.live_slots(r).count())
        .unwrap();

    both.set_link(link, false);
    both.assert_agree("link down");
    both.set_router(crash, false);
    let degraded = both.assert_agree("link and router down");
    assert!(degraded < all, "the crashed router routes nowhere");

    both.set_link(link, true);
    both.set_router(crash, true);
    assert_eq!(both.assert_agree("both restored"), all);
}
