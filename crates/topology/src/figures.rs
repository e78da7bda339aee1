//! Byte-exact reconstructions of the spec's example topologies.
//!
//! ## Figure 1 (the running example network)
//!
//! The draft's ASCII figure is partially elided in the surviving text,
//! but every protocol walkthrough (§2.5, §2.6, §2.7, §5) names the
//! adjacencies it relies on; this module reconstructs a topology
//! satisfying **all** of those statements:
//!
//! * host A on S1, whose only CBT router is R1; host C on S3 behind R1;
//! * host B on S4, which has **three** attached routers — R6 (the
//!   elected IGMP querier / D-DR), R2 and R5 — and R6's best next hop
//!   to core R4 is R2, *on the same subnet* (the proxy-ack scenario);
//! * R1–R3, R2–R3, R3–R4 links (joins from S1 and S4 meet at R3);
//! * R4 is the primary core, with member subnets S5/S6/S7 directly
//!   attached, and children R3 and R7 during the §5 data walkthrough;
//! * R7 serves member subnet S9 (host E — the -02 teardown example);
//! * R8 (parent R4) is DR for S10 (sender G) and member subnet S14,
//!   with children R9 and R12 on separate interfaces;
//! * R9 is the secondary core, serving memberless S12, child R10;
//! * R10 is DR for member subnets S13 (host H) and S15 (host J);
//! * R12 serves stub subnet S11 (host L) so the figure's fifteen
//!   subnets S1..S15 are all present. (The original figure shows no
//!   R11; none of the narratives reference one.)
//!
//! ## Figure 5 (the loop-detection example)
//!
//! Six routers; R1 is the core. The §6.3 walkthrough needs the tree
//! R1–R2–R3–R4–R5 in place, R6 off-tree, and the *stale* unicast
//! opinions R3→R6, R6→R5 "toward R1" that create the transient loop —
//! those are injected by the scenario driver, the physical edges here
//! merely make them plausible: R1–R2, R2–R3, R3–R4, R4–R5, R5–R6, R6–R3.

use crate::network::{HostId, LanId, NetworkBuilder, NetworkSpec, RouterId};

/// Handles into the Figure 1 network, named exactly as in the spec.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// The network itself.
    pub net: NetworkSpec,
    /// Routers R1..R10 and R12 (the figure has no R11).
    pub r: Vec<RouterId>,
    /// Subnets S1..S15.
    pub s: Vec<LanId>,
    /// Hosts by letter.
    pub hosts: Figure1Hosts,
}

/// The member hosts of Figure 1.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // field names are the spec's host letters
pub struct Figure1Hosts {
    pub a: HostId,
    pub b: HostId,
    pub c: HostId,
    pub d: HostId,
    pub e: HostId,
    pub f: HostId,
    pub g: HostId,
    pub h: HostId,
    pub i: HostId,
    pub j: HostId,
    pub k: HostId,
    pub l: HostId,
}

impl Figure1 {
    /// Router by spec number (1..=10 or 12).
    ///
    /// # Panics
    /// Panics on numbers the figure does not contain (0, 11, 13+).
    pub fn router(&self, n: usize) -> RouterId {
        match n {
            1..=10 => self.r[n - 1],
            12 => self.r[10],
            _ => panic!("figure 1 has no router R{n}"),
        }
    }

    /// Subnet by spec number (1..=15).
    pub fn subnet(&self, n: usize) -> LanId {
        self.s[n - 1]
    }

    /// The primary core of the walkthroughs: R4.
    pub fn primary_core(&self) -> RouterId {
        self.router(4)
    }

    /// The secondary core of the walkthroughs: R9.
    pub fn secondary_core(&self) -> RouterId {
        self.router(9)
    }
}

/// Builds the Figure 1 example network.
pub fn figure1() -> Figure1 {
    let mut b = NetworkBuilder::new();
    // Routers in spec order. Creation order fixes identity addresses
    // (R1 lowest), matching the spec's implicit "R2 is lower-addressed
    // than R5" tie-break in the -02 DR election example.
    let r1 = b.router("R1");
    let r2 = b.router("R2");
    let r3 = b.router("R3");
    let r4 = b.router("R4");
    let r5 = b.router("R5");
    let r6 = b.router("R6");
    let r7 = b.router("R7");
    let r8 = b.router("R8");
    let r9 = b.router("R9");
    let r10 = b.router("R10");
    let r12 = b.router("R12");

    let s: Vec<LanId> = (1..=15).map(|i| b.lan(format!("S{i}"))).collect();
    let lan = |i: usize| s[i - 1];

    // S1: host A behind R1 only.
    b.attach(lan(1), r1);
    let a = b.host("A", lan(1));
    // S2: stub subnet below R2.
    b.attach(lan(2), r2);
    // S3: host C behind R1.
    b.attach(lan(3), r1);
    let c = b.host("C", lan(3));
    // S4: B's subnet with three routers. R6 attaches first so it gets
    // the lowest address on S4 and is the IGMP querier = CBT D-DR,
    // matching "assume R6 has been elected IGMP-querier and CBT D-DR".
    b.attach(lan(4), r6);
    b.attach(lan(4), r2);
    b.attach(lan(4), r5);
    let host_b = b.host("B", lan(4));
    // Core-side member subnets on R4.
    b.attach(lan(5), r4);
    let d = b.host("D", lan(5));
    b.attach(lan(6), r4);
    let f = b.host("F", lan(6));
    b.attach(lan(7), r4);
    let i = b.host("I", lan(7));
    // S8: stub behind R6.
    b.attach(lan(8), r6);
    // S9: member subnet behind R7.
    b.attach(lan(9), r7);
    let e = b.host("E", lan(9));
    // S10: sender G's subnet behind R8.
    b.attach(lan(10), r8);
    let g = b.host("G", lan(10));
    // S11: stub subnet behind R12.
    b.attach(lan(11), r12);
    let l = b.host("L", lan(11));
    // S12: memberless subnet behind R9.
    b.attach(lan(12), r9);
    // S13 & S15: member subnets behind R10.
    b.attach(lan(13), r10);
    let h = b.host("H", lan(13));
    b.attach(lan(15), r10);
    let j = b.host("J", lan(15));
    // S14: member subnet behind R8.
    b.attach(lan(14), r8);
    let k = b.host("K", lan(14));

    // Backbone links.
    b.link(r1, r3, 1);
    b.link(r2, r3, 1);
    b.link(r3, r4, 1);
    b.link(r4, r7, 1);
    b.link(r4, r8, 1);
    b.link(r8, r9, 1);
    b.link(r8, r12, 1);
    b.link(r9, r10, 1);

    let net = b.build();
    Figure1 {
        net,
        r: vec![r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r12],
        s,
        hosts: Figure1Hosts { a, b: host_b, c, d, e, f, g, h, i, j, k, l },
    }
}

/// Handles into the Figure 5 loop-example network.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// The network.
    pub net: NetworkSpec,
    /// Routers R1..R6 (R1 is the core).
    pub r: Vec<RouterId>,
}

impl Figure5 {
    /// Router by spec number (1..=6).
    pub fn router(&self, n: usize) -> RouterId {
        self.r[n - 1]
    }
}

/// Builds the Figure 5 loop topology.
pub fn figure5_loop() -> Figure5 {
    let mut b = NetworkBuilder::new();
    let r: Vec<RouterId> = (1..=6).map(|i| b.router(format!("R{i}"))).collect();
    // Give each router a stub LAN so any of them can serve members.
    for (i, &router) in r.iter().enumerate() {
        let lan = b.lan(format!("S{}", i + 1));
        b.attach(lan, router);
        b.host(format!("H{}", i + 1), lan);
    }
    b.link(r[0], r[1], 1); // R1–R2
    b.link(r[1], r[2], 1); // R2–R3
    b.link(r[2], r[3], 1); // R3–R4
    b.link(r[3], r[4], 1); // R4–R5
    b.link(r[4], r[5], 1); // R5–R6
    b.link(r[5], r[2], 1); // R6–R3
    Figure5 { net: b.build(), r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrGraph, SpfScratch, SpfTree};
    use crate::graph::NodeId;

    /// Router names on the shortest path from `R{from}` to `R{to}`.
    fn path_names(f: &Figure1, from: usize, to: usize) -> Vec<&str> {
        let g = CsrGraph::from_graph(&f.net.router_graph());
        let tree = SpfTree::full(&g, f.router(to).0, &mut SpfScratch::new());
        let path = tree.path_to_root(f.router(from).0).unwrap();
        path.iter().map(|&n| f.net.routers[n as usize].name.as_str()).collect()
    }

    #[test]
    fn figure1_has_all_named_entities() {
        let f = figure1();
        assert_eq!(f.net.routers.len(), 11);
        assert_eq!(f.net.lans.len(), 15);
        for i in 1..=10 {
            assert_eq!(f.net.routers[f.router(i).0 as usize].name, format!("R{i}"));
        }
        assert_eq!(f.net.routers[f.router(12).0 as usize].name, "R12");
        for i in 1..=15 {
            assert_eq!(f.net.lans[f.subnet(i).0 as usize].name, format!("S{i}"));
        }
    }

    #[test]
    #[should_panic(expected = "no router R11")]
    fn figure1_has_no_r11() {
        figure1().router(11);
    }

    #[test]
    fn figure1_is_connected() {
        assert!(figure1().net.router_graph().is_connected());
    }

    /// §2.5: "R1 ... proceeds to unicast a JOIN-REQUEST ... to the
    /// next-hop on the path to R4 (R3)".
    #[test]
    fn r1_reaches_core_via_r3() {
        assert_eq!(path_names(&figure1(), 1, 4), ["R1", "R3", "R4"]);
    }

    /// §2.6: R6's best next hop to R4 is R2, on R6's own subnet S4, and
    /// the full path continues R2 → R3 → R4.
    #[test]
    fn r6_reaches_core_through_same_subnet_r2() {
        let f = figure1();
        assert_eq!(path_names(&f, 6, 4), ["R6", "R2", "R3", "R4"]);
        // And R2 really shares S4 with R6.
        let s4 = f.subnet(4);
        assert!(f.net.routers[f.router(2).0 as usize].iface_on_lan(s4).is_some());
        assert!(f.net.routers[f.router(6).0 as usize].iface_on_lan(s4).is_some());
    }

    /// The querier/D-DR on S4 must be R6 (lowest address there).
    #[test]
    fn r6_is_lowest_addressed_on_s4() {
        let f = figure1();
        let s4 = f.subnet(4);
        let addr_of =
            |n: usize| f.net.routers[f.router(n).0 as usize].iface_on_lan(s4).unwrap().1.addr;
        assert!(addr_of(6) < addr_of(2));
        assert!(addr_of(6) < addr_of(5));
    }

    /// §5 walkthrough: R8's children R9 and R12 are on different
    /// interfaces, and R8 serves S10 and S14.
    #[test]
    fn r8_neighbourhood_matches_walkthrough() {
        let f = figure1();
        let g = f.net.router_graph();
        let r8 = NodeId(f.router(8).0);
        let neigh: Vec<_> =
            g.neighbors(r8).map(|(n, _)| f.net.routers[n.idx()].name.clone()).collect();
        assert!(neigh.contains(&"R4".to_string()));
        assert!(neigh.contains(&"R9".to_string()));
        assert!(neigh.contains(&"R12".to_string()));
        let r8s = &f.net.routers[f.router(8).0 as usize];
        assert!(r8s.iface_on_lan(f.subnet(10)).is_some());
        assert!(r8s.iface_on_lan(f.subnet(14)).is_some());
    }

    #[test]
    fn member_hosts_live_on_the_right_subnets() {
        let f = figure1();
        let on = |h: HostId| f.net.hosts[h.0 as usize].lan;
        assert_eq!(on(f.hosts.a), f.subnet(1));
        assert_eq!(on(f.hosts.b), f.subnet(4));
        assert_eq!(on(f.hosts.c), f.subnet(3));
        assert_eq!(on(f.hosts.e), f.subnet(9));
        assert_eq!(on(f.hosts.g), f.subnet(10));
        assert_eq!(on(f.hosts.h), f.subnet(13));
        assert_eq!(on(f.hosts.j), f.subnet(15));
    }

    #[test]
    fn figure5_shape() {
        let f = figure5_loop();
        let g = f.net.router_graph();
        assert_eq!(g.node_count(), 6);
        assert!(g.is_connected());
        // The loop R3–R4–R5–R6–R3 exists physically.
        let id = |n: usize| NodeId(f.router(n).0);
        assert!(g.has_edge(id(3), id(4)));
        assert!(g.has_edge(id(4), id(5)));
        assert!(g.has_edge(id(5), id(6)));
        assert!(g.has_edge(id(6), id(3)));
        assert!(g.has_edge(id(1), id(2)));
        assert!(g.has_edge(id(2), id(3)));
    }
}
