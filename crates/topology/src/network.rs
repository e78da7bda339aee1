//! Protocol-level network descriptions.
//!
//! A [`Graph`] is enough for tree-quality math, but the CBT protocol
//! itself needs more texture: multi-access LAN segments where hosts
//! live and DR election happens, point-to-point links, per-interface
//! subnets/masks (the proxy-ack logic of §2.6 does subnet arithmetic),
//! and a concrete IPv4 addressing plan. [`NetworkSpec`] captures all of
//! that; it is what the simulator instantiates and what the routing
//! substrate computes tables for.
//!
//! ## Addressing plan
//!
//! * LAN `k` owns subnet `10.(1 + k/256).(k%256).0/24`; attached routers
//!   get `.1`, `.2`, … in attach order, hosts get `.100`, `.101`, ….
//!   Attach order therefore decides "lowest-addressed" elections, which
//!   is how tests pin down the spec's walkthrough scenarios.
//! * Point-to-point link `j` owns the /30 `172.31.(j/64).((j%64)·4)`;
//!   its two endpoints get `.1` and `.2` of that /30.
//! * Every router also owns a loopback-style identity address
//!   `10.255.(i/256).(i%256)` used as its stable protocol identity
//!   (core lists, rejoin origins).

use crate::graph::{Graph, NodeId};
use cbt_wire::Addr;
use std::collections::HashMap;
use std::fmt;

/// Index of a router within a [`NetworkSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u32);

/// Index of a LAN segment within a [`NetworkSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LanId(pub u32);

/// Index of a point-to-point link within a [`NetworkSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Index of a host within a [`NetworkSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// A router's interface number ("vif index" in the spec's FIB, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IfIndex(pub u32);

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for IfIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if{}", self.0)
    }
}

/// What a router interface is plugged into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// A multi-access LAN segment.
    Lan(LanId),
    /// One end of a point-to-point link; `peer` is the router at the
    /// other end.
    Link {
        /// The link.
        link: LinkId,
        /// The other endpoint.
        peer: RouterId,
    },
}

/// One configured interface of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfaceSpec {
    /// What the interface attaches to.
    pub attachment: Attachment,
    /// This interface's own address.
    pub addr: Addr,
    /// Subnet number of the attached segment/link.
    pub subnet: Addr,
    /// Subnet mask.
    pub mask: Addr,
    /// Routing cost of crossing this interface.
    pub cost: u32,
}

/// A router and its interfaces.
#[derive(Debug, Clone)]
pub struct RouterSpec {
    /// Human-readable name ("R1").
    pub name: String,
    /// Stable identity address (loopback-style).
    pub addr: Addr,
    /// Interfaces in [`IfIndex`] order.
    pub ifaces: Vec<IfaceSpec>,
}

impl RouterSpec {
    /// The interface attached to `lan`, if any.
    pub fn iface_on_lan(&self, lan: LanId) -> Option<(IfIndex, &IfaceSpec)> {
        self.ifaces
            .iter()
            .enumerate()
            .find(|(_, i)| i.attachment == Attachment::Lan(lan))
            .map(|(n, i)| (IfIndex(n as u32), i))
    }

    /// The interface record for `ifindex`.
    pub fn iface(&self, ifindex: IfIndex) -> Option<&IfaceSpec> {
        self.ifaces.get(ifindex.0 as usize)
    }
}

/// A multi-access LAN segment.
#[derive(Debug, Clone)]
pub struct LanSpec {
    /// Human-readable name ("S1").
    pub name: String,
    /// Subnet number.
    pub subnet: Addr,
    /// Subnet mask (always /24 under the default plan).
    pub mask: Addr,
    /// Attached routers in attach (= address) order.
    pub routers: Vec<RouterId>,
    /// Hosts that live on this segment.
    pub hosts: Vec<HostId>,
}

/// A point-to-point link between two routers.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// First endpoint.
    pub a: RouterId,
    /// Second endpoint.
    pub b: RouterId,
    /// Routing cost (both directions).
    pub cost: u32,
}

/// An end-system on a LAN.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Human-readable name ("A").
    pub name: String,
    /// The host's address (within its LAN's subnet).
    pub addr: Addr,
    /// The LAN it lives on.
    pub lan: LanId,
}

/// A complete, addressed network description.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// All routers.
    pub routers: Vec<RouterSpec>,
    /// All LAN segments.
    pub lans: Vec<LanSpec>,
    /// All point-to-point links.
    pub links: Vec<LinkSpec>,
    /// All hosts.
    pub hosts: Vec<HostSpec>,
    owner: HashMap<Addr, Owner>,
}

/// Who owns an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// A router (identity or interface address).
    Router(RouterId),
    /// A host.
    Host(HostId),
}

impl NetworkSpec {
    /// Looks up which entity owns `addr` (router identity, router
    /// interface, or host address).
    pub fn owner_of(&self, addr: Addr) -> Option<Owner> {
        self.owner.get(&addr).copied()
    }

    /// The router that owns `addr`, if a router does.
    pub fn router_of(&self, addr: Addr) -> Option<RouterId> {
        match self.owner_of(addr)? {
            Owner::Router(r) => Some(r),
            Owner::Host(_) => None,
        }
    }

    /// Finds a LAN by name.
    pub fn lan_by_name(&self, name: &str) -> Option<LanId> {
        self.lans.iter().position(|l| l.name == name).map(|i| LanId(i as u32))
    }

    /// The router-level weighted graph: one node per router (node id ==
    /// router index), an edge per p2p link, and a clique of weight-1
    /// edges per LAN (crossing a LAN costs one hop regardless of pair).
    pub fn router_graph(&self) -> Graph {
        let mut g = Graph::with_nodes(self.routers.len());
        for l in &self.links {
            g.add_edge(NodeId(l.a.0), NodeId(l.b.0), l.cost);
        }
        for lan in &self.lans {
            for (i, &a) in lan.routers.iter().enumerate() {
                for &b in &lan.routers[i + 1..] {
                    g.add_edge(NodeId(a.0), NodeId(b.0), 1);
                }
            }
        }
        g
    }

    /// A router's stable identity address.
    pub fn router_addr(&self, r: RouterId) -> Addr {
        self.routers[r.0 as usize].addr
    }

    /// A host's address.
    pub fn host_addr(&self, h: HostId) -> Addr {
        self.hosts[h.0 as usize].addr
    }

    /// Builds a spec directly from a router-level graph: every edge
    /// becomes a p2p link, and every router additionally gets one stub
    /// LAN with a single host. Random-topology experiments use this so
    /// any router can have local group members.
    pub fn from_graph_with_stub_lans(g: &Graph) -> NetworkSpec {
        let mut b = NetworkBuilder::new();
        let routers: Vec<RouterId> = g.nodes().map(|n| b.router(format!("R{}", n.0))).collect();
        for (a, bb, w) in g.edges() {
            b.link(routers[a.idx()], routers[bb.idx()], w);
        }
        for (i, &r) in routers.iter().enumerate() {
            let lan = b.lan(format!("S{i}"));
            b.attach(lan, r);
            b.host(format!("H{i}"), lan);
        }
        b.build()
    }
}

/// Incremental builder for [`NetworkSpec`]; `build()` assigns the
/// addressing plan.
///
/// ```
/// use cbt_topology::NetworkBuilder;
///
/// let mut b = NetworkBuilder::new();
/// let r0 = b.router("R0");
/// let r1 = b.router("R1");
/// let lan = b.lan("S0");
/// b.attach(lan, r0);
/// b.host("A", lan);
/// b.link(r0, r1, 1);
/// let net = b.build();
///
/// assert_eq!(net.routers.len(), 2);
/// assert!(net.router_graph().is_connected());
/// // First LAN gets 10.1.0.0/24; R0 attached first → .1.
/// assert_eq!(net.routers[0].ifaces[0].addr.to_string(), "10.1.0.1");
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    routers: Vec<(String, Vec<Attachment>)>,
    lans: Vec<(String, Vec<RouterId>, Vec<HostId>)>,
    links: Vec<LinkSpec>,
    hosts: Vec<(String, LanId)>,
}

impl NetworkBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Adds a router.
    pub fn router(&mut self, name: impl Into<String>) -> RouterId {
        self.routers.push((name.into(), Vec::new()));
        RouterId(self.routers.len() as u32 - 1)
    }

    /// Adds a LAN segment.
    pub fn lan(&mut self, name: impl Into<String>) -> LanId {
        self.lans.push((name.into(), Vec::new(), Vec::new()));
        LanId(self.lans.len() as u32 - 1)
    }

    /// Attaches `router` to `lan`. Attach order fixes addresses (and
    /// therefore querier/DR elections): first attached = lowest.
    pub fn attach(&mut self, lan: LanId, router: RouterId) {
        assert!(
            !self.lans[lan.0 as usize].1.contains(&router),
            "router attached to the same LAN twice"
        );
        self.lans[lan.0 as usize].1.push(router);
        self.routers[router.0 as usize].1.push(Attachment::Lan(lan));
    }

    /// Connects two routers with a point-to-point link of `cost`.
    pub fn link(&mut self, a: RouterId, b: RouterId, cost: u32) -> LinkId {
        assert_ne!(a, b, "self links are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec { a, b, cost });
        self.routers[a.0 as usize].1.push(Attachment::Link { link: id, peer: b });
        self.routers[b.0 as usize].1.push(Attachment::Link { link: id, peer: a });
        id
    }

    /// Adds a host on `lan`.
    pub fn host(&mut self, name: impl Into<String>, lan: LanId) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push((name.into(), lan));
        self.lans[lan.0 as usize].2.push(id);
        id
    }

    /// Finalises the network, assigning every address.
    ///
    /// # Panics
    /// Panics if the plan's capacity is exceeded (> 65536 LANs/routers
    /// or > 16384 links) — far beyond any experiment here.
    pub fn build(self) -> NetworkSpec {
        assert!(self.lans.len() <= 65536, "too many LANs for the addressing plan");
        assert!(self.links.len() <= 16384, "too many links for the addressing plan");
        assert!(self.routers.len() <= 65536, "too many routers for the addressing plan");
        let lan_subnet = |k: usize| Addr::from_octets(10, (1 + k / 256) as u8, (k % 256) as u8, 0);
        let lan_mask = Addr::from_octets(255, 255, 255, 0);
        let link_subnet =
            |j: usize| Addr::from_octets(172, 31, (j / 64) as u8, ((j % 64) * 4) as u8);
        let link_mask = Addr::from_octets(255, 255, 255, 252);

        let mut owner = HashMap::new();
        let mut routers: Vec<RouterSpec> = self
            .routers
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let addr = Addr::from_octets(10, 255, (i / 256) as u8, (i % 256) as u8);
                owner.insert(addr, Owner::Router(RouterId(i as u32)));
                RouterSpec { name: name.clone(), addr, ifaces: Vec::new() }
            })
            .collect();

        let lans: Vec<LanSpec> = self
            .lans
            .iter()
            .enumerate()
            .map(|(k, (name, rs, hs))| LanSpec {
                name: name.clone(),
                subnet: lan_subnet(k),
                mask: lan_mask,
                routers: rs.clone(),
                hosts: hs.clone(),
            })
            .collect();

        let hosts: Vec<HostSpec> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, (name, lan))| {
                let k = lan.0 as usize;
                let pos = lans[k].hosts.iter().position(|h| h.0 as usize == i).unwrap();
                let addr = Addr(lan_subnet(k).0 + 100 + pos as u32);
                owner.insert(addr, Owner::Host(HostId(i as u32)));
                HostSpec { name: name.clone(), addr, lan: *lan }
            })
            .collect();

        // Interfaces, in each router's attachment order.
        for (ri, (_, attachments)) in self.routers.iter().enumerate() {
            for att in attachments {
                let iface = match *att {
                    Attachment::Lan(lan) => {
                        let k = lan.0 as usize;
                        let pos = lans[k]
                            .routers
                            .iter()
                            .position(|r| r.0 as usize == ri)
                            .expect("attachment recorded on both sides");
                        IfaceSpec {
                            attachment: *att,
                            addr: Addr(lan_subnet(k).0 + 1 + pos as u32),
                            subnet: lans[k].subnet,
                            mask: lans[k].mask,
                            cost: 1,
                        }
                    }
                    Attachment::Link { link, peer: _ } => {
                        let j = link.0 as usize;
                        let l = &self.links[j];
                        let end = if l.a.0 as usize == ri { 1 } else { 2 };
                        IfaceSpec {
                            attachment: *att,
                            addr: Addr(link_subnet(j).0 + end),
                            subnet: link_subnet(j),
                            mask: link_mask,
                            cost: l.cost,
                        }
                    }
                };
                owner.insert(iface.addr, Owner::Router(RouterId(ri as u32)));
                routers[ri].ifaces.push(iface);
            }
        }

        NetworkSpec { routers, lans, links: self.links, hosts, owner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NetworkSpec {
        // R0 —lan S0(+host A)— R1 —link— R2 —lan S1(+host B)
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        b.attach(s0, r1);
        b.host("A", s0);
        b.link(r1, r2, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r2);
        b.host("B", s1);
        b.build()
    }

    #[test]
    fn addressing_plan_is_deterministic() {
        let n = small();
        assert_eq!(n.routers[0].ifaces[0].addr, Addr::from_octets(10, 1, 0, 1));
        assert_eq!(n.routers[1].ifaces[0].addr, Addr::from_octets(10, 1, 0, 2));
        assert_eq!(n.hosts[0].addr, Addr::from_octets(10, 1, 0, 100));
        assert_eq!(n.routers[0].addr, Addr::from_octets(10, 255, 0, 0));
        // Link 0's /30.
        assert_eq!(n.routers[1].ifaces[1].addr, Addr::from_octets(172, 31, 0, 1));
        assert_eq!(n.routers[2].ifaces[0].addr, Addr::from_octets(172, 31, 0, 2));
    }

    #[test]
    fn attach_order_controls_lan_address_order() {
        let n = small();
        let s0 = n.lan_by_name("S0").unwrap();
        let (.., r0_if) = n.routers[0].iface_on_lan(s0).unwrap();
        let (.., r1_if) = n.routers[1].iface_on_lan(s0).unwrap();
        assert!(r0_if.addr < r1_if.addr, "first attached gets the lower address");
    }

    #[test]
    fn owner_lookup_covers_every_assigned_address() {
        let n = small();
        for (i, r) in n.routers.iter().enumerate() {
            assert_eq!(n.owner_of(r.addr), Some(Owner::Router(RouterId(i as u32))));
            for iface in &r.ifaces {
                assert_eq!(n.owner_of(iface.addr), Some(Owner::Router(RouterId(i as u32))));
            }
        }
        for (i, h) in n.hosts.iter().enumerate() {
            assert_eq!(n.owner_of(h.addr), Some(Owner::Host(HostId(i as u32))));
        }
        assert_eq!(n.owner_of(Addr::from_octets(9, 9, 9, 9)), None);
    }

    #[test]
    fn router_graph_reflects_lans_and_links() {
        let n = small();
        let g = n.router_graph();
        assert_eq!(g.node_count(), 3);
        assert!(g.has_edge(NodeId(0), NodeId(1)), "same LAN");
        assert!(g.has_edge(NodeId(1), NodeId(2)), "p2p link");
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.is_connected());
    }

    #[test]
    fn lan_clique_in_router_graph() {
        let mut b = NetworkBuilder::new();
        let r: Vec<_> = (0..3).map(|i| b.router(format!("R{i}"))).collect();
        let lan = b.lan("S");
        for &x in &r {
            b.attach(lan, x);
        }
        let g = b.build().router_graph();
        assert_eq!(g.edge_count(), 3, "three routers on one LAN form a triangle");
    }

    #[test]
    fn from_graph_with_stub_lans() {
        let g = crate::generate::ring(4);
        let n = NetworkSpec::from_graph_with_stub_lans(&g);
        assert_eq!(n.routers.len(), 4);
        assert_eq!(n.lans.len(), 4);
        assert_eq!(n.hosts.len(), 4);
        assert_eq!(n.links.len(), 4);
        // The router graph gains no extra router-router edges from the
        // stub LANs (each has a single attached router).
        let rg = n.router_graph();
        assert_eq!(rg.edge_count(), 4);
        assert!(rg.is_connected());
    }

    #[test]
    fn iface_lookup_by_lan_and_index() {
        let n = small();
        let s1 = n.lan_by_name("S1").unwrap();
        let (idx, iface) = n.routers[2].iface_on_lan(s1).unwrap();
        assert_eq!(iface.attachment, Attachment::Lan(s1));
        assert_eq!(n.routers[2].iface(idx).unwrap().addr, iface.addr);
        assert!(n.routers[2].iface(IfIndex(99)).is_none());
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_attach_panics() {
        let mut b = NetworkBuilder::new();
        let r = b.router("R");
        let l = b.lan("S");
        b.attach(l, r);
        b.attach(l, r);
    }
}
