//! The delivery plan: who hears a transmission.
//!
//! One decision — "entity `e` transmits on its interface `i` towards
//! link-layer destination `d`: who receives the frame, on which of
//! their interfaces, stamped with which source address" — resolved
//! once per [`NetworkSpec`] into flat tables, and consumed by every
//! runtime that moves frames: [`crate::World`]'s event loop and the
//! live fabric of `cbt-node`. The runtimes add only what is their own
//! (failure masks and tracing; inboxes).
//!
//! Entities are numbered densely, routers first and hosts after, so
//! per-node tables are `Vec`s indexed by [`DeliveryPlan::index`].
//!
//! Receiver order is load-bearing: a LAN lists its routers in attach
//! order, then its hosts, and that is the order the simulator pushes
//! arrival events in — every determinism corpus depends on it.

use crate::node::Entity;
use crate::trace::Medium;
use cbt_topology::{Attachment, HostId, IfIndex, LanId, NetworkSpec, RouterId};
use cbt_wire::Addr;

/// One attachment to a medium: who receives, on which of their
/// interfaces, at which link-layer address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receiver {
    /// The receiving entity.
    pub entity: Entity,
    /// Its interface on the medium (always 0 for hosts).
    pub iface: IfIndex,
    /// That interface's address — what a framed unicast must name.
    pub addr: Addr,
}

/// What one interface transmits onto. `attached` indexes
/// [`DeliveryPlan::receivers`]: a whole LAN (sender included), or a
/// link's far end.
struct IfacePlan {
    medium: Medium,
    link_src: Addr,
    attached: (u32, u32),
}

/// Where a transmission goes: the answer for one `(entity, iface)`.
pub struct Route<'a> {
    /// The medium the interface is plugged into.
    pub medium: Medium,
    /// The transmitting interface's own address — the link-layer
    /// source every delivery carries.
    pub link_src: Addr,
    from: Entity,
    attached: &'a [Receiver],
}

impl<'a> Route<'a> {
    /// Everyone who hears a frame framed for `link_dst`, in delivery
    /// order: every other attachment, narrowed on a LAN to the owner
    /// of `link_dst` when one is named. A point-to-point link ignores
    /// `link_dst` — the peer gets everything.
    pub fn heard_by(&self, link_dst: Option<Addr>) -> impl Iterator<Item = &'a Receiver> + '_ {
        let link_dst = match self.medium {
            Medium::Lan(_) => link_dst,
            Medium::Link(_) => None,
        };
        self.attached
            .iter()
            .filter(move |rx| rx.entity != self.from && link_dst.is_none_or(|d| d == rx.addr))
    }
}

/// The precomputed delivery tables of one network.
pub struct DeliveryPlan {
    routers: usize,
    hosts: usize,
    /// Entity `i` owns `ifaces[iface_base[i]..iface_base[i + 1]]`.
    iface_base: Vec<u32>,
    ifaces: Vec<IfacePlan>,
    /// Every medium's attachment list, back to back.
    receivers: Vec<Receiver>,
}

impl DeliveryPlan {
    /// Resolves every interface of `spec`.
    pub fn new(spec: &NetworkSpec) -> Self {
        let mut receivers = Vec::new();
        let lan_ranges: Vec<(u32, u32)> = spec
            .lans
            .iter()
            .zip(0u32..)
            .map(|(lan, li)| {
                let start = receivers.len() as u32;
                for &r in &lan.routers {
                    let on_lan = spec.routers[r.0 as usize].iface_on_lan(LanId(li));
                    if let Some((iface, ifspec)) = on_lan {
                        let entity = Entity::Router(r);
                        receivers.push(Receiver { entity, iface, addr: ifspec.addr });
                    }
                }
                for &h in &lan.hosts {
                    receivers.push(Receiver {
                        entity: Entity::Host(h),
                        iface: IfIndex(0),
                        addr: spec.hosts[h.0 as usize].addr,
                    });
                }
                (start, receivers.len() as u32)
            })
            .collect();

        let mut iface_base = Vec::with_capacity(spec.routers.len() + spec.hosts.len() + 1);
        let mut ifaces = Vec::new();
        for r in &spec.routers {
            iface_base.push(ifaces.len() as u32);
            for ifspec in &r.ifaces {
                let (medium, attached) = match ifspec.attachment {
                    Attachment::Lan(lan) => (Medium::Lan(lan), lan_ranges[lan.0 as usize]),
                    Attachment::Link { link, peer } => {
                        // The far end is the peer's interface on this
                        // very link: parallel links between one router
                        // pair must each land on their own interface.
                        let start = receivers.len() as u32;
                        let peer_ifaces = &spec.routers[peer.0 as usize].ifaces;
                        let far = peer_ifaces.iter().position(|pi| {
                            matches!(pi.attachment, Attachment::Link { link: l, .. } if l == link)
                        });
                        if let Some(n) = far {
                            receivers.push(Receiver {
                                entity: Entity::Router(peer),
                                iface: IfIndex(n as u32),
                                addr: peer_ifaces[n].addr,
                            });
                        }
                        (Medium::Link(link), (start, receivers.len() as u32))
                    }
                };
                ifaces.push(IfacePlan { medium, link_src: ifspec.addr, attached });
            }
        }
        for h in &spec.hosts {
            iface_base.push(ifaces.len() as u32);
            ifaces.push(IfacePlan {
                medium: Medium::Lan(h.lan),
                link_src: h.addr,
                attached: lan_ranges[h.lan.0 as usize],
            });
        }
        iface_base.push(ifaces.len() as u32);

        DeliveryPlan {
            routers: spec.routers.len(),
            hosts: spec.hosts.len(),
            iface_base,
            ifaces,
            receivers,
        }
    }

    /// How many entities the network has (routers + hosts).
    pub fn num_entities(&self) -> usize {
        self.routers + self.hosts
    }

    /// The dense index of `e` — routers at `[0, routers)`, hosts after
    /// — or `None` when the network has no such entity.
    pub fn index(&self, e: Entity) -> Option<usize> {
        match e {
            Entity::Router(r) => Some(r.0 as usize).filter(|&i| i < self.routers),
            Entity::Host(h) => {
                Some(h.0 as usize).filter(|&i| i < self.hosts).map(|i| self.routers + i)
            }
        }
    }

    /// Inverse of [`DeliveryPlan::index`].
    pub fn entity(&self, i: usize) -> Entity {
        if i < self.routers {
            Entity::Router(RouterId(i as u32))
        } else {
            Entity::Host(HostId((i - self.routers) as u32))
        }
    }

    /// Every entity, in index order (the same total order `Entity`
    /// derives).
    pub fn entities(&self) -> impl Iterator<Item = Entity> + '_ {
        (0..self.num_entities()).map(|i| self.entity(i))
    }

    /// Where a transmission by `from` on `iface` goes; `None` when
    /// `from` has no such interface.
    pub fn route(&self, from: Entity, iface: IfIndex) -> Option<Route<'_>> {
        let i = self.index(from)?;
        let at =
            self.iface_base[i].checked_add(iface.0).filter(|&at| at < self.iface_base[i + 1])?;
        let p = &self.ifaces[at as usize];
        Some(Route {
            medium: p.medium,
            link_src: p.link_src,
            from,
            attached: &self.receivers[p.attached.0 as usize..p.attached.1 as usize],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::NetworkBuilder;

    /// A two-router LAN with hosts (attach order R1 then R0, so attach
    /// order differs from id order), a stub host LAN behind R2, and two
    /// parallel links R0–R2.
    #[test]
    fn resolves_every_medium_like_the_world_did() {
        let mut b = NetworkBuilder::new();
        let (r0, r1, r2) = (b.router("R0"), b.router("R1"), b.router("R2"));
        let s0 = b.lan("S0");
        b.attach(s0, r1);
        b.attach(s0, r0);
        let (ha, hb) = (b.host("A", s0), b.host("B", s0));
        let s1 = b.lan("S1");
        b.attach(s1, r2);
        let hc = b.host("C", s1);
        b.link(r0, r2, 1);
        b.link(r0, r2, 1);
        let spec = b.build();
        let plan = DeliveryPlan::new(&spec);

        let (e0, e1, e2) = (Entity::Router(r0), Entity::Router(r1), Entity::Router(r2));
        let (ea, eb, ec) = (Entity::Host(ha), Entity::Host(hb), Entity::Host(hc));
        // The transmitting interface's own address.
        let src = |e: Entity, i: u32| match e {
            Entity::Router(r) => spec.routers[r.0 as usize].ifaces[i as usize].addr,
            Entity::Host(h) => spec.hosts[h.0 as usize].addr,
        };
        let nobody = Addr::from_octets(192, 0, 2, 1);

        // (what, sender, iface, link_dst, who hears on which interface;
        // `None` = no route at all)
        type Heard = Option<Vec<(Entity, u32)>>;
        let cases: [(&str, Entity, u32, Option<Addr>, Heard); 13] = [
            ("LAN broadcast, from a router", e0, 0, None, Some(vec![(e1, 0), (ea, 0), (eb, 0)])),
            ("LAN broadcast, from a host", ea, 0, None, Some(vec![(e1, 0), (e0, 0), (eb, 0)])),
            ("link_dst names a router", e0, 0, Some(src(e1, 0)), Some(vec![(e1, 0)])),
            ("link_dst names a host", ea, 0, Some(src(eb, 0)), Some(vec![(eb, 0)])),
            ("link_dst names nobody", e0, 0, Some(nobody), Some(vec![])),
            ("a host has only interface 0", ea, 1, None, None),
            ("a router's unknown interface", e0, 7, None, None),
            ("a stranger", Entity::Router(RouterId(9)), 0, None, None),
            ("stub LAN, from its router", e2, 0, None, Some(vec![(ec, 0)])),
            ("stub LAN, from its host", ec, 0, None, Some(vec![(e2, 0)])),
            ("first parallel link", e0, 1, None, Some(vec![(e2, 1)])),
            ("second parallel link", e0, 2, None, Some(vec![(e2, 2)])),
            ("and back; links ignore link_dst", e2, 2, Some(nobody), Some(vec![(e0, 2)])),
        ];
        for (what, from, iface, link_dst, want) in cases {
            let route = plan.route(from, IfIndex(iface));
            let heard: Heard = route
                .as_ref()
                .map(|r| r.heard_by(link_dst).map(|rx| (rx.entity, rx.iface.0)).collect());
            assert_eq!(heard, want, "{what}");
            if let Some(route) = route {
                assert_eq!(route.link_src, src(from, iface), "{what}: link-layer source");
            }
        }

        // Receiver order is the attach order `World` pushed arrivals
        // in: the LAN's routers as attached, then its hosts. (Every LAN
        // attachment of this topology is its owner's interface 0.)
        for (lan, li) in spec.lans.iter().zip(0u32..) {
            let attach_order: Vec<Entity> = lan
                .routers
                .iter()
                .map(|&r| Entity::Router(r))
                .chain(lan.hosts.iter().map(|&h| Entity::Host(h)))
                .collect();
            for &from in &attach_order {
                let route = plan.route(from, IfIndex(0)).unwrap();
                assert_eq!(route.medium, Medium::Lan(LanId(li)));
                let heard: Vec<Entity> = route.heard_by(None).map(|rx| rx.entity).collect();
                let want: Vec<Entity> =
                    attach_order.iter().copied().filter(|&e| e != from).collect();
                assert_eq!(heard, want, "{} as heard from {from}", lan.name);
            }
        }

        // The dense index: routers first, hosts after, and back.
        assert_eq!(plan.num_entities(), 6);
        assert_eq!(plan.entities().collect::<Vec<_>>(), vec![e0, e1, e2, ea, eb, ec]);
        for (i, e) in plan.entities().enumerate() {
            assert_eq!(plan.index(e), Some(i));
        }
        assert_eq!(plan.index(Entity::Host(HostId(3))), None);
    }
}
