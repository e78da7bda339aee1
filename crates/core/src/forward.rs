//! Data-plane forwarding: native mode (§4), CBT mode (§5), the on-tree
//! bit (§7) and non-member sending (§5.1/§5.3).
//!
//! The handlers write into a caller-provided action buffer and draw all
//! per-packet working storage from scratch collections on the router,
//! so the steady-state forward path performs no heap allocation: the
//! caller drains and reuses one `Vec<RouterAction>`, packet payloads
//! are refcounted [`Bytes`](cbt_wire::data) handles, and group lookups
//! go through the memoised dense FIB slot.

use crate::config::ForwardingMode;
use crate::engine::CbtRouter;
use crate::events::RouterAction;
use cbt_netsim::SimTime;
use cbt_obs::DropReason;
use cbt_topology::IfIndex;
use cbt_wire::header::{OFF_TREE, ON_TREE};
use cbt_wire::{Addr, CbtDataPacket, DataPacket, GroupId};

impl CbtRouter {
    /// A native (plain IP multicast) data packet arrived on `iface`
    /// from link-layer neighbour `link_src` (the sender's interface
    /// address on the shared medium — what the source MAC identifies
    /// on real Ethernet). Resulting sends are appended to `act`.
    pub fn handle_native_data(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        link_src: Addr,
        pkt: DataPacket,
        act: &mut Vec<RouterAction>,
    ) {
        if pkt.ttl == 0 {
            self.stats.data_discarded += 1;
            self.obs.drop_packet(DropReason::TtlExpired);
            return;
        }
        let group = pkt.group;
        let slot = self.fib_slot_cached(group);
        // "Sourced locally" (§5) means the originating host itself put
        // the packet on this wire — the link sender IS the IP source.
        let local_origin =
            self.iface(iface).is_some_and(|i| i.contains(pkt.src)) && link_src == pkt.src;

        if local_origin {
            // First-hop duties for a packet sourced on this subnet (§5).
            // Who picks it up?
            //
            //  * the LAN's responsible router — the group-specific DR,
            //    or failing that the default DR (-02 §2.2: "only one
            //    router, the DR, forward[s] to and from upstream to
            //    avoid loops") — which owns the member-LAN attachment;
            //  * any on-tree router whose TREE interface is this LAN
            //    (the LAN is a branch segment): the broadcast is its
            //    tree copy, since the skip-arrival rule means no tree
            //    neighbour will re-send it onto this LAN.
            //
            // Everyone else discards, or the tree carries duplicates.
            let responsible = self.is_gdr(iface, group)
                || (self.i_am_dr(iface, now) && !self.proxy_handled.contains_key(&(iface, group)));
            let arrival_is_tree = slot.is_some_and(|s| self.fib.at(s).is_tree_iface(iface));
            if slot.is_some() && (responsible || arrival_is_tree) {
                self.forward_over_tree(now, group, pkt, Some(iface), None, act);
            } else if responsible && self.i_am_dr(iface, now) && slot.is_none() {
                // §5.1/§5.3 non-member sending: the D-DR encapsulates
                // and unicasts toward a core for the group.
                self.send_toward_core(group, &pkt, act);
            } else {
                self.stats.data_discarded += 1;
                // A responsible router with no tree has no FIB state to
                // forward with; an unresponsible one is outside its
                // scope — another router owns this LAN's attachment.
                self.obs.drop_packet(if responsible {
                    DropReason::NoFibEntry
                } else {
                    DropReason::ScopeBoundary
                });
            }
            return;
        }

        // §7: forwarded native packets must arrive on a valid on-tree
        // interface — AND from the tree neighbour that interface points
        // at. On a multi-access segment several routers transmit; only
        // the branch parent/child counts, otherwise member-delivery
        // multicasts from a co-located G-DR would be mistaken for
        // branch traffic and amplified around shared-LAN cycles.
        let valid = slot.is_some_and(|s| {
            let e = self.fib.at(s);
            e.parent.is_some_and(|p| p.iface == iface && p.addr == link_src)
                || e.children.iter().any(|c| c.iface == iface && c.addr == link_src)
        });
        if valid {
            self.forward_over_tree(now, group, pkt, Some(iface), None, act);
        } else {
            self.stats.data_discarded += 1;
            self.obs.drop_packet(DropReason::ScopeBoundary);
        }
    }

    /// A CBT-mode (encapsulated) data packet arrived, addressed to us
    /// (or CBT-multicast on a LAN). `outer_src` identifies the sending
    /// neighbour; `arrival` the interface. Sends are appended to `act`.
    pub fn handle_cbt_data(
        &mut self,
        now: SimTime,
        arrival: IfIndex,
        outer_src: Addr,
        mut pkt: CbtDataPacket,
        act: &mut Vec<RouterAction>,
    ) {
        let group = pkt.cbt.group;
        let slot = self.fib_slot_cached(group);
        if pkt.cbt.is_on_tree() {
            // §7: an on-tree packet arriving over a non-tree interface
            // — or from anyone but the tree neighbour behind that
            // interface — is a leak (or a loop): discard immediately.
            let valid = slot.is_some_and(|s| {
                let e = self.fib.at(s);
                e.parent.is_some_and(|p| p.iface == arrival && p.addr == outer_src)
                    || e.children.iter().any(|c| c.iface == arrival && c.addr == outer_src)
            });
            if !valid {
                self.stats.data_discarded += 1;
                self.obs.drop_packet(DropReason::ScopeBoundary);
                return;
            }
            self.span_cbt(now, group, pkt, Some(outer_src), Some(arrival), act);
        } else {
            // Off-tree packet travelling from a non-member sender's DR
            // toward the tree (§5.1). The first on-tree router marks it.
            if slot.is_some() {
                pkt.cbt.on_tree = ON_TREE;
                self.span_cbt(now, group, pkt, Some(outer_src), None, act);
            } else {
                // We are the target core but have no tree (no members
                // ever joined): nowhere to deliver.
                self.stats.data_discarded += 1;
                self.obs.drop_packet(DropReason::NoFibEntry);
            }
        }
    }

    /// Encapsulates a native packet and unicasts it toward the group's
    /// best-known core (§5.1/§5.3).
    fn send_toward_core(&mut self, group: GroupId, pkt: &DataPacket, act: &mut Vec<RouterAction>) {
        let Some(cores) = self.cores_for(group) else {
            self.stats.data_discarded += 1;
            self.obs.drop_packet(DropReason::NoFibEntry);
            return;
        };
        // First reachable core wins.
        for core in cores {
            if let Some(hop) = self.routes.hop_toward(core) {
                let mut enc = CbtDataPacket::encapsulate(pkt, core);
                enc.cbt.on_tree = OFF_TREE;
                self.stats.data_forwarded += 1;
                self.obs.data_forwarded += 1;
                act.push(RouterAction::SendCbtUnicast { iface: hop.iface, dst: core, pkt: enc });
                return;
            }
        }
        self.stats.data_discarded += 1;
        self.obs.drop_packet(DropReason::NoFibEntry);
    }

    /// Spans the tree with a packet that is on it, in the configured
    /// forwarding mode. `skip_neighbor` suppresses the tree neighbour
    /// the packet came from; `skip_iface` suppresses re-multicasting
    /// onto the arrival subnet.
    fn forward_over_tree(
        &mut self,
        now: SimTime,
        group: GroupId,
        pkt: DataPacket,
        skip_iface: Option<IfIndex>,
        skip_neighbor: Option<Addr>,
        act: &mut Vec<RouterAction>,
    ) {
        match self.cfg.mode {
            ForwardingMode::Native => {
                self.forward_native(group, pkt, skip_iface, act);
            }
            ForwardingMode::CbtMode => {
                let core = self
                    .fib_slot_cached(group)
                    .and_then(|s| self.fib.at(s).primary_core())
                    .unwrap_or(Addr::NULL);
                let mut enc = CbtDataPacket::encapsulate(&pkt, core);
                enc.cbt.on_tree = ON_TREE;
                self.span_cbt(now, group, enc, skip_neighbor, skip_iface, act);
            }
        }
    }

    /// Native-mode spanning (§4): one IP multicast per distinct tree
    /// interface (parent vif, child vifs) and per member subnet this
    /// router is the attachment (G-DR) for. The packet is moved into
    /// the last branch's action, so N branches cost N-1 refcount
    /// clones, and it stays the packet that was decoded: the adapter
    /// can re-send its arrival frame patched instead of rebuilding it.
    fn forward_native(
        &mut self,
        group: GroupId,
        mut pkt: DataPacket,
        skip_iface: Option<IfIndex>,
        act: &mut Vec<RouterAction>,
    ) {
        let Some(slot) = self.fib_slot_cached(group) else {
            // Unreachable from the guarded call sites (they check the
            // slot first), but a FIB miss here must never be silent.
            self.stats.data_discarded += 1;
            self.obs.drop_packet(DropReason::NoFibEntry);
            return;
        };
        if pkt.ttl <= 1 {
            // §5 boundary, unified with the CBT path: every native
            // re-send decrements, so a ttl=1 packet cannot travel
            // further — its LAN of arrival already heard the original
            // broadcast, which is the §4 local delivery.
            self.stats.data_discarded += 1;
            self.obs.drop_packet(DropReason::TtlExpired);
            return;
        }
        let mut ifaces = std::mem::take(&mut self.scratch_ifaces);
        ifaces.clear();
        {
            let entry = self.fib.at(slot);
            if let Some(p) = entry.parent {
                ifaces.push(p.iface);
            }
            for c in &entry.children {
                ifaces.push(c.iface);
            }
        }
        // Member-LAN sends among the fan-out count as a delivery —
        // unless the only one is the LAN of arrival, skipped below.
        let mut delivered = false;
        for (&lan, l) in &self.lans {
            if l.presence.has_members(group) && self.is_gdr(lan, group) {
                ifaces.push(lan);
                delivered |= skip_iface != Some(lan);
            }
        }
        // Sorted + deduped: same deterministic emission order as the
        // BTreeSet this replaced, without its per-packet node allocs.
        ifaces.sort_unstable();
        ifaces.dedup();
        if let Some(skip) = skip_iface {
            ifaces.retain(|i| *i != skip);
        }
        pkt.ttl -= 1;
        let sent = ifaces.len();
        if let Some((&last, rest)) = ifaces.split_last() {
            for &iface in rest {
                act.push(RouterAction::SendNativeData { iface, pkt: pkt.clone() });
            }
            act.push(RouterAction::SendNativeData { iface: last, pkt });
        }
        self.scratch_ifaces = ifaces;
        if sent > 0 {
            self.stats.data_forwarded += 1;
            self.obs.data_forwarded += 1;
            self.obs.data_delivered += u64::from(delivered);
        }
    }

    /// CBT-mode spanning (§5): per tree interface, CBT-unicast to a
    /// single neighbour or CBT-multicast when parent/children share it;
    /// member subnets get the decapsulated packet as a native multicast
    /// with TTL 1.
    fn span_cbt(
        &mut self,
        _now: SimTime,
        group: GroupId,
        mut pkt: CbtDataPacket,
        skip_neighbor: Option<Addr>,
        _arrival: Option<IfIndex>,
        act: &mut Vec<RouterAction>,
    ) {
        // §5/§8.1: the CBT header TTL is decremented by every CBT hop.
        // A packet arriving with ttl <= 1 has no hop left to spend: it
        // neither transits nor reaches local member LANs, exactly as a
        // native packet expiring at this router would not — the TTL
        // radius is hop-for-hop identical in both modes (pinned by
        // tests/ttl_scoping.rs). §5's "inner TTL forced to 1" applies
        // to the decapsulated copy of a packet that still has hops, not
        // to one that already expired in flight. The same `ttl <= 1 ⇒
        // expired` boundary governs native transit; both count the loss.
        if pkt.cbt.ip_ttl <= 1 {
            self.obs.drop_packet(DropReason::TtlExpired);
            self.stats.data_discarded += 1;
            return;
        }
        pkt.cbt.ip_ttl -= 1;
        let Some(slot) = self.fib_slot_cached(group) else {
            // Unreachable from the guarded call sites, but never silent.
            self.stats.data_discarded += 1;
            self.obs.drop_packet(DropReason::NoFibEntry);
            return;
        };

        let mut forwarded = false;
        // Collect tree neighbours, then group by interface (ascending,
        // matching the order of the BTreeMap this replaced).
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        neighbors.clear();
        {
            let entry = self.fib.at(slot);
            if let Some(p) = entry.parent {
                if Some(p.addr) != skip_neighbor {
                    neighbors.push((p.iface, p.addr));
                }
            }
            for c in &entry.children {
                if Some(c.addr) != skip_neighbor {
                    neighbors.push((c.iface, c.addr));
                }
            }
        }
        neighbors.sort_unstable_by_key(|(iface, _)| *iface);

        let mut i = 0;
        while i < neighbors.len() {
            let iface = neighbors[i].0;
            let mut j = i + 1;
            while j < neighbors.len() && neighbors[j].0 == iface {
                j += 1;
            }
            if j - i == 1 {
                act.push(RouterAction::SendCbtUnicast {
                    iface,
                    dst: neighbors[i].1,
                    pkt: pkt.clone(),
                });
            } else {
                // §5 "CBT multicasting": several tree neighbours
                // behind one interface.
                act.push(RouterAction::SendCbtMulticast { iface, pkt: pkt.clone() });
            }
            forwarded = true;
            i = j;
        }
        self.scratch_neighbors = neighbors;

        // Member subnets: decapsulate, inner TTL forced to 1 (§5).
        // Zero-copy: the delivered payload views the encapsulated inner
        // datagram's refcounted buffer.
        let mut delivered = false;
        if let Ok(native) = pkt.decapsulate_for_delivery() {
            for (&lan, l) in &self.lans {
                if l.presence.has_members(group) && self.is_gdr(lan, group) {
                    // Never send the packet back onto its source subnet
                    // ("S10 received the IP style packet already from
                    // the originator", §5).
                    let src_is_here = self.iface(lan).is_some_and(|i| i.contains(native.src));
                    if !src_is_here {
                        act.push(RouterAction::SendNativeData { iface: lan, pkt: native.clone() });
                        delivered = true;
                        forwarded = true;
                    }
                }
            }
        }
        if forwarded {
            self.stats.data_forwarded += 1;
            self.obs.data_forwarded += 1;
            if delivered {
                self.obs.data_delivered += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::*;
    use crate::CbtConfig;
    use cbt_wire::{AckSubcode, ControlMessage, IgmpMessage, JoinSubcode};
    use std::collections::BTreeMap;

    fn g() -> GroupId {
        GroupId::numbered(1)
    }

    fn core_a() -> Addr {
        Addr::from_octets(10, 255, 0, 77)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn host_pkt(ttl: u8) -> DataPacket {
        DataPacket::new(Addr::from_octets(10, 1, 0, 100), g(), ttl, b"data".to_vec())
    }

    /// Drives `handle_native_data` through a fresh action buffer, the
    /// way pre-out-param callers did.
    fn native_data(
        e: &mut CbtRouter,
        now: SimTime,
        iface: IfIndex,
        link_src: Addr,
        pkt: DataPacket,
    ) -> Vec<RouterAction> {
        let mut act = Vec::new();
        e.handle_native_data(now, iface, link_src, pkt, &mut act);
        act
    }

    /// Same for `handle_cbt_data`.
    fn cbt_data(
        e: &mut CbtRouter,
        now: SimTime,
        arrival: IfIndex,
        outer_src: Addr,
        pkt: CbtDataPacket,
    ) -> Vec<RouterAction> {
        let mut act = Vec::new();
        e.handle_cbt_data(now, arrival, outer_src, pkt, &mut act);
        act
    }

    /// On-tree engine with parent via if1, one child via if2, members +
    /// G-DR on LAN if0.
    fn full_tree_engine(cfg: CbtConfig) -> CbtRouter {
        let mut e = engine(cfg);
        let mut map = BTreeMap::new();
        map.insert(core_a(), up_hop());
        set_routes(&mut e, map);
        e.learn_cores(g(), &[core_a()]);
        // Local member (also makes us G-DR when the join completes).
        e.handle_igmp(
            t(0),
            IfIndex(0),
            Addr::from_octets(10, 1, 0, 100),
            IgmpMessage::Report { version: 3, group: g() },
        );
        e.handle_control(
            t(1),
            IfIndex(1),
            up_hop().addr,
            ControlMessage::JoinAck {
                subcode: AckSubcode::Normal,
                group: g(),
                origin: Addr::from_octets(10, 1, 0, 1),
                target_core: core_a(),
                cores: vec![core_a()],
            },
        );
        e.handle_control(
            t(2),
            IfIndex(2),
            down_addr(),
            ControlMessage::JoinRequest {
                subcode: JoinSubcode::ActiveJoin,
                group: g(),
                origin: Addr::from_octets(10, 9, 0, 1),
                target_core: core_a(),
                cores: vec![core_a()],
            },
        );
        assert!(e.is_on_tree(g()));
        assert!(e.is_gdr(IfIndex(0), g()));
        assert_eq!(e.children_of(g()).len(), 1);
        e
    }

    #[test]
    fn local_packet_fans_up_and_down_but_not_back() {
        let mut e = full_tree_engine(CbtConfig::default());
        let act =
            native_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 100), host_pkt(16));
        let ifaces: Vec<IfIndex> = act
            .iter()
            .filter_map(|a| match a {
                RouterAction::SendNativeData { iface, .. } => Some(*iface),
                _ => None,
            })
            .collect();
        assert!(ifaces.contains(&IfIndex(1)), "toward parent");
        assert!(ifaces.contains(&IfIndex(2)), "toward child");
        assert!(!ifaces.contains(&IfIndex(0)), "never back onto the source subnet");
        // TTL decremented once.
        for a in &act {
            if let RouterAction::SendNativeData { pkt, .. } = a {
                assert_eq!(pkt.ttl, 15);
            }
        }
    }

    #[test]
    fn fanned_out_copies_share_the_payload_allocation() {
        let mut e = full_tree_engine(CbtConfig::default());
        let src_pkt = host_pkt(16);
        let original_payload = src_pkt.payload.clone();
        let act = native_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 100), src_pkt);
        let payloads: Vec<_> = act
            .iter()
            .filter_map(|a| match a {
                RouterAction::SendNativeData { pkt, .. } => Some(&pkt.payload),
                _ => None,
            })
            .collect();
        assert!(payloads.len() >= 2, "parent + child branches");
        for p in payloads {
            assert!(
                p.shares_allocation_with(&original_payload),
                "per-branch copies must be refcount clones, not deep copies"
            );
        }
    }

    #[test]
    fn action_buffer_is_appended_not_replaced() {
        // Callers drain one reusable buffer; the handler must append.
        let mut e = full_tree_engine(CbtConfig::default());
        let mut act = Vec::new();
        e.handle_native_data(
            t(5),
            IfIndex(0),
            Addr::from_octets(10, 1, 0, 100),
            host_pkt(16),
            &mut act,
        );
        let first = act.len();
        assert!(first >= 2);
        e.handle_native_data(
            t(6),
            IfIndex(0),
            Addr::from_octets(10, 1, 0, 100),
            host_pkt(16),
            &mut act,
        );
        assert_eq!(act.len(), first * 2, "second packet appends after the first");
    }

    #[test]
    fn packet_from_parent_reaches_child_and_members() {
        let mut e = full_tree_engine(CbtConfig::default());
        let remote = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 16, b"x".to_vec());
        let act = native_data(&mut e, t(5), IfIndex(1), up_hop().addr, remote);
        let ifaces: Vec<IfIndex> = act
            .iter()
            .filter_map(|a| match a {
                RouterAction::SendNativeData { iface, .. } => Some(*iface),
                _ => None,
            })
            .collect();
        assert!(ifaces.contains(&IfIndex(2)), "down to the child");
        assert!(ifaces.contains(&IfIndex(0)), "onto the member LAN (we are G-DR)");
        assert!(!ifaces.contains(&IfIndex(1)), "not back to the parent");
    }

    #[test]
    fn off_tree_arrival_is_discarded() {
        let mut e = full_tree_engine(CbtConfig::default());
        // if0 is a member LAN, not a tree iface; a *forwarded* (non-
        // local-origin) packet arriving there violates §7.
        let rogue = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 16, b"x".to_vec());
        let act = native_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 2), rogue);
        assert!(act.is_empty());
        assert_eq!(e.stats().data_discarded, 1);
    }

    #[test]
    fn ttl_expiry_discards() {
        let mut e = full_tree_engine(CbtConfig::default());
        let act =
            native_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 100), host_pkt(1));
        assert!(act.is_empty(), "TTL 1 cannot be forwarded");
        assert!(native_data(
            &mut e,
            t(5),
            IfIndex(0),
            Addr::from_octets(10, 1, 0, 100),
            host_pkt(0)
        )
        .is_empty());
        assert_eq!(e.stats().data_discarded, 2);
    }

    #[test]
    fn unknown_group_from_host_without_dr_role_is_dropped() {
        let mut e = engine(CbtConfig::default());
        // No cores known, but we are the DR: nothing can be done.
        let act =
            native_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 100), host_pkt(16));
        assert!(act.is_empty());
        assert_eq!(e.stats().data_discarded, 1);
    }

    #[test]
    fn non_member_sender_dr_encapsulates_toward_core() {
        let mut e = engine(CbtConfig::default());
        let mut map = BTreeMap::new();
        map.insert(core_a(), up_hop());
        set_routes(&mut e, map);
        e.learn_cores(g(), &[core_a()]);
        // Off-tree, D-DR of if0, host sends to a group with no local
        // members: §5.1/§5.3.
        let act =
            native_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 100), host_pkt(16));
        assert_eq!(act.len(), 1);
        match &act[0] {
            RouterAction::SendCbtUnicast { iface, dst, pkt } => {
                assert_eq!(*iface, IfIndex(1));
                assert_eq!(*dst, core_a(), "unicast to the core itself");
                assert_eq!(pkt.cbt.on_tree, OFF_TREE);
                assert_eq!(pkt.cbt.group, g());
                assert_eq!(pkt.cbt.origin, Addr::from_octets(10, 1, 0, 100));
            }
            other => panic!("expected CBT unicast, got {other:?}"),
        }
    }

    #[test]
    fn proxy_handled_group_suppresses_dr_encapsulation() {
        let mut e = engine(CbtConfig::default());
        let mut map = BTreeMap::new();
        map.insert(core_a(), up_hop());
        set_routes(&mut e, map);
        e.learn_cores(g(), &[core_a()]);
        e.proxy_handled.insert((IfIndex(0), g()), Addr::from_octets(10, 1, 0, 2));
        let act =
            native_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 100), host_pkt(16));
        assert!(act.is_empty(), "the G-DR on the LAN forwards; we must not duplicate");
    }

    #[test]
    fn cbt_mode_local_packet_spans_with_unicasts() {
        let mut e = full_tree_engine(CbtConfig::cbt_mode());
        let act =
            native_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 100), host_pkt(16));
        let unicasts: Vec<(&IfIndex, &Addr)> = act
            .iter()
            .filter_map(|a| match a {
                RouterAction::SendCbtUnicast { iface, dst, .. } => Some((iface, dst)),
                _ => None,
            })
            .collect();
        assert_eq!(unicasts.len(), 2, "parent + child, each alone on its iface");
        for a in &act {
            if let RouterAction::SendCbtUnicast { pkt, .. } = a {
                assert!(pkt.cbt.is_on_tree(), "first on-tree router sets the bit (§7)");
                assert_eq!(pkt.cbt.ip_ttl, 15, "CBT TTL decremented (§5)");
            }
        }
    }

    #[test]
    fn cbt_mode_multicasts_when_children_share_iface() {
        let mut e = full_tree_engine(CbtConfig::cbt_mode());
        // Second child behind the same interface as the first.
        e.handle_control(
            t(3),
            IfIndex(2),
            Addr::from_octets(172, 31, 0, 9),
            ControlMessage::JoinRequest {
                subcode: JoinSubcode::ActiveJoin,
                group: g(),
                origin: Addr::from_octets(10, 8, 0, 1),
                target_core: core_a(),
                cores: vec![core_a()],
            },
        );
        let act =
            native_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 100), host_pkt(16));
        assert!(
            act.iter()
                .any(|a| matches!(a, RouterAction::SendCbtMulticast { iface: IfIndex(2), .. })),
            "two children on if2 ⇒ CBT multicast (§5)"
        );
        assert!(
            act.iter().any(|a| matches!(a, RouterAction::SendCbtUnicast { iface: IfIndex(1), .. })),
            "parent alone on if1 ⇒ CBT unicast"
        );
    }

    #[test]
    fn cbt_data_from_parent_delivers_members_and_children() {
        let mut e = full_tree_engine(CbtConfig::cbt_mode());
        let native = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 16, b"x".to_vec());
        let mut enc = CbtDataPacket::encapsulate(&native, core_a());
        enc.cbt.on_tree = ON_TREE;
        let act = cbt_data(&mut e, t(5), IfIndex(1), up_hop().addr, enc);
        assert!(
            act.iter().any(|a| matches!(a, RouterAction::SendCbtUnicast { iface: IfIndex(2), .. })),
            "down to the child"
        );
        let member_delivery = act.iter().find_map(|a| match a {
            RouterAction::SendNativeData { iface: IfIndex(0), pkt } => Some(pkt),
            _ => None,
        });
        let delivered = member_delivery.expect("member LAN gets native delivery");
        assert_eq!(delivered.ttl, 1, "§5: inner TTL set to one");
        assert!(
            !act.iter()
                .any(|a| matches!(a, RouterAction::SendCbtUnicast { iface: IfIndex(1), .. })),
            "not back to the parent"
        );
    }

    #[test]
    fn on_tree_cbt_packet_on_wrong_iface_discarded() {
        let mut e = full_tree_engine(CbtConfig::cbt_mode());
        let native = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 16, b"x".to_vec());
        let mut enc = CbtDataPacket::encapsulate(&native, core_a());
        enc.cbt.on_tree = ON_TREE;
        // Arrives on the member LAN (if0) — not a tree interface.
        let act = cbt_data(&mut e, t(5), IfIndex(0), Addr::from_octets(10, 1, 0, 7), enc);
        assert!(act.is_empty(), "§7 wandering packet discarded");
        assert_eq!(e.stats().data_discarded, 1);
    }

    #[test]
    fn off_tree_cbt_packet_joins_the_tree_here() {
        let mut e = full_tree_engine(CbtConfig::cbt_mode());
        let native = DataPacket::new(Addr::from_octets(10, 77, 0, 5), g(), 16, b"ns".to_vec());
        let enc = CbtDataPacket::encapsulate(&native, core_a()); // OFF_TREE
                                                                 // Arrives over a non-tree path (unicast toward the core crossed
                                                                 // us first).
        let act = cbt_data(&mut e, t(5), IfIndex(2), Addr::from_octets(172, 31, 0, 9), enc);
        assert!(!act.is_empty(), "we are on-tree: the packet spans from here");
        for a in &act {
            if let RouterAction::SendCbtUnicast { pkt, .. } = a {
                assert!(pkt.cbt.is_on_tree(), "bit set at the first on-tree router");
            }
        }
    }

    #[test]
    fn off_tree_cbt_packet_at_off_tree_router_dropped() {
        let mut e = engine(CbtConfig::cbt_mode());
        let native = DataPacket::new(Addr::from_octets(10, 77, 0, 5), g(), 16, b"ns".to_vec());
        let enc = CbtDataPacket::encapsulate(&native, core_a());
        let act = cbt_data(&mut e, t(5), IfIndex(1), up_hop().addr, enc);
        assert!(act.is_empty(), "target core without a tree: no receivers exist");
        assert_eq!(e.stats().data_discarded, 1);
    }

    /// §5: "it is possible that an IP-style multicast and a CBT
    /// multicast will be forwarded over a particular subnetwork" — a
    /// LAN that is both a tree branch (two children) and a member
    /// subnet gets both encapsulations.
    #[test]
    fn lan_carries_both_cbt_multicast_and_native_delivery() {
        let mut e = full_tree_engine(CbtConfig::cbt_mode());
        // Two children ON THE LAN iface (if0) — addresses in its subnet.
        for last in [2u8, 3] {
            e.handle_control(
                t(3),
                IfIndex(0),
                Addr::from_octets(10, 1, 0, last),
                ControlMessage::JoinRequest {
                    subcode: JoinSubcode::ActiveJoin,
                    group: g(),
                    origin: Addr::from_octets(10, 7, 0, last),
                    target_core: core_a(),
                    cores: vec![core_a()],
                },
            );
        }
        // Data arrives from the parent.
        let native = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 16, b"x".to_vec());
        let mut enc = CbtDataPacket::encapsulate(&native, core_a());
        enc.cbt.on_tree = ON_TREE;
        let act = cbt_data(&mut e, t(5), IfIndex(1), up_hop().addr, enc);
        assert!(
            act.iter()
                .any(|a| matches!(a, RouterAction::SendCbtMulticast { iface: IfIndex(0), .. })),
            "two children behind if0 ⇒ one CBT multicast on the subnet"
        );
        assert!(
            act.iter().any(|a| matches!(a, RouterAction::SendNativeData { iface: IfIndex(0), .. })),
            "member presence on the same subnet ⇒ a native multicast too (§5)"
        );
    }

    #[test]
    fn cbt_ttl_expiry() {
        // Unified TTL rule: a CBT packet arriving with ip_ttl == 1 has no
        // hop left — it neither transits nor reaches this router's member
        // LANs, exactly as a native packet expiring here would not. The
        // TTL radius is hop-for-hop identical across forwarding modes
        // (the composition is pinned end-to-end by tests/ttl_scoping.rs).
        let mut e = full_tree_engine(CbtConfig::cbt_mode());
        let native = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 1, b"x".to_vec());
        let mut enc = CbtDataPacket::encapsulate(&native, core_a());
        enc.cbt.on_tree = ON_TREE;
        assert_eq!(enc.cbt.ip_ttl, 1);
        let act = cbt_data(&mut e, t(5), IfIndex(1), up_hop().addr, enc);
        assert!(
            act.is_empty(),
            "an expired CBT packet is dropped whole: no transit, no member delivery"
        );
        assert_eq!(e.obs().drops.get(DropReason::TtlExpired), 1, "expiry lands in the taxonomy");
        assert_eq!(e.stats().data_discarded, 1, "the packet died here");
    }

    #[test]
    fn cbt_ttl_expiry_without_members_discards() {
        // Same expired packet at a router with no local members: transit is
        // suppressed and there is no member LAN to deliver to, so the
        // packet dies here and is counted once under TtlExpired.
        let mut e = engine(CbtConfig::cbt_mode());
        let mut map = BTreeMap::new();
        map.insert(core_a(), up_hop());
        set_routes(&mut e, map);
        e.learn_cores(g(), &[core_a()]);
        // A child's join (no local IGMP members), acked by the parent.
        e.handle_control(
            t(0),
            IfIndex(2),
            down_addr(),
            ControlMessage::JoinRequest {
                subcode: JoinSubcode::ActiveJoin,
                group: g(),
                origin: Addr::from_octets(10, 9, 0, 1),
                target_core: core_a(),
                cores: vec![core_a()],
            },
        );
        e.handle_control(
            t(1),
            IfIndex(1),
            up_hop().addr,
            ControlMessage::JoinAck {
                subcode: AckSubcode::Normal,
                group: g(),
                origin: Addr::from_octets(10, 9, 0, 1),
                target_core: core_a(),
                cores: vec![core_a()],
            },
        );
        assert!(e.is_on_tree(g()));
        let native = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 1, b"x".to_vec());
        let mut enc = CbtDataPacket::encapsulate(&native, core_a());
        enc.cbt.on_tree = ON_TREE;
        let act = cbt_data(&mut e, t(5), IfIndex(1), up_hop().addr, enc);
        assert!(act.is_empty(), "no members and no viable transit: packet dies here");
        assert_eq!(e.obs().drops.get(DropReason::TtlExpired), 1);
        assert_eq!(e.stats().data_discarded, 1);
    }

    #[test]
    fn native_transit_ttl_one_is_dropped_symmetrically() {
        // Satellite fix: native-mode transit used to forward a ttl==1
        // packet with ttl 0 on the wire while CBT mode dropped it. Both
        // paths now apply `ttl <= 1 ⇒ expired` and count TtlExpired.
        let mut e = full_tree_engine(CbtConfig::default());
        let pkt = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 1, b"x".to_vec());
        let act = native_data(&mut e, t(5), IfIndex(1), up_hop().addr, pkt);
        assert!(act.is_empty(), "ttl=1 transit packet must not be forwarded (§4)");
        assert_eq!(e.obs().drops.get(DropReason::TtlExpired), 1);
        assert_eq!(e.stats().data_discarded, 1);
    }
}
