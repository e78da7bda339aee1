//! Data-plane forwarding: native mode (§4), CBT mode (§5), the on-tree
//! bit (§7) and non-member sending (§5.1/§5.3).
//!
//! The handlers write into a caller-provided action buffer and read a
//! group's outgoing interfaces from its cached spanning entry
//! (`Span`), which only a control event can make stale, so the
//! steady-state forward path neither allocates nor sorts: the caller
//! drains and reuses one `Vec<RouterAction>`, packet payloads are
//! refcounted [`Bytes`](cbt_wire::data) handles, and a group lookup is
//! one binary search of the FIB's group column.

use crate::config::ForwardingMode;
use crate::engine::{CbtRouter, LanState};
use crate::events::RouterAction;
use crate::fib::{FibEntry, GroupSlot};
use cbt_netsim::SimTime;
use cbt_obs::DropReason;
use cbt_topology::IfIndex;
use cbt_wire::header::{OFF_TREE, ON_TREE};
use cbt_wire::{Addr, CbtDataPacket, DataPacket, GroupId};
use std::collections::BTreeMap;

/// One group's spanning entry: where a packet on its tree leaves this
/// router, worked out from the FIB entry, LAN presence and the G-DR
/// roles. All three change only under a control event, so the entry is
/// rebuilt at most once per control epoch (see [`CbtRouter::epoch`]),
/// not once per packet.
#[derive(Debug, Default)]
pub(crate) struct Span {
    /// Native outgoing interfaces, ascending and distinct; `true` marks
    /// a member LAN this router is the G-DR for.
    oifs: Vec<(IfIndex, bool)>,
    /// Parent and children as `(interface, address)`, ordered by
    /// interface.
    tree: Vec<(IfIndex, Addr)>,
    /// The control epoch the entry was built at.
    epoch: u64,
}

impl Span {
    /// Heap bytes the entry's two lists hold.
    pub(crate) fn mem_bytes(&self) -> usize {
        self.oifs.capacity() * size_of::<(IfIndex, bool)>()
            + self.tree.capacity() * size_of::<(IfIndex, Addr)>()
    }

    /// Recomputes the entry in place, keeping the vectors' capacity.
    fn build(&mut self, entry: &FibEntry, group: GroupId, lans: &BTreeMap<IfIndex, LanState>) {
        self.tree.clear();
        self.tree.extend(entry.parent.map(|p| (p.iface, p.addr)));
        self.tree.extend(entry.children.iter().map(|c| (c.iface, c.addr)));
        self.tree.sort_unstable();
        self.oifs.clear();
        self.oifs.extend(self.tree.iter().map(|&(iface, _)| (iface, false)));
        for (&lan, l) in lans {
            if l.presence.has_members(group) && l.gdr.contains(&group) {
                self.oifs.push((lan, true));
            }
        }
        self.oifs.sort_unstable();
        // A tree interface that is also a served member LAN is one send.
        self.oifs.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            kept.1 |= same && next.1;
            same
        });
    }
}

/// The CBT-mode send on one tree interface: a unicast to its lone
/// neighbour, or a CBT multicast where several share it (§5).
fn cbt_send((iface, lone): (IfIndex, Option<Addr>), pkt: CbtDataPacket) -> RouterAction {
    match lone {
        Some(dst) => RouterAction::SendCbtUnicast { iface, dst, pkt },
        None => RouterAction::SendCbtMulticast { iface, pkt },
    }
}

impl CbtRouter {
    /// A native (plain IP multicast) data packet arrived on `iface`
    /// from link-layer neighbour `link_src` (the sender's interface
    /// address on the shared medium — what the source MAC identifies
    /// on real Ethernet). Resulting sends are appended to `act`.
    pub(crate) fn receive_native_data(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        link_src: Addr,
        pkt: DataPacket,
        act: &mut Vec<RouterAction>,
    ) {
        if pkt.ttl == 0 {
            self.obs.drop_packet(DropReason::TtlExpired);
            return;
        }
        let group = pkt.group;
        let slot = self.fib.slot(group);
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
                || (self.i_am_dr(iface, now) && !self.is_proxied(iface, group));
            match slot {
                Some(slot) if responsible || self.fib.at(slot).is_tree_iface(iface) => {
                    self.forward_over_tree(group, slot, pkt, iface, act);
                }
                // §5.1/§5.3 non-member sending: the D-DR encapsulates
                // and unicasts toward a core for the group.
                None if responsible && self.i_am_dr(iface, now) => {
                    self.send_toward_core(group, &pkt, act);
                }
                _ => {
                    // A responsible router with no tree has no FIB state
                    // to forward with; an unresponsible one is outside
                    // its scope — another router owns this LAN's
                    // attachment.
                    self.obs.drop_packet(if responsible {
                        DropReason::NoFibEntry
                    } else {
                        DropReason::ScopeBoundary
                    });
                }
            }
            return;
        }

        // §7: forwarded native packets must arrive on a valid on-tree
        // interface — AND from the tree neighbour that interface points
        // at. On a multi-access segment several routers transmit; only
        // the branch parent/child counts, otherwise member-delivery
        // multicasts from a co-located G-DR would be mistaken for
        // branch traffic and amplified around shared-LAN cycles.
        match slot.filter(|&s| self.sent_by_tree_neighbor(s, iface, link_src)) {
            Some(slot) => self.forward_over_tree(group, slot, pkt, iface, act),
            None => {
                self.obs.drop_packet(DropReason::ScopeBoundary);
            }
        }
    }

    /// Did a packet arriving on `iface` from `src` come from the tree
    /// neighbour that interface points at (§7)?
    fn sent_by_tree_neighbor(&self, slot: GroupSlot, iface: IfIndex, src: Addr) -> bool {
        let e = self.fib.at(slot);
        e.parent.is_some_and(|p| p.iface == iface && p.addr == src)
            || e.children.iter().any(|c| c.iface == iface && c.addr == src)
    }

    /// A CBT-mode (encapsulated) data packet arrived, addressed to us
    /// (or CBT-multicast on a LAN). `outer_src` identifies the sending
    /// neighbour; `arrival` the interface. Sends are appended to `act`.
    pub(crate) fn receive_cbt_data(
        &mut self,
        arrival: IfIndex,
        outer_src: Addr,
        mut pkt: CbtDataPacket,
        act: &mut Vec<RouterAction>,
    ) {
        let group = pkt.cbt.group;
        let slot = self.fib.slot(group);
        if pkt.cbt.is_on_tree() {
            // §7: an on-tree packet arriving over a non-tree interface
            // — or from anyone but the tree neighbour behind that
            // interface — is a leak (or a loop): discard immediately.
            match slot.filter(|&s| self.sent_by_tree_neighbor(s, arrival, outer_src)) {
                Some(slot) => self.span_cbt(group, slot, pkt, Some(outer_src), act),
                None => {
                    self.obs.drop_packet(DropReason::ScopeBoundary);
                }
            }
        } else if let Some(slot) = slot {
            // Off-tree packet travelling from a non-member sender's DR
            // toward the tree (§5.1). The first on-tree router marks it.
            pkt.cbt.on_tree = ON_TREE;
            self.span_cbt(group, slot, pkt, Some(outer_src), act);
        } else {
            // We are the target core but have no tree (no members ever
            // joined): nowhere to deliver.
            self.obs.drop_packet(DropReason::NoFibEntry);
        }
    }

    /// Encapsulates a native packet and unicasts it toward the group's
    /// best-known core (§5.1/§5.3).
    fn send_toward_core(&mut self, group: GroupId, pkt: &DataPacket, act: &mut Vec<RouterAction>) {
        // First reachable core wins; no core known or none reachable
        // alike leave nowhere to send.
        let reachable = |core| Some((core, self.routes.hop_toward(core)?));
        let Some((core, hop)) = self.known_cores(group).find_map(reachable) else {
            self.obs.drop_packet(DropReason::NoFibEntry);
            return;
        };
        let mut enc = CbtDataPacket::encapsulate(pkt, core);
        enc.cbt.on_tree = OFF_TREE;
        self.obs.data_forwarded += 1;
        act.push(RouterAction::SendCbtUnicast { iface: hop.iface, dst: core, pkt: enc });
    }

    /// The spanning entry for `slot` (an index into `spans`), rebuilt
    /// first if a control event has run since it was built.
    fn span_index(&mut self, group: GroupId, slot: GroupSlot) -> usize {
        let i = slot.index();
        if i >= self.spans.len() {
            self.spans.resize_with(i + 1, Span::default);
        }
        let span = &mut self.spans[i];
        if span.epoch != self.epoch {
            span.build(self.fib.at(slot), group, &self.lans);
            span.epoch = self.epoch;
        }
        // The oracle: an entry built at the current epoch is exact.
        #[cfg(debug_assertions)]
        {
            self.span_check.build(self.fib.at(slot), group, &self.lans);
            let (cached, fresh) = (&self.spans[i], &self.span_check);
            assert!(
                cached.oifs == fresh.oifs && cached.tree == fresh.tree,
                "stale spanning entry for {group}: cached {cached:?}, recomputed {fresh:?}"
            );
        }
        i
    }

    /// Spans the tree with a packet that arrived on `arrival`, in the
    /// configured forwarding mode.
    fn forward_over_tree(
        &mut self,
        group: GroupId,
        slot: GroupSlot,
        pkt: DataPacket,
        arrival: IfIndex,
        act: &mut Vec<RouterAction>,
    ) {
        match self.cfg.mode {
            ForwardingMode::Native => self.forward_native(group, slot, pkt, arrival, act),
            ForwardingMode::CbtMode => {
                let core = self.fib.at(slot).primary_core().unwrap_or(Addr::NULL);
                let mut enc = CbtDataPacket::encapsulate(&pkt, core);
                enc.cbt.on_tree = ON_TREE;
                self.span_cbt(group, slot, enc, None, act);
            }
        }
    }

    /// Native-mode spanning (§4): one IP multicast per distinct tree
    /// interface (parent vif, child vifs) and per member subnet this
    /// router is the attachment (G-DR) for, except the interface of
    /// `arrival`. The packet is moved into the last branch's action, so
    /// N branches cost N-1 refcount clones, and it stays the packet
    /// that was decoded: the adapter can re-send its arrival frame
    /// patched instead of rebuilding it.
    fn forward_native(
        &mut self,
        group: GroupId,
        slot: GroupSlot,
        mut pkt: DataPacket,
        arrival: IfIndex,
        act: &mut Vec<RouterAction>,
    ) {
        if pkt.ttl <= 1 {
            // §5 boundary, unified with the CBT path: every native
            // re-send decrements, so a ttl=1 packet cannot travel
            // further — its LAN of arrival already heard the original
            // broadcast, which is the §4 local delivery.
            self.obs.drop_packet(DropReason::TtlExpired);
            return;
        }
        pkt.ttl -= 1;
        let span = self.span_index(group, slot);
        // Member-LAN sends among the fan-out count as a delivery —
        // unless the only one is the LAN of arrival, which is skipped.
        let mut delivered = false;
        let mut held = None;
        for &(iface, member) in self.spans[span].oifs.iter().filter(|&&(i, _)| i != arrival) {
            if let Some(prev) = held.replace(iface) {
                act.push(RouterAction::SendNativeData { iface: prev, pkt: pkt.clone() });
            }
            delivered |= member;
        }
        if let Some(iface) = held {
            act.push(RouterAction::SendNativeData { iface, pkt });
            self.obs.data_forwarded += 1;
            self.obs.data_delivered += u64::from(delivered);
        }
    }

    /// CBT-mode spanning (§5): per tree interface, CBT-unicast to a
    /// single neighbour or CBT-multicast when parent/children share it;
    /// member subnets get the decapsulated packet as a native multicast
    /// with TTL 1. `skip_neighbor` is the tree neighbour the packet
    /// came from.
    fn span_cbt(
        &mut self,
        group: GroupId,
        slot: GroupSlot,
        mut pkt: CbtDataPacket,
        skip_neighbor: Option<Addr>,
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
            return;
        }
        pkt.cbt.ip_ttl -= 1;
        let span = self.span_index(group, slot);
        let span = &self.spans[span];
        let members = span.oifs.iter().filter(|&&(_, member)| member);

        // Member subnets get the packet decapsulated, inner TTL forced
        // to 1 (§5). Zero-copy: the delivered payload views the
        // encapsulated inner datagram's refcounted buffer. A router
        // with no member LAN to serve — a transit router, a bare core —
        // never decodes it.
        let serves_members = span.oifs.iter().any(|&(_, member)| member);
        let native = if serves_members { pkt.decapsulate_for_delivery().ok() } else { None };

        // Tree neighbours, one send per interface in ascending order;
        // the packet itself goes out on the last.
        let mut neighbors = span.tree.iter().filter(|&&(_, a)| Some(a) != skip_neighbor).peekable();
        let mut held = None;
        while let Some(&(iface, dst)) = neighbors.next() {
            let mut lone = true;
            while neighbors.next_if(|&&(i, _)| i == iface).is_some() {
                lone = false;
            }
            if let Some(send) = held.replace((iface, lone.then_some(dst))) {
                act.push(cbt_send(send, pkt.clone()));
            }
        }
        let mut forwarded = held.is_some();
        if let Some(send) = held {
            act.push(cbt_send(send, pkt));
        }

        let mut delivered = false;
        if let Some(native) = native {
            for &(lan, _) in members {
                // Never send the packet back onto its source subnet
                // ("S10 received the IP style packet already from the
                // originator", §5).
                if !self.iface(lan).is_some_and(|i| i.contains(native.src)) {
                    act.push(RouterAction::SendNativeData { iface: lan, pkt: native.clone() });
                    delivered = true;
                    forwarded = true;
                }
            }
        }
        if forwarded {
            self.obs.data_forwarded += 1;
            self.obs.data_delivered += u64::from(delivered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::*;
    use crate::CbtConfig;
    use cbt_netsim::SimDuration;
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

    /// `pkt` as the member host on LAN if0 puts it on the wire.
    fn from_host(pkt: DataPacket) -> Input {
        Input::NativeData { iface: IfIndex(0), link_src: Addr::from_octets(10, 1, 0, 100), pkt }
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
        let msg = IgmpMessage::Report { version: 3, group: g() };
        e.feed(t(0), Input::Igmp { iface: IfIndex(0), src: Addr::from_octets(10, 1, 0, 100), msg });
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(2), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(e.is_on_tree(g()));
        assert!(e.is_gdr(IfIndex(0), g()));
        assert_eq!(e.children_of(g()).len(), 1);
        e
    }

    #[test]
    fn local_packet_fans_up_and_down_but_not_back() {
        let mut e = full_tree_engine(CbtConfig::default());
        let act = e.feed(t(5), from_host(host_pkt(16)));
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
        let act = e.feed(t(5), from_host(src_pkt));
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
        let pkt = host_pkt(16);
        e.step(t(5), from_host(pkt), &mut act);
        let first = act.len();
        assert!(first >= 2);
        let pkt = host_pkt(16);
        e.step(t(6), from_host(pkt), &mut act);
        assert_eq!(act.len(), first * 2, "second packet appends after the first");
    }

    #[test]
    fn packet_from_parent_reaches_child_and_members() {
        let mut e = full_tree_engine(CbtConfig::default());
        let remote = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 16, b"x".to_vec());
        let act = e.feed(
            t(5),
            Input::NativeData { iface: IfIndex(1), link_src: up_hop().addr, pkt: remote },
        );
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
        let act = e.feed(
            t(5),
            Input::NativeData {
                iface: IfIndex(0),
                link_src: Addr::from_octets(10, 1, 0, 2),
                pkt: rogue,
            },
        );
        assert!(act.is_empty());
        assert_eq!(e.obs().drops.get(DropReason::ScopeBoundary), 1);
    }

    #[test]
    fn ttl_expiry_discards() {
        let mut e = full_tree_engine(CbtConfig::default());
        let act = e.feed(t(5), from_host(host_pkt(1)));
        assert!(act.is_empty(), "TTL 1 cannot be forwarded");
        assert!(e.feed(t(5), from_host(host_pkt(0))).is_empty());
        assert_eq!(e.obs().drops.get(DropReason::TtlExpired), 2);
    }

    #[test]
    fn unknown_group_from_host_without_dr_role_is_dropped() {
        let mut e = engine(CbtConfig::default());
        // No cores known, but we are the DR: nothing can be done.
        let act = e.feed(t(5), from_host(host_pkt(16)));
        assert!(act.is_empty());
        assert_eq!(e.obs().drops.get(DropReason::NoFibEntry), 1);
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
        let act = e.feed(t(5), from_host(host_pkt(16)));
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
        e.lan_mut(IfIndex(0)).proxy.insert(g(), Addr::from_octets(10, 1, 0, 2));
        let act = e.feed(t(5), from_host(host_pkt(16)));
        assert!(act.is_empty(), "the G-DR on the LAN forwards; we must not duplicate");
    }

    #[test]
    fn cbt_mode_local_packet_spans_with_unicasts() {
        let mut e = full_tree_engine(CbtConfig::cbt_mode());
        let act = e.feed(t(5), from_host(host_pkt(16)));
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
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 8, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(
            t(3),
            Input::Control { iface: IfIndex(2), src: Addr::from_octets(172, 31, 0, 9), msg },
        );
        let act = e.feed(t(5), from_host(host_pkt(16)));
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
        let act =
            e.feed(t(5), Input::CbtData { iface: IfIndex(1), outer_src: up_hop().addr, pkt: enc });
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
        let act = e.feed(
            t(5),
            Input::CbtData {
                iface: IfIndex(0),
                outer_src: Addr::from_octets(10, 1, 0, 7),
                pkt: enc,
            },
        );
        assert!(act.is_empty(), "§7 wandering packet discarded");
        assert_eq!(e.obs().drops.get(DropReason::ScopeBoundary), 1);
    }

    #[test]
    fn off_tree_cbt_packet_joins_the_tree_here() {
        let mut e = full_tree_engine(CbtConfig::cbt_mode());
        let native = DataPacket::new(Addr::from_octets(10, 77, 0, 5), g(), 16, b"ns".to_vec());
        let enc = CbtDataPacket::encapsulate(&native, core_a()); // OFF_TREE
                                                                 // Arrives over a non-tree path (unicast toward the core crossed
                                                                 // us first).
        let act = e.feed(
            t(5),
            Input::CbtData {
                iface: IfIndex(2),
                outer_src: Addr::from_octets(172, 31, 0, 9),
                pkt: enc,
            },
        );
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
        let act =
            e.feed(t(5), Input::CbtData { iface: IfIndex(1), outer_src: up_hop().addr, pkt: enc });
        assert!(act.is_empty(), "target core without a tree: no receivers exist");
        assert_eq!(e.obs().drops.get(DropReason::NoFibEntry), 1);
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
            let msg = ControlMessage::JoinRequest {
                subcode: JoinSubcode::ActiveJoin,
                group: g(),
                origin: Addr::from_octets(10, 7, 0, last),
                target_core: core_a(),
                cores: vec![core_a()],
            };
            e.feed(
                t(3),
                Input::Control { iface: IfIndex(0), src: Addr::from_octets(10, 1, 0, last), msg },
            );
        }
        // Data arrives from the parent.
        let native = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 16, b"x".to_vec());
        let mut enc = CbtDataPacket::encapsulate(&native, core_a());
        enc.cbt.on_tree = ON_TREE;
        let act =
            e.feed(t(5), Input::CbtData { iface: IfIndex(1), outer_src: up_hop().addr, pkt: enc });
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
        let act =
            e.feed(t(5), Input::CbtData { iface: IfIndex(1), outer_src: up_hop().addr, pkt: enc });
        assert!(
            act.is_empty(),
            "an expired CBT packet is dropped whole: no transit, no member delivery"
        );
        assert_eq!(e.obs().drops.get(DropReason::TtlExpired), 1, "expiry lands in the taxonomy");
        assert_eq!(e.obs().drops.total(), 1, "the packet died here");
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
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(0), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(e.is_on_tree(g()));
        let native = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 1, b"x".to_vec());
        let mut enc = CbtDataPacket::encapsulate(&native, core_a());
        enc.cbt.on_tree = ON_TREE;
        let act =
            e.feed(t(5), Input::CbtData { iface: IfIndex(1), outer_src: up_hop().addr, pkt: enc });
        assert!(act.is_empty(), "no members and no viable transit: packet dies here");
        assert_eq!(e.obs().drops.get(DropReason::TtlExpired), 1);
        assert_eq!(e.obs().drops.total(), 1, "counted once");
    }

    #[test]
    fn native_transit_ttl_one_is_dropped_symmetrically() {
        // Satellite fix: native-mode transit used to forward a ttl==1
        // packet with ttl 0 on the wire while CBT mode dropped it. Both
        // paths now apply `ttl <= 1 ⇒ expired` and count TtlExpired.
        let mut e = full_tree_engine(CbtConfig::default());
        let pkt = DataPacket::new(Addr::from_octets(10, 9, 0, 100), g(), 1, b"x".to_vec());
        let act =
            e.feed(t(5), Input::NativeData { iface: IfIndex(1), link_src: up_hop().addr, pkt });
        assert!(act.is_empty(), "ttl=1 transit packet must not be forwarded (§4)");
        assert_eq!(e.obs().drops.get(DropReason::TtlExpired), 1);
        assert_eq!(e.obs().drops.total(), 1, "counted once");
    }

    /// The forward path as it was before spanning entries, kept as the
    /// model: the handlers' gates, then every packet's outgoing
    /// interfaces worked out afresh from the FIB entry, the LANs and the
    /// G-DR set, sorted and deduplicated. Read-only, so it can run
    /// beside the engine it models.
    mod reference {
        use super::*;

        pub(crate) fn native(
            e: &CbtRouter,
            now: SimTime,
            iface: IfIndex,
            link_src: Addr,
            pkt: DataPacket,
        ) -> Vec<RouterAction> {
            let mut act = Vec::new();
            let group = pkt.group;
            let entry = e.fib.get(group);
            if pkt.ttl == 0 {
                return act;
            }
            let local_origin =
                e.iface(iface).is_some_and(|i| i.contains(pkt.src)) && link_src == pkt.src;
            if local_origin {
                let responsible = e.is_gdr(iface, group)
                    || (e.i_am_dr(iface, now) && !e.is_proxied(iface, group));
                let arrival_is_tree = entry.is_some_and(|en| en.is_tree_iface(iface));
                if entry.is_some() && (responsible || arrival_is_tree) {
                    over_tree(e, pkt, iface, &mut act);
                } else if responsible && e.i_am_dr(iface, now) && entry.is_none() {
                    toward_core(e, &pkt, &mut act);
                }
            } else if entry.is_some_and(|en| from_neighbor(en, iface, link_src)) {
                over_tree(e, pkt, iface, &mut act);
            }
            act
        }

        pub(crate) fn cbt(
            e: &CbtRouter,
            arrival: IfIndex,
            outer_src: Addr,
            mut pkt: CbtDataPacket,
        ) -> Vec<RouterAction> {
            let mut act = Vec::new();
            let Some(entry) = e.fib.get(pkt.cbt.group) else { return act };
            if pkt.cbt.is_on_tree() {
                if !from_neighbor(entry, arrival, outer_src) {
                    return act;
                }
            } else {
                pkt.cbt.on_tree = ON_TREE;
            }
            span_cbt(e, pkt, Some(outer_src), &mut act);
            act
        }

        fn from_neighbor(en: &FibEntry, iface: IfIndex, src: Addr) -> bool {
            en.parent.is_some_and(|p| p.iface == iface && p.addr == src)
                || en.children.iter().any(|c| c.iface == iface && c.addr == src)
        }

        fn toward_core(e: &CbtRouter, pkt: &DataPacket, act: &mut Vec<RouterAction>) {
            for core in e.cores_for(pkt.group).unwrap_or_default() {
                if let Some(hop) = e.routes.hop_toward(core) {
                    let mut enc = CbtDataPacket::encapsulate(pkt, core);
                    enc.cbt.on_tree = OFF_TREE;
                    act.push(RouterAction::SendCbtUnicast {
                        iface: hop.iface,
                        dst: core,
                        pkt: enc,
                    });
                    return;
                }
            }
        }

        fn over_tree(
            e: &CbtRouter,
            pkt: DataPacket,
            arrival: IfIndex,
            act: &mut Vec<RouterAction>,
        ) {
            match e.cfg.mode {
                ForwardingMode::Native => native_span(e, pkt, arrival, act),
                ForwardingMode::CbtMode => {
                    let entry = e.fib.get(pkt.group).expect("on tree");
                    let core = entry.primary_core().unwrap_or(Addr::NULL);
                    let mut enc = CbtDataPacket::encapsulate(&pkt, core);
                    enc.cbt.on_tree = ON_TREE;
                    span_cbt(e, enc, None, act);
                }
            }
        }

        /// Member LANs this router serves for `group`, ascending.
        fn member_lans(e: &CbtRouter, group: GroupId) -> Vec<IfIndex> {
            let lans = e.lans.iter();
            lans.filter(|(&lan, l)| l.presence.has_members(group) && e.is_gdr(lan, group))
                .map(|(&lan, _)| lan)
                .collect()
        }

        fn native_span(
            e: &CbtRouter,
            mut pkt: DataPacket,
            skip: IfIndex,
            act: &mut Vec<RouterAction>,
        ) {
            if pkt.ttl <= 1 {
                return;
            }
            let entry = e.fib.get(pkt.group).expect("on tree");
            let mut ifaces: Vec<IfIndex> = entry.parent.map(|p| p.iface).into_iter().collect();
            ifaces.extend(entry.children.iter().map(|c| c.iface));
            ifaces.extend(member_lans(e, pkt.group));
            ifaces.sort_unstable();
            ifaces.dedup();
            ifaces.retain(|i| *i != skip);
            pkt.ttl -= 1;
            for iface in ifaces {
                act.push(RouterAction::SendNativeData { iface, pkt: pkt.clone() });
            }
        }

        fn span_cbt(
            e: &CbtRouter,
            mut pkt: CbtDataPacket,
            skip_neighbor: Option<Addr>,
            act: &mut Vec<RouterAction>,
        ) {
            if pkt.cbt.ip_ttl <= 1 {
                return;
            }
            pkt.cbt.ip_ttl -= 1;
            let group = pkt.cbt.group;
            let entry = e.fib.get(group).expect("on tree");
            let mut neighbors: Vec<(IfIndex, Addr)> =
                entry.parent.map(|p| (p.iface, p.addr)).into_iter().collect();
            neighbors.extend(entry.children.iter().map(|c| (c.iface, c.addr)));
            neighbors.retain(|&(_, a)| Some(a) != skip_neighbor);
            neighbors.sort_unstable_by_key(|&(iface, _)| iface);
            for run in neighbors.chunk_by(|a, b| a.0 == b.0) {
                act.push(match *run {
                    [(iface, dst)] => RouterAction::SendCbtUnicast { iface, dst, pkt: pkt.clone() },
                    _ => RouterAction::SendCbtMulticast { iface: run[0].0, pkt: pkt.clone() },
                });
            }
            if let Ok(native) = pkt.decapsulate_for_delivery() {
                for lan in member_lans(e, group) {
                    if !e.iface(lan).is_some_and(|i| i.contains(native.src)) {
                        act.push(RouterAction::SendNativeData { iface: lan, pkt: native.clone() });
                    }
                }
            }
        }
    }

    /// Steps one non-data input and checks the rule the spanning
    /// entries rest on: it moved the epoch.
    fn control(e: &mut CbtRouter, now: SimTime, input: Input, act: &mut Vec<RouterAction>) {
        let before = e.epoch;
        e.step(now, input, act);
        assert!(e.epoch > before, "a control input left the epoch at {before}");
    }

    /// Cached spanning entries against the per-packet model, in both
    /// forwarding modes, over random interleavings of joins and acks,
    /// children adopted and quitting, echoes, flushes, IGMP reports and
    /// leaves, local membership and timers (presence, child and parent
    /// expiry), with data from the parent, a child, a LAN child and a
    /// member host. Two groups share the FIB, so slots get reused.
    ///
    /// A control input that skipped its epoch bump shows up as a
    /// mismatch after the next packet. Local joins and leaves only ever
    /// create or drop whole entries, whose slots are stale by then
    /// anyway, so for those two the epoch check in `control` is what
    /// fails.
    #[test]
    fn cached_spans_forward_exactly_like_the_per_packet_model() {
        let host = Addr::from_octets(10, 1, 0, 100);
        let remote = Addr::from_octets(10, 9, 0, 100);
        let parent = up_hop().addr;
        for mode in [ForwardingMode::Native, ForwardingMode::CbtMode] {
            let mut e = engine(CbtConfig::fast().with_mode(mode));
            let mut map = BTreeMap::new();
            map.insert(core_a(), up_hop());
            set_routes(&mut e, map);
            let groups = [g(), GroupId::numbered(2)];
            for group in groups {
                e.learn_cores(group, &[core_a()]);
            }
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut rnd = move |n: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n
            };
            let mut now = SimTime::ZERO;
            let mut act = Vec::new();
            // Data packets that went somewhere; native sends onto the
            // LAN; CBT multicasts; a CBT branch send and a native one
            // on the LAN for the same packet.
            let mut seen = [0usize; 4];
            for step in 0..20_000 {
                now += SimDuration::from_millis(rnd(400));
                let group = groups[rnd(2) as usize];
                let lan_child = Addr::from_octets(10, 1, 0, 2 + rnd(2) as u8);
                let (child_iface, child) =
                    [(IfIndex(2), down_addr()), (IfIndex(0), lan_child)][rnd(2) as usize];
                let cores = vec![core_a()];
                act.clear();
                let host_igmp = |msg| Input::Igmp { iface: IfIndex(0), src: host, msg };
                let from_parent = |msg| Input::Control { iface: IfIndex(1), src: parent, msg };
                let from_child = |msg| Input::Control { iface: child_iface, src: child, msg };
                let input = match rnd(16) {
                    0 => host_igmp(IgmpMessage::Report { version: 3, group }),
                    1 => host_igmp(IgmpMessage::Leave { group }),
                    2 => from_parent(ControlMessage::JoinAck {
                        subcode: AckSubcode::Normal,
                        group,
                        origin: Addr::from_octets(10, 1, 0, 1),
                        target_core: core_a(),
                        cores,
                    }),
                    3 => from_child(ControlMessage::JoinRequest {
                        subcode: JoinSubcode::ActiveJoin,
                        group,
                        origin: Addr::from_octets(10, 7, 0, 1),
                        target_core: core_a(),
                        cores,
                    }),
                    4 => from_child(ControlMessage::QuitRequest { group, origin: child }),
                    5 => from_child(ControlMessage::EchoRequest {
                        group,
                        origin: child,
                        group_mask: None,
                    }),
                    6 => from_parent(ControlMessage::EchoReply {
                        group,
                        origin: parent,
                        group_mask: None,
                    }),
                    7 if rnd(4) == 0 => {
                        from_parent(ControlMessage::FlushTree { group, origin: parent })
                    }
                    8 | 9 => {
                        // Jump to the next deadline: presence, children
                        // and parents expire here when nothing refreshed
                        // them.
                        now = now.max(e.next_wakeup().unwrap_or(now));
                        Input::Timer
                    }
                    10 if rnd(2) == 0 => Input::Join(group),
                    10 => Input::Leave(group),
                    _ => {
                        let (iface, link_src, src) = match rnd(4) {
                            0 => (IfIndex(0), host, host),
                            1 => (IfIndex(1), parent, remote),
                            2 => (IfIndex(2), down_addr(), remote),
                            _ => (IfIndex(0), lan_child, remote),
                        };
                        let ttl = [1, 2, 16][rnd(3) as usize];
                        let pkt = DataPacket::new(src, group, ttl, b"x".to_vec());
                        let want = if rnd(2) == 0 {
                            let want = reference::native(&e, now, iface, link_src, pkt.clone());
                            e.step(now, Input::NativeData { iface, link_src, pkt }, &mut act);
                            want
                        } else {
                            let mut enc = CbtDataPacket::encapsulate(&pkt, core_a());
                            enc.cbt.on_tree = if rnd(4) == 0 { OFF_TREE } else { ON_TREE };
                            let want = reference::cbt(&e, iface, link_src, enc.clone());
                            let input = Input::CbtData { iface, outer_src: link_src, pkt: enc };
                            e.step(now, input, &mut act);
                            want
                        };
                        assert_eq!(act, want, "{mode:?}, step {step}: {group} from {link_src}");
                        let delivered = act.iter().any(|a| {
                            matches!(a, RouterAction::SendNativeData { iface: IfIndex(0), .. })
                        });
                        let branch = act.iter().any(|a| {
                            matches!(
                                a,
                                RouterAction::SendCbtUnicast { iface: IfIndex(0), .. }
                                    | RouterAction::SendCbtMulticast { iface: IfIndex(0), .. }
                            )
                        });
                        seen[0] += usize::from(!act.is_empty());
                        seen[1] += usize::from(delivered);
                        seen[2] += usize::from(
                            act.iter().any(|a| matches!(a, RouterAction::SendCbtMulticast { .. })),
                        );
                        seen[3] += usize::from(delivered && branch);
                        continue;
                    }
                };
                control(&mut e, now, input, &mut act);
            }
            println!("{mode:?}: {seen:?}");
            assert!(seen.iter().all(|&n| n >= 20), "{mode:?}: the walk stayed shallow: {seen:?}");
        }
    }
}
