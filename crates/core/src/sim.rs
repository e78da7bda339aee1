//! Adapters that run the sans-I/O engine inside the deterministic
//! simulator: [`RouterNode`] (a CBT router with an IP forwarding plane)
//! and [`HostApp`] (an end-system running IGMP plus a tiny multicast
//! application).
//!
//! Everything on the wire is a complete IPv4 datagram built by
//! `cbt-wire`, so the trace sees exactly what a packet capture would.

use crate::engine::{ctl_kind, RouteHandle, RouteLookup};
use crate::events::{Input, RouterAction};
use crate::payload::Deliveries;
use crate::shard::ShardedRouter;
use cbt_igmp::{HostMembership, IgmpTimers};
use cbt_netsim::{Bytes, Outbox, SimNode, SimTime};
use cbt_obs::{DropReason, ObsSnapshot};
use cbt_routing::Rib;
use cbt_topology::IfIndex;
use cbt_wire::data::PAYLOAD_OFFSET;
use cbt_wire::ipv4::{split_datagram, write_datagram_with_ttl};
use cbt_wire::{
    encode_native_into, Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage,
    IpProto, Ipv4Header, UdpHeader, WireError, CBT_AUX_PORT, CBT_PRIMARY_PORT,
};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, RwLock};

/// Builds one frame in place: takes a buffer from `out`'s pool (a
/// recycled one where the consumer recycles, see [`Outbox::buffer`]),
/// lets `write` — a `cbt-wire` write-into encoder, which replaces the
/// buffer's stale contents — fill it, and freezes it. The buffer's
/// `Vec` is taken once per frame: each taking is an atomic
/// read-modify-write on the buffer's refcount.
fn build_frame(out: &mut Outbox, write: impl FnOnce(&mut Vec<u8>)) -> Bytes {
    let mut buf = out.buffer();
    write(buf.as_mut_vec());
    buf.freeze()
}

/// A CBT router in the simulator: the protocol engine plus the plain
/// IP forwarding plane that carries multi-hop unicasts (joins are
/// neighbour-to-neighbour, but off-tree data to a core and the direct
/// REJOIN-NACTIVE ack cross several hops).
pub struct RouterNode {
    engine: ShardedRouter,
    rib: RouteHandle<Rib>,
    /// Reusable action buffer every engine step writes into
    /// (see [`RouterNode::drive`]); drained by [`RouterNode::emit`],
    /// its capacity persists across packets so the steady-state
    /// forward path never reallocates it.
    act_buf: Vec<RouterAction>,
}

impl RouterNode {
    /// Builds the node: engine plus forwarding plane, both consulting
    /// the same shared RIB.
    pub fn new(
        net: &cbt_topology::NetworkSpec,
        me: cbt_topology::RouterId,
        cfg: crate::CbtConfig,
        rib: RouteHandle<Rib>,
        now: SimTime,
    ) -> Self {
        let engine = ShardedRouter::new(net, me, cfg, || Box::new(rib.clone()), now);
        RouterNode { engine, rib, act_buf: Vec::new() }
    }

    /// Builds the node as shard `index` of an `total`-way sharded
    /// router: it owns exactly one engine shard and expects its caller
    /// (the live plane's steering fabric) to feed it only the frames
    /// its shard owns — plus the broadcast ones, which it processes
    /// with shard-0-only emission so the deployment sends each
    /// group-less message once.
    pub fn new_shard_slice(
        net: &cbt_topology::NetworkSpec,
        me: cbt_topology::RouterId,
        cfg: crate::CbtConfig,
        rib: RouteHandle<Rib>,
        now: SimTime,
        index: usize,
        total: usize,
    ) -> Self {
        let engine = ShardedRouter::slice(net, me, cfg, Box::new(rib.clone()), now, index, total);
        RouterNode { engine, rib, act_buf: Vec::new() }
    }

    /// The sharded steering front (all shards): the one way into the
    /// router's engines.
    pub fn sharded(&self) -> &ShardedRouter {
        &self.engine
    }

    /// Mutable access to the sharded steering front.
    pub fn sharded_mut(&mut self) -> &mut ShardedRouter {
        &mut self.engine
    }

    /// Steps the engine with one input against the reusable action
    /// buffer and puts what it emitted on the wire. Inlined, so each
    /// call site's input kind is known where `step` matches on it.
    #[inline]
    fn drive(&mut self, now: SimTime, input: Input, out: &mut Outbox) {
        let mut actions = std::mem::take(&mut self.act_buf);
        self.engine.step(now, input, &mut actions);
        self.emit(&mut actions, out);
        self.act_buf = actions;
    }

    /// Turns engine actions into frames, draining `actions` so the
    /// caller's buffer (and its capacity) can be reused for the next
    /// packet. Every frame is written in place into a buffer from
    /// `out`'s pool ([`build_frame`]) — no scratch copy, and where the
    /// consumer recycles (the simulator) no allocation.
    fn emit(&mut self, actions: &mut Vec<RouterAction>, out: &mut Outbox) {
        let mut actions = actions.drain(..).peekable();
        while let Some(a) = actions.next() {
            match a {
                RouterAction::SendControl { iface, dst, msg } => {
                    let src = self.iface_addr(iface);
                    let mut buf = out.buffer();
                    let encoded = msg.write_datagram(src, dst, 64, buf.as_mut_vec());
                    let frame = buf.freeze();
                    if encoded.is_err() {
                        // An *encode* failure, filed under the codec's
                        // one reason. Unreachable for engine-built
                        // messages (core lists are clamped at
                        // ingestion), but an unencodable message must
                        // be counted, not silently skipped.
                        self.engine.obs_mut().drop_packet(DropReason::DecodeError);
                        out.recycle(frame);
                        continue;
                    }
                    out.groups.sent(msg.group().addr().0, ctl_kind(msg.control_type()));
                    self.emit_frame(iface, dst, frame, out);
                }
                RouterAction::SendIgmp { iface, dst, msg } => {
                    let src = self.iface_addr(iface);
                    let frame = build_frame(out, |buf| msg.write_datagram(src, dst, buf));
                    self.emit_frame(iface, dst, frame, out);
                }
                RouterAction::SendNativeData { mut iface, pkt } => {
                    // The original datagram travels unchanged (§4) bar
                    // the TTL: a transit packet is its arrival frame
                    // copied and patched, only a locally built one is
                    // encoded. Native spanning pushes one action per
                    // branch interface, all clones of one packet
                    // (recognised by identity, not by comparing
                    // payloads): they share the frame, by refcount.
                    let frame = build_frame(out, |buf| pkt.write_frame(buf));
                    let same_frame = |a: &RouterAction| {
                        matches!(a, RouterAction::SendNativeData { pkt: p, .. }
                            if p.shares_frame_with(&pkt))
                    };
                    while let Some(RouterAction::SendNativeData { iface: next, .. }) =
                        actions.next_if(same_frame)
                    {
                        out.send(iface, frame.clone());
                        iface = next;
                    }
                    out.send(iface, frame);
                }
                RouterAction::SendCbtUnicast { iface, dst, pkt } => {
                    let src = self.iface_addr(iface);
                    let frame = build_frame(out, |buf| pkt.wrap_unicast_into(src, dst, None, buf));
                    self.emit_frame(iface, dst, frame, out);
                }
                RouterAction::SendCbtMulticast { iface, pkt } => {
                    // Outer source differs per interface, so CBT
                    // multicasts cannot share a frame.
                    let src = self.iface_addr(iface);
                    let frame = build_frame(out, |buf| pkt.wrap_multicast_into(src, buf));
                    out.send(iface, frame);
                }
            }
        }
    }

    fn iface_addr(&self, iface: IfIndex) -> Addr {
        self.engine.iface(iface).map(|i| i.addr).unwrap_or(self.engine.id_addr())
    }

    /// Sends a frame out `iface`, resolving the link-layer destination
    /// the way ARP + a routing lookup would.
    fn emit_frame(&mut self, iface: IfIndex, ip_dst: Addr, frame: Bytes, out: &mut Outbox) {
        let Some(info) = self.engine.iface(iface) else {
            // The engine named an interface this router does not have.
            return self.drop_unroutable(frame, out);
        };
        if info.lan.is_none() || ip_dst.is_multicast() {
            out.send(iface, frame);
        } else if info.contains(ip_dst) {
            out.send_to(iface, ip_dst, frame);
        } else if let Some(hop) = self.rib.hop_toward(ip_dst) {
            // Off-subnet unicast: frame goes to the next hop's address.
            out.send_to(iface, hop.addr, frame);
        } else {
            // No route: dropped, like a real router with no ARP entry.
            self.drop_unroutable(frame, out);
        }
    }

    /// Counts a built frame that has nowhere to go and hands its buffer
    /// back.
    fn drop_unroutable(&mut self, frame: Bytes, out: &mut Outbox) {
        self.engine.obs_mut().drop_packet(DropReason::NoFibEntry);
        out.recycle(frame);
    }

    /// Plain IP forwarding for unicasts not addressed to us: `frame`
    /// (whose validated header is `hdr`) goes on unchanged bar the TTL.
    fn ip_forward(&mut self, hdr: Ipv4Header, frame: &[u8], out: &mut Outbox) {
        if hdr.ttl <= 1 {
            self.engine.obs_mut().drop_packet(DropReason::TtlExpired);
            return;
        }
        let Some(hop) = self.rib.hop_toward(hdr.dst) else {
            self.engine.obs_mut().drop_packet(DropReason::NoFibEntry);
            return;
        };
        let datagram = &frame[..usize::from(hdr.total_len)];
        let next = build_frame(out, |buf| write_datagram_with_ttl(datagram, hdr.ttl - 1, buf));
        self.emit_frame(hop.iface, hdr.dst, next, out);
    }

    /// Zero-copy view of `sub` (a subslice of `frame`'s backing bytes)
    /// as a refcounted handle into the same allocation.
    fn subslice(frame: &Bytes, sub: &[u8]) -> Bytes {
        let off = sub.as_ptr() as usize - frame.as_ptr() as usize;
        frame.slice(off..off + sub.len())
    }

    /// Classifies a parse failure into the drop taxonomy: checksum
    /// rejections are distinguished from every other malformation.
    fn count_decode_failure(&mut self, e: &WireError) {
        let reason = match e {
            WireError::BadChecksum { .. } => DropReason::ChecksumBad,
            _ => DropReason::DecodeError,
        };
        self.engine.obs_mut().drop_packet(reason);
    }
}

impl SimNode for RouterNode {
    fn on_packet(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        link_src: Addr,
        frame: &Bytes,
        out: &mut Outbox,
    ) {
        let hdr_body = match split_datagram(frame) {
            Ok(v) => v,
            Err(e) => {
                self.count_decode_failure(&e);
                return;
            }
        };
        let (hdr, body) = hdr_body;
        // No group address is mine: data skips the address-set probe.
        let mine = !hdr.dst.is_multicast() && self.engine.is_my_addr(hdr.dst);
        match hdr.proto {
            IpProto::Igmp => match IgmpMessage::decode(body) {
                Ok(msg) => self.drive(now, Input::Igmp { iface, src: hdr.src, msg }, out),
                Err(e) => self.count_decode_failure(&e),
            },
            IpProto::Udp => {
                match UdpHeader::unwrap(body) {
                    Ok((udp, payload))
                        if udp.dst_port == CBT_PRIMARY_PORT || udp.dst_port == CBT_AUX_PORT =>
                    {
                        if mine {
                            match ControlMessage::decode(payload) {
                                Ok(msg) => {
                                    // Past the engine's own-address check.
                                    if !self.engine.is_my_addr(hdr.src) {
                                        let (g, k) = (msg.group(), msg.control_type());
                                        out.groups.received(g.addr().0, ctl_kind(k));
                                    }
                                    let input = Input::Control { iface, src: hdr.src, msg };
                                    self.drive(now, input, out)
                                }
                                Err(e) => self.count_decode_failure(&e),
                            }
                        } else if !hdr.dst.is_multicast() {
                            self.ip_forward(hdr, frame, out);
                        }
                    }
                    Ok((udp, _)) => {
                        if hdr.dst.is_multicast() {
                            // Both headers are validated above; the
                            // packet is views into the frame, nothing
                            // is parsed, summed or copied again.
                            match DataPacket::from_validated(frame, &hdr, &udp) {
                                Ok(pkt) => {
                                    self.drive(now, Input::NativeData { iface, link_src, pkt }, out)
                                }
                                Err(e) => self.count_decode_failure(&e),
                            }
                        } else if !mine {
                            self.ip_forward(hdr, frame, out);
                        }
                    }
                    Err(e) => self.count_decode_failure(&e), // corrupted in flight
                }
            }
            IpProto::Cbt => {
                let payload = Self::subslice(frame, body);
                if mine || hdr.dst.is_multicast() {
                    match CbtDataPacket::decode_payload_bytes(&payload) {
                        Ok(pkt) => {
                            self.drive(now, Input::CbtData { iface, outer_src: hdr.src, pkt }, out)
                        }
                        Err(e) => self.count_decode_failure(&e),
                    }
                } else {
                    // §7: an off-tree encapsulated packet travelling
                    // toward a core is intercepted by the FIRST on-tree
                    // router on its path ("until the data packet
                    // reaches an on-tree router — at this point, the
                    // router must convert [on-tree] to 0xff"), not only
                    // by the addressed core.
                    let intercept =
                        CbtDataPacket::decode_payload_bytes(&payload).ok().filter(|p| {
                            !p.cbt.is_on_tree()
                                && self.engine.shard_for(p.cbt.group).is_on_tree(p.cbt.group)
                        });
                    if let Some(pkt) = intercept {
                        self.drive(now, Input::CbtData { iface, outer_src: hdr.src, pkt }, out);
                    } else {
                        self.ip_forward(hdr, frame, out);
                    }
                }
            }
            IpProto::IpIp => {
                if !mine {
                    self.ip_forward(hdr, frame, out);
                }
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut Outbox) {
        self.drive(now, Input::Timer, out);
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.engine.next_wakeup()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An application-level operation a host performs at a given time.
#[derive(Debug, Clone)]
enum HostOp {
    Join { group: GroupId, cores: Vec<Addr>, target_core_index: u8 },
    Leave { group: GroupId },
    Send { group: GroupId, payload: Vec<u8>, ttl: u8 },
}

/// An end-system in the simulator: IGMP membership plus a scriptable
/// multicast application that records what it receives.
pub struct HostApp {
    addr: Addr,
    membership: HostMembership,
    /// Pending operations, ascending by instant; same-instant ones in
    /// the order they were scheduled.
    schedule: VecDeque<(SimTime, HostOp)>,
    received: Deliveries,
    tree_joined: Vec<(SimTime, GroupId, Addr)>,
}

impl HostApp {
    /// A host at `addr` speaking IGMP `version`.
    pub fn new(addr: Addr, igmp_version: u8, timers: IgmpTimers) -> Self {
        HostApp {
            addr,
            membership: HostMembership::new(addr, igmp_version, timers),
            schedule: VecDeque::new(),
            received: Deliveries::default(),
            tree_joined: Vec::new(),
        }
    }

    /// Schedules a group join (unsolicited report + RP/Core-Report) at
    /// `at`.
    pub fn join_at(&mut self, at: SimTime, group: GroupId, cores: Vec<Addr>) {
        self.join_at_with_target(at, group, cores, 0);
    }

    /// Schedules a join that steers toward a specific core in the list.
    pub fn join_at_with_target(
        &mut self,
        at: SimTime,
        group: GroupId,
        cores: Vec<Addr>,
        target_core_index: u8,
    ) {
        self.schedule_op(at, HostOp::Join { group, cores, target_core_index });
    }

    /// Schedules a leave at `at`.
    pub fn leave_at(&mut self, at: SimTime, group: GroupId) {
        self.schedule_op(at, HostOp::Leave { group });
    }

    /// Schedules a data transmission at `at`.
    pub fn send_at(&mut self, at: SimTime, group: GroupId, payload: impl Into<Vec<u8>>, ttl: u8) {
        self.schedule_op(at, HostOp::Send { group, payload: payload.into(), ttl });
    }

    /// Inserts after every operation due at or before `at`: the queue
    /// stays sorted and same-instant operations keep call order. The
    /// usual append-in-time-order is a search plus a push at the back.
    fn schedule_op(&mut self, at: SimTime, op: HostOp) {
        let i = self.schedule.partition_point(|(t, _)| *t <= at);
        self.schedule.insert(i, (at, op));
    }

    /// Everything the application has received.
    pub fn received(&self) -> &Deliveries {
        &self.received
    }

    /// An O(1) snapshot of everything received (see
    /// [`Deliveries::snapshot`]).
    pub fn received_snapshot(&mut self) -> Deliveries {
        self.received.snapshot()
    }

    /// Tree-joined notifications heard from the DR (§2.5 proposal).
    pub fn tree_joined_events(&self) -> &[(SimTime, GroupId, Addr)] {
        &self.tree_joined
    }

    /// Is this host currently a member of `group`?
    pub fn is_member(&self, group: GroupId) -> bool {
        self.membership.is_member(group)
    }

    /// This host's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    fn emit_igmp(&self, outs: Vec<cbt_igmp::IgmpOut>, out: &mut Outbox) {
        for o in outs {
            let frame = build_frame(out, |buf| o.msg.write_datagram(self.addr, o.dst, buf));
            out.send(IfIndex(0), frame);
        }
    }
}

impl SimNode for HostApp {
    fn on_packet(
        &mut self,
        now: SimTime,
        _iface: IfIndex,
        _link_src: Addr,
        frame: &Bytes,
        out: &mut Outbox,
    ) {
        let Ok((hdr, body)) = split_datagram(frame) else { return };
        match hdr.proto {
            IpProto::Igmp => {
                if let Ok(msg) = IgmpMessage::decode(body) {
                    if let IgmpMessage::TreeJoined { group, core } = msg {
                        self.tree_joined.push((now, group, core));
                    } else {
                        self.membership.on_igmp(&msg, now);
                    }
                    let due = self.membership.poll(now);
                    self.emit_igmp(due, out);
                }
            }
            IpProto::Udp => {
                // Application data: only for groups we are members of.
                // The IP header is validated above and the UDP shell is
                // summed once; the log then keeps the payload by copy or
                // by reference, by length (`RX_COPYBREAK`).
                let Some(group) = GroupId::new(hdr.dst) else { return };
                if !self.membership.is_member(group) || hdr.src == self.addr {
                    return;
                }
                if let Ok((_, payload)) = UdpHeader::unwrap(body) {
                    let at = PAYLOAD_OFFSET..PAYLOAD_OFFSET + payload.len();
                    self.received.push(now, group, hdr.src, frame, at);
                }
            }
            // "The IP module of end-systems ... will discard these
            // multicasts since the CBT payload type of the outer IP
            // header is not recognizable by hosts" (§5).
            IpProto::Cbt | IpProto::IpIp => {}
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut Outbox) {
        while self.schedule.front().is_some_and(|(at, _)| *at <= now) {
            let (_, op) = self.schedule.pop_front().expect("front was just seen");
            match op {
                HostOp::Join { group, cores, target_core_index } => {
                    let msgs = self.membership.join(group, cores, target_core_index);
                    self.emit_igmp(msgs, out);
                }
                HostOp::Leave { group } => {
                    let msgs = self.membership.leave(group);
                    self.emit_igmp(msgs, out);
                }
                HostOp::Send { group, payload, ttl } => {
                    let frame = build_frame(out, |buf| {
                        encode_native_into(self.addr, group, ttl, &payload, buf)
                    });
                    out.send(IfIndex(0), frame);
                }
            }
        }
        let due = self.membership.poll(now);
        self.emit_igmp(due, out);
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let sched = self.schedule.front().map(|(t, _)| *t);
        let report = self.membership.next_wakeup();
        match (sched, report) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Everything needed to stand up a full CBT network in the simulator:
/// a [`cbt_netsim::World`] with one [`RouterNode`] per router and one
/// [`HostApp`] per host, all sharing one RIB.
pub struct CbtWorld {
    /// The simulator world.
    pub world: cbt_netsim::World,
    /// The shared routing table (recompute after failures).
    pub rib: Arc<RwLock<Rib>>,
    /// The network, for address lookups.
    pub net: Arc<cbt_topology::NetworkSpec>,
    /// Router config used at construction (restarts reuse it).
    cfg: crate::CbtConfig,
}

impl CbtWorld {
    /// Builds a world where every router runs CBT with `cfg` and every
    /// host runs IGMPv3.
    pub fn build(
        net: cbt_topology::NetworkSpec,
        cfg: crate::CbtConfig,
        world_cfg: cbt_netsim::WorldConfig,
    ) -> Self {
        Self::build_with_igmp_versions(net, cfg, world_cfg, |_| 3)
    }

    /// As [`CbtWorld::build`], choosing each host's IGMP version.
    pub fn build_with_igmp_versions(
        net: cbt_topology::NetworkSpec,
        cfg: crate::CbtConfig,
        world_cfg: cbt_netsim::WorldConfig,
        igmp_version: impl Fn(cbt_topology::HostId) -> u8,
    ) -> Self {
        let net = Arc::new(net);
        let rib = Arc::new(RwLock::new(Rib::converged(net.clone())));
        let mut world = cbt_netsim::World::new((*net).clone(), world_cfg);
        for i in 0..net.routers.len() as u32 {
            let me = cbt_topology::RouterId(i);
            let routes = RouteHandle::new(rib.clone(), i);
            let node = RouterNode::new(&net, me, cfg.clone(), routes, SimTime::ZERO);
            world.set_node(cbt_netsim::Entity::Router(me), Box::new(node));
        }
        for (i, h) in net.hosts.iter().enumerate() {
            let hid = cbt_topology::HostId(i as u32);
            let app = HostApp::new(h.addr, igmp_version(hid), cfg.igmp);
            world.set_node(cbt_netsim::Entity::Host(hid), Box::new(app));
        }
        CbtWorld { world, rib, net, cfg }
    }

    /// Host handle. If you schedule operations after `world.start()`,
    /// follow up with [`CbtWorld::touch_host`] so the world learns the
    /// new wakeup.
    pub fn host(&mut self, h: cbt_topology::HostId) -> &mut HostApp {
        self.world.node_mut::<HostApp>(cbt_netsim::Entity::Host(h)).expect("host exists")
    }

    /// Re-arms a host's timer after post-start schedule changes.
    pub fn touch_host(&mut self, h: cbt_topology::HostId) {
        self.world.poke(cbt_netsim::Entity::Host(h));
    }

    /// Router handle.
    pub fn router(&mut self, r: cbt_topology::RouterId) -> &mut RouterNode {
        self.world.node_mut::<RouterNode>(cbt_netsim::Entity::Router(r)).expect("router exists")
    }

    /// Fails a router and recomputes routing, as a converged IGP would.
    pub fn fail_router(&mut self, r: cbt_topology::RouterId) {
        self.world.failures_mut().fail_router(r);
        self.recompute_routes();
    }

    /// Fails a link and recomputes routing.
    pub fn fail_link(&mut self, l: cbt_topology::LinkId) {
        self.world.failures_mut().fail_link(l);
        self.recompute_routes();
    }

    /// Fails a whole LAN segment and recomputes routing.
    pub fn fail_lan(&mut self, l: cbt_topology::LanId) {
        self.world.failures_mut().fail_lan(l);
        self.recompute_routes();
    }

    /// Restores a failed LAN segment and recomputes routing.
    pub fn restore_lan(&mut self, l: cbt_topology::LanId) {
        self.world.failures_mut().restore_lan(l);
        self.recompute_routes();
    }

    /// Restores a failed link and recomputes routing.
    pub fn restore_link(&mut self, l: cbt_topology::LinkId) {
        self.world.failures_mut().restore_link(l);
        self.recompute_routes();
    }

    /// Restores a router **with empty protocol state** (§6.2 restart)
    /// and recomputes routing.
    pub fn restart_router(&mut self, r: cbt_topology::RouterId, now: SimTime) {
        self.world.failures_mut().restore_router(r);
        self.recompute_routes();
        let routes = RouteHandle::new(self.rib.clone(), r.0);
        let node = RouterNode::new(&self.net, r, self.cfg.clone(), routes, now);
        self.world.set_node(cbt_netsim::Entity::Router(r), Box::new(node));
    }

    /// Recomputes the shared RIB from the current failure set, incrementally.
    pub fn recompute_routes(&self) {
        self.rib.write().expect("rib lock poisoned").apply_failures(self.world.failures());
    }

    /// Fleet-wide counters: every up router's snapshot merged in id
    /// order under the label `"fleet"`, plus the world's group table.
    /// Deterministic for a deterministic run, so safe to embed in
    /// byte-compared output.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let mut fleet = ObsSnapshot { router: "fleet".into(), ..Default::default() };
        fleet.add_groups(self.world.groups());
        for i in 0..self.net.routers.len() {
            let r = cbt_topology::RouterId(i as u32);
            if self.world.failures().router_down(r) {
                continue;
            }
            let node = self.world.node::<RouterNode>(cbt_netsim::Entity::Router(r));
            fleet.merge(&node.expect("router exists").sharded().obs_snapshot());
        }
        fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_netsim::WorldConfig;
    use cbt_topology::NetworkBuilder;

    /// Two LANs joined by a chain of three routers; host A joins, host
    /// B sends — the simplest end-to-end delivery through a real join.
    #[test]
    fn end_to_end_join_and_delivery() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1"); // will be the core
        let r2 = b.router("R2");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let a = b.host("A", s0);
        b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r2);
        let sender = b.host("B", s1);
        let net = b.build();
        let core = net.router_addr(r1);

        let group = GroupId::numbered(7);
        // §5.1: a non-member sender's DR needs a <core, group> mapping
        // mechanism, which the spec leaves external — here, managed
        // configuration.
        let cfg = crate::CbtConfig::fast().with_mapping(group, vec![core]);
        let mut cw = CbtWorld::build(net, cfg, WorldConfig::default());
        cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
        // The sender is a non-member: §5.1 non-member sending.
        cw.host(sender).send_at(SimTime::from_secs(3), group, b"hello".to_vec(), 32);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(5));

        // A's DR joined the tree...
        assert!(cw.router(r0).sharded().group_view(group).on_tree);
        assert_eq!(
            cw.router(r0).sharded().group_view(group).parent,
            Some({
                // R0's parent is R1 via the p2p link.
                let net = cw.net.clone();
                net.routers[r1.0 as usize]
                    .ifaces
                    .iter()
                    .find(|i| i.subnet == net.routers[r0.0 as usize].ifaces[1].subnet)
                    .unwrap()
                    .addr
            })
        );
        // ...the host heard the §2.5 notification...
        assert!(!cw.host(a).tree_joined_events().is_empty());
        // ...and B's data arrived at A exactly once.
        let got = cw.host(a).received();
        assert_eq!(got.len(), 1, "exactly one copy delivered");
        let d = got.get(0).unwrap();
        assert_eq!((d.payload, d.group), (&b"hello"[..], group));
        // The world's row for the one group holds what the routers
        // counted by kind: the join, its ack, the keepalives.
        let fleet = cw.obs_snapshot();
        let row = fleet.groups[&group.addr().0];
        assert_eq!(row, fleet.ctl);
        assert_eq!(row.received(cbt_obs::CtlKind::JoinAck), 1);
    }

    /// Same network; member-to-member delivery both directions.
    #[test]
    fn two_members_exchange_data() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let a = b.host("A", s0);
        b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r2);
        let bb = b.host("B", s1);
        let net = b.build();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(9);

        let mut cw = CbtWorld::build(net, crate::CbtConfig::fast(), WorldConfig::default());
        cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(bb).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(a).send_at(SimTime::from_secs(4), group, b"from A".to_vec(), 32);
        cw.host(bb).send_at(SimTime::from_secs(5), group, b"from B".to_vec(), 32);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(8));

        let at_b = cw.host(bb).received();
        assert_eq!(at_b.len(), 1);
        assert_eq!(at_b.get(0).unwrap().payload, b"from A");
        let at_a = cw.host(a).received();
        assert_eq!(at_a.len(), 1);
        assert_eq!(at_a.get(0).unwrap().payload, b"from B");
        // The core carries both directions: it is on-tree with two
        // children and no parent.
        let core_engine = cw.router(r1).sharded();
        assert!(core_engine.group_view(group).on_tree);
        assert_eq!(core_engine.group_view(group).parent, None);
        assert_eq!(core_engine.group_view(group).children.len(), 2);
    }

    /// CBT-mode forwarding delivers identically.
    #[test]
    fn cbt_mode_end_to_end() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let a = b.host("A", s0);
        b.link(r0, r1, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r1);
        let bb = b.host("B", s1);
        let net = b.build();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(2);

        let mut cw = CbtWorld::build(
            net,
            crate::CbtConfig::fast().with_mode(crate::config::ForwardingMode::CbtMode),
            WorldConfig::default(),
        );
        cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(bb).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(bb).send_at(SimTime::from_secs(3), group, b"cbt mode".to_vec(), 32);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(6));
        let sender_addr = cw.host(bb).addr();
        let got = cw.host(a).received();
        assert_eq!(got.len(), 1);
        let d = got.get(0).unwrap();
        assert_eq!((d.payload, d.src), (&b"cbt mode"[..], sender_addr));
        // The delivered copy crossed a CBT-mode branch.
        use cbt_netsim::PacketKind;
        assert!(cw.world.trace().count(PacketKind::DataCbt) > 0, "branch used CBT mode");
    }

    /// Leaves tear the branch down again (§2.7) within the fast timers.
    #[test]
    fn leave_triggers_quit_upstream() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let a = b.host("A", s0);
        b.link(r0, r1, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r1);
        let net = b.build();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(3);

        let mut cw = CbtWorld::build(net, crate::CbtConfig::fast(), WorldConfig::default());
        cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(a).leave_at(SimTime::from_secs(5), group);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(4));
        assert!(cw.router(r0).sharded().group_view(group).on_tree, "joined first");
        cw.world.run_until(SimTime::from_secs(15));
        assert!(!cw.router(r0).sharded().group_view(group).on_tree, "quit after leave");
        let core_children = cw.router(r1).sharded().group_view(group).children;
        assert!(core_children.is_empty(), "core saw the quit");
    }

    /// R0 - R1 - R2 in a chain, R1 a transit router with a stub LAN on
    /// its third interface: the node under test, the interface facing
    /// R0 and R0's address on it.
    fn chain_transit_node() -> (RouterNode, Arc<cbt_topology::NetworkSpec>, IfIndex, Addr) {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        let stub = b.lan("S1");
        b.attach(stub, r1);
        let net = Arc::new(b.build());
        let rib = RouteHandle::new(Arc::new(RwLock::new(Rib::converged(net.clone()))), r1.0);
        let node = RouterNode::new(&net, r1, crate::CbtConfig::fast(), rib, SimTime::ZERO);
        let r0_addr = net.routers[r0.0 as usize].ifaces[0].addr;
        (node, net, IfIndex(0), r0_addr)
    }

    /// Patch-and-forward must not cost the receive-side checks: a
    /// native frame with either checksum broken dies at the first
    /// router, counted `ChecksumBad`, exactly as before.
    #[test]
    fn corrupted_checksums_still_die_at_the_first_router() {
        let (mut node, _net, iface, from) = chain_transit_node();
        let pkt = DataPacket::new(
            Addr::from_octets(10, 9, 0, 7),
            GroupId::numbered(1),
            9,
            b"data".to_vec(),
        );
        let mut good = Vec::new();
        pkt.encode_into(&mut good);
        for (what, byte) in [("IP header", 4), ("UDP shell", good.len() - 1)] {
            let mut bad = good.clone();
            bad[byte] ^= 0x40;
            let mut out = Outbox::new();
            let before = node.sharded().obs_snapshot().drops.get(DropReason::ChecksumBad);
            node.on_packet(SimTime::from_secs(1), iface, from, &Bytes::from(bad), &mut out);
            assert!(out.is_empty(), "{what}: nothing forwarded");
            let after = node.sharded().obs_snapshot().drops.get(DropReason::ChecksumBad);
            assert_eq!(after, before + 1, "{what}: counted as a checksum drop");
        }
    }

    /// A transit unicast goes on as the datagram that arrived — same
    /// identification, one less TTL, a header that still verifies —
    /// not as a rebuilt one.
    #[test]
    fn ip_forward_keeps_the_datagram_and_patches_the_ttl() {
        let (mut node, net, iface, from) = chain_transit_node();
        let dst = net.router_addr(cbt_topology::RouterId(2));
        let mut hdr = Ipv4Header::new(from, dst, IpProto::Udp, 7, 8 + 3);
        hdr.ident = 0x1234;
        let mut shell = Vec::new();
        UdpHeader::wrap_into(4000, 4000, b"abc", &mut shell);
        let mut arrival = hdr.encode().to_vec();
        arrival.extend_from_slice(&shell);
        let mut out = Outbox::new();
        node.on_packet(SimTime::from_secs(1), iface, from, &Bytes::from(arrival.clone()), &mut out);
        let sent: Vec<_> = out.drain().collect();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].iface, IfIndex(1), "toward R2");
        let (back, body) = split_datagram(&sent[0].frame).unwrap();
        assert_eq!(back, Ipv4Header { ttl: 6, ..hdr });
        assert_eq!(body, &arrival[20..]);
    }

    /// A transit unicast `R0 → dst` with the given TTL, as it arrives.
    fn transit_unicast(from: Addr, dst: Addr, ttl: u8) -> Bytes {
        let mut shell = Vec::new();
        UdpHeader::wrap_into(4000, 4000, b"abc", &mut shell);
        let mut frame = Vec::new();
        cbt_wire::ipv4::build_datagram_into(from, dst, IpProto::Udp, ttl, &shell, &mut frame);
        Bytes::from(frame)
    }

    fn drops(node: &RouterNode, reason: DropReason) -> u64 {
        node.sharded().obs_snapshot().drops.get(reason)
    }

    /// A unicast with no hop left to spend is not forwarded — and is
    /// counted, where it used to vanish.
    #[test]
    fn ip_forward_counts_an_expired_ttl() {
        let (mut node, net, iface, from) = chain_transit_node();
        let dst = net.router_addr(cbt_topology::RouterId(2));
        let mut out = Outbox::new();
        for (ttl, expired) in [(2, 0), (1, 1), (0, 2)] {
            let frame = transit_unicast(from, dst, ttl);
            node.on_packet(SimTime::from_secs(1), iface, from, &frame, &mut out);
            assert_eq!(out.drain().count(), usize::from(ttl == 2), "ttl {ttl}");
            assert_eq!(drops(&node, DropReason::TtlExpired), expired, "ttl {ttl}");
        }
    }

    /// Nor is one to a destination the RIB has no route for.
    #[test]
    fn ip_forward_counts_a_destination_with_no_route() {
        let (mut node, _net, iface, from) = chain_transit_node();
        let nowhere = Addr::from_octets(172, 16, 9, 9);
        let mut out = Outbox::new();
        let frame = transit_unicast(from, nowhere, 9);
        node.on_packet(SimTime::from_secs(1), iface, from, &frame, &mut out);
        assert!(out.is_empty());
        assert_eq!(drops(&node, DropReason::NoFibEntry), 1);
        assert_eq!(drops(&node, DropReason::TtlExpired), 0);
    }

    /// A built frame with no way out — the engine named an interface
    /// this router does not have, or an off-subnet unicast on a LAN has
    /// no next hop to be framed for — is counted, and its buffer goes
    /// back to the pool it came from.
    #[test]
    fn emit_frame_counts_a_frame_with_no_way_out() {
        let (mut node, net, ..) = chain_transit_node();
        let (stub_lan, no_such_iface) = (IfIndex(2), IfIndex(9));
        let on_the_lan = Addr(net.routers[1].ifaces[2].addr.0 + 1);
        let nowhere = Addr::from_octets(172, 16, 9, 9);
        let mut out = Outbox::new();
        let frame = |out: &mut Outbox| build_frame(out, |buf| buf.extend_from_slice(b"frame"));

        let f = frame(&mut out);
        node.emit_frame(stub_lan, on_the_lan, f, &mut out);
        assert_eq!(out.drain().map(|t| t.link_dst).collect::<Vec<_>>(), [Some(on_the_lan)]);
        assert_eq!(drops(&node, DropReason::NoFibEntry), 0, "a neighbour on the subnet is fine");

        for (n, (iface, dst)) in
            [(no_such_iface, on_the_lan), (stub_lan, nowhere)].iter().enumerate()
        {
            let f = frame(&mut out);
            assert_eq!(out.pooled(), 0);
            node.emit_frame(*iface, *dst, f, &mut out);
            assert!(out.is_empty(), "{iface:?} {dst}: nothing sent");
            assert_eq!(drops(&node, DropReason::NoFibEntry), n as u64 + 1, "{iface:?} {dst}");
            assert_eq!(out.pooled(), 1, "and the buffer is back");
        }
    }

    /// A control message that cannot be encoded (more cores than the
    /// wire format counts) is an *encode* failure; it is counted under
    /// the codec's reason, `DecodeError`, and nothing is sent.
    #[test]
    fn an_unencodable_control_message_is_counted_not_sent() {
        let (mut node, net, ..) = chain_transit_node();
        let dst = net.router_addr(cbt_topology::RouterId(2));
        let msg = ControlMessage::JoinRequest {
            subcode: cbt_wire::JoinSubcode::ActiveJoin,
            group: GroupId::numbered(1),
            origin: dst,
            target_core: dst,
            cores: vec![dst; cbt_wire::header::MAX_CORES + 1],
        };
        let mut out = Outbox::new();
        let mut actions = vec![RouterAction::SendControl { iface: IfIndex(1), dst, msg }];
        node.emit(&mut actions, &mut out);
        assert!(out.is_empty() && actions.is_empty());
        assert_eq!(drops(&node, DropReason::DecodeError), 1);
        assert_eq!(out.groups.iter().len(), 0, "a frame that failed to encode is not counted");
        assert_eq!(out.pooled(), 1, "the buffer it was tried in is back");
    }

    /// Scheduled operations run in time order; ones scheduled for the
    /// same instant run in the order they were scheduled, and a late
    /// call for an early instant goes in front of what is already
    /// queued for later.
    #[test]
    fn host_schedule_is_time_ordered_and_fifo_within_an_instant() {
        let me = Addr::from_octets(10, 1, 0, 100);
        let mut app = HostApp::new(me, 3, crate::CbtConfig::fast().igmp);
        let g = GroupId::numbered(1);
        app.send_at(SimTime::from_secs(3), g, b"3a".to_vec(), 4);
        app.send_at(SimTime::from_secs(1), g, b"1a".to_vec(), 4);
        app.send_at(SimTime::from_secs(3), g, b"3b".to_vec(), 4);
        app.send_at(SimTime::from_secs(1), g, b"1b".to_vec(), 4);
        app.send_at(SimTime::from_secs(2), g, b"2a".to_vec(), 4);
        app.send_at(SimTime::from_secs(1), g, b"1c".to_vec(), 4);
        app.send_at(SimTime::from_secs(9), g, b"9a".to_vec(), 4);
        assert_eq!(app.next_wakeup(), Some(SimTime::from_secs(1)));
        let mut out = Outbox::new();
        app.on_timer(SimTime::from_secs(3), &mut out);
        let sent: Vec<Vec<u8>> = out
            .drain()
            .map(|t| DataPacket::decode_bytes(&t.frame).unwrap().payload.to_vec())
            .collect();
        assert_eq!(sent, [b"1a", b"1b", b"1c", b"2a", b"3a", b"3b"]);
        assert_eq!(app.next_wakeup(), Some(SimTime::from_secs(9)), "the rest stays queued");
    }

    /// A host that has joined `g` (its membership is up the moment the
    /// join operation runs).
    fn member_host(g: GroupId) -> HostApp {
        let mut app =
            HostApp::new(Addr::from_octets(10, 1, 0, 100), 3, crate::CbtConfig::fast().igmp);
        app.join_at(SimTime::ZERO, g, vec![Addr::from_octets(10, 255, 0, 1)]);
        app.on_timer(SimTime::ZERO, &mut Outbox::new());
        assert!(app.is_member(g));
        app
    }

    /// The copybreak boundary at the host edge: one byte short of
    /// `RX_COPYBREAK` is copied out of the arrival frame, `RX_COPYBREAK`
    /// itself is a view into it — and at either size a datagram whose
    /// UDP checksum does not verify is not delivered at all, so a view
    /// is only ever taken of validated bytes.
    #[test]
    fn copybreak_boundary_shares_only_long_validated_payloads() {
        use crate::RX_COPYBREAK;
        let g = GroupId::numbered(1);
        let mut app = member_host(g);
        let src = Addr::from_octets(10, 9, 0, 7);
        let mut out = Outbox::new();
        for (len, shared) in [(RX_COPYBREAK - 1, false), (RX_COPYBREAK, true)] {
            let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let frame = build_frame(&mut Outbox::new(), |buf| {
                encode_native_into(src, g, 4, &body, buf);
            });
            let mut bad = frame.to_vec();
            *bad.last_mut().unwrap() ^= 0x01; // payload no longer sums
            let before = app.received().len();
            app.on_packet(SimTime::from_secs(1), IfIndex(0), src, &Bytes::from(bad), &mut out);
            assert_eq!(app.received().len(), before, "{len} B: corrupted, not delivered");
            app.on_packet(SimTime::from_secs(1), IfIndex(0), src, &frame, &mut out);
            let d = app.received().last().expect("delivered");
            assert_eq!((d.group, d.src), (g, src));
            assert_eq!(d.payload, body);
            assert_eq!(d.payload.as_ptr() == frame[PAYLOAD_OFFSET..].as_ptr(), shared, "{len} B");
        }
        assert_eq!(app.received().len(), 2);
    }
}
