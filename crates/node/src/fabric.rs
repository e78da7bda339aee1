//! The in-process frame fabric: who receives what a node transmits.
//!
//! Walks the same [`DeliveryPlan`] as `cbt_netsim::World` (LAN
//! broadcast with link-layer unicast filtering, p2p peer delivery) but
//! pushes frames into per-entity bounded inboxes ([`crate::inbox`])
//! instead of an event queue.
//!
//! Data-plane properties (see DESIGN.md "Data-plane architecture"):
//! - **Zero-copy fan-out** — a [`Transmit`] already owns its frame as
//!   refcounted [`Bytes`]; delivery clones the handle per recipient
//!   (a refcount bump), never the payload.
//! - **Bounded inboxes** — when a receiver falls behind, frames are
//!   dropped and counted instead of growing an unbounded queue (a real
//!   router sheds load, it does not OOM).
//! - **Runs, not frames** — an outbox drain is dispatched as runs of
//!   same-destination transmissions ([`Fabric::dispatch_batch`]): one
//!   route lookup per run, one inbox lock and at most one wakeup per
//!   recipient per run.

use crate::inbox::{Inbox, InboxRx, Pushed};
use cbt::shard_of;
use cbt_netsim::{Bytes, DeliveryPlan, Entity, Receiver, Transmit};
use cbt_topology::{IfIndex, NetworkSpec};
use cbt_wire::ipv4::IPV4_HEADER_LEN;
use cbt_wire::{Addr, GroupId, IgmpMessage, IpProto, CBT_AUX_PORT, CBT_PRIMARY_PORT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a received frame should go within a sharded router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steer {
    /// Exactly one shard owns this frame's group (or it is group-less
    /// housekeeping / transit traffic, which shard 0 owns).
    One(usize),
    /// Every shard must see the frame (general IGMP queries: each
    /// shard's election replica has to observe the querier).
    All,
}

/// Decides which shard(s) of an `n`-shard router a raw frame belongs
/// to, by peeking at the wire bytes **without** decoding the payload —
/// this runs per delivered frame on the sharded live hot path.
///
/// The classification mirrors `RouterNode::on_packet`:
/// - CBT-mode data (IP proto 7): group id sits at bytes 8..12 of the
///   CBT header (spec Fig. 7), i.e. right after the 20-byte IP header.
/// - CBT control (UDP to a CBT port): group id sits at bytes 8..12 of
///   the control header (spec Fig. 8), after IP + 8-byte UDP headers.
/// - Native-mode data (UDP to any other port, multicast destination):
///   the group **is** the destination address.
/// - IGMP: decoded (it is tiny and off the data path); a general
///   query carries no group and fans out to every shard, everything
///   else steers by its group.
/// - Anything else — unicast transit, truncated or malformed frames —
///   goes to shard 0, whose engine owns group-less work and counts
///   decode failures exactly as an unsharded router would.
pub fn steer_frame(frame: &[u8], shards: usize) -> Steer {
    if shards <= 1 {
        return Steer::One(0);
    }
    if frame.len() < IPV4_HEADER_LEN {
        return Steer::One(0);
    }
    let group_at = |off: usize| -> Option<GroupId> {
        let b = frame.get(off..off + 4)?;
        GroupId::new(Addr(u32::from_be_bytes([b[0], b[1], b[2], b[3]])))
    };
    let steer_group = |g: Option<GroupId>| match g {
        Some(g) => Steer::One(shard_of(g, shards)),
        None => Steer::One(0),
    };
    match frame[9] {
        p if p == IpProto::Cbt as u8 => steer_group(group_at(IPV4_HEADER_LEN + 8)),
        p if p == IpProto::Igmp as u8 => match IgmpMessage::decode(&frame[IPV4_HEADER_LEN..]) {
            Ok(msg) => msg.group().map_or(Steer::All, |g| Steer::One(shard_of(g, shards))),
            Err(_) => Steer::One(0),
        },
        p if p == IpProto::Udp as u8 => {
            let Some(port) = frame.get(IPV4_HEADER_LEN + 2..IPV4_HEADER_LEN + 4) else {
                return Steer::One(0);
            };
            let dst_port = u16::from_be_bytes([port[0], port[1]]);
            if dst_port == CBT_PRIMARY_PORT || dst_port == CBT_AUX_PORT {
                steer_group(group_at(IPV4_HEADER_LEN + 8 + 8))
            } else {
                // Native data: destination address is the group.
                steer_group(group_at(16))
            }
        }
        _ => Steer::One(0),
    }
}

/// Tuning for the live data plane's fabric.
#[derive(Debug, Clone, Copy)]
pub struct DataPlaneConfig {
    /// Bounded inbox capacity per node; beyond it frames are dropped
    /// and counted ([`FabricStats::dropped_overflow`]).
    pub inbox_capacity: usize,
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig { inbox_capacity: 2048 }
    }
}

/// A point-in-time snapshot of a [`Fabric`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricStats {
    /// Frames enqueued into recipient inboxes.
    pub delivered: u64,
    /// Frames dropped because a recipient's bounded inbox was full
    /// (sum of [`Fabric::overflowed`] over every node).
    pub dropped_overflow: u64,
    /// The deepest any node's inbox has been
    /// (max of [`Fabric::inbox_high_water`] over every node).
    pub inbox_high_water: usize,
}

/// The receive ends of a fabric's inboxes, to hand to the node tasks:
/// indexed by [`DeliveryPlan::index`], then shard.
pub type Inboxes = Vec<Vec<InboxRx>>;

/// Shared dispatch fabric: the delivery plan, every node's bounded
/// inboxes and the live delivery counters.
///
/// With `shards > 1` every router has one bounded inbox **per shard**;
/// delivery peeks at each frame ([`steer_frame`]) and enqueues it on
/// the owning shard's inbox only — no cross-shard locks, no shared
/// queue. Hosts always have exactly one inbox.
///
/// All counters are cumulative. A full inbox is the only place the
/// fabric drops a frame, and it is tallied **per receiving node**
/// ([`cbt_obs::DropReason::InboxOverflow`] in that node's snapshot)
/// rather than as one fabric-wide total, so a single overwhelmed inbox
/// is attributable.
pub struct Fabric {
    plan: DeliveryPlan,
    delivered: AtomicU64,
    /// Frames shed at each node's full inboxes, indexed by
    /// [`DeliveryPlan::index`].
    overflowed: Vec<AtomicU64>,
    /// Indexed by [`DeliveryPlan::index`], then shard.
    inboxes: Vec<Vec<Arc<Inbox>>>,
}

impl Fabric {
    /// Builds the fabric with `shards` bounded inboxes per **router**
    /// (hosts keep one), with the receive ends to hand out.
    pub fn with_shards(
        net: &NetworkSpec,
        dp: DataPlaneConfig,
        shards: usize,
    ) -> (Arc<Self>, Inboxes) {
        let plan = DeliveryPlan::new(net);
        let (inboxes, rxs) = plan
            .entities()
            .map(|e| {
                let n = match e {
                    Entity::Router(_) => shards.max(1),
                    Entity::Host(_) => 1,
                };
                (0..n).map(|_| Inbox::bounded(dp.inbox_capacity)).unzip()
            })
            .unzip();
        let overflowed = plan.entities().map(|_| AtomicU64::new(0)).collect();
        let fabric = Fabric { plan, delivered: AtomicU64::new(0), overflowed, inboxes };
        (Arc::new(fabric), rxs)
    }

    /// The delivery plan this fabric walks (and indexes its receive
    /// ends by).
    pub fn plan(&self) -> &DeliveryPlan {
        &self.plan
    }

    /// Dispatches a whole outbox drain from `from` to everyone each
    /// transmission reaches. Each frame is encoded exactly once (by the
    /// sender, into the `Transmit`); recipients share the allocation.
    /// Consecutive transmissions on one interface to one link-layer
    /// destination form a *run*: the route is resolved once per run,
    /// and each recipient's inbox takes the run under one lock and at
    /// most one wakeup ([`Inbox::push_run`]). Every inbox sees the
    /// frames it would have seen had each transmission been dispatched
    /// on its own, in that order.
    pub fn dispatch_batch(&self, from: Entity, transmits: &[Transmit]) {
        for run in transmits.chunk_by(|a, b| (a.iface, a.link_dst) == (b.iface, b.link_dst)) {
            let Some(route) = self.plan.route(from, run[0].iface) else { continue };
            for &Receiver { entity, iface, .. } in route.heard_by(run[0].link_dst) {
                let to = self.plan.index(entity).expect("the plan lists only its own entities");
                self.deliver_run(to, iface, route.link_src, run.iter().map(|t| &t.frame));
            }
        }
    }

    /// Enqueues a run of frames, all received on `iface` from
    /// `link_src`, at the node with plan index `to`, counting the
    /// outcome. A 1-inbox entity (a host, or `shards = 1`) takes the
    /// run whole; a sharded router's inboxes each take, in order, the
    /// frames they own (each peeks at the run through [`steer_frame`]
    /// and locks only if some frame is its).
    fn deliver_run<'a>(
        &self,
        to: usize,
        iface: IfIndex,
        link_src: Addr,
        frames: impl Iterator<Item = &'a Bytes> + Clone,
    ) {
        let inboxes = &self.inboxes[to];
        if let [only] = &inboxes[..] {
            self.count(to, only.push_run(iface, link_src, frames));
            return;
        }
        for (k, inbox) in inboxes.iter().enumerate() {
            let mut mine = frames
                .clone()
                .filter(|f| match steer_frame(f, inboxes.len()) {
                    Steer::One(owner) => owner == k,
                    Steer::All => true,
                })
                .peekable();
            if mine.peek().is_some() {
                self.count(to, inbox.push_run(iface, link_src, mine));
            }
        }
    }

    /// Tallies one push at node `to`. A closed inbox means that node
    /// shut down: nothing to count.
    fn count(&self, to: usize, pushed: Option<Pushed>) {
        let Some(Pushed { accepted, overflowed }) = pushed else { return };
        if accepted > 0 {
            self.delivered.fetch_add(accepted, Ordering::Relaxed);
        }
        if overflowed > 0 {
            self.overflowed[to].fetch_add(overflowed, Ordering::Relaxed);
        }
    }

    /// Frames dropped at one node because its inbox (any of its
    /// shards' inboxes, for a sharded router) was full; 0 for a
    /// stranger.
    pub fn overflowed(&self, e: Entity) -> u64 {
        self.plan.index(e).map_or(0, |i| self.overflowed[i].load(Ordering::Relaxed))
    }

    /// The deepest one node's inbox has been (the deepest of its
    /// shards' inboxes for a sharded router; 0 for a stranger).
    pub fn inbox_high_water(&self, e: Entity) -> usize {
        self.plan.index(e).map_or(0, |i| deepest(&self.inboxes[i]))
    }

    /// Snapshots the counters.
    pub fn snapshot(&self) -> FabricStats {
        FabricStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped_overflow: self.overflowed.iter().map(|n| n.load(Ordering::Relaxed)).sum(),
            inbox_high_water: deepest(self.inboxes.iter().flatten()),
        }
    }
}

/// The highest high-water mark among `inboxes` (0 for none).
fn deepest<'a>(inboxes: impl IntoIterator<Item = &'a Arc<Inbox>>) -> usize {
    inboxes.into_iter().map(|inbox| inbox.high_water()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::{HostId, NetworkBuilder, RouterId};
    use std::collections::HashMap;
    use std::slice;

    /// What one of the in-place writers leaves in a fresh buffer.
    fn written(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = Vec::new();
        write(&mut buf);
        buf
    }

    /// A fabric's receive ends keyed by entity, as the tests address
    /// them.
    fn keyed(
        net: &NetworkSpec,
        dp: DataPlaneConfig,
        shards: usize,
    ) -> (Arc<Fabric>, HashMap<Entity, Vec<InboxRx>>) {
        let (fabric, rxs) = Fabric::with_shards(net, dp, shards);
        let rxs = fabric.plan().entities().zip(rxs).collect();
        (fabric, rxs)
    }

    /// The unsharded shape: one receive end per entity.
    fn unsharded(
        net: &NetworkSpec,
        dp: DataPlaneConfig,
    ) -> (Arc<Fabric>, HashMap<Entity, InboxRx>) {
        let (fabric, rxs) = keyed(net, dp, 1);
        let one = |(e, mut v): (Entity, Vec<_>)| (e, v.pop().expect("one inbox per entity"));
        (fabric, rxs.into_iter().map(one).collect())
    }

    fn lan_pair() -> (Arc<NetworkSpec>, RouterId, RouterId, HostId) {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let lan = b.lan("S0");
        b.attach(lan, r0);
        b.attach(lan, r1);
        let h = b.host("H", lan);
        (Arc::new(b.build()), r0, r1, h)
    }

    fn frame(bytes: &[u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    #[tokio::test]
    async fn lan_broadcast_reaches_everyone() {
        let (net, r0, r1, h) = lan_pair();
        let (fabric, mut rxs) = unsharded(&net, DataPlaneConfig::default());
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[1, 2, 3]) };
        fabric.dispatch_batch(Entity::Router(r0), slice::from_ref(&t));
        assert!(rxs.get_mut(&Entity::Router(r1)).unwrap().try_recv().is_some());
        assert!(rxs.get_mut(&Entity::Host(h)).unwrap().try_recv().is_some());
        assert!(rxs.get_mut(&Entity::Router(r0)).unwrap().try_recv().is_none(), "no self-delivery");
        assert_eq!(fabric.snapshot().delivered, 2);
    }

    #[tokio::test]
    async fn link_dst_filters_lan_unicast() {
        let (net, r0, r1, h) = lan_pair();
        let r1_addr = net.routers[r1.0 as usize].ifaces[0].addr;
        let (fabric, mut rxs) = unsharded(&net, DataPlaneConfig::default());
        let t = Transmit { iface: IfIndex(0), link_dst: Some(r1_addr), frame: frame(&[9]) };
        fabric.dispatch_batch(Entity::Router(r0), slice::from_ref(&t));
        assert!(rxs.get_mut(&Entity::Router(r1)).unwrap().try_recv().is_some());
        assert!(rxs.get_mut(&Entity::Host(h)).unwrap().try_recv().is_none(), "filtered");
    }

    #[tokio::test]
    async fn p2p_reaches_the_peer_iface() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        b.link(r0, r1, 1);
        let net = Arc::new(b.build());
        let (fabric, mut rxs) = unsharded(&net, DataPlaneConfig::default());
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[7]) };
        fabric.dispatch_batch(Entity::Router(r0), slice::from_ref(&t));
        let got = rxs.get_mut(&Entity::Router(r1)).unwrap().try_recv().unwrap();
        assert_eq!(got.iface, IfIndex(0));
        assert_eq!(got.frame, vec![7]);
    }

    #[tokio::test]
    async fn unknown_iface_is_silently_dropped() {
        let (net, r0, ..) = lan_pair();
        let (fabric, _rxs) = unsharded(&net, DataPlaneConfig::default());
        let t = Transmit { iface: IfIndex(42), link_dst: None, frame: frame(&[0]) };
        fabric.dispatch_batch(Entity::Router(r0), slice::from_ref(&t)); // must not panic
        let _ = Addr::NULL;
    }

    /// LAN fan-out shares one allocation across recipients instead of
    /// copying the frame per inbox.
    #[tokio::test]
    async fn fanout_shares_the_frame_allocation() {
        let (net, r0, r1, h) = lan_pair();
        let (fabric, mut rxs) = unsharded(&net, DataPlaneConfig::default());
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[5; 64]) };
        fabric.dispatch_batch(Entity::Router(r0), slice::from_ref(&t));
        let a = rxs.get_mut(&Entity::Router(r1)).unwrap().try_recv().unwrap();
        let b = rxs.get_mut(&Entity::Host(h)).unwrap().try_recv().unwrap();
        assert!(a.frame.shares_allocation_with(&t.frame), "handle, not copy");
        assert!(b.frame.shares_allocation_with(&t.frame), "handle, not copy");
    }

    /// Every frame class the live plane carries steers to the shard
    /// that owns its group — the same `shard_of` the engines use — by
    /// peeking at wire bytes only.
    #[test]
    fn steering_matches_group_ownership() {
        use cbt_wire::{ControlMessage, DataPacket, JoinSubcode};
        let g = GroupId::numbered(9);
        let own = Steer::One(shard_of(g, 4));
        let src = Addr::from_octets(10, 1, 0, 1);
        let dst = Addr::from_octets(172, 31, 0, 2);

        // Native-mode data: the destination address is the group.
        let native = written(|buf| DataPacket::new(src, g, 16, vec![0u8; 8]).encode_into(buf));
        assert_eq!(steer_frame(&native, 4), own);
        assert_eq!(steer_frame(&native, 1), Steer::One(0), "unsharded short-circuits");

        // CBT control: group at bytes 8..12 of the §8 control header.
        let join = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g,
            origin: src,
            target_core: dst,
            cores: vec![dst],
        };
        let ctl = written(|buf| join.write_datagram(src, dst, 64, buf).unwrap());
        assert_eq!(steer_frame(&ctl, 4), own);

        // CBT-mode data: group at bytes 8..12 of the Fig. 7 header.
        let encap =
            cbt_wire::CbtDataPacket::encapsulate(&DataPacket::new(src, g, 16, vec![1u8]), dst);
        let cbt = written(|buf| encap.wrap_unicast_into(src, dst, None, buf));
        assert_eq!(steer_frame(&cbt, 4), own);

        // Group-carrying IGMP: steers by the decoded group.
        let report = IgmpMessage::Report { version: 2, group: g };
        let report = written(|buf| report.write_datagram(src, g.addr(), buf));
        assert_eq!(steer_frame(&report, 4), own);
    }

    /// General IGMP queries carry no group and must reach every
    /// shard's election replica; group-less or unparseable traffic
    /// belongs to shard 0.
    #[test]
    fn general_queries_fan_out_and_groupless_goes_to_shard_zero() {
        use cbt_wire::{ipv4::build_datagram_into, UdpHeader};
        let src = Addr::from_octets(10, 1, 0, 1);
        let query = IgmpMessage::Query { group: None, max_resp_tenths: 100 };
        let query = written(|buf| query.write_datagram(src, cbt_wire::ALL_SYSTEMS, buf));
        assert_eq!(steer_frame(&query, 4), Steer::All);
        assert_eq!(steer_frame(&query, 1), Steer::One(0), "one shard needs no fan-out");

        // Unicast transit UDP (not a CBT port, unicast dst).
        let shell = written(|buf| UdpHeader::wrap_into(9000, 9000, b"app", buf));
        let dst = Addr::from_octets(172, 31, 0, 9);
        let transit = written(|buf| build_datagram_into(src, dst, IpProto::Udp, 64, &shell, buf));
        assert_eq!(steer_frame(&transit, 4), Steer::One(0));

        // Runt frames (shorter than an IP header) and garbage.
        assert_eq!(steer_frame(&[0u8; 7], 4), Steer::One(0));
        assert_eq!(steer_frame(&[0xFFu8; 64], 4), Steer::One(0));
    }

    /// Sharded delivery enqueues a group's frames on exactly one shard
    /// inbox and fans a general query out to all of them.
    #[tokio::test]
    async fn sharded_delivery_steers_to_the_owning_inbox() {
        use cbt_wire::DataPacket;
        let (net, r0, r1, _h) = lan_pair();
        let (fabric, mut rxs) = keyed(&net, DataPlaneConfig::default(), 4);
        let g = GroupId::numbered(9);
        let src = Addr::from_octets(10, 1, 0, 1);
        let data = written(|buf| DataPacket::new(src, g, 16, vec![0u8]).encode_into(buf));
        let own = match steer_frame(&data, 4) {
            Steer::One(k) => k,
            Steer::All => unreachable!("data frames steer to one shard"),
        };
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: Bytes::from(data) };
        fabric.dispatch_batch(Entity::Router(r0), slice::from_ref(&t));
        let shard_rxs = rxs.get_mut(&Entity::Router(r1)).unwrap();
        for (k, rx) in shard_rxs.iter_mut().enumerate() {
            assert_eq!(rx.try_recv().is_some(), k == own, "only shard {own} owns group {g}");
        }

        let query = IgmpMessage::Query { group: None, max_resp_tenths: 100 };
        let query = written(|buf| query.write_datagram(src, cbt_wire::ALL_SYSTEMS, buf));
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: Bytes::from(query) };
        fabric.dispatch_batch(Entity::Router(r0), slice::from_ref(&t));
        let shard_rxs = rxs.get_mut(&Entity::Router(r1)).unwrap();
        for rx in shard_rxs.iter_mut() {
            assert!(rx.try_recv().is_some(), "general query reaches every shard");
        }
    }

    /// `dispatch_batch` over a whole outbox is the same call made one
    /// transmission at a time with the locks amortised, nothing else: over an outbox that mixes two
    /// interfaces, LAN broadcast and LAN unicast, a general IGMP query
    /// fanned to 4 shards and a run of 10 into a capacity of 4, every
    /// inbox ends with the same frames in the same order, and the
    /// `delivered`, per-node overflow and high-water figures agree.
    #[tokio::test]
    async fn batch_dispatch_equals_frame_by_frame_dispatch() {
        use cbt_wire::DataPacket;
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        let lan = b.lan("S0");
        b.attach(lan, r0);
        b.attach(lan, r1);
        b.attach(lan, r2);
        let h = b.host("H", lan);
        b.link(r0, r3, 1);
        let net = Arc::new(b.build());
        let r1_addr = net.routers[r1.0 as usize].ifaces[0].addr;
        let src = Addr::from_octets(10, 1, 0, 1);
        let data = |g: u16, tag: u8| {
            let pkt = DataPacket::new(src, GroupId::numbered(g), 16, vec![tag; 8]);
            Bytes::from(written(|buf| pkt.encode_into(buf)))
        };
        let query = IgmpMessage::Query { group: None, max_resp_tenths: 100 };
        let query =
            Bytes::from(written(|buf| query.write_datagram(src, cbt_wire::ALL_SYSTEMS, buf)));
        let (lan_if, link_if) = (IfIndex(0), IfIndex(1));
        let send = |iface, link_dst, frame| Transmit { iface, link_dst, frame };
        let mut outbox = vec![
            send(lan_if, None, data(0, 1)),
            send(lan_if, None, data(1, 2)),
            send(link_if, None, data(2, 3)),
            send(link_if, None, data(2, 4)),
            send(lan_if, None, query.clone()),
            send(lan_if, Some(r1_addr), data(1, 5)),
        ];
        // Ten frames of one group to one neighbour: one shard inbox of
        // capacity 4 takes four (less what it already holds) and sheds
        // the rest.
        outbox.extend((0..10).map(|i| send(lan_if, Some(r1_addr), data(9, 10 + i))));
        outbox.push(send(lan_if, None, data(9, 99)));
        outbox.push(send(IfIndex(7), None, data(0, 0))); // no such interface
        outbox.push(send(lan_if, None, query));

        let dp = DataPlaneConfig { inbox_capacity: 4 };
        let (one_by_one, mut rx_a) = keyed(&net, dp, 4);
        let (batched, mut rx_b) = keyed(&net, dp, 4);
        for t in &outbox {
            one_by_one.dispatch_batch(Entity::Router(r0), slice::from_ref(t));
        }
        batched.dispatch_batch(Entity::Router(r0), &outbox);

        let (a, b) = (&one_by_one, &batched);
        assert_eq!(a.snapshot(), b.snapshot());
        assert!(
            a.snapshot().dropped_overflow >= 6,
            "the run of ten overflowed: {:?}",
            a.snapshot()
        );
        assert_eq!(b.snapshot().inbox_high_water, 4);
        let mut frames_seen = 0;
        for e in batched.plan().entities() {
            assert_eq!(a.overflowed(e), b.overflowed(e), "{e:?}");
            assert_eq!(a.inbox_high_water(e), b.inbox_high_water(e), "{e:?}");
            let shards = rx_a.get_mut(&e).unwrap().iter_mut().zip(rx_b.get_mut(&e).unwrap());
            for (k, (ra, rb)) in shards.enumerate() {
                let drain = |rx: &mut InboxRx| -> Vec<(IfIndex, Addr, Bytes)> {
                    std::iter::from_fn(|| rx.try_recv())
                        .map(|f| (f.iface, f.link_src, f.frame))
                        .collect()
                };
                let (sa, sb) = (drain(ra), drain(rb));
                assert_eq!(sa, sb, "{e:?} shard {k}");
                frames_seen += sb.len() as u64;
            }
        }
        assert_eq!(frames_seen, b.snapshot().delivered);
        // The host hears the five broadcasts and none of the unicasts.
        assert_eq!(b.overflowed(Entity::Host(h)), 1);
        assert_eq!(
            b.inbox_high_water(Entity::Router(r3)),
            2,
            "two frames of one group crossed the link"
        );
    }

    /// A full bounded inbox sheds frames and counts the overflow.
    #[tokio::test]
    async fn overflow_is_dropped_and_counted() {
        let (net, r0, r1, _) = lan_pair();
        let r1_addr = net.routers[r1.0 as usize].ifaces[0].addr;
        let dp = DataPlaneConfig { inbox_capacity: 4 };
        let (fabric, mut rxs) = unsharded(&net, dp);
        let t = Transmit { iface: IfIndex(0), link_dst: Some(r1_addr), frame: frame(&[1]) };
        for _ in 0..10 {
            fabric.dispatch_batch(Entity::Router(r0), slice::from_ref(&t));
        }
        let stats = fabric.snapshot();
        assert_eq!(stats.delivered, 4, "inbox capacity");
        assert_eq!(stats.dropped_overflow, 6, "excess counted, not queued");
        // The drops are attributed to the overwhelmed node, not smeared
        // over the fabric.
        assert_eq!(fabric.overflowed(Entity::Router(r1)), 6);
        assert_eq!(fabric.overflowed(Entity::Router(r0)), 0);
        // The receiver still drains the accepted frames.
        let rx = rxs.get_mut(&Entity::Router(r1)).unwrap();
        for _ in 0..4 {
            assert!(rx.try_recv().is_some());
        }
        assert!(rx.try_recv().is_none());
    }
}
