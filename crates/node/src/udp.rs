//! Real-socket transport: the same fabric semantics carried over UDP
//! sockets on loopback.
//!
//! Every entity binds one `tokio::net::UdpSocket`; a transmission is
//! resolved to its recipients through the same [`DeliveryPlan`] as the
//! in-process fabric, then sent as a real datagram
//! `[iface_be32 | link_src_be32 | frame]` to each recipient's socket,
//! where a pump task feeds it into the node's inbox (the link_src word
//! plays the role of the Ethernet source MAC). The CBT control messages
//! inside are the byte-exact §8 formats riding in the §3 UDP shells —
//! so a packet capture of loopback during a test shows genuine CBT
//! traffic.
//!
//! Data-plane properties (see DESIGN.md "Data-plane architecture"):
//! - the send side encodes each outbound datagram **once** into a
//!   reused buffer and patches only the 4-byte iface preamble per
//!   recipient; [`UdpFabric::dispatch_batch`] extends that reuse
//!   across a whole outbox drain and issues the sends as one
//!   synchronous burst (no await between datagrams);
//! - the pump drains every datagram already queued on the socket per
//!   wakeup (batch receive into one reused scratch buffer) instead of
//!   taking a task wakeup per packet;
//! - node inboxes are bounded; overflow is dropped and counted, and
//!   malformed datagrams — shorter than the 8-byte preamble, or naming
//!   an interface the receiving node does not have — are counted as
//!   [`DropReason::DecodeError`] instead of vanishing silently.

use crate::fabric::{DataPlaneConfig, FabricCounters, Inboxes};
use cbt_netsim::{Bytes, DeliveryPlan, Entity, Transmit};
use cbt_obs::DropReason;
use cbt_topology::{IfIndex, NetworkSpec};
use std::net::SocketAddr;
use std::sync::Arc;
use tokio::net::UdpSocket;
use tokio::task::JoinHandle;

/// How many datagrams a pump drains per socket wakeup before yielding.
const PUMP_BATCH: usize = 64;

/// The UDP-backed fabric. Its tables are indexed by
/// [`DeliveryPlan::index`].
pub struct UdpFabric {
    plan: Arc<DeliveryPlan>,
    /// Each entity's bound socket (send side).
    sockets: Vec<Arc<UdpSocket>>,
    /// Each entity's socket address (receive side).
    peers: Vec<SocketAddr>,
    counters: Arc<FabricCounters>,
    pumps: Vec<JoinHandle<()>>,
}

impl UdpFabric {
    /// Binds one loopback socket per entity and starts pump tasks that
    /// forward received datagrams into the returned inboxes: `shards`
    /// per **router** (hosts keep one). Each router still owns a
    /// single socket, whose pump steers every datagram to the shard
    /// owning its group ([`steer_frame`](crate::fabric::steer_frame)).
    pub async fn bind_sharded(
        net: &NetworkSpec,
        dp: DataPlaneConfig,
        shards: usize,
    ) -> std::io::Result<(Arc<Self>, Inboxes)> {
        let plan = Arc::new(DeliveryPlan::new(net));
        let (counters, rxs) = FabricCounters::new(plan.clone(), dp, shards);
        let mut sockets = Vec::with_capacity(rxs.len());
        let mut peers = Vec::with_capacity(rxs.len());
        let mut pumps = Vec::with_capacity(rxs.len());
        for me in 0..rxs.len() {
            let socket = Arc::new(UdpSocket::bind("127.0.0.1:0").await?);
            peers.push(socket.local_addr()?);
            let ifaces = plan.iface_count(plan.entity(me)) as u32;
            pumps.push(tokio::spawn(pump(socket.clone(), counters.clone(), me, ifaces)));
            sockets.push(socket);
        }
        Ok((Arc::new(UdpFabric { plan, sockets, peers, counters, pumps }), rxs))
    }

    /// The delivery plan this fabric walks (and indexes its receive
    /// ends by).
    pub fn plan(&self) -> &DeliveryPlan {
        &self.plan
    }

    /// Transport counters (shared across all pumps).
    pub fn counters(&self) -> &Arc<FabricCounters> {
        &self.counters
    }

    /// Dispatches one transmission — fabric resolution, UDP delivery.
    /// The datagram is encoded once; only the 4-byte iface preamble is
    /// patched per recipient.
    pub async fn dispatch(&self, from: Entity, t: &Transmit) {
        let mut dgram = Vec::new();
        self.dispatch_buffered(from, t, &mut dgram).await;
    }

    /// Dispatches an entire outbox drain as one burst, reusing a
    /// single encode buffer across every transmission and recipient.
    pub async fn dispatch_batch(&self, from: Entity, transmits: &[Transmit]) {
        let mut dgram = Vec::new();
        for t in transmits {
            self.dispatch_buffered(from, t, &mut dgram).await;
        }
    }

    /// The shared dispatch body: encode `[iface|link_src|frame]` once
    /// into `dgram`, patch the iface word per recipient, send. Sends
    /// go through the socket's synchronous path (UDP on loopback does
    /// not block), so a whole batch leaves without yielding.
    async fn dispatch_buffered(&self, from: Entity, t: &Transmit, dgram: &mut Vec<u8>) {
        let Some(me) = self.plan.index(from) else { return };
        let Some(route) = self.plan.route(from, t.iface) else { return };
        let sock = &self.sockets[me];
        dgram.clear();
        dgram.extend_from_slice(&[0, 0, 0, 0]);
        dgram.extend_from_slice(&route.link_src.0.to_be_bytes());
        dgram.extend_from_slice(&t.frame);
        for rx in route.heard_by(t.link_dst) {
            let to = self.plan.index(rx.entity).expect("the plan lists only its own entities");
            dgram[0..4].copy_from_slice(&rx.iface.0.to_be_bytes());
            if sock.try_send_to(dgram, self.peers[to]).is_err() {
                // Loopback UDP virtually never blocks; fall back to the
                // awaiting path if it does rather than drop the frame.
                let _ = sock.send_to(&dgram[..], self.peers[to]).await;
            }
        }
    }

    /// Stops the pump tasks and closes every inbox, so the node tasks
    /// drain what is queued and then see the end.
    pub fn shutdown(&self) {
        for p in &self.pumps {
            p.abort();
        }
        self.counters.close_inboxes();
    }
}

/// The receive pump of the entity at plan index `me`, which has
/// `ifaces` interfaces: await one datagram, then drain everything else
/// already queued on the socket (up to [`PUMP_BATCH`]) before yielding.
/// One 64 KiB scratch buffer is reused for every read; each frame is
/// copied out at its exact size into a refcounted [`Bytes`].
async fn pump(socket: Arc<UdpSocket>, counters: Arc<FabricCounters>, me: usize, ifaces: u32) {
    let mut buf = vec![0u8; 65536];
    'outer: loop {
        let Ok((len, _)) = socket.recv_from(&mut buf).await else { break };
        if !pump_one(&buf[..len], &counters, me, ifaces) {
            break;
        }
        // Batch: drain whatever else already arrived, without paying a
        // task wakeup per datagram.
        let mut drained = 1;
        while drained < PUMP_BATCH {
            let Ok((len, _)) = socket.try_recv_from(&mut buf) else { break };
            drained += 1;
            if !pump_one(&buf[..len], &counters, me, ifaces) {
                break 'outer;
            }
        }
    }
}

/// Parses, steers and enqueues one received datagram. A datagram is
/// outside input: one too short for the preamble, or whose interface
/// word names an interface this node does not have (the engine would
/// file protocol state on it and every later send there would vanish),
/// is dropped and counted. Returns false when every inbox it was meant
/// for is closed (pump should exit).
fn pump_one(dgram: &[u8], counters: &FabricCounters, me: usize, ifaces: u32) -> bool {
    let word =
        |at: usize| dgram.get(at..at + 4).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
    let Some((iface, link_src)) = word(0).filter(|&iface| iface < ifaces).zip(word(4)) else {
        counters.count_dropped(me, DropReason::DecodeError);
        return true;
    };
    let frame = Bytes::from(dgram[8..].to_vec());
    counters.deliver_run(me, IfIndex(iface), cbt_wire::Addr(link_src), std::iter::once(&frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inbox::{InboxRx, RxFrame};
    use cbt_topology::{NetworkBuilder, RouterId};
    use cbt_wire::{Addr, ControlMessage, GroupId, JoinSubcode, UdpHeader, CBT_PRIMARY_PORT};
    use std::collections::HashMap;

    /// A bound fabric's receive ends keyed by entity, as the tests
    /// address them.
    async fn keyed(
        net: &NetworkSpec,
        dp: DataPlaneConfig,
        shards: usize,
    ) -> (Arc<UdpFabric>, HashMap<Entity, Vec<InboxRx>>) {
        let (fabric, rxs) = UdpFabric::bind_sharded(net, dp, shards).await.unwrap();
        let rxs = fabric.plan().entities().zip(rxs).collect();
        (fabric, rxs)
    }

    /// The unsharded shape: one receive end per entity.
    async fn unsharded(
        net: &NetworkSpec,
        dp: DataPlaneConfig,
    ) -> (Arc<UdpFabric>, HashMap<Entity, InboxRx>) {
        let (fabric, rxs) = keyed(net, dp, 1).await;
        let one = |(e, mut v): (Entity, Vec<_>)| (e, v.pop().expect("one inbox per entity"));
        (fabric, rxs.into_iter().map(one).collect())
    }

    /// The next frame out of `rx`, waiting up to `limit` for it; `None`
    /// on timeout or a closed inbox.
    async fn recv_within(rx: &mut InboxRx, limit: std::time::Duration) -> Option<RxFrame> {
        let mut one = Vec::new();
        match tokio::time::timeout(limit, rx.recv_batch(1, &mut one)).await {
            Ok(1) => one.pop(),
            _ => None,
        }
    }

    const FIVE_S: std::time::Duration = std::time::Duration::from_secs(5);

    /// The socket address a raw sender must target to reach `e`.
    fn peer_of(fabric: &UdpFabric, e: Entity) -> SocketAddr {
        fabric.peers[fabric.plan.index(e).unwrap()]
    }

    /// Datagrams the pumps refused to parse, fleet-wide.
    fn decode_errors(fabric: &UdpFabric) -> u64 {
        fabric.counters().drops_total().get(DropReason::DecodeError)
    }

    fn pair() -> Arc<NetworkSpec> {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        b.link(r0, r1, 1);
        Arc::new(b.build())
    }

    fn frame(bytes: &[u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    /// A genuine CBT JOIN_REQUEST crosses a real UDP socket pair and
    /// decodes byte-exactly on the other side.
    #[tokio::test]
    async fn join_request_over_real_sockets() {
        let net = pair();
        let (fabric, mut rxs) = unsharded(&net, DataPlaneConfig::default()).await;

        let join = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: GroupId::numbered(3),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: Addr::from_octets(10, 255, 0, 1),
            cores: vec![Addr::from_octets(10, 255, 0, 1)],
        };
        // Wrap exactly as the router adapter does: §3 UDP shell inside
        // an IP datagram.
        let udp = UdpHeader::wrap(CBT_PRIMARY_PORT, CBT_PRIMARY_PORT, &join.encode().unwrap());
        let frame = cbt_wire::ipv4::build_datagram(
            Addr::from_octets(172, 31, 0, 1),
            Addr::from_octets(172, 31, 0, 2),
            cbt_wire::IpProto::Udp,
            64,
            &udp,
        );
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: Bytes::from(frame) };
        fabric.dispatch(Entity::Router(RouterId(0)), &t).await;

        let rx = rxs.get_mut(&Entity::Router(RouterId(1))).unwrap();
        let got = recv_within(rx, FIVE_S).await.expect("datagram within 5s");
        assert_eq!(got.iface, IfIndex(0));
        let (hdr, body) = cbt_wire::ipv4::split_datagram(&got.frame).unwrap();
        assert_eq!(hdr.proto, cbt_wire::IpProto::Udp);
        let (udp_hdr, payload) = UdpHeader::unwrap(body).unwrap();
        assert_eq!(udp_hdr.dst_port, CBT_PRIMARY_PORT);
        assert_eq!(ControlMessage::decode(payload).unwrap(), join);
        assert_eq!(fabric.counters().snapshot().delivered, 1);
        fabric.shutdown();
    }

    #[tokio::test]
    async fn lan_unicast_filtering_over_udp() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let lan = b.lan("S0");
        b.attach(lan, r0);
        b.attach(lan, r1);
        b.attach(lan, r2);
        let net = Arc::new(b.build());
        let r1_addr = net.routers[1].ifaces[0].addr;
        let (fabric, mut rxs) = unsharded(&net, DataPlaneConfig::default()).await;
        let t =
            Transmit { iface: IfIndex(0), link_dst: Some(r1_addr), frame: frame(&[0, 1, 2, 3, 4]) };
        fabric.dispatch(Entity::Router(r0), &t).await;
        // R1 receives...
        let rx1 = rxs.get_mut(&Entity::Router(r1)).unwrap();
        let got = recv_within(rx1, FIVE_S).await.expect("delivered");
        assert_eq!(got.frame, vec![0, 1, 2, 3, 4]);
        // ...R2 does not (give the network a moment, then check empty).
        tokio::time::sleep(std::time::Duration::from_millis(100)).await;
        assert!(rxs.get_mut(&Entity::Router(r2)).unwrap().try_recv().is_none());
        fabric.shutdown();
    }

    /// Datagrams shorter than the `[iface|link_src]` preamble —
    /// including zero-length ones — and datagrams naming an interface
    /// the node does not have are dropped and counted, never delivered.
    #[tokio::test]
    async fn short_datagrams_are_counted_and_dropped() {
        let net = pair();
        let (fabric, mut rxs) = unsharded(&net, DataPlaneConfig::default()).await;
        let r1_peer = peer_of(&fabric, Entity::Router(RouterId(1)));
        let raw = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(&[], r1_peer).unwrap(); // zero-length
        raw.send_to(&[1, 2, 3], r1_peer).unwrap(); // 3 < 8
        raw.send_to(&[0; 7], r1_peer).unwrap(); // 7 < 8
                                                // R1 has one interface: words 1 and u32::MAX name none of its.
        raw.send_to(&[0, 0, 0, 1, 0, 0, 0, 0, 9], r1_peer).unwrap();
        raw.send_to(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0], r1_peer).unwrap();
        // An 8-byte datagram is a valid (empty) frame and must pass.
        raw.send_to(&[0; 8], r1_peer).unwrap();
        let rx = rxs.get_mut(&Entity::Router(RouterId(1))).unwrap();
        let got = recv_within(rx, FIVE_S).await.expect("the valid frame arrives");
        assert!(got.frame.is_empty());
        let stats = fabric.counters().snapshot();
        assert_eq!(decode_errors(&fabric), 5, "{stats:?}");
        assert_eq!(stats.delivered, 1);
        fabric.shutdown();
    }

    proptest::proptest! {
        /// A datagram is outside input: whatever the bytes, `pump_one`
        /// does not panic, and it either counts exactly one
        /// `DecodeError` against its node or enqueues exactly one frame
        /// — the bytes behind the preamble, on the interface and from
        /// the sender the preamble names — never both, never neither.
        /// (Sharded, it steers garbage without panicking too; only a
        /// well-formed general IGMP query is one frame per shard, and
        /// random bytes do not checksum as one.)
        #[test]
        fn pump_one_counts_or_enqueues_exactly_once(
            iface in proptest::prop_oneof![0u32..4, proptest::prelude::any::<u32>()],
            link_src in proptest::prelude::any::<u32>(),
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            cut in 0usize..80,
            shards in 1usize..5,
        ) {
            let net = pair();
            let plan = Arc::new(DeliveryPlan::new(&net));
            let (counters, mut rxs) =
                FabricCounters::new(plan.clone(), DataPlaneConfig::default(), shards);
            let r1 = Entity::Router(RouterId(1));
            let me = plan.index(r1).unwrap();
            let ifaces = plan.iface_count(r1) as u32;
            let mut dgram = iface.to_be_bytes().to_vec();
            dgram.extend_from_slice(&link_src.to_be_bytes());
            dgram.extend_from_slice(&body);
            dgram.truncate(cut.min(dgram.len()));

            proptest::prop_assert!(pump_one(&dgram, &counters, me, ifaces), "inboxes are open");
            let queued: Vec<RxFrame> =
                rxs[me].iter_mut().flat_map(|rx| std::iter::from_fn(|| rx.try_recv())).collect();
            let drops = counters.node_drops(r1);
            proptest::prop_assert_eq!(drops.total(), drops.get(DropReason::DecodeError));
            if dgram.len() >= 8 && iface < ifaces {
                proptest::prop_assert_eq!(drops.total(), 0);
                proptest::prop_assert_eq!(queued.len(), 1);
                proptest::prop_assert_eq!(queued[0].iface, IfIndex(iface));
                proptest::prop_assert_eq!(queued[0].link_src, Addr(link_src));
                proptest::prop_assert_eq!(&queued[0].frame[..], &dgram[8..]);
                proptest::prop_assert_eq!(counters.snapshot().delivered, 1);
            } else {
                proptest::prop_assert_eq!(drops.total(), 1);
                proptest::prop_assert!(queued.is_empty());
                proptest::prop_assert_eq!(counters.snapshot().delivered, 0);
            }
        }
    }

    /// Per-node drop taxonomy over real sockets: one node's inbox is
    /// overwhelmed with well-formed datagrams while malformed ones
    /// arrive interleaved. Every drop lands in **that node's** taxonomy
    /// row with an exact per-reason count — 6 `InboxOverflow` (10 valid
    /// datagrams into a capacity-4 inbox that nobody drains) and 3
    /// `DecodeError` (truncated preambles) — and the other node's row
    /// stays zero. The counts are deterministic regardless of how the
    /// pump interleaves the two kinds: short datagrams never consume
    /// inbox capacity, and loopback delivers in order.
    #[tokio::test]
    async fn per_node_overflow_has_exact_reason_counts() {
        let net = pair();
        let dp = DataPlaneConfig { inbox_capacity: 4, ..Default::default() };
        let (fabric, _rxs) = unsharded(&net, dp).await;
        let r1 = Entity::Router(RouterId(1));
        let r1_peer = peer_of(&fabric, r1);
        let raw = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        for _ in 0..10 {
            raw.send_to(&[0; 8], r1_peer).unwrap(); // valid (empty frame)
        }
        for _ in 0..3 {
            raw.send_to(&[1, 2, 3], r1_peer).unwrap(); // 3 < 8: truncated
        }
        // Wait until the pump has accounted for all 13 datagrams.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let accounted =
                fabric.counters().snapshot().delivered + fabric.counters().node_drops(r1).total();
            if accounted >= 13 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "pump stalled at {accounted}/13");
            tokio::time::sleep(std::time::Duration::from_millis(10)).await;
        }
        let drops = fabric.counters().node_drops(r1);
        assert_eq!(drops.get(DropReason::InboxOverflow), 6, "exact overflow count");
        assert_eq!(drops.get(DropReason::DecodeError), 3, "exact truncation count");
        assert_eq!(drops.total(), 9, "no other reason was bumped");
        assert_eq!(fabric.counters().snapshot().delivered, 4, "inbox capacity accepted");
        assert_eq!(
            fabric.counters().node_drops(Entity::Router(RouterId(0))).total(),
            0,
            "drops are attributed, not smeared fabric-wide"
        );
        fabric.shutdown();
    }

    /// Many concurrent senders blasting one receiver: every frame that
    /// is delivered arrives intact (correct preamble parse, exact
    /// payload, exact link_src), interleaving never corrupts a
    /// datagram, and the transport's own queues lose nothing (the only
    /// loss channel is the kernel's UDP receive buffer, which is why
    /// the floor below is 90% rather than 100%).
    #[tokio::test]
    async fn concurrent_senders_deliver_intact_frames() {
        const SENDERS: usize = 8;
        const PER_SENDER: usize = 50;
        let mut b = NetworkBuilder::new();
        let hub = b.router("HUB");
        let lan = b.lan("S0");
        b.attach(lan, hub);
        for i in 0..SENDERS {
            let r = b.router(&format!("TX{i}"));
            b.attach(lan, r);
        }
        let net = Arc::new(b.build());
        let (fabric, mut rxs) = unsharded(&net, DataPlaneConfig::default()).await;
        let hub_addr = net.routers[0].ifaces[0].addr;

        let mut handles = Vec::new();
        for s in 0..SENDERS {
            let fabric = fabric.clone();
            handles.push(tokio::spawn(async move {
                let me = Entity::Router(RouterId((s + 1) as u32));
                for n in 0..PER_SENDER {
                    // Payload encodes (sender, seq) so the receiver can
                    // verify integrity per frame.
                    let mut payload = vec![s as u8, n as u8];
                    payload.resize(64, 0xAB);
                    let t = Transmit {
                        iface: IfIndex(0),
                        link_dst: Some(hub_addr),
                        frame: Bytes::from(payload),
                    };
                    fabric.dispatch(me, &t).await;
                    // Pace the blast so the kernel's receive buffer is
                    // the bottleneck only under pathological load.
                    if n % 4 == 3 {
                        tokio::time::sleep(std::time::Duration::from_millis(1)).await;
                    }
                }
            }));
        }
        for h in handles {
            h.await.unwrap();
        }

        let total = (SENDERS * PER_SENDER) as u64;
        let rx = rxs.get_mut(&Entity::Router(RouterId(0))).unwrap();
        let mut got = 0u64;
        // Drain until everything sent is accounted for, or the socket
        // has gone quiet (kernel-level UDP loss).
        loop {
            let stats = fabric.counters().snapshot();
            if got + stats.dropped_overflow >= total {
                break;
            }
            let Some(f) = recv_within(rx, std::time::Duration::from_millis(500)).await else {
                break;
            };
            assert_eq!(f.frame.len(), 64, "frame intact");
            let (s, n) = (f.frame[0] as usize, f.frame[1] as usize);
            assert!(s < SENDERS && n < PER_SENDER, "valid (sender, seq)");
            assert!(f.frame[2..].iter().all(|&b| b == 0xAB), "payload intact");
            assert_eq!(f.link_src, net.routers[s + 1].ifaces[0].addr, "preamble intact");
            got += 1;
        }
        let stats = fabric.counters().snapshot();
        assert_eq!(decode_errors(&fabric), 0, "no frame was corrupted in flight");
        assert_eq!(got, stats.delivered, "transport accounting matches deliveries");
        assert!(
            got + stats.dropped_overflow >= total * 9 / 10,
            "≥90% accounted for (got {got}, overflow {}, total {total})",
            stats.dropped_overflow
        );
        fabric.shutdown();
    }

    /// A sharded UDP bind steers each datagram to the inbox of the
    /// shard owning its group, from a single socket per router.
    #[tokio::test]
    async fn sharded_bind_steers_datagrams_by_group() {
        let net = pair();
        let (fabric, mut rxs) = keyed(&net, DataPlaneConfig::default(), 4).await;
        let g = GroupId::numbered(9);
        let own = cbt::shard_of(g, 4);
        let join = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g,
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: Addr::from_octets(10, 255, 0, 1),
            cores: vec![Addr::from_octets(10, 255, 0, 1)],
        };
        let udp = UdpHeader::wrap(CBT_PRIMARY_PORT, CBT_PRIMARY_PORT, &join.encode().unwrap());
        let frame = cbt_wire::ipv4::build_datagram(
            Addr::from_octets(172, 31, 0, 1),
            Addr::from_octets(172, 31, 0, 2),
            cbt_wire::IpProto::Udp,
            64,
            &udp,
        );
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: Bytes::from(frame) };
        fabric.dispatch(Entity::Router(RouterId(0)), &t).await;

        let shard_rxs = rxs.get_mut(&Entity::Router(RouterId(1))).unwrap();
        let got =
            recv_within(&mut shard_rxs[own], FIVE_S).await.expect("owner shard gets the datagram");
        let (_, body) = cbt_wire::ipv4::split_datagram(&got.frame).unwrap();
        let (_, payload) = UdpHeader::unwrap(body).unwrap();
        assert_eq!(ControlMessage::decode(payload).unwrap(), join);
        for (k, rx) in shard_rxs.iter_mut().enumerate() {
            if k != own {
                assert!(rx.try_recv().is_none(), "shard {k} does not own group {g}");
            }
        }
        fabric.shutdown();
    }

    /// `dispatch_batch` sends a whole outbox drain in one burst, and
    /// every frame of the batch arrives.
    #[tokio::test]
    async fn batch_dispatch_delivers_every_frame() {
        let net = pair();
        let (fabric, mut rxs) = unsharded(&net, DataPlaneConfig::default()).await;
        let batch: Vec<Transmit> = (0..20u8)
            .map(|i| Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[i; 16]) })
            .collect();
        fabric.dispatch_batch(Entity::Router(RouterId(0)), &batch).await;
        let rx = rxs.get_mut(&Entity::Router(RouterId(1))).unwrap();
        for i in 0..20u8 {
            let got = recv_within(rx, FIVE_S).await.expect("frame within 5s");
            assert_eq!(got.frame, vec![i; 16], "in-order loopback delivery");
        }
        // Shutdown closes the inboxes: a node task waiting on one sees
        // the end instead of waiting forever.
        fabric.shutdown();
        assert_eq!(rx.recv_batch(1, &mut Vec::new()).await, 0);
    }
}
