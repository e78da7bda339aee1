//! The forward paths under the counting allocator. Once warm, a packet
//! costs no heap allocation: with a reused action buffer, refcounted
//! payload handles and the engine's cached spanning entries, native
//! transit, native local-origin fan-out, CBT-mode on-tree transit and
//! first-hop §5.1 encapsulation (which carries the arrival datagram by
//! reference) allocate nothing, and neither does a native hop through
//! the simulator adapter, [`RouterNode`], whose frames come from the
//! [`Outbox`] pool. A host's own send costs the payload it hands in.
//!
//! Each engine case drives `step` on one `CbtRouter` and through a
//! 1-shard and a 2-shard `ShardedRouter`; every shard count is set
//! here, whatever `CBT_SHARDS` says.

mod common;

use cbt::{
    config::ForwardingMode, CbtConfig, CbtRouter, HostApp, Input, RouteHandle, RouteLookup,
    RouterAction, RouterNode, ShardedRouter,
};
use cbt_netsim::{Bytes, Outbox, SimNode, SimTime};
use cbt_routing::{Hop, Rib};
use cbt_topology::{IfIndex, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::header::ON_TREE;
use cbt_wire::igmp::RP_CORE_CODE_CBT;
use cbt_wire::{
    AckSubcode, Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage, JoinSubcode,
    RpCoreReport,
};
use common::alloc;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Calls that grow every scratch buffer and spanning entry before
/// counting.
const WARM: usize = 1_000;

/// Packets counted per case.
const PACKETS: usize = 10_000;

fn group() -> GroupId {
    GroupId::numbered(1)
}

fn core() -> Addr {
    Addr::from_octets(10, 255, 0, 9)
}

fn parent_addr() -> Addr {
    Addr::from_octets(172, 31, 0, 2)
}

/// A member host on the on-tree router's LAN.
fn host_src() -> Addr {
    Addr::from_octets(10, 1, 0, 100)
}

fn now() -> SimTime {
    SimTime::from_secs(2)
}

/// A 512-byte packet from a sender beyond the parent.
fn remote_packet() -> DataPacket {
    DataPacket::new(Addr::from_octets(10, 9, 0, 100), group(), 32, vec![0u8; 512])
}

/// The inputs that put a router on-tree for [`group`]: member LAN on
/// if0, parent via if1, child via if2.
fn on_tree_inputs() -> [(SimTime, Input); 4] {
    let host = |msg| Input::Igmp { iface: IfIndex(0), src: host_src(), msg };
    let rp_core = RpCoreReport {
        group: group(),
        code: RP_CORE_CODE_CBT,
        target_core_index: 0,
        cores: vec![core()],
    };
    let ack = ControlMessage::JoinAck {
        subcode: AckSubcode::Normal,
        group: group(),
        origin: Addr::from_octets(10, 1, 0, 1),
        target_core: core(),
        cores: vec![core()],
    };
    let join = ControlMessage::JoinRequest {
        subcode: JoinSubcode::ActiveJoin,
        group: group(),
        origin: Addr::from_octets(10, 9, 0, 1),
        target_core: core(),
        cores: vec![core()],
    };
    let child = Addr::from_octets(172, 31, 0, 6);
    [
        (SimTime::ZERO, host(IgmpMessage::RpCore(rp_core))),
        (SimTime::ZERO, host(IgmpMessage::Report { version: 3, group: group() })),
        (SimTime::from_secs(1), Input::Control { iface: IfIndex(1), src: parent_addr(), msg: ack }),
        (SimTime::from_secs(1), Input::Control { iface: IfIndex(2), src: child, msg: join }),
    ]
}

/// The router [`on_tree_inputs`] sets up, and its route to the core.
fn net() -> (NetworkSpec, RouterId, impl Fn() -> Box<dyn RouteLookup>) {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let down = b.router("DOWN");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, up, 1);
    b.link(me, down, 1);
    let hop = Hop { iface: IfIndex(1), router: RouterId(1), addr: parent_addr(), dist: 1 };
    let routes = move || -> Box<dyn RouteLookup> { Box::new(BTreeMap::from([(core(), hop)])) };
    (b.build(), me, routes)
}

/// One on-tree engine in `mode`.
fn engine(mode: ForwardingMode) -> CbtRouter {
    let (net, me, routes) = net();
    let mut e =
        CbtRouter::new(&net, me, CbtConfig::default().with_mode(mode), routes(), SimTime::ZERO);
    for (t, input) in on_tree_inputs() {
        e.step(t, input, &mut Vec::new());
    }
    assert!(e.group_view(group()).on_tree);
    e
}

/// An on-tree router in `mode` split over `shards` engines.
fn on_tree(mode: ForwardingMode, shards: usize) -> ShardedRouter {
    let (net, me, routes) = net();
    let cfg = CbtConfig { shards, ..CbtConfig::default().with_mode(mode) };
    let mut e = ShardedRouter::new(&net, me, cfg, routes, SimTime::ZERO);
    for (t, input) in on_tree_inputs() {
        e.step(t, input, &mut Vec::new());
    }
    assert!(e.group_view(group()).on_tree);
    e
}

/// Heap allocations across [`PACKETS`] calls of `step`, after [`WARM`]
/// calls have grown every scratch buffer and spanning entry to
/// capacity.
fn steady_state_allocs(mut step: impl FnMut()) -> u64 {
    for _ in 0..WARM {
        step();
    }
    alloc::count(|| (0..PACKETS).for_each(|_| step())).0.allocs
}

/// Allocations `step` spends forwarding [`PACKETS`] packets once warm,
/// each into a cleared action buffer.
fn forward_allocs(mut step: impl FnMut(&mut Vec<RouterAction>)) -> u64 {
    let mut act = Vec::new();
    let spent = steady_state_allocs(|| {
        act.clear();
        step(&mut act);
    });
    assert!(!act.is_empty(), "the packet must be forwarded");
    spent
}

/// `input` at an on-tree router in `mode` costs no allocation per
/// packet, on one engine and through one and two shards.
fn assert_allocation_free(mode: ForwardingMode, input: Input) {
    let (mut e, mut one, mut two) = (engine(mode), on_tree(mode, 1), on_tree(mode, 2));
    let spent = [
        forward_allocs(|act| e.step(now(), input.clone(), act)),
        forward_allocs(|act| one.step(now(), input.clone(), act)),
        forward_allocs(|act| two.step(now(), input.clone(), act)),
    ];
    assert_eq!(
        spent,
        [0, 0, 0],
        "allocations over {PACKETS} packets: CbtRouter, 1- and 2-shard ShardedRouter"
    );
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let (spent, v) = alloc::count(|| std::hint::black_box(Vec::<u8>::with_capacity(100)));
    assert_eq!((spent.allocs, spent.bytes, spent.live), (1, 100, 100));
    let (freed, ()) = alloc::count(|| drop(v));
    assert_eq!((freed.allocs, freed.live), (0, -100));
}

/// A packet from the parent branch spans to the child and the member
/// LAN.
#[test]
fn native_transit_allocates_nothing() {
    let pkt = remote_packet();
    assert_allocation_free(
        ForwardingMode::Native,
        Input::NativeData { iface: IfIndex(1), link_src: parent_addr(), pkt },
    );
}

/// A member host's packet fans up to the parent and down to the child.
#[test]
fn native_local_origin_allocates_nothing() {
    let pkt = DataPacket::new(host_src(), group(), 32, vec![0u8; 512]);
    assert_allocation_free(
        ForwardingMode::Native,
        Input::NativeData { iface: IfIndex(0), link_src: host_src(), pkt },
    );
}

/// An on-tree encapsulated packet from the parent spans to the child
/// (a refcounted clone) and is decapsulated for the member LAN (a
/// zero-copy view).
#[test]
fn cbt_mode_on_tree_transit_allocates_nothing() {
    let mut enc = CbtDataPacket::encapsulate(&remote_packet(), core());
    enc.cbt.on_tree = ON_TREE;
    assert_allocation_free(
        ForwardingMode::CbtMode,
        Input::CbtData { iface: IfIndex(1), outer_src: parent_addr(), pkt: enc },
    );
}

/// §5.1: a member host's packet, decoded from the frame it put on the
/// LAN, is encapsulated carrying that datagram by reference.
#[test]
fn first_hop_encapsulation_allocates_nothing() {
    let frame = encoded(&DataPacket::new(host_src(), group(), 32, vec![0u8; 512]));
    let pkt = DataPacket::decode_bytes(&frame).expect("a frame `encode_into` built");
    assert_allocation_free(
        ForwardingMode::CbtMode,
        Input::NativeData { iface: IfIndex(0), link_src: host_src(), pkt },
    );
}

/// Every branch of a native fan-out carries a handle to the arrival's
/// payload, never a deep copy.
#[test]
fn fan_out_payloads_share_the_arrival_allocation() {
    let mut e = on_tree(ForwardingMode::Native, 1);
    let pkt = remote_packet();
    let mut act = Vec::new();
    let input = Input::NativeData { iface: IfIndex(1), link_src: parent_addr(), pkt: pkt.clone() };
    e.step(now(), input, &mut act);
    let sent: Vec<&DataPacket> = act
        .iter()
        .filter_map(|a| match a {
            RouterAction::SendNativeData { pkt, .. } => Some(pkt),
            _ => None,
        })
        .collect();
    assert_eq!(sent.len(), 2, "to the child and the member LAN: {act:?}");
    assert!(sent.iter().all(|out| out.payload.shares_allocation_with(&pkt.payload)));
}

/// A [`RouterNode`] on-tree with its parent behind if0 and `fanout`
/// children behind if1.. (one link each, no member LAN), plus the frame
/// a `payload`-byte native packet makes when the parent forwards it.
/// Returns `(node, arrival iface, link-layer sender, frame)`.
fn transit_node(fanout: usize, payload: usize) -> (RouterNode, IfIndex, Addr, Bytes) {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    b.link(me, up, 1);
    let downs: Vec<RouterId> = (0..fanout).map(|i| b.router(format!("DOWN{i}"))).collect();
    for &d in &downs {
        b.link(me, d, 1);
    }
    let net = Arc::new(b.build());
    let rib = RouteHandle::new(Arc::new(RwLock::new(Rib::converged(net.clone()))), me.0);
    let cfg = CbtConfig { shards: 1, ..CbtConfig::default() };
    let mut node = RouterNode::new(&net, me, cfg, rib, SimTime::ZERO);

    // The neighbour's address on the link behind each of ME's ifaces.
    let peer_addr = |iface: usize, peer: RouterId| {
        let subnet = net.routers[me.0 as usize].ifaces[iface].subnet;
        net.routers[peer.0 as usize]
            .ifaces
            .iter()
            .find(|i| i.subnet == subnet)
            .expect("peer sits on the link")
            .addr
    };
    let core = net.router_addr(up);
    let parent = peer_addr(0, up);
    let e = node.sharded_mut();
    let mut out = Vec::new();
    for (i, &d) in downs.iter().enumerate() {
        let origin = Addr::from_octets(10, 9, i as u8, 1);
        let join = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: group(),
            origin,
            target_core: core,
            cores: vec![core],
        };
        let (iface, src) = (IfIndex(1 + i as u32), peer_addr(1 + i, d));
        e.step(SimTime::from_secs(1), Input::Control { iface, src, msg: join }, &mut out);
        if i == 0 {
            // The first child's join went upstream; the parent acks it
            // and every later child finds ME already on-tree.
            let ack = ControlMessage::JoinAck {
                subcode: AckSubcode::Normal,
                group: group(),
                origin,
                target_core: core,
                cores: vec![core],
            };
            let input = Input::Control { iface: IfIndex(0), src: parent, msg: ack };
            e.step(SimTime::from_secs(1), input, &mut out);
        }
    }
    assert_eq!(e.group_view(group()).children.len(), fanout);
    let pkt = DataPacket::new(Addr::from_octets(10, 77, 0, 5), group(), 32, vec![0u8; payload]);
    (node, IfIndex(0), parent, encoded(&pkt))
}

/// The packet's datagram, written the way a host's send path writes it.
fn encoded(pkt: &DataPacket) -> Bytes {
    let mut frame = Vec::new();
    pkt.encode_into(&mut frame);
    Bytes::from(frame)
}

/// What the simulator does with a node's sends, minus the wire: takes
/// every queued frame (through `carried`, a reused scratch) and offers
/// it back to the outbox's pool, which keeps the buffer once the last
/// branch sharing it has let go. Returns how many were queued.
fn hand_back(out: &mut Outbox, carried: &mut Vec<Bytes>) -> usize {
    carried.extend(out.drain().map(|t| t.frame));
    let sent = carried.len();
    for frame in carried.drain(..) {
        out.recycle(frame);
    }
    sent
}

/// One hop through the simulator adapter: the outgoing frame is built
/// in a pooled buffer and, once whoever carried it hands it back (as
/// `World` does after delivery), the next hop reuses both the buffer
/// and its `Arc` — whatever the fan-out. What goes out is the arrival
/// with one less TTL, byte for byte a fresh encode, one allocation
/// behind every branch.
#[test]
fn router_node_hop_allocates_nothing_and_shares_one_frame() {
    for (fanout, payload) in [(1, 64), (3, 64), (1, 256), (3, 256)] {
        let (mut node, iface, link_src, frame) = transit_node(fanout, payload);
        let mut out = Outbox::new();
        let mut carried = Vec::with_capacity(fanout);
        let mut sent = 0;
        let spent = steady_state_allocs(|| {
            node.on_packet(now(), iface, link_src, &frame, &mut out);
            sent = hand_back(&mut out, &mut carried);
        });
        assert_eq!(sent, fanout, "one frame per child branch");
        assert_eq!(
            spent, 0,
            "fan-out {fanout}, {payload} B: {spent} allocations over {PACKETS} hops"
        );

        node.on_packet(now(), iface, link_src, &frame, &mut out);
        let frames: Vec<Bytes> = out.drain().map(|t| t.frame).collect();
        let mut next = DataPacket::decode_bytes(&frame).expect("a frame `encode_into` built");
        next.ttl -= 1;
        assert_eq!(frames.len(), fanout);
        let want = encoded(&next);
        assert!(frames.iter().all(|f| *f == want && f.shares_allocation_with(&frames[0])));
    }
}

/// A packet a [`HostApp`] originates is written straight into a pooled
/// frame buffer: all it costs is the payload `Vec` the caller hands in.
#[test]
fn host_send_costs_only_the_callers_payload() {
    for payload in [64, 256] {
        let mut app = HostApp::new(host_src(), 3, CbtConfig::default().igmp);
        let mut out = Outbox::new();
        let mut carried = Vec::with_capacity(1);
        let mut sent = 0;
        let spent = steady_state_allocs(|| {
            app.send_at(now(), group(), vec![0u8; payload], 32);
            app.on_timer(now(), &mut out);
            sent = hand_back(&mut out, &mut carried);
        });
        assert_eq!(sent, 1, "one frame per originated packet");
        assert_eq!(spent, PACKETS as u64, "{payload} B: one allocation per send, the payload");
    }
}
