//! Impl-2 bench: per-packet forward cost through the engine under an
//! allocation-counting global allocator.
//!
//! The data-plane refactor's claim is not just "faster" but "no heap
//! traffic": with a warmed action buffer, refcounted payload handles
//! and the engine's cached spanning entries, the steady-state forward path
//! must perform **zero** heap allocations per packet. This bench
//! wraps the system allocator in a counter and *asserts* that claim
//! for the hot paths (native transit, native local-origin fan-out,
//! CBT-mode on-tree transit, and first-hop §5.1 encapsulation of a
//! packet that arrived in a frame, whose datagram it carries by
//! reference) before timing them.
//!
//! `router_node_hop` then puts the simulator adapter around the engine
//! — frame in, [`RouterNode::on_packet`], frames out, frames handed
//! back to the [`Outbox`] as the simulator does — and asserts the
//! pooled-frame budget: a native transit hop allocates nothing either,
//! however many branches share its one patched frame. `host_send`
//! asserts that a packet a [`HostApp`] originates costs only the
//! payload `Vec` its caller hands in.

use cbt::{
    config::ForwardingMode, CbtConfig, CbtRouter, HostApp, RouterAction, RouterNode, ShardedRouter,
    SharedRib,
};
use cbt_netsim::{Bytes, Outbox, SimNode, SimTime};
use cbt_routing::Hop;
use cbt_topology::{IfIndex, NetworkBuilder, RouterId};
use cbt_wire::header::ON_TREE;
use cbt_wire::{AckSubcode, Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, JoinSubcode};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped in an allocation counter. Counts every
/// heap acquisition (alloc, alloc_zeroed, realloc); frees are not
/// interesting for the steady-state claim.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

struct FixedRoutes(BTreeMap<Addr, Hop>);
impl cbt::RouteLookup for FixedRoutes {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        self.0.get(&dst).copied()
    }
}

fn group() -> GroupId {
    GroupId::numbered(1)
}

fn core() -> Addr {
    Addr::from_octets(10, 255, 0, 9)
}

fn parent_addr() -> Addr {
    Addr::from_octets(172, 31, 0, 2)
}

/// An on-tree router: member LAN on if0, parent via if1, child via if2
/// — the same shape `forwarding_modes` uses.
fn on_tree_engine(mode: ForwardingMode) -> CbtRouter {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let down = b.router("DOWN");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, up, 1);
    b.link(me, down, 1);
    let net = b.build();
    let mut routes = BTreeMap::new();
    routes.insert(
        core(),
        Hop { iface: IfIndex(1), router: RouterId(1), addr: parent_addr(), dist: 1 },
    );
    let mut e = CbtRouter::new(
        &net,
        me,
        CbtConfig::default().with_mode(mode),
        Box::new(FixedRoutes(routes)),
        SimTime::ZERO,
    );
    e.handle_igmp(
        SimTime::ZERO,
        IfIndex(0),
        Addr::from_octets(10, 1, 0, 100),
        cbt_wire::IgmpMessage::RpCore(cbt_wire::RpCoreReport {
            group: group(),
            code: cbt_wire::igmp::RP_CORE_CODE_CBT,
            target_core_index: 0,
            cores: vec![core()],
        }),
    );
    e.handle_igmp(
        SimTime::ZERO,
        IfIndex(0),
        Addr::from_octets(10, 1, 0, 100),
        cbt_wire::IgmpMessage::Report { version: 3, group: group() },
    );
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(1),
        parent_addr(),
        ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: group(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core(),
            cores: vec![core()],
        },
    );
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(2),
        Addr::from_octets(172, 31, 0, 6),
        ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: group(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core(),
            cores: vec![core()],
        },
    );
    assert!(e.is_on_tree(group()));
    e
}

/// The same on-tree shape fronted by a 4-way [`ShardedRouter`]: the
/// packet passes shard steering (`shard_for_mut`) before the engine,
/// so the zero-allocation claim covers the sharded forward path too.
fn on_tree_sharded(mode: ForwardingMode) -> ShardedRouter {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let down = b.router("DOWN");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, up, 1);
    b.link(me, down, 1);
    let net = b.build();
    let cfg = CbtConfig { shards: 4, ..CbtConfig::default().with_mode(mode) };
    let mut e = ShardedRouter::new(
        &net,
        me,
        cfg,
        || {
            let mut routes = BTreeMap::new();
            routes.insert(
                core(),
                Hop { iface: IfIndex(1), router: RouterId(1), addr: parent_addr(), dist: 1 },
            );
            Box::new(FixedRoutes(routes))
        },
        SimTime::ZERO,
    );
    e.handle_igmp(
        SimTime::ZERO,
        IfIndex(0),
        Addr::from_octets(10, 1, 0, 100),
        cbt_wire::IgmpMessage::RpCore(cbt_wire::RpCoreReport {
            group: group(),
            code: cbt_wire::igmp::RP_CORE_CODE_CBT,
            target_core_index: 0,
            cores: vec![core()],
        }),
    );
    e.handle_igmp(
        SimTime::ZERO,
        IfIndex(0),
        Addr::from_octets(10, 1, 0, 100),
        cbt_wire::IgmpMessage::Report { version: 3, group: group() },
    );
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(1),
        parent_addr(),
        ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: group(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core(),
            cores: vec![core()],
        },
    );
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(2),
        Addr::from_octets(172, 31, 0, 6),
        ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: group(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core(),
            cores: vec![core()],
        },
    );
    assert!(e.is_on_tree(group()));
    e
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
    let net = std::sync::Arc::new(b.build());
    let (_rib, make_rib) = SharedRib::build(net.clone());
    let cfg = CbtConfig { shards: 1, ..CbtConfig::default() };
    let mut node = RouterNode::new(&net, me, cfg, make_rib(me), SimTime::ZERO);

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
    for (i, &d) in downs.iter().enumerate() {
        let origin = Addr::from_octets(10, 9, i as u8, 1);
        e.handle_control(
            SimTime::from_secs(1),
            IfIndex(1 + i as u32),
            peer_addr(1 + i, d),
            ControlMessage::JoinRequest {
                subcode: JoinSubcode::ActiveJoin,
                group: group(),
                origin,
                target_core: core,
                cores: vec![core],
            },
        );
        if i == 0 {
            // The first child's join went upstream; the parent acks it
            // and every later child finds ME already on-tree.
            e.handle_control(
                SimTime::from_secs(1),
                IfIndex(0),
                parent,
                ControlMessage::JoinAck {
                    subcode: AckSubcode::Normal,
                    group: group(),
                    origin,
                    target_core: core,
                    cores: vec![core],
                },
            );
        }
    }
    assert_eq!(e.children_of(group()).len(), fanout);
    let pkt = DataPacket::new(Addr::from_octets(10, 77, 0, 5), group(), 32, vec![0u8; payload]);
    (node, IfIndex(0), parent, Bytes::from(pkt.encode()))
}

/// A 512-byte native packet as a first-hop router gets it: decoded
/// from the frame the member host `src` put on the LAN.
fn first_hop_arrival(src: Addr) -> DataPacket {
    let frame = Bytes::from(DataPacket::new(src, group(), 32, vec![0u8; 512]).encode());
    DataPacket::decode_bytes(&frame).expect("a frame `encode` built")
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

/// Warms `f` (growing every scratch buffer and memo to capacity), then
/// measures the allocation count across `iters` further calls and
/// returns allocations per call.
fn steady_state_allocs(mut f: impl FnMut(), iters: u64) -> f64 {
    for _ in 0..1_000 {
        f();
    }
    let before = allocs();
    for _ in 0..iters {
        f();
    }
    (allocs() - before) as f64 / iters as f64
}

fn bench_dataplane(c: &mut Criterion) {
    let host_src = Addr::from_octets(10, 1, 0, 100);
    let remote_src = Addr::from_octets(10, 9, 0, 100);

    // -- Zero-allocation assertions (10k packets each, after warmup) --

    // Native transit: packet from the parent branch spans to the child
    // and the member LAN.
    {
        let mut e = on_tree_engine(ForwardingMode::Native);
        let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_native_data(
                    SimTime::from_secs(2),
                    IfIndex(1),
                    parent_addr(),
                    pkt.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        assert!(!act.is_empty(), "transit packet must fan out");
        assert_eq!(per, 0.0, "native transit forward must not allocate in steady state");
        println!("[native_transit] steady-state heap allocations/packet: {per}");
    }

    // Native local-origin: a member host's packet fans up and down.
    {
        let mut e = on_tree_engine(ForwardingMode::Native);
        let pkt = DataPacket::new(host_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_native_data(
                    SimTime::from_secs(2),
                    IfIndex(0),
                    host_src,
                    pkt.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        assert!(!act.is_empty());
        assert_eq!(per, 0.0, "local-origin native forward must not allocate in steady state");
        println!("[native_local_origin] steady-state heap allocations/packet: {per}");
    }

    // CBT-mode transit: an on-tree encapsulated packet from the parent
    // spans to the child (refcounted clone) and decapsulates for the
    // member LAN (zero-copy view).
    {
        let mut e = on_tree_engine(ForwardingMode::CbtMode);
        let native = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut enc = CbtDataPacket::encapsulate(&native, core());
        enc.cbt.on_tree = ON_TREE;
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_cbt_data(
                    SimTime::from_secs(2),
                    IfIndex(1),
                    parent_addr(),
                    enc.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        assert!(!act.is_empty());
        assert_eq!(per, 0.0, "CBT-mode on-tree transit must not allocate in steady state");
        println!("[cbt_transit] steady-state heap allocations/packet: {per}");
    }

    // Sharded forward path: the same native transit through a 4-way
    // `ShardedRouter` front — steering (group → shard) plus the engine
    // must stay allocation-free too.
    {
        let mut e = on_tree_sharded(ForwardingMode::Native);
        let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_native_data(
                    SimTime::from_secs(2),
                    IfIndex(1),
                    parent_addr(),
                    pkt.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        assert!(!act.is_empty(), "sharded transit packet must fan out");
        assert_eq!(per, 0.0, "sharded native forward must not allocate in steady state");
        println!("[sharded_native_transit] steady-state heap allocations/packet: {per}");
    }

    // First-hop CBT encapsulation (§5.1): the packet arrived in a
    // frame, and the encapsulation carries that datagram by reference.
    {
        let mut e = on_tree_engine(ForwardingMode::CbtMode);
        let pkt = first_hop_arrival(host_src);
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_native_data(
                    SimTime::from_secs(2),
                    IfIndex(0),
                    host_src,
                    pkt.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        assert!(!act.is_empty());
        assert_eq!(per, 0.0, "first-hop encapsulation must share the arrival datagram");
        println!("[cbt_first_hop_encap] steady-state heap allocations/packet: {per}");
    }

    // One hop through the simulator adapter: the outgoing frame is
    // built in a pooled buffer and, once whoever carried it hands it
    // back (as `World` does after delivery), the next hop reuses both
    // the buffer and its `Arc` — whatever the fan-out.
    for (fanout, payload) in [(1, 64), (3, 64), (1, 256), (3, 256)] {
        let (mut node, iface, link_src, frame) = transit_node(fanout, payload);
        let mut out = Outbox::new();
        let mut carried = Vec::with_capacity(fanout);
        let mut sent = 0;
        let per = steady_state_allocs(
            || {
                node.on_packet(SimTime::from_secs(2), iface, link_src, &frame, &mut out);
                sent = hand_back(&mut out, &mut carried);
            },
            10_000,
        );
        assert_eq!(sent, fanout, "one frame per child branch");
        assert_eq!(per, 0.0, "native transit hop allocated {per} times (fan-out {fanout})");
        // What went out: the arrival with one less TTL, byte for byte
        // what a fresh encode gives, one allocation behind every branch.
        node.on_packet(SimTime::from_secs(2), iface, link_src, &frame, &mut out);
        let frames: Vec<Bytes> = out.drain().map(|t| t.frame).collect();
        let mut next = DataPacket::decode_bytes(&frame).unwrap();
        next.ttl -= 1;
        assert!(frames.iter().all(|f| *f == next.encode() && f.shares_allocation_with(&frames[0])));
        println!("[router_node_hop fanout={fanout} {payload}B] heap allocations/hop: {per}");
    }

    // A host originating a packet: header and payload are written
    // straight into a pooled frame buffer, so the one allocation
    // counted here is the payload `Vec` the caller hands in.
    for payload in [64usize, 256] {
        let mut app = HostApp::new(host_src, 3, CbtConfig::default().igmp);
        let mut out = Outbox::new();
        let mut carried = Vec::with_capacity(1);
        let mut sent = 0;
        let per = steady_state_allocs(
            || {
                app.send_at(SimTime::from_secs(2), group(), vec![0u8; payload], 32);
                app.on_timer(SimTime::from_secs(2), &mut out);
                sent = hand_back(&mut out, &mut carried);
            },
            10_000,
        );
        assert_eq!(sent, 1, "one frame per originated packet");
        assert!(per <= 1.0, "host send allocated {per} times (the caller's payload = 1)");
        println!(
            "[host_send {payload}B] heap allocations/packet, caller's payload included: {per}"
        );
    }

    // -- Timings for the same paths --

    let mut g = c.benchmark_group("dataplane_forward");
    g.throughput(Throughput::Elements(1));

    g.bench_function("native_transit_512B", |b| {
        let mut e = on_tree_engine(ForwardingMode::Native);
        let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        b.iter(|| {
            act.clear();
            e.handle_native_data(
                black_box(SimTime::from_secs(2)),
                IfIndex(1),
                parent_addr(),
                black_box(pkt.clone()),
                &mut act,
            );
            black_box(&mut act);
        })
    });

    g.bench_function("cbt_transit_512B", |b| {
        let mut e = on_tree_engine(ForwardingMode::CbtMode);
        let native = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut enc = CbtDataPacket::encapsulate(&native, core());
        enc.cbt.on_tree = ON_TREE;
        let mut act = Vec::new();
        b.iter(|| {
            act.clear();
            e.handle_cbt_data(
                black_box(SimTime::from_secs(2)),
                IfIndex(1),
                parent_addr(),
                black_box(enc.clone()),
                &mut act,
            );
            black_box(&mut act);
        })
    });

    g.bench_function("sharded_native_transit_512B", |b| {
        let mut e = on_tree_sharded(ForwardingMode::Native);
        let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        b.iter(|| {
            act.clear();
            e.handle_native_data(
                black_box(SimTime::from_secs(2)),
                IfIndex(1),
                parent_addr(),
                black_box(pkt.clone()),
                &mut act,
            );
            black_box(&mut act);
        })
    });

    g.bench_function("cbt_first_hop_encap_512B", |b| {
        let mut e = on_tree_engine(ForwardingMode::CbtMode);
        let pkt = first_hop_arrival(host_src);
        let mut act = Vec::new();
        b.iter(|| {
            act.clear();
            e.handle_native_data(
                black_box(SimTime::from_secs(2)),
                IfIndex(0),
                host_src,
                black_box(pkt.clone()),
                &mut act,
            );
            black_box(&mut act);
        })
    });

    for (fanout, payload) in [(1, 64), (3, 64), (1, 256), (3, 256)] {
        g.bench_function(&format!("router_node_hop_fanout{fanout}_{payload}B"), |b| {
            let (mut node, iface, link_src, frame) = transit_node(fanout, payload);
            let mut out = Outbox::new();
            let mut carried = Vec::with_capacity(fanout);
            b.iter(|| {
                node.on_packet(
                    black_box(SimTime::from_secs(2)),
                    iface,
                    link_src,
                    black_box(&frame),
                    &mut out,
                );
                black_box(hand_back(&mut out, &mut carried));
            })
        });
    }

    g.finish();

    // Make sure a future edit can't silently turn RouterAction clones
    // into deep copies: fan-out payloads must share the input's buffer.
    let mut e = on_tree_engine(ForwardingMode::Native);
    let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
    let mut act = Vec::new();
    e.handle_native_data(SimTime::from_secs(2), IfIndex(1), parent_addr(), pkt.clone(), &mut act);
    for a in &act {
        if let RouterAction::SendNativeData { pkt: out, .. } = a {
            assert!(out.payload.shares_allocation_with(&pkt.payload));
        }
    }
}

criterion_group!(benches, bench_dataplane);
criterion_main!(benches);
