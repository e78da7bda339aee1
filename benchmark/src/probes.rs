//! Single-layer probes run after a traced workload: costs that cannot
//! be separated from outside while the workload runs (the wire codec
//! inside `P2pNode`/`RouterNode`, SPF repair inside `FleetRib`, the
//! engine's forward path) are replayed alone on what the run captured.

use crate::fleet::{Fault, Target};
use crate::proc;
use cbt::config::ForwardingMode;
use cbt::{CbtConfig, RouteLookup, ShardedRouter};
use cbt_netsim::{Bytes, SimTime};
use cbt_routing::Hop;
use cbt_topology::{CsrGraph, IfIndex, NetworkBuilder, RouterId, SpfScratch, SpfTree};
use cbt_wire::header::ON_TREE;
use cbt_wire::{
    AckSubcode, Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage, JoinSubcode,
    RpCoreReport,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Messages each codec probe pushes through, cycling over the capture.
const CODEC_REPLAYS: usize = 200_000;

/// `(decode ns/msg, encode ns/msg)` over netscale
/// frames (`[4-byte source | control encoding]`).
pub fn ctrl_codec(frames: &[Vec<u8>]) -> (f64, f64) {
    let msgs: Vec<ControlMessage> =
        frames.iter().filter_map(|f| ControlMessage::decode(f.get(4..)?).ok()).collect();
    if msgs.is_empty() {
        return (0.0, 0.0);
    }
    let t0 = Instant::now();
    for f in frames.iter().cycle().take(CODEC_REPLAYS) {
        black_box(ControlMessage::decode(black_box(&f[4..])).ok());
    }
    let decode = t0.elapsed().as_nanos() as f64 / CODEC_REPLAYS as f64;
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for m in msgs.iter().cycle().take(CODEC_REPLAYS) {
        black_box(black_box(m).encode_into(&mut buf).ok());
    }
    let encode = t0.elapsed().as_nanos() as f64 / CODEC_REPLAYS as f64;
    (decode, encode)
}

/// `(decode ns/pkt, encode ns/pkt)` over the
/// native data datagrams among frames captured at simulator routers.
pub fn data_codec(frames: &[Vec<u8>]) -> (f64, f64) {
    let frames: Vec<Bytes> = frames
        .iter()
        .map(|f| Bytes::from(f.clone()))
        .filter(|b| DataPacket::decode_bytes(b).is_ok())
        .collect();
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let pkts: Vec<DataPacket> =
        frames.iter().filter_map(|b| DataPacket::decode_bytes(b).ok()).collect();
    let t0 = Instant::now();
    for f in frames.iter().cycle().take(CODEC_REPLAYS) {
        black_box(DataPacket::decode_bytes(black_box(f)).ok());
    }
    let decode = t0.elapsed().as_nanos() as f64 / CODEC_REPLAYS as f64;
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for p in pkts.iter().cycle().take(CODEC_REPLAYS) {
        black_box(p).encode_into(&mut buf);
        black_box(&buf);
    }
    let encode = t0.elapsed().as_nanos() as f64 / CODEC_REPLAYS as f64;
    (decode, encode)
}

/// Replays the run's fault list through `SpfTree::repair_removals` /
/// `repair_additions` alone, one tree per core, and checks repaired
/// trees against a from-scratch SPF (outside the timing).
/// Returns `(µs per tree repair, nodes touched, mismatches)`.
pub fn spf_repair(
    n: usize,
    edge_list: &[(u32, u32, u32)],
    cores: &[u32],
    faults: &[Fault],
) -> (f64, u64, u64) {
    let (mut csr, pairs) = CsrGraph::from_edges(n, edge_list);
    let mut scratch = SpfScratch::new();
    let mut trees: Vec<SpfTree> =
        cores.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
    let mut acts: Vec<(u64, usize, bool)> = faults
        .iter()
        .enumerate()
        .flat_map(|(i, f)| [(f.at_us, i, false), (f.restore_us, i, true)])
        .collect();
    acts.sort_by_key(|&(t, _, _)| t);
    let matches_full = |tree: &SpfTree, csr: &CsrGraph, scratch: &mut SpfScratch| {
        let fresh = SpfTree::full(csr, tree.root(), scratch);
        (0..n as u32)
            .all(|u| tree.dist(u) == fresh.dist(u) && tree.toward_root(u) == fresh.toward_root(u))
    };
    let (mut ns, mut touched, mut mismatches, mut repairs) = (0u128, 0u64, 0u64, 0u64);
    for (step, (_, i, up)) in acts.into_iter().enumerate() {
        let (edges, nodes): (Vec<(u32, u32)>, Vec<u32>) = match faults[i].target {
            Target::Edge(k) => {
                csr.set_slot_live(pairs[k][0], up);
                csr.set_slot_live(pairs[k][1], up);
                (vec![(edge_list[k].0, edge_list[k].1)], vec![])
            }
            Target::Node(r) => {
                csr.set_node_up(r, up);
                (vec![], vec![r])
            }
        };
        for tree in &mut trees {
            let t0 = Instant::now();
            touched += if up {
                tree.repair_additions(&csr, &edges, &nodes, &mut scratch)
            } else {
                tree.repair_removals(&csr, &edges, &nodes, &mut scratch)
            };
            ns += t0.elapsed().as_nanos();
            repairs += 1;
        }
        // One tree per step, in rotation, so every tree is checked
        // against several different fault states…
        let k = step % trees.len().max(1);
        mismatches += !matches_full(&trees[k], &csr, &mut scratch) as u64;
    }
    // …and all of them once every fault is restored.
    for tree in &trees {
        mismatches += !matches_full(tree, &csr, &mut scratch) as u64;
    }
    (ns as f64 / 1e3 / repairs.max(1) as f64, touched, mismatches)
}

struct FixedRoutes(BTreeMap<Addr, Hop>);

impl RouteLookup for FixedRoutes {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        self.0.get(&dst).copied()
    }
}

fn group() -> GroupId {
    GroupId::numbered(1)
}

fn core_addr() -> Addr {
    Addr::from_octets(10, 255, 0, 9)
}

fn parent_addr() -> Addr {
    Addr::from_octets(172, 31, 0, 2)
}

/// An on-tree router with a three-way fan-out: member LAN on if0,
/// parent via if1, child via if2 — the shape `cbt-bench`'s `dataplane`
/// bench asserts its zero-allocation claim on.
fn on_tree(mode: ForwardingMode, shards: usize) -> ShardedRouter {
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
    let cfg = CbtConfig { shards, ..CbtConfig::default().with_mode(mode) };
    let routes = || -> Box<dyn RouteLookup> {
        let hop = Hop { iface: IfIndex(1), router: RouterId(1), addr: parent_addr(), dist: 1 };
        Box::new(FixedRoutes(BTreeMap::from([(core_addr(), hop)])))
    };
    let mut e = ShardedRouter::new(&net, me, cfg, routes, SimTime::ZERO);
    let host = Addr::from_octets(10, 1, 0, 100);
    let report = RpCoreReport {
        group: group(),
        code: cbt_wire::igmp::RP_CORE_CODE_CBT,
        target_core_index: 0,
        cores: vec![core_addr()],
    };
    e.handle_igmp(SimTime::ZERO, IfIndex(0), host, IgmpMessage::RpCore(report));
    e.handle_igmp(
        SimTime::ZERO,
        IfIndex(0),
        host,
        IgmpMessage::Report { version: 3, group: group() },
    );
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(1),
        parent_addr(),
        ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: group(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_addr(),
            cores: vec![core_addr()],
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
            target_core: core_addr(),
            cores: vec![core_addr()],
        },
    );
    assert!(e.is_on_tree(group()), "forward probe: engine failed to get on-tree");
    e
}

/// What the forward-path probe measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Forward {
    /// Native-mode transit, ns per packet.
    pub native_ns: f64,
    /// CBT-mode on-tree transit, ns per packet.
    pub cbt_ns: f64,
    /// Native-mode transit through a 4-way sharded front.
    pub sharded_ns: f64,
    /// Heap allocations per packet, the worst of the three.
    pub allocs_per_pkt: f64,
}

const FWD_WARMUP: usize = 1_000;
const FWD_ITERS: usize = 200_000;

/// `(ns, allocations)` per call of `f` in steady state.
fn steady(mut f: impl FnMut()) -> (f64, f64) {
    for _ in 0..FWD_WARMUP {
        f();
    }
    let a0 = proc::allocs();
    let t0 = Instant::now();
    for _ in 0..FWD_ITERS {
        f();
    }
    let ns = t0.elapsed().as_nanos() as f64 / FWD_ITERS as f64;
    (ns, (proc::allocs() - a0) as f64 / FWD_ITERS as f64)
}

/// Drives `handle_native_data` / `handle_cbt_data` directly on the
/// on-tree fan-out router. Allocation counting must be on.
pub fn forward(payload: usize) -> Forward {
    let remote = Addr::from_octets(10, 9, 0, 100);
    let now = SimTime::from_secs(2);
    let mut act = Vec::new();
    let native = DataPacket::new(remote, group(), 32, vec![0u8; payload]);

    let mut e = on_tree(ForwardingMode::Native, 1);
    let (native_ns, a1) = steady(|| {
        act.clear();
        e.handle_native_data(now, IfIndex(1), parent_addr(), native.clone(), &mut act);
        black_box(&act);
    });
    assert!(!act.is_empty(), "forward probe: native transit must fan out");

    let mut e = on_tree(ForwardingMode::CbtMode, 1);
    let mut enc = CbtDataPacket::encapsulate(&native, core_addr());
    enc.cbt.on_tree = ON_TREE;
    let (cbt_ns, a2) = steady(|| {
        act.clear();
        e.handle_cbt_data(now, IfIndex(1), parent_addr(), enc.clone(), &mut act);
        black_box(&act);
    });
    assert!(!act.is_empty(), "forward probe: CBT-mode transit must fan out");

    let mut e = on_tree(ForwardingMode::Native, 4);
    let (sharded_ns, a3) = steady(|| {
        act.clear();
        e.handle_native_data(now, IfIndex(1), parent_addr(), native.clone(), &mut act);
        black_box(&act);
    });
    Forward { native_ns, cbt_ns, sharded_ns, allocs_per_pkt: a1.max(a2).max(a3) }
}
