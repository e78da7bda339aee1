//! Frozen event stream: the counters below were taken from the commit
//! *before* the engine's timer service was rewritten, and a pure
//! CPU/memory change must reproduce every one of them — at one engine
//! shard and at two. A timer that fires early, late, twice or not at
//! all moves an event, a frame or a microsecond of join round trip.
//!
//! Two scenarios, one per simulator:
//!
//! * the ~1k-router netscale fleet of the protoscale gate, held long
//!   enough for several §9 keepalive rounds, with one tree link flapped
//!   for longer than ECHO-TIMEOUT so the §6.1 reattach, pending-join
//!   retransmit and child-assert clocks all run, then torn down to
//!   silence;
//! * a small full-fidelity `World` with LANs, IGMP hosts, lossy links
//!   and a burst of data.
//!
//! Below them, the reference streams the deadline heap was once checked
//! against a full-state scan engine on: the determinism suite's lossy
//! world, pinned to totals and a digest of every transmission.

use cbt::{
    node_addr, CbtConfig, CbtWorld, FleetRib, FleetRoutes, Input, P2pNode, RouterNode,
    ShardedRouter,
};
use cbt_netsim::{Entity, FaultPlan, NetscaleWorld, SimDuration, SimTime, WorldConfig};
use cbt_topology::generate::{self, TransitStubParams};
use cbt_topology::{CsrGraph, HostId, NetworkSpec, RouterId, SpfScratch, SpfTree};
use cbt_wire::GroupId;
use std::sync::{Arc, RwLock};

/// What a run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Frozen {
    events: u64,
    frames: u64,
    bytes: u64,
    join_rtt_sum_us: u64,
    /// Fleet: JOIN_ACKs received (`join_rtt_us` samples). World:
    /// application deliveries at member hosts.
    delivered: u64,
}

/// 2 × 4 × (1 + 3·40) = 968 routers, the protoscale gate's topology.
const TOPO: TransitStubParams = TransitStubParams {
    transit_domains: 2,
    transit_size: 4,
    stubs_per_transit_node: 3,
    stub_size: 40,
};

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

fn fleet(shards: usize) -> Frozen {
    let n = TOPO.total_nodes();
    let transit = TOPO.transit_nodes();
    let groups = 8;
    let g = generate::transit_stub(TOPO, 9393);
    let edges: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
    let (csr, pairs) = CsrGraph::from_edges(n, &edges);
    let cores: Vec<u32> = (0..groups).map(|gi| ((gi * transit) / groups) as u32).collect();
    let mut scratch = SpfScratch::new();
    let trees: Vec<SpfTree> = cores.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
    let rib = Arc::new(RwLock::new(FleetRib::repairable(&csr, &cores, trees)));
    let cfg = CbtConfig { compact_idle: true, max_children: 4096, shards, ..CbtConfig::fast() };
    let nodes: Vec<P2pNode> = (0..n as u32)
        .map(|i| {
            let degree = csr.slot_base(i + 1) - csr.slot_base(i);
            P2pNode::new(ShardedRouter::p2p(
                RouterId(i),
                node_addr(i),
                degree as usize,
                cfg.clone(),
                || Box::new(FleetRoutes::new(Arc::clone(&rib), i)),
                SimTime::ZERO,
            ))
        })
        .collect();
    let mut world = NetscaleWorld::new(nodes, &csr, &pairs, &edges, |w| {
        SimDuration::from_millis(w.max(1) as u64)
    });

    let mut rng = XorShift(9393 ^ 0x5ca1_ab1e);
    let members: Vec<Vec<u32>> = (0..groups)
        .map(|_| {
            let mut m: Vec<u32> =
                (0..32).map(|_| transit as u32 + rng.below(n - transit) as u32).collect();
            m.sort_unstable();
            m.dedup();
            m
        })
        .collect();
    let gid = |gi: usize| GroupId::numbered((gi + 1) as u16);

    // Joins one per millisecond, groups interleaved with their cores.
    let mut k = 0u64;
    for (gi, mem) in members.iter().enumerate() {
        let core = node_addr(cores[gi]);
        for &m in mem {
            k += 1;
            world.run_until(SimTime::from_micros(k * 1000));
            world.with_node(m, |nd, now, out| {
                nd.router.learn_cores(gid(gi), &[core]);
                nd.step(now, Input::Join(gid(gi)), out);
            });
        }
    }
    // Several keepalive rounds (ECHO-INTERVAL is 3 s under `fast`).
    world.run_until(SimTime::from_secs(10));

    // Flap the first member's uplink for 12 s (> ECHO-TIMEOUT 9 s): its
    // echoes die on the wire, §6.1 declares the parent dead, the rejoin
    // retransmits into the dead link until it heals.
    let victim = members[0][0];
    let parent = world.node(victim).router.parent_of(gid(0)).expect("victim is on-tree");
    let parent = cbt::addr_node(parent);
    let edge = edges
        .iter()
        .position(|&(a, b, _)| (a, b) == (victim, parent) || (a, b) == (parent, victim))
        .expect("tree edges are graph edges");
    world.set_link_up(pairs[edge], false);
    world.run_until(SimTime::from_secs(22));
    world.set_link_up(pairs[edge], true);
    world.run_until(SimTime::from_secs(40));

    // Teardown to silence.
    let mut t = world.now();
    for (gi, mem) in members.iter().enumerate() {
        for &m in mem {
            t += SimDuration::from_millis(1);
            world.run_until(t);
            world.with_node(m, |nd, now, out| {
                nd.step(now, Input::Leave(gid(gi)), out);
            });
        }
    }
    world.run_to_quiescence(world.now() + SimDuration::from_secs(60));

    let (mut rtt_sum, mut rtt_count) = (0, 0);
    for i in 0..n as u32 {
        let nd = world.node(i);
        assert_eq!(nd.router.fib_len(), 0, "router {i} kept tree state after teardown");
        assert!(nd.router.next_wakeup().is_none(), "router {i} kept a timer after teardown");
        assert_eq!(nd.decode_errors + nd.encode_errors + nd.dropped_non_control, 0);
        for s in 0..nd.router.local_count() {
            let h = nd.router.shard(s).obs().join_rtt_us();
            rtt_sum += h.sum();
            rtt_count += h.count();
        }
    }
    assert!(world.trace.dropped_link_down > 0, "the flap dropped nothing: scenario is vacuous");
    Frozen {
        events: world.trace.events,
        frames: world.trace.frames,
        bytes: world.trace.bytes,
        join_rtt_sum_us: rtt_sum,
        delivered: rtt_count,
    }
}

fn lan_world(shards: usize) -> Frozen {
    let graph = generate::waxman(generate::WaxmanParams { n: 20, ..Default::default() }, 4);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);
    let routers = net.routers.len() as u32;
    let core_addr = net.router_addr(RouterId(0));
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(
        net,
        CbtConfig { shards, ..CbtConfig::fast() },
        WorldConfig {
            fault: FaultPlan { drop_chance: 0.08, corrupt_chance: 0.05, ..FaultPlan::default() },
            seed: 42,
            ..Default::default()
        },
    );
    let member_hosts: Vec<u32> = (2..20u32).step_by(3).collect();
    for &i in &member_hosts {
        cw.host(HostId(i)).join_at(SimTime::from_secs(1), group, vec![core_addr]);
    }
    for k in 0..40u64 {
        cw.host(HostId(2)).send_at(
            SimTime::from_micros(10_000_000 + 250_000 * k),
            group,
            format!("probe{k}").into_bytes(),
            64,
        );
    }
    cw.host(HostId(5)).leave_at(SimTime::from_secs(15), group);
    cw.world.start();
    let mut events = 0;
    while cw.world.now() <= SimTime::from_secs(40) && cw.world.step() {
        events += 1;
    }
    let (frames, bytes) = cw.world.trace().totals();
    let delivered = member_hosts.iter().map(|&i| cw.host(HostId(i)).received().len() as u64).sum();
    let mut rtt_sum = 0;
    for r in 0..routers {
        let node = cw.world.node::<RouterNode>(Entity::Router(RouterId(r))).expect("router node");
        for s in 0..node.sharded().local_count() {
            rtt_sum += node.sharded().shard(s).obs().join_rtt_us().sum();
        }
    }
    Frozen { events, frames, bytes, join_rtt_sum_us: rtt_sum, delivered }
}

#[test]
fn netscale_fleet_event_stream_is_frozen() {
    let want = Frozen {
        events: 44_196,
        frames: 29_383,
        bytes: 1_183_272,
        join_rtt_sum_us: 12_058_000,
        delivered: 994,
    };
    assert_eq!(fleet(1), want, "one shard");
    assert_eq!(fleet(2), want, "two shards");
}

#[test]
fn lan_world_event_stream_is_frozen() {
    let want = Frozen {
        events: 1_099,
        frames: 762,
        bytes: 31_703,
        join_rtt_sum_us: 8_034_000,
        delivered: 108,
    };
    assert_eq!(lan_world(1), want, "one shard");
    assert_eq!(lan_world(2), want, "two shards");
}

/// `tests/determinism.rs`'s busy little world — joins, one data probe,
/// lossy and corrupting links — run to 30 s. Returns the trace's
/// `(frames, bytes)` and a 64-bit FNV-1a digest over every transmission
/// (instant, sender, iface, medium, kind, size), fed byte by byte.
/// FNV, not `DefaultHasher`: SipHash output is not promised stable
/// across Rust releases, which a committed literal needs.
fn reference_stream(seed: u64, cfg: CbtConfig) -> (u64, u64, u64) {
    let graph = generate::waxman(generate::WaxmanParams { n: 20, ..Default::default() }, 4);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);
    let core_addr = net.router_addr(RouterId(0));
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(
        net,
        cfg,
        WorldConfig {
            fault: FaultPlan { drop_chance: 0.08, corrupt_chance: 0.05, ..FaultPlan::default() },
            seed,
            ..Default::default()
        },
    );
    for i in (2..20u32).step_by(3) {
        cw.host(HostId(i)).join_at(SimTime::from_secs(1), group, vec![core_addr]);
    }
    cw.host(HostId(2)).send_at(SimTime::from_secs(10), group, b"probe".to_vec(), 64);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(30));
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for e in cw.world.trace().entries() {
        let line = format!(
            "{:?} {:?} {:?} {:?} {:?} {}",
            e.at, e.from, e.iface, e.medium, e.kind, e.bytes
        );
        for b in line.bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    let (frames, bytes) = cw.world.trace().totals();
    (frames, bytes, digest)
}

/// Pending-join retransmits, core switches, echo timeouts and
/// re-attachments under seeded loss: any timer that fires early, late,
/// twice or not at all moves the digest.
#[test]
fn scan_reference_streams_are_frozen() {
    for (seed, want) in [
        (7, (301, 14_519, 0x6868_6ec5_d33a_e5c5)),
        (42, (296, 14_563, 0xe12d_cdbe_6c31_c54a)),
        (1337, (299, 14_388, 0x1d41_5fa2_b9e9_add5)),
    ] {
        for shards in [1, 2] {
            let cfg = CbtConfig { shards, ..CbtConfig::fast() };
            assert_eq!(reference_stream(seed, cfg), want, "seed {seed}, {shards} shard(s)");
        }
    }
}

/// The same world with §8.4 echo aggregation on.
#[test]
fn aggregated_echo_streams_are_frozen() {
    for (seed, want) in
        [(5, (294, 14_158, 0x1578_d7e7_1f55_a830)), (99, (306, 14_850, 0x43ac_893b_91f1_fc34))]
    {
        for shards in [1, 2] {
            let cfg = CbtConfig { aggregate_echoes: true, shards, ..CbtConfig::fast() };
            assert_eq!(reference_stream(seed, cfg), want, "seed {seed}, {shards} shard(s)");
        }
    }
}
