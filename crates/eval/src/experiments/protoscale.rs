//! Impl-5 — netscale protocol simulation: *live* CBT engines at
//! 10k–100k routers in one process.
//!
//! Impl-4 (netscale) measured the '93 axes analytically, walking
//! cached SPF trees; the protocol machines themselves only ran on
//! figure-sized netsim topologies. This experiment closes that gap:
//! every router in the fleet is a real [`cbt::CbtRouter`] (sharded
//! front, compact-idle footprint) living in a
//! [`cbt_netsim::NetscaleWorld`] slot, exchanging real JOIN / ACK /
//! ECHO / QUIT control frames over the CSR delivery plan.
//!
//! 1. **validate** — at ~1k routers, drive a fixed membership set
//!    through real joins, settle, and hard-assert the engine-built
//!    tree (parent/child FIB edges) is edge-identical to the analytic
//!    `TreeWalk` over the same [`SpfTree`]s; then tear every member
//!    down and assert the fleet returns to silence (zero FIB entries,
//!    zero armed timers, zero decode errors fleet-wide);
//! 2. **instantiate** the preset fleet (quick ≈ 10k, full ≈ 100k) of
//!    compact-idle engines on the CSR arena, reporting the per-router
//!    idle footprint straight from RSS;
//! 3. **drive** the Poisson/diurnal/flash-crowd session stream from
//!    `cbt_eval::membership` through real join/leave control traffic,
//!    sampling aggregate engine state across the horizon;
//! 4. **report** the cbt-obs join-RTT histogram, control frames/sec
//!    per link, events/s, joins/s and RSS.
//!
//! The fleet is single-core-per-group (cores spread over the transit
//! routers, learned by the member before it joins), so every engine
//! route lookup resolves through the shared [`FleetRib`].

use super::netscale::{TreeWalk, XorShift};
use crate::membership::{FlashCrowd, MembershipEvent, MembershipParams, MembershipStream};
use crate::report::Report;
use cbt::{node_addr, CbtConfig, FleetRib, FleetRoutes, P2pNode, ShardedRouter, SharedFleetRib};
use cbt_metrics::{table::f, Table};
use cbt_netsim::{NetscaleWorld, SimDuration, SimTime};
use cbt_obs::Histogram;
use cbt_topology::csr::{CsrGraph, SpfScratch, SpfTree};
use cbt_topology::generate::{self, TransitStubParams};
use cbt_topology::RouterId;
use cbt_wire::GroupId;
use serde_json::json;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Transit-stub topology shape for the scale stage.
    pub topo: TransitStubParams,
    /// Number of multicast groups (one core each, spread over transit).
    pub groups: usize,
    /// Member-session arrivals over the horizon.
    pub arrivals: usize,
    /// Mean membership holding time (seconds, simulated).
    pub hold_s: f64,
    /// Simulated horizon (seconds); also the diurnal day length.
    pub horizon_s: f64,
    /// Flash-crowd joins on top of the background churn.
    pub flash_joins: usize,
    /// Engine-state samples across the horizon.
    pub samples: usize,
    /// Topology for the ~1k-router equivalence gate.
    pub equiv_topo: TransitStubParams,
    /// Members drawn per group in the equivalence gate.
    pub equiv_members: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            // 8 × 16 × (1 + 6·131) = 100 736 live engines.
            topo: TransitStubParams {
                transit_domains: 8,
                transit_size: 16,
                stubs_per_transit_node: 6,
                stub_size: 131,
            },
            groups: 32,
            arrivals: 200_000,
            hold_s: 120.0,
            horizon_s: 600.0,
            flash_joins: 20_000,
            samples: 6,
            // 2 × 4 × (1 + 3·40) = 968 routers for the equivalence gate.
            equiv_topo: TransitStubParams {
                transit_domains: 2,
                transit_size: 4,
                stubs_per_transit_node: 3,
                stub_size: 40,
            },
            equiv_members: 48,
            seed: 9393,
        }
    }
}

impl Params {
    /// ~10k-engine preset for the CI smoke run (equivalence gate stays
    /// at ~1k).
    pub fn quick() -> Self {
        Params {
            // 4 × 8 × (1 + 4·77) = 9 888 live engines.
            topo: TransitStubParams {
                transit_domains: 4,
                transit_size: 8,
                stubs_per_transit_node: 4,
                stub_size: 77,
            },
            groups: 16,
            arrivals: 20_000,
            hold_s: 60.0,
            horizon_s: 300.0,
            flash_joins: 2_000,
            samples: 4,
            ..Default::default()
        }
    }

    /// Tiny preset for the in-crate unit tests (runs in debug builds).
    #[cfg(test)]
    fn tiny() -> Self {
        let topo = TransitStubParams {
            transit_domains: 2,
            transit_size: 4,
            stubs_per_transit_node: 2,
            stub_size: 6,
        };
        Params {
            topo,
            groups: 4,
            arrivals: 600,
            hold_s: 20.0,
            horizon_s: 60.0,
            flash_joins: 60,
            samples: 2,
            equiv_topo: topo,
            equiv_members: 8,
            seed: 9393,
        }
    }
}

/// Engine configuration for a netscale fleet: compressed (`fast`)
/// timers so keepalive dynamics fit a minutes-long horizon, compact
/// idle state so an untouched engine stays O(bytes), and a children
/// cap comfortably above the largest node degree (children are
/// distinct neighbour routers on a p2p fleet, so degree bounds them).
pub(crate) fn fleet_cfg() -> CbtConfig {
    let mut cfg = CbtConfig::fast();
    cfg.compact_idle = true;
    cfg.max_children = 4096;
    cfg
}

/// Builds one live engine per CSR node and wires the delivery plan.
/// Interface `k` of router `u` is its `k`-th directed CSR slot — the
/// same contract [`FleetRib`] encodes, so routes and ports agree by
/// construction. Edge weights map to milliseconds of one-way latency.
pub(crate) fn build_fleet(
    csr: &CsrGraph,
    pairs: &[[u32; 2]],
    edge_list: &[(u32, u32, u32)],
    rib: SharedFleetRib,
    cfg: CbtConfig,
) -> NetscaleWorld<P2pNode> {
    let n = csr.node_count();
    let slot_count = csr.slot_count() as u32;
    let base: Vec<u32> = (0..n as u32).map(|u| csr.slot_base(u)).chain([slot_count]).collect();
    let nodes: Vec<P2pNode> = (0..n as u32)
        .map(|i| {
            let degree = (base[i as usize + 1] - base[i as usize]) as usize;
            let router = ShardedRouter::p2p(
                RouterId(i),
                node_addr(i),
                degree,
                cfg.clone(),
                || Box::new(FleetRoutes::new(Arc::clone(&rib), i)),
                SimTime::ZERO,
            );
            P2pNode::new(router)
        })
        .collect();
    NetscaleWorld::new(nodes, csr, pairs, edge_list, |w| SimDuration::from_millis(w.max(1) as u64))
}

/// Group id of experiment group `gi` (1-based so the group address is
/// never the unassigned 239.1.0.0).
pub(crate) fn group_id(gi: usize) -> GroupId {
    GroupId::numbered((gi + 1) as u16)
}

/// Resident set size from `/proc/self/statm` (Linux, 4 KiB pages);
/// zero where unavailable. A benchmark metric, not a portability
/// contract.
pub(crate) fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|p| p.parse::<u64>().ok()))
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// What the ~1k-router equivalence gate measured (every protocol
/// property it checks is hard-asserted inside; reaching the summary
/// means the fleet passed).
pub struct EquivSummary {
    /// Fleet size.
    pub routers: usize,
    /// Groups exercised.
    pub groups: usize,
    /// Distinct members joined across all groups.
    pub members: usize,
    /// Tree edges built by the engines (== analytic walk, asserted).
    pub tree_edges: u64,
    /// Control frames on the wire when the built trees were checked.
    pub join_frames: u64,
    /// Control frames after full teardown.
    pub total_frames: u64,
    /// Instant (µs) the built trees were compared.
    pub settle_us: u64,
    /// Instant (µs) of the last event before fleet-wide silence.
    pub silent_us: u64,
}

/// The equivalence gate: real joins must build exactly the tree the
/// analytic walk predicts, and real leaves must tear it all back down.
///
/// `shards` overrides the engine shard count (`None` keeps the
/// `CBT_SHARDS` default), letting the determinism test drive the same
/// fleet across differently-sharded engines.
pub fn equivalence(
    topo: TransitStubParams,
    groups: usize,
    members_per_group: usize,
    shards: Option<usize>,
    seed: u64,
) -> EquivSummary {
    let n = topo.total_nodes();
    let transit = topo.transit_nodes();
    let groups = groups.min(transit);
    let g = generate::transit_stub(topo, seed);
    let edge_list: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
    let (csr, pairs) = CsrGraph::from_edges(n, &edge_list);
    let cores: Vec<u32> = (0..groups).map(|gi| ((gi * transit) / groups) as u32).collect();
    let mut scratch = SpfScratch::new();
    let trees: Vec<SpfTree> = cores.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
    let rib = Arc::new(RwLock::new(FleetRib::new(&csr, &cores, &trees)));
    let mut cfg = fleet_cfg();
    if let Some(s) = shards {
        cfg.shards = s;
    }
    let mut world = build_fleet(&csr, &pairs, &edge_list, rib, cfg);

    // Deterministic member draw from the stub pool (transit routers
    // host cores, not members).
    let mut rng = XorShift(seed ^ 0x5ca1_ab1e);
    let members: Vec<Vec<u32>> = (0..groups)
        .map(|_| {
            let mut m: Vec<u32> = (0..members_per_group)
                .map(|_| transit as u32 + rng.below(n - transit) as u32)
                .collect();
            m.sort_unstable();
            m.dedup();
            m
        })
        .collect();

    // Joins staggered one per millisecond, groups interleaved — both
    // the sequential hop-by-hop path and the transient pending-join
    // caching path get exercised.
    let mut k = 0u64;
    for gi in 0..groups {
        let gid = group_id(gi);
        let core = node_addr(cores[gi]);
        for &m in &members[gi] {
            k += 1;
            world.run_until(SimTime::from_micros(k * 1000));
            world.with_node(m, |nd, now, out| {
                nd.router.learn_cores(gid, &[core]);
                let act = nd.router.local_join(now, gid);
                nd.deliver(act, out);
            });
        }
    }
    // Worst-case join retrace is a handful of link RTTs; two seconds
    // also covers a pending-join retransmission if one were needed.
    world.run_until(world.now() + SimDuration::from_secs(2));
    let settle_us = world.now().micros();
    let join_frames = world.trace.frames;

    // The hard assert: engine FIB edges == the analytic tree walk,
    // group by group.
    let mut walker = TreeWalk::new(n);
    let mut tree_edges = 0u64;
    for gi in 0..groups {
        let gid = group_id(gi);
        let mut engine: Vec<(u32, u32)> = Vec::new();
        for i in 0..n as u32 {
            let r = &world.node(i).router;
            assert!(!r.has_pending_join(gid), "router {i} still pending after settle");
            match r.parent_of(gid) {
                Some(parent) => engine.push((i, cbt::addr_node(parent))),
                None => assert!(
                    !r.is_on_tree(gid) || i == cores[gi],
                    "router {i} is on-tree yet parentless and not the core"
                ),
            }
        }
        engine.sort_unstable();
        let mut span = walker.span(&trees[gi], &members[gi]).edges;
        span.sort_unstable();
        assert_eq!(engine, span, "group {gi}: engine tree != analytic walk");
        tree_edges += span.len() as u64;
    }

    // Full teardown: every member leaves; quits must cascade all the
    // way to the cores and the compact-idle fleet must fall silent.
    let mut t = world.now();
    for (gi, mem) in members.iter().enumerate() {
        let gid = group_id(gi);
        for &m in mem {
            t += SimDuration::from_millis(1);
            world.run_until(t);
            world.with_node(m, |nd, now, out| {
                let act = nd.router.local_leave(now, gid);
                nd.deliver(act, out);
            });
        }
    }
    let silent = world.run_to_quiescence(world.now() + SimDuration::from_secs(30));
    for i in 0..n as u32 {
        let nd = world.node(i);
        assert_eq!(nd.router.fib_len(), 0, "router {i} kept tree state after teardown");
        assert!(nd.router.next_wakeup().is_none(), "router {i} kept a timer after teardown");
        assert_eq!(nd.decode_errors, 0, "router {i} saw undecodable frames");
        assert_eq!(nd.encode_errors, 0, "router {i} failed to encode a control message");
        assert_eq!(nd.dropped_non_control, 0, "router {i} emitted non-control traffic");
    }
    EquivSummary {
        routers: n,
        groups,
        members: members.iter().map(Vec::len).sum(),
        tree_edges,
        join_frames,
        total_frames: world.trace.frames,
        settle_us,
        silent_us: silent.micros(),
    }
}

/// One engine-state sample.
struct Sample {
    t_s: f64,
    concurrent: u64,
    fib_entries: u64,
    busy_routers: u64,
    frames: u64,
}

/// Runs the experiment.
pub fn run(p: &Params) -> Report {
    let mut report =
        Report::new("Impl-5", "netscale protocol simulation: live CBT engines at 10k-100k routers");
    let n = p.topo.total_nodes();
    let transit = p.topo.transit_nodes();
    let groups = p.groups.min(transit);

    // --- Phase 1: the ~1k equivalence gate (hard asserts inside). ---
    let t0 = std::time::Instant::now();
    let eq = equivalence(
        p.equiv_topo,
        groups.min(p.equiv_topo.transit_nodes()),
        p.equiv_members,
        None,
        p.seed,
    );
    let equiv_ms = t0.elapsed().as_secs_f64() * 1e3;

    // --- Phase 2: instantiate the fleet, RSS-audited. ---
    let g = generate::transit_stub(p.topo, p.seed);
    let edge_list: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
    let (csr, pairs) = CsrGraph::from_edges(n, &edge_list);
    let cores: Vec<u32> = (0..groups).map(|gi| ((gi * transit) / groups) as u32).collect();
    let mut scratch = SpfScratch::new();
    let trees: Vec<SpfTree> = cores.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
    let rib = Arc::new(RwLock::new(FleetRib::new(&csr, &cores, &trees)));
    drop(trees);
    drop(scratch);
    let rss0 = rss_bytes();
    let t0 = std::time::Instant::now();
    let mut world = build_fleet(&csr, &pairs, &edge_list, rib, fleet_cfg());
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rss_idle = rss_bytes();
    let idle_per_router = rss_idle.saturating_sub(rss0) / n as u64;

    // --- Phase 3: drive the session stream through real control
    // traffic. Membership transitions (0→1 joins, 1→0 leaves) hit the
    // engines; everything after that — forwarding, acks, keepalives,
    // quits — is the protocol's own doing.
    let gids: Vec<GroupId> = (0..groups).map(group_id).collect();
    let core_addrs: Vec<_> = cores.iter().map(|&c| node_addr(c)).collect();
    let pool: Vec<u32> = (transit as u32..n as u32).collect();
    let mp = MembershipParams {
        groups,
        horizon_s: p.horizon_s,
        arrivals: p.arrivals,
        hold_s: p.hold_s,
        diurnal_depth: 0.6,
        day_s: p.horizon_s,
        hotspot_frac: 0.5,
        flash: Some(FlashCrowd {
            group: (groups as u32) / 2,
            at_s: 0.62 * p.horizon_s,
            joins: p.flash_joins,
            window_s: p.horizon_s / 72.0,
            hold_s: p.hold_s / 16.0,
        }),
    };
    let mut counts: Vec<HashMap<u32, u32>> = vec![HashMap::new(); groups];
    let mut concurrent = 0u64;
    let mut peak_concurrent = 0u64;
    let mut total_joins = 0u64;
    let mut samples: Vec<Sample> = Vec::new();
    let sample_gap_us = (p.horizon_s * 1e6) as u64 / p.samples as u64;
    let mut next_sample = sample_gap_us;
    let scan = |world: &NetscaleWorld<P2pNode>, t_us: u64, concurrent: u64| {
        let mut fib_entries = 0u64;
        let mut busy_routers = 0u64;
        for i in 0..world.len() as u32 {
            let len = world.node(i).router.fib_len() as u64;
            fib_entries += len;
            busy_routers += (len > 0) as u64;
        }
        Sample {
            t_s: t_us as f64 / 1e6,
            concurrent,
            fib_entries,
            busy_routers,
            frames: world.trace.frames,
        }
    };
    let t0 = std::time::Instant::now();
    for ev in MembershipStream::new(&mp, pool, p.seed) {
        let t_us = ev.time_us();
        while t_us >= next_sample {
            world.run_until(SimTime::from_micros(next_sample));
            samples.push(scan(&world, next_sample, concurrent));
            next_sample += sample_gap_us;
        }
        world.run_until(SimTime::from_micros(t_us));
        match ev {
            MembershipEvent::Join { group, router, .. } => {
                total_joins += 1;
                concurrent += 1;
                peak_concurrent = peak_concurrent.max(concurrent);
                let c = counts[group as usize].entry(router).or_default();
                *c += 1;
                if *c == 1 {
                    let (gid, core) = (gids[group as usize], core_addrs[group as usize]);
                    world.with_node(router, |nd, now, out| {
                        nd.router.learn_cores(gid, &[core]);
                        let act = nd.router.local_join(now, gid);
                        nd.deliver(act, out);
                    });
                }
            }
            MembershipEvent::Leave { group, router, .. } => {
                if let Some(c) = counts[group as usize].get_mut(&router) {
                    *c -= 1;
                    concurrent -= 1;
                    if *c == 0 {
                        counts[group as usize].remove(&router);
                        let gid = gids[group as usize];
                        world.with_node(router, |nd, now, out| {
                            let act = nd.router.local_leave(now, gid);
                            nd.deliver(act, out);
                        });
                    }
                }
            }
        }
    }
    while samples.len() < p.samples {
        world.run_until(SimTime::from_micros(next_sample));
        samples.push(scan(&world, next_sample, concurrent));
        next_sample += sample_gap_us;
    }
    let drive_s = t0.elapsed().as_secs_f64();
    let rss_end = rss_bytes();

    // --- Phase 4: harvest. ---
    // The join-RTT histogram, merged across every shard of every
    // engine (originators record on ack receipt).
    let mut rtt = Histogram::new();
    let mut dropped_non_control = 0u64;
    let mut decode_errors = 0u64;
    let mut encode_errors = 0u64;
    let mut fleet_obs = cbt_obs::ObsSnapshot { router: "fleet".into(), ..Default::default() };
    for i in 0..n as u32 {
        let nd = world.node(i);
        for k in 0..nd.router.local_count() {
            rtt.merge(&nd.router.shard(k).obs().join_rtt_us);
        }
        fleet_obs.merge(&nd.router.obs_snapshot());
        dropped_non_control += nd.dropped_non_control;
        decode_errors += nd.decode_errors;
        encode_errors += nd.encode_errors;
    }
    assert_eq!(decode_errors, 0, "a faultless fleet must decode every frame");
    assert_eq!(encode_errors, 0, "a faultless fleet must encode every control message");
    assert_eq!(dropped_non_control, 0, "a p2p control fleet must emit control frames only");
    // Per-link control rate: every frame crosses exactly one directed
    // slot; a link is a slot pair.
    let links = edge_list.len().max(1) as u64;
    let frames = world.trace.frames;
    let mean_link_per_s = frames as f64 / links as f64 / p.horizon_s;
    let (busiest_slot, busiest_fwd) = world.trace.busiest_slot().unwrap_or((0, 0));
    let busiest_link = pairs
        .iter()
        .find(|pq| pq[0] == busiest_slot || pq[1] == busiest_slot)
        .map(|pq| world.trace.slot_frames[pq[0] as usize] + world.trace.slot_frames[pq[1] as usize])
        .unwrap_or(busiest_fwd);
    let busiest_link_per_s = busiest_link as f64 / p.horizon_s;
    let peak = samples.iter().max_by_key(|s| s.fib_entries);
    let peak_state = peak.map(|s| s.fib_entries).unwrap_or(0);
    let peak_busy = peak.map(|s| s.busy_routers).unwrap_or(0);
    let joins_per_s = total_joins as f64 / drive_s.max(1e-9);
    let events_per_s = world.trace.events as f64 / drive_s.max(1e-9);

    // --- Report. ---
    let mut eqt = Table::new([
        "routers",
        "groups",
        "members",
        "tree edges",
        "join frames",
        "total frames",
        "silent at (s)",
    ]);
    eqt.row([
        eq.routers.to_string(),
        eq.groups.to_string(),
        eq.members.to_string(),
        eq.tree_edges.to_string(),
        eq.join_frames.to_string(),
        eq.total_frames.to_string(),
        f(eq.silent_us as f64 / 1e6),
    ]);
    report.table(
        "equivalence gate: engine-built trees hard-asserted edge-identical to the analytic \
         walk, then torn down to fleet-wide silence (zero state, zero timers)",
        eqt,
    );

    let mut fleet = Table::new(["routers", "links", "build ms", "idle RSS MB", "idle B/router"]);
    fleet.row([
        n.to_string(),
        edge_list.len().to_string(),
        f(build_ms),
        f(rss_idle.saturating_sub(rss0) as f64 / 1e6),
        idle_per_router.to_string(),
    ]);
    report.table(
        format!(
            "fleet instantiation: transit-stub {}×{} transit, {}×{} stubs; every router a \
             live compact-idle engine",
            p.topo.transit_domains,
            p.topo.transit_size,
            p.topo.stubs_per_transit_node,
            p.topo.stub_size
        ),
        fleet,
    );

    let mut mtable = Table::new(["t (s)", "concurrent", "fib entries", "busy routers", "frames"]);
    for s in &samples {
        mtable.row([
            f(s.t_s),
            s.concurrent.to_string(),
            s.fib_entries.to_string(),
            s.busy_routers.to_string(),
            s.frames.to_string(),
        ]);
    }
    report.table(
        format!(
            "engine state across the horizon ({} join-sessions, diurnal + hotspots + flash \
             crowd; peak {} concurrent members)",
            total_joins, peak_concurrent
        ),
        mtable,
    );

    let mut thr = Table::new([
        "sim events",
        "frames",
        "events/s",
        "joins/s",
        "rtt p50 ms",
        "rtt p99 ms",
        "link mean f/s",
        "link max f/s",
    ]);
    thr.row([
        world.trace.events.to_string(),
        frames.to_string(),
        f(events_per_s),
        f(joins_per_s),
        f(rtt.quantile(0.50) as f64 / 1e3),
        f(rtt.quantile(0.99) as f64 / 1e3),
        f(mean_link_per_s),
        f(busiest_link_per_s),
    ]);
    report.table(
        format!(
            "throughput and protocol latency ({} joins driven in {:.1}s wall; control rates \
             are per simulated second)",
            total_joins, drive_s
        ),
        thr,
    );

    report.json = json!({
        "params": {
            "routers": n,
            "groups": groups,
            "arrivals": p.arrivals,
            "hold_s": p.hold_s,
            "horizon_s": p.horizon_s,
            "flash_joins": p.flash_joins,
            "seed": p.seed,
        },
        "equivalence": {
            "routers": eq.routers,
            "groups": eq.groups,
            "members": eq.members,
            "tree_edges": eq.tree_edges,
            "join_frames": eq.join_frames,
            "total_frames": eq.total_frames,
            "settle_us": eq.settle_us,
            "silent_us": eq.silent_us,
            "wall_ms": equiv_ms,
        },
        "fleet": {
            "routers": n,
            "links": edge_list.len(),
            "build_ms": build_ms,
            "rss_idle_bytes": rss_idle.saturating_sub(rss0),
            "idle_bytes_per_router": idle_per_router,
        },
        "drive": {
            "total_joins": total_joins,
            "peak_concurrent": peak_concurrent,
            "peak_fib_entries": peak_state,
            "peak_busy_routers": peak_busy,
            "frames": frames,
            "bytes": world.trace.bytes,
            "sim_events": world.trace.events,
            "wall_s": drive_s,
            "joins_per_s": joins_per_s,
            "events_per_s": events_per_s,
            "link_mean_frames_per_s": mean_link_per_s,
            "link_max_frames_per_s": busiest_link_per_s,
            "decode_errors": decode_errors,
            "encode_errors": encode_errors,
            "dropped_non_control": dropped_non_control,
            "samples": samples.iter().map(|s| json!({
                "t_s": s.t_s,
                "concurrent": s.concurrent,
                "fib_entries": s.fib_entries,
                "busy_routers": s.busy_routers,
                "frames": s.frames,
            })).collect::<Vec<_>>(),
        },
        "join_rtt_us": {
            "count": rtt.count(),
            "mean": rtt.mean(),
            "p50": rtt.quantile(0.50),
            "p99": rtt.quantile(0.99),
            "max": rtt.max(),
        },
        "rss_bytes": {
            "baseline": rss0,
            "idle_fleet": rss_idle,
            "after_drive": rss_end,
        },
    });
    // The fleet obs snapshot, with the adapter-level loss counters
    // (which live outside the engine's drop taxonomy) mirrored in.
    report.attach_obs(&fleet_obs);
    if let serde_json::Value::Object(m) = &mut report.obs {
        m.insert("decode_errors".into(), json!(decode_errors));
        m.insert("encode_errors".into(), json!(encode_errors));
        m.insert("dropped_non_control".into(), json!(dropped_non_control));
    }
    report.finding(format!(
        "{} live protocol engines in one process: {} idle bytes/router RSS, {} join-sessions \
         of real control traffic driven at {:.0} joins/s and {:.0} events/s wall, join RTT \
         p50 {:.1} ms / p99 {:.1} ms, busiest link {:.1} control frames/s — with the \
         engine-built trees hard-asserted edge-identical to the analytic walk at {} routers \
         and full teardown back to fleet-wide silence.",
        n,
        idle_per_router,
        total_joins,
        joins_per_s,
        events_per_s,
        rtt.quantile(0.50) as f64 / 1e3,
        rtt.quantile(0.99) as f64 / 1e3,
        busiest_link_per_s,
        eq.routers,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_builds_real_trees_and_reports_every_axis() {
        let p = Params::tiny();
        let r = run(&p);
        let j = &r.json;
        assert_eq!(j["params"]["routers"].as_u64().unwrap(), 104);
        // The equivalence gate ran (its asserts would have aborted on
        // any engine/analytic divergence) and built real trees.
        assert!(j["equivalence"]["tree_edges"].as_u64().unwrap() > 0);
        // Real joins flowed: RTTs were recorded and engines held state.
        assert!(j["join_rtt_us"]["count"].as_u64().unwrap() > 0);
        assert!(j["drive"]["peak_fib_entries"].as_u64().unwrap() > 0);
        assert!(j["drive"]["frames"].as_u64().unwrap() > 0);
        assert_eq!(j["drive"]["decode_errors"].as_u64().unwrap(), 0);
        assert!(!r.findings.is_empty());
    }

    #[test]
    fn equivalence_outcome_is_shard_invariant() {
        let p = Params::tiny();
        let a = equivalence(p.equiv_topo, p.groups, p.equiv_members, Some(1), p.seed);
        let b = equivalence(p.equiv_topo, p.groups, p.equiv_members, Some(2), p.seed);
        // Group-space sharding must not change a single observable:
        // same trees (asserted inside), same frame counts, same
        // settle/silence instants.
        assert_eq!(a.tree_edges, b.tree_edges);
        assert_eq!(a.join_frames, b.join_frames);
        assert_eq!(a.total_frames, b.total_frames);
        assert_eq!(a.silent_us, b.silent_us);
    }
}
