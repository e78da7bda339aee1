//! `lan_sim_flood`: the data plane at the smallest packet size in the
//! full-fidelity simulator (`cbt_netsim::World`, IGMP hosts, LANs).
//!
//! Waxman 200 routers, one stub LAN and host per router; 16 groups of
//! 8 member hosts (a host may hold several groups); two member senders
//! per group each flood 64-byte payloads at 1 kpps, the intended send
//! instant stamped in the payload. Closed over a fixed input.
//!
//! Joins are part of set-up and are spaced wider than a join round
//! trip on purpose: a host whose local join lands while its router's
//! own transit join is pending never receives data (see
//! `KNOWN_FAILURES.md`, probe `pending_transit_local_join`), and the
//! benchmark contract wants workloads on which no operation fails.
//! Every missing or duplicate delivery is still counted as failed.

use crate::metrics::Outcome;
use crate::payload;
use crate::proc::{mb, rss_peak_bytes};
use crate::rng::{Digest, XorShift};
use crate::stats;
use crate::trace::{self, Span};
use crate::wrap::TracedSim;
use cbt::{CbtConfig, HostApp, RouterNode, SharedRib};
use cbt_netsim::{Entity, SimNode, SimTime, World, WorldConfig};
use cbt_topology::generate::{self, WaxmanParams};
use cbt_topology::{HostId, NetworkSpec, RouterId};
use cbt_wire::{Addr, GroupId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Routers (and stub LANs, and hosts).
pub const ROUTERS: usize = 200;
/// Same graph on every run; `--seed` places members, senders and joins.
pub const TOPO_SEED: u64 = 1993;
/// Groups, one core each.
pub const GROUPS: usize = 16;
/// Member hosts per group.
pub const MEMBERS: usize = 8;
/// Member hosts per group that also send.
pub const SENDERS: usize = 2;
/// Application payload bytes ([`payload`] header + padding).
pub const PAYLOAD: usize = 64;
/// Per-sender rate: one packet per simulated millisecond.
const SEND_GAP_US: u64 = 1000;
/// Packets per sender per requested wall second: sizes the fixed
/// input so the measured phase lasts about `--seconds` on the 2-core
/// reference box.
pub const PACKETS_PER_SENDER_PER_S: u64 = 1500;
/// Sends are handed to the sender hosts this many at a time, so a
/// host's schedule stays short (it is a sorted `Vec`).
const CHUNK: u64 = 100;
/// Consecutive joins are at least this far apart, plus an exponential
/// of mean `JOIN_JITTER_US` — wider than any join round trip here.
const JOIN_GAP_US: u64 = 60_000;
const JOIN_JITTER_US: f64 = 20_000.0;
/// Set-ups per run; `setup_s` is their lower quartile.
pub const SETUPS: usize = 31;

struct Input {
    net: Arc<NetworkSpec>,
    cfg: CbtConfig,
    gids: Vec<GroupId>,
    cores: Vec<Addr>,
    /// Per group: member hosts; the first [`SENDERS`] also send.
    members: Vec<Vec<HostId>>,
    /// `(instant µs, host, group index)`, ascending.
    joins: Vec<(u64, HostId, usize)>,
    packets_per_sender: u64,
    digest: u64,
    topo_gen_ms: f64,
}

fn generate_input(seed: u64, seconds: u64) -> Input {
    let t0 = Instant::now();
    let graph = generate::waxman(WaxmanParams { n: ROUTERS, ..Default::default() }, TOPO_SEED);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);
    let topo_gen_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut rng = XorShift::new(seed, 0x1a2f_100d);
    let gids: Vec<GroupId> = (0..GROUPS).map(|gi| GroupId::numbered((gi + 1) as u16)).collect();
    // Cores: distinct routers.
    let mut core_ids: Vec<u32> = Vec::with_capacity(GROUPS);
    while core_ids.len() < GROUPS {
        let c = rng.below(ROUTERS) as u32;
        if !core_ids.contains(&c) {
            core_ids.push(c);
        }
    }
    let cores: Vec<Addr> = core_ids.iter().map(|&c| net.router_addr(RouterId(c))).collect();
    // Members: distinct hosts per group (host i sits behind router i).
    let members: Vec<Vec<HostId>> = (0..GROUPS)
        .map(|_| {
            let mut m: Vec<HostId> = Vec::with_capacity(MEMBERS);
            while m.len() < MEMBERS {
                let h = HostId(rng.below(ROUTERS) as u32);
                if !m.contains(&h) {
                    m.push(h);
                }
            }
            m
        })
        .collect();
    // Join instants: a seeded shuffle of every (group, member) pair,
    // spaced by gap + exponential jitter from t = 1 s.
    let mut order: Vec<(usize, HostId)> =
        members.iter().enumerate().flat_map(|(gi, m)| m.iter().map(move |&h| (gi, h))).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut t = 1_000_000u64;
    let joins: Vec<(u64, HostId, usize)> = order
        .into_iter()
        .map(|(gi, h)| {
            t += JOIN_GAP_US + rng.exp(JOIN_JITTER_US) as u64;
            (t, h, gi)
        })
        .collect();

    let mut d = Digest::default();
    for &c in &core_ids {
        d.word(c as u64);
    }
    for &(t, h, gi) in &joins {
        d.word(t);
        d.word((gi as u64) << 32 | h.0 as u64);
    }
    let mut cfg = CbtConfig::fast();
    cfg.shards = 1;
    Input {
        net: Arc::new(net),
        cfg,
        gids,
        cores,
        members,
        joins,
        packets_per_sender: PACKETS_PER_SENDER_PER_S * seconds,
        digest: d.0,
        topo_gen_ms,
    }
}

/// Builds the world, schedules the joins and runs until every member's
/// router is on-tree. Returns the world and the instant data may start.
fn build_world(input: &Input, traced: bool) -> (World, u64) {
    let net = &input.net;
    let (_rib, make_rib) = SharedRib::build(net.clone());
    let mut world =
        World::new((**net).clone(), WorldConfig { record_trace: false, ..Default::default() });
    for i in 0..net.routers.len() {
        let me = RouterId(i as u32);
        let node: Box<dyn SimNode> =
            Box::new(RouterNode::new(net, me, input.cfg.clone(), make_rib(me), SimTime::ZERO));
        world.set_node(Entity::Router(me), if traced { TracedSim::router(node) } else { node });
    }
    for (i, h) in net.hosts.iter().enumerate() {
        let node: Box<dyn SimNode> = Box::new(HostApp::new(h.addr, 3, input.cfg.igmp));
        world.set_node(
            Entity::Host(HostId(i as u32)),
            if traced { TracedSim::host(node) } else { node },
        );
    }
    for &(t, h, gi) in &input.joins {
        world.node_mut::<HostApp>(Entity::Host(h)).expect("host installed").join_at(
            SimTime::from_micros(t),
            input.gids[gi],
            vec![input.cores[gi]],
        );
    }
    world.start();
    let last_join = input.joins.last().map_or(0, |j| j.0);
    let data_start = last_join + 2_000_000;
    world.run_until(SimTime::from_micros(data_start));
    (world, data_start)
}

/// Runs `lan_sim_flood`.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome { correct: true, ..Default::default() };

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let input = generate_input(seed, seconds);
        // Set-up is never traced: the wrappers go in, the recorder
        // starts with the measured phase.
        let (world, data_start) = build_world(&input, traced);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((input, world, data_start));
    }
    let (input, mut world, data_start) = built.expect("at least one set-up");
    out.set("setup_s", stats::lower_quartile(&setup_s));
    out.set("topology.gen_ms", input.topo_gen_ms);

    // Every member's router must be on-tree before data flows.
    for (gi, m) in input.members.iter().enumerate() {
        for &h in m {
            let r = Entity::Router(RouterId(h.0));
            let on =
                world.node::<RouterNode>(r).is_some_and(|n| n.sharded().is_on_tree(input.gids[gi]));
            if !on {
                out.fault(format!("set-up: router of host {} not on-tree for group {gi}", h.0));
            }
        }
    }

    // Sender table: (host, group index, dense sender id).
    let senders: Vec<(HostId, usize)> = input
        .members
        .iter()
        .enumerate()
        .flat_map(|(gi, m)| m[..SENDERS].iter().map(move |&h| (h, gi)))
        .collect();
    let per_sender = input.packets_per_sender;
    let (frames0, _) = world.trace().totals();

    // --- The measured phase: the flood, handed out chunk by chunk. ---
    let allocs0 = crate::proc::allocs();
    let wall0 = Instant::now();
    let mut windows = stats::RateWindows::start(frames0);
    if traced {
        trace::start();
    }
    trace::enter(Span::Phase, 0);
    let mut sent = 0u64;
    while sent < per_sender {
        let n = CHUNK.min(per_sender - sent);
        for (sid, &(h, gi)) in senders.iter().enumerate() {
            let app = world.node_mut::<HostApp>(Entity::Host(h)).expect("sender installed");
            for k in sent..sent + n {
                let at = data_start + k * SEND_GAP_US;
                let bytes = payload::stamped(PAYLOAD, at, sid as u32, k as u32);
                app.send_at(SimTime::from_micros(at), input.gids[gi], bytes, 64);
            }
            world.poke(Entity::Host(h));
        }
        sent += n;
        trace::enter(Span::WorldRun, sent);
        world.run_until(SimTime::from_micros(data_start + sent * SEND_GAP_US));
        trace::exit();
        windows.mark(world.trace().totals().0);
    }
    // Drain: the last packets are still in flight.
    trace::enter(Span::WorldRun, 0);
    world.run_until(SimTime::from_micros(data_start + per_sender * SEND_GAP_US + 500_000));
    trace::exit();
    trace::exit();
    let wall_s = wall0.elapsed().as_secs_f64();
    let allocs = crate::proc::allocs() - allocs0;
    out.wall_s = wall_s;
    let (frames1, _) = world.trace().totals();

    // --- Check every delivery log (outside the timed span). ---
    let sender_of: HashMap<(Addr, GroupId), usize> = senders
        .iter()
        .enumerate()
        .map(|(sid, &(h, gi))| ((input.net.host_addr(h), input.gids[gi]), sid))
        .collect();
    let mut expected = 0u64;
    let mut delivered = 0u64;
    let mut missing = 0u64;
    let mut duplicates = 0u64;
    let mut delay_us: Vec<u64> = Vec::new();
    let mut delay_sum = 0u64;
    for hi in 0..input.net.hosts.len() {
        let h = HostId(hi as u32);
        // Which senders must this host hear? Every sender of a group
        // it is a member of, except itself.
        let want: Vec<usize> = senders
            .iter()
            .enumerate()
            .filter(|&(_, &(sh, gi))| sh != h && input.members[gi].contains(&h))
            .map(|(sid, _)| sid)
            .collect();
        let app = world.node::<HostApp>(Entity::Host(h)).expect("host installed");
        if want.is_empty() {
            if !app.received().is_empty() {
                out.fault(format!("host {hi} is in no group yet received data"));
            }
            continue;
        }
        let mut seen: HashMap<usize, Vec<bool>> =
            want.iter().map(|&sid| (sid, vec![false; per_sender as usize])).collect();
        expected += want.len() as u64 * per_sender;
        for d in app.received() {
            let Some(&sid) = sender_of.get(&(d.src, d.group)) else {
                out.fault(format!("host {hi}: delivery from an unknown sender {}", d.src));
                continue;
            };
            let Some(bits) = seen.get_mut(&sid) else {
                out.fault(format!("host {hi}: delivery for a group it never joined"));
                continue;
            };
            let header = payload::read(&d.payload, PAYLOAD);
            let Some((stamp, _, seq)) =
                header.filter(|&(_, s, q)| s as usize == sid && (q as usize) < bits.len())
            else {
                out.fault(format!("host {hi}: corrupt payload from sender {sid}"));
                continue;
            };
            let seq = seq as usize;
            if bits[seq] {
                duplicates += 1;
                continue;
            }
            bits[seq] = true;
            delivered += 1;
            let delay = d.at.micros().saturating_sub(stamp);
            delay_sum += delay;
            delay_us.push(delay);
        }
        missing += seen.values().flatten().filter(|&&b| !b).count() as u64;
    }
    if delivered + missing != expected {
        out.fault(format!("delivery ledger: {delivered} + {missing} != {expected}"));
    }
    out.attempted = expected;
    out.failed = missing + duplicates;

    let frames = frames1 - frames0;
    // One window per chunk; deliveries per transmission is fixed by
    // the input.
    out.set("ops_per_s", windows.rate() * delivered as f64 / frames.max(1) as f64);
    out.set("bench.ops_per_s_total", delivered as f64 / wall_s);
    out.set("latency_ms", delay_sum as f64 / delivered.max(1) as f64 / 1e3);
    out.set("frames_per_op", frames as f64 / delivered.max(1) as f64);
    out.set("rss_peak_mb", mb(rss_peak_bytes()));
    out.set("netsim.world_transmissions", frames as f64);
    let (p50, tail) = stats::summarize(&mut delay_us);
    out.set("netsim.delivery_delay_p50_ms", p50 as f64 / 1e3);
    out.set("netsim.delivery_delay_tail_ms", tail as f64 / 1e3);
    out.set("proc.allocs_per_event", allocs as f64 / frames.max(1) as f64);

    out.exact.insert("input_digest", input.digest);
    out.exact.insert("expected", expected);
    out.exact.insert("delivered", delivered);
    out.exact.insert("missing", missing);
    out.exact.insert("duplicates", duplicates);
    out.exact.insert("transmissions", frames);
    out.exact.insert("data_frames", world.trace().data_frames());
    out.exact.insert("control_frames", world.trace().control_frames());
    out.exact.insert("delay_sum_us", delay_sum);
    out.exact.insert("attempted", out.attempted);
    out.exact.insert("failed", out.failed);
    out
}
