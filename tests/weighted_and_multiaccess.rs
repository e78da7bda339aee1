//! Coverage for two under-exercised substrate dimensions:
//!
//! 1. **Weighted links** — joins follow the unicast *metric*, not hop
//!    count, so a cheap long path beats an expensive short one;
//! 2. **Randomised multi-router LANs** — topologies where several
//!    routers share segments, so joins cross LANs, proxy-acks fire
//!    stochastically, and tree branches overlap member subnets. Such
//!    configurations found (and now pin) a data-plane amplification
//!    bug: without validating that a packet's *link-layer* sender is
//!    the tree neighbour, member-delivery multicasts from a co-located
//!    G-DR were mistaken for branch traffic and amplified around
//!    shared-LAN cycles (1.3M frames from four sends before the fix).
//!    With the neighbour check, delivery is complete and bounded; a
//!    host on a LAN that is simultaneously someone else's tree branch
//!    may hear a *bounded* duplicate (one per extra on-tree forwarder
//!    on its LAN) — the multi-forwarder ambiguity that PIM later
//!    solved with its Assert mechanism, which the 1995 CBT spec does
//!    not have. See SPEC_COVERAGE.md, deviation 6.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimDuration, SimTime, WorldConfig};
use cbt_topology::{HostId, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::GroupId;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Metric-vs-hops: direct link R0—Rcore costs 10; detour
/// R0—Ra—Rb—Rcore costs 3×1. The join must take the detour.
#[test]
fn joins_follow_metric_not_hop_count() {
    let mut b = NetworkBuilder::new();
    let r0 = b.router("R0");
    let ra = b.router("Ra");
    let rb = b.router("Rb");
    let rcore = b.router("Rcore");
    let s0 = b.lan("S0");
    b.attach(s0, r0);
    let h = b.host("H", s0);
    b.link(r0, rcore, 10); // expensive direct
    b.link(r0, ra, 1);
    b.link(ra, rb, 1);
    b.link(rb, rcore, 1); // cheap detour
    let net = b.build();
    let core = net.router_addr(rcore);
    let group = GroupId::numbered(1);

    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(h).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(4));

    // The branch runs through Ra and Rb, not the direct link.
    assert!(cw.router(ra).sharded().group_view(group).on_tree, "detour hop Ra on-tree");
    assert!(cw.router(rb).sharded().group_view(group).on_tree, "detour hop Rb on-tree");
    let r0_parent = cw.router(r0).sharded().group_view(group).parent.expect("attached");
    let parent_router = cw.net.router_of(r0_parent).unwrap();
    assert_eq!(parent_router, ra, "R0's parent is the cheap next hop");
    // And data crosses the same detour.
    let core_children = cw.router(rcore).sharded().group_view(group).children;
    assert_eq!(core_children.len(), 1);
    assert_eq!(cw.net.router_of(core_children[0]).unwrap(), rb);
}

/// Randomised multi-access topologies: `n` routers, some sharing LANs,
/// some chained with p2p links, member hosts scattered across the LANs.
/// Every member must receive every foreign payload exactly once.
fn random_lan_network(seed: u64) -> (NetworkSpec, Vec<HostId>, RouterId) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = NetworkBuilder::new();
    let n = 10usize;
    let routers: Vec<RouterId> = (0..n).map(|i| b.router(format!("R{i}"))).collect();
    // A backbone chain keeps everything connected.
    for w in routers.windows(2) {
        b.link(w[0], w[1], 1);
    }
    // Four shared LANs, each with 2-3 random routers and one host.
    let mut hosts = Vec::new();
    for k in 0..4 {
        let lan = b.lan(format!("L{k}"));
        let mut members: Vec<usize> = (0..n).collect();
        members.shuffle(&mut rng);
        for &m in members.iter().take(2 + (k % 2)) {
            b.attach(lan, routers[m]);
        }
        hosts.push(b.host(format!("H{k}"), lan));
    }
    (b.build(), hosts, routers[n / 2])
}

#[test]
fn random_multiaccess_topologies_deliver_exactly_once() {
    for seed in 0..6u64 {
        let (net, hosts, core_router) = random_lan_network(seed);
        let core = net.router_addr(core_router);
        let group = GroupId::numbered(1);
        let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
        for (i, h) in hosts.iter().enumerate() {
            cw.host(*h).join_at(
                SimTime::from_secs(1) + SimDuration::from_millis(150 * i as u64),
                group,
                vec![core],
            );
        }
        // Every host sends one tagged payload.
        for (i, h) in hosts.iter().enumerate() {
            cw.host(*h).send_at(
                SimTime::from_secs(5) + SimDuration::from_millis(400 * i as u64),
                group,
                format!("tag-{i}").into_bytes(),
                64,
            );
        }
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(12));

        // How many frames moved in total? Before the neighbour-source
        // fix this exploded to millions (shared-LAN amplification);
        // bounded now.
        let (frames, _) = cw.world.trace().totals();
        assert!(frames < 5_000, "seed {seed}: data-plane amplification: {frames} frames");

        for (i, h) in hosts.iter().enumerate() {
            let got = cw.host(*h).received();
            // COMPLETE: every host hears every other host at least once.
            let mut tags: Vec<Vec<u8>> = got.iter().map(|d| d.payload.to_vec()).collect();
            tags.sort();
            tags.dedup();
            assert_eq!(
                tags.len(),
                hosts.len() - 1,
                "seed {seed}: host {i} missed payloads, heard {:?}",
                got.iter()
                    .map(|d| String::from_utf8_lossy(d.payload).into_owned())
                    .collect::<Vec<_>>()
            );
            // BOUNDED: at most one copy per on-tree forwarder on the
            // host's LAN (the generator attaches ≤3 routers per LAN).
            // Multi-forwarder LANs are the pre-PIM-Assert ambiguity the
            // 1995 spec leaves open; what matters is that duplication
            // is bounded by the LAN's router count, not amplified.
            assert!(
                got.len() <= 3 * (hosts.len() - 1),
                "seed {seed}: host {i} heard {} copies of {} payloads",
                got.len(),
                hosts.len() - 1
            );
        }
    }
}

/// The shipped `examples/topologies/demo.json` must stay valid and
/// runnable — it is the first thing a user feeds to `cbtd`.
#[test]
fn shipped_demo_deployment_parses_and_builds() {
    let text = std::fs::read_to_string("examples/topologies/demo.json")
        .expect("demo.json ships with the repo");
    let built = cbt_node::Deployment::from_json(&text)
        .expect("valid JSON")
        .build()
        .expect("valid references");
    assert!(built.net.router_graph().is_connected());
    assert!(!built.config.script.is_empty());
    assert!(built.config.cores.iter().all(|c| built.routers.contains_key(c)));
}
