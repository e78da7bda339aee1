//! Multiple concurrent groups: independent trees, isolated delivery,
//! per-group state — and the §8.4 echo-aggregation optimisation
//! measured end-to-end.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{PacketKind, SimTime, WorldConfig};
use cbt_topology::{figure1, NetworkBuilder, RouterId};
use cbt_wire::{ControlType, GroupId};

/// Three groups on Figure 1, different cores and member sets; traffic
/// must stay inside each group.
#[test]
fn groups_are_isolated() {
    let fig = figure1();
    let g1 = GroupId::numbered(1);
    let g2 = GroupId::numbered(2);
    let g3 = GroupId::numbered(3);
    let core_r4 = fig.net.router_addr(fig.router(4));
    let core_r9 = fig.net.router_addr(fig.router(9));
    let core_r3 = fig.net.router_addr(fig.router(3));

    let mut cw = CbtWorld::build(fig.net.clone(), CbtConfig::fast(), WorldConfig::default());
    // g1: A and H, core R4. g2: B and J, core R9. g3: C and K, core R3.
    cw.host(fig.hosts.a).join_at(SimTime::from_secs(1), g1, vec![core_r4]);
    cw.host(fig.hosts.h).join_at(SimTime::from_secs(1), g1, vec![core_r4]);
    cw.host(fig.hosts.b).join_at(SimTime::from_secs(1), g2, vec![core_r9]);
    cw.host(fig.hosts.j).join_at(SimTime::from_secs(1), g2, vec![core_r9]);
    cw.host(fig.hosts.c).join_at(SimTime::from_secs(1), g3, vec![core_r3]);
    cw.host(fig.hosts.k).join_at(SimTime::from_secs(1), g3, vec![core_r3]);

    cw.host(fig.hosts.a).send_at(SimTime::from_secs(4), g1, b"one".to_vec(), 32);
    cw.host(fig.hosts.b).send_at(SimTime::from_secs(4), g2, b"two".to_vec(), 32);
    cw.host(fig.hosts.c).send_at(SimTime::from_secs(4), g3, b"three".to_vec(), 32);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(7));

    // Each member hears exactly its own group's packet.
    let expect = [
        (fig.hosts.h, b"one".to_vec()),
        (fig.hosts.j, b"two".to_vec()),
        (fig.hosts.k, b"three".to_vec()),
    ];
    for (h, payload) in expect {
        let got = cw.host(h).received();
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got.get(0).unwrap().payload, payload);
    }
    // Senders hear nothing (no other senders in their groups).
    for h in [fig.hosts.a, fig.hosts.b, fig.hosts.c] {
        assert!(cw.host(h).received().is_empty());
    }
    // Per-group state: each core serves its group; routers that none
    // of the trees cross hold nothing at all (R5, R6 proxy away their
    // state; R7 and R12 are off every join path).
    assert!(cw.router(fig.router(4)).sharded().is_on_tree(g1));
    assert!(cw.router(fig.router(9)).sharded().is_on_tree(g2));
    assert!(cw.router(fig.router(3)).sharded().is_on_tree(g3));
    for n in [5usize, 6, 7, 12] {
        let engine = cw.router(fig.router(n)).sharded();
        for g in [g1, g2, g3] {
            assert!(!engine.is_on_tree(g), "R{n} should hold no state for {g}");
        }
    }
}

/// §8.4 echo aggregation: many groups sharing one parent produce one
/// masked echo per interval (per engine shard) instead of one per group
/// — and keepalives still protect every group, also when each router
/// splits its groups over two shards.
#[test]
fn echo_aggregation_reduces_keepalive_traffic() {
    // Chain R0 — R1(core); 8 groups, all members behind R0.
    let build = |aggregate: bool, shards: usize| {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let host = b.host("A", s0);
        b.link(r0, r1, 1);
        let net = b.build();
        let core = net.router_addr(r1);
        let cfg = CbtConfig { aggregate_echoes: aggregate, shards, ..CbtConfig::fast() };
        let mut cw = CbtWorld::build(net, cfg, WorldConfig::default());
        for n in 0..8u16 {
            cw.host(host).join_at(SimTime::from_secs(1), GroupId::numbered(n), vec![core]);
        }
        cw.world.start();
        // Join settle + several echo intervals (3 s fast).
        cw.world.run_until(SimTime::from_secs(32));
        let echoes = cw.world.trace().count(PacketKind::Control(ControlType::EchoRequest));
        let failures: u64 =
            (0..2).map(|i| cw.router(RouterId(i)).sharded().obs_snapshot().parent_failures).sum();
        (echoes, failures)
    };

    for shards in [1, 2] {
        let (per_group, failures_plain) = build(false, shards);
        let (aggregated, failures_agg) = build(true, shards);
        assert_eq!(failures_plain, 0, "{shards} shard(s): keepalives work without aggregation");
        assert_eq!(failures_agg, 0, "{shards} shard(s): …and with aggregation (§8.4)");
        assert!(
            aggregated * 4 <= per_group,
            "{shards} shard(s): 8 groups → ≥4x fewer echo requests with aggregation: \
             {aggregated} vs {per_group}"
        );
    }
}

/// State scales with groups, not with senders, at the router level —
/// the packet-level version of experiment S93-T1's claim.
#[test]
fn fib_size_equals_group_count() {
    let mut b = NetworkBuilder::new();
    let r0 = b.router("R0");
    let r1 = b.router("R1");
    let s0 = b.lan("S0");
    b.attach(s0, r0);
    let host = b.host("A", s0);
    b.link(r0, r1, 1);
    let net = b.build();
    let core = net.router_addr(r1);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    for n in 0..5u16 {
        cw.host(host).join_at(SimTime::from_secs(1), GroupId::numbered(n), vec![core]);
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(5));
    assert_eq!(cw.router(r0).sharded().fib_len(), 5, "one FIB entry per group");
    assert_eq!(cw.router(r1).sharded().fib_len(), 5);
}
