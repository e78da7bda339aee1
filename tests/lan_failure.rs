//! Multi-access segments as *transit* media: a LAN that is itself a
//! tree branch (spec §5: "a multi-access subnetwork ... could
//! potentially be both a CBT tree branch and a subnetwork with group
//! member presence") can fail like any link; the branch re-attaches
//! around it.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimDuration, SimTime, WorldConfig};
use cbt_topology::{HostId, LanId, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::GroupId;

/// The core reaches Rleaf two ways: over transit LAN T (1 hop) or via
/// the backup router chain (2 hops). Member host behind Rleaf.
///
/// ```text
///           [T: Rcore, Rleaf]      (transit LAN, preferred path)
///   Rcore ——— Rmid ——— Rleaf       (backup p2p chain)
///   Rleaf —[S: member]
/// ```
fn transit_lan_net() -> (NetworkSpec, RouterId, RouterId, LanId, HostId) {
    let mut b = NetworkBuilder::new();
    let r_core = b.router("Rcore");
    let r_mid = b.router("Rmid");
    let r_leaf = b.router("Rleaf");
    let transit = b.lan("T");
    b.attach(transit, r_core);
    b.attach(transit, r_leaf);
    b.link(r_core, r_mid, 1);
    b.link(r_mid, r_leaf, 1);
    let s = b.lan("S");
    b.attach(s, r_leaf);
    let h = b.host("H", s);
    (b.build(), r_core, r_leaf, transit, h)
}

#[test]
fn tree_branch_over_a_lan_then_reroutes_when_it_fails() {
    let (net, r_core, r_leaf, transit, h) = transit_lan_net();
    let core = net.router_addr(r_core);
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(h).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(4));

    // The branch initially runs over the transit LAN (1 hop beats 2).
    let parent = cw.router(r_leaf).sharded().group_view(group).parent.expect("attached");
    let on_lan_subnet = {
        let net = cw.net.clone();
        let lan_spec = &net.lans[transit.0 as usize];
        parent.same_subnet(lan_spec.subnet, lan_spec.mask)
    };
    assert!(on_lan_subnet, "parent {parent} should be Rcore's address on the transit LAN");

    // The LAN dies. Echoes over it vanish; after the fast echo timeout
    // Rleaf re-attaches over the p2p chain through Rmid.
    cw.fail_lan(transit);
    cw.world.run_until(SimTime::from_secs(30));
    let parent = cw.router(r_leaf).sharded().group_view(group).parent.expect("re-attached");
    let via_chain = parent == Addr_on_chain(&mut cw, r_leaf);
    assert!(via_chain, "parent now Rmid's link address, got {parent}");

    // And the data plane followed: host still receives from the core
    // side. (Send from a second member joined at the core's own LAN —
    // simplest: the core itself has no host, so attach via engine-less
    // check of delivery using the member on S as receiver only.)
    // Instead verify keepalives now flow on the new branch: no further
    // parent failures accumulate.
    let failures_now = cw.router(r_leaf).sharded().obs_snapshot().parent_failures;
    cw.world.run_for(SimDuration::from_secs(20));
    assert_eq!(
        cw.router(r_leaf).sharded().obs_snapshot().parent_failures,
        failures_now,
        "the rerouted branch is stable"
    );
}

/// Rmid's link address as seen from Rleaf (the expected new parent).
#[allow(non_snake_case)]
fn Addr_on_chain(cw: &mut CbtWorld, r_leaf: RouterId) -> cbt_wire::Addr {
    // Rmid—Rleaf is link index 1 (second created); Rmid is endpoint `a`.
    let net = cw.net.clone();
    let link = net.links[1];
    assert_eq!(link.b, r_leaf);
    let rmid = &net.routers[link.a.0 as usize];
    rmid.ifaces
        .iter()
        .find(|i| {
            matches!(i.attachment, cbt_topology::Attachment::Link { peer, .. } if peer == r_leaf)
        })
        .expect("Rmid's iface to Rleaf")
        .addr
}

/// A *member* LAN failing silences its hosts' reports; presence expires
/// and the branch is quit — then the LAN heals and service returns.
#[test]
fn member_lan_outage_and_recovery() {
    let (net, r_core, r_leaf, _transit, h) = transit_lan_net();
    let core = net.router_addr(r_core);
    let group = GroupId::numbered(1);
    let member_lan = net.hosts[h.0 as usize].lan;
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(h).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(4));
    assert!(cw.router(r_leaf).sharded().group_view(group).on_tree);

    // Member LAN goes dark: reports stop; fast membership timeout is
    // 22 s, then Rleaf quits.
    cw.fail_lan(member_lan);
    cw.world.run_until(SimTime::from_secs(40));
    assert!(
        !cw.router(r_leaf).sharded().group_view(group).on_tree,
        "presence expired, branch quit"
    );

    // LAN restored: the host answers the next query; the DR re-joins.
    cw.restore_lan(member_lan);
    cw.world.run_until(SimTime::from_secs(70));
    assert!(
        cw.router(r_leaf).sharded().group_view(group).on_tree,
        "membership re-detected after the outage"
    );
}

/// A leaf reaches the core's side over a p2p link *and* a parallel
/// transit LAN; the link (its lower interface) is down from the start.
///
/// ```text
///   Rleaf ——link—— Rnext ——— Rcore
///   [T: Rleaf, Rnext]          (parallel transit LAN)
///   Rleaf —[S: member]
/// ```
///
/// The join must leave by the live LAN and attach within the fast
/// PEND-JOIN-TIMEOUT; sent onto the dead link it would never arrive.
#[test]
fn join_crosses_a_live_lan_beside_a_failed_parallel_link() {
    let mut b = NetworkBuilder::new();
    let r_leaf = b.router("Rleaf");
    let r_next = b.router("Rnext");
    let r_core = b.router("Rcore");
    let link = b.link(r_leaf, r_next, 1);
    let transit = b.lan("T");
    b.attach(transit, r_leaf);
    b.attach(transit, r_next);
    b.link(r_next, r_core, 1);
    let s = b.lan("S");
    b.attach(s, r_leaf);
    let h = b.host("H", s);
    let net = b.build();
    let core = net.router_addr(r_core);
    let (_, next_on_lan) = net.routers[r_next.0 as usize].iface_on_lan(transit).unwrap();
    let next_on_lan = next_on_lan.addr;

    let cfg = CbtConfig::fast();
    let budget = cfg.pend_join_timeout;
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(net, cfg, WorldConfig::default());
    cw.fail_link(link);
    cw.host(h).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(1) + budget);
    assert_eq!(
        cw.router(r_leaf).sharded().group_view(group).parent,
        Some(next_on_lan),
        "attached through the transit LAN within PEND-JOIN-TIMEOUT"
    );
}
