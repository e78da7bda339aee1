//! D-DR failover on a multi-access LAN (§2.3): the querier role — and
//! with it CBT DR duty — moves when the current D-DR dies, and the
//! survivor takes over serving new membership.
//!
//! End states are validated by the shared tree-invariant checker
//! (`cbt::explore`): DR-specific assertions stay, but attachment,
//! FIB symmetry, and loop freedom come from the common suite (down
//! routers are skipped, so a permanently dead D-DR is fine).

use cbt::explore::{assert_tree_invariants, await_quiescence};
use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimDuration, SimTime, WorldConfig};
use cbt_topology::{HostId, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::GroupId;

/// Two routers on one LAN, both uplinked to the core.
///   host — [S0: Rlow, Rhigh] ; Rlow—Rcore ; Rhigh—Rcore
fn dual_dr_net() -> (NetworkSpec, RouterId, RouterId, RouterId, HostId) {
    let mut b = NetworkBuilder::new();
    let r_low = b.router("Rlow"); // attached first → lowest addr → D-DR
    let r_high = b.router("Rhigh");
    let r_core = b.router("Rcore");
    let s0 = b.lan("S0");
    b.attach(s0, r_low);
    b.attach(s0, r_high);
    let h = b.host("H", s0);
    b.link(r_low, r_core, 1);
    b.link(r_high, r_core, 1);
    (b.build(), r_low, r_high, r_core, h)
}

#[test]
fn lowest_addressed_router_is_initial_dr() {
    let (net, r_low, r_high, r_core, h) = dual_dr_net();
    let core = net.router_addr(r_core);
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(h).join_at(SimTime::from_secs(2), group, vec![core]);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(5));
    // The D-DR (lowest address on S0) originated the join and serves
    // the branch; the other router holds nothing.
    assert!(cw.router(r_low).sharded().group_view(group).on_tree);
    assert_eq!(cw.router(r_low).sharded().obs_snapshot().joins_originated, 1);
    assert!(!cw.router(r_high).sharded().group_view(group).on_tree);
    assert_eq!(cw.router(r_high).sharded().obs_snapshot().joins_originated, 0);
    assert!(await_quiescence(&mut cw, &[group], SimDuration::from_secs(30)));
    assert_tree_invariants(&cw, &[group]);
}

/// Kill the D-DR: the surviving router stops hearing its queries,
/// reclaims querier duty after the other-querier-present interval, and
/// serves the group — new data reaches the host again.
#[test]
fn surviving_router_takes_over_after_dr_death() {
    let (net, r_low, r_high, r_core, h) = dual_dr_net();
    let core_addr = net.router_addr(r_core);
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(h).join_at(SimTime::from_secs(2), group, vec![core_addr]);
    // A far-side sender: put it behind the core itself via managed app
    // use — simplest is the host on S0 receiving from a second host we
    // attach in a richer topology; here we check control-plane takeover.
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(5));
    assert!(cw.router(r_low).sharded().group_view(group).on_tree);

    // D-DR dies.
    cw.fail_router(r_low);
    // The fast IGMP timers: other-querier-present = 21 s; after that
    // Rhigh reclaims querier duty → becomes D-DR → the host's periodic
    // re-reports trigger a fresh join from Rhigh.
    cw.world.run_until(SimTime::from_secs(60));
    let survivor = cw.router(r_high).sharded();
    assert!(
        survivor.group_view(group).on_tree,
        "survivor took over DR duty and joined: {:?}",
        survivor.obs_snapshot()
    );
    assert!(survivor.obs_snapshot().joins_originated >= 1);

    // And the takeover carries data: the core forwards down to Rhigh.
    let children = cw.router(r_core).sharded().group_view(group).children;
    assert_eq!(children.len(), 1, "exactly one live branch: {children:?}");
    // The post-takeover tree is fully consistent (Rlow stays dead and
    // is excluded; the checker proves the survivors' tree is clean).
    assert!(await_quiescence(&mut cw, &[group], SimDuration::from_secs(30)));
    assert_tree_invariants(&cw, &[group]);
}

/// With both LAN routers alive, only ONE of them ever forwards a given
/// packet onto the LAN (G-DR uniqueness): the host receives exactly one
/// copy even though two routers sit on its subnet.
#[test]
fn dual_router_lan_no_duplicate_delivery() {
    let mut b = NetworkBuilder::new();
    let r_low = b.router("Rlow");
    let r_high = b.router("Rhigh");
    let r_core = b.router("Rcore");
    let r_src = b.router("Rsrc");
    let s0 = b.lan("S0");
    b.attach(s0, r_low);
    b.attach(s0, r_high);
    let h = b.host("H", s0);
    b.link(r_low, r_core, 1);
    b.link(r_high, r_core, 1);
    b.link(r_src, r_core, 1);
    let s1 = b.lan("S1");
    b.attach(s1, r_src);
    let sender = b.host("SND", s1);
    let net = b.build();
    let core = net.router_addr(r_core);
    let group = GroupId::numbered(1);

    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(h).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.host(sender).join_at(SimTime::from_secs(1), group, vec![core]);
    for k in 0..5u64 {
        cw.host(sender).send_at(
            SimTime::from_secs(3) + SimDuration::from_millis(200 * k),
            group,
            format!("pkt{k}").into_bytes(),
            16,
        );
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(6));
    let got = cw.host(h).received();
    assert_eq!(got.len(), 5, "five packets, one copy each: {got:?}");
    assert!(await_quiescence(&mut cw, &[group], SimDuration::from_secs(30)));
    assert_tree_invariants(&cw, &[group]);
}
