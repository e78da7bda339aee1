//! Router restarts (§6.2): a restarted router comes back with *empty*
//! protocol state. A core re-learns its role from the core list in the
//! next join; a non-core transit router is pulled back in when a
//! downstream join crosses it or its own subnets need service.
//!
//! Recovered end states are validated by the shared tree-invariant
//! checker (`cbt::invariants`) on top of the §6.2-specific assertions.

use cbt::invariants::{assert_tree_invariants, await_quiescence};
use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimDuration, SimTime, WorldConfig};
use cbt_topology::{HostId, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::GroupId;

/// A — R0 — R1 — R2(core), member behind R0, second member behind R3
/// hanging off R1.
fn net4() -> (NetworkSpec, [RouterId; 4], [HostId; 2]) {
    let mut b = NetworkBuilder::new();
    let r0 = b.router("R0");
    let r1 = b.router("R1");
    let r2 = b.router("R2");
    let r3 = b.router("R3");
    let s0 = b.lan("S0");
    b.attach(s0, r0);
    let a = b.host("A", s0);
    b.link(r0, r1, 1);
    b.link(r1, r2, 1);
    b.link(r1, r3, 1);
    let s1 = b.lan("S1");
    b.attach(s1, r3);
    let c = b.host("C", s1);
    (b.build(), [r0, r1, r2, r3], [a, c])
}

/// §6.2 core restart: "a core only becomes aware that it is [a core] by
/// receiving a JOIN-REQUEST."
#[test]
fn core_restart_relearns_role_from_next_join() {
    let (net, [r0, _r1, r2, _r3], [a, c]) = net4();
    let core_addr = net.router_addr(r2);
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(a).join_at(SimTime::from_secs(1), group, vec![core_addr]);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(4));
    assert!(cw.router(r2).sharded().group_view(group).on_tree);
    assert!(cw.router(r2).sharded().group_view(group).i_am_core);

    // The core dies and comes back with a blank engine.
    cw.fail_router(r2);
    cw.world.run_until(SimTime::from_secs(6));
    cw.restart_router(r2, cw.world.now());
    assert!(!cw.router(r2).sharded().group_view(group).on_tree, "restart wiped all state");

    // A second member joins: its join carries the core list (§6.2), so
    // the restarted core rediscovers itself and acks.
    let at = cw.world.now() + SimDuration::from_millis(100);
    cw.host(c).join_at(at, group, vec![core_addr]);
    cw.touch_host(c);
    cw.world.run_until(SimTime::from_secs(12));
    let engine = cw.router(r2).sharded();
    assert!(engine.group_view(group).on_tree, "core re-learned its role from the join");
    assert!(engine.group_view(group).i_am_core);
    assert_eq!(engine.group_view(group).parent, None, "primary core: no parent");

    // The ORIGINAL branch (R0's) recovers too: R0's echoes toward the
    // core died during the outage; §6.1 re-attachment (single core: the
    // same one) rebuilds it within the echo-timeout + rejoin budget.
    cw.world.run_until(SimTime::from_secs(40));
    assert!(
        cw.router(r0).sharded().group_view(group).on_tree,
        "pre-restart branch re-attached after the outage"
    );
    // Full recovery means a fully consistent tree, not just "R0 is on".
    assert!(await_quiescence(&mut cw, &[group], SimDuration::from_secs(60)));
    assert_tree_invariants(&cw, &[group]);
}

/// Non-core restart (§6.2): the router rejoins only when "a downstream
/// router sends a JOIN_REQUEST through it, or it is elected DR for one
/// of its directly attached subnets" with members.
#[test]
fn transit_router_restart_pulled_back_by_downstream_join() {
    let (net, [_r0, r1, r2, _r3], [a, c]) = net4();
    let core_addr = net.router_addr(r2);
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(a).join_at(SimTime::from_secs(1), group, vec![core_addr]);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(4));
    assert!(cw.router(r1).sharded().group_view(group).on_tree, "R1 is transit for A's branch");

    cw.fail_router(r1);
    cw.world.run_until(SimTime::from_secs(6));
    cw.restart_router(r1, cw.world.now());
    assert!(!cw.router(r1).sharded().group_view(group).on_tree);

    // A new member joins behind R3; its join crosses R1.
    let at = cw.world.now() + SimDuration::from_millis(100);
    cw.host(c).join_at(at, group, vec![core_addr]);
    cw.touch_host(c);
    cw.world.run_until(SimTime::from_secs(12));
    assert!(
        cw.router(r1).sharded().group_view(group).on_tree,
        "the downstream join re-established the restarted transit router"
    );
    // End-to-end sanity: C and A exchange data after full recovery.
    cw.world.run_until(SimTime::from_secs(40));
    let t_send = cw.world.now();
    cw.host(c).send_at(t_send, group, b"post-restart".to_vec(), 16);
    cw.touch_host(c);
    cw.world.run_for(SimDuration::from_secs(2));
    assert!(
        cw.host(a).received().iter().any(|d| d.payload == b"post-restart"),
        "delivery across the restarted router"
    );
    assert!(await_quiescence(&mut cw, &[group], SimDuration::from_secs(60)));
    assert_tree_invariants(&cw, &[group]);
}
