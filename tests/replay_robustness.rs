//! Replay/duplicate robustness: real networks duplicate and reorder
//! packets; every CBT control message must be idempotent or explicitly
//! guarded (the §2.5 pending-join cache, ack matching, quit re-acks).

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{Entity, PacketKind, SimDuration, SimTime, WorldConfig};
use cbt_obs::CtlKind;
use cbt_topology::{HostId, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::{ControlType, GroupId};

fn chain() -> (NetworkSpec, [RouterId; 3], HostId, HostId) {
    let mut b = NetworkBuilder::new();
    let r0 = b.router("R0");
    let r1 = b.router("R1");
    let r2 = b.router("R2");
    let s0 = b.lan("S0");
    b.attach(s0, r0);
    let a = b.host("A", s0);
    b.link(r0, r1, 1);
    b.link(r1, r2, 1);
    let s1 = b.lan("S1");
    b.attach(s1, r2);
    let c = b.host("C", s1);
    (b.build(), [r0, r1, r2], a, c)
}

/// A duplicated IGMP join (host re-reports) must not produce duplicate
/// joins, duplicate FIB children or duplicate deliveries.
#[test]
fn duplicate_reports_are_idempotent() {
    let (net, [r0, r1, _r2], a, c) = chain();
    let core = net.router_addr(r1);
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    // The same host "joins" three times in quick succession.
    for k in 0..3u64 {
        cw.host(a).join_at(
            SimTime::from_secs(1) + SimDuration::from_millis(50 * k),
            group,
            vec![core],
        );
    }
    cw.host(c).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.host(c).send_at(SimTime::from_secs(3), group, b"once".to_vec(), 16);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(5));

    assert_eq!(cw.host(a).received().len(), 1, "exactly one delivery");
    let core_children = cw.router(r1).sharded().group_view(group).children;
    assert_eq!(core_children.len(), 2, "one child per branch, no duplicates");
    // R0 originated at most... the §2.6 rule: a pending join absorbs
    // re-triggers, so exactly one join went upstream from R0.
    assert_eq!(cw.router(r0).sharded().obs_snapshot().joins_originated, 1);
}

/// A leave followed by an immediate re-join (membership flapping) ends
/// attached, with state consistent at every router.
#[test]
fn leave_rejoin_flapping_settles_attached() {
    let (net, [r0, r1, _r2], a, _c) = chain();
    let core = net.router_addr(r1);
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
    // Flap: leave at 4, rejoin at 5, leave at 6, rejoin at 7.
    cw.host(a).leave_at(SimTime::from_secs(4), group);
    cw.host(a).join_at(SimTime::from_secs(5), group, vec![core]);
    cw.host(a).leave_at(SimTime::from_secs(6), group);
    cw.host(a).join_at(SimTime::from_secs(7), group, vec![core]);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(20));

    assert!(cw.host(a).is_member(group));
    assert!(cw.router(r0).sharded().group_view(group).on_tree, "final state: attached");
    assert!(!cw.router(r0).sharded().group_view(group).pending_join);
    let children = cw.router(r1).sharded().group_view(group).children;
    assert_eq!(children.len(), 1, "exactly one branch to R0: {children:?}");
}

/// Quit retransmissions (lost QUIT_ACKs) do not confuse a parent that
/// already removed the child — it re-acks and nothing else changes.
#[test]
fn repeated_quits_are_reacked_harmlessly() {
    let (net, [r0, r1, _r2], a, _c) = chain();
    let core = net.router_addr(r1);
    let group = GroupId::numbered(1);
    // Drop ~40% of packets so quit-acks get lost and quits retransmit.
    let mut cw = CbtWorld::build(
        net,
        CbtConfig::fast(),
        WorldConfig { fault: cbt_netsim::FaultPlan::drops(0.4), seed: 4, ..Default::default() },
    );
    cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.host(a).leave_at(SimTime::from_secs(8), group);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(20));
    cw.world.set_fault_plan(cbt_netsim::FaultPlan::none());
    cw.world.run_until(SimTime::from_secs(40));

    // However many quits it took, the end state is clean on both sides.
    assert!(!cw.router(r0).sharded().group_view(group).on_tree);
    assert!(cw.router(r1).sharded().group_view(group).children.is_empty());
    // Quit-acks were produced for retransmissions too (when the quits
    // got through at all).
    let quits = cw.world.trace().count(PacketKind::Control(ControlType::QuitRequest));
    let acks = cw.world.trace().count(PacketKind::Control(ControlType::QuitAck));
    assert!(quits >= 1);
    assert!(acks <= quits, "never more acks than quits");
}

/// The -02 draft's teardown narrative, under -03 mechanics: "assume
/// member E leaves ... R7 registers no further group presence ... R7
/// sends a QUIT_REQUEST to R4. R4 has children AND subnets with group
/// presence, and so does not itself attempt to quit."
#[test]
fn v02_narrative_e_leaves_r7_quits_r4_stays() {
    use cbt_topology::figure1;
    let fig = figure1();
    let group = GroupId::numbered(1);
    let cores =
        vec![fig.net.router_addr(fig.primary_core()), fig.net.router_addr(fig.secondary_core())];
    let mut cw = CbtWorld::build(fig.net.clone(), CbtConfig::fast(), WorldConfig::default());
    // Members: E on S9 (behind R7), D on S5 (directly on core R4), A on
    // S1 — so R4 keeps both a child (R3) and member subnets after E goes.
    cw.host(fig.hosts.e).join_at(SimTime::from_secs(1), group, cores.clone());
    cw.host(fig.hosts.d).join_at(SimTime::from_secs(1), group, cores.clone());
    cw.host(fig.hosts.a).join_at(SimTime::from_secs(1), group, cores.clone());
    cw.host(fig.hosts.e).leave_at(SimTime::from_secs(4), group);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(10));

    let r7 = fig.router(7);
    let r4 = fig.router(4);
    assert!(!cw.router(r7).sharded().group_view(group).on_tree, "R7 quit after E left");
    assert!(cw.router(r7).sharded().obs_snapshot().ctl.sent(CtlKind::QuitRequest) >= 1);
    let r4_engine = cw.router(r4).sharded();
    assert!(r4_engine.group_view(group).on_tree, "R4 stays: children and member subnets remain");
    assert!(!r4_engine.group_view(group).children.is_empty());
    // And R7 is no longer among R4's children.
    let r7_events = cw
        .world
        .trace()
        .entries()
        .iter()
        .filter(|e| {
            e.from == Entity::Router(r7)
                && matches!(e.kind, PacketKind::Control(ControlType::QuitRequest))
        })
        .count();
    assert!(r7_events >= 1, "the quit is visible on the wire");
}
