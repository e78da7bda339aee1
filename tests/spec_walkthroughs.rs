//! Spec walkthroughs (experiments Spec-E1..E6 in DESIGN.md): the
//! protocol narratives of draft-ietf-idmr-cbt-spec-03 §2.5–§2.7, §5 and
//! §6.3, replayed packet-for-packet on the reconstructed Figure 1 and
//! Figure 5 topologies.

use cbt::{CbtConfig, CbtWorld, HostApp, RouterNode};
use cbt_netsim::{Entity, PacketKind, SimTime, WorldConfig};
use cbt_obs::CtlKind;
use cbt_topology::{figure1, figure5_loop, Figure1, RouterId};
use cbt_wire::{Addr, ControlType, GroupId};

const GROUP: GroupId = GroupId::numbered(1);

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Stands up Figure 1 with R4 as primary core and R9 as secondary, as
/// in the spec's running example.
fn figure1_world(cfg: CbtConfig) -> (CbtWorld, Figure1) {
    let fig = figure1();
    let cw = CbtWorld::build(fig.net.clone(), cfg, WorldConfig::default());
    (cw, fig)
}

fn cores(fig: &Figure1) -> Vec<Addr> {
    vec![fig.net.router_addr(fig.primary_core()), fig.net.router_addr(fig.secondary_core())]
}

/// The address a parent/child relationship would use: `of`'s interface
/// address on the subnet it shares with `seen_from`'s route.
fn link_addr_between(fig: &Figure1, of: RouterId, toward: RouterId) -> Addr {
    // Find the p2p link between the two routers and return `of`'s
    // address on it.
    let net = &fig.net;
    for (j, l) in net.links.iter().enumerate() {
        let pair = (l.a, l.b);
        if pair == (of, toward) || pair == (toward, of) {
            let subnet = Addr::from_octets(172, 31, (j / 64) as u8, ((j % 64) * 4) as u8);
            return net.routers[of.0 as usize]
                .ifaces
                .iter()
                .find(|i| i.subnet == subnet)
                .expect("link iface")
                .addr;
        }
    }
    panic!("no link between {of} and {toward}");
}

/// Spec-E1 (§2.5): host A joins; the branch S1–R1–R3–R4 forms, the ack
/// retraces the join, and A hears the tree-joined notification.
#[test]
fn e1_host_a_join_builds_r1_r3_r4_branch() {
    let (mut cw, fig) = figure1_world(CbtConfig::fast());
    let a = fig.hosts.a;
    cw.host(a).join_at(t(1), GROUP, cores(&fig));
    cw.world.start();
    cw.world.run_until(t(4));

    let r1 = fig.router(1);
    let r3 = fig.router(3);
    let r4 = fig.router(4);

    // R1 is on-tree with parent R3.
    let r1_engine = cw.router(r1).sharded();
    assert!(r1_engine.is_on_tree(GROUP));
    assert_eq!(
        r1_engine.parent_of(GROUP),
        Some(link_addr_between(&fig, r3, r1)),
        "R1's parent is R3 (§2.5)"
    );
    // R3 is on-tree: parent R4, child R1.
    let r3_engine = cw.router(r3).sharded();
    assert_eq!(r3_engine.parent_of(GROUP), Some(link_addr_between(&fig, r4, r3)));
    assert_eq!(r3_engine.children_of(GROUP), vec![link_addr_between(&fig, r1, r3)]);
    // R4 is the primary core: on-tree, no parent, child R3.
    let r4_engine = cw.router(r4).sharded();
    assert!(r4_engine.is_on_tree(GROUP));
    assert_eq!(r4_engine.parent_of(GROUP), None, "the primary core has no parent (§5)");
    assert_eq!(r4_engine.children_of(GROUP), vec![link_addr_between(&fig, r3, r4)]);
    // Exactly two join hops were needed: R1→R3, R3→R4.
    let joins = cw.world.trace().count(PacketKind::Control(ControlType::JoinRequest));
    assert_eq!(joins, 2, "join processed hop-by-hop, once per hop");
    let acks = cw.world.trace().count(PacketKind::Control(ControlType::JoinAck));
    assert_eq!(acks, 2, "ack retraces the same two hops");
    // Host A heard the §2.5 notification.
    assert_eq!(cw.host(a).tree_joined_events().len(), 1);
    // No other router gained any state.
    for n in [2usize, 5, 6, 7, 8, 9, 10, 12] {
        let r = fig.router(n);
        assert!(!cw.router(r).sharded().is_on_tree(GROUP), "R{n} must hold no state for the group");
    }
}

/// Spec-E2 (§2.6): B joins on S4. R6 (D-DR) originates via R2 on the
/// same subnet; R3 terminates the join; R2 proxy-acks R6 and becomes
/// the G-DR; R6 ends up with no FIB entry.
#[test]
fn e2_proxy_ack_on_s4() {
    let (mut cw, fig) = figure1_world(CbtConfig::fast());
    cw.host(fig.hosts.a).join_at(t(1), GROUP, cores(&fig));
    cw.host(fig.hosts.b).join_at(t(3), GROUP, cores(&fig));
    cw.world.start();
    cw.world.run_until(t(6));

    let r2 = fig.router(2);
    let r3 = fig.router(3);
    let r6 = fig.router(6);

    // R6 was the D-DR that originated, but holds no state (§2.6).
    let r6_engine = cw.router(r6).sharded();
    assert!(!r6_engine.is_on_tree(GROUP), "D-DR keeps no FIB entry after proxy-ack");
    assert!(!r6_engine.has_pending_join(GROUP));
    assert!(r6_engine.obs_snapshot().joins_originated >= 1, "R6 did originate the join");

    // R2 is on-tree, parent R3, no children: it is the LAN's G-DR.
    let s4_iface = {
        let s4 = fig.subnet(4);
        fig.net.routers[r2.0 as usize].iface_on_lan(s4).unwrap().0
    };
    let r2_node = cw.router(r2);
    let r2_engine = r2_node.sharded();
    assert!(r2_engine.is_on_tree(GROUP));
    assert_eq!(r2_engine.parent_of(GROUP), Some(link_addr_between(&fig, r3, r2)));
    assert!(r2_engine.children_of(GROUP).is_empty(), "proxy-ack adds no child");
    assert!(r2_engine.is_gdr(s4_iface, GROUP), "R2 is the group-specific DR for S4");
    assert_eq!(r2_engine.obs_snapshot().proxy_acks_sent, 1);

    // R3 terminated B's join (it was already on-tree from A's join):
    // its children are now R1 and R2.
    let r3_children = cw.router(r3).sharded().children_of(GROUP);
    assert_eq!(r3_children.len(), 2);
    assert!(r3_children.contains(&link_addr_between(&fig, fig.router(1), r3)));
    assert!(r3_children.contains(&link_addr_between(&fig, r2, r3)));
}

/// Spec-E3 (§2.7): B leaves S4. The querier (R6) sends the
/// group-specific query; nobody answers; R2 (G-DR, no children, no
/// other member subnets) quits to R3; R3 still has child R1 so it
/// stays.
#[test]
fn e3_teardown_quit_from_r2() {
    let (mut cw, fig) = figure1_world(CbtConfig::fast());
    cw.host(fig.hosts.a).join_at(t(1), GROUP, cores(&fig));
    cw.host(fig.hosts.b).join_at(t(3), GROUP, cores(&fig));
    cw.host(fig.hosts.b).leave_at(t(6), GROUP);
    cw.world.start();
    cw.world.run_until(t(12));

    let r2 = fig.router(2);
    let r3 = fig.router(3);
    // R2 has quit.
    assert!(!cw.router(r2).sharded().is_on_tree(GROUP), "branch R3–R2 torn down");
    assert!(cw.router(r2).sharded().obs_snapshot().ctl.sent(CtlKind::QuitRequest) >= 1);
    // R3 keeps its entry: R1 is still a child.
    let r3_engine = cw.router(r3).sharded();
    assert!(r3_engine.is_on_tree(GROUP), "R3 cannot quit (§2.7: it has children)");
    assert_eq!(r3_engine.children_of(GROUP), vec![link_addr_between(&fig, fig.router(1), r3)]);
    // The group-specific query went out on S4.
    assert!(cw.world.trace().count(PacketKind::Igmp(cbt_wire::IgmpType::MembershipQuery)) > 0);
}

/// Joins all twelve Figure 1 member hosts.
fn join_everyone(cw: &mut CbtWorld, fig: &Figure1, at: SimTime) {
    let hosts = [
        fig.hosts.a,
        fig.hosts.b,
        fig.hosts.c,
        fig.hosts.d,
        fig.hosts.e,
        fig.hosts.f,
        fig.hosts.g,
        fig.hosts.h,
        fig.hosts.i,
        fig.hosts.j,
        fig.hosts.k,
        fig.hosts.l,
    ];
    let cores = cores(fig);
    for h in hosts {
        cw.host(h).join_at(at, GROUP, cores.clone());
    }
}

/// Spec-E4 (§5): with every subnet joined, member G on S10 sends one
/// packet; every other member receives it exactly once, and the tree
/// shape matches the walkthrough (R8's children R9 and R12; R4's
/// children R3, R7 and R8 present as tree edges).
#[test]
fn e4_data_walkthrough_from_g_native_mode() {
    let (mut cw, fig) = figure1_world(CbtConfig::fast());
    join_everyone(&mut cw, &fig, t(1));
    cw.host(fig.hosts.g).send_at(t(5), GROUP, b"from G".to_vec(), 32);
    cw.world.start();
    cw.world.run_until(t(8));

    // Delivery: everyone but G got exactly one copy.
    for (name, h) in [
        ("A", fig.hosts.a),
        ("B", fig.hosts.b),
        ("C", fig.hosts.c),
        ("D", fig.hosts.d),
        ("E", fig.hosts.e),
        ("F", fig.hosts.f),
        ("H", fig.hosts.h),
        ("I", fig.hosts.i),
        ("J", fig.hosts.j),
        ("K", fig.hosts.k),
        ("L", fig.hosts.l),
    ] {
        let got = cw.host(h).received();
        assert_eq!(got.len(), 1, "host {name} must receive exactly one copy, got {got:?}");
        assert_eq!(got.get(0).unwrap().payload, b"from G");
    }
    assert!(cw.host(fig.hosts.g).received().is_empty(), "G does not hear itself");

    // Tree shape per the walkthrough.
    let r4 = fig.router(4);
    let r8 = fig.router(8);
    let r4_children = cw.router(r4).sharded().children_of(GROUP);
    assert_eq!(r4_children.len(), 3, "R4's children: R3, R7, R8 — got {r4_children:?}");
    for n in [3usize, 7, 8] {
        assert!(r4_children.contains(&link_addr_between(&fig, fig.router(n), r4)), "R{n}");
    }
    let r8_children = cw.router(r8).sharded().children_of(GROUP);
    assert_eq!(r8_children.len(), 2, "R8's children: R9 and R12");
    for n in [9usize, 12] {
        assert!(r8_children.contains(&link_addr_between(&fig, fig.router(n), r8)));
    }
    // R9 (the secondary core) is on the shared tree with parent R8 —
    // exactly the §5 upstream direction G's packet used.
    assert_eq!(
        cw.router(fig.router(9)).sharded().parent_of(GROUP),
        Some(link_addr_between(&fig, r8, fig.router(9)))
    );
    // R10 serves both S13 and S15.
    let r10 = fig.router(10);
    assert_eq!(
        cw.router(r10).sharded().parent_of(GROUP),
        Some(link_addr_between(&fig, fig.router(9), r10))
    );
}

/// Spec-E4 in CBT mode: same delivery result, but the branches carry
/// CBT-encapsulated packets (§5).
#[test]
fn e4_data_walkthrough_cbt_mode() {
    let (mut cw, fig) =
        figure1_world(CbtConfig::fast().with_mode(cbt::config::ForwardingMode::CbtMode));
    join_everyone(&mut cw, &fig, t(1));
    cw.host(fig.hosts.g).send_at(t(5), GROUP, b"cbt".to_vec(), 32);
    cw.world.start();
    cw.world.run_until(t(8));

    for h in [
        fig.hosts.a,
        fig.hosts.b,
        fig.hosts.c,
        fig.hosts.d,
        fig.hosts.e,
        fig.hosts.f,
        fig.hosts.h,
        fig.hosts.i,
        fig.hosts.j,
        fig.hosts.k,
        fig.hosts.l,
    ] {
        assert_eq!(cw.host(h).received().len(), 1);
    }
    // The tree's p2p branches carried CBT-mode encapsulation.
    assert!(
        cw.world.trace().count(PacketKind::DataCbt) >= 6,
        "R8→R4, R8→R9, R8→R12, R9→R10, R4→R3, R4→R7, R3→R1, R3→R2 are CBT unicasts"
    );
}

/// Spec-E6 (§6.1): R8 dies. R9 (with child R10 and the secondary-core
/// role) re-attaches; every member below R9 keeps receiving data after
/// the reconnect; the §9 fast-timer budget is respected.
#[test]
fn e6_parent_failure_reattach() {
    let (mut cw, fig) = figure1_world(CbtConfig::fast());
    join_everyone(&mut cw, &fig, t(1));
    cw.world.start();
    cw.world.run_until(t(5));
    // Sanity: J (S15, behind R10 under R9 under R8) is reachable.
    cw.host(fig.hosts.a).send_at(t(5), GROUP, b"before".to_vec(), 32);
    cw.touch_host(fig.hosts.a);
    cw.world.run_until(t(7));
    assert_eq!(cw.host(fig.hosts.j).received().len(), 1);

    // Kill R8. R9's echoes to it will time out (fast: 9 s), then R9
    // rejoins via an alternate path... but R8 was the only physical
    // path from R9's side to the rest — so instead kill R12's parent
    // link scenario is not informative. R8 down partitions S10-side:
    // R9 becomes the serving core for its side (it IS the secondary
    // core). What must hold: members under R9 (H, J via R10) keep a
    // working shared tree rooted at R9 itself.
    cw.fail_router(fig.router(8));
    cw.world.run_until(t(30));

    // R9, as secondary core, is now parentless but on-tree.
    let r9_engine = cw.router(fig.router(9)).sharded();
    assert!(r9_engine.is_on_tree(GROUP));
    // R10 is still its child, so H and J still receive data sourced
    // below R9.
    cw.host(fig.hosts.h).send_at(t(30), GROUP, b"island".to_vec(), 32);
    cw.touch_host(fig.hosts.h);
    cw.world.run_until(t(33));
    let j_got = cw.host(fig.hosts.j).received();
    assert!(
        j_got.iter().any(|d| d.payload == b"island"),
        "members on R9's island still share a tree: {j_got:?}"
    );
}

/// Spec-E5 (§6.3 + Figure 5): the transient-routing loop is detected by
/// the NACTIVE walk and broken with a QUIT; after routing converges the
/// tree heals.
#[test]
fn e5_loop_detection_and_recovery() {
    let fig = figure5_loop();
    let net = fig.net.clone();
    let r = |n: usize| fig.router(n);
    let core = net.router_addr(r(1));
    let group = GROUP;

    let mut cw = CbtWorld::build(net.clone(), CbtConfig::fast(), WorldConfig::default());
    // Build the chain R1–R2–R3–R4–R5 by joining the host behind R5.
    let h5 = cbt_topology::HostId(4); // hosts H1..H6 indexed 0..5
    cw.host(h5).join_at(t(1), group, vec![core]);
    cw.world.start();
    cw.world.run_until(t(4));
    for (parent, child) in [(1, 2), (2, 3), (3, 4), (4, 5)] {
        let c = cw.router(r(child)).sharded();
        assert_eq!(
            c.parent_of(group),
            Some(link_addr_between_net(&net, r(parent), r(child))),
            "chain link R{parent}→R{child}"
        );
    }

    // Now the §6.3 scenario: R3's path to R1 breaks (link R2–R3), but
    // R3 and R6 hold the *stale* opinions "R1 via R6" / "R1 via R5".
    let link_r2_r3 = cbt_topology::LinkId(1); // second link created
    cw.world.failures_mut().fail_link(link_r2_r3);
    {
        let mut rib = cw.rib.write();
        rib.set_override(r(3), r(1), r(6));
        rib.set_override(r(6), r(1), r(5));
    }
    // R3's echoes to R2 now die; after the fast echo timeout it sends
    // REJOIN_ACTIVE (it has child R4) toward R6 — the loop forms and
    // must be broken.
    cw.world.run_until(t(25));
    let r3_obs = cw.router(r(3)).sharded().obs_snapshot();
    assert!(r3_obs.loops_broken >= 1, "§6.3 loop detected and broken: {r3_obs:?}");
    // No data may loop: while routing stays stale every rejoin attempt
    // loops and is broken, so R3 must never hold a settled parent
    // toward R6 (the looping direction). And §6.1's RECONNECT-TIMEOUT
    // bounds the campaign: R3 cannot still be churning through
    // flush/rejoin cycles at t=25 — its campaign (budget
    // `expire_pending_join` = 9 s fast) has expired and the subtree
    // was flushed downstream to fend for itself.
    let r3_parent = cw.router(r(3)).sharded().parent_of(group);
    assert_ne!(
        r3_parent,
        Some(link_addr_between_net(&net, r(6), r(3))),
        "R3 must not rest attached through the stale loop via R6"
    );
    assert!(
        cw.router(r(3)).sharded().children_of(group).is_empty(),
        "§6.1: past RECONNECT-TIMEOUT the subtree below R3 is flushed"
    );

    // Routing converges: link restored, overrides dropped.
    cw.world.failures_mut().restore_link(link_r2_r3);
    {
        let mut rib = cw.rib.write();
        rib.clear_override(r(3), r(1));
        rib.clear_override(r(6), r(1));
    }
    cw.recompute_routes();
    cw.world.run_until(t(60));
    // The tree heals: R3's parent is R2 again...
    assert_eq!(
        cw.router(r(3)).sharded().parent_of(group),
        Some(link_addr_between_net(&net, r(2), r(3))),
        "after convergence R3 re-attaches through R2"
    );
    // ...and data from a host behind the core reaches H5.
    let h1 = cbt_topology::HostId(0);
    cw.host(h1).send_at(t(60), group, b"healed".to_vec(), 32);
    cw.touch_host(h1);
    cw.world.run_until(t(63));
    let got = cw.host(h5).received();
    assert!(got.iter().any(|d| d.payload == b"healed"), "delivery after heal: {got:?}");
}

/// Helper for non-Figure1 networks.
fn link_addr_between_net(net: &cbt_topology::NetworkSpec, of: RouterId, toward: RouterId) -> Addr {
    for (j, l) in net.links.iter().enumerate() {
        let pair = (l.a, l.b);
        if pair == (of, toward) || pair == (toward, of) {
            let subnet = Addr::from_octets(172, 31, (j / 64) as u8, ((j % 64) * 4) as u8);
            return net.routers[of.0 as usize]
                .ifaces
                .iter()
                .find(|i| i.subnet == subnet)
                .expect("link iface")
                .addr;
        }
    }
    panic!("no link between {of} and {toward}");
}

/// Bonus: IGMPv1 hosts (§2.4) still get service through managed
/// mappings — no RP/Core-Report exists, the DR's configuration supplies
/// the cores.
#[test]
fn igmpv1_host_served_via_managed_mapping() {
    let fig = figure1();
    let cores = vec![fig.net.router_addr(fig.primary_core())];
    let cfg = CbtConfig::fast().with_mapping(GROUP, cores.clone());
    let mut cw = CbtWorld::build_with_igmp_versions(
        fig.net.clone(),
        cfg,
        WorldConfig::default(),
        |_| 1, // every host speaks IGMPv1
    );
    cw.host(fig.hosts.a).join_at(t(1), GROUP, vec![]); // v1: no core report possible
    cw.host(fig.hosts.g).send_at(t(4), GROUP, b"v1".to_vec(), 32);
    cw.world.start();
    cw.world.run_until(t(7));
    assert!(cw.router(fig.router(1)).sharded().is_on_tree(GROUP));
    assert_eq!(cw.host(fig.hosts.a).received().len(), 1, "delivery to the v1 host");
}

/// Determinism: the full E4 walkthrough replays identically.
#[test]
fn walkthroughs_are_deterministic() {
    let run = || {
        let (mut cw, fig) = figure1_world(CbtConfig::fast());
        join_everyone(&mut cw, &fig, t(1));
        cw.host(fig.hosts.g).send_at(t(5), GROUP, b"x".to_vec(), 32);
        cw.world.start();
        cw.world.run_until(t(8));
        let totals = cw.world.trace().totals();
        let kinds = cw.world.trace().kind_counts();
        (totals, format!("{kinds:?}"))
    };
    assert_eq!(run(), run());
}

// Silence "unused import" notes for items used only in some cfgs.
#[allow(dead_code)]
fn _type_plumbing(_: &RouterNode, _: &HostApp, _: Entity) {}
