//! Randomized churn soak: hosts join, leave and transmit on seeded
//! random schedules over Waxman topologies; delivery must always equal
//! membership (each current member hears each foreign packet exactly
//! once), and departed branches must clean up.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimDuration, SimTime, WorldConfig};
use cbt_topology::{generate, HostId, NetworkSpec, NodeId, RouterId};
use cbt_wire::GroupId;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

struct Script {
    /// (host, join time, leave time)
    memberships: Vec<(HostId, SimTime, Option<SimTime>)>,
    /// (sender host, time, payload tag)
    sends: Vec<(HostId, SimTime, u64)>,
}

fn random_script(n: usize, seed: u64) -> Script {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut memberships = Vec::new();
    let mut sends = Vec::new();
    let mut hosts: Vec<u32> = (0..n as u32).collect();
    hosts.shuffle(&mut rng);
    // Eight members: half stay, half leave mid-run.
    for (i, &h) in hosts.iter().take(8).enumerate() {
        let join = SimTime::from_secs(1 + rng.gen_range(0..3));
        let leave = (i % 2 == 1).then(|| SimTime::from_secs(20 + rng.gen_range(0..5)));
        memberships.push((HostId(h), join, leave));
    }
    // Sends from members and non-members, spread over the run: one
    // batch while everyone is joined, one after the leavers left.
    for tag in 0..4u64 {
        let sender = HostId(hosts[rng.gen_range(0..12)]);
        sends.push((sender, SimTime::from_secs(12 + tag), tag));
    }
    for tag in 4..8u64 {
        let sender = HostId(hosts[rng.gen_range(0..12)]);
        sends.push((sender, SimTime::from_secs(40 + tag), tag));
    }
    Script { memberships, sends }
}

#[test]
fn churn_delivery_equals_membership() {
    for seed in 0..4u64 {
        let graph = generate::waxman(generate::WaxmanParams { n: 24, ..Default::default() }, seed);
        let net = NetworkSpec::from_graph_with_stub_lans(&graph);
        let core_addr = net.router_addr(RouterId(0));
        let group = GroupId::numbered(1);
        let script = random_script(24, seed.wrapping_add(99));

        let cfg = CbtConfig::fast().with_mapping(group, vec![core_addr]);
        let mut cw = CbtWorld::build(net, cfg, WorldConfig::default());
        for (h, join, leave) in &script.memberships {
            cw.host(*h).join_at(*join, group, vec![core_addr]);
            if let Some(leave) = leave {
                cw.host(*h).leave_at(*leave, group);
            }
        }
        for (h, at, tag) in &script.sends {
            cw.host(*h).send_at(*at, group, tag.to_be_bytes().to_vec(), 64);
        }
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(60));

        // Verify per send: every host that was a member at send time
        // (and not the sender) heard it exactly once; everyone else,
        // never. Leavers are only checked against sends that happened
        // comfortably outside the teardown window.
        for (sender, at, tag) in &script.sends {
            let sender_addr = cw.host(*sender).addr();
            for (h, join, leave) in &script.memberships {
                if h == sender {
                    continue;
                }
                let teardown_slack = SimDuration::from_secs(5);
                let joined_by_then = *join + SimDuration::from_secs(5) <= *at;
                let left_by_then = leave.is_some_and(|l| l + teardown_slack <= *at);
                let in_window = leave.is_none_or(|l| *at + SimDuration::ZERO < l);
                let copies = cw
                    .host(*h)
                    .received()
                    .iter()
                    .filter(|d| d.payload == tag.to_be_bytes().to_vec() && d.src == sender_addr)
                    .count();
                if joined_by_then && in_window {
                    assert_eq!(
                        copies, 1,
                        "seed {seed}: member {h:?} heard tag {tag} {copies} times"
                    );
                } else if left_by_then {
                    assert_eq!(copies, 0, "seed {seed}: departed host {h:?} still heard tag {tag}");
                }
            }
        }
    }
}

/// After every member leaves, the whole network drops back to zero
/// protocol state — off-tree routers hold nothing (the O(G) story needs
/// cleanup to be true, not just joining).
#[test]
fn full_leave_cleans_all_state() {
    let graph = generate::waxman(generate::WaxmanParams { n: 20, ..Default::default() }, 2);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);
    let core_addr = net.router_addr(RouterId(0));
    let group = GroupId::numbered(1);
    let members: Vec<NodeId> = (2..14).step_by(3).map(|i| NodeId(i as u32)).collect();

    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    for m in &members {
        cw.host(HostId(m.0)).join_at(SimTime::from_secs(1), group, vec![core_addr]);
        cw.host(HostId(m.0)).leave_at(SimTime::from_secs(10), group);
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(8));
    let attached = members
        .iter()
        .filter(|m| cw.router(RouterId(m.0)).sharded().group_view(group).on_tree)
        .count();
    assert_eq!(attached, members.len(), "everyone joined first");

    // Leave + teardown, including the IFF-scan safety net (fast: 30 s).
    cw.world.run_until(SimTime::from_secs(60));
    for i in 0..20u32 {
        let engine = cw.router(RouterId(i)).sharded();
        assert!(
            !engine.group_view(group).on_tree,
            "router R{i} still holds state after universal leave"
        );
        assert!(!engine.group_view(group).pending_join);
    }
}
