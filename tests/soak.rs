//! Scale/soak: many groups, many members, five virtual minutes of
//! protocol life on a 60-router topology with background packet loss —
//! then the storm clears and everything must be exactly right: live
//! members attached, dead groups erased everywhere, no stuck
//! transients.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{FaultPlan, SimDuration, SimTime, WorldConfig};
use cbt_topology::{generate, AllPairs, HostId, NetworkSpec, NodeId, RouterId};
use cbt_wire::GroupId;

#[test]
fn five_virtual_minutes_of_multigroup_churn() {
    let n = 60usize;
    let graph = generate::waxman(generate::WaxmanParams { n, ..Default::default() }, 21);
    let ap = AllPairs::compute(&graph);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);

    // 6 groups; group k's members are routers ≡ k (mod spread), its core
    // the member-medoid.
    let group_count = 6usize;
    let mut plans: Vec<(GroupId, Vec<NodeId>, cbt_wire::Addr)> = Vec::new();
    for k in 0..group_count {
        let members: Vec<NodeId> =
            (0..n).skip(k).step_by(group_count + 2).map(|i| NodeId(i as u32)).take(6).collect();
        let core = ap.medoid(&members).expect("connected");
        let members: Vec<NodeId> = members.into_iter().filter(|m| *m != core).collect();
        plans.push((GroupId::numbered(k as u16), members, net.router_addr(RouterId(core.0))));
    }

    let mut cw = CbtWorld::build(
        net,
        CbtConfig::fast(),
        WorldConfig {
            fault: FaultPlan::drops(0.03),
            seed: 9,
            record_trace: false, // counters only: this run moves a lot of frames
            ..Default::default()
        },
    );

    // Even-numbered groups live forever; odd ones fully depart mid-run.
    for (gi, (group, members, core)) in plans.iter().enumerate() {
        for (mi, m) in members.iter().enumerate() {
            let join =
                SimTime::from_secs(1) + SimDuration::from_millis((gi * 700 + mi * 130) as u64);
            cw.host(HostId(m.0)).join_at(join, *group, vec![*core]);
            if gi % 2 == 1 {
                let leave = SimTime::from_secs(120) + SimDuration::from_millis((mi * 500) as u64);
                cw.host(HostId(m.0)).leave_at(leave, *group);
            }
        }
    }

    cw.world.start();
    cw.world.run_until(SimTime::from_secs(240));
    // Storm over; let everything heal and the IFF-scans run.
    cw.world.set_fault_plan(FaultPlan::none());
    cw.world.run_until(SimTime::from_secs(300));

    for (gi, (group, members, _)) in plans.iter().enumerate() {
        if gi % 2 == 0 {
            // Live group: every member DR attached, no transients.
            for m in members {
                let engine = cw.router(RouterId(m.0)).sharded();
                assert!(
                    engine.group_view(*group).on_tree,
                    "group {group}: member {m} detached at end of soak"
                );
                assert!(!engine.group_view(*group).pending_join);
            }
        } else {
            // Departed group: zero state anywhere in the network.
            for i in 0..n as u32 {
                let engine = cw.router(RouterId(i)).sharded();
                assert!(
                    !engine.group_view(*group).on_tree,
                    "group {group}: router R{i} leaked state after universal leave"
                );
                assert!(!engine.group_view(*group).pending_join);
            }
        }
    }

    // Data-plane spot check on every surviving group.
    for (gi, (group, members, _)) in plans.iter().enumerate() {
        if gi % 2 != 0 || members.len() < 2 {
            continue;
        }
        let sender = HostId(members[0].0);
        let receiver = HostId(members[members.len() - 1].0);
        let baseline = cw.host(receiver).received().len();
        let at = cw.world.now();
        cw.host(sender).send_at(at, *group, format!("soak-{gi}").into_bytes(), 64);
        cw.touch_host(sender);
        cw.world.run_for(SimDuration::from_secs(2));
        assert!(
            cw.host(receiver).received().len() > baseline,
            "group {group}: delivery after the soak"
        );
    }
}
