//! Fault injection: the protocol must converge through packet loss and
//! corruption — that is what the §9 retransmission timers exist for —
//! and identical seeds must replay identically even under faults.
//!
//! Convergence is asserted through the shared tree-invariant checker
//! (`cbt::explore`): not just "every member's router is on-tree" but
//! full parent/child symmetry, rootedness, and loop freedom.

use cbt::explore::{assert_tree_invariants, await_quiescence};
use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{FaultPlan, SimDuration, SimTime, WorldConfig};
use cbt_topology::{generate, HostId, NetworkSpec, NodeId, RouterId};
use cbt_wire::GroupId;

fn build(seed: u64, fault: FaultPlan) -> (CbtWorld, Vec<NodeId>, GroupId) {
    let graph = generate::waxman(generate::WaxmanParams { n: 20, ..Default::default() }, 4);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);
    let core_addr = net.router_addr(RouterId(0));
    let group = GroupId::numbered(1);
    let members: Vec<NodeId> = (2..20).step_by(4).map(|i| NodeId(i as u32)).collect();
    let mut cw =
        CbtWorld::build(net, CbtConfig::fast(), WorldConfig { fault, seed, ..Default::default() });
    for m in &members {
        cw.host(HostId(m.0)).join_at(SimTime::from_secs(1), group, vec![core_addr]);
    }
    (cw, members, group)
}

/// Post-storm convergence check: heal, let the fleet quiesce, then run
/// the full invariant suite (member attachment, FIB symmetry, loop
/// freedom, obs consistency) instead of a hand-rolled `is_on_tree`
/// sweep.
fn assert_converged(cw: &mut CbtWorld, group: GroupId) {
    cw.world.set_fault_plan(FaultPlan::none());
    cw.world.run_until(SimTime::from_secs(100)); // recovery phase
    assert!(
        await_quiescence(cw, &[group], SimDuration::from_secs(60)),
        "fleet failed to quiesce after the faults stopped"
    );
    assert_tree_invariants(cw, &[group]);
}

/// 10% loss for a whole minute of chaos, then the network heals: every
/// member must be attached once the storm passes. (During the storm,
/// transient detach/re-attach cycles are *correct* §6.1 behaviour —
/// lost echo rounds legitimately trigger re-attachment — so the
/// assertion targets post-storm convergence.)
#[test]
fn joins_converge_through_packet_loss() {
    for seed in 0..5u64 {
        let (mut cw, _members, group) = build(seed, FaultPlan::drops(0.10));
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(60)); // chaos phase
        let (_, _, dropped) = cw.world.fault_stats();
        assert!(dropped > 0, "seed {seed}: the storm really dropped packets");
        assert_converged(&mut cw, group);
    }
}

/// 10% single-bit corruption: checksums turn corruption into loss; the
/// protocol must neither crash nor accept a mangled message.
#[test]
fn corruption_is_no_worse_than_loss() {
    let (mut cw, _members, group) = build(7, FaultPlan::corruption(0.10));
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(60)); // chaos phase
    let (_, corrupted, _) = cw.world.fault_stats();
    assert!(corrupted > 0, "the fault injector corrupted something");
    assert_converged(&mut cw, group);
}

/// Same seed ⇒ bit-identical run, faults included.
#[test]
fn faulty_runs_replay_deterministically() {
    let run = |seed: u64| {
        let (mut cw, members, group) = build(
            seed,
            FaultPlan { drop_chance: 0.15, corrupt_chance: 0.1, ..FaultPlan::default() },
        );
        // A data transmission mid-churn for extra coverage.
        cw.host(HostId(members[0].0)).send_at(SimTime::from_secs(12), group, b"probe".to_vec(), 64);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(30));
        let states: Vec<(bool, Option<cbt_wire::Addr>)> = (0..20u32)
            .map(|i| {
                let e = cw.router(RouterId(i)).sharded();
                (e.group_view(group).on_tree, e.group_view(group).parent)
            })
            .collect();
        (cw.world.trace().totals(), states)
    };
    assert_eq!(run(3), run(3), "identical seeds replay identically");
    assert_ne!(run(3).0, run(4).0, "different seeds genuinely differ");
}

/// Loss during steady state must not spuriously tear the tree down:
/// echo timeout (9 s fast) tolerates two lost echo rounds (3 s apart).
#[test]
fn keepalives_survive_mild_loss() {
    let (mut cw, members, group) = build(11, FaultPlan::drops(0.05));
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(60));
    let mut failures = 0;
    for m in &members {
        failures += cw.router(RouterId(m.0)).sharded().obs_snapshot().parent_failures;
    }
    // A rare false failure is tolerable (the router re-attaches — that
    // is §6.1 working as designed), but wholesale flapping is a bug.
    assert!(failures <= 3, "excessive parent-failure flapping: {failures}");
    assert_converged(&mut cw, group);
}
