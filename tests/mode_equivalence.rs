//! Differential test between the two data planes: native mode (§4) and
//! CBT mode (§5) are different encapsulations of the *same* tree, so
//! any scenario must deliver exactly the same payloads to the same
//! hosts in both modes.

use cbt::config::ForwardingMode;
use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimDuration, SimTime, WorldConfig};
use cbt_topology::{generate, AllPairs, HostId, NetworkSpec, NodeId, RouterId};
use cbt_wire::GroupId;
use std::collections::BTreeSet;

/// Runs one randomized scenario in the given mode; returns the complete
/// delivery relation {(receiver host, payload)} plus the per-member
/// copy counts.
fn run_scenario(seed: u64, mode: ForwardingMode) -> (BTreeSet<(u32, Vec<u8>)>, Vec<usize>) {
    let graph = generate::waxman(generate::WaxmanParams { n: 24, ..Default::default() }, seed);
    let ap = AllPairs::compute(&graph);
    let members: Vec<NodeId> = (0..24).step_by(3).map(|i| NodeId(i as u32)).collect();
    let core = ap.medoid(&members).expect("connected");
    let members: Vec<NodeId> = members.into_iter().filter(|m| *m != core).collect();
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);
    let core_addr = net.router_addr(RouterId(core.0));
    let group = GroupId::numbered(1);

    // A non-member sender too (exercises §5.1/§5.3 in both modes).
    let non_member = (0..24)
        .map(|i| NodeId(i as u32))
        .find(|n| *n != core && !members.contains(n))
        .expect("spare router");

    let cfg = CbtConfig::fast().with_mode(mode).with_mapping(group, vec![core_addr]);
    let mut cw =
        CbtWorld::build(net, cfg, WorldConfig { record_trace: false, ..Default::default() });
    for (i, m) in members.iter().enumerate() {
        cw.host(HostId(m.0)).join_at(
            SimTime::from_secs(1) + SimDuration::from_millis(100 * i as u64),
            group,
            vec![core_addr],
        );
    }
    // Three member senders + the non-member sender.
    for (k, m) in members.iter().take(3).enumerate() {
        cw.host(HostId(m.0)).send_at(
            SimTime::from_secs(5) + SimDuration::from_millis(300 * k as u64),
            group,
            format!("member-{k}").into_bytes(),
            64,
        );
    }
    cw.host(HostId(non_member.0)).send_at(SimTime::from_secs(7), group, b"outsider".to_vec(), 64);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(10));

    let mut deliveries = BTreeSet::new();
    let mut counts = Vec::new();
    for m in &members {
        let got = cw.host(HostId(m.0)).received();
        counts.push(got.len());
        for d in got {
            deliveries.insert((m.0, d.payload.to_vec()));
        }
    }
    (deliveries, counts)
}

#[test]
fn native_and_cbt_mode_deliver_identically() {
    for seed in 0..4u64 {
        let (native, native_counts) = run_scenario(seed, ForwardingMode::Native);
        let (cbt, cbt_counts) = run_scenario(seed, ForwardingMode::CbtMode);
        assert_eq!(native, cbt, "seed {seed}: the two §4/§5 data planes disagree on delivery");
        assert_eq!(native_counts, cbt_counts, "seed {seed}: copy counts differ");
        // Sanity: the scenario is non-trivial — every member heard the
        // three member senders they did not originate plus the outsider.
        assert!(!native.is_empty());
        assert!(
            native.iter().any(|(_, p)| p == b"outsider"),
            "seed {seed}: non-member sending must work in both modes"
        );
    }
}
