//! Repros of defects the benchmark found in the system under test.
//! Each probe reports `expected-fail` while the defect stands and
//! `fixed` once the engine handles the case — see `KNOWN_FAILURES.md`.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimTime, WorldConfig};
use cbt_topology::{generate, HostId, NetworkSpec, RouterId};
use cbt_wire::GroupId;

/// Outcome of one probe run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReport {
    /// Probe name.
    pub name: &'static str,
    /// `expected-fail` or `fixed`.
    pub status: &'static str,
    /// What was observed.
    pub detail: String,
}

/// Packets the late joiner hears out of ten, for a given gap between
/// the two joins.
pub fn pending_transit_local_join_heard(gap_us: u64) -> usize {
    // R0 — R1 — R2 — R3(core), one stub LAN and host per router.
    let net = NetworkSpec::from_graph_with_stub_lans(&generate::line(4));
    let core = net.router_addr(RouterId(3));
    let group = GroupId::numbered(1);
    let mut cfg = CbtConfig::fast();
    cfg.shards = 1;
    let mut cw =
        CbtWorld::build(net, cfg, WorldConfig { record_trace: false, ..Default::default() });
    let t0 = 1_000_000u64;
    // host0's join makes R1 a transit router with a pending join…
    cw.host(HostId(0)).join_at(SimTime::from_micros(t0), group, vec![core]);
    // …and host1, behind R1, joins while that join is still pending.
    cw.host(HostId(1)).join_at(SimTime::from_micros(t0 + gap_us), group, vec![core]);
    for k in 0..10u64 {
        cw.host(HostId(0)).send_at(
            SimTime::from_micros(5_000_000 + k * 10_000),
            group,
            vec![k as u8; 16],
            32,
        );
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(60));
    cw.host(HostId(1)).received().len()
}

/// A host whose local join reaches its router while the router's own
/// transit join is pending is a member, behind an on-tree router, and
/// never hears a packet.
pub fn pending_transit_local_join() -> ProbeReport {
    let heard = pending_transit_local_join_heard(2_000);
    ProbeReport {
        name: "pending_transit_local_join",
        status: if heard == 10 { "fixed" } else { "expected-fail" },
        detail: format!(
            "host1 joined 2 ms after host0 (R1's transit join pending) and heard {heard}/10 packets; \
             with no gap it hears {}/10, with a 50 ms gap {}/10",
            pending_transit_local_join_heard(0),
            pending_transit_local_join_heard(50_000),
        ),
    }
}
