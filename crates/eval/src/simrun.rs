//! Shared plumbing for experiments that run the full packet-level
//! simulator (overhead, latency, failover): stand up a Waxman topology
//! with one stub LAN + host per router, join members, observe.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimDuration, SimTime, WorldConfig};
use cbt_topology::{generate, Graph, HostId, NetworkSpec, NodeId, RouterId};
use cbt_wire::{Addr, GroupId};

/// A ready-to-run simulated CBT deployment.
pub struct SimSetup {
    /// The world (routers + hosts installed, not yet started).
    pub cw: CbtWorld,
    /// Router-level graph it was built from.
    pub graph: Graph,
    /// The group used throughout.
    pub group: GroupId,
    /// Core router ids, primary first.
    pub cores: Vec<RouterId>,
    /// Core identity addresses, primary first.
    pub core_addrs: Vec<Addr>,
}

impl SimSetup {
    /// Builds a Waxman world of `n` routers with the given cores.
    pub fn waxman(n: usize, seed: u64, cfg: CbtConfig, cores: &[NodeId]) -> SimSetup {
        let graph = generate::waxman(generate::WaxmanParams { n, ..Default::default() }, seed);
        Self::from_graph(graph, cfg, cores)
    }

    /// Builds from an explicit router graph.
    pub fn from_graph(graph: Graph, cfg: CbtConfig, cores: &[NodeId]) -> SimSetup {
        let net = NetworkSpec::from_graph_with_stub_lans(&graph);
        let core_ids: Vec<RouterId> = cores.iter().map(|c| RouterId(c.0)).collect();
        let core_addrs: Vec<Addr> = core_ids.iter().map(|c| net.router_addr(*c)).collect();
        let cw =
            CbtWorld::build(net, cfg, WorldConfig { record_trace: true, ..Default::default() });
        SimSetup { cw, graph, group: GroupId::numbered(1), cores: core_ids, core_addrs }
    }

    /// The stub host living behind router `r` (one per router by
    /// construction of `from_graph_with_stub_lans`).
    pub fn host_of(&self, r: NodeId) -> HostId {
        HostId(r.0)
    }

    /// Schedules joins for the hosts behind `member_routers`, staggered
    /// `gap` apart starting at `start`.
    pub fn join_members(
        &mut self,
        member_routers: &[NodeId],
        start: SimTime,
        gap: SimDuration,
    ) -> Vec<(NodeId, SimTime)> {
        let cores = self.core_addrs.clone();
        let group = self.group;
        let mut schedule = Vec::new();
        let mut at = start;
        for &m in member_routers {
            let h = self.host_of(m);
            self.cw.host(h).join_at(at, group, cores.clone());
            schedule.push((m, at));
            at += gap;
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn waxman_world_joins_converge() {
        let graph = generate::waxman(generate::WaxmanParams { n: 25, ..Default::default() }, 5);
        let mut wl = Workload::new(&graph, 55);
        let members = wl.members(6);
        let core = members[0];
        let mut setup = SimSetup::from_graph(graph, CbtConfig::fast(), &[core]);
        setup.join_members(&members, SimTime::from_secs(1), SimDuration::from_millis(200));
        setup.cw.world.start();
        setup.cw.world.run_until(SimTime::from_secs(10));
        for m in &members {
            let view = setup.cw.router(RouterId(m.0)).sharded().group_view(setup.group);
            assert!(view.on_tree, "member DR {m:?} joined");
        }
        // And the trace saw join traffic.
        use cbt_netsim::PacketKind;
        use cbt_wire::ControlType;
        assert!(setup.cw.world.trace().count(PacketKind::Control(ControlType::JoinRequest)) > 0);
    }
}
