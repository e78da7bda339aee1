//! Spec-E1..E6 — the protocol walkthroughs of the -03 draft, replayed
//! on the reconstructed Figure 1 / Figure 5 topologies with the full
//! message ledger printed. (The corresponding assertions live in
//! `tests/spec_walkthroughs.rs`; these runs are for eyes.)

use crate::report::Report;
use cbt::{CbtConfig, CbtWorld};
use cbt_metrics::Table;
use cbt_netsim::{Entity, PacketKind, SimTime, WorldConfig};
use cbt_topology::{figure1, figure5_loop, Figure1};
use cbt_wire::{Addr, GroupId};
use serde_json::json;

const GROUP: GroupId = GroupId::numbered(1);

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn cores(fig: &Figure1) -> Vec<Addr> {
    vec![fig.net.router_addr(fig.primary_core()), fig.net.router_addr(fig.secondary_core())]
}

/// Renders the control-plane ledger from the world's trace.
fn ledger(cw: &CbtWorld, from: SimTime) -> Table {
    let mut t = Table::new(["t (s)", "from", "message"]);
    for e in cw.world.trace().entries() {
        if e.at < from {
            continue;
        }
        let name = match e.from {
            Entity::Router(r) => cw.net.routers[r.0 as usize].name.clone(),
            Entity::Host(h) => format!("host {}", cw.net.hosts[h.0 as usize].name),
        };
        let kind = match e.kind {
            PacketKind::Control(c) => format!("{c:?}"),
            PacketKind::Igmp(i) => format!("IGMP {i:?}"),
            PacketKind::DataNative => "data (native)".to_string(),
            PacketKind::DataCbt => "data (CBT mode)".to_string(),
            PacketKind::Other => "unparseable".to_string(),
        };
        t.row([format!("{:.3}", e.at.as_secs_f64()), name, kind]);
    }
    t
}

fn tree_table(cw: &mut CbtWorld, fig: &Figure1) -> Table {
    let mut t = Table::new(["router", "on-tree", "parent", "children", "pending"]);
    let numbers: Vec<usize> = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12];
    for n in numbers {
        let r = fig.router(n);
        let v = cw.router(r).sharded().group_view(GROUP);
        let parent = v.parent.map(|a| a.to_string()).unwrap_or("—".into());
        t.row([
            format!("R{n}"),
            v.on_tree.to_string(),
            parent,
            v.children.len().to_string(),
            v.pending_join.to_string(),
        ]);
    }
    t
}

/// Spec-E1: host A's join builds S1–R1–R3–R4.
pub fn e1() -> Report {
    let fig = figure1();
    let mut cw = CbtWorld::build(fig.net.clone(), CbtConfig::fast(), WorldConfig::default());
    cw.host(fig.hosts.a).join_at(t(1), GROUP, cores(&fig));
    cw.world.start();
    cw.world.run_until(t(4));

    let mut report = Report::new("Spec-E1", "§2.5: host A joins — branch R1–R3–R4");
    report.table("message ledger", ledger(&cw, t(1)));
    report.table("resulting tree state", tree_table(&mut cw, &fig));
    report.finding(format!(
        "R1 parent = {:?}; R4 (primary core) has no parent; joins seen: {}",
        cw.router(fig.router(1)).sharded().group_view(GROUP).parent,
        cw.world.trace().count(PacketKind::Control(cbt_wire::ControlType::JoinRequest)),
    ));
    report.json = json!({"joins": cw.world.trace().count(PacketKind::Control(cbt_wire::ControlType::JoinRequest))});
    report
}

/// Spec-E2: B joins on S4 — the proxy-ack scenario.
pub fn e2() -> Report {
    let fig = figure1();
    let mut cw = CbtWorld::build(fig.net.clone(), CbtConfig::fast(), WorldConfig::default());
    cw.host(fig.hosts.a).join_at(t(1), GROUP, cores(&fig));
    cw.host(fig.hosts.b).join_at(t(3), GROUP, cores(&fig));
    cw.world.start();
    cw.world.run_until(t(6));

    let mut report = Report::new("Spec-E2", "§2.6: proxy-ack on S4 — R2 becomes G-DR");
    report.table("message ledger (from B's join)", ledger(&cw, t(3)));
    report.table("resulting tree state", tree_table(&mut cw, &fig));
    let r2 = cw.router(fig.router(2)).sharded().obs_snapshot();
    let r6_state = cw.router(fig.router(6)).sharded().group_view(GROUP).on_tree;
    report.finding(format!(
        "R2 sent {} proxy-ack(s); R6 on-tree = {} (the D-DR keeps no FIB entry)",
        r2.proxy_acks_sent, r6_state
    ));
    report.json = json!({"r2_proxy_acks": r2.proxy_acks_sent, "r6_on_tree": r6_state});
    report
}

/// Spec-E3: B leaves — teardown R2→R3.
pub fn e3() -> Report {
    let fig = figure1();
    let mut cw = CbtWorld::build(fig.net.clone(), CbtConfig::fast(), WorldConfig::default());
    cw.host(fig.hosts.a).join_at(t(1), GROUP, cores(&fig));
    cw.host(fig.hosts.b).join_at(t(3), GROUP, cores(&fig));
    cw.host(fig.hosts.b).leave_at(t(6), GROUP);
    cw.world.start();
    cw.world.run_until(t(12));

    let mut report = Report::new("Spec-E3", "§2.7: teardown — R2 quits, R3 stays (child R1)");
    report.table("message ledger (from the leave)", ledger(&cw, t(6)));
    report.table("resulting tree state", tree_table(&mut cw, &fig));
    report.finding(format!(
        "R2 on-tree = {}; R3 on-tree = {} with {} child(ren)",
        cw.router(fig.router(2)).sharded().group_view(GROUP).on_tree,
        cw.router(fig.router(3)).sharded().group_view(GROUP).on_tree,
        cw.router(fig.router(3)).sharded().group_view(GROUP).children.len(),
    ));
    report.json = json!({
        "r2_on_tree": cw.router(fig.router(2)).sharded().group_view(GROUP).on_tree,
        "r3_children": cw.router(fig.router(3)).sharded().group_view(GROUP).children.len(),
    });
    report
}

/// Spec-E4: the §5 data-forwarding walkthrough from member G.
pub fn e4() -> Report {
    let fig = figure1();
    let mut cw = CbtWorld::build(
        fig.net.clone(),
        CbtConfig::fast().with_mode(cbt::config::ForwardingMode::CbtMode),
        WorldConfig::default(),
    );
    let all = [
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
    for h in all {
        cw.host(h).join_at(t(1), GROUP, cores(&fig));
    }
    cw.host(fig.hosts.g).send_at(t(5), GROUP, b"from G".to_vec(), 32);
    cw.world.start();
    cw.world.run_until(t(8));

    let mut report = Report::new("Spec-E4", "§5: data from G spans the tree (CBT mode)");
    report.table("data-plane ledger", {
        let mut t2 = Table::new(["t (s)", "from", "message"]);
        for e in cw.world.trace().entries() {
            if e.at < t(5) || !e.kind.is_data() {
                continue;
            }
            let name = match e.from {
                Entity::Router(r) => cw.net.routers[r.0 as usize].name.clone(),
                Entity::Host(h) => format!("host {}", cw.net.hosts[h.0 as usize].name),
            };
            let kind = match e.kind {
                PacketKind::DataNative => "IP multicast (native)",
                PacketKind::DataCbt => "CBT unicast/multicast",
                _ => unreachable!(),
            };
            t2.row([format!("{:.3}", e.at.as_secs_f64()), name, kind.to_string()]);
        }
        t2
    });
    let mut deliveries = Table::new(["host", "copies received"]);
    let names = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L"];
    let mut delivered = 0;
    for (name, h) in names.iter().zip(all) {
        let n = cw.host(h).received().len();
        delivered += n;
        deliveries.row([name.to_string(), n.to_string()]);
    }
    report.table("deliveries", deliveries);
    report.finding(format!(
        "11 member hosts received exactly one copy each (total {delivered}); G does not hear itself"
    ));
    report.json = json!({"total_deliveries": delivered});
    report
}

/// Spec-E5: the §6.3 loop-detection walkthrough on Figure 5.
pub fn e5() -> Report {
    let fig = figure5_loop();
    let net = fig.net.clone();
    let r = |n: usize| fig.router(n);
    let core = net.router_addr(r(1));
    let mut cw = CbtWorld::build(net.clone(), CbtConfig::fast(), WorldConfig::default());
    let h5 = cbt_topology::HostId(4);
    cw.host(h5).join_at(t(1), GROUP, vec![core]);
    cw.world.start();
    cw.world.run_until(t(4));

    // Break R2–R3 and inject the stale-routing opinions of §6.3.
    cw.world.failures_mut().fail_link(cbt_topology::LinkId(1));
    {
        let mut rib = cw.rib.write().expect("rib lock poisoned");
        rib.set_override(r(3), r(1), r(6));
        rib.set_override(r(6), r(1), r(5));
    }
    let loop_starts = cw.world.now();
    cw.world.run_until(t(25));

    let mut report = Report::new("Spec-E5", "§6.3: ACTIVE_REJOIN → NACTIVE_REJOIN loop break");
    report.table("message ledger (from the failure)", {
        let mut t2 = Table::new(["t (s)", "from", "message"]);
        for e in cw.world.trace().entries() {
            if e.at < loop_starts || !matches!(e.kind, PacketKind::Control(_)) {
                continue;
            }
            let name = match e.from {
                Entity::Router(rr) => net.routers[rr.0 as usize].name.clone(),
                Entity::Host(h) => format!("host {}", net.hosts[h.0 as usize].name),
            };
            t2.row([format!("{:.3}", e.at.as_secs_f64()), name, format!("{:?}", e.kind)]);
        }
        t2
    });
    let loops = cw.router(r(3)).sharded().obs_snapshot().loops_broken;
    report.finding(format!(
        "R3 detected and broke the loop {loops} time(s) via its own NACTIVE rejoin"
    ));
    report.json = json!({"loops_broken": loops});
    report
}

/// Spec-E6: parent failure and §6.1 re-attachment timing.
pub fn e6() -> Report {
    let fig = figure1();
    let mut cw = CbtWorld::build(fig.net.clone(), CbtConfig::fast(), WorldConfig::default());
    let all = [fig.hosts.a, fig.hosts.h, fig.hosts.j, fig.hosts.g, fig.hosts.k];
    for h in all {
        cw.host(h).join_at(t(1), GROUP, cores(&fig));
    }
    cw.world.start();
    cw.world.run_until(t(5));
    cw.fail_router(fig.router(8));
    cw.world.run_until(t(30));

    let mut report = Report::new("Spec-E6", "§6.1: R8 dies — echo timeout, island re-roots at R9");
    report.table("tree state after failure", tree_table(&mut cw, &fig));
    let r9 = cw.router(fig.router(9)).sharded();
    let v = r9.group_view(GROUP);
    report.finding(format!(
        "R9 (secondary core) on-tree = {}, parent = {:?}, parent failures seen = {}",
        v.on_tree,
        v.parent,
        r9.obs_snapshot().parent_failures,
    ));
    report.json = json!({"r9_on_tree": v.on_tree});
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_spec_scenarios_render() {
        for report in [e1(), e2(), e3(), e4(), e5(), e6()] {
            let s = report.render();
            assert!(s.contains(report.id), "{}", report.id);
            assert!(!report.tables.is_empty());
        }
    }

    #[test]
    fn e2_confirms_proxy_ack() {
        let r = e2();
        assert_eq!(r.json["r2_proxy_acks"], 1);
        assert_eq!(r.json["r6_on_tree"], false);
    }

    #[test]
    fn e4_delivers_eleven_copies() {
        let r = e4();
        assert_eq!(r.json["total_deliveries"], 11);
    }

    #[test]
    fn e5_breaks_the_loop() {
        let r = e5();
        assert!(r.json["loops_broken"].as_u64().unwrap() >= 1);
    }
}
