//! §5.2 — CBT in a virtual (tunnel) topology without a multicast
//! topology-discovery protocol: "routing is replaced by 'ranking' each
//! tunnel interface associated with a particular core address; if the
//! highest-ranked route is unavailable then the next-highest ranked
//! available route is selected."
//!
//! The engine's only routing dependency is the `RouteLookup` trait, so
//! an overlay deployment simply plugs a ranked-tunnel table in where a
//! converged IGP would normally sit. This test drives a real engine
//! through the spec's worked example: primary tunnel up → join through
//! it; primary down (Hello timeout) → re-join through the backup.

use cbt::{CbtConfig, CbtRouter, Input, RouteLookup, RouterAction};
use cbt_netsim::SimTime;
use cbt_routing::{Hop, RankedTunnels, TunnelState};
use cbt_topology::{IfIndex, NetworkBuilder, RouterId};
use cbt_wire::{AckSubcode, Addr, ControlMessage, GroupId, IgmpMessage, JoinSubcode};
use parking_lot::RwLock;
use std::sync::Arc;

/// A §5.2 overlay route provider: per-core ranked tunnel interfaces
/// with liveness, plus the remote endpoint of each tunnel.
struct TunnelRoutes {
    ranking: Arc<RwLock<RankedTunnels>>,
    /// iface → (remote tunnel endpoint address, peer router id).
    endpoints: Vec<(Addr, RouterId)>,
}

impl RouteLookup for TunnelRoutes {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        // §5.2: the core's ranked interface list *is* the routing table.
        let iface = self.ranking.read().select(dst)?;
        let (addr, router) = self.endpoints.get(iface.0 as usize).copied()?;
        Some(Hop { iface, router, addr, dist: 1 })
    }
}

fn group() -> GroupId {
    GroupId::numbered(1)
}

fn core_a() -> Addr {
    Addr::from_octets(10, 255, 0, 40)
}

/// An engine whose two p2p interfaces are configured as tunnels to the
/// same core, ranked primary-then-backup.
fn overlay_engine() -> (CbtRouter, Arc<RwLock<RankedTunnels>>) {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let peer1 = b.router("T1"); // primary tunnel remote
    let peer2 = b.router("T2"); // backup tunnel remote
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, peer1, 1); // iface 1
    b.link(me, peer2, 1); // iface 2
    let net = b.build();

    let mut ranking = RankedTunnels::new();
    // Spec example: "core A: #5, #2" — here core_a ranks iface 1 then 2.
    ranking.set_ranking(core_a(), vec![IfIndex(1), IfIndex(2)]);
    let ranking = Arc::new(RwLock::new(ranking));
    let routes = TunnelRoutes {
        ranking: ranking.clone(),
        endpoints: vec![
            (Addr::NULL, RouterId(0)), // iface 0 is the LAN
            (Addr::from_octets(172, 31, 0, 2), peer1),
            (Addr::from_octets(172, 31, 0, 6), peer2),
        ],
    };
    let e = CbtRouter::new(&net, me, CbtConfig::fast(), Box::new(routes), SimTime::ZERO);
    (e, ranking)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Steps `e` with `input` and returns what it emitted.
fn step(e: &mut CbtRouter, now: SimTime, input: Input) -> Vec<RouterAction> {
    let mut out = Vec::new();
    e.step(now, input, &mut out);
    out
}

/// The member host on the LAN reports the group.
fn member_report() -> Input {
    Input::Igmp {
        iface: IfIndex(0),
        src: Addr::from_octets(10, 1, 0, 100),
        msg: IgmpMessage::Report { version: 3, group: group() },
    }
}

fn join_sent_on(act: &[RouterAction]) -> Option<(IfIndex, Addr)> {
    act.iter().find_map(|a| match a {
        RouterAction::SendControl { iface, dst, msg: ControlMessage::JoinRequest { .. } } => {
            Some((*iface, *dst))
        }
        _ => None,
    })
}

#[test]
fn join_uses_highest_ranked_live_tunnel() {
    let (mut e, _ranking) = overlay_engine();
    e.learn_cores(group(), &[core_a()]);
    let act = step(&mut e, t(1), member_report());
    let (iface, dst) = join_sent_on(&act).expect("join sent");
    assert_eq!(iface, IfIndex(1), "primary tunnel chosen");
    assert_eq!(dst, Addr::from_octets(172, 31, 0, 2));
}

#[test]
fn hello_timeout_fails_over_to_backup_tunnel() {
    let (mut e, ranking) = overlay_engine();
    e.learn_cores(group(), &[core_a()]);
    // Join and complete over the primary tunnel.
    step(&mut e, t(1), member_report());
    let ack = ControlMessage::JoinAck {
        subcode: AckSubcode::Normal,
        group: group(),
        origin: Addr::from_octets(10, 1, 0, 1),
        target_core: core_a(),
        cores: vec![core_a()],
    };
    let primary = Addr::from_octets(172, 31, 0, 2);
    step(&mut e, t(1), Input::Control { iface: IfIndex(1), src: primary, msg: ack });
    assert_eq!(e.parent_of(group()), Some(Addr::from_octets(172, 31, 0, 2)));

    // The tunnel's Hello protocol declares the primary down (§5.2);
    // echoes stop being answered, and at the echo timeout the engine
    // re-joins — the ranked table now yields the backup.
    ranking.write().set_state(IfIndex(1), TunnelState::Down);
    let mut rejoin = None;
    for s in 2..=30u64 {
        let act = step(&mut e, t(s), Input::Timer);
        if let Some(hop) = join_sent_on(&act) {
            rejoin = Some(hop);
            break;
        }
    }
    let (iface, dst) = rejoin.expect("re-join fired after the echo timeout");
    assert_eq!(iface, IfIndex(2), "backup tunnel selected (§5.2 worked example)");
    assert_eq!(dst, Addr::from_octets(172, 31, 0, 6));

    // Ack over the backup re-attaches the branch.
    let ack = ControlMessage::JoinAck {
        subcode: AckSubcode::Normal,
        group: group(),
        origin: e.id_addr(),
        target_core: core_a(),
        cores: vec![core_a()],
    };
    let backup = Addr::from_octets(172, 31, 0, 6);
    step(&mut e, t(31), Input::Control { iface: IfIndex(2), src: backup, msg: ack });
    assert_eq!(e.parent_of(group()), Some(Addr::from_octets(172, 31, 0, 6)));
}

#[test]
fn all_tunnels_down_means_no_join_until_recovery() {
    let (mut e, ranking) = overlay_engine();
    e.learn_cores(group(), &[core_a()]);
    ranking.write().set_state(IfIndex(1), TunnelState::Down);
    ranking.write().set_state(IfIndex(2), TunnelState::Down);
    let act = step(&mut e, t(1), member_report());
    assert!(join_sent_on(&act).is_none(), "nowhere to send the join");
    assert!(!e.has_pending_join(group()));

    // Hellos return on the backup; the IFF-scan retries the orphaned
    // membership (fast: 30 s). The host keeps answering the periodic
    // queries, refreshing presence while the tunnels are dark.
    ranking.write().set_state(IfIndex(2), TunnelState::Up);
    let mut sent = None;
    for s in 2..=40u64 {
        if s % 10 == 0 {
            step(&mut e, t(s), member_report());
        }
        if let Some(hop) = join_sent_on(&step(&mut e, t(s), Input::Timer)) {
            sent = Some(hop);
            break;
        }
    }
    assert_eq!(sent, Some((IfIndex(2), Addr::from_octets(172, 31, 0, 6))));
    let _ = JoinSubcode::ActiveJoin; // referenced for readers
}
