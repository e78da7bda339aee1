//! Tree teardown: QUIT_REQUEST/QUIT_ACK, FLUSH_TREE and the periodic
//! membership scan (§2.7, §6.3, §9).

use crate::engine::{CbtRouter, TimerKind};
use crate::events::RouterAction;
use crate::pending::PendingQuit;
use cbt_netsim::SimTime;
use cbt_topology::IfIndex;
use cbt_wire::{Addr, ControlMessage, GroupId};

impl CbtRouter {
    /// §2.7: "If a CBT router has no children it periodically checks
    /// all its directly connected subnets for group member presence. If
    /// no member presence is ascertained on any of its subnets it sends
    /// a QUIT_REQUEST upstream to remove itself from the tree."
    pub(crate) fn maybe_quit(&mut self, now: SimTime, group: GroupId, act: &mut Vec<RouterAction>) {
        if self.has_pending_join(group) {
            return; // a join/reattach is in flight; let it settle first
        }
        let Some(entry) = self.fib.get(group) else { return };
        if !entry.children.is_empty() || self.serves_members(group) {
            return;
        }
        if let Some(parent) = entry.parent {
            let quit = ControlMessage::QuitRequest { group, origin: self.id_addr() };
            self.send_control(act, parent.iface, parent.addr, quit);
            let q = PendingQuit {
                parent_addr: parent.addr,
                parent_iface: parent.iface,
                retries_left: self.cfg.quit_retries,
                next_send: now + self.cfg.quit_interval,
            };
            let was = self.edit(group, |t| t.quit.replace(q)).map(|q| q.next_send);
            self.timers.arm(TimerKind::Quit(group), was, q.next_send);
        }
        // The child removes its own state right away; the pending quit
        // only drives retransmission (§8.3: if the parent cannot
        // respond "the child nevertheless removes its parent
        // information"). A core (or orphaned subtree root) with no
        // children and no members simply forgets the empty entry; §6.2
        // lets it re-learn its core role from the next join.
        self.drop_group_state(group);
    }

    /// Removes every trace of `group`'s branch from this router: its
    /// FIB entry, G-DR roles, pending join and campaign, and with them
    /// their clocks. A quit already sent keeps retransmitting. This is
    /// the engine's only `fib.remove`.
    pub(crate) fn drop_group_state(&mut self, group: GroupId) {
        self.fib.remove(group);
        self.clear_gdr(group);
        self.edit(group, |t| {
            t.join = None;
            t.campaign = None;
        });
    }

    /// Receipt of a QUIT_REQUEST from a child (§2.7).
    pub(crate) fn on_quit_request(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        src: Addr,
        group: GroupId,
        act: &mut Vec<RouterAction>,
    ) {
        // Always acknowledge — even if we have no state left, so a
        // retransmitted quit still quiesces the child.
        let ack = ControlMessage::QuitAck { group, origin: self.id_addr() };
        self.send_control(act, iface, src, ack);
        let had_child = self.fib.get_mut(group).is_some_and(|e| e.remove_child(src));
        if had_child {
            // §2.7: "R3 subsequently checks whether it in turn can send
            // a quit."
            self.maybe_quit(now, group, act);
        }
    }

    /// Receipt of a QUIT_ACK: retransmissions can stop — if it comes
    /// from the parent the quit went to. A late ack from a previous
    /// parent (or any other neighbour) must not silence the quit
    /// toward the current one, which would keep a phantom child until
    /// CHILD-ASSERT-EXPIRE.
    pub(crate) fn on_quit_ack(&mut self, iface: IfIndex, src: Addr, group: GroupId) {
        let quit = self.transients.get(&group).and_then(|t| t.quit);
        if quit.is_some_and(|q| q.parent_addr == src && q.parent_iface == iface) {
            self.edit(group, |t| t.quit = None);
        }
    }

    /// Retransmits one due unacknowledged quit (phase 5 of the timer
    /// service); gives up after the configured retries (parent state is
    /// already gone, §8.3).
    pub(crate) fn service_pending_quit_group(
        &mut self,
        now: SimTime,
        group: GroupId,
        act: &mut Vec<RouterAction>,
    ) {
        let q = self.transients.get(&group).and_then(|t| t.quit).expect("due implies present");
        if q.retries_left == 0 {
            self.edit(group, |t| t.quit = None);
            return;
        }
        let quit = ControlMessage::QuitRequest { group, origin: self.id_addr() };
        self.send_control(act, q.parent_iface, q.parent_addr, quit);
        let next_send = now + self.cfg.quit_interval;
        let retries_left = q.retries_left - 1;
        self.edit(group, |t| t.quit = Some(PendingQuit { retries_left, next_send, ..q }));
        self.timers.arm(TimerKind::Quit(group), Some(q.next_send), next_send);
    }

    /// Sends FLUSH_TREE down one child branch and removes that child
    /// (§2.7: required before re-joining through it).
    pub(crate) fn flush_child(
        &mut self,
        now: SimTime,
        group: GroupId,
        child_addr: Addr,
        act: &mut Vec<RouterAction>,
    ) {
        let _ = now;
        let Some(entry) = self.fib.get_mut(group) else { return };
        let Some(child) = entry.children.iter().find(|c| c.addr == child_addr).copied() else {
            return;
        };
        entry.remove_child(child_addr);
        let flush = ControlMessage::FlushTree { group, origin: self.id_addr() };
        self.send_control(act, child.iface, child.addr, flush);
    }

    /// Flushes every child branch (used when a re-attachment gives up
    /// for good).
    pub(crate) fn flush_all_children(
        &mut self,
        now: SimTime,
        group: GroupId,
        act: &mut Vec<RouterAction>,
    ) {
        let children: Vec<Addr> = self.children_of(group);
        for c in children {
            self.flush_child(now, group, c, act);
        }
    }

    /// Receipt of FLUSH_TREE (§2.7): "all routers receiving this message
    /// must process it and forward it to all their children. Routers
    /// that have received a flush message will re-establish themselves
    /// on the delivery tree if they have directly connected subnets
    /// with group presence."
    pub(crate) fn on_flush_tree(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        src: Addr,
        group: GroupId,
        act: &mut Vec<RouterAction>,
    ) {
        let from_parent = self
            .fib
            .get(group)
            .is_some_and(|e| e.is_parent(src) && e.parent.is_some_and(|p| p.iface == iface));
        if !from_parent {
            return; // only our parent may tear our branch down
        }
        // Forward down every child branch first.
        self.flush_all_children(now, group, act);
        // Remember which LANs we served, then drop all state.
        let served: Vec<IfIndex> =
            self.lan_ifaces().into_iter().filter(|l| self.is_gdr(*l, group)).collect();
        self.drop_group_state(group);
        // Re-establish for subnets with live membership.
        for lan in served {
            let has_members = self.lans.get(&lan).is_some_and(|l| l.presence.has_members(group));
            if has_members {
                self.trigger_join(now, lan, group, 0, act);
            }
        }
    }

    /// §9 IFF-SCAN-INTERVAL: periodic safety net. Quits childless
    /// memberless entries, and (re)joins groups that have local members
    /// but no tree and no pending join (e.g. after an expired join
    /// attempt or a lost trigger).
    pub(crate) fn iff_scan(&mut self, now: SimTime, act: &mut Vec<RouterAction>) {
        let groups: Vec<GroupId> = self.fib.groups().collect();
        for g in groups {
            self.maybe_quit(now, g, act);
        }
        // Backbone safety net (§6.1/§6.2): a parentless secondary core
        // whose RECONNECT campaign toward the primary gave up retries
        // at scan cadence, so a revived primary (which only learns it
        // is a core by being joined, §6.2) eventually re-absorbs this
        // fragment instead of the group staying partitioned forever.
        let fragments: Vec<GroupId> = self
            .fib
            .groups()
            .filter(|g| {
                self.fib.get(*g).is_some_and(|e| e.parent.is_none() && self.is_secondary_core(e))
            })
            .filter(|g| {
                !self.transients.get(g).is_some_and(|t| t.join.is_some() || t.backoff().is_some())
            })
            .collect();
        for g in fragments {
            self.start_reattach(now, g, 0, act);
        }
        // Re-join safety net, and the re-validation of proxied LANs.
        let lans = self.lan_ifaces();
        for lan in lans {
            let groups: Vec<GroupId> =
                self.lans.get(&lan).map(|l| l.presence.groups().collect()).unwrap_or_default();
            for g in groups {
                if !self.i_am_dr(lan, now) {
                    continue;
                }
                if self.is_proxied(lan, g) && !self.fib.on_tree(g) && !self.has_pending_join(g) {
                    self.revalidate_proxy(now, lan, g, act);
                } else if !self.lan_group_handled(lan, g) {
                    self.trigger_join(now, lan, g, 0, act);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::*;
    use crate::CbtConfig;
    use cbt_obs::CtlKind;
    use cbt_wire::{AckSubcode, JoinSubcode};
    use std::collections::BTreeMap;

    fn g() -> GroupId {
        GroupId::numbered(1)
    }

    fn core_a() -> Addr {
        Addr::from_octets(10, 255, 0, 77)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// On-tree engine: joined via if1 with one child on if2.
    fn on_tree_with_child() -> CbtRouter {
        let mut e = engine(CbtConfig::default());
        let mut map = BTreeMap::new();
        map.insert(core_a(), up_hop());
        set_routes(&mut e, map);
        e.learn_cores(g(), &[core_a()]);
        let mut act = Vec::new();
        e.trigger_join(t(0), IfIndex(0), g(), 0, &mut act);
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(2), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(e.is_on_tree(g()));
        assert_eq!(e.children_of(g()).len(), 1);
        e
    }

    #[test]
    fn quit_from_child_removes_it_and_acks() {
        let mut e = on_tree_with_child();
        let msg = ControlMessage::QuitRequest { group: g(), origin: down_addr() };
        let act = e.feed(t(10), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(matches!(
            &act[0],
            RouterAction::SendControl {
                iface: IfIndex(2),
                msg: ControlMessage::QuitAck { .. },
                ..
            }
        ));
        assert!(e.children_of(g()).is_empty());
    }

    #[test]
    fn cascading_quit_when_last_child_leaves_and_no_members() {
        let mut e = on_tree_with_child();
        // Drop our member LAN responsibility so the cascade can fire.
        e.lan_mut(IfIndex(0)).gdr.remove(&g());
        let msg = ControlMessage::QuitRequest { group: g(), origin: down_addr() };
        let act = e.feed(t(10), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        // Ack downstream + our own quit upstream.
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl {
                iface: IfIndex(2),
                msg: ControlMessage::QuitAck { .. },
                ..
            }
        )));
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    iface: IfIndex(1),
                    msg: ControlMessage::QuitRequest { .. },
                    ..
                }
            )),
            "§2.7: R3-style cascade"
        );
        assert!(!e.is_on_tree(g()), "state dropped immediately");
    }

    #[test]
    fn member_presence_blocks_quit() {
        let mut e = on_tree_with_child();
        // Fake membership on LAN if0 where we are G-DR.
        let report = cbt_wire::IgmpMessage::Report { version: 3, group: g() };
        e.feed(
            t(5),
            Input::Igmp { iface: IfIndex(0), src: Addr::from_octets(10, 1, 0, 100), msg: report },
        );
        let msg = ControlMessage::QuitRequest { group: g(), origin: down_addr() };
        let act = e.feed(t(10), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(
            !act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    iface: IfIndex(1),
                    msg: ControlMessage::QuitRequest { .. },
                    ..
                }
            )),
            "members present ⇒ no cascade"
        );
        assert!(e.is_on_tree(g()));
    }

    #[test]
    fn quit_retransmits_until_acked_or_exhausted() {
        let mut e = on_tree_with_child();
        e.lan_mut(IfIndex(0)).gdr.remove(&g());
        let msg = ControlMessage::QuitRequest { group: g(), origin: down_addr() };
        e.feed(t(10), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert_eq!(e.obs().ctl().sent(CtlKind::QuitRequest), 1);
        // No ack: retransmit on the quit interval (5 s default).
        let act = e.feed(t(15), Input::Timer);
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl { msg: ControlMessage::QuitRequest { .. }, .. }
        )));
        // An ack stops it.
        let msg = ControlMessage::QuitAck { group: g(), origin: up_hop().addr };
        e.feed(t(16), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let act = e.feed(t(25), Input::Timer);
        assert!(!act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl { msg: ControlMessage::QuitRequest { .. }, .. }
        )));
    }

    #[test]
    fn quit_ack_from_a_stranger_does_not_stop_retransmission() {
        let mut e = on_tree_with_child();
        e.lan_mut(IfIndex(0)).gdr.remove(&g());
        let msg = ControlMessage::QuitRequest { group: g(), origin: down_addr() };
        e.feed(t(10), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert_eq!(
            e.obs().ctl().sent(CtlKind::QuitRequest),
            1,
            "the cascade quit went to the parent on if1"
        );
        let retransmits = |act: &[RouterAction]| {
            act.iter().any(|a| {
                matches!(
                    a,
                    RouterAction::SendControl {
                        iface: IfIndex(1),
                        msg: ControlMessage::QuitRequest { .. },
                        ..
                    }
                )
            })
        };
        // Acks from the former child, and from the parent's address on
        // the wrong interface, are not the parent's ack.
        for (iface, src) in [(IfIndex(2), down_addr()), (IfIndex(2), up_hop().addr)] {
            let msg = ControlMessage::QuitAck { group: g(), origin: src };
            e.feed(t(11), Input::Control { iface, src, msg });
        }
        assert!(retransmits(&e.feed(t(15), Input::Timer)), "a stranger's ack silenced the quit");
        // The parent's own ack still does.
        let parent = up_hop().addr;
        let msg = ControlMessage::QuitAck { group: g(), origin: parent };
        e.feed(t(16), Input::Control { iface: IfIndex(1), src: parent, msg });
        assert!(!retransmits(&e.feed(t(20), Input::Timer)));
        assert_eq!(e.next_wakeup().map(|w| w > t(20)), Some(true), "quit timer is down");
    }

    #[test]
    fn quit_gives_up_after_retries() {
        let mut e = on_tree_with_child();
        e.lan_mut(IfIndex(0)).gdr.remove(&g());
        let msg = ControlMessage::QuitRequest { group: g(), origin: down_addr() };
        e.feed(t(10), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        // Default: 3 retries at 5 s intervals, then silence.
        let mut quit_count = 0;
        for s in [15u64, 20, 25, 30, 35, 40] {
            let act = e.feed(t(s), Input::Timer);
            quit_count += act
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        RouterAction::SendControl { msg: ControlMessage::QuitRequest { .. }, .. }
                    )
                })
                .count();
        }
        assert_eq!(quit_count, 3, "retries bounded (§8.3 'small number of re-tries')");
    }

    #[test]
    fn flush_from_parent_clears_state_and_forwards() {
        let mut e = on_tree_with_child();
        let msg = ControlMessage::FlushTree { group: g(), origin: up_hop().addr };
        let act = e.feed(t(10), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    iface: IfIndex(2),
                    msg: ControlMessage::FlushTree { .. },
                    ..
                }
            )),
            "forwarded to children"
        );
        // We had members on if0? No report was fed, so no re-join.
        assert!(!e.is_on_tree(g()));
        assert!(!e.is_gdr(IfIndex(0), g()));
    }

    #[test]
    fn flush_from_non_parent_is_rejected() {
        let mut e = on_tree_with_child();
        let msg = ControlMessage::FlushTree { group: g(), origin: down_addr() };
        let act = e.feed(t(10), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(act.is_empty());
        assert!(e.is_on_tree(g()), "a child cannot flush its parent");
    }

    #[test]
    fn flush_triggers_rejoin_for_served_members() {
        let mut e = on_tree_with_child();
        // Members on our LAN.
        let report = cbt_wire::IgmpMessage::Report { version: 3, group: g() };
        e.feed(
            t(5),
            Input::Igmp { iface: IfIndex(0), src: Addr::from_octets(10, 1, 0, 100), msg: report },
        );
        let msg = ControlMessage::FlushTree { group: g(), origin: up_hop().addr };
        let act = e.feed(t(10), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    msg: ControlMessage::JoinRequest { subcode: JoinSubcode::ActiveJoin, .. },
                    ..
                }
            )),
            "§2.7: flushed routers with member subnets re-establish themselves"
        );
        assert!(e.has_pending_join(g()));
    }

    #[test]
    fn iff_scan_quits_lapsed_entries() {
        let mut e = on_tree_with_child();
        // Remove the child and member responsibility without a quit.
        e.fib.get_mut(g()).unwrap().children.clear();
        e.lan_mut(IfIndex(0)).gdr.remove(&g());
        // Keep the parent alive so the echo timeout does not race the
        // scan into a re-attachment instead of a quit.
        let msg = ControlMessage::EchoReply { group: g(), origin: up_hop().addr, group_mask: None };
        e.feed(t(299), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let act = e.feed(t(300), Input::Timer);
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl { msg: ControlMessage::QuitRequest { .. }, .. }
            )),
            "IFF-SCAN catches it"
        );
        assert!(!e.is_on_tree(g()));
    }

    #[test]
    fn iff_scan_rejoins_orphaned_membership() {
        let mut e = engine(CbtConfig::default());
        let mut map = BTreeMap::new();
        map.insert(core_a(), up_hop());
        set_routes(&mut e, map);
        e.learn_cores(g(), &[core_a()]);
        // Membership exists but no join was ever made (e.g. the cores
        // were unreachable at trigger time).
        let report = cbt_wire::IgmpMessage::Report { version: 3, group: g() };
        // Suppress the immediate trigger by pretending no cores known.
        e.core_knowledge.clear();
        e.feed(
            t(5),
            Input::Igmp { iface: IfIndex(0), src: Addr::from_octets(10, 1, 0, 100), msg: report },
        );
        assert!(!e.has_pending_join(g()));
        // Cores become known again; scan picks the group up. A fresh
        // report keeps the membership from expiring before the scan.
        e.learn_cores(g(), &[core_a()]);
        let report = cbt_wire::IgmpMessage::Report { version: 3, group: g() };
        e.feed(
            t(299),
            Input::Igmp { iface: IfIndex(0), src: Addr::from_octets(10, 1, 0, 100), msg: report },
        );
        let act = e.feed(t(300), Input::Timer);
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl { msg: ControlMessage::JoinRequest { .. }, .. }
        )));
        assert!(e.has_pending_join(g()));
    }

    /// Deviation 7 backbone safety net: a parentless secondary core
    /// whose RECONNECT campaign toward the primary gave up retries at
    /// IFF-scan cadence, so a revived primary (which only learns its
    /// role by being joined, §6.2) eventually re-absorbs the fragment.
    #[test]
    fn iff_scan_retries_the_primary_link_for_fragment_cores() {
        let mut e = engine(CbtConfig::default());
        let my_id = e.id_addr();
        let primary = core_a();
        let mut map = BTreeMap::new();
        map.insert(primary, up_hop());
        set_routes(&mut e, map);
        // Become a non-primary core with a child (a serving fragment).
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: my_id,
            cores: vec![primary, my_id],
        };
        e.feed(t(0), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        // become_core's own rejoin attempt is in flight; simulate its
        // campaign having expired and been given up quietly.
        e.edit(g(), |r| *r = Default::default());
        assert!(e.is_on_tree(g()));
        assert!(e.parent_of(g()).is_none());
        // Keep the child alive across the child-assert sweeps.
        for at in [90u64, 180, 270, 299] {
            let msg =
                ControlMessage::EchoRequest { group: g(), origin: down_addr(), group_mask: None };
            e.feed(t(at), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        }
        // The periodic scan re-opens the campaign toward the primary.
        let act = e.feed(t(300), Input::Timer);
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    iface: IfIndex(1),
                    msg: ControlMessage::JoinRequest {
                        subcode: JoinSubcode::RejoinActive,
                        target_core,
                        ..
                    },
                    ..
                } if *target_core == primary
            )),
            "scan relaunches the backbone rejoin toward the primary: {act:?}"
        );
        assert!(e.has_pending_join(g()));
    }
}
