//! Keepalives and failure handling (§6.1, §8.4, §9): CBT-ECHO
//! request/reply between child and parent, optional aggregation, echo
//! timeout → re-attachment, child-assert sweeps.

use crate::engine::{CbtRouter, TimerKind};
use crate::events::RouterAction;
use crate::inline::InlineBuf;
use cbt_netsim::SimTime;
use cbt_topology::IfIndex;
use cbt_wire::{Addr, ControlMessage, GroupId};
use std::collections::BTreeMap;

impl CbtRouter {
    /// Phase 4 of the timer service: sends due echo requests and
    /// detects parent failures among the due candidates (ascending
    /// group order). A candidate whose true deadline moved later (its
    /// parent answered an echo since the entry was armed) is silently
    /// re-armed.
    pub(crate) fn service_keepalives_due(
        &mut self,
        now: SimTime,
        candidates: impl Iterator<Item = GroupId>,
        act: &mut Vec<RouterAction>,
    ) {
        let (interval, timeout) = (self.cfg.echo_interval, self.cfg.echo_timeout);
        // One FIB lookup per candidate: a due echo advances its clock
        // here and carries its next deadline to the arm after the send,
        // which keeps every arm in its place in the FIFO tie-break.
        let mut echo_due: InlineBuf<(GroupId, IfIndex, Addr, SimTime), 4> = InlineBuf::new();
        let mut failed: InlineBuf<GroupId, 4> = InlineBuf::new();
        for g in candidates {
            let Some(p) = self.fib.get_mut(g).and_then(|e| e.parent.as_mut()) else { continue };
            if now.since(p.last_reply) >= timeout {
                failed.push(g);
            } else if now >= p.next_echo {
                p.next_echo = now + interval;
                echo_due.push((g, p.iface, p.addr, p.echo_deadline(timeout)));
            } else {
                self.timers.arm(TimerKind::Echo(g), p.echo_deadline(timeout));
            }
        }
        if self.cfg.aggregate_echoes {
            // §8.4: one echo per parent covering a masked group range.
            let mut by_parent: BTreeMap<(IfIndex, Addr), Vec<GroupId>> = BTreeMap::new();
            for &(g, iface, addr, _) in echo_due.as_slice() {
                by_parent.entry((iface, addr)).or_default().push(g);
            }
            for ((iface, addr), groups) in by_parent {
                let (named, mask) = mask_covering(&groups);
                let msg = ControlMessage::EchoRequest {
                    group: named,
                    origin: self.id_addr(),
                    group_mask: Some(mask),
                };
                self.send_control(act, iface, addr, msg);
                // Every group this parent covers advances its echo clock
                // (not just the due ones — the aggregate refreshed all).
                let timers = &mut self.timers;
                for (g, e) in self.fib.iter_mut() {
                    if let Some(p) = e.parent.as_mut().filter(|p| p.addr == addr) {
                        p.next_echo = now + interval;
                        timers.arm(TimerKind::Echo(g), p.echo_deadline(timeout));
                    }
                }
            }
        } else {
            for &(g, iface, addr, deadline) in echo_due.as_slice() {
                let msg = ControlMessage::EchoRequest {
                    group: g,
                    origin: self.id_addr(),
                    group_mask: None,
                };
                self.send_control(act, iface, addr, msg);
                self.timers.arm(TimerKind::Echo(g), deadline);
            }
        }

        for &g in failed.as_slice() {
            // §6.1: "the child realises that its parent has become
            // unreachable and must therefore try and re-connect."
            self.obs.parent_failures += 1;
            self.start_reattach(now, g, 0, act);
        }
    }

    /// Receipt of CBT-ECHO-REQUEST: refresh child liveness and reply
    /// (§8.4). Replies mirror the request's aggregation.
    pub(crate) fn on_echo_request(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        src: Addr,
        group: GroupId,
        group_mask: Option<Addr>,
        act: &mut Vec<RouterAction>,
    ) {
        let refreshed_any = match group_mask {
            // A point echo names exactly one group: one FIB lookup, no
            // candidate list — at 100k groups the scan made each
            // keepalive O(n), and the keepalive is the steady state.
            None => self.refresh_child(now, group, src),
            Some(_) => {
                let matching: Vec<GroupId> = self
                    .fib
                    .iter()
                    .filter(|(g, e)| group_matches(*g, group, group_mask) && e.has_child(src))
                    .map(|(g, _)| g)
                    .collect();
                let mut any = false;
                for g in matching {
                    any |= self.refresh_child(now, g, src);
                }
                any
            }
        };
        if refreshed_any {
            let reply = ControlMessage::EchoReply { group, origin: self.id_addr(), group_mask };
            self.send_control(act, iface, src, reply);
        }
        // An echo from a router we do not consider a child gets no
        // reply: its echo timeout will make it re-join, which is the
        // §6.2 recovery for a parent that lost state.
    }

    /// Marks child `src` of `g` heard at `now`. False if `src` is not a
    /// child of `g`. Only `last_heard` and the watermark move here: the
    /// sweep reads the deadline from `last_heard`.
    fn refresh_child(&mut self, now: SimTime, g: GroupId, src: Addr) -> bool {
        let Some(c) =
            self.fib.get_mut(g).and_then(|e| e.children.iter_mut().find(|c| c.addr == src))
        else {
            return false;
        };
        c.last_heard = now;
        let deadline = now + self.cfg.child_assert_expire;
        self.child_deadline_max = self.child_deadline_max.max(deadline);
        true
    }

    /// Receipt of CBT-ECHO-REPLY: refresh parent liveness.
    pub(crate) fn on_echo_reply(
        &mut self,
        now: SimTime,
        _iface: IfIndex,
        src: Addr,
        group: GroupId,
        group_mask: Option<Addr>,
    ) {
        // Only groups parented on `src` can be refreshed: a point reply
        // is one lookup, and only an aggregated reply (§8.4) walks the
        // FIB, as its request did at the parent.
        match group_mask {
            None => self.settle_parent(now, group, src),
            Some(_) => {
                let candidates: Vec<GroupId> = self
                    .fib
                    .iter()
                    .filter(|(g, e)| e.is_parent(src) && group_matches(*g, group, group_mask))
                    .map(|(g, _)| g)
                    .collect();
                for g in candidates {
                    self.settle_parent(now, g, src);
                }
            }
        }
    }

    /// Parent `src` of `g` answered an echo at `now`. No-op if `src` is
    /// not `g`'s parent.
    fn settle_parent(&mut self, now: SimTime, g: GroupId, src: Addr) {
        let deadline = match self.fib.get_mut(g).and_then(|e| e.parent.as_mut()) {
            Some(p) if p.addr == src => {
                p.last_reply = now;
                p.echo_deadline(self.cfg.echo_timeout)
            }
            _ => return,
        };
        // A parent that answers echoes is real — not the transient
        // instatement of a §6.3 loop-in-progress — so the §6.1
        // RECONNECT-TIMEOUT campaign for this group has genuinely
        // succeeded and its budget can be retired.
        self.end_campaign(g);
        // The keepalive deadline may have moved later (the echo-timeout
        // arm of the min): re-clock so the next wake lands on it exactly.
        self.timers.arm(TimerKind::Echo(g), deadline);
    }

    /// §9 CHILD-ASSERT, phase 6 of the timer service: once per
    /// CHILD-ASSERT-INTERVAL, one pass over the FIB drops every child
    /// not heard from for CHILD-ASSERT-EXPIRE, then offers each group
    /// that lost a child to `maybe_quit`, in ascending group order.
    pub(crate) fn sweep_children_due(&mut self, now: SimTime, act: &mut Vec<RouterAction>) {
        let expire = self.cfg.child_assert_expire;
        self.last_child_sweep = self.last_child_sweep.max(now);
        let mut affected: InlineBuf<GroupId, 4> = InlineBuf::new();
        for (g, e) in self.fib.iter_mut() {
            let before = e.children.len();
            e.children.retain(|c| now.since(c.last_heard) < expire);
            if e.children.len() != before {
                affected.push(g);
            }
        }
        for &g in affected.as_slice() {
            // Losing the last child may make us quittable (§2.7).
            self.maybe_quit(now, g, act);
        }
    }
}

/// Does `g` fall inside the echo's group/mask cover (Fig. 9 semantics)?
fn group_matches(g: GroupId, named: GroupId, mask: Option<Addr>) -> bool {
    match mask {
        None => g == named,
        Some(m) => g.addr().masked(m) == named.addr().masked(m),
    }
}

/// Smallest common-prefix mask covering all `groups`, named by the
/// first of them. Used to build aggregated echoes (§8.4). The name is
/// one of the sender's own groups, not the masked base: group-space
/// steering routes the echo by that field, and only a group the
/// sending shard owns lands on the peer shard that owns the cover.
fn mask_covering(groups: &[GroupId]) -> (GroupId, Addr) {
    debug_assert!(!groups.is_empty());
    let first = groups[0].addr().0;
    let mut same = !0u32; // bits where all group addresses agree
    for g in groups {
        same &= !(first ^ g.addr().0);
    }
    // Take the longest prefix of agreeing bits.
    let mut mask = 0u32;
    for bit in (0..32).rev() {
        if same & (1 << bit) != 0 {
            mask |= 1 << bit;
        } else {
            break;
        }
    }
    (groups[0], Addr(mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::*;
    use crate::CbtConfig;
    use cbt_obs::CtlKind;
    use cbt_wire::{AckSubcode, JoinSubcode};
    use std::collections::BTreeMap;

    fn g(n: u16) -> GroupId {
        GroupId::numbered(n)
    }

    fn core_a() -> Addr {
        Addr::from_octets(10, 255, 0, 77)
    }

    fn core_b() -> Addr {
        Addr::from_octets(10, 255, 0, 88)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn join_group(e: &mut CbtRouter, n: u16, at: SimTime) {
        e.learn_cores(g(n), &[core_a(), core_b()]);
        let mut act = Vec::new();
        e.trigger_join(at, IfIndex(0), g(n), 0, &mut act);
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(n),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        e.feed(at, Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(e.is_on_tree(g(n)));
    }

    fn routed_engine(cfg: CbtConfig) -> CbtRouter {
        let mut e = engine(cfg);
        let mut map = BTreeMap::new();
        map.insert(core_a(), up_hop());
        map.insert(core_b(), up_hop());
        set_routes(&mut e, map);
        e
    }

    #[test]
    fn echo_requests_flow_on_the_interval() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        // Due at t=30 (CBT-ECHO-INTERVAL).
        assert!(e.feed(t(29), Input::Timer).iter().all(|a| !matches!(
            a,
            RouterAction::SendControl { msg: ControlMessage::EchoRequest { .. }, .. }
        )));
        let act = e.feed(t(30), Input::Timer);
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl {
                iface: IfIndex(1),
                msg: ControlMessage::EchoRequest { group_mask: None, .. },
                ..
            }
        )));
        assert_eq!(e.obs().ctl().sent(CtlKind::EchoRequest), 1);
    }

    #[test]
    fn parent_replies_to_child_echo() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        // Adopt a child.
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(1),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        let msg =
            ControlMessage::EchoRequest { group: g(1), origin: down_addr(), group_mask: None };
        let act = e.feed(t(5), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(matches!(
            &act[0],
            RouterAction::SendControl {
                iface: IfIndex(2),
                msg: ControlMessage::EchoReply { .. },
                ..
            }
        ));
        assert_eq!(e.obs().ctl().sent(CtlKind::EchoReply), 1);
    }

    #[test]
    fn echo_from_stranger_gets_no_reply() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        // The sender is not a child — we never acked it.
        let msg =
            ControlMessage::EchoRequest { group: g(1), origin: down_addr(), group_mask: None };
        let act = e.feed(t(5), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(act.is_empty(), "silence makes the stranger re-join (§6.2)");
    }

    #[test]
    fn echo_timeout_triggers_reattach_to_alternate_core() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        // Echoes go unanswered; at +90 s the parent is declared dead.
        e.feed(t(30), Input::Timer);
        e.feed(t(60), Input::Timer);
        let act = e.feed(t(90), Input::Timer);
        assert_eq!(e.obs().parent_failures, 1);
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    msg: ControlMessage::JoinRequest { subcode: JoinSubcode::ActiveJoin, .. },
                    ..
                }
            )),
            "no children ⇒ plain ACTIVE_JOIN (§6.1)"
        );
        assert!(e.has_pending_join(g(1)));
        assert_eq!(e.parent_of(g(1)), None);
    }

    /// The silent-residue bug the netscale soak exposed: a directly
    /// attached member leaves while its router's §6.1 reattach is
    /// still pending. `local_leave` defers the quit to the in-flight
    /// join — so the reattach ack must re-check, or it instates a
    /// memberless, childless branch that outlives the group.
    #[test]
    fn reattach_ack_after_member_left_quits_eagerly() {
        let mut e = routed_engine(CbtConfig::default());
        e.learn_cores(g(1), &[core_a(), core_b()]);
        e.feed(t(0), Input::Join(g(1)));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(1),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        e.feed(t(0), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(e.is_on_tree(g(1)));
        // Parent goes silent; at +90 s §6.1 launches the reattach.
        e.feed(t(30), Input::Timer);
        e.feed(t(60), Input::Timer);
        e.feed(t(90), Input::Timer);
        assert_eq!(e.obs().parent_failures, 1);
        assert!(e.has_pending_join(g(1)));
        // The member leaves mid-campaign: the quit is deferred.
        e.feed(t(91), Input::Leave(g(1)));
        assert!(e.has_pending_join(g(1)), "leave defers to the in-flight reattach");
        // The reattach ack lands — the branch serves nobody now.
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(1),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        let act = e.feed(t(92), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl { msg: ControlMessage::QuitRequest { .. }, .. }
            )),
            "ack for a vanished membership must quit eagerly: {act:?}"
        );
        assert!(!e.is_on_tree(g(1)), "no residue branch");
    }

    #[test]
    fn replies_keep_parent_alive() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        for s in [30u64, 60, 90, 120] {
            e.feed(t(s), Input::Timer);
            let msg =
                ControlMessage::EchoReply { group: g(1), origin: up_hop().addr, group_mask: None };
            e.feed(t(s), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        }
        assert_eq!(e.obs().parent_failures, 0);
        assert_eq!(e.parent_of(g(1)), Some(up_hop().addr));
    }

    /// Steady-state keepalives must not manufacture stale timer
    /// entries: the reply re-arms the echo key at the deadline it
    /// already holds, so after any number of rounds every armed key
    /// owns exactly one heap entry.
    #[test]
    fn echo_rounds_leave_one_timer_entry_per_armed_key() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(1),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        let mut requests = 0;
        for round in 1..=1000u64 {
            // Our echo to the parent fires on its clock and is answered
            // a second later; the child's echo arrives in between.
            let at = t(30 * round);
            let mut now = at;
            while let Some(w) = e.next_wakeup().filter(|w| *w <= at) {
                now = w;
                requests += e
                    .feed(w, Input::Timer)
                    .iter()
                    .filter(|a| {
                        matches!(
                            a,
                            RouterAction::SendControl {
                                msg: ControlMessage::EchoRequest { .. },
                                ..
                            }
                        )
                    })
                    .count();
            }
            let msg =
                ControlMessage::EchoRequest { group: g(1), origin: down_addr(), group_mask: None };
            e.feed(now, Input::Control { iface: IfIndex(2), src: down_addr(), msg });
            let msg =
                ControlMessage::EchoReply { group: g(1), origin: up_hop().addr, group_mask: None };
            e.feed(
                at + cbt_netsim::SimDuration::from_secs(1),
                Input::Control { iface: IfIndex(1), src: up_hop().addr, msg },
            );
            let (entries, keys) = (e.timers.len(), e.timers.tracked_keys());
            assert_eq!(entries, keys, "round {round}: a stale timer entry appeared");
        }
        assert_eq!(requests, 1000, "one echo request per interval");
        assert_eq!(e.obs().parent_failures, 0);
        assert_eq!(e.children_of(g(1)).len(), 1);
    }

    #[test]
    fn child_sweep_expires_silent_children() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(1),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert_eq!(e.children_of(g(1)).len(), 1);
        // Child stays silent: CHILD-ASSERT-EXPIRE-TIME is 180 s; sweeps
        // run every 90 s.
        e.feed(t(90), Input::Timer);
        assert_eq!(e.children_of(g(1)).len(), 1, "only 89 s silent");
        e.feed(t(185), Input::Timer);
        assert!(e.children_of(g(1)).is_empty(), "expired at the next sweep");
    }

    #[test]
    fn child_echo_refreshes_against_sweep() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(1),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        for s in [60u64, 120, 180, 240] {
            let msg =
                ControlMessage::EchoRequest { group: g(1), origin: down_addr(), group_mask: None };
            e.feed(t(s), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
            // Keep our own parent alive too, so the child-assert sweep
            // is the only mechanism under test.
            let msg =
                ControlMessage::EchoReply { group: g(1), origin: up_hop().addr, group_mask: None };
            e.feed(t(s), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
            e.feed(t(s + 1), Input::Timer);
        }
        assert_eq!(e.children_of(g(1)).len(), 1, "regular echoes keep the child");
    }

    #[test]
    fn aggregated_echo_covers_multiple_groups() {
        let cfg = CbtConfig { aggregate_echoes: true, ..Default::default() };
        let mut e = routed_engine(cfg);
        join_group(&mut e, 0, t(0));
        join_group(&mut e, 1, t(0));
        join_group(&mut e, 2, t(0));
        let act = e.feed(t(30), Input::Timer);
        let echoes: Vec<_> = act
            .iter()
            .filter_map(|a| match a {
                RouterAction::SendControl {
                    msg: ControlMessage::EchoRequest { group, group_mask, .. },
                    ..
                } => Some((*group, *group_mask)),
                _ => None,
            })
            .collect();
        assert_eq!(echoes.len(), 1, "one aggregate instead of three (§8.4)");
        let (low, mask) = echoes[0];
        let mask = mask.expect("aggregated");
        for n in [0u16, 1, 2] {
            assert!(group_matches(g(n), low, Some(mask)), "group {n} covered");
        }
    }

    #[test]
    fn aggregated_reply_refreshes_all_covered_parents() {
        let cfg = CbtConfig { aggregate_echoes: true, ..Default::default() };
        let mut e = routed_engine(cfg);
        join_group(&mut e, 1, t(0));
        join_group(&mut e, 2, t(0));
        e.feed(t(30), Input::Timer);
        // One aggregated reply.
        let (low, mask) = mask_covering(&[g(1), g(2)]);
        let msg =
            ControlMessage::EchoReply { group: low, origin: up_hop().addr, group_mask: Some(mask) };
        e.feed(t(31), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        // Neither parent may time out at t=90 (last_reply was t=31).
        e.feed(t(60), Input::Timer);
        e.feed(t(90), Input::Timer);
        assert_eq!(e.obs().parent_failures, 0);
    }

    /// Regression for the §8.4 re-clock loop: refreshing one parent's
    /// covered groups must touch exactly that parent's groups. Two
    /// groups ride the upstream parent, a third rides a different
    /// parent with a staggered clock — the aggregate for the first
    /// parent must advance its own two groups to `now + interval` and
    /// leave the third group's earlier deadline untouched.
    #[test]
    fn aggregate_refresh_is_single_pass_per_parent() {
        let cfg = CbtConfig { aggregate_echoes: true, ..Default::default() };
        let mut e = routed_engine(cfg);
        let down_hop = cbt_routing::Hop {
            iface: IfIndex(2),
            router: cbt_topology::RouterId(2),
            addr: down_addr(),
            dist: 1,
        };
        let mut map = BTreeMap::new();
        map.insert(core_a(), up_hop());
        map.insert(core_b(), down_hop);
        set_routes(&mut e, map);
        join_group(&mut e, 1, t(0));
        join_group(&mut e, 2, t(0));
        // Group 3 joins through the *other* parent, 10 s later.
        e.learn_cores(g(3), &[core_b()]);
        let mut act = Vec::new();
        e.trigger_join(t(10), IfIndex(0), g(3), 0, &mut act);
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(3),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_b(),
            cores: vec![core_b()],
        };
        e.feed(t(10), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert_eq!(e.parent_of(g(3)), Some(down_addr()));

        let act = e.feed(t(30), Input::Timer);
        let echoes = act
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    RouterAction::SendControl { msg: ControlMessage::EchoRequest { .. }, .. }
                )
            })
            .count();
        assert_eq!(echoes, 1, "only the upstream parent's groups were due");
        let next_echo =
            |e: &CbtRouter, n: u16| e.fib().get(g(n)).unwrap().parent.unwrap().next_echo;
        assert_eq!(next_echo(&e, 1), t(60), "covered group re-clocked");
        assert_eq!(next_echo(&e, 2), t(60), "covered group re-clocked");
        assert_eq!(next_echo(&e, 3), t(40), "other parent's group left alone");

        // The untouched clock fires on its own schedule, aimed at the
        // other parent only.
        let act = e.feed(t(40), Input::Timer);
        let targets: Vec<Addr> = act
            .iter()
            .filter_map(|a| match a {
                RouterAction::SendControl {
                    dst, msg: ControlMessage::EchoRequest { .. }, ..
                } => Some(*dst),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![down_addr()]);
        assert_eq!(next_echo(&e, 1), t(60), "upstream clocks unaffected in return");
        assert_eq!(next_echo(&e, 3), t(70));
    }

    /// The point-reply fast path (no mask) refreshes exactly the named
    /// group — a sibling group on the same parent keeps its clock, the
    /// same answer the old full-FIB scan gave.
    #[test]
    fn point_reply_refreshes_only_its_group() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        join_group(&mut e, 2, t(0));
        let msg =
            ControlMessage::EchoReply { group: g(1), origin: up_hop().addr, group_mask: None };
        e.feed(t(31), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let last = |e: &CbtRouter, n: u16| e.fib().get(g(n)).unwrap().parent.unwrap().last_reply;
        assert_eq!(last(&e, 1), t(31), "named group refreshed");
        assert!(last(&e, 2) < t(31), "sibling on the same parent untouched");
    }

    #[test]
    fn mask_covering_properties() {
        let (named, mask) = mask_covering(&[g(0)]);
        assert_eq!(named, g(0));
        assert_eq!(mask, Addr(!0), "single group ⇒ host mask");
        let groups = [g(1), g(2), g(3), g(0)];
        let (named, mask) = mask_covering(&groups);
        for grp in groups {
            assert!(group_matches(grp, named, Some(mask)));
        }
        // Named by a group the sender owns, so steering agrees with it.
        assert_eq!(named, g(1), "the cover is named by its first group");
    }

    /// Deviation 7: the §6.1 RECONNECT campaign budget is retired by a
    /// parent that proves real (answers an echo) — not by the ack that
    /// instated it, which may be a §6.3 loop about to be torn down.
    #[test]
    fn parent_echo_reply_retires_the_reconnect_budget() {
        let mut e = routed_engine(CbtConfig::default());
        join_group(&mut e, 1, t(0));
        e.edit(g(1), |r| {
            r.campaign = Some(crate::pending::Campaign { since: t(0), backoff: None })
        });
        // A reply from someone who is NOT the parent changes nothing.
        let msg = ControlMessage::EchoReply { group: g(1), origin: down_addr(), group_mask: None };
        e.feed(t(5), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(e.has_transient_state(g(1)), "stranger's reply ignored");
        // The parent's reply retires the campaign.
        let msg =
            ControlMessage::EchoReply { group: g(1), origin: up_hop().addr, group_mask: None };
        e.feed(t(6), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(!e.has_transient_state(g(1)), "parent answered: settled");
    }

    /// A p2p engine that every join below names as the
    /// group's core: no parent, no LAN, so the child sweep is the only
    /// timer it ever arms.
    fn p2p_core() -> (CbtRouter, Addr) {
        let me = Addr::from_octets(10, 0, 0, 1);
        let cfg = CbtConfig { shards: 1, ..CbtConfig::fast() };
        let routes = Box::new(BTreeMap::<Addr, cbt_routing::Hop>::new());
        (CbtRouter::p2p(me, 1, cfg, routes, SimTime::ZERO), me)
    }

    fn join_from(e: &mut CbtRouter, at: SimTime, group: GroupId, child: Addr, me: Addr) {
        let join = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group,
            origin: child,
            target_core: me,
            cores: vec![me],
        };
        e.feed(at, Input::Control { iface: IfIndex(0), src: child, msg: join });
    }

    /// A core that adopts its first child long after boot finds its
    /// sweep clock overdue (one interval after boot) and arms it at the
    /// adoption instant instead. Serviced then, it sweeps exactly once —
    /// keeping the child — with no lag, and re-times the cadence from
    /// that instant, not from the past one.
    #[test]
    fn a_first_child_adopted_long_after_boot_gets_one_sweep_at_now() {
        let (mut e, me) = p2p_core();
        let interval = e.cfg.child_assert_interval;
        let now = SimTime::from_secs(1_000);
        join_from(&mut e, now, g(1), Addr::from_octets(10, 0, 1, 1), me);
        assert_eq!(e.next_wakeup(), Some(now), "overdue: armed at the adoption");
        e.feed(now, Input::Timer);
        assert_eq!(e.obs.timer_lag_us().count(), 1, "one sweep");
        assert_eq!(e.obs.timer_lag_us().max(), 0, "serviced on time");
        assert_eq!(e.last_child_sweep, now);
        assert_eq!(e.next_wakeup(), Some(now + interval), "the cadence runs from now");
        assert_eq!(e.children_of(g(1)).len(), 1, "the fresh child survived its sweep");
    }

    /// The child sweep's FIB pass against an exact per-child reference
    /// — a `BTreeSet` of `(last_heard + expire, group, child)` re-filed
    /// on every refresh, whose sweep expires silent children only in
    /// groups with a due tuple and whose clock is armed from the set's
    /// emptiness — over a random schedule of adopts, re-adopts, echoes,
    /// quits and sweeps (some serviced late). The engine is a
    /// p2p core, so the child sweep is its only timer and
    /// `next_wakeup` shows exactly when the reference would have it
    /// armed.
    #[test]
    fn child_sweep_pass_matches_the_exact_refile_model() {
        use cbt_netsim::SimDuration;
        use std::collections::BTreeSet;
        const GROUPS: u16 = 3;
        const CHILDREN: u8 = 5;
        let (mut e, me) = p2p_core();
        let (expire, interval) = (e.cfg.child_assert_expire, e.cfg.child_assert_interval);
        let child = |k: u8| Addr::from_octets(10, 0, 1, k);

        // The reference: exact tuples, children with their last-heard
        // instants, and the sweep clock as the old code armed it.
        let mut filed = BTreeSet::<(SimTime, GroupId, Addr)>::new();
        let mut heard: BTreeMap<(GroupId, Addr), SimTime> = BTreeMap::new();
        let mut next_sweep = SimTime::ZERO + interval;
        let mut armed: Option<SimTime> = None;

        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rnd = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut now = SimTime::ZERO;
        let (mut expired, mut survived, mut readopted) = (0usize, 0usize, 0usize);
        for step in 0..20_000 {
            let until = now + SimDuration::from_millis(rnd(2_500));
            // Service the sweep clock up to `until`, on time or late.
            while let Some(due) = armed.filter(|d| *d <= until) {
                assert_eq!(e.next_wakeup(), Some(due), "step {step}: sweep clock");
                now = if rnd(3) == 0 { until } else { due.max(now) };
                e.feed(now, Input::Timer);
                armed = None;
                if now >= next_sweep {
                    let due_groups: BTreeSet<GroupId> =
                        filed.iter().take_while(|t| t.0 <= now).map(|t| t.1).collect();
                    filed.retain(|t| t.0 > now);
                    heard.retain(|(g, _), at| {
                        let keep = !due_groups.contains(g) || now.since(*at) < expire;
                        expired += usize::from(!keep);
                        survived += usize::from(keep && due_groups.contains(g));
                        keep
                    });
                    next_sweep = now + interval;
                }
                if !filed.is_empty() {
                    armed = Some(next_sweep);
                }
                let live: BTreeMap<(GroupId, Addr), SimTime> = e
                    .fib
                    .iter()
                    .flat_map(|(g, en)| {
                        en.children.iter().map(move |c| ((g, c.addr), c.last_heard))
                    })
                    .collect();
                assert_eq!(live, heard, "step {step}: sweep at {now:?} expired a different set");
                assert_eq!(e.children_tracked(), !filed.is_empty(), "step {step}: tracked");
            }
            now = until;
            let (g, c) = (g(rnd(GROUPS as u64) as u16), child(rnd(CHILDREN as u64) as u8));
            match rnd(10) {
                0..=2 => {
                    // Adopt, or re-ack a child we already have.
                    let was = heard.insert((g, c), now);
                    if let Some(at) = was {
                        filed.remove(&(at + expire, g, c));
                        readopted += 1;
                    }
                    if filed.is_empty() {
                        armed = Some(next_sweep.max(now));
                    }
                    filed.insert((now + expire, g, c));
                    join_from(&mut e, now, g, c, me);
                }
                3..=7 => {
                    if let Some(at) = heard.get_mut(&(g, c)) {
                        filed.remove(&(*at + expire, g, c));
                        filed.insert((now + expire, g, c));
                        *at = now;
                    }
                    let echo =
                        ControlMessage::EchoRequest { group: g, origin: c, group_mask: None };
                    let act = e.feed(now, Input::Control { iface: IfIndex(0), src: c, msg: echo });
                    assert_eq!(act.len(), usize::from(heard.contains_key(&(g, c))), "reply");
                }
                _ => {
                    // The reference keeps the quitter's tuple, as the
                    // engine's watermark keeps its deadline.
                    heard.remove(&(g, c));
                    let msg = ControlMessage::QuitRequest { group: g, origin: c };
                    e.feed(now, Input::Control { iface: IfIndex(0), src: c, msg });
                }
            }
            assert_eq!(e.next_wakeup(), armed, "step {step}: sweep clock after the input");
            assert_eq!(e.children_tracked(), !filed.is_empty(), "step {step}: tracked");
        }
        assert!(expired > 200 && survived > 200 && readopted > 200, "the schedule must mix");
        // Left alone, every child expires and the sweep clock goes down.
        while let Some(due) = e.next_wakeup() {
            e.feed(due, Input::Timer);
        }
        assert!(e.fib.is_empty() && !e.children_tracked());
    }
}
