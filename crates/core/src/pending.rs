//! Per-group transient state: everything a router has in flight for
//! one group, in one record.
//!
//! A [`Transient`] holds up to three parts, each on its own §9 clock: a
//! pending join (§2.5), a §6.1 re-attachment campaign with its §6.3
//! backoff, and an unacknowledged quit (§2.7). The record exists
//! exactly while one of its parts does, and [`CbtRouter::edit`] is its
//! only write path.
//!
//! §2.5: "For the period between any CBT-capable router forwarding (or
//! originating) a JOIN_REQUEST and receiving a JOIN_ACK the router is
//! not permitted to acknowledge any subsequent joins received for the
//! same group; rather, the router caches such joins till such time as
//! it has itself received a JOIN_ACK for the original join."

use crate::engine::{CbtRouter, TimerKind};
use cbt_netsim::SimTime;
use cbt_topology::IfIndex;
use cbt_wire::{Addr, ControlMessage, GroupId, JoinSubcode};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Why this router has a join in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinReason {
    /// We are the D-DR (or, in netscale p2p mode, the member's own
    /// router) and local membership triggered it (§2.5).
    LocalMembership,
    /// We are forwarding someone else's join (§2.5): remember the
    /// previous hop so the ack can retrace.
    Forwarded {
        /// Interface the join arrived on.
        from_iface: IfIndex,
        /// Previous-hop address.
        from_addr: Addr,
        /// The join's original subcode (ACTIVE_JOIN or REJOIN_ACTIVE).
        subcode: JoinSubcode,
    },
    /// We lost our parent and are re-attaching (§6.1), or we are a
    /// non-primary core joining the primary (§1, §2.5, §6.2).
    Reattach,
}

/// A join cached behind our own pending join (§2.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedJoin {
    /// Interface it arrived on.
    pub from_iface: IfIndex,
    /// Previous hop that sent it.
    pub from_addr: Addr,
    /// The join's origin field (needed for the proxy-ack test, §2.6).
    pub origin: Addr,
    /// Its subcode.
    pub subcode: JoinSubcode,
}

/// One in-flight join for one group.
#[derive(Debug, Clone)]
pub struct PendingJoin {
    /// Why it exists.
    pub reason: JoinReason,
    /// The join's `origin` field (ours, or the forwarded origin).
    pub origin: Addr,
    /// Core the current attempt targets.
    pub target_core: Addr,
    /// Full ordered core list carried in the join.
    pub cores: Vec<Addr>,
    /// Upstream hop the join went to: (iface, next-hop address).
    pub upstream: (IfIndex, Addr),
    /// Subcode of the join *we* sent upstream.
    pub sent_subcode: JoinSubcode,
    /// Joins cached while waiting (§2.5).
    pub cached: Vec<CachedJoin>,
    /// LAN interfaces whose membership triggered this join or appeared
    /// while it was in flight — whatever the reason for the join, they
    /// want G-DR status once the ack arrives (§2.6: a second trigger
    /// "takes no action", but the ack must still serve its subnet).
    pub lans: Vec<IfIndex>,
    /// When the whole endeavour started (EXPIRE-PENDING-JOIN budget).
    pub started: SimTime,
    /// When the current core attempt started (PEND-JOIN-TIMEOUT budget).
    pub attempt_started: SimTime,
    /// Next retransmission instant (PEND-JOIN-INTERVAL).
    pub next_retransmit: SimTime,
    /// Which entry of `cores` the current attempt targets.
    pub core_index: usize,
}

impl PendingJoin {
    /// The JOIN_REQUEST this pending join stands for — what went
    /// upstream when it was filed and what each retransmission repeats.
    pub fn request(&self, group: GroupId) -> ControlMessage {
        ControlMessage::JoinRequest {
            subcode: self.sent_subcode,
            group,
            origin: self.origin,
            target_core: self.target_core,
            cores: self.cores.clone(),
        }
    }
}

/// A quit in flight (§2.7/§6.3: retried a small number of times, then
/// parent state is dropped unilaterally).
#[derive(Debug, Clone, Copy)]
pub struct PendingQuit {
    /// The parent the quit went to.
    pub parent_addr: Addr,
    /// The interface that parent sits on.
    pub parent_iface: IfIndex,
    /// Retransmissions still allowed.
    pub retries_left: u32,
    /// Next retransmission instant (QUIT-INTERVAL).
    pub next_send: SimTime,
}

/// A §6.1 re-attachment campaign, bounded as a whole by
/// RECONNECT-TIMEOUT: once it runs out, the subtree is flushed.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// When the campaign began.
    pub since: SimTime,
    /// A re-attachment deferred after a broken loop, or while no core
    /// is reachable (§6.3 "it then attempts to re-join again" — after
    /// a short backoff so stale routing gets a chance to converge):
    /// (when, core index).
    pub backoff: Option<(SimTime, usize)>,
}

/// Everything in flight for one group. Each part owns one timer key —
/// `PendingJoin(g)`, `Reattach(g)` for the backoff, `Quit(g)` — armed
/// exactly while the part exists. The parts are independent because
/// their states are reachable together: a quit keeps retransmitting
/// beside a new join when a member leaves and another joins within
/// QUIT-INTERVAL.
#[derive(Debug, Default)]
pub struct Transient {
    /// The group's pending join, at most one (§2.5). Boxed: it is by
    /// far the largest part, and most records hold only the others.
    pub join: Option<Box<PendingJoin>>,
    /// The re-attachment campaign. Only a router with a FIB entry for
    /// the group runs one.
    pub campaign: Option<Campaign>,
    /// The unacknowledged quit.
    pub quit: Option<PendingQuit>,
}

impl Transient {
    fn is_empty(&self) -> bool {
        self.join.is_none() && self.campaign.is_none() && self.quit.is_none()
    }

    /// The campaign's scheduled re-attachment, if any.
    pub fn backoff(&self) -> Option<(SimTime, usize)> {
        self.campaign?.backoff
    }
}

impl CbtRouter {
    /// The one write path for a group's transient record: runs `f` on
    /// the record (an empty one if the group has none) and keeps the
    /// record only while one of its parts exists. Removing the last
    /// record frees the map, whose emptied leaf node would otherwise
    /// outlive it.
    pub(crate) fn edit<R>(&mut self, group: GroupId, f: impl FnOnce(&mut Transient) -> R) -> R {
        match self.transients.entry(group) {
            Entry::Occupied(mut e) => {
                let r = f(e.get_mut());
                if e.get().is_empty() {
                    e.remove();
                    if self.transients.is_empty() {
                        self.transients = BTreeMap::new();
                    }
                }
                r
            }
            // Clearing a part of an absent record, as every keepalive
            // reply does with the campaign, must not allocate a node.
            Entry::Vacant(e) => {
                let mut t = Transient::default();
                let r = f(&mut t);
                if !t.is_empty() {
                    e.insert(t);
                }
                r
            }
        }
    }

    /// The group's pending join, if any.
    pub(crate) fn pending_join(&self, group: GroupId) -> Option<&PendingJoin> {
        self.transients.get(&group)?.join.as_deref()
    }

    /// Schedules a re-attachment at `at` toward `cores[core_index]`,
    /// starting the campaign at `now` if none runs. An earlier backoff
    /// is kept; the timer is armed at the instant the record holds.
    pub(crate) fn defer_reattach(
        &mut self,
        now: SimTime,
        group: GroupId,
        at: SimTime,
        core_index: usize,
    ) {
        let (t, _) = self.edit(group, |t| {
            let c = t.campaign.get_or_insert(Campaign { since: now, backoff: None });
            *c.backoff.get_or_insert((at, core_index))
        });
        self.timers.arm(TimerKind::Reattach(group), t);
    }

    /// Ends the group's campaign, and its backoff with it.
    pub(crate) fn end_campaign(&mut self, group: GroupId) {
        if self.edit(group, |t| t.campaign.take()?.backoff).is_some() {
            self.timers.cancel(TimerKind::Reattach(group));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Input;
    use crate::CbtConfig;
    use cbt_netsim::SimDuration;
    use cbt_routing::Hop;
    use cbt_topology::RouterId;
    use cbt_wire::AckSubcode;

    /// The record against its timer keys, over a seeded random schedule
    /// on a p2p engine: local joins and leaves; JOIN_ACK, JOIN_NACK and
    /// QUIT_ACK from the upstream hop or from a stranger; the router's
    /// own NACTIVE rejoin; echo replies; a downstream join or quit; and
    /// time advancing to the next wakeup. After every step each part's
    /// key is armed exactly while the part exists, and a campaign runs
    /// only beside a FIB entry.
    #[test]
    fn record_parts_match_their_timer_keys() {
        let me = Addr::from_octets(10, 0, 0, 1);
        let (via, stranger, child) = (
            Addr::from_octets(10, 0, 0, 2),
            Addr::from_octets(10, 0, 0, 3),
            Addr::from_octets(10, 0, 0, 4),
        );
        let cores = vec![Addr::from_octets(10, 0, 9, 1), Addr::from_octets(10, 0, 9, 2)];
        let groups = [GroupId::numbered(1), GroupId::numbered(2)];
        let mut cfg = CbtConfig::fast();
        for g in groups {
            cfg = cfg.with_mapping(g, cores.clone());
        }
        let hop = Hop { iface: IfIndex(0), router: RouterId(1), addr: via, dist: 1 };
        let routes: BTreeMap<Addr, Hop> = cores.iter().map(|c| (*c, hop)).collect();
        let mut e = CbtRouter::p2p(me, 3, cfg, Box::new(routes), SimTime::ZERO);

        let mut x = 0x5851_f42d_4c95_7f2du64;
        let mut rnd = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut now = SimTime::ZERO;
        // Steps on which some record held a join, a campaign, a backoff,
        // a quit, and a quit beside a join.
        let mut seen = [0usize; 5];
        for step in 0..20_000 {
            now += SimDuration::from_millis(rnd(1_500));
            while let Some(w) = e.next_wakeup().filter(|w| *w <= now) {
                e.feed(w, Input::Timer);
            }
            let g = groups[rnd(2) as usize];
            let (iface, src) = if rnd(4) == 0 { (IfIndex(1), stranger) } else { (IfIndex(0), via) };
            let join = |subcode, origin| ControlMessage::JoinRequest {
                subcode,
                group: g,
                origin,
                target_core: cores[0],
                cores: cores.clone(),
            };
            let down = |msg| Input::Control { iface: IfIndex(2), src: child, msg };
            let input = match rnd(14) {
                0..=1 => Input::Join(g),
                2 => Input::Leave(g),
                3..=4 => Input::Control {
                    iface,
                    src,
                    msg: ControlMessage::JoinAck {
                        subcode: AckSubcode::Normal,
                        group: g,
                        origin: me,
                        target_core: cores[0],
                        cores: cores.clone(),
                    },
                },
                5 => Input::Control {
                    iface,
                    src,
                    msg: ControlMessage::JoinNack { group: g, origin: me, target_core: cores[0] },
                },
                6 => Input::Control {
                    iface,
                    src,
                    msg: ControlMessage::QuitAck { group: g, origin: src },
                },
                7 => down(join(JoinSubcode::RejoinNactive, me)),
                8..=9 => Input::Control {
                    iface,
                    src,
                    msg: ControlMessage::EchoReply { group: g, origin: src, group_mask: None },
                },
                10 => down(join(JoinSubcode::ActiveJoin, child)),
                11 => down(ControlMessage::QuitRequest { group: g, origin: child }),
                // The next wakeup (a no-op timer input if there is none).
                _ => {
                    now = e.next_wakeup().map_or(now, |w| now.max(w));
                    Input::Timer
                }
            };
            e.feed(now, input);
            for g in groups {
                let t = e.transients.get(&g);
                let join = t.is_some_and(|t| t.join.is_some());
                let campaign = t.is_some_and(|t| t.campaign.is_some());
                let backoff = t.and_then(Transient::backoff).is_some();
                let quit = t.is_some_and(|t| t.quit.is_some());
                assert_eq!(e.timers.is_armed(TimerKind::PendingJoin(g)), join, "step {step}: {g}");
                assert_eq!(e.timers.is_armed(TimerKind::Reattach(g)), backoff, "step {step}: {g}");
                assert_eq!(e.timers.is_armed(TimerKind::Quit(g)), quit, "step {step}: {g}");
                assert!(!campaign || e.fib.on_tree(g), "step {step}: {g} campaign off-tree");
                for (n, part) in
                    [join, campaign, backoff, quit, quit && join].into_iter().enumerate()
                {
                    seen[n] += usize::from(part);
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 50), "the schedule must reach every part: {seen:?}");
    }
}
