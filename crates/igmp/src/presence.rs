//! Router-side group presence per LAN: the table behind "directly
//! connected subnets with group member presence" that the CBT engine
//! consults for joining (§2.5), forwarding (§5) and quitting (§2.7,
//! IFF-SCAN).

use crate::{IgmpOut, IgmpTimers};
use cbt_netsim::{SimDuration, SimTime};
use cbt_wire::{Addr, GroupId, IgmpMessage, RpCoreReport};
use std::collections::{BTreeMap, BTreeSet};

/// Something the presence table wants the CBT engine to know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PresenceEvent {
    /// First report for a group not previously heard from on this LAN —
    /// the trigger for the DR's JOIN_REQUEST (§2.5), together with the
    /// core list most recently learned from an RP/Core-Report.
    NewGroup {
        /// The group.
        group: GroupId,
        /// Ordered core list (primary first) if an RP/Core-Report
        /// supplied one; empty if only plain reports were heard (§2.4
        /// v1/v2 hosts — the engine falls back to managed mappings).
        cores: Vec<Addr>,
        /// Index of the core a join should target first.
        target_core_index: usize,
    },
    /// Membership for the group has lapsed on this LAN (leave confirmed
    /// by an unanswered group-specific query, or reports expired).
    GroupExpired {
        /// The group.
        group: GroupId,
    },
}

#[derive(Debug, Clone)]
struct GroupState {
    expires: SimTime,
    /// Outstanding leave-triggered group-specific query deadline.
    leave_deadline: Option<SimTime>,
    /// Latest core list from an RP/Core-Report.
    cores: Vec<Addr>,
    target_core_index: usize,
}

/// A group's next service instant: the leave-query window if one is
/// open (it is always at or before the membership expiry), else the
/// membership expiry itself.
fn deadline_of(s: &GroupState) -> SimTime {
    s.leave_deadline.map_or(s.expires, |d| d.min(s.expires))
}

/// Membership presence for one LAN interface of one router.
#[derive(Debug, Clone)]
pub struct GroupPresence {
    timers: IgmpTimers,
    groups: BTreeMap<GroupId, GroupState>,
    /// Core lists learned from RP/Core-Reports *before* the matching
    /// membership report arrived (the spec allows either order).
    pending_cores: BTreeMap<GroupId, (Vec<Addr>, usize)>,
    /// `(deadline, group)` — exactly one tuple per tracked group, kept
    /// in lock-step with every deadline mutation, so `poll` pops due
    /// groups and `next_wakeup` peeks the head instead of scanning.
    deadlines: BTreeSet<(SimTime, GroupId)>,
}

impl GroupPresence {
    /// Empty table.
    pub fn new(timers: IgmpTimers) -> Self {
        GroupPresence {
            timers,
            groups: BTreeMap::new(),
            pending_cores: BTreeMap::new(),
            deadlines: BTreeSet::new(),
        }
    }

    /// Heap bytes the table holds (see [`crate::btree_bytes`]).
    pub fn mem_bytes(&self) -> usize {
        let lists: usize = self.groups.values().map(|s| s.cores.capacity()).sum::<usize>()
            + self.pending_cores.values().map(|(c, _)| c.capacity()).sum::<usize>();
        crate::btree_bytes::<GroupId, GroupState>(self.groups.len())
            + crate::btree_bytes::<GroupId, (Vec<Addr>, usize)>(self.pending_cores.len())
            + crate::btree_bytes::<(SimTime, GroupId), ()>(self.deadlines.len())
            + lists * size_of::<Addr>()
    }

    /// Does this LAN currently have members of `group`?
    pub fn has_members(&self, group: GroupId) -> bool {
        self.groups.contains_key(&group)
    }

    /// All groups with current presence.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.groups.keys().copied()
    }

    /// Latest core list known for a group (from RP/Core-Reports).
    pub fn cores_for(&self, group: GroupId) -> Option<(&[Addr], usize)> {
        self.groups.get(&group).and_then(|s| {
            (!s.cores.is_empty()).then_some((s.cores.as_slice(), s.target_core_index))
        })
    }

    /// Feeds one received IGMP message. Returns protocol events and any
    /// messages to send (the leave-triggered group-specific query, sent
    /// only if `i_am_querier`).
    pub fn on_igmp(
        &mut self,
        msg: &IgmpMessage,
        now: SimTime,
        i_am_querier: bool,
    ) -> (Vec<PresenceEvent>, Vec<IgmpOut>) {
        let mut events = Vec::new();
        let mut sends = Vec::new();
        match msg {
            IgmpMessage::Report { group, .. } => {
                let expires = now + SimDuration::from_secs(self.timers.membership_timeout_s);
                match self.groups.get_mut(group) {
                    Some(state) => {
                        let old = deadline_of(state);
                        state.expires = expires;
                        // A report during a leave-query window cancels
                        // the pending expiry: members remain.
                        state.leave_deadline = None;
                        self.deadlines.remove(&(old, *group));
                        self.deadlines.insert((expires, *group));
                    }
                    None => {
                        let (cores, idx) =
                            self.pending_cores.remove(group).unwrap_or((Vec::new(), 0));
                        self.groups.insert(
                            *group,
                            GroupState {
                                expires,
                                leave_deadline: None,
                                cores: cores.clone(),
                                target_core_index: idx,
                            },
                        );
                        self.deadlines.insert((expires, *group));
                        events.push(PresenceEvent::NewGroup {
                            group: *group,
                            cores,
                            target_core_index: idx,
                        });
                    }
                }
            }
            IgmpMessage::RpCore(RpCoreReport { group, cores, target_core_index, .. }) => {
                match self.groups.get_mut(group) {
                    Some(state) => {
                        state.cores = cores.clone();
                        state.target_core_index = *target_core_index as usize;
                    }
                    None => {
                        self.pending_cores
                            .insert(*group, (cores.clone(), *target_core_index as usize));
                    }
                }
            }
            IgmpMessage::Leave { group } => {
                // §2.7: the querier responds with a group-specific query;
                // if no host answers within the response interval the
                // group is gone from this subnet. Every router on the
                // LAN arms the response window (leaves are multicast to
                // all-routers), but only the querier asks the question —
                // that is how the G-DR (which may not be the querier,
                // §2.6) learns to quit promptly.
                if let Some(state) = self.groups.get_mut(group) {
                    let old = deadline_of(state);
                    state.leave_deadline =
                        Some(now + SimDuration::from_secs(self.timers.last_member_query_s));
                    let new = deadline_of(state);
                    self.deadlines.remove(&(old, *group));
                    self.deadlines.insert((new, *group));
                    if i_am_querier {
                        sends.push(IgmpOut {
                            dst: group.addr(),
                            msg: IgmpMessage::Query {
                                group: Some(*group),
                                max_resp_tenths: (self.timers.last_member_query_s * 10).min(255)
                                    as u8,
                            },
                        });
                    }
                }
            }
            _ => {}
        }
        (events, sends)
    }

    /// Advances time: expires lapsed memberships and resolves
    /// unanswered leave queries. O(due groups), not O(tracked groups):
    /// pops the head of the deadline index. Events come out in group
    /// order (the order the old full-scan produced).
    pub fn poll(&mut self, now: SimTime) -> Vec<PresenceEvent> {
        let mut due: Vec<GroupId> = Vec::new();
        while let Some(&(t, g)) = self.deadlines.first() {
            if t > now {
                break;
            }
            self.deadlines.remove(&(t, g));
            due.push(g);
        }
        due.sort_unstable();
        let mut events = Vec::new();
        for g in due {
            self.groups.remove(&g);
            events.push(PresenceEvent::GroupExpired { group: g });
        }
        events
    }

    /// Earliest instant `poll` would do something: the index head.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.deadlines.first().map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: u16) -> GroupId {
        GroupId::numbered(n)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn report(n: u16) -> IgmpMessage {
        IgmpMessage::Report { version: 3, group: g(n) }
    }

    fn cores() -> Vec<Addr> {
        vec![Addr::from_octets(10, 255, 0, 3), Addr::from_octets(10, 255, 0, 8)]
    }

    fn rp_core(n: u16) -> IgmpMessage {
        IgmpMessage::RpCore(RpCoreReport {
            group: g(n),
            code: cbt_wire::igmp::RP_CORE_CODE_CBT,
            target_core_index: 1,
            cores: cores(),
        })
    }

    #[test]
    fn first_report_yields_new_group_event() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        let (ev, sends) = p.on_igmp(&report(1), t(0), true);
        assert_eq!(
            ev,
            vec![PresenceEvent::NewGroup { group: g(1), cores: vec![], target_core_index: 0 }]
        );
        assert!(sends.is_empty());
        assert!(p.has_members(g(1)));
        // A second report refreshes without a new event.
        let (ev, _) = p.on_igmp(&report(1), t(5), true);
        assert!(ev.is_empty());
    }

    #[test]
    fn rp_core_before_report_supplies_core_list() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        let (ev, _) = p.on_igmp(&rp_core(1), t(0), true);
        assert!(ev.is_empty(), "core report alone is not membership");
        let (ev, _) = p.on_igmp(&report(1), t(0), true);
        assert_eq!(
            ev,
            vec![PresenceEvent::NewGroup { group: g(1), cores: cores(), target_core_index: 1 }]
        );
        assert_eq!(p.cores_for(g(1)), Some((cores().as_slice(), 1)));
    }

    #[test]
    fn rp_core_after_report_updates_core_list() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        p.on_igmp(&report(1), t(0), true);
        assert_eq!(p.cores_for(g(1)), None);
        p.on_igmp(&rp_core(1), t(1), true);
        assert_eq!(p.cores_for(g(1)), Some((cores().as_slice(), 1)));
    }

    #[test]
    fn leave_triggers_group_specific_query_from_querier_only() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        p.on_igmp(&report(1), t(0), true);
        let (_, sends) = p.on_igmp(&IgmpMessage::Leave { group: g(1) }, t(10), false);
        assert!(sends.is_empty(), "non-querier stays silent");
        let (_, sends) = p.on_igmp(&IgmpMessage::Leave { group: g(1) }, t(10), true);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].dst, g(1).addr(), "group-specific query goes to the group");
        assert!(matches!(sends[0].msg, IgmpMessage::Query { group: Some(grp), .. } if grp == g(1)));
    }

    #[test]
    fn unanswered_leave_query_expires_group() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        p.on_igmp(&report(1), t(0), true);
        p.on_igmp(&IgmpMessage::Leave { group: g(1) }, t(10), true);
        assert!(p.poll(t(10)).is_empty(), "response interval still open");
        let ev = p.poll(t(11));
        assert_eq!(ev, vec![PresenceEvent::GroupExpired { group: g(1) }]);
        assert!(!p.has_members(g(1)));
    }

    #[test]
    fn answered_leave_query_keeps_group() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        p.on_igmp(&report(1), t(0), true);
        p.on_igmp(&IgmpMessage::Leave { group: g(1) }, t(10), true);
        // Another member answers the group-specific query in time.
        p.on_igmp(&report(1), t(10), true);
        assert!(p.poll(t(12)).is_empty());
        assert!(p.has_members(g(1)));
    }

    #[test]
    fn silence_expires_membership() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        p.on_igmp(&report(1), t(0), true);
        assert!(p.poll(t(259)).is_empty());
        let ev = p.poll(t(260));
        assert_eq!(ev, vec![PresenceEvent::GroupExpired { group: g(1) }]);
    }

    #[test]
    fn next_wakeup_tracks_earliest_deadline() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        assert_eq!(p.next_wakeup(), None);
        p.on_igmp(&report(1), t(0), true);
        assert_eq!(p.next_wakeup(), Some(t(260)));
        p.on_igmp(&report(2), t(5), true);
        p.on_igmp(&IgmpMessage::Leave { group: g(2) }, t(6), true);
        assert_eq!(p.next_wakeup(), Some(t(7)), "leave query deadline is earliest");
    }

    #[test]
    fn deadline_index_survives_refresh_and_cancelled_leave() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        p.on_igmp(&report(1), t(0), true);
        assert_eq!(p.next_wakeup(), Some(t(260)));
        // A refresh re-files the single deadline tuple, not a second one.
        p.on_igmp(&report(1), t(50), true);
        assert_eq!(p.next_wakeup(), Some(t(310)));
        assert!(p.poll(t(260)).is_empty(), "stale pre-refresh deadline must be gone");
        // A leave opens the query window; an answering report closes it
        // and restores the plain membership expiry.
        p.on_igmp(&IgmpMessage::Leave { group: g(1) }, t(261), true);
        assert_eq!(p.next_wakeup(), Some(t(262)));
        p.on_igmp(&report(1), t(261), true);
        assert_eq!(p.next_wakeup(), Some(t(521)));
        assert!(p.poll(t(262)).is_empty(), "answered leave window must not fire");
        assert_eq!(p.poll(t(521)), vec![PresenceEvent::GroupExpired { group: g(1) }]);
        assert_eq!(p.next_wakeup(), None, "index drains with the table");
    }

    #[test]
    fn leave_for_unknown_group_is_ignored() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        let (ev, sends) = p.on_igmp(&IgmpMessage::Leave { group: g(9) }, t(0), true);
        assert!(ev.is_empty());
        assert!(sends.is_empty());
    }

    #[test]
    fn multiple_groups_tracked_independently() {
        let mut p = GroupPresence::new(IgmpTimers::default());
        p.on_igmp(&report(1), t(0), true);
        p.on_igmp(&report(2), t(100), true);
        let ev = p.poll(t(260));
        assert_eq!(ev, vec![PresenceEvent::GroupExpired { group: g(1) }]);
        assert!(p.has_members(g(2)));
        assert_eq!(p.groups().collect::<Vec<_>>(), vec![g(2)]);
    }
}
