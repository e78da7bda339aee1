//! Transient pending-join state (§2.5).
//!
//! "For the period between any CBT-capable router forwarding (or
//! originating) a JOIN_REQUEST and receiving a JOIN_ACK the router is
//! not permitted to acknowledge any subsequent joins received for the
//! same group; rather, the router caches such joins till such time as
//! it has itself received a JOIN_ACK for the original join."

use cbt_netsim::SimTime;
use cbt_topology::IfIndex;
use cbt_wire::{Addr, ControlMessage, GroupId, JoinSubcode};
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

    /// Earliest instant this pending join needs timer service.
    pub fn next_deadline(&self) -> SimTime {
        self.next_retransmit
    }
}

/// All pending joins, keyed by group (at most one per group, §2.5).
#[derive(Debug, Clone, Default)]
pub struct PendingJoins {
    joins: BTreeMap<GroupId, PendingJoin>,
}

impl PendingJoins {
    /// Empty set.
    pub fn new() -> Self {
        PendingJoins::default()
    }

    /// Is a join pending for `group`?
    pub fn contains(&self, group: GroupId) -> bool {
        self.joins.contains_key(&group)
    }

    /// Inserts a pending join; panics if one already exists for the
    /// group (callers must check first — a second trigger must cache or
    /// coalesce, never double-send).
    pub fn insert(&mut self, group: GroupId, join: PendingJoin) {
        let prev = self.joins.insert(group, join);
        assert!(prev.is_none(), "second pending join for {group}");
    }

    /// Read access.
    pub fn get(&self, group: GroupId) -> Option<&PendingJoin> {
        self.joins.get(&group)
    }

    /// Write access.
    pub fn get_mut(&mut self, group: GroupId) -> Option<&mut PendingJoin> {
        self.joins.get_mut(&group)
    }

    /// Removes and returns the pending join for `group`.
    pub fn remove(&mut self, group: GroupId) -> Option<PendingJoin> {
        self.joins.remove(&group)
    }

    /// Iterates (group, pending).
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &PendingJoin)> {
        self.joins.iter().map(|(g, p)| (*g, p))
    }

    /// Number of pending joins.
    pub fn len(&self) -> usize {
        self.joins.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: u16) -> GroupId {
        GroupId::numbered(n)
    }

    fn pj(t0: u64) -> PendingJoin {
        PendingJoin {
            reason: JoinReason::LocalMembership,
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: Addr::from_octets(10, 255, 0, 3),
            cores: vec![Addr::from_octets(10, 255, 0, 3)],
            upstream: (IfIndex(1), Addr::from_octets(172, 31, 0, 2)),
            sent_subcode: JoinSubcode::ActiveJoin,
            cached: Vec::new(),
            lans: vec![IfIndex(0)],
            started: SimTime::from_secs(t0),
            attempt_started: SimTime::from_secs(t0),
            next_retransmit: SimTime::from_secs(t0 + 10),
            core_index: 0,
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut p = PendingJoins::new();
        assert!(p.is_empty());
        p.insert(g(1), pj(0));
        assert!(p.contains(g(1)));
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(g(1)).unwrap().core_index, 0);
        p.get_mut(g(1)).unwrap().core_index = 1;
        assert_eq!(p.remove(g(1)).unwrap().core_index, 1);
        assert!(p.remove(g(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "second pending join")]
    fn double_insert_panics() {
        let mut p = PendingJoins::new();
        p.insert(g(1), pj(0));
        p.insert(g(1), pj(5));
    }

    #[test]
    fn cached_joins_accumulate() {
        let mut p = PendingJoins::new();
        p.insert(g(1), pj(0));
        p.get_mut(g(1)).unwrap().cached.push(CachedJoin {
            from_iface: IfIndex(2),
            from_addr: Addr::from_octets(172, 31, 0, 6),
            origin: Addr::from_octets(10, 2, 0, 1),
            subcode: JoinSubcode::ActiveJoin,
        });
        assert_eq!(p.get(g(1)).unwrap().cached.len(), 1);
    }
}
