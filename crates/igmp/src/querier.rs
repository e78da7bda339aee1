//! Per-LAN querier election — which in CBT *is* the D-DR election.
//!
//! §2.3: at start-up a CBT router assumes it is alone, fires two or
//! three general queries in short succession, and thereafter the
//! lowest-addressed router on the LAN holds querier duty. The CBT
//! default DR (D-DR) is the querier — unless the querier is not
//! CBT-capable, in which case the D-DR is the lowest-addressed
//! CBT-capable router on the link.

use crate::{IgmpOut, IgmpTimers};
use cbt_netsim::{SimDuration, SimTime};
use cbt_wire::{Addr, IgmpMessage, ALL_SYSTEMS};
use std::collections::BTreeMap;

/// Querier election state for one LAN interface.
#[derive(Debug, Clone)]
pub struct QuerierElection {
    my_addr: Addr,
    timers: IgmpTimers,
    /// Lower-addressed querier we currently defer to, with last-heard time.
    deferring_to: Option<(Addr, SimTime)>,
    /// Start-up burst queries still owed.
    startup_left: u32,
    /// When we next send a general query (if we are querier).
    next_query: SimTime,
    /// LAN routers' CBT capability (address → CBT-capable), for the
    /// §2.3 rule that a non-CBT querier hands the D-DR role to the
    /// lowest CBT router. Only the unit tests fill it: no engine calls
    /// [`QuerierElection::set_neighbour_cbt`], since every router of
    /// every world here speaks CBT, so a remembered querier counts as
    /// CBT-capable.
    neighbours: BTreeMap<Addr, bool>,
}

impl QuerierElection {
    /// New election state for a router whose address on this LAN is
    /// `my_addr`, starting (booting) at `now`.
    pub fn new(my_addr: Addr, timers: IgmpTimers, now: SimTime) -> Self {
        QuerierElection {
            my_addr,
            timers,
            deferring_to: None,
            startup_left: timers.startup_query_count,
            next_query: now, // first start-up query immediately
            neighbours: BTreeMap::new(),
        }
    }

    /// Heap bytes the election holds: its neighbour table (see
    /// [`crate::btree_bytes`]).
    pub fn mem_bytes(&self) -> usize {
        crate::btree_bytes::<Addr, bool>(self.neighbours.len())
    }

    /// My address on this LAN.
    pub fn my_addr(&self) -> Addr {
        self.my_addr
    }

    /// Am I currently the querier?
    pub fn is_querier(&self, now: SimTime) -> bool {
        match self.deferring_to {
            Some((_, heard)) => {
                now.since(heard) >= SimDuration::from_secs(self.timers.other_querier_timeout_s)
            }
            None => true,
        }
    }

    /// The current querier's address (mine if I hold the role).
    pub fn querier_addr(&self, now: SimTime) -> Addr {
        if self.is_querier(now) {
            self.my_addr
        } else {
            self.deferring_to.expect("not querier implies deferring").0
        }
    }

    /// Records that a general query was heard from `from`.
    ///
    /// Lowest address wins: we yield iff `from` is lower than us, and
    /// forget a recorded rival if someone even lower appears.
    pub fn on_query_heard(&mut self, from: Addr, now: SimTime) {
        if from >= self.my_addr {
            return; // they will yield when they hear us
        }
        match self.deferring_to {
            Some((cur, _)) if from <= cur => self.deferring_to = Some((from, now)),
            Some(_) => {} // higher than current rival but lower than us: current wins
            None => self.deferring_to = Some((from, now)),
        }
    }

    /// Marks a LAN neighbour's CBT capability. No engine calls it: no
    /// world models a non-CBT router.
    pub fn set_neighbour_cbt(&mut self, addr: Addr, cbt_capable: bool) {
        self.neighbours.insert(addr, cbt_capable);
    }

    /// The CBT D-DR on this LAN, per §2.3:
    ///
    /// * if the querier is CBT-capable (we always are; a remembered
    ///   rival is looked up in the neighbour table), the querier is the
    ///   D-DR;
    /// * otherwise the lowest-addressed CBT-capable router (ourselves
    ///   included) is the D-DR.
    pub fn dr_addr(&self, now: SimTime) -> Addr {
        let querier = self.querier_addr(now);
        if querier == self.my_addr || self.neighbours.get(&querier).copied().unwrap_or(true) {
            return querier;
        }
        // Querier not CBT-capable: lowest CBT-capable address wins.
        self.neighbours
            .iter()
            .filter(|(_, &cbt)| cbt)
            .map(|(&a, _)| a)
            .chain(std::iter::once(self.my_addr))
            .min()
            .expect("iterator includes self")
    }

    /// Am I the D-DR for this LAN?
    pub fn i_am_dr(&self, now: SimTime) -> bool {
        self.dr_addr(now) == self.my_addr
    }

    /// Advances time: emits any due general queries (start-up burst,
    /// then periodic while querier).
    pub fn poll(&mut self, now: SimTime) -> Vec<IgmpOut> {
        let mut out = Vec::new();
        if now < self.next_query {
            return out;
        }
        if self.startup_left > 0 {
            self.startup_left -= 1;
            out.push(self.general_query());
            self.next_query = now
                + if self.startup_left > 0 {
                    SimDuration::from_secs(self.timers.startup_query_interval_s)
                } else {
                    SimDuration::from_secs(self.timers.query_interval_s)
                };
        } else if self.is_querier(now) {
            out.push(self.general_query());
            self.next_query = now + SimDuration::from_secs(self.timers.query_interval_s);
        } else {
            // Re-check once the rival's claim would have expired.
            let (_, heard) = self.deferring_to.expect("not querier implies deferring");
            self.next_query = heard + SimDuration::from_secs(self.timers.other_querier_timeout_s);
        }
        out
    }

    /// When `poll` next wants to run.
    pub fn next_wakeup(&self) -> SimTime {
        self.next_query
    }

    fn general_query(&self) -> IgmpOut {
        IgmpOut {
            dst: ALL_SYSTEMS,
            msg: IgmpMessage::Query {
                group: None,
                max_resp_tenths: (self.timers.query_response_s * 10).min(255) as u8,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Addr {
        Addr::from_octets(10, 1, 0, n)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn elect(n: u8) -> QuerierElection {
        QuerierElection::new(addr(n), IgmpTimers::default(), SimTime::ZERO)
    }

    #[test]
    fn startup_burst_then_periodic() {
        let mut q = elect(5);
        let burst1 = q.poll(SimTime::ZERO);
        assert_eq!(burst1.len(), 1);
        assert_eq!(burst1[0].dst, ALL_SYSTEMS);
        assert!(matches!(burst1[0].msg, IgmpMessage::Query { group: None, .. }));
        // Second start-up query one second later.
        assert_eq!(q.next_wakeup(), t(1));
        assert!(q.poll(t(0)).is_empty(), "not due yet at same instant after send");
        assert_eq!(q.poll(t(1)).len(), 1);
        // Then the periodic cadence.
        assert_eq!(q.next_wakeup(), t(1 + 125));
        assert_eq!(q.poll(t(126)).len(), 1);
    }

    #[test]
    fn alone_i_am_querier_and_dr() {
        let q = elect(5);
        assert!(q.is_querier(t(0)));
        assert!(q.i_am_dr(t(0)));
        assert_eq!(q.querier_addr(t(0)), addr(5));
    }

    #[test]
    fn lower_address_takes_querier_duty() {
        let mut q = elect(5);
        q.on_query_heard(addr(3), t(2));
        assert!(!q.is_querier(t(2)));
        assert_eq!(q.querier_addr(t(2)), addr(3));
        assert!(!q.i_am_dr(t(2)), "querier (CBT-capable by default) is the D-DR");
    }

    #[test]
    fn higher_address_is_ignored() {
        let mut q = elect(5);
        q.on_query_heard(addr(9), t(2));
        assert!(q.is_querier(t(2)), "we are lower; rival will yield");
        assert!(q.poll(t(0)).len() == 1, "we keep querying");
    }

    #[test]
    fn even_lower_rival_replaces_current() {
        let mut q = elect(9);
        q.on_query_heard(addr(5), t(1));
        q.on_query_heard(addr(3), t(2));
        assert_eq!(q.querier_addr(t(2)), addr(3));
        q.on_query_heard(addr(5), t(3)); // higher than current rival: ignored
        assert_eq!(q.querier_addr(t(3)), addr(3));
    }

    #[test]
    fn querier_role_reclaimed_after_rival_silence() {
        let mut q = elect(5);
        q.on_query_heard(addr(3), t(10));
        assert!(!q.is_querier(t(100)));
        // 255 s after last hearing the rival, the role comes back.
        assert!(q.is_querier(t(10 + 255)));
        assert!(q.i_am_dr(t(10 + 255)));
    }

    #[test]
    fn refreshed_rival_keeps_role() {
        let mut q = elect(5);
        q.on_query_heard(addr(3), t(10));
        q.on_query_heard(addr(3), t(130));
        assert!(!q.is_querier(t(264)), "refresh extended the rival's claim");
        assert!(q.is_querier(t(130 + 255)));
    }

    /// §2.3: non-CBT querier ⇒ D-DR is the lowest-addressed CBT router.
    #[test]
    fn non_cbt_querier_shifts_dr_to_lowest_cbt_router() {
        let mut q = elect(5);
        q.set_neighbour_cbt(addr(2), false); // the querier-to-be is not CBT
        q.set_neighbour_cbt(addr(4), true);
        q.on_query_heard(addr(2), t(1));
        assert_eq!(q.querier_addr(t(1)), addr(2), "IGMP role still theirs");
        assert_eq!(q.dr_addr(t(1)), addr(4), "CBT D-DR is lowest CBT router");
        assert!(!q.i_am_dr(t(1)));
        // If address 4 were not CBT-capable, we (5) would be D-DR.
        q.set_neighbour_cbt(addr(4), false);
        assert_eq!(q.dr_addr(t(1)), addr(5));
        assert!(q.i_am_dr(t(1)));
    }

    #[test]
    fn yielding_stops_periodic_queries() {
        let mut q = elect(5);
        q.poll(t(0));
        q.poll(t(1)); // burst done
        q.on_query_heard(addr(3), t(2));
        assert!(q.poll(t(126)).is_empty(), "deferring: no query");
        // But once the rival goes silent long enough, queries resume.
        let wake = q.next_wakeup();
        assert_eq!(wake, t(2 + 255));
        assert_eq!(q.poll(wake).len(), 1);
    }
}
