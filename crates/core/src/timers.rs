//! Deadline heap: the engine's O(due · log n) timer front-end.
//!
//! Every piece of CBT hard state has a clock (§9), and the deadline of
//! each clock lives in the record it guards: a parent's next echo and
//! last reply, a pending join's retransmit instant, a quit's next send.
//! Rather than walk the FIB and the per-group transient records on
//! every wakeup — O(N) in resident group state, exactly the cost CBT's
//! per-group state model is supposed to avoid — the engine files each
//! deadline in a [`TimerService`]: one lazy-deletion binary heap of
//! `(deadline, key)`, 16 B an entry for the engine's keys, and nothing
//! else.
//!
//! * the records decide: an entry is *live* iff the caller's predicate
//!   `live(key, deadline)` says its record still holds that deadline.
//!   Moving a record's deadline supersedes its older entries, and
//!   removing the record cancels them, with no write to the service;
//! * [`TimerService::arm`] pushes only when the caller's deadline
//!   actually moved — the steady state of a keepalive clock whose
//!   reply arrives before the next echo is due is no push at all — so
//!   an idle tree holds one entry per armed clock;
//! * a record moved back to a deadline it held before, while the older
//!   entry is still queued, has two equal entries, both live. They pop
//!   next to each other — `(deadline, key)` is a total order — and the
//!   second is discarded;
//! * [`TimerService::settle`] pops dead entries off the head, so
//!   [`TimerService::peek`] is the exact earliest deadline once the
//!   caller settles after its writes. Dead entries below the head stay
//!   until they surface, or until the heap outgrows twice the entries
//!   its last sweep kept plus `SWEEP_SLACK`, when `settle` sweeps the
//!   dead entries and the duplicates out;
//! * a settle that finds nothing live frees the heap, so an engine's
//!   timer memory follows its armed clocks.
//!
//! Ordering contract: pops come out sorted by `(deadline, key)`, so the
//! engine's service order is deterministic and independent of the
//! order keys were armed in.

use cbt_netsim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Entries tolerated beyond twice those the last sweep kept before
/// [`TimerService::settle`] sweeps again.
const SWEEP_SLACK: usize = 32;

/// Lazy-deletion deadline heap; which entries are live is the caller's
/// to say.
#[derive(Debug, Clone)]
pub struct TimerService<K: Ord + Copy> {
    /// Min-heap on `(deadline, key)`; may hold dead entries and
    /// duplicates of a live one.
    heap: BinaryHeap<Reverse<(SimTime, K)>>,
    /// Entries the last sweep kept (0 before the first): the sweep
    /// runs again once the heap outgrows twice that plus the slack, so
    /// its cost amortises over the pushes in between.
    swept: usize,
}

impl<K: Ord + Copy> Default for TimerService<K> {
    fn default() -> Self {
        TimerService { heap: BinaryHeap::new(), swept: 0 }
    }
}

impl<K: Ord + Copy> TimerService<K> {
    /// New, empty service. Does not allocate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files `key` at `deadline`, its record having held `was` before
    /// the write (`None`: no deadline). Pushes only when the deadline
    /// moved: an unmoved one is still queued. Past deadlines are fine:
    /// they pop on the next [`pop_due_into`](Self::pop_due_into).
    pub fn arm(&mut self, key: K, was: Option<SimTime>, deadline: SimTime) {
        if was != Some(deadline) {
            self.heap.push(Reverse((deadline, key)));
        }
    }

    /// Pops every entry due at `now` and hands each live one to `out`,
    /// paired with its deadline (callers measure wakeup lag as `now -
    /// deadline`), sorted by `(deadline, key)`. Dead entries and
    /// duplicates met on the way are dropped for good. The head may be
    /// dead afterwards: [`settle`](Self::settle) once the records have
    /// moved on.
    pub fn pop_due_into(
        &mut self,
        now: SimTime,
        live: impl Fn(K, SimTime) -> bool,
        out: &mut impl Extend<(K, SimTime)>,
    ) {
        let mut last = None;
        while let Some(&Reverse(entry)) = self.heap.peek() {
            if entry.0 > now {
                break;
            }
            self.heap.pop();
            if last != Some(entry) {
                last = Some(entry);
                let (deadline, key) = entry;
                if live(key, deadline) {
                    out.extend([(key, deadline)]);
                }
            }
        }
    }

    /// Restores the exact head after the records moved: sweeps the heap
    /// if it outgrew its bound, then pops dead entries off the head.
    /// A heap left with nothing live is freed.
    pub fn settle(&mut self, live: impl Fn(K, SimTime) -> bool) {
        // A record moved again and again to later deadlines never
        // surfaces its dead entries, and one moved back and forth
        // between two deadlines leaves live duplicates: the sweep keeps
        // one entry per live deadline, so the heap stays O(armed
        // clocks). Amortised O(log n) per push; pop order is
        // unaffected, `(deadline, key)` being a total order.
        if self.heap.len() > 2 * self.swept + SWEEP_SLACK {
            let mut kept = std::mem::take(&mut self.heap).into_vec();
            kept.retain(|&Reverse((deadline, key))| live(key, deadline));
            kept.sort_unstable();
            kept.dedup();
            self.swept = kept.len();
            self.heap = BinaryHeap::from(kept);
        }
        while let Some(&Reverse((deadline, key))) = self.heap.peek() {
            if live(key, deadline) {
                return;
            }
            self.heap.pop();
        }
        if self.heap.capacity() > 0 {
            *self = Self::default();
        }
    }

    /// The earliest deadline, O(1): the heap head, exact after a
    /// [`settle`](Self::settle).
    pub fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((deadline, _))| deadline)
    }

    /// The head entry, live or not.
    pub(crate) fn head(&self) -> Option<(K, SimTime)> {
        self.heap.peek().map(|&Reverse((deadline, key))| (key, deadline))
    }

    /// Does the heap hold an entry for `key` at `deadline`? A linear
    /// scan, for checks only.
    pub(crate) fn holds(&self, key: K, deadline: SimTime) -> bool {
        self.heap.iter().any(|&Reverse(entry)| entry == (deadline, key))
    }

    /// Heap bytes the service holds, by capacity.
    pub fn mem_bytes(&self) -> usize {
        self.heap.capacity() * size_of::<Reverse<(SimTime, K)>>()
    }

    /// Entries in the heap, dead ones included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when the heap holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A service with the records it files: `key → deadline`, the one
    /// source of liveness, written only through [`Clocks::set`] and
    /// [`Clocks::clear`], as the engine writes its records.
    #[derive(Default)]
    struct Clocks<K: Ord + Copy> {
        svc: TimerService<K>,
        records: BTreeMap<K, SimTime>,
    }

    impl<K: Ord + Copy> Clocks<K> {
        fn set(&mut self, key: K, deadline: SimTime) {
            let was = self.records.insert(key, deadline);
            self.svc.arm(key, was, deadline);
            self.settle();
        }

        fn clear(&mut self, key: K) {
            self.records.remove(&key);
            self.settle();
        }

        fn settle(&mut self) {
            let records = &self.records;
            self.svc.settle(|k, d| records.get(&k) == Some(&d));
        }

        /// Pops what is due, firing it: a fired clock's record goes.
        fn pop(&mut self, now: SimTime) -> Vec<(K, SimTime)> {
            let mut out = Vec::new();
            let records = &self.records;
            self.svc.pop_due_into(now, |k, d| records.get(&k) == Some(&d), &mut out);
            for (k, _) in &out {
                self.records.remove(k);
            }
            self.settle();
            out
        }

        fn keys(&mut self, now: SimTime) -> Vec<K> {
            self.pop(now).into_iter().map(|(k, _)| k).collect()
        }
    }

    #[test]
    fn a_moved_or_removed_record_never_fires_its_old_deadline() {
        let mut s = Clocks::default();
        s.set("echo", t(30));
        s.set("echo", t(60)); // moves — the t(30) entry is dead
        assert!(s.keys(t(30)).is_empty(), "a moved deadline must not fire");
        assert_eq!(s.keys(t(60)), vec!["echo"]);

        s.set("quit", t(90));
        s.clear("quit");
        assert!(s.keys(t(100)).is_empty(), "a removed record must not fire");
        assert!(s.svc.is_empty(), "dead entries are discarded as they surface");

        // Removed and re-made at the *same* deadline: the old entry is
        // live again beside the new one, and the key must not fire twice.
        // (An earlier clock holds the head, so the removal leaves the
        // old entry queued.)
        s.set("head", t(105));
        s.set("join", t(110));
        s.clear("join");
        s.set("join", t(110));
        assert_eq!(s.svc.len(), 3);
        assert_eq!(s.keys(t(110)), vec!["head", "join"]);
        assert!(s.svc.is_empty());
    }

    #[test]
    fn an_unmoved_deadline_adds_no_entry() {
        let mut s = Clocks::default();
        s.set(1u32, t(10));
        for _ in 0..1000 {
            s.set(1u32, t(10));
        }
        assert_eq!(s.svc.len(), 1);
        assert_eq!(s.keys(t(10)), vec![1]);
    }

    #[test]
    fn dead_entries_stay_bounded_by_the_live_ones() {
        // Nothing pops and the hot key's old deadlines never reach the
        // head (key 0 holds it): only the sweep keeps the heap small.
        let mut s = Clocks::default();
        for k in 0..8u32 {
            s.set(k, t(1));
        }
        for n in 0..10_000u64 {
            s.set(7u32, t(10 + n));
            assert!(s.svc.len() <= 2 * 8 + SWEEP_SLACK + 1, "heap grew to {}", s.svc.len());
        }
        assert_eq!(s.keys(t(1)), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(s.keys(t(20_000)), vec![7]);
        assert!(s.svc.is_empty());
    }

    #[test]
    fn alternating_deadlines_leave_no_duplicates_behind() {
        // The hot key swings between two deadlines, so most of its
        // moves push an entry equal to one still queued, and while the
        // record holds that deadline both are live. The heap only
        // shrinks in a sweep, and a sweep must leave exactly one entry
        // per live deadline — the retain alone would keep every
        // duplicate of the hot key's current deadline.
        let mut s = Clocks::default();
        for k in 0..8u32 {
            s.set(k, t(1));
        }
        let mut sweeps = 0;
        for n in 0..10_000u64 {
            let before = s.svc.len();
            s.set(7u32, t(10 + n % 2));
            assert!(s.svc.len() <= 2 * 8 + SWEEP_SLACK + 1, "heap grew to {}", s.svc.len());
            if s.svc.len() < before {
                assert_eq!(s.svc.len(), 8, "move {n}: the sweep kept duplicates");
                sweeps += 1;
            }
        }
        assert!(sweeps > 100, "the sweep ran ({sweeps})");
        assert_eq!(s.keys(t(1)), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(s.pop(t(100)), vec![(7, t(11))], "fires once, at its last deadline");
        assert!(s.svc.is_empty());
    }

    #[test]
    fn peek_is_exact_after_every_settle() {
        let mut s = Clocks::default();
        s.set(1u32, t(10));
        s.set(2u32, t(30));
        s.set(1u32, t(50)); // moves the head's record
        assert_eq!(s.svc.peek(), Some(t(30)), "the dead head left with the settle");
        assert_eq!(s.svc.len(), 2);
        s.clear(2u32); // removes the head's record
        assert_eq!(s.svc.peek(), Some(t(50)));
        s.set(3u32, t(40));
        s.set(3u32, t(60)); // key 3's dead t(40) entry is not the head
        assert_eq!(s.svc.peek(), Some(t(50)));
        assert!(s.keys(t(45)).is_empty(), "t(40) was moved");
        assert_eq!(s.svc.peek(), Some(t(50)));
        assert_eq!(s.keys(t(50)), vec![1]);
        assert_eq!(s.svc.peek(), Some(t(60)), "the pop settled the head past key 1");
        s.clear(3u32);
        assert_eq!(s.svc.peek(), None);
        assert!(s.svc.is_empty(), "no live record, no entry");
    }

    #[test]
    fn pops_are_sorted_by_deadline_then_key() {
        let mut s = Clocks::default();
        s.set(3u8, t(5));
        s.set(1u8, t(5));
        s.set(2u8, t(4));
        // Woken late: everything fires, each tagged with its deadline.
        assert_eq!(s.pop(t(30)), vec![(2, t(4)), (1, t(5)), (3, t(5))]);
        // Repeat pops at the same instant are harmless no-ops.
        assert!(s.keys(t(30)).is_empty());
    }

    #[test]
    fn equal_deadlines_pop_in_key_order_after_a_sweep_whatever_the_arm_order() {
        // Keys armed in an order that is not ascending, all at one
        // deadline; a hot key is then moved until the settle sweeps the
        // heap through the predicate, which rebuilds it.
        let mut s = Clocks::default();
        let keys: Vec<u64> = (0..64u64).map(|i| (i * 37 + 11) % 64).collect();
        for &k in &keys {
            s.set(k, t(100));
        }
        let before = s.svc.len();
        for n in 0..200u64 {
            s.set(keys[5], t(200 + n));
        }
        assert!(s.svc.len() < before + 200, "the sweep ran");
        s.set(keys[5], t(100)); // back among its peers, armed last
        let want: Vec<u64> = (0..64).collect();
        assert_eq!(s.keys(t(100)), want);
        // The pop settled the hot key's dead later deadlines.
        assert!(s.svc.is_empty());
    }

    #[test]
    fn an_engine_timer_costs_sixteen_bytes() {
        // A heap entry holds a deadline and a key, nothing more, and
        // the service is the heap plus one count.
        use crate::engine::TimerKind;
        assert_eq!(size_of::<Reverse<(SimTime, TimerKind)>>(), 16, "heap entry");
        assert!(size_of::<TimerService<TimerKind>>() <= 32);
    }

    #[test]
    fn idle_service_owns_no_heap_memory() {
        // Idle contract: a fleet of mostly idle engines pays
        // nothing per router for timers it never armed...
        let mut s: Clocks<u8> = Clocks::default();
        assert!(s.keys(t(1_000_000)).is_empty());
        assert_eq!(s.svc.peek(), None);
        assert_eq!(s.svc.mem_bytes(), 0);
        // ...nor for timers it armed once: removing the last record
        // empties the heap and frees it at the settle.
        s.set(1, t(10));
        s.set(2, t(20));
        assert!(s.svc.mem_bytes() > 0);
        s.clear(1);
        s.clear(2);
        assert_eq!((s.svc.len(), s.svc.peek(), s.svc.mem_bytes()), (0, None, 0));
        // A service with a live entry keeps its heap.
        s.set(3, t(30));
        assert_eq!(s.svc.peek(), Some(t(30)));
        // Firing every clock frees it again.
        for i in 0..10_000u64 {
            let mut c = Clocks::default();
            c.set(i, t(i + 1));
            assert_eq!(c.keys(t(i + 1)), vec![i]);
            assert_eq!(c.svc.mem_bytes(), 0, "fired clocks must not linger");
        }
    }

    /// The service against a naive model — the records scanned in full
    /// on every pop — over a random schedule of record writes (moves,
    /// unmoved rewrites, removals) and pops.
    #[test]
    fn random_schedule_matches_a_naive_model() {
        const KEYS: u64 = 96;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut s: Clocks<u64> = Clocks::default();
        let mut now = 0u64;
        let mut fired = 0usize;
        for step in 0..20_000 {
            let key = rnd(KEYS);
            match rnd(10) {
                0..=4 => {
                    // Coarse deadlines so ties and unmoved rewrites are
                    // common; some already in the past.
                    let d = SimTime::from_micros((now + rnd(40) * 500).saturating_sub(2_000));
                    s.set(key, d);
                }
                5..=6 => s.clear(key),
                _ => {
                    now += rnd(3_000);
                    let at = SimTime::from_micros(now);
                    let mut want: Vec<(SimTime, u64)> =
                        s.records.iter().filter(|(_, &d)| d <= at).map(|(&k, &d)| (d, k)).collect();
                    want.sort_unstable();
                    let want: Vec<(u64, SimTime)> = want.into_iter().map(|(d, k)| (k, d)).collect();
                    let got = s.pop(at);
                    assert_eq!(got, want, "step {step}: pop order diverges from the model");
                    fired += got.len();
                }
            }
            assert_eq!(s.svc.peek(), s.records.values().min().copied(), "step {step}: peek");
            assert_eq!(s.svc.is_empty(), s.records.is_empty(), "step {step}: empty heap");
            assert!(s.svc.len() <= 2 * KEYS as usize + SWEEP_SLACK + 1, "step {step}: bound");
        }
        assert!(fired > 1_000, "the schedule must actually fire timers ({fired})");
        // Drain: remove the odd keys, fire the rest.
        for k in (1..KEYS).step_by(2) {
            s.clear(k);
        }
        s.pop(SimTime::from_micros(u64::MAX));
        assert_eq!(s.svc.len(), 0);
        assert!(s.records.is_empty());
    }
}
