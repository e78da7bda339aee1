//! Keyed deadline service: the engine's O(due · log n) timer front-end.
//!
//! Every piece of CBT hard state has a clock (§9). Rather than walk the
//! FIB and the per-group transient records on every wakeup — O(N) in
//! resident group state, exactly the cost CBT's per-group state model
//! is supposed to avoid — the engine files each
//! deadline in a [`TimerService`]: one lazy-deletion binary heap of
//! `(deadline, key)` plus a hashed key table `key → deadline`, 16 B an
//! entry each for the engine's keys:
//!
//! * at most one *valid* deadline per key; a heap entry is valid iff
//!   the table holds its deadline for its key, so re-arming or
//!   cancelling a key is one O(1) table write and never searches the
//!   heap;
//! * a key re-armed back to a deadline it held before, while the older
//!   entry is still queued, has two equal entries, both valid. They pop
//!   next to each other — `(deadline, key)` is a total order — and the
//!   first pop disarms the key, so the second is discarded;
//! * the head is always valid: `arm`, `cancel` and `pop_due_into` each
//!   pop superseded entries off it before returning, while the key
//!   table is hot from their own write, so [`TimerService::peek`] is
//!   the exact earliest deadline after every call. An arm or cancel
//!   only probes the table when its own key holds the head — no other
//!   key's entries can have been superseded by it;
//! * superseded entries below the head stay until they surface — or
//!   until they outnumber the armed keys, when `arm` sweeps them and
//!   the duplicates out;
//! * re-arming a key with the deadline it already holds is a no-op —
//!   the steady state of a keepalive clock whose reply arrives before
//!   the next echo is due — so an idle tree holds exactly one heap
//!   entry per armed key;
//! * a service with no armed key has an empty heap (every entry was
//!   superseded, so the head invariant popped it), and
//!   [`TimerService::compact`] frees both tables' memory, so an
//!   engine's timer memory follows its armed clocks.
//!
//! Ordering contract: pops come out sorted by `(deadline, key)`, so the
//! engine's service order is deterministic and independent of the
//! order keys were armed in. Nothing ever iterates the key table, so
//! its hash order reaches no output; the hasher is fixed all the same
//! (no per-process `RandomState`), so the table's layout is the same in
//! every process too.

use cbt_netsim::SimTime;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The splitmix64 finisher: full avalanche on sequential inputs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic hasher for the key table: one multiply-rotate round
/// per written word, splitmix64 finish. Unkeyed, so a key hashes the
/// same in every process.
#[derive(Debug, Default, Clone, Copy)]
struct TimerKeyHasher(u64);

impl TimerKeyHasher {
    fn mix(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for TimerKeyHasher {
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }
}

/// The key table: armed key → its valid deadline.
type KeyTable<K> = HashMap<K, SimTime, BuildHasherDefault<TimerKeyHasher>>;

/// Superseded entries tolerated beyond twice the armed keys before
/// [`TimerService::arm`] sweeps them out.
const SWEEP_SLACK: usize = 32;

/// Keyed timer service with O(log n) arm and O(1) cancellation.
#[derive(Debug, Clone)]
pub struct TimerService<K: Ord + Hash + Copy> {
    /// Min-heap on `(deadline, key)`; may hold superseded entries and
    /// duplicates of a valid one.
    heap: BinaryHeap<Reverse<(SimTime, K)>>,
    /// The valid deadline per armed key. Fired and cancelled keys
    /// leave the table at once, so it is bounded by the live key set
    /// however long the service runs.
    keys: KeyTable<K>,
}

impl<K: Ord + Hash + Copy> Default for TimerService<K> {
    fn default() -> Self {
        TimerService { heap: BinaryHeap::new(), keys: KeyTable::default() }
    }
}

impl<K: Ord + Hash + Copy> TimerService<K> {
    /// New, empty service. Does not allocate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms (or re-arms) `key` to fire at `deadline`, superseding any
    /// other deadline armed for the key. Past deadlines are fine: they
    /// pop on the next [`pop_due_into`](Self::pop_due_into).
    pub fn arm(&mut self, key: K, deadline: SimTime) {
        if self.keys.insert(key, deadline) == Some(deadline) {
            return;
        }
        self.heap.push(Reverse((deadline, key)));
        // Superseded entries only leave when they surface, and a key
        // re-armed again and again to later deadlines never surfaces
        // them: sweep once they outnumber the live keys, so the heap
        // stays O(armed keys). A key re-armed back and forth between
        // two deadlines leaves valid duplicates, which only the dedup
        // removes. Amortised O(log n) per arm; pop order is unaffected,
        // `(deadline, key)` being a total order.
        if self.heap.len() > 2 * self.keys.len() + SWEEP_SLACK {
            let keys = &self.keys;
            self.heap.retain(|&Reverse((deadline, key))| Self::is_valid(keys, key, deadline));
            // Every armed key has at least one valid entry, so only a
            // surplus means duplicates; the sort is paid only then.
            if self.heap.len() > keys.len() {
                let mut live = std::mem::take(&mut self.heap).into_vec();
                live.sort_unstable();
                live.dedup();
                self.heap = BinaryHeap::from(live);
            }
        }
        self.settle_if_head(key);
    }

    /// Disarms `key`. Its heap entries are discarded as they surface —
    /// at once if one is the head.
    pub fn cancel(&mut self, key: K) {
        if self.keys.remove(&key).is_some() {
            self.settle_if_head(key);
        }
    }

    /// Restores the head invariant after `key`'s deadline changed: only
    /// `key`'s own entries can have been superseded by that, so a head
    /// of another key is still valid and costs no table probe.
    #[inline]
    fn settle_if_head(&mut self, key: K) {
        if self.heap.peek().is_some_and(|&Reverse((_, k))| k == key) {
            self.settle();
        }
    }

    /// Pops superseded entries off the head until a valid one (or
    /// nothing) is left.
    fn settle(&mut self) {
        while let Some(&Reverse((deadline, key))) = self.heap.peek() {
            if Self::is_valid(&self.keys, key, deadline) {
                return;
            }
            self.heap.pop();
        }
    }

    /// Is `deadline` the one the table currently holds for `key`?
    fn is_valid(keys: &KeyTable<K>, key: K, deadline: SimTime) -> bool {
        keys.get(&key) == Some(&deadline)
    }

    /// Pops every key whose valid deadline is `<= now` into `out`,
    /// paired with the deadline it was armed for (callers measure
    /// wakeup lag as `now - deadline`), sorted by `(deadline, key)`.
    /// Superseded entries and duplicates met on the way are dropped for
    /// good.
    pub fn pop_due_into(&mut self, now: SimTime, out: &mut impl Extend<(K, SimTime)>) {
        // The head is valid on entry, so a late head means nothing is
        // due, and only a pop can leave a superseded entry on top.
        let mut popped = false;
        while let Some(&Reverse((deadline, key))) = self.heap.peek() {
            if deadline > now {
                break;
            }
            self.heap.pop();
            popped = true;
            if let Entry::Occupied(e) = self.keys.entry(key) {
                if *e.get() == deadline {
                    e.remove();
                    out.extend([(key, deadline)]);
                }
            }
        }
        if popped {
            self.settle();
        }
    }

    /// Armed keys. Returns to zero once everything fired or was
    /// cancelled — *not* monotone over the service's lifetime.
    pub fn tracked_keys(&self) -> usize {
        self.keys.len()
    }

    /// The earliest armed deadline, O(1): the heap head, which every
    /// `arm`, `cancel` and `pop_due_into` leaves valid.
    pub fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((deadline, _))| deadline)
    }

    /// Frees both tables of a service with no key armed, whose heap the
    /// head invariant has already emptied; otherwise does nothing. An
    /// engine's timer memory so follows its armed clocks.
    pub fn compact(&mut self) {
        if self.keys.is_empty() {
            debug_assert!(self.heap.is_empty(), "an entry outlived every armed key");
            self.heap = BinaryHeap::new();
            self.keys = KeyTable::default();
        }
    }

    /// Does `key` hold a valid deadline?
    pub(crate) fn is_armed(&self, key: K) -> bool {
        self.keys.contains_key(&key)
    }

    /// Entries in the heap, superseded ones included.
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

    fn pop<K: Ord + Hash + Copy>(s: &mut TimerService<K>, now: SimTime) -> Vec<K> {
        let mut out = Vec::new();
        s.pop_due_into(now, &mut out);
        out.into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn arm_supersedes_and_cancel_disarms() {
        let mut s = TimerService::new();
        s.arm("echo", t(30));
        s.arm("echo", t(60)); // supersedes — the t(30) entry is stale
        assert!(pop(&mut s, t(30)).is_empty(), "superseded deadline must not fire");
        assert_eq!(pop(&mut s, t(60)), vec!["echo"]);

        s.arm("quit", t(90));
        s.cancel("quit");
        assert!(pop(&mut s, t(100)).is_empty(), "cancelled key must not fire");
        assert!(s.is_empty(), "stale entries are discarded as they surface");

        // Cancel + re-arm at the *same* deadline: the old entry is valid
        // again beside the new one, and the key must not double-fire.
        s.arm("join", t(110));
        s.cancel("join");
        s.arm("join", t(110));
        assert_eq!(pop(&mut s, t(110)), vec!["join"]);
        assert!(s.is_empty());
    }

    #[test]
    fn same_deadline_rearm_adds_no_entry() {
        let mut s = TimerService::new();
        s.arm(1u32, t(10));
        for _ in 0..1000 {
            s.arm(1u32, t(10));
        }
        assert_eq!(s.len(), 1);
        assert_eq!(pop(&mut s, t(10)), vec![1]);
    }

    #[test]
    fn superseded_entries_stay_bounded_by_the_armed_keys() {
        // Nothing pops and the hot key's old deadlines never reach the
        // head (key 0 holds it): only the sweep keeps the heap small.
        let mut s = TimerService::new();
        for k in 0..8u32 {
            s.arm(k, t(1));
        }
        for n in 0..10_000u64 {
            s.arm(7u32, t(10 + n));
            assert!(s.len() <= 2 * s.tracked_keys() + SWEEP_SLACK + 1, "heap grew to {}", s.len());
        }
        assert_eq!(pop(&mut s, t(1)), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(pop(&mut s, t(20_000)), vec![7]);
        assert!(s.is_empty());
    }

    #[test]
    fn alternating_rearms_leave_no_duplicates_behind() {
        // The hot key swings between two deadlines, so most of its arms
        // push an entry equal to one still queued, and while the key
        // holds that deadline both are valid. The heap only shrinks in a
        // sweep, and a sweep must
        // leave exactly one entry per armed key — the retain alone
        // would keep every duplicate of the hot key's current deadline.
        let mut s = TimerService::new();
        for k in 0..8u32 {
            s.arm(k, t(1));
        }
        let mut sweeps = 0;
        for n in 0..10_000u64 {
            let before = s.len();
            s.arm(7u32, t(10 + n % 2));
            assert!(s.len() <= 2 * s.tracked_keys() + SWEEP_SLACK + 1, "heap grew to {}", s.len());
            if s.len() < before {
                assert_eq!(s.len(), s.tracked_keys(), "arm {n}: the sweep kept duplicates");
                sweeps += 1;
            }
        }
        assert!(sweeps > 100, "the sweep ran ({sweeps})");
        assert_eq!(pop(&mut s, t(1)), vec![0, 1, 2, 3, 4, 5, 6]);
        let mut out = Vec::new();
        s.pop_due_into(t(100), &mut out);
        assert_eq!(out, vec![(7, t(11))], "fires once, at its last deadline");
        assert!(s.is_empty());
    }

    #[test]
    fn peek_is_exact_after_every_call() {
        let mut s = TimerService::new();
        s.arm(1u32, t(10));
        s.arm(2u32, t(30));
        s.arm(1u32, t(50)); // supersedes the head
        assert_eq!(s.peek(), Some(t(30)), "the superseded head left with the arm");
        assert_eq!(s.len(), 2);
        s.cancel(2u32); // cancels the head
        assert_eq!(s.peek(), Some(t(50)));
        s.arm(3u32, t(40));
        s.arm(3u32, t(60)); // key 3's stale t(40) entry is not the head
        assert_eq!(s.peek(), Some(t(50)));
        assert!(pop(&mut s, t(45)).is_empty(), "t(40) was superseded");
        assert_eq!(s.peek(), Some(t(50)));
        assert_eq!(pop(&mut s, t(50)), vec![1]);
        assert_eq!(s.peek(), Some(t(60)), "the pop settled the head past key 1");
        s.cancel(3u32);
        assert_eq!(s.peek(), None);
        assert!(s.is_empty(), "no armed key, no entry");
    }

    #[test]
    fn pops_are_sorted_by_deadline_then_key() {
        let mut s = TimerService::new();
        s.arm(3u8, t(5));
        s.arm(1u8, t(5));
        s.arm(2u8, t(4));
        let mut out = Vec::new();
        // Woken late: everything fires, each tagged with its deadline.
        s.pop_due_into(t(30), &mut out);
        assert_eq!(out, vec![(2, t(4)), (1, t(5)), (3, t(5))]);
        // Repeat pops at the same instant are harmless no-ops.
        assert!(pop(&mut s, t(30)).is_empty());
    }

    #[test]
    fn equal_deadlines_pop_in_key_order_after_a_sweep_whatever_the_arm_or_hash_order() {
        // Keys armed in an order that is neither ascending nor the
        // table's bucket order, all at one deadline; a hot key is then
        // re-armed until `arm` sweeps the heap through `retain`, which
        // consults the hashed table for every entry.
        let mut s = TimerService::new();
        let keys: Vec<u64> = (0..64u64).map(|i| (i * 37 + 11) % 64).collect();
        for &k in &keys {
            s.arm(k, t(100));
        }
        let before = s.len();
        for n in 0..200u64 {
            s.arm(keys[5], t(200 + n));
        }
        assert!(s.len() < before + 200, "the sweep ran");
        s.arm(keys[5], t(100)); // back among its peers, armed last
        let want: Vec<u64> = (0..64).collect();
        assert_eq!(pop(&mut s, t(100)), want);
        // The pop settled the hot key's superseded later deadlines.
        assert!(s.is_empty());
    }

    #[test]
    fn an_engine_timer_costs_sixteen_bytes_a_side() {
        // A heap entry and a key-table slot each hold a deadline and a
        // key, nothing more.
        use crate::engine::TimerKind;
        assert_eq!(size_of::<Reverse<(SimTime, TimerKind)>>(), 16, "heap entry");
        assert_eq!(size_of::<(TimerKind, SimTime)>(), 16, "key slot");
    }

    #[test]
    fn key_table_is_reclaimed_after_churn() {
        // Arming a timer for every group a router ever sees must not
        // leave a table entry per group behind.
        let mut s = TimerService::new();
        for i in 0..10_000u64 {
            s.arm(i, t(i + 1));
            assert_eq!(pop(&mut s, t(i + 1)), vec![i]);
        }
        assert_eq!(s.tracked_keys(), 0, "fired keys must not linger");
        assert!(s.is_empty());
        for n in 0..100u64 {
            s.arm(3u64, t(40_000 + n));
        }
        assert_eq!(s.tracked_keys(), 1);
        assert_eq!(pop(&mut s, t(50_000)), vec![3u64]);
        assert_eq!(s.tracked_keys(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn idle_service_owns_no_heap_memory() {
        // Idle contract: a fleet of mostly idle engines pays
        // nothing per router for timers it never armed...
        let mut s: TimerService<u8> = TimerService::new();
        assert!(pop(&mut s, t(1_000_000)).is_empty());
        s.compact();
        assert_eq!(s.peek(), None);
        assert_eq!((s.heap.capacity(), s.keys.capacity()), (0, 0));
        // ...nor for timers it armed once: cancelling the last key
        // empties the heap at once, and compaction frees both tables.
        s.arm(1, t(10));
        s.arm(2, t(20));
        s.cancel(1);
        s.cancel(2);
        assert_eq!((s.len(), s.peek()), (0, None));
        s.compact();
        assert_eq!((s.heap.capacity(), s.keys.capacity()), (0, 0));
        // A service with an armed key keeps its tables.
        s.arm(3, t(30));
        s.compact();
        assert_eq!(s.peek(), Some(t(30)));
    }

    /// The service against a naive model — a map `key → deadline`
    /// scanned in full on every pop — over a random schedule of arms,
    /// re-arms (incl. same-deadline), cancels and pops.
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
        let mut s: TimerService<u64> = TimerService::new();
        let mut model: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut now = 0u64;
        let mut fired = 0usize;
        for step in 0..20_000 {
            let key = rnd(KEYS);
            match rnd(10) {
                0..=4 => {
                    // Coarse deadlines so ties and same-deadline
                    // re-arms are common; some already in the past.
                    let d = SimTime::from_micros((now + rnd(40) * 500).saturating_sub(2_000));
                    model.insert(key, d);
                    s.arm(key, d);
                }
                5..=6 => {
                    model.remove(&key);
                    s.cancel(key);
                }
                _ => {
                    now += rnd(3_000);
                    let at = SimTime::from_micros(now);
                    let mut want: Vec<(SimTime, u64)> =
                        model.iter().filter(|(_, &d)| d <= at).map(|(&k, &d)| (d, k)).collect();
                    want.sort_unstable();
                    for &(_, k) in &want {
                        model.remove(&k);
                    }
                    let mut got = Vec::new();
                    s.pop_due_into(at, &mut got);
                    let want: Vec<(u64, SimTime)> = want.into_iter().map(|(d, k)| (k, d)).collect();
                    assert_eq!(got, want, "step {step}: pop order diverges from the model");
                    fired += got.len();
                }
            }
            // No compaction between steps: the head is exact after
            // every call on its own.
            assert_eq!(s.peek(), model.values().min().copied(), "step {step}: peek");
            assert_eq!(s.is_empty(), model.is_empty(), "step {step}: empty heap");
            assert_eq!(s.tracked_keys(), model.len(), "step {step}: key table");
        }
        assert!(fired > 1_000, "the schedule must actually fire timers ({fired})");
        // Drain: cancel the odd keys, fire the rest.
        for k in (1..KEYS).step_by(2) {
            s.cancel(k);
        }
        pop(&mut s, SimTime::from_micros(u64::MAX));
        assert_eq!(s.len(), 0);
        assert_eq!(s.tracked_keys(), 0);
    }
}
