//! A stable discrete-event queue: events at equal times pop in
//! insertion order, which is what makes whole-simulation determinism a
//! theorem instead of a hope.
//!
//! Beside the heap the queue keeps [`LANES`] FIFO lanes for producers
//! whose events are already time-sorted — a world pushing every arrival
//! at `now + constant` while `now` never decreases is one per constant.
//! A lane push and pop are O(1); the pop order is the order a heap-only
//! queue would give, because every event still takes its sequence
//! number from the one counter and `pop` takes the least `(time, seq)`
//! over the heap's head and the lanes' fronts.

use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// Number of monotone FIFO lanes beside the heap.
pub const LANES: usize = 2;

/// Min-queue of `(SimTime, T)` with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Each lane is ascending in `(at, seq)` front to back.
    lanes: [VecDeque<Entry<T>>; LANES],
    /// Events in all lanes together: a queue nobody pushes lanes into
    /// pays one comparison for having them.
    in_lanes: usize,
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Reversed, so the max-heap pops the least `(at, seq)` first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue with room for `cap` pending heap events, so the
    /// warm-up burst (every node scheduling its first wake at once)
    /// does not reallocate the heap several times over.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            in_lanes: 0,
            seq: 0,
        }
    }

    fn entry(&mut self, at: SimTime, value: T) -> Entry<T> {
        let seq = self.seq;
        self.seq += 1;
        Entry { at, seq, value }
    }

    /// Schedules `value` at `at`.
    pub fn push(&mut self, at: SimTime, value: T) {
        let e = self.entry(at, value);
        self.heap.push(e);
    }

    /// Schedules `value` at `at` through FIFO lane `lane`, for a
    /// producer whose instants never decrease. One that does decrease
    /// goes to the heap instead, so the pop order never depends on the
    /// caller keeping that promise.
    ///
    /// # Panics
    ///
    /// If `lane >= LANES`.
    pub fn push_lane(&mut self, lane: usize, at: SimTime, value: T) {
        let e = self.entry(at, value);
        match self.lanes[lane].back() {
            Some(back) if back.at > at => self.heap.push(e),
            _ => {
                self.lanes[lane].push_back(e);
                self.in_lanes += 1;
            }
        }
    }

    /// The lane whose front is the earliest pending event; `None` when
    /// the heap's head is (or nothing is pending).
    fn earliest_lane(&self) -> Option<usize> {
        if self.in_lanes == 0 {
            return None;
        }
        let mut best = (self.heap.peek().map(Entry::key), None);
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.front() {
                if best.0.is_none_or(|k| e.key() < k) {
                    best = (Some(e.key()), Some(i));
                }
            }
        }
        best.1
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = match self.earliest_lane() {
            Some(i) => {
                self.in_lanes -= 1;
                self.lanes[i].pop_front()
            }
            None => self.heap.pop(),
        }?;
        Some((e.at, e.value))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.earliest_lane() {
            Some(i) => self.lanes[i].front(),
            None => self.heap.peek(),
        }
        .map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.in_lanes
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        q.push(t0 + SimDuration::from_secs(5), "late");
        q.push(t0 + SimDuration::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(t0 + SimDuration::from_secs(2), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn fifo_holds_per_timestamp_under_mixed_times() {
        // Insertion order deliberately scrambles the timestamps; within
        // each timestamp the pop order must still be insertion order.
        let mut q = EventQueue::new();
        let (t1, t2) = (SimTime::from_secs(1), SimTime::from_secs(2));
        q.push(t2, "t2-a");
        q.push(t1, "t1-a");
        q.push(t2, "t2-b");
        q.push(t1, "t1-b");
        q.push(t1, "t1-c");
        q.push(t2, "t2-c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (t1, "t1-a"),
                (t1, "t1-b"),
                (t1, "t1-c"),
                (t2, "t2-a"),
                (t2, "t2-b"),
                (t2, "t2-c"),
            ]
        );
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.is_empty());
        q.push(SimTime::from_secs(2), "b");
        q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lanes_interleave_with_the_heap_in_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs;
        q.push_lane(0, t(2), "lane0 @2");
        q.push(t(2), "heap @2");
        q.push_lane(1, t(2), "lane1 @2");
        q.push_lane(1, t(1), "lane1 @1, out of order");
        q.push_lane(0, t(3), "lane0 @3");
        q.push(t(1), "heap @1");
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(t(1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(
            order,
            ["lane1 @1, out of order", "heap @1", "lane0 @2", "heap @2", "lane1 @2", "lane0 @3"]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
