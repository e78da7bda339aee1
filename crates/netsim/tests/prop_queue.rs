//! Property test: the event queue is a stable priority queue — events
//! pop in time order, FIFO within equal times, regardless of insertion
//! interleaving, and whichever of the heap and the FIFO lanes an event
//! went through. Whole-simulation determinism rests on this.

use cbt_netsim::queue::LANES;
use cbt_netsim::{EventQueue, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn stable_time_ordering(times in proptest::collection::vec(0u64..50, 0..200)) {
        let mut q = EventQueue::new();
        for (seq, t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(*t), seq);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO within equal times");
            }
        }
    }

    /// Interleaved push/pop keeps the invariant: anything popped is
    /// ≤ everything still queued at pop time.
    #[test]
    fn interleaved_operations(ops in proptest::collection::vec((any::<bool>(), 0u64..40), 0..300)) {
        let mut q = EventQueue::new();
        let mut seq = 0usize;
        for (push, t) in ops {
            if push || q.is_empty() {
                q.push(SimTime::from_micros(t), seq);
                seq += 1;
            } else {
                let popped_at = q.pop().unwrap().0;
                if let Some(next) = q.peek_time() {
                    prop_assert!(popped_at <= next);
                }
            }
        }
    }

    /// Lanes are an optimisation, never a reordering: any interleaving
    /// of `push`, `push_lane` and `pop` pops exactly what a heap-only
    /// model (least `(time, push number)` first) pops. Lane pushes are
    /// mostly at a per-lane cursor plus a small step — the monotone
    /// producer lanes exist for — and every fifth one is at an absolute
    /// instant, usually behind the lane's tail, which must fall back to
    /// the heap instead of queueing out of order.
    #[test]
    fn lanes_pop_in_heap_order(ops in proptest::collection::vec((0usize..2 + LANES, 0u64..40), 0..400)) {
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let mut cursor = [0u64; LANES];
        let mut pushed = 0usize;
        for (kind, t) in ops {
            let at = match kind {
                0 => {
                    let popped = q.pop();
                    let least = model.iter().copied().min();
                    model.retain(|e| Some(*e) != least);
                    prop_assert_eq!(popped, least);
                    prop_assert_eq!(q.len(), model.len());
                    continue;
                }
                1 => {
                    let at = SimTime::from_micros(t);
                    q.push(at, pushed);
                    at
                }
                _ => {
                    let lane = kind - 2;
                    if t % 5 != 0 {
                        cursor[lane] += t % 5;
                    }
                    let at = SimTime::from_micros(if t % 5 == 0 { t } else { cursor[lane] });
                    q.push_lane(lane, at, pushed);
                    at
                }
            };
            model.push((at, pushed));
            pushed += 1;
            prop_assert_eq!(q.peek_time(), model.iter().map(|e| e.0).min());
        }
        let rest: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert!(q.is_empty());
        model.sort_unstable();
        prop_assert_eq!(rest, model);
    }
}
