//! A router's heap follows its protocol state: once its groups have
//! left and the line has gone silent, each engine holds what it held at
//! boot plus one counter row per group it has seen — nothing left over
//! from the FIB entries, transient records, timers and child deadlines
//! it held on the way.
//!
//! One test only — the counter is process-wide, and a second test on
//! another harness thread would be counted into this one.

mod common;

use cbt::{node_addr, CbtConfig, ShardedRouter};
use cbt_netsim::SimTime;
use cbt_obs::ProtocolCounters;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// System allocator wrapped in a counter of live heap bytes.
struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counter is a
// plain atomic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        LIVE.fetch_add(l.size() as isize, Ordering::Relaxed);
        // SAFETY: `l` is the caller's layout, passed through.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as isize, Ordering::Relaxed);
        // SAFETY: `p` came from `System` with layout `l`.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        LIVE.fetch_add(l.size() as isize, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        LIVE.fetch_add(n as isize - l.size() as isize, Ordering::Relaxed);
        // SAFETY: `p` came from `System` with layout `l`; `n` is the
        // caller's new size.
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Live heap bytes `f` leaves behind (negative when it frees), with
/// its result.
fn heap_delta<R>(f: impl FnOnce() -> R) -> (isize, R) {
    let before = LIVE.load(Ordering::Relaxed);
    let r = f();
    (LIVE.load(Ordering::Relaxed) - before, r)
}

#[test]
fn engines_return_to_their_boot_footprint_after_the_group_leaves() {
    let interval = CbtConfig::fast().echo_interval.micros();
    let at = |intervals: u64| SimTime::from_micros(intervals * interval);
    // The route table outlives the line's engines, so dropping the last
    // of them below frees engine memory only.
    let rib = common::rib();
    let mut world = common::line(&rib);
    common::join(&mut world, 2);
    // The join, then 20 echo rounds on both links.
    world.run_until(at(21));
    assert_eq!(world.node(0).router.children_of(common::group()).len(), 1, "the branch came up");
    world.with_node(2, |nd, now, out| {
        let act = nd.router.local_leave(now, common::group());
        nd.deliver(act, out);
    });
    let horizon = at(10_000);
    assert!(world.run_to_quiescence(horizon) < horizon, "the line went silent");

    let row = std::mem::size_of::<(u32, ProtocolCounters)>() as isize;
    for i in 0..3 {
        // The boot figure: a fresh engine that knows the group's core,
        // as every router on the line learned it from the join.
        let (boot, fresh) = heap_delta(|| {
            let mut r = common::engine(&rib, i);
            r.learn_cores(common::group(), &[node_addr(0)]);
            r
        });
        let old = world.with_node(i, |nd, _, _| std::mem::replace(&mut nd.router, fresh));
        assert!(!old.is_on_tree(common::group()) && old.next_wakeup().is_none());
        let seen = old.shard(0).obs().groups().len();
        assert_eq!(seen, 1, "router {i} counted the group's control traffic");
        let (freed, ()) = heap_delta(|| drop::<ShardedRouter>(old));
        assert_eq!(-freed, boot + seen as isize * row, "router {i}: boot {boot} B");
    }
}
