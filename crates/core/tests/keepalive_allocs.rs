//! The steady-state echo exchange under a counting allocator: child
//! timer → ECHO_REQUEST → parent → ECHO_REPLY → child, plus the
//! CHILD-ASSERT sweeps that fall inside the window, across the engine,
//! the `P2pNode` adapter and the netscale world.
//!
//! One test only — the counter is process-wide, and a second test on
//! another harness thread would be counted into this one.

mod common;

use cbt::CbtConfig;
use cbt_netsim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped in a counter of heap acquisitions.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counter is a
// plain atomic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `l` is the caller's layout, passed through.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from `System` with layout `l`.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `p` came from `System` with layout `l`; `n` is the
        // caller's new size.
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_echo_exchange_allocates_nothing() {
    let cfg = CbtConfig::fast();
    let interval = cfg.echo_interval.micros();
    let at = |intervals: u64| SimTime::from_micros(intervals * interval);
    // One member behind router 2: it echoes 1, and 1 echoes the core.
    let mut world = common::line(&common::rib());
    common::join(&mut world, 2);

    // Warm-up: the join, the first two echo rounds, every buffer grown.
    world.run_until(at(2));
    assert!(world.node(1).router.is_on_tree(common::group()), "the branch came up");
    let (events, frames, pooled) = (world.trace.events, world.trace.frames, world.pooled_frames());

    // 40 echo intervals: 13 CHILD-ASSERT sweeps on each parent ride along.
    const N: u64 = 40;
    let before = ALLOCS.load(Ordering::Relaxed);
    world.run_until(at(2 + N));
    let spent = ALLOCS.load(Ordering::Relaxed) - before;

    // Two child→parent pairs, one request and one reply each per interval.
    assert_eq!(world.trace.frames - frames, 4 * N, "the echo exchange ran");
    assert!(world.trace.events - events >= 6 * N, "frames plus the timers behind them");
    assert_eq!(spent, 0, "{N} echo intervals allocated {spent} times");
    assert_eq!(world.pooled_frames(), pooled, "the frame pool stopped growing");
    for i in 0..3 {
        let n = world.node(i);
        assert_eq!((n.decode_errors, n.encode_errors, n.dropped_non_control), (0, 0, 0));
    }
    assert_eq!(world.node(0).router.children_of(common::group()).len(), 1);
}
