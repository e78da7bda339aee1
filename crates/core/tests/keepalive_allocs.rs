//! The steady-state echo exchange under a counting allocator: child
//! timer → ECHO_REQUEST → parent → ECHO_REPLY → child, plus the
//! CHILD-ASSERT sweeps that fall inside the window, across the engine,
//! the `P2pNode` adapter and the netscale world.

mod common;

use cbt::CbtConfig;
use cbt_netsim::SimTime;
use common::alloc;

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
    assert!(world.node(1).router.group_view(common::group()).on_tree, "the branch came up");
    let (events, frames, pooled) = (world.trace.events, world.trace.frames, world.pooled_frames());

    // 40 echo intervals: 13 CHILD-ASSERT sweeps on each parent ride along.
    const N: u64 = 40;
    let (spent, ()) = alloc::count(|| world.run_until(at(2 + N)));

    // Two child→parent pairs, one request and one reply each per interval.
    assert_eq!(world.trace.frames - frames, 4 * N, "the echo exchange ran");
    assert!(world.trace.events - events >= 6 * N, "frames plus the timers behind them");
    assert_eq!(spent.allocs, 0, "{N} echo intervals allocated {} times", spent.allocs);
    assert_eq!(world.pooled_frames(), pooled, "the frame pool stopped growing");
    for i in 0..3 {
        let n = world.node(i);
        assert_eq!((n.decode_errors, n.encode_errors, n.dropped_non_control), (0, 0, 0));
    }
    assert_eq!(world.node(0).router.group_view(common::group()).children.len(), 1);
}
