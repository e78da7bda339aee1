//! A router's heap follows its protocol state: once its groups have
//! left and the line has gone silent, each engine holds what it held at
//! boot plus one counter row per group it has seen — nothing left over
//! from the FIB entries, transient records, timers and child deadlines
//! it held on the way.

mod common;

use cbt::{node_addr, CbtConfig, ShardedRouter};
use cbt_netsim::SimTime;
use cbt_obs::ProtocolCounters;
use common::alloc;

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

    let row = std::mem::size_of::<(u32, ProtocolCounters)>() as i64;
    for i in 0..3 {
        // The boot figure: a fresh engine that knows the group's core,
        // as every router on the line learned it from the join.
        let (boot, fresh) = alloc::count(|| {
            let mut r = common::engine(&rib, i);
            r.learn_cores(common::group(), &[node_addr(0)]);
            r
        });
        let old = world.with_node(i, |nd, _, _| std::mem::replace(&mut nd.router, fresh));
        assert!(!old.is_on_tree(common::group()) && old.next_wakeup().is_none());
        let seen = old.shard(0).obs().groups().len();
        assert_eq!(seen, 1, "router {i} counted the group's control traffic");
        let (freed, ()) = alloc::count(|| drop::<ShardedRouter>(old));
        let boot = boot.live;
        assert_eq!(-freed.live, boot + seen as i64 * row, "router {i}: boot {boot} B");
    }
}
