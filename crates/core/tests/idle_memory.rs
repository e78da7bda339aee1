//! A router's heap follows its protocol state: once its groups have
//! left and the line has gone silent, each engine holds what it held at
//! boot plus its history — one fixed control counter row, however many
//! groups it has seen, and 8 B per core it has learned — and nothing
//! left over from the FIB entries, transient records and timers it held
//! on the way. Its census names every one of those bytes, and engines booted
//! from equal configurations share one configuration block.

mod common;

use cbt::timers::TimerService;
use cbt::{node_addr, CbtConfig, CbtRouter, Census, Input, P2pNode, ShardedRouter};
use cbt_netsim::{NetscaleWorld, SimTime};
use cbt_obs::RouterObs;
use cbt_wire::{Addr, GroupId};
use common::alloc;
use std::collections::{BTreeMap, BTreeSet};

/// Heap bytes of the control counter row: eight sent and eight
/// received cells of 32 bits, boxed on the first counted message.
const ROW: i64 = 64;

/// Heap bytes of one learned `(group, core)` pair.
const CORE: i64 = 8;

/// `n` echo intervals of the fleet configuration after time zero.
fn at(n: u64) -> SimTime {
    SimTime::from_micros(n * CbtConfig::fast().echo_interval.micros())
}

/// A member behind router 2 joins each of `groups` (learning its core
/// list out of band), 20 echo rounds pass on both links, the member
/// leaves every group, and the line runs until it goes silent.
fn churn(world: &mut NetscaleWorld<P2pNode>, groups: &[(GroupId, Vec<Addr>)]) {
    world.with_node(2, |nd, now, out| {
        for (g, cores) in groups {
            nd.router.learn_cores(*g, cores);
            nd.step(now, Input::Join(*g), out);
        }
    });
    world.run_until(at(21));
    for (g, _) in groups {
        assert_eq!(
            world.node(0).router.group_view(*g).children.len(),
            1,
            "{g}: the branch came up"
        );
    }
    world.with_node(2, |nd, now, out| {
        for (g, _) in groups {
            nd.step(now, Input::Leave(*g), out);
        }
    });
    let horizon = at(10_000);
    assert!(world.run_to_quiescence(horizon) < horizon, "the line went silent");
}

/// Takes router `i` out of the line, putting `fresh` in its place.
fn swap(world: &mut NetscaleWorld<P2pNode>, i: u32, fresh: ShardedRouter) -> ShardedRouter {
    world.with_node(i, |nd, _, _| std::mem::replace(&mut nd.router, fresh))
}

/// [`swap`], checking the old engine holds no group state and arms no
/// timer.
fn retire(world: &mut NetscaleWorld<P2pNode>, i: u32, fresh: ShardedRouter) -> ShardedRouter {
    let old = swap(world, i, fresh);
    assert!(old.fib_len() == 0 && old.next_wakeup().is_none(), "router {i} kept state");
    old
}

/// Heap bytes the line's two-interface engine allocates at boot, one
/// shard: its interface table and route handle. The router struct is
/// no heap block of its own: the sharded front holds its first shard
/// inline. Nor is its configuration, while another engine booted from
/// an equal one is alive: the two share its block.
const BOOT_BYTES: i64 = 56;

/// What every engine of a fleet pays before it holds any state: the
/// router struct, whose largest part is its counters, and the heap a
/// p2p engine allocates at boot. LAN-only state (G-DR roles,
/// proxy-acked groups) lives in the LAN tables a p2p engine has none
/// of, the configuration is one shared block, and the timer-lag row
/// holds a count of on-time wakeups until a timer fires late. A child
/// costs what a parent needs to know of it: its address, interface and
/// last-heard instant.
#[test]
fn an_idle_engine_stays_small() {
    let (obs, router) = (size_of::<RouterObs>(), size_of::<CbtRouter>());
    assert!(obs <= 320, "RouterObs is {obs} B");
    assert!(router <= 640, "CbtRouter is {router} B");
    // The front holds its first shard inline and a vector of the rest.
    let front = size_of::<ShardedRouter>();
    assert!(front <= router + 40, "ShardedRouter is {front} B");
    let cfg = size_of::<CbtConfig>();
    assert!(cfg <= 176, "CbtConfig is {cfg} B");
    let child = size_of::<cbt::fib::Child>();
    assert!(child <= 16, "a FIB child is {child} B");
    let rib = common::rib();
    // A fleet boots every engine under its one live configuration.
    let fleet = common::engine(&rib, 0);
    for i in 0..3 {
        let (boot, r) = alloc::count(|| common::engine(&rib, i));
        assert!(boot.live <= BOOT_BYTES, "router {i}: boot {} B", boot.live);
        assert!(std::ptr::eq(r.config(), fleet.config()), "router {i} shares the block");
        drop(r);
    }
}

/// Engines booted from equal configurations hold one block: a fleet's
/// routers, the shards of one router, and an engine restarted from a
/// copy of its predecessor's configuration. An unequal configuration
/// gets a block of its own, and a census sum over the fleet counts the
/// shared block once.
#[test]
fn equal_configurations_share_one_block() {
    let rib = common::rib();
    let fleet: Vec<ShardedRouter> = (0..3).map(|i| common::engine(&rib, i)).collect();
    let block = fleet[0].config();
    assert!(fleet.iter().all(|r| std::ptr::eq(r.config(), block)), "the fleet shares one block");
    // A restart, as the fleets run one: the replacement boots from a
    // copy of the configuration of the engine it replaces, which is
    // still alive.
    let restarted = common::engine(&rib, 2);
    assert!(std::ptr::eq(restarted.config(), block), "the restarted engine shares the block");

    let two = CbtConfig { shards: 2, ..CbtConfig::fast() };
    let sharded = ShardedRouter::p2p(
        cbt_topology::RouterId(1),
        node_addr(1),
        2,
        two,
        || Box::new(cbt::RouteHandle::new(std::sync::Arc::clone(&rib), 1)),
        SimTime::ZERO,
    );
    assert_eq!(sharded.local_count(), 2);
    assert!(std::ptr::eq(sharded.shard(0).config(), sharded.shard(1).config()), "shards share");
    assert!(!std::ptr::eq(sharded.config(), block), "an unequal configuration has its own block");
    let census = sharded.census();
    assert_eq!(census.config, sharded.shard(0).census().config, "counted once per router");

    let mut sum = Census::default();
    fleet.iter().chain([&restarted]).for_each(|r| sum.add(&r.census()));
    assert_eq!(sum.config, fleet[0].census().config, "the fleet counts its block once");
    assert!(sum.config > size_of::<CbtConfig>(), "the block is counted with its header");
}

/// The census names every heap byte an engine holds, whatever its
/// state: the rows of each engine of the line — on-tree with timers
/// armed, and again once its groups have left — sum to the bytes that
/// dropping it frees. The configuration block is the one row dropping
/// it does not free: the engine that takes its place shares it.
#[test]
fn a_census_counts_every_live_byte() {
    let groups: Vec<(GroupId, Vec<Addr>)> =
        (1..=5).map(|n| (GroupId::numbered(n), vec![node_addr(0), node_addr(7)])).collect();
    for on_tree in [true, false] {
        let rib = common::rib();
        let mut world = common::line(&rib);
        if on_tree {
            world.with_node(2, |nd, now, out| {
                for (g, cores) in &groups {
                    nd.router.learn_cores(*g, cores);
                    nd.step(now, Input::Join(*g), out);
                }
            });
            world.run_until(at(21));
        } else {
            churn(&mut world, &groups);
        }
        for i in 0..3 {
            let old = swap(&mut world, i, common::engine(&rib, i));
            assert_eq!(old.fib_len() > 0, on_tree, "router {i}");
            let census = old.census();
            let (freed, ()) = alloc::count(|| drop::<ShardedRouter>(old));
            let rows = census.rows();
            assert_eq!(
                -freed.live,
                (census.total() - census.config) as i64,
                "router {i}, on tree {on_tree}: {rows:?}"
            );
            assert_eq!(census.obs as i64, ROW, "router {i}: {rows:?}");
            assert_eq!(census.cores as i64, 2 * groups.len() as i64 * CORE, "router {i}");
        }
    }
}

#[test]
fn engines_return_to_their_boot_footprint_after_the_group_leaves() {
    // The route table outlives the line's engines, so dropping the last
    // of them below frees engine memory only.
    let rib = common::rib();
    let mut world = common::line(&rib);
    churn(&mut world, &[(common::group(), vec![node_addr(0)])]);

    for i in 0..3 {
        // The boot figure: a fresh engine that knows the group's core,
        // as every router on the line learned it from the join.
        let (boot, fresh) = alloc::count(|| {
            let mut r = common::engine(&rib, i);
            r.learn_cores(common::group(), &[node_addr(0)]);
            r
        });
        let old = retire(&mut world, i, fresh);
        assert!(old.shard(0).obs().ctl().total() > 0, "router {i} counted control traffic");
        let (freed, ()) = alloc::count(|| drop::<ShardedRouter>(old));
        let boot = boot.live;
        assert_eq!(-freed.live, boot + ROW, "router {i}: boot {boot} B");
    }
}

/// The history's price list. For k = 1..=16 groups, every third with a
/// two-core list, each engine on the line ends at exactly its boot
/// bytes plus one counter row, whatever k is, plus 8 B per learned
/// core: the core column is kept at exact capacity. Relearning a list
/// the router already holds — what every join and ack on a settled
/// tree does — allocates nothing.
#[test]
fn history_costs_one_counter_row_and_eight_bytes_per_core() {
    for k in 1..=16u16 {
        let groups: Vec<(GroupId, Vec<Addr>)> = (1..=k)
            .map(|n| {
                let cores = match n % 3 {
                    // The secondary core is off the line: it is only
                    // ever carried in the list, never joined.
                    0 => vec![node_addr(0), node_addr(7)],
                    _ => vec![node_addr(0)],
                };
                (GroupId::numbered(n), cores)
            })
            .collect();
        let learned: i64 = groups.iter().map(|(_, c)| c.len() as i64).sum();
        let rib = common::rib();
        let mut world = common::line(&rib);
        churn(&mut world, &groups);

        for i in 0..3 {
            let (boot, fresh) = alloc::count(|| common::engine(&rib, i));
            let mut old = retire(&mut world, i, fresh);
            assert!(old.shard(0).obs().ctl().total() > 0, "router {i}, k {k}: no traffic");
            for (g, cores) in &groups {
                assert_eq!(old.cores_for(*g).as_ref(), Some(cores), "router {i} learned {g}");
                let (spent, ()) = alloc::count(|| old.learn_cores(*g, cores));
                assert_eq!(spent.allocs, 0, "router {i}: relearning {g} allocated");
            }
            let (freed, ()) = alloc::count(|| drop::<ShardedRouter>(old));
            let boot = boot.live;
            assert_eq!(
                -freed.live,
                boot + ROW + learned * CORE,
                "router {i}, k {k}: boot {boot} B"
            );
        }
    }
}

/// The census's timer row is the heap's capacity, byte for byte: the
/// service holds its deadline heap and nothing else — no key table —
/// whatever it pushed, swept and popped, and it fits in 32 B. Its size
/// does not depend on the key, so `u64` keys stand in for the engine's.
#[test]
fn the_timer_row_is_the_heap_capacity() {
    let svc = size_of::<TimerService<u64>>();
    assert!(svc <= 32, "TimerService is {svc} B");
    // Every key's record holds deadline `k` µs until `now` passes it.
    let live = |now: u64| move |k: u64, at: SimTime| at.micros() == k && k > now;
    for n in [1u64, 7, 100, 1_000] {
        let (made, mut s) = alloc::count(|| {
            let mut s = TimerService::new();
            for k in 1..=n {
                s.arm(k, None, SimTime::from_micros(k));
                // Every third key is re-filed later and back: a dead
                // entry and a duplicate for the sweep.
                if k % 3 == 0 {
                    s.arm(k, Some(SimTime::from_micros(k)), SimTime::from_micros(k + n));
                    s.arm(k, Some(SimTime::from_micros(k + n)), SimTime::from_micros(k));
                }
            }
            s.settle(live(0));
            s
        });
        assert_eq!(made.live, s.mem_bytes() as i64, "{n} keys armed");
        let mut due = Vec::with_capacity(n as usize);
        let (popped, ()) = alloc::count(|| {
            s.pop_due_into(SimTime::from_micros(n / 2), live(0), &mut due);
            s.settle(live(n / 2));
        });
        assert_eq!(popped.allocs, 0, "{n} keys: pops allocate nothing");
        let bytes = s.mem_bytes() as i64;
        assert!(n < 2 || bytes > 0, "{n} keys: half still armed");
        let (freed, ()) = alloc::count(|| drop(s));
        assert_eq!(-freed.live, bytes, "{n} keys: the row is what dropping frees");
    }
}

/// The census's B-tree rows: exact while a tree is one leaf (up to 11
/// entries), a lower bound beyond, for a set and for a map.
#[test]
fn b_tree_rows_are_exact_to_one_leaf() {
    for len in 0..=40u16 {
        let (set, _s) = alloc::count(|| (1..=len).map(GroupId::numbered).collect::<BTreeSet<_>>());
        let (map, _m) = alloc::count(|| {
            (1..=len)
                .map(|n| (GroupId::numbered(n), node_addr(n.into())))
                .collect::<BTreeMap<_, _>>()
        });
        let set_rows = cbt_igmp::btree_bytes::<GroupId, ()>(len.into()) as i64;
        let map_rows = cbt_igmp::btree_bytes::<GroupId, Addr>(len.into()) as i64;
        if len <= 11 {
            assert_eq!((set.live, map.live), (set_rows, map_rows), "{len} entries");
        } else {
            assert!(set.live >= set_rows && map.live >= map_rows, "{len} entries");
        }
    }
}
