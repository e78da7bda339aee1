//! A router's heap follows its protocol state: once its groups have
//! left and the line has gone silent, each engine holds what it held at
//! boot plus its history at exact size — one counter row per group it
//! has seen and 8 B per core it has learned — and nothing left over
//! from the FIB entries, transient records and timers it held on the
//! way.

mod common;

use cbt::{node_addr, CbtConfig, CbtRouter, Input, P2pNode, ShardedRouter};
use cbt_netsim::{NetscaleWorld, SimTime};
use cbt_obs::RouterObs;
use cbt_wire::{Addr, GroupId};
use common::alloc;

/// Heap bytes of one per-group counter row.
const ROW: i64 = RouterObs::GROUP_ROW_BYTES as i64;

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

/// Takes router `i` out of the line, putting `fresh` in its place, and
/// checks it holds no group state and arms no timer.
fn retire(world: &mut NetscaleWorld<P2pNode>, i: u32, fresh: ShardedRouter) -> ShardedRouter {
    let old = world.with_node(i, |nd, _, _| std::mem::replace(&mut nd.router, fresh));
    assert!(old.fib_len() == 0 && old.next_wakeup().is_none(), "router {i} kept state");
    old
}

/// Heap bytes the line's two-interface engine allocates at boot, one
/// shard: its interface table and route handle. The router struct is
/// no heap block of its own: the sharded front holds its first shard
/// inline.
const BOOT_BYTES: i64 = 56;

/// What every engine of a fleet pays before it holds any state: the
/// router struct, whose largest part is its counter block, and the
/// heap a p2p engine allocates at boot. LAN-only state (G-DR roles,
/// proxy-acked groups) lives in the LAN tables a p2p engine has none
/// of, and the configuration carries its managed mappings in an
/// ordered map. A child costs what a parent needs to know of it: its
/// address, interface and last-heard instant.
#[test]
fn an_idle_engine_stays_small() {
    let (obs, router) = (size_of::<RouterObs>(), size_of::<CbtRouter>());
    assert!(obs <= 456, "RouterObs is {obs} B");
    assert!(router <= 952, "CbtRouter is {router} B");
    // The front holds its first shard inline and a vector of the rest.
    let front = size_of::<ShardedRouter>();
    assert!(front <= router + 40, "ShardedRouter is {front} B");
    let cfg = size_of::<CbtConfig>();
    assert!(cfg <= 176, "CbtConfig is {cfg} B");
    let child = size_of::<cbt::fib::Child>();
    assert!(child <= 16, "a FIB child is {child} B");
    let rib = common::rib();
    for i in 0..3 {
        let (boot, r) = alloc::count(|| common::engine(&rib, i));
        assert!(boot.live <= BOOT_BYTES, "router {i}: boot {} B", boot.live);
        drop(r);
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
        let seen = old.shard(0).obs().groups().len();
        assert_eq!(seen, 1, "router {i} counted the group's control traffic");
        let (freed, ()) = alloc::count(|| drop::<ShardedRouter>(old));
        let boot = boot.live;
        assert_eq!(-freed.live, boot + seen as i64 * ROW, "router {i}: boot {boot} B");
    }
}

/// The history's price list. For k = 1..=16 groups, every third with a
/// two-core list, each engine on the line ends at exactly its boot
/// bytes plus k counter rows plus 8 B per learned core: both columns
/// are kept at exact capacity. Relearning a list the router already
/// holds — what every join and ack on a settled tree does — allocates
/// nothing.
#[test]
fn history_costs_a_row_per_group_and_eight_bytes_per_core() {
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
            assert_eq!(old.shard(0).obs().groups().len(), usize::from(k), "router {i}, k {k}");
            for (g, cores) in &groups {
                assert_eq!(old.cores_for(*g).as_ref(), Some(cores), "router {i} learned {g}");
                let (spent, ()) = alloc::count(|| old.learn_cores(*g, cores));
                assert_eq!(spent.allocs, 0, "router {i}: relearning {g} allocated");
            }
            let (freed, ()) = alloc::count(|| drop::<ShardedRouter>(old));
            let boot = boot.live;
            assert_eq!(
                -freed.live,
                boot + i64::from(k) * ROW + learned * CORE,
                "router {i}, k {k}: boot {boot} B"
            );
        }
    }
}
