//! The native data hop in the full-fidelity `World` when control
//! events fall between data packets: sender host — R0 — R1 — R2 —
//! member host, under a counting allocator, with the routers' echo
//! round inside the counted window.
//!
//! Every control entry point moves the engine's epoch, so each router
//! on the path rebuilds its group's spanning entry on the first packet
//! after the round. The rebuild refills the entry's vectors in place,
//! and the member copies a short payload into its delivery log's arena:
//! a packet allocates nothing.

mod common;

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{SimTime, WorldConfig};
use cbt_topology::{HostId, NetworkBuilder};
use cbt_wire::GroupId;
use common::alloc;

/// Packets in the counted window, 10 ms apart.
const N: u64 = 100;

/// Schedules `count` 64-byte packets from `at_ms` on, `gap_ms` apart.
fn schedule(cw: &mut CbtWorld, sender: HostId, at_ms: u64, count: u64, gap_ms: u64) {
    for i in 0..count {
        let at = SimTime::from_micros((at_ms + i * gap_ms) * 1000);
        cw.host(sender).send_at(at, GroupId::numbered(1), vec![i as u8; 64], 16);
    }
    cw.touch_host(sender);
}

/// Runs `cw` to `until_ms` and returns (allocations, control frames,
/// data frames) spent on the way.
fn run(cw: &mut CbtWorld, until_ms: u64) -> (u64, u64, u64) {
    let (ctl, data) = (cw.world.trace().control_frames(), cw.world.trace().data_frames());
    let (spent, ()) = alloc::count(|| cw.world.run_until(SimTime::from_micros(until_ms * 1000)));
    let trace = cw.world.trace();
    (spent.allocs, trace.control_frames() - ctl, trace.data_frames() - data)
}

#[test]
fn spans_rebuilt_after_a_control_event_allocate_nothing() {
    let mut b = NetworkBuilder::new();
    let (r0, r1, r2) = (b.router("R0"), b.router("R1"), b.router("R2"));
    let s0 = b.lan("S0");
    b.attach(s0, r0);
    let sender = b.host("A", s0);
    b.link(r0, r1, 1);
    b.link(r1, r2, 1);
    let s1 = b.lan("S1");
    b.attach(s1, r2);
    let member = b.host("B", s1);
    let net = b.build();
    let core = net.router_addr(r1);
    let group = GroupId::numbered(1);

    // Counters only: a recording trace keeps an entry per transmission.
    let world_cfg = WorldConfig { record_trace: false, ..WorldConfig::default() };
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), world_cfg);
    for h in [sender, member] {
        cw.host(h).join_at(SimTime::from_secs(1), group, vec![core]);
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_micros(3_500_000));
    assert!(cw.router(r0).sharded().is_on_tree(group) && cw.router(r2).sharded().is_on_tree(group));

    // The branches came up just after 1 s, so R0 and R2 echo R1 just
    // after every third second. IGMP queries go out at 11 s and 21 s,
    // R1's CHILD-ASSERT sweep at 9 s and 18 s: outside every window
    // below. Every send is scheduled outside the counted windows.
    //
    // Warm-up: every buffer on the path grows, and the member's
    // delivery log's columns reach 512 entries, room for all that
    // follows.
    // Then one uncounted lap of the interleaving that is counted
    // next: the first time echo and data frames are in flight
    // together, a data frame can draw a pooled buffer that last
    // carried a 40-byte echo and grow it once — the pool's warm-up,
    // not the forward path's.
    schedule(&mut cw, sender, 3_600, 300, 7);
    schedule(&mut cw, sender, 6_450, N, 10);
    schedule(&mut cw, sender, 9_450, N, 10);
    cw.world.run_until(SimTime::from_micros(7_500_000));
    assert_eq!(cw.host(member).received().len() as u64, 300 + N, "warm-up delivered");
    let pooled = cw.world.pooled_frames();

    // -- Data with the 10 s echo round in the middle: every router on
    // the path handles control events between two data packets, and
    // rebuilds its spanning entry on the next one.
    cw.world.run_until(SimTime::from_micros(9_400_000));
    let (spent, ctl, data) = run(&mut cw, 10_500);
    assert_eq!(cw.host(member).received().len() as u64, 300 + 2 * N);
    assert_eq!(data, 4 * N, "host send + three router hops each");
    assert_eq!(ctl, 4, "two echo requests and their replies fell inside the window");
    assert_eq!(cw.world.pooled_frames(), pooled, "the frame pool stopped growing");

    // -- The 16 s echo round alone, to price the control exchange
    // apart from the data: it allocates nothing.
    cw.world.run_until(SimTime::from_micros(15_500_000));
    let (quiet, quiet_ctl, quiet_data) = run(&mut cw, 16_500);
    assert_eq!((quiet_ctl, quiet_data), (4, 0), "the same echo round, no data");
    assert_eq!(quiet, 0, "an echo round allocated {quiet} times");

    assert_eq!(spent, quiet, "{N} packets around a control event allocated {spent} times");
}
