//! The native data hop in the full-fidelity `World` under a counting
//! allocator: sender host — R0 — R1 — R2 — member host, every frame
//! built in a pooled buffer and handed back when its last handle drops.

mod common;

use cbt::{CbtConfig, CbtWorld, RX_COPYBREAK};
use cbt_netsim::{SimTime, WorldConfig};
use cbt_topology::{HostId, NetworkBuilder};
use cbt_wire::GroupId;
use common::alloc;

/// Packets counted per phase, one per simulated millisecond.
const N: u64 = 100;

/// Schedules `count` packets of `len` bytes from `at_ms` on, 1 ms
/// apart, and returns the instant by which the last has been delivered.
fn schedule(cw: &mut CbtWorld, sender: HostId, at_ms: u64, count: u64, len: usize) -> SimTime {
    for i in 0..count {
        let at = SimTime::from_micros((at_ms + i) * 1000);
        cw.host(sender).send_at(at, GroupId::numbered(1), vec![i as u8; len], 16);
    }
    cw.touch_host(sender);
    // One more period than the path takes (two LANs, two links: 2.4 ms),
    // so the window is a whole number of send periods.
    SimTime::from_micros((at_ms + count + 3) * 1000)
}

#[test]
fn steady_state_native_hops_allocate_only_what_the_member_keeps() {
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
    cw.world.run_until(SimTime::from_secs(4));
    assert!(cw.router(r0).sharded().is_on_tree(group) && cw.router(r2).sharded().is_on_tree(group));

    // Every send is scheduled (payload `Vec`s and all) outside the
    // counted windows; the windows sit between the routers' 3 s echo
    // rounds and 10 s IGMP queries, so data is all that moves in them.
    // Each warm-up leaves the member's delivery log room for the window
    // that follows: its columns double at 128 and 256 entries, inside
    // the warm-ups.

    // -- Below the copybreak: the member copies the payload into its
    // log's arena, so the frame's last handle drops when it returns and
    // every buffer on the path goes round again: nothing is allocated.
    let warmed = schedule(&mut cw, sender, 4_200, 130, 64);
    cw.world.run_until(warmed);
    let end = schedule(&mut cw, sender, 4_400, N, 64);
    let (pooled, tx, got) = (
        cw.world.pooled_frames(),
        cw.world.trace().data_frames(),
        cw.host(member).received().len(),
    );
    assert_eq!(got, 130, "warm-up delivered");
    let (spent, ()) = alloc::count(|| cw.world.run_until(end));
    assert_eq!(cw.host(member).received().len() as u64, 130 + N);
    assert_eq!(cw.world.trace().data_frames() - tx, 4 * N, "host send + three router hops each");
    assert_eq!(spent.allocs, 0, "{N} packets over four hops, delivered into the log's arena");
    assert_eq!(cw.world.pooled_frames(), pooled, "the frame pool stopped growing");
    assert!(pooled > 0 && pooled <= 8, "and holds the frames that were in flight at once");

    // -- At the copybreak and above: the delivery is a view of the
    // frame R2 sent, which therefore never comes back — every packet
    // takes one buffer out of circulation and the sender's next one is
    // fresh (the buffer and its refcount block). The three transit
    // frames are reclaimed as before.
    let len = 2 * RX_COPYBREAK;
    let warmed = schedule(&mut cw, sender, 4_600, 130, len);
    cw.world.run_until(warmed);
    let end = schedule(&mut cw, sender, 4_800, N, len);
    let pooled = cw.world.pooled_frames();
    let (spent, ()) = alloc::count(|| cw.world.run_until(end));
    assert_eq!(spent.allocs, 2 * N, "{N} long packets: one fresh buffer each, no copy");
    assert_eq!(cw.world.pooled_frames(), pooled);
    let got = cw.host(member).received();
    assert_eq!(got.len() as u64, 130 + N + 130 + N);
    // Nothing delivered was rewritten by a later frame built in a
    // recycled buffer.
    let sent = [(130, 64), (N, 64), (130, len), (N, len)];
    let sent = sent.iter().flat_map(|&(count, len)| (0..count).map(move |i| (i as u8, len)));
    for (d, (fill, len)) in got.iter().zip(sent) {
        assert!(d.payload.len() == len && d.payload.iter().all(|&b| b == fill), "{d:?}");
    }
}
