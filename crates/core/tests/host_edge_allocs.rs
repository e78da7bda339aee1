//! The host edge under a counting allocator: what `HostApp::on_packet`
//! allocates per delivery on either side of `RX_COPYBREAK`.

mod common;

use cbt::{CbtConfig, HostApp, RX_COPYBREAK};
use cbt_netsim::{Bytes, Outbox, SimNode, SimTime};
use cbt_topology::IfIndex;
use cbt_wire::{encode_native, Addr, GroupId};
use common::alloc;

const N: usize = 4096;

/// `(allocations, bytes)` spent delivering `N` already-built frames of
/// `len`-byte payloads to a fresh member host.
fn deliver(len: usize) -> (u64, u64) {
    let g = GroupId::numbered(1);
    let src = Addr::from_octets(10, 9, 0, 7);
    let mut app = HostApp::new(Addr::from_octets(10, 1, 0, 100), 3, CbtConfig::fast().igmp);
    let mut out = Outbox::new();
    app.join_at(SimTime::ZERO, g, vec![Addr::from_octets(10, 255, 0, 1)]);
    app.on_timer(SimTime::ZERO, &mut out);
    let frames: Vec<Bytes> = (0..N)
        .map(|i| {
            let mut body = vec![0u8; len];
            body[..4].copy_from_slice(&(i as u32).to_le_bytes());
            Bytes::from(encode_native(src, g, 4, &body))
        })
        .collect();

    let (spent, ()) = alloc::count(|| {
        for f in &frames {
            app.on_packet(SimTime::from_secs(1), IfIndex(0), src, f, &mut out);
        }
    });

    assert_eq!(app.received().len(), N);
    for (i, d) in app.received().iter().enumerate() {
        assert_eq!(d.payload.len(), len);
        assert_eq!(d.payload[..4], (i as u32).to_le_bytes());
        assert_eq!(d.payload.shares_allocation_with(&frames[i]), len >= RX_COPYBREAK);
    }
    (spent.allocs, spent.bytes)
}

/// At and above the copybreak a delivery allocates nothing: N of them
/// cost only the delivery log's doublings, O(log N). Below it each
/// delivery allocates exactly its payload's bytes, as it always has —
/// on top of the same log growth.
#[test]
fn long_deliveries_allocate_only_log_growth_and_short_ones_exactly_their_bytes() {
    let doublings = u64::from(N.ilog2()) + 1;
    let (long_allocs, long_bytes) = deliver(RX_COPYBREAK);
    assert!(long_allocs <= doublings, "{N} long deliveries allocated {long_allocs} times");

    let short = RX_COPYBREAK - 1;
    let (short_allocs, short_bytes) = deliver(short);
    assert_eq!(short_allocs, long_allocs + N as u64, "one exact-size copy per short delivery");
    assert_eq!(short_bytes, long_bytes + (N * short) as u64, "and not a byte more");
}
