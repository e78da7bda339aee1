//! The host edge under a counting allocator: what `HostApp::on_packet`
//! allocates per delivery on either side of `RX_COPYBREAK`.
//!
//! The delivery log is three columns — a header per delivery, an arena
//! of copied payloads, and frame handles for shared ones — so a
//! delivery on either side costs only amortized column growth.

mod common;

use cbt::{CbtConfig, HostApp, RX_COPYBREAK};
use cbt_netsim::{Bytes, Outbox, SimNode, SimTime};
use cbt_topology::IfIndex;
use cbt_wire::data::PAYLOAD_OFFSET;
use cbt_wire::{encode_native, Addr, GroupId};
use common::alloc;

const N: usize = 4096;

/// A delivery's header in the log: at most this many bytes (the crate's
/// unit tests pin its `size_of`).
const HEADER: usize = 24;

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
        let in_frame = d.payload.as_ptr() == frames[i][PAYLOAD_OFFSET..].as_ptr();
        assert_eq!(in_frame, len >= RX_COPYBREAK, "a view of the frame exactly when long");
    }
    (spent.allocs, spent.bytes)
}

/// No delivery allocates on its own: N of them cost two columns'
/// doublings, O(log N) allocations, and at most twice the bytes the
/// columns end up holding. At and above the copybreak those are a header
/// and a frame handle per delivery (the payload stays in its frame);
/// below it, a header and the payload's bytes in the arena.
#[test]
fn deliveries_allocate_only_log_growth_on_either_side_of_the_copybreak() {
    let doublings = 2 * (u64::from(N.ilog2()) + 1);
    let handle = std::mem::size_of::<Bytes>();
    for (len, per_delivery) in
        [(RX_COPYBREAK, HEADER + handle), (RX_COPYBREAK - 1, HEADER + RX_COPYBREAK - 1)]
    {
        let (allocs, bytes) = deliver(len);
        assert!(allocs <= doublings, "{N} deliveries of {len} B allocated {allocs} times");
        let bound = 2 * N * per_delivery;
        assert!(bytes <= bound as u64, "{N} deliveries of {len} B asked for {bytes} B > {bound}");
    }
}
