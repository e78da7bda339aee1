//! The host edge under a counting allocator: what `HostApp::on_packet`
//! allocates per delivery on either side of `RX_COPYBREAK`.
//!
//! The delivery log is three columns — a 16 B record per delivery, an
//! arena of copied payloads, and frame handles for shared ones — and a
//! table of its `(group, source)` pairs, all owned by the log until a
//! snapshot shares them: a delivery on either side costs only
//! amortized column growth, and
//! `Deliveries::mem_bytes` accounts for every byte the log holds.

mod common;

use cbt::{CbtConfig, Deliveries, HostApp, RX_COPYBREAK};
use cbt_netsim::{Bytes, Outbox, SimNode, SimTime};
use cbt_topology::IfIndex;
use cbt_wire::data::PAYLOAD_OFFSET;
use cbt_wire::{encode_native_into, Addr, GroupId};
use common::alloc;

const N: usize = 4096;

/// A delivery's record in the log, in bytes (the crate's unit tests pin
/// its `size_of`).
const RECORD: usize = 16;

/// The bytes a log allocates once, whatever it holds, with one pair: a
/// first pair-table allocation of four 12 B rows. The columns sit in
/// the log itself, not in a block of their own.
const LOG_BLOCK_BYTES: usize = 4 * 12;

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
            let mut frame = Vec::new();
            encode_native_into(src, g, 4, &body, &mut frame);
            Bytes::from(frame)
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
/// doublings and the log's one-time pair table, O(log N) allocations — within 2 (log2 N + 1), as the
/// record column's first allocation already holds four — and at most
/// twice the bytes the columns end up holding, beside those blocks. At
/// and above the copybreak those are a 16 B record and a frame handle
/// per delivery (the payload stays in its frame); below it, a record
/// and the payload's bytes in the arena.
#[test]
fn deliveries_allocate_only_log_growth_on_either_side_of_the_copybreak() {
    let doublings = 2 * (u64::from(N.ilog2()) + 1);
    let handle = std::mem::size_of::<Bytes>();
    for (len, per_delivery) in
        [(RX_COPYBREAK, RECORD + handle), (RX_COPYBREAK - 1, RECORD + RX_COPYBREAK - 1)]
    {
        let (allocs, bytes) = deliver(len);
        assert!(allocs <= doublings, "{N} deliveries of {len} B allocated {allocs} times");
        let bound = 2 * N * per_delivery + LOG_BLOCK_BYTES;
        assert!(bytes <= bound as u64, "{N} deliveries of {len} B asked for {bytes} B > {bound}");
    }
}

/// The log's census is exact: after N short and N long deliveries,
/// interleaved over three `(group, source)` pairs, `mem_bytes` equals
/// the live heap bytes the pushes left, frames aside. A snapshot costs
/// one block, the `Arc` the columns move into, until the log pushes
/// again; then the log copies its columns once, at exact size, and
/// both report their own blocks. A snapshot dropped before that push
/// costs the log no copy.
#[test]
fn the_log_census_equals_the_allocators_live_bytes() {
    let src = [Addr::from_octets(10, 9, 0, 7), Addr::from_octets(10, 9, 0, 8)];
    let g = [GroupId::numbered(1), GroupId::numbered(2)];
    let pairs = [(g[0], src[0]), (g[0], src[1]), (g[1], src[0])];
    let frames: Vec<(Bytes, usize)> = (0..2 * N)
        .map(|i| {
            let len = if i % 2 == 0 { RX_COPYBREAK - 64 } else { RX_COPYBREAK + 64 };
            (Bytes::from(vec![i as u8; 4 + len]), len)
        })
        .collect();
    let push = |log: &mut Deliveries, i: usize| {
        let (frame, len) = &frames[i];
        let (group, src) = pairs[i % pairs.len()];
        log.push(SimTime::from_micros(i as u64), group, src, frame, 4..4 + len);
    };

    let (built, mut log) = alloc::count(|| {
        let mut log = Deliveries::default();
        (0..2 * N).for_each(|i| push(&mut log, i));
        log
    });
    assert_eq!(log.len(), 2 * N);
    assert_eq!(built.live, log.mem_bytes() as i64, "the census of {} deliveries", 2 * N);

    let (shared, snapshot) = alloc::count(|| log.snapshot());
    let held = snapshot.mem_bytes() as i64;
    assert_eq!(log.mem_bytes() as i64, held, "the log and its snapshot report one block");
    assert_eq!((shared.allocs, shared.live), (1, held - built.live), "a snapshot costs one block");
    let (copied, ()) = alloc::count(|| push(&mut log, 0));
    assert_eq!(copied.live, log.mem_bytes() as i64, "the first push after a snapshot copies");
    assert_eq!(snapshot.len(), 2 * N);
    assert_eq!(log.len(), 2 * N + 1);
    assert!(log.iter().zip(&snapshot).all(|(a, b)| a == b));
    let (freed, ()) = alloc::count(|| drop(snapshot));
    assert_eq!(-freed.live, held, "the snapshot held the first block alone");

    drop(log.snapshot());
    let before = log.mem_bytes() as i64;
    let (taken, ()) = alloc::count(|| push(&mut log, 1));
    assert_eq!(taken.live, log.mem_bytes() as i64 - before, "the block is freed");
    assert!(taken.allocs <= 2, "no copy after a dropped snapshot: {taken:?}");
}
