//! LAN fan-out under a counting allocator: what one sender's wakeup
//! costs the heap when it hands a 64-frame run to the fabric and
//! sixteen members read it, as `live_flood`'s delivery LAN does.
//!
//! A wakeup's outbox moves into a block of its sender's `BatchPool`,
//! every member's inbox queues one handle to it, and each member drains
//! its inbox into a reused vector of runs. After warm-up nothing on
//! that path allocates: the pool reuses a block once its last reader
//! is gone, and that last reader's drop frees the batch's frames.

#[path = "../../core/tests/common/alloc.rs"]
mod alloc;

use cbt_netsim::{Bytes, Entity, Transmit};
use cbt_node::fabric::{DataPlaneConfig, Fabric};
use cbt_node::inbox::{BatchPool, InboxRx, Run};
use cbt_topology::{IfIndex, NetworkBuilder, RouterId};
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Waker};

/// Members on the LAN.
const MEMBERS: usize = 16;
/// Frames in the run each wakeup sends.
const RUN: usize = 64;
/// Bytes per frame: a 256 B payload behind its headers.
const FRAME: usize = 284;

/// The delivery LAN: one router, and its members' receive ends.
fn lan() -> (Arc<Fabric>, RouterId, Vec<InboxRx>) {
    let mut b = NetworkBuilder::new();
    let r = b.router("R");
    let lan = b.lan("RX");
    b.attach(lan, r);
    for i in 0..MEMBERS {
        b.host(format!("M{i}"), lan);
    }
    let (fabric, rxs) = Fabric::with_shards(&b.build(), DataPlaneConfig::default(), 1);
    let members = fabric.plan().entities().zip(rxs).filter(|(e, _)| matches!(e, Entity::Host(_)));
    let members = members.flat_map(|(_, rx)| rx).collect();
    (fabric, r, members)
}

fn run_of(frames: &[Bytes]) -> impl Iterator<Item = Transmit> + '_ {
    frames.iter().map(|f| Transmit { iface: IfIndex(0), link_dst: None, frame: f.clone() })
}

fn fresh_frames() -> Vec<Bytes> {
    (0..RUN).map(|i| Bytes::from(vec![i as u8; FRAME])).collect()
}

/// Drains everything queued at `rx` into `runs` and reads every frame,
/// as a node task does; returns the bytes read.
fn drain(rx: &mut InboxRx, runs: &mut Vec<Run>) -> usize {
    let mut read = 0;
    loop {
        let polled =
            std::pin::pin!(rx.recv_batch(RUN, runs)).poll(&mut Context::from_waker(Waker::noop()));
        if polled.is_pending() {
            return read;
        }
        for run in runs.drain(..) {
            read += run.frames().iter().map(|f| f.len()).sum::<usize>();
        }
    }
}

/// After warm-up, a thousand wakeups that each fan a 64-frame run out
/// to sixteen members allocate nothing: no batch block, no inbox or
/// run-vector growth.
#[test]
fn a_steady_fan_out_allocates_nothing_per_wakeup() {
    let (fabric, r, mut rxs) = lan();
    let frames = fresh_frames();
    let mut pool = BatchPool::default();
    let mut runs: Vec<Vec<Run>> = (0..rxs.len()).map(|_| Vec::new()).collect();
    let mut wakeup = |pool: &mut BatchPool| {
        fabric.dispatch_batch(Entity::Router(r), &pool.fill(run_of(&frames)));
        let mut read = 0;
        for (rx, runs) in rxs.iter_mut().zip(&mut runs) {
            read += drain(rx, runs);
        }
        assert_eq!(read, MEMBERS * RUN * FRAME, "every member reads the whole run");
    };
    for _ in 0..8 {
        wakeup(&mut pool);
    }
    let (spent, ()) = alloc::count(|| {
        for _ in 0..1000 {
            wakeup(&mut pool);
        }
    });
    assert_eq!(spent.allocs, 0, "no batch block or queue growth: {spent:?}");
    assert_eq!(fabric.snapshot().dropped_overflow, 0);
}

/// A batch's frames are freed when its last recipient has read them,
/// not when the sender next reuses the block: after fifteen of sixteen
/// members have read the run, every frame is still live; after the
/// sixteenth, none is.
#[test]
fn the_last_recipient_frees_the_frames() {
    let (fabric, r, mut rxs) = lan();
    let mut pool = BatchPool::default();
    let mut runs: Vec<Vec<Run>> = (0..rxs.len()).map(|_| Vec::new()).collect();
    // Warm the block, the inboxes and the run vectors.
    let warm = fresh_frames();
    fabric.dispatch_batch(Entity::Router(r), &pool.fill(run_of(&warm)));
    for (rx, runs) in rxs.iter_mut().zip(&mut runs) {
        drain(rx, runs);
    }
    drop(warm);

    let (sent, ()) = alloc::count(|| {
        let frames = fresh_frames();
        let transmits =
            frames.into_iter().map(|frame| Transmit { iface: IfIndex(0), link_dst: None, frame });
        fabric.dispatch_batch(Entity::Router(r), &pool.fill(transmits));
    });
    assert!(sent.live >= (RUN * FRAME) as i64, "the run is live in the batch: {sent:?}");
    let (last, first) = rxs.split_last_mut().expect("members");
    let (runs_last, runs_first) = runs.split_last_mut().expect("members");
    let (early, ()) = alloc::count(|| {
        for (rx, runs) in first.iter_mut().zip(runs_first) {
            assert_eq!(drain(rx, runs), RUN * FRAME);
        }
    });
    assert_eq!(early.live, 0, "fifteen readers free nothing: {early:?}");
    let (late, ()) = alloc::count(|| assert_eq!(drain(last, runs_last), RUN * FRAME));
    assert_eq!(late.live, -sent.live, "the last reader freed every frame: {late:?}");
    assert_eq!(late.allocs, 0);
}
