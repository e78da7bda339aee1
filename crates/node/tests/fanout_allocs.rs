//! LAN fan-out under a counting allocator: what one sender's wakeup
//! costs the heap when it hands a 64-frame run to the fabric and
//! sixteen members read it, as `live_flood`'s delivery LAN does.
//!
//! A wakeup's outbox moves into a block of its sender's `BatchPool`,
//! every member's inbox queues one handle to it, and each member drains
//! its inbox into a reused vector of runs. The block keeps its frames
//! after its last reader has gone; the sender's next fill of that block
//! gives each buffer nobody else views back to the sender's `Outbox`,
//! and the next wakeup builds its frames in them. After warm-up nothing
//! on that path allocates, frames included.

#[path = "../../core/tests/common/alloc.rs"]
mod alloc;

use cbt_netsim::{Bytes, Entity, Outbox};
use cbt_node::fabric::{DataPlaneConfig, Fabric};
use cbt_node::inbox::{BatchPool, InboxRx, Run};
use cbt_topology::{IfIndex, NetworkBuilder, RouterId};
use std::collections::HashSet;
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

/// The sending task: its outbox (and frame pool), its batch blocks,
/// and where the last wakeup's frames live.
#[derive(Default)]
struct Sender {
    out: Outbox,
    pool: BatchPool,
    built: Vec<*const u8>,
}

impl Sender {
    /// One wakeup: `n` frames built in the outbox's buffers, each
    /// `FRAME` bytes of `fill`, then one flush, as a node task does.
    /// Returns where the frames' bytes live.
    fn wakeup(&mut self, fabric: &Fabric, r: RouterId, n: usize, fill: u8) -> &[*const u8] {
        self.built.clear();
        for _ in 0..n {
            let mut buf = self.out.buffer();
            let bytes = buf.as_mut_vec();
            bytes.clear();
            bytes.resize(FRAME, fill);
            let frame = buf.freeze();
            self.built.push(frame.as_ptr());
            self.out.send(IfIndex(0), frame);
        }
        self.flush(fabric, r);
        &self.built
    }

    /// Hands everything queued to the fabric as one batch.
    fn flush(&mut self, fabric: &Fabric, r: RouterId) {
        fabric.dispatch_batch(Entity::Router(r), &self.pool.fill_from(&mut self.out));
    }

    /// Where the buffers the outbox pools live; empties the pool.
    fn take_pooled(&mut self) -> Vec<*const u8> {
        std::iter::from_fn(|| (self.out.pooled() > 0).then(|| self.out.buffer().as_ptr())).collect()
    }
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
            read += run.frames().map(|f| f.len()).sum::<usize>();
        }
    }
}

/// Every member drains its inbox; returns the bytes read in all.
fn drain_all(rxs: &mut [InboxRx], runs: &mut [Vec<Run>]) -> usize {
    rxs.iter_mut().zip(runs).map(|(rx, runs)| drain(rx, runs)).sum()
}

/// After warm-up, a thousand wakeups that each fan a 64-frame run out
/// to sixteen members allocate nothing: no batch block, no inbox or
/// run-vector growth and, when the sender builds its run in
/// `Outbox::buffer`s as every node does, no frame either — each run is
/// built in the buffers of one it sent before. Frames their caller
/// keeps viewing are refused back: each fill only drops its handles.
#[test]
fn a_steady_fan_out_allocates_nothing_per_wakeup() {
    let held: Vec<Bytes> = (0..RUN).map(|i| Bytes::from(vec![i as u8; FRAME])).collect();
    for built in [true, false] {
        let (fabric, r, mut rxs) = lan();
        let mut sender = Sender::default();
        let mut runs: Vec<Vec<Run>> = (0..rxs.len()).map(|_| Vec::new()).collect();
        let mut wakeup = |sender: &mut Sender, i: usize| {
            if built {
                sender.wakeup(&fabric, r, RUN, i as u8);
            } else {
                for frame in &held {
                    sender.out.send(IfIndex(0), frame.clone());
                }
                sender.flush(&fabric, r);
            }
            assert_eq!(drain_all(&mut rxs, &mut runs), MEMBERS * RUN * FRAME);
        };
        for i in 0..8 {
            wakeup(&mut sender, i);
        }
        let (spent, ()) = alloc::count(|| {
            for i in 0..1000 {
                wakeup(&mut sender, i);
            }
        });
        assert_eq!(spent.allocs, 0, "built {built}: no frame, block or queue growth: {spent:?}");
        let pooled = if built { RUN } else { 0 };
        assert_eq!(sender.out.pooled(), pooled, "built {built}: one run's buffers wait, or none");
        assert_eq!(fabric.snapshot().dropped_overflow, 0);
    }
}

/// The frames' lifecycle. The last of sixteen recipients frees
/// nothing: the frames stay in the sender's block. The sender's next
/// fill of that block takes back exactly the buffers nobody else
/// views, each the very allocation it sent, and lets go of the one a
/// member kept (as a delivery log keeps a frame). That kept frame is
/// never reopened: a thousand later wakeups build in other buffers,
/// and its bytes stay what they were.
#[test]
fn the_last_recipient_frees_nothing_and_the_sender_takes_its_buffers_back() {
    const KEPT: usize = 5;
    let (fabric, r, mut rxs) = lan();
    let mut sender = Sender::default();
    let mut runs: Vec<Vec<Run>> = (0..rxs.len()).map(|_| Vec::new()).collect();
    // Warm the blocks, the inboxes, the run vectors and the pool.
    for i in 0..4 {
        sender.wakeup(&fabric, r, RUN, i);
        drain_all(&mut rxs, &mut runs);
    }

    let sent = sender.wakeup(&fabric, r, RUN, 0xAB).to_vec();
    let (first, last) = rxs.split_at_mut(MEMBERS - 1);
    let (runs_first, runs_last) = runs.split_at_mut(MEMBERS - 1);
    let mut kept = None;
    let (early, ()) = alloc::count(|| {
        let polled = std::pin::pin!(first[0].recv_batch(RUN, &mut runs_first[0]))
            .poll(&mut Context::from_waker(Waker::noop()));
        assert!(polled.is_ready());
        kept = runs_first[0].drain(..).flat_map(|run| run.frames().nth(KEPT).cloned()).next();
        assert_eq!(drain_all(&mut first[1..], &mut runs_first[1..]), (MEMBERS - 2) * RUN * FRAME);
    });
    let kept = kept.expect("member 0 keeps one frame");
    assert_eq!(kept.as_ptr(), sent[KEPT]);
    assert_eq!(early.live, 0, "fifteen readers free nothing: {early:?}");
    let (late, ()) =
        alloc::count(|| assert_eq!(drain(&mut last[0], &mut runs_last[0]), RUN * FRAME));
    assert_eq!((late.allocs, late.live), (0, 0), "the last reader frees nothing: {late:?}");

    // The pool still holds the buffers of the run before; the next
    // wakeup builds in those, and its fill takes this run's back.
    sender.take_pooled();
    sender.wakeup(&fabric, r, RUN, 0);
    let back: HashSet<*const u8> = sender.take_pooled().into_iter().collect();
    let want: HashSet<*const u8> = sent.iter().copied().filter(|&p| p != sent[KEPT]).collect();
    assert_eq!(back, want, "the sender's own buffers, all but the one still viewed");
    assert!(kept.is_unique(), "the sender let go of the kept frame");
    drain_all(&mut rxs, &mut runs);

    for i in 0..1000 {
        let built = sender.wakeup(&fabric, r, RUN, i as u8);
        assert!(!built.contains(&kept.as_ptr()), "wakeup {i} reopened the kept frame");
        drain_all(&mut rxs, &mut runs);
    }
    assert!(kept.iter().all(|&b| b == 0xAB) && kept.len() == FRAME, "the kept bytes never change");
}

/// A burst that spreads over several blocks — five wakeups sent before
/// any member reads — leaves the sender holding no more buffers than
/// those blocks carried, and every buffer it pools is one it built.
#[test]
fn a_burst_over_several_blocks_pools_no_more_than_it_carried() {
    const BLOCKS: usize = 5;
    let (fabric, r, mut rxs) = lan();
    let mut sender = Sender::default();
    let mut runs: Vec<Vec<Run>> = (0..rxs.len()).map(|_| Vec::new()).collect();
    let mut built = HashSet::new();
    for i in 0..BLOCKS {
        built.extend(sender.wakeup(&fabric, r, RUN, i as u8).iter().copied());
    }
    assert_eq!(drain_all(&mut rxs, &mut runs), MEMBERS * BLOCKS * RUN * FRAME);
    for i in 0..3 * BLOCKS {
        built.extend(sender.wakeup(&fabric, r, 1 + i % 3, 0).iter().copied());
        drain_all(&mut rxs, &mut runs);
        assert!(sender.out.pooled() <= BLOCKS * RUN, "wakeup {i}: {} pooled", sender.out.pooled());
    }
    let pooled = sender.take_pooled();
    assert!(!pooled.is_empty(), "the burst's buffers came back");
    assert!(pooled.iter().all(|p| built.contains(p)), "a pooled buffer the sender never built");
    assert_eq!(fabric.snapshot().dropped_overflow, 0);
}
