//! The bounded frame inbox of one node task (one per shard of a
//! router, one per host): a locked queue of runs, one waker slot and
//! `poll_fn` — nothing a particular runtime provides.
//!
//! A sender's wakeup moves its whole outbox drain into one shared,
//! refcounted [`Batch`], in a block its [`BatchPool`] reuses once no
//! reader holds it any more. An inbox queues [`Run`]s, each a handle
//! to one batch and a range of its frames, so fanning a run out to a
//! LAN costs one handle per recipient, not one per frame.
//!
//! Frames circulate inside the task that built them. A block whose
//! last reader is gone keeps its frames; the next fill of that block
//! ([`BatchPool::fill_from`]) hands each back to the sender's own
//! [`Outbox`], which reopens the buffer only if the block held its last
//! handle ([`Outbox::recycle`]). So a steady flow builds its frames in
//! the buffers of frames it sent before, a frame some other handle
//! still views (a host's delivery log, an [`RxFrame`], a capture) is
//! never rewritten, and a task's pool only ever holds buffers that
//! task built — no more than the frames its blocks carried.
//!
//! Both ends do their work once per run, not once per frame.
//! [`Inbox::push_run`] enqueues one recipient's share of a run under
//! one lock and wakes the receiver at most once; [`InboxRx::recv_batch`]
//! moves up to [`RX_BATCH`](crate::live::RX_BATCH) frames' worth of
//! runs under one lock, splitting the last run at the limit. Capacity
//! and depth are still counted in frames, so what is accepted, what
//! overflows, the high-water mark and the order frames come out in are
//! exactly those of pushing and popping one frame at a time.

use cbt_netsim::{Bytes, Outbox, Transmit};
use cbt_topology::IfIndex;
use cbt_wire::Addr;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::task::{Poll, Waker};

/// A shared handle to one wakeup's outbox drain. The dispatch holds
/// one and every queued [`Run`] holds one. When the last handle drops,
/// the frames stay in the block, which its sender's [`BatchPool`]
/// refills at a later wakeup.
#[derive(Clone)]
pub struct Batch(Arc<Vec<Transmit>>);

impl Batch {
    /// A batch in a block of its own, outside any pool.
    pub fn new(transmits: Vec<Transmit>) -> Batch {
        Batch(Arc::new(transmits))
    }

    /// The batch's transmissions, in send order.
    pub fn transmits(&self) -> &[Transmit] {
        &self.0
    }
}

/// A sender's batch blocks: each wakeup fills one that no reader holds
/// any more, so a steady flow allocates no block after warm-up.
#[derive(Default)]
pub struct BatchPool(Vec<Arc<Vec<Transmit>>>);

impl BatchPool {
    /// Moves everything `out` has queued into a free block — a new one
    /// only while every pooled block is still being read — and hands it
    /// out as a batch. The frames the block carried before go back to
    /// `out` first: [`Outbox::recycle`] pools each buffer the block held
    /// the last handle to and drops the rest, so the next wakeup builds
    /// its frames in them.
    pub fn fill_from(&mut self, out: &mut Outbox) -> Batch {
        let free = match self.0.iter_mut().position(|b| Arc::get_mut(b).is_some()) {
            Some(i) => i,
            None => {
                self.0.push(Arc::default());
                self.0.len() - 1
            }
        };
        let frames = Arc::get_mut(&mut self.0[free]).expect("no handle reads a free block");
        for spent in frames.drain(..) {
            out.recycle(spent.frame);
        }
        frames.extend(out.drain());
        Batch(self.0[free].clone())
    }
}

/// Frames `lo..hi` of one batch as queued at one inbox: all arrived on
/// the same interface from the same link-layer sender.
pub struct Run {
    batch: Batch,
    lo: u32,
    hi: u32,
    /// Arrival interface (0 for hosts).
    pub iface: IfIndex,
    /// Link-layer sender (their address on the shared medium).
    pub link_src: Addr,
}

impl Run {
    /// Frames in the run.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// True for a run of no frames (never queued).
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// The run's frames, oldest first; each is the sender's own handle.
    pub fn frames(&self) -> impl ExactSizeIterator<Item = &Bytes> {
        self.batch.transmits()[self.lo as usize..self.hi as usize].iter().map(|t| &t.frame)
    }

    /// Takes the first `n` frames (fewer than [`Run::len`]) off the
    /// front as a run of their own.
    fn split_to(&mut self, n: usize) -> Run {
        let mid = self.lo + n as u32;
        let head = Run { batch: self.batch.clone(), hi: mid, ..*self };
        self.lo = mid;
        head
    }
}

/// One frame taken out of a run by [`InboxRx::try_recv`], with its own
/// handle to the frame bytes.
#[derive(Debug, Clone)]
pub struct RxFrame {
    /// Arrival interface (0 for hosts).
    pub iface: IfIndex,
    /// Link-layer sender (their address on the shared medium).
    pub link_src: Addr,
    /// The datagram.
    pub frame: Bytes,
}

/// What became of one [`Inbox::push_run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pushed {
    /// Frames enqueued.
    pub accepted: u64,
    /// Frames shed because the inbox was at capacity when their turn
    /// came.
    pub overflowed: u64,
}

/// The send side of a bounded inbox; [`Inbox::bounded`] also returns
/// the one [`InboxRx`] that drains it.
pub struct Inbox {
    state: Mutex<State>,
}

struct State {
    queue: VecDeque<Run>,
    /// Frames queued: the sum of the runs' lengths.
    len: usize,
    capacity: usize,
    /// The receiver's waker while it is parked on an empty queue.
    waker: Option<Waker>,
    /// Deepest the queue has been, in frames.
    high_water: usize,
    /// The receiver is gone: pushes are refused, not queued or counted.
    closed: bool,
}

impl Inbox {
    /// An open inbox holding at most `capacity` frames (at least one).
    pub fn bounded(capacity: usize) -> (Arc<Inbox>, InboxRx) {
        let state = State {
            queue: VecDeque::new(),
            len: 0,
            capacity: capacity.max(1),
            waker: None,
            high_water: 0,
            closed: false,
        };
        let inbox = Arc::new(Inbox { state: Mutex::new(state) });
        (inbox.clone(), InboxRx(inbox))
    }

    /// Enqueues the frames of `batch` in `ranges`, in order, all
    /// arrived on `iface` from `link_src`, under one lock: each frame is
    /// accepted if there is room when its turn comes and counted as
    /// overflow otherwise, and each range's accepted frames queue as
    /// one [`Run`]. A parked receiver is woken once, after the lock is
    /// released. `None` when the inbox is closed (nothing is queued or
    /// counted).
    pub fn push_run(
        &self,
        iface: IfIndex,
        link_src: Addr,
        batch: &Batch,
        ranges: impl IntoIterator<Item = Range<usize>>,
    ) -> Option<Pushed> {
        let mut st = self.state.lock();
        if st.closed {
            return None;
        }
        let mut pushed = Pushed::default();
        for range in ranges {
            let take = range.len().min(st.capacity - st.len);
            if take > 0 {
                let hi = u32::try_from(range.start + take).expect("a batch holds < 2^32 frames");
                let lo = range.start as u32; // below `hi`
                st.queue.push_back(Run { batch: batch.clone(), lo, hi, iface, link_src });
                st.len += take;
            }
            pushed.accepted += take as u64;
            pushed.overflowed += (range.len() - take) as u64;
        }
        st.high_water = st.high_water.max(st.len);
        let waker = if pushed.accepted > 0 { st.waker.take() } else { None };
        drop(st);
        if let Some(w) = waker {
            w.wake();
        }
        Some(pushed)
    }

    /// The deepest this inbox's queue has ever been, in frames.
    pub fn high_water(&self) -> usize {
        self.state.lock().high_water
    }
}

/// The receive end of an [`Inbox`]; dropping it closes the inbox.
pub struct InboxRx(Arc<Inbox>);

impl InboxRx {
    /// Waits until at least one frame is queued, then moves runs
    /// holding up to `limit` frames (at least one) onto the end of
    /// `into`, oldest first, under one lock; a run longer than what is
    /// left of the limit is split, and its tail stays queued. Returns
    /// how many frames it moved. Cancel-safe: frames leave the queue
    /// only in the poll that returns.
    pub async fn recv_batch(&mut self, limit: usize, into: &mut Vec<Run>) -> usize {
        std::future::poll_fn(|cx| {
            let mut st = self.0.state.lock();
            if st.len > 0 {
                let want = limit.max(1);
                let mut left = want;
                while let Some(front) = st.queue.front_mut() {
                    if front.len() > left {
                        into.push(front.split_to(left));
                        left = 0;
                        break;
                    }
                    left -= front.len();
                    into.extend(st.queue.pop_front());
                    if left == 0 {
                        break;
                    }
                }
                st.len -= want - left;
                return Poll::Ready(want - left);
            }
            if !st.waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                st.waker = Some(cx.waker().clone());
            }
            Poll::Pending
        })
        .await
    }

    /// The oldest queued frame, if any, without waiting.
    pub fn try_recv(&mut self) -> Option<RxFrame> {
        let mut st = self.0.state.lock();
        let front = st.queue.front_mut()?;
        let frame = front.frames().next().expect("a queued run is not empty").clone();
        let got = RxFrame { iface: front.iface, link_src: front.link_src, frame };
        front.lo += 1;
        if front.is_empty() {
            st.queue.pop_front();
        }
        st.len -= 1;
        Some(got)
    }
}

impl Drop for InboxRx {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.closed = true;
        // Nobody will read what is queued: let its batches go.
        let queued = std::mem::take(&mut st.queue);
        st.len = 0;
        drop(st);
        drop(queued);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::future::Future;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::{Context, Wake};

    /// A waker that counts how often it is woken.
    #[derive(Default)]
    struct CountWakes(AtomicUsize);
    impl Wake for CountWakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A batch of `n` one-frame transmissions numbered from `first`
    /// (the frame's four bytes, little-endian).
    fn batch_from(first: u32, n: usize) -> Batch {
        let frame = |i: u32| Bytes::from((first + i).to_le_bytes().to_vec());
        let send = |i| Transmit { iface: IfIndex(0), link_dst: None, frame: frame(i) };
        Batch::new((0..n as u32).map(send).collect())
    }

    fn tag(frame: &Bytes) -> u32 {
        u32::from_le_bytes(frame[..4].try_into().unwrap())
    }

    fn push(inbox: &Inbox, n: usize) -> Option<Pushed> {
        inbox.push_run(IfIndex(0), Addr::NULL, &batch_from(0, n), std::iter::once(0..n))
    }

    /// Polls one `recv_batch` once with `waker`.
    fn poll_recv(
        rx: &mut InboxRx,
        limit: usize,
        into: &mut Vec<Run>,
        waker: &Waker,
    ) -> Poll<usize> {
        let fut = std::pin::pin!(rx.recv_batch(limit, into));
        fut.poll(&mut Context::from_waker(waker))
    }

    /// The frame numbers in `runs`, in order.
    fn tags(runs: &[Run]) -> Vec<u32> {
        runs.iter().flat_map(|r| r.frames().map(tag)).collect()
    }

    /// A run into a nearly full inbox: room is checked per frame under
    /// the one lock, the overflow count is exact, order is kept.
    #[test]
    fn push_run_checks_capacity_per_frame_and_counts_overflow_exactly() {
        let (inbox, mut rx) = Inbox::bounded(4);
        assert_eq!(push(&inbox, 10), Some(Pushed { accepted: 4, overflowed: 6 }));
        assert_eq!(push(&inbox, 2), Some(Pushed { accepted: 0, overflowed: 2 }));
        assert_eq!(inbox.high_water(), 4);
        assert_eq!(tag(&rx.try_recv().unwrap().frame), 0);
        assert_eq!(push(&inbox, 2), Some(Pushed { accepted: 1, overflowed: 1 }));
        let order: Vec<u32> = std::iter::from_fn(|| rx.try_recv()).map(|f| tag(&f.frame)).collect();
        assert_eq!(order, [1, 2, 3, 0], "FIFO across runs");
        assert_eq!(inbox.high_water(), 4, "a high-water mark does not fall");
    }

    /// A parked receiver is woken once per run, however long the run,
    /// and not at all by a run that was shed whole or by pushes while
    /// it is not parked.
    #[test]
    fn a_parked_receiver_is_woken_once_per_run() {
        let (inbox, mut rx) = Inbox::bounded(4);
        let wakes = Arc::new(CountWakes::default());
        let waker = Waker::from(wakes.clone());
        let mut got = Vec::new();
        assert!(poll_recv(&mut rx, 64, &mut got, &waker).is_pending());
        push(&inbox, 10);
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "one wake for a run of ten");
        push(&inbox, 3);
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "nobody parked, nobody woken");
        assert_eq!(poll_recv(&mut rx, 64, &mut got, &waker), Poll::Ready(4));
        assert!(poll_recv(&mut rx, 64, &mut got, &waker).is_pending());
        push(&inbox, 0);
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "an empty run wakes nobody");
        push(&inbox, 1);
        assert_eq!(wakes.0.load(Ordering::SeqCst), 2);
    }

    /// `recv_batch` moves at most `limit` frames per call, splitting
    /// the run that straddles the limit, appends, and a zero limit
    /// still takes one.
    #[test]
    fn recv_batch_honours_limit_and_zero_still_makes_progress() {
        let (inbox, mut rx) = Inbox::bounded(16);
        push(&inbox, 7);
        let waker = Waker::from(Arc::new(CountWakes::default()));
        let mut got = Vec::new();
        assert_eq!(poll_recv(&mut rx, 3, &mut got, &waker), Poll::Ready(3));
        assert_eq!(poll_recv(&mut rx, 0, &mut got, &waker), Poll::Ready(1));
        assert_eq!(poll_recv(&mut rx, 64, &mut got, &waker), Poll::Ready(3));
        assert_eq!(tags(&got), [0, 1, 2, 3, 4, 5, 6], "appended oldest first");
        assert_eq!(got.iter().map(Run::len).collect::<Vec<_>>(), [3, 1, 3], "one run, split twice");
        assert!(poll_recv(&mut rx, 64, &mut got, &waker).is_pending());
    }

    /// Dropping the receive end closes the inbox: pushes report closed
    /// and count nothing, and what was queued is let go.
    #[test]
    fn a_closed_inbox_reports_closed() {
        let (inbox, rx) = Inbox::bounded(4);
        let batch = batch_from(0, 3);
        inbox.push_run(IfIndex(0), Addr::NULL, &batch, std::iter::once(0..3));
        drop(rx);
        assert_eq!(push(&inbox, 3), None);
        assert_eq!(inbox.high_water(), 3, "only the push before the close was queued");
        assert_eq!(Arc::strong_count(&batch.0), 1, "the queued run's handle is gone");
    }

    /// A batch's last handle — the dispatch's or a queued run's,
    /// whichever is last — frees nothing: the frames stay in the block.
    /// The sender's next fill of that block hands its outbox back
    /// exactly the buffers no other handle views, each the allocation
    /// it sent, and drops the one an `RxFrame` still holds.
    #[test]
    fn the_last_handle_frees_nothing_and_the_refill_takes_the_buffers_back() {
        let mut pool = BatchPool::default();
        let mut out = Outbox::new();
        let (inbox, mut rx) = Inbox::bounded(8);
        let sent: Vec<Bytes> =
            batch_from(0, 4).transmits().iter().map(|t| t.frame.clone()).collect();
        let at: Vec<*const u8> = sent.iter().map(|f| f.as_ptr()).collect();
        for frame in &sent {
            out.send(IfIndex(0), frame.clone());
        }
        let batch = pool.fill_from(&mut out);
        inbox.push_run(IfIndex(0), Addr::NULL, &batch, std::iter::once(1..3));
        drop(batch);
        let mut got = Vec::new();
        let waker = Waker::from(Arc::new(CountWakes::default()));
        assert_eq!(poll_recv(&mut rx, 1, &mut got, &waker), Poll::Ready(1));
        drop(pool.fill_from(&mut out));
        assert_eq!(pool.0.len(), 2, "the first block is still read");
        drop(got);
        let kept = rx.try_recv().expect("the queued tail");
        assert_eq!(tag(&kept.frame), 2);
        assert!(sent.iter().all(|f| !f.is_unique()), "the last reader freed no frame");
        drop(sent);
        assert_eq!(out.pooled(), 0, "nothing is taken back before the refill");
        drop(pool.fill_from(&mut out));
        assert_eq!(pool.0.len(), 2, "both blocks were free again");
        let mut back: Vec<*const u8> =
            std::iter::from_fn(|| (out.pooled() > 0).then(|| out.buffer().as_ptr())).collect();
        back.sort();
        let mut want = vec![at[0], at[1], at[3]];
        want.sort();
        assert_eq!(back, want, "the sender's own buffers, all but the one still viewed");
        assert!(kept.frame.is_unique(), "the viewed frame was let go, not reopened");
        assert_eq!(tag(&kept.frame), 2);
    }

    /// One step of the model test: `(kind, n)`.
    /// - kinds 0–2: push a run of `n` frames as two ranges (kind 2:
    ///   with the middle frame left out, as a sharded router's
    ///   sub-runs);
    /// - 3–4: poll `recv_batch` once with limit `n`;
    /// - 5–6: `try_recv`;
    /// - 7: close, when `n` is 0 (push otherwise).
    fn step() -> impl Strategy<Value = (u8, usize)> {
        (0u8..8, 0usize..21)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Runs against a frame-by-frame `VecDeque<Bytes>` model: the
        /// accepted and overflowed counts of every push, the high-water
        /// mark, the order frames come out in and the wake count all
        /// match, over random capacities, run lengths, receive limits
        /// (zero included), interleaved `try_recv`s and a close.
        #[test]
        fn runs_match_a_frame_by_frame_model(
            capacity in 1usize..9,
            ops in proptest::collection::vec(step(), 0..120),
        ) {
            let (inbox, rx) = Inbox::bounded(capacity);
            let mut rx = Some(rx);
            let wakes = Arc::new(CountWakes::default());
            let waker = Waker::from(wakes.clone());
            let mut model: VecDeque<Bytes> = VecDeque::new();
            let (mut model_high, mut model_wakes, mut parked) = (0usize, 0usize, false);
            let mut next = 0u32;
            let mut got = Vec::new();
            for (kind, n) in ops {
                match (kind, rx.as_mut()) {
                    (7, Some(_)) if n == 0 => {
                        rx = None;
                        model.clear();
                    }
                    (0..=2 | 7, _) => {
                        let batch = batch_from(next, n);
                        next += n as u32;
                        // Kind 2 leaves frame n / 2 out; the others
                        // push an empty second range.
                        let mid = if kind == 2 { n / 2 } else { n };
                        let ranges = vec![0..mid, (mid + 1).min(n)..n];
                        let pushed = inbox.push_run(IfIndex(0), Addr::NULL, &batch, ranges.clone());
                        let want = rx.as_ref().map(|_| {
                            let mut p = Pushed::default();
                            for f in ranges.into_iter().flat_map(|r| batch.transmits()[r].to_vec()) {
                                if model.len() < capacity {
                                    model.push_back(f.frame);
                                    p.accepted += 1;
                                } else {
                                    p.overflowed += 1;
                                }
                            }
                            model_high = model_high.max(model.len());
                            if parked && p.accepted > 0 {
                                parked = false;
                                model_wakes += 1;
                            }
                            p
                        });
                        prop_assert_eq!(pushed, want);
                    }
                    (3 | 4, Some(rx)) => {
                        got.clear();
                        let polled = poll_recv(rx, n, &mut got, &waker);
                        let take = model.len().min(n.max(1));
                        let want: Vec<u32> = model.drain(..take).map(|f| tag(&f)).collect();
                        if want.is_empty() {
                            prop_assert!(polled.is_pending());
                            parked = true;
                        } else {
                            prop_assert_eq!(polled, Poll::Ready(want.len()));
                            prop_assert_eq!(tags(&got), want);
                        }
                    }
                    (5 | 6, Some(rx)) => {
                        let popped = rx.try_recv().map(|f| tag(&f.frame));
                        prop_assert_eq!(popped, model.pop_front().map(|f| tag(&f)));
                    }
                    _ => {}
                }
                prop_assert_eq!(inbox.high_water(), model_high);
                prop_assert_eq!(wakes.0.load(Ordering::SeqCst), model_wakes);
            }
            if let Some(mut rx) = rx {
                let rest: Vec<u32> = std::iter::from_fn(|| rx.try_recv()).map(|f| tag(&f.frame)).collect();
                prop_assert_eq!(rest, model.iter().map(tag).collect::<Vec<_>>());
            }
        }
    }
}
