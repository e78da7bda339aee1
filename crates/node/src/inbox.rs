//! The bounded frame inbox of one node task (one per shard of a
//! router, one per host): a locked queue, one waker slot and
//! `poll_fn` — nothing a particular runtime provides.
//!
//! Both ends do their work once per *run* of frames, not once per
//! frame. [`Inbox::push_run`] enqueues a whole run of transmissions
//! for one recipient under one lock and wakes the receiver at most
//! once; [`InboxRx::recv_batch`] drains a task's whole
//! [`RX_BATCH`](crate::live::RX_BATCH) under one lock. Capacity is
//! still checked frame by frame, so what is accepted, what overflows
//! and the order frames come out in are exactly those of pushing and
//! popping one frame at a time.

use cbt_netsim::Bytes;
use cbt_topology::IfIndex;
use cbt_wire::Addr;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::task::{Poll, Waker};

/// A frame as delivered to a node: which interface it arrived on and
/// who (at the link layer) sent it. The frame bytes are a refcounted
/// handle shared with every other recipient of the same transmission.
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
    queue: VecDeque<RxFrame>,
    capacity: usize,
    /// The receiver's waker while it is parked on an empty queue.
    waker: Option<Waker>,
    /// Deepest the queue has been.
    high_water: usize,
    /// The receiver is gone: pushes are refused, not queued or counted.
    closed: bool,
}

impl Inbox {
    /// An open inbox holding at most `capacity` frames (at least one).
    pub fn bounded(capacity: usize) -> (Arc<Inbox>, InboxRx) {
        let state = State {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            waker: None,
            high_water: 0,
            closed: false,
        };
        let inbox = Arc::new(Inbox { state: Mutex::new(state) });
        (inbox.clone(), InboxRx(inbox))
    }

    /// Enqueues a run of frames that all arrived on `iface` from
    /// `link_src`, in order, under one lock: each frame is accepted if
    /// there is room when its turn comes and counted as overflow
    /// otherwise. A parked receiver is woken once, after the lock is
    /// released. `None` when the inbox is closed (nothing is queued or
    /// counted).
    pub fn push_run<'a>(
        &self,
        iface: IfIndex,
        link_src: Addr,
        frames: impl IntoIterator<Item = &'a Bytes>,
    ) -> Option<Pushed> {
        let mut st = self.state.lock();
        if st.closed {
            return None;
        }
        let mut pushed = Pushed::default();
        for frame in frames {
            if st.queue.len() >= st.capacity {
                pushed.overflowed += 1;
            } else {
                st.queue.push_back(RxFrame { iface, link_src, frame: frame.clone() });
                pushed.accepted += 1;
            }
        }
        st.high_water = st.high_water.max(st.queue.len());
        let waker = if pushed.accepted > 0 { st.waker.take() } else { None };
        drop(st);
        if let Some(w) = waker {
            w.wake();
        }
        Some(pushed)
    }

    /// The deepest this inbox's queue has ever been.
    pub fn high_water(&self) -> usize {
        self.state.lock().high_water
    }
}

/// The receive end of an [`Inbox`]; dropping it closes the inbox.
pub struct InboxRx(Arc<Inbox>);

impl InboxRx {
    /// Waits until at least one frame is queued, then moves up to
    /// `limit` of them (at least one) onto the end of `into`, oldest
    /// first, under one lock. Returns how many it moved. Cancel-safe:
    /// frames leave the queue only in the poll that returns.
    pub async fn recv_batch(&mut self, limit: usize, into: &mut Vec<RxFrame>) -> usize {
        std::future::poll_fn(|cx| {
            let mut st = self.0.state.lock();
            let n = st.queue.len().min(limit.max(1));
            if n > 0 {
                into.extend(st.queue.drain(..n));
                return Poll::Ready(n);
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
        self.0.state.lock().queue.pop_front()
    }
}

impl Drop for InboxRx {
    fn drop(&mut self) {
        self.0.state.lock().closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn frames(n: u8) -> Vec<Bytes> {
        (0..n).map(|i| Bytes::from(vec![i])).collect()
    }

    fn push(inbox: &Inbox, frames: &[Bytes]) -> Option<Pushed> {
        inbox.push_run(IfIndex(0), Addr::NULL, frames)
    }

    /// Polls one `recv_batch` once with `waker`.
    fn poll_recv(
        rx: &mut InboxRx,
        limit: usize,
        into: &mut Vec<RxFrame>,
        waker: &Waker,
    ) -> Poll<usize> {
        let fut = std::pin::pin!(rx.recv_batch(limit, into));
        fut.poll(&mut Context::from_waker(waker))
    }

    /// A run into a nearly full inbox: room is checked per frame under
    /// the one lock, the overflow count is exact, order is kept.
    #[test]
    fn push_run_checks_capacity_per_frame_and_counts_overflow_exactly() {
        let (inbox, mut rx) = Inbox::bounded(4);
        assert_eq!(push(&inbox, &frames(10)), Some(Pushed { accepted: 4, overflowed: 6 }));
        assert_eq!(push(&inbox, &frames(2)), Some(Pushed { accepted: 0, overflowed: 2 }));
        assert_eq!(inbox.high_water(), 4);
        assert_eq!(rx.try_recv().unwrap().frame, vec![0u8]);
        assert_eq!(push(&inbox, &frames(2)), Some(Pushed { accepted: 1, overflowed: 1 }));
        let order: Vec<u8> = std::iter::from_fn(|| rx.try_recv()).map(|f| f.frame[0]).collect();
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
        push(&inbox, &frames(10));
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "one wake for a run of ten");
        push(&inbox, &frames(3));
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "nobody parked, nobody woken");
        assert_eq!(poll_recv(&mut rx, 64, &mut got, &waker), Poll::Ready(4));
        assert!(poll_recv(&mut rx, 64, &mut got, &waker).is_pending());
        push(&inbox, &[]);
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "an empty run wakes nobody");
        push(&inbox, &frames(1));
        assert_eq!(wakes.0.load(Ordering::SeqCst), 2);
    }

    /// `recv_batch` moves at most `limit` frames per call, appends,
    /// and a zero limit still takes one.
    #[test]
    fn recv_batch_honours_limit_and_zero_still_makes_progress() {
        let (inbox, mut rx) = Inbox::bounded(16);
        push(&inbox, &frames(7));
        let waker = Waker::from(Arc::new(CountWakes::default()));
        let mut got = Vec::new();
        assert_eq!(poll_recv(&mut rx, 3, &mut got, &waker), Poll::Ready(3));
        assert_eq!(poll_recv(&mut rx, 0, &mut got, &waker), Poll::Ready(1));
        assert_eq!(poll_recv(&mut rx, 64, &mut got, &waker), Poll::Ready(3));
        let order: Vec<u8> = got.iter().map(|f| f.frame[0]).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6], "appended oldest first");
        assert!(poll_recv(&mut rx, 64, &mut got, &waker).is_pending());
    }

    /// Dropping the receive end closes the inbox: pushes report closed
    /// and count nothing.
    #[test]
    fn a_closed_inbox_reports_closed() {
        let (inbox, rx) = Inbox::bounded(4);
        drop(rx);
        assert_eq!(push(&inbox, &frames(3)), None);
        assert_eq!(inbox.high_water(), 0, "nothing was queued");
    }
}
