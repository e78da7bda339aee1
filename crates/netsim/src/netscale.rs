//! # Netscale world — a flat point-to-point fleet on the CSR arena
//!
//! [`crate::world::World`] models every interface, LAN, host and
//! datagram of a [`cbt_topology::NetworkSpec`]; that fidelity tops out
//! around a few thousand routers. This module is the other end of the
//! trade: **protocol engines at internet scale**. Routers are dense
//! slots in a `Vec`, links are the directed slots of a
//! [`cbt_topology::CsrGraph`], frames are opaque byte buffers delivered
//! point-to-point with per-edge latency and recycled through the
//! outbox's pool, and tracing is a handful of flat counters — no
//! `HashMap` is touched anywhere on the hot path.
//!
//! ## The interface-number contract
//!
//! Interface `k` of node `u` is the `k`-th directed slot of `u`'s CSR
//! range (`slot == graph.slot_base(u) + k`). Both sides of the system
//! lean on this: the world's delivery plan maps `(u, k)` to the peer
//! and the peer's reverse interface, and route tables computed from an
//! [`cbt_topology::SpfTree`] over the *same* graph emit the same `k`
//! for "toward that neighbour". No per-node address maps exist at all.
//!
//! ## Scheduling
//!
//! Two queues drive the loop: a FIFO-stable arrival queue (frames in
//! flight) and a wakeup heap keyed by each node's self-reported
//! [`NsNode::next_wakeup`]. At equal instants every arrival is serviced
//! before any wakeup, and within each queue insertion order wins, so
//! runs replay bit-identically. The full-fidelity
//! [`crate::world::World`] breaks ties differently: wakes and arrivals
//! share one queue and one insertion counter, so a wake queued before
//! an arrival at the same instant runs first. The wakeup heap re-keys
//! lazily: a node whose deadline did not change is never re-pushed, and
//! stale entries are skipped on pop. Idle nodes (no wakeup) cost
//! nothing per tick. A wakeup is registered clamped at the current
//! instant, as in `World`: an overdue deadline fires now, and the
//! clock never runs back.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use cbt_topology::{CsrGraph, NO_NODE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One protocol engine living in a [`NetscaleWorld`] slot.
///
/// The world neither knows nor cares what the frames mean; the adapter
/// implementing this trait owns framing and dispatch.
pub trait NsNode {
    /// A frame arrived on local interface `iface`.
    fn on_frame(&mut self, now: SimTime, iface: u32, frame: &[u8], out: &mut NsOutbox);
    /// The node's announced wakeup instant has been reached.
    fn on_timer(&mut self, now: SimTime, out: &mut NsOutbox);
    /// Earliest instant this node wants [`NsNode::on_timer`] service,
    /// re-read after every entry point. Must be *exact* — a spurious
    /// early wake re-orders the node against its peers.
    fn next_wakeup(&self) -> Option<SimTime>;
}

/// Per-call send buffer handed to [`NsNode`] entry points, plus the
/// fleet's pool of frame buffers. A node builds a frame in place with
/// [`NsOutbox::frame`]; the world returns the buffer to the pool once
/// the frame has been delivered or dropped, so a steady exchange of
/// frames allocates nothing. The pool holds at most the peak number of
/// frames that were in flight at once.
#[derive(Debug, Default)]
pub struct NsOutbox {
    sends: Vec<(u32, Vec<u8>)>,
    /// Spent frame buffers, capacity kept, contents stale.
    pool: Vec<Vec<u8>>,
}

impl NsOutbox {
    /// Queues `frame` for transmission on local interface `iface`. The
    /// buffer joins the pool at delivery like any other.
    pub fn send(&mut self, iface: u32, frame: Vec<u8>) {
        self.sends.push((iface, frame));
    }

    /// Queues an empty frame on local interface `iface` and hands out
    /// its buffer — drawn from the pool — for the caller to fill.
    pub fn frame(&mut self, iface: u32) -> &mut Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        self.sends.push((iface, buf));
        &mut self.sends.last_mut().expect("just pushed").1
    }

    /// Takes back the frame queued last (a caller whose encode into
    /// [`NsOutbox::frame`]'s buffer failed); its buffer is recycled.
    pub fn unsend(&mut self) {
        if let Some((_, buf)) = self.sends.pop() {
            self.pool.push(buf);
        }
    }
}

/// One directed link slot of the delivery plan.
#[derive(Debug, Clone, Copy)]
struct Port {
    /// Receiving node.
    peer: u32,
    /// The receiver's local interface number for this link.
    peer_iface: u32,
    /// One-way propagation delay.
    latency: SimDuration,
}

/// A frame in flight.
struct Arrive {
    node: u32,
    iface: u32,
    frame: Vec<u8>,
}

/// Lazy-deletion wakeup heap over the fleet: one live entry per node
/// with a pending deadline, re-keyed only when the deadline changes.
struct WakeSched {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    seq: u64,
    /// The currently registered deadline per node; heap entries that
    /// disagree are stale and skipped on pop.
    scheduled: Vec<Option<SimTime>>,
}

impl WakeSched {
    fn new(n: usize) -> Self {
        WakeSched { heap: BinaryHeap::new(), seq: 0, scheduled: vec![None; n] }
    }

    /// Registers node `node`'s deadline. Unchanged deadlines are a
    /// no-op — the common case after a frame that armed nothing new.
    fn set(&mut self, node: u32, t: Option<SimTime>) {
        if self.scheduled[node as usize] == t {
            return;
        }
        self.scheduled[node as usize] = t;
        if let Some(t) = t {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse((t, seq, node)));
        }
    }

    /// Earliest *valid* deadline, draining stale heads.
    fn peek(&mut self) -> Option<SimTime> {
        while let Some(Reverse((t, _, node))) = self.heap.peek() {
            if self.scheduled[*node as usize] == Some(*t) {
                return Some(*t);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops the node behind the head returned by [`WakeSched::peek`].
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.peek()?;
        let Reverse((t, _, node)) = self.heap.pop().expect("peek found a head");
        self.scheduled[node as usize] = None;
        Some((t, node))
    }
}

/// Flat, counters-only transmission trace. Per-directed-slot frame
/// counts support "control packets per second per link" without a
/// single hash lookup on the send path.
#[derive(Debug)]
pub struct NsTrace {
    /// Frames sent per directed CSR slot.
    pub slot_frames: Vec<u64>,
    /// Total frames sent.
    pub frames: u64,
    /// Total frame bytes sent.
    pub bytes: u64,
    /// Events serviced (arrivals + wakeups).
    pub events: u64,
    /// Frames dropped at transmission because the directed slot was
    /// masked down (link flap).
    pub dropped_link_down: u64,
    /// Frames dropped at delivery because the receiving node was
    /// crashed at the arrival instant.
    pub dropped_node_down: u64,
}

impl NsTrace {
    /// The busiest directed slot as `(slot, frames)`, if any traffic
    /// flowed at all.
    pub fn busiest_slot(&self) -> Option<(u32, u64)> {
        let (s, f) = self.slot_frames.iter().enumerate().max_by_key(|&(s, f)| (*f, Reverse(s)))?;
        (*f > 0).then_some((s as u32, *f))
    }
}

/// The netscale world: `nodes[i]` is router `i` of the CSR graph the
/// delivery plan was built from.
pub struct NetscaleWorld<N> {
    /// The engines, indexed by CSR node id. Mutating a node directly
    /// bypasses wakeup re-keying — use [`NetscaleWorld::with_node`].
    nodes: Vec<N>,
    /// First slot per node (`n + 1` entries, CSR offsets).
    base: Vec<u32>,
    /// Delivery plan per directed slot.
    ports: Vec<Port>,
    queue: EventQueue<Arrive>,
    wake: WakeSched,
    now: SimTime,
    outbox: NsOutbox,
    /// Liveness mask per directed slot: a downed slot drops frames at
    /// transmission. Mirrors (but does not read) the CSR `live` mask —
    /// the world owns delivery, the graph owns route computation.
    slot_up: Vec<bool>,
    /// Liveness per node: a crashed node receives no frames and no
    /// timer service until restarted.
    node_up: Vec<bool>,
    /// Flat counters; reset between measurement windows if needed.
    pub trace: NsTrace,
}

impl<N: NsNode> NetscaleWorld<N> {
    /// Assembles the world from engines plus the CSR graph and its
    /// slot pairs (both straight out of [`CsrGraph::from_edges`] over
    /// `edges`). `latency` maps an edge weight to a one-way delay.
    ///
    /// Panics if `nodes` does not cover the graph.
    pub fn new(
        nodes: Vec<N>,
        graph: &CsrGraph,
        pairs: &[[u32; 2]],
        edges: &[(u32, u32, u32)],
        latency: impl Fn(u32) -> SimDuration,
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(nodes.len(), n, "one engine per CSR node");
        assert_eq!(pairs.len(), edges.len(), "one slot pair per edge");
        let mut base: Vec<u32> = (0..n as u32).map(|u| graph.slot_base(u)).collect();
        base.push(graph.slot_count() as u32); // end sentinel
        let dead = Port { peer: NO_NODE, peer_iface: 0, latency: SimDuration::from_micros(0) };
        let mut ports = vec![dead; graph.slot_count()];
        for (k, &(a, b, w)) in edges.iter().enumerate() {
            let [sa, sb] = pairs[k];
            if sa == NO_NODE {
                continue; // self-loop
            }
            let lat = latency(w);
            ports[sa as usize] = Port { peer: b, peer_iface: sb - base[b as usize], latency: lat };
            ports[sb as usize] = Port { peer: a, peer_iface: sa - base[a as usize], latency: lat };
        }
        let wake = WakeSched::new(n);
        let mut w = NetscaleWorld {
            nodes,
            base,
            ports,
            // Frames in flight at once scale with the active minority,
            // not the fleet; the burst headroom avoids early regrowth.
            queue: EventQueue::with_capacity(1024),
            wake,
            now: SimTime::ZERO,
            outbox: NsOutbox::default(),
            slot_up: vec![true; graph.slot_count()],
            node_up: vec![true; n],
            trace: NsTrace {
                slot_frames: vec![0; graph.slot_count()],
                frames: 0,
                bytes: 0,
                events: 0,
                dropped_link_down: 0,
                dropped_node_down: 0,
            },
        };
        for i in 0..n as u32 {
            w.rekey(i);
        }
        w
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of engines.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to an engine.
    pub fn node(&self, i: u32) -> &N {
        &self.nodes[i as usize]
    }

    /// Is node `i` currently up?
    pub fn is_node_up(&self, i: u32) -> bool {
        self.node_up[i as usize]
    }

    /// Masks or unmasks both directed slots of an undirected edge, as
    /// returned by [`cbt_topology::CsrGraph::from_edges`]. Frames sent
    /// on a downed slot are dropped at transmission (and counted);
    /// frames already in flight when the slot goes down still arrive —
    /// the wire does not eat what it already accepted.
    pub fn set_link_up(&mut self, pair: [u32; 2], up: bool) {
        if pair[0] != NO_NODE {
            self.slot_up[pair[0] as usize] = up;
            self.slot_up[pair[1] as usize] = up;
        }
    }

    /// Crashes node `i`: it is unscheduled from the wakeup heap (a
    /// stale heap entry must never fire `on_timer` on a dead engine)
    /// and every frame arriving while it is down is dropped and
    /// counted. The engine's in-memory state is left untouched — a
    /// §6.2 restart replaces it via [`NetscaleWorld::restart_node`].
    pub fn crash_node(&mut self, i: u32) {
        self.node_up[i as usize] = false;
        self.wake.set(i, None);
    }

    /// Restarts a crashed node: `f` resets (or replaces) the engine —
    /// per CBT §6.2 a restarted router comes back with empty state —
    /// then the node is marked up and its self-reported wakeup is
    /// re-registered.
    pub fn restart_node(&mut self, i: u32, f: impl FnOnce(&mut N)) {
        f(&mut self.nodes[i as usize]);
        self.node_up[i as usize] = true;
        self.rekey(i);
    }

    /// Runs `f` against engine `i` (external input injection: local
    /// joins, failures…), delivers whatever it sent and re-keys the
    /// node's wakeup. `now` is passed through for convenience.
    pub fn with_node<R>(
        &mut self,
        i: u32,
        f: impl FnOnce(&mut N, SimTime, &mut NsOutbox) -> R,
    ) -> R {
        debug_assert!(self.node_up[i as usize], "input injected into a crashed node");
        let r = f(&mut self.nodes[i as usize], self.now, &mut self.outbox);
        self.flush(i);
        r
    }

    /// Ships everything in the outbox from node `i` and re-registers
    /// its wakeup.
    fn flush(&mut self, i: u32) {
        let base = self.base[i as usize];
        while let Some((iface, frame)) = self.outbox.sends.pop() {
            let slot = (base + iface) as usize;
            let port = self.ports[slot];
            debug_assert_ne!(port.peer, NO_NODE, "send on an unwired interface");
            if !self.slot_up[slot] {
                self.trace.dropped_link_down += 1;
                self.outbox.pool.push(frame);
                continue;
            }
            self.trace.slot_frames[slot] += 1;
            self.trace.frames += 1;
            self.trace.bytes += frame.len() as u64;
            self.queue.push(
                self.now + port.latency,
                Arrive { node: port.peer, iface: port.peer_iface, frame },
            );
        }
        self.rekey(i);
    }

    /// Re-registers node `i`'s self-reported wakeup, clamped at `now`
    /// as [`crate::world::World`] clamps its wakes: an overdue deadline
    /// (an engine that re-arms a clock from a past instant) fires now,
    /// and the clock never runs backwards.
    fn rekey(&mut self, i: u32) {
        let t = self.nodes[i as usize].next_wakeup().map(|t| t.max(self.now));
        self.wake.set(i, t);
    }

    /// Advances the world to `deadline`, servicing every arrival and
    /// wakeup due on the way. Arrivals win same-instant ties against
    /// wakeups (a frame processed at `t` may cancel the timer that was
    /// due at `t` — the engine's word on its own deadline is final).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(due) = self.next_due().filter(|&(t, _)| t <= deadline) {
            self.service(due);
        }
        self.now = deadline;
    }

    /// The next event as `(instant, is_arrival)`: the earlier of the
    /// arrival queue's head and the wakeup heap's valid head, arrivals
    /// winning a tie.
    fn next_due(&mut self) -> Option<(SimTime, bool)> {
        match (self.queue.peek_time(), self.wake.peek()) {
            (None, None) => None,
            (Some(a), None) => Some((a, true)),
            (None, Some(w)) => Some((w, false)),
            (Some(a), Some(w)) => Some(if a <= w { (a, true) } else { (w, false) }),
        }
    }

    /// Services the event [`NetscaleWorld::next_due`] just reported.
    fn service(&mut self, (at, is_arrival): (SimTime, bool)) {
        debug_assert!(at >= self.now, "the clock ran back from {:?} to {at:?}", self.now);
        self.now = at;
        if is_arrival {
            let (_, arr) = self.queue.pop().expect("peeked");
            if self.node_up[arr.node as usize] {
                self.trace.events += 1;
                self.nodes[arr.node as usize].on_frame(
                    self.now,
                    arr.iface,
                    &arr.frame,
                    &mut self.outbox,
                );
                self.flush(arr.node);
            } else {
                self.trace.dropped_node_down += 1;
            }
            // Only now: sends made during the frame's own `on_frame`
            // must not be handed the bytes it is still reading.
            self.outbox.pool.push(arr.frame);
        } else {
            let (_, node) = self.wake.pop().expect("peeked");
            debug_assert!(self.node_up[node as usize], "crashed node left in WakeSched");
            self.trace.events += 1;
            self.nodes[node as usize].on_timer(self.now, &mut self.outbox);
            self.flush(node);
        }
    }

    /// Buffers resting in the frame pool (see [`NsOutbox`]).
    pub fn pooled_frames(&self) -> usize {
        self.outbox.pool.len()
    }

    /// Drives the world until no arrival or wakeup remains at or
    /// before `limit` (protocol quiescence), returning the instant the
    /// last event was serviced. The fleet has converged when this
    /// returns before `limit` — pass a horizon generous enough that
    /// periodic keepalives are the only thing left, or use it between
    /// membership bursts with keepalives not yet due.
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> SimTime {
        while let Some(due) = self.next_due().filter(|&(t, _)| t <= limit) {
            self.service(due);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_micros(x * 1000)
    }

    /// A toy node: forwards every frame out its other interfaces with
    /// a hop-count byte, wakes once at a fixed instant.
    struct Relay {
        degree: u32,
        wake_at: Option<SimTime>,
        /// The instants `on_timer` ran at.
        woke: Vec<SimTime>,
        got: Vec<(SimTime, u32, u8)>,
    }

    impl NsNode for Relay {
        fn on_frame(&mut self, now: SimTime, iface: u32, frame: &[u8], out: &mut NsOutbox) {
            let hops = frame[0];
            self.got.push((now, iface, hops));
            if hops > 0 {
                for k in 0..self.degree {
                    if k != iface {
                        out.send(k, vec![hops - 1]);
                    }
                }
            }
        }
        fn on_timer(&mut self, now: SimTime, _out: &mut NsOutbox) {
            self.woke.push(now);
            self.wake_at = None;
        }
        fn next_wakeup(&self) -> Option<SimTime> {
            self.wake_at
        }
    }

    fn line3() -> (NetscaleWorld<Relay>, Vec<[u32; 2]>) {
        // 0 — 1 — 2, weight = latency in ms.
        let edges = vec![(0, 1, 1), (1, 2, 2)];
        let (g, pairs) = CsrGraph::from_edges(3, &edges);
        let nodes = (0..3)
            .map(|i| Relay {
                degree: if i == 1 { 2 } else { 1 },
                wake_at: None,
                woke: Vec::new(),
                got: Vec::new(),
            })
            .collect();
        let w =
            NetscaleWorld::new(nodes, &g, &pairs, &edges, |w| SimDuration::from_millis(w as u64));
        (w, pairs)
    }

    #[test]
    fn frames_ride_the_plan_with_latency() {
        let (mut w, _) = line3();
        w.with_node(0, |_n, _now, out| out.send(0, vec![2]));
        w.run_until(SimTime::from_secs(1));
        // Node 1 hears it 1 ms in on its iface toward 0, node 2 at 3 ms
        // (1 ms + the second edge's 2 ms).
        assert_eq!(w.node(1).got, vec![(ms(1), 0, 2)]);
        assert_eq!(w.node(2).got, vec![(ms(3), 0, 1)]);
        // The relay never reflects back out the arrival interface.
        assert_eq!(w.node(0).got, vec![]);
        assert_eq!(w.trace.frames, 2, "origin + relay; the leaf has nowhere to go");
        assert_eq!(w.trace.bytes, 2);
    }

    #[test]
    fn per_slot_counters_name_the_busy_link() {
        let (mut w, pairs) = line3();
        w.with_node(0, |_n, _now, out| out.send(0, vec![2]));
        w.run_until(SimTime::from_secs(1));
        // Directed slot 0→1 carried exactly one frame, its reverse none,
        // and the relayed copy rode 1→2.
        assert_eq!(w.trace.slot_frames[pairs[0][0] as usize], 1);
        assert_eq!(w.trace.slot_frames[pairs[0][1] as usize], 0);
        assert_eq!(w.trace.slot_frames[pairs[1][0] as usize], 1);
        assert!(w.trace.busiest_slot().is_some());
    }

    #[test]
    fn wakeups_fire_once_and_rekey_lazily() {
        let (mut w, _) = line3();
        w.with_node(1, |n, _now, _out| n.wake_at = Some(ms(5)));
        // Re-keying to the same instant must not duplicate service.
        w.with_node(1, |_n, _now, _out| {});
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(1).woke, vec![ms(5)]);
        assert_eq!(w.node(0).woke, vec![]);
    }

    #[test]
    fn arrivals_win_same_instant_ties() {
        let (mut w, _) = line3();
        // Node 1 wakes exactly when node 0's frame lands (1 ms).
        w.with_node(1, |n, _now, _out| n.wake_at = Some(ms(1)));
        w.with_node(0, |_n, _now, out| out.send(0, vec![0]));
        w.run_until(ms(1));
        let n1 = w.node(1);
        assert_eq!(n1.got.len(), 1, "frame delivered");
        assert_eq!(n1.woke, vec![ms(1)], "wake at the same instant still serviced");
    }

    #[test]
    fn downed_link_drops_at_send_until_restored() {
        let (mut w, pairs) = line3();
        w.set_link_up(pairs[0], false);
        w.with_node(0, |_n, _now, out| out.send(0, vec![0]));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(1).got, vec![], "frame died on the downed link");
        assert_eq!(w.trace.dropped_link_down, 1);
        assert_eq!(w.trace.frames, 0, "a dropped frame is not a sent frame");

        w.set_link_up(pairs[0], true);
        w.with_node(0, |_n, _now, out| out.send(0, vec![0]));
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.node(1).got.len(), 1, "restored link carries frames again");
        assert_eq!(w.trace.dropped_link_down, 1);
    }

    #[test]
    fn frames_in_flight_survive_a_flap_behind_them() {
        let (mut w, pairs) = line3();
        w.with_node(0, |_n, _now, out| out.send(0, vec![0]));
        // The slot goes down after the frame was accepted by the wire.
        w.set_link_up(pairs[0], false);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(1).got.len(), 1, "in-flight frame still delivered");
        assert_eq!(w.trace.dropped_link_down, 0);
    }

    #[test]
    fn crashed_node_drops_arrivals_and_never_wakes() {
        let (mut w, _) = line3();
        // Node 1 has a pending wakeup, then crashes before it fires:
        // the stale heap entry must never resurrect the dead engine.
        w.with_node(1, |n, _now, _out| n.wake_at = Some(ms(5)));
        w.crash_node(1);
        assert!(!w.is_node_up(1));
        w.with_node(0, |_n, _now, out| out.send(0, vec![2]));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(1).woke, vec![], "no timer service on a crashed node");
        assert_eq!(w.node(1).got, vec![], "no frame delivery to a crashed node");
        assert_eq!(w.trace.dropped_node_down, 1);
    }

    #[test]
    fn restart_rearms_even_at_the_crashed_deadline() {
        let (mut w, _) = line3();
        // The aliasing trap: crash at a pending deadline, restart
        // re-announcing the *same* instant. The pre-crash heap entry is
        // stale; the post-restart one must fire — exactly once.
        w.with_node(1, |n, _now, _out| n.wake_at = Some(ms(5)));
        w.crash_node(1);
        w.restart_node(1, |n| {
            n.woke.clear();
            n.got.clear();
            n.wake_at = Some(ms(5));
        });
        assert!(w.is_node_up(1));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(1).woke, vec![ms(5)], "restarted engine woke exactly once");
    }

    #[test]
    fn an_overdue_wakeup_fires_now_and_the_clock_never_runs_back() {
        // A node may report a deadline that already passed — an engine
        // that re-arms a clock from an old instant does. It fires at
        // the current instant, after the arrivals due then, and the
        // world's clock never steps back to it.
        let (mut w, _) = line3();
        let later = SimTime::from_secs(10);
        w.run_until(later);
        w.with_node(1, |n, _now, _out| n.wake_at = Some(ms(5)));
        w.with_node(0, |_n, _now, out| out.send(0, vec![0]));
        w.run_until(SimTime::from_secs(20));
        assert_eq!(w.node(1).woke, vec![later], "fired once, at the instant it was reported");
        assert_eq!(w.node(1).got, vec![(later + SimDuration::from_millis(1), 0, 0)]);
        // The same at a restart that comes back with an old deadline.
        w.crash_node(2);
        w.restart_node(2, |n| n.wake_at = Some(ms(5)));
        w.run_until(SimTime::from_secs(30));
        assert_eq!(w.node(2).woke, vec![SimTime::from_secs(20)]);
    }

    /// Answers `[ttl, body…]` on the arrival interface with `[ttl - 1,
    /// body + 1…]` built in a pooled buffer, then logs what it read.
    struct Mirror {
        got: Vec<Vec<u8>>,
    }

    impl NsNode for Mirror {
        fn on_frame(&mut self, _now: SimTime, iface: u32, frame: &[u8], out: &mut NsOutbox) {
            if frame[0] > 0 {
                let reply = out.frame(iface);
                reply.push(frame[0] - 1);
                reply.extend(frame[1..].iter().map(|b| b + 1));
            }
            self.got.push(frame.to_vec());
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut NsOutbox) {}
        fn next_wakeup(&self) -> Option<SimTime> {
            None
        }
    }

    #[test]
    fn pooled_buffers_carry_replies_without_touching_the_frame_being_read() {
        let edges = vec![(0, 1, 1)];
        let (g, pairs) = CsrGraph::from_edges(2, &edges);
        let nodes = vec![Mirror { got: Vec::new() }, Mirror { got: Vec::new() }];
        let mut w =
            NetscaleWorld::new(nodes, &g, &pairs, &edges, |w| SimDuration::from_millis(w as u64));
        assert_eq!(w.pooled_frames(), 0);
        w.with_node(0, |_n, _now, out| out.send(0, vec![3, 10, 20]));
        w.run_until(SimTime::from_secs(1));
        // Each reply was built while its request was still being read.
        assert_eq!(w.node(1).got, vec![vec![3, 10, 20], vec![1, 12, 22]]);
        assert_eq!(w.node(0).got, vec![vec![2, 11, 21], vec![0, 13, 23]]);
        // One frame in flight plus the one being answered: the frame
        // sent by value joined the pool at delivery and carried the
        // second reply.
        assert_eq!(w.pooled_frames(), 2);
        w.with_node(0, |_n, _now, out| out.frame(0).extend([5, 0]));
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.trace.frames, 4 + 6);
        assert_eq!(w.pooled_frames(), 2, "a second exchange lives off the pool");
    }

    #[test]
    fn dropped_frames_return_their_buffers() {
        let (mut w, pairs) = line3();
        w.set_link_up(pairs[0], false);
        w.with_node(0, |_n, _now, out| out.frame(0).push(0));
        assert_eq!(w.trace.dropped_link_down, 1);
        assert_eq!(w.pooled_frames(), 1, "link-down drop recycles at once");

        w.set_link_up(pairs[0], true);
        w.with_node(0, |_n, _now, out| out.frame(0).push(0));
        assert_eq!(w.pooled_frames(), 0, "the pooled buffer is in flight");
        w.crash_node(1);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.trace.dropped_node_down, 1);
        assert_eq!(w.pooled_frames(), 1, "node-down drop recycles at delivery");
    }

    #[test]
    fn unsend_takes_back_the_last_frame_only() {
        let (mut w, _) = line3();
        w.with_node(1, |_n, _now, out| {
            out.frame(0).push(0);
            out.frame(1).push(0);
            out.unsend();
        });
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(0).got.len(), 1, "the first frame still went out");
        assert_eq!(w.node(2).got.len(), 0, "the retracted one never did");
        assert_eq!(w.trace.frames, 1);
        assert_eq!(w.pooled_frames(), 2);
    }

    #[test]
    fn quiescence_reports_the_last_event() {
        let (mut w, _) = line3();
        w.with_node(0, |_n, _now, out| out.send(0, vec![2]));
        let last = w.run_to_quiescence(SimTime::from_secs(10));
        assert_eq!(last, ms(3), "leaf delivery is the final event");
        assert_eq!(w.now(), ms(3), "time stops where the traffic did");
    }
}
