//! Outside-in instrumentation: wrappers around the trait objects the
//! layers already exchange. Nothing inside the program is touched —
//! a traced run swaps `P2pNode` for `Traced<P2pNode>`, `FleetRoutes`
//! for `CountingRoutes`, and each `Box<dyn SimNode>` for a
//! [`TracedSim`] around it.

use crate::trace::{self, Span};
use cbt::{FleetRoutes, P2pNode, RouteLookup, SharedFleetRib};
use cbt_netsim::{Bytes, NsNode, NsOutbox, Outbox, SimNode, SimTime};
use cbt_routing::Hop;
use cbt_topology::IfIndex;
use cbt_wire::Addr;
use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Frames kept for the wire-codec replay probe.
pub const CAPTURE_CAP: usize = 131_072;

thread_local! {
    static CAPTURED: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

fn capture(frame: &[u8]) {
    CAPTURED.with(|c| {
        let mut c = c.borrow_mut();
        if c.len() < CAPTURE_CAP {
            c.push(frame.to_vec());
        }
    });
}

/// Hands over (and clears) the frames captured on this thread.
pub fn take_captured() -> Vec<Vec<u8>> {
    CAPTURED.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// Route lookups that found no route (traced runs only).
pub static RIB_MISSES: AtomicU64 = AtomicU64::new(0);

/// What the fleet driver needs from a node slot, so one driver runs
/// both the bare and the traced fleet.
pub trait FleetNode: NsNode + Sized {
    /// Is this the traced flavour? (Selects the route-lookup wrapper.)
    const TRACED: bool;
    /// Puts a freshly built adapter into the slot type.
    fn wrap(p: P2pNode) -> Self;
    /// The adapter.
    fn p2p(&self) -> &P2pNode;
    /// The adapter, mutably.
    fn p2p_mut(&mut self) -> &mut P2pNode;

    /// The route handle engine `me` is built with.
    fn routes(rib: &SharedFleetRib, me: u32) -> Box<dyn RouteLookup> {
        let inner = FleetRoutes::new(rib.clone(), me);
        if Self::TRACED {
            Box::new(CountingRoutes { inner })
        } else {
            Box::new(inner)
        }
    }
}

impl FleetNode for P2pNode {
    const TRACED: bool = false;
    fn wrap(p: P2pNode) -> Self {
        p
    }
    fn p2p(&self) -> &P2pNode {
        self
    }
    fn p2p_mut(&mut self) -> &mut P2pNode {
        self
    }
}

/// A span around every entry point of the wrapped netscale node.
pub struct Traced<N> {
    /// The wrapped node.
    pub inner: N,
    /// Frames this node may still copy out for the codec probe; a
    /// per-node budget spreads the capture over the fleet and keeps
    /// the hot path off the thread-local once it is spent.
    capture_left: u32,
}

impl<N: NsNode> NsNode for Traced<N> {
    fn on_frame(&mut self, now: SimTime, iface: u32, frame: &[u8], out: &mut NsOutbox) {
        if self.capture_left > 0 {
            self.capture_left -= 1;
            capture(frame);
        }
        trace::enter(Span::P2pOnFrame, 0);
        self.inner.on_frame(now, iface, frame, out);
        trace::exit();
    }

    fn on_timer(&mut self, now: SimTime, out: &mut NsOutbox) {
        trace::enter(Span::P2pOnTimer, 0);
        self.inner.on_timer(now, out);
        trace::exit();
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.inner.next_wakeup()
    }
}

impl FleetNode for Traced<P2pNode> {
    const TRACED: bool = true;
    fn wrap(p: P2pNode) -> Self {
        Traced { inner: p, capture_left: 16 }
    }
    fn p2p(&self) -> &P2pNode {
        &self.inner
    }
    fn p2p_mut(&mut self) -> &mut P2pNode {
        &mut self.inner
    }
}

/// A span (and a miss counter) around every fleet route lookup.
pub struct CountingRoutes {
    inner: FleetRoutes,
}

impl RouteLookup for CountingRoutes {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        trace::enter(Span::RibLookup, 0);
        let hop = self.inner.hop_toward(dst);
        trace::exit();
        if hop.is_none() {
            RIB_MISSES.fetch_add(1, Ordering::Relaxed);
        }
        hop
    }
}

/// A span around every entry point of a full-fidelity simulator node.
/// Downcasts see through the wrapper, so harness code keeps reaching
/// `RouterNode` / `HostApp` via `World::node`.
pub struct TracedSim {
    inner: Box<dyn SimNode>,
    on_packet: Span,
    on_timer: Span,
    /// Frames this node may still copy out for the codec probe.
    capture_left: u32,
}

impl TracedSim {
    /// Wraps a router node.
    pub fn router(inner: Box<dyn SimNode>) -> Box<dyn SimNode> {
        Box::new(TracedSim {
            inner,
            on_packet: Span::RouterOnPacket,
            on_timer: Span::RouterOnTimer,
            capture_left: 512,
        })
    }

    /// Wraps a host node.
    pub fn host(inner: Box<dyn SimNode>) -> Box<dyn SimNode> {
        Box::new(TracedSim {
            inner,
            on_packet: Span::HostOnPacket,
            on_timer: Span::HostOnTimer,
            capture_left: 0,
        })
    }
}

impl SimNode for TracedSim {
    fn on_packet(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        link_src: Addr,
        frame: &Bytes,
        out: &mut Outbox,
    ) {
        if self.capture_left > 0 {
            self.capture_left -= 1;
            capture(frame);
        }
        trace::enter(self.on_packet, 0);
        self.inner.on_packet(now, iface, link_src, frame, out);
        trace::exit();
    }

    fn on_timer(&mut self, now: SimTime, out: &mut Outbox) {
        trace::enter(self.on_timer, 0);
        self.inner.on_timer(now, out);
        trace::exit();
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.inner.next_wakeup()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}
