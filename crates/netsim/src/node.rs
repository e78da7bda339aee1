//! The plug-in interface between the simulator and protocol behaviours.

use crate::time::SimTime;
use bytes::{Bytes, BytesMut};
use cbt_topology::{HostId, IfIndex, RouterId};

/// An addressable entity in the world: a router or a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Entity {
    /// A router (indexes `NetworkSpec::routers`).
    Router(RouterId),
    /// A host (indexes `NetworkSpec::hosts`); hosts have a single
    /// implicit interface 0 on their LAN.
    Host(HostId),
}

impl std::fmt::Display for Entity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Entity::Router(r) => write!(f, "{r}"),
            Entity::Host(h) => write!(f, "host{}", h.0),
        }
    }
}

/// One outbound transmission requested by a node: a complete IP
/// datagram handed to an interface.
///
/// `link_dst` is the link-layer destination, standing in for the MAC
/// address real Ethernet would carry: on a LAN, `Some(addr)` delivers
/// only to the attachment owning that IP address (the resolved next
/// hop), while `None` broadcasts to every other attachment (multicast
/// and true broadcasts). Point-to-point links ignore it — the peer
/// gets everything.
#[derive(Debug, Clone)]
pub struct Transmit {
    /// Which of the node's interfaces to send on (always 0 for hosts).
    pub iface: IfIndex,
    /// Link-layer destination on multi-access media.
    pub link_dst: Option<cbt_wire::Addr>,
    /// The full datagram. Refcounted: LAN fan-out clones this per
    /// receiver for the price of a pointer bump, not a buffer copy.
    pub frame: Bytes,
}

/// Collects a node's outbound transmissions during one callback, and
/// keeps the pool of frame buffers they are built in.
///
/// A frame has one lifecycle: written in place into a buffer from
/// [`Outbox::buffer`], frozen, sent — fanned out by refcount, never
/// copied — and offered back with [`Outbox::recycle`] by whoever
/// consumed it, which takes the buffer only when no other handle still
/// views it. [`crate::World`] offers back every arrival once its
/// receiver has returned, so there a steady flow allocates nothing and
/// the pool holds at most the peak number of frames that were in flight
/// at once. The live runtime offers each node task's own frames back
/// when the task refills the batch block that carried them, so there
/// a task's pool holds at most the frames its blocks carried. An
/// outbox nobody recycles into stays empty, and `buffer` then
/// allocates what building a `Vec` and wrapping it in [`Bytes`] always
/// did.
#[derive(Debug, Default)]
pub struct Outbox {
    pub(crate) sends: Vec<Transmit>,
    /// Spent frame buffers, capacity kept, contents stale.
    pub(crate) pool: FramePool,
    /// Control frames by group, counted where the node adapters encode
    /// and decode them: one table per world, or per live router task.
    pub groups: cbt_obs::GroupCounters,
}

/// The buffers behind frames nobody views any more.
#[derive(Debug, Default)]
pub(crate) struct FramePool(Vec<BytesMut>);

impl FramePool {
    /// Takes `frame`'s buffer if `frame` is the last handle to it.
    #[inline]
    pub(crate) fn recycle(&mut self, frame: Bytes) {
        if let Ok(buf) = frame.try_into_mut() {
            self.0.push(buf);
        }
    }
}

impl Outbox {
    /// New empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// A buffer to build the next frame in: a recycled one if there is
    /// one, fresh otherwise. Its contents are stale — every `cbt-wire`
    /// write-into encoder replaces them. Take its `Vec` once, fill it,
    /// [`BytesMut::freeze`] and [`Outbox::send`].
    #[inline]
    pub fn buffer(&mut self) -> BytesMut {
        self.pool.0.pop().unwrap_or_default()
    }

    /// Offers a consumed frame's buffer back to the pool. A frame some
    /// other handle still views — another receiver's queued copy, a
    /// payload delivered by reference, a capture — is simply dropped:
    /// its bytes are never rewritten under a reader.
    #[inline]
    pub fn recycle(&mut self, frame: Bytes) {
        self.pool.recycle(frame);
    }

    /// Buffers waiting in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.0.len()
    }

    /// Queues a frame on an interface, link-layer broadcast.
    ///
    /// Accepts anything convertible to [`Bytes`]; in particular a
    /// `Vec<u8>` is taken over without copying its buffer.
    pub fn send(&mut self, iface: IfIndex, frame: impl Into<Bytes>) {
        self.sends.push(Transmit { iface, link_dst: None, frame: frame.into() });
    }

    /// Queues a frame for one specific link-layer neighbour (the
    /// next-hop resolution an ARP lookup would have done).
    pub fn send_to(&mut self, iface: IfIndex, link_dst: cbt_wire::Addr, frame: impl Into<Bytes>) {
        self.sends.push(Transmit { iface, link_dst: Some(link_dst), frame: frame.into() });
    }

    /// Drains everything queued, in place: the outbox keeps its
    /// capacity, so one outbox serves a whole run without reallocating.
    pub fn drain(&mut self) -> impl Iterator<Item = Transmit> + '_ {
        self.sends.drain(..)
    }

    /// Everything queued, in order, for a consumer that takes the whole
    /// batch by reference and then [`Outbox::clear`]s.
    pub fn as_slice(&self) -> &[Transmit] {
        &self.sends
    }

    /// Drops everything queued; the outbox keeps its capacity.
    pub fn clear(&mut self) {
        self.sends.clear();
    }

    /// Number of queued transmissions.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }
}

/// A protocol behaviour living on one entity.
///
/// The contract is sans-I/O: the node never blocks, never sleeps, and
/// owns no clock — it reacts to packets and timer pokes, emits frames
/// into the [`Outbox`], and advertises its next wakeup. The same
/// implementations run under tokio in `cbt-node` by translating the
/// callbacks.
pub trait SimNode {
    /// A frame arrived on `iface` at `now`. `link_src` is the
    /// link-layer sender — the neighbour's interface address on the
    /// shared medium (what the source MAC address tells a real router).
    /// Protocols use it to accept branch traffic only from actual tree
    /// neighbours.
    /// The frame arrives as [`Bytes`]: on a LAN every receiver gets a
    /// view into the same allocation. Deref to `&[u8]` for parsing.
    fn on_packet(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        link_src: cbt_wire::Addr,
        frame: &Bytes,
        out: &mut Outbox,
    );

    /// The node's requested wakeup time arrived (or the harness pokes
    /// it at start-of-world with `now == SimTime::ZERO`).
    fn on_timer(&mut self, now: SimTime, out: &mut Outbox);

    /// The earliest future instant this node wants `on_timer` called,
    /// if any. Re-queried after every callback.
    fn next_wakeup(&self) -> Option<SimTime>;

    /// Downcast hook so harnesses can reach their concrete node types
    /// through the trait object (e.g. to tell a host app "join group G
    /// now"). Implementations are always the one-liner `self`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Immutable downcast hook: the `&self` twin of
    /// [`SimNode::as_any_mut`], letting harnesses *inspect* a node
    /// without exclusive access to the world. Implementations are
    /// always the one-liner `self`.
    fn as_any(&self) -> &dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_and_drains() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(IfIndex(0), vec![1, 2, 3]);
        out.send(IfIndex(2), vec![4]);
        assert_eq!(out.len(), 2);
        let drained: Vec<Transmit> = out.drain().collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].iface, IfIndex(0));
        assert_eq!(drained[1].frame, Bytes::from(vec![4u8]));
        assert!(out.is_empty());
        // Draining is in place: the next callback reuses the buffer.
        let cap = out.sends.capacity();
        assert!(cap >= 2);
        out.send(IfIndex(1), vec![5]);
        assert_eq!(out.sends.capacity(), cap);
    }

    #[test]
    fn a_recycled_frame_is_the_next_buffer_unless_somebody_still_views_it() {
        let mut out = Outbox::new();
        let mut buf = out.buffer();
        buf.as_mut_vec().extend_from_slice(b"first frame");
        let frame = buf.freeze();
        let ptr = frame.as_ptr();

        // Fanned out to two receivers: the first to finish cannot give
        // the buffer back, the last one does.
        let other_receiver = frame.clone();
        out.recycle(frame);
        assert_eq!(out.pooled(), 0, "still viewed: dropped, not pooled");
        assert_eq!(other_receiver, b"first frame");
        out.recycle(other_receiver);
        assert_eq!(out.pooled(), 1);

        let mut buf = out.buffer();
        assert_eq!(out.pooled(), 0);
        let v = buf.as_mut_vec();
        v.clear();
        v.extend_from_slice(b"second");
        let frame = buf.freeze();
        assert_eq!(frame.as_ptr(), ptr, "built in the first frame's buffer");
        assert_eq!(frame, b"second");
    }

    #[test]
    fn entity_ordering_and_display() {
        let a = Entity::Router(RouterId(1));
        let b = Entity::Host(HostId(0));
        assert_ne!(a, b);
        assert_eq!(a.to_string(), "R1");
        assert_eq!(b.to_string(), "host0");
    }
}
