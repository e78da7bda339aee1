//! The world: a [`NetworkSpec`] instantiated with live node behaviours,
//! an event queue, latencies, failures and fault injection.
//!
//! # Hot-path design
//!
//! The dispatch loop is the simulator's inner loop. A transmission
//! costs one label, one queue slot per receiver and — the frame
//! included — no allocation:
//!
//! - **Frames are [`Bytes`]**: refcounted, immutable. LAN fan-out to N
//!   receivers clones the handle N-1 times (a pointer bump each) and
//!   moves it into the last, never the payload. Corruption by the
//!   fault injector is copy-on-write.
//! - **Frame buffers circulate**. A node builds its frame in a buffer
//!   from the [`Outbox`]'s pool; the world offers every arrival's
//!   frame back once its receiver has returned, and every frame it
//!   drops itself (no live receiver, injector drop). The pool takes a
//!   buffer only from the *last* handle to it ([`Bytes::try_into_mut`]):
//!   a frame another receiver still waits for, a payload delivered by
//!   reference, a captured or traced frame is left alone and merely
//!   costs the next sender one allocation. So the pool never holds
//!   more than the peak number of frames in flight, and needs no cap.
//! - **Node lookup is a dense `Vec` index**, not a `HashMap` probe.
//!   Entities map to slots as routers-then-hosts; each slot carries its
//!   node and its wake generation side by side.
//! - **Delivery is precomputed**. Who hears a transmission, on which
//!   interface, from which link-layer source is the shared
//!   [`DeliveryPlan`], resolved once per network; `emit` walks its
//!   flat slices and adds only what is the world's own — failure
//!   masks, the trace, the capture and the fault injector.
//! - **Arrivals ride FIFO lanes**. Every arrival is pushed at `now +
//!   lan_latency` or `now + link_latency`, two constants, while `now`
//!   never decreases — so each class is born time-sorted and goes
//!   through an O(1) lane of the [`EventQueue`]; only wakes, whose
//!   instants are arbitrary, pay the heap. The pop order is that of a
//!   single heap (see [`crate::queue`]), so no corpus notices.
//! - **Frames are labelled, not verified**. [`PacketKind::classify`]
//!   reads the protocol, port and type bytes of a frame one of this
//!   world's own nodes built a line earlier; summing its checksums is
//!   the receiver's job, and the receiver does it.
//! - **One [`Outbox`] serves the whole run**, drained in place after
//!   each callback, so collecting a node's sends never allocates.
//!   (Draining into a second scratch `Vec` to free the outbox sooner
//!   was measured 4 % slower than even allocating a fresh outbox per
//!   event: it moves every `Transmit` twice.)

use crate::fault::{FaultClass, FaultInjector, FaultPlan};
use crate::node::{Entity, Outbox, SimNode};
use crate::plan::{DeliveryPlan, Receiver};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Medium, PacketKind, Trace};
use bytes::Bytes;
use cbt_routing::FailureSet;
use cbt_topology::{IfIndex, NetworkSpec};

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Propagation + processing delay across a point-to-point link.
    pub link_latency: SimDuration,
    /// Delay across a LAN segment.
    pub lan_latency: SimDuration,
    /// Fault injection plan.
    pub fault: FaultPlan,
    /// Seed for the fault injector (the only randomness in the world).
    pub seed: u64,
    /// Record full trace entries (`true`) or counters only (`false`).
    pub record_trace: bool,
    /// Also capture every transmitted frame for pcap export
    /// ([`World::capture`]). Off by default — captures grow quickly.
    pub capture_pcap: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            link_latency: SimDuration::from_millis(1),
            lan_latency: SimDuration::from_micros(200),
            fault: FaultPlan::none(),
            seed: 0,
            record_trace: true,
            capture_pcap: false,
        }
    }
}

/// [`EventQueue`] lanes: arrivals over LANs, arrivals over links.
const LAN_LANE: usize = 0;
const LINK_LANE: usize = 1;

enum Event {
    Arrive { to: Entity, iface: IfIndex, link_src: cbt_wire::Addr, frame: Bytes },
    Wake { slot: usize, generation: u64 },
}

/// One entity's state: its behaviour (if installed) and the generation
/// counter that invalidates stale queued wakeups.
struct Slot {
    node: Option<Box<dyn SimNode>>,
    wake_generation: u64,
    /// The instant of this slot's currently queued wake event, if any.
    /// Kept so an unchanged wakeup is NOT re-pushed: re-pushing would
    /// re-key the event by insertion order and same-instant tie-breaks
    /// would start depending on unrelated traffic.
    scheduled_wake: Option<SimTime>,
}

/// The discrete-event world.
///
/// Construct with a network, plug in one [`SimNode`] per router/host
/// (entities without a node simply ignore traffic), call
/// [`World::start`], then drive time with [`World::run_until`] /
/// [`World::run_until_idle`].
pub struct World {
    spec: NetworkSpec,
    failures: FailureSet,
    cfg: WorldConfig,
    now: SimTime,
    queue: EventQueue<Event>,
    /// Who hears what, and the dense entity index `slots` follows.
    plan: DeliveryPlan,
    /// Dense node table, indexed by [`DeliveryPlan::index`].
    slots: Vec<Slot>,
    injector: FaultInjector,
    trace: Trace,
    capture: Option<crate::pcap::Capture>,
    /// The one outbox every callback writes into (see `run_node`).
    outbox: Outbox,
}

impl World {
    /// Creates a world over `spec` with the given config.
    pub fn new(spec: NetworkSpec, cfg: WorldConfig) -> Self {
        let plan = DeliveryPlan::new(&spec);
        let slots = (0..plan.num_entities())
            .map(|_| Slot { node: None, wake_generation: 0, scheduled_wake: None })
            .collect();

        World {
            failures: FailureSet::none(),
            now: SimTime::ZERO,
            // Room for one scheduled wake per node plus a frame in
            // flight per router: covers the boot burst without growing.
            queue: EventQueue::with_capacity(2 * spec.routers.len() + spec.hosts.len()),
            plan,
            slots,
            injector: FaultInjector::new(cfg.fault.clone(), cfg.seed),
            trace: if cfg.record_trace { Trace::recording() } else { Trace::counters_only() },
            capture: cfg.capture_pcap.then(crate::pcap::Capture::new),
            outbox: Outbox::new(),
            cfg,
            spec,
        }
    }

    /// The network this world instantiates.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The transmission trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The pcap frame capture, when `capture_pcap` was enabled.
    pub fn capture(&self) -> Option<&crate::pcap::Capture> {
        self.capture.as_ref()
    }

    /// Frame buffers waiting in the pool for the next sender (see
    /// "Hot-path design"): bounded by the peak number of frames that
    /// were in flight at once.
    pub fn pooled_frames(&self) -> usize {
        self.outbox.pooled()
    }

    /// Fault-injector counters: (passed clean, corrupted, dropped).
    pub fn fault_stats(&self) -> (u64, u64, u64) {
        self.injector.stats()
    }

    /// Replaces the fault plan mid-run (e.g. to end a chaos phase and
    /// observe recovery). The injector keeps its RNG streams, sequence
    /// counters and statistics — only the plan changes, so cumulative
    /// [`World::fault_stats`] stay truthful across the swap and
    /// targeted per-sequence drops keep their frame of reference.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector.set_plan(plan);
    }

    /// Current failure state (shared with routing recomputation done by
    /// the harness).
    pub fn failures(&self) -> &FailureSet {
        &self.failures
    }

    /// Mutates the failure state. The harness is responsible for also
    /// recomputing whatever routing tables its nodes share.
    pub fn failures_mut(&mut self) -> &mut FailureSet {
        &mut self.failures
    }

    /// Installs the behaviour for an entity, replacing any previous one
    /// (that is how router *restarts* are modelled: a fresh engine with
    /// empty state, per §6.2).
    ///
    /// # Panics
    ///
    /// If `entity` is not part of this world's [`NetworkSpec`].
    pub fn set_node(&mut self, entity: Entity, node: Box<dyn SimNode>) {
        let Some(i) = self.plan.index(entity) else {
            panic!("set_node: {entity} is not in the network spec")
        };
        self.slots[i].node = Some(node);
        self.reschedule_wake(i);
    }

    /// Typed access to a node for harness-level commands (e.g. telling
    /// a host application to join a group). Follow mutations that need
    /// to send packets with [`World::poke`].
    pub fn node_mut<N: SimNode + 'static>(&mut self, entity: Entity) -> Option<&mut N> {
        let i = self.plan.index(entity)?;
        self.slots[i].node.as_deref_mut()?.as_any_mut().downcast_mut::<N>()
    }

    /// Immutable typed access to a node — inspection without exclusive
    /// access to the world.
    pub fn node<N: SimNode + 'static>(&self, entity: Entity) -> Option<&N> {
        let i = self.plan.index(entity)?;
        self.slots[i].node.as_deref()?.as_any().downcast_ref::<N>()
    }

    /// Invokes `on_timer` on an entity *now* — used right after a
    /// harness-level mutation so the node can act on it.
    pub fn poke(&mut self, entity: Entity) {
        if self.entity_down(entity) {
            return;
        }
        let now = self.now;
        self.run_node(entity, |node, out| node.on_timer(now, out));
    }

    /// One callback into `entity`'s node (if installed) with the
    /// world's outbox, then everything it queued dispatched and its
    /// wakeup re-read. The outbox is taken for the call and put back
    /// drained, capacity intact.
    fn run_node(&mut self, entity: Entity, call: impl FnOnce(&mut dyn SimNode, &mut Outbox)) {
        let Some(i) = self.plan.index(entity) else { return };
        let mut out = std::mem::take(&mut self.outbox);
        if let Some(node) = self.slots[i].node.as_deref_mut() {
            call(node, &mut out);
        }
        self.emit(entity, &mut out);
        self.outbox = out;
        self.reschedule_wake(i);
    }

    /// Schedules the initial wakeups of every installed node. Call once
    /// after all nodes are installed.
    pub fn start(&mut self) {
        // Slot order is routers-then-hosts ascending — the same total
        // order `Entity` derives, so startup stays deterministic.
        for i in 0..self.slots.len() {
            if self.slots[i].node.is_some() {
                self.poke(self.plan.entity(i));
            }
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else { return false };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        match event {
            Event::Arrive { to, iface, link_src, frame } => {
                if !self.entity_down(to) {
                    self.run_node(to, |node, out| node.on_packet(at, iface, link_src, &frame, out));
                }
                // Consumed (or undeliverable): the buffer is free unless
                // the receiver kept a view, or another arrival shares it.
                self.outbox.recycle(frame);
            }
            Event::Wake { slot: i, generation } => {
                if self.slots[i].wake_generation != generation {
                    return true; // stale wake
                }
                // The live generation's queued event is consumed either
                // way; forget it so the next reschedule pushes afresh.
                self.slots[i].scheduled_wake = None;
                let who = self.plan.entity(i);
                if self.entity_down(who) {
                    return true;
                }
                self.run_node(who, |node, out| node.on_timer(at, out));
            }
        }
        true
    }

    /// Runs until simulated time reaches `deadline` (events after it
    /// stay queued; `now` advances to the deadline).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until no events remain or `deadline` passes, whichever is
    /// first. Returns `true` if the world went idle.
    pub fn run_until_idle(&mut self, deadline: SimTime) -> bool {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                self.now = deadline;
                return false;
            }
            self.step();
        }
        true
    }

    fn entity_down(&self, e: Entity) -> bool {
        entity_down(&self.failures, e)
    }

    /// Dispatches everything a node queued along the delivery plan,
    /// leaving `out` empty with its capacity. A frame goes to its
    /// receivers by refcount — cloned for all but the last, which takes
    /// the sender's handle — and one that reaches nobody goes straight
    /// back to the pool.
    fn emit(&mut self, from: Entity, out: &mut Outbox) {
        let Outbox { sends, pool } = out;
        for t in sends.drain(..) {
            let Some(route) = self.plan.route(from, t.iface) else {
                // Unknown interface: the world has no plan to carry
                // this frame anywhere.
                self.trace.record_drop(cbt_obs::DropReason::NoFibEntry);
                pool.recycle(t.frame);
                continue;
            };
            let (lane, latency) = match route.medium {
                Medium::Lan(lan) if self.failures.lan_down(lan) => {
                    pool.recycle(t.frame);
                    continue;
                }
                Medium::Lan(_) => (LAN_LANE, self.cfg.lan_latency),
                Medium::Link(_) => (LINK_LANE, self.cfg.link_latency),
            };
            let kind = PacketKind::classify(&t.frame);
            self.trace.record_tx(self.now, from, t.iface, route.medium, kind, t.frame.len());
            // On a link the attempt is recorded (bytes hit the wire)
            // even when the link or peer is down and nothing arrives.
            if let Medium::Link(link) = route.medium {
                let peer_down = route.heard_by(None).any(|rx| self.entity_down(rx.entity));
                if self.failures.link_down(link) || peer_down {
                    pool.recycle(t.frame);
                    continue;
                }
            }
            if let Some(cap) = &mut self.capture {
                cap.record(self.now, t.frame.clone());
            }
            let class = if kind.is_control() { FaultClass::Control } else { FaultClass::Data };
            let frame = match self.injector.apply(class, t.frame) {
                Ok(frame) => frame,
                Err(dropped) => {
                    pool.recycle(dropped);
                    continue;
                }
            };
            let arrive_at = self.now + latency;
            let mut arrive = |rx: &Receiver, frame: Bytes| {
                let event = Event::Arrive {
                    to: rx.entity,
                    iface: rx.iface,
                    link_src: route.link_src,
                    frame,
                };
                self.queue.push_lane(lane, arrive_at, event);
            };
            let mut last: Option<&Receiver> = None;
            for rx in route.heard_by(t.link_dst) {
                if entity_down(&self.failures, rx.entity) {
                    continue;
                }
                if let Some(earlier) = last.replace(rx) {
                    arrive(earlier, frame.clone()); // refcount bump, not a copy
                }
            }
            match last {
                Some(rx) => arrive(rx, frame),
                None => pool.recycle(frame),
            }
        }
    }

    fn reschedule_wake(&mut self, i: usize) {
        let now = self.now;
        let slot = &mut self.slots[i];
        let next = slot.node.as_ref().and_then(|n| n.next_wakeup()).map(|at| at.max(now));
        // An unchanged wake instant keeps its queued event (and its
        // generation). Re-pushing would re-key the event by insertion
        // sequence, so the pop order of *simultaneous* wakes would
        // depend on which nodes happened to receive unrelated frames
        // in between — data load would reorder same-instant control
        // timers and shift the fault injector's per-class sequence
        // numbering, breaking targeted-drop replay.
        if next.is_some() && next == slot.scheduled_wake {
            return;
        }
        slot.wake_generation += 1;
        let generation = slot.wake_generation;
        slot.scheduled_wake = next;
        if let Some(at) = next {
            self.queue.push(at, Event::Wake { slot: i, generation });
        }
    }
}

fn entity_down(failures: &FailureSet, e: Entity) -> bool {
    match e {
        Entity::Router(r) => failures.router_down(r),
        Entity::Host(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::{HostId, NetworkBuilder, RouterId};
    use cbt_wire::{Addr, DataPacket, GroupId};
    use std::any::Any;

    /// A node that floods one data packet at t=1s and counts arrivals.
    struct Chatter {
        src: Addr,
        fire_at: Option<SimTime>,
        received: Vec<(SimTime, IfIndex)>,
    }

    impl Chatter {
        fn new(src: Addr) -> Self {
            Chatter { src, fire_at: Some(SimTime::from_secs(1)), received: Vec::new() }
        }
    }

    impl SimNode for Chatter {
        fn on_packet(
            &mut self,
            now: SimTime,
            iface: IfIndex,
            _link_src: cbt_wire::Addr,
            _frame: &Bytes,
            _out: &mut Outbox,
        ) {
            self.received.push((now, iface));
        }
        fn on_timer(&mut self, now: SimTime, out: &mut Outbox) {
            if self.fire_at.is_some_and(|t| t <= now) {
                self.fire_at = None;
                let pkt = DataPacket::new(self.src, GroupId::numbered(1), 4, b"x".to_vec());
                let mut frame = out.buffer();
                pkt.encode_into(frame.as_mut_vec());
                out.send(IfIndex(0), frame.freeze());
            }
        }
        fn next_wakeup(&self) -> Option<SimTime> {
            self.fire_at
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn two_routers_one_lan() -> (NetworkSpec, RouterId, RouterId, HostId) {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let lan = b.lan("S0");
        b.attach(lan, r0);
        b.attach(lan, r1);
        let h = b.host("H", lan);
        (b.build(), r0, r1, h)
    }

    #[test]
    fn lan_broadcast_reaches_everyone_but_sender() {
        let (spec, r0, r1, h) = two_routers_one_lan();
        let src = spec.routers[r0.0 as usize].ifaces[0].addr;
        let mut w = World::new(spec, WorldConfig::default());
        w.set_node(Entity::Router(r0), Box::new(Chatter::new(src)));
        w.set_node(Entity::Router(r1), Box::new(Chatter::new(src)));
        w.set_node(Entity::Host(h), Box::new(Chatter::new(src)));
        w.start();
        assert!(w.run_until_idle(SimTime::from_secs(10)));
        // All three fired once at t=1s; each hears the other two.
        for e in [Entity::Router(r0), Entity::Router(r1), Entity::Host(h)] {
            let n = w.node::<Chatter>(e).unwrap();
            assert_eq!(n.received.len(), 2, "{e}");
            for (at, _) in &n.received {
                assert_eq!(*at, SimTime::from_secs(1) + WorldConfig::default().lan_latency);
            }
        }
        assert_eq!(w.trace().data_frames(), 3);
    }

    #[test]
    fn link_delivery_has_latency_and_correct_iface() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        b.link(r0, r1, 1);
        let spec = b.build();
        let src = spec.routers[0].ifaces[0].addr;
        let mut w = World::new(spec, WorldConfig::default());
        w.set_node(Entity::Router(r0), Box::new(Chatter::new(src)));
        w.set_node(Entity::Router(r1), Box::new(Chatter::new(src)));
        w.start();
        assert!(w.run_until_idle(SimTime::from_secs(10)));
        let n1 = w.node::<Chatter>(Entity::Router(r1)).unwrap();
        assert_eq!(n1.received.len(), 1);
        let (at, iface) = n1.received[0];
        assert_eq!(at, SimTime::from_secs(1) + SimDuration::from_millis(1));
        assert_eq!(iface, IfIndex(0));
    }

    /// A transmission out of an interface the topology does not know is
    /// counted in the trace's drop taxonomy instead of vanishing.
    #[test]
    fn unknown_iface_drop_is_counted() {
        struct Misfire;
        impl SimNode for Misfire {
            fn on_packet(
                &mut self,
                _now: SimTime,
                _iface: IfIndex,
                _link_src: cbt_wire::Addr,
                _frame: &Bytes,
                _out: &mut Outbox,
            ) {
            }
            fn on_timer(&mut self, _now: SimTime, out: &mut Outbox) {
                let pkt = DataPacket::new(
                    Addr::from_octets(10, 1, 0, 1),
                    GroupId::numbered(1),
                    4,
                    b"x".to_vec(),
                );
                let mut frame = out.buffer();
                pkt.encode_into(frame.as_mut_vec());
                out.send(IfIndex(7), frame.freeze());
            }
            fn next_wakeup(&self) -> Option<SimTime> {
                None
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let (spec, r0, ..) = two_routers_one_lan();
        let mut w = World::new(spec, WorldConfig::default());
        w.set_node(Entity::Router(r0), Box::new(Misfire));
        w.start();
        assert_eq!(w.trace().drop_counts().get(cbt_obs::DropReason::NoFibEntry), 1);
        assert_eq!(w.trace().totals().0, 0, "nothing was carried");
    }

    #[test]
    fn failed_lan_carries_nothing() {
        let (spec, r0, r1, _h) = two_routers_one_lan();
        let lan = spec.lan_by_name("S0").unwrap();
        let src = spec.routers[r0.0 as usize].ifaces[0].addr;
        let mut w = World::new(spec, WorldConfig::default());
        w.set_node(Entity::Router(r0), Box::new(Chatter::new(src)));
        w.set_node(Entity::Router(r1), Box::new(Chatter::new(src)));
        w.failures_mut().fail_lan(lan);
        w.start();
        w.run_until_idle(SimTime::from_secs(10));
        assert!(w.node::<Chatter>(Entity::Router(r1)).unwrap().received.is_empty());
    }

    #[test]
    fn failed_router_neither_sends_nor_receives() {
        let (spec, r0, r1, _h) = two_routers_one_lan();
        let src = spec.routers[r0.0 as usize].ifaces[0].addr;
        let mut w = World::new(spec, WorldConfig::default());
        w.set_node(Entity::Router(r0), Box::new(Chatter::new(src)));
        w.set_node(Entity::Router(r1), Box::new(Chatter::new(src)));
        w.failures_mut().fail_router(r0);
        w.start();
        w.run_until_idle(SimTime::from_secs(10));
        // r0 is down: it never fires, and never hears r1's packet.
        assert!(w.node::<Chatter>(Entity::Router(r0)).unwrap().received.is_empty());
        assert!(w.node::<Chatter>(Entity::Router(r0)).unwrap().fire_at.is_some());
        // r1 fired but nobody was there to hear it.
        assert!(w.node::<Chatter>(Entity::Router(r1)).unwrap().fire_at.is_none());
    }

    #[test]
    fn full_drop_plan_blocks_delivery_but_counts_send() {
        let (spec, r0, r1, _h) = two_routers_one_lan();
        let src = spec.routers[r0.0 as usize].ifaces[0].addr;
        let cfg = WorldConfig { fault: FaultPlan::drops(1.0), ..Default::default() };
        let mut w = World::new(spec, cfg);
        w.set_node(Entity::Router(r0), Box::new(Chatter::new(src)));
        w.set_node(Entity::Router(r1), Box::new(Chatter::new(src)));
        w.start();
        w.run_until_idle(SimTime::from_secs(10));
        assert!(w.node::<Chatter>(Entity::Router(r1)).unwrap().received.is_empty());
        assert_eq!(w.trace().data_frames(), 2, "sends are traced even when dropped");
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let (spec, ..) = two_routers_one_lan();
        let mut w = World::new(spec, WorldConfig::default());
        w.run_until(SimTime::from_secs(42));
        assert_eq!(w.now(), SimTime::from_secs(42));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (spec, r0, r1, h) = two_routers_one_lan();
            let src = spec.routers[r0.0 as usize].ifaces[0].addr;
            let cfg = WorldConfig {
                fault: FaultPlan { drop_chance: 0.5, corrupt_chance: 0.2, ..FaultPlan::default() },
                seed: 99,
                ..Default::default()
            };
            let mut w = World::new(spec, cfg);
            w.set_node(Entity::Router(r0), Box::new(Chatter::new(src)));
            w.set_node(Entity::Router(r1), Box::new(Chatter::new(src)));
            w.set_node(Entity::Host(h), Box::new(Chatter::new(src)));
            w.start();
            w.run_until_idle(SimTime::from_secs(10));
            let mut log = Vec::new();
            for e in [Entity::Router(r0), Entity::Router(r1), Entity::Host(h)] {
                log.push(w.node::<Chatter>(e).unwrap().received.clone());
            }
            (log, w.trace().totals())
        };
        assert_eq!(run(), run());
    }

    /// A sink that keeps every frame it hears, for zero-copy asserts.
    struct Keeper {
        frames: Vec<Bytes>,
    }

    impl SimNode for Keeper {
        fn on_packet(
            &mut self,
            _now: SimTime,
            _iface: IfIndex,
            _link_src: cbt_wire::Addr,
            frame: &Bytes,
            _out: &mut Outbox,
        ) {
            self.frames.push(frame.clone());
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Outbox) {}
        fn next_wakeup(&self) -> Option<SimTime> {
            None
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn lan_fanout_shares_one_allocation() {
        // One sender, three listeners on the same LAN: every receiver's
        // frame must be a view into the same allocation.
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let lan = b.lan("S0");
        b.attach(lan, r0);
        let hosts: Vec<HostId> = (0..3).map(|i| b.host(format!("H{i}"), lan)).collect();
        let spec = b.build();
        let src = spec.routers[0].ifaces[0].addr;
        let mut w = World::new(spec, WorldConfig::default());
        w.set_node(Entity::Router(r0), Box::new(Chatter::new(src)));
        for &h in &hosts {
            w.set_node(Entity::Host(h), Box::new(Keeper { frames: Vec::new() }));
        }
        w.start();
        assert!(w.run_until_idle(SimTime::from_secs(10)));
        let frames: Vec<Bytes> = hosts
            .iter()
            .map(|&h| {
                let k = w.node::<Keeper>(Entity::Host(h)).unwrap();
                assert_eq!(k.frames.len(), 1, "host{} heard the broadcast", h.0);
                k.frames[0].clone()
            })
            .collect();
        for other in &frames[1..] {
            assert!(
                frames[0].shares_allocation_with(other),
                "fan-out must clone the handle, not the payload"
            );
            assert_eq!(&frames[0], other);
        }
    }
}
