//! The CBT router engine: one sans-I/O state machine per router.
//!
//! Every input arrives through one door, [`CbtRouter::step`], as an
//! [`Input`]; each call appends the [`RouterAction`]s to perform to a
//! caller-owned buffer. The heavier protocol paths
//! live in sibling modules (`join`, `teardown`, `keepalive`,
//! `forward`) as further `impl CbtRouter` blocks.

use crate::config::CbtConfig;
use crate::events::{Input, RouterAction};
use crate::fib::{Fib, FibEntry};
use crate::forward::Span;
use crate::inline::InlineBuf;
use crate::pending::Transient;
use crate::timers::TimerService;
use cbt_igmp::{GroupPresence, IgmpOut, PresenceEvent, QuerierElection};
use cbt_netsim::SimTime;
use cbt_obs::{CtlKind, ObsSnapshot, RouterObs};
use cbt_routing::{Hop, Rib};
use cbt_topology::{Attachment, IfIndex, LanId, NetworkSpec, RouterId};
use cbt_wire::{Addr, ControlMessage, GroupId, IgmpMessage};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock};

/// The engine's window onto unicast routing: "best next hop toward this
/// address" (§2.5) — the only question CBT ever asks its IGP.
pub trait RouteLookup: Send {
    /// Resolve the next hop toward `dst`, or `None` if unreachable.
    fn hop_toward(&self, dst: Addr) -> Option<Hop>;
}

/// A scripted route table: exactly the listed destinations, each
/// through its fixed hop — what tests and benches drive one engine with.
impl RouteLookup for BTreeMap<Addr, Hop> {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        self.get(&dst).copied()
    }
}

/// Router `me`'s handle on a route table its whole network shares. The
/// harness repairs the table under the write lock between steps; every
/// engine sees the repair at its next lookup, like a converged IGP.
pub struct RouteHandle<T> {
    pub(crate) table: Arc<RwLock<T>>,
    pub(crate) me: u32,
}

impl<T> RouteHandle<T> {
    /// The handle of router `me` on `table`.
    pub fn new(table: Arc<RwLock<T>>, me: u32) -> Self {
        RouteHandle { table, me }
    }
}

impl<T> Clone for RouteHandle<T> {
    fn clone(&self) -> Self {
        RouteHandle::new(Arc::clone(&self.table), self.me)
    }
}

impl RouteLookup for RouteHandle<Rib> {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        self.table.read().expect("rib lock poisoned").route(RouterId(self.me), dst)
    }
}

/// One interface as the engine sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IfaceInfo {
    /// My address on this interface.
    pub addr: Addr,
    /// Subnet number.
    pub subnet: Addr,
    /// Subnet mask.
    pub mask: Addr,
    /// `Some(lan)` for multi-access segments, `None` for p2p links.
    pub lan: Option<LanId>,
}

impl IfaceInfo {
    /// Is `a` an address on this interface's subnet?
    pub fn contains(&self, a: Addr) -> bool {
        a.same_subnet(self.subnet, self.mask)
    }
}

/// Per-LAN protocol state: querier election, membership presence and
/// who attaches the LAN to each group's tree (§2.6). Only LAN
/// interfaces have one, so a point-to-point engine pays nothing for
/// G-DR roles.
pub(crate) struct LanState {
    pub election: QuerierElection,
    pub presence: GroupPresence,
    /// Groups this router is the group-specific DR for on the LAN —
    /// i.e. the tree's attachment point for it.
    pub gdr: BTreeSet<GroupId>,
    /// Groups served on the LAN by *another* router's branch (we were
    /// proxy-acked): group → the G-DR's address.
    pub proxy: BTreeMap<GroupId, Addr>,
}

/// Everything the engine schedules on its [`TimerService`]. One key per
/// independent deadline; re-arming a key supersedes its previous entry.
///
/// The variants are declared in the order a timer input services them —
/// the derived `Ord` is what sorts a wakeup's due keys into phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum TimerKind {
    /// IGMP querier election + membership presence on one LAN.
    Lan(IfIndex),
    /// Deferred re-attachment after a broken loop (§6.3 backoff).
    Reattach(GroupId),
    /// Pending-join retransmit / timeout / expiry (§9).
    PendingJoin(GroupId),
    /// Parent keepalive: next CBT-ECHO-REQUEST *or* echo-timeout
    /// failure, whichever is earlier (§9).
    Echo(GroupId),
    /// Pending-quit retransmit (§6.3).
    Quit(GroupId),
    /// The CHILD-ASSERT-INTERVAL liveness sweep (§9).
    ChildSweep,
    /// The IFF-SCAN-INTERVAL membership scan (§9).
    IffScan,
}

/// The protocol state a router is in for one group, as the exploration
/// harness classifies it. Each reachable phase is a distinct place to
/// inject a fault: the §6.1/§9 machinery behaves differently in every
/// one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum ProtocolPhase {
    /// No state for the group at all.
    Idle = 0,
    /// A JOIN_REQUEST is in flight, awaiting its ack (§2.5, §9).
    PendingJoin = 1,
    /// On-tree with a live parent (or as a core), between keepalives.
    Attached = 2,
    /// On-tree but the parent's echo reply is overdue — the §6.1
    /// failure-detection window before re-attachment starts.
    EchoWait = 3,
    /// Quit/flush teardown in progress (§2.7/§6.3).
    Teardown = 4,
    /// Re-attachment campaign running: the upstream is unreachable and
    /// the router is between rejoin attempts (§6.1/§6.3).
    CoreUnreachable = 5,
}

impl ProtocolPhase {
    /// Number of variants (array sizing for coverage matrices).
    pub const COUNT: usize = 6;

    /// Every variant, in index order.
    pub const ALL: [ProtocolPhase; ProtocolPhase::COUNT] = [
        ProtocolPhase::Idle,
        ProtocolPhase::PendingJoin,
        ProtocolPhase::Attached,
        ProtocolPhase::EchoWait,
        ProtocolPhase::Teardown,
        ProtocolPhase::CoreUnreachable,
    ];

    /// Stable name used by coverage reports.
    pub const fn as_str(self) -> &'static str {
        match self {
            ProtocolPhase::Idle => "idle",
            ProtocolPhase::PendingJoin => "pending-join",
            ProtocolPhase::Attached => "attached",
            ProtocolPhase::EchoWait => "echo-wait",
            ProtocolPhase::Teardown => "teardown",
            ProtocolPhase::CoreUnreachable => "core-unreachable",
        }
    }
}

/// One router's tree state for one group, read in one call: what the
/// tree-invariant checker, the exploration digest, live snapshots and
/// every test look at. It is the one public per-group read besides
/// [`CbtRouter::protocol_phase`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    /// Does the router hold a FIB entry for the group?
    pub on_tree: bool,
    /// The parent's address, if any.
    pub parent: Option<Addr>,
    /// The children's addresses, in FIB order.
    pub children: Vec<Addr>,
    /// Is the router one of the group's cores?
    pub i_am_core: bool,
    /// Is a join in flight?
    pub pending_join: bool,
    /// Is a join, a quit or a re-attachment in flight?
    pub transient: bool,
}

/// The CBT protocol engine for one router.
pub struct CbtRouter {
    pub(crate) id_addr: Addr,
    /// Interface addresses other than `id_addr`. Empty — and so never
    /// touched — on an unnumbered p2p engine.
    other_addrs: BTreeSet<Addr>,
    pub(crate) ifaces: Vec<IfaceInfo>,
    pub(crate) cfg: CbtConfig,
    pub(crate) routes: Box<dyn RouteLookup>,
    pub(crate) lans: BTreeMap<IfIndex, LanState>,
    pub(crate) fib: Fib,
    /// Everything in flight per group — pending join, §6.1 campaign,
    /// unacknowledged quit — one record per group that exists exactly
    /// while one of its parts does. Written only through
    /// [`CbtRouter::edit`].
    pub(crate) transients: BTreeMap<GroupId, Transient>,
    /// Core lists learned from joins/acks/IGMP (§2.1 advertisements):
    /// one `(group, core)` pair per learned core, sorted by group, a
    /// group's cores adjacent in rank order. Kept at exact capacity, so
    /// the history costs 8 B per learned core and no allocation per
    /// list. Written only through [`CbtRouter::learn_cores`].
    pub(crate) core_knowledge: Vec<(GroupId, Addr)>,
    /// Groups with directly attached members reached through this
    /// router itself rather than through an IGMP-tracked LAN — the
    /// netscale point-to-point mode's substitute for host presence
    /// (see [`Input::Join`]). Counts as member presence in
    /// [`CbtRouter::serves_members`].
    pub(crate) local_members: BTreeSet<GroupId>,
    /// Deadline-driven timer service (see [`TimerKind`]). Wherever the
    /// state behind a key is removed outside its own service routine,
    /// the key is cancelled, and the service keeps its head valid after
    /// every call: `next_wakeup` must be *exact*, because the event
    /// loop's FIFO tie-break is part of the pinned event streams.
    pub(crate) timers: TimerService<TimerKind>,
    /// The latest child deadline (`now + CHILD-ASSERT-EXPIRE`) any
    /// adopt, re-ack or echo has set. Some child's liveness is still to
    /// be swept — [`CbtRouter::children_tracked`] — exactly while this
    /// lies beyond `last_child_sweep`.
    pub(crate) child_deadline_max: SimTime,
    /// Instant of the last child sweep (the boot instant before the
    /// first): the sweep cadence runs from it.
    pub(crate) last_child_sweep: SimTime,
    /// Observability counters: the drop-reason taxonomy, per-group
    /// protocol counters, join and failure counts and latency
    /// histograms every path reports into. Plain data — bumping is
    /// hot-path safe.
    pub(crate) obs: RouterObs,
    /// Control epoch: bumped by [`CbtRouter::step`] for every input but
    /// the two data kinds — every input that can write tree, G-DR or
    /// presence state. Data packets write none of it, so a spanning
    /// entry built at the current epoch is exact.
    pub(crate) epoch: u64,
    /// One spanning entry per FIB slot — the outgoing interfaces and
    /// tree neighbours both forwarding modes read per packet, rebuilt
    /// when the epoch has moved since. Grown by the first data packet:
    /// a router that never forwards data allocates nothing here.
    pub(crate) spans: Vec<Span>,
    /// The oracle's reused scratch entry: every lookup recomputes into
    /// it and asserts that the cached entry matches.
    #[cfg(debug_assertions)]
    pub(crate) span_check: Span,
}

impl CbtRouter {
    /// Builds the engine for router `me` of `net`, booting at `now`.
    pub fn new(
        net: &NetworkSpec,
        me: RouterId,
        cfg: CbtConfig,
        routes: Box<dyn RouteLookup>,
        now: SimTime,
    ) -> Self {
        let spec = &net.routers[me.0 as usize];
        let ifaces: Vec<IfaceInfo> = spec
            .ifaces
            .iter()
            .map(|i| IfaceInfo {
                addr: i.addr,
                subnet: i.subnet,
                mask: i.mask,
                lan: match i.attachment {
                    Attachment::Lan(l) => Some(l),
                    Attachment::Link { .. } => None,
                },
            })
            .collect();
        Self::boot(spec.addr, ifaces, cfg, routes, now)
    }

    /// Builds an engine for a bare point-to-point router: `degree`
    /// unnumbered interfaces that all answer to the identity address,
    /// no LANs, no IGMP. This is the netscale fleet constructor — it
    /// touches no `NetworkSpec` and boots without arming any timer, so
    /// an idle router costs a few hundred bytes and never wakes.
    ///
    /// Its memory follows its protocol state: once a router's groups
    /// have left, its FIB, transient, timer and member tables are
    /// freed again, and what remains of the churn is its history at
    /// exact size: one 68 B counter row per group it has
    /// seen ([`RouterObs::groups`]) and 8 B per core it has learned.
    /// It pays nothing for LAN duties: G-DR roles and proxy-acked
    /// groups live in the per-LAN tables it has none of, and an armed
    /// timer costs 16 B in the heap and 16 B in the key table.
    ///
    /// Membership is driven by [`Input::Join`] / [`Input::Leave`]
    /// instead of LAN presence.
    pub fn p2p(
        id_addr: Addr,
        degree: usize,
        cfg: CbtConfig,
        routes: Box<dyn RouteLookup>,
        now: SimTime,
    ) -> Self {
        // Unnumbered p2p interfaces: every iface borrows the identity
        // address with a host mask, so control messages source from it
        // and no subnet containment test ever matches a neighbour.
        let ifaces: Vec<IfaceInfo> = (0..degree)
            .map(|_| IfaceInfo {
                addr: id_addr,
                subnet: id_addr,
                mask: Addr::from_octets(255, 255, 255, 255),
                lan: None,
            })
            .collect();
        Self::boot(id_addr, ifaces, cfg, routes, now)
    }

    /// The one constructor behind [`CbtRouter::new`] and
    /// [`CbtRouter::p2p`]: empty protocol state, one election +
    /// presence table per LAN interface, boot timers armed.
    fn boot(
        id_addr: Addr,
        ifaces: Vec<IfaceInfo>,
        cfg: CbtConfig,
        routes: Box<dyn RouteLookup>,
        now: SimTime,
    ) -> Self {
        let other_addrs: BTreeSet<Addr> =
            ifaces.iter().map(|i| i.addr).filter(|a| *a != id_addr).collect();
        let mut lans = BTreeMap::new();
        for (n, info) in ifaces.iter().enumerate() {
            if info.lan.is_some() {
                lans.insert(
                    IfIndex(n as u32),
                    LanState {
                        election: QuerierElection::new(info.addr, cfg.igmp, now),
                        presence: GroupPresence::new(cfg.igmp),
                        gdr: BTreeSet::new(),
                        proxy: BTreeMap::new(),
                    },
                );
            }
        }
        let mut r = CbtRouter {
            id_addr,
            other_addrs,
            ifaces,
            timers: TimerService::new(),
            cfg,
            routes,
            lans,
            fib: Fib::new(),
            transients: BTreeMap::new(),
            core_knowledge: Vec::new(),
            local_members: BTreeSet::new(),
            child_deadline_max: SimTime::ZERO,
            last_child_sweep: now,
            obs: RouterObs::new(),
            // A fresh `Span` carries epoch 0, so it is never current.
            epoch: 1,
            spans: Vec::new(),
            #[cfg(debug_assertions)]
            span_check: Span::default(),
        };
        r.boot_arm(now);
        r
    }

    /// Arms the boot-time timers: each LAN at its own deadline, and
    /// the IFF scan one interval after `now` on a router with LANs to
    /// re-check. The periodic maintenance clocks stay unarmed until the
    /// state they service exists: the child sweep is armed by the first
    /// tracked child ([`CbtRouter::track_child_deadline`]), and a
    /// LAN-less router's IFF scan by its first non-primary core role
    /// (`become_core`).
    fn boot_arm(&mut self, now: SimTime) {
        if self.iff_scan_has_work() {
            self.timers.arm(TimerKind::IffScan, now + self.cfg.iff_scan_interval);
        }
        for iface in self.lan_ifaces() {
            self.arm_lan(iface);
        }
    }

    // ------------------------------------------------------------------
    // Identity / lookup helpers used across the protocol modules.
    // ------------------------------------------------------------------

    /// Stable identity address.
    pub fn id_addr(&self) -> Addr {
        self.id_addr
    }

    /// Is `a` one of my addresses (identity or interface)?
    pub fn is_my_addr(&self, a: Addr) -> bool {
        a == self.id_addr || self.other_addrs.contains(&a)
    }

    pub(crate) fn iface(&self, i: IfIndex) -> Option<&IfaceInfo> {
        self.ifaces.get(i.0 as usize)
    }

    /// Am I the D-DR on LAN interface `i` right now?
    pub fn i_am_dr(&self, i: IfIndex, now: SimTime) -> bool {
        self.lans.get(&i).is_some_and(|l| l.election.i_am_dr(now))
    }

    /// Am I the group-specific DR for `group` on LAN interface `i`?
    pub fn is_gdr(&self, i: IfIndex, group: GroupId) -> bool {
        self.lans.get(&i).is_some_and(|l| l.gdr.contains(&group))
    }

    /// Is `group` on LAN interface `i` served by another router's
    /// branch (we were proxy-acked, §2.6)?
    pub(crate) fn is_proxied(&self, i: IfIndex, group: GroupId) -> bool {
        self.lans.get(&i).is_some_and(|l| l.proxy.contains_key(&group))
    }

    /// The state of LAN interface `i`, where every G-DR and proxy
    /// write lands: each such write follows LAN presence, a join from
    /// a LAN, or a pending join's LAN list, so `i` is always a LAN.
    pub(crate) fn lan_mut(&mut self, i: IfIndex) -> &mut LanState {
        self.lans.get_mut(&i).expect("G-DR and proxy state live on LAN interfaces")
    }

    /// The FIB (read access for tests/metrics).
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// Is this router on-tree for `group`?
    pub(crate) fn is_on_tree(&self, group: GroupId) -> bool {
        self.fib.on_tree(group)
    }

    /// Parent address for `group`, if any.
    pub(crate) fn parent_of(&self, group: GroupId) -> Option<Addr> {
        self.fib.get(group)?.parent.map(|p| p.addr)
    }

    /// Child addresses for `group`.
    pub(crate) fn children_of(&self, group: GroupId) -> Vec<Addr> {
        self.fib.get(group).map(|e| e.children.iter().map(|c| c.addr).collect()).unwrap_or_default()
    }

    /// The group's tree state in one read.
    pub fn group_view(&self, group: GroupId) -> GroupView {
        let entry = self.fib.get(group);
        GroupView {
            on_tree: self.is_on_tree(group),
            parent: self.parent_of(group),
            children: self.children_of(group),
            i_am_core: entry.is_some_and(|e| e.i_am_core),
            pending_join: self.has_pending_join(group),
            transient: self.has_transient_state(group),
        }
    }

    /// Is a join pending for `group`?
    pub(crate) fn has_pending_join(&self, group: GroupId) -> bool {
        self.pending_join(group).is_some()
    }

    /// Classifies this router's per-group protocol state at `now` —
    /// the state-labelling hook the exploration harness' search
    /// frontier is built on. Precedence: active teardown and
    /// re-attachment campaigns are reported even while a (re)join is
    /// also pending, because those are the phases whose fault handling
    /// is under test.
    pub fn protocol_phase(&self, group: GroupId, now: SimTime) -> ProtocolPhase {
        match (self.transients.get(&group), self.fib.get(group)) {
            (Some(t), _) if t.quit.is_some() => ProtocolPhase::Teardown,
            (Some(t), _) if t.campaign.is_some() => ProtocolPhase::CoreUnreachable,
            // A record with neither holds a join.
            (Some(_), _) => ProtocolPhase::PendingJoin,
            (None, Some(e)) => match e.parent {
                Some(p) if now >= p.last_reply + self.cfg.echo_interval => ProtocolPhase::EchoWait,
                _ => ProtocolPhase::Attached,
            },
            (None, None) => ProtocolPhase::Idle,
        }
    }

    /// Does this router hold any *transient* per-group state — a
    /// pending join, an unacknowledged quit, or a re-attachment
    /// campaign? The exploration harness waits for the whole fleet to
    /// answer `false` before checking tree invariants, so legitimate
    /// in-flight transitions are never misread as violations.
    pub(crate) fn has_transient_state(&self, group: GroupId) -> bool {
        self.transients.contains_key(&group)
    }

    /// Observability counters (drop taxonomy, per-group protocol
    /// counters, join and failure counts, latency histograms).
    pub fn obs(&self) -> &RouterObs {
        &self.obs
    }

    /// Mutable observability access, for host layers (the simulator
    /// node, the live plane) that classify drops the engine never sees
    /// — decode failures, checksum rejections.
    pub fn obs_mut(&mut self) -> &mut RouterObs {
        &mut self.obs
    }

    /// Exportable snapshot of this router's counters, labelled with
    /// its router address.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.obs.snapshot(&self.id_addr.to_string())
    }

    /// The configuration in force.
    pub fn config(&self) -> &CbtConfig {
        &self.cfg
    }

    /// Cores known for `group`: learned knowledge first, then managed
    /// mappings (§2.4). Never longer than [`cbt_wire::header::MAX_CORES`]
    /// — anything past the encodable bound is dropped here so the
    /// engine can never construct a control message the wire rejects.
    pub fn cores_for(&self, group: GroupId) -> Option<Vec<Addr>> {
        let learned = &self.core_knowledge[self.learned(group)];
        let mut c = match learned {
            [] => self.cfg.managed_mappings.get(&group)?.clone(),
            _ => learned.iter().map(|&(_, c)| c).collect(),
        };
        c.truncate(cbt_wire::header::MAX_CORES);
        (!c.is_empty()).then_some(c)
    }

    /// Records a core list for a group, as the engine does when any
    /// message carrying one arrives. Public because harnesses use it to
    /// model out-of-band `<core, group>` advertisement (§2.1).
    ///
    /// Lists longer than [`cbt_wire::header::MAX_CORES`] are truncated
    /// (primary first, so the highest-ranked cores survive): the wire
    /// format cannot carry them, and rejecting here keeps every later
    /// encode infallible. Lists arriving off the wire already satisfy
    /// the bound — decode enforces it. An empty list leaves what is
    /// known in place.
    pub fn learn_cores(&mut self, group: GroupId, cores: &[Addr]) {
        let known = &cores[..cores.len().min(cbt_wire::header::MAX_CORES)];
        let at = self.learned(group);
        // Every join and ack on a settled tree repeats the list the
        // router already holds; only a change is worth a copy.
        if known.is_empty()
            || self.core_knowledge[at.clone()].iter().map(|&(_, c)| c).eq(known.iter().copied())
        {
            return;
        }
        let old = at.len();
        // Exact capacity: grow by what the list gained, give back what
        // it lost.
        self.core_knowledge.reserve_exact(known.len().saturating_sub(old));
        self.core_knowledge.splice(at, known.iter().map(|&c| (group, c)));
        if known.len() < old {
            self.core_knowledge.shrink_to_fit();
        }
    }

    /// Where `group`'s learned cores sit in `core_knowledge` (an empty
    /// range at its sorted position when none are known).
    fn learned(&self, group: GroupId) -> std::ops::Range<usize> {
        let start = self.core_knowledge.partition_point(|&(g, _)| g < group);
        let len = self.core_knowledge[start..].partition_point(|&(g, _)| g == group);
        start..start + len
    }

    /// Am I the primary core for this core list?
    pub(crate) fn i_am_primary(&self, cores: &[Addr]) -> bool {
        cores.first().is_some_and(|c| self.is_my_addr(*c))
    }

    /// Am I any core in this list?
    pub(crate) fn i_am_listed_core(&self, cores: &[Addr]) -> bool {
        cores.iter().any(|c| self.is_my_addr(*c))
    }

    /// LAN interfaces (with presence tables).
    pub(crate) fn lan_ifaces(&self) -> Vec<IfIndex> {
        self.lans.keys().copied().collect()
    }

    /// Is `group` on LAN interface `lan` already taken care of — this
    /// router on-tree or joining, or another router's branch serving
    /// the LAN (proxy-ack, §2.6)? If not, its D-DR must (re)join.
    pub(crate) fn lan_group_handled(&self, lan: IfIndex, group: GroupId) -> bool {
        self.fib.on_tree(group) || self.has_pending_join(group) || self.is_proxied(lan, group)
    }

    /// Forgets every G-DR role for `group` (its tree state is gone).
    pub(crate) fn clear_gdr(&mut self, group: GroupId) {
        for lan in self.lans.values_mut() {
            lan.gdr.remove(&group);
        }
    }

    /// Does any directly connected LAN have members of `group` that
    /// *this* router is responsible for (G-DR)? Locally attached
    /// members (netscale p2p mode) count unconditionally — this router
    /// is trivially their DR.
    pub(crate) fn serves_members(&self, group: GroupId) -> bool {
        self.local_members.contains(&group)
            || self.lans.values().any(|l| l.presence.has_members(group) && l.gdr.contains(&group))
    }

    // ------------------------------------------------------------------
    // Input dispatch.
    // ------------------------------------------------------------------

    /// The one way into the engine: reacts to `input` at `now`,
    /// appending the sends it causes to `out`.
    ///
    /// Every input but the two data kinds can write tree, G-DR,
    /// presence or timer state, so it first moves the control epoch
    /// (which retires every cached spanning entry) and last compacts
    /// the timer service, which frees its tables once no clock is
    /// armed. Data packets do neither: they write none of that state.
    #[inline]
    pub fn step(&mut self, now: SimTime, input: Input, out: &mut Vec<RouterAction>) {
        let control = !matches!(input, Input::NativeData { .. } | Input::CbtData { .. });
        if control {
            self.epoch += 1;
        }
        match input {
            Input::Control { iface, src, msg } => self.receive_control(now, iface, src, msg, out),
            Input::Igmp { iface, src, msg } => self.receive_igmp(now, iface, src, msg, out),
            Input::NativeData { iface, link_src, pkt } => {
                self.receive_native_data(now, iface, link_src, pkt, out)
            }
            Input::CbtData { iface, outer_src, pkt } => {
                self.receive_cbt_data(iface, outer_src, pkt, out)
            }
            Input::Join(group) => self.member_joined(now, group, out),
            Input::Leave(group) => self.member_left(now, group, out),
            Input::Timer => self.run_timers(now, out),
        }
        if control {
            self.timers.compact();
        }
    }

    /// A received CBT control message. The keepalive majority of
    /// control traffic (an echo reply, an echo from a stranger) emits
    /// nothing, so a reused `act` buffer never allocates.
    fn receive_control(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        src: Addr,
        msg: ControlMessage,
        act: &mut Vec<RouterAction>,
    ) {
        // A frame claiming to come from one of our own addresses is
        // spoofed or looped — no legitimate neighbour ever is us.
        if self.is_my_addr(src) {
            return;
        }
        self.obs.ctl_received(msg.group().addr().0, ctl_kind(msg.control_type()));
        match msg {
            ControlMessage::JoinRequest { subcode, group, origin, target_core, cores } => {
                self.on_join_request(
                    now,
                    iface,
                    src,
                    subcode,
                    group,
                    origin,
                    target_core,
                    &cores,
                    act,
                );
            }
            ControlMessage::JoinAck { subcode, group, origin, target_core, cores } => {
                self.on_join_ack(now, iface, src, subcode, group, origin, target_core, &cores, act);
            }
            ControlMessage::JoinNack { group, .. } => {
                self.on_join_nack(now, iface, src, group, act);
            }
            ControlMessage::QuitRequest { group, .. } => {
                self.on_quit_request(now, iface, src, group, act);
            }
            ControlMessage::QuitAck { group, .. } => {
                self.on_quit_ack(iface, src, group);
            }
            ControlMessage::FlushTree { group, .. } => {
                self.on_flush_tree(now, iface, src, group, act);
            }
            ControlMessage::EchoRequest { group, group_mask, .. } => {
                self.on_echo_request(now, iface, src, group, group_mask, act);
            }
            ControlMessage::EchoReply { group, group_mask, .. } => {
                self.on_echo_reply(now, iface, src, group, group_mask);
            }
        }
    }

    /// A received IGMP message on a LAN interface.
    fn receive_igmp(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        src: Addr,
        msg: IgmpMessage,
        act: &mut Vec<RouterAction>,
    ) {
        // Core lists ride in RP/Core-Reports (§2.2); learn them even
        // when the matching membership report was lost in flight — the
        // IFF-scan retry path depends on this knowledge.
        if let IgmpMessage::RpCore(r) = &msg {
            self.learn_cores(r.group, &r.cores);
        }
        let Some(lan) = self.lans.get_mut(&iface) else { return };
        if let IgmpMessage::Query { group: None, .. } = msg {
            lan.election.on_query_heard(src, now);
        }
        let i_am_querier = lan.election.is_querier(now);
        let (events, sends) = lan.presence.on_igmp(&msg, now, i_am_querier);
        for s in sends {
            act.push(RouterAction::SendIgmp { iface, dst: s.dst, msg: s.msg });
        }
        for ev in events {
            self.on_presence_event(now, iface, ev, act);
        }
        // A late-arriving core list for a group whose membership is
        // already live (the earlier RP/Core-Report was lost): join now
        // instead of waiting for the IFF-scan safety net.
        if let IgmpMessage::RpCore(r) = &msg {
            let live = self.lans.get(&iface).is_some_and(|l| l.presence.has_members(r.group));
            if live && !self.lan_group_handled(iface, r.group) && self.i_am_dr(iface, now) {
                self.trigger_join(now, iface, r.group, r.target_core_index as usize, act);
            }
        }
        // Reports and Leaves move this LAN's presence deadlines (and a
        // foreign query re-times the election): re-clock its timer entry.
        self.arm_lan(iface);
    }

    /// Reacts to membership appearing/disappearing on a LAN.
    pub(crate) fn on_presence_event(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        ev: PresenceEvent,
        act: &mut Vec<RouterAction>,
    ) {
        match ev {
            PresenceEvent::NewGroup { group, cores, target_core_index } => {
                self.learn_cores(group, &cores);
                // §2.5: the D-DR establishes the subnet on the tree.
                if self.i_am_dr(iface, now) {
                    self.trigger_join(now, iface, group, target_core_index, act);
                } else if self.fib.on_tree(group) {
                    // A non-DR router that already has a branch serving
                    // other subnets still becomes this LAN's forwarder
                    // if nobody else is (rare; keeps delivery total).
                    let lan = self.lan_mut(iface);
                    if !lan.proxy.contains_key(&group) {
                        lan.gdr.insert(group);
                    }
                }
            }
            PresenceEvent::GroupExpired { group } => {
                let lan = self.lan_mut(iface);
                lan.gdr.remove(&group);
                lan.proxy.remove(&group);
                // §2.7: no members anywhere and no children ⇒ quit.
                self.maybe_quit(now, group, act);
            }
        }
    }

    /// Advances every timer that has come due.
    ///
    /// Pops the due keys, then runs seven phases in `TimerKind`
    /// order, each visiting only its due candidates, in ascending key
    /// order. Every candidate is re-checked against the authoritative
    /// state (the group's transient record, the FIB…) before acting,
    /// so a stale or early entry degenerates to a no-op (plus a lazy
    /// re-arm where the true deadline moved later).
    fn run_timers(&mut self, now: SimTime, act: &mut Vec<RouterAction>) {
        let mut due: InlineBuf<(TimerKind, SimTime), 4> = InlineBuf::new();
        self.timers.pop_due_into(now, &mut due);
        // `TimerKind` orders by variant, then key, and the variants are
        // declared in phase order: one sort lines every phase's
        // candidates up ascending. A key has one valid deadline, so no
        // candidate repeats.
        due.as_mut_slice().sort_unstable_by_key(|&(kind, _)| kind);
        let due = due.as_slice();
        // The keys of one kind among the due entries, ascending.
        macro_rules! due_of {
            ($kind:path) => {
                due.iter().filter_map(|&(k, _)| if let $kind(x) = k { Some(x) } else { None })
            };
        }
        for &(_, deadline) in due {
            // Wakeup lag: how far past its armed deadline each timer
            // actually fired. In the simulator this is 0 unless wakes
            // coalesce; under the live runtime it measures scheduling
            // latency.
            self.obs.record_timer_lag(now.since(deadline).micros());
        }
        // Phase 1: IGMP querier duty + presence expiry per due LAN.
        for iface in due_of!(TimerKind::Lan) {
            self.poll_lan(now, iface, act);
        }
        // Phase 2: deferred re-attachments.
        for group in due_of!(TimerKind::Reattach) {
            let backoff = self.transients.get(&group).and_then(Transient::backoff);
            if let Some((_, idx)) = backoff.filter(|&(t, _)| t <= now) {
                self.edit(group, |t| t.campaign.as_mut().expect("backed off").backoff = None);
                self.start_reattach(now, group, idx, act);
            }
        }
        // Phase 3: pending-join retransmit/expiry.
        for group in due_of!(TimerKind::PendingJoin) {
            if self.pending_join(group).is_some_and(|p| p.next_retransmit <= now) {
                self.service_pending_join_group(now, group, act);
            }
        }
        // Phase 4: parent keepalives.
        self.service_keepalives_due(now, due_of!(TimerKind::Echo), act);
        // Phase 5: pending-quit retransmits.
        for group in due_of!(TimerKind::Quit) {
            let quit = self.transients.get(&group).and_then(|t| t.quit);
            if quit.is_some_and(|q| q.next_send <= now) {
                self.service_pending_quit_group(now, group, act);
            }
        }
        // Phase 6: the child-liveness sweep, one pass over the FIB per
        // CHILD-ASSERT-INTERVAL. The sweep re-arms only while deadlines
        // remain; the next tracked child re-arms it
        // (`track_child_deadline`).
        if due.iter().any(|&(k, _)| k == TimerKind::ChildSweep) {
            self.sweep_children_due(now, act);
            if self.children_tracked() {
                self.timers.arm(TimerKind::ChildSweep, now + self.cfg.child_assert_interval);
            }
        }
        // Phase 7: the IFF scan (inherently a membership-wide pass).
        // Routers without LANs have no presence tables for the scan to
        // consult — local membership quits eagerly instead
        // (`member_left`) — so the clock stays down unless the router
        // is a non-primary core, whose backbone safety net it runs.
        if due.iter().any(|&(k, _)| k == TimerKind::IffScan) {
            self.iff_scan(now, act);
            if self.iff_scan_has_work() {
                self.timers.arm(TimerKind::IffScan, now + self.cfg.iff_scan_interval);
            }
        }
    }

    /// IGMP querier duty + presence expiry on one LAN, then its timer
    /// entry re-clocked from the deadlines the poll moved.
    fn poll_lan(&mut self, now: SimTime, iface: IfIndex, act: &mut Vec<RouterAction>) {
        let Some(lan) = self.lans.get_mut(&iface) else { return };
        let sends: Vec<IgmpOut> = lan.election.poll(now);
        let events = lan.presence.poll(now);
        for s in sends {
            act.push(RouterAction::SendIgmp { iface, dst: s.dst, msg: s.msg });
        }
        for ev in events {
            self.on_presence_event(now, iface, ev, act);
        }
        self.arm_lan(iface);
    }

    /// Earliest instant any internal timer wants service.
    ///
    /// A peek at the timer heap's head, and *exact*: the service pops
    /// superseded entries off its head in every arm, cancel and pop,
    /// and every state removal cancels its key, so the head always
    /// carries the earliest valid deadline. This matters beyond efficiency —
    /// `netsim` breaks same-instant event ties in scheduling order, so
    /// a spurious early wake would reshuffle a router against its peers
    /// and move the pinned event streams.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.timers.peek()
    }

    // ------------------------------------------------------------------
    // Timer arming, shared by the protocol modules.
    // ------------------------------------------------------------------

    /// (Re-)clocks a LAN's timer entry from its election + presence
    /// deadlines. Called wherever those deadlines can change: after
    /// every received IGMP message and after each phase-1 poll.
    pub(crate) fn arm_lan(&mut self, iface: IfIndex) {
        if let Some(lan) = self.lans.get(&iface) {
            let mut d = lan.election.next_wakeup();
            if let Some(p) = lan.presence.next_wakeup() {
                d = d.min(p);
            }
            self.timers.arm(TimerKind::Lan(iface), d);
        }
    }

    /// (Re-)clocks a group's keepalive entry: next echo *or* the echo-
    /// timeout failure instant, whichever comes first. No-op without a
    /// parent.
    pub(crate) fn arm_echo(&mut self, group: GroupId) {
        let Some(p) = self.fib.get(group).and_then(|e| e.parent) else { return };
        self.timers.arm(TimerKind::Echo(group), p.echo_deadline(self.cfg.echo_timeout));
    }

    /// Does the IFF scan have anything to re-check: presence tables
    /// on a LAN, or a group this router holds as a non-primary core,
    /// whose parentless fragment the scan re-joins to the primary
    /// ([`CbtRouter::iff_scan`], §6.2)?
    pub(crate) fn iff_scan_has_work(&self) -> bool {
        !self.lans.is_empty() || self.fib.iter().any(|(_, e)| self.is_secondary_core(e))
    }

    /// Does `e` make this router a core of its group, but not the
    /// primary?
    pub(crate) fn is_secondary_core(&self, e: &FibEntry) -> bool {
        e.i_am_core && e.cores.first().is_some_and(|c| !self.is_my_addr(*c))
    }

    /// Is any child's liveness still to be swept? Every deadline is
    /// `now + CHILD-ASSERT-EXPIRE` with `now` monotone, so the latest
    /// one belongs to some child's newest refresh, and that child has
    /// been swept iff a sweep ran at or after it.
    pub(crate) fn children_tracked(&self) -> bool {
        self.child_deadline_max > self.last_child_sweep
    }

    /// Raises the child-deadline watermark for a child adopted or
    /// re-acked at `now`. The first tracked deadline also arms the
    /// sweep clock — down since boot, or since a sweep left nothing to
    /// track — one interval after the last sweep (or boot), or at
    /// `now` if that instant has passed. Such a sweep is a no-op, since
    /// every child it could expire went at the last sweep, and phase 6
    /// re-times the cadence from `now`. Arming it in the past would
    /// move no wake — both worlds clamp an overdue wake to `now` — but
    /// the timer-lag histogram would book the gap as lag no scheduler
    /// caused.
    pub(crate) fn track_child_deadline(&mut self, now: SimTime) {
        if !self.children_tracked() {
            let at = self.last_child_sweep + self.cfg.child_assert_interval;
            self.timers.arm(TimerKind::ChildSweep, at.max(now));
        }
        self.child_deadline_max = self.child_deadline_max.max(now + self.cfg.child_assert_expire);
    }

    // ------------------------------------------------------------------
    // Small shared emit helpers.
    // ------------------------------------------------------------------

    pub(crate) fn send_control(
        &mut self,
        act: &mut Vec<RouterAction>,
        iface: IfIndex,
        dst: Addr,
        msg: ControlMessage,
    ) {
        self.obs.ctl_sent(msg.group().addr().0, ctl_kind(msg.control_type()));
        act.push(RouterAction::SendControl { iface, dst, msg });
    }
}

/// Maps a wire-level control type onto its observability class.
pub(crate) fn ctl_kind(t: cbt_wire::ControlType) -> CtlKind {
    match t {
        cbt_wire::ControlType::JoinRequest => CtlKind::JoinRequest,
        cbt_wire::ControlType::JoinAck => CtlKind::JoinAck,
        cbt_wire::ControlType::JoinNack => CtlKind::JoinNack,
        cbt_wire::ControlType::QuitRequest => CtlKind::QuitRequest,
        cbt_wire::ControlType::QuitAck => CtlKind::QuitAck,
        cbt_wire::ControlType::FlushTree => CtlKind::FlushTree,
        cbt_wire::ControlType::EchoRequest => CtlKind::EchoRequest,
        cbt_wire::ControlType::EchoReply => CtlKind::EchoReply,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Direct-drive harness: a single engine fed synthetic inputs, with
    //! a scripted route table — no simulator, no other routers.

    use super::*;
    pub use crate::events::Input;
    use cbt_topology::NetworkBuilder;

    impl CbtRouter {
        /// Steps the engine with `input` and returns what it emitted.
        pub fn feed(&mut self, now: SimTime, input: Input) -> Vec<RouterAction> {
            let mut out = Vec::new();
            self.step(now, input, &mut out);
            out
        }
    }

    /// A 3-interface router: if0 = LAN (10.1.0.x/24, my addr .1),
    /// if1 = p2p link "up" (172.31.0.0/30, my addr .1, peer .2),
    /// if2 = p2p link "down" (172.31.0.4/30, my addr .5, peer .6).
    pub fn engine(cfg: CbtConfig) -> CbtRouter {
        let mut b = NetworkBuilder::new();
        let me = b.router("ME");
        let up = b.router("UP");
        let down = b.router("DOWN");
        let lan = b.lan("S0");
        b.attach(lan, me);
        b.host("H", lan);
        b.link(me, up, 1);
        b.link(me, down, 1);
        let net = b.build();
        // Default script: everything unknown.
        CbtRouter::new(&net, me, cfg, Box::new(BTreeMap::<Addr, Hop>::new()), SimTime::ZERO)
    }

    /// Replaces the whole scripted table.
    pub fn set_routes(r: &mut CbtRouter, map: BTreeMap<Addr, Hop>) {
        r.routes = Box::new(map);
    }

    /// Upstream hop helper (out of if1 toward 172.31.0.2).
    pub fn up_hop() -> Hop {
        Hop {
            iface: IfIndex(1),
            router: RouterId(1),
            addr: Addr::from_octets(172, 31, 0, 2),
            dist: 1,
        }
    }

    /// Downstream neighbour address (on if2).
    pub fn down_addr() -> Addr {
        Addr::from_octets(172, 31, 0, 6)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use cbt_netsim::SimDuration;
    use cbt_wire::{AckSubcode, JoinSubcode};

    #[test]
    fn boot_state_is_clean() {
        let e = engine(CbtConfig::default());
        assert!(e.fib().is_empty());
        assert!(!e.has_pending_join(GroupId::numbered(1)));
        assert_eq!(e.obs_snapshot(), RouterObs::new().snapshot(&e.id_addr().to_string()));
        assert!(e.is_my_addr(e.id_addr()));
        assert!(e.is_my_addr(Addr::from_octets(10, 1, 0, 1)), "LAN iface addr");
        assert!(e.is_my_addr(Addr::from_octets(172, 31, 0, 1)), "link iface addr");
        assert!(!e.is_my_addr(Addr::from_octets(9, 9, 9, 9)));
    }

    #[test]
    fn boot_sends_startup_igmp_queries() {
        let mut e = engine(CbtConfig::default());
        let act = e.feed(SimTime::ZERO, Input::Timer);
        let queries: Vec<_> = act
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    RouterAction::SendIgmp { msg: IgmpMessage::Query { group: None, .. }, .. }
                )
            })
            .collect();
        assert_eq!(queries.len(), 1, "first start-up query fires at boot (§2.3)");
    }

    #[test]
    fn next_wakeup_exists_at_boot() {
        let e = engine(CbtConfig::default());
        assert!(e.next_wakeup().is_some(), "start-up queries are scheduled");
    }

    #[test]
    fn core_knowledge_prefers_learned_over_managed() {
        let g = GroupId::numbered(1);
        let managed = vec![Addr::from_octets(10, 255, 0, 9)];
        let learned = vec![Addr::from_octets(10, 255, 0, 3)];
        let mut e = engine(CbtConfig::default().with_mapping(g, managed.clone()));
        assert_eq!(e.cores_for(g), Some(managed));
        e.learn_cores(g, &learned);
        assert_eq!(e.cores_for(g), Some(learned));
        e.learn_cores(g, &[]);
        assert!(e.cores_for(g).is_some(), "empty list does not erase knowledge");
        assert_eq!(e.cores_for(GroupId::numbered(99)), None);
    }

    /// The learned-core column against a `BTreeMap` model: lists that
    /// grow, shrink, reorder, overflow `MAX_CORES` or arrive empty, for
    /// groups learned in random order. After every step `cores_for`
    /// agrees with the model, the column stays sorted with each group's
    /// cores in rank order, and it never holds spare capacity.
    #[test]
    fn learned_cores_match_a_map_model() {
        use cbt_wire::header::MAX_CORES;
        let mut x: u64 = 0x5EED_C0DE_0000_0036;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let core = |n: u64| Addr::from_octets(10, 255, (n / 250) as u8, (n % 250) as u8 + 1);
        for _ in 0..64 {
            let mut e = engine(CbtConfig::default());
            let mut model: BTreeMap<GroupId, Vec<Addr>> = BTreeMap::new();
            for _ in 0..48 {
                let g = GroupId::numbered(1 + (next() % 12) as u16);
                let list: Vec<Addr> = match next() % 6 {
                    // Empty: knowledge stays.
                    0 => Vec::new(),
                    // Over the encodable bound: truncated.
                    1 => {
                        (0..MAX_CORES as u64 + 1 + next() % 4).map(|_| core(next() % 40)).collect()
                    }
                    // The known list reversed: a reorder is a change.
                    2 => {
                        model.get(&g).map(|c| c.iter().rev().copied().collect()).unwrap_or_default()
                    }
                    // The known list again: nothing to write.
                    3 => model.get(&g).cloned().unwrap_or_default(),
                    // A fresh list, longer or shorter than the old.
                    _ => (0..1 + next() % 4).map(|_| core(next() % 40)).collect(),
                };
                let known = &list[..list.len().min(MAX_CORES)];
                if !known.is_empty() {
                    model.insert(g, known.to_vec());
                }
                e.learn_cores(g, &list);
                for n in 1..=12 {
                    let g = GroupId::numbered(n);
                    assert_eq!(e.cores_for(g), model.get(&g).cloned(), "group {n}");
                }
                let flat: Vec<(GroupId, Addr)> =
                    model.iter().flat_map(|(g, c)| c.iter().map(move |&c| (*g, c))).collect();
                assert_eq!(e.core_knowledge, flat);
                assert_eq!(e.core_knowledge.capacity(), e.core_knowledge.len(), "no slack");
            }
        }
    }

    #[test]
    fn i_am_dr_on_sole_lan() {
        let e = engine(CbtConfig::default());
        assert!(e.i_am_dr(IfIndex(0), SimTime::ZERO), "only router on the LAN");
        assert!(!e.i_am_dr(IfIndex(1), SimTime::ZERO), "p2p links have no DR");
    }

    /// P2p engine with `routes` pointing every listed address through
    /// iface 0 to `via`.
    fn p2p_engine(cfg: CbtConfig, via: Addr, targets: &[Addr]) -> CbtRouter {
        let map: BTreeMap<Addr, Hop> = targets
            .iter()
            .map(|t| (*t, Hop { iface: IfIndex(0), router: RouterId(1), addr: via, dist: 1 }))
            .collect();
        CbtRouter::p2p(Addr::from_octets(10, 0, 0, 1), 3, cfg, Box::new(map), SimTime::ZERO)
    }

    #[test]
    fn p2p_boots_with_no_wakeup() {
        let e = p2p_engine(CbtConfig::default(), Addr::from_octets(10, 0, 0, 2), &[]);
        assert_eq!(e.next_wakeup(), None, "an idle p2p router never wakes");
        assert!(e.fib().is_empty());
        assert!(e.is_my_addr(Addr::from_octets(10, 0, 0, 1)));
    }

    #[test]
    fn local_membership_round_trip_returns_to_silence() {
        let g = GroupId::numbered(7);
        let core = Addr::from_octets(10, 0, 0, 99);
        let via = Addr::from_octets(10, 0, 0, 2);
        let cfg = CbtConfig::default().with_mapping(g, vec![core]);
        let mut e = p2p_engine(cfg, via, &[core]);

        // Join: a JOIN_REQUEST goes out and the pending timer is live.
        let act = e.feed(SimTime::ZERO, Input::Join(g));
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl { msg: ControlMessage::JoinRequest { .. }, .. }
        )));
        assert!(e.has_pending_join(g));
        assert!(e.next_wakeup().is_some(), "pending-join retransmit armed");

        // Ack from upstream: on-tree, keepalives armed.
        let t1 = SimTime::ZERO + SimDuration::from_millis(10);
        let ack = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g,
            origin: Addr::from_octets(10, 0, 0, 1),
            target_core: core,
            cores: vec![core],
        };
        e.feed(t1, Input::Control { iface: IfIndex(0), src: via, msg: ack });
        assert!(e.is_on_tree(g));
        assert_eq!(e.parent_of(g), Some(via));

        // Leave: the branch is quit eagerly, and once the quit is
        // acked the engine is back to zero state and zero wakeups.
        let t2 = t1 + SimDuration::from_millis(10);
        let act = e.feed(t2, Input::Leave(g));
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl { msg: ControlMessage::QuitRequest { .. }, .. }
        )));
        assert!(!e.is_on_tree(g));
        let t3 = t2 + SimDuration::from_millis(10);
        let msg = ControlMessage::QuitAck { group: g, origin: via };
        e.feed(t3, Input::Control { iface: IfIndex(0), src: via, msg });
        assert!(e.fib().is_empty());
        assert_eq!(e.next_wakeup(), None, "round trip ends with every timer down");
    }

    #[test]
    fn leave_while_pending_quits_on_ack() {
        let g = GroupId::numbered(7);
        let core = Addr::from_octets(10, 0, 0, 99);
        let via = Addr::from_octets(10, 0, 0, 2);
        let cfg = CbtConfig::default().with_mapping(g, vec![core]);
        let mut e = p2p_engine(cfg, via, &[core]);

        e.feed(SimTime::ZERO, Input::Join(g));
        let t1 = SimTime::ZERO + SimDuration::from_millis(5);
        let act = e.feed(t1, Input::Leave(g));
        assert!(act.is_empty(), "leave defers to the in-flight join");

        let t2 = t1 + SimDuration::from_millis(5);
        let ack = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g,
            origin: Addr::from_octets(10, 0, 0, 1),
            target_core: core,
            cores: vec![core],
        };
        let act = e.feed(t2, Input::Control { iface: IfIndex(0), src: via, msg: ack });
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl { msg: ControlMessage::QuitRequest { .. }, .. }
            )),
            "the unneeded branch is quit as soon as the ack lands"
        );
        assert!(!e.is_on_tree(g));
    }

    #[test]
    fn p2p_core_arms_sweep_on_first_child() {
        let g = GroupId::numbered(7);
        let my = Addr::from_octets(10, 0, 0, 1);
        let via = Addr::from_octets(10, 0, 0, 2);
        let cfg = CbtConfig::default().with_mapping(g, vec![my]);
        let mut e = p2p_engine(cfg, via, &[]);

        // Becoming the (primary) core creates state but needs no clock.
        e.feed(SimTime::ZERO, Input::Join(g));
        assert!(e.is_on_tree(g));
        assert_eq!(e.next_wakeup(), None, "a childless core sits silent");

        // The first downstream child raises the liveness sweep.
        let join = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g,
            origin: via,
            target_core: my,
            cores: vec![my],
        };
        let t1 = SimTime::ZERO + SimDuration::from_millis(5);
        let act = e.feed(t1, Input::Control { iface: IfIndex(0), src: via, msg: join });
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl { msg: ControlMessage::JoinAck { .. }, .. }
        )));
        assert_eq!(e.children_of(g), vec![via]);
        assert!(e.next_wakeup().is_some(), "child sweep armed by first child");
    }

    /// A router built from a `NetworkSpec` with links only boots as
    /// silent as a p2p fleet engine: its IFF scan has no presence
    /// table to re-check, and its child sweep waits for a child.
    #[test]
    fn lan_less_router_boots_silent_and_arms_the_sweep_on_its_first_child() {
        use cbt_topology::NetworkBuilder;
        let mut b = NetworkBuilder::new();
        let me = b.router("ME");
        let down = b.router("DOWN");
        b.link(me, down, 1);
        let net = b.build();
        let (my, child) = (net.router_addr(me), net.router_addr(down));
        let g = GroupId::numbered(7);
        let cfg = CbtConfig::default();
        let interval = cfg.child_assert_interval;
        let routes = Box::new(BTreeMap::<Addr, Hop>::new());
        let mut e = CbtRouter::new(&net, me, cfg, routes, SimTime::ZERO);
        assert_eq!(e.next_wakeup(), None, "no LAN and no child: no clock at boot");

        let join = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g,
            origin: child,
            target_core: my,
            cores: vec![my],
        };
        let t1 = SimTime::from_secs(5);
        e.feed(t1, Input::Control { iface: IfIndex(0), src: child, msg: join });
        assert_eq!(e.children_of(g), vec![child]);
        assert_eq!(
            e.next_wakeup(),
            Some(SimTime::ZERO + interval),
            "the first child arms the sweep, and nothing else is armed"
        );
    }
}
