//! Expl-1 — the small-scope exhaustive check.
//!
//! CBT's claim is that hard-state trees heal (§6.1, §6.2). This module
//! checks it the way Helmy, Estrin and Gupta search multicast protocol
//! states: it walks **every ordering** of a small scope, breadth first,
//! instead of sampling fault placements in one timed run.
//!
//! - **Scopes** ([`Scope`]): a 3-router line, the diamond, the dual-DR
//!   LAN and a two-core line. Each has one group, at most two hosts, and
//!   a boot script that builds a tree for one member.
//! - **World** ([`Net`]): the real [`RouterNode`]s and [`HostApp`]s,
//!   driven through [`SimNode`] over the scope's [`DeliveryPlan`] and
//!   [`Rib`]. A transmission becomes one frame in flight per receiver,
//!   and the frames in flight are a multiset the search picks from. Time
//!   moves only when a timer fires.
//! - **Transitions** ([`Step`]): deliver, drop or duplicate any frame in
//!   flight; fire the earliest due timer; a host joins or leaves; a
//!   router crashes or restarts empty (§6.2); a link or LAN is cut or
//!   restored. Drops, duplicates, crashes and cuts spend the fault
//!   budget, joins and leaves the membership budget; restarts and
//!   restores are free.
//! - **States** are deduplicated by a digest: every node's group view,
//!   protocol phase, designated-router bits and next wakeup relative to
//!   now, what is down, the budgets spent, and the multiset of frames in
//!   flight. Engines are not clonable, so a state is its trace from boot
//!   and is rebuilt by replaying it.
//! - **Oracles**, on every distinct state: heal everything, settle,
//!   wait for quiescence (with a grace pass, as a slow timer may still
//!   be repairing), then the tree invariants ([`check_node_set`]), the
//!   one-root rule and a delivery probe.
//!
//! Breadth first, the first violating trace is a shortest one, and a
//! trace ([`Trace`], `scope: step, step, …`) is the one replay format.
//! Each level's states fan out over the trial pool and are merged in
//! order, so the report is identical for any `--jobs N`.

use crate::report::Report;
use cbt::invariants::check_node_set;
use cbt::{CbtConfig, HostApp, ProtocolPhase, RouteHandle, RouterNode};
use cbt_metrics::Table;
use cbt_netsim::{Bytes, DeliveryPlan, Medium, Outbox, SimDuration, SimNode, SimTime};
use cbt_routing::{FailureSet, Rib};
use cbt_topology::{HostId, IfIndex, LanId, LinkId, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::{Addr, GroupId};
use serde_json::json;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, RwLock};

/// The one group every scope serves.
const GROUP: GroupId = GroupId::numbered(1);

/// Members join at 1 s and the tree is built by this instant.
const BOOT: SimTime = SimTime::from_secs(6);

/// The two-core scope's primary is down from boot to this instant, so
/// its member's tree is a fragment under the secondary core, which has
/// already run one IFF scan without the primary.
const REVIVAL: SimTime = SimTime::from_secs(40);

/// Settling time after the heal: outlives an echo timeout (9 s fast),
/// a child-assert expiry (18 s) and one IFF-scan period (30 s).
const SETTLE: SimDuration = SimDuration::from_secs(48);

/// Extra time granted once a violation or a transient is seen: states
/// a slow timer would still repair are not reported as stuck.
const GRACE: SimDuration = SimDuration::from_secs(40);

/// How long the oracle waits for quiescence, looking every 500 ms.
const QUIESCE_BUDGET: SimDuration = SimDuration::from_secs(90);
const QUIESCE_STEP: SimDuration = SimDuration::from_millis(500);

/// Callbacks one `run_until` may make before it calls the world stuck.
const STEP_CAP: u32 = 100_000;

/// One of the four fixed small scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `A —[S0]— R0 —— R1(core) —— R2 —[S1]— B`; A is a member.
    Line,
    /// A square R0–R1–R3–R2 with the diagonal R1–R2, cores [R3, R2];
    /// A behind R0 is a member, B behind R1 is not.
    Diamond,
    /// Rlow and Rhigh share H's LAN, both uplinked to Rcore, behind
    /// which M sits; H is a member.
    DualDr,
    /// `Y —[S1]— Rp —— Rm —— Rs` with X on Rm's LAN, cores [Rp, Rs]:
    /// the LAN-less secondary core of a revived primary.
    /// Rp is down from boot until 40 s, so member X's branch is a
    /// fragment rooted at Rs when the search starts, just after Rp
    /// restarted empty.
    TwoCore,
}

impl Scope {
    /// Every scope, in report order.
    pub const ALL: [Scope; 4] = [Scope::Line, Scope::Diamond, Scope::DualDr, Scope::TwoCore];

    /// Stable name (the replay key).
    const fn name(self) -> &'static str {
        match self {
            Scope::Line => "line",
            Scope::Diamond => "diamond",
            Scope::DualDr => "dual-dr",
            Scope::TwoCore => "two-core",
        }
    }

    /// Looks a scope up by name.
    fn by_name(name: &str) -> Option<Scope> {
        Scope::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Builds the scope's network, core list and boot members.
    pub fn spec(self) -> ScopeSpec {
        let mut b = NetworkBuilder::new();
        let (cores, primary, members) = match self {
            Scope::Line => {
                let r: Vec<RouterId> = (0..3).map(|i| b.router(format!("R{i}"))).collect();
                b.link(r[0], r[1], 1);
                b.link(r[1], r[2], 1);
                let (s0, s1) = (b.lan("S0"), b.lan("S1"));
                b.attach(s0, r[0]);
                b.attach(s1, r[2]);
                let a = b.host("A", s0);
                b.host("B", s1);
                (vec![r[1]], r[1], vec![a])
            }
            Scope::Diamond => {
                let r: Vec<RouterId> = (0..4).map(|i| b.router(format!("R{i}"))).collect();
                for (x, y) in [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)] {
                    b.link(r[x], r[y], 1);
                }
                let (s0, s1) = (b.lan("S0"), b.lan("S1"));
                b.attach(s0, r[0]);
                b.attach(s1, r[1]);
                let a = b.host("A", s0);
                b.host("B", s1);
                (vec![r[3], r[2]], r[3], vec![a])
            }
            Scope::DualDr => {
                let low = b.router("Rlow");
                let high = b.router("Rhigh");
                let core = b.router("Rcore");
                let s0 = b.lan("S0");
                b.attach(s0, low);
                b.attach(s0, high);
                let h = b.host("H", s0);
                b.link(low, core, 1);
                b.link(high, core, 1);
                let s1 = b.lan("S1");
                b.attach(s1, core);
                b.host("M", s1);
                (vec![core], core, vec![h])
            }
            Scope::TwoCore => {
                let p = b.router("Rp");
                let m = b.router("Rm");
                let s = b.router("Rs");
                b.link(p, m, 1);
                b.link(m, s, 1);
                let s0 = b.lan("S0");
                b.attach(s0, m);
                let x = b.host("X", s0);
                let s1 = b.lan("S1");
                b.attach(s1, p);
                b.host("Y", s1);
                (vec![p, s], p, vec![x])
            }
        };
        let net = b.build();
        ScopeSpec {
            scope: self,
            plan: DeliveryPlan::new(&net),
            cores: cores.iter().map(|&r| net.router_addr(r)).collect(),
            primary,
            members,
            net: Arc::new(net),
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scope, built: what every replay of it shares.
pub struct ScopeSpec {
    scope: Scope,
    net: Arc<NetworkSpec>,
    plan: DeliveryPlan,
    /// The group's core list, primary first.
    cores: Vec<Addr>,
    primary: RouterId,
    /// Hosts that join at boot.
    members: Vec<HostId>,
}

/// One transition of the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Deliver the `i`-th frame in flight.
    Deliver(usize),
    /// Drop the `i`-th frame in flight (a fault).
    Drop(usize),
    /// Put a second copy of the `i`-th frame in flight (a fault).
    Dup(usize),
    /// Fire the earliest due timer: time moves to it.
    Timer,
    /// A host joins the group.
    Join(HostId),
    /// A host leaves the group.
    Leave(HostId),
    /// A router crashes (a fault).
    Crash(RouterId),
    /// A crashed router restarts with empty state (§6.2).
    Restart(RouterId),
    /// A link or LAN goes down (a fault).
    Cut(Medium),
    /// A cut link or LAN comes back.
    Restore(Medium),
}

impl Step {
    fn is_fault(self) -> bool {
        matches!(self, Step::Drop(_) | Step::Dup(_) | Step::Crash(_) | Step::Cut(_))
    }

    fn is_membership(self) -> bool {
        matches!(self, Step::Join(_) | Step::Leave(_))
    }

    /// The fault column this step counts under, if it is a fault.
    fn fault_kind(self) -> Option<usize> {
        match self {
            Step::Drop(_) => Some(0),
            Step::Dup(_) => Some(1),
            Step::Crash(_) => Some(2),
            Step::Cut(_) => Some(3),
            _ => None,
        }
    }

    /// Parses the `Display` form back.
    fn parse(s: &str) -> Option<Step> {
        let (head, arg) = s.trim().split_once(' ').unwrap_or((s.trim(), ""));
        let index = |p: &str| arg.strip_prefix(p)?.parse::<u32>().ok();
        let medium = || match arg.as_bytes().first()? {
            b'l' => Some(Medium::Link(LinkId(index("l")?))),
            b's' => Some(Medium::Lan(LanId(index("s")?))),
            _ => None,
        };
        Some(match head {
            "deliver" => Step::Deliver(arg.parse().ok()?),
            "drop" => Step::Drop(arg.parse().ok()?),
            "dup" => Step::Dup(arg.parse().ok()?),
            "timer" if arg.is_empty() => Step::Timer,
            "join" => Step::Join(HostId(index("h")?)),
            "leave" => Step::Leave(HostId(index("h")?)),
            "crash" => Step::Crash(RouterId(index("r")?)),
            "restart" => Step::Restart(RouterId(index("r")?)),
            "cut" => Step::Cut(medium()?),
            "restore" => Step::Restore(medium()?),
            _ => return None,
        })
    }
}

fn medium_str(m: Medium) -> String {
    match m {
        Medium::Link(l) => format!("l{}", l.0),
        Medium::Lan(l) => format!("s{}", l.0),
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Step::Deliver(i) => write!(f, "deliver {i}"),
            Step::Drop(i) => write!(f, "drop {i}"),
            Step::Dup(i) => write!(f, "dup {i}"),
            Step::Timer => write!(f, "timer"),
            Step::Join(h) => write!(f, "join h{}", h.0),
            Step::Leave(h) => write!(f, "leave h{}", h.0),
            Step::Crash(r) => write!(f, "crash r{}", r.0),
            Step::Restart(r) => write!(f, "restart r{}", r.0),
            Step::Cut(m) => write!(f, "cut {}", medium_str(m)),
            Step::Restore(m) => write!(f, "restore {}", medium_str(m)),
        }
    }
}

/// A state of the search, as the transitions that reach it from the
/// scope's boot: the one replay format, `scope: step, step, …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The scope.
    pub scope: Scope,
    /// The transitions, in order.
    pub steps: Vec<Step>,
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.scope)?;
        for (i, s) in self.steps.iter().enumerate() {
            write!(f, "{}{s}", if i == 0 { " " } else { ", " })?;
        }
        Ok(())
    }
}

impl Trace {
    /// Parses the `Display` form back.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let (scope, steps) = text.split_once(':').ok_or("no `scope:` prefix")?;
        let scope =
            Scope::by_name(scope.trim()).ok_or_else(|| format!("unknown scope {scope:?}"))?;
        let steps = steps
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| Step::parse(s).ok_or_else(|| format!("bad step {s:?}")))
            .collect::<Result<_, _>>()?;
        Ok(Trace { scope, steps })
    }

    /// Boots the scope, replays the trace under `shards`-way engines and
    /// runs the oracles.
    pub fn replay(&self, shards: usize) -> Result<Verdict, String> {
        let spec = self.scope.spec();
        let mut net = Net::boot(&spec, shards);
        for (i, &s) in self.steps.iter().enumerate() {
            net.apply(s).map_err(|e| format!("step {i} ({s}): {e}"))?;
        }
        Ok(net.verdict())
    }
}

/// What the oracles said about one state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Did the healed world reach a transient-free instant?
    pub quiesced: bool,
    /// One line per violation; empty when the state is sound.
    pub violations: Vec<String>,
}

impl Verdict {
    /// No violation, and quiesced.
    pub fn is_clean(&self) -> bool {
        self.quiesced && self.violations.is_empty()
    }
}

/// A node of the world: a handful per scope, so unboxed.
#[allow(clippy::large_enum_variant)]
enum Node {
    Router(RouterNode),
    Host(HostApp),
}

impl Node {
    fn sim(&mut self) -> &mut dyn SimNode {
        match self {
            Node::Router(r) => r,
            Node::Host(h) => h,
        }
    }

    fn wakeup(&self) -> Option<SimTime> {
        match self {
            Node::Router(r) => r.next_wakeup(),
            Node::Host(h) => h.next_wakeup(),
        }
    }
}

/// One frame in flight to one receiver.
#[derive(Clone)]
struct Frame {
    from: usize,
    to: usize,
    iface: IfIndex,
    link_src: Addr,
    medium: Medium,
    bytes: Bytes,
}

impl Frame {
    fn same_delivery(&self, o: &Frame) -> bool {
        (self.to, self.iface, self.link_src, &self.bytes) == (o.to, o.iface, o.link_src, &o.bytes)
    }
}

/// The checker's world over one scope.
pub struct Net<'s> {
    spec: &'s ScopeSpec,
    cfg: CbtConfig,
    now: SimTime,
    /// By [`DeliveryPlan::index`]: routers, then hosts.
    nodes: Vec<Node>,
    failures: FailureSet,
    rib: Arc<RwLock<Rib>>,
    /// In emission order; a `Deliver(i)` names an index here.
    flight: Vec<Frame>,
    out: Outbox,
    faults: u32,
    membership: u32,
}

impl<'s> Net<'s> {
    /// Boots every node at time zero, joins the scope's members at 1 s
    /// and runs to 6 s (the two-core scope: with its primary down
    /// until 40 s), every frame delivered in emission order.
    pub fn boot(spec: &'s ScopeSpec, shards: usize) -> Net<'s> {
        let mut cfg = CbtConfig::fast();
        cfg.shards = shards;
        let rib = Arc::new(RwLock::new(Rib::converged(spec.net.clone())));
        let mut nodes = Vec::with_capacity(spec.plan.num_entities());
        for i in 0..spec.net.routers.len() as u32 {
            let routes = RouteHandle::new(rib.clone(), i);
            let r = RouterNode::new(&spec.net, RouterId(i), cfg.clone(), routes, SimTime::ZERO);
            nodes.push(Node::Router(r));
        }
        for h in &spec.net.hosts {
            nodes.push(Node::Host(HostApp::new(h.addr, 3, cfg.igmp)));
        }
        let mut net = Net {
            spec,
            cfg,
            now: SimTime::ZERO,
            nodes,
            failures: FailureSet::none(),
            rib,
            flight: Vec::new(),
            out: Outbox::new(),
            faults: 0,
            membership: 0,
        };
        for &h in &spec.members {
            let cores = spec.cores.clone();
            net.host_mut(h).join_at(SimTime::from_secs(1), GROUP, cores);
        }
        for i in 0..net.nodes.len() {
            net.nodes[i].sim().on_timer(SimTime::ZERO, &mut net.out);
            net.emit(i);
        }
        if spec.scope == Scope::TwoCore {
            net.apply(Step::Crash(spec.primary)).expect("up at boot");
            net.run_until(REVIVAL);
            net.apply(Step::Restart(spec.primary)).expect("down");
            net.faults = 0;
        }
        net.run_until(net.now.max(BOOT));
        net
    }

    fn host_index(&self, h: HostId) -> usize {
        self.spec.net.routers.len() + h.0 as usize
    }

    fn host_mut(&mut self, h: HostId) -> &mut HostApp {
        let i = self.host_index(h);
        match &mut self.nodes[i] {
            Node::Host(app) => app,
            Node::Router(_) => unreachable!("hosts follow routers"),
        }
    }

    fn host(&self, h: HostId) -> &HostApp {
        match &self.nodes[self.host_index(h)] {
            Node::Host(app) => app,
            Node::Router(_) => unreachable!("hosts follow routers"),
        }
    }

    /// Router `r`'s node while it is up.
    fn router(&self, r: RouterId) -> Option<&RouterNode> {
        match &self.nodes[r.0 as usize] {
            Node::Router(n) if !self.failures.router_down(r) => Some(n),
            _ => None,
        }
    }

    fn medium_down(&self, m: Medium) -> bool {
        match m {
            Medium::Link(l) => self.failures.link_down(l),
            Medium::Lan(l) => self.failures.lan_down(l),
        }
    }

    fn down(&self, i: usize) -> bool {
        i < self.spec.net.routers.len() && self.failures.router_down(RouterId(i as u32))
    }

    /// Puts what node `from` just sent in flight, one frame per live
    /// receiver; a transmission onto a cut medium goes nowhere.
    fn emit(&mut self, from: usize) {
        let sends: Vec<_> = self.out.drain().collect();
        let plan = &self.spec.plan;
        for tx in sends {
            let Some(route) = plan.route(plan.entity(from), tx.iface) else { continue };
            if self.medium_down(route.medium) {
                continue;
            }
            for rx in route.heard_by(tx.link_dst) {
                let to = plan.index(rx.entity).expect("receivers are in the plan");
                if !self.down(to) {
                    self.flight.push(Frame {
                        from,
                        to,
                        iface: rx.iface,
                        link_src: route.link_src,
                        medium: route.medium,
                        bytes: tx.frame.clone(),
                    });
                }
            }
        }
    }

    fn deliver(&mut self, i: usize) {
        let f = self.flight.remove(i);
        let now = self.now;
        self.nodes[f.to].sim().on_packet(now, f.iface, f.link_src, &f.bytes, &mut self.out);
        self.emit(f.to);
    }

    /// The up node with the earliest wakeup (lowest index on a tie).
    fn earliest(&self) -> Option<(usize, SimTime)> {
        (0..self.nodes.len())
            .filter(|&i| !self.down(i))
            .filter_map(|i| self.nodes[i].wakeup().map(|t| (i, t)))
            .min_by_key(|&(i, t)| (t, i))
    }

    fn fire(&mut self, i: usize, at: SimTime) {
        self.now = self.now.max(at);
        let now = self.now;
        self.nodes[i].sim().on_timer(now, &mut self.out);
        self.emit(i);
    }

    /// Runs in time order to `t`: every frame in flight is delivered
    /// before the next timer fires. Returns false if the world kept
    /// stepping without reaching `t`.
    fn run_until(&mut self, t: SimTime) -> bool {
        for _ in 0..STEP_CAP {
            if !self.flight.is_empty() {
                self.deliver(0);
                continue;
            }
            match self.earliest() {
                Some((i, at)) if at <= t => self.fire(i, at),
                _ => {
                    self.now = self.now.max(t);
                    return true;
                }
            }
        }
        false
    }

    fn run_for(&mut self, d: SimDuration) -> bool {
        self.run_until(self.now + d)
    }

    fn reroute(&self) {
        self.rib.write().expect("rib lock poisoned").apply_failures(&self.failures);
    }

    /// The transitions enabled here under `b`'s budgets, in a fixed
    /// order. Of several identical frames in flight only the first is
    /// offered.
    pub fn enabled(&self, b: &Bounds) -> Vec<Step> {
        let mut steps = Vec::new();
        let fault = self.faults < b.faults;
        if self.earliest().is_some() {
            steps.push(Step::Timer);
        }
        for (i, f) in self.flight.iter().enumerate() {
            if self.flight[..i].iter().any(|g| g.same_delivery(f)) {
                continue;
            }
            steps.push(Step::Deliver(i));
            if fault {
                steps.extend([Step::Drop(i), Step::Dup(i)]);
            }
        }
        if self.membership < b.membership {
            for h in 0..self.spec.net.hosts.len() as u32 {
                let h = HostId(h);
                steps.push(if self.host(h).is_member(GROUP) {
                    Step::Leave(h)
                } else {
                    Step::Join(h)
                });
            }
        }
        for r in 0..self.spec.net.routers.len() as u32 {
            let r = RouterId(r);
            if self.failures.router_down(r) {
                steps.push(Step::Restart(r));
            } else if fault {
                steps.push(Step::Crash(r));
            }
        }
        let media = (0..self.spec.net.links.len() as u32)
            .map(|l| Medium::Link(LinkId(l)))
            .chain((0..self.spec.net.lans.len() as u32).map(|l| Medium::Lan(LanId(l))));
        for m in media {
            if self.medium_down(m) {
                steps.push(Step::Restore(m));
            } else if fault {
                steps.push(Step::Cut(m));
            }
        }
        steps
    }

    /// Applies one transition; an error names a step that is not
    /// enabled here.
    pub fn apply(&mut self, step: Step) -> Result<(), String> {
        let net = &self.spec.net;
        let exists = match step {
            Step::Join(h) | Step::Leave(h) => (h.0 as usize) < net.hosts.len(),
            Step::Crash(r) | Step::Restart(r) => (r.0 as usize) < net.routers.len(),
            Step::Cut(Medium::Link(l)) | Step::Restore(Medium::Link(l)) => {
                (l.0 as usize) < net.links.len()
            }
            Step::Cut(Medium::Lan(l)) | Step::Restore(Medium::Lan(l)) => {
                (l.0 as usize) < net.lans.len()
            }
            _ => true,
        };
        if !exists {
            return Err(format!("the {} scope has no such element", self.spec.scope));
        }
        let flight = |i: usize| if i < self.flight.len() { Ok(i) } else { Err("no such frame") };
        match step {
            Step::Deliver(i) => self.deliver(flight(i)?),
            Step::Drop(i) => {
                self.flight.remove(flight(i)?);
            }
            Step::Dup(i) => self.flight.push(self.flight[flight(i)?].clone()),
            Step::Timer => {
                let (i, at) = self.earliest().ok_or("no timer armed")?;
                self.fire(i, at);
            }
            Step::Join(h) | Step::Leave(h) => {
                let now = self.now;
                let cores = self.spec.cores.clone();
                let app = self.host_mut(h);
                match step {
                    Step::Join(_) => app.join_at(now, GROUP, cores),
                    _ => app.leave_at(now, GROUP),
                }
                self.fire(self.host_index(h), now);
            }
            Step::Crash(r) => {
                if self.router(r).is_none() {
                    return Err("router not up".into());
                }
                self.failures.fail_router(r);
                self.reroute();
                self.flight.retain(|f| f.to != r.0 as usize);
            }
            Step::Restart(r) => {
                if !self.failures.router_down(r) {
                    return Err("router not down".into());
                }
                self.failures.restore_router(r);
                self.reroute();
                let routes = RouteHandle::new(self.rib.clone(), r.0);
                let node = RouterNode::new(&self.spec.net, r, self.cfg.clone(), routes, self.now);
                self.nodes[r.0 as usize] = Node::Router(node);
            }
            Step::Cut(m) => {
                let cut = match m {
                    Medium::Link(l) => self.failures.fail_link(l),
                    Medium::Lan(l) => self.failures.fail_lan(l),
                };
                if !cut {
                    return Err("already down".into());
                }
                self.reroute();
                self.flight.retain(|f| f.medium != m);
            }
            Step::Restore(m) => {
                let restored = match m {
                    Medium::Link(l) => self.failures.restore_link(l),
                    Medium::Lan(l) => self.failures.restore_lan(l),
                };
                if !restored {
                    return Err("not down".into());
                }
                self.reroute();
            }
        }
        self.faults += step.is_fault() as u32;
        self.membership += step.is_membership() as u32;
        Ok(())
    }

    /// The protocol phase a fault lands in: the most failure-interesting
    /// phase among the up routers it touches.
    fn phase_of(&self, step: Step) -> ProtocolPhase {
        let routers = self.spec.net.routers.len();
        let touched: Vec<usize> = match step {
            Step::Drop(i) | Step::Dup(i) => vec![self.flight[i].from, self.flight[i].to],
            Step::Crash(r) => vec![r.0 as usize],
            Step::Cut(Medium::Link(l)) => {
                let l = &self.spec.net.links[l.0 as usize];
                vec![l.a.0 as usize, l.b.0 as usize]
            }
            Step::Cut(Medium::Lan(l)) => {
                self.spec.net.lans[l.0 as usize].routers.iter().map(|r| r.0 as usize).collect()
            }
            _ => vec![],
        };
        touched
            .into_iter()
            .filter(|&i| i < routers)
            .filter_map(|i| self.router(RouterId(i as u32)))
            .map(|n| n.sharded().protocol_phase(GROUP, self.now))
            .max_by_key(|&p| rank(p))
            .unwrap_or(ProtocolPhase::Idle)
    }

    /// The state digest: FNV-1a over the budgets spent, what is down,
    /// every node's view with its next wakeup relative to now, and the
    /// frames in flight as a multiset.
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.put(&[self.faults as u8, self.membership as u8]);
        let rel = |t: Option<SimTime>| {
            t.map_or(u64::MAX, |t| t.micros().saturating_sub(self.now.micros()))
        };
        for (i, spec) in self.spec.net.routers.iter().enumerate() {
            let Some(node) = self.router(RouterId(i as u32)) else {
                h.put(&[0]);
                continue;
            };
            let r = node.sharded();
            let mut v = r.group_view(GROUP);
            v.children.sort_unstable();
            let flags =
                [1, v.on_tree as u8, v.i_am_core as u8, v.pending_join as u8, v.transient as u8];
            h.put(&flags);
            h.put(&[r.protocol_phase(GROUP, self.now) as u8]);
            h.put(&v.parent.map_or(0, |a| a.0).to_be_bytes());
            for c in v.children {
                h.put(&c.0.to_be_bytes());
            }
            for (k, ifc) in spec.ifaces.iter().enumerate() {
                if matches!(ifc.attachment, cbt_topology::Attachment::Lan(_)) {
                    let k = IfIndex(k as u32);
                    h.put(&[r.i_am_dr(k, self.now) as u8, r.is_gdr(k, GROUP) as u8]);
                }
            }
            h.put(&rel(node.next_wakeup()).to_be_bytes());
        }
        for hi in 0..self.spec.net.hosts.len() as u32 {
            let app = self.host(HostId(hi));
            h.put(&[app.is_member(GROUP) as u8]);
            h.put(&rel(app.next_wakeup()).to_be_bytes());
        }
        for l in 0..self.spec.net.links.len() as u32 {
            h.put(&[self.failures.link_down(LinkId(l)) as u8]);
        }
        for l in 0..self.spec.net.lans.len() as u32 {
            h.put(&[self.failures.lan_down(LanId(l)) as u8]);
        }
        let mut frames: Vec<u64> = self
            .flight
            .iter()
            .map(|f| {
                let mut fh = Fnv::new();
                fh.put(&(f.to as u32).to_be_bytes());
                fh.put(&f.iface.0.to_be_bytes());
                fh.put(&f.link_src.0.to_be_bytes());
                fh.put(&f.bytes);
                fh.0
            })
            .collect();
        frames.sort_unstable();
        for f in frames {
            h.put(&f.to_be_bytes());
        }
        h.0
    }

    /// Heals everything, settles and runs the oracles. Consumes the
    /// state: the world has moved on.
    pub fn verdict(&mut self) -> Verdict {
        self.heal();
        let mut settled = self.run_for(SETTLE);
        let mut quiesced = settled && self.await_quiescence();
        let mut violations = self.violations();
        if !violations.is_empty() || !quiesced {
            settled = self.run_for(GRACE);
            quiesced = settled && self.await_quiescence();
            violations = self.violations();
        }
        if !settled {
            violations.push(format!("no progress: {STEP_CAP} callbacks without time moving"));
        } else if !quiesced {
            violations.push("never quiesced within budget".into());
        }
        if violations.is_empty() {
            violations = self.probe();
        }
        Verdict { quiesced, violations }
    }

    /// Restarts every crashed router and restores every cut link and
    /// LAN, in the order `enabled` offers them.
    fn heal(&mut self) {
        let no_budget = Bounds { depth: 0, faults: 0, membership: 0 };
        for step in self.enabled(&no_budget) {
            if matches!(step, Step::Restart(_) | Step::Restore(_)) {
                self.apply(step).expect("enabled");
            }
        }
    }

    fn await_quiescence(&mut self) -> bool {
        let deadline = self.now + QUIESCE_BUDGET;
        loop {
            let transient = (0..self.spec.net.routers.len() as u32)
                .filter_map(|r| self.router(RouterId(r)))
                .any(|n| n.sharded().group_view(GROUP).transient);
            if !transient {
                return true;
            }
            if self.now >= deadline || !self.run_for(QUIESCE_STEP) {
                return false;
            }
        }
    }

    /// The tree invariants, then the one-root rule: while the primary
    /// core is up, no other router roots a branch — is on tree without
    /// a parent while holding children or serving a member's LAN. The
    /// invariants accept a tree rooted at a secondary core; a fragment
    /// the revived primary never absorbs is exactly that.
    fn violations(&self) -> Vec<String> {
        let net = &self.spec.net;
        let mut vs: Vec<String> =
            check_node_set(net, &[GROUP], |r| self.router(r), |h| self.host(h))
                .iter()
                .map(|v| v.to_string())
                .collect();
        if self.router(self.spec.primary).is_none() {
            return vs;
        }
        let member_lans: Vec<LanId> = (0..net.hosts.len() as u32)
            .filter(|&h| self.host(HostId(h)).is_member(GROUP))
            .map(|h| net.hosts[h as usize].lan)
            .collect();
        for (i, spec) in net.routers.iter().enumerate() {
            let r = RouterId(i as u32);
            let Some(node) = self.router(r).filter(|_| r != self.spec.primary) else { continue };
            let v = node.sharded().group_view(GROUP);
            let serves_lan = spec.ifaces.iter().any(|ifc| {
                matches!(ifc.attachment, cbt_topology::Attachment::Lan(l) if member_lans.contains(&l))
            });
            if v.on_tree && v.parent.is_none() && (!v.children.is_empty() || serves_lan) {
                vs.push(format!(
                    "OneRoot router=r{i}: roots a branch while the primary core r{} is up",
                    self.spec.primary.0
                ));
            }
        }
        vs
    }

    /// The delivery probe: each member host in turn sends one packet,
    /// and every other member host must receive exactly one copy. (A
    /// non-member's first-hop router learns the core list only from
    /// joins, so it may rightly have nowhere to send.)
    fn probe(&mut self) -> Vec<String> {
        let mut vs = Vec::new();
        let hosts = self.spec.net.hosts.len() as u32;
        for s in 0..hosts {
            if !self.host(HostId(s)).is_member(GROUP) {
                continue;
            }
            let payload = format!("probe from h{s}").into_bytes();
            let now = self.now;
            self.host_mut(HostId(s)).send_at(now, GROUP, payload.clone(), 16);
            self.fire(self.host_index(HostId(s)), now);
            let mut budget = STEP_CAP;
            while !self.flight.is_empty() && budget > 0 {
                self.deliver(0);
                budget -= 1;
            }
            for m in (0..hosts).filter(|&m| m != s) {
                let app = self.host(HostId(m));
                if !app.is_member(GROUP) {
                    continue;
                }
                let copies = app.received().iter().filter(|d| d.payload == payload).count();
                if copies != 1 {
                    let name = &self.spec.net.hosts[m as usize].name;
                    vs.push(format!("Probe host={name}: {copies} copies of h{s}'s probe"));
                }
            }
        }
        vs
    }
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Precedence when a fault touches routers in several phases: label it
/// with the most failure-interesting one.
fn rank(p: ProtocolPhase) -> u8 {
    match p {
        ProtocolPhase::Idle => 0,
        ProtocolPhase::Attached => 1,
        ProtocolPhase::EchoWait => 2,
        ProtocolPhase::PendingJoin => 3,
        ProtocolPhase::CoreUnreachable => 4,
        ProtocolPhase::Teardown => 5,
    }
}

/// The fault columns of the coverage table.
const FAULT_KINDS: [&str; 4] = ["drop", "dup", "crash", "cut"];

/// The search bounds: a preset holds them constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Transitions from boot.
    pub depth: usize,
    /// Drops, duplicates, crashes and cuts per trace.
    pub faults: u32,
    /// Joins and leaves per trace.
    pub membership: u32,
}

/// One expanded state: its verdict and its successors.
struct Expansion {
    verdict: Verdict,
    /// `(step, successor digest, phase the step landed in)`.
    successors: Vec<(Step, u64, ProtocolPhase)>,
}

fn expand(spec: &ScopeSpec, steps: &[Step], b: &Bounds, shards: usize) -> Expansion {
    let replay = || {
        let mut net = Net::boot(spec, shards);
        for &s in steps {
            net.apply(s).expect("search traces replay");
        }
        net
    };
    let mut here = replay();
    let mut successors = Vec::new();
    if steps.len() < b.depth {
        for step in here.enabled(b) {
            let mut next = replay();
            let phase = next.phase_of(step);
            next.apply(step).expect("enabled");
            successors.push((step, next.digest(), phase));
        }
    }
    Expansion { verdict: here.verdict(), successors }
}

/// What the search found in one scope.
#[derive(Debug, Clone)]
struct ScopeReport {
    /// Which scope.
    scope: Scope,
    /// Distinct states checked.
    states: u64,
    /// Transitions taken (to new and to already-seen states).
    transitions: u64,
    /// Deepest level that held a new state.
    max_depth: usize,
    /// States whose verdict was not clean.
    violating: u64,
    /// States whose healed world never quiesced.
    unquiesced: u64,
    /// Fault transitions per protocol phase and fault column.
    coverage: [[u64; FAULT_KINDS.len()]; ProtocolPhase::COUNT],
    /// The first violating state, which breadth first is a shortest
    /// one, with its verdict.
    counterexample: Option<(Trace, Verdict)>,
}

/// Searches one scope breadth first to `b`.
fn search(scope: Scope, b: &Bounds, shards: usize) -> ScopeReport {
    let spec = scope.spec();
    let mut r = ScopeReport {
        scope,
        states: 0,
        transitions: 0,
        max_depth: 0,
        violating: 0,
        unquiesced: 0,
        coverage: [[0; FAULT_KINDS.len()]; ProtocolPhase::COUNT],
        counterexample: None,
    };
    let mut seen: HashSet<u64> = HashSet::from([Net::boot(&spec, shards).digest()]);
    let mut level: Vec<Vec<Step>> = vec![Vec::new()];
    for depth in 0..=b.depth {
        if level.is_empty() {
            break;
        }
        r.max_depth = depth;
        let done = crate::parallel::run_trials(&level, |steps| expand(&spec, steps, b, shards));
        let mut next = Vec::new();
        for (steps, e) in level.iter().zip(done) {
            r.states += 1;
            r.unquiesced += !e.verdict.quiesced as u64;
            if !e.verdict.is_clean() {
                r.violating += 1;
                if r.counterexample.is_none() {
                    let trace = Trace { scope, steps: steps.clone() };
                    r.counterexample = Some((trace, e.verdict));
                }
            }
            for (step, digest, phase) in e.successors {
                r.transitions += 1;
                if let Some(k) = step.fault_kind() {
                    r.coverage[phase as usize][k] += 1;
                }
                if seen.insert(digest) {
                    let mut s = steps.clone();
                    s.push(step);
                    next.push(s);
                }
            }
        }
        level = next;
    }
    r
}

/// The preset: constant bounds, no options.
#[derive(Debug, Clone)]
pub struct Params {
    /// Preset name for the report.
    preset: &'static str,
    /// The bounds every scope is searched to.
    bounds: Bounds,
    /// Engine shard count.
    shards: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            preset: "full",
            bounds: Bounds { depth: 10, faults: 2, membership: 2 },
            shards: CbtConfig::default().shards,
        }
    }
}

impl Params {
    /// The preset CI runs.
    pub fn quick() -> Self {
        Params {
            preset: "quick",
            bounds: Bounds { depth: 8, faults: 1, membership: 2 },
            ..Params::default()
        }
    }
}

/// Searches every scope and renders the report.
pub fn run(p: &Params) -> Report {
    let scopes: Vec<ScopeReport> =
        Scope::ALL.iter().map(|&s| search(s, &p.bounds, p.shards)).collect();
    render(p, &scopes)
}

fn render(p: &Params, scopes: &[ScopeReport]) -> Report {
    let b = p.bounds;
    let mut report = Report::new("Expl-1", "small-scope exhaustive check");
    let sum = |f: fn(&ScopeReport) -> u64| scopes.iter().map(f).sum::<u64>();
    let (states, transitions) = (sum(|s| s.states), sum(|s| s.transitions));
    let (violating, unquiesced) = (sum(|s| s.violating), sum(|s| s.unquiesced));
    let mut coverage = [[0u64; FAULT_KINDS.len()]; ProtocolPhase::COUNT];
    for s in scopes {
        for (row, srow) in coverage.iter_mut().zip(&s.coverage) {
            for (c, sc) in row.iter_mut().zip(srow) {
                *c += sc;
            }
        }
    }
    let phases_covered = coverage.iter().filter(|row| row.iter().any(|&c| c > 0)).count();
    let max_depth = scopes.iter().map(|s| s.max_depth).max().unwrap_or(0);

    let mut t = Table::new(["scope", "states", "transitions", "max depth", "violating"]);
    for s in scopes {
        t.row([
            s.scope.name().to_string(),
            s.states.to_string(),
            s.transitions.to_string(),
            s.max_depth.to_string(),
            s.violating.to_string(),
        ]);
    }
    report.table(
        format!(
            "{} preset: depth ≤ {}, faults ≤ {}, membership ≤ {}",
            p.preset, b.depth, b.faults, b.membership
        ),
        t,
    );
    let mut cov =
        Table::new(["phase", FAULT_KINDS[0], FAULT_KINDS[1], FAULT_KINDS[2], FAULT_KINDS[3]]);
    for ph in ProtocolPhase::ALL {
        let mut row = vec![ph.as_str().to_string()];
        row.extend(coverage[ph as usize].iter().map(|c| c.to_string()));
        cov.row(row);
    }
    report.table("fault transitions per protocol phase", cov);

    let counterexamples: Vec<_> = scopes
        .iter()
        .filter_map(|s| s.counterexample.as_ref())
        .map(|(trace, v)| json!({"trace": trace.to_string(), "verdict": v.violations}))
        .collect();
    report.json = json!({
        "preset": p.preset,
        "bounds": {"depth": b.depth, "faults": b.faults, "membership": b.membership},
        "shards": p.shards,
        "scopes": scopes.iter().map(|s| json!({
            "scope": s.scope.name(),
            "states": s.states,
            "transitions": s.transitions,
            "max_depth": s.max_depth,
            "violating": s.violating,
            "unquiesced": s.unquiesced,
        })).collect::<Vec<_>>(),
        "states": states,
        "transitions": transitions,
        "max_depth": max_depth,
        "violations": violating,
        "unquiesced": unquiesced,
        "phases_covered": phases_covered,
        "coverage": ProtocolPhase::ALL.iter().map(|&ph| json!({
            "phase": ph.as_str(),
            "faults": FAULT_KINDS.iter().zip(&coverage[ph as usize])
                .map(|(k, c)| json!({"fault": k, "count": c}))
                .collect::<Vec<_>>(),
        })).collect::<Vec<_>>(),
        "counterexamples": counterexamples,
    });

    report.finding(format!(
        "{states} distinct states ({transitions} transitions) explored to depth {max_depth} across \
         {} scopes; {violating} violating state(s); fault transitions landed in {phases_covered}/{} \
         protocol phases.",
        scopes.len(),
        ProtocolPhase::COUNT,
    ));
    if counterexamples.is_empty() {
        report.finding(format!(
            "Every state healed to a sound tree ({unquiesced} never quiesced): tree invariants, one \
             root while the primary core is up, and exactly one copy of every host's probe at every \
             other member."
        ));
    } else {
        report.finding(format!(
            "{} scope(s) hold a violating state; each scope's shortest trace is in the JSON \
             record's counterexamples and replays with `Trace::parse(..).replay(shards)`.",
            counterexamples.len()
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_and_traces_round_trip_through_text() {
        let steps = [
            Step::Deliver(3),
            Step::Drop(0),
            Step::Dup(12),
            Step::Timer,
            Step::Join(HostId(1)),
            Step::Leave(HostId(0)),
            Step::Crash(RouterId(2)),
            Step::Restart(RouterId(2)),
            Step::Cut(Medium::Link(LinkId(1))),
            Step::Restore(Medium::Lan(LanId(0))),
        ];
        let t = Trace { scope: Scope::DualDr, steps: steps.to_vec() };
        let text = t.to_string();
        assert_eq!(Trace::parse(&text), Ok(t), "{text}");
        assert_eq!(Trace::parse("line:"), Ok(Trace { scope: Scope::Line, steps: vec![] }));
        assert!(Trace::parse("line: deliver").is_err());
        assert!(Trace::parse("ring: timer").is_err());
        assert!(Trace::parse("line: cut x0").is_err());
    }

    #[test]
    fn every_scope_boots_to_a_clean_quiescent_tree() {
        for scope in Scope::ALL {
            let v = Trace { scope, steps: vec![] }.replay(1).unwrap();
            assert!(v.is_clean(), "{scope}: {v:?}");
        }
    }

    #[test]
    fn a_step_that_is_not_enabled_is_refused() {
        let t = Trace::parse("line: restart r0").unwrap();
        assert!(t.replay(1).unwrap_err().contains("router not down"));
        let t = Trace::parse("line: deliver 99").unwrap();
        assert!(t.replay(1).unwrap_err().contains("no such frame"));
        let t = Trace::parse("line: cut l7").unwrap();
        assert!(t.replay(1).unwrap_err().contains("no such element"));
    }

    /// A tiny bound still runs the whole pipeline: per-scope rows, the
    /// coverage table and a clean verdict on the healthy engine.
    #[test]
    fn a_shallow_search_is_clean_and_counts_its_states() {
        let p = Params {
            preset: "test",
            bounds: Bounds { depth: 2, faults: 1, membership: 1 },
            shards: 1,
        };
        let r = run(&p);
        assert_eq!(r.json["scopes"].as_array().unwrap().len(), 4);
        assert!(r.json["states"].as_u64().unwrap() > 20);
        assert_eq!(r.json["violations"], 0, "{}", r.json["counterexamples"]);
        assert_eq!(r.json["unquiesced"], 0);
        assert_eq!(r.json["coverage"].as_array().unwrap().len(), ProtocolPhase::COUNT);
    }
}
