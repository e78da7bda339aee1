//! `fleet_churn` and `fleet_faults`: ~10k live CBT engines in one
//! `NetscaleWorld`, driven through real join/leave control traffic —
//! and, for `fleet_faults`, through a seeded script of link flaps and
//! crash / §6.2 cold restarts that repairs the shared `FleetRib` while
//! the fleet is live.
//!
//! The method is `cbt-eval`'s `protoscale` / `soak` experiments,
//! re-implemented on public primitives so the drive can be timed
//! without its own input generation, the fault script is an input
//! (generated from `--seed` before the clock starts, not picked from
//! live tree state), and every layer boundary can be wrapped.

use crate::metrics::Outcome;
use crate::proc::{mb, rss_bytes, rss_peak_bytes};
use crate::rng::{Digest, XorShift};
use crate::stats;
use crate::trace::{self, Span};
use crate::wrap::FleetNode;
use cbt::{addr_node, node_addr, CbtConfig, FleetRib, P2pNode, ShardedRouter, SharedFleetRib};
use cbt_eval::membership::{FlashCrowd, MembershipEvent, MembershipParams, MembershipStream};
use cbt_netsim::{NetscaleWorld, SimDuration, SimTime};
use cbt_obs::{CtlKind, ObsSnapshot};
use cbt_topology::generate::{self, TransitStubParams};
use cbt_topology::{CsrGraph, RouterId, SpfScratch, SpfTree};
use cbt_wire::{Addr, GroupId};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// 4 × 8 × (1 + 4·77) = 9 888 live engines.
pub const TOPO: TransitStubParams = TransitStubParams {
    transit_domains: 4,
    transit_size: 8,
    stubs_per_transit_node: 4,
    stub_size: 77,
};
/// The topology is the same on every run; `--seed` varies membership
/// and faults. A metric then moves with the code, not with which
/// graph the seed happened to draw.
pub const TOPO_SEED: u64 = 1993;
/// Single-core groups, cores spread over the transit routers.
pub const GROUPS: usize = 16;
/// Simulated horizon and diurnal day (seconds).
pub const HORIZON_S: f64 = 600.0;
/// Mean membership holding time (seconds, simulated).
pub const HOLD_S: f64 = 60.0;
/// Join-sessions per requested wall second: sizes the fixed input so
/// the measured phase lasts about `--seconds` on the 2-core reference
/// box. The input is closed — faster code finishes sooner.
pub const CHURN_SESSIONS_PER_S: f64 = 3300.0;
/// As [`CHURN_SESSIONS_PER_S`] for `fleet_faults` (polling, repairs
/// and the heal/settle tail take their share of the wall).
pub const FAULT_SESSIONS_PER_S: f64 = 2600.0;
/// Link flaps in the fault script.
pub const FLAPS: usize = 24;
/// Crash + cold-restart events in the fault script.
pub const CRASHES: usize = 6;
/// A flapped link stays down longer than the 9 s echo timeout, so
/// §6.1 detection fires before the restore.
const FLAP_HOLD_US: u64 = 25_000_000;
const CRASH_HOLD_US: u64 = 20_000_000;
/// Serviced events per rate window behind `ops_per_s`.
const WINDOW_EVENTS: u64 = 40_000;
/// Reattachment poll cadence (sim time).
const POLL_US: u64 = 100_000;
/// Every this many polls, sweep for members adrift outside any fault
/// snapshot.
const STRAY_SWEEP_POLLS: u64 = 10;
const STRAY: usize = usize::MAX;

/// Engine configuration of the fleet: compressed timers, compact idle
/// state, children cap above the largest node degree, and one shard —
/// pinned, so `CBT_SHARDS` in the environment cannot change the run.
fn fleet_cfg() -> CbtConfig {
    let mut cfg = CbtConfig::fast();
    cfg.compact_idle = true;
    cfg.max_children = 4096;
    cfg.shards = 1;
    cfg
}

fn group_id(gi: usize) -> GroupId {
    GroupId::numbered((gi + 1) as u16)
}

/// What a scheduled fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Edge index into the edge list.
    Edge(usize),
    /// Router id.
    Node(u32),
}

/// One scripted fault.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// What goes down.
    pub target: Target,
    /// When (µs, simulated).
    pub at_us: u64,
    /// When it comes back.
    pub restore_us: u64,
}

#[derive(Clone, Copy)]
enum Act {
    Down(usize),
    Up(usize),
}

/// Everything a run consumes, generated from `--seed` before the clock
/// starts.
pub struct FleetInput {
    /// Undirected edges `(a, b, weight)`.
    pub edge_list: Vec<(u32, u32, u32)>,
    /// Router count.
    pub n: usize,
    /// Transit router count (ids `0..transit`).
    pub transit: usize,
    /// Core router per group.
    pub cores: Vec<u32>,
    /// The membership stream, time-ordered.
    pub events: Vec<MembershipEvent>,
    /// The fault script (empty for `fleet_churn`).
    pub faults: Vec<Fault>,
    /// Digest over events and faults.
    pub digest: u64,
    /// Topology generation (ms).
    pub topo_gen_ms: f64,
    /// Membership generation (ms).
    pub membership_gen_ms: f64,
}

fn edge_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Endpoint pair → edge index (the first of parallel edges).
fn edge_index(edge_list: &[(u32, u32, u32)]) -> HashMap<(u32, u32), usize> {
    let mut index = HashMap::with_capacity(edge_list.len());
    for (k, &(a, b, _)) in edge_list.iter().enumerate() {
        index.entry(edge_key(a, b)).or_insert(k);
    }
    index
}

/// With the current masks, does core 0's tree reach every live node?
fn connected(csr: &CsrGraph, root: u32, scratch: &mut SpfScratch) -> bool {
    let live = (0..csr.node_count() as u32).filter(|&i| csr.is_node_up(i)).count() as u64;
    SpfTree::full(csr, root, scratch).reached() == live
}

impl FleetInput {
    /// Generates the inputs of one run.
    pub fn generate(seed: u64, seconds: u64, with_faults: bool) -> FleetInput {
        let t0 = Instant::now();
        let n = TOPO.total_nodes();
        let transit = TOPO.transit_nodes();
        let g = generate::transit_stub(TOPO, TOPO_SEED);
        let edge_list: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
        let topo_gen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cores: Vec<u32> = (0..GROUPS).map(|gi| ((gi * transit) / GROUPS) as u32).collect();

        let t0 = Instant::now();
        let rate = if with_faults { FAULT_SESSIONS_PER_S } else { CHURN_SESSIONS_PER_S };
        let arrivals = (rate * seconds as f64) as usize;
        let mp = MembershipParams {
            groups: GROUPS,
            horizon_s: HORIZON_S,
            arrivals: if with_faults { arrivals } else { arrivals * 10 / 11 },
            hold_s: HOLD_S,
            diurnal_depth: 0.6,
            day_s: HORIZON_S,
            hotspot_frac: 0.5,
            // The flash crowd rides on the fault-free workload only:
            // a tenth of the background arrivals, packed into 1/72 of
            // the horizon, on one group.
            flash: (!with_faults).then(|| FlashCrowd {
                group: GROUPS as u32 / 2,
                at_s: 0.62 * HORIZON_S,
                joins: arrivals / 11,
                window_s: HORIZON_S / 72.0,
                hold_s: HOLD_S / 16.0,
            }),
        };
        let pool: Vec<u32> = (transit as u32..n as u32).collect();
        let events: Vec<MembershipEvent> = MembershipStream::new(&mp, pool, seed).collect();
        let membership_gen_ms = t0.elapsed().as_secs_f64() * 1e3;

        let faults = if with_faults {
            plan_faults(seed, &edge_list, n, transit, &cores)
        } else {
            Vec::new()
        };

        let mut d = Digest::default();
        for ev in &events {
            match *ev {
                MembershipEvent::Join { t_us, group, router } => {
                    d.word(t_us << 1);
                    d.word((group as u64) << 32 | router as u64);
                }
                MembershipEvent::Leave { t_us, group, router } => {
                    d.word(t_us << 1 | 1);
                    d.word((group as u64) << 32 | router as u64);
                }
            }
        }
        for f in &faults {
            d.word(f.at_us);
            d.word(match f.target {
                Target::Edge(k) => k as u64,
                Target::Node(r) => 1 << 40 | r as u64,
            });
        }
        FleetInput {
            edge_list,
            n,
            transit,
            cores,
            events,
            faults,
            digest: d.0,
            topo_gen_ms,
            membership_gen_ms,
        }
    }

    /// Join events in the stream.
    pub fn sessions(&self) -> u64 {
        self.events.iter().filter(|e| matches!(e, MembershipEvent::Join { .. })).count() as u64
    }
}

/// The fault script: flaps and crashes spread evenly across
/// `[0.15, 0.85]` of the horizon, crashes interleaved proportionally.
/// Connectivity-preserving by construction: a candidate is committed
/// only if an SPF probe over the graph masked with every fault down at
/// that instant still reaches every live node — so "every severed
/// member reattaches" is a protocol obligation, not a topology
/// lottery. Targets sit on core-ward shortest paths of random stub
/// routers, tried from the core side first: those edges carry whole
/// subtrees and have alternates.
fn plan_faults(
    seed: u64,
    edge_list: &[(u32, u32, u32)],
    n: usize,
    transit: usize,
    cores: &[u32],
) -> Vec<Fault> {
    let (mut csr, pairs) = CsrGraph::from_edges(n, edge_list);
    let mut scratch = SpfScratch::new();
    let trees: Vec<SpfTree> = cores.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
    let edge_index = edge_index(edge_list);
    let mut rng = XorShift::new(seed, 0xfa17_5c41);
    let total = FLAPS + CRASHES;
    let start_us = (0.15 * HORIZON_S * 1e6) as u64;
    let gap_us = (0.70 * HORIZON_S * 1e6) as u64 / total as u64;
    let mut out: Vec<Fault> = Vec::with_capacity(total);
    let set = |csr: &mut CsrGraph, t: Target, up: bool| match t {
        Target::Edge(k) => {
            csr.set_slot_live(pairs[k][0], up);
            csr.set_slot_live(pairs[k][1], up);
        }
        Target::Node(r) => csr.set_node_up(r, up),
    };
    for i in 0..total {
        let at_us = start_us + i as u64 * gap_us;
        // Bring the scratch graph to the instant of this fault.
        for f in &out {
            set(&mut csr, f.target, !(f.at_us <= at_us && at_us < f.restore_us));
        }
        let is_crash = ((i + 1) * CRASHES) / total > (i * CRASHES) / total;
        let mut picked = None;
        for _ in 0..256 {
            let gi = rng.below(cores.len());
            let m = transit as u32 + rng.below(n - transit) as u32;
            let Some(path) = trees[gi].path_to_root(m) else { continue };
            if is_crash {
                // Core-side first: the stub router nearest the backbone
                // that is not a cut vertex.
                for &r in path.iter().rev() {
                    if (r as usize) < transit || !csr.is_node_up(r) {
                        continue;
                    }
                    csr.set_node_up(r, false);
                    let ok = connected(&csr, cores[0], &mut scratch);
                    csr.set_node_up(r, true);
                    if ok {
                        picked = Some(Target::Node(r));
                        break;
                    }
                }
            } else {
                for w in path.windows(2).rev() {
                    let Some(&k) = edge_index.get(&edge_key(w[0], w[1])) else { continue };
                    if !csr.slot_live(pairs[k][0]) || !csr.is_node_up(w[0]) || !csr.is_node_up(w[1])
                    {
                        continue;
                    }
                    set(&mut csr, Target::Edge(k), false);
                    let ok = connected(&csr, cores[0], &mut scratch);
                    set(&mut csr, Target::Edge(k), true);
                    if ok {
                        picked = Some(Target::Edge(k));
                        break;
                    }
                }
            }
            if picked.is_some() {
                break;
            }
        }
        if let Some(target) = picked {
            let hold = if is_crash { CRASH_HOLD_US } else { FLAP_HOLD_US };
            out.push(Fault { target, at_us, restore_us: at_us + hold });
        }
    }
    out
}

/// Build timings of one fleet.
#[derive(Debug, Clone, Copy, Default)]
struct BuildTimes {
    spf_full_ms_per_tree: f64,
    rib_build_ms: f64,
    fleet_build_ms: f64,
    rss_before: u64,
    rss_after: u64,
}

/// A live fleet plus everything a fault needs to mutate consistently:
/// the CSR masks, the delivery plane, the repairable rib and the
/// membership ledger.
struct Fleet<N: FleetNode> {
    world: NetscaleWorld<N>,
    csr: CsrGraph,
    pairs: Vec<[u32; 2]>,
    edge_index: HashMap<(u32, u32), usize>,
    rib: SharedFleetRib,
    scratch: SpfScratch,
    cores: Vec<u32>,
    core_addrs: Vec<Addr>,
    gids: Vec<GroupId>,
    n: u32,
    /// Per group: member router → live session multiplicity.
    counts: Vec<HashMap<u32, u32>>,
    /// `(group, router)` → leaves owed to sessions that never started
    /// (router down) or that a crash killed.
    dead_leaves: HashMap<(u32, u32), u32>,
    /// Sessions that died with a crashed router.
    crash_killed: u64,
    rejoin_kicks: u64,
    repair_touched: u64,
    times: BuildTimes,
}

impl<N: FleetNode> Fleet<N> {
    fn build(input: &FleetInput) -> Fleet<N> {
        let n = input.n;
        let (csr, pairs) = CsrGraph::from_edges(n, &input.edge_list);
        let mut scratch = SpfScratch::new();
        let t0 = Instant::now();
        let trees: Vec<SpfTree> =
            input.cores.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
        let spf_full_ms_per_tree = t0.elapsed().as_secs_f64() * 1e3 / input.cores.len() as f64;
        let t0 = Instant::now();
        let rib = Arc::new(RwLock::new(FleetRib::repairable(&csr, &input.cores, trees)));
        let rib_build_ms = t0.elapsed().as_secs_f64() * 1e3;

        let rss_before = rss_bytes();
        let t0 = Instant::now();
        let cfg = fleet_cfg();
        let nodes: Vec<N> = (0..n as u32)
            .map(|i| {
                let degree = (csr.slot_base(i + 1) - csr.slot_base(i)) as usize;
                N::wrap(P2pNode::new(Self::engine(i, degree, &cfg, &rib, SimTime::ZERO)))
            })
            .collect();
        let world = NetscaleWorld::new(nodes, &csr, &pairs, &input.edge_list, |w| {
            SimDuration::from_millis(w.max(1) as u64)
        });
        let fleet_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let rss_after = rss_bytes();

        Fleet {
            world,
            csr,
            pairs,
            edge_index: edge_index(&input.edge_list),
            rib,
            scratch,
            core_addrs: input.cores.iter().map(|&c| node_addr(c)).collect(),
            cores: input.cores.clone(),
            gids: (0..input.cores.len()).map(group_id).collect(),
            n: n as u32,
            counts: vec![HashMap::new(); input.cores.len()],
            dead_leaves: HashMap::new(),
            crash_killed: 0,
            rejoin_kicks: 0,
            repair_touched: 0,
            times: BuildTimes {
                spf_full_ms_per_tree,
                rib_build_ms,
                fleet_build_ms,
                rss_before,
                rss_after,
            },
        }
    }

    fn engine(
        i: u32,
        degree: usize,
        cfg: &CbtConfig,
        rib: &SharedFleetRib,
        now: SimTime,
    ) -> ShardedRouter {
        ShardedRouter::p2p(
            RouterId(i),
            node_addr(i),
            degree,
            cfg.clone(),
            || N::routes(rib, i),
            now,
        )
    }

    fn degree(&self, r: u32) -> usize {
        (self.csr.slot_base(r + 1) - self.csr.slot_base(r)) as usize
    }

    fn run_until(&mut self, t_us: u64) {
        trace::enter(Span::NsRun, 0);
        self.world.run_until(SimTime::from_micros(t_us));
        trace::exit();
    }

    /// Injects a local join or leave at router `r`.
    fn inject(&mut self, gi: usize, r: u32, join: bool, op: u64) {
        let (gid, core) = (self.gids[gi], self.core_addrs[gi]);
        trace::enter(Span::NsInject, op);
        self.world.with_node(r, |nd, now, out| {
            trace::enter(Span::P2pInject, 0);
            let p = nd.p2p_mut();
            let act = if join {
                p.router.learn_cores(gid, &[core]);
                p.router.local_join(now, gid)
            } else {
                p.router.local_leave(now, gid)
            };
            p.deliver(act, out);
            trace::exit();
        });
        trace::exit();
    }

    /// One session arrives. False if the router is down: the session
    /// is lost and its eventual leave pre-forgiven.
    fn member_join(&mut self, gi: usize, r: u32, op: u64) -> bool {
        if !self.world.is_node_up(r) {
            *self.dead_leaves.entry((gi as u32, r)).or_default() += 1;
            return false;
        }
        let c = self.counts[gi].entry(r).or_default();
        *c += 1;
        if *c == 1 {
            self.inject(gi, r, true, op);
        }
        true
    }

    /// One session ends. `None` when the leave was owed to a session
    /// that never ran or that a crash killed; otherwise whether the
    /// member router was on-tree (its join acknowledged) at this
    /// instant, and whether its join was still in flight.
    fn member_leave(&mut self, gi: usize, r: u32, op: u64) -> Option<(bool, bool)> {
        if let Some(k) = self.dead_leaves.get_mut(&(gi as u32, r)) {
            *k -= 1;
            if *k == 0 {
                self.dead_leaves.remove(&(gi as u32, r));
            }
            return None;
        }
        let c = self.counts[gi].get_mut(&r)?;
        *c -= 1;
        let last = *c == 0;
        let gid = self.gids[gi];
        let rt = &self.world.node(r).p2p().router;
        let state = (rt.is_on_tree(gid), rt.has_pending_join(gid) || rt.has_transient_state(gid));
        if last {
            self.counts[gi].remove(&r);
            self.inject(gi, r, false, op);
        }
        Some(state)
    }

    /// Is member router `r`'s engine chain rooted at group `gi`'s core
    /// over live links and routers?
    fn rooted(&self, gi: usize, r: u32) -> bool {
        let gid = self.gids[gi];
        let core = self.cores[gi];
        let mut cur = r;
        for _ in 0..=self.n {
            if !self.world.is_node_up(cur) {
                return false;
            }
            let rt = &self.world.node(cur).p2p().router;
            if !rt.is_on_tree(gid) {
                return false;
            }
            if cur == core {
                return true;
            }
            let Some(p) = rt.parent_of(gid) else { return false };
            let p = addr_node(p);
            let Some(&k) = self.edge_index.get(&edge_key(cur, p)) else { return false };
            if !self.csr.slot_live(self.pairs[k][0]) {
                return false;
            }
            cur = p;
        }
        false
    }

    /// Every member pair not currently rooted, in deterministic order.
    /// `settled_only` skips members whose engine is mid-flow.
    fn detached_members(&self, settled_only: bool) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for gi in 0..self.counts.len() {
            let mut holders: Vec<u32> = self.counts[gi].keys().copied().collect();
            holders.sort_unstable();
            for r in holders {
                if self.rooted(gi, r) {
                    continue;
                }
                if settled_only {
                    let rt = &self.world.node(r).p2p().router;
                    let gid = self.gids[gi];
                    if rt.has_pending_join(gid) || rt.has_transient_state(gid) {
                        continue;
                    }
                }
                out.push((gi as u32, r));
            }
        }
        out
    }

    /// Re-expresses membership for a member whose engine has given up
    /// entirely — the p2p analog of IGMP re-announcing a group.
    fn kick(&mut self, gi: usize, r: u32) -> bool {
        if !self.world.is_node_up(r) {
            return false;
        }
        let gid = self.gids[gi];
        let rt = &self.world.node(r).p2p().router;
        if rt.is_on_tree(gid) || rt.has_pending_join(gid) || rt.has_transient_state(gid) {
            return false;
        }
        self.inject(gi, r, true, 0);
        self.rejoin_kicks += 1;
        true
    }

    /// Takes a target down or brings it back across all layers: CSR
    /// masks, delivery plane, rib.
    fn set_target(&mut self, input: &FleetInput, target: Target, up: bool) {
        match target {
            Target::Edge(k) => {
                let (a, b, _) = input.edge_list[k];
                let pair = self.pairs[k];
                self.csr.set_slot_live(pair[0], up);
                self.csr.set_slot_live(pair[1], up);
                trace::span(Span::NsLiveness, 0, || self.world.set_link_up(pair, up));
                self.repair(&[(a, b)], &[], up);
            }
            Target::Node(r) if !up => {
                self.csr.set_node_up(r, false);
                trace::span(Span::NsLiveness, 0, || self.world.crash_node(r));
                self.repair(&[], &[r], false);
                // §6.2: every session the router hosted dies with it.
                for gi in 0..self.counts.len() {
                    if let Some(c) = self.counts[gi].remove(&r) {
                        *self.dead_leaves.entry((gi as u32, r)).or_default() += c;
                        self.crash_killed += c as u64;
                    }
                }
            }
            Target::Node(r) => {
                self.csr.set_node_up(r, true);
                let cfg = self.world.node(r).p2p().router.config().clone();
                let router = Self::engine(r, self.degree(r), &cfg, &self.rib, self.world.now());
                trace::span(Span::NsLiveness, 0, || {
                    self.world.restart_node(r, |nd| nd.p2p_mut().restart(router))
                });
                self.repair(&[], &[r], true);
            }
        }
    }

    fn repair(&mut self, edges: &[(u32, u32)], nodes: &[u32], up: bool) {
        trace::enter(Span::RibRepair, 0);
        let mut rib = self.rib.write().expect("rib lock poisoned");
        self.repair_touched += if up {
            rib.apply_additions(&self.csr, edges, nodes, &mut self.scratch)
        } else {
            rib.apply_removals(&self.csr, edges, nodes, &mut self.scratch)
        };
        drop(rib);
        trace::exit();
    }
}

/// Session and reattachment bookkeeping of one drive.
#[derive(Default)]
struct Ledger {
    sessions_driven: u64,
    served: u64,
    failed_sessions: u64,
    excluded: u64,
    /// Members a fault severed (snapshot at the fault instant).
    severed: u64,
    /// Of those, sessions that ended (or whose router crashed) before
    /// they could reattach: not a reattachment the protocol owes.
    severed_lost: u64,
    reattached: u64,
    reattach_failed: u64,
    reattach_us: Vec<u64>,
    strays: u64,
}

struct Drive<'a, N: FleetNode> {
    fleet: Fleet<N>,
    input: &'a FleetInput,
    plan: Vec<(u64, Act)>,
    ai: usize,
    next_poll: u64,
    polls: u64,
    /// `(group, router)` → (fault index or STRAY, detach instant).
    detached: BTreeMap<(u32, u32), (usize, u64)>,
    ledger: Ledger,
}

impl<N: FleetNode> Drive<'_, N> {
    /// Runs the world forward to `t_us`, firing every scheduled fault
    /// action and poll that falls before it, in order.
    fn advance_to(&mut self, t_us: u64) {
        loop {
            let na = self.plan.get(self.ai).map_or(u64::MAX, |&(t, _)| t);
            let nxt = na.min(self.next_poll);
            if nxt > t_us {
                break;
            }
            self.fleet.run_until(nxt);
            if na <= self.next_poll {
                let (_, act) = self.plan[self.ai];
                self.ai += 1;
                match act {
                    Act::Down(i) => self.fault_down(i),
                    Act::Up(i) => {
                        self.fleet.set_target(self.input, self.input.faults[i].target, true)
                    }
                }
            } else {
                self.next_poll += POLL_US;
                trace::enter(Span::HarnessPoll, 0);
                self.poll(nxt);
                trace::exit();
            }
        }
        self.fleet.run_until(t_us);
    }

    fn fault_down(&mut self, i: usize) {
        let now = self.fleet.world.now().micros();
        self.fleet.set_target(self.input, self.input.faults[i].target, false);
        // Snapshot the members this fault severed: their engine chains
        // now cross dead wire. In-flight joiners are excluded — their
        // latency is join latency, not echo-timeout reattachment.
        trace::enter(Span::HarnessPoll, 0);
        for key in self.fleet.detached_members(true) {
            if let std::collections::btree_map::Entry::Vacant(e) = self.detached.entry(key) {
                e.insert((i, now));
                self.ledger.severed += 1;
            }
        }
        trace::exit();
    }

    /// Reconciles every tracked detached member: reattached, gone, or
    /// still adrift (kicked if its engine has given up).
    fn poll(&mut self, now_us: u64) {
        self.polls += 1;
        let tracked: Vec<((u32, u32), (usize, u64))> =
            self.detached.iter().map(|(&k, &v)| (k, v)).collect();
        for ((gi, r), (fi, since)) in tracked {
            if !self.fleet.counts[gi as usize].contains_key(&r) {
                self.detached.remove(&(gi, r));
                if fi != STRAY {
                    self.ledger.severed_lost += 1;
                }
            } else if self.fleet.rooted(gi as usize, r) {
                self.detached.remove(&(gi, r));
                if fi != STRAY {
                    self.ledger.reattached += 1;
                    self.ledger.reattach_us.push(now_us - since);
                }
            } else {
                self.fleet.kick(gi as usize, r);
            }
        }
        if self.polls.is_multiple_of(STRAY_SWEEP_POLLS) {
            for (gi, r) in self.fleet.detached_members(true) {
                if !self.detached.contains_key(&(gi, r)) && self.fleet.kick(gi as usize, r) {
                    self.ledger.strays += 1;
                    self.detached.insert((gi, r), (STRAY, now_us));
                }
            }
        }
    }
}

/// One engine-state sample.
struct Sample {
    fib_entries: u64,
    busy_routers: u64,
    rss: u64,
}

fn scan<N: FleetNode>(world: &NetscaleWorld<N>) -> Sample {
    let mut fib_entries = 0u64;
    let mut busy_routers = 0u64;
    for i in 0..world.len() as u32 {
        let len = world.node(i).p2p().router.fib_len() as u64;
        fib_entries += len;
        busy_routers += (len > 0) as u64;
    }
    Sample { fib_entries, busy_routers, rss: rss_bytes() }
}

/// Set-ups per run; `setup_s` is their lower quartile.
pub const SETUPS: usize = 11;
const SAMPLES: u64 = 6;

/// Runs `fleet_churn` (`with_faults == false`) or `fleet_faults`.
pub fn run<N: FleetNode>(seed: u64, seconds: u64, with_faults: bool) -> Outcome {
    let mut out = Outcome { correct: true, ..Default::default() };

    // --- Set-up: inputs + topology + SPF + rib + fleet, several times;
    // the first build (fresh heap) gives the idle footprint. ---
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut first_times = None;
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let input = FleetInput::generate(seed, seconds, with_faults);
        let fleet = Fleet::<N>::build(&input);
        setup_s.push(t0.elapsed().as_secs_f64());
        first_times.get_or_insert(fleet.times);
        built = Some((input, fleet));
    }
    let (input, fleet) = built.expect("at least one set-up");
    let idle = first_times.expect("at least one set-up");
    out.set("setup_s", stats::lower_quartile(&setup_s));
    out.set("topology.gen_ms", input.topo_gen_ms);
    out.set("eval.membership_gen_ms", input.membership_gen_ms);
    out.set("topology.spf_full_ms_per_tree", fleet.times.spf_full_ms_per_tree);
    out.set("netscale.rib_build_ms", fleet.times.rib_build_ms);
    out.set("netscale.fleet_build_ms", fleet.times.fleet_build_ms);
    let idle_bytes = idle.rss_after.saturating_sub(idle.rss_before);
    out.set("proc.bytes_per_idle_router", idle_bytes as f64 / input.n as f64);
    let rss_idle = rss_bytes();
    out.set("proc.rss_idle_mb", mb(rss_idle));

    let mut plan: Vec<(u64, Act)> = Vec::with_capacity(2 * input.faults.len());
    for (i, f) in input.faults.iter().enumerate() {
        plan.push((f.at_us, Act::Down(i)));
        plan.push((f.restore_us, Act::Up(i)));
    }
    plan.sort_by_key(|&(t, _)| t);
    let mut d = Drive {
        fleet,
        input: &input,
        plan,
        ai: 0,
        next_poll: if with_faults { POLL_US } else { u64::MAX },
        polls: 0,
        detached: BTreeMap::new(),
        ledger: Ledger::default(),
    };

    // --- The measured phase: churn (and faults) through the horizon,
    // heal, settle, tear down to silence. ---
    let horizon_us = (HORIZON_S * 1e6) as u64;
    let sample_gap = horizon_us / SAMPLES;
    let mut next_sample = sample_gap;
    let mut samples: Vec<Sample> = Vec::with_capacity(SAMPLES as usize);
    let allocs0 = crate::proc::allocs();
    let wall0 = Instant::now();
    let mut windows = stats::RateWindows::start(0);
    if N::TRACED {
        trace::start();
    }
    trace::enter(Span::Phase, 0);
    let mut session = 0u64;
    for ev in &input.events {
        let t_us = ev.time_us();
        while t_us >= next_sample && next_sample <= horizon_us {
            d.advance_to(next_sample);
            samples.push(scan(&d.fleet.world));
            next_sample += sample_gap;
        }
        d.advance_to(t_us);
        if windows.pending(d.fleet.world.trace.events) >= WINDOW_EVENTS {
            windows.mark(d.fleet.world.trace.events);
        }
        match *ev {
            MembershipEvent::Join { group, router, .. } => {
                session += 1;
                d.ledger.sessions_driven += 1;
                if !d.fleet.member_join(group as usize, router, session) {
                    d.ledger.excluded += 1;
                }
            }
            MembershipEvent::Leave { group, router, .. } => {
                match d.fleet.member_leave(group as usize, router, 0) {
                    // Leave owed to a session already excluded at its
                    // join, or killed by a crash.
                    None => {}
                    Some((true, _)) => d.ledger.served += 1,
                    // Shorter than its own join round trip: nothing
                    // to acknowledge yet.
                    Some((false, true)) => d.ledger.excluded += 1,
                    // Off-tree with nothing in flight. Under faults the
                    // session ended while severed (flushed, not yet
                    // kicked): excluded, and visible in the kick count.
                    // On a fault-free wire it is a lost member.
                    Some((false, false)) if with_faults => d.ledger.excluded += 1,
                    Some((false, false)) => d.ledger.failed_sessions += 1,
                }
            }
        }
    }
    while next_sample <= horizon_us {
        d.advance_to(next_sample);
        samples.push(scan(&d.fleet.world));
        next_sample += sample_gap;
    }
    // Past the horizon and the last restore, plus two seconds for joins
    // injected at the very end to complete (one retransmission covered).
    let end_us = d.plan.last().map_or(horizon_us, |&(t, _)| horizon_us.max(t + 1));
    d.advance_to(end_us + 2_000_000);

    if with_faults {
        // Heal: re-express membership for engines that gave up, until
        // every member is rooted; then settle past child-assert expiry.
        for _ in 0..40 {
            let leftovers = d.fleet.detached_members(false);
            if leftovers.is_empty() {
                break;
            }
            for (gi, r) in leftovers {
                d.fleet.kick(gi as usize, r);
            }
            let now = d.fleet.world.now().micros();
            d.advance_to(now + 3_000_000);
        }
        let now = d.fleet.world.now().micros();
        d.advance_to(now + 25_000_000);
    }
    // Sessions still open at the end of the input.
    let still_detached = d.fleet.detached_members(false);
    for gi in 0..d.fleet.counts.len() {
        for (&r, &c) in &d.fleet.counts[gi] {
            if still_detached.contains(&(gi as u32, r)) {
                d.ledger.failed_sessions += c as u64;
            } else {
                d.ledger.served += c as u64;
            }
        }
    }
    d.ledger.reattach_failed = d.detached.values().filter(|&&(fi, _)| fi != STRAY).count() as u64;
    let rss_after_drive = rss_bytes();

    // Teardown: every member leaves, staggered 1 ms; quits must
    // cascade to the cores and the fleet must fall silent.
    d.next_poll = u64::MAX;
    let mut t = d.fleet.world.now().micros();
    for gi in 0..d.fleet.counts.len() {
        let mut holders: Vec<u32> = d.fleet.counts[gi].keys().copied().collect();
        holders.sort_unstable();
        for r in holders {
            t += 1000;
            d.advance_to(t);
            d.fleet.counts[gi].remove(&r);
            d.fleet.inject(gi, r, false, 0);
        }
    }
    let limit = d.fleet.world.now() + SimDuration::from_secs(90);
    trace::enter(Span::NsRun, 0);
    let silent = d.fleet.world.run_to_quiescence(limit);
    trace::exit();
    trace::exit();
    let wall_s = wall0.elapsed().as_secs_f64();
    let allocs = crate::proc::allocs() - allocs0;
    out.wall_s = wall_s;

    // --- Harvest and checks (outside the timed span). ---
    let Drive { fleet, mut ledger, .. } = d;
    ledger.excluded += fleet.crash_killed;
    let t0 = Instant::now();
    let mut obs = ObsSnapshot { router: "fleet".into(), ..Default::default() };
    let (mut decode_errors, mut encode_errors, mut dropped_non_control) = (0u64, 0u64, 0u64);
    let mut not_silent = 0u64;
    for i in 0..fleet.n {
        let p = fleet.world.node(i).p2p();
        obs.merge(&p.router.obs_snapshot());
        decode_errors += p.decode_errors;
        encode_errors += p.encode_errors;
        dropped_non_control += p.dropped_non_control;
        if p.router.fib_len() != 0 || p.router.next_wakeup().is_some() {
            not_silent += 1;
        }
    }
    out.set("obs.fleet_merge_ms", t0.elapsed().as_secs_f64() * 1e3);
    if with_faults {
        // The repair path's contract, checked where it costs the run
        // nothing: every fault is restored, so the repaired rib must
        // equal a from-scratch SPF over the unmasked graph.
        let mut scratch = SpfScratch::new();
        let rib = fleet.rib.read().expect("rib lock poisoned");
        rib.assert_matches_full_spf(&fleet.csr, &mut scratch);
        if rib.version() != 2 * input.faults.len() as u64 {
            out.fault(format!(
                "rib version {} after {} faults (each repairs twice)",
                rib.version(),
                input.faults.len()
            ));
        }
    }

    let trace_ctr = &fleet.world.trace;
    let codec_errors = decode_errors + encode_errors + dropped_non_control;
    out.attempted =
        ledger.served + ledger.failed_sessions + ledger.reattached + ledger.reattach_failed;
    out.failed = ledger.failed_sessions + ledger.reattach_failed + codec_errors + not_silent;
    if ledger.served + ledger.failed_sessions + ledger.excluded != ledger.sessions_driven {
        out.fault(format!(
            "session ledger does not balance: {} served + {} failed + {} excluded != {} driven",
            ledger.served, ledger.failed_sessions, ledger.excluded, ledger.sessions_driven
        ));
    }
    if with_faults && input.faults.len() < FLAPS + CRASHES {
        out.notes.push(format!(
            "fault script thinner than intended: {} of {} faults found a connectivity-preserving target",
            input.faults.len(),
            FLAPS + CRASHES
        ));
    }

    let sessions = ledger.sessions_driven.max(1) as f64;
    // Windows hold the same number of serviced events; sessions per
    // event is fixed by the input.
    out.set("ops_per_s", windows.rate() * sessions / trace_ctr.events.max(1) as f64);
    out.set("bench.ops_per_s_total", sessions / wall_s);
    out.set("latency_ms", obs.join_rtt_us.mean() / 1e3);
    out.set("frames_per_op", trace_ctr.frames as f64 / sessions);
    out.set("rss_peak_mb", mb(rss_peak_bytes()));

    out.set("netsim.ns_events", trace_ctr.events as f64);
    out.set("netsim.ns_frames", trace_ctr.frames as f64);
    out.set("netsim.ns_dropped_link_down", trace_ctr.dropped_link_down as f64);
    out.set("netsim.ns_dropped_node_down", trace_ctr.dropped_node_down as f64);
    out.set("netscale.decode_errors", decode_errors as f64);
    out.set("netscale.encode_errors", encode_errors as f64);
    out.set("netscale.dropped_non_control", dropped_non_control as f64);
    out.set("wire.ctrl_bytes_per_frame", trace_ctr.bytes as f64 / trace_ctr.frames.max(1) as f64);
    let sent = |k: CtlKind| obs.ctl.sent(k) as f64;
    out.set("core.ctrl_sent.join_request", sent(CtlKind::JoinRequest));
    out.set("core.ctrl_sent.join_ack", sent(CtlKind::JoinAck));
    out.set("core.ctrl_sent.join_nack", sent(CtlKind::JoinNack));
    out.set("core.ctrl_sent.quit_request", sent(CtlKind::QuitRequest));
    out.set("core.ctrl_sent.quit_ack", sent(CtlKind::QuitAck));
    out.set("core.ctrl_sent.echo_request", sent(CtlKind::EchoRequest));
    out.set("core.ctrl_sent.echo_reply", sent(CtlKind::EchoReply));
    out.set("core.ctrl_sent.flush_tree", sent(CtlKind::FlushTree));
    let all_sent: f64 = CtlKind::ALL.iter().map(|&k| sent(k)).sum();
    out.set(
        "core.keepalive_share",
        (sent(CtlKind::EchoRequest) + sent(CtlKind::EchoReply)) / all_sent.max(1.0),
    );
    out.set("core.rejoin_kicks", fleet.rejoin_kicks as f64);
    out.set("core.join_rtt_log2_p99_ms", obs.join_rtt_us.quantile(0.99) as f64 / 1e3);
    out.set("core.timer_lag_log2_p99_us", obs.timer_lag_us.quantile(0.99) as f64);
    out.set("core.severed_members", ledger.severed as f64);
    let mut reattach = ledger.reattach_us.clone();
    if !reattach.is_empty() {
        out.set("core.reattach_mean_s", stats::mean_u64(&reattach) / 1e6);
        let (p50, tail) = stats::summarize(&mut reattach);
        out.set("core.reattach_p50_s", p50 as f64 / 1e6);
        out.set("core.reattach_tail_s", tail as f64 / 1e6);
    }
    if let Some(peak) = samples.iter().max_by_key(|s| s.fib_entries) {
        out.set("core.fib_entries_peak", peak.fib_entries as f64);
        out.set("core.busy_routers_peak", peak.busy_routers as f64);
        out.set(
            "proc.bytes_per_busy_router",
            peak.rss.saturating_sub(rss_idle) as f64 / peak.busy_routers.max(1) as f64,
        );
    }
    out.set("proc.rss_after_drive_mb", mb(rss_after_drive));
    out.set("proc.allocs_per_event", allocs as f64 / trace_ctr.events.max(1) as f64);
    out.set("bench.sessions_excluded", ledger.excluded as f64);

    out.exact.insert("input_digest", input.digest);
    out.exact.insert("sessions", ledger.sessions_driven);
    out.exact.insert("served", ledger.served);
    out.exact.insert("excluded", ledger.excluded);
    out.exact.insert("faults", input.faults.len() as u64);
    out.exact.insert("severed", ledger.severed);
    out.exact.insert("severed_lost", ledger.severed_lost);
    out.exact.insert("reattached", ledger.reattached);
    out.exact.insert("strays", ledger.strays);
    out.exact.insert("kicks", fleet.rejoin_kicks);
    out.exact.insert("events", trace_ctr.events);
    out.exact.insert("frames", trace_ctr.frames);
    out.exact.insert("bytes", trace_ctr.bytes);
    out.exact.insert("dropped_link_down", trace_ctr.dropped_link_down);
    out.exact.insert("dropped_node_down", trace_ctr.dropped_node_down);
    out.exact.insert("join_rtt_sum_us", obs.join_rtt_us.sum());
    out.exact.insert("join_rtt_count", obs.join_rtt_us.count());
    out.exact.insert("reattach_sum_us", ledger.reattach_us.iter().sum());
    out.exact.insert("rib_repair_touched", fleet.repair_touched);
    out.exact.insert("silent_us", silent.micros());
    out.exact.insert("attempted", out.attempted);
    out.exact.insert("failed", out.failed);
    out
}
