//! The netscale fleet harness: one live [`P2pNode`] per router of a
//! transit-stub graph, plus everything a script needs to feed it
//! members, break it, wait for it to heal and tear it down to silence.
//!
//! [`Fleet`] is the only code in this crate that builds or touches a
//! [`NetscaleWorld`]`<P2pNode>`. The Impl-5 (`protoscale`) and Impl-6
//! (`soak`) experiments are scripts over it, so "what counts as
//! attached / severed / silent" is decided here, once:
//!
//! * **construction** — topology → CSR → cores spread over the transit
//!   routers → one SPF tree per core → shared [`FleetRib`] (repaired
//!   in place by the faults below) → one compact-idle engine per node;
//!   build time and the RSS marks the reports print are recorded in
//!   [`BuildMarks`];
//! * **session ledger** — [`Fleet::member_join`] / [`Fleet::member_leave`]
//!   / [`Fleet::force_leave`] keep per-router session multiplicity, and
//!   only the 0→1 and 1→0 transitions reach the engine;
//! * **predicates** — [`Fleet::rooted`], [`Fleet::detached_members`],
//!   [`Fleet::members_map`], [`Fleet::kick`];
//! * **faults** — [`Fleet::set_edge`], [`Fleet::crash`],
//!   [`Fleet::restart`] keep the CSR masks, the delivery plane, the rib
//!   and the ledger in lock-step; [`Fleet::pick_flap`] /
//!   [`Fleet::pick_crash`] choose connectivity-preserving targets;
//! * **measurement** — [`Fleet::sample`], [`Fleet::teardown_to_silence`]
//!   (the five per-router silence asserts) and [`Fleet::harvest`].

use crate::membership::{MembershipEvent, MembershipParams, MembershipStream, XorShift};
use crate::report::Report;
use cbt::invariants::{check_netscale_invariants, Violation};
use cbt::{
    addr_node, node_addr, CbtConfig, Census, FleetRib, Input, P2pNode, RouteHandle, ShardedRouter,
};
use cbt_netsim::{NetscaleWorld, NsTrace, SimDuration, SimTime};
use cbt_obs::ObsSnapshot;
use cbt_topology::csr::{CsrGraph, SpfScratch, SpfTree};
use cbt_topology::generate::{self, TransitStubParams};
use cbt_topology::RouterId;
use cbt_wire::{Addr, GroupId};
use serde_json::json;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};

/// 8 × 16 × (1 + 6·131) = 100 736 live engines: the full-run fleet.
pub const TOPO_100K: TransitStubParams = TransitStubParams {
    transit_domains: 8,
    transit_size: 16,
    stubs_per_transit_node: 6,
    stub_size: 131,
};

/// 4 × 8 × (1 + 4·77) = 9 888 live engines: the `--quick` fleet.
pub const TOPO_10K: TransitStubParams = TransitStubParams {
    transit_domains: 4,
    transit_size: 8,
    stubs_per_transit_node: 4,
    stub_size: 77,
};

/// 2 × 4 × (1 + 3·40) = 968 routers: the ~1k gates' fleet.
pub const TOPO_1K: TransitStubParams = TransitStubParams {
    transit_domains: 2,
    transit_size: 4,
    stubs_per_transit_node: 3,
    stub_size: 40,
};

/// 2 × 4 × (1 + 2·6) = 104 routers: small enough for debug-build unit
/// tests.
#[cfg(test)]
pub(crate) const TOPO_TINY: TransitStubParams = TransitStubParams {
    transit_domains: 2,
    transit_size: 4,
    stubs_per_transit_node: 2,
    stub_size: 6,
};

/// Wall-clock and RSS marks taken while the fleet was built.
#[derive(Debug, Clone, Copy)]
pub struct BuildMarks {
    /// RSS before anything (topology included) was allocated.
    pub rss_start: u64,
    /// RSS with graph and rib in place, before the first engine.
    pub rss_routed: u64,
    /// RSS with every engine instantiated and wired.
    pub rss_built: u64,
    /// Milliseconds spent instantiating and wiring the engines.
    pub engines_ms: f64,
    /// Milliseconds for the whole build, topology and SPF included.
    pub total_ms: f64,
}

/// The ledger's and the fault operations' running counters
/// ([`Fleet::tally`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Live sessions.
    pub concurrent: u64,
    /// The most sessions ever live at once.
    pub peak_concurrent: u64,
    /// Sessions offered to [`Fleet::member_join`].
    pub sessions: u64,
    /// Of those, sessions lost because their router was down.
    pub lost_sessions: u64,
    /// Joins the driver re-expressed for members whose engine gave up
    /// (the IGMP-membership analog a p2p fleet otherwise lacks).
    pub rejoin_kicks: u64,
    /// Total nodes re-settled by incremental rib repairs.
    pub repair_touched: u64,
}

/// Aggregate engine state at one instant ([`Fleet::sample`]).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Simulated time of the sample (µs).
    pub t_us: u64,
    /// Live sessions in the ledger.
    pub concurrent: u64,
    /// FIB entries fleet-wide.
    pub fib_entries: u64,
    /// Routers holding at least one FIB entry.
    pub busy_routers: u64,
    /// Control frames sent so far.
    pub frames: u64,
}

/// What [`Fleet::harvest`] collects from every router.
pub struct Harvest {
    /// Every engine's counters merged (its `join_rtt_us` is the fleet's
    /// join-RTT histogram: originators record on ack receipt; its
    /// `parent_failures` the §6.1 parent failures detected).
    pub obs: ObsSnapshot,
    /// Frames that failed to decode, fleet-wide.
    pub decode_errors: u64,
    /// Control messages that failed to encode, fleet-wide.
    pub encode_errors: u64,
    /// Non-control emissions a p2p fleet cannot carry, fleet-wide.
    pub dropped_non_control: u64,
}

impl Harvest {
    /// Attaches the fleet snapshot to `report`, with the adapter-level
    /// loss counters (which live outside the engine's drop taxonomy)
    /// mirrored in.
    pub fn attach(&self, report: &mut Report) {
        report.attach_obs(&self.obs);
        if let serde_json::Value::Object(m) = &mut report.obs {
            m.insert("decode_errors".into(), json!(self.decode_errors));
            m.insert("encode_errors".into(), json!(self.encode_errors));
            m.insert("dropped_non_control".into(), json!(self.dropped_non_control));
        }
    }
}

/// A live fleet plus everything a script needs to mutate it
/// consistently: the CSR masks, the delivery plane, the rib and the
/// membership ledger. Every fault keeps all four in lock-step — that
/// is the whole point of the type.
pub struct Fleet {
    world: NetscaleWorld<P2pNode>,
    csr: CsrGraph,
    pairs: Vec<[u32; 2]>,
    edge_list: Vec<(u32, u32, u32)>,
    /// `(min, max) endpoint pair → edge index` for chain walks.
    edge_index: HashMap<(u32, u32), usize>,
    rib: Arc<RwLock<FleetRib>>,
    scratch: SpfScratch,
    cores: Vec<u32>,
    core_addrs: Vec<Addr>,
    gids: Vec<GroupId>,
    n: u32,
    transit: u32,
    /// Per group: member router → live session multiplicity.
    counts: Vec<HashMap<u32, u32>>,
    /// `(group, router)` → leaves still owed for sessions a crash
    /// killed; the stream's eventual Leave events drain this instead
    /// of the ledger, keeping multiplicity exact across crashes.
    dead_leaves: HashMap<(u32, u32), u32>,
    tally: Tally,
    marks: BuildMarks,
    /// Counters of the engines restarts replaced, so a harvest covers
    /// the same lifetime as the world's group table.
    retired: ObsSnapshot,
}

/// Engine configuration for a netscale fleet: compressed (`fast`)
/// timers so keepalive dynamics fit a minutes-long horizon, and a
/// children cap comfortably above the largest node degree (children
/// are distinct neighbour routers on a p2p fleet, so degree bounds
/// them).
fn fleet_cfg(shards: Option<usize>) -> CbtConfig {
    let mut cfg = CbtConfig::fast();
    cfg.max_children = 4096;
    if let Some(s) = shards {
        cfg.shards = s;
    }
    cfg
}

/// Group id of experiment group `gi` (1-based so the group address is
/// never the unassigned 239.1.0.0).
fn group_id(gi: usize) -> GroupId {
    GroupId::numbered((gi + 1) as u16)
}

/// Resident set size from `/proc/self/statm` (Linux, 4 KiB pages);
/// zero where unavailable. A benchmark metric, not a portability
/// contract.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|p| p.parse::<u64>().ok()))
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// One live engine for CSR node `i`. Interface `k` of router `u` is
/// its `k`-th directed CSR slot — the same contract [`FleetRib`]
/// encodes, so routes and ports agree by construction.
fn engine(
    csr: &CsrGraph,
    rib: &Arc<RwLock<FleetRib>>,
    cfg: CbtConfig,
    i: u32,
    now: SimTime,
) -> ShardedRouter {
    // The CSR offsets carry an end sentinel, so `i + 1` is in range
    // for the last node too.
    let degree = (csr.slot_base(i + 1) - csr.slot_base(i)) as usize;
    ShardedRouter::p2p(
        RouterId(i),
        node_addr(i),
        degree,
        cfg,
        || Box::new(RouteHandle::new(Arc::clone(rib), i)),
        now,
    )
}

impl Fleet {
    /// Builds the fleet: `groups` single-core groups (capped at the
    /// transit-router count) with cores spread evenly over the transit
    /// routers, every router a live compact-idle engine. Edge weights
    /// map to milliseconds of one-way latency. `shards` overrides the
    /// engine shard count (`None` keeps the `CBT_SHARDS` default).
    pub fn new(topo: TransitStubParams, groups: usize, shards: Option<usize>, seed: u64) -> Fleet {
        let rss_start = rss_bytes();
        let t_start = std::time::Instant::now();
        let n = topo.total_nodes();
        let transit = topo.transit_nodes();
        let groups = groups.min(transit);
        let g = generate::transit_stub(topo, seed);
        let edge_list: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
        let (csr, pairs) = CsrGraph::from_edges(n, &edge_list);
        let cores: Vec<u32> = (0..groups).map(|gi| ((gi * transit) / groups) as u32).collect();
        let mut scratch = SpfScratch::new();
        let trees = cores.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
        let rib = Arc::new(RwLock::new(FleetRib::repairable(&csr, &cores, trees)));
        let rss_routed = rss_bytes();
        let t_engines = std::time::Instant::now();
        let cfg = fleet_cfg(shards);
        let nodes: Vec<P2pNode> = (0..n as u32)
            .map(|i| P2pNode::new(engine(&csr, &rib, cfg.clone(), i, SimTime::ZERO)))
            .collect();
        let world = NetscaleWorld::new(nodes, &csr, &pairs, &edge_list, |w| {
            SimDuration::from_millis(w.max(1) as u64)
        });
        let marks = BuildMarks {
            rss_start,
            rss_routed,
            rss_built: rss_bytes(),
            engines_ms: t_engines.elapsed().as_secs_f64() * 1e3,
            total_ms: t_start.elapsed().as_secs_f64() * 1e3,
        };
        let mut edge_index = HashMap::with_capacity(edge_list.len());
        for (k, &(a, b, _)) in edge_list.iter().enumerate() {
            edge_index.entry((a.min(b), a.max(b))).or_insert(k);
        }
        Fleet {
            world,
            csr,
            pairs,
            edge_list,
            edge_index,
            rib,
            scratch,
            core_addrs: cores.iter().map(|&c| node_addr(c)).collect(),
            cores,
            gids: (0..groups).map(group_id).collect(),
            n: n as u32,
            transit: transit as u32,
            counts: vec![HashMap::new(); groups],
            dead_leaves: HashMap::new(),
            tally: Tally::default(),
            marks,
            retired: ObsSnapshot::default(),
        }
    }

    // ------------------------------------------------------------------
    // Shape, clock and counters.
    // ------------------------------------------------------------------

    /// Fleet size.
    pub fn routers(&self) -> usize {
        self.n as usize
    }

    /// Number of groups (one core each).
    pub fn groups(&self) -> usize {
        self.gids.len()
    }

    /// Number of undirected links.
    pub fn links(&self) -> usize {
        self.edge_list.len()
    }

    /// Endpoints of edge `k`.
    pub fn edge_ends(&self, k: usize) -> (u32, u32) {
        let (a, b, _) = self.edge_list[k];
        (a, b)
    }

    /// The routers' heap by store, summed over the fleet, which boots
    /// every engine from one configuration and so counts its block
    /// once. The engines' own structs sit in the world's node table:
    /// `size_of::<P2pNode>()` each.
    pub fn census(&self) -> Census {
        let mut sum = Census::default();
        for r in 0..self.n {
            sum.add(&self.world.node(r).router.census());
        }
        sum
    }

    /// The marks taken while the fleet was built.
    pub fn marks(&self) -> BuildMarks {
        self.marks
    }

    /// Simulated now, in microseconds.
    pub fn now_us(&self) -> u64 {
        self.world.now().micros()
    }

    /// Runs the world forward to `t_us`.
    pub fn run_until_us(&mut self, t_us: u64) {
        self.world.run_until(SimTime::from_micros(t_us));
    }

    /// The world's counters (frames, bytes, events, liveness drops).
    pub fn trace(&self) -> &NsTrace {
        &self.world.trace
    }

    /// Frames carried by the busiest link, both directions summed
    /// (every frame crosses exactly one directed slot; a link is a
    /// slot pair).
    pub fn busiest_link_frames(&self) -> u64 {
        let trace = &self.world.trace;
        let (slot, fwd) = trace.busiest_slot().unwrap_or((0, 0));
        self.pairs
            .iter()
            .find(|pq| pq[0] == slot || pq[1] == slot)
            .map(|pq| trace.slot_frames[pq[0] as usize] + trace.slot_frames[pq[1] as usize])
            .unwrap_or(fwd)
    }

    /// The running counters.
    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// Distinct `(group, router)` members in the ledger.
    pub fn members(&self) -> usize {
        self.counts.iter().map(HashMap::len).sum()
    }

    /// Does the ledger hold a live session of group `gi` on router `r`?
    pub fn is_member(&self, gi: usize, r: u32) -> bool {
        self.counts[gi].contains_key(&r)
    }

    /// The rib's version: one bump per applied liveness event.
    pub fn rib_version(&self) -> u64 {
        self.rib.read().expect("rib lock poisoned").version()
    }

    /// A from-scratch SPF tree toward group `gi`'s core over the
    /// current masks — what the analytic tree walk runs on.
    pub fn spf_tree(&mut self, gi: usize) -> SpfTree {
        SpfTree::full(&self.csr, self.cores[gi], &mut self.scratch)
    }

    /// The [`MembershipParams::netscale`] session stream over this
    /// fleet's groups and stub routers (transit routers host cores,
    /// not members).
    pub fn churn(
        &self,
        horizon_s: f64,
        arrivals: usize,
        hold_s: f64,
        flash_joins: Option<usize>,
        seed: u64,
    ) -> MembershipStream {
        let mp =
            MembershipParams::netscale(self.gids.len(), horizon_s, arrivals, hold_s, flash_joins);
        MembershipStream::new(&mp, (self.transit..self.n).collect(), seed)
    }

    // ------------------------------------------------------------------
    // The session ledger.
    // ------------------------------------------------------------------

    /// Tells router `r`'s engine a member of group `gi` is attached.
    fn engine_join(&mut self, gi: usize, r: u32) {
        let (gid, core) = (self.gids[gi], self.core_addrs[gi]);
        self.world.with_node(r, |nd, now, out| {
            nd.router.learn_cores(gid, &[core]);
            nd.step(now, Input::Join(gid), out);
        });
    }

    /// Tells router `r`'s engine its last member of group `gi` left.
    fn engine_leave(&mut self, gi: usize, r: u32) {
        let gid = self.gids[gi];
        self.world.with_node(r, |nd, now, out| {
            nd.step(now, Input::Leave(gid), out);
        });
    }

    /// One session arrives. Returns false if the target router is
    /// down (the session is lost; its eventual Leave is pre-forgiven).
    pub fn member_join(&mut self, gi: usize, r: u32) -> bool {
        self.tally.sessions += 1;
        if !self.world.is_node_up(r) {
            self.tally.lost_sessions += 1;
            *self.dead_leaves.entry((gi as u32, r)).or_default() += 1;
            return false;
        }
        self.tally.concurrent += 1;
        self.tally.peak_concurrent = self.tally.peak_concurrent.max(self.tally.concurrent);
        let c = self.counts[gi].entry(r).or_default();
        *c += 1;
        if *c == 1 {
            self.engine_join(gi, r);
        }
        true
    }

    /// One session ends. Leaves owed to crash-killed or never-started
    /// sessions are swallowed by the `dead_leaves` ledger.
    pub fn member_leave(&mut self, gi: usize, r: u32) {
        if let Some(k) = self.dead_leaves.get_mut(&(gi as u32, r)) {
            *k -= 1;
            if *k == 0 {
                self.dead_leaves.remove(&(gi as u32, r));
            }
            return;
        }
        let Some(c) = self.counts[gi].get_mut(&r) else { return };
        *c -= 1;
        self.tally.concurrent -= 1;
        if *c == 0 {
            self.counts[gi].remove(&r);
            self.engine_leave(gi, r);
        }
    }

    /// Applies one event of a session stream to the ledger.
    pub fn apply(&mut self, ev: MembershipEvent) {
        match ev {
            MembershipEvent::Join { group, router, .. } => {
                self.member_join(group as usize, router);
            }
            MembershipEvent::Leave { group, router, .. } => {
                self.member_leave(group as usize, router)
            }
        }
    }

    /// Drops a member's whole session multiplicity with a single
    /// engine leave — the teardown path.
    pub fn force_leave(&mut self, gi: usize, r: u32) {
        if let Some(c) = self.counts[gi].remove(&r) {
            self.tally.concurrent -= c as u64;
            self.engine_leave(gi, r);
        }
    }

    /// The deterministic member draw both ~1k gates use: per group,
    /// `per_group` routers drawn from the stub pool (sorted, deduped),
    /// joined one per millisecond with the groups back to back — both
    /// the sequential hop-by-hop path and the transient pending-join
    /// caching path get exercised. Returns each group's members.
    pub fn join_staggered(&mut self, rng: &mut XorShift, per_group: usize) -> Vec<Vec<u32>> {
        let stubs = (self.n - self.transit) as usize;
        let mut k = 0u64;
        (0..self.gids.len())
            .map(|gi| {
                let mut mem: Vec<u32> =
                    (0..per_group).map(|_| self.transit + rng.below(stubs) as u32).collect();
                mem.sort_unstable();
                mem.dedup();
                for &m in &mem {
                    k += 1;
                    self.run_until_us(k * 1000);
                    self.member_join(gi, m);
                }
                mem
            })
            .collect()
    }

    /// Every `(group, router)` the ledger holds, in deterministic
    /// order.
    pub fn holders(&self) -> Vec<(usize, u32)> {
        (0..self.counts.len())
            .flat_map(|gi| self.holders_of(gi).into_iter().map(move |r| (gi, r)))
            .collect()
    }

    /// Group `gi`'s member routers, ascending.
    fn holders_of(&self, gi: usize) -> Vec<u32> {
        let mut v: Vec<u32> = self.counts[gi].keys().copied().collect();
        v.sort_unstable();
        v
    }

    // ------------------------------------------------------------------
    // Predicates.
    // ------------------------------------------------------------------

    /// Is member router `r`'s engine chain rooted at group `gi`'s
    /// core over *live* links and routers? This is the driver's-eye
    /// "attached" predicate: FIB state alone is not enough, because a
    /// chain that crosses a downed link is still walking dead wire
    /// until §6.1 notices.
    pub fn rooted(&self, gi: usize, r: u32) -> bool {
        let gid = self.gids[gi];
        let mut cur = r;
        for _ in 0..=self.n {
            if !self.world.is_node_up(cur) || !self.world.node(cur).router.group_view(gid).on_tree {
                return false;
            }
            if cur == self.cores[gi] {
                return true;
            }
            let Some((p, Some(k))) = self.uplink(gid, cur) else { return false };
            if !self.csr.slot_live(self.pairs[k][0]) {
                return false;
            }
            cur = p;
        }
        false
    }

    /// Live router `cur`'s parent for `gid` and the index of the edge
    /// between them (`None` when the parent is no graph neighbour).
    fn uplink(&self, gid: GroupId, cur: u32) -> Option<(u32, Option<usize>)> {
        if !self.world.is_node_up(cur) {
            return None;
        }
        let p = addr_node(self.world.node(cur).router.group_view(gid).parent?);
        Some((p, self.edge_index.get(&(cur.min(p), cur.max(p))).copied()))
    }

    /// Every member pair not currently rooted, in deterministic
    /// order. `settled_only` skips members whose engine is mid-flow
    /// (any transient state, a pending join included) — right for
    /// fault snapshots and stray sweeps, wrong for the final
    /// convergence gate.
    pub fn detached_members(&self, settled_only: bool) -> Vec<(usize, u32)> {
        let mut out = self.holders();
        out.retain(|&(gi, r)| {
            if self.rooted(gi, r) {
                return false;
            }
            let rt = &self.world.node(r).router;
            let gid = self.gids[gi];
            !(settled_only && rt.group_view(gid).transient)
        });
        out
    }

    /// Deterministic member map for the invariant checker.
    pub fn members_map(&self) -> BTreeMap<GroupId, Vec<u32>> {
        let mut m: BTreeMap<GroupId, Vec<u32>> = BTreeMap::new();
        for (gi, r) in self.holders() {
            m.entry(self.gids[gi]).or_default().push(r);
        }
        m
    }

    /// Runs the tree-invariant checker over the fleet and its ledger. The fleet must be healed and quiescent.
    pub fn invariant_violations(&self) -> Vec<Violation> {
        check_netscale_invariants(&self.world, &self.gids, &self.members_map())
    }

    /// The tree the engines built for group `gi`, as sorted
    /// `(child, parent)` edges. Asserts no router is still pending and
    /// that only the core is on-tree without a parent.
    pub fn engine_tree(&self, gi: usize) -> Vec<(u32, u32)> {
        let gid = self.gids[gi];
        let mut edges = Vec::new();
        for i in 0..self.n {
            let v = self.world.node(i).router.group_view(gid);
            assert!(!v.pending_join, "router {i} still pending after settle");
            match v.parent {
                Some(parent) => edges.push((i, addr_node(parent))),
                None => assert!(
                    !v.on_tree || i == self.cores[gi],
                    "router {i} is on-tree yet parentless and not the core"
                ),
            }
        }
        edges.sort_unstable();
        edges
    }

    /// Re-expresses membership for a member whose engine has given up
    /// entirely (off-tree, nothing pending, nothing transient) — the
    /// p2p analog of IGMP re-announcing a group to the local router.
    /// Refuses while the engine still has its own recovery in flight.
    pub fn kick(&mut self, gi: usize, r: u32) -> bool {
        if !self.world.is_node_up(r) {
            return false;
        }
        let gid = self.gids[gi];
        let v = self.world.node(r).router.group_view(gid);
        if v.on_tree || v.transient {
            return false;
        }
        self.engine_join(gi, r);
        self.tally.rejoin_kicks += 1;
        true
    }

    // ------------------------------------------------------------------
    // Faults.
    // ------------------------------------------------------------------

    /// SPF probe: with the current masks, does core 0's tree still
    /// reach every live node? (The graph is connected iff any one
    /// root reaches everything.)
    fn probe_connected(&mut self) -> bool {
        let live = (0..self.n).filter(|&i| self.csr.is_node_up(i)).count() as u64;
        let t = SpfTree::full(&self.csr, self.cores[0], &mut self.scratch);
        t.reached() == live
    }

    /// Repairs the rib after a liveness change already applied to the
    /// CSR masks, and hard-asserts the repaired trees equal a
    /// from-scratch SPF.
    fn repair_rib(&mut self, up: bool, pairs: &[(u32, u32)], nodes: &[u32]) {
        let mut rib = self.rib.write().expect("rib lock poisoned");
        self.tally.repair_touched += if up {
            rib.apply_additions(&self.csr, pairs, nodes, &mut self.scratch)
        } else {
            rib.apply_removals(&self.csr, pairs, nodes, &mut self.scratch)
        };
        rib.assert_matches_full_spf(&self.csr, &mut self.scratch);
    }

    /// Masks or restores edge `k` across the CSR slots, the delivery
    /// plane and the (incrementally repaired) rib.
    pub fn set_edge(&mut self, k: usize, up: bool) {
        let (a, b, _) = self.edge_list[k];
        let pair = self.pairs[k];
        self.csr.set_slot_live(pair[0], up);
        self.csr.set_slot_live(pair[1], up);
        self.world.set_link_up(pair, up);
        self.repair_rib(up, &[(a, b)], &[]);
    }

    /// Crashes router `r`: the delivery plane drops its arrivals and
    /// wakeups, the rib routes around it, and every session it hosted
    /// dies with it (§6.2 — a restarted router has no memory).
    pub fn crash(&mut self, r: u32) {
        self.csr.set_node_up(r, false);
        self.world.crash_node(r);
        self.repair_rib(false, &[], &[r]);
        for gi in 0..self.counts.len() {
            if let Some(c) = self.counts[gi].remove(&r) {
                self.tally.concurrent -= c as u64;
                *self.dead_leaves.entry((gi as u32, r)).or_default() += c;
            }
        }
    }

    /// §6.2 cold restart: a brand-new engine in the same slot, then
    /// the masks and rib are restored around it.
    pub fn restart(&mut self, r: u32) {
        self.csr.set_node_up(r, true);
        let old = &self.world.node(r).router;
        self.retired.merge(&old.obs_snapshot());
        let cfg = old.config().clone();
        let router = engine(&self.csr, &self.rib, cfg, r, self.world.now());
        self.world.restart_node(r, |nd| nd.restart(router));
        self.repair_rib(true, &[], &[r]);
    }

    /// Picks a flappable edge: walk a random member's live parent
    /// chain core-ward and return the first chain edge whose removal
    /// keeps the masked graph connected. Core-side (transit) edges are
    /// tried first — they carry whole subtrees and have redundant
    /// alternates; stub uplinks are usually cut edges and fail the
    /// probe.
    pub fn pick_flap(&mut self, rng: &mut XorShift) -> Option<usize> {
        for _ in 0..64 {
            let gi = rng.below(self.counts.len());
            let holders = self.holders_of(gi);
            if holders.is_empty() {
                continue;
            }
            let m = holders[rng.below(holders.len())];
            let gid = self.gids[gi];
            let mut chain: Vec<usize> = Vec::new();
            let mut cur = m;
            for _ in 0..self.n {
                let Some((p, edge)) = self.uplink(gid, cur) else { break };
                chain.extend(edge);
                cur = p;
            }
            for &k in chain.iter().rev() {
                let pair = self.pairs[k];
                if !self.csr.slot_live(pair[0]) {
                    continue; // already down from an overlapping fault
                }
                self.csr.set_slot_live(pair[0], false);
                self.csr.set_slot_live(pair[1], false);
                let ok = self.probe_connected();
                self.csr.set_slot_live(pair[0], true);
                self.csr.set_slot_live(pair[1], true);
                if ok {
                    return Some(k);
                }
            }
        }
        None
    }

    /// Picks a crashable router: an up, non-core stub router whose
    /// removal keeps the rest of the graph connected. Prefers routers
    /// currently holding tree state (so the crash actually exercises
    /// §6.2), falling back to any viable one.
    pub fn pick_crash(&mut self, rng: &mut XorShift) -> Option<u32> {
        for want_state in [true, false] {
            for _ in 0..128 {
                let r = self.transit + rng.below((self.n - self.transit) as usize) as u32;
                if !self.world.is_node_up(r) || self.cores.contains(&r) {
                    continue;
                }
                if want_state && self.world.node(r).router.fib_len() == 0 {
                    continue;
                }
                self.csr.set_node_up(r, false);
                let ok = self.probe_connected();
                self.csr.set_node_up(r, true);
                if ok {
                    return Some(r);
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Measurement.
    // ------------------------------------------------------------------

    /// Aggregate engine state right now.
    pub fn sample(&self) -> Sample {
        let mut s = Sample {
            t_us: self.now_us(),
            concurrent: self.tally.concurrent,
            fib_entries: 0,
            busy_routers: 0,
            frames: self.world.trace.frames,
        };
        for i in 0..self.n {
            let len = self.world.node(i).router.fib_len() as u64;
            s.fib_entries += len;
            s.busy_routers += (len > 0) as u64;
        }
        s
    }

    /// Full teardown: every member still in the ledger leaves, one per
    /// millisecond; quits must cascade all the way to the cores and the
    /// fleet must fall silent within `limit_us` — zero FIB
    /// entries, zero armed timers, no transient state for any fleet
    /// group and clean adapter counters on every router, all
    /// hard-asserted. Returns the instant (µs) of the last event before
    /// silence.
    pub fn teardown_to_silence(&mut self, limit_us: u64) -> u64 {
        let mut t = self.now_us();
        for (gi, r) in self.holders() {
            t += 1000;
            self.run_until_us(t);
            self.force_leave(gi, r);
        }
        let limit = self.world.now() + SimDuration::from_micros(limit_us);
        let silent = self.world.run_to_quiescence(limit);
        for i in 0..self.n {
            let nd = self.world.node(i);
            assert_eq!(nd.router.fib_len(), 0, "router {i} kept tree state after teardown");
            assert!(nd.router.next_wakeup().is_none(), "router {i} kept a timer after teardown");
            for &gid in &self.gids {
                let kept = nd.router.group_view(gid).transient;
                assert!(!kept, "router {i} kept transient state for {gid} after teardown");
            }
            assert_eq!(nd.decode_errors, 0, "router {i} saw undecodable frames");
            assert_eq!(nd.encode_errors, 0, "router {i} failed to encode a control message");
            assert_eq!(nd.dropped_non_control, 0, "router {i} emitted non-control traffic");
        }
        silent.micros()
    }

    /// Merges every router's counters, those of the engines restarts
    /// replaced and the world's group table into one fleet snapshot, so
    /// per kind the group rows sum to the control row; and sums
    /// the adapter-level loss counters, which must all be zero: the
    /// liveness masks drop whole frames, so nothing may arrive torn,
    /// fail to encode or leave as anything but control.
    pub fn harvest(&self) -> Harvest {
        let mut h = Harvest {
            obs: ObsSnapshot { router: "fleet".into(), ..Default::default() },
            decode_errors: 0,
            encode_errors: 0,
            dropped_non_control: 0,
        };
        h.obs.add_groups(self.world.groups());
        h.obs.merge(&self.retired);
        for i in 0..self.n {
            let nd = self.world.node(i);
            h.obs.merge(&nd.router.obs_snapshot());
            h.decode_errors += nd.decode_errors;
            h.encode_errors += nd.encode_errors;
            h.dropped_non_control += nd.dropped_non_control;
        }
        assert_eq!(h.decode_errors, 0, "the fleet must decode every frame");
        assert_eq!(h.encode_errors, 0, "the fleet must encode every control message");
        assert_eq!(h.dropped_non_control, 0, "a p2p control fleet must emit control frames only");
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_obs::CtlKind;

    #[derive(Clone, Copy)]
    enum Op {
        Join,
        Leave,
        Crash,
        Restart,
    }

    #[test]
    fn ledger_transitions_reach_the_engine_once_and_teardown_demands_silence() {
        let mut f = Fleet::new(TOPO_TINY, 2, None, 7);
        let r = f.routers() as u32 - 1;
        // (op, accepted, sessions, member, joins originated, quits sent)
        let table = [
            (Op::Join, true, 1, true, 1, 0),
            (Op::Join, true, 2, true, 1, 0),   // 1→2: ledger only
            (Op::Leave, true, 1, true, 1, 0),  // 2→1: ledger only
            (Op::Leave, true, 0, false, 1, 1), // 1→0: the engine quits
            (Op::Crash, true, 0, false, 1, 1),
            (Op::Join, false, 0, false, 1, 1), // lost on a dead router...
            (Op::Restart, true, 0, false, 0, 0), // (§6.2: a cold engine)
            (Op::Leave, true, 0, false, 0, 0), // ...and forgiven by its leave
            (Op::Join, true, 1, true, 1, 0),
        ];
        for (step, (op, accepted, sessions, member, joins, quits)) in table.into_iter().enumerate()
        {
            let ok = match op {
                Op::Join => f.member_join(0, r),
                Op::Leave => {
                    f.member_leave(0, r);
                    true
                }
                Op::Crash => {
                    f.crash(r);
                    true
                }
                Op::Restart => {
                    f.restart(r);
                    true
                }
            };
            f.run_until_us(f.now_us() + 1_000_000);
            let obs = f.world.node(r).router.obs_snapshot();
            assert_eq!(ok, accepted, "step {step}: accepted");
            assert_eq!(f.tally().concurrent, sessions, "step {step}: live sessions");
            assert_eq!(f.is_member(0, r), member, "step {step}: ledger membership");
            assert_eq!(obs.joins_originated, joins, "step {step}: joins originated");
            assert_eq!(obs.ctl.sent(CtlKind::QuitRequest), quits, "step {step}: quits sent");
            assert_eq!(f.rooted(0, r), member, "step {step}: rooted");
        }
        assert!(f.dead_leaves.is_empty(), "the forgiven leave drained the dead ledger");

        // A router holding tree state the ledger does not know about
        // survives the leaves — and teardown must refuse to call that
        // silence.
        assert!(f.kick(1, r - 1));
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.teardown_to_silence(60_000_000)
        }));
        let msg =
            *torn.expect_err("a leftover FIB entry is not silence").downcast::<String>().unwrap();
        assert!(msg.contains("kept tree state after teardown"), "{msg}");
    }

    /// A restart mid-churn: the replaced engine's counters stay in the
    /// harvest, so the world's group table and the control row cover
    /// one lifetime and per kind the group rows sum to the control row.
    #[test]
    fn a_restarted_router_keeps_its_counters_in_the_harvest() {
        let mut f = Fleet::new(TOPO_TINY, 2, None, 7);
        let stubs: Vec<u32> = (f.transit..f.n).collect();
        for (k, &r) in stubs.iter().enumerate().step_by(3) {
            f.member_join(k % 2, r);
        }
        f.run_until_us(f.now_us() + 2_000_000);
        let on_tree = |f: &Fleet, r: u32| f.world.node(r).router.fib_len() > 0;
        let r = (f.transit..f.n)
            .chain(0..f.transit)
            .find(|&r| on_tree(&f, r) && !f.cores.contains(&r))
            .expect("some non-core router carries a branch");
        f.crash(r);
        f.run_until_us(f.now_us() + 1_000_000);
        f.restart(r);
        for (k, &r) in stubs.iter().enumerate().skip(1).step_by(3) {
            f.member_join(k % 2, r);
        }
        f.run_until_us(f.now_us() + 5_000_000);

        let obs = f.harvest().obs;
        for kind in CtlKind::ALL {
            let sent: u64 = obs.groups.values().map(|g| g.sent(kind)).sum();
            let received: u64 = obs.groups.values().map(|g| g.received(kind)).sum();
            assert_eq!(sent, obs.ctl.sent(kind), "{kind:?} sent");
            assert_eq!(received, obs.ctl.received(kind), "{kind:?} received");
        }
        assert!(obs.ctl.sent(CtlKind::JoinRequest) > 0);
    }
}
