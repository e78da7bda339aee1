//! Group-space sharding: one router, N independent engines.
//!
//! CBT's scaling argument is that router state grows with *group*
//! count, not sender count — which makes the group id a natural
//! partition key. [`ShardedRouter`] fronts `N` fully independent
//! [`CbtRouter`] shards for one node: every group hashes to exactly one
//! shard ([`shard_of`]), and that shard owns the group's FIB entry,
//! pending-join state, timer entries and observability counters
//! outright. No state is shared between shards, so a deployment can pin
//! one shard per core and the forward path crosses no locks.
//!
//! ## Steering rules
//!
//! [`ShardedRouter::step`] takes the same [`Input`] as
//! [`CbtRouter::step`] and steers it by [`Input::group`]:
//!
//! * Control messages, group-specific IGMP, native data, CBT data and
//!   local joins and leaves all carry a group — each goes to
//!   `shard_of(group)` alone.
//! * A §8.4 aggregated echo names its mask cover by its first group,
//!   which the sending shard owns, so it lands on the peer shard that
//!   owns the cover's groups — provided both neighbours run the same
//!   shard count. Neighbours with different counts are out of scope:
//!   their covers can straddle peer shards.
//! * IGMP **general** queries (`Query { group: None }`) carry no group
//!   but drive the querier/DR election, whose outcome every shard needs
//!   to agree on. They are broadcast to all shards, which keep
//!   identical election replicas (same config, same boot instant, same
//!   heard queries ⇒ same ranks). Redundant *emissions* — each replica
//!   also wants to send its own general query — are suppressed for
//!   every shard but the first, so the wire sees exactly what an
//!   unsharded router would send.
//! * A timer input runs every due shard, in index order, which keeps
//!   multi-shard instants deterministic; the same first-shard filter
//!   applies to what it emits. `next_wakeup` is the min over
//!   per-shard timer peeks.
//! * Non-group housekeeping (decode-error drop counts, group-less
//!   transit) lands on shard 0 by convention.
//!
//! [`ShardedRouter::obs_snapshot`] merges across shards with the same
//! associative/commutative fold the parallel eval runner uses across
//! seeds.
//!
//! The front is the only way into a router's shards: every per-group
//! query steers to the owner and every counter view merges, so no
//! caller can mistake shard 0 for the whole router.

use crate::census::Census;
use crate::config::CbtConfig;
use crate::engine::{CbtRouter, GroupView, IfaceInfo, RouteLookup};
use crate::events::{Input, RouterAction};
use cbt_netsim::SimTime;
use cbt_obs::{ObsSnapshot, RouterObs};
use cbt_topology::{IfIndex, NetworkSpec, RouterId};
use cbt_wire::{Addr, GroupId};

/// Maps a group to its owning shard: a splitmix-style avalanche of the
/// group address, reduced mod `shards`.
///
/// Hand-written (not `std`'s SipHash) because steering must be stable
/// across processes and runs — the same group must land on the same
/// shard in the simulator, the live plane, and every restart, or
/// per-shard state would be orphaned. The mixer gives a near-uniform
/// spread even over sequential `239.x.y.z` allocations.
pub fn shard_of(group: GroupId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    // Murmur3/splitmix-style 32-bit finisher: full avalanche, so
    // sequential group addresses spread uniformly.
    let mut x = group.addr().0;
    x = x.wrapping_add(0x9E37_79B9);
    x ^= x >> 16;
    x = x.wrapping_mul(0x21F0_AAAD);
    x ^= x >> 15;
    x = x.wrapping_mul(0x735A_2D97);
    x ^= x >> 15;
    (x as usize) % shards
}

/// Should a shard with global index `shard` emit `a`? Group-carrying
/// actions are each produced by exactly one shard (the group's owner)
/// and always pass. Group-less actions — only IGMP general queries —
/// are produced by *every* shard's election replica; the first shard's
/// copy is the one the wire sees.
fn emits(shard: usize, a: &RouterAction) -> bool {
    shard == 0 || a.group().is_some()
}

/// `N` independent [`CbtRouter`] shards behind one steering front.
///
/// Two deployment shapes share this type:
///
/// * **full** — all `N` shards in one value (the simulator, the eval
///   harness): built by [`ShardedRouter::new`].
/// * **slice** — one shard of a larger set (the live plane runs one
///   task per shard, each owning a single-shard slice): built by
///   [`ShardedRouter::slice`]. A slice steers with the *global* shard
///   count so ownership agrees across tasks, and applies the same
///   emission filtering by its global index.
pub struct ShardedRouter {
    /// Local shard 0, held inline: a one-shard router — every fleet
    /// engine at the default shard count — reaches its engine without
    /// a pointer chase.
    first: CbtRouter,
    /// Local shards 1.. (empty for one shard and for a slice).
    rest: Vec<CbtRouter>,
    /// Global index of local shard 0: 0 for a full set, `k` for a slice.
    first_index: usize,
    /// Global shard count used for steering (≥ the local count).
    total: usize,
}

impl ShardedRouter {
    /// Builds the full shard set for router `me`: `cfg.shards` engines
    /// (min 1), each with its own route-table handle from
    /// `make_routes`.
    pub fn new(
        net: &NetworkSpec,
        me: RouterId,
        cfg: CbtConfig,
        mut make_routes: impl FnMut() -> Box<dyn RouteLookup>,
        now: SimTime,
    ) -> Self {
        Self::full(&cfg, || CbtRouter::new(net, me, cfg.clone(), make_routes(), now))
    }

    /// Builds the full shard set for a bare point-to-point router (see
    /// [`CbtRouter::p2p`]): no `NetworkSpec`, no LANs, membership via
    /// [`Input::Join`]/[`Input::Leave`]. The engines keep no router id;
    /// the first argument only keeps the constructor's signature, which
    /// `benchmark/` calls.
    pub fn p2p(
        _me: RouterId,
        id_addr: Addr,
        degree: usize,
        cfg: CbtConfig,
        mut make_routes: impl FnMut() -> Box<dyn RouteLookup>,
        now: SimTime,
    ) -> Self {
        Self::full(&cfg, || CbtRouter::p2p(id_addr, degree, cfg.clone(), make_routes(), now))
    }

    /// Builds a one-shard slice: global shard `index` of `total`. The
    /// caller (the live plane) must pre-steer inputs so only owned
    /// groups arrive here — group-less broadcasts are fine, they are
    /// what the slice's election replica exists for.
    pub fn slice(
        net: &NetworkSpec,
        me: RouterId,
        cfg: CbtConfig,
        routes: Box<dyn RouteLookup>,
        now: SimTime,
        index: usize,
        total: usize,
    ) -> Self {
        let total = total.max(1);
        assert!(index < total, "shard index {index} out of range for {total} shards");
        let first = CbtRouter::new(net, me, cfg, routes, now);
        ShardedRouter { first, rest: Vec::new(), first_index: index, total }
    }

    /// The full set of `cfg.shards` engines (min 1), built in index
    /// order by `build`.
    fn full(cfg: &CbtConfig, mut build: impl FnMut() -> CbtRouter) -> Self {
        let total = cfg.shards.max(1);
        let first = build();
        let rest = (1..total).map(|_| build()).collect();
        ShardedRouter { first, rest, first_index: 0, total }
    }

    /// Number of engines held locally (the global shard count for a
    /// full set, 1 for a slice).
    pub fn local_count(&self) -> usize {
        1 + self.rest.len()
    }

    /// Every local shard, in index order.
    fn shards(&self) -> impl Iterator<Item = &CbtRouter> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// The heap bytes every local shard holds, summed row by row with
    /// their shared configuration once, and the front's own vector of
    /// shards.
    pub fn census(&self) -> Census {
        let mut sum = Census::default();
        sum.shards = self.rest.capacity() * size_of::<CbtRouter>();
        for shard in self.shards() {
            sum.add(&shard.census());
        }
        sum
    }

    /// Shard by local index, mutably.
    #[inline]
    fn shard_mut(&mut self, k: usize) -> &mut CbtRouter {
        match k {
            0 => &mut self.first,
            k => &mut self.rest[k - 1],
        }
    }

    /// Local shard index for `group`. For a full set this is simply
    /// the owning shard; a slice resolves foreign groups to its one
    /// engine (defensive — pre-steering should prevent that).
    #[inline]
    fn local_for(&self, group: GroupId) -> usize {
        shard_of(group, self.total).wrapping_sub(self.first_index).min(self.rest.len())
    }

    /// Shard by local index.
    pub fn shard(&self, k: usize) -> &CbtRouter {
        match k {
            0 => &self.first,
            k => &self.rest[k - 1],
        }
    }

    /// The shard owning `group`.
    pub(crate) fn shard_for(&self, group: GroupId) -> &CbtRouter {
        self.shard(self.local_for(group))
    }

    /// The one way into the router: steers `input` to the shard owning
    /// its group. The two group-less inputs run on several shards in
    /// index order — a general query on every election replica, a timer
    /// on every due shard (driving one that is not due would be a
    /// no-op) — and what they emit without a group leaves from the
    /// first shard only.
    #[inline]
    pub fn step(&mut self, now: SimTime, input: Input, out: &mut Vec<RouterAction>) {
        if let Some(group) = input.group() {
            let k = self.local_for(group);
            return self.shard_mut(k).step(now, input, out);
        }
        let first = self.first_index;
        let shards = std::iter::once(&mut self.first).chain(&mut self.rest);
        for (k, shard) in shards.enumerate() {
            if matches!(input, Input::Timer) && shard.next_wakeup().is_none_or(|w| w > now) {
                continue;
            }
            let from = out.len();
            shard.step(now, input.clone(), out);
            if first + k > 0 {
                // Drop this shard's redundant group-less emissions;
                // what was buffered before it ran stays.
                let mut at = 0;
                out.retain(|a| {
                    at += 1;
                    at <= from || emits(first + k, a)
                });
            }
        }
    }

    /// Earliest wakeup across every local shard's timer peek.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.shards().filter_map(|s| s.next_wakeup()).min()
    }

    // ------------------------------------------------------------------
    // Queries and merged views.
    // ------------------------------------------------------------------

    /// The router-id address (identical across shards).
    pub fn id_addr(&self) -> Addr {
        self.first.id_addr()
    }

    /// Is `a` one of this router's addresses?
    pub fn is_my_addr(&self, a: Addr) -> bool {
        self.first.is_my_addr(a)
    }

    /// Interface info (identical across shards).
    pub(crate) fn iface(&self, i: IfIndex) -> Option<&IfaceInfo> {
        self.first.iface(i)
    }

    /// Am I the D-DR on `i`? Every shard's election replica agrees;
    /// the first answers.
    pub fn i_am_dr(&self, i: IfIndex, now: SimTime) -> bool {
        self.first.i_am_dr(i, now)
    }

    /// Am I the G-DR for `group` on `i`? Asked of the owning shard.
    pub fn is_gdr(&self, i: IfIndex, group: GroupId) -> bool {
        self.shard_for(group).is_gdr(i, group)
    }

    /// One read of `group`'s tree state, asked of the owning shard.
    pub fn group_view(&self, group: GroupId) -> GroupView {
        self.shard_for(group).group_view(group)
    }

    /// Per-group protocol phase at `now`, asked of the owning shard.
    pub fn protocol_phase(&self, group: GroupId, now: SimTime) -> crate::engine::ProtocolPhase {
        self.shard_for(group).protocol_phase(group, now)
    }

    /// Cores known for `group` (owning shard's knowledge).
    pub fn cores_for(&self, group: GroupId) -> Option<Vec<Addr>> {
        self.shard_for(group).cores_for(group)
    }

    /// Records a core list with the owning shard.
    pub fn learn_cores(&mut self, group: GroupId, cores: &[Addr]) {
        let k = self.local_for(group);
        self.shard_mut(k).learn_cores(group, cores);
    }

    /// The configuration in force (identical across shards).
    pub fn config(&self) -> &CbtConfig {
        self.first.config()
    }

    /// Total FIB entries across local shards.
    pub fn fib_len(&self) -> usize {
        self.shards().map(|s| s.fib().len()).sum()
    }

    /// Observability of the first local shard — where host layers
    /// classify drops that never reach a group (decode failures).
    pub fn obs_mut(&mut self) -> &mut RouterObs {
        self.first.obs_mut()
    }

    /// Counter snapshot merged across local shards, labelled once with
    /// the router address. Merge order is irrelevant — `ObsSnapshot`
    /// merge is associative and commutative (see the obs crate's
    /// property tests) — so full sets and slice-per-task deployments
    /// aggregate to the same totals.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let mut snap = self.first.obs_snapshot();
        for s in &self.rest {
            snap.merge(&s.obs_snapshot());
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_obs::CtlKind;
    use cbt_routing::Hop;
    use cbt_topology::NetworkBuilder;
    use cbt_wire::{ControlMessage, DataPacket, IgmpMessage};
    use std::collections::BTreeMap;

    fn test_net() -> (NetworkSpec, RouterId) {
        // Same shape as engine::testutil: ME with a LAN (if0) and two
        // p2p links (if1 up, if2 down).
        let mut b = NetworkBuilder::new();
        let me = b.router("ME");
        let up = b.router("UP");
        let down = b.router("DOWN");
        let lan = b.lan("S0");
        b.attach(lan, me);
        b.host("H", lan);
        b.link(me, up, 1);
        b.link(me, down, 1);
        (b.build(), me)
    }

    /// The upstream peer on if1, used as every group's core.
    fn core() -> Addr {
        Addr::from_octets(172, 31, 0, 2)
    }

    /// Routes reaching the core through if1 — so joins actually leave
    /// the router instead of dying on "no route".
    fn routes() -> Box<dyn RouteLookup> {
        let hop = Hop { iface: IfIndex(1), router: RouterId(1), addr: core(), dist: 1 };
        Box::new(BTreeMap::from([(core(), hop)]))
    }

    /// An empty table: every destination unreachable.
    fn no_routes() -> Box<dyn RouteLookup> {
        Box::new(BTreeMap::<Addr, Hop>::new())
    }

    fn sharded(n: usize) -> ShardedRouter {
        let (net, me) = test_net();
        let cfg = CbtConfig { shards: n, ..CbtConfig::default() };
        ShardedRouter::new(&net, me, cfg, routes, SimTime::ZERO)
    }

    #[test]
    fn every_group_maps_to_exactly_one_shard() {
        for n in [1usize, 2, 3, 4, 8] {
            let mut per_shard = vec![0usize; n];
            for i in 0..4096u16 {
                let s = shard_of(GroupId::numbered(i), n);
                assert!(s < n, "shard {s} out of range for {n}");
                per_shard[s] += 1;
            }
            assert_eq!(per_shard.iter().sum::<usize>(), 4096, "total coverage");
            // The mixer must spread sequential allocations roughly
            // uniformly — no shard may be starved or overloaded.
            if n > 1 {
                let expect = 4096 / n;
                for (s, &c) in per_shard.iter().enumerate() {
                    assert!(
                        c > expect / 2 && c < expect * 2,
                        "shard {s}/{n} got {c} of 4096 (expected ≈{expect})"
                    );
                }
            }
        }
    }

    #[test]
    fn steering_is_stable_across_runs() {
        // Golden values: steering feeds persistent per-shard state, so
        // it may never drift between builds or hosts. If this test
        // fails, the hash function changed — that is a breaking change
        // for any deployment with in-flight sharded state.
        let golden: Vec<usize> = (0..16u16).map(|i| shard_of(GroupId::numbered(i), 4)).collect();
        assert_eq!(golden, vec![1, 0, 3, 2, 2, 0, 2, 2, 3, 1, 1, 3, 1, 0, 2, 3]);
        // And trivially: recomputing gives the same answer.
        for i in 0..512u16 {
            let g = GroupId::numbered(i);
            assert_eq!(shard_of(g, 8), shard_of(g, 8));
        }
    }

    #[test]
    fn single_shard_is_a_transparent_pass_through() {
        let (net, me) = test_net();
        let cfg = CbtConfig::fast();
        let mut plain = CbtRouter::new(&net, me, cfg.clone(), no_routes(), SimTime::ZERO);
        let mut front =
            ShardedRouter::new(&net, me, CbtConfig { shards: 1, ..cfg }, no_routes, SimTime::ZERO);
        let host = Addr::from_octets(10, 1, 0, 77);
        let g = GroupId::numbered(9);
        let report = Input::Igmp {
            iface: IfIndex(0),
            src: host,
            msg: IgmpMessage::Report { version: 2, group: g },
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut t = SimTime::ZERO;
        for step in 0..200 {
            plain.step(t, report.clone(), &mut a);
            front.step(t, report.clone(), &mut b);
            let (wa, wb) = (plain.next_wakeup(), front.next_wakeup());
            assert_eq!(wa, wb, "wakeup diverges at step {step}");
            t = wa.unwrap_or(t + cbt_netsim::SimDuration::from_secs(1));
            plain.step(t, Input::Timer, &mut a);
            front.step(t, Input::Timer, &mut b);
            assert_eq!(a, b, "actions diverge at step {step}");
        }
        assert_eq!(plain.obs_snapshot(), front.obs_snapshot());
    }

    #[test]
    fn cross_shard_control_lands_on_the_right_shard() {
        // A LAN hosting members of group B must not swallow control
        // traffic for group A owned by a different shard: steering is
        // by the *message's* group, never by port or LAN state.
        let n = 4;
        let mut r = sharded(n);
        let host = Addr::from_octets(10, 1, 0, 77);
        // Two groups owned by different shards (per the golden table:
        // numbered(1) → shard 0, numbered(0) → shard 1 at n = 4).
        let ga = GroupId::numbered(1);
        let gb = GroupId::numbered(0);
        assert_ne!(shard_of(ga, n), shard_of(gb, n), "test needs distinct owners");
        // Group B becomes live on the LAN (if0): cores learned, member
        // reported — B's owner shard originates the join upstream.
        r.learn_cores(gb, &[core()]);
        let mut out = Vec::new();
        let report = IgmpMessage::Report { version: 2, group: gb };
        r.step(SimTime::ZERO, Input::Igmp { iface: IfIndex(0), src: host, msg: report }, &mut out);
        // A JOIN for group A arrives on the downstream link (if2) —
        // same router, same ports as B's traffic would use.
        let child = Addr::from_octets(172, 31, 0, 6);
        let join = ControlMessage::JoinRequest {
            subcode: cbt_wire::control::JoinSubcode::ActiveJoin,
            group: ga,
            origin: child,
            target_core: core(),
            cores: vec![core()],
        };
        r.step(
            SimTime::from_micros(10_000),
            Input::Control { iface: IfIndex(2), src: child, msg: join },
            &mut out,
        );
        let (ka, kb) = (shard_of(ga, n), shard_of(gb, n));
        for k in 0..n {
            // Group A's join state (and the received join it counted)
            // live on A's shard and nowhere else — B's LAN membership
            // on the same router must not capture them.
            assert_eq!(
                r.shard(k).group_view(ga).pending_join,
                k == ka,
                "shard {k}: group A join state misplaced"
            );
            assert_eq!(
                r.shard(k).obs().ctl().received(CtlKind::JoinRequest),
                u64::from(k == ka),
                "shard {k}: group A's join counted elsewhere"
            );
            assert_eq!(
                r.shard(k).has_pending_join(gb) || r.shard(k).is_on_tree(gb),
                k == kb,
                "shard {k}: group B state misplaced"
            );
        }
    }

    #[test]
    fn general_queries_broadcast_but_emit_once() {
        let mut r = sharded(4);
        // Boot instant: every shard's election wants to send its
        // startup general query; exactly one may reach the wire.
        let mut act = Vec::new();
        r.step(SimTime::ZERO, Input::Timer, &mut act);
        let queries = act
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    RouterAction::SendIgmp { msg: IgmpMessage::Query { group: None, .. }, .. }
                )
            })
            .count();
        assert_eq!(queries, 1, "exactly one general query on the wire");
        // A foreign general query is heard by every shard's replica.
        let rival = Addr::from_octets(10, 1, 0, 200);
        let q = IgmpMessage::Query { group: None, max_resp_tenths: 100 };
        r.step(
            SimTime::from_micros(5_000),
            Input::Igmp { iface: IfIndex(0), src: rival, msg: q },
            &mut act,
        );
        for k in 0..4 {
            // The rival has a higher address than our 10.1.0.1 LAN
            // iface, so our shards keep querier duty — but each replica
            // must at least have *heard* the query identically; their
            // wakeups stay in lockstep.
            assert_eq!(
                r.shard(k).next_wakeup(),
                r.shard(0).next_wakeup(),
                "shard {k} election replica diverged"
            );
        }
    }

    /// The shard-merged snapshot equals the single-engine snapshot for
    /// the same (timer-free) event stream: joins, acks, data, leaves.
    /// Timer-driven events are deliberately absent — each shard runs
    /// its own LAN/election replica, so timer-driven housekeeping
    /// (general queries, sweeps) legitimately fires once per shard,
    /// while every group-scoped counter lands on exactly one shard and
    /// must sum back to the unsharded totals.
    #[test]
    fn shard_merged_snapshot_matches_single_engine() {
        let (net, me) = test_net();
        let cfg = CbtConfig::default();
        let mut single = CbtRouter::new(&net, me, cfg.clone(), routes(), SimTime::ZERO);
        let mut front =
            ShardedRouter::new(&net, me, CbtConfig { shards: 4, ..cfg }, routes, SimTime::ZERO);
        let host = Addr::from_octets(10, 1, 0, 77);
        let origin = Addr::from_octets(10, 1, 0, 1);
        for i in 0..24u16 {
            single.learn_cores(GroupId::numbered(i), &[core()]);
            front.learn_cores(GroupId::numbered(i), &[core()]);
        }
        let mut act = Vec::new();
        let mut both = |t, input: Input| {
            single.step(t, input.clone(), &mut act);
            front.step(t, input, &mut act);
            act.clear();
        };

        for i in 0..24u16 {
            let g = GroupId::numbered(i);
            let t = SimTime::from_micros(1_000 + i as u64);
            let report = IgmpMessage::Report { version: 2, group: g };
            both(t, Input::Igmp { iface: IfIndex(0), src: host, msg: report });
            let ack = ControlMessage::JoinAck {
                subcode: cbt_wire::control::AckSubcode::Normal,
                group: g,
                origin,
                target_core: core(),
                cores: vec![core()],
            };
            let t2 = SimTime::from_micros(5_000 + 7 * i as u64);
            both(t2, Input::Control { iface: IfIndex(1), src: core(), msg: ack });
        }
        for i in 0..24u16 {
            let g = GroupId::numbered(i);
            let t3 = SimTime::from_micros(50_000 + i as u64);
            let pkt = DataPacket::new(host, g, 16, vec![0u8; 8]);
            both(t3, Input::NativeData { iface: IfIndex(0), link_src: host, pkt });
        }
        for i in 0..6u16 {
            let g = GroupId::numbered(i);
            let t4 = SimTime::from_micros(90_000 + i as u64);
            both(
                t4,
                Input::Igmp { iface: IfIndex(0), src: host, msg: IgmpMessage::Leave { group: g } },
            );
        }

        assert_eq!(single.obs_snapshot(), front.obs_snapshot());
        assert!(front.obs_snapshot().data_forwarded >= 24, "data actually flowed");
    }

    #[test]
    fn merged_snapshot_totals_cover_all_shards() {
        let mut r = sharded(4);
        let host = Addr::from_octets(10, 1, 0, 77);
        let mut out = Vec::new();
        for i in 0..32u16 {
            let g = GroupId::numbered(i);
            r.learn_cores(g, &[core()]);
            let report = IgmpMessage::Report { version: 2, group: g };
            r.step(
                SimTime::ZERO,
                Input::Igmp { iface: IfIndex(0), src: host, msg: report },
                &mut out,
            );
        }
        let merged = r.obs_snapshot();
        for i in 0..32u16 {
            let g = GroupId::numbered(i);
            let owners: Vec<usize> =
                (0..4).filter(|&k| r.shard(k).group_view(g).pending_join).collect();
            assert_eq!(owners, [shard_of(g, 4)], "{g}: joining on exactly its own shard");
        }
        let sent: u64 = (0..4).map(|k| r.shard(k).obs().ctl().sent(CtlKind::JoinRequest)).sum();
        assert_eq!((sent, merged.ctl.sent(CtlKind::JoinRequest)), (32, 32), "one join per group");
        let per_shard: u64 = (0..4).map(|k| r.shard(k).obs().joins_originated).sum();
        assert_eq!(per_shard, 32, "one join originated per group");
        assert_eq!(merged.joins_originated, per_shard);
    }
}
