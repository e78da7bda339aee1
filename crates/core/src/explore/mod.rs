//! # Systematic fault-interleaving exploration
//!
//! A forward-search harness that drives the deterministic simulator
//! through *enumerated* fault schedules instead of random seeds. The
//! unit of exploration is a [`Schedule`]: an ordered set of [`Fault`]s
//! (targeted control/data-frame drops, router crash + §6.2 restart,
//! link partition, LAN outage) injected into one named [`Scenario`].
//!
//! Because the simulator replays bit-identically from `(scenario,
//! seed, schedule)`, there is no snapshotting: every interleaving is a
//! fresh run, and every run the search flags is a self-contained
//! replayable counterexample ([`Counterexample`]) that `cargo test`
//! re-executes verbatim from its text form.
//!
//! After each interleaving the harness heals all faults, waits for the
//! fleet to quiesce, and checks the tree invariants
//! ([`check_tree_invariants`]): no forwarding loops, parent/child FIB
//! symmetry, every member attached to a rooted tree, no orphaned hard
//! state after teardown, and obs counters consistent with the injected
//! faults. See `DESIGN.md` ("Exploration harness").

mod counterexample;
mod invariants;
mod scenario;
mod search;

pub use counterexample::Counterexample;
pub use invariants::{
    assert_tree_invariants, check_netscale_invariants, check_tree_invariants, record_violations,
    Violation,
};
pub use scenario::Scenario;
pub use search::{
    explore, explore_with, run_job, CoverageMatrix, ExploreParams, ExploreReport, FaultTag, Job,
};

use crate::engine::ProtocolPhase;
use crate::CbtWorld;
use cbt_netsim::{SimDuration, SimTime};
use cbt_obs::ObsSnapshot;
use cbt_topology::{LanId, LinkId, RouterId};
use cbt_wire::GroupId;
use std::fmt;

/// One injectable fault. Timed faults (`Crash`, `CutLink`, `CutLan`)
/// take effect at `at` and heal `down` later; frame drops are keyed by
/// the per-class deterministic sequence number the
/// [`cbt_netsim::fault::FaultInjector`] assigns, which is what makes a
/// drop schedule immune to unrelated traffic (see
/// `FaultPlan::drop_control_seqs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop the `seq`-th control-class frame (CBT control or IGMP).
    DropControl {
        /// Control-class sequence number (emission order).
        seq: u64,
    },
    /// Drop the `seq`-th data-class frame.
    DropData {
        /// Data-class sequence number (emission order).
        seq: u64,
    },
    /// Crash a router at `at`; restart it with empty state (§6.2)
    /// after `down`.
    Crash {
        /// Which router.
        router: RouterId,
        /// When it dies.
        at: SimTime,
        /// How long it stays down.
        down: SimDuration,
    },
    /// Partition a point-to-point link at `at` for `down`.
    CutLink {
        /// Which link.
        link: LinkId,
        /// When it goes down.
        at: SimTime,
        /// How long it stays down.
        down: SimDuration,
    },
    /// Take a whole LAN segment down at `at` for `down`.
    CutLan {
        /// Which LAN.
        lan: LanId,
        /// When it goes down.
        at: SimTime,
        /// How long it stays down.
        down: SimDuration,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::DropControl { seq } => write!(f, "drop-ctl {seq}"),
            Fault::DropData { seq } => write!(f, "drop-data {seq}"),
            Fault::Crash { router, at, down } => {
                write!(f, "crash r{} at={}us down={}us", router.0, at.micros(), down.micros())
            }
            Fault::CutLink { link, at, down } => {
                write!(f, "cut-link l{} at={}us down={}us", link.0, at.micros(), down.micros())
            }
            Fault::CutLan { lan, at, down } => {
                write!(f, "cut-lan s{} at={}us down={}us", lan.0, at.micros(), down.micros())
            }
        }
    }
}

impl Fault {
    /// Parses the `Display` form back. Returns `None` on anything
    /// malformed — counterexample files are hand-editable, so this is
    /// lenient about whitespace but strict about fields.
    pub fn parse(s: &str) -> Option<Fault> {
        let mut it = s.split_whitespace();
        let head = it.next()?;
        match head {
            "drop-ctl" => Some(Fault::DropControl { seq: it.next()?.parse().ok()? }),
            "drop-data" => Some(Fault::DropData { seq: it.next()?.parse().ok()? }),
            "crash" | "cut-link" | "cut-lan" => {
                let id = it.next()?;
                let idx: u32 = id.get(1..)?.parse().ok()?;
                let at = parse_us(it.next()?, "at=")?;
                let down = parse_us(it.next()?, "down=")?;
                let (at, down) = (SimTime::from_micros(at), SimDuration::from_micros(down));
                match (head, id.as_bytes()[0]) {
                    ("crash", b'r') => Some(Fault::Crash { router: RouterId(idx), at, down }),
                    ("cut-link", b'l') => Some(Fault::CutLink { link: LinkId(idx), at, down }),
                    ("cut-lan", b's') => Some(Fault::CutLan { lan: LanId(idx), at, down }),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// When a timed fault takes effect; frame drops are untimed.
    fn at(&self) -> Option<SimTime> {
        match *self {
            Fault::Crash { at, .. } | Fault::CutLink { at, .. } | Fault::CutLan { at, .. } => {
                Some(at)
            }
            _ => None,
        }
    }
}

fn parse_us(tok: &str, key: &str) -> Option<u64> {
    tok.strip_prefix(key)?.strip_suffix("us")?.parse().ok()
}

/// An ordered set of faults applied to one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The faults, in injection order.
    pub faults: Vec<Fault>,
}

impl Schedule {
    /// The empty (baseline) schedule.
    pub fn none() -> Schedule {
        Schedule::default()
    }

    /// A single-fault schedule.
    pub fn single(f: Fault) -> Schedule {
        Schedule { faults: vec![f] }
    }

    /// This schedule plus one more fault.
    pub fn and(&self, f: Fault) -> Schedule {
        let mut faults = self.faults.clone();
        faults.push(f);
        Schedule { faults }
    }
}

/// What one executed interleaving produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Invariant violations found after heal + quiescence (empty on a
    /// clean run). Already stably sorted.
    pub violations: Vec<Violation>,
    /// FNV-1a hash over the fleet's per-group end state — two runs
    /// with equal signatures converged to the same tree.
    pub signature: u64,
    /// Did the fleet reach a transient-state-free instant within the
    /// quiescence budget?
    pub quiesced: bool,
    /// Merged fleet observability snapshot at the end of the run.
    pub obs: ObsSnapshot,
    /// `(passed, corrupted, dropped)` from the fault injector.
    pub fault_stats: (u64, u64, u64),
    /// For each schedule fault, the protocol phase the involved
    /// routers were actually in at injection time — sampled live from
    /// this very run for timed faults (`Crash`/`CutLink`/`CutLan`),
    /// `None` for frame drops (those are labelled statically by the
    /// search profiler from the frame they sever). Exact by
    /// construction: a second fault landing inside another fault's
    /// outage window is labelled with the phase that outage induced
    /// (e.g. core-unreachable), which no baseline profile can know.
    pub injected_phases: Vec<Option<ProtocolPhase>>,
}

impl RunResult {
    /// The verdict lines a counterexample file records: one line per
    /// violation, or the single line `ok`.
    pub fn verdict_lines(&self) -> Vec<String> {
        if self.violations.is_empty() {
            vec!["ok".into()]
        } else {
            self.violations.iter().map(|v| v.to_string()).collect()
        }
    }
}

/// Extra sim time granted after a violation is first seen: one §9
/// IFF-scan period plus slack, so states the engine will still clean
/// up on its own slow timers are not misreported as stuck.
const GRACE: SimDuration = SimDuration::from_secs(40);

/// How long [`await_quiescence`] is willing to keep stepping.
const QUIESCE_BUDGET: SimDuration = SimDuration::from_secs(90);

/// Step granularity while waiting for quiescence.
const QUIESCE_STEP: SimDuration = SimDuration::from_millis(500);

/// Runs `scenario` under `schedule` with `shards`-way sharded routers
/// and returns the checked result. This is the single replay primitive
/// everything else (search, counterexample replay, property tests) is
/// built on: identical inputs give byte-identical verdicts.
pub fn execute(scenario: &Scenario, schedule: &Schedule, shards: usize, seed: u64) -> RunResult {
    let mut cw = scenario.build(shards, seed, schedule, false);
    cw.world.start();

    // Timed faults and their heals, in deterministic order, each
    // remembering which schedule entry it came from so the injection
    // phase can be recorded against the right fault.
    let mut events: Vec<(SimTime, usize, TimedOp)> = Vec::new();
    for (fi, f) in schedule.faults.iter().enumerate() {
        let Some(at) = f.at() else { continue };
        match *f {
            Fault::Crash { router, down, .. } => {
                events.push((at, fi, TimedOp::CrashRouter(router)));
                events.push((at + down, fi, TimedOp::RestartRouter(router)));
            }
            Fault::CutLink { link, down, .. } => {
                events.push((at, fi, TimedOp::CutLink(link)));
                events.push((at + down, fi, TimedOp::HealLink(link)));
            }
            Fault::CutLan { lan, down, .. } => {
                events.push((at, fi, TimedOp::CutLan(lan)));
                events.push((at + down, fi, TimedOp::HealLan(lan)));
            }
            _ => {}
        }
    }
    events.sort_by_key(|(t, _, _)| *t); // stable: ties keep schedule order
    let mut injected_phases: Vec<Option<ProtocolPhase>> = vec![None; schedule.faults.len()];
    for (t, fi, op) in events {
        let t = t.min(scenario.horizon); // late heals happen in heal()
        cw.world.run_until(t);
        let now = cw.world.now();
        match op {
            TimedOp::CrashRouter(r) => {
                injected_phases[fi] = Some(phase_of_routers(&cw, &[r], &scenario.groups));
                cw.fail_router(r);
            }
            TimedOp::RestartRouter(r) => {
                if cw.world.failures().router_down(r) {
                    cw.restart_router(r, now);
                }
            }
            TimedOp::CutLink(l) => {
                let ends = [cw.net.links[l.0 as usize].a, cw.net.links[l.0 as usize].b];
                injected_phases[fi] = Some(phase_of_routers(&cw, &ends, &scenario.groups));
                cw.fail_link(l);
            }
            TimedOp::HealLink(l) => {
                if cw.world.failures().link_down(l) {
                    cw.restore_link(l);
                }
            }
            TimedOp::CutLan(l) => {
                let routers = cw.net.lans[l.0 as usize].routers.clone();
                injected_phases[fi] = Some(phase_of_routers(&cw, &routers, &scenario.groups));
                cw.fail_lan(l);
            }
            TimedOp::HealLan(l) => {
                if cw.world.failures().lan_down(l) {
                    cw.restore_lan(l);
                }
            }
        }
    }

    cw.world.run_until(scenario.horizon);
    heal_everything(&mut cw);
    cw.world.run_until(scenario.horizon + scenario.settle);
    let mut quiesced = await_quiescence(&mut cw, &scenario.groups, QUIESCE_BUDGET);
    let mut violations = check_tree_invariants(&cw, &scenario.groups);
    if !violations.is_empty() || !quiesced {
        // Grace pass: anything the engine's own slow timers (IFF-scan,
        // child-assert expiry) would still repair is not a violation.
        cw.world.run_for(GRACE);
        quiesced = await_quiescence(&mut cw, &scenario.groups, QUIESCE_BUDGET);
        violations = check_tree_invariants(&cw, &scenario.groups);
    }
    if !quiesced {
        violations.push(Violation {
            kind: cbt_obs::InvariantKind::OrphanedState,
            group: None,
            router: None,
            detail: "fleet never quiesced within budget".into(),
        });
    }
    invariants::sort_violations(&mut violations);
    record_violations(&mut cw, &violations);

    let signature = fleet_signature(&cw, &scenario.groups);
    let obs = cw.obs_snapshot();
    RunResult {
        violations,
        signature,
        quiesced,
        obs,
        fault_stats: cw.world.fault_stats(),
        injected_phases,
    }
}

/// The most failure-interesting protocol phase any of `routers` is in
/// right now, across `groups`. Down routers contribute nothing.
fn phase_of_routers(cw: &CbtWorld, routers: &[RouterId], groups: &[GroupId]) -> ProtocolPhase {
    let now = cw.world.now();
    routers
        .iter()
        .filter(|&&r| !cw.world.failures().router_down(r))
        .filter_map(|&r| cw.world.node::<crate::RouterNode>(cbt_netsim::Entity::Router(r)))
        .flat_map(|node| groups.iter().map(move |&g| node.sharded().protocol_phase(g, now)))
        .max_by_key(|&p| search::rank(p))
        .unwrap_or(ProtocolPhase::Idle)
}

enum TimedOp {
    CrashRouter(RouterId),
    RestartRouter(RouterId),
    CutLink(LinkId),
    HealLink(LinkId),
    CutLan(LanId),
    HealLan(LanId),
}

/// Restores every failed element and restarts (empty-state, §6.2)
/// every dead router, so invariants are checked against a network
/// that has had a chance to converge.
fn heal_everything(cw: &mut CbtWorld) {
    let now = cw.world.now();
    for i in 0..cw.net.links.len() {
        let l = LinkId(i as u32);
        if cw.world.failures().link_down(l) {
            cw.restore_link(l);
        }
    }
    for i in 0..cw.net.lans.len() {
        let l = LanId(i as u32);
        if cw.world.failures().lan_down(l) {
            cw.restore_lan(l);
        }
    }
    for i in 0..cw.net.routers.len() {
        let r = RouterId(i as u32);
        if cw.world.failures().router_down(r) {
            cw.restart_router(r, now);
        }
    }
}

/// Steps the world in `QUIESCE_STEP` increments until no up router
/// holds transient state (pending join, unacked quit, re-attachment
/// campaign) for any of `groups`, or `budget` is spent. Returns
/// whether quiescence was reached.
pub fn await_quiescence(cw: &mut CbtWorld, groups: &[GroupId], budget: SimDuration) -> bool {
    let deadline = cw.world.now() + budget;
    loop {
        if fleet_is_quiescent(cw, groups) {
            return true;
        }
        if cw.world.now() >= deadline {
            return false;
        }
        cw.world.run_for(QUIESCE_STEP);
    }
}

fn fleet_is_quiescent(cw: &CbtWorld, groups: &[GroupId]) -> bool {
    for i in 0..cw.net.routers.len() {
        let r = RouterId(i as u32);
        if cw.world.failures().router_down(r) {
            continue;
        }
        let Some(node) = cw.world.node::<crate::RouterNode>(cbt_netsim::Entity::Router(r)) else {
            continue;
        };
        if groups.iter().any(|&g| node.sharded().group_view(g).transient) {
            return false;
        }
    }
    true
}

/// FNV-1a over the fleet's end state: per router per group the
/// on-tree bit, parent, sorted children and transient bit; per host
/// the membership bit and delivery count; plus the trace totals. Two
/// runs whose faults were absorbed without a trace converge to the
/// baseline signature — the search uses that to prune extensions.
pub fn fleet_signature(cw: &CbtWorld, groups: &[GroupId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let put = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for i in 0..cw.net.routers.len() {
        let r = RouterId(i as u32);
        let down = cw.world.failures().router_down(r);
        put(&mut h, &[down as u8]);
        if down {
            continue;
        }
        let Some(node) = cw.world.node::<crate::RouterNode>(cbt_netsim::Entity::Router(r)) else {
            continue;
        };
        for &g in groups {
            let mut v = node.sharded().group_view(g);
            put(&mut h, &g.addr().0.to_be_bytes());
            put(&mut h, &[v.on_tree as u8, v.transient as u8]);
            put(&mut h, &v.parent.unwrap_or(cbt_wire::Addr::NULL).0.to_be_bytes());
            v.children.sort_unstable();
            for k in v.children {
                put(&mut h, &k.0.to_be_bytes());
            }
        }
    }
    for i in 0..cw.net.hosts.len() {
        let hid = cbt_topology::HostId(i as u32);
        let Some(app) = cw.world.node::<crate::HostApp>(cbt_netsim::Entity::Host(hid)) else {
            continue;
        };
        put(&mut h, &(app.received().len() as u32).to_be_bytes());
        for &g in groups {
            put(&mut h, &[app.is_member(g) as u8]);
        }
    }
    let (frames, bytes) = cw.world.trace().totals();
    put(&mut h, &frames.to_be_bytes());
    put(&mut h, &bytes.to_be_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_display_parse_roundtrip() {
        let faults = [
            Fault::DropControl { seq: 17 },
            Fault::DropData { seq: 0 },
            Fault::Crash {
                router: RouterId(2),
                at: SimTime::from_secs(21),
                down: SimDuration::from_secs(8),
            },
            Fault::CutLink {
                link: LinkId(1),
                at: SimTime::from_micros(1_234_567),
                down: SimDuration::from_millis(2500),
            },
            Fault::CutLan {
                lan: LanId(0),
                at: SimTime::from_secs(3),
                down: SimDuration::from_secs(6),
            },
        ];
        for f in faults {
            let s = f.to_string();
            assert_eq!(Fault::parse(&s), Some(f), "roundtrip of {s:?}");
        }
        assert_eq!(Fault::parse("drop-ctl"), None);
        assert_eq!(Fault::parse("crash x2 at=1us down=1us"), None);
        assert_eq!(Fault::parse("crash r2 at=1 down=1us"), None);
    }

    #[test]
    fn identical_runs_have_identical_verdicts_and_signatures() {
        let scn = Scenario::by_name("chain").unwrap();
        let sched = Schedule::single(Fault::DropControl { seq: 3 });
        let a = execute(&scn, &sched, 1, 7);
        let b = execute(&scn, &sched, 1, 7);
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.verdict_lines(), b.verdict_lines());
        assert_eq!(a.fault_stats, b.fault_stats);
    }

    #[test]
    fn baseline_run_is_clean_and_quiesces() {
        for name in Scenario::names() {
            let scn = Scenario::by_name(name).unwrap();
            let r = execute(&scn, &Schedule::none(), 1, 0);
            assert!(r.quiesced, "{name}: baseline must quiesce");
            assert_eq!(r.verdict_lines(), vec!["ok".to_string()], "{name}: {:?}", r.violations);
            assert_eq!(r.fault_stats.1, 0, "{name}: no corruption in baseline");
            assert_eq!(r.fault_stats.2, 0, "{name}: no drops in baseline");
        }
    }

    #[test]
    fn crash_of_core_heals_back_to_clean_tree() {
        let scn = Scenario::by_name("chain").unwrap();
        let sched = Schedule::single(Fault::Crash {
            router: RouterId(1), // the core
            at: SimTime::from_secs(8),
            down: SimDuration::from_secs(6),
        });
        let r = execute(&scn, &sched, 1, 0);
        assert!(r.quiesced);
        assert_eq!(r.verdict_lines(), vec!["ok".to_string()], "{:?}", r.violations);
    }
}
