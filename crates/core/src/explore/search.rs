//! The forward search itself: enumerate fault placements against a
//! profiled baseline run, execute every interleaving, extend the ones
//! that perturbed the fleet, and distill violations into minimized
//! counterexamples.
//!
//! The search replays rather than snapshots: a placement is a complete
//! `(scenario, seed, schedule)` triple, so any run the search ever
//! looks at is already in replayable form. Depth-1 places one fault at
//! every enumerated injection point; depth-2 extends only schedules
//! whose end-state signature differs from the baseline's (faults the
//! fleet absorbed without a trace cannot enable new behaviour, so
//! extending them is wasted work).

use super::counterexample::minimize;
use super::{execute, Counterexample, Fault, RunResult, Scenario, Schedule};
use crate::engine::ProtocolPhase;
use crate::{CbtWorld, RouterNode};
use cbt_netsim::{Entity, SimDuration, SimTime};
use cbt_obs::ObsSnapshot;
use cbt_topology::{LanId, LinkId, RouterId};
use std::collections::BTreeSet;

/// The five fault dimensions the search places, for coverage
/// accounting (rows are [`ProtocolPhase`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultTag {
    /// Targeted control-frame drop.
    DropControl = 0,
    /// Targeted data-frame drop.
    DropData = 1,
    /// Router crash + §6.2 empty-state restart.
    Crash = 2,
    /// Point-to-point link partition.
    CutLink = 3,
    /// Whole-LAN outage.
    CutLan = 4,
}

impl FaultTag {
    /// Number of dimensions.
    pub const COUNT: usize = 5;

    /// Every dimension, in index order.
    pub const ALL: [FaultTag; FaultTag::COUNT] = [
        FaultTag::DropControl,
        FaultTag::DropData,
        FaultTag::Crash,
        FaultTag::CutLink,
        FaultTag::CutLan,
    ];

    /// Stable name for reports.
    pub const fn as_str(self) -> &'static str {
        match self {
            FaultTag::DropControl => "drop-ctl",
            FaultTag::DropData => "drop-data",
            FaultTag::Crash => "crash",
            FaultTag::CutLink => "cut-link",
            FaultTag::CutLan => "cut-lan",
        }
    }

    fn of(f: &Fault) -> FaultTag {
        match f {
            Fault::DropControl { .. } => FaultTag::DropControl,
            Fault::DropData { .. } => FaultTag::DropData,
            Fault::Crash { .. } => FaultTag::Crash,
            Fault::CutLink { .. } => FaultTag::CutLink,
            Fault::CutLan { .. } => FaultTag::CutLan,
        }
    }
}

/// Runs-per-cell coverage: which protocol phase each executed fault
/// was injected into, by fault dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageMatrix(pub [[u64; FaultTag::COUNT]; ProtocolPhase::COUNT]);

impl Default for CoverageMatrix {
    fn default() -> Self {
        CoverageMatrix([[0; FaultTag::COUNT]; ProtocolPhase::COUNT])
    }
}

impl CoverageMatrix {
    /// Count one executed placement.
    pub fn bump(&mut self, phase: ProtocolPhase, tag: FaultTag) {
        self.0[phase as usize][tag as usize] += 1;
    }

    /// Runs recorded for a (phase, dimension) cell.
    pub fn get(&self, phase: ProtocolPhase, tag: FaultTag) -> u64 {
        self.0[phase as usize][tag as usize]
    }

    /// Distinct protocol phases that received at least one fault.
    pub fn phases_covered(&self) -> usize {
        self.0.iter().filter(|row| row.iter().any(|&c| c > 0)).count()
    }

    /// Total placements recorded.
    pub fn total(&self) -> u64 {
        self.0.iter().flatten().sum()
    }

    /// Merge another matrix in.
    pub fn merge(&mut self, other: &CoverageMatrix) {
        for (a, b) in self.0.iter_mut().flatten().zip(other.0.iter().flatten()) {
            *a += b;
        }
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct ExploreParams {
    /// Scenario names to explore (defaults to all).
    pub scenarios: Vec<String>,
    /// Maximum schedule length (1 = single faults only).
    pub depth: usize,
    /// Total interleaving budget across all scenarios and depths.
    pub max_runs: usize,
    /// Shard count each run uses.
    pub shards: usize,
    /// World seed.
    pub seed: u64,
    /// Grid spacing for timed faults (crash/cut probes).
    pub probe_period: SimDuration,
    /// Outage duration for timed faults.
    pub fault_down: SimDuration,
    /// Cap on targeted data-frame drop placements per scenario (data
    /// frames are few and homogeneous; control frames get the budget).
    pub max_data_drops: usize,
}

impl Default for ExploreParams {
    fn default() -> Self {
        ExploreParams {
            scenarios: Scenario::names().iter().map(|s| s.to_string()).collect(),
            depth: 2,
            max_runs: 900,
            shards: 1,
            seed: 0,
            probe_period: SimDuration::from_secs(4),
            // Longer than the fast-config echo timeout (9 s): outages
            // must outlive failure detection or the §6.1 re-attachment
            // campaign (echo-wait → core-unreachable) never starts and
            // those phases would be unreachable by construction.
            fault_down: SimDuration::from_secs(12),
            max_data_drops: 24,
        }
    }
}

/// What the search produced.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct fault interleavings executed (baseline runs excluded).
    pub interleavings: u64,
    /// Distinct end-state signatures seen (baselines included).
    pub distinct_signatures: u64,
    /// Runs whose verdict was not `ok`.
    pub violating_runs: u64,
    /// Runs that failed to quiesce.
    pub quiesce_failures: u64,
    /// Minimized, deduplicated counterexamples.
    pub counterexamples: Vec<Counterexample>,
    /// Phase × dimension coverage over executed placements.
    pub coverage: CoverageMatrix,
    /// Interleavings per scenario, in scenario order.
    pub per_scenario: Vec<(String, u64)>,
    /// Merged baseline observability snapshot across scenarios.
    pub baseline_obs: ObsSnapshot,
}

/// One schedulable run for a batch runner.
#[derive(Debug, Clone)]
pub struct Job {
    /// Scenario to run.
    pub scenario: Scenario,
    /// Faults to inject.
    pub schedule: Schedule,
    /// Shard count.
    pub shards: usize,
    /// World seed.
    pub seed: u64,
}

/// Executes one job (the function batch runners map over).
pub fn run_job(job: &Job) -> RunResult {
    execute(&job.scenario, &job.schedule, job.shards, job.seed)
}

/// Runs the search sequentially.
pub fn explore(params: &ExploreParams) -> ExploreReport {
    explore_with(params, |jobs| jobs.iter().map(run_job).collect())
}

/// Runs the search with a caller-supplied batch runner (`cbt-eval`
/// passes its deterministic in-order parallel map). The runner must
/// return exactly one result per job, in input order.
pub fn explore_with(
    params: &ExploreParams,
    run_batch: impl Fn(&[Job]) -> Vec<RunResult>,
) -> ExploreReport {
    let scenarios: Vec<Scenario> = params
        .scenarios
        .iter()
        .map(|n| Scenario::by_name(n).unwrap_or_else(|| panic!("unknown scenario {n:?}")))
        .collect();

    let mut coverage = CoverageMatrix::default();
    let mut signatures = BTreeSet::new();
    let mut per_scenario = vec![0u64; scenarios.len()];
    let mut interleavings = 0u64;
    let mut violating_runs = 0u64;
    let mut quiesce_failures = 0u64;
    let mut baseline_obs = ObsSnapshot { router: "fleet".into(), ..Default::default() };
    let mut raw_violations: Vec<(usize, Schedule, Vec<String>)> = Vec::new();

    // ---- baseline profiling: one fault-free run per scenario ----
    let mut profiles = Vec::with_capacity(scenarios.len());
    for scn in &scenarios {
        let prof = profile_scenario(scn, params);
        signatures.insert(prof.baseline.signature);
        baseline_obs.merge(&prof.baseline.obs);
        if !prof.baseline.violations.is_empty() {
            raw_violations.push((profiles.len(), Schedule::none(), prof.baseline.verdict_lines()));
        }
        profiles.push(prof);
    }

    // ---- depth 1: place single faults, evenly thinned to budget ----
    // With extensions enabled, keep a third of the budget for them —
    // otherwise depth-1 placements would starve the frontier.
    let d1_budget =
        if params.depth > 1 { (params.max_runs * 2 / 3).max(1) } else { params.max_runs };
    let share = (d1_budget / scenarios.len().max(1)).max(1);
    let mut jobs = Vec::new();
    let mut labels = Vec::new(); // (scenario idx, placement idx)
    for (si, prof) in profiles.iter().enumerate() {
        for pi in thin_indices(prof.placements.len(), share) {
            let p = &prof.placements[pi];
            jobs.push(Job {
                scenario: scenarios[si].clone(),
                schedule: Schedule::single(p.fault),
                shards: params.shards,
                seed: params.seed,
            });
            labels.push((si, pi));
        }
    }
    let results = run_batch(&jobs);
    assert_eq!(results.len(), jobs.len(), "runner must return one result per job");

    let mut frontier: Vec<(usize, Schedule, usize)> = Vec::new(); // (scenario, schedule, last placement idx)
    for ((job, result), &(si, pi)) in jobs.iter().zip(&results).zip(&labels) {
        let p = &profiles[si].placements[pi];
        // Timed faults report the phase actually observed at injection
        // in this very run; frame drops keep the profiler's label.
        let phase = result.injected_phases.last().copied().flatten().unwrap_or(p.phase);
        coverage.bump(phase, FaultTag::of(&p.fault));
        per_scenario[si] += 1;
        interleavings += 1;
        signatures.insert(result.signature);
        if !result.quiesced {
            quiesce_failures += 1;
        }
        if result.violations.is_empty() {
            if result.signature != profiles[si].baseline.signature {
                frontier.push((si, job.schedule.clone(), pi));
            }
        } else {
            violating_runs += 1;
            raw_violations.push((si, job.schedule.clone(), result.verdict_lines()));
        }
    }

    // ---- depth ≥ 2: extend signature-changing schedules ----
    for _ in 2..=params.depth {
        let budget = params.max_runs.saturating_sub(interleavings as usize);
        if budget == 0 || frontier.is_empty() {
            break;
        }
        let quota = (budget / frontier.len()).max(1);
        let mut jobs = Vec::new();
        let mut labels = Vec::new();
        'fill: for (si, sched, last) in &frontier {
            // Only extend with later placements: schedules are
            // canonical ordered sets, so each combination runs once.
            // Interior spread, not prefix: with a quota of 1 a prefix
            // pick would always grab the placement *adjacent* to the
            // parent fault — same grid instant, zero sim time for the
            // first fault to bite — while interior picks land inside
            // and after the parent's outage window.
            let later = profiles[*si].placements.len().saturating_sub(last + 1);
            for off in spread_indices(later, quota) {
                if jobs.len() >= budget {
                    break 'fill;
                }
                let pi = last + 1 + off;
                jobs.push(Job {
                    scenario: scenarios[*si].clone(),
                    schedule: sched.and(profiles[*si].placements[pi].fault),
                    shards: params.shards,
                    seed: params.seed,
                });
                labels.push((*si, pi));
            }
        }
        if jobs.is_empty() {
            break;
        }
        let results = run_batch(&jobs);
        assert_eq!(results.len(), jobs.len(), "runner must return one result per job");
        let mut next_frontier = Vec::new();
        for ((job, result), &(si, pi)) in jobs.iter().zip(&results).zip(&labels) {
            let p = &profiles[si].placements[pi];
            // The extension fault is the schedule's last entry; inside
            // another fault's outage window the live sample reports
            // the phase that outage induced (echo-wait, core-
            // unreachable) — unknowable from the fault-free baseline.
            let phase = result.injected_phases.last().copied().flatten().unwrap_or(p.phase);
            coverage.bump(phase, FaultTag::of(&p.fault));
            per_scenario[si] += 1;
            interleavings += 1;
            signatures.insert(result.signature);
            if !result.quiesced {
                quiesce_failures += 1;
            }
            if result.violations.is_empty() {
                if result.signature != profiles[si].baseline.signature {
                    next_frontier.push((si, job.schedule.clone(), pi));
                }
            } else {
                violating_runs += 1;
                raw_violations.push((si, job.schedule.clone(), result.verdict_lines()));
            }
        }
        frontier = next_frontier;
    }

    // ---- minimize + dedupe violations into counterexamples ----
    let mut seen_verdicts = BTreeSet::new();
    let mut counterexamples = Vec::new();
    for (si, schedule, verdict) in raw_violations {
        if !seen_verdicts.insert((scenarios[si].name.to_string(), verdict.clone())) {
            continue;
        }
        let minimized = if schedule.faults.is_empty() {
            schedule
        } else {
            minimize(&scenarios[si], &schedule, params.shards, params.seed, &verdict)
        };
        counterexamples.push(Counterexample {
            scenario: scenarios[si].name.to_string(),
            seed: params.seed,
            shards: params.shards,
            schedule: minimized,
            verdict,
        });
    }

    ExploreReport {
        interleavings,
        distinct_signatures: signatures.len() as u64,
        violating_runs,
        quiesce_failures,
        counterexamples,
        coverage,
        per_scenario: scenarios
            .iter()
            .zip(per_scenario)
            .map(|(s, n)| (s.name.to_string(), n))
            .collect(),
        baseline_obs,
    }
}

/// Evenly spaced selection of `want` indices out of `0..len`,
/// anchored at 0.
fn thin_indices(len: usize, want: usize) -> Vec<usize> {
    if len == 0 || want == 0 {
        return Vec::new();
    }
    if want >= len {
        return (0..len).collect();
    }
    (0..want).map(|i| i * len / want).collect()
}

/// Evenly spaced selection of `want` indices out of `0..len`, interior
/// (never anchored at 0): `want = 1` picks the middle, not the first.
fn spread_indices(len: usize, want: usize) -> Vec<usize> {
    if len == 0 || want == 0 {
        return Vec::new();
    }
    if want >= len {
        return (0..len).collect();
    }
    (0..want).map(|i| (i + 1) * len / (want + 1)).collect()
}

/// One enumerated injection point, labelled with the protocol phase
/// the baseline fleet was in at that moment.
#[derive(Debug, Clone)]
struct Placement {
    fault: Fault,
    phase: ProtocolPhase,
}

struct Profile {
    baseline: RunResult,
    placements: Vec<Placement>,
}

/// Precedence when one injection point spans several (router, group)
/// phases: label with the most failure-interesting one.
pub(super) fn rank(p: ProtocolPhase) -> u8 {
    match p {
        ProtocolPhase::Idle => 0,
        ProtocolPhase::Attached => 1,
        ProtocolPhase::EchoWait => 2,
        ProtocolPhase::PendingJoin => 3,
        ProtocolPhase::CoreUnreachable => 4,
        ProtocolPhase::Teardown => 5,
    }
}

/// The protocol exchange a CBT control frame belongs to, as a phase
/// label for the drop that severs it. `None` for IGMP (labelled by
/// grid sample instead).
fn phase_of_control(kind: cbt_netsim::PacketKind) -> Option<ProtocolPhase> {
    use cbt_wire::ControlType as C;
    let cbt_netsim::PacketKind::Control(c) = kind else { return None };
    Some(match c {
        C::JoinRequest | C::JoinAck | C::JoinNack => ProtocolPhase::PendingJoin,
        C::EchoRequest | C::EchoReply => ProtocolPhase::EchoWait,
        C::QuitRequest | C::QuitAck | C::FlushTree => ProtocolPhase::Teardown,
    })
}

/// Runs the scenario fault-free with a full trace, sampling every
/// router's per-group phase on the probe grid. The sampled phases
/// label every placement; the recorded control/data frame sequence
/// numbers *are* the drop placements (trace order equals injector
/// order — both sit on the same emission path).
fn profile_scenario(scn: &Scenario, params: &ExploreParams) -> Profile {
    let mut cw = scn.build(params.shards, params.seed, &Schedule::none(), true);
    cw.world.start();

    let probe = params.probe_period;
    let quanta = (scn.horizon.micros() / probe.micros()) as usize;
    // samples[q][router][group index] = phase at time q * probe
    let mut samples: Vec<Vec<Vec<ProtocolPhase>>> = Vec::with_capacity(quanta + 1);
    for q in 0..=quanta {
        cw.world.run_until(SimTime::from_micros(q as u64 * probe.micros()));
        samples.push(sample_phases(&cw, &scn.groups));
    }
    cw.world.run_until(scn.horizon + scn.settle);
    let quiesced = super::await_quiescence(&mut cw, &scn.groups, SimDuration::from_secs(90));
    let mut violations = super::check_tree_invariants(&cw, &scn.groups);
    super::invariants::sort_violations(&mut violations);
    let baseline = RunResult {
        violations,
        signature: super::fleet_signature(&cw, &scn.groups),
        quiesced,
        obs: cw.obs_snapshot(),
        fault_stats: cw.world.fault_stats(),
        injected_phases: Vec::new(),
    };

    let phase_at = |at: SimTime, routers: &[usize]| -> ProtocolPhase {
        let q = ((at.micros() / probe.micros()) as usize).min(quanta);
        routers
            .iter()
            .flat_map(|&r| samples[q][r].iter().copied())
            .max_by_key(|&p| rank(p))
            .unwrap_or(ProtocolPhase::Idle)
    };
    let net = cw.net.clone();
    let routers_of = |from: Entity| -> Vec<usize> {
        match from {
            Entity::Router(r) => vec![r.0 as usize],
            Entity::Host(h) => {
                let lan = net.hosts[h.0 as usize].lan;
                net.lans[lan.0 as usize].routers.iter().map(|r| r.0 as usize).collect()
            }
        }
    };

    let mut placements = Vec::new();
    // Frame-drop placements from the recorded trace. A control drop is
    // labelled by the exchange it severs — dropping a JOIN_ACK is a
    // pending-join fault, dropping an ECHO_REPLY forces the echo-wait
    // window, dropping a QUIT/FLUSH interferes with teardown — which
    // is sharper than the probe grid (those phases last milliseconds,
    // far below any sane probe period). IGMP and data frames fall back
    // to the sampled grid phase.
    let mut ctl_seq = 0u64;
    let mut data_drops = Vec::new();
    let mut data_seq = 0u64;
    for e in cw.world.trace().entries() {
        if e.kind.is_control() {
            if e.at <= scn.horizon {
                let phase =
                    phase_of_control(e.kind).unwrap_or_else(|| phase_at(e.at, &routers_of(e.from)));
                placements.push(Placement { fault: Fault::DropControl { seq: ctl_seq }, phase });
            }
            ctl_seq += 1;
        } else {
            if e.at <= scn.horizon {
                data_drops.push(Placement {
                    fault: Fault::DropData { seq: data_seq },
                    phase: phase_at(e.at, &routers_of(e.from)),
                });
            }
            data_seq += 1;
        }
    }
    for i in thin_indices(data_drops.len(), params.max_data_drops) {
        placements.push(data_drops[i].clone());
    }
    // Timed placements on the probe grid (skip t=0: nothing has
    // happened yet, and a crash before the schedule starts only tests
    // the boot path over and over).
    for q in 1..=quanta {
        let at = SimTime::from_micros(q as u64 * probe.micros());
        for ri in 0..net.routers.len() {
            placements.push(Placement {
                fault: Fault::Crash { router: RouterId(ri as u32), at, down: params.fault_down },
                phase: phase_at(at, &[ri]),
            });
        }
        for li in 0..net.links.len() {
            let l = &net.links[li];
            placements.push(Placement {
                fault: Fault::CutLink { link: LinkId(li as u32), at, down: params.fault_down },
                phase: phase_at(at, &[l.a.0 as usize, l.b.0 as usize]),
            });
        }
        for si in 0..net.lans.len() {
            let routers: Vec<usize> = net.lans[si].routers.iter().map(|r| r.0 as usize).collect();
            placements.push(Placement {
                fault: Fault::CutLan { lan: LanId(si as u32), at, down: params.fault_down },
                phase: phase_at(at, &routers),
            });
        }
    }
    Profile { baseline, placements }
}

/// Every up router's phase for every group, in index order.
fn sample_phases(cw: &CbtWorld, groups: &[cbt_wire::GroupId]) -> Vec<Vec<ProtocolPhase>> {
    let now = cw.world.now();
    (0..cw.net.routers.len())
        .map(|i| {
            let r = RouterId(i as u32);
            if cw.world.failures().router_down(r) {
                return vec![ProtocolPhase::Idle; groups.len()];
            }
            match cw.world.node::<RouterNode>(Entity::Router(r)) {
                Some(node) => {
                    groups.iter().map(|&g| node.sharded().protocol_phase(g, now)).collect()
                }
                None => vec![ProtocolPhase::Idle; groups.len()],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thin_indices_selects_evenly() {
        assert_eq!(thin_indices(10, 20), (0..10).collect::<Vec<_>>());
        assert_eq!(thin_indices(10, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(thin_indices(0, 5), Vec::<usize>::new());
        assert_eq!(thin_indices(5, 0), Vec::<usize>::new());
        let t = thin_indices(1000, 3);
        assert_eq!(t.len(), 3);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn small_exploration_covers_phases_and_stays_deterministic() {
        let params = ExploreParams {
            scenarios: vec!["chain".into()],
            depth: 1,
            max_runs: 24,
            ..ExploreParams::default()
        };
        let a = explore(&params);
        assert_eq!(a.interleavings, 24);
        assert!(a.distinct_signatures >= 2, "some fault must perturb the end state");
        assert!(a.coverage.phases_covered() >= 2, "coverage: {:?}", a.coverage);
        assert_eq!(a.coverage.total(), 24);
        // Same params → identical report (the whole pipeline is
        // deterministic, including counterexample content).
        let b = explore(&params);
        assert_eq!(a.interleavings, b.interleavings);
        assert_eq!(a.distinct_signatures, b.distinct_signatures);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.counterexamples, b.counterexamples);
    }

    #[test]
    fn depth_two_extends_only_perturbing_schedules() {
        let params = ExploreParams {
            scenarios: vec!["dual-dr".into()],
            depth: 2,
            max_runs: 30,
            ..ExploreParams::default()
        };
        let report = explore(&params);
        assert!(report.interleavings as usize <= params.max_runs);
        // The dual-dr scenario has well over 15 placements, so the
        // depth-1 share (15) is fully used.
        assert!(report.interleavings >= 15);
    }
}
