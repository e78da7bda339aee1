//! Abl-2 — single vs multiple cores under primary-core failure.
//!
//! With one core, killing it strands the group: FIB entries through the
//! dead core linger until echo timeouts tear them down, and no re-join
//! can succeed. With a secondary core in the §1 ordered list, §6.1's
//! re-attachment steers orphaned routers to the alternate and service
//! resumes within the echo-timeout + rejoin budget.
//!
//! Recovery is judged by the honest signal — end-to-end probe delivery
//! between two member hosts — not by FIB presence (stale entries look
//! "attached" until the keepalives notice).

use crate::report::Report;
use crate::simrun::SimSetup;
use crate::workload::Workload;
use cbt::CbtConfig;
use cbt_metrics::{table::f, Table};
use cbt_netsim::{SimDuration, SimTime};
use cbt_topology::{generate, AllPairs, CsrGraph, RouterId, SpfScratch, SpfTree};
use serde_json::json;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Topology size.
    pub n: usize,
    /// Group size.
    pub group_size: usize,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
}

impl Default for Params {
    fn default() -> Self {
        Params { n: 40, group_size: 10, seeds: vec![0, 1, 2] }
    }
}

impl Params {
    /// Small preset for tests/benches.
    pub fn quick() -> Self {
        Params { n: 20, group_size: 6, seeds: vec![0] }
    }
}

/// One scenario's outcome.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    /// Probe delivered to every member before the kill (sanity).
    worked_before: bool,
    /// Seconds (simulated) from the kill until a probe reached **all**
    /// members again; `None` if full service never resumed. (CBT trees
    /// are bidirectional, so same-branch pairs keep working for a while
    /// even with the core dead — full-group delivery is the honest
    /// recovery criterion.)
    recovery_s: Option<u64>,
    /// Members reached by a final probe sent long after the kill — for
    /// a single core this collapses to zero once teardown cascades.
    late_delivery: usize,
}

/// Is every node of `must_reach` still mutually connected after
/// deleting `removed` from `g`?
fn connected_without(
    g: &cbt_topology::Graph,
    removed: cbt_topology::NodeId,
    must_reach: &[cbt_topology::NodeId],
) -> bool {
    let Some(&start) = must_reach.first() else { return true };
    let mut csr = CsrGraph::from_graph(g);
    csr.set_node_up(removed.0, false);
    let sp = SpfTree::full(&csr, start.0, &mut SpfScratch::new());
    must_reach.iter().all(|m| sp.dist(m.0).is_some())
}

fn scenario(n: usize, group_size: usize, seed: u64, core_count: usize) -> Outcome {
    let graph = generate::waxman(generate::WaxmanParams { n, ..Default::default() }, seed);
    let ap = AllPairs::compute(&graph);
    let mut wl = Workload::new(&graph, seed.wrapping_add(8000));
    let members = wl.members(group_size);
    let center = ap.center().expect("connected");
    // The primary must not be a cut vertex separating the members from
    // the rest — otherwise "recovery" is physically impossible and the
    // run measures the topology, not the protocol. Prefer the members'
    // medoid; fall back to the next-most-central survivable choice.
    let mut candidates: Vec<_> = graph.nodes().filter(|c| !members.contains(c)).collect();
    candidates.sort_by_key(|c| {
        members.iter().map(|m| ap.dist(*c, *m).unwrap_or(u64::MAX / 2)).sum::<u64>()
    });
    let primary = candidates
        .iter()
        .copied()
        .find(|c| {
            let mut reach = members.clone();
            let sec = if center != *c { center } else { cbt_topology::NodeId(1) };
            reach.push(sec);
            connected_without(&graph, *c, &reach)
        })
        .expect("some survivable primary exists");
    let secondary = if center != primary { center } else { wl.random_core() };
    let cores: Vec<_> = match core_count {
        1 => vec![primary],
        _ => vec![primary, secondary],
    };

    let mut setup = SimSetup::from_graph(graph, CbtConfig::fast(), &cores);
    let members: Vec<_> =
        members.into_iter().filter(|m| *m != primary && *m != secondary).collect();
    setup.join_members(&members, SimTime::from_secs(1), SimDuration::from_millis(100));
    let sender = setup.host_of(members[0]);
    let listeners: Vec<_> = members[1..].iter().map(|m| setup.host_of(*m)).collect();
    setup.cw.world.start();
    setup.cw.world.run_until(SimTime::from_secs(8));

    // One probe transmission; returns how many listeners heard it.
    let probe = |setup: &mut SimSetup, tag: String, wait: SimDuration| -> usize {
        let baselines: Vec<usize> =
            listeners.iter().map(|h| setup.cw.host(*h).received().len()).collect();
        let t = setup.cw.world.now();
        setup.cw.host(sender).send_at(t, setup.group, tag.into_bytes(), 64);
        setup.cw.touch_host(sender);
        let deadline = setup.cw.world.now() + wait;
        setup.cw.world.run_until(deadline);
        listeners
            .iter()
            .zip(&baselines)
            .filter(|(h, base)| setup.cw.host(**h).received().len() > **base)
            .count()
    };

    let worked_before =
        probe(&mut setup, "pre".into(), SimDuration::from_secs(2)) == listeners.len();

    // Kill the primary; probe every 2 s of simulated time. (The tree
    // below the dead core keeps delivering for a while — bidirectional
    // shared trees don't need the root for intra-subtree traffic — so
    // "recovered" is only credited when delivery is also *sustained*
    // past every teardown timer, i.e. the late probe still reaches
    // everyone.)
    setup.cw.fail_router(RouterId(primary.0));
    let mut recovery_s = None;
    for round in 1..=20u64 {
        let reached = probe(&mut setup, format!("p{round}"), SimDuration::from_secs(2));
        if reached == listeners.len() && recovery_s.is_none() {
            recovery_s = Some(2 * round);
        }
        if round >= 10 && recovery_s.is_some() {
            break;
        }
    }
    // Late probe well after every teardown timer has run its course.
    let settle = setup.cw.world.now() + SimDuration::from_secs(20);
    setup.cw.world.run_until(settle);
    let late_delivery = probe(&mut setup, "late".into(), SimDuration::from_secs(2));
    if late_delivery != listeners.len() {
        recovery_s = None; // transient delivery only: not a recovery
    }
    Outcome { worked_before, recovery_s, late_delivery }
}

/// Runs the ablation.
pub fn run(p: &Params) -> Report {
    let mut report = Report::new("Abl-2", "primary-core failure: one core vs two");
    let mut table = Table::new([
        "cores",
        "pre-kill delivery",
        "full service recovered",
        "mean recovery s (sim)",
        "late-probe reach",
    ]);
    let mut rows_json = Vec::new();

    for core_count in [1usize, 2] {
        let mut worked_before = 0usize;
        let mut recoveries = Vec::new();
        let mut late_total = 0usize;
        // One full failover scenario per seed, fanned out; merged in
        // seed order.
        let trials = crate::parallel::run_trials(&p.seeds, |&seed| {
            scenario(p.n, p.group_size, seed, core_count)
        });
        for o in trials {
            worked_before += o.worked_before as usize;
            late_total += o.late_delivery;
            if let Some(t) = o.recovery_s {
                recoveries.push(t as f64);
            }
        }
        let mean_rec = if recoveries.is_empty() {
            None
        } else {
            Some(recoveries.iter().sum::<f64>() / recoveries.len() as f64)
        };
        table.row([
            core_count.to_string(),
            format!("{worked_before}/{}", p.seeds.len()),
            format!("{}/{}", recoveries.len(), p.seeds.len()),
            mean_rec.map(f).unwrap_or_else(|| "never".into()),
            late_total.to_string(),
        ]);
        rows_json.push(json!({
            "cores": core_count,
            "worked_before": worked_before,
            "recovered_runs": recoveries.len(),
            "runs": p.seeds.len(),
            "mean_recovery_s": mean_rec,
            "late_delivery": late_total,
        }));
    }

    report.table(
        format!(
            "failover (probe-delivery criterion), Waxman n={}, group size {}, fast timers",
            p.n, p.group_size
        ),
        table,
    );
    report.json = json!({
        "params": {"n": p.n, "group_size": p.group_size, "seeds": p.seeds.len()},
        "rows": rows_json,
    });
    report.finding(
        "With a single core its failure ends service permanently — stale FIB entries linger \
         until echo timeouts but no re-join can succeed. A secondary core in the ordered list \
         restores end-to-end delivery within the echo-timeout (9 s fast) + rejoin budget.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cores_recover_one_does_not() {
        let r = run(&Params::quick());
        let rows = r.json["rows"].as_array().unwrap();
        let one = &rows[0];
        let two = &rows[1];
        assert_eq!(one["worked_before"], one["runs"], "pre-kill delivery worked");
        assert_eq!(
            one["recovered_runs"].as_u64().unwrap(),
            0,
            "single core: full service never resumes: {one:?}"
        );
        assert_eq!(
            one["late_delivery"].as_u64().unwrap(),
            0,
            "single core: teardown cascades end even partial delivery: {one:?}"
        );
        assert_eq!(
            two["recovered_runs"], two["runs"],
            "dual core: every run recovered fully: {two:?}"
        );
        assert!(two["mean_recovery_s"].as_f64().unwrap() <= 30.0);
    }
}
