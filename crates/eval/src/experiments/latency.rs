//! S93-T4 — join latency: time from the host's IGMP report to the DR's
//! tree-joined notification, measured on the packet simulator.
//!
//! Two effects the -03 draft emphasises: (a) latency is one round-trip
//! along the unicast path to the core — it grows with hop distance —
//! and (b) a join that hits an *existing* branch terminates early
//! ("if a join hits a CBT router that is already on-tree, the join is
//! not propagated further"), so later members of a popular group join
//! faster than the first.

use crate::report::Report;
use crate::simrun::SimSetup;
use crate::workload::Workload;
use cbt::CbtConfig;
use cbt_metrics::{table::f, Summary, Table};
use cbt_netsim::{SimDuration, SimTime};
use cbt_topology::{generate, AllPairs};
use serde_json::json;
use std::collections::BTreeMap;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Topology size.
    pub n: usize,
    /// Members joining (sequentially).
    pub group_size: usize,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
}

impl Default for Params {
    fn default() -> Self {
        Params { n: 50, group_size: 16, seeds: vec![0, 1, 2, 3, 4] }
    }
}

impl Params {
    /// Small preset for tests/benches.
    pub fn quick() -> Self {
        Params { n: 20, group_size: 6, seeds: vec![2] }
    }
}

/// Runs the experiment.
pub fn run(p: &Params) -> Report {
    let mut report = Report::new("S93-T4", "join latency vs distance to core / to the tree");
    let mut by_distance: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut first_vs_later: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());

    // One full simulation per seed, run in parallel; each trial
    // returns its raw samples and the merge below happens in seed
    // order, so the aggregate is independent of worker count.
    let trials = crate::parallel::run_trials(&p.seeds, |&seed| {
        let graph = generate::waxman(generate::WaxmanParams { n: p.n, ..Default::default() }, seed);
        let ap = AllPairs::compute(&graph);
        let mut wl = Workload::new(&graph, seed.wrapping_add(7000));
        let members = wl.members(p.group_size);
        let core = ap.medoid(&members).expect("connected");
        let mut setup = SimSetup::from_graph(graph, CbtConfig::fast(), &[core]);
        // Join strictly one at a time, far apart, so each join's
        // latency is clean.
        let schedule =
            setup.join_members(&members, SimTime::from_secs(1), SimDuration::from_secs(2));
        setup.cw.world.start();
        setup.cw.world.run_until(SimTime::from_secs(2 * p.group_size as u64 + 5));

        let mut samples: Vec<(u64, f64)> = Vec::new();
        let mut first: Vec<f64> = Vec::new();
        let mut later: Vec<f64> = Vec::new();
        for (idx, (m, joined_at)) in schedule.iter().enumerate() {
            let h = setup.host_of(*m);
            let Some((heard_at, ..)) = setup.cw.host(h).tree_joined_events().first().copied()
            else {
                continue; // member router was itself the core: no event needed
            };
            let latency_ms = (heard_at - *joined_at).as_millis_f64();
            let dist = ap.dist(*m, core).expect("connected");
            samples.push((dist, latency_ms));
            // Normalise by the distance to the core so "first vs later"
            // compares the *per-hop* price: a later joiner's join
            // terminates at the nearest on-tree router, so it pays for
            // fewer hops than its full distance to the core.
            if dist > 0 {
                let per_hop = latency_ms / dist as f64;
                if idx == 0 {
                    first.push(per_hop);
                } else {
                    later.push(per_hop);
                }
            }
        }
        (samples, first, later, setup.cw.obs_snapshot())
    });
    let mut fleet = cbt_obs::ObsSnapshot { router: "fleet".into(), ..Default::default() };
    for (samples, first, later, obs) in trials {
        for (dist, latency_ms) in samples {
            by_distance.entry(dist).or_default().push(latency_ms);
        }
        first_vs_later.0.extend(first);
        first_vs_later.1.extend(later);
        fleet.merge(&obs);
    }

    let mut table = Table::new(["hops to core", "joins", "mean ms", "p95 ms", "max ms"]);
    let mut rows_json = Vec::new();
    for (dist, samples) in &by_distance {
        let s = Summary::of(samples);
        table.row([dist.to_string(), s.n.to_string(), f(s.mean), f(s.p95), f(s.max)]);
        rows_json.push(json!({"hops": dist, "n": s.n, "mean_ms": s.mean, "max_ms": s.max}));
    }
    report.table(format!("join latency by distance, Waxman n={}", p.n), table);

    let first = Summary::of(&first_vs_later.0);
    let later = Summary::of(&first_vs_later.1);
    let mut t2 = Table::new(["joiner", "joins", "mean ms per hop-to-core"]);
    t2.row(["first member".to_string(), first.n.to_string(), f(first.mean)]);
    t2.row(["later members".to_string(), later.n.to_string(), f(later.mean)]);
    report.table("first joiner vs later joiners (on-tree termination)", t2);

    report.json = json!({
        "params": {"n": p.n, "group_size": p.group_size, "seeds": p.seeds.len()},
        "by_distance": rows_json,
        "first_per_hop_ms": first.mean,
        "later_per_hop_ms": later.mean,
    });
    report.attach_obs(&fleet);
    report.finding(
        "Join latency is one control round-trip along the unicast path (grows with hop count); \
         later joiners terminate at the nearest on-tree router and attach faster than the \
         group's first member.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_measured_and_ordered() {
        let r = run(&Params::quick());
        let rows = r.json["by_distance"].as_array().unwrap();
        assert!(!rows.is_empty(), "some joins measured");
        for row in rows {
            let mean = row["mean_ms"].as_f64().unwrap();
            assert!(mean > 0.0, "non-zero latency");
            assert!(mean < 5_000.0, "well under any retransmission timer: {mean}");
        }
    }

    #[test]
    fn later_joiners_pay_less_per_hop() {
        let r = run(&Params::quick());
        let first = r.json["first_per_hop_ms"].as_f64().unwrap();
        let later = r.json["later_per_hop_ms"].as_f64().unwrap();
        assert!(
            later <= first * 1.25 + 0.5,
            "on-tree termination keeps later joins cheap per hop: first {first}, later {later}"
        );
    }
}
