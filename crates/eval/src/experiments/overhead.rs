//! S93-T3 — control overhead: explicit-join CBT vs data-driven
//! flood-and-prune.
//!
//! CBT's claim: control traffic is proportional to *membership changes*
//! (a join/ack pair per new branch hop, a quit per teardown, echoes per
//! tree edge), while flood-and-prune pays a topology-wide flood per
//! (source, group) and re-pays it every prune lifetime.
//!
//! The CBT numbers are **measured** from the packet-level simulator's
//! trace; the DVMRP numbers are measured from the message-accounted
//! flood-and-prune baseline, with its steady-state term derived from
//! the classic ~2-minute prune lifetime (documented substitution).

use crate::report::Report;
use crate::simrun::SimSetup;
use crate::workload::Workload;
use cbt::CbtConfig;
use cbt_baselines::flood_and_prune;
use cbt_metrics::{table::f, Table};
use cbt_netsim::{SimDuration, SimTime};
use cbt_topology::generate;
use serde_json::json;

/// Prune lifetime used to amortise DVMRP's periodic re-flood (seconds).
pub const PRUNE_LIFETIME_S: f64 = 120.0;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Topology size.
    pub n: usize,
    /// Group sizes to sweep.
    pub group_sizes: Vec<usize>,
    /// Number of active senders (for the DVMRP per-source costs).
    pub senders: usize,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Steady-state observation window (simulated).
    pub window: SimDuration,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 50,
            group_sizes: vec![4, 8, 16, 32],
            senders: 4,
            seeds: vec![0, 1, 2],
            window: SimDuration::from_secs(60),
        }
    }
}

impl Params {
    /// Small preset for tests/benches. `n` is kept large enough that
    /// a topology-wide flood visibly dwarfs a 4-member join — at very
    /// small n the two costs are within noise of each other and the
    /// comparison says nothing.
    pub fn quick() -> Self {
        Params {
            n: 25,
            group_sizes: vec![4, 8],
            senders: 2,
            seeds: vec![0],
            window: SimDuration::from_secs(30),
        }
    }
}

/// Runs the experiment.
pub fn run(p: &Params) -> Report {
    let mut report = Report::new("S93-T3", "control overhead: explicit join vs flood-and-prune");
    let mut table = Table::new([
        "group size",
        "cbt setup msgs",
        "cbt steady msgs/min",
        "dvmrp setup msgs",
        "dvmrp steady msgs/min",
    ]);
    let mut rows_json = Vec::new();
    let mut fleet = cbt_obs::ObsSnapshot { router: "fleet".into(), ..Default::default() };

    for &m in &p.group_sizes {
        if m > p.n {
            continue;
        }
        let mut cbt_setup = 0.0;
        let mut cbt_steady = 0.0;
        let mut dv_setup = 0.0;
        let mut dv_steady = 0.0;
        // One trial per seed, fanned out; summed below in seed order.
        let trials = crate::parallel::run_trials(&p.seeds, |&seed| {
            // --- CBT, measured on the packet simulator. ---
            let graph =
                generate::waxman(generate::WaxmanParams { n: p.n, ..Default::default() }, seed);
            let mut wl = Workload::new(&graph, seed.wrapping_add(6000));
            let members = wl.members(m);
            let senders = wl.senders_from(&members, p.senders);
            let core = cbt_topology::AllPairs::compute(&graph).medoid(&members).expect("connected");
            let mut setup = SimSetup::from_graph(graph.clone(), CbtConfig::fast(), &[core]);
            setup.join_members(&members, SimTime::from_secs(1), SimDuration::from_millis(100));
            setup.cw.world.start();
            // Setup phase: everything until all members are attached
            // (bounded at 10 s fast-timer time).
            let settle = SimTime::from_secs(10);
            setup.cw.world.run_until(settle);
            // Count CBT control frames only: IGMP is common to every
            // multicast scheme and would double-charge CBT here.
            let setup_msgs = setup.cw.world.trace().cbt_control_frames() as f64;
            // Steady phase: echoes over the window.
            setup.cw.world.run_for(p.window);
            let total_msgs = setup.cw.world.trace().cbt_control_frames() as f64;
            let per_min = (total_msgs - setup_msgs) * 60.0 / p.window.as_secs_f64();
            // --- DVMRP, measured on the message-accounted baseline. ---
            let mut cycle_msgs = 0u64;
            let distinct: std::collections::BTreeSet<_> = senders.iter().copied().collect();
            for src in distinct {
                let out = flood_and_prune(&graph, src, &members);
                cycle_msgs += out.total_messages();
            }
            (setup_msgs, per_min, cycle_msgs as f64, setup.cw.obs_snapshot())
        });
        for (setup_msgs, per_min, cycle_msgs, obs) in trials {
            fleet.merge(&obs);
            // CbtConfig::fast() compresses timers 10×, so a real
            // deployment sends 10× fewer steady-state messages.
            cbt_setup += setup_msgs;
            cbt_steady += per_min / 10.0;
            dv_setup += cycle_msgs;
            dv_steady += cycle_msgs * 60.0 / PRUNE_LIFETIME_S;
        }
        let k = p.seeds.len() as f64;
        table.row([
            m.to_string(),
            f(cbt_setup / k),
            f(cbt_steady / k),
            f(dv_setup / k),
            f(dv_steady / k),
        ]);
        rows_json.push(json!({
            "group_size": m,
            "cbt_setup": cbt_setup / k,
            "cbt_steady_per_min": cbt_steady / k,
            "dvmrp_setup": dv_setup / k,
            "dvmrp_steady_per_min": dv_steady / k,
        }));
    }

    report.table(
        format!(
            "control messages, Waxman n={}, {} senders (DVMRP prune lifetime {}s)",
            p.n, p.senders, PRUNE_LIFETIME_S
        ),
        table,
    );
    report.json = json!({
        "params": {"n": p.n, "group_sizes": p.group_sizes, "senders": p.senders},
        "rows": rows_json,
    });
    report.attach_obs(&fleet);
    report.finding(
        "CBT setup cost tracks membership (a join/ack pair per new tree hop); flood-and-prune \
         setup tracks the whole topology times the sender count, and repeats every prune \
         lifetime. CBT's steady state is the per-edge echo heartbeat.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbt_setup_cheaper_than_dvmrp_on_sparse_groups() {
        let r = run(&Params::quick());
        let rows = r.json["rows"].as_array().unwrap();
        let first = &rows[0]; // smallest group
        assert!(
            first["cbt_setup"].as_f64().unwrap() < first["dvmrp_setup"].as_f64().unwrap(),
            "explicit join must beat topology-wide flooding for sparse groups: {first:?}"
        );
    }

    /// The embedded counter snapshot follows the exporter schema: all
    /// six drop reasons present (zeros included), traffic counters and
    /// both latency histograms alongside.
    #[test]
    fn obs_snapshot_covers_all_drop_reasons() {
        let r = run(&Params::quick());
        let drops = r.obs["drops"].as_object().expect("obs.drops object");
        for reason in [
            "TtlExpired",
            "NoFibEntry",
            "InboxOverflow",
            "ChecksumBad",
            "DecodeError",
            "ScopeBoundary",
        ] {
            assert!(drops.contains_key(reason), "missing drop reason {reason}");
        }
        assert!(
            r.obs["join_rtt_us"]["count"].as_u64().unwrap() > 0,
            "join round-trips were recorded"
        );
        assert!(r.obs["data_forwarded"].as_u64().is_some());
        assert!(r.obs["timer_lag_us"]["count"].as_u64().is_some());
    }

    #[test]
    fn overhead_grows_with_membership_for_cbt_only() {
        let r = run(&Params::quick());
        let rows = r.json["rows"].as_array().unwrap();
        if rows.len() >= 2 {
            let a = rows[0]["cbt_setup"].as_f64().unwrap();
            let b = rows[rows.len() - 1]["cbt_setup"].as_f64().unwrap();
            assert!(b >= a, "more members, more joins");
        }
    }
}
