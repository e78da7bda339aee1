//! Impl-5 — netscale protocol simulation: *live* CBT engines at
//! 10k–100k routers in one process.
//!
//! Impl-4 (netscale) measured the '93 axes analytically, walking
//! cached SPF trees; the protocol machines themselves only ran on
//! figure-sized netsim topologies. This experiment closes that gap:
//! every router in the fleet is a real [`cbt::CbtRouter`] (sharded
//! front, compact-idle footprint) living in a
//! [`cbt_netsim::NetscaleWorld`] slot, exchanging real JOIN / ACK /
//! ECHO / QUIT control frames over the CSR delivery plan.
//!
//! 1. **validate** — at ~1k routers, drive a fixed membership set
//!    through real joins, settle, and hard-assert the engine-built
//!    tree (parent/child FIB edges) is edge-identical to the analytic
//!    `TreeWalk` over the same [`cbt_topology::SpfTree`]s; then tear every member
//!    down and assert the fleet returns to silence (zero FIB entries,
//!    zero armed timers, zero decode errors fleet-wide);
//! 2. **instantiate** the preset fleet (quick ≈ 10k, full ≈ 100k) of
//!    compact-idle engines on the CSR arena, reporting the per-router
//!    idle footprint straight from RSS;
//! 3. **drive** the Poisson/diurnal/flash-crowd session stream from
//!    `cbt_eval::membership` through real join/leave control traffic,
//!    sampling aggregate engine state across the horizon;
//! 4. **report** the cbt-obs join-RTT histogram, control frames/sec
//!    per link, events/s, joins/s and RSS.
//!
//! The fleet is single-core-per-group (cores spread over the transit
//! routers, learned by the member before it joins), so every engine
//! route lookup resolves through the shared [`cbt::FleetRib`].
//!
//! Standing the fleet up, the membership ledger and the teardown
//! asserts live in [`crate::fleet::Fleet`]; this module is the script
//! and the report tables.

use super::netscale::TreeWalk;
use crate::fleet::{rss_bytes, Fleet, Sample, TOPO_100K, TOPO_10K, TOPO_1K};
use crate::membership::XorShift;
use crate::report::Report;
use cbt_metrics::{table::f, Table};
use cbt_obs::{ObsSnapshot, ProtocolCounters};
use cbt_topology::generate::TransitStubParams;
use serde_json::json;
use std::collections::BTreeMap;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Transit-stub topology shape for the scale stage.
    pub topo: TransitStubParams,
    /// Number of multicast groups (one core each, spread over transit).
    pub groups: usize,
    /// Member-session arrivals over the horizon.
    pub arrivals: usize,
    /// Mean membership holding time (seconds, simulated).
    pub hold_s: f64,
    /// Simulated horizon (seconds); also the diurnal day length.
    pub horizon_s: f64,
    /// Flash-crowd joins on top of the background churn.
    pub flash_joins: usize,
    /// Engine-state samples across the horizon.
    pub samples: usize,
    /// Topology for the ~1k-router equivalence gate.
    pub equiv_topo: TransitStubParams,
    /// Members drawn per group in the equivalence gate.
    pub equiv_members: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            topo: TOPO_100K,
            groups: 32,
            arrivals: 200_000,
            hold_s: 120.0,
            horizon_s: 600.0,
            flash_joins: 20_000,
            samples: 6,
            equiv_topo: TOPO_1K,
            equiv_members: 48,
            seed: 9393,
        }
    }
}

impl Params {
    /// ~10k-engine preset for the CI smoke run (equivalence gate stays
    /// at ~1k).
    pub fn quick() -> Self {
        Params {
            topo: TOPO_10K,
            groups: 16,
            arrivals: 20_000,
            hold_s: 60.0,
            horizon_s: 300.0,
            flash_joins: 2_000,
            samples: 4,
            ..Default::default()
        }
    }

    /// Tiny preset for the in-crate unit tests (runs in debug builds).
    #[cfg(test)]
    fn tiny() -> Self {
        use crate::fleet::TOPO_TINY;
        Params {
            topo: TOPO_TINY,
            groups: 4,
            arrivals: 600,
            hold_s: 20.0,
            horizon_s: 60.0,
            flash_joins: 60,
            samples: 2,
            equiv_topo: TOPO_TINY,
            equiv_members: 8,
            seed: 9393,
        }
    }
}

/// What the ~1k-router equivalence gate measured (every protocol
/// property it checks is hard-asserted inside; reaching the summary
/// means the fleet passed).
pub struct EquivSummary {
    /// Fleet size.
    pub routers: usize,
    /// Groups exercised.
    pub groups: usize,
    /// Distinct members joined across all groups.
    pub members: usize,
    /// Tree edges built by the engines (== analytic walk, asserted).
    pub tree_edges: u64,
    /// Control frames on the wire when the built trees were checked.
    pub join_frames: u64,
    /// Control frames after full teardown.
    pub total_frames: u64,
    /// Instant (µs) the built trees were compared.
    pub settle_us: u64,
    /// Instant (µs) of the last event before fleet-wide silence.
    pub silent_us: u64,
    /// The engines' control rows at the end, merged ([`Fleet::harvest`]).
    pub ctl: ProtocolCounters,
    /// The world's group table at the end.
    pub group_rows: BTreeMap<u32, ProtocolCounters>,
}

/// The equivalence gate: real joins must build exactly the tree the
/// analytic walk predicts, and real leaves must tear it all back down.
///
/// `shards` overrides the engine shard count (`None` keeps the
/// `CBT_SHARDS` default), letting the determinism test drive the same
/// fleet across differently-sharded engines.
pub fn equivalence(
    topo: TransitStubParams,
    groups: usize,
    members_per_group: usize,
    shards: Option<usize>,
    seed: u64,
) -> EquivSummary {
    let mut fleet = Fleet::new(topo, groups, shards, seed);
    let members = fleet.join_staggered(&mut XorShift::new(seed ^ 0x5ca1_ab1e), members_per_group);
    // Worst-case join retrace is a handful of link RTTs; two seconds
    // also covers a pending-join retransmission if one were needed.
    fleet.run_until_us(fleet.now_us() + 2_000_000);
    let settle_us = fleet.now_us();
    let join_frames = fleet.trace().frames;

    // The hard assert: engine FIB edges == the analytic tree walk,
    // group by group.
    let mut walker = TreeWalk::new(fleet.routers());
    let mut tree_edges = 0u64;
    for (gi, mem) in members.iter().enumerate() {
        let mut span = walker.span(&fleet.spf_tree(gi), mem).edges;
        span.sort_unstable();
        assert_eq!(fleet.engine_tree(gi), span, "group {gi}: engine tree != analytic walk");
        tree_edges += span.len() as u64;
    }

    let silent_us = fleet.teardown_to_silence(30_000_000);
    let ObsSnapshot { ctl, groups: group_rows, .. } = fleet.harvest().obs;
    EquivSummary {
        routers: fleet.routers(),
        groups: fleet.groups(),
        members: members.iter().map(Vec::len).sum(),
        tree_edges,
        join_frames,
        total_frames: fleet.trace().frames,
        settle_us,
        silent_us,
        ctl,
        group_rows,
    }
}

/// Runs the experiment.
pub fn run(p: &Params) -> Report {
    let mut report =
        Report::new("Impl-5", "netscale protocol simulation: live CBT engines at 10k-100k routers");
    let n = p.topo.total_nodes();
    let transit = p.topo.transit_nodes();
    let groups = p.groups.min(transit);

    // --- Phase 1: the ~1k equivalence gate (hard asserts inside). ---
    let t0 = std::time::Instant::now();
    let eq = equivalence(
        p.equiv_topo,
        groups.min(p.equiv_topo.transit_nodes()),
        p.equiv_members,
        None,
        p.seed,
    );
    let equiv_ms = t0.elapsed().as_secs_f64() * 1e3;

    // --- Phase 2: instantiate the fleet, RSS-audited. ---
    let mut fleet = Fleet::new(p.topo, groups, None, p.seed);
    let marks = fleet.marks();
    let (rss0, rss_idle, build_ms) = (marks.rss_routed, marks.rss_built, marks.engines_ms);
    let idle_per_router = rss_idle.saturating_sub(rss0) / n as u64;
    let census_idle = fleet.census();

    // --- Phase 3: drive the session stream through real control
    // traffic. Membership transitions (0→1 joins, 1→0 leaves) hit the
    // engines; everything after that — forwarding, acks, keepalives,
    // quits — is the protocol's own doing.
    let mut samples: Vec<Sample> = Vec::new();
    let sample_gap_us = (p.horizon_s * 1e6) as u64 / p.samples as u64;
    let mut next_sample = sample_gap_us;
    let t0 = std::time::Instant::now();
    for ev in fleet.churn(p.horizon_s, p.arrivals, p.hold_s, Some(p.flash_joins), p.seed) {
        while ev.time_us() >= next_sample {
            fleet.run_until_us(next_sample);
            samples.push(fleet.sample());
            next_sample += sample_gap_us;
        }
        fleet.run_until_us(ev.time_us());
        fleet.apply(ev);
    }
    while samples.len() < p.samples {
        fleet.run_until_us(next_sample);
        samples.push(fleet.sample());
        next_sample += sample_gap_us;
    }
    let drive_s = t0.elapsed().as_secs_f64();
    let rss_end = rss_bytes();
    let census_end = fleet.census();

    // --- Phase 4: harvest. ---
    let harvest = fleet.harvest();
    let (total_joins, peak_concurrent) = (fleet.tally().sessions, fleet.tally().peak_concurrent);
    let rtt = &harvest.obs.join_rtt_us;
    let trace = fleet.trace();
    let links = fleet.links();
    let frames = trace.frames;
    let mean_link_per_s = frames as f64 / links.max(1) as f64 / p.horizon_s;
    let busiest_link_per_s = fleet.busiest_link_frames() as f64 / p.horizon_s;
    let peak = samples.iter().max_by_key(|s| s.fib_entries);
    let peak_state = peak.map(|s| s.fib_entries).unwrap_or(0);
    let peak_busy = peak.map(|s| s.busy_routers).unwrap_or(0);
    let joins_per_s = total_joins as f64 / drive_s.max(1e-9);
    let events_per_s = trace.events as f64 / drive_s.max(1e-9);

    // --- Report. ---
    let mut eqt = Table::new([
        "routers",
        "groups",
        "members",
        "tree edges",
        "join frames",
        "total frames",
        "silent at (s)",
    ]);
    eqt.row([
        eq.routers.to_string(),
        eq.groups.to_string(),
        eq.members.to_string(),
        eq.tree_edges.to_string(),
        eq.join_frames.to_string(),
        eq.total_frames.to_string(),
        f(eq.silent_us as f64 / 1e6),
    ]);
    report.table(
        "equivalence gate: engine-built trees hard-asserted edge-identical to the analytic \
         walk, then torn down to fleet-wide silence (zero state, zero timers)",
        eqt,
    );

    let mut fleet = Table::new(["routers", "links", "build ms", "idle RSS MB", "idle B/router"]);
    fleet.row([
        n.to_string(),
        links.to_string(),
        f(build_ms),
        f(rss_idle.saturating_sub(rss0) as f64 / 1e6),
        idle_per_router.to_string(),
    ]);
    report.table(
        format!(
            "fleet instantiation: transit-stub {}×{} transit, {}×{} stubs; every router a \
             live compact-idle engine",
            p.topo.transit_domains,
            p.topo.transit_size,
            p.topo.stubs_per_transit_node,
            p.topo.stub_size
        ),
        fleet,
    );

    let mut mtable = Table::new(["t (s)", "concurrent", "fib entries", "busy routers", "frames"]);
    for s in &samples {
        mtable.row([
            f(s.t_us as f64 / 1e6),
            s.concurrent.to_string(),
            s.fib_entries.to_string(),
            s.busy_routers.to_string(),
            s.frames.to_string(),
        ]);
    }
    report.table(
        format!(
            "engine state across the horizon ({} join-sessions, diurnal + hotspots + flash \
             crowd; peak {} concurrent members)",
            total_joins, peak_concurrent
        ),
        mtable,
    );

    let mut thr = Table::new([
        "sim events",
        "frames",
        "events/s",
        "joins/s",
        "rtt p50 ms",
        "rtt p99 ms",
        "link mean f/s",
        "link max f/s",
    ]);
    thr.row([
        trace.events.to_string(),
        frames.to_string(),
        f(events_per_s),
        f(joins_per_s),
        f(rtt.quantile(0.50) as f64 / 1e3),
        f(rtt.quantile(0.99) as f64 / 1e3),
        f(mean_link_per_s),
        f(busiest_link_per_s),
    ]);
    report.table(
        format!(
            "throughput and protocol latency ({} joins driven in {:.1}s wall; control rates \
             are per simulated second)",
            total_joins, drive_s
        ),
        thr,
    );

    report.json = json!({
        "params": {
            "routers": n,
            "groups": groups,
            "arrivals": p.arrivals,
            "hold_s": p.hold_s,
            "horizon_s": p.horizon_s,
            "flash_joins": p.flash_joins,
            "seed": p.seed,
        },
        "equivalence": {
            "routers": eq.routers,
            "groups": eq.groups,
            "members": eq.members,
            "tree_edges": eq.tree_edges,
            "join_frames": eq.join_frames,
            "total_frames": eq.total_frames,
            "settle_us": eq.settle_us,
            "silent_us": eq.silent_us,
            "wall_ms": equiv_ms,
        },
        "fleet": {
            "routers": n,
            "links": links,
            "build_ms": build_ms,
            "rss_idle_bytes": rss_idle.saturating_sub(rss0),
            "idle_bytes_per_router": idle_per_router,
        },
        "drive": {
            "total_joins": total_joins,
            "peak_concurrent": peak_concurrent,
            "peak_fib_entries": peak_state,
            "peak_busy_routers": peak_busy,
            "frames": frames,
            "bytes": trace.bytes,
            "sim_events": trace.events,
            "wall_s": drive_s,
            "joins_per_s": joins_per_s,
            "events_per_s": events_per_s,
            "link_mean_frames_per_s": mean_link_per_s,
            "link_max_frames_per_s": busiest_link_per_s,
            "decode_errors": harvest.decode_errors,
            "encode_errors": harvest.encode_errors,
            "dropped_non_control": harvest.dropped_non_control,
            "samples": samples.iter().map(|s| json!({
                "t_s": s.t_us as f64 / 1e6,
                "concurrent": s.concurrent,
                "fib_entries": s.fib_entries,
                "busy_routers": s.busy_routers,
                "frames": s.frames,
            })).collect::<Vec<_>>(),
        },
        "join_rtt_us": {
            "count": rtt.count(),
            "mean": rtt.mean(),
            "p50": rtt.quantile(0.50),
            "p99": rtt.quantile(0.99),
            "max": rtt.max(),
        },
        "rss_bytes": {
            "baseline": rss0,
            "idle_fleet": rss_idle,
            "after_drive": rss_end,
        },
        "census": {
            "engine_slot_bytes": size_of::<cbt::P2pNode>(),
            "idle_fleet": census_json(&census_idle),
            "after_drive": census_json(&census_end),
        },
    });
    harvest.attach(&mut report);
    report.finding(format!(
        "{} live protocol engines in one process: {} idle bytes/router RSS, {} join-sessions \
         of real control traffic driven at {:.0} joins/s and {:.0} events/s wall, join RTT \
         p50 {:.1} ms / p99 {:.1} ms, busiest link {:.1} control frames/s — with the \
         engine-built trees hard-asserted edge-identical to the analytic walk at {} routers \
         and full teardown back to fleet-wide silence.",
        n,
        idle_per_router,
        total_joins,
        joins_per_s,
        events_per_s,
        rtt.quantile(0.50) as f64 / 1e3,
        rtt.quantile(0.99) as f64 / 1e3,
        busiest_link_per_s,
        eq.routers,
    ));
    report
}

/// A fleet census as JSON: heap bytes per store and their total.
fn census_json(c: &cbt::Census) -> serde_json::Value {
    let mut rows = serde_json::Map::new();
    for (name, bytes) in c.rows() {
        rows.insert(name.to_string(), json!(bytes));
    }
    json!({ "rows": serde_json::Value::Object(rows), "total": c.total() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_builds_real_trees_and_reports_every_axis() {
        let p = Params::tiny();
        let r = run(&p);
        let j = &r.json;
        assert_eq!(j["params"]["routers"].as_u64().unwrap(), 104);
        // The equivalence gate ran (its asserts would have aborted on
        // any engine/analytic divergence) and built real trees.
        assert!(j["equivalence"]["tree_edges"].as_u64().unwrap() > 0);
        // Real joins flowed: RTTs were recorded and engines held state.
        assert!(j["join_rtt_us"]["count"].as_u64().unwrap() > 0);
        assert!(j["drive"]["peak_fib_entries"].as_u64().unwrap() > 0);
        assert!(j["drive"]["frames"].as_u64().unwrap() > 0);
        assert_eq!(j["drive"]["decode_errors"].as_u64().unwrap(), 0);
        assert!(!r.findings.is_empty());
    }

    #[test]
    fn equivalence_outcome_is_shard_invariant() {
        let p = Params::tiny();
        let a = equivalence(p.equiv_topo, p.groups, p.equiv_members, Some(1), p.seed);
        let b = equivalence(p.equiv_topo, p.groups, p.equiv_members, Some(2), p.seed);
        // Group-space sharding must not change a single observable:
        // same trees (asserted inside), same frame counts, same
        // settle/silence instants.
        assert_eq!(a.tree_edges, b.tree_edges);
        assert_eq!(a.join_frames, b.join_frames);
        assert_eq!(a.total_frames, b.total_frames);
        assert_eq!(a.silent_us, b.silent_us);
    }
}
