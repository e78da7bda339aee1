//! Impl-1 — timer service scaling: deadline heap vs full-state scan.
//!
//! The engine's legacy timer path recomputes `next_wakeup` and walks
//! every FIB entry, pending join, LAN and deferral on *every* wakeup:
//! O(groups) per tick. The deadline heap keys each deadline once, so a
//! wakeup costs O(entries actually due · log n). This experiment drives one
//! leaf router to N group memberships (staggered so echo deadlines
//! spread over the whole §9 echo interval), then measures the wall cost
//! of the `next_wakeup` + `on_timer` pair over a multi-interval window.
//! Both modes are driven through the identical deterministic schedule —
//! same wakeups, same actions — so the only variable is the timer
//! service itself.

use crate::report::Report;
use cbt::{CbtConfig, CbtRouter, RouteLookup};
use cbt_metrics::{table::f, Table};
use cbt_netsim::{SimDuration, SimTime};
use cbt_routing::Hop;
use cbt_topology::{HostId, IfIndex, NetworkBuilder, NetworkSpec};
use cbt_wire::{AckSubcode, Addr, ControlMessage, GroupId, IgmpMessage};
use serde_json::json;
use std::collections::BTreeMap;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Group counts to sweep.
    pub sizes: Vec<usize>,
    /// Seconds of timer activity to measure once all joins settle.
    pub measure_secs: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params { sizes: vec![100, 1000, 10_000], measure_secs: 120 }
    }
}

impl Params {
    /// Small preset for tests/benches.
    pub fn quick() -> Self {
        Params { sizes: vec![100, 1000], measure_secs: 60 }
    }
}

/// Scripted unicast routing: dst → hop. Mirrors the engine's test
/// harness (which is `cfg(test)`-gated and not exported).
struct ScriptRoutes(BTreeMap<Addr, Hop>);

impl RouteLookup for ScriptRoutes {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        self.0.get(&dst).copied()
    }
}

/// What one driven run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunStats {
    /// `next_wakeup` + `on_timer` invocations inside the window.
    wakeups: u64,
    /// Wall nanoseconds spent inside those invocations.
    timer_ns: u128,
    /// Actions the timer path emitted inside the window.
    timer_actions: u64,
}

/// Structural fingerprint (everything except wall time) — must be
/// identical across modes or the comparison is meaningless.
fn shape(s: &RunStats) -> (u64, u64) {
    (s.wakeups, s.timer_actions)
}

/// Drives one leaf router to `n` memberships and measures the timer
/// path. ME sits on a stub LAN (if0) with one host and a p2p link (if1)
/// to UP, which plays both unicast next hop and tree parent: it acks
/// every join and answers every echo, so ME holds `n` FIB entries with
/// a live parent — the state the per-tick scan pays for.
fn drive(n: usize, deadline_service: bool, measure_secs: u64) -> RunStats {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, up, 1);
    let net: NetworkSpec = b.build();

    let core = net.router_addr(up);
    let host = net.host_addr(HostId(0));
    let lan_if = IfIndex(0);
    let up_if = IfIndex(1);
    let up_peer = Addr::from_octets(172, 31, 0, 2);
    let routes = ScriptRoutes(
        [(core, Hop { iface: up_if, router: up, addr: up_peer, dist: 1 })].into_iter().collect(),
    );

    let cfg = CbtConfig { timer_wheel: deadline_service, ..CbtConfig::default() };
    let echo_us = cfg.echo_interval.micros();
    let mut eng = CbtRouter::new(&net, me, cfg, Box::new(routes), SimTime::ZERO);

    // Stagger the n joins across one full echo interval so per-group
    // echo deadlines spread out instead of piling onto one instant.
    let mut joins: Vec<(SimTime, GroupId)> = (0..n)
        .map(|i| {
            let t = SimTime::from_micros(1_000_000 + (i as u64 * echo_us) / n as u64);
            (t, GroupId::numbered(i as u16))
        })
        .collect();
    joins.reverse(); // pop() yields earliest first

    let measure_start = SimTime::from_micros(1_000_000 + echo_us);
    let measure_end = measure_start + SimDuration::from_secs(measure_secs);
    let mut stats = RunStats { wakeups: 0, timer_ns: 0, timer_actions: 0 };

    // UP's half of the conversation: ack joins, answer echoes. Neither
    // is timed — only the timer path under test is.
    let respond = |eng: &mut CbtRouter, now: SimTime, acts: &[cbt::RouterAction]| {
        for a in acts {
            let cbt::RouterAction::SendControl { iface, msg, .. } = a else { continue };
            if *iface != up_if {
                continue;
            }
            match msg {
                ControlMessage::JoinRequest { group, origin, target_core, cores, .. } => {
                    let ack = ControlMessage::JoinAck {
                        subcode: AckSubcode::Normal,
                        group: *group,
                        origin: *origin,
                        target_core: *target_core,
                        cores: cores.clone(),
                    };
                    eng.handle_control(now, up_if, up_peer, ack);
                }
                ControlMessage::EchoRequest { group, group_mask, .. } => {
                    let reply = ControlMessage::EchoReply {
                        group: *group,
                        origin: up_peer,
                        group_mask: *group_mask,
                    };
                    eng.handle_control(now, up_if, up_peer, reply);
                }
                _ => {}
            }
        }
    };

    loop {
        let next_join = joins.last().map(|(t, _)| *t);
        let next_timer = eng.next_wakeup();
        let now = match (next_join, next_timer) {
            (Some(j), Some(t)) => j.min(t),
            (Some(j), None) => j,
            (None, Some(t)) => t,
            (None, None) => break,
        };
        if now > measure_end {
            break;
        }
        // Timers first at ties, then the join input — the same policy
        // for both modes, so their schedules stay aligned.
        if next_timer.is_some_and(|t| t <= now) {
            let in_window = now >= measure_start;
            let t0 = std::time::Instant::now();
            // The pair the simulator pays per wakeup: the reschedule
            // peek plus the due-work dispatch.
            let _ = eng.next_wakeup();
            let acts = eng.on_timer(now);
            let dt = t0.elapsed().as_nanos();
            if in_window {
                stats.wakeups += 1;
                stats.timer_ns += dt;
                stats.timer_actions += acts.len() as u64;
            }
            respond(&mut eng, now, &acts);
        } else {
            let (t, group) = joins.pop().expect("join input due");
            eng.learn_cores(group, &[core]);
            let acts = eng.handle_igmp(t, lan_if, host, IgmpMessage::Report { version: 2, group });
            respond(&mut eng, t, &acts);
        }
    }
    assert_eq!(eng.fib().len(), n, "all {n} groups must be on-tree with a live parent");
    stats
}

/// Runs the experiment.
pub fn run(p: &Params) -> Report {
    let mut report =
        Report::new("Impl-1", "timer service: deadline heap vs per-tick full-state scan");
    let mut table =
        Table::new(["groups", "mode", "wakeups", "timer ms", "µs/wakeup", "timer events/s"]);
    let mut rows_json = Vec::new();
    let mut per_size = Vec::new();

    for &n in &p.sizes {
        let heap = drive(n, true, p.measure_secs);
        let scan = drive(n, false, p.measure_secs);
        assert_eq!(shape(&heap), shape(&scan), "n={n}: modes must replay the identical schedule");
        let mut us_per_wakeup = [0.0f64; 2];
        for (slot, (mode, s)) in [("heap", &heap), ("scan", &scan)].iter().enumerate() {
            let ms = s.timer_ns as f64 / 1.0e6;
            let us =
                if s.wakeups == 0 { 0.0 } else { s.timer_ns as f64 / 1.0e3 / s.wakeups as f64 };
            let eps = if ms == 0.0 { 0.0 } else { s.timer_actions as f64 / (ms / 1.0e3) };
            us_per_wakeup[slot] = us;
            table.row([
                n.to_string(),
                mode.to_string(),
                s.wakeups.to_string(),
                f(ms),
                f(us),
                f(eps),
            ]);
            rows_json.push(json!({
                "groups": n,
                "mode": mode,
                "wakeups": s.wakeups,
                "timer_wall_ms": ms,
                "us_per_wakeup": us,
                "timer_actions": s.timer_actions,
                "events_per_s": eps,
            }));
        }
        per_size.push((n, us_per_wakeup[0], us_per_wakeup[1]));
    }

    report.table(
        format!(
            "per-wakeup timer cost, {}s window after joins settle (leaf router, live parent)",
            p.measure_secs
        ),
        table,
    );
    let mut fig =
        cbt_metrics::BarChart::new("Figure Impl-1: µs per timer wakeup vs group count".to_string())
            .unit(" µs");
    for (n, heap_us, scan_us) in &per_size {
        fig.bar(format!("heap  G={n}"), *heap_us);
        fig.bar(format!("scan  G={n}"), *scan_us);
    }
    report.chart(fig);
    report.json = json!({
        "params": {"sizes": p.sizes, "measure_secs": p.measure_secs},
        "rows": rows_json,
    });
    report.finding(
        "Both timer services replay the identical wakeup schedule (equal wakeup and action \
         counts — the determinism suite proves bit-identity), but the scan path pays O(groups) \
         per wakeup while the heap pays only for entries actually due: its per-wakeup cost \
         stays near-flat from 100 to 10k groups where the scan's grows linearly.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_replay_the_same_schedule() {
        let heap = drive(64, true, 40);
        let scan = drive(64, false, 40);
        assert_eq!(shape(&heap), shape(&scan));
        // A 40s window past a 30s echo interval must see echo traffic.
        assert!(heap.timer_actions as usize >= 64, "echoes fired: {heap:?}");
    }

    #[test]
    fn report_has_rows_for_both_modes_per_size() {
        let r = run(&Params { sizes: vec![32, 96], measure_secs: 35 });
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for n in [32u64, 96] {
            for mode in ["heap", "scan"] {
                assert!(
                    rows.iter().any(|r| r["groups"] == n && r["mode"] == mode),
                    "missing row {n}/{mode}"
                );
            }
        }
        // The schedule scales with group count.
        let w = |n: u64| {
            rows.iter()
                .find(|r| r["groups"] == n && r["mode"] == "heap")
                .and_then(|r| r["wakeups"].as_u64())
                .unwrap()
        };
        assert!(w(96) > w(32), "more groups ⇒ more echo wakeups");
    }
}
