//! Runs one workload, untraced or traced, and turns what the trace
//! and the probes saw into per-layer metrics.

use crate::metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use crate::trace::{self, Span, Tracer};
use crate::wrap::{self, Traced, RIB_MISSES};
use crate::{fleet, lan_flood, live_flood, probes, proc};
use cbt::P2pNode;
use std::path::PathBuf;
use std::sync::atomic::Ordering;

/// Where span dumps and result files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Is `name` one of the four workloads?
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

fn per(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// Folds the tracer's unsampled totals into per-layer metrics.
fn apply_trace(out: &mut Outcome, t: &Tracer, faults: u64) {
    let tot = |s: Span| t.total(s);
    let ns_self =
        tot(Span::NsRun).self_ns + tot(Span::NsInject).self_ns + tot(Span::NsLiveness).self_ns;
    if out.get("netsim.ns_events") > 0.0 {
        out.set("netsim.ns_self_ns_per_event", ns_self as f64 / out.get("netsim.ns_events"));
        let f = tot(Span::P2pOnFrame);
        out.set("netscale.on_frame_calls", f.calls as f64);
        out.set("netscale.on_frame_ns_per_call", per(f.self_ns, f.calls));
        let tm = tot(Span::P2pOnTimer);
        out.set("netscale.on_timer_calls", tm.calls as f64);
        out.set("netscale.on_timer_ns_per_call", per(tm.self_ns, tm.calls));
        let inj = tot(Span::P2pInject);
        out.set("netscale.inject_ns_per_op", per(inj.self_ns, inj.calls));
        let rib = tot(Span::RibLookup);
        out.set("netscale.rib_lookups", rib.calls as f64);
        out.set("netscale.rib_lookup_ns", per(rib.total_ns, rib.calls));
        out.set("netscale.rib_lookup_misses", RIB_MISSES.load(Ordering::Relaxed) as f64);
        if faults > 0 {
            out.set(
                "netscale.rib_repair_ms_per_fault",
                tot(Span::RibRepair).total_ns as f64 / 1e6 / faults as f64,
            );
        }
    }
    if out.get("netsim.world_transmissions") > 0.0 {
        out.set(
            "netsim.world_self_ns_per_tx",
            tot(Span::WorldRun).self_ns as f64 / out.get("netsim.world_transmissions"),
        );
        let r = tot(Span::RouterOnPacket);
        out.set("core.router_on_packet_ns_per_call", per(r.self_ns, r.calls));
        let h = tot(Span::HostOnPacket);
        out.set("host.on_packet_ns_per_call", per(h.self_ns, h.calls));
    }
    let phase = tot(Span::Phase);
    let driver = phase.self_ns + tot(Span::HarnessPoll).self_ns + tot(Span::LiveWave).self_ns;
    out.set("bench.driver_self_share", driver as f64 / phase.total_ns.max(1) as f64);
    out.set("trace.self_time_closure_error", t.closure_error());
    out.set("trace.traced_wall_s", phase.total_ns as f64 / 1e9);
    out.set("trace.spans_dumped", t.records().len() as f64);
    // The ISSUE's closure criterion: layer self times within 5 % of
    // the traced wall.
    if t.closure_error() > 0.05 {
        out.fault(format!(
            "layer self times miss the traced wall by {:.1} %",
            t.closure_error() * 100.0
        ));
    }
}

/// Runs `workload` once. A traced run swaps in the wrappers, records
/// spans, replays the probes and writes
/// `benchmark/out/<workload>.spans.jsonl`.
pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Outcome {
    if traced {
        proc::count_allocs(true);
        RIB_MISSES.store(0, Ordering::Relaxed);
    }
    let mut out = match (workload, traced) {
        ("fleet_churn", false) => fleet::run::<P2pNode>(seed, seconds, false),
        ("fleet_churn", true) => fleet::run::<Traced<P2pNode>>(seed, seconds, false),
        ("fleet_faults", false) => fleet::run::<P2pNode>(seed, seconds, true),
        ("fleet_faults", true) => fleet::run::<Traced<P2pNode>>(seed, seconds, true),
        ("lan_sim_flood", _) => lan_flood::run(seed, seconds, traced),
        ("live_flood", _) => live_flood::run(seed, seconds, traced),
        _ => panic!("unknown workload {workload}"),
    };
    let Some(tracer) = trace::finish() else { return out };

    let faults = out.exact.get("faults").copied().unwrap_or(0);
    apply_trace(&mut out, &tracer, faults);
    let frames = wrap::take_captured();
    match workload {
        "fleet_churn" | "fleet_faults" => {
            let (dec, enc) = probes::ctrl_codec(&frames);
            out.set("wire.ctrl_decode_ns_per_msg", dec);
            out.set("wire.ctrl_encode_ns_per_msg", enc);
            if workload == "fleet_faults" {
                let input = fleet::FleetInput::generate(seed, seconds, true);
                let (us, touched, bad) =
                    probes::spf_repair(input.n, &input.edge_list, &input.cores, &input.faults);
                out.set("topology.spf_repair_us_per_event", us);
                out.set("topology.spf_repair_nodes_touched", touched as f64);
                if bad > 0 {
                    out.fault(format!("{bad} repaired SPF trees differ from a from-scratch SPF"));
                }
            }
        }
        "lan_sim_flood" => {
            let (dec, enc) = probes::data_codec(&frames);
            out.set("wire.data_decode_ns_per_pkt", dec);
            out.set("wire.data_encode_ns_per_pkt", enc);
        }
        _ => {}
    }
    if matches!(workload, "lan_sim_flood" | "live_flood") {
        let payload =
            if workload == "live_flood" { live_flood::PAYLOAD } else { lan_flood::PAYLOAD };
        let f = probes::forward(payload);
        out.set("core.fwd_native_ns_per_pkt", f.native_ns);
        out.set("core.fwd_cbt_ns_per_pkt", f.cbt_ns);
        out.set("core.fwd_sharded_ns_per_pkt", f.sharded_ns);
        out.set("core.fwd_allocs_per_pkt", f.allocs_per_pkt);
    }
    proc::count_allocs(false);

    let dir = out_dir();
    let dumped = std::fs::create_dir_all(&dir).and_then(|()| {
        let file = std::fs::File::create(dir.join(format!("{workload}.spans.jsonl")))?;
        let mut w = std::io::BufWriter::new(file);
        tracer.dump(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    if let Err(e) = dumped {
        out.fault(format!("could not write the span dump: {e}"));
    }
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The one JSON object the driver reads: `correct`, `attempted`,
/// `failed`, and the end-to-end (untraced) or per-layer (traced)
/// metrics, every digit as measured.
pub fn driver_json(out: &Outcome, traced: bool) -> String {
    let defs: &[_] = if traced { PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(out.get(m.name)),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Everything a run produced, for the full run's cross-checks and for
/// `compare`: one JSON object on one line.
pub fn record_json(workload: &str, seed: u64, seconds: u64, traced: bool, out: &Outcome) -> String {
    let values: Vec<String> =
        out.values.iter().map(|(k, v)| format!("\"{k}\": {}", json_num(*v))).collect();
    let exact: Vec<String> = out.exact.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('\\', "/").replace('"', "'")))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"wall_s\": {}, \"values\": {{{}}}, \
         \"exact\": {{{}}}, \"notes\": [{}]}}",
        traced as u8,
        out.correct,
        out.attempted,
        out.failed,
        json_num(out.wall_s),
        values.join(", "),
        exact.join(", "),
        notes.join(", ")
    )
}
