//! The metric registry — the single list `BENCHMARK.json` mirrors — and
//! the result one workload run hands back.

use std::collections::BTreeMap;
use Better::{Higher, Lower};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub const fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric row.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fleet_churn",
        "control plane at netscale: 9888 live engines, fault-free Poisson/diurnal churn + flash crowd; rib only read, data plane idle",
    ),
    (
        "fleet_faults",
        "same fleet under link flaps and crash/cold restarts: rib written, frames dropped, echo-timeout reattach and restart paths run",
    ),
    (
        "lan_sim_flood",
        "data plane at the smallest packet size in the full-fidelity World: event loop, LAN fan-out, forward path, data codec",
    ),
    (
        "live_flood",
        "deployable tokio runtime (in-process fabric + task loops + same engine) under wall-clock time; no simulator layer runs",
    ),
];

/// End-to-end metrics. Every workload reports every one of them; what
/// an "operation" is per workload is spelled out in `README.md`.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("latency_ms", "ms", Lower, 0.20),
    e2e("frames_per_op", "frames", Lower, 0.10),
    e2e("rss_peak_mb", "MB", Lower, 0.05),
];

/// Per-layer metrics (traced run). Layer = crate or module name.
pub const PER_LAYER: &[MetricDef] = &[
    // netsim — both event worlds.
    layer("netsim.ns_events", "count", Lower),
    layer("netsim.ns_frames", "count", Lower),
    layer("netsim.ns_self_ns_per_event", "ns", Lower),
    layer("netsim.ns_dropped_link_down", "count", Lower),
    layer("netsim.ns_dropped_node_down", "count", Lower),
    layer("netsim.world_transmissions", "count", Lower),
    layer("netsim.world_self_ns_per_tx", "ns", Lower),
    layer("netsim.delivery_delay_p50_ms", "ms", Lower),
    layer("netsim.delivery_delay_tail_ms", "ms", Lower),
    // netscale — the P2pNode adapter and the fleet rib.
    layer("netscale.on_frame_calls", "count", Lower),
    layer("netscale.on_frame_ns_per_call", "ns", Lower),
    layer("netscale.on_timer_calls", "count", Lower),
    layer("netscale.on_timer_ns_per_call", "ns", Lower),
    layer("netscale.inject_ns_per_op", "ns", Lower),
    layer("netscale.rib_lookups", "count", Lower),
    layer("netscale.rib_lookup_ns", "ns", Lower),
    layer("netscale.rib_lookup_misses", "count", Lower),
    layer("netscale.rib_build_ms", "ms", Lower),
    layer("netscale.fleet_build_ms", "ms", Lower),
    layer("netscale.rib_repair_ms_per_fault", "ms", Lower),
    layer("netscale.decode_errors", "count", Lower),
    layer("netscale.encode_errors", "count", Lower),
    layer("netscale.dropped_non_control", "count", Lower),
    // topology — generators and SPF.
    layer("topology.gen_ms", "ms", Lower),
    layer("topology.spf_full_ms_per_tree", "ms", Lower),
    layer("topology.spf_repair_us_per_event", "us", Lower),
    layer("topology.spf_repair_nodes_touched", "count", Lower),
    // wire — codec replay probes over captured frames.
    layer("wire.ctrl_decode_ns_per_msg", "ns", Lower),
    layer("wire.ctrl_encode_ns_per_msg", "ns", Lower),
    layer("wire.ctrl_bytes_per_frame", "B", Lower),
    layer("wire.data_decode_ns_per_pkt", "ns", Lower),
    layer("wire.data_encode_ns_per_pkt", "ns", Lower),
    // core — the engine.
    layer("core.ctrl_sent.join_request", "count", Lower),
    layer("core.ctrl_sent.join_ack", "count", Lower),
    layer("core.ctrl_sent.join_nack", "count", Lower),
    layer("core.ctrl_sent.quit_request", "count", Lower),
    layer("core.ctrl_sent.quit_ack", "count", Lower),
    layer("core.ctrl_sent.echo_request", "count", Lower),
    layer("core.ctrl_sent.echo_reply", "count", Lower),
    layer("core.ctrl_sent.flush_tree", "count", Lower),
    layer("core.keepalive_share", "ratio", Lower),
    layer("core.rejoin_kicks", "count", Lower),
    layer("core.join_rtt_log2_p99_ms", "ms", Lower),
    layer("core.reattach_mean_s", "s", Lower),
    layer("core.reattach_p50_s", "s", Lower),
    layer("core.reattach_tail_s", "s", Lower),
    layer("core.severed_members", "count", Higher),
    layer("core.fib_entries_peak", "count", Lower),
    layer("core.busy_routers_peak", "count", Lower),
    layer("core.timer_lag_log2_p99_us", "us", Lower),
    layer("core.router_on_packet_ns_per_call", "ns", Lower),
    layer("core.fwd_native_ns_per_pkt", "ns", Lower),
    layer("core.fwd_cbt_ns_per_pkt", "ns", Lower),
    layer("core.fwd_sharded_ns_per_pkt", "ns", Lower),
    layer("core.fwd_allocs_per_pkt", "count", Lower),
    // host — IGMP hosts and the delivery log (full-fidelity sim).
    layer("host.on_packet_ns_per_call", "ns", Lower),
    // node — the live runtime.
    layer("node.fabric_delivered", "count", Lower),
    layer("node.dropped_overflow", "count", Lower),
    layer("node.frames_per_delivery", "frames", Lower),
    layer("node.delivery_latency_p50_us", "us", Lower),
    layer("node.delivery_latency_tail_us", "us", Lower),
    layer("node.wave_round_tail_ms", "ms", Lower),
    layer("node.join_wall_ms", "ms", Lower),
    // obs / eval — harvest and input generation.
    layer("obs.fleet_merge_ms", "ms", Lower),
    layer("eval.membership_gen_ms", "ms", Lower),
    // proc — memory and allocation.
    layer("proc.rss_idle_mb", "MB", Lower),
    layer("proc.rss_after_drive_mb", "MB", Lower),
    layer("proc.bytes_per_idle_router", "B", Lower),
    layer("proc.bytes_per_busy_router", "B", Lower),
    layer("proc.allocs_per_event", "count", Lower),
    // bench — the harness itself, and the trace's own bookkeeping.
    layer("bench.ops_per_s_total", "1/s", Higher),
    layer("bench.driver_self_share", "ratio", Lower),
    layer("bench.sessions_excluded", "count", Lower),
    layer("trace.self_time_closure_error", "ratio", Lower),
    layer("trace.traced_wall_s", "s", Lower),
    layer("trace.spans_dumped", "count", Lower),
];

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Did every output check hold? (Failed operations are reported in
    /// `failed`; this is about the harness's own cross-checks.)
    pub correct: bool,
    /// Why `correct` is false, or remarks worth printing.
    pub notes: Vec<String>,
    /// Metric values by name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Counts and sim-time figures that must repeat exactly for one
    /// `(workload, seed, seconds)` — what the determinism tests and
    /// the traced-equals-untraced check compare.
    pub exact: BTreeMap<&'static str, u64>,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, v);
    }

    /// Records a cross-check failure.
    pub fn fault(&mut self, note: impl Into<String>) {
        self.correct = false;
        self.notes.push(note.into());
    }

    /// The value of a metric, 0 when the workload does not produce it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}
