//! Impl-2 — live data-plane throughput of the batched zero-copy node
//! loops.
//!
//! Drives a real tokio deployment ([`LiveNet`]) — every router and
//! host its own task, frames crossing bounded inboxes under wall-clock
//! time — through a flood workload: N concurrent senders (each a
//! non-member host on its own stub LAN, §5.1) blast packets at a
//! member group whose receivers sit two router hops away. The plane
//! drains up to `rx_batch` frames per task wakeup and fans out
//! refcounted handles ([`DataPlaneConfig`]); the wake-per-packet,
//! copy-per-recipient plane it replaced survives only as the recorded
//! rows in EXPERIMENTS.md.
//!
//! Reported per sender count: delivered packets/s (goodput at the
//! receiver), p50/p99 end-to-end latency (send-call to app delivery,
//! stamped in the payload), fabric drop counts and the deepest any
//! node's inbox got.

use crate::report::Report;
use cbt::CbtConfig;
use cbt_metrics::{table::f, Table};
use cbt_node::fabric::DataPlaneConfig;
use cbt_node::live::LiveNet;
use cbt_topology::{HostId, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::GroupId;
use serde_json::json;
use tokio::time::Duration;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Concurrent sender counts to sweep.
    pub senders: Vec<usize>,
    /// Total packets per run (split evenly across the senders).
    pub total_packets: usize,
    /// Application payload size in bytes (≥ 8; the first 8 carry the
    /// send timestamp).
    pub payload_len: usize,
    /// Independent trials per sender count; the reported row is
    /// the trial with the median goodput. Wall-clock throughput under a
    /// real scheduler is noisy; medians over independent deployments are
    /// the standard way to keep one unlucky run out of the record.
    pub trials: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params { senders: vec![1, 8, 64], total_packets: 24576, payload_len: 512, trials: 5 }
    }
}

impl Params {
    /// Smaller preset for tests/CI smoke runs. Keeps the 64-sender
    /// point — the concurrency regime batching exists for — and enough
    /// trials for a stable median.
    pub fn quick() -> Self {
        Params { senders: vec![1, 64], total_packets: 16384, payload_len: 512, trials: 5 }
    }
}

/// What one flood run measured.
#[derive(Debug, Clone, Copy)]
struct RunStats {
    sent: u64,
    received: u64,
    pkts_per_s: f64,
    p50_us: u64,
    p99_us: u64,
    fabric_dropped: u64,
    /// Deepest any node's inbox got (of `inbox_capacity`).
    inbox_high_water: usize,
}

/// Group members on the delivery LAN — the fan-out: one refcounted
/// handle per member per packet, member inboxes drained in batches.
const RECEIVERS: usize = 16;

/// A five-router chain — R0 fronts `n` stub LANs (one non-member
/// sender host each), the core sits in the middle, and [`RECEIVERS`]
/// member hosts share the delivery LAN at the far end. Every data
/// packet crosses five router tasks and then fans out to every member,
/// so the per-packet cost of the node task loops and the per-recipient
/// fan-out dominate the way they do on a real multi-hop multicast tree.
fn build_net(n: usize) -> (NetworkSpec, RouterId, Vec<HostId>, Vec<HostId>) {
    let mut b = NetworkBuilder::new();
    let r0 = b.router("R0");
    let r1 = b.router("R1");
    let core = b.router("CORE");
    let r3 = b.router("R3");
    let r4 = b.router("R4");
    b.link(r0, r1, 1);
    b.link(r1, core, 1);
    b.link(core, r3, 1);
    b.link(r3, r4, 1);
    let mut senders = Vec::with_capacity(n);
    for i in 0..n {
        let lan = b.lan(format!("TX{i}"));
        b.attach(lan, r0);
        senders.push(b.host(format!("S{i}"), lan));
    }
    let rx_lan = b.lan("RX");
    b.attach(rx_lan, r4);
    let receivers = (0..RECEIVERS).map(|i| b.host(format!("M{i}"), rx_lan)).collect();
    (b.build(), core, senders, receivers)
}

/// Floods `per_sender` packets from each of `n` senders through a live
/// deployment and measures goodput + latency at the first receiver.
fn drive(n: usize, per_sender: usize, payload_len: usize) -> RunStats {
    // Sized to the host: on multi-core machines a small worker pool
    // lets router and host tasks truly run in parallel; on a one-core
    // box extra workers are pure context-switch overhead (and measurement
    // noise), so fall back to the current-thread flavor.
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get().min(4));
    let rt = if workers > 1 {
        tokio::runtime::Builder::new_multi_thread()
            .worker_threads(workers)
            .enable_all()
            .build()
            .expect("runtime")
    } else {
        tokio::runtime::Builder::new_current_thread().enable_all().build().expect("runtime")
    };
    let stats = rt.block_on(async move {
        let (net, core_r, senders, receivers) = build_net(n);
        let core = net.router_addr(core_r);
        let group = GroupId::numbered(42);
        // §5.1: non-member senders need their D-DR to hold a
        // <core, group> mapping; supply it as managed configuration.
        let cfg = CbtConfig::fast().with_mapping(group, vec![core]);
        let live = LiveNet::spawn_with(net, cfg, DataPlaneConfig::default());

        for &r in &receivers {
            live.host_join(r, group, vec![core]);
        }
        // Wait (wall clock) until the delivery tree is up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let core_snap = live.router_snapshot(core_r, group).await.expect("core alive");
            if core_snap.on_tree && !core_snap.children.is_empty() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "tree never formed");
            tokio::time::sleep(Duration::from_millis(50)).await;
        }

        // Closed-loop burst load: each wave blasts one concurrent burst
        // from every sender, then waits for the receiver's delivery
        // count to settle before launching the next. Sizing note: every
        // sender contributes at least a 16-packet burst, so a wave is
        // ~512–1024 frames converging on R0 — deep enough that batch
        // draining and fan-out policy dominate, shallow enough that a
        // healthy plane absorbs it within its bounded inbox (a slow one
        // sheds frames, counted and reported). Throughput is delivered
        // goodput over the active drain windows only; dead time between
        // waves (our own polling) is excluded. Each payload carries its
        // send timestamp (µs since deployment epoch) in its first 8
        // bytes.
        let wave_per_sender = (512 / n).max(16);
        let wave_total = wave_per_sender * n;
        let total = n * per_sender;
        let n_waves = total.div_ceil(wave_total).max(2);
        let sent = (n_waves * wave_total) as u64;
        // Delivery count observed after each wave settled: slices the
        // delivery log per wave even when overload dropped frames.
        let mut checkpoints = Vec::with_capacity(n_waves);
        for wave in 0..n_waves {
            for &s in &senders {
                let burst: Vec<Vec<u8>> = (0..wave_per_sender)
                    .map(|_| {
                        let mut payload = vec![0u8; payload_len.max(8)];
                        payload[..8].copy_from_slice(&live.now().micros().to_le_bytes());
                        payload
                    })
                    .collect();
                live.host_send_burst(s, group, burst, 32);
            }
            // The wave is over when everything arrived, or when the
            // count stops moving (overload shed the remainder).
            let target = (wave + 1) * wave_total;
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut last_len = 0usize;
            let mut stalled = 0u32;
            let settled = loop {
                let len = live.host_received_count(receivers[0]).await.expect("receiver alive");
                if len >= target || std::time::Instant::now() >= deadline {
                    break len;
                }
                if len == last_len {
                    stalled += 1;
                    if stalled >= 50 {
                        break len;
                    }
                } else {
                    stalled = 0;
                    last_len = len;
                }
                tokio::time::sleep(Duration::from_millis(2)).await;
            };
            checkpoints.push(settled);
        }

        let got = live.host_received(receivers[0]).await.expect("receiver alive");
        let mut lat_us: Vec<u64> = Vec::with_capacity(got.len());
        let mut stamps: Vec<(u64, u64)> = Vec::with_capacity(got.len()); // (stamp, at)
        for d in &got {
            let stamp = u64::from_le_bytes(d.payload[..8].try_into().expect("stamped payload"));
            stamps.push((stamp, d.at.micros()));
            lat_us.push(d.at.micros().saturating_sub(stamp));
        }
        // Per-wave goodput: first send stamp to last delivery of the
        // wave's slice of the delivery log, scaled to the full member
        // fan-out. The run's reported rate is the *median* wave — one
        // scheduler hiccup (or the cold first wave) must not skew a
        // wall-clock measurement taken over ~25 ms windows.
        let mut wave_rates: Vec<f64> = Vec::with_capacity(checkpoints.len());
        let mut start = 0usize;
        for &end in &checkpoints {
            let w = &stamps[start..end.min(stamps.len())];
            if !w.is_empty() {
                let first = w.iter().map(|(s, _)| *s).min().unwrap_or(0);
                let last = w.iter().map(|(_, a)| *a).max().unwrap_or(0);
                let dur = last.saturating_sub(first).max(1);
                wave_rates.push(w.len() as f64 * RECEIVERS as f64 * 1.0e6 / dur as f64);
            }
            start = end.min(stamps.len());
        }
        wave_rates.sort_by(f64::total_cmp);
        let wave_rate = if wave_rates.is_empty() { 0.0 } else { wave_rates[wave_rates.len() / 2] };
        lat_us.sort_unstable();
        let pct = |p: usize| -> u64 {
            if lat_us.is_empty() {
                return 0;
            }
            lat_us[(lat_us.len() * p / 100).min(lat_us.len() - 1)]
        };
        // Aggregate multicast goodput: deliveries across every group
        // member (each sent packet should reach all RECEIVERS members).
        let mut aggregate = 0u64;
        for &r in &receivers {
            aggregate += live.host_received_count(r).await.expect("receiver alive") as u64;
        }
        let fabric = live.fabric_stats();
        live.shutdown();
        RunStats {
            sent,
            received: aggregate,
            pkts_per_s: wave_rate,
            p50_us: pct(50),
            p99_us: pct(99),
            fabric_dropped: fabric.dropped_overflow,
            inbox_high_water: fabric.inbox_high_water,
        }
    });
    drop(rt);
    stats
}

/// Runs `trials` independent deployments and returns the one with the
/// median goodput.
fn drive_median(n: usize, per_sender: usize, payload_len: usize, trials: usize) -> RunStats {
    let mut runs: Vec<RunStats> =
        (0..trials.max(1)).map(|_| drive(n, per_sender, payload_len)).collect();
    runs.sort_by(|a, b| a.pkts_per_s.total_cmp(&b.pkts_per_s));
    runs[runs.len() / 2]
}

/// Runs the experiment.
pub fn run(p: &Params) -> Report {
    let mut report = Report::new("Impl-2", "live data plane: batched zero-copy goodput");
    let mut table = Table::new([
        "senders",
        "sent",
        "deliveries",
        "deliveries/s",
        "p50 µs",
        "p99 µs",
        "dropped",
        "inbox high-water",
    ]);
    let mut rows_json = Vec::new();
    let mut fig =
        cbt_metrics::BarChart::new("Figure Impl-2: delivered goodput vs senders".to_string())
            .unit("deliveries/s");

    for &n in &p.senders {
        let per_sender = (p.total_packets / n).max(1);
        let s = drive_median(n, per_sender, p.payload_len, p.trials);
        table.row([
            n.to_string(),
            s.sent.to_string(),
            s.received.to_string(),
            f(s.pkts_per_s),
            s.p50_us.to_string(),
            s.p99_us.to_string(),
            s.fabric_dropped.to_string(),
            s.inbox_high_water.to_string(),
        ]);
        rows_json.push(json!({
            "senders": n,
            "sent": s.sent,
            "delivered": s.received,
            "pkts_per_s": s.pkts_per_s,
            "p50_us": s.p50_us,
            "p99_us": s.p99_us,
            "dropped_overflow": s.fabric_dropped,
            "inbox_high_water": s.inbox_high_water,
        }));
        fig.bar(format!("N={n}"), s.pkts_per_s);
    }

    report.table(
        format!(
            "delivered goodput and end-to-end latency, {} packets of {} B per run",
            p.total_packets, p.payload_len
        ),
        table,
    );
    report.chart(fig);
    report.json = json!({
        "params": {
            "senders": p.senders,
            "total_packets": p.total_packets,
            "payload_len": p.payload_len,
            "trials": p.trials,
        },
        "rows": rows_json,
    });
    report.finding(
        "One tokio task per router and host, the same engine as the simulator. Each task takes up \
         to rx_batch frames out of its inbox under one lock per wakeup and flushes its outbox \
         once per batch, a run of same-destination frames at a time; LAN fan-out hands every \
         member a refcounted handle to one allocation, which a payload of RX_COPYBREAK bytes or \
         more is delivered as a slice of; bounded inboxes shed and count what a receiver cannot \
         absorb.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plane delivers the flood end-to-end and the report carries
    /// one row per sender count.
    #[test]
    fn plane_delivers_and_reports_one_row_per_sender_count() {
        let p = Params { senders: vec![2], total_packets: 64, payload_len: 64, trials: 1 };
        let r = run(&p);
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["senders"], 2);
        assert!(rows[0]["delivered"].as_u64().unwrap() > 0, "delivered nothing");
        assert!(rows[0]["pkts_per_s"].as_f64().unwrap() > 0.0);
    }
}
