//! `live_flood`: the deployable runtime — `cbt-node`'s in-process
//! fabric, one tokio task per router and host, the same engine — under
//! wall-clock time. No simulator layer runs.
//!
//! The `dataplane` experiment's five-router chain: eight §5.1
//! non-member senders on stub LANs behind R0, the core in the middle,
//! a 16-member LAN behind R4; 256-byte payloads. **Closed loop**: every
//! sender bursts 32 packets, and the next wave is released when
//! receiver 0 is within half a wave of everything sent. Current-thread
//! runtime — on a shared 2-core box a 2-worker runtime measures the
//! scheduler.
//!
//! A host's delivery log only grows, so the fixed input is split over
//! [`SEGMENTS`] fresh deployments, one after another: peak memory is
//! one segment's log, and `setup_s` is the lower quartile of the
//! segments' spawn-to-first-delivery times.

use crate::metrics::Outcome;
use crate::payload;
use crate::proc::{mb, rss_peak_bytes};
use crate::rng::{Digest, XorShift};
use crate::stats;
use crate::trace::{self, Span};
use cbt::CbtConfig;
use cbt_node::fabric::DataPlaneConfig;
use cbt_node::live::LiveNet;
use cbt_topology::{HostId, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::GroupId;
use std::time::{Duration, Instant};

/// Non-member sender hosts.
pub const SENDERS: usize = 8;
/// Member hosts on the delivery LAN.
pub const RECEIVERS: usize = 16;
/// Packets per sender per wave.
pub const BURST: usize = 32;
/// Application payload bytes ([`payload`] header + padding).
pub const PAYLOAD: usize = 256;
/// Fresh deployments per run.
pub const SEGMENTS: usize = 8;
/// Waves per requested wall second (all segments together): sizes the
/// fixed input so the measured phases last about `--seconds` on the
/// 2-core reference box.
pub const WAVES_PER_S: u64 = 400;
/// Waves per rate window: long enough (~60 ms) that the 250 µs poll
/// cadence does not quantise the rate.
const WINDOW_WAVES: usize = 16;
/// Sequence number of the warm-up packet, outside the accounting.
const WARMUP_SEQ: u32 = u32::MAX;

fn build_net() -> (NetworkSpec, RouterId, Vec<HostId>, Vec<HostId>) {
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
    let senders = (0..SENDERS)
        .map(|i| {
            let lan = b.lan(format!("TX{i}"));
            b.attach(lan, r0);
            b.host(format!("S{i}"), lan)
        })
        .collect();
    let rx_lan = b.lan("RX");
    b.attach(rx_lan, r4);
    let receivers = (0..RECEIVERS).map(|i| b.host(format!("M{i}"), rx_lan)).collect();
    (b.build(), core, senders, receivers)
}

/// What one deployment measured.
#[derive(Default)]
struct Segment {
    setup_s: f64,
    join_wall_ms: f64,
    wall_s: f64,
    /// Release-to-release period of each wave (µs).
    wave_us: Vec<u64>,
    /// Delivery rate over windows of [`WINDOW_WAVES`] waves.
    windows: stats::RateWindows,
    latency_us: Vec<u64>,
    expected: u64,
    delivered: u64,
    missing: u64,
    duplicates: u64,
    fabric_delivered: u64,
    dropped_overflow: u64,
    notes: Vec<String>,
}

/// Polls `cond` every 250 µs until it holds or `limit` passes.
async fn wait_until(limit: Duration, mut cond: impl AsyncFnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        if cond().await {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        tokio::time::sleep(Duration::from_micros(250)).await;
    }
}

async fn segment(group: GroupId, orders: &[Vec<usize>], seg: usize) -> Segment {
    let waves = orders.len();
    let mut s = Segment::default();
    // --- Set-up: spawn, join, tree formation, one warm-up packet
    // heard by every member. ---
    let t0 = Instant::now();
    let (net, core_r, senders, receivers) = build_net();
    let core = net.router_addr(core_r);
    // §5.1: non-member senders need their D-DR to hold a <core, group>
    // mapping; supply it as managed configuration.
    let mut cfg = CbtConfig::fast().with_mapping(group, vec![core]);
    cfg.shards = 1;
    let live = LiveNet::spawn_with(net, cfg, DataPlaneConfig::default());
    for &r in &receivers {
        live.host_join(r, group, vec![core]);
    }
    let formed = wait_until(Duration::from_secs(10), async || {
        let snap = live.router_snapshot(core_r, group).await.expect("core alive");
        snap.on_tree && !snap.children.is_empty()
    })
    .await;
    s.join_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !formed {
        s.notes.push(format!("segment {seg}: delivery tree never formed"));
    }
    live.host_send(
        senders[0],
        group,
        payload::stamped(PAYLOAD, live.now().micros(), 0, WARMUP_SEQ),
        32,
    );
    let warm = wait_until(Duration::from_secs(10), async || {
        for &r in &receivers {
            if live.host_received_count(r).await.expect("receiver alive") == 0 {
                return false;
            }
        }
        true
    })
    .await;
    if !warm {
        s.notes.push(format!("segment {seg}: warm-up packet did not reach every member"));
    }
    s.setup_s = t0.elapsed().as_secs_f64();

    // --- The measured phase: closed-loop waves. ---
    let wave_total = SENDERS * BURST;
    let wall0 = Instant::now();
    trace::enter(Span::Phase, seg as u64);
    let mut released = Instant::now();
    s.windows = stats::RateWindows::start(0);
    for (wave, order) in orders.iter().enumerate() {
        trace::enter(Span::LiveWave, (seg * waves + wave + 1) as u64);
        for &si in order {
            let now_us = live.now().micros();
            let burst: Vec<Vec<u8>> = (0..BURST)
                .map(|k| payload::stamped(PAYLOAD, now_us, si as u32, (wave * BURST + k) as u32))
                .collect();
            live.host_send_burst(senders[si], group, burst, 32);
        }
        // Everything sent so far, plus the warm-up packet, minus half
        // a wave.
        let target = (wave + 1) * wave_total + 1 - wave_total / 2;
        let caught_up = wait_until(Duration::from_secs(10), async || {
            live.host_received_count(receivers[0]).await.expect("receiver alive") >= target
        })
        .await;
        trace::exit();
        let now = Instant::now();
        s.wave_us.push(now.duration_since(released).as_micros() as u64);
        released = now;
        if (wave + 1) % WINDOW_WAVES == 0 {
            s.windows.mark(((wave + 1) * wave_total * RECEIVERS) as u64);
        }
        if !caught_up {
            s.notes.push(format!("segment {seg}: wave {wave} stalled"));
            break;
        }
    }
    // Drain the last half wave at every member.
    let per_receiver = waves * wave_total + 1;
    wait_until(Duration::from_secs(5), async || {
        for &r in &receivers {
            if live.host_received_count(r).await.expect("receiver alive") < per_receiver {
                return false;
            }
        }
        true
    })
    .await;
    trace::exit();
    s.wall_s = wall0.elapsed().as_secs_f64();

    // --- Check every member's log (outside the timed span). ---
    let sender_addr: Vec<_> = senders.iter().map(|&h| live.net.host_addr(h)).collect();
    let per_sender = waves * BURST;
    s.expected = (RECEIVERS * SENDERS * per_sender) as u64;
    for (ri, &r) in receivers.iter().enumerate() {
        let got = live.host_received(r).await.expect("receiver alive");
        let mut seen = vec![false; SENDERS * per_sender];
        for d in &got {
            let header = payload::read(&d.payload, PAYLOAD);
            if header.is_some_and(|(_, _, seq)| seq == WARMUP_SEQ) {
                continue;
            }
            let ours = header.map(|(stamp, si, seq)| (stamp, si as usize, seq as usize)).filter(
                |&(_, si, seq)| {
                    d.group == group && si < SENDERS && seq < per_sender && d.src == sender_addr[si]
                },
            );
            let Some((stamp, si, seq)) = ours else {
                s.notes.push(format!("segment {seg}: receiver {ri} got a packet nobody sent"));
                continue;
            };
            if std::mem::replace(&mut seen[si * per_sender + seq], true) {
                s.duplicates += 1;
                continue;
            }
            s.delivered += 1;
            if ri == 0 {
                s.latency_us.push(d.at.micros().saturating_sub(stamp));
            }
        }
        s.missing += seen.iter().filter(|&&b| !b).count() as u64;
    }
    let fabric = live.fabric_stats();
    s.fabric_delivered = fabric.delivered;
    s.dropped_overflow = fabric.dropped_overflow;
    live.shutdown();
    s
}

/// Runs `live_flood`.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome { correct: true, ..Default::default() };

    // Inputs from the seed: the group, and the order in which the
    // senders fire within each wave.
    let mut rng = XorShift::new(seed, 0x11fe_f100d);
    let group_no = 1 + rng.below(1000) as u16;
    let group = GroupId::numbered(group_no);
    let waves = ((WAVES_PER_S * seconds) as usize / SEGMENTS).max(2);
    let mut digest = Digest::default();
    digest.word(group_no as u64);
    let orders: Vec<Vec<Vec<usize>>> = (0..SEGMENTS)
        .map(|_| {
            (0..waves)
                .map(|_| {
                    let mut o: Vec<usize> = (0..SENDERS).collect();
                    for i in (1..SENDERS).rev() {
                        o.swap(i, rng.below(i + 1));
                    }
                    o.iter().for_each(|&x| digest.word(x as u64));
                    o
                })
                .collect()
        })
        .collect();

    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("current-thread runtime");
    let mut segs = Vec::with_capacity(SEGMENTS);
    if traced {
        trace::start();
    }
    for (i, o) in orders.iter().enumerate() {
        segs.push(rt.block_on(segment(group, o, i)));
    }
    drop(rt);

    let wave_deliveries = (SENDERS * BURST * RECEIVERS) as f64;
    let mut wave_us: Vec<u64> = segs.iter().flat_map(|s| s.wave_us.iter().copied()).collect();
    let mut latency_us: Vec<u64> = segs.iter().flat_map(|s| s.latency_us.iter().copied()).collect();
    let sum = |f: fn(&Segment) -> u64| segs.iter().map(f).sum::<u64>();
    let (expected, delivered) = (sum(|s| s.expected), sum(|s| s.delivered));
    let (missing, duplicates) = (sum(|s| s.missing), sum(|s| s.duplicates));
    let (fabric, overflow) = (sum(|s| s.fabric_delivered), sum(|s| s.dropped_overflow));
    for s in &segs {
        for n in &s.notes {
            out.fault(n.clone());
        }
    }
    if delivered + missing != expected {
        out.fault(format!("delivery ledger: {delivered} + {missing} != {expected}"));
    }
    out.attempted = expected;
    out.failed = missing + duplicates + overflow;
    out.wall_s = segs.iter().map(|s| s.wall_s).sum();

    let setups: Vec<f64> = segs.iter().map(|s| s.setup_s).collect();
    out.set("setup_s", stats::lower_quartile(&setups));
    let mut windows = stats::RateWindows::default();
    for s in &mut segs {
        windows.absorb(std::mem::take(&mut s.windows));
    }
    let (_, wave_tail) = stats::summarize(&mut wave_us);
    // Every wave is the same work. The closed loop's own latency is
    // the wave round: how long the system takes to absorb one wave —
    // by Little's law, the wave's deliveries over the delivery rate.
    out.set("ops_per_s", windows.rate());
    out.set("bench.ops_per_s_total", delivered as f64 / out.wall_s);
    out.set("latency_ms", wave_deliveries * 1e3 / windows.rate().max(1.0));
    out.set("frames_per_op", fabric as f64 / delivered.max(1) as f64);
    out.set("rss_peak_mb", mb(rss_peak_bytes()));
    out.set("node.fabric_delivered", fabric as f64);
    out.set("node.dropped_overflow", overflow as f64);
    out.set("node.frames_per_delivery", fabric as f64 / delivered.max(1) as f64);
    let (lat_p50, lat_tail) = stats::summarize(&mut latency_us);
    out.set("node.delivery_latency_p50_us", lat_p50 as f64);
    out.set("node.delivery_latency_tail_us", lat_tail as f64);
    out.set("node.wave_round_tail_ms", wave_tail as f64 / 1e3);
    let joins: Vec<f64> = segs.iter().map(|s| s.join_wall_ms).collect();
    out.set("node.join_wall_ms", stats::median(&joins));

    out.exact.insert("input_digest", digest.0);
    out.exact.insert("expected", expected);
    out.exact.insert("attempted", out.attempted);
    out
}
