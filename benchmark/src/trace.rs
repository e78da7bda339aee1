//! In-memory span recorder for the traced run.
//!
//! The benchmark measures each layer *from outside*: a span is opened
//! around every call that crosses a layer boundary (driver → world,
//! world → wrapped node, node → route lookup). Totals are kept for
//! every span, unsampled; the span records themselves are sampled
//! 1-in-[`SAMPLE_EVERY`] per kind below the phase level and written out
//! when the workload ends.
//!
//! A span's **self time** is its duration minus the part of that
//! interval its child spans cover, so per workload the self times of
//! all span kinds sum to the duration of the root span (the traced
//! wall) — [`Tracer::closure_error`] reports how far off that is.
//!
//! The simulator workloads are single-threaded, so the recorder is a
//! thread-local; with tracing off every entry point is one flag read.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// The span clock. A traced `lan_sim_flood` opens ten million spans in
/// a few seconds; at two ~35 ns `Instant::now()` reads each, the clock
/// alone cost 20 % of the run. The time-stamp counter reads in a
/// quarter of that and is what the kernel's own `tsc` clocksource
/// trusts; [`finish`] converts ticks to nanoseconds against `Instant`
/// over the whole recording.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions; it reads a counter.
    #[allow(unused_unsafe)]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
}

/// Portable fallback: nanoseconds since the first call.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let d = EPOCH.get_or_init(Instant::now).elapsed();
    d.as_secs() * 1_000_000_000 + d.subsec_nanos() as u64
}

/// One in this many spans below the phase level is kept for the dump.
pub const SAMPLE_EVERY: u64 = 64;

/// Every span kind the benchmark records, with the layer (crate or
/// module name) its self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    /// The measured phase of a workload: the root of every trace.
    Phase,
    /// `NetscaleWorld::run_until` / `run_to_quiescence`.
    NsRun,
    /// `NetscaleWorld::with_node` (join/leave injection).
    NsInject,
    /// `NetscaleWorld` liveness-plane calls (link flap, crash, restart).
    NsLiveness,
    /// Wrapped `P2pNode::on_frame`.
    P2pOnFrame,
    /// Wrapped `P2pNode::on_timer`.
    P2pOnTimer,
    /// The body of an injection closure: `local_join`/`local_leave` +
    /// `P2pNode::deliver`.
    P2pInject,
    /// Wrapped `FleetRoutes::hop_toward`.
    RibLookup,
    /// `FleetRib::apply_removals` / `apply_additions`.
    RibRepair,
    /// `World::run_until`.
    WorldRun,
    /// Wrapped `RouterNode::on_packet`.
    RouterOnPacket,
    /// Wrapped `RouterNode::on_timer`.
    RouterOnTimer,
    /// Wrapped `HostApp::on_packet`.
    HostOnPacket,
    /// Wrapped `HostApp::on_timer`.
    HostOnTimer,
    /// One closed-loop wave of `live_flood` (release → caught up).
    LiveWave,
    /// Reattachment polling and severed-member snapshots (harness
    /// work inside the timed span of `fleet_faults`).
    HarnessPoll,
}

impl Span {
    /// Number of span kinds.
    pub const COUNT: usize = 16;

    /// All kinds, in declaration order.
    pub const ALL: [Span; Span::COUNT] = [
        Span::Phase,
        Span::NsRun,
        Span::NsInject,
        Span::NsLiveness,
        Span::P2pOnFrame,
        Span::P2pOnTimer,
        Span::P2pInject,
        Span::RibLookup,
        Span::RibRepair,
        Span::WorldRun,
        Span::RouterOnPacket,
        Span::RouterOnTimer,
        Span::HostOnPacket,
        Span::HostOnTimer,
        Span::LiveWave,
        Span::HarnessPoll,
    ];

    /// Span name as written to the dump.
    pub const fn name(self) -> &'static str {
        match self {
            Span::Phase => "phase",
            Span::NsRun => "ns_run",
            Span::NsInject => "ns_inject",
            Span::NsLiveness => "ns_liveness",
            Span::P2pOnFrame => "p2p_on_frame",
            Span::P2pOnTimer => "p2p_on_timer",
            Span::P2pInject => "p2p_inject",
            Span::RibLookup => "rib_lookup",
            Span::RibRepair => "rib_repair",
            Span::WorldRun => "world_run",
            Span::RouterOnPacket => "router_on_packet",
            Span::RouterOnTimer => "router_on_timer",
            Span::HostOnPacket => "host_on_packet",
            Span::HostOnTimer => "host_on_timer",
            Span::LiveWave => "live_wave",
            Span::HarnessPoll => "harness_poll",
        }
    }

    /// The layer a span's self time belongs to. `Phase` self time is
    /// the driver's own work (event iteration, ledgers, checks).
    pub const fn layer(self) -> &'static str {
        match self {
            Span::Phase | Span::HarnessPoll | Span::LiveWave => "bench",
            Span::NsRun | Span::NsInject | Span::NsLiveness | Span::WorldRun => "netsim",
            Span::P2pOnFrame | Span::P2pOnTimer | Span::P2pInject => "netscale",
            Span::RibLookup | Span::RibRepair => "rib",
            Span::RouterOnPacket | Span::RouterOnTimer => "core",
            Span::HostOnPacket | Span::HostOnTimer => "host",
        }
    }
}

/// Unsampled totals of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed.
    pub calls: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child spans).
    pub self_ns: u64,
}

/// One sampled span, as dumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Kind.
    pub span: Span,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing record, if any.
    pub parent: Option<u32>,
    /// Operation id (session, packet or wave); 0 when unknown.
    pub op: u64,
}

struct Open {
    span: Span,
    start_ns: u64,
    child_ns: u64,
    record: Option<u32>,
    op: u64,
}

/// The recorder. Usually reached through the thread-local entry points
/// ([`enter`], [`exit`], [`span`]); constructible on its own so the
/// self-time arithmetic can be tested against a scripted clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tick0: u64,
    stack: Vec<Open>,
    totals: [Total; Span::COUNT],
    records: Vec<Record>,
    sample_counters: [u64; Span::COUNT],
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            tick0: ticks(),
            stack: Vec::with_capacity(8),
            totals: [Total::default(); Span::COUNT],
            records: Vec::new(),
            sample_counters: [0; Span::COUNT],
        }
    }

    /// Clock reading in ticks since this tracer was made; [`finish`]
    /// rescales everything recorded to nanoseconds.
    fn now_ns(&self) -> u64 {
        ticks().wrapping_sub(self.tick0)
    }

    /// Converts every recorded tick count to nanoseconds.
    fn ticks_to_ns(&mut self) {
        let ticks = self.now_ns().max(1);
        let d = self.epoch.elapsed();
        let scale = (d.as_secs() * 1_000_000_000 + d.subsec_nanos() as u64) as f64 / ticks as f64;
        let ns = |t: u64| (t as f64 * scale) as u64;
        for t in &mut self.totals {
            t.total_ns = ns(t.total_ns);
            t.self_ns = ns(t.self_ns);
        }
        for r in &mut self.records {
            r.start_ns = ns(r.start_ns);
            r.end_ns = ns(r.end_ns);
        }
    }

    /// Opens a span at an explicit clock reading.
    pub fn enter_at(&mut self, span: Span, op: u64, now_ns: u64) {
        // The phase span is always kept; every other kind keeps one in
        // SAMPLE_EVERY of its own spans. A kept span points at its
        // nearest kept ancestor, so the dump is still a tree.
        let op = match self.stack.last() {
            Some(parent) if op == 0 => parent.op,
            _ => op,
        };
        let keep = self.stack.is_empty() || {
            let c = &mut self.sample_counters[span as usize];
            *c += 1;
            *c % SAMPLE_EVERY == 1
        };
        let record = keep.then(|| {
            let parent = self.stack.iter().rev().find_map(|p| p.record);
            self.records.push(Record { span, start_ns: now_ns, end_ns: now_ns, parent, op });
            (self.records.len() - 1) as u32
        });
        self.stack.push(Open { span, start_ns: now_ns, child_ns: 0, record, op });
    }

    /// Closes the innermost span at an explicit clock reading.
    pub fn exit_at(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = now_ns.saturating_sub(open.start_ns);
        let t = &mut self.totals[open.span as usize];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.record {
            self.records[i as usize].end_ns = now_ns;
        }
    }

    /// Totals of one span kind.
    pub fn total(&self, span: Span) -> Total {
        self.totals[span as usize]
    }

    /// Sum of self times over every span kind.
    pub fn self_sum_ns(&self) -> u64 {
        self.totals.iter().map(|t| t.self_ns).sum()
    }

    /// Self time per layer, in declaration order of first appearance.
    pub fn layer_self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for s in Span::ALL {
            let ns = self.totals[s as usize].self_ns;
            match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, acc)) => *acc += ns,
                None => out.push((s.layer(), ns)),
            }
        }
        out
    }

    /// |Σ self − root| / root: how far the layer self times are from
    /// summing to the traced wall. Zero when spans nest properly.
    pub fn closure_error(&self) -> f64 {
        let root = self.totals[Span::Phase as usize].total_ns;
        if root == 0 {
            return 0.0;
        }
        (self.self_sum_ns() as f64 - root as f64).abs() / root as f64
    }

    /// The sampled records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Writes the sampled records as JSON lines.
    pub fn dump(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                r.span.name(),
                r.span.layer(),
                r.start_ns,
                r.end_ns,
                r.op
            )?;
        }
        Ok(())
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer { enabled: false, ..Tracer::new() });
}

/// Starts recording on this thread with a fresh tracer.
pub fn start() {
    TRACER.with(|t| *t.borrow_mut() = Tracer::new());
}

/// Stops recording on this thread and hands back what was recorded
/// (`None` if [`start`] was never called).
pub fn finish() -> Option<Tracer> {
    let mut t = TRACER.with(|t| t.replace(Tracer { enabled: false, ..Tracer::new() }));
    t.enabled.then(|| {
        t.ticks_to_ns();
        t
    })
}

/// Opens a span (no-op when not recording).
#[inline]
pub fn enter(span: Span, op: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            let now = t.now_ns();
            t.enter_at(span, op, now);
        }
    });
}

/// Closes the innermost span (no-op when not recording).
#[inline]
pub fn exit() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            let now = t.now_ns();
            t.exit_at(now);
        }
    });
}

/// Runs `f` inside a span.
#[inline]
pub fn span<R>(s: Span, op: u64, f: impl FnOnce() -> R) -> R {
    enter(s, op);
    let r = f();
    exit();
    r
}
