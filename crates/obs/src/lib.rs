//! Observability layer for the CBT reproduction.
//!
//! Every layer of the stack — the sans-I/O engine in `cbt`, the live
//! node runtime in `cbt-node`, the deterministic simulator in
//! `cbt-netsim` — reports into the plain-data structures defined here:
//!
//! * a closed **drop-reason taxonomy** ([`DropReason`]) so a discarded
//!   packet is never silent: every discard site names its reason and
//!   bumps a counter;
//! * **protocol counters** ([`ProtocolCounters`], keyed by
//!   [`CtlKind`]) for joins, acks, nacks, quits, echoes and flush-tree
//!   traffic in both directions: one fixed row per router, and one
//!   [`GroupCounters`] table per world for the per-group split;
//! * log2-bucketed **latency histograms** ([`Histogram`]) for join
//!   round-trips and timer wakeup lag, in microseconds;
//! * a cheap [`RouterObs::snapshot`] producing an [`ObsSnapshot`] with
//!   text and JSON exporters that `cbt-eval` embeds in its reports and
//!   `cbtd` prints on demand.
//!
//! Everything on the forward path is a fixed-size array add on a plain
//! struct — no locks, no heap allocation — so the zero-allocs/packet
//! invariant pinned by `crates/core/tests/forward_allocs.rs` holds
//! with counters enabled. The control counters are touched only on the
//! control path.
//!
//! This crate is dependency-free by design: the JSON exporter is
//! hand-rolled (the output is validated against the vendored parser in
//! `cbt-eval` and by the CI schema smoke step).

#![warn(unreachable_pub)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Why a data or control packet was discarded. Closed taxonomy: every
/// discard site in the tree maps onto exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum DropReason {
    /// TTL/hop-limit reached the boundary (§5: decremented to zero, or
    /// arrived too low to travel further).
    TtlExpired = 0,
    /// No forwarding state for the packet's group (off-tree arrival at
    /// an off-tree router, no route toward any core).
    NoFibEntry = 1,
    /// A bounded inbox/channel was full (live plane back-pressure).
    InboxOverflow = 2,
    /// The wire checksum did not verify.
    ChecksumBad = 3,
    /// The frame failed to parse for any reason other than checksum.
    DecodeError = 4,
    /// The packet violated a scope rule: a §7 parent/child arrival
    /// check, or a locally originated packet this router is not
    /// responsible for.
    ScopeBoundary = 5,
}

impl DropReason {
    /// Number of variants (array sizing).
    pub const COUNT: usize = 6;

    /// Every variant, in counter-index order.
    pub const ALL: [DropReason; DropReason::COUNT] = [
        DropReason::TtlExpired,
        DropReason::NoFibEntry,
        DropReason::InboxOverflow,
        DropReason::ChecksumBad,
        DropReason::DecodeError,
        DropReason::ScopeBoundary,
    ];

    /// Stable name used by both exporters.
    pub const fn as_str(self) -> &'static str {
        match self {
            DropReason::TtlExpired => "TtlExpired",
            DropReason::NoFibEntry => "NoFibEntry",
            DropReason::InboxOverflow => "InboxOverflow",
            DropReason::ChecksumBad => "ChecksumBad",
            DropReason::DecodeError => "DecodeError",
            DropReason::ScopeBoundary => "ScopeBoundary",
        }
    }
}

/// Fixed-size drop counters for single-threaded owners (the engine,
/// the simulator). Bumping is an array add — safe on the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounters([u64; DropReason::COUNT]);

impl DropCounters {
    #[inline]
    pub fn bump(&mut self, reason: DropReason) {
        self.0[reason as usize] += 1;
    }

    /// Counts `n` discards at once.
    #[inline]
    pub fn add(&mut self, reason: DropReason, n: u64) {
        self.0[reason as usize] += n;
    }

    #[inline]
    pub fn get(&self, reason: DropReason) -> u64 {
        self.0[reason as usize]
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn merge(&mut self, other: &DropCounters) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// `(reason, count)` pairs in taxonomy order, zeros included.
    pub fn iter(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::ALL.iter().map(move |&r| (r, self.get(r)))
    }
}

/// Which tree invariant a post-run check found violated. Closed
/// taxonomy mirroring the exploration harness' checker: every verdict
/// line in a counterexample names exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum InvariantKind {
    /// A parent chain revisited a router: the FIB encodes a forwarding
    /// loop (§6.3 is supposed to break these).
    ForwardingLoop = 0,
    /// A router names a parent that does not list it as a child (or
    /// vice versa) at quiescence.
    ParentChildAsymmetry = 1,
    /// A member host's LAN has no attached on-tree router with an
    /// acyclic path to a core.
    MemberDetached = 2,
    /// Hard state (FIB entry, pending join/quit) lingering for a group
    /// with no members anywhere after teardown settled.
    OrphanedState = 3,
    /// Observability counters contradict the injected faults (e.g.
    /// checksum-failure drops with zero corrupted frames).
    ObsInconsistent = 4,
}

impl InvariantKind {
    /// Number of variants (array sizing).
    pub const COUNT: usize = 5;

    /// Every variant, in counter-index order.
    pub const ALL: [InvariantKind; InvariantKind::COUNT] = [
        InvariantKind::ForwardingLoop,
        InvariantKind::ParentChildAsymmetry,
        InvariantKind::MemberDetached,
        InvariantKind::OrphanedState,
        InvariantKind::ObsInconsistent,
    ];

    /// Stable name used by both exporters and the counterexample
    /// format.
    pub const fn as_str(self) -> &'static str {
        match self {
            InvariantKind::ForwardingLoop => "ForwardingLoop",
            InvariantKind::ParentChildAsymmetry => "ParentChildAsymmetry",
            InvariantKind::MemberDetached => "MemberDetached",
            InvariantKind::OrphanedState => "OrphanedState",
            InvariantKind::ObsInconsistent => "ObsInconsistent",
        }
    }
}

/// Fixed-size invariant-violation counters, one per
/// [`InvariantKind`]. Bumped by the checker, not the forward path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantCounters([u64; InvariantKind::COUNT]);

impl InvariantCounters {
    #[inline]
    pub fn bump(&mut self, kind: InvariantKind) {
        self.0[kind as usize] += 1;
    }

    #[inline]
    pub fn get(&self, kind: InvariantKind) -> u64 {
        self.0[kind as usize]
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn merge(&mut self, other: &InvariantCounters) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// `(kind, count)` pairs in taxonomy order, zeros included.
    pub fn iter(&self) -> impl Iterator<Item = (InvariantKind, u64)> + '_ {
        InvariantKind::ALL.iter().map(move |&k| (k, self.get(k)))
    }
}

/// CBT control-message classes, for per-group protocol accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum CtlKind {
    JoinRequest = 0,
    JoinAck = 1,
    JoinNack = 2,
    QuitRequest = 3,
    QuitAck = 4,
    EchoRequest = 5,
    EchoReply = 6,
    FlushTree = 7,
}

impl CtlKind {
    pub const COUNT: usize = 8;

    pub const ALL: [CtlKind; CtlKind::COUNT] = [
        CtlKind::JoinRequest,
        CtlKind::JoinAck,
        CtlKind::JoinNack,
        CtlKind::QuitRequest,
        CtlKind::QuitAck,
        CtlKind::EchoRequest,
        CtlKind::EchoReply,
        CtlKind::FlushTree,
    ];

    /// Stable snake_case name used by both exporters.
    pub const fn as_str(self) -> &'static str {
        match self {
            CtlKind::JoinRequest => "join_request",
            CtlKind::JoinAck => "join_ack",
            CtlKind::JoinNack => "join_nack",
            CtlKind::QuitRequest => "quit_request",
            CtlKind::QuitAck => "quit_ack",
            CtlKind::EchoRequest => "echo_request",
            CtlKind::EchoReply => "echo_reply",
            CtlKind::FlushTree => "flush_tree",
        }
    }
}

/// Sent/received counts per control-message class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolCounters {
    sent: [u64; CtlKind::COUNT],
    received: [u64; CtlKind::COUNT],
}

impl ProtocolCounters {
    #[inline]
    pub fn bump_sent(&mut self, kind: CtlKind) {
        self.sent[kind as usize] += 1;
    }

    #[inline]
    pub fn bump_received(&mut self, kind: CtlKind) {
        self.received[kind as usize] += 1;
    }

    pub fn sent(&self, kind: CtlKind) -> u64 {
        self.sent[kind as usize]
    }

    pub fn received(&self, kind: CtlKind) -> u64 {
        self.received[kind as usize]
    }

    pub fn total(&self) -> u64 {
        self.sent.iter().chain(self.received.iter()).sum()
    }

    pub fn merge(&mut self, other: &ProtocolCounters) {
        for (a, b) in self.sent.iter_mut().zip(other.sent.iter()) {
            *a += b;
        }
        for (a, b) in self.received.iter_mut().zip(other.received.iter()) {
            *a += b;
        }
    }
}

/// Per-group control counters for a whole world, ascending by group
/// address. The code that carries control frames keeps one table per
/// world and counts a frame where it encodes (sent) and decodes
/// (received) it, so no router pays a row per group it has seen. The
/// keys sit apart from the rows, so a lookup's binary search reads one
/// or two cache lines, not one per probe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupCounters {
    keys: Vec<u32>,
    rows: Vec<ProtocolCounters>,
}

impl GroupCounters {
    /// Counts a control message of `group` sent.
    #[inline]
    pub fn sent(&mut self, group: u32, kind: CtlKind) {
        self.row(group).bump_sent(kind);
    }

    /// Counts a control message of `group` received.
    #[inline]
    pub fn received(&mut self, group: u32, kind: CtlKind) {
        self.row(group).bump_received(kind);
    }

    /// `group`'s row, inserted in order on first use.
    fn row(&mut self, group: u32) -> &mut ProtocolCounters {
        let i = self.keys.binary_search(&group).unwrap_or_else(|i| {
            self.keys.insert(i, group);
            self.rows.insert(i, ProtocolCounters::default());
            i
        });
        &mut self.rows[i]
    }

    /// Every counted group with its counters, ascending.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, ProtocolCounters)> + '_ {
        self.keys.iter().copied().zip(self.rows.iter().copied())
    }
}

/// Cells of [`RouterObs`]'s control row: the cells of a
/// [`ProtocolCounters`] at 32 bits, saturating — the sent counts by
/// [`CtlKind`], then the received ones.
const ROW_CELLS: usize = 2 * CtlKind::COUNT;

/// Widens a stored control row to a [`ProtocolCounters`].
fn widen_row(cells: &[u32; ROW_CELLS]) -> ProtocolCounters {
    let (sent, received) = cells.split_at(CtlKind::COUNT);
    ProtocolCounters {
        sent: std::array::from_fn(|k| u64::from(sent[k])),
        received: std::array::from_fn(|k| u64::from(received[k])),
    }
}

/// Counts one more in a 32-bit cell, stopping at `u32::MAX`.
#[inline]
fn bump(cell: &mut u32) {
    *cell = cell.saturating_add(1);
}

/// Log2-bucketed latency histogram (microseconds). Bucket `i` holds
/// samples in `[2^(i-1), 2^i)` (bucket 0 holds zero); recording is a
/// couple of integer ops, no allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; Histogram::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    pub const BUCKETS: usize = 32;

    #[inline]
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(Histogram::BUCKETS - 1)
        }
    }

    #[inline]
    pub fn record(&mut self, value_us: u64) {
        self.buckets[Self::bucket_index(value_us)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value_us);
        self.max = self.max.max(value_us);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0..=1.0`), capped at [`max`](Self::max); 0 when empty.
    /// Resolution is a factor of two — good enough to spot orders of
    /// magnitude, which is what the wakeup-lag and join-RTT questions
    /// need. The cap keeps the bound tight in the top occupied bucket —
    /// no sample exceeds the largest one recorded — and makes it a bound
    /// at all in the last bucket, which also holds everything clamped
    /// into it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match i {
                    0 => 0,
                    i if i == Histogram::BUCKETS - 1 => self.max,
                    i => (1u64 << i).min(self.max),
                };
            }
        }
        self.max
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A latency histogram as [`RouterObs`] stores it: the buckets of a
/// [`Histogram`] at 32 bits, saturating, beside its `u64` sum and max.
/// The count is not stored — it is the widened bucket sum — so while
/// no bucket has saturated, [`widen`](Self::widen) returns exactly the
/// `Histogram` the same samples record.
#[derive(Debug, Clone, Copy, Default)]
struct HistogramRow {
    buckets: [u32; Histogram::BUCKETS],
    sum: u64,
    max: u64,
}

impl HistogramRow {
    #[inline]
    fn record(&mut self, value_us: u64) {
        bump(&mut self.buckets[Histogram::bucket_index(value_us)]);
        self.sum = self.sum.saturating_add(value_us);
        self.max = self.max.max(value_us);
    }

    fn widen(&self) -> Histogram {
        let buckets = self.buckets.map(u64::from);
        Histogram { count: buckets.iter().sum(), buckets, sum: self.sum, max: self.max }
    }
}

/// The timer-lag row: a [`HistogramRow`] whose zero bucket is a `u32`
/// held inline, and whose other buckets are boxed on the first late
/// wakeup. Both worlds fire every timer at its deadline, so a
/// simulated router records only zeros and never allocates the box.
/// A zero changes neither sum nor max, so the two parts widen to
/// exactly the `Histogram` a plain row of the same samples does.
#[derive(Debug, Clone, Default)]
struct LagRow {
    on_time: u32,
    late: Option<Box<HistogramRow>>,
}

impl LagRow {
    #[inline]
    fn record(&mut self, value_us: u64) {
        match value_us {
            0 => bump(&mut self.on_time),
            late => self.late.get_or_insert_default().record(late),
        }
    }

    fn widen(&self) -> Histogram {
        let mut row = self.late.as_deref().copied().unwrap_or_default();
        row.buckets[0] = self.on_time;
        row.widen()
    }
}

/// Per-router observability state: the single struct a router owns and
/// bumps from its forward/control/timer paths.
#[derive(Debug, Clone, Default)]
pub struct RouterObs {
    /// Data-plane discards by reason.
    pub drops: DropCounters,
    /// Data packets forwarded (transit or fan-out; one per handled
    /// packet that produced at least one send).
    pub data_forwarded: u64,
    /// JOIN_REQUESTs this router originated (not forwarded).
    pub joins_originated: u64,
    /// JOIN_REQUESTs forwarded hop-by-hop.
    pub joins_forwarded: u64,
    /// PROXY-ACKs sent (a subset of the sent `join_ack`s).
    pub proxy_acks_sent: u64,
    /// Parent failures detected (echo timeout).
    pub parent_failures: u64,
    /// Loops broken by the §6.3 NACTIVE mechanism.
    pub loops_broken: u64,
    /// Joins cached while a join for the same group was pending (§2.5).
    pub joins_cached: u64,
    /// Data packets delivered to a locally attached member LAN.
    pub data_delivered: u64,
    /// Control messages by kind, in `u32` cells that saturate (a core
    /// with 1 000 children echoing every 3 s gets there in about 150
    /// days). Boxed on the first count, so an engine that never
    /// exchanged control traffic holds no heap for it. Per-group counts
    /// are the world's ([`GroupCounters`]).
    ctl: Option<Box<[u32; ROW_CELLS]>>,
    /// JOIN_REQUEST → JOIN_ACK round-trip, µs, at the joining router;
    /// read through [`RouterObs::join_rtt_us`].
    join_rtt_us: HistogramRow,
    /// Timer wakeup lag (fire time minus deadline), µs; read through
    /// [`RouterObs::timer_lag_us`]. Heap-free while every timer fires
    /// on time.
    timer_lag_us: LagRow,
    /// Tree-invariant violations attributed to this router by the
    /// post-run checker (zero in a healthy run).
    pub invariants: InvariantCounters,
}

impl RouterObs {
    /// Counts a sent control message.
    #[inline]
    pub fn ctl_sent(&mut self, kind: CtlKind) {
        bump(&mut self.ctl.get_or_insert_default()[kind as usize]);
    }

    /// Counts a received control message.
    #[inline]
    pub fn ctl_received(&mut self, kind: CtlKind) {
        bump(&mut self.ctl.get_or_insert_default()[CtlKind::COUNT + kind as usize]);
    }

    /// Control messages sent and received, by kind, widened to 64 bits.
    pub fn ctl(&self) -> ProtocolCounters {
        self.ctl.as_deref().map_or_else(ProtocolCounters::default, widen_row)
    }

    /// Records a JOIN_REQUEST → JOIN_ACK round-trip, µs.
    #[inline]
    pub fn record_join_rtt(&mut self, us: u64) {
        self.join_rtt_us.record(us);
    }

    /// Records a timer's wakeup lag (fire time minus deadline), µs.
    #[inline]
    pub fn record_timer_lag(&mut self, us: u64) {
        self.timer_lag_us.record(us);
    }

    /// The join round-trip histogram, widened to 64 bits.
    pub fn join_rtt_us(&self) -> Histogram {
        self.join_rtt_us.widen()
    }

    /// The timer wakeup-lag histogram, widened to 64 bits.
    pub fn timer_lag_us(&self) -> Histogram {
        self.timer_lag_us.widen()
    }

    /// Heap bytes the counters hold: the control row once a message
    /// was counted, and the lag row's buckets once a timer fired late.
    pub fn mem_bytes(&self) -> usize {
        self.ctl.as_ref().map_or(0, |_| size_of::<[u32; ROW_CELLS]>())
            + self.timer_lag_us.late.as_ref().map_or(0, |_| size_of::<HistogramRow>())
    }

    /// Counts a discard. Hot-path safe.
    #[inline]
    pub fn drop_packet(&mut self, reason: DropReason) {
        self.drops.bump(reason);
    }

    /// Cheap plain-data snapshot for export.
    pub fn snapshot(&self, router: &str) -> ObsSnapshot {
        ObsSnapshot {
            router: router.to_string(),
            drops: self.drops,
            data_forwarded: self.data_forwarded,
            joins_originated: self.joins_originated,
            joins_forwarded: self.joins_forwarded,
            proxy_acks_sent: self.proxy_acks_sent,
            parent_failures: self.parent_failures,
            loops_broken: self.loops_broken,
            joins_cached: self.joins_cached,
            data_delivered: self.data_delivered,
            ctl: self.ctl(),
            groups: BTreeMap::new(),
            join_rtt_us: self.join_rtt_us(),
            timer_lag_us: self.timer_lag_us(),
            invariants: self.invariants,
        }
    }

    /// Counts an invariant violation attributed to this router.
    pub fn invariant_violated(&mut self, kind: InvariantKind) {
        self.invariants.bump(kind);
    }
}

/// Exportable snapshot of one router's counters — or, after
/// [`ObsSnapshot::merge`], an aggregate over many routers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Label: a router name, or an aggregate tag like `"fleet"`.
    pub router: String,
    pub drops: DropCounters,
    pub data_forwarded: u64,
    pub joins_originated: u64,
    pub joins_forwarded: u64,
    pub proxy_acks_sent: u64,
    pub parent_failures: u64,
    pub loops_broken: u64,
    pub joins_cached: u64,
    pub data_delivered: u64,
    pub ctl: ProtocolCounters,
    pub groups: BTreeMap<u32, ProtocolCounters>,
    pub join_rtt_us: Histogram,
    pub timer_lag_us: Histogram,
    pub invariants: InvariantCounters,
}

/// Formats a group address u32 as a dotted quad.
fn group_str(g: u32) -> String {
    let b = g.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

/// Minimal JSON string escaping (labels are router names, but be
/// correct anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_protocol(out: &mut String, p: &ProtocolCounters) {
    out.push_str("{\"sent\":{");
    for (i, k) in CtlKind::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", k.as_str(), p.sent(*k));
    }
    out.push_str("},\"received\":{");
    for (i, k) in CtlKind::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", k.as_str(), p.received(*k));
    }
    out.push_str("}}");
}

fn json_histogram(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{},\"max\":{}}}",
        h.count(),
        h.sum(),
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.99),
        h.max()
    );
}

impl ObsSnapshot {
    /// Folds another snapshot into this one (fleet-wide aggregation).
    pub fn merge(&mut self, other: &ObsSnapshot) {
        self.drops.merge(&other.drops);
        self.data_forwarded += other.data_forwarded;
        self.joins_originated += other.joins_originated;
        self.joins_forwarded += other.joins_forwarded;
        self.proxy_acks_sent += other.proxy_acks_sent;
        self.parent_failures += other.parent_failures;
        self.loops_broken += other.loops_broken;
        self.joins_cached += other.joins_cached;
        self.data_delivered += other.data_delivered;
        self.ctl.merge(&other.ctl);
        for (g, p) in &other.groups {
            self.groups.entry(*g).or_default().merge(p);
        }
        self.join_rtt_us.merge(&other.join_rtt_us);
        self.timer_lag_us.merge(&other.timer_lag_us);
        self.invariants.merge(&other.invariants);
    }

    /// Adds a world's per-group rows ([`GroupCounters`]) to `groups`.
    pub fn add_groups(&mut self, table: &GroupCounters) {
        for (g, p) in table.iter() {
            self.groups.entry(g).or_default().merge(&p);
        }
    }

    /// The join and failure counters by export name, in schema order.
    fn join_counters(&self) -> [(&'static str, u64); 6] {
        [
            ("joins_originated", self.joins_originated),
            ("joins_forwarded", self.joins_forwarded),
            ("proxy_acks_sent", self.proxy_acks_sent),
            ("parent_failures", self.parent_failures),
            ("loops_broken", self.loops_broken),
            ("joins_cached", self.joins_cached),
        ]
    }

    /// JSON export. All six drop reasons are always present (zeros
    /// included) so consumers never need existence checks; group keys
    /// are dotted-quad strings.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(out, "{{\"router\":\"{}\",\"drops\":{{", json_escape(&self.router));
        for (i, (r, n)) in self.drops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", r.as_str(), n);
        }
        let _ = write!(
            out,
            "}},\"data_forwarded\":{},\"data_delivered\":{}",
            self.data_forwarded, self.data_delivered
        );
        for (name, n) in self.join_counters() {
            let _ = write!(out, ",\"{name}\":{n}");
        }
        out.push_str(",\"control\":");
        json_protocol(&mut out, &self.ctl);
        out.push_str(",\"groups\":[");
        for (i, (g, p)) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"group\":\"{}\",\"control\":", group_str(*g));
            json_protocol(&mut out, p);
            out.push('}');
        }
        out.push_str("],\"join_rtt_us\":");
        json_histogram(&mut out, &self.join_rtt_us);
        out.push_str(",\"timer_lag_us\":");
        json_histogram(&mut out, &self.timer_lag_us);
        out.push_str(",\"invariants\":{");
        for (i, (k, n)) in self.invariants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", k.as_str(), n);
        }
        out.push_str("}}");
        out
    }

    /// Human-readable export (`cbtd` prints this at shutdown).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[obs] router {}", self.router);
        let _ = writeln!(
            out,
            "  data: forwarded={} delivered={} dropped={}",
            self.data_forwarded,
            self.data_delivered,
            self.drops.total()
        );
        for (r, n) in self.drops.iter() {
            let _ = writeln!(out, "    drop {:<14} {}", r.as_str(), n);
        }
        out.push_str("  joins:");
        for (name, n) in self.join_counters() {
            let _ = write!(out, " {name}={n}");
        }
        out.push('\n');
        let _ = writeln!(out, "  control ({} groups):", self.groups.len());
        for k in CtlKind::ALL {
            let _ = writeln!(
                out,
                "    {:<13} sent={} received={}",
                k.as_str(),
                self.ctl.sent(k),
                self.ctl.received(k)
            );
        }
        let _ = writeln!(
            out,
            "  join_rtt_us: count={} mean={:.1} p50={} p99={} max={}",
            self.join_rtt_us.count(),
            self.join_rtt_us.mean(),
            self.join_rtt_us.quantile(0.50),
            self.join_rtt_us.quantile(0.99),
            self.join_rtt_us.max()
        );
        let _ = writeln!(
            out,
            "  timer_lag_us: count={} mean={:.1} p50={} p99={} max={}",
            self.timer_lag_us.count(),
            self.timer_lag_us.mean(),
            self.timer_lag_us.quantile(0.50),
            self.timer_lag_us.quantile(0.99),
            self.timer_lag_us.max()
        );
        if self.invariants.total() > 0 {
            let _ = writeln!(out, "  invariant violations:");
            for (k, n) in self.invariants.iter() {
                if n > 0 {
                    let _ = writeln!(out, "    {:<22} {}", k.as_str(), n);
                }
            }
        }
        out
    }
}

/// Counters for the scalable unicast routing layer: the
/// incremental-repair economics (how many nodes each repair touched
/// vs. what a full recompute would settle).
///
/// Standalone and mergeable like every other counter set here;
/// experiments export it next to [`ObsSnapshot`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpfStats {
    /// Full single-destination SPF runs.
    pub full_runs: u64,
    /// Nodes settled across all full runs.
    pub nodes_settled_full: u64,
    /// Incremental repair invocations (one per cached tree per phase).
    pub repairs: u64,
    /// Nodes touched across all incremental repairs.
    pub nodes_touched_incremental: u64,
    /// Distribution of nodes touched per incremental repair.
    pub touched_per_repair: Histogram,
}

impl SpfStats {
    /// Records one full SPF run settling `settled` nodes.
    pub fn record_full(&mut self, settled: u64) {
        self.full_runs += 1;
        self.nodes_settled_full += settled;
    }

    /// Records one incremental repair touching `touched` nodes.
    pub fn record_repair(&mut self, touched: u64) {
        self.repairs += 1;
        self.nodes_touched_incremental += touched;
        self.touched_per_repair.record(touched);
    }

    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &SpfStats) {
        self.full_runs += other.full_runs;
        self.nodes_settled_full += other.nodes_settled_full;
        self.repairs += other.repairs;
        self.nodes_touched_incremental += other.nodes_touched_incremental;
        self.touched_per_repair.merge(&other.touched_per_repair);
    }

    /// JSON object fragment (experiments embed this under `"spf"`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"full_runs\":{},\"nodes_settled_full\":{},\"repairs\":{},\
             \"nodes_touched_incremental\":{},\"touched_per_repair\":",
            self.full_runs, self.nodes_settled_full, self.repairs, self.nodes_touched_incremental,
        );
        json_histogram(&mut out, &self.touched_per_repair);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spf_counters_record_merge_and_json() {
        let mut a = SpfStats::default();
        a.record_full(100);
        a.record_repair(3);
        a.record_repair(5);
        assert_eq!(a.full_runs, 1);
        assert_eq!(a.repairs, 2);
        assert_eq!(a.nodes_touched_incremental, 8);
        let mut b = SpfStats::default();
        b.record_repair(10);
        b.merge(&a);
        assert_eq!(b.repairs, 3);
        assert_eq!(b.nodes_touched_incremental, 18);
        assert_eq!(b.touched_per_repair.count(), 3);
        let json = b.to_json();
        for key in [
            "\"full_runs\":1",
            "\"repairs\":3",
            "\"nodes_touched_incremental\":18",
            "\"touched_per_repair\":{\"count\":3",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn drop_counters_roundtrip() {
        let mut c = DropCounters::default();
        c.bump(DropReason::TtlExpired);
        c.bump(DropReason::TtlExpired);
        c.bump(DropReason::ScopeBoundary);
        assert_eq!(c.get(DropReason::TtlExpired), 2);
        assert_eq!(c.get(DropReason::ScopeBoundary), 1);
        assert_eq!(c.get(DropReason::ChecksumBad), 0);
        assert_eq!(c.total(), 3);
        let mut d = DropCounters::default();
        d.bump(DropReason::TtlExpired);
        d.merge(&c);
        assert_eq!(d.get(DropReason::TtlExpired), 3);
        d.add(DropReason::InboxOverflow, 5);
        assert_eq!(d.get(DropReason::InboxOverflow), 5);
        assert_eq!(d.total(), 9);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        h.record(1);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1004);
        assert_eq!(h.max(), 1000);
        // p25 → the zero sample; p100 → bucket containing 1000, whose
        // upper bound 1024 is capped at the largest sample.
        assert_eq!(h.quantile(0.25), 0);
        assert_eq!(h.quantile(0.75), 4);
        assert_eq!(h.quantile(1.0), 1000);
        // Giant values clamp into the last bucket instead of indexing
        // out of bounds.
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(20);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 60);
        assert_eq!(a.max(), 30);
    }

    #[test]
    fn control_row_and_group_table() {
        let mut o = RouterObs::default();
        assert_eq!((o.ctl(), o.mem_bytes()), (ProtocolCounters::default(), 0), "idle: no row");
        o.ctl_sent(CtlKind::JoinRequest);
        o.ctl_sent(CtlKind::JoinRequest);
        o.ctl_received(CtlKind::JoinAck);
        assert_eq!(o.ctl().sent(CtlKind::JoinRequest), 2);
        assert_eq!(o.ctl().received(CtlKind::JoinAck), 1);
        assert_eq!(o.mem_bytes(), 64, "the row is 2 x 8 cells of 32 bits");
        let mut t = GroupCounters::default();
        t.sent(0xE0000202, CtlKind::QuitRequest);
        t.sent(0xE0000101, CtlKind::JoinRequest);
        t.received(0xE0000101, CtlKind::JoinAck);
        let (_, g) = t.iter().next().unwrap();
        assert_eq!((g.sent(CtlKind::JoinRequest), g.received(CtlKind::JoinAck)), (1, 1));
        assert_eq!(g.sent(CtlKind::QuitRequest), 0);
        assert!(t.iter().map(|(g, _)| g).eq([0xE0000101, 0xE0000202]), "ascending");
        assert_eq!(t.iter().map(|(_, p)| p.total()).sum::<u64>(), 3);
    }

    /// A control cell stops at `u32::MAX`, and its widened total with it.
    #[test]
    fn control_cells_saturate() {
        let k = CtlKind::EchoRequest;
        let mut o = RouterObs::default();
        o.ctl_received(k);
        o.ctl_sent(CtlKind::EchoReply);
        o.ctl.as_mut().unwrap()[CtlKind::COUNT + k as usize] = u32::MAX - 1;
        for _ in 0..3 {
            o.ctl_received(k);
        }
        assert_eq!(o.ctl().received(k), u64::from(u32::MAX), "saturated, not wrapped");
        assert_eq!(o.ctl().sent(CtlKind::EchoReply), 1, "the row's other cells are untouched");
        assert_eq!(o.snapshot("R").ctl, o.ctl());
    }

    /// Random bumps against two models: the router's row against a
    /// `u64` model clamped at `u32::MAX` (cells started near the limit
    /// now and then so they saturate), boxed on the first count and not
    /// before; the world table against a `BTreeMap` of
    /// [`ProtocolCounters`]: the same rows in the same order, and the
    /// same snapshot and JSON.
    #[test]
    fn counters_match_their_models() {
        let mut rng = XorShift(0xC011_4A11_5EED_0051);
        let mut saturated = 0;
        for case in 0..64 {
            let mut o = RouterObs::default();
            let mut row = [0u64; 2 * CtlKind::COUNT];
            let mut table = GroupCounters::default();
            let mut model: BTreeMap<u32, ProtocolCounters> = BTreeMap::new();
            for _ in 0..rng.next() % 512 {
                let g = 0xE000_0000 | (rng.next() as u32 % 64);
                let k = CtlKind::ALL[(rng.next() % CtlKind::COUNT as u64) as usize];
                let sent = rng.next().is_multiple_of(2);
                let cell = if sent { k as usize } else { CtlKind::COUNT + k as usize };
                if let Some(stored) = o.ctl.as_mut().filter(|_| case % 4 == 0) {
                    if rng.next().is_multiple_of(64) {
                        let near = u32::MAX - (rng.next() % 4) as u32;
                        stored[cell] = stored[cell].max(near);
                        row[cell] = row[cell].max(u64::from(near));
                    }
                }
                if sent {
                    o.ctl_sent(k);
                    table.sent(g, k);
                    model.entry(g).or_default().bump_sent(k);
                } else {
                    o.ctl_received(k);
                    table.received(g, k);
                    model.entry(g).or_default().bump_received(k);
                }
                row[cell] = (row[cell] + 1).min(u64::from(u32::MAX));
                assert!(o.ctl.is_some(), "boxed on the first count");
            }
            assert_eq!(o.mem_bytes(), if model.is_empty() { 0 } else { 64 }, "case {case}");
            saturated += row.iter().filter(|&&c| c == u64::from(u32::MAX)).count();
            for k in CtlKind::ALL {
                let got = (o.ctl().sent(k), o.ctl().received(k));
                assert_eq!(got, (row[k as usize], row[CtlKind::COUNT + k as usize]), "{k:?}");
            }
            assert!(table.iter().eq(model.iter().map(|(g, p)| (*g, *p))), "case {case}");
            let mut snap = o.snapshot("R");
            snap.add_groups(&table);
            let want = ObsSnapshot { groups: model, ..snap.clone() };
            assert_eq!(snap, want);
            assert_eq!(snap.to_json(), want.to_json());
        }
        assert!(saturated > 0, "some cell reached u32::MAX");
    }

    /// The 32-bit histogram rows against a `u64` [`Histogram`] fed the
    /// same samples: the widened row is equal — count, sum, max, every
    /// bucket and so every quantile — alone and after a merge.
    #[test]
    fn histogram_rows_widen_to_the_u64_histogram() {
        let mut rng = XorShift(0x4157_0032_5EED_0043);
        for _ in 0..64 {
            let (mut row, mut model) = (HistogramRow::default(), Histogram::default());
            let (mut other, mut other_model) = (HistogramRow::default(), Histogram::default());
            for _ in 0..rng.next() % 128 {
                // Magnitudes across the whole bucket range, u64::MAX
                // included now and then, so `sum` saturates too.
                let v = match rng.next() % 16 {
                    0 => u64::MAX,
                    _ => rng.next() >> (rng.next() % 64),
                };
                row.record(v);
                model.record(v);
                let w = rng.next() % 1_000_000;
                other.record(w);
                other_model.record(w);
            }
            let wide = row.widen();
            assert_eq!(wide, model);
            for step in 0..=100u32 {
                let q = f64::from(step) / 100.0;
                assert_eq!(wide.quantile(q), model.quantile(q), "q={q}");
            }
            let (mut merged, mut merged_model) = (wide, model);
            merged.merge(&other.widen());
            merged_model.merge(&other_model);
            assert_eq!(merged, merged_model, "after merge");
        }
        let mut o = RouterObs::default();
        for v in [0, 7, 1000] {
            o.record_join_rtt(v);
            o.record_timer_lag(v + 1);
        }
        assert_eq!((o.join_rtt_us().count(), o.join_rtt_us().sum()), (3, 1007));
        assert_eq!((o.timer_lag_us().count(), o.timer_lag_us().max()), (3, 1001));
    }

    /// A bucket stops at `u32::MAX`; the row's count, the widened bucket
    /// sum, stops with it while sum and max stay exact.
    #[test]
    fn histogram_row_buckets_saturate() {
        let mut row = HistogramRow::default();
        row.record(5);
        let i = Histogram::bucket_index(5);
        row.buckets[i] = u32::MAX - 1;
        for _ in 0..3 {
            row.record(5);
        }
        let wide = row.widen();
        assert_eq!(wide.buckets[i], u64::from(u32::MAX), "saturated, not wrapped");
        assert_eq!(wide.count(), u64::from(u32::MAX));
        assert_eq!((wide.sum(), wide.max()), (20, 5), "sum and max stay exact");
        assert_eq!(std::mem::size_of::<HistogramRow>(), 144, "32 cells of 32 bits, sum and max");
    }

    /// The lag row against a plain [`HistogramRow`] fed the same
    /// samples, over runs of zeros (most of them long) broken by late
    /// samples, with the zero bucket and one late bucket started near
    /// `u32::MAX` now and then so both saturate: it widens to the same
    /// `Histogram` after every run, and holds no heap until the first
    /// late sample.
    #[test]
    fn lag_row_widens_to_a_plain_row() {
        let mut rng = XorShift(0x1A60_0000_0000_0047);
        for case in 0..128 {
            let (mut lag, mut model) = (LagRow::default(), HistogramRow::default());
            if case % 4 == 0 {
                let start = u32::MAX - (rng.next() % 600) as u32;
                (lag.on_time, model.buckets[0]) = (start, start);
            }
            let mut late = false;
            for _ in 0..rng.next() % 12 {
                for _ in 0..rng.next() % 1024 {
                    lag.record(0);
                    model.record(0);
                }
                assert_eq!(lag.widen(), model.widen(), "case {case}, a run of zeros");
                assert_eq!(lag.late.is_some(), late, "case {case}: boxed only once late");
                let v = match rng.next() % 8 {
                    0 => u64::MAX,
                    _ => 1 + (rng.next() >> (rng.next() % 63 + 1)),
                };
                if case % 8 == 1 {
                    let i = Histogram::bucket_index(v);
                    let near = u32::MAX - 1;
                    let row = lag.late.get_or_insert_default();
                    row.buckets[i] = row.buckets[i].max(near);
                    model.buckets[i] = model.buckets[i].max(near);
                }
                lag.record(v);
                model.record(v);
                late = true;
                assert_eq!(lag.widen(), model.widen(), "case {case}, after {v}");
            }
        }
        let mut o = RouterObs::default();
        for _ in 0..1000 {
            o.record_timer_lag(0);
        }
        assert_eq!((o.timer_lag_us().count(), o.mem_bytes()), (1000, 0), "on time, heap-free");
        o.record_timer_lag(3);
        assert_eq!(o.mem_bytes(), size_of::<HistogramRow>(), "late: the row is boxed");
        assert_eq!(o.timer_lag_us().count(), 1001);
    }

    #[test]
    fn snapshot_merge_aggregates() {
        let mut a = RouterObs::default();
        a.drop_packet(DropReason::TtlExpired);
        a.ctl_sent(CtlKind::EchoRequest);
        a.record_join_rtt(100);
        let mut b = RouterObs::default();
        b.drop_packet(DropReason::TtlExpired);
        b.drop_packet(DropReason::NoFibEntry);
        b.ctl_received(CtlKind::EchoRequest);
        let mut world = GroupCounters::default();
        world.sent(1, CtlKind::EchoRequest);
        world.received(1, CtlKind::EchoRequest);
        // Distinct per-field values: a counter the snapshot leaves out,
        // or copies into its neighbour's slot, breaks the sums below.
        for (o, n) in [(&mut a, 1), (&mut b, 10)] {
            o.data_forwarded = n;
            o.joins_originated = 2 * n;
            o.joins_forwarded = 3 * n;
            o.proxy_acks_sent = 4 * n;
            o.parent_failures = 5 * n;
            o.loops_broken = 6 * n;
            o.joins_cached = 7 * n;
            o.data_delivered = 8 * n;
        }
        let mut fleet = a.snapshot("A");
        fleet.router = "fleet".into();
        fleet.merge(&b.snapshot("B"));
        fleet.add_groups(&world);
        let counters = [
            fleet.data_forwarded,
            fleet.joins_originated,
            fleet.joins_forwarded,
            fleet.proxy_acks_sent,
            fleet.parent_failures,
            fleet.loops_broken,
            fleet.joins_cached,
            fleet.data_delivered,
        ];
        assert_eq!(counters, [11, 22, 33, 44, 55, 66, 77, 88]);
        let (json, text) = (fleet.to_json(), fleet.to_text());
        for (name, n) in [
            ("joins_originated", 22),
            ("joins_forwarded", 33),
            ("proxy_acks_sent", 44),
            ("parent_failures", 55),
            ("loops_broken", 66),
            ("joins_cached", 77),
        ] {
            assert!(json.contains(&format!("\"{name}\":{n},")), "{name} in {json}");
            assert!(text.contains(&format!(" {name}={n}")), "{name} in {text}");
        }
        assert_eq!(fleet.drops.get(DropReason::TtlExpired), 2);
        assert_eq!(fleet.drops.get(DropReason::NoFibEntry), 1);
        let g = fleet.groups.get(&1).unwrap();
        assert_eq!(g.sent(CtlKind::EchoRequest), 1);
        assert_eq!(g.received(CtlKind::EchoRequest), 1);
        assert_eq!(fleet.ctl, *g, "the engines' rows and the world's table agree");
        assert_eq!(fleet.join_rtt_us.count(), 1);
    }

    /// Deterministic xorshift64* — this crate is dependency-free, so
    /// the property tests bring their own randomness.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F491_4F6CDD1D)
        }
    }

    /// Every quantile is an upper bound on its nearest-rank sample and
    /// never exceeds the largest sample, over random sample sets whose
    /// magnitudes span the whole bucket range.
    #[test]
    fn quantile_bounds_its_sample_and_never_exceeds_max() {
        let mut rng = XorShift(0x0DDB_A11C_AB1E_5EED);
        for _ in 0..256 {
            let mut h = Histogram::default();
            let mut samples: Vec<u64> =
                (0..1 + rng.next() % 64).map(|_| rng.next() >> (rng.next() % 64)).collect();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            for step in 0..=100u32 {
                let q = f64::from(step) / 100.0;
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let p = h.quantile(q);
                assert!(p <= h.max(), "q={q}: {p} above max {}", h.max());
                assert!(p >= samples[rank - 1], "q={q}: {p} below its sample");
            }
        }
    }

    /// A randomized snapshot built through the same recording APIs the
    /// engine uses. Histogram samples are raw u64s (saturation included
    /// in the property), counter bumps are bounded so u64 sums cannot
    /// overflow across three-way merges.
    fn random_snapshot(rng: &mut XorShift) -> ObsSnapshot {
        let mut o = RouterObs::default();
        for _ in 0..(rng.next() % 24) {
            let r = DropReason::ALL[(rng.next() % DropReason::COUNT as u64) as usize];
            o.drop_packet(r);
        }
        o.data_forwarded = rng.next() % (1 << 32);
        o.joins_originated = rng.next() % (1 << 32);
        o.joins_forwarded = rng.next() % (1 << 32);
        o.proxy_acks_sent = rng.next() % (1 << 32);
        o.parent_failures = rng.next() % (1 << 32);
        o.loops_broken = rng.next() % (1 << 32);
        o.joins_cached = rng.next() % (1 << 32);
        o.data_delivered = rng.next() % (1 << 32);
        let mut world = GroupCounters::default();
        for _ in 0..(rng.next() % 16) {
            let g = 0xE000_0000 | (rng.next() as u32 % 8);
            let k = CtlKind::ALL[(rng.next() % CtlKind::COUNT as u64) as usize];
            if rng.next().is_multiple_of(2) {
                o.ctl_sent(k);
                world.sent(g, k);
            } else {
                o.ctl_received(k);
                world.received(g, k);
            }
        }
        for _ in 0..(rng.next() % 8) {
            o.record_join_rtt(rng.next());
            o.record_timer_lag(rng.next() % 1_000_000);
        }
        for _ in 0..(rng.next() % 8) {
            let k = InvariantKind::ALL[(rng.next() % InvariantKind::COUNT as u64) as usize];
            o.invariant_violated(k);
        }
        let mut snap = o.snapshot("agg");
        snap.add_groups(&world);
        snap
    }

    /// Merged-then-compared with the `router` label held fixed: the
    /// label names the aggregate and is deliberately not merged.
    fn merged(a: &ObsSnapshot, b: &ObsSnapshot) -> ObsSnapshot {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    /// Shard/fleet aggregation folds snapshots in whatever order the
    /// tasks answer, so `merge` must be commutative.
    #[test]
    fn merge_is_commutative() {
        let mut rng = XorShift(0x1DEA_5EED_0BAD_F00D);
        for _ in 0..64 {
            let a = random_snapshot(&mut rng);
            let b = random_snapshot(&mut rng);
            assert_eq!(merged(&a, &b), merged(&b, &a));
        }
    }

    /// ...and associative: folding shard-by-shard must equal folding
    /// pre-merged halves (histogram `sum` saturates, but saturating
    /// addition of unsigned values is `min(true sum, u64::MAX)`, which
    /// keeps both properties).
    #[test]
    fn merge_is_associative() {
        let mut rng = XorShift(0xFEED_FACE_CAFE_BEEF);
        for _ in 0..64 {
            let a = random_snapshot(&mut rng);
            let b = random_snapshot(&mut rng);
            let c = random_snapshot(&mut rng);
            assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        }
    }

    /// Saturation edge explicitly: a histogram driven to the `sum`
    /// ceiling merges to the same aggregate from either side.
    #[test]
    fn merge_saturated_histograms_stay_commutative() {
        let mut a = ObsSnapshot { router: "agg".into(), ..Default::default() };
        let mut b = a.clone();
        a.join_rtt_us.record(u64::MAX);
        a.join_rtt_us.record(u64::MAX);
        b.join_rtt_us.record(7);
        let ab = merged(&a, &b);
        assert_eq!(ab, merged(&b, &a));
        assert_eq!(ab.join_rtt_us.sum(), u64::MAX);
        assert_eq!(ab.join_rtt_us.count(), 3);
    }

    #[test]
    fn json_contains_all_drop_reasons_even_when_zero() {
        let o = RouterObs::default();
        let j = o.snapshot("R1").to_json();
        for r in DropReason::ALL {
            assert!(j.contains(&format!("\"{}\":0", r.as_str())), "missing {} in {j}", r.as_str());
        }
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn json_group_keys_are_dotted_quads() {
        let mut world = GroupCounters::default();
        world.sent(0xE4000001, CtlKind::JoinRequest);
        let mut snap = RouterObs::default().snapshot("R1");
        snap.add_groups(&world);
        let j = snap.to_json();
        assert!(j.contains("\"group\":\"228.0.0.1\""), "{j}");
        assert!(j.contains("\"join_request\":1"), "{j}");
    }

    #[test]
    fn json_escapes_labels() {
        let o = RouterObs::default();
        let j = o.snapshot("r\"1\"\n").to_json();
        assert!(j.contains("\"router\":\"r\\\"1\\\"\\n\""), "{j}");
    }

    #[test]
    fn invariant_counters_roundtrip_and_export() {
        let mut o = RouterObs::default();
        o.invariant_violated(InvariantKind::ForwardingLoop);
        o.invariant_violated(InvariantKind::ForwardingLoop);
        o.invariant_violated(InvariantKind::OrphanedState);
        assert_eq!(o.invariants.get(InvariantKind::ForwardingLoop), 2);
        assert_eq!(o.invariants.total(), 3);
        let mut fleet = o.snapshot("A");
        fleet.merge(&o.snapshot("B"));
        assert_eq!(fleet.invariants.get(InvariantKind::ForwardingLoop), 4);
        let j = fleet.to_json();
        for k in InvariantKind::ALL {
            assert!(j.contains(&format!("\"{}\":", k.as_str())), "missing {} in {j}", k.as_str());
        }
        assert!(fleet.to_text().contains("ForwardingLoop"));
    }

    #[test]
    fn text_export_mentions_everything() {
        let mut o = RouterObs::default();
        o.drop_packet(DropReason::ChecksumBad);
        o.record_timer_lag(7);
        let t = o.snapshot("R9").to_text();
        assert!(t.contains("router R9"));
        assert!(t.contains("ChecksumBad"));
        assert!(t.contains("timer_lag_us: count=1"));
    }
}
