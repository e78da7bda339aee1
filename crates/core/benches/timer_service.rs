//! `TimerService` microbenches: arm, cancel, pop and peek at 100 and
//! 100 000 armed keys — one router's worth of groups at the small end,
//! Impl-3's 100 000 groups on one engine at the large. The records are
//! a vector of deadlines indexed by key, as the engine's records are
//! its FIB and transient maps. The per-wakeup cost through the engine
//! is `engine_ops`' `echo_service_*`, and across a fleet the
//! benchmark's `netscale.on_timer_ns_per_call`.

use cbt::timers::TimerService;
use cbt_netsim::{SimDuration, SimTime};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const SIZES: [u64; 2] = [100, 100_000];

/// Deterministic but scattered deadlines (no RNG: the spread mimics
/// staggered per-group echo clocks).
fn deadline(i: u64) -> SimTime {
    SimTime::from_micros(1_000 + (i.wrapping_mul(2_654_435_761) % 30_000_000))
}

/// A service with every key armed, and the records it files: key `k`
/// holds `records[k]`, `None` once cancelled.
struct Armed {
    svc: TimerService<u64>,
    records: Vec<Option<SimTime>>,
}

impl Armed {
    fn new(n: u64) -> Self {
        let mut svc = TimerService::new();
        let records: Vec<Option<SimTime>> = (0..n).map(|i| Some(deadline(i))).collect();
        for (k, at) in records.iter().enumerate() {
            svc.arm(k as u64, None, at.expect("armed"));
        }
        Armed { svc, records }
    }

    /// Moves key `k`'s record to `at` (`None`: removes it) and files it.
    fn set(&mut self, k: u64, at: Option<SimTime>) {
        let was = std::mem::replace(&mut self.records[k as usize], at);
        if let Some(at) = at {
            self.svc.arm(k, was, at);
        }
    }

    fn settle(&mut self) {
        let records = &self.records;
        self.svc.settle(|k, at| records[k as usize] == Some(at));
    }
}

/// Moving a hot key's record to a later deadline, then restoring the
/// exact head — the supersede path plus the lazy cleanup it defers.
fn bench_arm(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("timers/arm_{n}_keys"), |b| {
            let mut s = Armed::new(n);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                s.set(i % n, Some(deadline(i) + SimDuration::from_secs(60)));
                s.settle();
                black_box(s.svc.peek())
            })
        });
    }
}

/// Removing a key's record and making it again: no write to the
/// service for the removal, a dead entry for the settle.
fn bench_cancel(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("timers/cancel_{n}_keys"), |b| {
            let mut s = Armed::new(n);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let k = i % n;
                s.set(k, None);
                s.settle();
                s.set(k, Some(deadline(i)));
                s.settle();
                black_box(s.svc.len())
            })
        });
    }
}

/// One service step at steady state: peek the head, pop what is due,
/// re-arm it an interval later — what each engine wakeup does, with
/// the rest of the population staying put.
fn bench_pop(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("timers/pop_{n}_keys"), |b| {
            let mut s = Armed::new(n);
            let mut due = Vec::new();
            b.iter(|| {
                let t = s.svc.peek().expect("population stays constant");
                let records = &s.records;
                s.svc.pop_due_into(t, |k, at| records[k as usize] == Some(at), &mut due);
                for (k, _) in due.drain(..) {
                    s.set(k, Some(t + SimDuration::from_secs(30)));
                }
                s.settle();
                black_box(t)
            })
        });
    }
}

/// The `next_wakeup` read every event pays.
fn bench_peek(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("timers/peek_{n}_keys"), |b| {
            let s = Armed::new(n);
            b.iter(|| black_box(black_box(&s.svc).peek()))
        });
    }
}

criterion_group!(benches, bench_arm, bench_cancel, bench_pop, bench_peek);
criterion_main!(benches);
