//! `TimerService` microbenches: arm, cancel, pop and peek at 100 and
//! 10 000 armed keys — one router's worth of groups at either end of
//! the Impl-1 range. The per-wakeup cost *through the engine* is
//! `cbt-eval groupscale`.

use cbt::timers::TimerService;
use cbt_netsim::{SimDuration, SimTime};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const SIZES: [u64; 2] = [100, 10_000];

/// Deterministic but scattered deadlines (no RNG: the spread mimics
/// staggered per-group echo clocks).
fn deadline(i: u64) -> SimTime {
    SimTime::from_micros(1_000 + (i.wrapping_mul(2_654_435_761) % 30_000_000))
}

fn armed(n: u64) -> TimerService<u64> {
    let mut svc = TimerService::new();
    for i in 0..n {
        svc.arm(i, deadline(i));
    }
    svc
}

/// Re-arming a hot key to a later deadline, then restoring the exact
/// head — the supersede path plus the lazy cleanup it defers.
fn bench_arm(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("timers/arm_{n}_keys"), |b| {
            let mut svc = armed(n);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                svc.arm(i % n, deadline(i) + SimDuration::from_secs(60));
                svc.compact();
                black_box(svc.peek())
            })
        });
    }
}

/// Cancel + re-arm of one key: the table write and the stale entry it
/// leaves for `compact`.
fn bench_cancel(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("timers/cancel_{n}_keys"), |b| {
            let mut svc = armed(n);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let k = i % n;
                svc.cancel(k);
                svc.arm(k, deadline(i));
                svc.compact();
                black_box(svc.tracked_keys())
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
            let mut svc = armed(n);
            let mut due = Vec::new();
            b.iter(|| {
                let t = svc.peek().expect("population stays constant");
                svc.pop_due_into(t, &mut due);
                for (k, _) in due.drain(..) {
                    svc.arm(k, t + SimDuration::from_secs(30));
                }
                black_box(t)
            })
        });
    }
}

/// The `next_wakeup` read every event pays.
fn bench_peek(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("timers/peek_{n}_keys"), |b| {
            let svc = armed(n);
            b.iter(|| black_box(black_box(&svc).peek()))
        });
    }
}

criterion_group!(benches, bench_arm, bench_cancel, bench_pop, bench_peek);
criterion_main!(benches);
