//! Same seed ⇒ bit-identical counts and sim-time figures on the three
//! simulator workloads, traced or not; another seed ⇒ another input.
//!
//! These drive the real workloads at their smallest size; run them
//! optimised (`cargo test --release`, or the opt-level this
//! workspace's test profile sets).

use cbt_benchmark::runner;

const SIM_WORKLOADS: [&str; 3] = ["fleet_churn", "fleet_faults", "lan_sim_flood"];

#[test]
fn same_seed_repeats_exactly_and_tracing_changes_no_count() {
    for w in SIM_WORKLOADS {
        let a = runner::run(w, 7, 1, false);
        let b = runner::run(w, 7, 1, false);
        let t = runner::run(w, 7, 1, true);
        assert!(a.correct, "{w}: {:?}", a.notes);
        assert_eq!(a.failed, 0, "{w}");
        assert!(a.attempted > 0, "{w}");
        assert_eq!(a.exact, b.exact, "{w}: same seed, different counts");
        assert_eq!(a.exact, t.exact, "{w}: tracing changed a count");
        // Sim-time metrics are functions of the counts: identical too.
        for m in ["latency_ms", "frames_per_op"] {
            assert_eq!(a.get(m), b.get(m), "{w}: {m}");
            assert!(a.get(m) > 0.0, "{w}: {m} is zero");
        }
        assert!(t.correct, "{w} traced: {:?}", t.notes);
        assert!(t.get("trace.self_time_closure_error") <= 0.05, "{w}");
        assert!(t.get("trace.traced_wall_s") > 0.0, "{w}");
    }
}

#[test]
fn another_seed_is_another_input() {
    for w in SIM_WORKLOADS {
        let a = runner::run(w, 7, 1, false);
        let b = runner::run(w, 8, 1, false);
        assert_ne!(a.exact["input_digest"], b.exact["input_digest"], "{w}");
    }
    let a = runner::run("live_flood", 7, 1, false);
    let b = runner::run("live_flood", 8, 1, false);
    assert!(a.correct && a.failed == 0, "live_flood: {:?}", a.notes);
    assert_ne!(a.exact["input_digest"], b.exact["input_digest"], "live_flood");
    assert_eq!(a.exact["expected"], b.exact["expected"], "same size of input");
}

#[test]
fn known_failure_probe_reports_a_status() {
    let r = cbt_benchmark::known_failures::pending_transit_local_join();
    assert!(["expected-fail", "fixed"].contains(&r.status), "{r:?}");
}
