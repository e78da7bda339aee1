//! Unit checks of the benchmark's own arithmetic: span self time, the
//! percentile-selection rule, Python-compatible quartiles, the
//! fastest-windows rate and `compare` verdicts.

use cbt_benchmark::compare::{self, verdict, Verdict};
use cbt_benchmark::metrics::END_TO_END;
use cbt_benchmark::stats;
use cbt_benchmark::trace::{Span, Tracer, SAMPLE_EVERY};

#[test]
fn self_time_is_duration_minus_children_and_sums_to_the_root() {
    let mut t = Tracer::new();
    // phase [0, 1000]
    //   ns_run [100, 700]
    //     p2p_on_frame [200, 500]
    //       rib_lookup [300, 350]
    //     p2p_on_timer [550, 650]
    //   ns_inject [800, 900]
    t.enter_at(Span::Phase, 0, 0);
    t.enter_at(Span::NsRun, 0, 100);
    t.enter_at(Span::P2pOnFrame, 0, 200);
    t.enter_at(Span::RibLookup, 0, 300);
    t.exit_at(350);
    t.exit_at(500);
    t.enter_at(Span::P2pOnTimer, 0, 550);
    t.exit_at(650);
    t.exit_at(700);
    t.enter_at(Span::NsInject, 7, 800);
    t.exit_at(900);
    t.exit_at(1000);

    assert_eq!(t.total(Span::RibLookup).self_ns, 50);
    assert_eq!(t.total(Span::P2pOnFrame).total_ns, 300);
    assert_eq!(t.total(Span::P2pOnFrame).self_ns, 250, "rib time subtracted");
    assert_eq!(t.total(Span::P2pOnTimer).self_ns, 100);
    assert_eq!(t.total(Span::NsRun).self_ns, 600 - 300 - 100);
    assert_eq!(t.total(Span::NsInject).self_ns, 100);
    assert_eq!(t.total(Span::Phase).self_ns, 1000 - 600 - 100);
    assert_eq!(t.self_sum_ns(), 1000, "self times sum to the traced wall");
    assert_eq!(t.closure_error(), 0.0);
    let layers = t.layer_self_ns();
    let of = |l: &str| layers.iter().find(|(n, _)| *n == l).map(|(_, ns)| *ns);
    assert_eq!(of("netsim"), Some(200 + 100));
    assert_eq!(of("netscale"), Some(250 + 100));
    assert_eq!(of("rib"), Some(50));
    assert_eq!(of("bench"), Some(300));
}

#[test]
fn dump_keeps_the_phase_and_one_span_in_sample_every_per_kind() {
    let mut t = Tracer::new();
    t.enter_at(Span::Phase, 0, 0);
    let n = 3 * SAMPLE_EVERY;
    for i in 0..n {
        t.enter_at(Span::NsRun, i + 1, 10 * i);
        t.enter_at(Span::P2pOnFrame, 0, 10 * i + 1);
        t.exit_at(10 * i + 2);
        t.exit_at(10 * i + 5);
    }
    t.exit_at(10 * n);
    let recs = t.records();
    assert_eq!(recs[0].span, Span::Phase);
    assert_eq!(recs.iter().filter(|r| r.span == Span::NsRun).count(), 3);
    assert_eq!(recs.iter().filter(|r| r.span == Span::P2pOnFrame).count(), 3);
    // Every kept span hangs off a kept ancestor, and inherits the
    // operation id of the span that caused it.
    for r in &recs[1..] {
        assert!(r.parent.is_some());
    }
    let frame = recs.iter().find(|r| r.span == Span::P2pOnFrame).unwrap();
    assert_eq!(frame.op, 1, "op id inherited from the enclosing ns_run");
    assert_eq!(t.total(Span::NsRun).calls, n, "totals are unsampled");
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(stats::tail_percentile(50), None);
    assert_eq!(stats::tail_percentile(99), None);
    assert_eq!(stats::tail_percentile(100), Some(0.90));
    assert_eq!(stats::tail_percentile(199), Some(0.90));
    assert_eq!(stats::tail_percentile(200), Some(0.95));
    assert_eq!(stats::tail_percentile(999), Some(0.95));
    assert_eq!(stats::tail_percentile(1_000), Some(0.99));
    assert_eq!(stats::tail_percentile(9_999), Some(0.99));
    assert_eq!(stats::tail_percentile(10_000), Some(0.999));
    let mut v: Vec<u64> = (1..=1000).collect();
    assert_eq!(stats::summarize(&mut v), (500, 990));
    assert_eq!(stats::summarize(&mut [7, 3, 5]), (5, 7), "too few for a percentile: the maximum");
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&v), Some((2.75, 8.25)));
    assert_eq!(stats::median(&v), 5.5);
    assert!((stats::spread(&v).unwrap() - 1.0).abs() < 1e-12);
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
    let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
    assert_eq!(stats::quartiles(&v), Some((1.25, 5.75)));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(stats::quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
    assert_eq!(stats::quartiles(&[1.0]), None);
}

#[test]
fn undisturbed_rate_takes_interference_out_but_follows_the_load() {
    // 160 windows of 1000 units; the first half costs 1 s each, the
    // second half 2 s each (the workload itself got heavier).
    let mut w: Vec<(u64, f64)> = (0..160).map(|i| (1000, if i < 80 { 1.0 } else { 2.0 })).collect();
    let clean = stats::undisturbed_rate(&w);
    // Only the 40 windows right after the step see a cheaper neighbour.
    assert!((clean - 160_000.0 / (120.0 + 80.0)).abs() < 1e-6, "{clean}");
    // Interference: a burst slows 15 consecutive windows by 50 %, and
    // every third window elsewhere by 20 %.
    for (i, x) in w.iter_mut().enumerate() {
        if (30..45).contains(&i) {
            x.1 *= 1.5;
        } else if i % 3 == 0 {
            x.1 *= 1.2;
        }
    }
    assert!((stats::undisturbed_rate(&w) - clean).abs() < 1e-6, "bursts and speckle are filtered");
    let total: f64 = 160_000.0 / w.iter().map(|x| x.1).sum::<f64>();
    assert!(total < 0.85 * clean, "total-over-wall follows the interference");
    assert_eq!(stats::undisturbed_rate(&[]), 0.0);
    assert_eq!(stats::undisturbed_rate(&[(10, 2.0)]), 5.0);
}

fn def(name: &str) -> &'static cbt_benchmark::metrics::MetricDef {
    END_TO_END.iter().find(|m| m.name == name).unwrap()
}

#[test]
fn compare_verdicts() {
    let ops = def("ops_per_s"); // higher is better, 25 %
    let steady = |m: f64| -> Vec<f64> { (0..10).map(|i| m * (1.0 + 0.002 * i as f64)).collect() };
    assert_eq!(verdict(ops, &steady(1000.0), &steady(1000.0)), Verdict::WithinBound);
    assert_eq!(verdict(ops, &steady(1000.0), &steady(800.0)), Verdict::WithinBound);
    assert_eq!(verdict(ops, &steady(1000.0), &steady(700.0)), Verdict::Regression);
    assert_eq!(verdict(ops, &steady(1000.0), &steady(1500.0)), Verdict::WithinBound, "a gain");
    // Lower-is-better flips the direction.
    let rss = def("rss_peak_mb"); // 5 %
    assert_eq!(verdict(rss, &steady(100.0), &steady(104.0)), Verdict::WithinBound);
    assert_eq!(verdict(rss, &steady(100.0), &steady(106.0)), Verdict::Regression);
    assert_eq!(verdict(rss, &steady(100.0), &steady(90.0)), Verdict::WithinBound);
    // Spread wider than the bound: the medians cannot be told apart.
    let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 3.0 * i as f64).collect();
    assert_eq!(verdict(rss, &noisy, &steady(100.0)), Verdict::Unresolved);
    // setup_s is exempt from the spread rule.
    let setup = def("setup_s");
    let wide: Vec<f64> = (0..10).map(|i| 1.0 + 0.1 * i as f64).collect();
    assert_eq!(verdict(setup, &wide, &wide), Verdict::WithinBound);
}

#[test]
fn compare_reads_sets_and_skips_traced_records() {
    let line = |w: &str, trace: u8, ops: f64| {
        format!(
            "{{\"workload\": \"{w}\", \"seed\": 1, \"seconds\": 1, \"trace\": {trace}, \"correct\": true, \
             \"attempted\": 1, \"failed\": 0, \"wall_s\": 1.0, \"values\": {{\"ops_per_s\": {ops}, \
             \"setup_s\": 0.5}}, \"exact\": {{}}, \"notes\": []}}"
        )
    };
    let a =
        [line("fleet_churn", 0, 100.0), line("fleet_churn", 0, 102.0), line("fleet_churn", 1, 5.0)]
            .join("\n");
    let b = [line("fleet_churn", 0, 60.0), line("fleet_churn", 0, 61.0)].join("\n");
    let (sa, sb) = (compare::parse_set(&a).unwrap(), compare::parse_set(&b).unwrap());
    assert_eq!(sa[&("fleet_churn".to_string(), "ops_per_s".to_string())], vec![100.0, 102.0]);
    let rows = compare::compare(&sa, &sb);
    assert_eq!(rows.len(), 2, "setup_s and ops_per_s");
    let ops = rows.iter().find(|r| r.metric.name == "ops_per_s").unwrap();
    assert_eq!(ops.verdict, Verdict::Regression);
    assert!(!compare::report(&rows));
    assert!(compare::parse_set("not json").is_err());
}
