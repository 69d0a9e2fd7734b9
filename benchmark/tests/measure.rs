//! The measurement primitive: known quantiles, interleaved arm order, and
//! the closed loop's accounting.

use std::time::Duration;

use unitherm_benchmark::measure::{
    arm_order, closed_loop, interleaved, Comparison, Gauge, LoopOutcome, Summary, GAUGE_PERIOD_S,
};

#[test]
fn summary_matches_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let s = Summary::of(&[7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 3.0, 8.0, 6.0, 5.0]).expect("finite");
    assert_eq!((s.n, s.median, s.q1, s.q3), (10, 5.5, 2.75, 8.25));
    assert_eq!((s.min, s.max, s.mean), (1.0, 10.0, 5.5));
    assert_eq!(s.spread(), 1.0);

    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    let s = Summary::of(&[3.0, 1.0, 2.0]).expect("finite");
    assert_eq!((s.median, s.q1, s.q3), (2.0, 1.0, 3.0));

    // statistics.quantiles(range(1, 101), n=10)[-1] == 90.9
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = Summary::of(&hundred).expect("finite");
    assert!((s.p90 - 90.9).abs() < 1e-9, "{}", s.p90);
    assert!((s.p99 - 99.99).abs() < 1e-9, "{}", s.p99);
}

#[test]
fn summary_rejects_empty_and_non_finite_samples() {
    assert!(Summary::of(&[]).is_none());
    assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    let one = Summary::of(&[4.0]).expect("one sample");
    assert_eq!((one.median, one.q1, one.q3, one.p99), (4.0, 4.0, 4.0, 4.0));
}

#[test]
fn arms_alternate_their_order_every_round() {
    assert_eq!(arm_order(0, 3), vec![0, 1, 2]);
    assert_eq!(arm_order(1, 3), vec![2, 1, 0]);
    let mut order = Vec::new();
    let samples = interleaved(4, 2, |arm| {
        order.push(arm);
        arm as f64
    });
    assert_eq!(order, vec![0, 1, 1, 0, 0, 1, 1, 0]);
    assert_eq!(samples, vec![vec![0.0; 4], vec![1.0; 4]]);
}

#[test]
fn comparison_reports_delta_and_noise_floor() {
    let c = Comparison::of(&[10.0, 10.0, 10.0], &[11.0, 12.0, 13.0]).expect("samples");
    assert!((c.delta_pct - 20.0).abs() < 1e-9, "{}", c.delta_pct);
    assert!((c.noise_floor_pct - 2.0 / 12.0 * 100.0).abs() < 1e-9, "{}", c.noise_floor_pct);
    assert!(Comparison::of(&[], &[1.0]).is_none());
}

#[test]
fn closed_loop_times_until_the_deadline_and_counts_failures() {
    let mut calls = 0;
    let out = closed_loop(0.6, 2, &mut Gauge::new(1), |arm| {
        calls += 1;
        std::thread::sleep(Duration::from_millis(1));
        if calls % 10 == 0 {
            Err(format!("call {calls} on arm {arm}"))
        } else {
            Ok((calls as usize % 3, 1.0))
        }
    });
    assert_eq!(out.attempted, calls);
    assert_eq!(out.failed, calls / 10);
    assert!(out.wall_s >= 0.6);
    assert!(
        (2..=4).contains(&out.gauge_ms.len()),
        "the gauge runs first and then every {GAUGE_PERIOD_S} s: {} times",
        out.gauge_ms.len()
    );
    assert!(!out.latency_ms[0].is_empty() && !out.latency_ms[1].is_empty(), "both arms ran");
    let timed: usize = out.latency_ms.iter().map(Vec::len).sum();
    assert_eq!(timed as u64, out.attempted - out.failed);
    assert_eq!(out.inputs[0].len(), out.latency_ms[0].len());
}

#[test]
fn typical_latency_weighs_every_input_alike() {
    // Input 0 costs 10 ms and runs three times as often as input 1, which
    // costs 30 ms; a slow phase adds 50 % to a third of each. The
    // per-input medians are 10 and 30.
    let mut out = LoopOutcome::default();
    for k in 0..30 {
        let slow = if k % 3 == 0 { 1.5 } else { 1.0 };
        out.merge(LoopOutcome {
            latency_ms: vec![vec![10.0 * slow, 10.0 * slow, 10.0 * slow, 30.0 * slow]],
            inputs: vec![vec![0, 0, 0, 1]],
            gauged_by: vec![vec![0; 4]],
            gauge_ms: vec![2.0],
            ..LoopOutcome::default()
        });
    }
    assert_eq!(out.typical_ms(0), Some(20.0));
    assert_eq!(out.typical_ms(1), None);
    assert_eq!(out.relative(0), Some(10.0), "a 2 ms gauge throughout");
    assert_eq!(LoopOutcome { gauge_ms: Vec::new(), ..out }.relative(0), None);
}

#[test]
fn relative_latency_cancels_a_slow_host_phase() {
    // For 16 of 30 gauge periods the host runs everything 1.5 times slower,
    // so those periods fit two 15 ms operations where the others fit three
    // 10 ms ones. The pooled latency median is 10 ms and the pooled gauge
    // median 3 ms; only gauging each operation by the timings around it
    // gives the constant 5 gauges an operation costs.
    let mut out = LoopOutcome::default();
    for k in 0..30 {
        let (slow, ops) = if (7..23).contains(&k) { (1.5, 2) } else { (1.0, 3) };
        out.merge(LoopOutcome {
            latency_ms: vec![vec![10.0 * slow; ops]],
            inputs: vec![vec![0; ops]],
            gauged_by: vec![vec![0; ops]],
            gauge_ms: vec![2.0 * slow],
            ..LoopOutcome::default()
        });
    }
    assert_eq!(out.typical_ms(0), Some(10.0));
    assert_eq!(out.relative(0), Some(5.0));
}
