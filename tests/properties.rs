//! Property-based tests over the core data structures and the physics
//! substrate: invariants that must hold for *every* configuration, not just
//! the paper's operating points.

use proptest::prelude::*;

use unitherm::core::control_array::{Policy, ThermalControlArray};
use unitherm::core::governor::{CpuSpeedConfig, CpuSpeedGovernor};
use unitherm::core::tdvfs::Tdvfs;
use unitherm::core::window::{TwoLevelWindow, WindowConfig};
use unitherm::metrics::{Summary, TimeSeries};
use unitherm::simnode::config::ThermalConfig;
use unitherm::simnode::thermal::{euler_raw, substeps_raw};
use unitherm::simnode::units::DutyCycle;
use unitherm::workload::{Phase, PhaseWorkload, Workload};

// ---------------------------------------------------------------- policies

proptest! {
    /// Eq. (1): n_p is within [1, N] and monotone non-decreasing in P_p.
    #[test]
    fn n_p_bounded_and_monotone(n in 1usize..=256) {
        let mut last = 0usize;
        for pp in 1..=100u32 {
            let np = Policy::new(pp).unwrap().n_p(n);
            prop_assert!(np >= 1 && np <= n, "P_p={pp}: n_p={np} outside [1,{n}]");
            prop_assert!(np >= last, "n_p not monotone at P_p={pp}");
            last = np;
        }
        prop_assert_eq!(Policy::new(1).unwrap().n_p(n), 1);
        prop_assert_eq!(Policy::new(100).unwrap().n_p(n), n);
    }

    /// Control arrays contain only provided modes, are effectiveness-ordered,
    /// start at the least effective mode (for n_p ≥ 2) and end at the most
    /// effective one — for every policy, mode count, and array length.
    #[test]
    fn control_array_invariants(
        pp in 1u32..=100,
        mode_count in 1usize..=64,
        n in 1usize..=200,
    ) {
        // Ascending-effectiveness mode set: 0..mode_count as u8-like ids.
        let modes: Vec<u16> = (0..mode_count as u16).collect();
        let policy = Policy::new(pp).unwrap();
        let arr = ThermalControlArray::build(&modes, policy, n);

        prop_assert_eq!(arr.len(), n);
        prop_assert_eq!(arr.most_effective(), *modes.last().unwrap());
        // Non-descending effectiveness.
        prop_assert!(arr.cells().windows(2).all(|w| w[0] <= w[1]),
            "not effectiveness-ordered: {:?}", arr.cells());
        // Every cell holds a real mode.
        prop_assert!(arr.cells().iter().all(|m| modes.contains(m)));
        // g_1 is the least effective mode whenever the subarray exists.
        if arr.n_p() >= 2 {
            prop_assert_eq!(arr.least_effective(), modes[0]);
        }
        // Cells [n_p, N] all hold g_N.
        for i in arr.n_p()..=n {
            prop_assert_eq!(arr.mode_at(i), *modes.last().unwrap());
        }
    }

    /// Aggressiveness dominance: at every index, a smaller P_p commands a
    /// mode at least as effective as a larger P_p does.
    #[test]
    fn smaller_pp_dominates(pp_small in 1u32..=100, pp_delta in 0u32..=99) {
        let pp_large = (pp_small + pp_delta).min(100);
        let duties: Vec<u8> = (1..=100).collect();
        let small = ThermalControlArray::with_default_len(&duties, Policy::new(pp_small).unwrap());
        let large = ThermalControlArray::with_default_len(&duties, Policy::new(pp_large).unwrap());
        for i in 1..=100 {
            prop_assert!(
                small.mode_at(i) >= large.mode_at(i),
                "index {i}: P{pp_small} duty {} < P{pp_large} duty {}",
                small.mode_at(i), large.mode_at(i)
            );
        }
    }
}

// ----------------------------------------------------------------- windows

proptest! {
    /// Shift invariance: adding a constant to every sample leaves both
    /// deltas unchanged and shifts the average by that constant.
    #[test]
    fn window_shift_invariance(
        samples in prop::collection::vec(20.0f64..90.0, 40),
        shift in -10.0f64..10.0,
    ) {
        let mut a = TwoLevelWindow::default();
        let mut b = TwoLevelWindow::default();
        for &s in &samples {
            let ua = a.push(s);
            let ub = b.push(s + shift);
            match (ua, ub) {
                (Some(x), Some(y)) => {
                    prop_assert!((x.l1_delta - y.l1_delta).abs() < 1e-9);
                    prop_assert!((x.l1_average + shift - y.l1_average).abs() < 1e-9);
                    match (x.l2_delta, y.l2_delta) {
                        (Some(dx), Some(dy)) => prop_assert!((dx - dy).abs() < 1e-9),
                        (None, None) => {}
                        other => prop_assert!(false, "l2 presence mismatch: {other:?}"),
                    }
                }
                (None, None) => {}
                other => prop_assert!(false, "update presence mismatch: {other:?}"),
            }
        }
    }

    /// Perfectly alternating jitter of any amplitude produces zero l1 delta
    /// with the paper's even window length.
    #[test]
    fn window_cancels_alternating_jitter(base in 30.0f64..70.0, amp in 0.0f64..5.0) {
        let mut w = TwoLevelWindow::new(WindowConfig { l1_len: 4, l2_len: 5 });
        for i in 0..40 {
            let s = base + if i % 2 == 0 { amp } else { -amp };
            if let Some(u) = w.push(s) {
                prop_assert!(u.l1_delta.abs() < 1e-9, "jitter leaked: {}", u.l1_delta);
                if let Some(d2) = u.l2_delta {
                    prop_assert!(d2.abs() < 1e-9, "l2 jitter leaked: {d2}");
                }
            }
        }
    }

    /// A linear ramp of slope r per sample yields l1_delta = r·(l1_len/2)²
    /// for any even window length.
    #[test]
    fn window_ramp_delta_is_linear(r in -1.0f64..1.0, half in 1usize..=8) {
        let l1_len = half * 2;
        let mut w = TwoLevelWindow::new(WindowConfig { l1_len, l2_len: 5 });
        let expected = r * (half * half) as f64;
        for i in 0..(l1_len * 3) {
            if let Some(u) = w.push(50.0 + r * i as f64) {
                prop_assert!((u.l1_delta - expected).abs() < 1e-6,
                    "slope {r}, len {l1_len}: delta {} vs expected {expected}", u.l1_delta);
            }
        }
    }
}

// ------------------------------------------------------------------ physics

/// One `dt_s` step of the RC laws the lane tick applies, at a fixed power
/// and airflow, on `(die, sink)` temperatures.
fn rc_step(c: &ThermalConfig, (die, sink): &mut (f64, f64), dt_s: f64, power: f64, airflow: f64) {
    let g_sa = c.sink_conductance(airflow);
    let (g_ds, c_die, c_sink) =
        (c.die_sink_conductance_w_per_k, c.die_capacity_j_per_k, c.sink_capacity_j_per_k);
    let split = substeps_raw(dt_s, c_die, c_sink, g_ds, g_sa);
    euler_raw(die, sink, c.ambient_c, g_ds, c_die, c_sink, g_sa, power, split);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Steady state ordering: die ≥ sink ≥ ambient for any non-negative
    /// power and airflow, and the settled simulation matches the analytic
    /// fixed point.
    #[test]
    fn thermal_steady_state_ordering(power in 0.0f64..200.0, airflow in 0.0f64..=1.0) {
        let cfg = ThermalConfig::default();
        let (die, sink) = cfg.steady_state(power, airflow);
        prop_assert!(die >= sink - 1e-9);
        prop_assert!(sink >= cfg.ambient_c - 1e-9);

        let mut t = (die, sink);
        rc_step(&cfg, &mut t, 5.0, power, airflow);
        prop_assert!((t.0 - die).abs() < 0.01, "fixed point drifted");
    }

    /// More airflow never heats: die temperature is monotone non-increasing
    /// in airflow at any power.
    #[test]
    fn cooling_monotone_in_airflow(power in 1.0f64..150.0, a in 0.0f64..0.9) {
        let cfg = ThermalConfig::default();
        let (hot, _) = cfg.steady_state(power, a);
        let (cool, _) = cfg.steady_state(power, a + 0.1);
        prop_assert!(cool <= hot + 1e-9);
    }

    /// Integration stability: arbitrary tick widths never produce NaN or
    /// divergence below the analytic bound.
    #[test]
    fn thermal_integration_stable(
        dt in 0.001f64..5.0,
        power in 0.0f64..150.0,
        airflow in 0.0f64..=1.0,
    ) {
        let cfg = ThermalConfig::default();
        let (die_ss, _) = cfg.steady_state(power, airflow);
        let mut t = (cfg.ambient_c, cfg.ambient_c);
        for _ in 0..500 {
            rc_step(&cfg, &mut t, dt, power, airflow);
            prop_assert!(t.0.is_finite());
            prop_assert!(t.0 <= die_ss + 1.0, "overshoot past steady state");
            prop_assert!(t.0 >= cfg.ambient_c - 1.0);
        }
    }

    /// Duty-cycle encodings roundtrip from any fraction.
    #[test]
    fn duty_fraction_register_roundtrip(frac in -0.5f64..1.5) {
        let d = DutyCycle::from_fraction(frac);
        prop_assert!(d.percent() <= 100);
        prop_assert_eq!(DutyCycle::from_register(d.to_register()), d);
    }
}

// ---------------------------------------------------------------- governors

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CPUSPEED only ever requests ladder frequencies, regardless of the
    /// utilization stream.
    #[test]
    fn cpuspeed_stays_on_ladder(utils in prop::collection::vec(0.0f64..=1.0, 200)) {
        let ladder = [2400u32, 2200, 2000, 1800, 1000];
        let mut g = CpuSpeedGovernor::new(&ladder, CpuSpeedConfig::default());
        let mut changes = 0u64;
        for u in utils {
            if let Some(f) = g.observe(0.25, u) {
                prop_assert!(ladder.contains(&f), "off-ladder frequency {f}");
                changes += 1;
            }
            prop_assert!(ladder.contains(&g.current_frequency_mhz()));
        }
        prop_assert_eq!(changes, g.transition_count());
    }

    /// tDVFS only ever requests ladder frequencies and never overclocks
    /// past the original frequency, for any temperature stream.
    #[test]
    fn tdvfs_stays_on_ladder(temps in prop::collection::vec(30.0f64..80.0, 300)) {
        let ladder = [2400u32, 2200, 2000, 1800, 1000];
        let mut d = Tdvfs::with_defaults(&ladder, Policy::MODERATE);
        for t in temps {
            if let Some(e) = d.observe(t) {
                prop_assert!(ladder.contains(&e.frequency_mhz()));
            }
            prop_assert!(d.current_frequency_mhz() <= 2400);
            prop_assert!(ladder.contains(&d.current_frequency_mhz()));
        }
    }
}

// ---------------------------------------------------------------- workloads

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Phase workloads report utilization in [0,1] and monotone progress,
    /// for random programs and random speed factors.
    #[test]
    fn phase_workload_invariants(
        seed_phases in prop::collection::vec((0.05f64..2.0, 0.0f64..=1.0, 0.0f64..=1.0), 1..12),
        speed in 0.05f64..=1.0,
    ) {
        let phases: Vec<Phase> = seed_phases
            .iter()
            .map(|&(dur, util, sens)| Phase::compute(dur, util, sens))
            .collect();
        let mut w = PhaseWorkload::new(phases);
        let mut last_progress = 0.0;
        for _ in 0..20_000 {
            if w.is_finished() {
                break;
            }
            let out = w.advance(0.05, speed);
            prop_assert!((0.0..=1.0).contains(&out.utilization));
            prop_assert!((0.0..=1.0).contains(&out.activity));
            prop_assert!(w.progress() >= last_progress - 1e-12);
            prop_assert!(w.progress() <= 1.0);
            last_progress = w.progress();
        }
        prop_assert!(w.is_finished(), "workload must finish at speed {speed}");
        prop_assert_eq!(w.progress(), 1.0);
    }
}

// ------------------------------------------------------------------ metrics

proptest! {
    /// Summary invariants: min ≤ mean ≤ max, count matches, std_dev ≥ 0.
    #[test]
    fn summary_invariants(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(values.iter().copied());
        prop_assert_eq!(s.count, values.len());
        prop_assert!(s.min <= s.mean + 1e-6);
        prop_assert!(s.mean <= s.max + 1e-6);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// Time-series reductions agree with naive recomputation.
    #[test]
    fn time_series_reductions(values in prop::collection::vec(0.0f64..100.0, 2..100)) {
        let mut ts = TimeSeries::new("p", "");
        for (i, &v) in values.iter().enumerate() {
            ts.push(i as f64, v);
        }
        let naive_mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((ts.mean().unwrap() - naive_mean).abs() < 1e-9);
        // Uniform sampling: time-weighted mean within the value range.
        let twm = ts.time_weighted_mean().unwrap();
        prop_assert!(twm >= ts.summary().min - 1e-9 && twm <= ts.summary().max + 1e-9);
        // Transition count bounded by len-1.
        prop_assert!(ts.transition_count(0.0) < values.len());
    }
}
