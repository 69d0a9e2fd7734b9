//! Wall-power meter model ("Watts up? Pro ES").
//!
//! The paper measures whole-system power at the wall outlet. The meter model
//! aggregates the DC loads (CPU + fan + board), divides by PSU efficiency to
//! obtain AC wall power, integrates energy continuously, and produces
//! 1 Hz-style sampled readings like the real instrument. The meter's
//! accumulators live in its node's physics-batch slot; this module holds
//! the law the lane tick applies to them.

use unitherm_metrics::RunningStats;

/// Raw meter accumulation over caller-owned state, so the batch can run it
/// over contiguous lanes: integrates `dt_s` seconds of the DC load
/// `dc_power_w` at the wall and returns a new sample (average wall power
/// over the sample window) each time a sampling period completes.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn observe_raw(
    psu_efficiency: f64,
    sample_period_s: f64,
    since_sample_s: &mut f64,
    window_energy_j: &mut f64,
    total_energy_j: &mut f64,
    total_time_s: &mut f64,
    stats: &mut RunningStats,
    last_sample_w: &mut Option<f64>,
    dt_s: f64,
    dc_power_w: f64,
) -> Option<f64> {
    assert!(dt_s > 0.0, "time step must be positive");
    assert!(dc_power_w >= 0.0, "power cannot be negative");
    let wall_w = dc_power_w / psu_efficiency;
    *total_energy_j += wall_w * dt_s;
    *total_time_s += dt_s;
    *window_energy_j += wall_w * dt_s;
    *since_sample_s += dt_s;
    if *since_sample_s + 1e-9 >= sample_period_s {
        let sample = *window_energy_j / *since_sample_s;
        *window_energy_j = 0.0;
        *since_sample_s = 0.0;
        stats.push(sample);
        *last_sample_w = Some(sample);
        Some(sample)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::node::Node;

    /// A meter's accumulators, as its lanes hold them.
    struct Meter {
        psu_efficiency: f64,
        period_s: f64,
        since_s: f64,
        window_j: f64,
        total_j: f64,
        total_s: f64,
        stats: RunningStats,
        last_w: Option<f64>,
    }

    impl Meter {
        fn new(psu_efficiency: f64, period_s: f64) -> Self {
            Self {
                psu_efficiency,
                period_s,
                since_s: 0.0,
                window_j: 0.0,
                total_j: 0.0,
                total_s: 0.0,
                stats: RunningStats::new(),
                last_w: None,
            }
        }

        fn observe(&mut self, dt_s: f64, dc_power_w: f64) -> Option<f64> {
            observe_raw(
                self.psu_efficiency,
                self.period_s,
                &mut self.since_s,
                &mut self.window_j,
                &mut self.total_j,
                &mut self.total_s,
                &mut self.stats,
                &mut self.last_w,
                dt_s,
                dc_power_w,
            )
        }
    }

    #[test]
    fn integrates_energy_through_psu() {
        let mut m = Meter::new(0.8, 1.0);
        for _ in 0..100 {
            m.observe(0.1, 80.0); // 80 W DC = 100 W wall
        }
        assert!((m.total_j - 1000.0).abs() < 1e-6);
        assert!((m.total_j / m.total_s - 100.0).abs() < 1e-9);
    }

    #[test]
    fn emits_samples_at_period() {
        let mut m = Meter::new(1.0, 1.0);
        let samples = (0..25).filter(|_| m.observe(0.25, 50.0).is_some()).count();
        assert_eq!(samples, 6, "25 × 0.25 s = 6.25 s ⇒ 6 one-second samples");
        assert_eq!(m.last_w, Some(50.0));
    }

    #[test]
    fn sample_averages_window() {
        let mut m = Meter::new(1.0, 1.0);
        // Half the window at 100 W, half at 0 W ⇒ 50 W sample.
        for _ in 0..5 {
            m.observe(0.1, 100.0);
        }
        let mut out = None;
        for _ in 0..5 {
            out = m.observe(0.1, 0.0).or(out);
        }
        let sample = out.expect("window completed");
        assert!((sample - 50.0).abs() < 1e-9, "sample {sample}");
    }

    #[test]
    fn stats_track_samples() {
        let mut m = Meter::new(1.0, 0.5);
        for i in 0..10 {
            m.observe(0.5, f64::from(i * 10));
        }
        assert_eq!(m.stats.count(), 10);
        assert!((m.stats.mean() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn a_fresh_node_reports_zero() {
        let mut n = Node::new(NodeConfig::default(), 1);
        let v = n.view();
        assert_eq!(v.average_power_w(), 0.0);
        assert_eq!(v.energy_j(), 0.0);
        assert_eq!(v.meter_samples().count(), 0);
    }

    #[test]
    #[should_panic(expected = "PSU efficiency")]
    fn rejects_bad_efficiency() {
        let mut cfg = NodeConfig::default();
        cfg.board.psu_efficiency = 0.0;
        let _ = Node::new(cfg, 1);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_power() {
        Meter::new(1.0, 1.0).observe(0.1, -5.0);
    }
}
