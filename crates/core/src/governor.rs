//! CPUSPEED: the utilization-interval governor the paper compares against
//! (§4.3, Table 1, Figure 9; reference \[33\] — Carl Thompson's `cpuspeed`
//! daemon).
//!
//! CPUSPEED knows nothing about temperature: every interval it inspects the
//! CPU utilization accumulated since the last decision and
//!
//! * jumps straight to the **maximum** frequency when utilization is above
//!   the up-threshold (so compute phases run at full speed), and
//! * steps **down one** frequency when utilization is below the
//!   down-threshold (idle/communication phases).
//!
//! On phase-alternating MPI applications this produces a down/up transition
//! pair around every communication phase — the 101–139 transitions per run
//! Table 1 reports — without ever stabilizing temperature (Figure 9).

use serde::{Deserialize, Serialize};

use crate::actuator::FreqMhz;
use crate::config::{check, ConfigError, Rule, POSITIVE, UNIT};
use crate::rule;

/// CPUSPEED tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSpeedConfig {
    /// Decision interval in seconds.
    pub interval_s: f64,
    /// Utilization at or above which the governor jumps to maximum speed.
    pub up_threshold: f64,
    /// Utilization at or below which the governor steps down one speed.
    pub down_threshold: f64,
}

impl Default for CpuSpeedConfig {
    fn default() -> Self {
        Self { interval_s: 1.0, up_threshold: 0.85, down_threshold: 0.50 }
    }
}

impl CpuSpeedConfig {
    /// What [`CpuSpeedConfig::validate`] checks, in order.
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(Range interval_s, POSITIVE; "interval must be positive"),
        rule!(Range up_threshold, UNIT; "thresholds must be within [0, 1]"),
        rule!(Range down_threshold, UNIT; "thresholds must be within [0, 1]"),
        rule!(Below down_threshold < up_threshold; "down threshold must be below up threshold"),
        rule!(Finite interval_s; "interval_s must be finite"),
    ];

    /// Validates the configuration against [`CpuSpeedConfig::RULES`].
    /// Returns an error so scenario files carrying a bad governor block are
    /// rejected as data errors.
    ///
    /// # Errors
    /// Returns the first broken rule's error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(Self::RULES, self)
    }
}

/// The CPUSPEED governor.
#[derive(Debug, Clone)]
pub struct CpuSpeedGovernor {
    cfg: CpuSpeedConfig,
    /// Frequencies in descending order; index 0 is the fastest.
    freqs: Vec<FreqMhz>,
    current: usize,
    elapsed_s: f64,
    util_time: f64,
    transitions: u64,
}

impl CpuSpeedGovernor {
    /// Creates the governor at the highest frequency.
    pub fn new(frequencies_desc_mhz: &[FreqMhz], cfg: CpuSpeedConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let freqs = crate::actuator::dvfs_mode_set(frequencies_desc_mhz);
        Self { cfg, freqs, current: 0, elapsed_s: 0.0, util_time: 0.0, transitions: 0 }
    }

    /// Creates the governor with default tuning.
    pub fn with_defaults(frequencies_desc_mhz: &[FreqMhz]) -> Self {
        Self::new(frequencies_desc_mhz, CpuSpeedConfig::default())
    }

    /// The frequency the governor currently requests.
    pub fn current_frequency_mhz(&self) -> FreqMhz {
        self.freqs[self.current]
    }

    /// Number of frequency transitions issued so far.
    pub fn transition_count(&self) -> u64 {
        self.transitions
    }

    /// Accumulates `dt_s` seconds at the given utilization; when a decision
    /// interval completes, returns `Some(freq)` if the governor wants a
    /// *different* frequency.
    pub fn observe(&mut self, dt_s: f64, utilization: f64) -> Option<FreqMhz> {
        assert!(dt_s > 0.0, "time step must be positive");
        let u = utilization.clamp(0.0, 1.0);
        self.elapsed_s += dt_s;
        self.util_time += u * dt_s;
        if self.elapsed_s + 1e-9 < self.cfg.interval_s {
            return None;
        }
        let avg_util = self.util_time / self.elapsed_s;
        self.elapsed_s = 0.0;
        self.util_time = 0.0;

        let target = if avg_util >= self.cfg.up_threshold {
            0 // jump straight to max speed
        } else if avg_util <= self.cfg.down_threshold {
            (self.current + 1).min(self.freqs.len() - 1) // step down one
        } else {
            self.current
        };
        if target != self.current {
            self.current = target;
            self.transitions += 1;
            Some(self.freqs[target])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREQS: [FreqMhz; 5] = [2400, 2200, 2000, 1800, 1000];

    fn gov() -> CpuSpeedGovernor {
        CpuSpeedGovernor::with_defaults(&FREQS)
    }

    /// Feeds whole intervals of constant utilization.
    fn feed(g: &mut CpuSpeedGovernor, util: f64, intervals: usize) -> Vec<FreqMhz> {
        let mut out = Vec::new();
        for _ in 0..intervals * 4 {
            if let Some(f) = g.observe(0.25, util) {
                out.push(f);
            }
        }
        out
    }

    #[test]
    fn busy_cpu_stays_at_max() {
        let mut g = gov();
        assert!(feed(&mut g, 0.95, 20).is_empty());
        assert_eq!(g.current_frequency_mhz(), 2400);
        assert_eq!(g.transition_count(), 0);
    }

    #[test]
    fn idle_cpu_steps_down_one_per_interval() {
        let mut g = gov();
        let changes = feed(&mut g, 0.1, 3);
        assert_eq!(changes, vec![2200, 2000, 1800]);
    }

    #[test]
    fn idle_cpu_saturates_at_lowest() {
        let mut g = gov();
        let _ = feed(&mut g, 0.1, 20);
        assert_eq!(g.current_frequency_mhz(), 1000);
        assert!(feed(&mut g, 0.1, 5).is_empty(), "no transitions once at the floor");
    }

    #[test]
    fn busy_after_idle_jumps_straight_to_max() {
        let mut g = gov();
        let _ = feed(&mut g, 0.1, 4); // down to 1000
        assert_eq!(g.current_frequency_mhz(), 1000);
        let changes = feed(&mut g, 0.95, 1);
        assert_eq!(changes, vec![2400], "jump, not step-wise climb");
    }

    #[test]
    fn mid_band_utilization_holds() {
        let mut g = gov();
        let _ = feed(&mut g, 0.1, 2); // down to 2000
        assert!(feed(&mut g, 0.7, 10).is_empty(), "0.5 < u < 0.85 holds current speed");
        assert_eq!(g.current_frequency_mhz(), 2000);
    }

    #[test]
    fn phase_alternation_produces_transition_pairs() {
        // An MPI-like pattern: 3 busy intervals, 1 idle interval, repeated.
        // Each idle interval costs one step-down and the next busy interval
        // one jump-up ⇒ 2 transitions per cycle (the very first busy block
        // starts at max, and the final idle has no following busy block, so
        // 25 cycles yield 1 + 24·2 = 49).
        let mut g = gov();
        for _ in 0..25 {
            let _ = feed(&mut g, 0.95, 3);
            let _ = feed(&mut g, 0.2, 1);
        }
        assert_eq!(g.transition_count(), 49);
    }

    #[test]
    fn averages_within_interval() {
        let mut g = gov();
        // Half the interval at 1.0, half at 0.0 ⇒ average 0.5 ≤ down
        // threshold ⇒ step down.
        let mut changed = None;
        for i in 0..4 {
            let u = if i < 2 { 1.0 } else { 0.0 };
            changed = g.observe(0.25, u).or(changed);
        }
        assert_eq!(changed, Some(2200));
    }

    #[test]
    fn transition_count_accumulates() {
        let mut g = gov();
        let _ = feed(&mut g, 0.1, 2);
        let _ = feed(&mut g, 0.95, 1);
        assert_eq!(g.transition_count(), 3);
    }

    #[test]
    #[should_panic(expected = "down threshold")]
    fn inverted_thresholds_rejected() {
        let cfg = CpuSpeedConfig { up_threshold: 0.4, down_threshold: 0.6, ..Default::default() };
        let _ = CpuSpeedGovernor::new(&FREQS, cfg);
    }

    #[test]
    fn utilization_clamped() {
        let mut g = gov();
        // Absurd inputs are clamped rather than corrupting the average.
        for _ in 0..4 {
            let _ = g.observe(0.25, 7.0);
        }
        assert_eq!(g.current_frequency_mhz(), 2400);
    }
}
