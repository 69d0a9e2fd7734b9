//! Utilization feedforward: the paper's §5 future work, implemented.
//!
//! > "In addition, we are considering integration of hardware counter and
//! > data in our techniques to improve our prediction mechanisms."
//!
//! The two-level window is purely reactive: a load step must first heat the
//! die, pass through the sensor, and fill a window round before the fan
//! responds — several seconds of lag. But the *cause* of Type-I sudden
//! behaviour is visible instantly in the CPU's utilization counters. The
//! [`UtilizationFeedforward`] predictor watches per-round utilization
//! averages and, on a sustained jump, predicts the imminent die-temperature
//! swing (`ΔT ≈ gain · Δu`, with the gain calibrated to the dynamic power
//! excursion across the die–sink thermal resistance).
//! [`UnifiedController::observe_with_prediction`] folds that prediction
//! into the standard mode-index rule, moving the fan *before* the sensor
//! sees anything; [`FeedforwardFanController`] pairs the two over the fan
//! duty set.
//!
//! Measured history always wins: the feedforward term is consulted only on
//! rounds where the reactive controller saw nothing, so a mispredicting
//! feedforward cannot fight the temperature feedback loop.

use serde::{Deserialize, Serialize};

use crate::actuator::{fan_mode_set, FanDuty};
use crate::config::{check, ConfigError, Rule, NON_NEGATIVE};
use crate::control_array::Policy;
use crate::controller::{ControllerConfig, Decision, UnifiedController};
use crate::rule;
use crate::tdvfs::MAX_ROUND_LEN;

/// Feedforward predictor tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeedforwardConfig {
    /// Predicted die-temperature swing in °C per unit utilization step.
    /// Physically ≈ `P_dyn_max · R_die_sink` (≈ 48 W · 0.12 K/W ≈ 5.8 °C
    /// on the reproduced platform).
    pub gain_c_per_util: f64,
    /// Minimum per-round utilization change to act on; smaller changes are
    /// treated as scheduler noise.
    pub deadband_util: f64,
    /// Utilization samples averaged per prediction round. Unlike the
    /// temperature path — which needs a 4-sample window to separate signal
    /// from sensor noise — utilization counters are exact, so the default
    /// acts on every 250 ms sample. That sub-round latency is precisely the
    /// advantage hardware-counter prediction buys over the reactive window.
    pub samples_per_round: usize,
}

impl Default for FeedforwardConfig {
    fn default() -> Self {
        Self { gain_c_per_util: 5.8, deadband_util: 0.25, samples_per_round: 1 }
    }
}

impl FeedforwardConfig {
    /// What [`FeedforwardConfig::validate`] checks, in order.
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(AtLeast samples_per_round, 1; "need at least one sample per round"),
        rule!(AtMost samples_per_round, MAX_ROUND_LEN;
            "samples_per_round must be at most {max} (got {got})"),
        rule!(Range gain_c_per_util, NON_NEGATIVE; "gain must be non-negative"),
        rule!(Range deadband_util, NON_NEGATIVE; "deadband must be non-negative"),
        rule!(Finite gain_c_per_util; "gain_c_per_util must be finite"),
        rule!(Finite deadband_util; "deadband_util must be finite"),
    ];

    /// Validates the configuration against [`FeedforwardConfig::RULES`].
    /// Returns an error so scenario files carrying a bad feedforward block
    /// are rejected as data errors.
    ///
    /// # Errors
    /// Returns the first broken rule's error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(Self::RULES, self)
    }
}

/// The utilization-counter predictor.
#[derive(Debug, Clone)]
pub struct UtilizationFeedforward {
    cfg: FeedforwardConfig,
    buf: Vec<f64>,
    last_round_avg: Option<f64>,
}

impl UtilizationFeedforward {
    /// Creates the predictor.
    pub fn new(cfg: FeedforwardConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self { cfg, buf: Vec::with_capacity(cfg.samples_per_round), last_round_avg: None }
    }

    /// Feeds one utilization sample; at each completed round, returns the
    /// predicted temperature delta (°C) if the round-to-round utilization
    /// change exceeds the deadband.
    pub fn observe(&mut self, utilization: f64) -> Option<f64> {
        self.buf.push(utilization.clamp(0.0, 1.0));
        if self.buf.len() < self.cfg.samples_per_round {
            return None;
        }
        let avg = self.buf.iter().sum::<f64>() / self.buf.len() as f64;
        self.buf.clear();
        let prev = self.last_round_avg.replace(avg)?;
        let delta_u = avg - prev;
        if delta_u.abs() < self.cfg.deadband_util {
            return None;
        }
        Some(delta_u * self.cfg.gain_c_per_util)
    }
}

/// A dynamic fan controller augmented with utilization feedforward.
#[derive(Debug, Clone)]
pub struct FeedforwardFanController {
    ctl: UnifiedController<FanDuty>,
    predictor: UtilizationFeedforward,
}

impl FeedforwardFanController {
    /// Creates the augmented controller over the duty set `1..=max_duty`.
    pub fn new(
        policy: Policy,
        max_duty: FanDuty,
        controller_cfg: ControllerConfig,
        ff_cfg: FeedforwardConfig,
    ) -> Self {
        Self {
            ctl: UnifiedController::new(&fan_mode_set(max_duty), policy, controller_cfg),
            predictor: UtilizationFeedforward::new(ff_cfg),
        }
    }

    /// Creates with default tuning.
    pub fn with_defaults(policy: Policy, max_duty: FanDuty) -> Self {
        Self::new(policy, max_duty, ControllerConfig::default(), FeedforwardConfig::default())
    }

    /// The duty the controller currently commands.
    pub fn current_duty(&self) -> FanDuty {
        self.ctl.current_mode()
    }

    /// Feeds one (temperature, utilization) sample pair. The reactive
    /// decision is preferred; the feedforward prediction is consulted only
    /// when the measured history saw nothing this round.
    pub fn observe(&mut self, temp_c: f64, utilization: f64) -> Option<Decision<FanDuty>> {
        let prediction = self.predictor.observe(utilization);
        self.ctl.observe_with_prediction(temp_c, prediction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::DecisionLevel;

    fn controller() -> FeedforwardFanController {
        FeedforwardFanController::with_defaults(Policy::MODERATE, 100)
    }

    #[test]
    fn predictor_fires_on_load_step_within_one_sample() {
        let mut p = UtilizationFeedforward::new(FeedforwardConfig::default());
        // First sample establishes the baseline; the step is predicted on
        // the very next sample — 3 samples earlier than a 4-sample window.
        assert_eq!(p.observe(0.1), None);
        let delta = p.observe(1.0).expect("step must be predicted");
        assert!((delta - 0.9 * 5.8).abs() < 1e-9, "predicted {delta}");
    }

    #[test]
    fn multi_sample_rounds_average_first() {
        let cfg = FeedforwardConfig { samples_per_round: 4, ..Default::default() };
        let mut p = UtilizationFeedforward::new(cfg);
        for _ in 0..4 {
            assert_eq!(p.observe(0.1), None);
        }
        let mut pred = None;
        for _ in 0..4 {
            pred = p.observe(1.0).or(pred);
        }
        let delta = pred.expect("step must be predicted");
        assert!((delta - 0.9 * 5.8).abs() < 1e-9, "predicted {delta}");
    }

    #[test]
    fn predictor_ignores_small_changes() {
        let mut p = UtilizationFeedforward::new(FeedforwardConfig::default());
        for i in 0..40 {
            let u = 0.5 + if i % 8 < 4 { 0.05 } else { -0.05 };
            assert_eq!(p.observe(u), None, "sample {i}");
        }
    }

    #[test]
    fn predictor_fires_on_load_drop_with_negative_delta() {
        let mut p = UtilizationFeedforward::new(FeedforwardConfig::default());
        for _ in 0..4 {
            let _ = p.observe(1.0);
        }
        let mut pred = None;
        for _ in 0..4 {
            pred = p.observe(0.1).or(pred);
        }
        assert!(pred.expect("drop predicted") < 0.0);
    }

    #[test]
    fn feedforward_moves_fan_before_temperature_does() {
        let mut ctl = controller();
        // Temperature flat at 45 °C; utilization steps 0.1 → 1.0. The
        // reactive path sees nothing, the feedforward path must act.
        for _ in 0..4 {
            assert!(ctl.observe(45.0, 0.1).is_none());
        }
        let mut decision = None;
        for _ in 0..4 {
            decision = ctl.observe(45.0, 1.0).or(decision);
        }
        let d = decision.expect("feedforward decision");
        assert_eq!(d.level, DecisionLevel::Feedforward);
        assert!(ctl.current_duty() > 1, "fan pre-spun to {}%", ctl.current_duty());
    }

    #[test]
    fn measured_decision_takes_precedence() {
        let mut ctl = controller();
        // A temperature window completes on the same sample where the
        // utilization steps: the decision must be attributed to the
        // measured (level-1) path, not the prediction.
        let _ = ctl.observe(45.0, 0.1);
        let _ = ctl.observe(45.0, 0.1);
        let _ = ctl.observe(51.0, 0.1);
        let d = ctl.observe(51.0, 1.0).expect("window round fires");
        assert_eq!(d.level, DecisionLevel::Level1);
    }

    #[test]
    fn load_drop_spins_fan_back_down() {
        let mut ctl = controller();
        for _ in 0..4 {
            let _ = ctl.observe(45.0, 0.1);
        }
        for _ in 0..4 {
            let _ = ctl.observe(45.0, 1.0);
        }
        let spun_up = ctl.current_duty();
        assert!(spun_up > 1);
        for _ in 0..4 {
            let _ = ctl.observe(45.0, 0.1);
        }
        assert!(ctl.current_duty() < spun_up, "{} < {spun_up}", ctl.current_duty());
    }

    #[test]
    fn zero_gain_disables_feedforward() {
        let cfg = FeedforwardConfig { gain_c_per_util: 0.0, ..Default::default() };
        let mut ctl =
            FeedforwardFanController::new(Policy::MODERATE, 100, ControllerConfig::default(), cfg);
        for _ in 0..4 {
            let _ = ctl.observe(45.0, 0.1);
        }
        for _ in 0..8 {
            assert!(ctl.observe(45.0, 1.0).is_none());
        }
    }

    #[test]
    fn a_round_above_the_cap_is_a_named_error() {
        let cfg = FeedforwardConfig { samples_per_round: MAX_ROUND_LEN + 1, ..Default::default() };
        assert!(cfg.validate().unwrap_err().message().starts_with("samples_per_round must be"));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_round_rejected() {
        let cfg = FeedforwardConfig { samples_per_round: 0, ..Default::default() };
        let _ = UtilizationFeedforward::new(cfg);
    }
}
