//! The unified mode-index controller (paper §3.2.2, last paragraph).
//!
//! The controller keeps a current index `i` into its thermal control array.
//! Each time the two-level window completes a round it computes a target
//! index:
//!
//! ```text
//!   i' = i + c · Δt        with  c = (N − 1) / (t_max − t_min)
//! ```
//!
//! using the level-one delta `Δt_l1` first; if that produces no index
//! change, it retries with the level-two delta `Δt_l2`. The result is
//! clamped to `[1, N]` and the indexed array cell is the target mode for the
//! next interval.
//!
//! A small deadband on `Δt_l1` (configurable; default ≈ 2 sensor noise
//! standard deviations) implements the paper's requirement that the
//! controller "is also intelligent not to respond to periods of jitter":
//! genuine sudden changes produce half-sum differences far above it, while
//! sensor jitter stays below.

use serde::{Deserialize, Serialize};

use crate::config::{check, ConfigError, Rule, NON_NEGATIVE};
use crate::control_array::{Policy, ThermalControlArray};
use crate::rule;
use crate::window::{TwoLevelWindow, WindowConfig};

/// The largest thermal control array a [`ControllerConfig`] may ask for
/// (the paper's is 100 entries).
pub const MAX_ARRAY_LEN: usize = 4_096;

/// Controller tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Thermal control array length `N`.
    pub array_len: usize,
    /// Lower bound of the safe operating temperature range (°C). The
    /// paper's platform: 38 °C (the ADT7467 Tmin).
    pub t_min_c: f64,
    /// Upper bound of the safe operating temperature range (°C). The
    /// paper's platform: 82 °C (the ADT7467 Tmax).
    pub t_max_c: f64,
    /// Two-level window geometry.
    pub window: WindowConfig,
    /// Deadband on the level-one delta, in °C: deltas with magnitude below
    /// this are treated as jitter and ignored at level one.
    pub l1_deadband_c: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            array_len: ThermalControlArray::<u8>::DEFAULT_LEN,
            t_min_c: 38.0,
            t_max_c: 82.0,
            window: WindowConfig::default(),
            l1_deadband_c: 0.75,
        }
    }
}

impl ControllerConfig {
    /// The index-per-degree gain `c = (N − 1)/(t_max − t_min)`.
    pub fn gain(&self) -> f64 {
        (self.array_len - 1) as f64 / (self.t_max_c - self.t_min_c)
    }

    /// What [`ControllerConfig::validate`] checks, in order, before the
    /// window's [`WindowConfig::RULES`].
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(AtLeast array_len, 1; "array length must be at least 1"),
        rule!(AtMost array_len, MAX_ARRAY_LEN; "array_len must be at most {max} (got {got})"),
        rule!(Below t_min_c < t_max_c; "temperature range must be positive ({lo} .. {hi})"),
        rule!(Range l1_deadband_c, NON_NEGATIVE; "deadband must be non-negative"),
        rule!(Finite t_min_c; "t_min_c must be finite"),
        rule!(Finite t_max_c; "t_max_c must be finite"),
        rule!(Finite l1_deadband_c; "l1_deadband_c must be finite"),
    ];

    /// Validates the configuration against [`ControllerConfig::RULES`],
    /// then the window geometry.
    ///
    /// # Errors
    /// Returns the first broken rule's error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(Self::RULES, self).and_then(|()| self.window.validate())
    }
}

/// Which prediction path produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionLevel {
    /// The level-one (sudden) delta moved the index.
    Level1,
    /// Level one saw no change; the level-two (gradual) delta moved it.
    Level2,
    /// A utilization-counter feedforward prediction moved it (the paper's
    /// §5 future work; see [`crate::feedforward`]).
    Feedforward,
}

/// A mode-change decision for the next interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decision<M> {
    /// New 1-based index into the control array.
    pub index: usize,
    /// The mode stored at that index.
    pub mode: M,
    /// Which window level triggered the change.
    pub level: DecisionLevel,
    /// The temperature delta (°C) that produced the change.
    pub delta_c: f64,
}

/// Per-level decision counters (for ablation studies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionStats {
    /// Window rounds observed.
    pub rounds: u64,
    /// Decisions triggered by the level-one delta.
    pub level1: u64,
    /// Decisions triggered by the level-two fallback.
    pub level2: u64,
}

/// The unified history-based controller over modes of type `M`.
#[derive(Debug, Clone)]
pub struct UnifiedController<M> {
    cfg: ControllerConfig,
    window: TwoLevelWindow,
    array: ThermalControlArray<M>,
    index: usize,
    stats: DecisionStats,
    /// When false, the level-two fallback is disabled (ablation switch).
    use_level2: bool,
    /// When false, the level-one delta is ignored (ablation switch).
    use_level1: bool,
}

impl<M: Copy + PartialEq + std::fmt::Debug> UnifiedController<M> {
    /// Creates a controller over the given physical mode set (ascending
    /// effectiveness) with the array filled per `policy`. The controller
    /// starts at index 1 (least effective mode).
    pub fn new(modes: &[M], policy: Policy, cfg: ControllerConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let array = ThermalControlArray::build(modes, policy, cfg.array_len);
        Self {
            cfg,
            window: TwoLevelWindow::new(cfg.window),
            array,
            index: 1,
            stats: DecisionStats::default(),
            use_level2: true,
            use_level1: true,
        }
    }

    /// Disables the level-two fallback (ablation: level-one-only control).
    pub fn with_level2_disabled(mut self) -> Self {
        self.use_level2 = false;
        self
    }

    /// Disables the level-one response (ablation: level-two-only control).
    pub fn with_level1_disabled(mut self) -> Self {
        self.use_level1 = false;
        self
    }

    /// The controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Current 1-based index.
    pub fn current_index(&self) -> usize {
        self.index
    }

    /// Current mode (the cell at the current index).
    pub fn current_mode(&self) -> M {
        self.array.mode_at(self.index)
    }

    /// Decision counters.
    pub fn stats(&self) -> DecisionStats {
        self.stats
    }

    /// Forces the index (used when an external event — e.g. a feedforward
    /// prediction — re-positions the controller). Clamped to `[1, N]`.
    pub fn force_index(&mut self, index: i64) {
        self.index = self.array.clamp_index(index);
    }

    /// Feeds one temperature sample. Returns a decision when a completed
    /// window round moves the mode index.
    pub fn observe(&mut self, temp_c: f64) -> Option<Decision<M>> {
        let update = self.window.push(temp_c)?;
        self.stats.rounds += 1;
        let c = self.cfg.gain();

        // Level one: sudden behaviour, with the jitter deadband.
        if self.use_level1 {
            let d1 = update.l1_delta;
            if d1.abs() >= self.cfg.l1_deadband_c {
                let target = self.array.clamp_index(self.index as i64 + (c * d1).round() as i64);
                if target != self.index {
                    self.index = target;
                    self.stats.level1 += 1;
                    return Some(Decision {
                        index: target,
                        mode: self.array.mode_at(target),
                        level: DecisionLevel::Level1,
                        delta_c: d1,
                    });
                }
            }
        }

        // Level two: gradual behaviour, only when level one changed nothing.
        if self.use_level2 {
            if let Some(d2) = update.l2_delta {
                let target = self.array.clamp_index(self.index as i64 + (c * d2).round() as i64);
                if target != self.index {
                    self.index = target;
                    self.stats.level2 += 1;
                    return Some(Decision {
                        index: target,
                        mode: self.array.mode_at(target),
                        level: DecisionLevel::Level2,
                        delta_c: d2,
                    });
                }
            }
        }
        None
    }

    /// [`UnifiedController::observe`] with a feedforward prediction (see
    /// [`crate::feedforward`]). The reactive decision is taken first; only
    /// when the measured history moved nothing does a predicted swing
    /// `ΔT` step the index by `round(c · ΔT)`.
    pub fn observe_with_prediction(
        &mut self,
        temp_c: f64,
        predicted_delta_c: Option<f64>,
    ) -> Option<Decision<M>> {
        let reactive = self.observe(temp_c);
        if reactive.is_some() {
            return reactive;
        }
        let delta_c = predicted_delta_c?;
        let before = self.index;
        self.force_index(before as i64 + (self.cfg.gain() * delta_c).round() as i64);
        if self.index == before {
            return None;
        }
        Some(Decision {
            index: self.index,
            mode: self.current_mode(),
            level: DecisionLevel::Feedforward,
            delta_c,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fan duties 1..=100 as the mode set.
    fn duties() -> Vec<u8> {
        (1..=100).collect()
    }

    fn controller(pp: u32) -> UnifiedController<u8> {
        UnifiedController::new(&duties(), Policy::new(pp).unwrap(), ControllerConfig::default())
    }

    /// Climbs 0.5 °C per sample from 40 to 60 °C, then holds there.
    fn heating_curve() -> impl Iterator<Item = f64> {
        (0..200).map(|i| (40.0 + 0.5 * f64::from(i)).min(60.0))
    }

    /// Feeds a flat series of rounds.
    fn feed_flat(c: &mut UnifiedController<u8>, temp: f64, rounds: usize) -> Vec<Decision<u8>> {
        let mut out = Vec::new();
        for _ in 0..rounds * 4 {
            if let Some(d) = c.observe(temp) {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn gain_matches_paper_formula() {
        let cfg = ControllerConfig::default();
        assert!((cfg.gain() - 99.0 / 44.0).abs() < 1e-12);
    }

    #[test]
    fn starts_at_least_effective_mode() {
        let c = controller(50);
        assert_eq!(c.current_index(), 1);
        assert_eq!(c.current_mode(), 1);
    }

    #[test]
    fn flat_temperature_produces_no_decisions() {
        let mut c = controller(50);
        let decisions = feed_flat(&mut c, 45.0, 20);
        assert!(decisions.is_empty(), "{decisions:?}");
        assert_eq!(c.stats().rounds, 20);
    }

    #[test]
    fn sudden_rise_triggers_level1() {
        let mut c = controller(50);
        // Warm-up round, then a +6 °C sudden step inside one window.
        let _ = feed_flat(&mut c, 45.0, 1);
        c.observe(45.0);
        c.observe(45.0);
        c.observe(51.0);
        let d = c.observe(51.0).expect("sudden step must trigger");
        assert_eq!(d.level, DecisionLevel::Level1);
        assert_eq!(d.delta_c, 12.0);
        // Index moved by round(c·12) = round(2.25·12) = 27.
        assert_eq!(d.index, 1 + 27);
        assert_eq!(c.current_mode(), c.array.mode_at(28));
    }

    #[test]
    fn sudden_drop_moves_index_down() {
        let mut c = controller(50);
        c.force_index(60);
        c.observe(55.0);
        c.observe(55.0);
        c.observe(49.0);
        let d = c.observe(49.0).expect("sudden drop must trigger");
        assert!(d.index < 60, "index should fall, got {}", d.index);
        assert_eq!(d.level, DecisionLevel::Level1);
    }

    #[test]
    fn jitter_within_deadband_is_ignored_at_level1() {
        let mut c = controller(50);
        // Alternating ±0.25 °C jitter: l1 deltas stay below the 0.75 °C
        // deadband and l2 deltas are ~0, so no decisions.
        for i in 0..200 {
            let t = 45.0 + if i % 2 == 0 { 0.25 } else { -0.25 };
            assert_eq!(c.observe(t), None, "sample {i}");
        }
        assert_eq!(c.current_index(), 1);
    }

    #[test]
    fn gradual_ramp_triggers_level2() {
        let mut c = controller(50);
        // 0.04 °C per sample: per-window Δ_l1 = 0.16 (below deadband), but
        // the level-two front/rear delta accumulates 4·0.64 ≈ 0.64 °C over
        // 5 rounds and eventually moves the index.
        let mut decisions = Vec::new();
        for i in 0..200 {
            let t = 45.0 + 0.04 * f64::from(i);
            if let Some(d) = c.observe(t) {
                decisions.push(d);
            }
        }
        assert!(!decisions.is_empty(), "gradual ramp must eventually trigger");
        assert!(
            decisions.iter().all(|d| d.level == DecisionLevel::Level2),
            "ramp below the deadband must be handled at level 2: {decisions:?}"
        );
        assert!(c.current_index() > 1);
    }

    #[test]
    fn level1_preferred_over_level2() {
        let mut c = controller(50);
        // Build level-2 history with a ramp, then a sudden step: the step
        // must be attributed to level 1.
        for i in 0..16 {
            let _ = c.observe(45.0 + 0.1 * f64::from(i));
        }
        c.observe(47.0);
        c.observe(47.0);
        c.observe(53.0);
        let d = c.observe(53.0).expect("step triggers");
        assert_eq!(d.level, DecisionLevel::Level1);
    }

    #[test]
    fn index_clamps_at_both_ends() {
        let mut c = controller(50);
        // Huge downward step from index 1 stays at 1 (no decision: no change).
        c.observe(60.0);
        c.observe(60.0);
        c.observe(20.0);
        assert_eq!(c.observe(20.0), None);
        assert_eq!(c.current_index(), 1);
        // Huge upward steps pin at N.
        for step in 0..10 {
            let base = 40.0 + f64::from(step) * 10.0;
            c.observe(base);
            c.observe(base);
            c.observe(base + 20.0);
            c.observe(base + 20.0);
        }
        assert_eq!(c.current_index(), 100);
        // Further upward steps cannot push the index past N.
        c.observe(95.0);
        c.observe(95.0);
        c.observe(99.0);
        let _ = c.observe(99.0);
        assert!(c.current_index() <= 100);
    }

    #[test]
    fn aggressive_policy_reaches_higher_duty_for_same_stimulus() {
        // A sudden step, and sustained heating (which may pin both arrays
        // at their most effective cell, hence "at least").
        let step = [45.0, 45.0, 50.0, 50.0];
        let heating: Vec<f64> = heating_curve().collect();
        for (temps, strictly) in [(&step[..], true), (&heating[..], false)] {
            let mut agg = controller(25);
            let mut weak = controller(75);
            for c in [&mut agg, &mut weak] {
                for &t in temps {
                    let _ = c.observe(t);
                }
            }
            assert_eq!(agg.current_index(), weak.current_index(), "same index motion");
            let (a, w) = (agg.current_mode(), weak.current_mode());
            assert!(
                if strictly { a > w } else { a >= w },
                "aggressive array maps the index to more duty: {a} vs {w}"
            );
        }
    }

    #[test]
    fn sustained_heating_raises_the_mode_and_cooling_lowers_it() {
        let mut c = controller(50);
        for t in heating_curve() {
            let _ = c.observe(t);
        }
        let high = c.current_mode();
        assert!(high > 50, "duty after sustained heating: {high}");
        for i in 0..200 {
            let _ = c.observe((60.0 - 0.5 * f64::from(i)).max(42.0));
        }
        assert!(c.current_mode() < high, "{} < {high}", c.current_mode());
    }

    #[test]
    fn level2_fallback_can_be_disabled() {
        let mut c = controller(50).with_level2_disabled();
        for i in 0..200 {
            let t = 45.0 + 0.04 * f64::from(i);
            assert_eq!(c.observe(t), None, "level-2-disabled controller must stay put");
        }
        assert_eq!(c.current_index(), 1);
    }

    #[test]
    fn level1_can_be_disabled() {
        let mut c = controller(50).with_level1_disabled();
        c.observe(45.0);
        c.observe(45.0);
        c.observe(51.0);
        // The sudden step lands in the level-2 average as well; a decision
        // may fire but must be attributed to level 2.
        if let Some(d) = c.observe(51.0) {
            assert_eq!(d.level, DecisionLevel::Level2);
        }
        let s = c.stats();
        assert_eq!(s.level1, 0);
    }

    #[test]
    fn force_index_clamps() {
        let mut c = controller(50);
        c.force_index(-3);
        assert_eq!(c.current_index(), 1);
        c.force_index(500);
        assert_eq!(c.current_index(), 100);
    }

    #[test]
    #[should_panic(expected = "temperature range")]
    fn invalid_range_rejected() {
        let cfg = ControllerConfig { t_min_c: 80.0, t_max_c: 40.0, ..Default::default() };
        let _ = UnifiedController::new(&duties(), Policy::MODERATE, cfg);
    }

    #[test]
    fn stats_count_levels_separately() {
        let mut c = controller(50);
        // One sudden event.
        c.observe(45.0);
        c.observe(45.0);
        c.observe(51.0);
        c.observe(51.0);
        // Then a long gradual decline handled by level 2.
        for i in 0..200 {
            let t = 51.0 - 0.04 * f64::from(i);
            let _ = c.observe(t);
        }
        let s = c.stats();
        assert!(s.level1 >= 1);
        assert!(s.level2 >= 1);
        assert_eq!(s.rounds, 1 + 50);
    }
}
