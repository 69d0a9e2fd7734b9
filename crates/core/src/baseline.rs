//! The baseline fan-control policy the paper compares against (§4.1, §4.2,
//! Figure 6): the traditional static temperature→PWM map. Constant-speed
//! control is `control_plane::ConstantFanDaemon`.

use serde::{Deserialize, Serialize};

use crate::actuator::FanDuty;
use crate::config::Rule;
use crate::rule;

/// The traditional static fan curve (paper Figure 1): duty is `pwm_min`
/// below `t_min`, rises linearly to `pwm_max` at `t_max`, and saturates
/// there. It reacts only to the *absolute* temperature — no history, no
/// prediction — which is why Figure 6 shows it trailing the dynamic method.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticFanCurve {
    /// Duty commanded at or below `t_min_c`, percent.
    pub pwm_min: FanDuty,
    /// Duty ceiling, percent (the "maximum allowed fan speed" knob).
    pub pwm_max: FanDuty,
    /// Temperature at which the ramp starts, °C.
    pub t_min_c: f64,
    /// Temperature at which the ramp reaches `pwm_max`, °C.
    pub t_max_c: f64,
}

impl Default for StaticFanCurve {
    fn default() -> Self {
        // The paper's cluster: PWMmin = 10 %, Tmin = 38 °C, Tmax = 82 °C.
        Self { pwm_min: 10, pwm_max: 100, t_min_c: 38.0, t_max_c: 82.0 }
    }
}

impl StaticFanCurve {
    /// A default curve capped at `pwm_max` (Figure 6 caps it at 75 %).
    pub fn with_max(pwm_max: FanDuty) -> Self {
        Self { pwm_max: pwm_max.clamp(1, 100), ..Default::default() }
    }

    /// What a `SoftwareStatic` fan scheme checks of its curve, in order. An
    /// inverted or empty ramp is legal: the curve then pins the fan at
    /// `pwm_min`.
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(Finite t_min_c; "t_min_c must be finite"),
        rule!(Finite t_max_c; "t_max_c must be finite"),
    ];

    /// The duty for a given temperature.
    pub fn duty_for(&self, temp_c: f64) -> FanDuty {
        let lo = f64::from(self.pwm_min.min(self.pwm_max));
        let hi = f64::from(self.pwm_max);
        let duty = if temp_c <= self.t_min_c || self.t_max_c <= self.t_min_c {
            lo
        } else if temp_c >= self.t_max_c {
            hi
        } else {
            lo + (hi - lo) * (temp_c - self.t_min_c) / (self.t_max_c - self.t_min_c)
        };
        duty.round().clamp(0.0, 100.0) as FanDuty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_curve_matches_figure1() {
        let c = StaticFanCurve::default();
        assert_eq!(c.duty_for(20.0), 10);
        assert_eq!(c.duty_for(38.0), 10);
        assert_eq!(c.duty_for(82.0), 100);
        assert_eq!(c.duty_for(99.0), 100);
        assert_eq!(c.duty_for(60.0), 55); // midpoint of the ramp
    }

    #[test]
    fn static_curve_monotone() {
        let c = StaticFanCurve::default();
        let duties: Vec<FanDuty> = (20..100).map(|t| c.duty_for(f64::from(t))).collect();
        assert!(duties.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn capped_curve_saturates_at_cap() {
        let c = StaticFanCurve::with_max(75);
        assert_eq!(c.duty_for(95.0), 75);
        assert_eq!(c.duty_for(38.0), 10);
        // Ramp is re-scaled onto [10, 75].
        assert_eq!(c.duty_for(60.0), 43); // 10 + 65·(22/44) = 42.5 → 43
    }

    #[test]
    fn degenerate_range_pins_at_min() {
        let c = StaticFanCurve { t_min_c: 50.0, t_max_c: 50.0, ..Default::default() };
        assert_eq!(c.duty_for(80.0), 10);
    }

    #[test]
    fn cap_below_min_collapses() {
        let c = StaticFanCurve { pwm_min: 50, pwm_max: 20, ..Default::default() };
        // Pathological config: min is clamped down to max.
        assert_eq!(c.duty_for(30.0), 20);
        assert_eq!(c.duty_for(90.0), 20);
    }
}
