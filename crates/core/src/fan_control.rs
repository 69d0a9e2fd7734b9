//! Dynamic out-of-band fan control (paper §4.2).
//!
//! A thin, fan-specific wrapper over the [`UnifiedController`]: the mode set
//! is the paper's discretization of continuous fan speed into distinct duty
//! cycles from 1 % up to a configurable maximum-allowed PWM duty (the knob
//! Figures 6, 7, 9 and 10 use to emulate fans of different capability).

use crate::actuator::{fan_mode_set, FanDuty};
use crate::control_array::Policy;
use crate::controller::{ControllerConfig, Decision, UnifiedController};

/// The dynamic, history-based fan-speed controller.
///
/// ```
/// use unitherm_core::control_array::Policy;
/// use unitherm_core::fan_control::DynamicFanController;
///
/// let mut fan = DynamicFanController::with_defaults(Policy::MODERATE, 100);
/// assert_eq!(fan.current_duty(), 1);
/// // A sudden +6 °C step inside one window round raises the duty.
/// for temp in [45.0, 45.0, 51.0, 51.0] {
///     let _ = fan.observe(temp);
/// }
/// assert!(fan.current_duty() > 40);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicFanController {
    inner: UnifiedController<FanDuty>,
}

impl DynamicFanController {
    /// Creates a fan controller with the given policy and maximum allowed
    /// duty (100 for an uncapped fan).
    pub fn new(policy: Policy, max_duty: FanDuty, cfg: ControllerConfig) -> Self {
        Self { inner: UnifiedController::new(&fan_mode_set(max_duty), policy, cfg) }
    }

    /// Creates a controller with the default configuration (N = 100,
    /// t ∈ [38, 82] °C, 4/5 window).
    pub fn with_defaults(policy: Policy, max_duty: FanDuty) -> Self {
        Self::new(policy, max_duty, ControllerConfig::default())
    }

    /// The duty the controller currently commands.
    pub fn current_duty(&self) -> FanDuty {
        self.inner.current_mode()
    }

    /// Feeds one temperature sample; returns a new duty decision when the
    /// window completes a round and moves the index.
    pub fn observe(&mut self, temp_c: f64) -> Option<Decision<FanDuty>> {
        self.inner.observe(temp_c)
    }

    /// Mutable access to the generic controller (feedforward
    /// re-positioning).
    pub fn controller_mut(&mut self) -> &mut UnifiedController<FanDuty> {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the controller with a synthetic heating curve and returns the
    /// final duty.
    fn drive_heating(ctl: &mut DynamicFanController) -> FanDuty {
        // Temperature climbs 0.5 °C per sample from 40 to 60 then holds.
        for i in 0..200 {
            let t = (40.0 + 0.5 * f64::from(i)).min(60.0);
            let _ = ctl.observe(t);
        }
        ctl.current_duty()
    }

    #[test]
    fn heating_drives_duty_up() {
        let mut ctl = DynamicFanController::with_defaults(Policy::MODERATE, 100);
        assert_eq!(ctl.current_duty(), 1);
        let final_duty = drive_heating(&mut ctl);
        assert!(final_duty > 50, "duty after sustained heating: {final_duty}");
    }

    #[test]
    fn cooling_drives_duty_back_down() {
        let mut ctl = DynamicFanController::with_defaults(Policy::MODERATE, 100);
        let high = drive_heating(&mut ctl);
        for i in 0..200 {
            let t = (60.0 - 0.5 * f64::from(i)).max(42.0);
            let _ = ctl.observe(t);
        }
        assert!(ctl.current_duty() < high, "{} < {high}", ctl.current_duty());
    }

    #[test]
    fn respects_max_duty_cap() {
        let mut ctl = DynamicFanController::with_defaults(Policy::AGGRESSIVE, 25);
        let final_duty = drive_heating(&mut ctl);
        assert!(final_duty <= 25);
    }

    #[test]
    fn aggressive_policy_cools_harder_than_weak() {
        let mut agg = DynamicFanController::with_defaults(Policy::AGGRESSIVE, 100);
        let mut weak = DynamicFanController::with_defaults(Policy::WEAK, 100);
        let da = drive_heating(&mut agg);
        let dw = drive_heating(&mut weak);
        assert!(da >= dw, "aggressive duty {da} vs weak {dw}");
    }

    #[test]
    fn jitter_does_not_move_duty() {
        let mut ctl = DynamicFanController::with_defaults(Policy::MODERATE, 100);
        for i in 0..400 {
            let t = 45.0 + if i % 2 == 0 { 0.3 } else { -0.3 };
            let _ = ctl.observe(t);
        }
        assert_eq!(ctl.current_duty(), 1, "pure jitter must not ratchet the fan");
    }
}
