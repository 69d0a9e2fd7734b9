//! PWM CPU fan model.
//!
//! The fan converts a PWM duty cycle into rotational speed with a first-order
//! lag (rotor inertia), stalls below a minimum duty, draws power cubically in
//! speed (fan affinity laws), and can fail (rotor seized) for fault-injection
//! experiments.
//!
//! Airflow delivered to the heatsink is modeled as proportional to RPM; the
//! thermal model turns it into convective conductance.

use crate::config::FanConfig;
use crate::units::DutyCycle;

/// Raw steady-state RPM law, shared verbatim by [`Fan::step`] and the SoA
/// batch path (`crate::batch`) so both evaluate the exact same expressions.
#[inline]
pub(crate) fn target_rpm_raw(
    failed: bool,
    duty_fraction: f64,
    stall_fraction: f64,
    max_rpm: f64,
) -> f64 {
    if failed {
        return 0.0;
    }
    if duty_fraction < stall_fraction {
        // Below the stall threshold the motor cannot sustain rotation.
        return 0.0;
    }
    max_rpm * duty_fraction
}

/// Per-step coefficient of the first-order rotor lag: the exact solution
/// over `dt_s` (stable for any `dt_s`). Shared verbatim by [`Fan::step`]
/// and the SoA batch path, which evaluates it only when `dt_s` changes.
#[inline]
pub(crate) fn lag_alpha_raw(dt_s: f64, time_constant_s: f64) -> f64 {
    1.0 - (-dt_s / time_constant_s).exp()
}

/// Raw first-order rotor lag with coefficient `alpha` from
/// [`lag_alpha_raw`], shared verbatim by [`Fan::step`] and the SoA batch
/// path.
#[inline]
pub(crate) fn step_raw(rpm: &mut f64, target: f64, alpha: f64) {
    *rpm += (target - *rpm) * alpha;
    if *rpm < 1.0 && target == 0.0 {
        *rpm = 0.0;
    }
}

/// Raw fan motor power (cubic in speed), shared verbatim by [`Fan::power_w`]
/// and the SoA batch path.
#[inline]
pub(crate) fn power_raw(rpm: f64, max_rpm: f64, max_power_w: f64) -> f64 {
    let speed_fraction = (rpm / max_rpm).clamp(0.0, 1.0);
    max_power_w * speed_fraction.powi(3)
}

/// A PWM-controlled axial fan.
#[derive(Debug, Clone)]
pub struct Fan {
    pub(crate) cfg: FanConfig,
    pub(crate) duty: DutyCycle,
    pub(crate) rpm: f64,
    pub(crate) failed: bool,
    pub(crate) pwm_stuck: bool,
}

impl Fan {
    /// Creates a fan at rest with 0 % duty.
    pub fn new(cfg: FanConfig) -> Self {
        Self { cfg, duty: DutyCycle::OFF, rpm: 0.0, failed: false, pwm_stuck: false }
    }

    /// Creates a fan already spinning at the equilibrium speed for `duty`.
    pub fn new_at_duty(cfg: FanConfig, duty: DutyCycle) -> Self {
        let mut f = Self::new(cfg);
        f.duty = duty;
        f.rpm = f.target_rpm();
        f
    }

    /// Commanded duty cycle.
    pub fn duty(&self) -> DutyCycle {
        self.duty
    }

    /// Sets the commanded duty cycle. The rotor approaches the new target
    /// speed over the spin-up time constant. Ignored while the PWM line is
    /// stuck ([`Fan::stick_pwm`]).
    pub fn set_duty(&mut self, duty: DutyCycle) {
        if self.pwm_stuck {
            return;
        }
        self.duty = duty;
    }

    /// Current rotor speed in RPM.
    pub fn rpm(&self) -> f64 {
        self.rpm
    }

    /// Rotor speed as a fraction of full speed, in `[0, 1]`.
    pub fn speed_fraction(&self) -> f64 {
        (self.rpm / self.cfg.max_rpm).clamp(0.0, 1.0)
    }

    /// Airflow fraction delivered to the heatsink, in `[0, 1]`
    /// (proportional to rotor speed).
    pub fn airflow(&self) -> f64 {
        self.speed_fraction()
    }

    /// Electrical power drawn by the fan motor in W (cubic in speed).
    pub fn power_w(&self) -> f64 {
        power_raw(self.rpm, self.cfg.max_rpm, self.cfg.max_power_w)
    }

    /// True when the rotor has seized.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Seizes the rotor: speed collapses to zero regardless of duty.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Repairs a failed rotor (it will spin back up toward the duty target).
    pub fn repair(&mut self) {
        self.failed = false;
    }

    /// Latches the PWM line at the current duty: the rotor keeps spinning,
    /// but [`Fan::set_duty`] is ignored until [`Fan::release_pwm`]. Models a
    /// wedged controller output stage (vs. [`Fan::fail`], a seized rotor).
    pub fn stick_pwm(&mut self) {
        self.pwm_stuck = true;
    }

    /// Releases a stuck PWM line; duty commands take effect again.
    pub fn release_pwm(&mut self) {
        self.pwm_stuck = false;
    }

    /// True while the PWM line is stuck.
    pub fn is_pwm_stuck(&self) -> bool {
        self.pwm_stuck
    }

    /// Steady-state RPM for the current duty command.
    fn target_rpm(&self) -> f64 {
        target_rpm_raw(self.failed, self.duty.fraction(), self.cfg.stall_fraction, self.cfg.max_rpm)
    }

    /// Advances rotor dynamics by `dt_s` seconds.
    pub fn step(&mut self, dt_s: f64) {
        assert!(dt_s > 0.0, "time step must be positive");
        let target = self.target_rpm();
        step_raw(&mut self.rpm, target, lag_alpha_raw(dt_s, self.cfg.time_constant_s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fan() -> Fan {
        Fan::new(FanConfig::default())
    }

    #[test]
    fn starts_at_rest() {
        let f = fan();
        assert_eq!(f.rpm(), 0.0);
        assert_eq!(f.duty(), DutyCycle::OFF);
        assert_eq!(f.power_w(), 0.0);
    }

    #[test]
    fn spins_up_toward_duty_target() {
        let mut f = fan();
        f.set_duty(DutyCycle::new(100));
        for _ in 0..200 {
            f.step(0.05);
        }
        assert!((f.rpm() - 4300.0).abs() < 10.0, "rpm {}", f.rpm());
        assert!((f.airflow() - 1.0).abs() < 0.01);
    }

    #[test]
    fn spinup_takes_roughly_the_time_constant() {
        let mut f = fan();
        f.set_duty(DutyCycle::new(100));
        f.step(1.5); // one time constant
        let frac = f.rpm() / 4300.0;
        assert!((frac - 0.632).abs() < 0.02, "after 1 tau: {frac}");
    }

    #[test]
    fn new_at_duty_is_at_equilibrium() {
        let f = Fan::new_at_duty(FanConfig::default(), DutyCycle::new(50));
        assert!((f.rpm() - 2150.0).abs() < 1e-9);
    }

    #[test]
    fn rpm_linear_in_duty_above_stall() {
        let f25 = Fan::new_at_duty(FanConfig::default(), DutyCycle::new(25));
        let f50 = Fan::new_at_duty(FanConfig::default(), DutyCycle::new(50));
        assert!((f50.rpm() / f25.rpm() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stalls_below_threshold() {
        let mut f = fan();
        f.set_duty(DutyCycle::new(3)); // below 4 % stall fraction
        for _ in 0..100 {
            f.step(0.1);
        }
        assert_eq!(f.rpm(), 0.0);
    }

    #[test]
    fn min_running_duty_spins() {
        let mut f = fan();
        f.set_duty(DutyCycle::new(5));
        for _ in 0..200 {
            f.step(0.1);
        }
        assert!(f.rpm() > 100.0);
    }

    #[test]
    fn power_is_cubic_in_speed() {
        let half = Fan::new_at_duty(FanConfig::default(), DutyCycle::new(50));
        let full = Fan::new_at_duty(FanConfig::default(), DutyCycle::new(100));
        assert!((full.power_w() / half.power_w() - 8.0).abs() < 1e-6);
        assert!((full.power_w() - 4.8).abs() < 1e-9);
    }

    #[test]
    fn failure_collapses_speed_and_repair_recovers() {
        let mut f = Fan::new_at_duty(FanConfig::default(), DutyCycle::new(80));
        assert!(f.rpm() > 3000.0);
        f.fail();
        assert!(f.is_failed());
        for _ in 0..300 {
            f.step(0.1);
        }
        assert_eq!(f.rpm(), 0.0, "failed fan must stop");
        assert_eq!(f.power_w(), 0.0);
        f.repair();
        for _ in 0..300 {
            f.step(0.1);
        }
        assert!((f.rpm() - 3440.0).abs() < 5.0, "repaired fan resumes, rpm {}", f.rpm());
    }

    #[test]
    fn stuck_pwm_freezes_duty_until_release() {
        let mut f = Fan::new_at_duty(FanConfig::default(), DutyCycle::new(40));
        f.stick_pwm();
        assert!(f.is_pwm_stuck());
        f.set_duty(DutyCycle::new(100));
        assert_eq!(f.duty().percent(), 40, "stuck PWM ignores commands");
        for _ in 0..100 {
            f.step(0.1);
        }
        assert!((f.rpm() - 0.4 * 4300.0).abs() < 5.0, "rotor holds the latched duty");
        f.release_pwm();
        f.set_duty(DutyCycle::new(100));
        assert_eq!(f.duty().percent(), 100);
        for _ in 0..200 {
            f.step(0.1);
        }
        assert!((f.rpm() - 4300.0).abs() < 10.0, "released fan tracks commands again");
    }

    #[test]
    fn large_step_is_stable() {
        let mut f = fan();
        f.set_duty(DutyCycle::new(100));
        f.step(1000.0);
        assert!((f.rpm() - 4300.0).abs() < 1.0);
        assert!(f.rpm() <= 4300.0 + 1e-9, "no overshoot");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dt() {
        fan().step(0.0);
    }
}
