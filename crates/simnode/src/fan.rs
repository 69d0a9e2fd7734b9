//! PWM CPU fan model.
//!
//! The fan converts a PWM duty cycle into rotational speed with a first-order
//! lag (rotor inertia), stalls below a minimum duty, draws power cubically in
//! speed (fan affinity laws), and can fail (rotor seized) for fault-injection
//! experiments.
//!
//! Airflow delivered to the heatsink is modeled as proportional to RPM; the
//! thermal model turns it into convective conductance. The rotor's state
//! (duty, speed, fault latches) lives in its node's physics-batch slot;
//! this module holds the laws the lane tick applies to it.

/// Raw steady-state RPM law.
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
/// over `dt_s` (stable for any `dt_s`). The lanes evaluate it only when
/// `dt_s` changes.
#[inline]
pub(crate) fn lag_alpha_raw(dt_s: f64, time_constant_s: f64) -> f64 {
    1.0 - (-dt_s / time_constant_s).exp()
}

/// Raw first-order rotor lag with coefficient `alpha` from
/// [`lag_alpha_raw`].
#[inline]
pub(crate) fn step_raw(rpm: &mut f64, target: f64, alpha: f64) {
    *rpm += (target - *rpm) * alpha;
    if *rpm < 1.0 && target == 0.0 {
        *rpm = 0.0;
    }
}

/// Raw fan motor power (cubic in speed).
#[inline]
pub(crate) fn power_raw(rpm: f64, max_rpm: f64, max_power_w: f64) -> f64 {
    let speed_fraction = (rpm / max_rpm).clamp(0.0, 1.0);
    max_power_w * speed_fraction.powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FanConfig;
    use crate::units::DutyCycle;

    /// Advances a rotor at `rpm` by `steps` steps of `dt_s` toward the
    /// target for `duty` (a seized rotor when `failed`).
    fn spin(mut rpm: f64, duty: u8, failed: bool, dt_s: f64, steps: usize) -> f64 {
        let c = FanConfig::default();
        let target =
            target_rpm_raw(failed, DutyCycle::new(duty).fraction(), c.stall_fraction, c.max_rpm);
        for _ in 0..steps {
            step_raw(&mut rpm, target, lag_alpha_raw(dt_s, c.time_constant_s));
        }
        rpm
    }

    /// The equilibrium speed for `duty`.
    fn settled(duty: u8) -> f64 {
        let c = FanConfig::default();
        target_rpm_raw(false, DutyCycle::new(duty).fraction(), c.stall_fraction, c.max_rpm)
    }

    fn power(rpm: f64) -> f64 {
        let c = FanConfig::default();
        power_raw(rpm, c.max_rpm, c.max_power_w)
    }

    #[test]
    fn a_resting_rotor_draws_nothing() {
        assert_eq!(power(0.0), 0.0);
        assert_eq!(spin(0.0, 0, false, 0.05, 10), 0.0);
    }

    #[test]
    fn spins_up_toward_duty_target() {
        let rpm = spin(0.0, 100, false, 0.05, 200);
        assert!((rpm - 4300.0).abs() < 10.0, "rpm {rpm}");
        assert!((rpm / 4300.0 - 1.0).abs() < 0.01);
    }

    #[test]
    fn spinup_takes_roughly_the_time_constant() {
        let frac = spin(0.0, 100, false, 1.5, 1) / 4300.0; // one time constant
        assert!((frac - 0.632).abs() < 0.02, "after 1 tau: {frac}");
    }

    #[test]
    fn the_duty_target_is_an_equilibrium() {
        assert!((settled(50) - 2150.0).abs() < 1e-9);
        assert_eq!(spin(settled(50), 50, false, 0.05, 100).to_bits(), settled(50).to_bits());
    }

    #[test]
    fn rpm_linear_in_duty_above_stall() {
        assert!((settled(50) / settled(25) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stalls_below_threshold() {
        assert_eq!(spin(0.0, 3, false, 0.1, 100), 0.0); // below 4 % stall fraction
        assert_eq!(spin(settled(80), 3, false, 0.1, 300), 0.0, "a stalled rotor stops");
    }

    #[test]
    fn min_running_duty_spins() {
        assert!(spin(0.0, 5, false, 0.1, 200) > 100.0);
    }

    proptest::proptest! {
        /// Fan power stays within `[0, max_power_w]` at any rotor speed.
        #[test]
        fn power_is_bounded(rpm in -1e4f64..1e4) {
            proptest::prop_assert!((0.0..=4.8 + 1e-9).contains(&power(rpm)));
        }
    }

    #[test]
    fn power_is_cubic_in_speed() {
        assert!((power(settled(100)) / power(settled(50)) - 8.0).abs() < 1e-6);
        assert!((power(settled(100)) - 4.8).abs() < 1e-9);
    }

    #[test]
    fn failure_collapses_speed_and_repair_recovers() {
        let rpm = settled(80);
        assert!(rpm > 3000.0);
        let seized = spin(rpm, 80, true, 0.1, 300);
        assert_eq!(seized, 0.0, "failed fan must stop");
        assert_eq!(power(seized), 0.0);
        let repaired = spin(seized, 80, false, 0.1, 300);
        assert!((repaired - 3440.0).abs() < 5.0, "repaired fan resumes, rpm {repaired}");
    }

    #[test]
    fn large_step_is_stable() {
        let rpm = spin(0.0, 100, false, 1000.0, 1);
        assert!((rpm - 4300.0).abs() < 1.0);
        assert!(rpm <= 4300.0 + 1e-9, "no overshoot");
    }
}
