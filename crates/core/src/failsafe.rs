//! Failsafe watchdog: last-line protection when the control loop itself is
//! compromised.
//!
//! The paper's controllers assume a working sensor path. In production that
//! assumption fails: lm-sensors polls time out, i2c buses wedge, readings
//! go stale. A daemon steering on a stale reading holds the fan at whatever
//! duty the machine had when the sensor died — under load, that is a slow
//! march into the hardware throttle and shutdown thresholds.
//!
//! The [`Failsafe`] watchdog sits beside the normal controllers and
//! engages maximum cooling (full fan + lowest frequency) when either
//!
//! * the sensor has not produced a fresh reading for
//!   [`FailsafeConfig::max_stale_samples`] samples, or
//! * a fresh reading exceeds [`FailsafeConfig::panic_temp_c`] — a software
//!   panic line placed *below* the hardware throttle point, so the
//!   graceful path wins the race.
//!
//! It releases (returning control to the normal daemons) only when fresh
//! readings return *and* the temperature has fallen below
//! [`FailsafeConfig::release_temp_c`].

use serde::{Deserialize, Serialize};

use crate::config::{check, ConfigError, Rule};
use crate::rule;

/// Failsafe tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailsafeConfig {
    /// Consecutive failed sensor samples before engaging (at the paper's
    /// 4 Hz polling, the default 20 ≈ 5 s of blindness).
    pub max_stale_samples: u32,
    /// Fresh-reading temperature at which the failsafe engages, °C. Keep
    /// below the hardware throttle (70 °C on the reproduced platform).
    pub panic_temp_c: f64,
    /// Temperature below which an engaged failsafe releases, °C.
    pub release_temp_c: f64,
}

impl Default for FailsafeConfig {
    fn default() -> Self {
        Self { max_stale_samples: 20, panic_temp_c: 65.0, release_temp_c: 55.0 }
    }
}

impl FailsafeConfig {
    /// What [`FailsafeConfig::validate`] checks, in order.
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(AtLeast max_stale_samples, 1; "need a stale budget of at least 1 sample"),
        rule!(Below release_temp_c < panic_temp_c;
            "release temperature must be below panic temperature"),
        rule!(Finite panic_temp_c; "panic_temp_c must be finite"),
        rule!(Finite release_temp_c; "release_temp_c must be finite"),
    ];

    /// Validates the configuration against [`FailsafeConfig::RULES`].
    /// Returns an error (rather than panicking) so scenario files carrying
    /// a bad failsafe block are rejected as data errors.
    ///
    /// # Errors
    /// Returns the first broken rule's error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(Self::RULES, self)
    }
}

/// Why the failsafe engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailsafeReason {
    /// The sensor path produced no fresh reading for too long.
    StaleSensor,
    /// A fresh reading crossed the panic line.
    OverTemperature,
}

/// Action requested of the platform glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailsafeAction {
    /// Force maximum cooling: full fan duty and the lowest frequency.
    Engage(FailsafeReason),
    /// Conditions cleared: return control to the normal daemons.
    Release,
}

/// The watchdog.
///
/// ```
/// use unitherm_core::failsafe::{Failsafe, FailsafeAction, FailsafeReason};
///
/// let mut fs = Failsafe::with_defaults();
/// // 20 consecutive failed polls (5 s at 4 Hz) engage maximum cooling.
/// let mut action = None;
/// for _ in 0..20 {
///     action = fs.observe(None).or(action);
/// }
/// assert_eq!(action, Some(FailsafeAction::Engage(FailsafeReason::StaleSensor)));
/// // A fresh, cool reading releases control back to the daemons.
/// assert_eq!(fs.observe(Some(45.0)), Some(FailsafeAction::Release));
/// ```
#[derive(Debug, Clone)]
pub struct Failsafe {
    cfg: FailsafeConfig,
    stale: u32,
    engaged: Option<FailsafeReason>,
    engagements: u64,
}

impl Failsafe {
    /// Creates an armed (not engaged) watchdog.
    pub fn new(cfg: FailsafeConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self { cfg, stale: 0, engaged: None, engagements: 0 }
    }

    /// Creates with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(FailsafeConfig::default())
    }

    /// True while maximum cooling is being forced.
    pub fn is_engaged(&self) -> bool {
        self.engaged.is_some()
    }

    /// Number of engagements so far.
    pub fn engagement_count(&self) -> u64 {
        self.engagements
    }

    /// Feeds one sample-period observation: `Some(temp)` for a fresh
    /// reading, `None` when the sensor did not respond. Returns an action
    /// when the platform must change state.
    pub fn observe(&mut self, fresh_reading_c: Option<f64>) -> Option<FailsafeAction> {
        match fresh_reading_c {
            None => {
                self.stale = self.stale.saturating_add(1);
                if self.engaged.is_none() && self.stale >= self.cfg.max_stale_samples {
                    self.engaged = Some(FailsafeReason::StaleSensor);
                    self.engagements += 1;
                    return Some(FailsafeAction::Engage(FailsafeReason::StaleSensor));
                }
                None
            }
            Some(t) => {
                self.stale = 0;
                match self.engaged {
                    None => {
                        if t >= self.cfg.panic_temp_c {
                            self.engaged = Some(FailsafeReason::OverTemperature);
                            self.engagements += 1;
                            Some(FailsafeAction::Engage(FailsafeReason::OverTemperature))
                        } else {
                            None
                        }
                    }
                    Some(_) => {
                        if t < self.cfg.release_temp_c {
                            self.engaged = None;
                            Some(FailsafeAction::Release)
                        } else {
                            None
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_armed_on_healthy_stream() {
        let mut f = Failsafe::with_defaults();
        for _ in 0..200 {
            assert_eq!(f.observe(Some(50.0)), None);
        }
        assert!(!f.is_engaged());
        assert_eq!(f.engagement_count(), 0);
    }

    #[test]
    fn engages_after_stale_budget() {
        let mut f = Failsafe::with_defaults();
        for i in 0..19 {
            assert_eq!(f.observe(None), None, "sample {i}");
        }
        assert_eq!(f.observe(None), Some(FailsafeAction::Engage(FailsafeReason::StaleSensor)));
        assert!(f.is_engaged());
        assert_eq!(f.engaged, Some(FailsafeReason::StaleSensor));
        // No duplicate engage actions while still stale.
        assert_eq!(f.observe(None), None);
    }

    #[test]
    fn intermittent_readings_reset_the_stale_count() {
        let mut f = Failsafe::with_defaults();
        for _ in 0..10 {
            let _ = f.observe(None);
        }
        let _ = f.observe(Some(50.0)); // fresh reading resets
        for i in 0..19 {
            assert_eq!(f.observe(None), None, "sample {i}");
        }
        assert!(f.observe(None).is_some(), "full budget required again");
    }

    #[test]
    fn engages_on_panic_temperature() {
        let mut f = Failsafe::with_defaults();
        assert_eq!(f.observe(Some(64.9)), None);
        assert_eq!(
            f.observe(Some(65.0)),
            Some(FailsafeAction::Engage(FailsafeReason::OverTemperature))
        );
    }

    #[test]
    fn releases_only_below_release_temperature() {
        let mut f = Failsafe::with_defaults();
        let _ = f.observe(Some(66.0));
        assert!(f.is_engaged());
        assert_eq!(f.observe(Some(60.0)), None, "still above release line");
        assert_eq!(f.observe(Some(54.9)), Some(FailsafeAction::Release));
        assert!(!f.is_engaged());
    }

    #[test]
    fn stale_engagement_releases_after_recovery_and_cooling() {
        let mut f = Failsafe::with_defaults();
        for _ in 0..20 {
            let _ = f.observe(None);
        }
        assert!(f.is_engaged());
        // Sensor returns but the machine is still hot: hold.
        assert_eq!(f.observe(Some(60.0)), None);
        assert!(f.is_engaged());
        assert_eq!(f.observe(Some(50.0)), Some(FailsafeAction::Release));
    }

    #[test]
    fn engagement_count_accumulates() {
        let mut f = Failsafe::with_defaults();
        let _ = f.observe(Some(66.0));
        let _ = f.observe(Some(50.0)); // release
        let _ = f.observe(Some(70.0));
        assert_eq!(f.engagement_count(), 2);
    }

    #[test]
    #[should_panic(expected = "below panic")]
    fn inverted_thresholds_rejected() {
        let _ = Failsafe::new(FailsafeConfig {
            panic_temp_c: 50.0,
            release_temp_c: 60.0,
            ..Default::default()
        });
    }
}
