//! ACPI sleep states as a third thermal-control technique.
//!
//! The paper's §3.2.2 lists "valid sleep states for ACPI-compatible system"
//! as one of the mode sets the thermal control array can hold. This module
//! provides that mode set; a [`crate::controller::UnifiedController`] over
//! [`SleepState::ALL`] is the processor-idle-state controller, showing that
//! the unified representation extends beyond fans and DVFS without new
//! controller code.

use serde::{Deserialize, Serialize};

/// An ACPI processor idle (C-)state. Deeper states save more power / heat
/// but cost more wake-up latency, so deeper = more effective thermal mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SleepState {
    /// C0: executing.
    C0,
    /// C1: halt.
    C1,
    /// C2: stop-clock.
    C2,
    /// C3: deep sleep (caches flushed).
    C3,
}

impl SleepState {
    /// All states in ascending cooling effectiveness (C0 least, C3 most).
    pub const ALL: [SleepState; 4] =
        [SleepState::C0, SleepState::C1, SleepState::C2, SleepState::C3];

    /// Nominal residency power fraction relative to C0 at full tilt.
    pub fn power_fraction(self) -> f64 {
        match self {
            SleepState::C0 => 1.0,
            SleepState::C1 => 0.55,
            SleepState::C2 => 0.35,
            SleepState::C3 => 0.15,
        }
    }

    /// Nominal wake-up latency in microseconds.
    pub fn wakeup_latency_us(self) -> u32 {
        match self {
            SleepState::C0 => 0,
            SleepState::C1 => 1,
            SleepState::C2 => 50,
            SleepState::C3 => 800,
        }
    }
}

impl std::fmt::Display for SleepState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SleepState::C0 => "C0",
            SleepState::C1 => "C1",
            SleepState::C2 => "C2",
            SleepState::C3 => "C3",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control_array::{Policy, ThermalControlArray};
    use crate::controller::{ControllerConfig, UnifiedController};

    #[test]
    fn states_ordered_by_effectiveness() {
        let p: Vec<f64> = SleepState::ALL.iter().map(|s| s.power_fraction()).collect();
        assert!(p.windows(2).all(|w| w[1] < w[0]), "deeper states draw less: {p:?}");
        let l: Vec<u32> = SleepState::ALL.iter().map(|s| s.wakeup_latency_us()).collect();
        assert!(l.windows(2).all(|w| w[1] > w[0]), "deeper states wake slower: {l:?}");
    }

    #[test]
    fn control_array_works_over_sleep_states() {
        let arr = ThermalControlArray::with_default_len(&SleepState::ALL, Policy::MODERATE);
        assert_eq!(arr.least_effective(), SleepState::C0);
        assert_eq!(arr.most_effective(), SleepState::C3);
        assert_eq!(arr.mode_at(arr.n_p()), SleepState::C3);
    }

    #[test]
    fn controller_escalates_sleep_depth_on_heat() {
        let mut c =
            UnifiedController::new(&SleepState::ALL, Policy::MODERATE, ControllerConfig::default());
        assert_eq!(c.current_mode(), SleepState::C0);
        // Sudden +8 °C step.
        c.observe(45.0);
        c.observe(45.0);
        c.observe(53.0);
        let d = c.observe(53.0).expect("step triggers");
        assert!(d.mode > SleepState::C0, "deeper idle commanded: {}", d.mode);
    }

    #[test]
    fn aggressive_policy_prefers_deeper_states() {
        let agg = ThermalControlArray::with_default_len(&SleepState::ALL, Policy::AGGRESSIVE);
        let weak = ThermalControlArray::with_default_len(&SleepState::ALL, Policy::WEAK);
        let deeper = (1..=100).filter(|&i| agg.mode_at(i) > weak.mode_at(i)).count();
        assert!(deeper > 25, "aggressive array deeper in {deeper} cells");
    }

    #[test]
    fn display_names() {
        assert_eq!(SleepState::C0.to_string(), "C0");
        assert_eq!(SleepState::C3.to_string(), "C3");
    }
}
