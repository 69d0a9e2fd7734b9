//! DVFS-capable CPU model.
//!
//! Power model (per the classical CMOS decomposition the paper relies on —
//! "scaling down DVFS processor frequency cubically reduces power"):
//!
//! ```text
//!   P = P_leak(V, T) + u · P_dyn_max · (V²·f) / (V₀²·f₀)
//! ```
//!
//! where `u` is utilization, `(f₀, V₀)` the highest P-state, and leakage
//! grows linearly with die temperature (the positive feedback that makes hot
//! spots self-reinforcing).
//!
//! The model also implements the *hardware thermal monitor*: above
//! `emergency_throttle_c` the clock is forced to the lowest P-state until the
//! die cools below the hysteresis band, and above `emergency_shutdown_c` the
//! node powers off. These are the "thermal emergencies, which further trigger
//! system slowdowns or shutdowns" the paper's controllers exist to avoid.
//!
//! The CPU's state (requested P-state, load, sleep gate, condition and
//! counters) lives in its node's physics-batch slot; this module holds the
//! laws the lane tick applies to it.

use serde::{Deserialize, Serialize};

/// Reasons the effective frequency can differ from the requested one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThermalCondition {
    /// Normal operation.
    Nominal,
    /// Hardware thermal monitor engaged: clock forced to the lowest P-state.
    Throttled,
    /// Die exceeded the shutdown threshold: the node is off.
    ShutDown,
}

/// Raw load clamp: utilization and switching activity, each into `[0, 1]`.
#[inline]
pub(crate) fn clamp_load(utilization: f64, activity: f64) -> (f64, f64) {
    assert!(utilization.is_finite(), "utilization must be finite");
    assert!(activity.is_finite(), "activity must be finite");
    (utilization.clamp(0.0, 1.0), activity.clamp(0.0, 1.0))
}

/// Raw CMOS power law. Frequencies arrive pre-widened to `f64`
/// (`f64::from(freq_mhz)`, held so in the lanes).
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn power_raw(
    shut_down: bool,
    top_voltage_v: f64,
    top_freq_mhz: f64,
    eff_voltage_v: f64,
    eff_freq_mhz: f64,
    leakage_power_ref_w: f64,
    leakage_temp_coeff_per_k: f64,
    leakage_ref_temp_c: f64,
    dynamic_power_max_w: f64,
    activity: f64,
    sleep_gate: f64,
    die_temp_c: f64,
) -> f64 {
    if shut_down {
        return 0.0;
    }
    let leak_scale = (eff_voltage_v / top_voltage_v)
        * (1.0 + leakage_temp_coeff_per_k * (die_temp_c - leakage_ref_temp_c)).max(0.0);
    let leakage = leakage_power_ref_w * leak_scale;

    let vf = eff_voltage_v * eff_voltage_v * eff_freq_mhz;
    let vf0 = top_voltage_v * top_voltage_v * top_freq_mhz;
    let dynamic = activity * dynamic_power_max_w * vf / vf0;

    // Sleep states gate the whole package (clocks, caches, uncore), so
    // the gate scales total power, not just the dynamic term.
    (leakage + dynamic) * sleep_gate
}

/// Raw thermal-monitor state machine, run on the post-step die
/// temperature every tick.
#[inline]
pub(crate) fn monitor_raw(
    condition: &mut ThermalCondition,
    throttle_events: &mut u64,
    die_temp_c: f64,
    emergency_throttle_c: f64,
    emergency_shutdown_c: f64,
    emergency_hysteresis_c: f64,
) {
    match *condition {
        ThermalCondition::ShutDown => {} // latched until explicitly reset
        ThermalCondition::Throttled => {
            if die_temp_c >= emergency_shutdown_c {
                *condition = ThermalCondition::ShutDown;
            } else if die_temp_c < emergency_throttle_c - emergency_hysteresis_c {
                *condition = ThermalCondition::Nominal;
            }
        }
        ThermalCondition::Nominal => {
            if die_temp_c >= emergency_shutdown_c {
                *condition = ThermalCondition::ShutDown;
            } else if die_temp_c >= emergency_throttle_c {
                *condition = ThermalCondition::Throttled;
                *throttle_events += 1;
            }
        }
    }
}

/// Error returned for a frequency not in the P-state table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidFrequency {
    /// The rejected frequency in MHz.
    pub requested_mhz: u32,
    /// Frequencies the CPU supports, in MHz.
    pub available_mhz: Vec<u32>,
}

impl std::fmt::Display for InvalidFrequency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frequency {} MHz not available (valid: {:?})",
            self.requested_mhz, self.available_mhz
        )
    }
}

impl std::error::Error for InvalidFrequency {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{COND_SHUTDOWN, COND_THROTTLED};
    use crate::config::{CpuConfig, NodeConfig};
    use crate::node::Node;

    fn node() -> Node {
        Node::new(NodeConfig::default(), 1)
    }

    /// CPU power of the node's slot at die temperature `die_c`.
    fn power(n: &Node, die_c: f64) -> f64 {
        n.plant().cpu_power_w(0, die_c)
    }

    /// One thermal-monitor step at the default thresholds.
    fn monitor(cond: &mut ThermalCondition, events: &mut u64, die_c: f64) {
        let c = CpuConfig::default();
        let (throttle, shutdown, hyst) =
            (c.emergency_throttle_c, c.emergency_shutdown_c, c.emergency_hysteresis_c);
        monitor_raw(cond, events, die_c, throttle, shutdown, hyst);
    }

    #[test]
    fn starts_at_top_pstate_idle() {
        let mut n = node();
        let v = n.view();
        assert_eq!(v.requested_frequency_khz(), 2_400_000);
        assert_eq!(v.utilization(), 0.0);
        assert_eq!(v.condition(), ThermalCondition::Nominal);
    }

    #[test]
    fn set_frequency_validates() {
        let mut n = node();
        let mut v = n.view();
        assert_eq!(v.set_frequency_khz(2_200_000), Ok(true));
        assert_eq!(v.requested_frequency_khz(), 2_200_000);
        let err = v.set_frequency_khz(2_300_000).unwrap_err();
        assert_eq!(err.requested_mhz, 2300);
        assert_eq!(err.available_mhz, vec![2400, 2200, 2000, 1800, 1000]);
        assert!(err.to_string().contains("2300"));
    }

    #[test]
    fn transition_count_ignores_no_ops() {
        let mut n = node();
        let mut v = n.view();
        assert_eq!(v.set_frequency_khz(2_400_000), Ok(false)); // already there
        assert_eq!(v.freq_transition_count(), 0);
        v.set_frequency_khz(2_200_000).unwrap();
        v.set_frequency_khz(2_200_000).unwrap();
        v.set_frequency_khz(2_400_000).unwrap();
        assert_eq!(v.freq_transition_count(), 2);
    }

    #[test]
    fn power_increases_with_utilization() {
        let mut n = node();
        let idle = power(&n, 45.0);
        n.view().set_utilization(1.0);
        let busy = power(&n, 45.0);
        assert!(busy > idle + 30.0, "idle {idle}, busy {busy}");
    }

    #[test]
    fn power_decreases_with_frequency() {
        let mut n = node();
        n.view().set_utilization(1.0);
        let mut last = f64::INFINITY;
        for f in [2400, 2200, 2000, 1800, 1000] {
            n.view().set_frequency_khz(f * 1000).unwrap();
            let p = power(&n, 50.0);
            assert!(p < last, "{f} MHz power {p} not below {last}");
            last = p;
        }
    }

    #[test]
    fn dynamic_power_scales_as_v2f() {
        let mut n = node();
        n.view().set_utilization(1.0);
        let p_top = power(&n, 50.0);
        n.view().set_frequency_khz(1_000_000).unwrap();
        let p_low = power(&n, 50.0);
        // Dynamic parts: 48 W at (1.5 V, 2.4 GHz); at (1.1 V, 1.0 GHz):
        // 48 · (1.1²·1.0)/(1.5²·2.4) ≈ 10.76 W. Static at 50 °C:
        // 22 W at top; 22·(1.1/1.5) ≈ 16.13 W at bottom.
        assert!((p_top - 70.0).abs() < 1e-9, "top power {p_top}");
        let expected_low = 22.0 * (1.1 / 1.5) + 48.0 * (1.21 / (2.25 * 2.4));
        assert!((p_low - expected_low).abs() < 1e-6, "low power {p_low}");
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let n = node();
        assert!(power(&n, 70.0) > power(&n, 40.0));
        // Linear coefficient: 0.8 %/K on the 22 W static power.
        let diff = power(&n, 60.0) - power(&n, 50.0);
        assert!((diff - 22.0 * 0.008 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_never_negative() {
        // Absurdly cold die: the (1 + α·ΔT) factor clamps at zero.
        assert!(power(&node(), -500.0) >= 0.0);
    }

    #[test]
    fn speed_factor_tracks_effective_frequency() {
        let mut n = node();
        let mut v = n.view();
        assert_eq!(v.speed_factor(), 1.0);
        v.set_frequency_khz(1_800_000).unwrap();
        assert!((v.speed_factor() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn thermal_monitor_throttles_and_recovers() {
        let (mut cond, mut events) = (ThermalCondition::Nominal, 0);
        monitor(&mut cond, &mut events, 69.9);
        assert_eq!(cond, ThermalCondition::Nominal);
        monitor(&mut cond, &mut events, 70.0);
        assert_eq!(cond, ThermalCondition::Throttled);
        assert_eq!(events, 1);
        // Must drop below 65 °C (70 − 5 hysteresis) to release.
        monitor(&mut cond, &mut events, 66.0);
        assert_eq!(cond, ThermalCondition::Throttled);
        monitor(&mut cond, &mut events, 64.9);
        assert_eq!(cond, ThermalCondition::Nominal);
    }

    #[test]
    fn throttling_runs_the_lowest_pstate_without_touching_the_request() {
        let mut n = node();
        n.plant_mut().cpu_cond[0] = COND_THROTTLED;
        let v = n.view();
        assert_eq!(v.condition(), ThermalCondition::Throttled);
        assert_eq!(v.state().freq_mhz, 1000);
        assert_eq!(v.requested_frequency_khz(), 2_400_000, "software request unchanged");
    }

    #[test]
    fn shutdown_latches() {
        let (mut cond, mut events) = (ThermalCondition::Nominal, 0);
        monitor(&mut cond, &mut events, 85.0);
        assert_eq!(cond, ThermalCondition::ShutDown);
        monitor(&mut cond, &mut events, 30.0); // cooling off does not restart it
        assert_eq!(cond, ThermalCondition::ShutDown);

        let mut n = node();
        n.view().set_utilization(1.0);
        n.plant_mut().cpu_cond[0] = COND_SHUTDOWN;
        assert_eq!(power(&n, 85.0), 0.0);
        let v = n.view();
        assert!(v.is_shut_down());
        assert_eq!(v.speed_factor(), 0.0);
        assert_eq!(v.state().freq_mhz, 0);
    }

    #[test]
    fn throttled_can_escalate_to_shutdown() {
        let (mut cond, mut events) = (ThermalCondition::Nominal, 0);
        monitor(&mut cond, &mut events, 72.0);
        assert_eq!(cond, ThermalCondition::Throttled);
        monitor(&mut cond, &mut events, 86.0);
        assert_eq!(cond, ThermalCondition::ShutDown);
    }

    #[test]
    fn sleep_gate_scales_power_and_speed() {
        let mut n = node();
        n.view().set_utilization(1.0);
        assert_eq!(n.view().sleep_gate(), 1.0, "default gate is C0");
        let awake_power = power(&n, 50.0);
        let awake_speed = n.view().speed_factor();
        n.view().set_sleep_gate(0.35); // C2's power fraction
        assert!((power(&n, 50.0) - awake_power * 0.35).abs() < 1e-9);
        assert!((n.view().speed_factor() - awake_speed * 0.35).abs() < 1e-12);
        n.view().set_sleep_gate(2.0);
        assert_eq!(n.view().sleep_gate(), 1.0, "gate clamps to [0, 1]");
    }

    #[test]
    fn utilization_clamps() {
        let mut n = node();
        let mut v = n.view();
        v.set_utilization(3.0);
        assert_eq!(v.utilization(), 1.0);
        v.set_utilization(-1.0);
        assert_eq!(v.utilization(), 0.0);
    }
}
