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

use serde::{Deserialize, Serialize};

use crate::config::CpuConfig;
use crate::units::PState;

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

/// Raw load clamp shared verbatim by [`Cpu::set_load`] and the SoA batch
/// path (`crate::batch`).
#[inline]
pub(crate) fn clamp_load(utilization: f64, activity: f64) -> (f64, f64) {
    assert!(utilization.is_finite(), "utilization must be finite");
    assert!(activity.is_finite(), "activity must be finite");
    (utilization.clamp(0.0, 1.0), activity.clamp(0.0, 1.0))
}

/// Raw CMOS power law shared verbatim by [`Cpu::power_w`] and the SoA batch
/// path. Frequencies arrive pre-widened to `f64` (`f64::from(freq_mhz)` at
/// the call site) so both paths feed the multiply identical operands.
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

/// Raw thermal-monitor state machine shared verbatim by
/// [`Cpu::update_thermal_monitor`] and the SoA batch path.
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

/// A DVFS-capable CPU.
#[derive(Debug, Clone)]
pub struct Cpu {
    pub(crate) cfg: CpuConfig,
    /// Index into `cfg.pstates` of the software-requested P-state.
    pub(crate) requested: usize,
    pub(crate) utilization: f64,
    pub(crate) activity: f64,
    pub(crate) condition: ThermalCondition,
    /// ACPI sleep-state power/speed gate in `[0, 1]`: 1.0 = C0 (fully
    /// awake), lower values model the package-level savings of deeper
    /// processor sleep states.
    pub(crate) sleep_gate: f64,
    pub(crate) freq_transitions: u64,
    pub(crate) throttle_events: u64,
}

impl Cpu {
    /// Creates a CPU in its highest P-state, idle.
    pub fn new(cfg: CpuConfig) -> Self {
        assert!(!cfg.pstates.is_empty(), "CPU needs at least one P-state");
        Self {
            cfg,
            requested: 0,
            utilization: 0.0,
            activity: 0.0,
            condition: ThermalCondition::Nominal,
            sleep_gate: 1.0,
            freq_transitions: 0,
            throttle_events: 0,
        }
    }

    /// All available P-states, descending frequency.
    pub fn pstates(&self) -> &[PState] {
        &self.cfg.pstates
    }

    /// The software-requested P-state.
    pub fn requested_pstate(&self) -> PState {
        self.cfg.pstates[self.requested]
    }

    /// The P-state the silicon actually runs: the requested one unless the
    /// thermal monitor has engaged.
    pub fn effective_pstate(&self) -> PState {
        match self.condition {
            ThermalCondition::Nominal => self.cfg.pstates[self.requested],
            ThermalCondition::Throttled | ThermalCondition::ShutDown => {
                *self.cfg.pstates.last().expect("non-empty pstates")
            }
        }
    }

    /// Effective core frequency in MHz (0 when shut down).
    pub fn effective_freq_mhz(&self) -> u32 {
        if self.condition == ThermalCondition::ShutDown {
            0
        } else {
            self.effective_pstate().freq_mhz
        }
    }

    /// Requests a P-state by exact frequency in MHz.
    ///
    /// Returns `true` when this changed the requested state (and counts a
    /// frequency transition). Requests for unavailable frequencies are
    /// rejected with `Err` carrying the list of valid frequencies.
    pub fn set_frequency_mhz(&mut self, freq_mhz: u32) -> Result<bool, InvalidFrequency> {
        let idx =
            self.cfg.pstates.iter().position(|p| p.freq_mhz == freq_mhz).ok_or_else(|| {
                InvalidFrequency {
                    requested_mhz: freq_mhz,
                    available_mhz: self.cfg.pstates.iter().map(|p| p.freq_mhz).collect(),
                }
            })?;
        if idx == self.requested {
            return Ok(false);
        }
        self.requested = idx;
        self.freq_transitions += 1;
        Ok(true)
    }

    /// Number of accepted frequency transitions since construction
    /// (Table 1's "# freq changes" column).
    pub fn freq_transition_count(&self) -> u64 {
        self.freq_transitions
    }

    /// Number of times the hardware thermal monitor engaged.
    pub fn throttle_event_count(&self) -> u64 {
        self.throttle_events
    }

    /// Sets the current utilization in `[0, 1]` (clamped); the switching
    /// activity is set to the same value (fully compute-bound load).
    pub fn set_utilization(&mut self, u: f64) {
        self.set_load(u, u);
    }

    /// Sets the OS-visible utilization and the switching-activity factor
    /// separately (both clamped to `[0, 1]`). Utilization is what a
    /// governor observes; activity is what scales dynamic power.
    pub fn set_load(&mut self, utilization: f64, activity: f64) {
        (self.utilization, self.activity) = clamp_load(utilization, activity);
    }

    /// Current utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Current switching-activity factor in `[0, 1]`.
    pub fn activity(&self) -> f64 {
        self.activity
    }

    /// Sets the ACPI sleep-state gate: the fraction of nominal power (and
    /// execution speed) the package retains, 1.0 for C0 down toward 0 for
    /// deep sleep. Clamped to `[0, 1]`.
    pub fn set_sleep_gate(&mut self, gate: f64) {
        assert!(gate.is_finite(), "sleep gate must be finite");
        self.sleep_gate = gate.clamp(0.0, 1.0);
    }

    /// Current ACPI sleep-state gate in `[0, 1]`.
    pub fn sleep_gate(&self) -> f64 {
        self.sleep_gate
    }

    /// Current thermal condition.
    pub fn condition(&self) -> ThermalCondition {
        self.condition
    }

    /// True once the die crossed the shutdown threshold.
    pub fn is_shut_down(&self) -> bool {
        self.condition == ThermalCondition::ShutDown
    }

    /// Relative execution speed of the effective state vs. the highest
    /// P-state, in `[0, 1]` (0 when shut down). Workloads multiply their
    /// compute-phase progress by this.
    pub fn speed_factor(&self) -> f64 {
        if self.condition == ThermalCondition::ShutDown {
            return 0.0;
        }
        let top = self.cfg.pstates[0].freq_mhz;
        f64::from(self.effective_pstate().freq_mhz) / f64::from(top) * self.sleep_gate
    }

    /// Electrical power draw in W at the given die temperature.
    pub fn power_w(&self, die_temp_c: f64) -> f64 {
        let top = self.cfg.pstates[0];
        let eff = self.effective_pstate();
        power_raw(
            self.condition == ThermalCondition::ShutDown,
            top.voltage_v,
            f64::from(top.freq_mhz),
            eff.voltage_v,
            f64::from(eff.freq_mhz),
            self.cfg.leakage_power_ref_w,
            self.cfg.leakage_temp_coeff_per_k,
            self.cfg.leakage_ref_temp_c,
            self.cfg.dynamic_power_max_w,
            self.activity,
            self.sleep_gate,
            die_temp_c,
        )
    }

    /// Updates the thermal-monitor state machine for the current die
    /// temperature. Call once per simulation tick.
    pub fn update_thermal_monitor(&mut self, die_temp_c: f64) {
        monitor_raw(
            &mut self.condition,
            &mut self.throttle_events,
            die_temp_c,
            self.cfg.emergency_throttle_c,
            self.cfg.emergency_shutdown_c,
            self.cfg.emergency_hysteresis_c,
        );
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

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::default())
    }

    #[test]
    fn starts_at_top_pstate_idle() {
        let c = cpu();
        assert_eq!(c.requested_pstate().freq_mhz, 2400);
        assert_eq!(c.utilization(), 0.0);
        assert_eq!(c.condition(), ThermalCondition::Nominal);
    }

    #[test]
    fn set_frequency_validates() {
        let mut c = cpu();
        assert_eq!(c.set_frequency_mhz(2200), Ok(true));
        assert_eq!(c.requested_pstate().freq_mhz, 2200);
        let err = c.set_frequency_mhz(2300).unwrap_err();
        assert_eq!(err.requested_mhz, 2300);
        assert_eq!(err.available_mhz, vec![2400, 2200, 2000, 1800, 1000]);
        assert!(err.to_string().contains("2300"));
    }

    #[test]
    fn transition_count_ignores_no_ops() {
        let mut c = cpu();
        assert_eq!(c.set_frequency_mhz(2400), Ok(false)); // already there
        assert_eq!(c.freq_transition_count(), 0);
        c.set_frequency_mhz(2200).unwrap();
        c.set_frequency_mhz(2200).unwrap();
        c.set_frequency_mhz(2400).unwrap();
        assert_eq!(c.freq_transition_count(), 2);
    }

    #[test]
    fn power_increases_with_utilization() {
        let mut c = cpu();
        let idle = c.power_w(45.0);
        c.set_utilization(1.0);
        let busy = c.power_w(45.0);
        assert!(busy > idle + 30.0, "idle {idle}, busy {busy}");
    }

    #[test]
    fn power_decreases_with_frequency() {
        let mut c = cpu();
        c.set_utilization(1.0);
        let mut last = f64::INFINITY;
        for &f in &[2400, 2200, 2000, 1800, 1000] {
            c.set_frequency_mhz(f).unwrap();
            let p = c.power_w(50.0);
            assert!(p < last, "{f} MHz power {p} not below {last}");
            last = p;
        }
    }

    #[test]
    fn dynamic_power_scales_as_v2f() {
        let mut c = cpu();
        c.set_utilization(1.0);
        let p_top = c.power_w(50.0);
        c.set_frequency_mhz(1000).unwrap();
        let p_low = c.power_w(50.0);
        // Dynamic parts: 48 W at (1.5 V, 2.4 GHz); at (1.1 V, 1.0 GHz):
        // 48 · (1.1²·1.0)/(1.5²·2.4) ≈ 10.76 W. Static at 50 °C:
        // 22 W at top; 22·(1.1/1.5) ≈ 16.13 W at bottom.
        assert!((p_top - 70.0).abs() < 1e-9, "top power {p_top}");
        let expected_low = 22.0 * (1.1 / 1.5) + 48.0 * (1.21 / (2.25 * 2.4));
        assert!((p_low - expected_low).abs() < 1e-6, "low power {p_low}");
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let c = cpu();
        assert!(c.power_w(70.0) > c.power_w(40.0));
        // Linear coefficient: 0.8 %/K on the 22 W static power.
        let diff = c.power_w(60.0) - c.power_w(50.0);
        assert!((diff - 22.0 * 0.008 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_never_negative() {
        let c = cpu();
        // Absurdly cold die: the (1 + α·ΔT) factor clamps at zero.
        assert!(c.power_w(-500.0) >= 0.0);
    }

    #[test]
    fn speed_factor_tracks_effective_frequency() {
        let mut c = cpu();
        assert_eq!(c.speed_factor(), 1.0);
        c.set_frequency_mhz(1800).unwrap();
        assert!((c.speed_factor() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn thermal_monitor_throttles_and_recovers() {
        let mut c = cpu();
        c.update_thermal_monitor(69.9);
        assert_eq!(c.condition(), ThermalCondition::Nominal);
        c.update_thermal_monitor(70.0);
        assert_eq!(c.condition(), ThermalCondition::Throttled);
        assert_eq!(c.throttle_event_count(), 1);
        assert_eq!(c.effective_pstate().freq_mhz, 1000);
        assert_eq!(c.requested_pstate().freq_mhz, 2400, "software request unchanged");
        // Must drop below 65 °C (70 − 5 hysteresis) to release.
        c.update_thermal_monitor(66.0);
        assert_eq!(c.condition(), ThermalCondition::Throttled);
        c.update_thermal_monitor(64.9);
        assert_eq!(c.condition(), ThermalCondition::Nominal);
        assert_eq!(c.effective_pstate().freq_mhz, 2400);
    }

    #[test]
    fn shutdown_latches() {
        let mut c = cpu();
        c.set_utilization(1.0);
        c.update_thermal_monitor(85.0);
        assert!(c.is_shut_down());
        assert_eq!(c.power_w(85.0), 0.0);
        assert_eq!(c.speed_factor(), 0.0);
        assert_eq!(c.effective_freq_mhz(), 0);
        c.update_thermal_monitor(30.0); // cooling off does not restart it
        assert!(c.is_shut_down());
    }

    #[test]
    fn throttled_can_escalate_to_shutdown() {
        let mut c = cpu();
        c.update_thermal_monitor(72.0);
        assert_eq!(c.condition(), ThermalCondition::Throttled);
        c.update_thermal_monitor(86.0);
        assert!(c.is_shut_down());
    }

    #[test]
    fn sleep_gate_scales_power_and_speed() {
        let mut c = cpu();
        c.set_utilization(1.0);
        assert_eq!(c.sleep_gate(), 1.0, "default gate is C0");
        let awake_power = c.power_w(50.0);
        let awake_speed = c.speed_factor();
        c.set_sleep_gate(0.35); // C2's power fraction
        assert!((c.power_w(50.0) - awake_power * 0.35).abs() < 1e-9);
        assert!((c.speed_factor() - awake_speed * 0.35).abs() < 1e-12);
        c.set_sleep_gate(2.0);
        assert_eq!(c.sleep_gate(), 1.0, "gate clamps to [0, 1]");
    }

    #[test]
    fn utilization_clamps() {
        let mut c = cpu();
        c.set_utilization(3.0);
        assert_eq!(c.utilization(), 1.0);
        c.set_utilization(-1.0);
        assert_eq!(c.utilization(), 0.0);
    }
}
