//! Node configuration: every calibration constant of the simulated platform.
//!
//! The defaults model the paper's platform (AMD Athlon64 4000+ node, 4300-RPM
//! CPU fan, ADT7467 controller) and are calibrated so that the steady-state
//! operating points match the traces in the paper's figures:
//!
//! * idle at minimum fan duty settles around 38 °C (the ADT7467 Tmin),
//! * cpu-burn at full fan settles in the mid-40s °C,
//! * cpu-burn at ~36 % duty settles in the mid-50s °C,
//! * cpu-burn with a failed fan runs away past the 70 °C emergency throttle,
//! * a full node under load draws ≈ 95–100 W at the wall (Table 1).

use serde::{Deserialize, Serialize};

use crate::units::{athlon64_pstates, PState};

/// Thermal RC network parameters (die + heatsink lumps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalConfig {
    /// Die (junction + package) heat capacity in J/K. Small: the die reacts
    /// within seconds, producing the paper's Type-I "sudden" behaviour.
    pub die_capacity_j_per_k: f64,
    /// Heatsink heat capacity in J/K. Large: the sink drifts over tens of
    /// seconds, producing Type-II "gradual" behaviour.
    pub sink_capacity_j_per_k: f64,
    /// Die-to-sink conductance in W/K (junction-to-case path).
    pub die_sink_conductance_w_per_k: f64,
    /// Sink-to-ambient conductance with zero airflow (natural convection),
    /// in W/K.
    pub natural_conductance_w_per_k: f64,
    /// Additional sink-to-ambient conductance at full fan speed, in W/K.
    /// Scales with `airflow^airflow_exponent`.
    pub airflow_conductance_w_per_k: f64,
    /// Exponent of the airflow → convective conductance law (sub-linear;
    /// fit to the paper's operating points — see `thermal.rs` calibration
    /// tests).
    pub airflow_exponent: f64,
    /// Ambient (intake) air temperature in °C.
    pub ambient_c: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self {
            die_capacity_j_per_k: 20.0,
            sink_capacity_j_per_k: 250.0,
            die_sink_conductance_w_per_k: 8.3,
            natural_conductance_w_per_k: 0.3,
            airflow_conductance_w_per_k: 2.38,
            airflow_exponent: 0.486,
            ambient_c: 22.0,
        }
    }
}

/// CPU power-model parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Available P-states in descending frequency order.
    pub pstates: Vec<PState>,
    /// Dynamic power at 100 % utilization in the highest P-state, in W.
    /// Dynamic power scales as `V²·f` across P-states.
    pub dynamic_power_max_w: f64,
    /// Static power at the highest P-state voltage and the reference
    /// temperature, in W. Covers leakage plus the frequency-independent
    /// uncore/idle draw; scales with voltage and die temperature.
    pub leakage_power_ref_w: f64,
    /// Reference temperature for the leakage figure, in °C.
    pub leakage_ref_temp_c: f64,
    /// Fractional leakage increase per kelvin above the reference
    /// temperature (leakage grows roughly linearly over our range).
    pub leakage_temp_coeff_per_k: f64,
    /// Die temperature at which the hardware thermal monitor engages and
    /// forcibly throttles the clock (the paper's "thermal emergency
    /// slowdown"), in °C.
    pub emergency_throttle_c: f64,
    /// Die temperature at which the node shuts down, in °C.
    pub emergency_shutdown_c: f64,
    /// Hysteresis in °C below `emergency_throttle_c` before hardware
    /// throttling releases.
    pub emergency_hysteresis_c: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            pstates: athlon64_pstates(),
            dynamic_power_max_w: 48.0,
            leakage_power_ref_w: 22.0,
            leakage_ref_temp_c: 50.0,
            leakage_temp_coeff_per_k: 0.008,
            emergency_throttle_c: 70.0,
            emergency_shutdown_c: 85.0,
            emergency_hysteresis_c: 5.0,
        }
    }
}

/// Fan parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FanConfig {
    /// Full-speed revolutions per minute (the paper's fans: 4300 RPM).
    pub max_rpm: f64,
    /// Spin-up/down time constant in seconds.
    pub time_constant_s: f64,
    /// Electrical power at full speed in W (scales cubically with speed).
    pub max_power_w: f64,
    /// Fraction of `max_rpm` below which the motor stalls (a real PWM fan
    /// cannot sustain arbitrarily slow rotation).
    pub stall_fraction: f64,
}

impl Default for FanConfig {
    fn default() -> Self {
        Self { max_rpm: 4300.0, time_constant_s: 1.5, max_power_w: 4.8, stall_fraction: 0.04 }
    }
}

/// The most on-die thermal sensors a [`SensorConfig`] may ask for; every
/// node allocates one sensor, with its own noise stream, per count.
pub const MAX_SENSORS: usize = 256;

/// Thermal sensor parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// Gaussian measurement noise standard deviation in °C. This is what
    /// produces the paper's Type-III "jitter" on otherwise flat segments.
    pub noise_std_c: f64,
    /// Quantization step in °C (on-die DTS report in coarse steps;
    /// 0.25 °C matches the staircase look of the paper's traces).
    pub quantization_c: f64,
    /// Sensor reading offset in °C (systematic calibration error).
    pub offset_c: f64,
    /// Number of on-die sensors (the paper's single-core Athlon64 has 1;
    /// multi-core server CPUs expose one DTS per core).
    pub count: usize,
    /// Spread of per-sensor hot-spot offsets in °C: with `count` sensors,
    /// sensor `i` reads `offset_c + core_spread_c · i / (count − 1)` above
    /// the lumped die temperature — a compact stand-in for intra-die
    /// gradients. Controllers aggregate by hottest sensor.
    pub core_spread_c: f64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        Self {
            noise_std_c: 0.35,
            quantization_c: 0.25,
            offset_c: 0.0,
            count: 1,
            core_spread_c: 1.5,
        }
    }
}

/// Whole-node electrical parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardConfig {
    /// Power drawn by everything that is not the CPU or the fan (chipset,
    /// DRAM, disk, NIC, PSU overhead), in W.
    pub base_power_w: f64,
    /// Power-supply efficiency applied to the DC loads when reporting wall
    /// power (Watts-up meters measure at the wall).
    pub psu_efficiency: f64,
}

impl Default for BoardConfig {
    fn default() -> Self {
        Self { base_power_w: 24.0, psu_efficiency: 0.85 }
    }
}

/// Complete configuration of one simulated node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct NodeConfig {
    /// Thermal network parameters.
    pub thermal: ThermalConfig,
    /// CPU / DVFS parameters.
    pub cpu: CpuConfig,
    /// Fan parameters.
    pub fan: FanConfig,
    /// Thermal-sensor parameters.
    pub sensor: SensorConfig,
    /// Board/PSU parameters.
    pub board: BoardConfig,
}

impl NodeConfig {
    /// Validates the configuration, returning a description of the first
    /// inconsistency. Scenario files carry whole node configs, so a bad
    /// value is a data error for the caller to name; [`crate::Node`]
    /// construction panics on the same error, which keeps the simulation
    /// loop free of defensive checks. Every value must be finite: an
    /// infinite one passes a sign check but breaks the physics mid-run, and
    /// the lanes' constant sub-step split (`thermal::fixed_substeps_raw`)
    /// relies on it.
    pub fn validate(&self) -> Result<(), &'static str> {
        fn check(ok: bool, message: &'static str) -> Result<(), &'static str> {
            if ok {
                Ok(())
            } else {
                Err(message)
            }
        }
        fn finite(values: &[(f64, &'static str)]) -> Result<(), &'static str> {
            values.iter().find(|(v, _)| !v.is_finite()).map_or(Ok(()), |&(_, m)| Err(m))
        }
        let t = &self.thermal;
        finite(&[
            (t.die_capacity_j_per_k, "die capacity must be finite"),
            (t.sink_capacity_j_per_k, "sink capacity must be finite"),
            (t.die_sink_conductance_w_per_k, "die-sink conductance must be finite"),
            (t.natural_conductance_w_per_k, "natural conductance must be finite"),
            (t.airflow_conductance_w_per_k, "airflow conductance must be finite"),
            (t.airflow_exponent, "airflow exponent must be finite"),
            (t.ambient_c, "ambient temperature must be finite"),
        ])?;
        check(t.die_capacity_j_per_k > 0.0, "die capacity must be positive")?;
        check(t.sink_capacity_j_per_k > 0.0, "sink capacity must be positive")?;
        check(t.die_sink_conductance_w_per_k > 0.0, "die-sink conductance must be positive")?;
        check(t.natural_conductance_w_per_k >= 0.0, "natural conductance must be non-negative")?;
        check(t.airflow_conductance_w_per_k >= 0.0, "airflow conductance must be non-negative")?;
        check(t.airflow_exponent > 0.0, "airflow exponent must be positive")?;

        let c = &self.cpu;
        check(c.pstates.iter().all(|p| p.voltage_v.is_finite()), "P-state voltage must be finite")?;
        finite(&[
            (c.dynamic_power_max_w, "dynamic power must be finite"),
            (c.leakage_power_ref_w, "leakage power must be finite"),
            (c.leakage_ref_temp_c, "leakage reference temperature must be finite"),
            (c.leakage_temp_coeff_per_k, "leakage temperature coefficient must be finite"),
            (c.emergency_throttle_c, "throttle threshold must be finite"),
            (c.emergency_shutdown_c, "shutdown threshold must be finite"),
            (c.emergency_hysteresis_c, "hysteresis must be finite"),
        ])?;
        check(!c.pstates.is_empty(), "at least one P-state required")?;
        // The power law divides by the top P-state's voltage: at 0 V it is
        // 0/0, which drives the die temperature non-finite on the first
        // tick. A negative voltage or a 0 MHz state is no P-state either.
        check(c.pstates.iter().all(|p| p.voltage_v > 0.0), "P-state voltage must be positive")?;
        check(c.pstates.iter().all(|p| p.freq_mhz > 0), "P-state frequency must be positive")?;
        check(
            c.pstates.windows(2).all(|w| w[0].freq_mhz > w[1].freq_mhz),
            "P-states must be in strictly descending frequency order",
        )?;
        check(c.dynamic_power_max_w >= 0.0, "dynamic power must be non-negative")?;
        check(c.leakage_power_ref_w >= 0.0, "leakage power must be non-negative")?;
        check(
            c.emergency_throttle_c < c.emergency_shutdown_c,
            "throttle threshold must be below shutdown threshold",
        )?;
        check(c.emergency_hysteresis_c >= 0.0, "hysteresis must be non-negative")?;

        let f = &self.fan;
        finite(&[
            (f.max_rpm, "fan max RPM must be finite"),
            (f.time_constant_s, "fan time constant must be finite"),
            (f.max_power_w, "fan power must be finite"),
            (f.stall_fraction, "stall fraction must be finite"),
        ])?;
        check(f.max_rpm > 0.0, "fan max RPM must be positive")?;
        check(f.time_constant_s > 0.0, "fan time constant must be positive")?;
        check(f.max_power_w >= 0.0, "fan power must be non-negative")?;
        check((0.0..1.0).contains(&f.stall_fraction), "stall fraction must be in [0,1)")?;

        let s = &self.sensor;
        finite(&[
            (s.noise_std_c, "sensor noise must be finite"),
            (s.quantization_c, "sensor quantization must be finite"),
            (s.offset_c, "sensor offset must be finite"),
            (s.core_spread_c, "core spread must be finite"),
        ])?;
        check(s.noise_std_c >= 0.0, "sensor noise must be non-negative")?;
        check(s.quantization_c >= 0.0, "sensor quantization must be non-negative")?;
        check(s.count >= 1, "need at least one thermal sensor")?;
        check(s.count <= MAX_SENSORS, "sensor count must be at most 256")?;
        check(s.core_spread_c >= 0.0, "core spread must be non-negative")?;

        let b = &self.board;
        finite(&[
            (b.base_power_w, "base power must be finite"),
            (b.psu_efficiency, "PSU efficiency must be finite"),
        ])?;
        check(b.base_power_w >= 0.0, "base power must be non-negative")?;
        check(
            (0.0..=1.0).contains(&b.psu_efficiency) && b.psu_efficiency > 0.0,
            "PSU efficiency must be in (0,1]",
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(NodeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn default_matches_paper_platform() {
        let c = NodeConfig::default();
        assert_eq!(c.cpu.pstates.len(), 5);
        assert_eq!(c.cpu.pstates[0].freq_mhz, 2400);
        assert_eq!(c.fan.max_rpm, 4300.0);
    }

    #[test]
    fn rejects_unsorted_pstates() {
        let mut c = NodeConfig::default();
        c.cpu.pstates.reverse();
        assert!(c.validate().is_err_and(|e| e.contains("descending frequency")));
    }

    #[test]
    fn rejects_a_non_positive_pstate_voltage() {
        for (idx, bad) in [(0, 0.0), (0, -1.0), (4, 0.0), (2, -0.5)] {
            let mut c = NodeConfig::default();
            c.cpu.pstates[idx].voltage_v = bad;
            assert_eq!(c.validate(), Err("P-state voltage must be positive"), "[{idx}] = {bad}");
        }
    }

    #[test]
    fn rejects_a_zero_pstate_frequency() {
        let mut c = NodeConfig::default();
        c.cpu.pstates.last_mut().expect("default P-states").freq_mhz = 0;
        assert_eq!(c.validate(), Err("P-state frequency must be positive"));
    }

    #[test]
    fn rejects_zero_capacity() {
        let mut c = NodeConfig::default();
        c.thermal.die_capacity_j_per_k = 0.0;
        assert!(c.validate().is_err_and(|e| e.contains("die capacity")));
    }

    #[test]
    fn rejects_every_non_finite_value_by_name() {
        type Field = fn(&mut NodeConfig) -> &mut f64;
        let fields: [(Field, &str); 25] = [
            (|c| &mut c.thermal.die_capacity_j_per_k, "die capacity"),
            (|c| &mut c.thermal.sink_capacity_j_per_k, "sink capacity"),
            (|c| &mut c.thermal.die_sink_conductance_w_per_k, "die-sink conductance"),
            (|c| &mut c.thermal.natural_conductance_w_per_k, "natural conductance"),
            (|c| &mut c.thermal.airflow_conductance_w_per_k, "airflow conductance"),
            (|c| &mut c.thermal.airflow_exponent, "airflow exponent"),
            (|c| &mut c.thermal.ambient_c, "ambient temperature"),
            (|c| &mut c.cpu.pstates[2].voltage_v, "P-state voltage"),
            (|c| &mut c.cpu.dynamic_power_max_w, "dynamic power"),
            (|c| &mut c.cpu.leakage_power_ref_w, "leakage power"),
            (|c| &mut c.cpu.leakage_ref_temp_c, "leakage reference temperature"),
            (|c| &mut c.cpu.leakage_temp_coeff_per_k, "leakage temperature coefficient"),
            (|c| &mut c.cpu.emergency_throttle_c, "throttle threshold"),
            (|c| &mut c.cpu.emergency_shutdown_c, "shutdown threshold"),
            (|c| &mut c.cpu.emergency_hysteresis_c, "hysteresis"),
            (|c| &mut c.fan.max_rpm, "fan max RPM"),
            (|c| &mut c.fan.time_constant_s, "fan time constant"),
            (|c| &mut c.fan.max_power_w, "fan power"),
            (|c| &mut c.fan.stall_fraction, "stall fraction"),
            (|c| &mut c.sensor.noise_std_c, "sensor noise"),
            (|c| &mut c.sensor.quantization_c, "sensor quantization"),
            (|c| &mut c.sensor.offset_c, "sensor offset"),
            (|c| &mut c.sensor.core_spread_c, "core spread"),
            (|c| &mut c.board.base_power_w, "base power"),
            (|c| &mut c.board.psu_efficiency, "PSU efficiency"),
        ];
        for (field, name) in fields {
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut c = NodeConfig::default();
                *field(&mut c) = bad;
                assert_eq!(c.validate(), Err(format!("{name} must be finite").as_str()), "{bad}");
            }
        }
    }

    #[test]
    fn rejects_a_sensor_count_above_the_cap() {
        let mut c = NodeConfig::default();
        c.sensor.count = MAX_SENSORS;
        assert_eq!(c.validate(), Ok(()));
        c.sensor.count = MAX_SENSORS + 1;
        assert_eq!(c.validate(), Err("sensor count must be at most 256"));
    }

    #[test]
    fn rejects_inverted_emergency_thresholds() {
        let mut c = NodeConfig::default();
        c.cpu.emergency_throttle_c = 90.0;
        assert!(c.validate().is_err_and(|e| e.contains("below shutdown")));
    }

    #[test]
    fn clone_compares_equal() {
        let c = NodeConfig::default();
        assert_eq!(c.clone(), c);
    }
}
