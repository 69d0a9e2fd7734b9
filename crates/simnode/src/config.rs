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

use std::ops::Bound::{Excluded, Included};

use serde::{Deserialize, Serialize};
use unitherm_core::config::{check, ConfigError, Rule, NON_NEGATIVE, POSITIVE};
use unitherm_core::rule;

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
    /// What [`NodeConfig::validate`] checks, in order. Every value must be
    /// finite: an infinite one passes a sign check but breaks the physics
    /// mid-run, and the lanes' constant sub-step split
    /// (`thermal::fixed_substeps_raw`) relies on it.
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(Finite thermal.die_capacity_j_per_k; "die capacity must be finite"),
        rule!(Finite thermal.sink_capacity_j_per_k; "sink capacity must be finite"),
        rule!(Finite thermal.die_sink_conductance_w_per_k; "die-sink conductance must be finite"),
        rule!(Finite thermal.natural_conductance_w_per_k; "natural conductance must be finite"),
        rule!(Finite thermal.airflow_conductance_w_per_k; "airflow conductance must be finite"),
        rule!(Finite thermal.airflow_exponent; "airflow exponent must be finite"),
        rule!(Finite thermal.ambient_c; "ambient temperature must be finite"),
        rule!(Range thermal.die_capacity_j_per_k, POSITIVE; "die capacity must be positive"),
        rule!(Range thermal.sink_capacity_j_per_k, POSITIVE; "sink capacity must be positive"),
        rule!(Range thermal.die_sink_conductance_w_per_k, POSITIVE;
            "die-sink conductance must be positive"),
        rule!(Range thermal.natural_conductance_w_per_k, NON_NEGATIVE;
            "natural conductance must be non-negative"),
        rule!(Range thermal.airflow_conductance_w_per_k, NON_NEGATIVE;
            "airflow conductance must be non-negative"),
        rule!(Range thermal.airflow_exponent, POSITIVE; "airflow exponent must be positive"),
        rule!("cpu.pstates[].voltage_v",
            Holds(|c| c.cpu.pstates.iter().all(|p| p.voltage_v.is_finite()), "finite");
            "P-state voltage must be finite"),
        rule!(Finite cpu.dynamic_power_max_w; "dynamic power must be finite"),
        rule!(Finite cpu.leakage_power_ref_w; "leakage power must be finite"),
        rule!(Finite cpu.leakage_ref_temp_c; "leakage reference temperature must be finite"),
        rule!(Finite cpu.leakage_temp_coeff_per_k;
            "leakage temperature coefficient must be finite"),
        rule!(Finite cpu.emergency_throttle_c; "throttle threshold must be finite"),
        rule!(Finite cpu.emergency_shutdown_c; "shutdown threshold must be finite"),
        rule!(Finite cpu.emergency_hysteresis_c; "hysteresis must be finite"),
        rule!("cpu.pstates", Holds(|c| !c.cpu.pstates.is_empty(), "not empty");
            "at least one P-state required"),
        // The power law divides by the top P-state's voltage: at 0 V it is
        // 0/0, which drives the die temperature non-finite on the first
        // tick. A negative voltage or a 0 MHz state is no P-state either.
        rule!("cpu.pstates[].voltage_v",
            Holds(|c| c.cpu.pstates.iter().all(|p| p.voltage_v > 0.0), "> 0");
            "P-state voltage must be positive"),
        rule!("cpu.pstates[].freq_mhz",
            Holds(|c| c.cpu.pstates.iter().all(|p| p.freq_mhz > 0), "> 0");
            "P-state frequency must be positive"),
        rule!("cpu.pstates[].freq_mhz",
            Holds(|c| c.cpu.pstates.windows(2).all(|w| w[0].freq_mhz > w[1].freq_mhz),
                "strictly descending");
            "P-states must be in strictly descending frequency order"),
        rule!(Range cpu.dynamic_power_max_w, NON_NEGATIVE; "dynamic power must be non-negative"),
        rule!(Range cpu.leakage_power_ref_w, NON_NEGATIVE; "leakage power must be non-negative"),
        rule!(Below cpu.emergency_throttle_c < cpu.emergency_shutdown_c;
            "throttle threshold must be below shutdown threshold"),
        rule!(Range cpu.emergency_hysteresis_c, NON_NEGATIVE; "hysteresis must be non-negative"),
        rule!(Finite fan.max_rpm; "fan max RPM must be finite"),
        rule!(Finite fan.time_constant_s; "fan time constant must be finite"),
        rule!(Finite fan.max_power_w; "fan power must be finite"),
        rule!(Finite fan.stall_fraction; "stall fraction must be finite"),
        rule!(Range fan.max_rpm, POSITIVE; "fan max RPM must be positive"),
        rule!(Range fan.time_constant_s, POSITIVE; "fan time constant must be positive"),
        rule!(Range fan.max_power_w, NON_NEGATIVE; "fan power must be non-negative"),
        rule!(Range fan.stall_fraction, (Included(0.0), Excluded(1.0));
            "stall fraction must be in [0,1)"),
        rule!(Finite sensor.noise_std_c; "sensor noise must be finite"),
        rule!(Finite sensor.quantization_c; "sensor quantization must be finite"),
        rule!(Finite sensor.offset_c; "sensor offset must be finite"),
        rule!(Finite sensor.core_spread_c; "core spread must be finite"),
        rule!(Range sensor.noise_std_c, NON_NEGATIVE; "sensor noise must be non-negative"),
        rule!(Range sensor.quantization_c, NON_NEGATIVE;
            "sensor quantization must be non-negative"),
        rule!(AtLeast sensor.count, 1; "need at least one thermal sensor"),
        rule!(AtMost sensor.count, MAX_SENSORS; "sensor count must be at most {max}"),
        rule!(Range sensor.core_spread_c, NON_NEGATIVE; "core spread must be non-negative"),
        rule!(Finite board.base_power_w; "base power must be finite"),
        rule!(Finite board.psu_efficiency; "PSU efficiency must be finite"),
        rule!(Range board.base_power_w, NON_NEGATIVE; "base power must be non-negative"),
        // Wall power is the DC load divided by the efficiency, so a tiny
        // efficiency drives it non-finite. No supply wastes more than it
        // delivers.
        rule!(Range board.psu_efficiency, (Included(0.5), Included(1.0));
            "PSU efficiency must be in [0.5, 1]"),
    ];

    /// Validates the configuration against [`NodeConfig::RULES`]. Scenario
    /// files carry whole node configs, so a bad value is a data error for
    /// the caller to name; [`crate::Node`] construction panics on the same
    /// error, which keeps the simulation loop free of defensive checks.
    ///
    /// # Errors
    /// Returns the first broken rule's error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(Self::RULES, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn errors(c: &NodeConfig) -> Result<(), String> {
        c.validate().map_err(|e| e.to_string())
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(errors(&NodeConfig::default()), Ok(()));
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
        assert!(errors(&c).is_err_and(|e| e.contains("descending frequency")));
    }

    #[test]
    fn rejects_a_non_positive_pstate_voltage() {
        for (idx, bad) in [(0, 0.0), (0, -1.0), (4, 0.0), (2, -0.5)] {
            let mut c = NodeConfig::default();
            c.cpu.pstates[idx].voltage_v = bad;
            assert_eq!(
                errors(&c),
                Err("P-state voltage must be positive".into()),
                "[{idx}] = {bad}"
            );
        }
    }

    #[test]
    fn rejects_a_zero_pstate_frequency() {
        let mut c = NodeConfig::default();
        c.cpu.pstates.last_mut().expect("default P-states").freq_mhz = 0;
        assert_eq!(errors(&c), Err("P-state frequency must be positive".into()));
    }

    #[test]
    fn rejects_zero_capacity() {
        let mut c = NodeConfig::default();
        c.thermal.die_capacity_j_per_k = 0.0;
        assert!(errors(&c).is_err_and(|e| e.contains("die capacity")));
    }

    /// Sets the `n`-th `f64` leaf of `node`, in document order, to `bad`
    /// and returns its path as `RULES` spells it (`[]` for a list element).
    fn set_nth_leaf(node: &mut Value, path: &str, n: &mut usize, bad: f64) -> Option<String> {
        match node {
            Value::F64(v) if *n == 0 => {
                *v = bad;
                Some(path.to_string())
            }
            Value::F64(_) => {
                *n -= 1;
                None
            }
            Value::Map(entries) => entries.iter_mut().find_map(|(key, v)| {
                let path = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                set_nth_leaf(v, &path, n, bad)
            }),
            Value::Seq(items) => {
                items.iter_mut().find_map(|v| set_nth_leaf(v, &format!("{path}[]"), n, bad))
            }
            _ => None,
        }
    }

    #[test]
    fn rejects_every_non_finite_value_by_name() {
        use unitherm_core::config::Check;
        let is_finite_row =
            |r: &&Rule<NodeConfig>| matches!(r.check, Check::Finite(_) | Check::Holds(_, "finite"));
        let json = serde_json::to_string(&NodeConfig::default()).expect("serializes");
        let doc = serde_json::parse_value(&json).expect("valid JSON");
        let mut named = std::collections::HashSet::new();
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for k in 0.. {
                let mut tree = doc.clone();
                let mut n = k;
                let Some(path) = set_nth_leaf(&mut tree, "", &mut n, bad) else { break };
                let row = NodeConfig::RULES
                    .iter()
                    .filter(is_finite_row)
                    .find(|r| r.field == path)
                    .unwrap_or_else(|| panic!("no finite rule for {path}"));
                assert!(row.message.ends_with(" must be finite"), "{}", row.message);
                let c = <NodeConfig as serde::Deserialize>::deserialize(&tree).expect("shape");
                assert_eq!(errors(&c), Err(row.message.into()), "{path} = {bad}");
                named.insert(row.field);
            }
        }
        let rows: Vec<&str> =
            NodeConfig::RULES.iter().filter(is_finite_row).map(|r| r.field).collect();
        assert!(rows.iter().all(|f| named.contains(f)), "a finite rule names no field: {rows:?}");
        // Every float of the default config, P-state voltages as one.
        assert_eq!(named.len(), 25);
    }

    #[test]
    fn psu_efficiency_must_be_physical() {
        let bad = Err("PSU efficiency must be in [0.5, 1]");
        for (eff, want) in
            [(1e-320, bad), (0.0, bad), (0.49, bad), (0.5, Ok(())), (1.0, Ok(())), (1.01, bad)]
        {
            let mut c = NodeConfig::default();
            c.board.psu_efficiency = eff;
            assert_eq!(errors(&c), want.map_err(String::from), "{eff}");
        }
    }

    #[test]
    fn rejects_a_sensor_count_above_the_cap() {
        let mut c = NodeConfig::default();
        c.sensor.count = MAX_SENSORS;
        assert_eq!(errors(&c), Ok(()));
        c.sensor.count = MAX_SENSORS + 1;
        assert_eq!(errors(&c), Err("sensor count must be at most 256".into()));
    }

    #[test]
    fn rejects_inverted_emergency_thresholds() {
        let mut c = NodeConfig::default();
        c.cpu.emergency_throttle_c = 90.0;
        assert!(errors(&c).is_err_and(|e| e.contains("below shutdown")));
    }

    #[test]
    fn clone_compares_equal() {
        let c = NodeConfig::default();
        assert_eq!(c.clone(), c);
    }
}
