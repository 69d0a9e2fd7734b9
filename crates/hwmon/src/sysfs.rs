//! A sysfs-style string-attribute façade over the drivers.
//!
//! Exposes the node's control surface with exactly the Linux conventions a
//! shell user or script would see:
//!
//! | path                                    | unit / encoding            |
//! |-----------------------------------------|----------------------------|
//! | `hwmon0/temp1_input`                    | millidegrees C, read-only  |
//! | `hwmon0/pwm1`                           | 0–255, read-write          |
//! | `hwmon0/pwm1_enable`                    | `1` manual, `2` automatic  |
//! | `hwmon0/fan1_input`                     | RPM (tach), read-only      |
//! | `cpufreq/scaling_cur_freq`              | kHz, read-only             |
//! | `cpufreq/scaling_setspeed`              | kHz, write                 |
//! | `cpufreq/scaling_available_frequencies` | kHz list, read-only        |
//!
//! Unit conversions (percent ↔ 0–255, °C ↔ millidegrees, MHz ↔ kHz) are a
//! classic source of driver bugs; the tests here pin each one.

use unitherm_simnode::adt7467::regs;
use unitherm_simnode::node::{NodeView, ADT7467_ADDR};
use unitherm_simnode::units::DutyCycle;

use crate::error::HwmonError;
use crate::lm_sensors::LmSensors;

/// The sysfs attribute tree for one node.
#[derive(Debug, Clone, Default)]
pub struct SysfsTree {
    lm: LmSensors,
}

impl SysfsTree {
    /// Creates the tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads an attribute as its string representation.
    pub fn read(&mut self, node: &mut NodeView<'_>, path: &str) -> Result<String, HwmonError> {
        // `hwmon0/tempN_input` for N ≥ 2 maps to per-core sensors on
        // multi-sensor parts (temp1 stays the primary path below).
        if let Some(rest) = path.strip_prefix("hwmon0/temp") {
            if let Some(idx_str) = rest.strip_suffix("_input") {
                if idx_str != "1" {
                    let n: usize = idx_str
                        .parse()
                        .map_err(|_| HwmonError::NoSuchAttribute { path: path.to_string() })?;
                    if n == 0 || n > node.sensor_count() {
                        return Err(HwmonError::NoSuchAttribute { path: path.to_string() });
                    }
                    return Ok(node.read_sensor_at(n - 1).map_err(HwmonError::from)?.0.to_string());
                }
            }
        }
        match path {
            "hwmon0/temp1_input" => Ok(self.lm.read_millic(node)?.0.to_string()),
            "hwmon0/pwm1" => {
                let raw = node.smbus_read(ADT7467_ADDR, regs::PWM_CURRENT)?;
                Ok(raw.to_string())
            }
            "hwmon0/pwm1_enable" => {
                let mode = node.smbus_read(ADT7467_ADDR, regs::PWM_CONFIG)?;
                // Linux hwmon convention: 1 = manual, 2 = automatic.
                Ok(if mode == 1 { "1" } else { "2" }.to_string())
            }
            "hwmon0/fan1_input" => Ok(format!("{:.0}", node.state().fan_rpm)),
            "cpufreq/scaling_cur_freq" => Ok(node.requested_frequency_khz().to_string()),
            "cpufreq/scaling_available_frequencies" => Ok(node
                .available_frequencies_khz()
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(" ")),
            "cpufreq/scaling_setspeed" => {
                Err(HwmonError::NoSuchAttribute { path: format!("{path} (write-only)") })
            }
            other => Err(HwmonError::NoSuchAttribute { path: other.to_string() }),
        }
    }

    /// Writes an attribute from its string representation.
    pub fn write(
        &mut self,
        node: &mut NodeView<'_>,
        path: &str,
        value: &str,
    ) -> Result<(), HwmonError> {
        let value = value.trim();
        match path {
            "hwmon0/pwm1" => {
                let raw: u8 = value.parse().map_err(|_| HwmonError::InvalidValue {
                    path: path.to_string(),
                    value: value.to_string(),
                })?;
                node.smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, raw)?;
                Ok(())
            }
            "hwmon0/pwm1_enable" => {
                match value {
                    // Linux convention 0 = "full speed": manual mode pinned
                    // at maximum duty.
                    "0" => {
                        node.smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1)?;
                        node.smbus_write(
                            ADT7467_ADDR,
                            regs::PWM_CURRENT,
                            DutyCycle::MAX.to_register(),
                        )?;
                    }
                    "1" => {
                        node.smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1)?;
                    }
                    "2" => {
                        node.smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 0)?;
                    }
                    _ => {
                        return Err(HwmonError::InvalidValue {
                            path: path.to_string(),
                            value: value.to_string(),
                        })
                    }
                }
                Ok(())
            }
            "cpufreq/scaling_setspeed" => {
                let khz: u32 = value.parse().map_err(|_| HwmonError::InvalidValue {
                    path: path.to_string(),
                    value: value.to_string(),
                })?;
                node.set_frequency_khz(khz)?;
                Ok(())
            }
            "hwmon0/temp1_input"
            | "hwmon0/fan1_input"
            | "cpufreq/scaling_cur_freq"
            | "cpufreq/scaling_available_frequencies" => {
                Err(HwmonError::ReadOnlyAttribute { path: path.to_string() })
            }
            other => Err(HwmonError::NoSuchAttribute { path: other.to_string() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_simnode::node::Node;
    use unitherm_simnode::NodeConfig;

    fn setup() -> (Node, SysfsTree) {
        (Node::new(NodeConfig::default(), 23), SysfsTree::new())
    }

    #[test]
    fn temp1_input_is_millidegrees() {
        let (mut n, mut t) = setup();
        let v: i64 = t.read(&mut n.view(), "hwmon0/temp1_input").unwrap().parse().unwrap();
        let die = n.view().die_temp_c();
        assert!((v as f64 / 1000.0 - die).abs() < 2.5, "{v} m°C vs die {die}");
    }

    #[test]
    fn pwm1_roundtrip_in_register_units() {
        let (mut n, mut t) = setup();
        t.write(&mut n.view(), "hwmon0/pwm1_enable", "1").unwrap();
        t.write(&mut n.view(), "hwmon0/pwm1", "128").unwrap();
        assert_eq!(t.read(&mut n.view(), "hwmon0/pwm1").unwrap(), "128");
        assert_eq!(DutyCycle::from_register(128).percent(), 50);
    }

    #[test]
    fn pwm1_enable_uses_linux_convention() {
        let (mut n, mut t) = setup();
        assert_eq!(
            t.read(&mut n.view(), "hwmon0/pwm1_enable").unwrap(),
            "2",
            "chip boots automatic"
        );
        t.write(&mut n.view(), "hwmon0/pwm1_enable", "1").unwrap();
        assert_eq!(t.read(&mut n.view(), "hwmon0/pwm1_enable").unwrap(), "1");
        t.write(&mut n.view(), "hwmon0/pwm1_enable", "2").unwrap();
        assert_eq!(t.read(&mut n.view(), "hwmon0/pwm1_enable").unwrap(), "2");
    }

    #[test]
    fn scaling_setspeed_takes_khz() {
        let (mut n, mut t) = setup();
        t.write(&mut n.view(), "cpufreq/scaling_setspeed", "2000000").unwrap();
        assert_eq!(t.read(&mut n.view(), "cpufreq/scaling_cur_freq").unwrap(), "2000000");
        assert_eq!(n.view().requested_frequency_khz(), 2_000_000);
    }

    #[test]
    fn available_frequencies_listed_in_khz() {
        let (mut n, mut t) = setup();
        let s = t.read(&mut n.view(), "cpufreq/scaling_available_frequencies").unwrap();
        assert_eq!(s, "2400000 2200000 2000000 1800000 1000000");
    }

    #[test]
    fn fan1_input_reports_rpm() {
        let (mut n, mut t) = setup();
        let rpm: f64 = t.read(&mut n.view(), "hwmon0/fan1_input").unwrap().parse().unwrap();
        assert!((rpm - n.view().state().fan_rpm).abs() < 1.0);
    }

    #[test]
    fn read_only_attributes_reject_writes() {
        let (mut n, mut t) = setup();
        for p in ["hwmon0/temp1_input", "hwmon0/fan1_input", "cpufreq/scaling_cur_freq"] {
            assert!(matches!(
                t.write(&mut n.view(), p, "1"),
                Err(HwmonError::ReadOnlyAttribute { .. })
            ));
        }
    }

    #[test]
    fn unknown_path_rejected() {
        let (mut n, mut t) = setup();
        assert!(matches!(
            t.read(&mut n.view(), "hwmon0/nonsense"),
            Err(HwmonError::NoSuchAttribute { .. })
        ));
        assert!(matches!(
            t.write(&mut n.view(), "hwmon0/nonsense", "1"),
            Err(HwmonError::NoSuchAttribute { .. })
        ));
    }

    #[test]
    fn bad_values_rejected() {
        let (mut n, mut t) = setup();
        assert!(matches!(
            t.write(&mut n.view(), "hwmon0/pwm1", "not-a-number"),
            Err(HwmonError::InvalidValue { .. })
        ));
        assert!(matches!(
            t.write(&mut n.view(), "hwmon0/pwm1_enable", "7"),
            Err(HwmonError::InvalidValue { .. })
        ));
        assert!(matches!(
            t.write(&mut n.view(), "cpufreq/scaling_setspeed", "fast"),
            Err(HwmonError::InvalidValue { .. })
        ));
        // Valid number, invalid frequency.
        assert!(matches!(
            t.write(&mut n.view(), "cpufreq/scaling_setspeed", "1234567"),
            Err(HwmonError::Frequency(_))
        ));
    }

    #[test]
    fn whitespace_in_writes_tolerated() {
        let (mut n, mut t) = setup();
        t.write(&mut n.view(), "cpufreq/scaling_setspeed", " 1800000\n").unwrap();
        assert_eq!(n.view().requested_frequency_khz(), 1_800_000);
    }

    #[test]
    fn pwm1_enable_zero_means_full_speed() {
        let (mut n, mut t) = setup();
        t.write(&mut n.view(), "hwmon0/pwm1_enable", "0").unwrap();
        // Linux "0" = full speed: manual mode at maximum duty.
        assert_eq!(t.read(&mut n.view(), "hwmon0/pwm1_enable").unwrap(), "1");
        assert_eq!(t.read(&mut n.view(), "hwmon0/pwm1").unwrap(), "255");
    }

    #[test]
    fn multi_sensor_tempn_paths() {
        let mut cfg = unitherm_simnode::NodeConfig::default();
        cfg.sensor.count = 3;
        cfg.sensor.noise_std_c = 0.0;
        let mut n = Node::new(cfg, 31);
        let mut t = SysfsTree::new();
        // temp1..temp3 all readable, monotone in the per-core offsets.
        let v1: i64 = t.read(&mut n.view(), "hwmon0/temp1_input").unwrap().parse().unwrap();
        let v2: i64 = t.read(&mut n.view(), "hwmon0/temp2_input").unwrap().parse().unwrap();
        let v3: i64 = t.read(&mut n.view(), "hwmon0/temp3_input").unwrap().parse().unwrap();
        assert!(v1 < v2 && v2 < v3, "per-core offsets: {v1} {v2} {v3}");
        // Out-of-range and malformed indices rejected.
        assert!(matches!(
            t.read(&mut n.view(), "hwmon0/temp4_input"),
            Err(HwmonError::NoSuchAttribute { .. })
        ));
        assert!(matches!(
            t.read(&mut n.view(), "hwmon0/temp0_input"),
            Err(HwmonError::NoSuchAttribute { .. })
        ));
        assert!(matches!(
            t.read(&mut n.view(), "hwmon0/tempX_input"),
            Err(HwmonError::NoSuchAttribute { .. })
        ));
    }

    #[test]
    fn single_sensor_has_no_temp2() {
        let (mut n, mut t) = setup();
        assert!(matches!(
            t.read(&mut n.view(), "hwmon0/temp2_input"),
            Err(HwmonError::NoSuchAttribute { .. })
        ));
    }
}
