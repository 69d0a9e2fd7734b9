//! The fan driver: the paper's custom Linux device driver for the ADT7467.
//!
//! §4.1: "we bought an ADT7467 dBCool remote thermal monitor and fan
//! controller … and connected it to the system. We then developed a Linux
//! device driver that regulates fan speed using the i2c protocol. In this
//! driver, we discretize the continuous fan speed into 100 distinct speeds
//! from duty cycle of 1 % to 100 %."
//!
//! The driver here does the same against the simulated chip: it probes the
//! device ID over i2c, takes the PWM channel into manual mode, and clamps
//! every command to a configurable maximum-allowed duty (how the paper
//! emulates less-capable fans).

use unitherm_core::actuator::FanDuty;
use unitherm_simnode::adt7467::{regs, DEVICE_ID};
use unitherm_simnode::node::NodeView;
use unitherm_simnode::units::DutyCycle;

use crate::error::HwmonError;

/// Driver state for one ADT7467 PWM channel.
#[derive(Debug, Clone)]
pub struct FanDriver {
    addr: u8,
    max_duty: FanDuty,
    last_commanded: FanDuty,
}

impl FanDriver {
    /// Probes the chip at `addr`, verifies its device ID, caps the channel
    /// at `max_duty` and switches it to manual mode at the minimum running
    /// duty.
    pub fn probe_at(
        node: &mut NodeView<'_>,
        addr: u8,
        max_duty: FanDuty,
    ) -> Result<Self, HwmonError> {
        let id = node.smbus_read(addr, regs::DEVICE_ID)?;
        if id != DEVICE_ID {
            return Err(HwmonError::ProbeFailed {
                reason: format!(
                    "device at 0x{addr:02x} reports id 0x{id:02x}, expected 0x{DEVICE_ID:02x}"
                ),
            });
        }
        let max_duty = max_duty.clamp(1, 100);
        // Cap the channel in hardware too, then take manual control.
        node.smbus_write(addr, regs::PWM_MAX, DutyCycle::new(max_duty).to_register())?;
        node.smbus_write(addr, regs::PWM_CONFIG, 1)?;
        let mut driver = Self { addr, max_duty, last_commanded: 1 };
        driver.set_duty(node, 1)?;
        Ok(driver)
    }

    /// The last successfully commanded duty.
    pub fn last_commanded(&self) -> FanDuty {
        self.last_commanded
    }

    /// Commands a duty cycle, clamped to `[1, max_duty]`.
    pub fn set_duty(&mut self, node: &mut NodeView<'_>, duty: FanDuty) -> Result<(), HwmonError> {
        let duty = duty.clamp(1, self.max_duty);
        node.smbus_write(self.addr, regs::PWM_CURRENT, DutyCycle::new(duty).to_register())?;
        self.last_commanded = duty;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_simnode::node::{Node, ADT7467_ADDR};
    use unitherm_simnode::NodeConfig;

    fn node() -> Node {
        Node::new(NodeConfig::default(), 11)
    }

    fn probe(n: &mut Node) -> FanDriver {
        FanDriver::probe_at(&mut n.view(), ADT7467_ADDR, 100).expect("probe")
    }

    /// The duty currently programmed in the chip.
    fn chip_duty(n: &mut Node) -> FanDuty {
        DutyCycle::from_register(n.view().smbus_read(ADT7467_ADDR, regs::PWM_CURRENT).unwrap())
            .percent()
    }

    #[test]
    fn probe_succeeds_on_real_chip() {
        let mut n = node();
        let d = probe(&mut n);
        assert_eq!(d.max_duty, 100);
        assert_eq!(d.last_commanded(), 1);
        // Chip is now in manual mode.
        assert_eq!(n.view().smbus_read(ADT7467_ADDR, regs::PWM_CONFIG).unwrap(), 1);
    }

    #[test]
    fn probe_fails_on_missing_device() {
        let mut n = node();
        let err = FanDriver::probe_at(&mut n.view(), 0x10, 100).unwrap_err();
        assert!(matches!(err, HwmonError::I2c(_)), "{err}");
    }

    #[test]
    fn set_and_read_duty_roundtrip() {
        let mut n = node();
        let mut d = probe(&mut n);
        for duty in [1u8, 25, 50, 75, 100] {
            d.set_duty(&mut n.view(), duty).unwrap();
            assert_eq!(chip_duty(&mut n), duty);
            assert_eq!(d.last_commanded(), duty);
        }
    }

    #[test]
    fn duty_clamps_to_max() {
        let mut n = node();
        let mut d = FanDriver::probe_at(&mut n.view(), ADT7467_ADDR, 25).unwrap();
        d.set_duty(&mut n.view(), 80).unwrap();
        assert_eq!(d.last_commanded(), 25);
        assert_eq!(chip_duty(&mut n), 25);
    }

    #[test]
    fn zero_duty_clamps_to_one() {
        let mut n = node();
        let mut d = probe(&mut n);
        d.set_duty(&mut n.view(), 0).unwrap();
        assert_eq!(d.last_commanded(), 1);
    }

    #[test]
    fn driver_actually_moves_the_fan() {
        let mut n = node();
        let mut d = probe(&mut n);
        d.set_duty(&mut n.view(), 80).unwrap();
        for _ in 0..200 {
            n.tick(0.05);
        }
        let rpm = n.view().state().fan_rpm;
        assert!((rpm - 0.8 * 4300.0).abs() < 60.0, "rpm {rpm}");
    }

    #[test]
    fn max_duty_clamped_to_valid_range() {
        let mut n = node();
        let d = FanDriver::probe_at(&mut n.view(), ADT7467_ADDR, 0).unwrap();
        assert_eq!(d.max_duty, 1);
        let mut n2 = node();
        let d2 = FanDriver::probe_at(&mut n2.view(), ADT7467_ADDR, 255).unwrap();
        assert_eq!(d2.max_duty, 100);
    }
}
