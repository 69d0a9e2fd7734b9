//! The platform binding: how a [`SchemeSpec`] maps onto this node's
//! hardware seams, and the [`Actuators`] implementation the control plane
//! drives.
//!
//! [`PlatformBinding::probe`] does the one-time hardware setup a scheme
//! needs — writing the ADT7467's `PWM_MAX` cap for chip-automatic schemes,
//! probing the manual-mode fan driver for software-controlled ones, and
//! binding the cpufreq driver when the scheme scales frequency — and then
//! [`PlatformActuators`] adapts a node's [`NodeView`] and its binding to
//! the hardware-agnostic [`Actuators`] trait so core daemons never see
//! driver types.

use unitherm_core::acpi::SleepState;
use unitherm_core::actuator::{FanDuty, FreqMhz};
use unitherm_core::control_plane::{Actuators, FanBinding, SchemeSpec};
use unitherm_simnode::adt7467::regs;
use unitherm_simnode::node::{NodeView, ADT7467_ADDR};
use unitherm_simnode::units::DutyCycle;

use crate::cpufreq::CpufreqDriver;
use crate::error::HwmonError;
use crate::fan_driver::FanDriver;

/// The probed hardware seams one scheme needs on one node.
#[derive(Debug)]
pub struct PlatformBinding {
    /// Manual-mode fan driver; `None` for chip-automatic schemes (the chip
    /// runs its own curve and software stays out of the way).
    fan_driver: Option<FanDriver>,
    /// cpufreq driver; `None` when the scheme never scales frequency, so
    /// frequency requests go straight to the node.
    cpufreq: Option<CpufreqDriver>,
}

impl PlatformBinding {
    /// Probes the hardware a scheme needs: the fan path per
    /// [`SchemeSpec::fan_binding`], and the cpufreq driver when the scheme
    /// wants it (a request then reports whether it changed the operating
    /// point). Without it, frequency requests go straight to the node: a
    /// direct request is "accepted" even when it is a no-op.
    pub fn probe(node: &mut NodeView<'_>, spec: &SchemeSpec) -> Result<Self, HwmonError> {
        let fan_driver = match spec.fan_binding() {
            FanBinding::ChipAuto { cap } => {
                // Cap the automatic curve in hardware; the chip keeps
                // running the fan itself.
                node.smbus_write(ADT7467_ADDR, regs::PWM_MAX, DutyCycle::new(cap).to_register())?;
                None
            }
            FanBinding::Manual { max_duty } => {
                Some(FanDriver::probe_at(node, ADT7467_ADDR, max_duty)?)
            }
        };
        let cpufreq = spec.wants_cpufreq().then_some(CpufreqDriver);
        Ok(Self { fan_driver, cpufreq })
    }

    /// The node's frequency ladder in descending MHz (the
    /// [`unitherm_core::control_plane::BuildContext`] input).
    pub fn available_mhz(node: &NodeView<'_>) -> Vec<FreqMhz> {
        node.available_frequencies_khz().iter().map(|khz| khz / 1000).collect()
    }

    /// The manual-mode fan driver, if this binding took the fan over.
    pub fn fan_driver(&self) -> Option<&FanDriver> {
        self.fan_driver.as_ref()
    }
}

/// Adapter implementing the control plane's [`Actuators`] trait over a
/// node and its probed binding.
#[derive(Debug)]
pub struct PlatformActuators<'a> {
    /// The node being actuated.
    pub node: NodeView<'a>,
    /// The probed hardware seams.
    pub binding: &'a mut PlatformBinding,
}

impl Actuators for PlatformActuators<'_> {
    fn set_fan_duty(&mut self, duty: FanDuty) -> bool {
        match self.binding.fan_driver.as_mut() {
            Some(drv) => drv.set_duty(&mut self.node, duty).is_ok(),
            None => false,
        }
    }

    fn last_commanded_duty(&self) -> FanDuty {
        self.binding
            .fan_driver
            .as_ref()
            .map_or_else(|| self.node.fan_duty().percent(), FanDriver::last_commanded)
    }

    fn restore_fan_auto(&mut self) -> bool {
        self.node.smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 0).is_ok()
    }

    fn set_frequency_mhz(&mut self, mhz: FreqMhz) -> bool {
        match self.binding.cpufreq {
            // Through cpufreq: true means the request *changed* the state
            // (and was counted as a transition).
            Some(drv) => drv.set_mhz(&mut self.node, mhz).unwrap_or(false),
            // Direct: true means the request was *accepted*, no-op or not.
            None => self.node.set_frequency_khz(mhz * 1000).is_ok(),
        }
    }

    fn restore_frequency_mhz(&mut self, mhz: FreqMhz) -> bool {
        self.node.set_frequency_khz(mhz * 1000).is_ok()
    }

    fn restore_max_frequency(&mut self) -> bool {
        let mhz = self.node.available_frequencies_khz()[0] / 1000;
        self.node.set_frequency_khz(mhz * 1000).is_ok()
    }

    fn force_max_cooling(&mut self) -> (FanDuty, FreqMhz) {
        let duty = match self.binding.fan_driver.as_mut() {
            Some(drv) => {
                // The driver clamps to its max-allowed duty: a capped fan
                // can only be forced to its cap.
                let _ = drv.set_duty(&mut self.node, 100);
                drv.last_commanded()
            }
            None => {
                // Chip-automatic scheme: seize the channel and floor it.
                let _ = self.node.smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1);
                let _ = self.node.smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, 0xFF);
                self.node.fan_duty().percent()
            }
        };
        let lowest = *self.node.available_frequencies_khz().last().expect("non-empty ladder");
        let _ = self.node.set_frequency_khz(lowest);
        (duty, lowest / 1000)
    }

    fn set_sleep_state(&mut self, state: SleepState) -> bool {
        self.node.set_sleep_gate(state.power_fraction());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_core::control_array::Policy;
    use unitherm_core::control_plane::{DvfsScheme, FanScheme};
    use unitherm_simnode::node::Node;
    use unitherm_simnode::NodeConfig;

    fn node() -> Node {
        Node::new(NodeConfig::default(), 11)
    }

    #[test]
    fn chip_auto_scheme_probes_without_a_driver() {
        let mut n = node();
        let spec = SchemeSpec::split(FanScheme::ChipAutomatic { max_duty: 60 }, DvfsScheme::None);
        let binding = PlatformBinding::probe(&mut n.view(), &spec).unwrap();
        assert!(binding.fan_driver().is_none());
        assert!(binding.cpufreq.is_none());
        // The hardware cap was written: even a hot die cannot exceed 60 %.
        n.view().set_utilization(1.0);
        for _ in 0..4000 {
            n.tick(0.05);
        }
        let duty = n.view().fan_duty().percent();
        assert!(duty <= 60, "{duty}");
    }

    #[test]
    fn manual_scheme_probes_driver_and_cpufreq() {
        let mut n = node();
        let spec =
            SchemeSpec::split(FanScheme::dynamic(Policy::MODERATE, 80), DvfsScheme::cpuspeed());
        let mut binding = PlatformBinding::probe(&mut n.view(), &spec).unwrap();
        assert!(binding.fan_driver().is_some());
        assert!(binding.cpufreq.is_some());
        // The driver clamps to the scheme's cap.
        let mut act = PlatformActuators { node: n.view(), binding: &mut binding };
        assert_eq!(act.force_max_cooling().0, 80);
    }

    #[test]
    fn actuators_route_through_the_binding() {
        let mut n = node();
        let spec = SchemeSpec::split(FanScheme::dynamic(Policy::MODERATE, 50), DvfsScheme::None);
        let mut binding = PlatformBinding::probe(&mut n.view(), &spec).unwrap();
        {
            let mut act = PlatformActuators { node: n.view(), binding: &mut binding };
            assert!(act.set_fan_duty(40));
            assert_eq!(act.last_commanded_duty(), 40);
            // Driver clamp: forcing max cooling on a 50 %-capped driver
            // yields 50.
            let (duty, mhz) = act.force_max_cooling();
            assert_eq!(duty, 50);
            assert_eq!(mhz, 1000);
            // Direct frequency requests are "accepted" even as no-ops.
            assert!(act.set_frequency_mhz(1000));
            assert!(act.restore_max_frequency());
        }
        assert_eq!(n.view().requested_frequency_khz(), 2_400_000);
    }

    #[test]
    fn sleep_state_actuation_gates_the_cpu() {
        let mut n = node();
        let spec = SchemeSpec::acpi_sleep(Policy::MODERATE, FanScheme::Constant { duty: 40 });
        let mut binding = PlatformBinding::probe(&mut n.view(), &spec).unwrap();
        {
            let mut act = PlatformActuators { node: n.view(), binding: &mut binding };
            assert!(act.set_sleep_state(SleepState::C2));
        }
        assert!((n.view().sleep_gate() - SleepState::C2.power_fraction()).abs() < 1e-12);
        {
            let mut act = PlatformActuators { node: n.view(), binding: &mut binding };
            assert!(act.set_sleep_state(SleepState::C0));
        }
        assert_eq!(n.view().sleep_gate(), 1.0);
    }
}
