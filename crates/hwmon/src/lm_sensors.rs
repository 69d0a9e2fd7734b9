//! lm-sensors-style temperature polling.
//!
//! The paper samples the processor's on-die digital thermal sensor through
//! lm-sensors at four samples per second. This driver wraps the sensor read
//! with the same conventions: millidegree integer readings and a cached
//! last good value for transient dropouts.

use unitherm_simnode::node::NodeView;
use unitherm_simnode::units::MilliCelsius;

use crate::error::HwmonError;

/// lm-sensors-style sensor access.
#[derive(Debug, Clone, Default)]
pub struct LmSensors {
    last_good: Option<MilliCelsius>,
}

impl LmSensors {
    /// Creates the sensor interface.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the CPU temperature in millidegrees.
    pub fn read_millic(&mut self, node: &mut NodeView<'_>) -> Result<MilliCelsius, HwmonError> {
        let m = node.read_sensor()?;
        self.last_good = Some(m);
        Ok(m)
    }

    /// Reads every on-die sensor and returns the hottest reading, in °C —
    /// the aggregation thermal control should act on for multi-core parts
    /// (protecting the hottest core protects them all). Fails only when no
    /// sensor responds.
    pub fn read_hottest_celsius(&mut self, node: &mut NodeView<'_>) -> Result<f64, HwmonError> {
        let m = node.read_hottest_sensor()?;
        self.last_good = Some(m);
        Ok(m.to_celsius())
    }

    /// The last successful reading.
    pub fn last_good(&self) -> Option<MilliCelsius> {
        self.last_good
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_simnode::faults::{FaultEvent, TickFaultSchedule};
    use unitherm_simnode::node::Node;
    use unitherm_simnode::NodeConfig;

    #[test]
    fn reads_track_die_temperature() {
        let mut node = Node::new(NodeConfig::default(), 17);
        let mut lm = LmSensors::new();
        let t = lm.read_hottest_celsius(&mut node.view()).unwrap();
        assert!(
            (t - node.view().die_temp_c()).abs() < 2.5,
            "reading {t} vs die {}",
            node.view().die_temp_c()
        );
        assert_eq!(lm.last_good(), Some(MilliCelsius::from_celsius(t)));
    }

    #[test]
    fn millic_units_are_integers_of_quantized_celsius() {
        let mut node = Node::new(NodeConfig::default(), 17);
        let mut lm = LmSensors::new();
        let m = lm.read_millic(&mut node.view()).unwrap();
        // 0.25 °C quantization ⇒ millidegrees divisible by 250.
        assert_eq!(m.0 % 250, 0, "reading {m}");
    }

    #[test]
    fn dropout_keeps_the_last_good_reading() {
        let faults = TickFaultSchedule::none().at_tick(20, FaultEvent::SensorDropout);
        let mut node = Node::with_faults(NodeConfig::default(), 17, faults);
        let mut lm = LmSensors::new();
        let before = lm.read_hottest_celsius(&mut node.view()).unwrap();
        for _ in 0..40 {
            node.tick(0.05);
        }
        assert!(lm.read_hottest_celsius(&mut node.view()).is_err(), "sensor is dark");
        assert_eq!(lm.last_good(), Some(MilliCelsius::from_celsius(before)));
    }

    #[test]
    fn dropout_without_history_has_no_last_good() {
        let faults = TickFaultSchedule::none().at_tick(1, FaultEvent::SensorDropout);
        let mut node = Node::with_faults(NodeConfig::default(), 17, faults);
        node.tick(0.05);
        let mut lm = LmSensors::new();
        assert!(lm.read_hottest_celsius(&mut node.view()).is_err());
        assert_eq!(lm.last_good(), None);
    }
}
