//! The cpufreq interface: in-band DVFS control in Linux units (kHz).
//!
//! Mirrors the userspace-governor control path the paper's tDVFS daemon
//! uses: write `scaling_setspeed`. The ladder it picks from is read once,
//! at build time, through [`crate::PlatformBinding::available_mhz`].

use unitherm_core::actuator::FreqMhz;
use unitherm_simnode::node::NodeView;

use crate::error::HwmonError;

/// The CPU's frequency-scaling interface, bound when a scheme scales
/// frequency.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpufreqDriver;

impl CpufreqDriver {
    /// Requests a frequency in MHz. Returns `true` when the request changed
    /// the operating point.
    pub fn set_mhz(self, node: &mut NodeView<'_>, mhz: FreqMhz) -> Result<bool, HwmonError> {
        Ok(node.set_frequency_khz(mhz * 1000)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_simnode::node::Node;
    use unitherm_simnode::NodeConfig;

    fn node() -> Node {
        Node::new(NodeConfig::default(), 13)
    }

    #[test]
    fn set_mhz_roundtrip() {
        let mut n = node();
        assert_eq!(CpufreqDriver.set_mhz(&mut n.view(), 2000), Ok(true));
        assert_eq!(n.view().requested_frequency_khz(), 2_000_000);
        assert_eq!(CpufreqDriver.set_mhz(&mut n.view(), 2000), Ok(false), "no-op request");
    }

    #[test]
    fn invalid_frequency_rejected() {
        let mut n = node();
        let err = CpufreqDriver.set_mhz(&mut n.view(), 2300).unwrap_err();
        assert!(matches!(err, HwmonError::Frequency(_)), "{err}");
        assert_eq!(n.view().requested_frequency_khz(), 2_400_000);
    }
}
