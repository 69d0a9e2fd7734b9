//! Mode tokens and mode sets: what mode decisions are made over.
//!
//! The paper's point is that one controller design drives *diverse physical
//! mechanisms* — "changing CPU frequencies or controlling fan speeds" —
//! through the common thermal-control-array representation. This module
//! names each mechanism's mode token and builds its effectiveness-ordered
//! mode set; the daemons apply the chosen mode through
//! [`crate::control_plane::Actuators`].

/// A mode token for out-of-band fan control: a PWM duty cycle in percent
/// (`1..=100`). Higher duty = more effective cooling.
pub type FanDuty = u8;

/// A mode token for in-band DVFS control: a core frequency in MHz.
/// Lower frequency = more effective cooling.
pub type FreqMhz = u32;

/// The full fan mode set: duty cycles from 1 % to `max` percent, ascending
/// effectiveness. This is the paper's discretization of continuous fan speed
/// into 100 distinct speeds, optionally truncated by a maximum-allowed PWM
/// duty (Figures 6, 7, 9, 10 all cap the fan this way).
pub fn fan_mode_set(max_duty: FanDuty) -> Vec<FanDuty> {
    let max = max_duty.clamp(1, 100);
    (1..=max).collect()
}

/// The DVFS mode set for a frequency ladder given in *descending* frequency
/// order (as cpufreq reports it): returned unchanged, since descending
/// frequency is ascending cooling effectiveness.
pub fn dvfs_mode_set(frequencies_desc_mhz: &[FreqMhz]) -> Vec<FreqMhz> {
    assert!(
        frequencies_desc_mhz.windows(2).all(|w| w[0] > w[1]),
        "frequencies must be strictly descending"
    );
    frequencies_desc_mhz.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_mode_set_full_range() {
        let m = fan_mode_set(100);
        assert_eq!(m.len(), 100);
        assert_eq!(m[0], 1);
        assert_eq!(m[99], 100);
    }

    #[test]
    fn fan_mode_set_capped() {
        let m = fan_mode_set(25);
        assert_eq!(m.len(), 25);
        assert_eq!(*m.last().unwrap(), 25);
    }

    #[test]
    fn fan_mode_set_clamps_degenerate() {
        assert_eq!(fan_mode_set(0), vec![1]);
        assert_eq!(fan_mode_set(200).len(), 100);
    }

    #[test]
    fn dvfs_mode_set_passthrough() {
        let m = dvfs_mode_set(&[2400, 2200, 2000, 1800, 1000]);
        assert_eq!(m, vec![2400, 2200, 2000, 1800, 1000]);
    }

    #[test]
    #[should_panic(expected = "descending")]
    fn dvfs_mode_set_rejects_unsorted() {
        let _ = dvfs_mode_set(&[1000, 2400]);
    }
}
