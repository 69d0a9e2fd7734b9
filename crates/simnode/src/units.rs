//! Small strongly-typed units used across the simulator.
//!
//! Temperatures and powers are plain `f64` (°C, W) — they flow through ODE
//! math where wrappers would add noise. The types here guard the values that
//! cross *interface* boundaries where Linux-style unit conventions invite
//! bugs: PWM duty cycles (percent vs 0–255 register values) and DVFS
//! P-states (MHz vs kHz).

use serde::{Deserialize, Serialize};

/// A PWM duty cycle in percent, clamped to `0..=100`.
///
/// The paper discretizes the continuous fan speed into 100 distinct speeds
/// from 1 % to 100 % duty; 0 % (fan off) additionally exists on the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DutyCycle(u8);

impl DutyCycle {
    /// Maximum duty (full fan speed).
    pub const MAX: DutyCycle = DutyCycle(100);
    /// Minimum non-zero duty in the paper's discretization.
    pub const MIN_RUNNING: DutyCycle = DutyCycle(1);
    /// Fan off.
    pub const OFF: DutyCycle = DutyCycle(0);

    /// Creates a duty cycle, clamping to `0..=100`.
    pub fn new(percent: u8) -> Self {
        Self(percent.min(100))
    }

    /// Creates a duty cycle from a fraction in `[0, 1]` (clamped, rounded).
    pub fn from_fraction(frac: f64) -> Self {
        Self((frac.clamp(0.0, 1.0) * 100.0).round() as u8)
    }

    /// Duty in percent, `0..=100`.
    pub fn percent(self) -> u8 {
        self.0
    }

    /// Duty as a fraction in `[0, 1]`.
    pub fn fraction(self) -> f64 {
        f64::from(self.0) / 100.0
    }

    /// Converts to the 8-bit register encoding used by the ADT7467
    /// (0 ↦ 0x00, 100 % ↦ 0xFF, linear in between).
    pub fn to_register(self) -> u8 {
        ((u16::from(self.0) * 255 + 50) / 100) as u8
    }

    /// Converts from the 8-bit register encoding (inverse of
    /// [`DutyCycle::to_register`] up to rounding).
    pub fn from_register(raw: u8) -> Self {
        Self(((u16::from(raw) * 100 + 127) / 255) as u8)
    }

    /// `DutyCycle::from_register(r).fraction()` for every register value,
    /// tabulated through those exact functions — entries are bit-identical
    /// to the computed path, they just skip the per-call `f64` divide on
    /// the hot curve evaluation.
    pub(crate) fn register_fraction_lut() -> &'static [f64; 256] {
        static LUT: std::sync::OnceLock<[f64; 256]> = std::sync::OnceLock::new();
        LUT.get_or_init(|| std::array::from_fn(|r| DutyCycle::from_register(r as u8).fraction()))
    }

    /// `DutyCycle::new(p).fraction()` for every percent value, tabulated
    /// through those exact functions (same contract as
    /// [`DutyCycle::register_fraction_lut`]).
    pub(crate) fn percent_fraction_lut() -> &'static [f64; 256] {
        static LUT: std::sync::OnceLock<[f64; 256]> = std::sync::OnceLock::new();
        LUT.get_or_init(|| std::array::from_fn(|p| DutyCycle::new(p as u8).fraction()))
    }
}

impl std::fmt::Display for DutyCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}%", self.0)
    }
}

/// Temperature in millidegrees Celsius — the unit Linux hwmon exposes in
/// `tempN_input` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MilliCelsius(pub i64);

impl MilliCelsius {
    /// Converts from degrees Celsius (rounded to the nearest millidegree).
    pub fn from_celsius(c: f64) -> Self {
        Self((c * 1000.0).round() as i64)
    }

    /// Converts to degrees Celsius.
    pub fn to_celsius(self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

impl std::fmt::Display for MilliCelsius {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}°C", self.to_celsius())
    }
}

/// A DVFS performance state: an operating frequency/voltage pair.
///
/// Ordered by frequency; a *lower* frequency is a *more effective* thermal
/// control mode (generates less heat).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PState {
    /// Core clock in MHz.
    pub freq_mhz: u32,
    /// Core voltage in volts.
    pub voltage_v: f64,
}

impl PState {
    /// Creates a P-state.
    ///
    /// # Panics
    /// Panics on a zero frequency or non-positive voltage: such a state is a
    /// configuration bug, not a runtime condition.
    pub fn new(freq_mhz: u32, voltage_v: f64) -> Self {
        assert!(freq_mhz > 0, "P-state frequency must be positive");
        assert!(voltage_v > 0.0, "P-state voltage must be positive");
        Self { freq_mhz, voltage_v }
    }

    /// Frequency in GHz.
    pub fn freq_ghz(self) -> f64 {
        f64::from(self.freq_mhz) / 1000.0
    }

    /// Frequency in kHz — the unit Linux cpufreq uses in
    /// `scaling_setspeed` / `scaling_available_frequencies`.
    pub fn freq_khz(self) -> u32 {
        self.freq_mhz * 1000
    }
}

impl std::fmt::Display for PState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}GHz", self.freq_ghz())
    }
}

/// The paper platform's five P-states (AMD Athlon64 4000+):
/// 2.4, 2.2, 2.0, 1.8 and 1.0 GHz, with a typical desktop f/V ladder.
pub fn athlon64_pstates() -> Vec<PState> {
    vec![
        PState::new(2400, 1.50),
        PState::new(2200, 1.45),
        PState::new(2000, 1.40),
        PState::new(1800, 1.35),
        PState::new(1000, 1.10),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_clamps_to_100() {
        assert_eq!(DutyCycle::new(250).percent(), 100);
        assert_eq!(DutyCycle::new(42).percent(), 42);
    }

    #[test]
    fn duty_fraction_roundtrip() {
        for p in 0..=100u8 {
            let d = DutyCycle::new(p);
            assert_eq!(DutyCycle::from_fraction(d.fraction()), d);
        }
    }

    #[test]
    fn duty_from_fraction_clamps() {
        assert_eq!(DutyCycle::from_fraction(-0.5), DutyCycle::OFF);
        assert_eq!(DutyCycle::from_fraction(1.7), DutyCycle::MAX);
        assert_eq!(DutyCycle::from_fraction(0.505).percent(), 51);
    }

    #[test]
    fn duty_register_roundtrip() {
        for p in 0..=100u8 {
            let d = DutyCycle::new(p);
            assert_eq!(DutyCycle::from_register(d.to_register()), d, "duty {p}");
        }
        assert_eq!(DutyCycle::MAX.to_register(), 0xFF);
        assert_eq!(DutyCycle::OFF.to_register(), 0x00);
    }

    #[test]
    fn millicelsius_roundtrip() {
        let m = MilliCelsius::from_celsius(51.25);
        assert_eq!(m.0, 51250);
        assert_eq!(m.to_celsius(), 51.25);
        assert_eq!(MilliCelsius::from_celsius(-3.0).0, -3000);
    }

    #[test]
    fn pstate_conversions() {
        let p = PState::new(2400, 1.5);
        assert_eq!(p.freq_ghz(), 2.4);
        assert_eq!(p.freq_khz(), 2_400_000);
        assert_eq!(p.to_string(), "2.4GHz");
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn pstate_rejects_zero_freq() {
        let _ = PState::new(0, 1.0);
    }

    #[test]
    fn athlon_ladder_is_descending() {
        let ps = athlon64_pstates();
        assert_eq!(ps.len(), 5);
        assert!(ps.windows(2).all(|w| w[0].freq_mhz > w[1].freq_mhz));
        assert!(ps.windows(2).all(|w| w[0].voltage_v > w[1].voltage_v));
        assert_eq!(ps[0].freq_mhz, 2400);
        assert_eq!(ps[4].freq_mhz, 1000);
    }
}
