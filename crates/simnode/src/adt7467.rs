//! Register-level model of the Analog Devices ADT7467 "dBCool" remote
//! thermal monitor and fan controller.
//!
//! The paper's platform regulates fan speed through this chip: in
//! **automatic mode** the chip applies the static temperature→PWM map of the
//! paper's Figure 1 (duty = PWMmin below Tmin, rising linearly to PWMmax at
//! Tmax) — this is the "traditional static fan control" baseline. The
//! paper's own driver switches the chip to **manual mode** and writes the
//! PWM register directly over i2c.
//!
//! The register map below is a simplification of the real datasheet's, but
//! keeps the same access style (byte registers over SMBus), the same duty
//! encoding (0x00–0xFF) and the same behavioural split between automatic and
//! manual control.

use crate::batch::PhysicsBatch;
use crate::i2c::{DeviceError, SmbusDevice};
use crate::units::DutyCycle;

/// Register addresses (simplified map).
pub mod regs {
    /// Measured remote (CPU) temperature in °C, unsigned. Read-only.
    pub const TEMP_REMOTE: u8 = 0x26;
    /// Current PWM1 duty, 0x00–0xFF. Writable only in manual mode.
    pub const PWM_CURRENT: u8 = 0x30;
    /// PWM1 maximum duty, 0x00–0xFF.
    pub const PWM_MAX: u8 = 0x38;
    /// Device ID. Read-only, returns [`DEVICE_ID`](super::DEVICE_ID).
    pub const DEVICE_ID: u8 = 0x3D;
    /// PWM1 configuration: 0 = automatic (remote-diode controlled),
    /// 1 = manual.
    pub const PWM_CONFIG: u8 = 0x5C;
    /// PWM1 minimum duty, 0x00–0xFF.
    pub const PWM_MIN: u8 = 0x64;
    /// Tmin in °C, unsigned.
    pub const TMIN: u8 = 0x67;
    /// Tmax in °C, unsigned.
    pub const TMAX: u8 = 0x68;
}

/// The device ID the real chip reports.
pub const DEVICE_ID: u8 = 0x68;

/// PWM control mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PwmMode {
    /// Chip-controlled: the Figure-1 static curve.
    Automatic,
    /// Software-controlled: the PWM register holds whatever was written.
    Manual,
}

/// Raw Figure-1 static curve, shared verbatim by
/// [`Adt7467::static_curve_duty`] and the lane tick (`crate::batch`) so
/// both evaluate the exact same expressions.
#[inline]
pub(crate) fn static_curve_duty_raw(
    pwm_min: u8,
    pwm_max: u8,
    tmin_c: u8,
    tmax_c: u8,
    temp_c: f64,
) -> DutyCycle {
    // Tabulated `from_register(..).fraction()` — bit-identical entries,
    // no per-call divide (this runs for every node on every tick).
    let lut = DutyCycle::register_fraction_lut();
    let max = lut[usize::from(pwm_max)];
    // PWM_MAX caps the whole channel: a PWM_MIN programmed above it is
    // effectively clamped (keeps the curve monotone under any register
    // contents).
    let min = lut[usize::from(pwm_min)].min(max);
    let tmin = f64::from(tmin_c);
    let tmax = f64::from(tmax_c);
    let frac = if temp_c <= tmin || tmax <= tmin {
        min
    } else if temp_c >= tmax {
        max
    } else {
        min + (max - min) * (temp_c - tmin) / (tmax - tmin)
    };
    DutyCycle::from_fraction(frac.clamp(0.0, 1.0))
}

/// The ADT7467 register file of one physics-batch slot: the SMBus device
/// on a node's i2c bus.
///
/// The registers live in the slot's chip lanes and nowhere else, so a
/// register write is seen by the next lane tick with no copy. The lane tick
/// feeds the remote diode every tick and, in automatic mode, re-evaluates
/// the static curve.
#[derive(Debug)]
pub struct Adt7467<'a> {
    lanes: &'a mut PhysicsBatch,
    slot: usize,
}

impl<'a> Adt7467<'a> {
    /// The chip in slot `slot` of `lanes`.
    pub(crate) fn new(lanes: &'a mut PhysicsBatch, slot: usize) -> Self {
        Self { lanes, slot }
    }

    /// Resets the registers to the paper platform's power-on state:
    /// automatic mode, PWMmin = 10 %, Tmin = 38 °C, Tmax = 82 °C,
    /// PWMmax = 100 %, a 25 °C diode reading and the curve's duty for it.
    pub(crate) fn power_on(&mut self) {
        let (l, i) = (&mut *self.lanes, self.slot);
        l.chip_measured[i] = 25.0;
        l.chip_auto[i] = true;
        l.chip_pwm_min[i] = DutyCycle::new(10).to_register();
        l.chip_pwm_max[i] = DutyCycle::MAX.to_register();
        l.chip_tmin[i] = 38;
        l.chip_tmax[i] = 82;
        self.apply_automatic_curve();
    }

    /// Feeds the chip a new remote-diode temperature and, in automatic
    /// mode, re-evaluates the static curve (the lane tick does the same
    /// for every slot each tick).
    pub fn set_measured_temp_c(&mut self, temp_c: f64) {
        assert!(temp_c.is_finite(), "measured temperature must be finite");
        self.lanes.chip_measured[self.slot] = temp_c;
        if self.mode() == PwmMode::Automatic {
            self.apply_automatic_curve();
        }
    }

    /// Current PWM mode.
    pub fn mode(&self) -> PwmMode {
        if self.lanes.chip_auto[self.slot] {
            PwmMode::Automatic
        } else {
            PwmMode::Manual
        }
    }

    /// The duty cycle the chip is currently commanding.
    pub fn commanded_duty(&self) -> DutyCycle {
        DutyCycle::from_register(self.lanes.chip_pwm[self.slot])
    }

    /// The Figure-1 static curve evaluated at `temp_c` with the chip's
    /// current Tmin/Tmax/PWMmin/PWMmax registers.
    pub fn static_curve_duty(&self, temp_c: f64) -> DutyCycle {
        let (l, i) = (&*self.lanes, self.slot);
        static_curve_duty_raw(
            l.chip_pwm_min[i],
            l.chip_pwm_max[i],
            l.chip_tmin[i],
            l.chip_tmax[i],
            temp_c,
        )
    }

    fn apply_automatic_curve(&mut self) {
        let duty = self.static_curve_duty(self.lanes.chip_measured[self.slot]);
        self.lanes.chip_pwm[self.slot] = duty.to_register();
    }

    /// Clamps the current PWM into the [PWMmin-independent] PWMmax bound.
    fn clamp_pwm(&mut self) {
        let (l, i) = (&mut *self.lanes, self.slot);
        l.chip_pwm[i] = l.chip_pwm[i].min(l.chip_pwm_max[i]);
    }
}

impl SmbusDevice for Adt7467<'_> {
    fn read_byte(&mut self, reg: u8) -> Result<u8, DeviceError> {
        let (l, i) = (&*self.lanes, self.slot);
        match reg {
            regs::TEMP_REMOTE => Ok(l.chip_measured[i].round().clamp(0.0, 255.0) as u8),
            regs::PWM_CURRENT => Ok(l.chip_pwm[i]),
            regs::PWM_MAX => Ok(l.chip_pwm_max[i]),
            regs::DEVICE_ID => Ok(DEVICE_ID),
            regs::PWM_CONFIG => Ok(u8::from(!l.chip_auto[i])),
            regs::PWM_MIN => Ok(l.chip_pwm_min[i]),
            regs::TMIN => Ok(l.chip_tmin[i]),
            regs::TMAX => Ok(l.chip_tmax[i]),
            other => Err(DeviceError::InvalidRegister(other)),
        }
    }

    fn write_byte(&mut self, reg: u8, value: u8) -> Result<(), DeviceError> {
        let i = self.slot;
        match reg {
            regs::TEMP_REMOTE | regs::DEVICE_ID => return Err(DeviceError::ReadOnlyRegister(reg)),
            regs::PWM_CURRENT => {
                if self.mode() == PwmMode::Automatic {
                    // The real chip ignores manual duty writes while the
                    // automatic loop owns the output; we mirror that.
                    return Ok(());
                }
                self.lanes.chip_pwm[i] = value;
                self.clamp_pwm();
            }
            regs::PWM_MAX => {
                self.lanes.chip_pwm_max[i] = value;
                match self.mode() {
                    PwmMode::Automatic => self.apply_automatic_curve(),
                    PwmMode::Manual => self.clamp_pwm(),
                }
            }
            regs::PWM_CONFIG => {
                self.lanes.chip_auto[i] = value == 0;
                if value == 0 {
                    self.apply_automatic_curve();
                }
            }
            regs::PWM_MIN | regs::TMIN | regs::TMAX => {
                let lane = match reg {
                    regs::PWM_MIN => &mut self.lanes.chip_pwm_min,
                    regs::TMIN => &mut self.lanes.chip_tmin,
                    _ => &mut self.lanes.chip_tmax,
                };
                lane[i] = value;
                if self.mode() == PwmMode::Automatic {
                    self.apply_automatic_curve();
                }
            }
            other => return Err(DeviceError::InvalidRegister(other)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A power-on chip in a one-slot batch.
    fn power_on(lanes: &mut PhysicsBatch) -> Adt7467<'_> {
        let mut chip = Adt7467::new(lanes, 0);
        chip.power_on();
        chip
    }

    #[test]
    fn defaults_match_paper_platform() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        assert_eq!(chip.mode(), PwmMode::Automatic);
        assert_eq!(chip.read_byte(regs::TMIN), Ok(38));
        assert_eq!(chip.read_byte(regs::TMAX), Ok(82));
        assert_eq!(DutyCycle::from_register(chip.read_byte(regs::PWM_MIN).unwrap()).percent(), 10);
        assert_eq!(chip.read_byte(regs::DEVICE_ID), Ok(0x68));
    }

    #[test]
    fn figure1_curve_shape() {
        let mut lanes = PhysicsBatch::with_len(1);
        let chip = power_on(&mut lanes);
        // Below Tmin: PWMmin.
        assert_eq!(chip.static_curve_duty(25.0).percent(), 10);
        assert_eq!(chip.static_curve_duty(38.0).percent(), 10);
        // At Tmax and above: PWMmax.
        assert_eq!(chip.static_curve_duty(82.0).percent(), 100);
        assert_eq!(chip.static_curve_duty(95.0).percent(), 100);
        // Midpoint: linear interpolation, (60-38)/(82-38) = 0.5 of the span.
        let mid = chip.static_curve_duty(60.0).percent();
        assert_eq!(mid, 55, "10 + 0.5·90 = 55, got {mid}");
        // Monotone non-decreasing across the whole range.
        let mut last = 0;
        for t in 0..100 {
            let d = chip.static_curve_duty(f64::from(t)).percent();
            assert!(d >= last, "curve must be monotone at {t} °C");
            last = d;
        }
    }

    #[test]
    fn automatic_mode_tracks_temperature() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        chip.set_measured_temp_c(38.0);
        assert_eq!(chip.commanded_duty().percent(), 10);
        chip.set_measured_temp_c(82.0);
        assert_eq!(chip.commanded_duty().percent(), 100);
        chip.set_measured_temp_c(50.0);
        let d = chip.commanded_duty().percent();
        assert!((34..=35).contains(&d), "50 °C ⇒ 10+90·12/44 ≈ 34.5 %, got {d}");
    }

    #[test]
    fn manual_mode_obeys_writes() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        chip.write_byte(regs::PWM_CONFIG, 1).unwrap();
        assert_eq!(chip.mode(), PwmMode::Manual);
        chip.write_byte(regs::PWM_CURRENT, DutyCycle::new(63).to_register()).unwrap();
        assert_eq!(chip.commanded_duty().percent(), 63);
        // Temperature changes no longer move the duty.
        chip.set_measured_temp_c(90.0);
        assert_eq!(chip.commanded_duty().percent(), 63);
    }

    #[test]
    fn automatic_mode_ignores_duty_writes() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        chip.set_measured_temp_c(50.0);
        let before = chip.commanded_duty();
        chip.write_byte(regs::PWM_CURRENT, 0xFF).unwrap();
        assert_eq!(chip.commanded_duty(), before);
    }

    #[test]
    fn pwm_max_caps_both_modes() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        // Cap at 75 % as the paper does for Figure 6.
        chip.write_byte(regs::PWM_MAX, DutyCycle::new(75).to_register()).unwrap();
        chip.set_measured_temp_c(90.0);
        assert_eq!(chip.commanded_duty().percent(), 75);

        chip.write_byte(regs::PWM_CONFIG, 1).unwrap();
        chip.write_byte(regs::PWM_CURRENT, DutyCycle::new(90).to_register()).unwrap();
        assert_eq!(chip.commanded_duty().percent(), 75, "manual writes clamp to PWMmax");
    }

    #[test]
    fn lowering_pwm_max_reclamps_current() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        chip.write_byte(regs::PWM_CONFIG, 1).unwrap();
        chip.write_byte(regs::PWM_CURRENT, DutyCycle::new(90).to_register()).unwrap();
        chip.write_byte(regs::PWM_MAX, DutyCycle::new(50).to_register()).unwrap();
        assert_eq!(chip.commanded_duty().percent(), 50);
    }

    #[test]
    fn switching_back_to_auto_reapplies_curve() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        chip.write_byte(regs::PWM_CONFIG, 1).unwrap();
        chip.write_byte(regs::PWM_CURRENT, 0).unwrap();
        chip.set_measured_temp_c(82.0);
        chip.write_byte(regs::PWM_CONFIG, 0).unwrap();
        assert_eq!(chip.commanded_duty().percent(), 100);
    }

    #[test]
    fn temp_register_reads_rounded_reading() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        chip.set_measured_temp_c(51.6);
        assert_eq!(chip.read_byte(regs::TEMP_REMOTE), Ok(52));
        chip.set_measured_temp_c(-5.0);
        assert_eq!(chip.read_byte(regs::TEMP_REMOTE), Ok(0), "unsigned clamp");
    }

    #[test]
    fn read_only_and_invalid_registers() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        assert_eq!(
            chip.write_byte(regs::TEMP_REMOTE, 1),
            Err(DeviceError::ReadOnlyRegister(regs::TEMP_REMOTE))
        );
        assert_eq!(chip.read_byte(0x00), Err(DeviceError::InvalidRegister(0x00)));
        assert_eq!(chip.write_byte(0x00, 1), Err(DeviceError::InvalidRegister(0x00)));
    }

    #[test]
    fn custom_curve_degenerate_range() {
        let mut lanes = PhysicsBatch::with_len(1);
        let mut chip = power_on(&mut lanes);
        // Tmax == Tmin: curve collapses to PWMmin (no division by zero).
        chip.write_byte(regs::TMAX, 38).unwrap();
        assert_eq!(chip.static_curve_duty(60.0).percent(), 10);
    }
}
