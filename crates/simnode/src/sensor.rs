//! On-die digital thermal sensor model.
//!
//! Real DTS hardware reports quantized, noisy readings; lm-sensors polls them
//! at a few hertz. Both effects matter to the paper: quantization gives the
//! staircase look of its traces, and sampling noise is precisely the
//! Type-III "jitter" its two-level window is designed to ignore.
//!
//! Noise is generated from a deterministic per-sensor PRNG so experiments
//! reproduce bit-for-bit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::SensorConfig;
use crate::units::MilliCelsius;

/// Error for an unreadable sensor (fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorDropout;

impl std::fmt::Display for SensorDropout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thermal sensor did not respond")
    }
}

impl std::error::Error for SensorDropout {}

/// A quantizing, noisy thermal sensor attached to the die.
#[derive(Debug, Clone)]
pub struct ThermalSensor {
    cfg: SensorConfig,
    rng: SmallRng,
    dropped_out: bool,
    last_reading: Option<MilliCelsius>,
    /// Extra noise std-dev injected by fault plans (`SensorJitter`), °C.
    extra_jitter_std_c: f64,
}

impl ThermalSensor {
    /// Creates a sensor with its own deterministic noise stream.
    pub fn new(cfg: SensorConfig, seed: u64) -> Self {
        Self {
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            dropped_out: false,
            last_reading: None,
            extra_jitter_std_c: 0.0,
        }
    }

    /// Samples the sensor given the true die temperature.
    ///
    /// Returns the quantized, noisy reading, or [`SensorDropout`] while the
    /// sensor is failed.
    pub fn read(&mut self, true_temp_c: f64) -> Result<MilliCelsius, SensorDropout> {
        if self.dropped_out {
            return Err(SensorDropout);
        }
        // The injected jitter shares the per-read gaussian draw, so turning
        // it on or off never changes how many variates a read consumes —
        // the PRNG stream structure stays identical across fault schedules.
        let std = self.cfg.noise_std_c + self.extra_jitter_std_c;
        let noisy = true_temp_c + self.cfg.offset_c + self.gaussian() * std;
        let quantized = if self.cfg.quantization_c > 0.0 {
            (noisy / self.cfg.quantization_c).round() * self.cfg.quantization_c
        } else {
            noisy
        };
        let reading = MilliCelsius::from_celsius(quantized);
        self.last_reading = Some(reading);
        Ok(reading)
    }

    /// The most recent successful reading, if any.
    pub fn last_reading(&self) -> Option<MilliCelsius> {
        self.last_reading
    }

    /// Starts a dropout: subsequent reads fail until [`Self::restore`].
    pub fn drop_out(&mut self) {
        self.dropped_out = true;
    }

    /// Ends a dropout.
    pub fn restore(&mut self) {
        self.dropped_out = false;
    }

    /// Sets the extra gaussian noise std-dev (°C) added on top of the
    /// configured `noise_std_c`; `0.0` clears it. Driven by the
    /// `SensorJitter` fault.
    pub fn set_extra_jitter(&mut self, std_c: f64) {
        assert!(std_c.is_finite() && std_c >= 0.0, "jitter std must be finite and non-negative");
        self.extra_jitter_std_c = std_c;
    }

    /// Standard normal variate via Box–Muller (two uniforms per call keeps
    /// the stream simple and deterministic).
    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor(seed: u64) -> ThermalSensor {
        ThermalSensor::new(SensorConfig::default(), seed)
    }

    #[test]
    fn reading_is_near_truth() {
        let mut s = sensor(1);
        let r = s.read(50.0).unwrap().to_celsius();
        assert!((r - 50.0).abs() < 3.0, "reading {r}");
    }

    #[test]
    fn reading_is_quantized() {
        let mut s = sensor(2);
        for _ in 0..100 {
            let r = s.read(47.3).unwrap().to_celsius();
            let steps = r / 0.25;
            assert!((steps - steps.round()).abs() < 1e-9, "unquantized reading {r}");
        }
    }

    #[test]
    fn noise_has_expected_spread() {
        let mut s = sensor(3);
        let readings: Vec<f64> = (0..4000).map(|_| s.read(50.0).unwrap().to_celsius()).collect();
        let mean = readings.iter().sum::<f64>() / readings.len() as f64;
        let var =
            readings.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (readings.len() - 1) as f64;
        assert!((mean - 50.0).abs() < 0.05, "mean {mean}");
        // std 0.35 plus quantization noise (0.25²/12 ≈ 0.0052 variance).
        let expected_var = 0.35f64.powi(2) + 0.25f64.powi(2) / 12.0;
        assert!((var - expected_var).abs() < 0.03, "var {var} vs {expected_var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = sensor(42);
        let mut b = sensor(42);
        for i in 0..50 {
            let t = 40.0 + i as f64 * 0.1;
            assert_eq!(a.read(t), b.read(t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = sensor(1);
        let mut b = sensor(2);
        let same = (0..50).filter(|_| a.read(50.0) == b.read(50.0)).count();
        assert!(same < 50, "independent streams should diverge");
    }

    #[test]
    fn dropout_and_restore() {
        let mut s = sensor(4);
        let first = s.read(50.0).unwrap();
        s.drop_out();
        assert_eq!(s.read(50.0), Err(SensorDropout));
        assert_eq!(s.last_reading(), Some(first), "last good value retained");
        s.restore();
        assert!(s.read(50.0).is_ok());
    }

    #[test]
    fn extra_jitter_widens_spread_without_consuming_extra_variates() {
        // Two sensors with the same seed, one jittered: their RNG streams
        // stay aligned (same draw count per read), so clearing the jitter
        // makes them agree again from that read on.
        let mut clean = sensor(9);
        let mut jittered = sensor(9);
        jittered.set_extra_jitter(2.0);
        let mut diverged = false;
        for _ in 0..50 {
            if clean.read(50.0) != jittered.read(50.0) {
                diverged = true;
            }
        }
        assert!(diverged, "2 °C of extra noise must be visible");
        jittered.set_extra_jitter(0.0);
        for _ in 0..50 {
            assert_eq!(clean.read(50.0), jittered.read(50.0), "streams realign after clearing");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_jitter() {
        sensor(1).set_extra_jitter(-1.0);
    }

    #[test]
    fn noiseless_sensor_is_exact_up_to_quantization() {
        let cfg = SensorConfig {
            noise_std_c: 0.0,
            quantization_c: 0.25,
            offset_c: 0.0,
            ..Default::default()
        };
        let mut s = ThermalSensor::new(cfg, 0);
        assert_eq!(s.read(51.25).unwrap().to_celsius(), 51.25);
        assert_eq!(s.read(51.30).unwrap().to_celsius(), 51.25);
    }

    #[test]
    fn offset_shifts_readings() {
        let cfg = SensorConfig {
            noise_std_c: 0.0,
            quantization_c: 0.0,
            offset_c: 2.0,
            ..Default::default()
        };
        let mut s = ThermalSensor::new(cfg, 0);
        assert_eq!(s.read(50.0).unwrap().to_celsius(), 52.0);
    }
}
