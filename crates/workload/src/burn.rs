//! The `cpu-burn` stressor (paper reference \[31\]).
//!
//! §4.2 runs "three instances of the cpu-burn code … a program that
//! intensively utilizes the CPU and thus can exhibit a wide range of
//! temperature and patterns". On a single-core machine the three competing
//! instances plus scheduler interference produce exactly the pattern the
//! paper's Figure 5 shows: long full-tilt bursts (sudden rises then gradual
//! climbs), short gaps when instances restart (sudden drops), and fine
//! jitter.
//!
//! The model is an unbounded utilization process with seeded burst/gap
//! alternation plus small per-tick jitter.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::phases::{StepOutcome, WorkState, Workload};

/// Burst/gap tuning for the cpu-burn model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BurnConfig {
    /// Burst (full-load) duration range in seconds.
    pub burst_s: (f64, f64),
    /// Gap (restart/contention) duration range in seconds.
    pub gap_s: (f64, f64),
    /// Utilization during bursts.
    pub burst_util: f64,
    /// Utilization during gaps.
    pub gap_util: f64,
    /// Peak-to-peak utilization jitter applied every tick.
    pub jitter: f64,
}

impl Default for BurnConfig {
    fn default() -> Self {
        Self {
            burst_s: (8.0, 20.0),
            gap_s: (4.0, 12.0),
            burst_util: 1.0,
            gap_util: 0.18,
            jitter: 0.06,
        }
    }
}

impl BurnConfig {
    /// Checks the tuning: burst and gap ranges finite, positive and
    /// ordered, utilizations in `[0, 1]`, jitter finite and non-negative.
    ///
    /// # Errors
    /// Names the first field out of range.
    pub fn validate(&self) -> Result<(), String> {
        let range = |(lo, hi): (f64, f64)| lo > 0.0 && hi >= lo && hi.is_finite();
        let unit = |u: f64| (0.0..=1.0).contains(&u);
        let (b, g) = (self.burst_s, self.gap_s);
        if !range(b) {
            Err(format!(
                "invalid burst range: burst_s ({}, {}) must be finite, positive and ordered",
                b.0, b.1
            ))
        } else if !range(g) {
            Err(format!(
                "invalid gap range: gap_s ({}, {}) must be finite, positive and ordered",
                g.0, g.1
            ))
        } else if !unit(self.burst_util) || !unit(self.gap_util) {
            Err(format!(
                "burst_util and gap_util must be in [0,1] (got {} and {})",
                self.burst_util, self.gap_util
            ))
        } else if !(self.jitter.is_finite() && self.jitter >= 0.0) {
            Err(format!("jitter must be finite and non-negative (got {})", self.jitter))
        } else {
            Ok(())
        }
    }
}

/// The cpu-burn workload: runs forever.
#[derive(Debug, Clone)]
pub struct CpuBurn {
    cfg: BurnConfig,
    rng: SmallRng,
    in_burst: bool,
    remaining_s: f64,
}

impl CpuBurn {
    /// Creates the stressor; `seed` fixes the burst schedule.
    pub fn new(seed: u64) -> Self {
        Self::with_config(BurnConfig::default(), seed)
    }

    /// Creates the stressor with explicit tuning.
    ///
    /// # Panics
    /// Panics on a tuning [`BurnConfig::validate`] refuses.
    pub fn with_config(cfg: BurnConfig, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let first = rng.gen_range(cfg.burst_s.0..=cfg.burst_s.1);
        Self { cfg, rng, in_burst: true, remaining_s: first }
    }

    /// True while in a full-load burst.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }
}

impl Workload for CpuBurn {
    fn advance(&mut self, dt_s: f64, _speed_factor: f64) -> StepOutcome {
        assert!(dt_s > 0.0, "time step must be positive");
        self.remaining_s -= dt_s;
        if self.remaining_s <= 0.0 {
            self.in_burst = !self.in_burst;
            self.remaining_s = if self.in_burst {
                self.rng.gen_range(self.cfg.burst_s.0..=self.cfg.burst_s.1)
            } else {
                self.rng.gen_range(self.cfg.gap_s.0..=self.cfg.gap_s.1)
            };
        }
        let base = if self.in_burst { self.cfg.burst_util } else { self.cfg.gap_util };
        let jitter = (self.rng.gen::<f64>() - 0.5) * self.cfg.jitter;
        StepOutcome::uniform((base + jitter).clamp(0.0, 1.0))
    }

    fn state(&self) -> WorkState {
        WorkState::Running
    }

    fn release_barrier(&mut self) {}

    fn progress(&self) -> f64 {
        0.0
    }

    fn is_endless(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_finishes() {
        let mut b = CpuBurn::new(1);
        for _ in 0..10_000 {
            let _ = b.advance(0.25, 1.0);
        }
        assert!(!b.is_finished());
        assert_eq!(b.progress(), 0.0);
        assert_eq!(b.state(), WorkState::Running);
    }

    #[test]
    fn mostly_full_load() {
        let mut b = CpuBurn::new(2);
        let mut total = 0.0;
        let n = 40_000; // 1000 s at 25 ms
        for _ in 0..n {
            total += b.advance(0.025, 1.0).utilization;
        }
        let avg = total / f64::from(n);
        // Expected ≈ (14 s burst · 1.0 + 8 s gap · 0.18) / 22 s ≈ 0.70.
        assert!((0.6..0.9).contains(&avg), "average burn utilization {avg}");
    }

    #[test]
    fn alternates_bursts_and_gaps() {
        let mut b = CpuBurn::new(3);
        let mut saw_gap = false;
        let mut saw_burst = false;
        for _ in 0..20_000 {
            let u = b.advance(0.05, 1.0).utilization;
            if u < 0.4 {
                saw_gap = true;
            }
            if u > 0.9 {
                saw_burst = true;
            }
        }
        assert!(saw_burst && saw_gap);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = CpuBurn::new(7);
        let mut b = CpuBurn::new(7);
        for _ in 0..1000 {
            assert_eq!(a.advance(0.1, 1.0), b.advance(0.1, 1.0));
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = CpuBurn::new(1);
        let mut b = CpuBurn::new(2);
        let matches = (0..1000)
            .filter(|_| {
                (a.advance(0.1, 1.0).utilization - b.advance(0.1, 1.0).utilization).abs() < 1e-12
            })
            .count();
        assert!(matches < 1000);
    }

    #[test]
    fn jitter_is_present_within_bursts() {
        let mut b = CpuBurn::new(4);
        let us: Vec<f64> = (0..20).map(|_| b.advance(0.05, 1.0).utilization).collect();
        let distinct = us.iter().filter(|&&u| (u - us[0]).abs() > 1e-12).count();
        assert!(distinct > 0, "utilization should jitter: {us:?}");
    }

    #[test]
    #[should_panic(expected = "invalid burst range")]
    fn bad_config_rejected() {
        let cfg = BurnConfig { burst_s: (10.0, 5.0), ..Default::default() };
        let _ = CpuBurn::with_config(cfg, 0);
    }
}
