//! Scripted utilization traces.
//!
//! A [`ScriptWorkload`] replays an explicit schedule of `(duration,
//! utilization)` segments. It is how the Figure 2 experiment reproduces the
//! paper's characteristic thermal profile — a script of idle, sudden-load,
//! sustained-climb, bursty-jitter and sudden-drop segments drives the
//! thermal model through all three behaviour types — and a convenient
//! building block for controller tests.

use serde::{Deserialize, Serialize};

use crate::phases::{StepOutcome, WorkState, Workload};

/// One scripted segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Wall-clock duration in seconds.
    pub duration_s: f64,
    /// CPU utilization during the segment.
    pub utilization: f64,
}

impl Segment {
    /// Creates a segment.
    ///
    /// # Panics
    /// Panics on a segment [`Segment::validate`] refuses.
    pub fn new(duration_s: f64, utilization: f64) -> Self {
        let segment = Self { duration_s, utilization };
        if let Err(e) = segment.validate() {
            panic!("{e}");
        }
        segment
    }

    /// Checks a positive duration and a utilization in `[0, 1]`.
    ///
    /// # Errors
    /// Names the field out of range.
    pub fn validate(&self) -> Result<(), String> {
        let positive = self.duration_s > 0.0;
        if !positive {
            Err(format!("duration_s must be positive (got {})", self.duration_s))
        } else if !(0.0..=1.0).contains(&self.utilization) {
            Err(format!("utilization must be in [0,1] (got {})", self.utilization))
        } else {
            Ok(())
        }
    }
}

/// A workload replaying scripted utilization segments.
#[derive(Debug, Clone)]
pub struct ScriptWorkload {
    segments: Vec<Segment>,
    current: usize,
    remaining_s: f64,
    total_s: f64,
    elapsed_s: f64,
}

impl ScriptWorkload {
    /// Checks a script: at least one segment, each valid.
    ///
    /// # Errors
    /// Names the first offending segment.
    pub fn validate(segments: &[Segment]) -> Result<(), String> {
        if segments.is_empty() {
            return Err("script must not be empty".into());
        }
        for (i, segment) in segments.iter().enumerate() {
            segment.validate().map_err(|e| format!("segment {i}: {e}"))?;
        }
        Ok(())
    }

    /// Creates the workload from a segment list.
    ///
    /// # Panics
    /// Panics on a script [`ScriptWorkload::validate`] refuses.
    pub fn new(segments: Vec<Segment>) -> Self {
        if let Err(e) = Self::validate(&segments) {
            panic!("{e}");
        }
        let total = segments.iter().map(|s| s.duration_s).sum();
        let first = segments[0].duration_s;
        Self { segments, current: 0, remaining_s: first, total_s: total, elapsed_s: 0.0 }
    }

    /// The paper's Figure 2 profile: idle, sudden load, gradual climb under
    /// sustained load, bursty jitter, sudden drop, and a cool-down tail.
    /// Total duration ≈ 300 s (1200 samples at 4 Hz, like the figure).
    pub fn figure2_profile() -> Self {
        Self::new(Self::figure2_segments())
    }

    /// The 45 segments of [`ScriptWorkload::figure2_profile`], for a
    /// scenario's `Script` workload.
    pub fn figure2_segments() -> Vec<Segment> {
        let mut segs = vec![
            Segment::new(30.0, 0.10), // idle baseline
            Segment::new(70.0, 1.00), // sudden rise, then gradual climb
        ];
        // Bursty jitter: 2 s alternation for 80 s.
        for i in 0..40 {
            segs.push(Segment::new(2.0, if i % 2 == 0 { 0.95 } else { 0.45 }));
        }
        segs.push(Segment::new(10.0, 0.10)); // sudden drop
        segs.push(Segment::new(60.0, 0.55)); // moderate plateau
        segs.push(Segment::new(50.0, 0.10)); // cool-down tail
        segs
    }

    /// Total scripted duration in seconds.
    pub fn total_duration_s(&self) -> f64 {
        self.total_s
    }
}

impl Workload for ScriptWorkload {
    fn advance(&mut self, dt_s: f64, _speed_factor: f64) -> StepOutcome {
        assert!(dt_s > 0.0, "time step must be positive");
        if self.current >= self.segments.len() {
            return StepOutcome::uniform(0.0);
        }
        self.elapsed_s += dt_s;
        let mut left = dt_s;
        let mut util_time = 0.0;
        while left > 1e-12 && self.current < self.segments.len() {
            let seg = self.segments[self.current];
            let used = self.remaining_s.min(left);
            util_time += seg.utilization * used;
            self.remaining_s -= used;
            left -= used;
            if self.remaining_s <= 1e-9 {
                self.current += 1;
                if self.current < self.segments.len() {
                    self.remaining_s = self.segments[self.current].duration_s;
                }
            }
        }
        StepOutcome::uniform((util_time / dt_s).clamp(0.0, 1.0))
    }

    fn state(&self) -> WorkState {
        if self.current >= self.segments.len() {
            WorkState::Finished
        } else {
            WorkState::Running
        }
    }

    fn release_barrier(&mut self) {}

    fn progress(&self) -> f64 {
        (self.elapsed_s / self.total_s).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_segments_in_order() {
        let mut w = ScriptWorkload::new(vec![Segment::new(1.0, 0.2), Segment::new(1.0, 0.9)]);
        assert_eq!(w.advance(0.5, 1.0).utilization, 0.2);
        assert_eq!(w.advance(0.5, 1.0).utilization, 0.2);
        assert_eq!(w.advance(0.5, 1.0).utilization, 0.9);
        assert_eq!(w.advance(0.5, 1.0).utilization, 0.9);
        assert!(w.is_finished());
    }

    #[test]
    fn tick_spanning_segments_blends() {
        let mut w = ScriptWorkload::new(vec![Segment::new(0.5, 1.0), Segment::new(0.5, 0.0)]);
        let u = w.advance(1.0, 1.0).utilization;
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn finished_script_idles() {
        let mut w = ScriptWorkload::new(vec![Segment::new(0.1, 1.0)]);
        let _ = w.advance(0.2, 1.0);
        assert!(w.is_finished());
        assert_eq!(w.advance(1.0, 1.0).utilization, 0.0);
        assert_eq!(w.progress(), 1.0);
    }

    #[test]
    fn speed_factor_is_irrelevant() {
        let mut a = ScriptWorkload::new(vec![Segment::new(5.0, 0.7)]);
        let mut b = ScriptWorkload::new(vec![Segment::new(5.0, 0.7)]);
        for _ in 0..100 {
            assert_eq!(a.advance(0.05, 1.0), b.advance(0.05, 0.3));
        }
    }

    #[test]
    fn figure2_profile_duration() {
        let w = ScriptWorkload::figure2_profile();
        assert!((w.total_duration_s() - 300.0).abs() < 1.0, "{}", w.total_duration_s());
        assert_eq!(ScriptWorkload::figure2_segments().len(), 45);
    }

    #[test]
    fn figure2_profile_has_all_regimes() {
        let mut w = ScriptWorkload::figure2_profile();
        let mut utils = Vec::new();
        while !w.is_finished() {
            utils.push(w.advance(0.25, 1.0).utilization);
        }
        let lo = utils.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = utils.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo <= 0.15, "idle regime present (min {lo})");
        assert!(hi >= 0.95, "full-load regime present (max {hi})");
        // Jitter region: consecutive samples differing by > 0.3.
        let jumps = utils.windows(2).filter(|w| (w[1] - w[0]).abs() > 0.3).count();
        assert!(jumps >= 30, "bursty alternation present ({jumps} jumps)");
    }

    #[test]
    fn progress_tracks_elapsed_time() {
        let mut w = ScriptWorkload::new(vec![Segment::new(10.0, 0.5)]);
        for _ in 0..50 {
            let _ = w.advance(0.1, 1.0);
        }
        assert!((w.progress() - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_script_rejected() {
        let _ = ScriptWorkload::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_segment_rejected() {
        let _ = Segment::new(0.0, 0.5);
    }
}
