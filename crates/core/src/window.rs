//! The two-level, history-based temperature window (paper §3.2.1, Figure 3).
//!
//! **Level one** is a small array (4 entries in the paper) of the most recent
//! raw temperature samples. When it fills, the controller computes the
//! difference between the sum of the second half and the sum of the first
//! half — `Δt_l1` — which is large for *sudden* sustained changes but
//! averages out zero-mean *jitter*. The level-one array is then cleared for
//! the next round.
//!
//! **Level two** is a fixed-size FIFO (5 entries in the paper) of the
//! level-one averages. The difference between its rear (newest) and front
//! (oldest) entries — `Δt_l2` — tracks *gradual* trends across a longer
//! horizon.
//!
//! Window sizing (paper §3.2.1): too small a level-one window makes the
//! controller mistake jitter for sudden behaviour; too large a window makes
//! it sluggish. The paper found 4 entries sufficient at 4 samples/second,
//! giving one window update per second.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::config::{check, ConfigError, Rule};
use crate::rule;

/// The longest level-one array or level-two FIFO a [`WindowConfig`] may
/// ask for (the paper's are 4 and 5 entries).
pub const MAX_WINDOW_LEN: usize = 4_096;

/// Window geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Level-one array length (paper: 4). Must be an even number ≥ 2 so the
    /// two half-sums are balanced.
    pub l1_len: usize,
    /// Level-two FIFO length (paper: 5). Must be ≥ 2 for a front/rear delta.
    pub l2_len: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self { l1_len: 4, l2_len: 5 }
    }
}

impl WindowConfig {
    /// What [`WindowConfig::validate`] checks, in order.
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(AtLeast l1_len, 2; "level-one window needs at least 2 entries"),
        rule!("l1_len", Holds(|w| w.l1_len.is_multiple_of(2), "even");
            "level-one window length must be even"),
        rule!(AtLeast l2_len, 2; "level-two window needs at least 2 entries"),
        rule!(AtMost l1_len, MAX_WINDOW_LEN; "l1_len must be at most {max} (got {got})"),
        rule!(AtMost l2_len, MAX_WINDOW_LEN; "l2_len must be at most {max} (got {got})"),
    ];

    /// Validates the geometry against [`WindowConfig::RULES`].
    ///
    /// # Errors
    /// Returns the first broken rule's error.
    pub fn validate(self) -> Result<(), ConfigError> {
        check(Self::RULES, &self)
    }
}

/// The result of one completed level-one round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowUpdate {
    /// `Δt_l1`: sum of the second half of the level-one window minus the sum
    /// of the first half. Reacts to sudden sustained changes; zero-mean for
    /// jitter.
    pub l1_delta: f64,
    /// `Δt_l2`: rear minus front of the level-two FIFO, or `None` until the
    /// FIFO holds at least two averages. Reacts to gradual trends.
    pub l2_delta: Option<f64>,
    /// Average of the completed level-one window (the value enqueued into
    /// level two).
    pub l1_average: f64,
}

/// The two-level temperature window.
///
/// ```
/// use unitherm_core::window::TwoLevelWindow;
///
/// let mut w = TwoLevelWindow::default(); // the paper's 4/5 geometry
/// // Three samples buffer silently; the fourth completes a round.
/// assert!(w.push(45.0).is_none());
/// assert!(w.push(45.0).is_none());
/// assert!(w.push(51.0).is_none());
/// let update = w.push(51.0).unwrap();
/// // Δt_l1 = (51 + 51) − (45 + 45): a sudden +6 °C step seen as +12.
/// assert_eq!(update.l1_delta, 12.0);
/// assert_eq!(update.l1_average, 48.0);
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelWindow {
    cfg: WindowConfig,
    l1: Vec<f64>,
    l2: VecDeque<f64>,
}

impl Default for TwoLevelWindow {
    fn default() -> Self {
        Self::new(WindowConfig::default())
    }
}

impl TwoLevelWindow {
    /// Creates an empty window.
    pub fn new(cfg: WindowConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self { cfg, l1: Vec::with_capacity(cfg.l1_len), l2: VecDeque::with_capacity(cfg.l2_len) }
    }

    /// Pushes one temperature sample. Returns a [`WindowUpdate`] when the
    /// sample completes a level-one round, `None` otherwise.
    pub fn push(&mut self, temp_c: f64) -> Option<WindowUpdate> {
        assert!(temp_c.is_finite(), "temperature sample must be finite");
        self.l1.push(temp_c);
        if self.l1.len() < self.cfg.l1_len {
            return None;
        }

        let half = self.cfg.l1_len / 2;
        let first: f64 = self.l1[..half].iter().sum();
        let second: f64 = self.l1[half..].iter().sum();
        let l1_delta = second - first;
        let l1_average = (first + second) / self.cfg.l1_len as f64;

        // Enqueue the round average into the level-two FIFO.
        if self.l2.len() == self.cfg.l2_len {
            self.l2.pop_front();
        }
        self.l2.push_back(l1_average);

        let l2_delta = if self.l2.len() >= 2 {
            Some(self.l2.back().expect("non-empty") - self.l2.front().expect("non-empty"))
        } else {
            None
        };

        self.l1.clear();
        Some(WindowUpdate { l1_delta, l2_delta, l1_average })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes samples; returns the updates produced.
    fn feed(w: &mut TwoLevelWindow, samples: &[f64]) -> Vec<WindowUpdate> {
        samples.iter().filter_map(|&s| w.push(s)).collect()
    }

    #[test]
    fn update_fires_only_when_l1_full() {
        let mut w = TwoLevelWindow::default();
        assert!(w.push(40.0).is_none());
        assert!(w.push(40.0).is_none());
        assert!(w.push(40.0).is_none());
        assert_eq!(w.l1.len(), 3);
        let u = w.push(40.0).expect("fourth sample completes the round");
        assert_eq!(u.l1_average, 40.0);
        assert_eq!(u.l1_delta, 0.0);
        assert!(w.l1.is_empty(), "level one cleared after the round");
    }

    #[test]
    fn sudden_rise_gives_large_positive_l1_delta() {
        let mut w = TwoLevelWindow::default();
        // Two cool samples then two hot ones: Δ = (46+46) − (40+40) = 12.
        let u = feed(&mut w, &[40.0, 40.0, 46.0, 46.0]);
        assert_eq!(u[0].l1_delta, 12.0);
        assert_eq!(u[0].l1_average, 43.0);
    }

    #[test]
    fn sudden_drop_gives_negative_l1_delta() {
        let mut w = TwoLevelWindow::default();
        let u = feed(&mut w, &[50.0, 50.0, 44.0, 44.0]);
        assert_eq!(u[0].l1_delta, -12.0);
    }

    #[test]
    fn symmetric_jitter_cancels_in_l1_delta() {
        let mut w = TwoLevelWindow::default();
        // Alternating spikes: each half contains one high and one low.
        let u = feed(&mut w, &[45.0, 47.0, 45.0, 47.0]);
        assert_eq!(u[0].l1_delta, 0.0, "alternating jitter must cancel");
    }

    #[test]
    fn gradual_ramp_accumulates_in_l2() {
        // 0.1 °C per sample, 4 samples per round ⇒ round averages rise by
        // 0.4 °C per round; after 5 rounds Δt_l2 = 4 rounds × 0.4 = 1.6.
        let mut w = TwoLevelWindow::default();
        let samples: Vec<f64> = (0..20).map(|i| 40.0 + 0.1 * i as f64).collect();
        let updates = feed(&mut w, &samples);
        assert_eq!(updates.len(), 5);
        let last = updates.last().unwrap();
        assert!((last.l2_delta.unwrap() - 1.6).abs() < 1e-9);
        // Per-round l1 delta for the same ramp: (s3+s4)−(s1+s2) = 0.4.
        assert!((last.l1_delta - 0.4).abs() < 1e-9);
    }

    #[test]
    fn l2_delta_none_until_two_rounds() {
        let mut w = TwoLevelWindow::default();
        let u1 = feed(&mut w, &[40.0; 4]);
        assert_eq!(u1[0].l2_delta, None);
        let u2 = feed(&mut w, &[41.0; 4]);
        assert_eq!(u2[0].l2_delta, Some(1.0));
    }

    #[test]
    fn l2_fifo_evicts_oldest() {
        let mut w = TwoLevelWindow::default();
        // Six rounds of constant values 1..=6: after round 6 the FIFO holds
        // rounds 2..=6, so Δt_l2 = 6 − 2 = 4.
        for v in 1..=6 {
            let _ = feed(&mut w, &[f64::from(v); 4]);
        }
        assert_eq!(w.l2, [2.0, 3.0, 4.0, 5.0, 6.0]);
        let u = feed(&mut w, &[7.0; 4]);
        assert_eq!(u[0].l2_delta, Some(7.0 - 3.0));
    }

    #[test]
    fn custom_geometry() {
        let mut w = TwoLevelWindow::new(WindowConfig { l1_len: 8, l2_len: 3 });
        let samples: Vec<f64> = (0..8).map(f64::from).collect();
        let u = feed(&mut w, &samples);
        // halves: sum(0..4)=6, sum(4..8)=22 ⇒ Δ=16.
        assert_eq!(u[0].l1_delta, 16.0);
        assert_eq!(u[0].l1_average, 3.5);
    }

    #[test]
    fn lengths_above_the_cap_are_named_errors() {
        let at_cap = WindowConfig { l1_len: MAX_WINDOW_LEN, l2_len: MAX_WINDOW_LEN };
        assert_eq!(at_cap.validate(), Ok(()));
        let l1 = WindowConfig { l1_len: 1 << 32, l2_len: 5 }.validate().unwrap_err();
        assert!(l1.message().starts_with("l1_len must be at most"), "{l1}");
        let l2 = WindowConfig { l1_len: 4, l2_len: MAX_WINDOW_LEN + 1 }.validate().unwrap_err();
        assert!(l2.message().starts_with("l2_len must be at most"), "{l2}");
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_l1_rejected() {
        let _ = TwoLevelWindow::new(WindowConfig { l1_len: 3, l2_len: 5 });
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_l2_rejected() {
        let _ = TwoLevelWindow::new(WindowConfig { l1_len: 4, l2_len: 1 });
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_sample_rejected() {
        let mut w = TwoLevelWindow::default();
        let _ = w.push(f64::NAN);
    }

    #[test]
    fn default_matches_paper_sizes() {
        let w = TwoLevelWindow::default();
        assert_eq!(w.cfg.l1_len, 4);
        assert_eq!(w.cfg.l2_len, 5);
    }
}
