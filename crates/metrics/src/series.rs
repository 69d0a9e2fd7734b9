//! Timestamped sample series.
//!
//! A [`TimeSeries`] is an append-only sequence of `(time, value)` samples with
//! monotonically non-decreasing timestamps. It is the interchange format
//! between the simulator (which produces temperature / power / duty-cycle
//! traces) and the analysis layer (which reduces them to the numbers the
//! paper reports).

use serde::{Deserialize, Serialize};

use crate::stats::Summary;

/// A single timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Time in seconds since the start of the experiment.
    pub time_s: f64,
    /// Observed value, in the unit of the owning series.
    pub value: f64,
}

/// An append-only series of timestamped samples.
///
/// Timestamps must be non-decreasing; [`TimeSeries::push`] panics otherwise
/// because an out-of-order trace indicates a simulator bug, not a data error.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Human-readable name, used for CSV headers and plot legends.
    pub name: String,
    /// Unit label, e.g. `"°C"`, `"W"`, `"%"` or `"GHz"`.
    pub unit: String,
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Creates an empty series with the given name and unit label.
    pub fn new(name: impl Into<String>, unit: impl Into<String>) -> Self {
        Self { name: name.into(), unit: unit.into(), samples: Vec::new() }
    }

    /// Creates an empty series with capacity for `n` samples.
    pub fn with_capacity(name: impl Into<String>, unit: impl Into<String>, n: usize) -> Self {
        Self { name: name.into(), unit: unit.into(), samples: Vec::with_capacity(n) }
    }

    /// Appends a sample.
    ///
    /// # Panics
    /// Panics if `time_s` is earlier than the previous sample's timestamp or
    /// if either argument is non-finite.
    pub fn push(&mut self, time_s: f64, value: f64) {
        assert!(time_s.is_finite() && value.is_finite(), "non-finite sample in `{}`", self.name);
        if let Some(last) = self.samples.last() {
            assert!(
                time_s >= last.time_s,
                "out-of-order sample in `{}`: {} after {}",
                self.name,
                time_s,
                last.time_s
            );
        }
        self.samples.push(Sample { time_s, value });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples in chronological order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Sample values without timestamps.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|s| s.value)
    }

    /// First sample, if any.
    pub fn first(&self) -> Option<Sample> {
        self.samples.first().copied()
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Duration covered by the series in seconds (0 for fewer than 2 samples).
    pub fn duration_s(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.time_s - a.time_s,
            _ => 0.0,
        }
    }

    /// Summary statistics over all sample values.
    pub fn summary(&self) -> Summary {
        Summary::of(self.values())
    }

    /// Summary statistics over samples with `time_s` in `[t0, t1)`.
    pub fn summary_between(&self, t0: f64, t1: f64) -> Summary {
        Summary::of(
            self.samples.iter().filter(|s| s.time_s >= t0 && s.time_s < t1).map(|s| s.value),
        )
    }

    /// Arithmetic mean of all values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let s = self.summary();
        (s.count > 0).then_some(s.mean)
    }

    /// Time-weighted average using the trapezoidal rule.
    ///
    /// For signals sampled at a fixed rate this matches the arithmetic mean;
    /// for irregularly sampled signals (e.g. event-driven frequency traces)
    /// it weights each value by how long it was held.
    pub fn time_weighted_mean(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return self.samples.first().map(|s| s.value);
        }
        let mut area = 0.0;
        for w in self.samples.windows(2) {
            let dt = w[1].time_s - w[0].time_s;
            area += 0.5 * (w[0].value + w[1].value) * dt;
        }
        let dur = self.duration_s();
        if dur > 0.0 {
            Some(area / dur)
        } else {
            // All samples share a timestamp; fall back to arithmetic mean.
            self.mean()
        }
    }

    /// Value at time `t` by zero-order hold (value of the latest sample with
    /// `time_s <= t`). Returns `None` before the first sample.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        let idx = self.samples.partition_point(|s| s.time_s <= t);
        idx.checked_sub(1).map(|i| self.samples[i].value)
    }

    /// First time at which the value reaches (>=) `threshold`, if ever.
    pub fn first_crossing_above(&self, threshold: f64) -> Option<f64> {
        self.samples.iter().find(|s| s.value >= threshold).map(|s| s.time_s)
    }

    /// Counts transitions where consecutive values differ by more than `eps`.
    ///
    /// Used to count DVFS frequency changes for Table 1.
    pub fn transition_count(&self, eps: f64) -> usize {
        self.samples.windows(2).filter(|w| (w[1].value - w[0].value).abs() > eps).count()
    }

    /// The q-th percentile of the sample values (nearest-rank method),
    /// `q ∈ [0, 100]`. Returns `None` when the series is empty.
    ///
    /// Data-center thermal reporting cares about tails (P95/P99 die
    /// temperature) at least as much as means.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&q), "percentile must be in [0, 100]");
        let mut values: Vec<f64> = self.values().collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
        let rank = ((q / 100.0) * values.len() as f64).ceil() as usize;
        Some(values[rank.saturating_sub(1).min(values.len() - 1)])
    }

    /// Integral of the series over time (trapezoidal). For a power series in
    /// watts this yields energy in joules.
    pub fn integral(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| 0.5 * (w[0].value + w[1].value) * (w[1].time_s - w[0].time_s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[(f64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::new("t", "u");
        for &(t, v) in values {
            ts.push(t, v);
        }
        ts
    }

    #[test]
    fn push_and_len() {
        let ts = series(&[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(ts.len(), 2);
        assert!(!ts.is_empty());
        assert_eq!(ts.first().unwrap().value, 1.0);
        assert_eq!(ts.last().unwrap().value, 2.0);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn push_rejects_out_of_order() {
        let mut ts = TimeSeries::new("t", "u");
        ts.push(1.0, 0.0);
        ts.push(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn push_rejects_nan() {
        let mut ts = TimeSeries::new("t", "u");
        ts.push(0.0, f64::NAN);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let ts = series(&[(1.0, 1.0), (1.0, 2.0)]);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn duration() {
        assert_eq!(series(&[(2.0, 0.0), (7.5, 0.0)]).duration_s(), 5.5);
        assert_eq!(series(&[(2.0, 0.0)]).duration_s(), 0.0);
        assert_eq!(TimeSeries::new("e", "u").duration_s(), 0.0);
    }

    #[test]
    fn mean_and_summary() {
        let ts = series(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        assert_eq!(ts.mean().unwrap(), 2.0);
        let s = ts.summary();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn summary_between_filters_window() {
        let ts = series(&[(0.0, 1.0), (1.0, 10.0), (2.0, 100.0)]);
        let s = ts.summary_between(0.5, 1.5);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 10.0);
    }

    #[test]
    fn time_weighted_mean_weights_hold_durations() {
        // Value 0 held for 9 s, value 10 for 1 s: arithmetic mean of samples
        // would be wrong; trapezoid over (0,0)-(9,0)-(10,10) = 5.0 area /10.
        let ts = series(&[(0.0, 0.0), (9.0, 0.0), (10.0, 10.0)]);
        let twm = ts.time_weighted_mean().unwrap();
        assert!((twm - 0.5).abs() < 1e-12, "got {twm}");
    }

    #[test]
    fn time_weighted_mean_degenerate() {
        assert_eq!(series(&[(0.0, 4.0)]).time_weighted_mean(), Some(4.0));
        assert_eq!(TimeSeries::new("e", "u").time_weighted_mean(), None);
        // identical timestamps fall back to arithmetic mean
        assert_eq!(series(&[(1.0, 2.0), (1.0, 4.0)]).time_weighted_mean(), Some(3.0));
    }

    #[test]
    fn value_at_zero_order_hold() {
        let ts = series(&[(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(ts.value_at(0.5), None);
        assert_eq!(ts.value_at(1.0), Some(10.0));
        assert_eq!(ts.value_at(1.5), Some(10.0));
        assert_eq!(ts.value_at(2.0), Some(20.0));
        assert_eq!(ts.value_at(99.0), Some(20.0));
    }

    #[test]
    fn first_crossing() {
        let ts = series(&[(0.0, 1.0), (1.0, 5.0), (2.0, 9.0)]);
        assert_eq!(ts.first_crossing_above(5.0), Some(1.0));
        assert_eq!(ts.first_crossing_above(100.0), None);
    }

    #[test]
    fn transition_count_counts_changes() {
        let ts = series(&[(0.0, 2.4), (1.0, 2.4), (2.0, 2.2), (3.0, 2.2), (4.0, 2.4)]);
        assert_eq!(ts.transition_count(0.01), 2);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let ts = series(&[(0.0, 10.0), (1.0, 20.0), (2.0, 30.0), (3.0, 40.0), (4.0, 50.0)]);
        assert_eq!(ts.percentile(0.0), Some(10.0));
        assert_eq!(ts.percentile(50.0), Some(30.0));
        assert_eq!(ts.percentile(95.0), Some(50.0));
        assert_eq!(ts.percentile(100.0), Some(50.0));
        assert_eq!(TimeSeries::new("e", "u").percentile(50.0), None);
    }

    #[test]
    fn percentile_order_independent() {
        let ts = series(&[(0.0, 50.0), (1.0, 10.0), (2.0, 30.0)]);
        assert_eq!(ts.percentile(100.0), Some(50.0));
        assert_eq!(ts.percentile(1.0), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_rejects_out_of_range() {
        let ts = series(&[(0.0, 1.0)]);
        let _ = ts.percentile(120.0);
    }

    #[test]
    fn integral_is_energy() {
        // 100 W held for 10 s = 1000 J.
        let ts = series(&[(0.0, 100.0), (10.0, 100.0)]);
        assert!((ts.integral() - 1000.0).abs() < 1e-9);
    }
}
