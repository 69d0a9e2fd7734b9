//! Summary statistics and streaming (Welford) accumulators.

use serde::{Deserialize, Serialize, Serializer, Value};

/// Summary statistics of a finite sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples aggregated.
    pub count: usize,
    /// Arithmetic mean (0 when `count == 0`).
    pub mean: f64,
    /// Minimum value (+inf when empty).
    pub min: f64,
    /// Maximum value (-inf when empty).
    pub max: f64,
    /// Sample standard deviation (0 for fewer than 2 samples).
    pub std_dev: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self { count: 0, mean: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, std_dev: 0.0 }
    }
}

impl Summary {
    /// Computes summary statistics over an iterator of values.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut acc = RunningStats::new();
        for v in values {
            acc.push(v);
        }
        acc.summary()
    }

    /// Spread between max and min (0 when empty).
    pub fn range(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }
}

// Hand-written serde: an empty summary holds `min = +inf` / `max = −inf`,
// which JSON cannot represent (`serde_json` prints non-finite floats as
// `null`). Serializing would corrupt every report containing a zero-sample
// series, so the empty sentinels are *omitted* on the wire and restored on
// deserialization.
impl Serialize for Summary {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.begin_map()?;
        s.entry("count", &self.count)?;
        s.entry("mean", &self.mean)?;
        if self.count > 0 {
            s.entry("min", &self.min)?;
            s.entry("max", &self.max)?;
        }
        s.entry("std_dev", &self.std_dev)?;
        s.end_map()
    }
}

impl Deserialize for Summary {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let field = |key: &str| -> Result<f64, serde::Error> {
            value
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| serde::Error::custom(format!("Summary: missing field `{key}`")))
        };
        let count = value
            .get("count")
            .and_then(Value::as_u64)
            .ok_or_else(|| serde::Error::custom("Summary: missing field `count`"))?
            as usize;
        let (min, max) = if count == 0 {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (field("min")?, field("max")?)
        };
        Ok(Self { count, mean: field("mean")?, min, max, std_dev: field("std_dev")? })
    }
}

/// Numerically stable streaming mean/variance accumulator (Welford's method).
///
/// Used by the simulator's metric sinks where traces are long (hours of
/// 250 ms samples) and we do not want to retain every value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Accumulates one value.
    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite value in RunningStats");
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of accumulated values.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (0 for fewer than 2 values).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Freezes the accumulator into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean,
            min: self.min,
            max: self.max,
            std_dev: self.std_dev(),
        }
    }
}

/// Power-delay product, the paper's combined power/performance metric
/// (Table 1): average power in watts times execution time in seconds.
pub fn power_delay_product(avg_power_w: f64, exec_time_s: f64) -> f64 {
    avg_power_w * exec_time_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_values() {
        let s = Summary::of([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.range(), 3.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of([]);
        assert_eq!(s.count, 0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn running_matches_batch() {
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut r = RunningStats::new();
        for v in values {
            r.push(v);
        }
        let naive_mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((r.mean() - naive_mean).abs() < 1e-12);
        let naive_var = values.iter().map(|v| (v - naive_mean).powi(2)).sum::<f64>()
            / (values.len() - 1) as f64;
        assert!((r.variance() - naive_var).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential() {
        let a_vals = [1.0, 2.0, 3.0];
        let b_vals = [10.0, 20.0, 30.0, 40.0];
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for v in a_vals {
            a.push(v);
        }
        for v in b_vals {
            b.push(v);
        }
        let mut merged = a;
        merged.merge(&b);

        let mut seq = RunningStats::new();
        for v in a_vals.into_iter().chain(b_vals) {
            seq.push(v);
        }
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean() - seq.mean()).abs() < 1e-12);
        assert!((merged.variance() - seq.variance()).abs() < 1e-9);
        assert_eq!(merged.summary().min, 1.0);
        assert_eq!(merged.summary().max, 40.0);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = RunningStats::new();
        a.push(5.0);
        let empty = RunningStats::new();
        let mut left = a;
        left.merge(&empty);
        assert_eq!(left.count(), 1);
        let mut right = RunningStats::new();
        right.merge(&a);
        assert_eq!(right.count(), 1);
        assert_eq!(right.mean(), 5.0);
    }

    #[test]
    fn pdp() {
        assert_eq!(power_delay_product(99.78, 219.0), 99.78 * 219.0);
    }

    #[test]
    fn empty_summary_serializes_without_null_and_round_trips() {
        // An empty summary carries ±inf sentinels that JSON cannot encode;
        // the serializer must omit them instead of emitting `null`.
        let empty = Summary::default();
        let json = serde_json::to_string(&empty).expect("serialize");
        assert!(!json.contains("null"), "±inf leaked as null: {json}");
        let back: Summary = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, empty);
        assert_eq!(back.min, f64::INFINITY);
        assert_eq!(back.max, f64::NEG_INFINITY);
    }

    #[test]
    fn populated_summary_round_trips_exactly() {
        let s = Summary::of([1.0, 2.5, 4.0]);
        let json = serde_json::to_string(&s).expect("serialize");
        let back: Summary = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, s);
    }
}
