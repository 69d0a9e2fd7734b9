//! Utilization-trace replay.
//!
//! The reproduction substitutes synthetic workloads for the production
//! traces the original testbed could observe directly. Users who *do* have
//! recorded utilization traces (from `/proc/stat` sampling, monitoring
//! systems, or a previous simulation's CSV export) can replay them through
//! [`TraceWorkload`]: each row is `(time_s, utilization[, activity])`, and
//! playback holds each utilization until the next timestamp (zero-order
//! hold), exactly reversing how such traces are recorded.

use crate::phases::{StepOutcome, WorkState, Workload};

/// One trace row.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    time_s: f64,
    utilization: f64,
    activity: f64,
}

/// A workload replaying a recorded utilization trace.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    rows: Vec<Row>,
    elapsed_s: f64,
    /// Replay the trace in a loop instead of finishing at its end.
    looping: bool,
}

/// Error parsing a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceParseError {}

/// Why a list of trace points cannot be replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum TracePointError {
    /// No points at all.
    Empty,
    /// One point breaks a rule.
    Point {
        /// Index of the offending point.
        index: usize,
        /// The rule it breaks.
        reason: &'static str,
    },
}

impl std::fmt::Display for TracePointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TracePointError::Empty => write!(f, "trace must not be empty"),
            TracePointError::Point { index, reason } => write!(f, "trace point {index}: {reason}"),
        }
    }
}

impl std::error::Error for TracePointError {}

impl TraceWorkload {
    /// Checks `(time_s, utilization, activity)` points: at least one,
    /// timestamps finite, non-negative and strictly increasing,
    /// utilization and activity in `[0, 1]`.
    ///
    /// # Errors
    /// Names the first offending point and the rule it breaks.
    pub fn validate_points(points: &[(f64, f64, f64)]) -> Result<(), TracePointError> {
        if points.is_empty() {
            return Err(TracePointError::Empty);
        }
        let mut last_t = f64::NEG_INFINITY;
        for (index, &(t, u, a)) in points.iter().enumerate() {
            let reason = if !(t.is_finite() && t >= 0.0) {
                "timestamps must be finite and non-negative"
            } else if t <= last_t {
                "timestamps must be strictly increasing"
            } else if !(0.0..=1.0).contains(&u) {
                "utilization must be in [0,1]"
            } else if !(0.0..=1.0).contains(&a) {
                "activity must be in [0,1]"
            } else {
                last_t = t;
                continue;
            };
            return Err(TracePointError::Point { index, reason });
        }
        Ok(())
    }

    /// Builds a trace from `(time_s, utilization, activity)` points.
    ///
    /// # Panics
    /// Panics on points [`TraceWorkload::validate_points`] refuses —
    /// recorded traces with those defects need cleaning, not silent repair.
    pub fn from_points_with_activity(points: &[(f64, f64, f64)]) -> Self {
        if let Err(e) = Self::validate_points(points) {
            panic!("{e}");
        }
        Self::from_valid_points(points)
    }

    fn from_valid_points(points: &[(f64, f64, f64)]) -> Self {
        let rows = points
            .iter()
            .map(|&(time_s, utilization, activity)| Row { time_s, utilization, activity })
            .collect();
        Self { rows, elapsed_s: 0.0, looping: false }
    }

    /// Parses CSV text with rows `time_s,utilization[,activity]`. Lines
    /// starting with `#` and a leading header row (non-numeric first field)
    /// are skipped.
    pub fn from_csv_str(text: &str) -> Result<Self, TraceParseError> {
        let (mut points, mut lines) = (Vec::new(), Vec::new());
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() < 2 {
                return Err(TraceParseError {
                    line: line_no,
                    reason: "expected at least time_s,utilization".into(),
                });
            }
            let t: f64 = match fields[0].parse() {
                Ok(v) => v,
                Err(_) if points.is_empty() => continue, // header row
                Err(e) => {
                    return Err(TraceParseError { line: line_no, reason: format!("bad time: {e}") })
                }
            };
            let u: f64 = fields[1].parse().map_err(|e| TraceParseError {
                line: line_no,
                reason: format!("bad utilization: {e}"),
            })?;
            let a: f64 = match fields.get(2) {
                Some(s) if !s.is_empty() => s.parse().map_err(|e| TraceParseError {
                    line: line_no,
                    reason: format!("bad activity: {e}"),
                })?,
                _ => u,
            };
            points.push((t, u, a));
            lines.push(line_no);
        }
        // Defects are parse errors here (not a panic): the text came from
        // outside the program.
        Self::validate_points(&points).map_err(|e| match e {
            TracePointError::Empty => TraceParseError { line: 0, reason: "no data rows".into() },
            TracePointError::Point { index, reason } => {
                TraceParseError { line: lines[index], reason: reason.into() }
            }
        })?;
        Ok(Self::from_valid_points(&points))
    }

    /// Reads and parses a CSV trace file.
    pub fn from_csv_file(path: impl AsRef<std::path::Path>) -> Result<Self, std::io::Error> {
        let text = std::fs::read_to_string(path)?;
        Self::from_csv_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Makes the trace repeat forever instead of finishing at its last
    /// timestamp.
    pub fn looped(mut self) -> Self {
        self.looping = true;
        self
    }

    /// Duration of one pass, seconds (the last timestamp).
    pub fn duration_s(&self) -> f64 {
        self.rows.last().expect("non-empty").time_s
    }

    fn row_at(&self, t: f64) -> &Row {
        let idx = self.rows.partition_point(|r| r.time_s <= t);
        &self.rows[idx.saturating_sub(1)]
    }
}

impl Workload for TraceWorkload {
    fn advance(&mut self, dt_s: f64, _speed_factor: f64) -> StepOutcome {
        assert!(dt_s > 0.0, "time step must be positive");
        self.elapsed_s += dt_s;
        let t = if self.looping {
            self.elapsed_s % self.duration_s().max(f64::MIN_POSITIVE)
        } else {
            self.elapsed_s
        };
        if !self.looping && t > self.duration_s() {
            return StepOutcome::uniform(0.0);
        }
        let row = self.row_at(t);
        StepOutcome { utilization: row.utilization, activity: row.activity }
    }

    fn state(&self) -> WorkState {
        if !self.looping && self.elapsed_s > self.duration_s() {
            WorkState::Finished
        } else {
            WorkState::Running
        }
    }

    fn release_barrier(&mut self) {}

    fn progress(&self) -> f64 {
        if self.looping {
            0.0
        } else {
            (self.elapsed_s / self.duration_s()).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_zero_order_hold() {
        let mut w = TraceWorkload::from_points_with_activity(&[
            (0.0, 0.2, 0.2),
            (1.0, 0.8, 0.8),
            (2.0, 0.5, 0.5),
        ]);
        assert_eq!(w.advance(0.5, 1.0).utilization, 0.2); // t = 0.5
        assert_eq!(w.advance(0.75, 1.0).utilization, 0.8); // t = 1.25
        assert_eq!(w.advance(0.75, 1.0).utilization, 0.5); // t = 2.0 (last row)
        assert!(!w.is_finished(), "finishes only past the last timestamp");
        assert_eq!(w.advance(0.5, 1.0).utilization, 0.0); // t = 2.5
        assert!(w.is_finished());
    }

    #[test]
    fn separate_activity_column() {
        let mut w = TraceWorkload::from_points_with_activity(&[(0.0, 0.9, 0.4), (5.0, 0.9, 0.4)]);
        let out = w.advance(1.0, 1.0);
        assert_eq!(out.utilization, 0.9);
        assert_eq!(out.activity, 0.4);
    }

    #[test]
    fn looped_trace_never_finishes() {
        let mut w = TraceWorkload::from_points_with_activity(&[
            (0.0, 0.1, 0.1),
            (1.0, 0.9, 0.9),
            (2.0, 0.1, 0.1),
        ])
        .looped();
        for _ in 0..100 {
            let _ = w.advance(0.3, 1.0);
            assert_eq!(w.state(), WorkState::Running);
        }
        assert_eq!(w.progress(), 0.0);
    }

    #[test]
    fn csv_parses_with_header_and_comments() {
        let csv = "# recorded on node7\ntime_s,util\n0.0,0.2\n1.0,0.9\n2.5,0.4\n";
        let w = TraceWorkload::from_csv_str(csv).unwrap();
        assert_eq!(w.duration_s(), 2.5);
    }

    #[test]
    fn csv_optional_activity_column() {
        let csv = "0.0,0.9,0.4\n1.0,0.9,0.4\n";
        let mut w = TraceWorkload::from_csv_str(csv).unwrap();
        assert_eq!(w.advance(0.5, 1.0).activity, 0.4);
    }

    #[test]
    fn csv_errors_are_located() {
        let err = TraceWorkload::from_csv_str("0.0,0.5\n1.0,abc\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("utilization"));

        let err = TraceWorkload::from_csv_str("0.0,1.5\n").unwrap_err();
        assert!(err.reason.contains("utilization must be in [0,1]"));

        let err = TraceWorkload::from_csv_str("0.0,0.5\n# gap\n0.0,0.6\n").unwrap_err();
        assert!(err.reason.contains("strictly increasing"));
        assert_eq!(err.line, 3, "the offending row's line");

        let err = TraceWorkload::from_csv_str("# only comments\n").unwrap_err();
        assert!(err.reason.contains("no data rows"));
    }

    #[test]
    fn csv_file_roundtrip() {
        let dir = std::env::temp_dir().join("unitherm_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, "0.0,0.3\n2.0,0.8\n").unwrap();
        let w = TraceWorkload::from_csv_file(&path).unwrap();
        assert_eq!(w.duration_s(), 2.0);
        assert!(TraceWorkload::from_csv_file(dir.join("missing.csv")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_points_rejected() {
        let _ = TraceWorkload::from_points_with_activity(&[(1.0, 0.5, 0.5), (0.5, 0.5, 0.5)]);
    }
}
