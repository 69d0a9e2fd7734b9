//! Per-daemon monotonic counters and their Prometheus text exporter.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Monotonic counters maintained by the control plane.
///
/// Incrementing a counter is a plain integer add — safe on the hot path.
/// The block is `Copy` so reports can embed a snapshot, and fields are all
/// `u64` with `serde(default)`-friendly zero defaults so old journal/report
/// files keep parsing as the set grows.
///
/// # Example
///
/// Aggregate per-node blocks and export them:
///
/// ```
/// use unitherm_obs::{prometheus_text, Counters};
///
/// let node0 = Counters { samples: 400, l2_fallbacks: 3, ..Counters::default() };
/// let node1 = Counters { samples: 400, tdvfs_engagements: 1, ..Counters::default() };
/// let mut cluster = Counters::default();
/// cluster.merge(&node0);
/// cluster.merge(&node1);
/// assert_eq!(cluster.samples, 800);
///
/// let text = prometheus_text(&cluster, "scenario=\"burn\"");
/// assert!(text.contains("unitherm_samples_total{scenario=\"burn\"} 800"));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Sensor samples pushed through the control plane.
    #[serde(default)]
    pub samples: u64,
    /// Hardware ticks short-circuited because no daemon wanted them
    /// (`wants_tick` was false across the pipeline).
    #[serde(default)]
    pub ticks_skipped: u64,
    /// Events emitted through the sink (including any later overwritten in
    /// a ring).
    #[serde(default)]
    pub events_emitted: u64,
    /// Mode changes driven by the level-one (sudden) window.
    #[serde(default)]
    pub l1_decisions: u64,
    /// Mode changes where level one saw nothing and the level-two (gradual)
    /// fallback acted.
    #[serde(default)]
    pub l2_fallbacks: u64,
    /// Mode changes driven by a utilization feedforward prediction.
    #[serde(default)]
    pub feedforward_decisions: u64,
    /// Mode changes driven by a non-window utilization governor (CPUSPEED).
    #[serde(default)]
    pub governor_decisions: u64,
    /// Decisions clamped at an end of the thermal control array.
    #[serde(default)]
    pub saturations: u64,
    /// tDVFS scale-down engagements.
    #[serde(default)]
    pub tdvfs_engagements: u64,
    /// tDVFS frequency restorations.
    #[serde(default)]
    pub tdvfs_releases: u64,
    /// Failsafe watchdog trips.
    #[serde(default)]
    pub failsafe_trips: u64,
    /// Faults delivered to the node's hardware from its one fault
    /// schedule (a scenario's tick-addressed schedules and its
    /// time-addressed plans, placed on ticks).
    #[serde(default)]
    pub faults_injected: u64,
}

impl Counters {
    /// Field-by-field sum, for aggregating per-node blocks into a cluster
    /// total.
    pub fn merge(&mut self, other: &Counters) {
        self.samples += other.samples;
        self.ticks_skipped += other.ticks_skipped;
        self.events_emitted += other.events_emitted;
        self.l1_decisions += other.l1_decisions;
        self.l2_fallbacks += other.l2_fallbacks;
        self.feedforward_decisions += other.feedforward_decisions;
        self.governor_decisions += other.governor_decisions;
        self.saturations += other.saturations;
        self.tdvfs_engagements += other.tdvfs_engagements;
        self.tdvfs_releases += other.tdvfs_releases;
        self.failsafe_trips += other.failsafe_trips;
        self.faults_injected += other.faults_injected;
    }

    /// The `(metric name, help text, value)` triples behind the Prometheus
    /// exporter, in a stable order.
    pub fn metrics(&self) -> [(&'static str, &'static str, u64); 12] {
        [
            (
                "unitherm_samples_total",
                "Sensor samples processed by the control plane",
                self.samples,
            ),
            (
                "unitherm_ticks_skipped_total",
                "Hardware ticks short-circuited because no daemon wanted them",
                self.ticks_skipped,
            ),
            ("unitherm_events_total", "Structured events emitted", self.events_emitted),
            (
                "unitherm_l1_decisions_total",
                "Mode changes from the level-one window",
                self.l1_decisions,
            ),
            (
                "unitherm_l2_fallbacks_total",
                "Mode changes from the level-two fallback window",
                self.l2_fallbacks,
            ),
            (
                "unitherm_feedforward_decisions_total",
                "Mode changes from utilization feedforward",
                self.feedforward_decisions,
            ),
            (
                "unitherm_governor_decisions_total",
                "Mode changes from the utilization governor",
                self.governor_decisions,
            ),
            (
                "unitherm_saturations_total",
                "Decisions clamped at a control-array end",
                self.saturations,
            ),
            ("unitherm_tdvfs_engage_total", "tDVFS scale-down engagements", self.tdvfs_engagements),
            ("unitherm_tdvfs_release_total", "tDVFS frequency restorations", self.tdvfs_releases),
            ("unitherm_failsafe_trips_total", "Failsafe watchdog trips", self.failsafe_trips),
            (
                "unitherm_faults_injected_total",
                "Faults delivered by fault plans",
                self.faults_injected,
            ),
        ]
    }
}

/// Renders a counter block in the Prometheus text exposition format.
///
/// `labels` is spliced verbatim into each sample line (e.g. `node="3"`);
/// pass `""` for an unlabelled export.
pub fn prometheus_text(counters: &Counters, labels: &str) -> String {
    let mut out = String::new();
    let braces = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
    for (name, help, value) in counters.metrics() {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}{braces} {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        let mut a = Counters { samples: 1, l2_fallbacks: 2, ..Counters::default() };
        let b = Counters { samples: 3, failsafe_trips: 4, ..Counters::default() };
        a.merge(&b);
        assert_eq!(a.samples, 4);
        assert_eq!(a.l2_fallbacks, 2);
        assert_eq!(a.failsafe_trips, 4);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let c = Counters { samples: 10, tdvfs_engagements: 2, ..Counters::default() };
        let text = prometheus_text(&c, "node=\"3\"");
        assert!(text.contains("# TYPE unitherm_samples_total counter"), "{text}");
        assert!(text.contains("unitherm_samples_total{node=\"3\"} 10"), "{text}");
        assert!(text.contains("unitherm_tdvfs_engage_total{node=\"3\"} 2"), "{text}");
        // Every sample line must carry the label set.
        let unlabelled = prometheus_text(&c, "");
        assert!(unlabelled.contains("unitherm_samples_total 10"), "{unlabelled}");
    }

    #[test]
    fn counters_round_trip_and_tolerate_missing_fields() {
        let c = Counters { ticks_skipped: 7, ..Counters::default() };
        let json = serde_json::to_string(&c).expect("serialize");
        let back: Counters = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, c);
        // Older files without newer fields still parse.
        let sparse: Counters = serde_json::from_str("{\"samples\":5}").expect("sparse");
        assert_eq!(sparse.samples, 5);
        assert_eq!(sparse.ticks_skipped, 0);
    }
}
