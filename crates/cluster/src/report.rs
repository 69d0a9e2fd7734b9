//! Structured run results.
//!
//! A [`RunReport`] carries both the raw traces (for regenerating the paper's
//! figures) and the summary numbers its tables report: execution time,
//! average wall power, frequency-transition counts and the power-delay
//! product.

use unitherm_core::actuator::FreqMhz;
use unitherm_metrics::stats::power_delay_product;
use unitherm_metrics::{Summary, TimeSeries};
use unitherm_obs::{Counters, EventRecord};
use unitherm_simnode::faults::FaultEvent;

/// Results for one node.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NodeReport {
    /// Sensor temperature trace (°C).
    pub temp: TimeSeries,
    /// Commanded fan duty trace (%).
    pub duty: TimeSeries,
    /// Requested CPU frequency trace (MHz).
    pub freq: TimeSeries,
    /// Instantaneous wall power trace (W).
    pub power: TimeSeries,
    /// CPU utilization trace.
    pub util: TimeSeries,
    /// Frequency-change events `(time, new MHz)` issued by the daemons.
    pub freq_events: Vec<(f64, FreqMhz)>,
    /// Hardware frequency transitions actually performed.
    pub freq_transitions: u64,
    /// Hardware thermal-throttle engagements.
    pub throttle_events: u64,
    /// Failsafe-watchdog engagements (0 when no failsafe attached).
    pub failsafe_engagements: u64,
    /// True if the node crossed the shutdown threshold.
    pub shut_down: bool,
    /// Average wall power over the whole run (exact, from the meter), W.
    pub avg_wall_power_w: f64,
    /// Total wall energy, J.
    pub energy_j: f64,
    /// Temperature summary over all sensor samples.
    pub temp_summary: Summary,
    /// Commanded-duty summary over all samples.
    pub duty_summary: Summary,
    /// When this rank's workload finished, if it did.
    pub finish_time_s: Option<f64>,
    /// Monotonic control-plane counters (`serde(default)` so reports from
    /// before the observability layer still parse).
    #[serde(default)]
    pub counters: Counters,
    /// Events overwritten out of the node's fixed-capacity ring (the ring
    /// keeps only the most recent `event_capacity` records).
    #[serde(default)]
    pub events_dropped: u64,
    /// The most recent control-plane events, drained from the node's ring
    /// in emission order.
    #[serde(default)]
    pub events: Vec<EventRecord>,
    /// Faults delivered to this node's hardware, `(tick, fault)` in
    /// delivery order: the node's one schedule, which holds the scenario's
    /// tick-addressed schedules and its time-addressed plans placed on
    /// ticks (`Scenario::fault_schedule`).
    #[serde(default)]
    pub faults_applied: Vec<(u64, FaultEvent)>,
}

/// Results for one scenario run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Fan scheme label.
    pub fan_label: String,
    /// DVFS scheme label.
    pub dvfs_label: String,
    /// Workload label.
    pub workload_label: String,
    /// Per-node results.
    pub nodes: Vec<NodeReport>,
    /// Simulated wall time actually elapsed, seconds.
    pub wall_time_s: f64,
    /// True when every rank finished before the time limit.
    pub completed: bool,
    /// Job execution time: the time the last rank finished, or the wall
    /// time for unbounded / unfinished runs.
    pub exec_time_s: f64,
    /// Rack intake-air trace when rack coupling was enabled.
    pub rack_air: Option<TimeSeries>,
    /// Set when an attached journal sink latched an I/O error mid-run: the
    /// journal on disk is incomplete even though the simulation finished.
    /// `None` when no journal was attached or it wrote cleanly.
    #[serde(default)]
    pub journal_warning: Option<String>,
}

/// Mean of the finite values in `values`, or 0.0 when none are finite.
///
/// Faulted runs (sensor dropout, jitter) can leave NaN or ±inf in per-node
/// summaries; one poisoned node must not turn every cluster aggregate into
/// NaN, so non-finite contributions are skipped rather than propagated.
fn finite_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in values.filter(|v| v.is_finite()) {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl RunReport {
    /// Average per-node wall power across the cluster, W. Non-finite
    /// per-node values (faulted runs) are skipped.
    pub fn avg_node_power_w(&self) -> f64 {
        finite_mean(self.nodes.iter().map(|n| n.avg_wall_power_w))
    }

    /// Mean of per-node average temperatures, °C. Non-finite per-node means
    /// (empty or NaN-poisoned summaries) are skipped.
    pub fn avg_temp_c(&self) -> f64 {
        finite_mean(self.nodes.iter().map(|n| n.temp_summary.mean))
    }

    /// Hottest temperature seen on any node, °C. NaN maxima are ignored;
    /// returns `-inf` when no node recorded a sample (the empty-summary
    /// sentinel).
    pub fn max_temp_c(&self) -> f64 {
        // f64::max is NaN-ignoring as long as the accumulator stays non-NaN,
        // which the NEG_INFINITY seed guarantees.
        self.nodes.iter().map(|n| n.temp_summary.max).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean of per-node average commanded duty, %. Non-finite per-node
    /// means are skipped.
    pub fn avg_duty_pct(&self) -> f64 {
        finite_mean(self.nodes.iter().map(|n| n.duty_summary.mean))
    }

    /// Total hardware frequency transitions across the cluster (Table 1's
    /// "# freq changes").
    pub fn total_freq_transitions(&self) -> u64 {
        self.nodes.iter().map(|n| n.freq_transitions).sum()
    }

    /// Total thermal-throttle engagements across the cluster.
    pub fn total_throttle_events(&self) -> u64 {
        self.nodes.iter().map(|n| n.throttle_events).sum()
    }

    /// True if any node shut down.
    pub fn any_shutdown(&self) -> bool {
        self.nodes.iter().any(|n| n.shut_down)
    }

    /// The paper's power-delay product: average per-node power × execution
    /// time (Table 1).
    pub fn power_delay_product(&self) -> f64 {
        power_delay_product(self.avg_node_power_w(), self.exec_time_s)
    }

    /// Earliest DVFS scale-down event across the cluster (Figure 10's
    /// trigger time), if any. Events with non-finite timestamps (possible
    /// in reports assembled from faulted or corrupt inputs) are skipped.
    pub fn first_dvfs_event_time_s(&self) -> Option<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.freq_events.first().map(|(t, _)| *t))
            .filter(|t| t.is_finite())
            .min_by(f64::total_cmp)
    }

    /// Lowest frequency any node was ever commanded to, MHz.
    pub fn min_commanded_freq_mhz(&self) -> Option<FreqMhz> {
        self.nodes.iter().flat_map(|n| n.freq_events.iter().map(|&(_, f)| f)).min()
    }

    /// Cluster-wide counter totals (field-by-field sum over the nodes).
    pub fn counters_total(&self) -> Counters {
        let mut total = Counters::default();
        for n in &self.nodes {
            total.merge(&n.counters);
        }
        total
    }

    /// The cluster counter totals in the Prometheus text exposition format,
    /// tagged with the scenario name.
    pub fn prometheus_text(&self) -> String {
        let label = format!("scenario=\"{}\"", self.name);
        unitherm_obs::prometheus_text(&self.counters_total(), &label)
    }

    /// One-line summary, used by the `repro` binary.
    pub fn summary_line(&self) -> String {
        format!(
            "{}: fan={} dvfs={} wl={} | exec={:.1}s avgP={:.2}W avgT={:.2}°C maxT={:.2}°C duty={:.1}% freqChg={} PDP={:.0}",
            self.name,
            self.fan_label,
            self.dvfs_label,
            self.workload_label,
            self.exec_time_s,
            self.avg_node_power_w(),
            self.avg_temp_c(),
            self.max_temp_c(),
            self.avg_duty_pct(),
            self.total_freq_transitions(),
            self.power_delay_product(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_metrics::Summary;

    fn node_report(power: f64, temp_mean: f64, transitions: u64) -> NodeReport {
        NodeReport {
            temp: TimeSeries::new("t", "°C"),
            duty: TimeSeries::new("d", "%"),
            freq: TimeSeries::new("f", "MHz"),
            power: TimeSeries::new("p", "W"),
            util: TimeSeries::new("u", ""),
            freq_events: vec![(10.0, 2200), (20.0, 2000)],
            freq_transitions: transitions,
            throttle_events: 0,
            failsafe_engagements: 0,
            shut_down: false,
            avg_wall_power_w: power,
            energy_j: power * 100.0,
            temp_summary: Summary {
                count: 10,
                mean: temp_mean,
                min: temp_mean - 5.0,
                max: temp_mean + 5.0,
                std_dev: 1.0,
            },
            duty_summary: Summary { count: 10, mean: 50.0, min: 10.0, max: 90.0, std_dev: 5.0 },
            finish_time_s: Some(100.0),
            counters: Counters { samples: 400, l2_fallbacks: 3, ..Counters::default() },
            events_dropped: 0,
            events: vec![EventRecord {
                time_s: 10.0,
                node: 0,
                event: unitherm_obs::Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 },
            }],
            faults_applied: vec![(200, FaultEvent::FanFailure)],
        }
    }

    fn report() -> RunReport {
        RunReport {
            name: "test".into(),
            fan_label: "dynamic".into(),
            dvfs_label: "tDVFS".into(),
            workload_label: "BT.B".into(),
            nodes: vec![node_report(100.0, 50.0, 2), node_report(96.0, 54.0, 4)],
            wall_time_s: 100.0,
            completed: true,
            exec_time_s: 100.0,
            rack_air: None,
            journal_warning: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert_eq!(r.avg_node_power_w(), 98.0);
        assert_eq!(r.avg_temp_c(), 52.0);
        assert_eq!(r.max_temp_c(), 59.0);
        assert_eq!(r.total_freq_transitions(), 6);
        assert_eq!(r.power_delay_product(), 9800.0);
        assert_eq!(r.avg_duty_pct(), 50.0);
        assert!(!r.any_shutdown());
    }

    #[test]
    fn dvfs_event_queries() {
        let r = report();
        assert_eq!(r.first_dvfs_event_time_s(), Some(10.0));
        assert_eq!(r.min_commanded_freq_mhz(), Some(2000));
    }

    #[test]
    fn counter_totals_and_prometheus_export() {
        let r = report();
        let total = r.counters_total();
        assert_eq!(total.samples, 800, "two nodes at 400 samples each");
        assert_eq!(total.l2_fallbacks, 6);
        let text = r.prometheus_text();
        assert!(text.contains("unitherm_samples_total{scenario=\"test\"} 800"), "{text}");
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport {
            name: "empty".into(),
            fan_label: String::new(),
            dvfs_label: String::new(),
            workload_label: String::new(),
            nodes: vec![],
            wall_time_s: 0.0,
            completed: false,
            exec_time_s: 0.0,
            rack_air: None,
            journal_warning: None,
        };
        assert_eq!(r.avg_node_power_w(), 0.0);
        assert_eq!(r.avg_temp_c(), 0.0);
        assert_eq!(r.first_dvfs_event_time_s(), None);
        assert_eq!(r.min_commanded_freq_mhz(), None);
    }

    #[test]
    fn nan_sample_times_and_values_do_not_panic_aggregation() {
        // Regression: `first_dvfs_event_time_s` used
        // `partial_cmp(..).expect("times are finite")` and panicked the
        // moment a NaN timestamp reached a report; NaN summary means also
        // poisoned every cluster average.
        let mut r = report();
        r.nodes[0].freq_events = vec![(f64::NAN, 2200)];
        r.nodes[0].temp_summary.mean = f64::NAN;
        r.nodes[0].temp_summary.max = f64::NAN;
        r.nodes[0].duty_summary.mean = f64::NAN;
        r.nodes[0].avg_wall_power_w = f64::NAN;
        // The NaN-timestamped event is skipped; node 1's finite event wins.
        assert_eq!(r.first_dvfs_event_time_s(), Some(10.0));
        // Node 0's poisoned summaries are skipped, node 1 still counts.
        assert_eq!(r.avg_temp_c(), 54.0);
        assert_eq!(r.avg_duty_pct(), 50.0);
        assert_eq!(r.avg_node_power_w(), 96.0);
        assert_eq!(r.max_temp_c(), 59.0);
        let line = r.summary_line();
        assert!(!line.contains("NaN"), "NaN leaked into summary line: {line}");
    }

    #[test]
    fn all_nan_events_yield_none_and_zeroed_aggregates() {
        let mut r = report();
        for n in &mut r.nodes {
            n.freq_events = vec![(f64::NAN, 2000)];
            n.temp_summary.mean = f64::NAN;
            n.avg_wall_power_w = f64::INFINITY;
        }
        assert_eq!(r.first_dvfs_event_time_s(), None);
        assert_eq!(r.avg_temp_c(), 0.0);
        assert_eq!(r.avg_node_power_w(), 0.0);
    }

    #[test]
    fn summary_line_contains_key_numbers() {
        let line = report().summary_line();
        assert!(line.contains("exec=100.0s"));
        assert!(line.contains("freqChg=6"));
        assert!(line.contains("BT.B"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let json = serde_json::to_string(&r).expect("serialize");
        let back: RunReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.name, r.name);
        assert_eq!(back.nodes.len(), r.nodes.len());
        assert_eq!(back.nodes[0].freq_events, r.nodes[0].freq_events);
        assert_eq!(back.nodes[1].temp_summary, r.nodes[1].temp_summary);
        assert_eq!(back.exec_time_s, r.exec_time_s);
        assert_eq!(back.completed, r.completed);
    }

    #[test]
    fn zero_sample_summaries_round_trip_without_corrupting_json() {
        // A `record_series: false` (or 0-duration) run produces empty
        // summaries holding ±inf sentinels. Those must not leak into the
        // JSON as `null` — the report must parse back to the same state.
        let mut r = report();
        r.nodes[0].temp_summary = Summary::default();
        r.nodes[0].duty_summary = Summary::default();
        // `rack_air: None` and `journal_warning: None` legitimately
        // serialize as `null`; pin them to values so the no-null assertion
        // isolates the Summary encoding.
        r.rack_air = Some(TimeSeries::new("rack", "°C"));
        r.journal_warning = Some("journal sink failed: disk full".to_string());
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        assert!(!json.contains("null"), "±inf sentinel leaked as null:\n{json}");
        let back: RunReport = serde_json::from_str(&json).expect("reparse");
        assert_eq!(back.nodes[0].temp_summary, Summary::default());
        assert_eq!(back.nodes[0].temp_summary.count, 0);
        assert_eq!(back.nodes[0].temp_summary.min, f64::INFINITY);
        assert_eq!(back.nodes[0].temp_summary.max, f64::NEG_INFINITY);
        // Non-empty summaries are untouched by the empty-sentinel encoding.
        assert_eq!(back.nodes[1].temp_summary, r.nodes[1].temp_summary);
    }
}
