//! Figure 2: the thermal profile taxonomy (sudden / gradual / jitter).
//!
//! The paper's Figure 2 is a CPU thermal profile of an Athlon64 system at
//! constant fan speed, sampled at 4 Hz, exhibiting all three behaviour
//! types. We drive one simulated node with the scripted Figure-2 utilization
//! profile under constant fan speed, sample its sensor at 4 Hz, and run the
//! §3.1 classifier over the trace.

use std::collections::BTreeMap;
use std::path::Path;

use unitherm_cluster::{FanScheme, Scenario, Simulation, WorkloadSpec};
use unitherm_core::classify::{BehaviorClassifier, ThermalBehavior};
use unitherm_metrics::{AsciiPlot, CsvWriter, TimeSeries};
use unitherm_workload::ScriptWorkload;

use crate::{Claim, Experiment, Scale};

/// Figure 2 result.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// The 4 Hz sensor temperature trace.
    pub temp: TimeSeries,
    /// One label per completed classifier round (1 s each).
    pub labels: Vec<ThermalBehavior>,
    /// Label histogram.
    pub histogram: BTreeMap<&'static str, usize>,
}

/// Regenerates Figure 2.
pub fn run(_scale: Scale) -> Fig2Result {
    let segments = ScriptWorkload::figure2_segments();
    // The trace length defines the figure at either scale.
    let max_time = segments.iter().map(|s| s.duration_s).sum::<f64>() + 10.0;
    let report = Simulation::new(
        Scenario::new("fig2")
            .with_nodes(1)
            .with_workload(WorkloadSpec::Script(segments))
            // "constant fan speed" per the figure caption; 40 % keeps the
            // interesting temperature range.
            .with_fan(FanScheme::Constant { duty: 40 })
            .with_max_time(max_time),
    )
    .run();

    let temp = report.nodes[0].temp.clone();
    let labels = BehaviorClassifier::classify_trace(temp.values());
    let mut histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
    for l in &labels {
        let key = match l {
            ThermalBehavior::Sudden => "sudden",
            ThermalBehavior::Gradual => "gradual",
            ThermalBehavior::Jitter => "jitter",
            ThermalBehavior::Steady => "steady",
        };
        *histogram.entry(key).or_insert(0) += 1;
    }
    Fig2Result { temp, labels, histogram }
}

impl Experiment for Fig2Result {
    fn id(&self) -> &'static str {
        "fig2"
    }

    fn figure(&self) -> String {
        let mut out =
            String::from("Figure 2: CPU thermal profile with constant fan speed (4 samples/s)\n");
        out.push_str(&AsciiPlot::new("").size(72, 16).add(&self.temp).render());
        out
    }

    fn claims(&self) -> Vec<Claim> {
        // All three paper behaviour types must be present.
        let mut claims: Vec<Claim> = ["sudden", "gradual", "jitter"]
            .into_iter()
            .map(|ty| {
                let rounds = self.histogram.get(ty).copied().unwrap_or(0);
                Claim::new(format!("{ty} rounds"), rounds.to_string(), "≥ 1", rounds > 0)
                    .paper("present")
            })
            .collect();
        let range = self.temp.summary().range();
        claims.push(
            Claim::new("temperature range", format!("{range:.1} °C"), "≥ 10 °C", range >= 10.0)
                .paper("~25 °C"),
        );
        let rate = self.temp.len() as f64 / self.temp.duration_s();
        claims.push(
            Claim::new(
                "sample rate",
                format!("{rate:.2} Hz"),
                "4 ± 0.2 Hz",
                (rate - 4.0).abs() <= 0.2,
            )
            .paper("4 Hz"),
        );
        claims
    }

    fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = CsvWriter::new();
        w.add(self.temp.clone());
        // Encode labels as a numeric series aligned to round ends (1 s).
        let mut lbl = TimeSeries::new("behavior", "0=steady 1=jitter 2=gradual 3=sudden");
        for (i, l) in self.labels.iter().enumerate() {
            let code = match l {
                ThermalBehavior::Steady => 0.0,
                ThermalBehavior::Jitter => 1.0,
                ThermalBehavior::Gradual => 2.0,
                ThermalBehavior::Sudden => 3.0,
            };
            lbl.push((i + 1) as f64, code);
        }
        w.add(lbl);
        w.write_to_file(dir.join("fig2.csv"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds() {
        let r = run(Scale::Fast);
        assert!(r.shape_violations().is_empty(), "{:?}", r.shape_violations());
    }

    #[test]
    fn histogram_sums_to_rounds() {
        let r = run(Scale::Fast);
        let total: usize = r.histogram.values().sum();
        assert_eq!(total, r.labels.len());
        assert!(!r.labels.is_empty());
    }

    #[test]
    fn render_lists_behaviours() {
        let s = run(Scale::Fast).render();
        assert!(s.contains("sudden"));
        assert!(s.contains("jitter"));
    }
}
