//! Cluster-size scaling study (the paper's §5 future work: "how our thermal
//! controllers scale in large-scale clusters").
//!
//! Weak scaling: every rank runs the same per-rank BT program, so execution
//! time should stay roughly flat as the cluster grows, and the per-node
//! controller effectiveness (average temperature) should be independent of
//! cluster size — the controllers are fully decentralized.

use std::path::Path;

use unitherm_cluster::{
    run_scenarios_parallel, DvfsScheme, FanScheme, RunReport, Scenario, WorkloadSpec,
};
use unitherm_core::control_array::Policy;
use unitherm_metrics::{CsvWriter, TextTable, TimeSeries};
use unitherm_workload::NpbBenchmark;

use crate::{Claim, Experiment, Scale};

/// Scaling-study result.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// `(cluster size, report)` in ascending size.
    pub runs: Vec<(usize, RunReport)>,
}

/// Runs the weak-scaling study over 2/4/8/16 nodes with hybrid control.
pub fn run(scale: Scale) -> ScalingResult {
    let sizes = [2usize, 4, 8, 16];
    let scenarios: Vec<Scenario> = sizes
        .iter()
        .map(|&n| {
            Scenario::new(format!("scaling-{n}"))
                .with_nodes(n)
                .with_seed(0x5CA1E)
                .with_workload(WorkloadSpec::Npb {
                    bench: NpbBenchmark::Bt,
                    class: scale.npb_class(),
                })
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 50))
                .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
                .with_max_time(scale.npb_time_limit_s())
                .with_recording(false)
        })
        .collect();
    let reports = run_scenarios_parallel(scenarios, 4);
    ScalingResult { runs: sizes.into_iter().zip(reports).collect() }
}

impl Experiment for ScalingResult {
    fn id(&self) -> &'static str {
        "scaling"
    }

    fn figure(&self) -> String {
        let mut t = TextTable::new(
            "Scaling study: hybrid control, weak scaling over cluster size",
            &["nodes", "exec time (s)", "avg temp (°C)", "avg power/node (W)", "freq changes/node"],
        );
        for (n, r) in &self.runs {
            t.row(&[
                n.to_string(),
                format!("{:.1}", r.exec_time_s),
                format!("{:.2}", r.avg_temp_c()),
                format!("{:.2}", r.avg_node_power_w()),
                format!("{:.1}", r.total_freq_transitions() as f64 / *n as f64),
            ]);
        }
        t.render()
    }

    fn claims(&self) -> Vec<Claim> {
        // Weak scaling: execution time flat within 10 % between 2 and 16
        // nodes (barriers add only the max of per-rank wobble).
        let t2 = self.runs.first().expect("runs").1.exec_time_s;
        let t16 = self.runs.last().expect("runs").1.exec_time_s;
        // Controller effectiveness independent of size: avg temps within
        // 1.5 °C of each other.
        let temps: Vec<f64> = self.runs.iter().map(|(_, r)| r.avg_temp_c()).collect();
        let spread = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - temps.iter().cloned().fold(f64::INFINITY, f64::min);
        vec![
            Claim::completed(self.runs.iter().map(|(_, r)| r)),
            Claim::new(
                "exec time, 16 vs 2 nodes",
                format!("{t16:.1} vs {t2:.1} s"),
                "within 10 %",
                (t16 / t2 - 1.0).abs() <= 0.10,
            ),
            Claim::new(
                "avg-temp spread across sizes",
                format!("{spread:.2} °C"),
                "≤ 1.5 °C",
                spread <= 1.5,
            ),
        ]
    }

    fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = CsvWriter::new();
        let mut exec = TimeSeries::new("exec_time", "s");
        let mut temp = TimeSeries::new("avg_temp", "°C");
        for (n, r) in &self.runs {
            exec.push(*n as f64, r.exec_time_s);
            temp.push(*n as f64, r.avg_temp_c());
        }
        w.add(exec);
        w.add(temp);
        w.write_to_file(dir.join("scaling.csv"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds() {
        let r = run(Scale::Fast);
        assert!(r.shape_violations().is_empty(), "{}\n{:?}", r.render(), r.shape_violations());
    }

    #[test]
    fn sizes_ascend() {
        let r = run(Scale::Fast);
        let sizes: Vec<usize> = r.runs.iter().map(|(n, _)| *n).collect();
        assert_eq!(sizes, vec![2, 4, 8, 16]);
    }
}
