//! Figure 6: dynamic vs. traditional static vs. constant fan control on
//! NPB BT on 4 nodes.
//!
//! The paper caps all fans at 75 % duty, sets `P_p = 50` for the dynamic
//! method, and observes: the traditional method reacts only to absolute
//! temperature, stabilizing latest and hottest; the dynamic method
//! proactively raises duty (45 % vs 32 %) and stabilizes sooner and lower;
//! constant 75 % keeps the lowest temperature but burns the most fan power.

use std::path::Path;

use unitherm_cluster::{run_scenarios_parallel, FanScheme, RunReport, Scenario, WorkloadSpec};
use unitherm_core::baseline::StaticFanCurve;
use unitherm_core::control_array::Policy;
use unitherm_metrics::{AsciiPlot, CsvWriter};
use unitherm_workload::NpbBenchmark;

use crate::{renamed, Claim, Experiment, Scale};

/// The three control arms of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6Arm {
    /// Traditional static curve, capped at 75 %.
    Traditional,
    /// Our dynamic controller, `P_p = 50`, capped at 75 %.
    Dynamic,
    /// Constant 75 % duty.
    ConstantMax,
}

impl Fig6Arm {
    fn label(self) -> &'static str {
        match self {
            Fig6Arm::Traditional => "traditional",
            Fig6Arm::Dynamic => "dynamic",
            Fig6Arm::ConstantMax => "constant-75%",
        }
    }
}

/// Figure 6 result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Reports keyed by arm, in [Traditional, Dynamic, ConstantMax] order.
    pub reports: Vec<(Fig6Arm, RunReport)>,
}

/// Regenerates Figure 6.
pub fn run(scale: Scale) -> Fig6Result {
    let arms = [Fig6Arm::Traditional, Fig6Arm::Dynamic, Fig6Arm::ConstantMax];
    let scenarios: Vec<Scenario> = arms
        .iter()
        .map(|arm| {
            let fan = match arm {
                Fig6Arm::Traditional => {
                    FanScheme::SoftwareStatic { curve: StaticFanCurve::with_max(75) }
                }
                Fig6Arm::Dynamic => FanScheme::dynamic(Policy::MODERATE, 75),
                Fig6Arm::ConstantMax => FanScheme::Constant { duty: 75 },
            };
            Scenario::new(format!("fig6-{}", arm.label()))
                .with_nodes(4)
                .with_seed(0xF166)
                .with_workload(WorkloadSpec::Npb {
                    bench: NpbBenchmark::Bt,
                    class: scale.npb_class(),
                })
                .with_fan(fan)
                .with_max_time(scale.npb_time_limit_s())
        })
        .collect();
    let reports = run_scenarios_parallel(scenarios, 3);
    Fig6Result { reports: arms.into_iter().zip(reports).collect() }
}

impl Experiment for Fig6Result {
    fn id(&self) -> &'static str {
        "fig6"
    }

    fn figure(&self) -> String {
        let mut out = String::from(
            "Figure 6: fan-control comparison on NPB BT ×4 nodes (max duty 75 %, P_p = 50)\n",
        );
        let mut temp_plot = AsciiPlot::new("  node-0 temperature (°C)").size(72, 14);
        let mut duty_plot = AsciiPlot::new("  node-0 fan duty (%)").size(72, 10);
        for (arm, r) in &self.reports {
            temp_plot = temp_plot.add(&renamed(&r.nodes[0].temp, arm.label()));
            duty_plot = duty_plot.add(&renamed(&r.nodes[0].duty, arm.label()));
        }
        out.push_str(&temp_plot.render());
        out.push_str(&duty_plot.render());
        out
    }

    fn claims(&self) -> Vec<Claim> {
        let [trad, dyn_, cons] = [0, 1, 2].map(|i| &self.reports[i].1);
        // Average temperature in the settled second half of the run.
        let [trad_t, dyn_t, cons_t] = [trad, dyn_, cons]
            .map(|r| r.nodes[0].temp.summary_between(r.exec_time_s / 2.0, f64::INFINITY).mean);
        let settled = format!("{trad_t:.2} / {dyn_t:.2} / {cons_t:.2} °C");
        let [trad_d, dyn_d, cons_d] = [trad, dyn_, cons].map(RunReport::avg_duty_pct);
        let duties = format!("{trad_d:.1} / {dyn_d:.1} / {cons_d:.1} %");
        const ARMS: &str = "traditional / dynamic / constant-75%";
        vec![
            // Dynamic stabilizes lower than traditional ("ours proactively
            // scales up fan speed and effectively prevents temperature from
            // increasing").
            Claim::new(
                format!("settled temp, {ARMS}"),
                &settled,
                "dynamic < traditional",
                dyn_t < trad_t,
            )
            .paper("traditional latest and hottest"),
            // Constant-max keeps the lowest temperature...
            Claim::new(
                format!("settled temp, {ARMS}"),
                settled,
                "constant ≤ dynamic, constant < traditional",
                cons_t <= dyn_t && cons_t < trad_t,
            )
            .paper("constant lowest"),
            // ...but consumes the most fan power (highest average duty).
            Claim::new(
                format!("avg duty, {ARMS}"),
                &duties,
                "constant highest",
                cons_d > dyn_d && cons_d > trad_d,
            )
            .paper("constant highest"),
            // Proactive: dynamic raises duty beyond what the static map
            // commands at the same temperatures.
            Claim::new(
                format!("avg duty, {ARMS}"),
                duties,
                "dynamic > traditional",
                dyn_d > trad_d,
            )
            .paper("32 / 45 / 75 %"),
            Claim::completed([trad, dyn_, cons]),
        ]
    }

    fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = CsvWriter::new();
        for (arm, r) in &self.reports {
            w.add(renamed(&r.nodes[0].temp, format!("temp_{}", arm.label())));
            w.add(renamed(&r.nodes[0].duty, format!("duty_{}", arm.label())));
        }
        w.write_to_file(dir.join("fig6.csv"))
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
    fn three_arms() {
        let r = run(Scale::Fast);
        assert_eq!(r.reports.len(), 3);
    }
}
