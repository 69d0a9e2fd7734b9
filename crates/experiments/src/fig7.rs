//! Figure 7: maximum-PWM sweep under dynamic control.
//!
//! "To emulate the cooling effect of different fans, we constrain the
//! maximum PWM duty cycles" — 25 / 50 / 75 / 100 % with `P_p = 50` on NPB
//! BT. Paper findings: a larger cap gives lower temperature; 100 % is ~8 °C
//! cooler than 25 %; but 50 % vs 75 % differ little — a proactively-driven
//! weaker fan matches a stronger one.

use std::path::Path;

use unitherm_cluster::{run_scenarios_parallel, FanScheme, RunReport, Scenario, WorkloadSpec};
use unitherm_core::control_array::Policy;
use unitherm_metrics::{AsciiPlot, CsvWriter};
use unitherm_workload::NpbBenchmark;

use crate::{renamed, Claim, Experiment, Scale};

/// Figure 7 result: one report per maximum duty.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// `(max_duty_percent, report)` in ascending cap order (25, 50, 75, 100).
    pub sweeps: Vec<(u8, RunReport)>,
}

/// Regenerates Figure 7.
pub fn run(scale: Scale) -> Fig7Result {
    let caps = [25u8, 50, 75, 100];
    let scenarios: Vec<Scenario> = caps
        .iter()
        .map(|&cap| {
            Scenario::new(format!("fig7-max{cap}"))
                .with_nodes(4)
                .with_seed(0xF167)
                .with_workload(WorkloadSpec::Npb {
                    bench: NpbBenchmark::Bt,
                    class: scale.npb_class(),
                })
                .with_fan(FanScheme::dynamic(Policy::MODERATE, cap))
                .with_max_time(scale.npb_time_limit_s())
        })
        .collect();
    let reports = run_scenarios_parallel(scenarios, 4);
    Fig7Result { sweeps: caps.into_iter().zip(reports).collect() }
}

impl Experiment for Fig7Result {
    fn id(&self) -> &'static str {
        "fig7"
    }

    fn figure(&self) -> String {
        let mut out = String::from(
            "Figure 7: temperature under various maximum PWM duty cycles (BT ×4, P_p = 50)\n",
        );
        let mut temp_plot = AsciiPlot::new("  node-0 temperature (°C)").size(72, 14);
        let mut duty_plot = AsciiPlot::new("  node-0 fan duty (%)").size(72, 10);
        for (cap, r) in &self.sweeps {
            temp_plot = temp_plot.add(&renamed(&r.nodes[0].temp, format!("{cap}% max")));
            duty_plot = duty_plot.add(&renamed(&r.nodes[0].duty, format!("{cap}% max")));
        }
        out.push_str(&temp_plot.render());
        out.push_str(&duty_plot.render());
        out
    }

    fn claims(&self) -> Vec<Claim> {
        // Settled (second-half) node-0 temperature per cap: 25, 50, 75, 100.
        let temps: Vec<f64> = self
            .sweeps
            .iter()
            .map(|(_, r)| r.nodes[0].temp.summary_between(r.exec_time_s / 2.0, f64::INFINITY).mean)
            .collect();
        let listed = temps.iter().map(|t| format!("{t:.2}")).collect::<Vec<_>>().join(" / ");
        let full_spread = temps[0] - temps[3];
        // 50 % vs 75 % differ much less than 25 % vs 50 % — the paper's
        // "less powerful fan delivers similar cooling" point.
        let gap_25_50 = temps[0] - temps[1];
        let gap_50_75 = temps[1] - temps[2];
        vec![
            Claim::new(
                "settled temp at max 25 / 50 / 75 / 100 %",
                format!("{listed} °C"),
                "non-increasing in the cap, 0.3 °C slack",
                temps.windows(2).all(|w| w[1] <= w[0] + 0.3),
            )
            .paper("larger cap cooler"),
            Claim::new(
                "settled spread 25 % → 100 %",
                format!("{full_spread:.1} °C"),
                "≥ 4 °C",
                full_spread >= 4.0,
            )
            .paper("≈ 8 °C"),
            Claim::new(
                "settled gap 50→75 % vs 25→50 %",
                format!("{gap_50_75:.1} vs {gap_25_50:.1} °C"),
                "50→75 < 25→50",
                gap_50_75 < gap_25_50,
            )
            .paper("50 % ≈ 75 %"),
        ]
    }

    fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = CsvWriter::new();
        for (cap, r) in &self.sweeps {
            w.add(renamed(&r.nodes[0].temp, format!("temp_max{cap}")));
            w.add(renamed(&r.nodes[0].duty, format!("duty_max{cap}")));
        }
        w.write_to_file(dir.join("fig7.csv"))
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
    fn four_caps_in_order() {
        let r = run(Scale::Fast);
        let caps: Vec<u8> = r.sweeps.iter().map(|(c, _)| *c).collect();
        assert_eq!(caps, vec![25, 50, 75, 100]);
    }
}
