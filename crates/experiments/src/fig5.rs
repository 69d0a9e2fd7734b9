//! Figure 5: dynamic fan control under `P_p ∈ {75, 50, 25}` on cpu-burn.
//!
//! The paper runs cpu-burn for about five minutes under three policies and
//! reports (a) temperature and fan-speed traces, (b) average PWM duty of
//! 36 % / 53 % / 70 % for `P_p` = 75 / 50 / 25, and (c) that the controller
//! responds to sudden and gradual changes but not jitter.
//!
//! Shape criteria: smaller `P_p` ⇒ strictly higher average duty and strictly
//! lower average temperature; the fan must track load bursts (duty range is
//! wide); jitter alone must not saturate the controller.

use std::path::Path;

use unitherm_cluster::{run_scenarios_parallel, FanScheme, RunReport, Scenario, WorkloadSpec};
use unitherm_core::control_array::Policy;
use unitherm_metrics::{AsciiPlot, CsvWriter};

use crate::{renamed, Claim, Experiment, Scale};

/// One policy arm of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Arm {
    /// The policy value (75, 50, 25).
    pub pp: u32,
    /// Full run report (temperature and duty traces inside).
    pub report: RunReport,
}

/// Figure 5 result: one arm per policy, same workload seed across arms.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Arms ordered as the paper presents them: P75, P50, P25.
    pub arms: Vec<Fig5Arm>,
}

/// Regenerates Figure 5.
pub fn run(scale: Scale) -> Fig5Result {
    let pps = [75u32, 50, 25];
    let scenarios: Vec<Scenario> = pps
        .iter()
        .map(|&pp| {
            Scenario::new(format!("fig5-p{pp}"))
                .with_nodes(1)
                .with_seed(0xF165) // identical burn pattern across arms
                .with_workload(WorkloadSpec::CpuBurn)
                .with_fan(FanScheme::dynamic(Policy::new(pp).expect("valid"), 100))
                .with_max_time(scale.burn_duration_s())
        })
        .collect();
    let reports = run_scenarios_parallel(scenarios, 3);
    Fig5Result {
        arms: pps.iter().zip(reports).map(|(&pp, report)| Fig5Arm { pp, report }).collect(),
    }
}

impl Experiment for Fig5Result {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn figure(&self) -> String {
        let mut out =
            String::from("Figure 5: dynamic fan control under P_p = 75 / 50 / 25 (cpu-burn)\n");
        for arm in &self.arms {
            let n = &arm.report.nodes[0];
            out.push_str(&format!("\n-- P_p = {} --\n", arm.pp));
            out.push_str(
                &AsciiPlot::new("temperature (top) / fan duty (bottom)")
                    .size(72, 10)
                    .add(&n.temp)
                    .render(),
            );
            out.push_str(&AsciiPlot::new("").size(72, 8).y_range(0.0, 100.0).add(&n.duty).render());
        }
        out
    }

    fn claims(&self) -> Vec<Claim> {
        let [p75, p50, p25] = [0, 1, 2].map(|i| &self.arms[i].report);
        let [d75, d50, d25] = [p75, p50, p25].map(RunReport::avg_duty_pct);
        let [t75, t50, t25] = [p75, p50, p25].map(RunReport::avg_temp_c);
        let mut claims = vec![
            Claim::new(
                "avg duty P25 / P50 / P75",
                format!("{d25:.1} / {d50:.1} / {d75:.1} %"),
                "P25 > P50 > P75",
                d25 > d50 && d50 > d75,
            )
            .paper("70 / 53 / 36 %"),
            Claim::new(
                "avg temp P25 / P50 / P75",
                format!("{t25:.2} / {t50:.2} / {t75:.2} °C"),
                "P25 < P50 < P75",
                t25 < t50 && t50 < t75,
            )
            .paper("P25 < P50 < P75"),
        ];
        // The controller must actually exercise the fan (respond to sudden
        // bursts): each arm's duty trace spans a wide range.
        for arm in &self.arms {
            let span = arm.report.nodes[0].duty_summary;
            claims.push(Claim::new(
                format!("P{} duty range", arm.pp),
                format!("{:.0}–{:.0} %", span.min, span.max),
                "≥ 20 points",
                span.max - span.min >= 20.0,
            ));
        }
        claims
    }

    fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = CsvWriter::new();
        for arm in &self.arms {
            let n = &arm.report.nodes[0];
            w.add(renamed(&n.temp, format!("temp_p{}", arm.pp)));
            w.add(renamed(&n.duty, format!("duty_p{}", arm.pp)));
        }
        w.write_to_file(dir.join("fig5.csv"))
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
    fn three_arms_in_paper_order() {
        let r = run(Scale::Fast);
        let pps: Vec<u32> = r.arms.iter().map(|a| a.pp).collect();
        assert_eq!(pps, vec![75, 50, 25]);
    }

    #[test]
    fn claims_carry_the_paper_duties() {
        let claims = run(Scale::Fast).claims();
        assert_eq!(claims[0].paper.as_deref(), Some("70 / 53 / 36 %"));
    }
}
