//! Figure 9: tDVFS vs. CPUSPEED, both over our dynamic fan control.
//!
//! Setup per the paper: NPB BT on 4 nodes, dynamic fan with `P_p = 50`
//! capped at 25 % duty — deliberately too weak to hold the threshold, so the
//! DVFS layer must act. The paper observes that temperature *continues to
//! increase* under CPUSPEED (which watches utilization, not temperature)
//! while tDVFS *stabilizes* it.

use std::path::Path;

use unitherm_cluster::{
    run_scenarios_parallel, DvfsScheme, FanScheme, RunReport, Scenario, WorkloadSpec,
};
use unitherm_core::control_array::Policy;
use unitherm_metrics::{AsciiPlot, CsvWriter};
use unitherm_workload::NpbBenchmark;

use crate::{renamed, Claim, Experiment, Scale};

/// Figure 9 result.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// The CPUSPEED run.
    pub cpuspeed: RunReport,
    /// The tDVFS run.
    pub tdvfs: RunReport,
    /// Threshold used by tDVFS.
    pub threshold_c: f64,
}

/// Regenerates Figure 9.
pub fn run(scale: Scale) -> Fig9Result {
    let base = |name: &str| {
        Scenario::new(name)
            .with_nodes(4)
            .with_seed(0xF169)
            .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: scale.npb_class() })
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 25))
            .with_max_time(scale.npb_time_limit_s())
    };
    let scenarios = vec![
        base("fig9-cpuspeed").with_dvfs(DvfsScheme::cpuspeed()),
        base("fig9-tdvfs").with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE)),
    ];
    let mut reports = run_scenarios_parallel(scenarios, 2);
    let tdvfs = reports.pop().expect("two reports");
    let cpuspeed = reports.pop().expect("two reports");
    Fig9Result { cpuspeed, tdvfs, threshold_c: 51.0 }
}

impl Experiment for Fig9Result {
    fn id(&self) -> &'static str {
        "fig9"
    }

    fn figure(&self) -> String {
        let mut out =
            String::from("Figure 9: tDVFS vs CPUSPEED under a 25 %-capped dynamic fan (BT ×4)\n");
        let cs = renamed(&self.cpuspeed.nodes[0].temp, "CPUSPEED");
        let td = renamed(&self.tdvfs.nodes[0].temp, "tDVFS");
        out.push_str(
            &AsciiPlot::new("  node-0 temperature (°C)").size(72, 16).add(&cs).add(&td).render(),
        );
        out
    }

    fn claims(&self) -> Vec<Claim> {
        // Mean node-0 temperature over the final quarter of a run, and its
        // late warming: the third-to-fourth quarter change of the mean.
        let quarters = |r: &RunReport| {
            let (t, e) = (&r.nodes[0].temp, r.exec_time_s);
            let third = t.summary_between(0.5 * e, 0.75 * e).mean;
            let fourth = t.summary_between(0.75 * e, e).mean;
            (t.summary_between(0.75 * e, f64::INFINITY).mean, fourth - third)
        };
        let ((cs_final, cs_rise), (td_final, td_rise)) =
            (quarters(&self.cpuspeed), quarters(&self.tdvfs));
        let cs_tr = self.cpuspeed.total_freq_transitions();
        let td_tr = self.tdvfs.total_freq_transitions();
        let thr = self.threshold_c;
        vec![
            Claim::new(
                "final-quarter temp, tDVFS vs CPUSPEED",
                format!("{td_final:.2} vs {cs_final:.2} °C"),
                "tDVFS < CPUSPEED",
                td_final < cs_final,
            )
            .paper("tDVFS stabilized, CPUSPEED rising"),
            // tDVFS stabilizes near the threshold...
            Claim::new(
                "tDVFS final-quarter temp",
                format!("{td_final:.2} °C"),
                format!("≤ {:.0} °C (threshold + 5)", thr + 5.0),
                td_final <= thr + 5.0,
            )
            .paper("stabilized"),
            // ...while CPUSPEED overshoots it.
            Claim::new(
                "CPUSPEED final-quarter temp",
                format!("{cs_final:.2} °C"),
                format!("≥ {:.0} °C (threshold + 2)", thr + 2.0),
                cs_final >= thr + 2.0,
            )
            .paper("keeps increasing, toward ~70 °C"),
            // CPUSPEED still warming late in the run; tDVFS flat or cooling.
            Claim::new(
                "tDVFS late rise (3rd → 4th quarter)",
                format!("{td_rise:+.2} °C"),
                "≤ +1 °C",
                td_rise <= 1.0,
            ),
            Claim::new(
                "late rise, CPUSPEED vs tDVFS",
                format!("{cs_rise:+.2} vs {td_rise:+.2} °C"),
                "CPUSPEED ≥ tDVFS − 0.05 °C",
                cs_rise >= td_rise - 0.05,
            ),
            // Transition counts: CPUSPEED thrashes, tDVFS does not.
            Claim::new(
                "freq transitions, tDVFS vs CPUSPEED",
                format!("{td_tr} vs {cs_tr}"),
                "tDVFS × 5 ≤ CPUSPEED",
                td_tr * 5 <= cs_tr,
            )
            .paper("3 vs 139"),
        ]
    }

    fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = CsvWriter::new();
        w.add(renamed(&self.cpuspeed.nodes[0].temp, "temp_cpuspeed"));
        w.add(renamed(&self.cpuspeed.nodes[0].freq, "freq_cpuspeed"));
        w.add(renamed(&self.tdvfs.nodes[0].temp, "temp_tdvfs"));
        w.add(renamed(&self.tdvfs.nodes[0].freq, "freq_tdvfs"));
        w.write_to_file(dir.join("fig9.csv"))
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
    fn both_arms_complete() {
        let r = run(Scale::Fast);
        assert!(r.cpuspeed.completed);
        assert!(r.tdvfs.completed);
    }
}
