//! Straggler study (extension): one thermally handicapped node in a BSP
//! job.
//!
//! The sharpest version of the paper's *system-level* claim: in a
//! barrier-coupled job, the cluster runs at the pace of its slowest rank.
//! Give one node a dusty, undersized fan (capped at 12 % duty) and compare:
//!
//! * **unmanaged** — no DVFS anywhere: the handicapped node marches into
//!   the hardware thermal throttle (an *emergency*, the event the paper's
//!   introduction warns "reduces system reliability and life expectancy");
//! * **coordinated** — tDVFS on every node: the handicapped node is eased
//!   down gracefully before any emergency fires.
//!
//! Healthy nodes are identical in both arms; every difference comes from
//! how the one bad node is handled. The defensible system-level claims —
//! enforced as shape criteria — are: zero emergencies under coordination, a
//! straggler that runs several degrees cooler, and a bounded (≤ 15 %)
//! cluster-wide execution-time cost for that protection. (Whether graceful
//! degradation also beats emergency throttling on *wall-clock* depends on
//! the throttle duty cycle, which this platform's slow heatsink makes
//! long-period; we do not assert it.)

use std::path::Path;

use unitherm_cluster::{
    run_scenarios_parallel, DvfsScheme, FanScheme, RunReport, Scenario, WorkloadSpec,
};
use unitherm_core::control_array::Policy;
use unitherm_metrics::{CsvWriter, TextTable, TimeSeries};
use unitherm_workload::NpbBenchmark;

use crate::{renamed, Claim, Experiment, Scale};

/// Index of the handicapped node.
pub const STRAGGLER: usize = 2;

/// Straggler-study result.
#[derive(Debug, Clone)]
pub struct StragglerStudy {
    /// No DVFS: hardware emergencies do the throttling.
    pub unmanaged: RunReport,
    /// tDVFS everywhere: graceful degradation.
    pub coordinated: RunReport,
}

/// Runs the straggler study.
pub fn run(scale: Scale) -> StragglerStudy {
    let wl = WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: scale.npb_class() };
    // Node 2 sits at the top of a hot rack (intake +8 °C) with a dusty fan
    // capped at 12 % duty.
    let mut hot_position = unitherm_simnode::NodeConfig::default();
    hot_position.thermal.ambient_c += 8.0;
    let base = |name: &str| {
        Scenario::new(name)
            .with_nodes(4)
            .with_seed(0x57A6)
            .with_workload(wl.clone())
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_node_fan(STRAGGLER, FanScheme::dynamic(Policy::MODERATE, 12))
            .with_node_config(STRAGGLER, hot_position.clone())
            .with_max_time(scale.npb_time_limit_s() + 300.0)
    };
    let scenarios = vec![
        base("straggler-unmanaged"),
        base("straggler-coordinated").with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE)),
    ];
    let mut reports = run_scenarios_parallel(scenarios, 2);
    let coordinated = reports.pop().expect("two runs");
    let unmanaged = reports.pop().expect("two runs");
    StragglerStudy { unmanaged, coordinated }
}

impl Experiment for StragglerStudy {
    fn id(&self) -> &'static str {
        "straggler"
    }

    fn figure(&self) -> String {
        let mut t = TextTable::new(
            "Straggler study: node 2's fan capped at 12 % duty (BT ×4, BSP-coupled)",
            &[
                "arm",
                "exec time (s)",
                "straggler max T (°C)",
                "straggler emergencies",
                "straggler final freq",
                "completed",
            ],
        );
        for (name, r) in [("unmanaged", &self.unmanaged), ("coordinated", &self.coordinated)] {
            let s = &r.nodes[STRAGGLER];
            t.row(&[
                name.to_string(),
                format!("{:.1}", r.exec_time_s),
                format!("{:.1}", s.temp_summary.max),
                s.throttle_events.to_string(),
                s.freq.last().map(|x| format!("{:.0} MHz", x.value)).unwrap_or_else(|| "?".into()),
                r.completed.to_string(),
            ]);
        }
        t.render()
    }

    fn claims(&self) -> Vec<Claim> {
        let (un, co) = (&self.unmanaged.nodes[STRAGGLER], &self.coordinated.nodes[STRAGGLER]);
        let emergencies = |n: &unitherm_cluster::NodeReport| {
            format!("{}{}", n.throttle_events, if n.shut_down { ", shut down" } else { "" })
        };
        // The protection's cluster-wide performance cost is bounded.
        let penalty = self.coordinated.exec_time_s / self.unmanaged.exec_time_s;
        let both_completed = self.coordinated.completed && self.unmanaged.completed;
        // Healthy nodes never get hot enough to care in either arm.
        let healthy_emergencies = [&self.unmanaged, &self.coordinated]
            .iter()
            .flat_map(|r| r.nodes.iter().enumerate())
            .filter(|(i, n)| *i != STRAGGLER && n.throttle_events > 0)
            .count();
        vec![
            // The handicap is real: the unmanaged straggler hits the
            // hardware monitor.
            Claim::new(
                "unmanaged straggler emergencies",
                emergencies(un),
                "≥ 1 or shut down",
                un.throttle_events > 0 || un.shut_down,
            ),
            // Coordination prevents emergencies on the same node.
            Claim::new(
                "coordinated straggler emergencies",
                emergencies(co),
                "0",
                co.throttle_events == 0 && !co.shut_down,
            ),
            // Coordination runs the straggler materially cooler.
            Claim::new(
                "straggler max temp, coordinated vs unmanaged",
                format!("{:.1} vs {:.1} °C", co.temp_summary.max, un.temp_summary.max),
                "coordinated ≤ unmanaged − 3 °C",
                co.temp_summary.max <= un.temp_summary.max - 3.0,
            ),
            Claim::completed([&self.coordinated]),
            Claim::new(
                "exec time, coordinated / unmanaged",
                format!("{penalty:.3}"),
                "≤ 1.15 when both complete",
                !both_completed || penalty <= 1.15,
            ),
            Claim::new(
                "healthy nodes that hit the throttle, both arms",
                healthy_emergencies.to_string(),
                "0",
                healthy_emergencies == 0,
            ),
        ]
    }

    fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = CsvWriter::new();
        let (un, co) = (&self.unmanaged.nodes[STRAGGLER], &self.coordinated.nodes[STRAGGLER]);
        w.add(renamed(&un.temp, "straggler_temp_unmanaged"));
        w.add(renamed(&co.temp, "straggler_temp_coordinated"));
        w.add(renamed(&un.freq, "straggler_freq_unmanaged"));
        w.add(renamed(&co.freq, "straggler_freq_coordinated"));
        let mut exec = TimeSeries::new("exec_time", "s");
        exec.push(0.0, self.unmanaged.exec_time_s);
        exec.push(1.0, self.coordinated.exec_time_s);
        w.add(exec);
        w.write_to_file(dir.join("straggler.csv"))
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
    fn straggler_runs_hotter_than_peers() {
        let r = run(Scale::Fast);
        let straggler_max = r.coordinated.nodes[STRAGGLER].temp_summary.max;
        for (i, n) in r.coordinated.nodes.iter().enumerate() {
            if i != STRAGGLER {
                assert!(
                    n.temp_summary.max < straggler_max,
                    "node {i} max {:.1} vs straggler {:.1}",
                    n.temp_summary.max,
                    straggler_max
                );
            }
        }
    }
}
