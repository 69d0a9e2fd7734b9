//! Rack hot-pocket study (extension): the paper's motivating scenario made
//! concrete.
//!
//! The introduction motivates the whole work with hot spots that form "when
//! room air circulation is not effective". Here four BT ranks share a
//! poorly ventilated rack (node exhaust recirculates into the intake air)
//! and we compare traditional static fan control against the coordinated
//! fan + tDVFS controller. The coupled ambient means every node's operating
//! point climbs as the run proceeds — the regime where coordination matters
//! most.

use std::path::Path;

use unitherm_cluster::rack::RackConfig;
use unitherm_cluster::{
    run_scenarios_parallel, DvfsScheme, FanScheme, RunReport, Scenario, WorkloadSpec,
};
use unitherm_core::baseline::StaticFanCurve;
use unitherm_core::control_array::Policy;
use unitherm_metrics::{AsciiPlot, CsvWriter};
use unitherm_workload::NpbBenchmark;

use crate::{renamed, Claim, Experiment, Scale};

/// Rack-study result.
#[derive(Debug, Clone)]
pub struct RackStudy {
    /// Traditional static fan control in the hot rack.
    pub traditional: RunReport,
    /// Coordinated (dynamic fan + tDVFS) control in the same rack.
    pub coordinated: RunReport,
}

/// Runs the rack hot-pocket study.
pub fn run(scale: Scale) -> RackStudy {
    let wl = WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: scale.npb_class() };
    let rack = RackConfig::poor_circulation();
    let scenarios = vec![
        Scenario::new("rack-traditional")
            .with_nodes(4)
            .with_seed(0x4ACC)
            .with_workload(wl.clone())
            .with_fan(FanScheme::SoftwareStatic { curve: StaticFanCurve::with_max(75) })
            .with_rack(rack)
            .with_max_time(scale.npb_time_limit_s()),
        Scenario::new("rack-coordinated")
            .with_nodes(4)
            .with_seed(0x4ACC)
            .with_workload(wl)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 75))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_rack(rack)
            .with_max_time(scale.npb_time_limit_s()),
    ];
    let mut reports = run_scenarios_parallel(scenarios, 2);
    let coordinated = reports.pop().expect("two runs");
    let traditional = reports.pop().expect("two runs");
    RackStudy { traditional, coordinated }
}

impl RackStudy {
    /// Rack-air rise over the run for a report, °C.
    fn air_rise(r: &RunReport) -> f64 {
        let air = r.rack_air.as_ref().expect("rack coupling enabled");
        air.summary().max - air.first().map(|s| s.value).unwrap_or(0.0)
    }
}

impl Experiment for RackStudy {
    fn id(&self) -> &'static str {
        "rack"
    }

    fn figure(&self) -> String {
        let mut out = String::from(
            "Rack hot-pocket study: BT ×4 in a poorly ventilated rack (recirculating air)\n",
        );
        let mut air_plot = AsciiPlot::new("  rack intake-air temperature (°C)").size(72, 10);
        for (name, r) in [("traditional", &self.traditional), ("coordinated", &self.coordinated)] {
            air_plot = air_plot.add(&renamed(r.rack_air.as_ref().expect("rack air"), name));
        }
        out.push_str(&air_plot.render());
        out
    }

    fn claims(&self) -> Vec<Claim> {
        let (trad, coord) = (&self.traditional, &self.coordinated);
        let (trad_rise, coord_rise) = (Self::air_rise(trad), Self::air_rise(coord));
        let (trad_max, coord_max) = (trad.max_temp_c(), coord.max_temp_c());
        let emergencies = coord.total_throttle_events();
        vec![
            Claim::completed([trad, coord]),
            // The hot pocket is real: intake air rises materially under load.
            Claim::new(
                "rack air rise, traditional",
                format!("{trad_rise:.2} °C"),
                "≥ 2 °C",
                trad_rise >= 2.0,
            ),
            // Coordination keeps the hottest die cooler than traditional
            // control in the same rack.
            Claim::new(
                "hottest die, coordinated vs traditional",
                format!("{coord_max:.2} vs {trad_max:.2} °C"),
                "coordinated < traditional",
                coord_max < trad_max,
            ),
            // And keeps the rack air itself no hotter (cooler dies exhaust
            // less leaked heat; DVFS reduces total dissipation).
            Claim::new(
                "rack air rise, coordinated vs traditional",
                format!("{coord_rise:.2} vs {trad_rise:.2} °C"),
                "coordinated ≤ traditional + 0.2 °C",
                coord_rise <= trad_rise + 0.2,
            ),
            Claim::new(
                "hardware emergencies, coordinated",
                emergencies.to_string(),
                "0",
                emergencies == 0,
            ),
        ]
    }

    fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = CsvWriter::new();
        for (name, r) in [("traditional", &self.traditional), ("coordinated", &self.coordinated)] {
            w.add(renamed(r.rack_air.as_ref().expect("rack air"), format!("air_{name}")));
        }
        w.add(renamed(&self.traditional.nodes[0].temp, "temp_traditional"));
        w.add(renamed(&self.coordinated.nodes[0].temp, "temp_coordinated"));
        w.write_to_file(dir.join("rack.csv"))
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
    fn rack_air_recorded_for_both_arms() {
        let r = run(Scale::Fast);
        assert!(r.traditional.rack_air.is_some());
        assert!(r.coordinated.rack_air.is_some());
        assert!(!r.traditional.rack_air.as_ref().unwrap().is_empty());
    }
}
