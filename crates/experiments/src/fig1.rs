//! Figure 1: the traditional static fan curve (temperature → PWM duty).
//!
//! The paper's Figure 1 is the ADT7467 automatic control map: duty pinned at
//! `PWMmin` up to `Tmin`, rising linearly to full speed at `Tmax`. We
//! regenerate it two ways and check they agree: by evaluating the software
//! [`StaticFanCurve`] and by sweeping the simulated chip's automatic mode
//! through the same temperatures over the i2c register interface.

use std::path::Path;

use unitherm_core::baseline::StaticFanCurve;
use unitherm_metrics::{AsciiPlot, CsvWriter, TimeSeries};
use unitherm_simnode::{Node, NodeConfig};

use crate::{Claim, Experiment, Scale};

/// Figure 1 result: the curve sampled from both implementations.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Temperature sweep (x-axis), °C.
    pub temps_c: Vec<f64>,
    /// Duty from the software curve, percent.
    pub software_duty: Vec<u8>,
    /// Duty from the simulated chip's automatic mode, percent.
    pub chip_duty: Vec<u8>,
    /// The curve parameters (paper: PWMmin = 10 %, Tmin = 38, Tmax = 82).
    pub curve: StaticFanCurve,
}

/// Regenerates Figure 1 (scale-independent; the sweep is analytic).
pub fn run(_scale: Scale) -> Fig1Result {
    let curve = StaticFanCurve::default();
    let mut node = Node::new(NodeConfig::default(), 0);
    let mut plant = node.view();
    let mut chip = plant.chip();
    let temps_c: Vec<f64> = (200..=1000).map(|t| f64::from(t) / 10.0).collect();
    let software_duty = temps_c.iter().map(|&t| curve.duty_for(t)).collect();
    let chip_duty = temps_c
        .iter()
        .map(|&t| {
            chip.set_measured_temp_c(t);
            chip.commanded_duty().percent()
        })
        .collect();
    Fig1Result { temps_c, software_duty, chip_duty, curve }
}

impl Fig1Result {
    fn duty_series(&self, name: &str, duties: &[u8]) -> TimeSeries {
        // Abuse the time axis as the temperature axis for plotting/CSV.
        let mut s = TimeSeries::new(name, "%");
        for (t, d) in self.temps_c.iter().zip(duties) {
            s.push(*t, f64::from(*d));
        }
        s
    }
}

impl Experiment for Fig1Result {
    fn id(&self) -> &'static str {
        "fig1"
    }

    fn figure(&self) -> String {
        let mut out = String::from(
            "Figure 1: traditional static fan control map (PWM duty vs temperature)\n",
        );
        out.push_str(&format!(
            "  PWMmin={}%  Tmin={}°C  Tmax={}°C  (x-axis is °C, not seconds)\n",
            self.curve.pwm_min, self.curve.t_min_c, self.curve.t_max_c
        ));
        let plot = AsciiPlot::new("")
            .size(72, 16)
            .add(&self.duty_series("static curve", &self.software_duty));
        out.push_str(&plot.render());
        out
    }

    fn claims(&self) -> Vec<Claim> {
        let c = &self.curve;
        // Pinned at `duty` over a temperature region: the first sample off
        // it, if any.
        let pinned = |region: String, duty: u8, inside: &dyn Fn(f64) -> bool| {
            let mut samples = self.temps_c.iter().zip(&self.software_duty);
            let off = samples.find(|(t, d)| inside(**t) && **d != duty);
            let measured =
                off.map_or(format!("{duty} % throughout"), |(t, d)| format!("{d} % at {t} °C"));
            Claim::new(format!("duty {region}"), measured, format!("= {duty} %"), off.is_none())
        };
        let drops = self.software_duty.windows(2).filter(|w| w[1] < w[0]).count();
        // The chip's automatic mode implements the same map (±1 % for the
        // 0–255 register quantization).
        let max_dev = self
            .software_duty
            .iter()
            .zip(&self.chip_duty)
            .map(|(a, b)| (i16::from(*a) - i16::from(*b)).unsigned_abs())
            .max()
            .unwrap_or(0);
        vec![
            pinned(format!("at or below Tmin = {} °C", c.t_min_c), c.pwm_min, &|t| t <= c.t_min_c)
                .paper("PWMmin = 10 %"),
            pinned(format!("at or above Tmax = {} °C", c.t_max_c), c.pwm_max, &|t| t >= c.t_max_c)
                .paper("100 %"),
            Claim::new(
                "decreasing steps in the software curve",
                drops.to_string(),
                "0",
                drops == 0,
            )
            .paper("linear in between"),
            Claim::new(
                "chip vs software curve, max deviation",
                format!("{max_dev} %"),
                "≤ 1 %",
                max_dev <= 1,
            ),
        ]
    }

    fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = CsvWriter::new();
        w.add(self.duty_series("software_duty", &self.software_duty));
        w.add(self.duty_series("chip_duty", &self.chip_duty));
        w.write_to_file(dir.join("fig1.csv"))
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
    fn render_mentions_parameters() {
        let r = run(Scale::Fast);
        let s = r.render();
        assert!(s.contains("PWMmin=10%"));
        assert!(s.contains("38"));
        assert!(s.contains("82"));
    }

    #[test]
    fn midpoint() {
        // The midpoint duty the paper's parameters imply: 10 + 90·(60−38)/44 = 55.
        assert_eq!(StaticFanCurve::default().duty_for(60.0), 55);
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join("unitherm_fig1");
        run(Scale::Fast).write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("fig1.csv")).unwrap();
        assert!(content.contains("software_duty"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
