#![warn(missing_docs)]

//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§4), plus the ablations listed in `DESIGN.md` §5.
//!
//! Each `figN` / `table1` module exposes `run(scale)`, which executes the
//! experiment deterministically and returns a structured result. Every
//! result implements [`Experiment`]:
//!
//! * `figure()` — the ASCII plot or result table, in the paper's
//!   presentation;
//! * `claims()` — every quantity the experiment checks, computed once, as
//!   [`Claim`] rows: the paper's value where the paper gives one, the
//!   measured value, the criterion with its tolerance and the verdict.
//!   Per the reproduction contract the criteria test the paper's *shape*
//!   (who wins, orderings, crossovers); absolute numbers are not expected
//!   to match the authors' testbed, and the rows show both;
//! * `render()` (provided) — the figure followed by the claims table;
//! * `shape_violations()` (provided) — the failing rows, one line each.
//!   An empty list means the reproduced result has the paper's shape;
//! * `write_csv(dir)` — raw traces for external re-plotting.
//!
//! The measured tables of `EXPERIMENTS.md` are [`claims_markdown`] of each
//! experiment at [`Scale::Full`]; `tests/experiment_shapes.rs` checks them
//! and rewrites them under `UNITHERM_UPDATE_GOLDEN=1`.
//!
//! [`scale::Scale`] switches between `Full` (paper-sized runs: NPB class B,
//! five-minute burns) and `Fast` (class A, shorter burns) so the same code
//! serves the `repro` binary, the integration tests and the benchmark.

pub mod ablations;
pub mod fig1;
pub mod fig10;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod rack;
pub mod scale;
pub mod scaling;
pub mod scenario_file;
pub mod straggler;
pub mod table1;

pub use scale::Scale;

use unitherm_cluster::RunReport;
use unitherm_metrics::{TextTable, TimeSeries};

/// One checked quantity of an experiment, reported against the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is measured (e.g. `"avg duty P25 / P50 / P75"`).
    pub quantity: String,
    /// The paper's value, where the paper gives one.
    pub paper: Option<String>,
    /// The reproduced value.
    pub measured: String,
    /// What the measured value must satisfy, tolerance included.
    pub criterion: String,
    /// Whether it does.
    pub holds: bool,
}

impl Claim {
    /// A row: `holds` is `criterion` evaluated on the measured value.
    pub fn new(
        quantity: impl Into<String>,
        measured: impl Into<String>,
        criterion: impl Into<String>,
        holds: bool,
    ) -> Self {
        Self {
            quantity: quantity.into(),
            paper: None,
            measured: measured.into(),
            criterion: criterion.into(),
            holds,
        }
    }

    /// Attaches the paper's value.
    pub fn paper(mut self, value: impl Into<String>) -> Self {
        self.paper = Some(value.into());
        self
    }

    /// The claim that every one of `reports` ran to completion.
    pub fn completed<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> Self {
        let runs: Vec<bool> = reports.into_iter().map(|r| r.completed).collect();
        let done = runs.iter().filter(|c| **c).count();
        Self::new("runs completed", format!("{done} / {}", runs.len()), "all", done == runs.len())
    }

    fn cells(&self) -> [&str; 5] {
        let verdict = if self.holds { "✓" } else { "✗" };
        [
            &self.quantity,
            self.paper.as_deref().unwrap_or("—"),
            &self.measured,
            &self.criterion,
            verdict,
        ]
    }
}

impl std::fmt::Display for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: measured {}, want {}", self.quantity, self.measured, self.criterion)
    }
}

const CLAIM_COLUMNS: [&str; 5] = ["quantity", "paper", "measured", "criterion", "ok"];

/// `series` under another name (a plot legend or CSV column).
fn renamed(series: &TimeSeries, name: impl Into<String>) -> TimeSeries {
    let mut renamed = series.clone();
    renamed.name = name.into();
    renamed
}

/// The claims as a terminal table: the closing block of every `render()`.
fn claims_table(claims: &[Claim]) -> String {
    let mut t = TextTable::new("claims (paper vs measured)", &CLAIM_COLUMNS);
    for c in claims {
        t.row(&c.cells().map(String::from));
    }
    t.render()
}

/// The claims as a markdown table: the generated blocks of `EXPERIMENTS.md`.
pub fn claims_markdown(claims: &[Claim]) -> String {
    let mut out = format!("| {} |\n|{}\n", CLAIM_COLUMNS.join(" | "), "---|".repeat(5));
    for c in claims {
        let cells = c.cells().map(|cell| cell.replace('|', "\\|"));
        out.push_str(&format!("| {} |\n", cells.join(" | ")));
    }
    out
}

/// Everything an experiment result can do, for uniform driving from the
/// `repro` binary, the tests and the benchmark.
pub trait Experiment {
    /// Experiment identifier (e.g. `"fig5"`).
    fn id(&self) -> &'static str;
    /// The ASCII plot or result table, without the claims.
    fn figure(&self) -> String;
    /// Every checked quantity, computed once.
    fn claims(&self) -> Vec<Claim>;
    /// Writes raw traces as CSV under `dir`.
    fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<()>;

    /// Terminal rendering: the figure, then the claims table.
    fn render(&self) -> String {
        self.figure() + &claims_table(&self.claims())
    }

    /// The failing claims, one line each (empty = the reproduction has the
    /// paper's shape).
    fn shape_violations(&self) -> Vec<String> {
        self.claims().iter().filter(|c| !c.holds).map(Claim::to_string).collect()
    }
}

/// Runs one experiment at a scale.
pub type Runner = fn(Scale) -> Box<dyn Experiment>;

/// Every experiment, by id, in the order `repro all` runs them.
pub const EXPERIMENTS: &[(&str, Runner)] = &[
    ("fig1", |s| Box::new(fig1::run(s))),
    ("fig2", |s| Box::new(fig2::run(s))),
    ("fig5", |s| Box::new(fig5::run(s))),
    ("fig6", |s| Box::new(fig6::run(s))),
    ("fig7", |s| Box::new(fig7::run(s))),
    ("fig8", |s| Box::new(fig8::run(s))),
    ("fig9", |s| Box::new(fig9::run(s))),
    ("fig10", |s| Box::new(fig10::run(s))),
    ("table1", |s| Box::new(table1::run(s))),
    ("ablate-window", |s| Box::new(ablations::window_levels(s))),
    ("ablate-l1size", |s| Box::new(ablations::l1_size(s))),
    ("ablate-fill", |s| Box::new(ablations::fill_rule(s))),
    ("ablate-hybrid", |s| Box::new(ablations::hybrid_isolation(s))),
    ("ablate-hysteresis", |s| Box::new(ablations::tdvfs_hysteresis(s))),
    ("feedforward", |s| Box::new(ablations::feedforward(s))),
    ("rack", |s| Box::new(rack::run(s))),
    ("straggler", |s| Box::new(straggler::run(s))),
    ("scaling", |s| Box::new(scaling::run(s))),
];
