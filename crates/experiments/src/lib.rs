#![warn(missing_docs)]

//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§4), plus the ablations listed in `DESIGN.md` §5.
//!
//! Each `figN` / `table1` module exposes:
//!
//! * `run(scale)` — executes the experiment deterministically and returns a
//!   structured result;
//! * `Result::render()` — a terminal rendering (ASCII plot / text table)
//!   matching the paper's presentation;
//! * `Result::shape_violations()` — the experiment's *shape acceptance
//!   criteria* (who wins, orderings, crossovers — per the reproduction
//!   contract, absolute numbers are not expected to match the authors'
//!   testbed). An empty list means the reproduced result has the paper's
//!   shape. Integration tests assert emptiness;
//! * `Result::write_csv(dir)` — raw traces for external re-plotting.
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

/// Everything an experiment result can do, for uniform driving from the
/// `repro` binary.
pub trait Experiment {
    /// Experiment identifier (e.g. `"fig5"`).
    fn id(&self) -> &'static str;
    /// Terminal rendering.
    fn render(&self) -> String;
    /// Violated shape criteria (empty = reproduction has the paper's shape).
    fn shape_violations(&self) -> Vec<String>;
    /// Writes raw traces as CSV under `dir`.
    fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<()>;
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
