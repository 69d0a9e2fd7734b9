#![warn(missing_docs)]

//! Time-series capture, summary statistics, CSV export and ASCII plotting.
//!
//! Every experiment in the reproduction produces one or more [`TimeSeries`]
//! (temperature, PWM duty, power, frequency, …). This crate provides the
//! shared plumbing for recording those series, reducing them to the summary
//! statistics the paper reports (averages, stabilization times, power-delay
//! products) and rendering them as CSV files or quick terminal plots.
//!
//! The crate is deliberately dependency-light (only `serde` for optional
//! serialization) so that every other crate in the workspace can depend on it
//! without pulling in simulation machinery.

pub mod csv;
pub mod plot;
pub mod series;
pub mod stats;
pub mod table;

pub use csv::CsvWriter;
pub use plot::AsciiPlot;
pub use series::{Sample, TimeSeries};
pub use stats::{RunningStats, Summary};
pub use table::TextTable;
