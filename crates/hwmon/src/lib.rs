#![warn(missing_docs)]

//! The driver layer: lm-sensors / sysfs-style bindings from the unitherm
//! controllers to the simulated platform.
//!
//! On the paper's cluster the control stack is:
//!
//! ```text
//!   controller daemon ──sysfs──► cpufreq driver      (in-band, DVFS)
//!   controller daemon ──lm-sensors──► on-die DTS      (temperature @ 4 Hz)
//!   fan driver ──i2c──► ADT7467 PWM registers         (out-of-band, fan)
//! ```
//!
//! This crate reproduces each seam against `unitherm-simnode`:
//!
//! * [`fan_driver`] — the paper's custom Linux fan driver: probes the
//!   ADT7467 by device ID over i2c, switches it to manual mode, and writes
//!   duty-cycle registers;
//! * [`cpufreq`] — the cpufreq `scaling_setspeed` interface in kHz;
//! * [`lm_sensors`] — quantized millidegree temperature reads;
//! * [`sysfs`] — a string-attribute façade (`hwmon0/temp1_input`,
//!   `hwmon0/pwm1`, `cpufreq/scaling_setspeed`, …) with Linux unit
//!   conventions (millidegrees, 0–255 PWM, kHz), for tooling and tests;
//! * [`binding`] — the platform binding: probes the hardware seams a
//!   `SchemeSpec` needs and adapts them to the control plane's
//!   hardware-agnostic `Actuators` trait (the cluster's `NodeSim` is the
//!   one host that drives a `ControlPlane` through it);
//! * [`error`] — the unified driver error type.
//!
//! Controllers never touch simulator internals: everything flows through
//! the same register transactions and unit conversions a real driver would
//! perform.

pub mod binding;
pub mod cpufreq;
pub mod error;
pub mod fan_driver;
pub mod lm_sensors;
pub mod sysfs;

pub use binding::{PlatformActuators, PlatformBinding};
pub use cpufreq::CpufreqDriver;
pub use error::HwmonError;
pub use fan_driver::FanDriver;
pub use lm_sensors::LmSensors;
pub use sysfs::SysfsTree;
