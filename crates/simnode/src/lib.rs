#![warn(missing_docs)]

//! Physics substrate for the unitherm reproduction.
//!
//! The ICPP 2010 paper evaluates its thermal-control framework on a real
//! 4-node cluster: AMD Athlon64 4000+ processors with 5 DVFS P-states, a
//! user-controllable 4300-RPM CPU fan behind an Analog Devices ADT7467
//! "dBCool" fan controller on an i2c bus, on-die digital thermal sensors read
//! through lm-sensors at 4 Hz, and a "Watts up? Pro ES" wall-power meter.
//!
//! None of that hardware is available here, so this crate implements the
//! closest faithful simulation of each device (see `DESIGN.md` §2 for the
//! substitution table):
//!
//! * [`thermal`] — a two-node lumped RC network (die + heatsink) whose
//!   heatsink-to-ambient conductance depends on fan airflow,
//! * [`cpu`] — a DVFS-capable CPU with the paper's five P-states and a
//!   leakage + dynamic power model,
//! * [`fan`] — a PWM fan with first-order spin-up lag and cubic power draw,
//! * [`adt7467`] — a register-level model of the ADT7467 fan controller,
//!   including its automatic Tmin/Tmax/PWMmin control curve (the paper's
//!   "traditional static fan control", Figure 1),
//! * [`i2c`] — an SMBus/i2c bus emulation the ADT7467 model sits behind,
//! * [`sensor`] — a quantizing, noisy digital thermal sensor,
//! * [`power`] — a sampling wall-power meter,
//! * [`batch`] — structure-of-arrays lanes, the one home of every node's
//!   plant state, ticked stage by stage for 100k-node fleets,
//! * [`node`] — the assembled server node: its cold parts plus a batch
//!   slot, reached through one view,
//! * [`faults`] — fault injection (fan failure, sensor dropout, ambient steps).
//!
//! Everything is deterministic given the seed in [`config::NodeConfig`].

pub mod adt7467;
pub mod batch;
pub mod config;
pub mod cpu;
pub mod fan;
pub mod faults;
pub mod i2c;
pub mod node;
pub mod power;
pub mod sensor;
pub mod thermal;
pub mod units;

pub use batch::PhysicsBatch;
pub use config::NodeConfig;
pub use node::{Node, NodeState, NodeView};
pub use units::{DutyCycle, MilliCelsius, PState};
