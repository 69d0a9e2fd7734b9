#![warn(missing_docs)]

//! Unified in-band and out-of-band dynamic thermal control.
//!
//! This crate implements the contribution of *Li, Ge, Cameron — "System-level,
//! Unified In-band and Out-of-band Dynamic Thermal Control", ICPP 2010*:
//!
//! * [`window`] — the two-level, history-based temperature window (§3.2.1):
//!   a small level-one array that reacts to *sudden* changes while averaging
//!   out *jitter*, feeding a level-two FIFO of averages that tracks *gradual*
//!   trends;
//! * [`control_array`] — the thermal control array (§3.2.2): a unified,
//!   effectiveness-ordered array of modes per technique, filled from a single
//!   user policy parameter `P_p ∈ [1, 100]` via the paper's Eq. (1);
//! * [`controller`] — the mode-index update rule `i' = i + c·Δt` with
//!   `c = (N−1)/(t_max − t_min)`, level-1 delta first and level-2 as the
//!   fallback;
//! * [`classify`] — the §3.1 workload thermal-behaviour taxonomy (sudden /
//!   gradual / jitter);
//! * [`tdvfs`] — the threshold-triggered in-band tDVFS daemon (§4.3);
//! * [`governor`] — the CPUSPEED utilization governor the paper compares
//!   against;
//! * [`baseline`] — traditional static fan-curve control (Figure 1);
//! * [`acpi`] — ACPI sleep states as a third control technique, showing the
//!   control array generalizes beyond fans and DVFS (§3.2.2 mentions sleep
//!   states explicitly);
//! * [`feedforward`] — the paper's §5 future work implemented: hardware-
//!   counter (utilization) feedforward that pre-positions the fan before a
//!   load step reaches the temperature sensor;
//! * [`failsafe`] — a production watchdog that forces maximum cooling when
//!   the sensor path goes dark or a reading crosses the panic line;
//! * [`control_plane`] — the unified daemon pipeline: every technique above
//!   wrapped as a [`control_plane::ControlDaemon`], ordered per §4.4's
//!   coordination and supervised by the failsafe, built from a serializable
//!   [`control_plane::SchemeSpec`] by its single `build()` factory. One
//!   daemon, [`control_plane::UnifiedDaemon`], runs the [`controller`] over
//!   either mode set the paper's array holds besides frequencies: the
//!   dynamic out-of-band fan duties (§4.2, ± [`feedforward`]) and the ACPI
//!   sleep states. The §4.4 hybrid — one `P_p` shared by the fan controller
//!   and tDVFS, fan first — is `SchemeSpec::hybrid`;
//! * [`config`] — configuration validation: the error type, and the rule
//!   tables every config type a scenario file carries declares and walks.
//!
//! The crate is hardware-agnostic: controllers consume temperature samples
//! and emit mode decisions over the [`actuator`] mode sets, which the daemons
//! apply through the [`control_plane::Actuators`] trait. Bindings to the
//! simulated platform live in `unitherm-hwmon`; nothing here depends on the
//! simulator.

pub mod acpi;
pub mod actuator;
pub mod baseline;
pub mod classify;
pub mod config;
pub mod control_array;
pub mod control_plane;
pub mod controller;
pub mod failsafe;
pub mod feedforward;
pub mod governor;
pub mod tdvfs;
pub mod window;

pub use actuator::{FanDuty, FreqMhz};
pub use classify::{BehaviorClassifier, ThermalBehavior};
pub use config::ConfigError;
pub use control_array::{Policy, PolicyError, ThermalControlArray};
pub use control_plane::{
    Actuators, BuildContext, ControlDaemon, ControlPlane, DvfsScheme, FanBinding, FanScheme,
    SchemeSpec, SensorSample,
};
pub use controller::{ControllerConfig, Decision, DecisionLevel, UnifiedController};
pub use failsafe::{Failsafe, FailsafeAction, FailsafeConfig, FailsafeReason};
pub use feedforward::{FeedforwardConfig, FeedforwardFanController, UtilizationFeedforward};
pub use governor::{CpuSpeedConfig, CpuSpeedGovernor};
pub use tdvfs::{Tdvfs, TdvfsConfig, TdvfsEvent};
pub use window::{TwoLevelWindow, WindowConfig, WindowUpdate};
