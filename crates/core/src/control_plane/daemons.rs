//! The concrete control daemons the scheme factory assembles.
//!
//! Each daemon wraps one of the policy controllers from this crate and
//! adapts it to the [`ControlDaemon`] pipeline shape: sampling cadence,
//! attach/reapply paths, and actuation through the [`Actuators`] trait.

use super::{window_level, Actuators, ControlDaemon, DaemonEvent, SensorSample};
use crate::acpi::{sleep_state_controller, SleepState, SleepStateController};
use crate::actuator::{FanDuty, FreqMhz};
use crate::baseline::StaticFanCurve;
use crate::control_array::Policy;
use crate::controller::ControllerConfig;
use crate::fan_control::DynamicFanController;
use crate::feedforward::{FeedforwardConfig, FeedforwardFanController};
use crate::governor::{CpuSpeedConfig, CpuSpeedGovernor};
use crate::tdvfs::{Tdvfs, TdvfsConfig};
use unitherm_obs::{ActuatorKind, CrossDirection, Event, Observer, WindowLevel};

/// Traditional chip-automatic fan control (paper §2): the ADT7467's own
/// thermal curve runs the fan; software only caps the maximum duty at
/// probe time and otherwise stays out of the way.
#[derive(Debug, Default)]
pub struct ChipAutoFan;

impl ChipAutoFan {
    /// Creates the daemon (the platform binding applies the duty cap).
    pub fn new() -> Self {
        Self
    }
}

impl ControlDaemon for ChipAutoFan {
    fn label(&self) -> String {
        "chip-auto-fan".to_string()
    }

    fn on_sample(
        &mut self,
        _sample: &SensorSample,
        _act: &mut dyn Actuators,
        _obs: &mut Observer<'_>,
    ) -> DaemonEvent {
        DaemonEvent::None
    }

    fn reapply(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.restore_fan_auto();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Software reimplementation of the chip's static linear curve (baseline
/// for the paper's comparisons): every sample maps temperature straight to
/// a duty, no history.
#[derive(Debug)]
pub struct StaticCurveFan {
    curve: StaticFanCurve,
}

impl StaticCurveFan {
    /// Creates the daemon around a static curve.
    pub fn new(curve: StaticFanCurve) -> Self {
        Self { curve }
    }
}

impl ControlDaemon for StaticCurveFan {
    fn label(&self) -> String {
        "static-curve-fan".to_string()
    }

    fn attach(&mut self, sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_fan_duty(self.curve.duty_for(sample.die_temp_c));
    }

    fn on_sample(
        &mut self,
        sample: &SensorSample,
        act: &mut dyn Actuators,
        _obs: &mut Observer<'_>,
    ) -> DaemonEvent {
        let Some(t) = sample.temp_c else {
            return DaemonEvent::None;
        };
        let duty = self.curve.duty_for(t);
        if duty != act.last_commanded_duty() && act.set_fan_duty(duty) {
            return DaemonEvent::FanDuty(duty);
        }
        DaemonEvent::None
    }

    fn reapply(&mut self, sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_fan_duty(self.curve.duty_for(sample.die_temp_c));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A fan pinned at one duty (the paper's fixed-speed baseline).
#[derive(Debug)]
pub struct ConstantFanDaemon {
    duty: FanDuty,
}

impl ConstantFanDaemon {
    /// Creates the daemon; the duty is clamped to `[1, 100]`.
    pub fn new(duty: FanDuty) -> Self {
        Self { duty: duty.clamp(1, 100) }
    }
}

impl ControlDaemon for ConstantFanDaemon {
    fn label(&self) -> String {
        "constant-fan".to_string()
    }

    fn attach(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_fan_duty(self.duty);
    }

    fn on_sample(
        &mut self,
        _sample: &SensorSample,
        _act: &mut dyn Actuators,
        _obs: &mut Observer<'_>,
    ) -> DaemonEvent {
        DaemonEvent::None
    }

    fn reapply(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_fan_duty(self.duty);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The paper's dynamic fan daemon (§4.2): the two-level history window
/// drives the mode index over the discretized duty set.
#[derive(Debug)]
pub struct DynamicFan {
    ctl: DynamicFanController,
    cfg: ControllerConfig,
}

impl DynamicFan {
    /// Creates the daemon.
    pub fn new(policy: Policy, max_duty: FanDuty, cfg: ControllerConfig) -> Self {
        Self { ctl: DynamicFanController::new(policy, max_duty, cfg), cfg }
    }
}

impl ControlDaemon for DynamicFan {
    fn label(&self) -> String {
        "dynamic-fan".to_string()
    }

    fn attach(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_fan_duty(self.ctl.current_duty());
    }

    fn on_sample(
        &mut self,
        sample: &SensorSample,
        act: &mut dyn Actuators,
        obs: &mut Observer<'_>,
    ) -> DaemonEvent {
        let Some(t) = sample.temp_c else {
            return DaemonEvent::None;
        };
        let from = self.ctl.current_duty();
        if let Some(decision) = self.ctl.observe(t) {
            if act.set_fan_duty(decision.mode) {
                let saturated = decision.index == 1 || decision.index == self.cfg.array_len;
                obs.mode_change(
                    ActuatorKind::Fan,
                    u32::from(from),
                    u32::from(decision.mode),
                    window_level(decision.level),
                    saturated,
                );
                return DaemonEvent::FanDuty(decision.mode);
            }
        }
        DaemonEvent::None
    }

    fn reapply(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_fan_duty(self.ctl.current_duty());
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The dynamic fan daemon augmented with utilization feedforward (the
/// paper's §5 future-work prediction path).
#[derive(Debug)]
pub struct FeedforwardFan {
    ctl: FeedforwardFanController,
    cfg: ControllerConfig,
}

impl FeedforwardFan {
    /// Creates the daemon.
    pub fn new(
        policy: Policy,
        max_duty: FanDuty,
        cfg: ControllerConfig,
        ff_cfg: FeedforwardConfig,
    ) -> Self {
        Self { ctl: FeedforwardFanController::new(policy, max_duty, cfg, ff_cfg), cfg }
    }
}

impl ControlDaemon for FeedforwardFan {
    fn label(&self) -> String {
        "feedforward-fan".to_string()
    }

    fn attach(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_fan_duty(self.ctl.current_duty());
    }

    fn on_sample(
        &mut self,
        sample: &SensorSample,
        act: &mut dyn Actuators,
        obs: &mut Observer<'_>,
    ) -> DaemonEvent {
        let Some(t) = sample.temp_c else {
            return DaemonEvent::None;
        };
        let from = self.ctl.current_duty();
        if let Some(decision) = self.ctl.observe(t, sample.utilization) {
            if act.set_fan_duty(decision.mode) {
                let saturated = decision.index == 1 || decision.index == self.cfg.array_len;
                obs.mode_change(
                    ActuatorKind::Fan,
                    u32::from(from),
                    u32::from(decision.mode),
                    window_level(decision.level),
                    saturated,
                );
                if decision.level == crate::controller::DecisionLevel::Feedforward {
                    obs.emit(Event::PredictionSample {
                        utilization: sample.utilization,
                        predicted_delta_c: decision.delta_c,
                    });
                }
                return DaemonEvent::FanDuty(decision.mode);
            }
        }
        DaemonEvent::None
    }

    fn reapply(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_fan_duty(self.ctl.current_duty());
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The temperature-driven DVFS daemon (paper §4.3): scales the CPU down
/// when the threshold is breached for consecutive rounds, restores after a
/// cool settle period.
#[derive(Debug)]
pub struct TdvfsDaemon {
    tdvfs: Tdvfs,
    cfg: TdvfsConfig,
    /// Last observed side of the trigger threshold (None before the first
    /// temperature sample), for threshold-cross event edges.
    last_above: Option<bool>,
}

impl TdvfsDaemon {
    /// Creates the daemon over the platform's available frequencies
    /// (descending MHz).
    pub fn new(frequencies_desc_mhz: &[FreqMhz], policy: Policy, cfg: TdvfsConfig) -> Self {
        Self { tdvfs: Tdvfs::new(frequencies_desc_mhz, policy, cfg), cfg, last_above: None }
    }
}

impl ControlDaemon for TdvfsDaemon {
    fn label(&self) -> String {
        "tdvfs".to_string()
    }

    fn on_sample(
        &mut self,
        sample: &SensorSample,
        act: &mut dyn Actuators,
        obs: &mut Observer<'_>,
    ) -> DaemonEvent {
        let Some(t) = sample.temp_c else {
            return DaemonEvent::None;
        };
        let above = t > self.cfg.threshold_c;
        if self.last_above.is_some_and(|was| was != above) {
            obs.emit(Event::ThresholdCross {
                threshold_c: self.cfg.threshold_c,
                temp_c: t,
                direction: if above { CrossDirection::Above } else { CrossDirection::Below },
            });
        }
        self.last_above = Some(above);

        let from = self.tdvfs.current_frequency_mhz();
        if let Some(event) = self.tdvfs.observe(t) {
            let mhz = event.frequency_mhz();
            if act.set_frequency_mhz(mhz) {
                match event {
                    crate::tdvfs::TdvfsEvent::ScaleDown(_) => obs.tdvfs_engage(from, mhz),
                    crate::tdvfs::TdvfsEvent::Restore(_) => obs.tdvfs_release(mhz),
                }
                return DaemonEvent::Frequency(mhz);
            }
        }
        DaemonEvent::None
    }

    fn reapply(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.restore_frequency_mhz(self.tdvfs.current_frequency_mhz());
    }

    fn controls_frequency(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The CPUSPEED utilization governor daemon (paper §3.2.2): runs on the
/// physics-tick path because it watches utilization, not temperature.
#[derive(Debug)]
pub struct CpuSpeedDaemon {
    gov: CpuSpeedGovernor,
}

impl CpuSpeedDaemon {
    /// Creates the daemon over the platform's available frequencies
    /// (descending MHz).
    pub fn new(frequencies_desc_mhz: &[FreqMhz], cfg: CpuSpeedConfig) -> Self {
        Self { gov: CpuSpeedGovernor::new(frequencies_desc_mhz, cfg) }
    }
}

impl ControlDaemon for CpuSpeedDaemon {
    fn label(&self) -> String {
        "cpuspeed".to_string()
    }

    fn on_sample(
        &mut self,
        _sample: &SensorSample,
        _act: &mut dyn Actuators,
        _obs: &mut Observer<'_>,
    ) -> DaemonEvent {
        DaemonEvent::None
    }

    fn on_tick(
        &mut self,
        dt_s: f64,
        utilization: f64,
        act: &mut dyn Actuators,
        obs: &mut Observer<'_>,
    ) -> DaemonEvent {
        let from = self.gov.current_frequency_mhz();
        if let Some(mhz) = self.gov.observe(dt_s, utilization) {
            if act.set_frequency_mhz(mhz) {
                obs.mode_change(ActuatorKind::Dvfs, from, mhz, WindowLevel::Governor, false);
                return DaemonEvent::Frequency(mhz);
            }
        }
        DaemonEvent::None
    }

    fn wants_tick(&self) -> bool {
        true
    }

    fn reapply(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.restore_frequency_mhz(self.gov.current_frequency_mhz());
    }

    fn controls_frequency(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The ACPI processor sleep-state daemon (paper §3.2.2): the unified
/// controller walks the C0–C3 mode set as temperature history dictates.
#[derive(Debug)]
pub struct AcpiSleepDaemon {
    ctl: SleepStateController,
    cfg: ControllerConfig,
}

impl AcpiSleepDaemon {
    /// Creates the daemon.
    pub fn new(policy: Policy, cfg: ControllerConfig) -> Self {
        Self { ctl: sleep_state_controller(policy, cfg), cfg }
    }

    /// The sleep state the controller currently commands.
    pub fn current_state(&self) -> SleepState {
        self.ctl.current_mode()
    }

    /// The wrapped controller (stats).
    pub fn controller(&self) -> &SleepStateController {
        &self.ctl
    }
}

impl ControlDaemon for AcpiSleepDaemon {
    fn label(&self) -> String {
        "acpi-sleep".to_string()
    }

    fn on_sample(
        &mut self,
        sample: &SensorSample,
        act: &mut dyn Actuators,
        obs: &mut Observer<'_>,
    ) -> DaemonEvent {
        let Some(t) = sample.temp_c else {
            return DaemonEvent::None;
        };
        let from = self.ctl.current_mode();
        if let Some(decision) = self.ctl.observe(t) {
            if act.set_sleep_state(decision.mode) {
                let saturated = decision.index == 1 || decision.index == self.cfg.array_len;
                obs.mode_change(
                    ActuatorKind::Sleep,
                    from as u32,
                    decision.mode as u32,
                    window_level(decision.level),
                    saturated,
                );
                return DaemonEvent::Sleep(decision.mode);
            }
        }
        DaemonEvent::None
    }

    fn reapply(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_sleep_state(self.ctl.current_mode());
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
