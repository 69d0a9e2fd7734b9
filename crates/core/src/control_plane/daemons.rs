//! The concrete control daemons the scheme factory assembles.
//!
//! Each daemon adapts one policy to the [`ControlDaemon`] pipeline shape:
//! sampling cadence, attach/reapply paths, and actuation through the
//! [`Actuators`] trait. The paper's unified mode-index controller reaches
//! hardware through one daemon, [`UnifiedDaemon`], generic over the mode it
//! walks (fan duty or ACPI sleep state) and optionally nudged by
//! utilization feedforward; tDVFS, CPUSPEED and the fan baselines have a
//! daemon each. A daemon's sample and tick paths return the frequency it
//! applied, if any — the one outcome the plane's host records.

use super::{window_level, Actuators, ControlDaemon, SensorSample};
use crate::acpi::SleepState;
use crate::actuator::{fan_mode_set, FanDuty, FreqMhz};
use crate::baseline::StaticFanCurve;
use crate::control_array::Policy;
use crate::controller::{ControllerConfig, DecisionLevel, UnifiedController};
use crate::feedforward::{FeedforwardConfig, UtilizationFeedforward};
use crate::governor::{CpuSpeedConfig, CpuSpeedGovernor};
use crate::tdvfs::{Tdvfs, TdvfsConfig, TdvfsEvent};
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
    ) -> Option<FreqMhz> {
        let duty = self.curve.duty_for(sample.temp_c?);
        if duty != act.last_commanded_duty() {
            let _ = act.set_fan_duty(duty);
        }
        None
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

    fn reapply(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = act.set_fan_duty(self.duty);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A mode the unified controller walks and the plane applies.
pub trait ActuatedMode: Copy + PartialEq + std::fmt::Debug + Send + 'static {
    /// The actuator named in this mode's change events.
    const KIND: ActuatorKind;

    /// Commands the mode. Returns `true` when it was applied.
    fn apply(self, act: &mut dyn Actuators) -> bool;

    /// The mode as a change event reports it.
    fn code(self) -> u32;
}

impl ActuatedMode for FanDuty {
    const KIND: ActuatorKind = ActuatorKind::Fan;

    fn apply(self, act: &mut dyn Actuators) -> bool {
        act.set_fan_duty(self)
    }

    fn code(self) -> u32 {
        u32::from(self)
    }
}

impl ActuatedMode for SleepState {
    const KIND: ActuatorKind = ActuatorKind::Sleep;

    fn apply(self, act: &mut dyn Actuators) -> bool {
        act.set_sleep_state(self)
    }

    fn code(self) -> u32 {
        self as u32
    }
}

/// The paper's unified controller as a daemon: the two-level history window
/// drives the mode index over one mode set — the discretized fan duties
/// (§4.2) or the ACPI C0–C3 sleep states (§3.2.2) — and an optional
/// utilization feedforward nudges it when the measured history saw nothing
/// (§5 future work).
#[derive(Debug)]
pub struct UnifiedDaemon<M> {
    label: &'static str,
    ctl: UnifiedController<M>,
    /// Boxed: the daemon sits in every node's hot state, and most schemes
    /// run it without feedforward.
    feedforward: Option<Box<UtilizationFeedforward>>,
}

impl UnifiedDaemon<FanDuty> {
    /// The dynamic fan daemon over the duties `1..=max_duty`; with a
    /// feedforward configuration, the feedforward-augmented one.
    pub fn fan(
        policy: Policy,
        max_duty: FanDuty,
        cfg: ControllerConfig,
        feedforward: Option<FeedforwardConfig>,
    ) -> Self {
        Self {
            label: if feedforward.is_some() { "feedforward-fan" } else { "dynamic-fan" },
            ctl: UnifiedController::new(&fan_mode_set(max_duty), policy, cfg),
            feedforward: feedforward.map(|cfg| Box::new(UtilizationFeedforward::new(cfg))),
        }
    }
}

impl UnifiedDaemon<SleepState> {
    /// The ACPI processor sleep-state daemon.
    pub fn sleep(policy: Policy, cfg: ControllerConfig) -> Self {
        Self {
            label: "acpi-sleep",
            ctl: UnifiedController::new(&SleepState::ALL, policy, cfg),
            feedforward: None,
        }
    }
}

impl<M> UnifiedDaemon<M> {
    /// The wrapped controller (current mode, stats).
    pub fn controller(&self) -> &UnifiedController<M> {
        &self.ctl
    }
}

impl<M: ActuatedMode> ControlDaemon for UnifiedDaemon<M> {
    fn label(&self) -> String {
        self.label.to_string()
    }

    fn attach(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = self.ctl.current_mode().apply(act);
    }

    fn on_sample(
        &mut self,
        sample: &SensorSample,
        act: &mut dyn Actuators,
        obs: &mut Observer<'_>,
    ) -> Option<FreqMhz> {
        let t = sample.temp_c?;
        let from = self.ctl.current_mode();
        let prediction = self.feedforward.as_mut().and_then(|ff| ff.observe(sample.utilization));
        let decision = self.ctl.observe_with_prediction(t, prediction)?;
        if decision.mode.apply(act) {
            let saturated = decision.index == 1 || decision.index == self.ctl.config().array_len;
            obs.mode_change(
                M::KIND,
                from.code(),
                decision.mode.code(),
                window_level(decision.level),
                saturated,
            );
            if decision.level == DecisionLevel::Feedforward {
                obs.emit(Event::PredictionSample {
                    utilization: sample.utilization,
                    predicted_delta_c: decision.delta_c,
                });
            }
        }
        None
    }

    fn reapply(&mut self, _sample: &SensorSample, act: &mut dyn Actuators) {
        let _ = self.ctl.current_mode().apply(act);
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
    ) -> Option<FreqMhz> {
        let t = sample.temp_c?;
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
        let event = self.tdvfs.observe(t)?;
        let mhz = event.frequency_mhz();
        if !act.set_frequency_mhz(mhz) {
            return None;
        }
        match event {
            TdvfsEvent::ScaleDown(_) => obs.tdvfs_engage(from, mhz),
            TdvfsEvent::Restore(_) => obs.tdvfs_release(mhz),
        }
        Some(mhz)
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

    fn on_tick(
        &mut self,
        dt_s: f64,
        utilization: f64,
        act: &mut dyn Actuators,
        obs: &mut Observer<'_>,
    ) -> Option<FreqMhz> {
        let from = self.gov.current_frequency_mhz();
        let mhz = self.gov.observe(dt_s, utilization)?;
        if !act.set_frequency_mhz(mhz) {
            return None;
        }
        obs.mode_change(ActuatorKind::Dvfs, from, mhz, WindowLevel::Governor, false);
        Some(mhz)
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
