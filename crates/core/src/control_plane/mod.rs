//! The unified control plane: an ordered pipeline of control daemons.
//!
//! The paper's system runs several cooperating daemons against one node —
//! the unified mode-index controller over fan duties (± utilization
//! feedforward) or ACPI sleep states, tDVFS, the CPUSPEED governor —
//! supervised by a failsafe watchdog. This module gives them a single
//! shape:
//!
//! * [`ControlDaemon`] — one control loop: observes a [`SensorSample`] at
//!   4 Hz (and, for utilization governors, every physics tick), actuates
//!   through the hardware-agnostic [`Actuators`] trait and returns the
//!   frequency it applied, if any — the one outcome the plane's host
//!   records;
//! * [`ControlPlane`] — the ordered daemon pipeline plus the failsafe
//!   supervisor. §4.4's hybrid coordination is expressed as pipeline
//!   ordering: fan daemons run before DVFS daemons before sleep daemons, so
//!   out-of-band cooling absorbs what it can before in-band techniques
//!   sacrifice performance;
//! * [`SchemeSpec`] — the serializable description of a control scheme,
//!   whose [`SchemeSpec::build`] factory is the *only* place in the
//!   workspace where a scheme becomes daemons.
//!
//! Platform bindings (`unitherm-hwmon`) implement [`Actuators`] over real
//! driver seams (i2c fan driver, cpufreq, direct node access); the plane and
//! the daemons never touch hardware types.
//!
//! # Failsafe ordering
//!
//! The failsafe runs *first* each sample, as a supervisor, not last as a
//! pipeline stage: it must act on the freshness of the sensor reading
//! before any daemon consumes the (possibly stale) temperature, and while
//! engaged it gates every daemon write without stopping the daemons from
//! observing. This matches the reference wiring bit-for-bit (see
//! `tests/control_plane_parity.rs`).

mod daemons;
mod scheme;

pub use daemons::{
    ActuatedMode, ChipAutoFan, ConstantFanDaemon, CpuSpeedDaemon, StaticCurveFan, TdvfsDaemon,
    UnifiedDaemon,
};
pub use scheme::{BuildContext, DvfsScheme, FanBinding, FanScheme, SchemeSpec};

use crate::acpi::SleepState;
use crate::actuator::{FanDuty, FreqMhz};
use crate::failsafe::{Failsafe, FailsafeAction, FailsafeConfig, FailsafeReason};
use unitherm_obs::{Event, Observer, TripCause, WindowLevel};

use crate::controller::DecisionLevel;

/// Maps a controller decision level onto the observability vocabulary.
pub(crate) fn window_level(level: DecisionLevel) -> WindowLevel {
    match level {
        DecisionLevel::Level1 => WindowLevel::L1,
        DecisionLevel::Level2 => WindowLevel::L2,
        DecisionLevel::Feedforward => WindowLevel::Feedforward,
    }
}

fn trip_cause(reason: FailsafeReason) -> TripCause {
    match reason {
        FailsafeReason::StaleSensor => TripCause::StaleSensor,
        FailsafeReason::OverTemperature => TripCause::OverTemperature,
    }
}

/// One 4 Hz sensor sample, as the plane presents it to daemons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSample {
    /// Simulated wall-clock time of the sample, seconds.
    pub now_s: f64,
    /// A live sensor reading this sample, if the sensor path responded.
    /// The failsafe watchdog keys its stale-sensor detection off this.
    pub fresh_temp_c: Option<f64>,
    /// The temperature controllers act on: the fresh reading, or the last
    /// good cached reading when the sensor path is dark.
    pub temp_c: Option<f64>,
    /// CPU utilization in `[0, 1]` (feedforward and governors consume it).
    pub utilization: f64,
    /// Ground-truth die temperature, °C. Only attach-time initialization
    /// (e.g. seeding a static curve before the first sensor read) may use
    /// it; control decisions must use `temp_c`.
    pub die_temp_c: f64,
}

/// Hardware-agnostic actuation surface the daemons drive.
///
/// Implementations live in the platform-binding layer (`unitherm-hwmon`);
/// each method returns `true` when the actuation was applied (semantics per
/// method: a fan write accepted by the driver, a frequency request that
/// changed — or was accepted by — the CPU, …).
pub trait Actuators {
    /// Commands a fan duty through the manual-mode driver. Returns `true`
    /// when the driver accepted the write.
    fn set_fan_duty(&mut self, duty: FanDuty) -> bool;

    /// The duty most recently commanded through the driver (falls back to
    /// the chip's current duty when no manual-mode driver is bound).
    fn last_commanded_duty(&self) -> FanDuty;

    /// Returns the fan controller chip to its automatic curve (release path
    /// for chip-auto schemes). Returns `true` on a successful write.
    fn restore_fan_auto(&mut self) -> bool;

    /// Requests a CPU frequency through the binding's DVFS path. Returns
    /// `true` per the binding's semantics ("changed" through a cpufreq
    /// driver, "accepted" on a direct node request).
    fn set_frequency_mhz(&mut self, mhz: FreqMhz) -> bool;

    /// Re-applies a frequency on the failsafe release path, bypassing any
    /// cpufreq transition accounting.
    fn restore_frequency_mhz(&mut self, mhz: FreqMhz) -> bool;

    /// Restores the highest available frequency (release path when no
    /// daemon owns the frequency).
    fn restore_max_frequency(&mut self) -> bool;

    /// Forces maximum cooling — full fan duty and the lowest frequency —
    /// regardless of which daemons are attached. Returns the `(duty, MHz)`
    /// actually forced.
    fn force_max_cooling(&mut self) -> (FanDuty, FreqMhz);

    /// Requests an ACPI processor sleep state. Returns `true` when applied.
    fn set_sleep_state(&mut self, state: SleepState) -> bool;
}

/// One control loop in the plane's pipeline.
///
/// `Send` is a supertrait so a whole pipeline (and the node that owns it)
/// can migrate to a worker thread — the cluster's node-parallel tick loop
/// shards nodes across a pool. Daemons are plain-data state machines, so
/// the bound is free.
pub trait ControlDaemon: Send {
    /// Short human-readable label (diagnostics).
    fn label(&self) -> String;

    /// One-time initialization after the platform binding is probed:
    /// applies the daemon's initial actuation (e.g. the starting duty).
    fn attach(&mut self, _sample: &SensorSample, _act: &mut dyn Actuators) {}

    /// The 4 Hz sampling path. Called only when `sample.temp_c` is present;
    /// writes are gated (dropped) while the failsafe is engaged. Accepted
    /// actuations (and pure observations like threshold crossings) are
    /// reported through `obs`. Returns the frequency applied, if any.
    fn on_sample(
        &mut self,
        _sample: &SensorSample,
        _act: &mut dyn Actuators,
        _obs: &mut Observer<'_>,
    ) -> Option<FreqMhz> {
        None
    }

    /// The per-physics-tick path (utilization governors). Writes are gated
    /// while the failsafe is engaged. Returns the frequency applied, if any.
    fn on_tick(
        &mut self,
        _dt_s: f64,
        _utilization: f64,
        _act: &mut dyn Actuators,
        _obs: &mut Observer<'_>,
    ) -> Option<FreqMhz> {
        None
    }

    /// True when the daemon does real work in [`ControlDaemon::on_tick`].
    /// The plane skips the whole per-tick dispatch when no daemon in the
    /// pipeline wants it, which keeps the hot path free of virtual calls
    /// for the (common) sample-only schemes.
    fn wants_tick(&self) -> bool {
        false
    }

    /// Re-applies whatever the daemon currently wants (failsafe release
    /// path).
    fn reapply(&mut self, _sample: &SensorSample, _act: &mut dyn Actuators) {}

    /// True when this daemon owns the CPU frequency (so the release path
    /// must not force the maximum frequency over its head).
    fn controls_frequency(&self) -> bool {
        false
    }

    /// Downcast support for platform accessors.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Actuator wrapper that drops daemon writes while the failsafe owns the
/// hardware, without calling through to the platform (so driver write and
/// transition counters see nothing — exactly as if the daemon had checked
/// the engagement flag before touching the driver). Reads pass through.
struct GatedActuators<'a> {
    inner: &'a mut dyn Actuators,
    engaged: bool,
}

impl Actuators for GatedActuators<'_> {
    fn set_fan_duty(&mut self, duty: FanDuty) -> bool {
        if self.engaged {
            return false;
        }
        self.inner.set_fan_duty(duty)
    }

    fn last_commanded_duty(&self) -> FanDuty {
        self.inner.last_commanded_duty()
    }

    fn restore_fan_auto(&mut self) -> bool {
        if self.engaged {
            return false;
        }
        self.inner.restore_fan_auto()
    }

    fn set_frequency_mhz(&mut self, mhz: FreqMhz) -> bool {
        if self.engaged {
            return false;
        }
        self.inner.set_frequency_mhz(mhz)
    }

    fn restore_frequency_mhz(&mut self, mhz: FreqMhz) -> bool {
        if self.engaged {
            return false;
        }
        self.inner.restore_frequency_mhz(mhz)
    }

    fn restore_max_frequency(&mut self) -> bool {
        if self.engaged {
            return false;
        }
        self.inner.restore_max_frequency()
    }

    fn force_max_cooling(&mut self) -> (FanDuty, FreqMhz) {
        self.inner.force_max_cooling()
    }

    fn set_sleep_state(&mut self, state: SleepState) -> bool {
        if self.engaged {
            return false;
        }
        self.inner.set_sleep_state(state)
    }
}

/// The ordered daemon pipeline plus the failsafe supervisor.
///
/// Build one from a serializable [`SchemeSpec`] (the single
/// scheme-to-daemons factory), bind it to an [`Actuators`] implementation,
/// and feed it 4 Hz [`SensorSample`]s:
///
/// ```
/// use unitherm_core::control_array::Policy;
/// use unitherm_core::control_plane::{
///     Actuators, BuildContext, ControlPlane, DvfsScheme, FanScheme, SchemeSpec, SensorSample,
/// };
/// use unitherm_core::acpi::SleepState;
/// use unitherm_core::actuator::{FanDuty, FreqMhz};
/// use unitherm_obs::{Counters, NullSink, Observer};
///
/// /// A toy actuation surface; real ones live in the platform binding.
/// #[derive(Default)]
/// struct Bench {
///     duty: FanDuty,
/// }
///
/// impl Actuators for Bench {
///     fn set_fan_duty(&mut self, duty: FanDuty) -> bool {
///         self.duty = duty;
///         true
///     }
///     fn last_commanded_duty(&self) -> FanDuty {
///         self.duty
///     }
///     fn restore_fan_auto(&mut self) -> bool {
///         true
///     }
///     fn set_frequency_mhz(&mut self, _mhz: FreqMhz) -> bool {
///         true
///     }
///     fn restore_frequency_mhz(&mut self, _mhz: FreqMhz) -> bool {
///         true
///     }
///     fn restore_max_frequency(&mut self) -> bool {
///         true
///     }
///     fn force_max_cooling(&mut self) -> (FanDuty, FreqMhz) {
///         self.duty = 100;
///         (100, 2000)
///     }
///     fn set_sleep_state(&mut self, _state: SleepState) -> bool {
///         true
///     }
/// }
///
/// // Dynamic out-of-band fan control only, moderate aggressiveness.
/// let spec = SchemeSpec::split(FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None);
/// let ctx = BuildContext { available_mhz: vec![2400, 2200, 2000] };
/// let mut plane = ControlPlane::new(spec.build(&ctx), None);
///
/// let mut act = Bench::default();
/// let (mut sink, mut counters) = (NullSink, Counters::default());
/// let mut obs = Observer::new(&mut sink, &mut counters, 0, 0.0);
/// let sample = |now_s: f64, temp_c: f64| SensorSample {
///     now_s,
///     fresh_temp_c: Some(temp_c),
///     temp_c: Some(temp_c),
///     utilization: 1.0,
///     die_temp_c: temp_c,
/// };
/// plane.attach(&sample(0.0, 45.0), &mut act);
/// for i in 1..=20 {
///     // Heating at 1 °C per sample: each window round moves the mode index
///     // up. A fan-only scheme applies no frequency.
///     let s = sample(f64::from(i) * 0.25, 45.0 + f64::from(i));
///     assert_eq!(plane.on_sample_observed(&s, &mut act, &mut obs), None);
/// }
/// assert!(act.last_commanded_duty() > 1, "heating must spin the fan up");
/// assert_eq!(counters.samples, 20);
/// assert!(counters.l1_decisions > 0, "window decisions are counted");
/// ```
pub struct ControlPlane {
    daemons: Vec<Box<dyn ControlDaemon>>,
    failsafe: Option<Failsafe>,
    /// Cached `daemons.iter().any(wants_tick)` so `on_tick` can return
    /// without touching the pipeline when nothing listens per tick.
    any_wants_tick: bool,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("daemons", &self.daemons.iter().map(|d| d.label()).collect::<Vec<_>>())
            .field("failsafe", &self.failsafe)
            .finish()
    }
}

impl ControlPlane {
    /// Assembles a plane from an ordered daemon pipeline and an optional
    /// failsafe watchdog.
    pub fn new(daemons: Vec<Box<dyn ControlDaemon>>, failsafe: Option<FailsafeConfig>) -> Self {
        let any_wants_tick = daemons.iter().any(|d| d.wants_tick());
        Self { daemons, failsafe: failsafe.map(Failsafe::new), any_wants_tick }
    }

    /// True when any attached daemon runs on the per-tick path. When false,
    /// `on_tick` is a guaranteed no-op between samples — simulators use this
    /// to route the node onto a batched physics fast path.
    pub fn wants_tick(&self) -> bool {
        self.any_wants_tick
    }

    /// One-time initialization: lets every daemon apply its initial
    /// actuation (called once after the platform binding is probed).
    pub fn attach(&mut self, sample: &SensorSample, act: &mut dyn Actuators) {
        for d in &mut self.daemons {
            d.attach(sample, act);
        }
    }

    /// Runs the 4 Hz sampling path: failsafe supervision first, then the
    /// daemon pipeline (observing always, writing only while not engaged).
    /// Events and counters go through `obs`. Returns the frequency a daemon
    /// applied this sample, if any (a frequency the failsafe forces is not
    /// one: it bypasses the daemons).
    pub fn on_sample_observed(
        &mut self,
        sample: &SensorSample,
        act: &mut dyn Actuators,
        obs: &mut Observer<'_>,
    ) -> Option<FreqMhz> {
        obs.counters.samples += 1;

        if let Some(fs) = &mut self.failsafe {
            match fs.observe(sample.fresh_temp_c) {
                Some(FailsafeAction::Engage(reason)) => {
                    let _ = act.force_max_cooling();
                    obs.failsafe_trip(trip_cause(reason));
                }
                Some(FailsafeAction::Release) => {
                    for d in &mut self.daemons {
                        d.reapply(sample, act);
                    }
                    if !self.daemons.iter().any(|d| d.controls_frequency()) {
                        let _ = act.restore_max_frequency();
                    }
                    obs.emit(Event::FailsafeRelease);
                }
                None => {}
            }
        }
        sample.temp_c?;
        let mut gate = GatedActuators { inner: act, engaged: self.is_failsafe_engaged() };
        let mut applied = None;
        for d in &mut self.daemons {
            applied = d.on_sample(sample, &mut gate, obs).or(applied);
        }
        applied
    }

    /// Runs the per-physics-tick path (utilization governors observe every
    /// tick). Returns the frequency applied this tick, if any. Ticks
    /// short-circuited because no daemon listens are counted in
    /// `obs.counters.ticks_skipped`.
    pub fn on_tick_observed(
        &mut self,
        dt_s: f64,
        utilization: f64,
        act: &mut dyn Actuators,
        obs: &mut Observer<'_>,
    ) -> Option<FreqMhz> {
        if !self.any_wants_tick {
            obs.counters.ticks_skipped += 1;
            return None;
        }
        let engaged = self.is_failsafe_engaged();
        let mut gate = GatedActuators { inner: act, engaged };
        let mut applied = None;
        for d in &mut self.daemons {
            applied = d.on_tick(dt_s, utilization, &mut gate, obs).or(applied);
        }
        applied
    }

    /// True while the failsafe owns the actuators.
    pub fn is_failsafe_engaged(&self) -> bool {
        self.failsafe.as_ref().is_some_and(Failsafe::is_engaged)
    }

    /// Total failsafe engagements (0 when no failsafe is attached).
    pub fn failsafe_engagement_count(&self) -> u64 {
        self.failsafe.as_ref().map_or(0, Failsafe::engagement_count)
    }

    /// The first daemon of concrete type `T` in the pipeline, if any
    /// (platform accessors downcast through this).
    pub fn daemon<T: 'static>(&self) -> Option<&T> {
        self.daemons.iter().find_map(|d| d.as_any().downcast_ref::<T>())
    }

    /// The pipeline's daemon labels, in order.
    pub fn labels(&self) -> Vec<String> {
        self.daemons.iter().map(|d| d.label()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control_array::Policy;
    use unitherm_obs::{Counters, NullSink};

    /// A recording in-memory actuator for plane-level unit tests.
    #[derive(Debug, Default)]
    struct TestActuators {
        duty: FanDuty,
        freq: FreqMhz,
        sleep: Option<SleepState>,
        fan_writes: u32,
        freq_writes: u32,
        forced: u32,
    }

    impl Actuators for TestActuators {
        fn set_fan_duty(&mut self, duty: FanDuty) -> bool {
            self.duty = duty;
            self.fan_writes += 1;
            true
        }
        fn last_commanded_duty(&self) -> FanDuty {
            self.duty
        }
        fn restore_fan_auto(&mut self) -> bool {
            true
        }
        fn set_frequency_mhz(&mut self, mhz: FreqMhz) -> bool {
            let changed = self.freq != mhz;
            self.freq = mhz;
            self.freq_writes += 1;
            changed
        }
        fn restore_frequency_mhz(&mut self, mhz: FreqMhz) -> bool {
            self.freq = mhz;
            true
        }
        fn restore_max_frequency(&mut self) -> bool {
            self.freq = 2400;
            true
        }
        fn force_max_cooling(&mut self) -> (FanDuty, FreqMhz) {
            self.duty = 100;
            self.freq = 1000;
            self.forced += 1;
            (100, 1000)
        }
        fn set_sleep_state(&mut self, state: SleepState) -> bool {
            self.sleep = Some(state);
            true
        }
    }

    fn sample(t: Option<f64>) -> SensorSample {
        SensorSample {
            now_s: 0.0,
            fresh_temp_c: t,
            temp_c: t,
            utilization: 1.0,
            die_temp_c: t.unwrap_or(40.0),
        }
    }

    /// Runs one sample through the plane with observability discarded.
    fn on_sample(
        plane: &mut ControlPlane,
        sample: &SensorSample,
        act: &mut TestActuators,
    ) -> Option<FreqMhz> {
        let (mut sink, mut counters) = (NullSink, Counters::default());
        let mut obs = Observer::new(&mut sink, &mut counters, 0, sample.now_s);
        plane.on_sample_observed(sample, act, &mut obs)
    }

    fn dynamic_plane(failsafe: Option<FailsafeConfig>) -> ControlPlane {
        let spec = SchemeSpec::split(FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None);
        let ctx = BuildContext { available_mhz: vec![2400, 2200, 2000, 1800, 1000] };
        ControlPlane::new(spec.build(&ctx), failsafe)
    }

    #[test]
    fn pipeline_runs_daemons_in_order() {
        let plane = ControlPlane::new(
            SchemeSpec::hybrid(Policy::MODERATE, 100)
                .build(&BuildContext { available_mhz: vec![2400, 2200, 2000, 1800, 1000] }),
            None,
        );
        let labels = plane.labels();
        assert_eq!(labels.len(), 2);
        assert!(labels[0].contains("fan"), "fan first: {labels:?}");
        assert!(labels[1].contains("tdvfs"), "dvfs second: {labels:?}");
    }

    #[test]
    fn sudden_step_commands_a_duty() {
        let mut plane = dynamic_plane(None);
        let mut act = TestActuators::default();
        for t in [45.0, 45.0, 51.0, 51.0] {
            assert_eq!(on_sample(&mut plane, &sample(Some(t)), &mut act), None);
        }
        assert_eq!(act.fan_writes, 1, "sudden step must command a duty");
        assert!(act.duty > 40, "{}", act.duty);
    }

    #[test]
    fn failsafe_engages_and_gates_daemon_writes() {
        let mut plane = dynamic_plane(Some(FailsafeConfig::default()));
        let mut act = TestActuators::default();
        // Warm up with live readings, then go dark past the stale budget.
        for _ in 0..4 {
            let _ = on_sample(&mut plane, &sample(Some(45.0)), &mut act);
        }
        for _ in 0..25 {
            let _ = on_sample(&mut plane, &sample(None), &mut act);
        }
        assert_eq!(act.forced, 1, "stale sensor must engage the failsafe");
        assert_eq!((act.duty, act.freq), (100, 1000));
        assert!(plane.is_failsafe_engaged());
        assert_eq!(plane.failsafe_engagement_count(), 1);
        // While engaged, a hot stale reading must not reach the actuators.
        let writes_before = act.fan_writes;
        let hot = SensorSample {
            now_s: 0.0,
            fresh_temp_c: None,
            temp_c: Some(60.0),
            utilization: 1.0,
            die_temp_c: 60.0,
        };
        for _ in 0..8 {
            let _ = on_sample(&mut plane, &hot, &mut act);
        }
        assert_eq!(act.fan_writes, writes_before, "no writes while engaged");
        assert_eq!(act.duty, 100, "the forced duty holds");
    }

    /// A §4.4 hybrid plane over the test ladder, with the CPU starting at
    /// its top frequency.
    fn hybrid_plane(max_duty: FanDuty) -> (ControlPlane, TestActuators) {
        let spec = SchemeSpec::hybrid(Policy::MODERATE, max_duty);
        let ctx = BuildContext { available_mhz: vec![2400, 2200, 2000, 1800, 1000] };
        let mut plane = ControlPlane::new(spec.build(&ctx), None);
        let mut act = TestActuators { freq: 2400, ..TestActuators::default() };
        plane.attach(&sample(Some(42.0)), &mut act);
        (plane, act)
    }

    #[test]
    fn hybrid_heating_engages_fan_before_dvfs() {
        let (mut plane, mut act) = hybrid_plane(100);
        // Ramp toward 50 °C (below the 51 °C trigger): the fan reacts,
        // DVFS must not.
        for i in 0..240 {
            let t = (42.0 + 0.1 * f64::from(i)).min(50.0);
            let _ = on_sample(&mut plane, &sample(Some(t)), &mut act);
        }
        assert!(act.duty > 1, "fan engaged");
        assert_eq!(act.freq, 2400, "DVFS untouched below threshold");
        assert_eq!(act.freq_writes, 0);
    }

    #[test]
    fn hybrid_sustained_heat_with_capped_fan_engages_dvfs() {
        let (mut plane, mut act) = hybrid_plane(25);
        // 60 s of 58 °C at 4 Hz: a fan capped at 25 % cannot hold it, so
        // tDVFS must scale the CPU down.
        let mut applied = None;
        for _ in 0..240 {
            applied = on_sample(&mut plane, &sample(Some(58.0)), &mut act).or(applied);
        }
        assert!(act.duty <= 25, "fan mode set capped at 25 %: {}", act.duty);
        assert!(act.freq < 2400, "capped fan cannot hold 58 °C; DVFS must act");
        assert_eq!(applied, Some(act.freq), "the plane returns what tDVFS applied");
    }

    #[test]
    fn downcast_accessor_finds_daemons() {
        let plane = dynamic_plane(None);
        assert!(plane.daemon::<UnifiedDaemon<FanDuty>>().is_some());
        assert!(plane.daemon::<TdvfsDaemon>().is_none());
    }
}
