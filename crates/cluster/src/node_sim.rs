//! Per-node simulation state: hardware, platform binding, control plane,
//! recorders.
//!
//! A node's control scheme is described by a
//! [`SchemeSpec`](unitherm_core::control_plane::SchemeSpec), turned into a
//! daemon pipeline by its single `build()` factory, and run by the core
//! [`ControlPlane`] against the node's probed [`PlatformBinding`].
//! [`NodeSim`] is the only code in the workspace that hosts a
//! `ControlPlane`: every run — a figure, a sweep, a fleet, a service job —
//! drives its nodes' control loops through here, and a single node is a
//! 1-node `Scenario`.
//!
//! A node's plant lives in a physics-batch slot: its shard's batch in a
//! simulation, or a one-slot batch the node owns when built standalone
//! with [`NodeSim::build`]. The sample pass and the per-tick hook reach it
//! through the node's `NodeView` and act on the slot in place; nothing is
//! copied back and forth. Its workload is kept the same way: a simulation
//! keeps its ranks' workloads back to back in its shards, where pass A
//! walks them without touching a `NodeSim`, and only a standalone node
//! owns one ([`OwnWorkload`]).
//!
//! The 4 Hz sample pass reads every node's `NodeSim` and prefetches it
//! whole, so recording-only state is one pointer here: the recorder's
//! series ([`RecordedSeries`]) are allocated only when series recording
//! is on.

use unitherm_core::actuator::FreqMhz;
use unitherm_core::control_plane::{BuildContext, ControlPlane, SensorSample};
use unitherm_hwmon::{LmSensors, PlatformActuators, PlatformBinding};
use unitherm_metrics::{RunningStats, TimeSeries};
use unitherm_obs::{Counters, EventSink, Observer, RingSink, TeeSink};
use unitherm_simnode::faults::FaultPlan;
use unitherm_simnode::{Node, NodeView, PhysicsBatch};
use unitherm_workload::{WorkState, Workload};

use crate::replay::classify_fault;
use crate::scenario::Scenario;

/// Recorded traces and counters for one node.
pub struct NodeRecorder {
    /// The recorded series; `None` when series recording is off, so a
    /// recording-off node allocates none of them and carries one pointer
    /// in their place.
    pub series: Option<Box<RecordedSeries>>,
    /// Streaming temperature statistics (kept even when series recording is
    /// off, so benchmark-mode runs still report averages).
    pub temp_stats: RunningStats,
    /// Streaming commanded-duty statistics.
    pub duty_stats: RunningStats,
}

/// The series a recording node keeps, one sample per 4 Hz sample. The
/// default value is what a recording-off report carries: every series
/// empty and unnamed.
#[derive(Default)]
pub struct RecordedSeries {
    /// Sensor temperature (°C) at each sample.
    pub temp: TimeSeries,
    /// Commanded fan duty (%) at each sample.
    pub duty: TimeSeries,
    /// Requested CPU frequency (MHz) at each sample.
    pub freq: TimeSeries,
    /// Instantaneous wall power (W) at each sample.
    pub power: TimeSeries,
    /// CPU utilization at each sample.
    pub util: TimeSeries,
    /// Frequency-change events: `(time, new MHz)`.
    pub freq_events: Vec<(f64, FreqMhz)>,
}

impl NodeRecorder {
    /// `expected_samples` pre-reserves the series so steady-state recording
    /// appends without reallocating.
    ///
    /// A disabled recorder allocates nothing at all — no series, no
    /// metric-name strings, no capacity — so fleet-scale benchmark runs
    /// (100k nodes, recording off) pay zero heap for recorders.
    fn new(node_idx: usize, enabled: bool, expected_samples: usize) -> Self {
        let series = enabled.then(|| {
            let n = |metric: &str| format!("node{node_idx}.{metric}");
            // Frequency events arrive at most once per sample; a quarter of
            // the sample count absorbs even a thrashing governor without
            // growth, while short scenarios stay at a small floor instead
            // of a flat 64.
            let event_cap = (expected_samples / 4).clamp(8, 4096);
            Box::new(RecordedSeries {
                temp: TimeSeries::with_capacity(n("temp"), "°C", expected_samples),
                duty: TimeSeries::with_capacity(n("duty"), "%", expected_samples),
                freq: TimeSeries::with_capacity(n("freq"), "MHz", expected_samples),
                power: TimeSeries::with_capacity(n("power"), "W", expected_samples),
                util: TimeSeries::with_capacity(n("util"), "", expected_samples),
                freq_events: Vec::with_capacity(event_cap),
            })
        });
        Self { series, temp_stats: RunningStats::new(), duty_stats: RunningStats::new() }
    }

    /// Records a frequency-change event when series recording is on.
    fn freq_event(&mut self, now_s: f64, mhz: FreqMhz) {
        if let Some(series) = &mut self.series {
            series.freq_events.push((now_s, mhz));
        }
    }
}

/// Where a node's plant lives for one call: its own one-slot batch
/// (`None`, a node from [`NodeSim::build`]) or a slot of its shard's
/// batch.
pub(crate) type PlantAt<'a> = Option<(&'a mut PhysicsBatch, usize)>;

/// The view of `node` with its plant at `at`.
fn view<'a>(node: &'a mut Node, at: PlantAt<'a>) -> NodeView<'a> {
    match at {
        Some((lanes, slot)) => node.view_in(lanes, slot),
        None => node.view(),
    }
}

/// Runs `f` with an observer over a node's event ring and counters, teed
/// into `journal` when one is attached.
#[inline]
fn observed<R>(
    events: &mut RingSink,
    counters: &mut Counters,
    index: u32,
    now_s: f64,
    journal: Option<&mut (dyn EventSink + 'static)>,
    f: impl FnOnce(&mut Observer<'_>) -> R,
) -> R {
    match journal {
        None => f(&mut Observer::new(events, counters, index, now_s)),
        Some(journal) => {
            let mut tee = TeeSink::new(events, journal);
            f(&mut Observer::new(&mut tee, counters, index, now_s))
        }
    }
}

/// One node's full simulation state.
pub struct NodeSim {
    /// The simulated hardware's cold parts; built by [`NodeSim::build`] it
    /// also owns its one-slot plant, while a simulation keeps every plant
    /// in its shards' batches.
    pub node: Node,
    /// The rank's workload, owned only by a node from [`NodeSim::build`]:
    /// a simulation keeps its ranks' workloads in its shards.
    pub workload: OwnWorkload,
    /// lm-sensors access.
    pub lm: LmSensors,
    /// The daemon pipeline (built by `SchemeSpec::build`) plus failsafe.
    pub plane: ControlPlane,
    /// The probed hardware seams the plane actuates through.
    pub binding: PlatformBinding,
    /// Trace recorder.
    pub rec: NodeRecorder,
    /// This node's rank index (stamped into emitted event records).
    pub index: u32,
    /// Fixed-capacity ring of the most recent control-plane events
    /// (allocation-free in steady state; capacity from the scenario).
    pub events: RingSink,
    /// Monotonic control-plane counters for this node.
    pub counters: Counters,
    /// Watermark into `Node::fault_log`: entries before it have already
    /// been emitted as `FaultInjected` events.
    fault_log_seen: usize,
    /// True when the control plane runs a per-tick daemon (CPUSPEED). A
    /// simulation hooks the node on every tick to run it; every other
    /// node's lane ticks are control-plane ticks that observed nothing.
    pub(crate) tick_daemon: bool,
}

/// The workload of a node from [`NodeSim::build`], which the node owns
/// the way its `Node` owns a one-slot plant. A simulation's nodes own none
/// (each shard keeps its ranks' workloads back to back, in pass order), so
/// reaching through theirs panics.
pub struct OwnWorkload(Option<Box<dyn Workload>>);

impl std::ops::Deref for OwnWorkload {
    type Target = dyn Workload;

    fn deref(&self) -> &Self::Target {
        self.0.as_deref().expect("a simulation keeps its workloads in its shards")
    }
}

impl std::ops::DerefMut for OwnWorkload {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.0.as_deref_mut().expect("a simulation keeps its workloads in its shards")
    }
}

impl NodeSim {
    /// Builds one standalone node per the scenario, with its own workload
    /// and one-slot plant: probe the binding the scheme needs, build the
    /// daemon pipeline through the scheme factory, attach.
    pub fn build(scenario: &Scenario, node_idx: usize) -> Self {
        let workload = scenario.workload.instantiate(node_idx, scenario.seed);
        let mut ns = Self::build_hot(scenario, node_idx, None);
        ns.workload = OwnWorkload(Some(workload));
        ns.events = RingSink::with_capacity(scenario.event_capacity);
        ns
    }

    /// [`Self::build`] with the plant at `at`, no workload and no event
    /// ring: every hot heap object the sample pass reads (sensor and bus
    /// state, daemons, binding) and a zero-capacity, unallocated ring,
    /// since building emits no events. `Simulation::build` allocates
    /// per-node state in pass order: every rank's workload into its shard,
    /// then every node this way with its plant straight in its shard's
    /// batch, then the rings. Consecutive workloads so sit back to back,
    /// and consecutive nodes' hot state under 1 kB apart instead of one
    /// 10 kB ring apart (DESIGN §14).
    pub(crate) fn build_hot(scenario: &Scenario, node_idx: usize, mut at: PlantAt<'_>) -> Self {
        let seed = scenario.node_seed(node_idx);
        let faults = scenario
            .faults
            .iter()
            .find(|(n, _)| *n == node_idx)
            .map(|(_, p)| p.clone())
            .unwrap_or_else(FaultPlan::none);
        let cfg = scenario.node_config_for(node_idx).clone();
        let mut node = match &mut at {
            Some((lanes, slot)) => Node::in_slot(cfg, seed, faults, lanes, *slot),
            None => Node::with_faults(cfg, seed, faults),
        };
        if let Some((_, schedule)) = scenario.tick_faults.iter().find(|(n, _)| *n == node_idx) {
            node.set_tick_faults(schedule.clone());
        }
        let spec = scenario.effective_scheme(node_idx);
        let mut plant = view(&mut node, at);
        let mut binding =
            PlatformBinding::probe(&mut plant, &spec).expect("chip reachable at build time");
        let ctx = BuildContext { available_mhz: PlatformBinding::available_mhz(&plant) };
        let mut plane = ControlPlane::new(spec.build(&ctx), scenario.failsafe);
        let attach_sample = SensorSample {
            now_s: 0.0,
            fresh_temp_c: None,
            temp_c: None,
            utilization: plant.utilization(),
            die_temp_c: plant.die_temp_c(),
        };
        plane.attach(&attach_sample, &mut PlatformActuators { node: plant, binding: &mut binding });

        let tick_daemon = plane.wants_tick();

        Self {
            node,
            workload: OwnWorkload(None),
            lm: LmSensors::new(),
            plane,
            binding,
            rec: NodeRecorder::new(node_idx, scenario.record_series, scenario.expected_samples()),
            index: node_idx as u32,
            events: RingSink::with_capacity(0),
            counters: Counters::default(),
            fault_log_seen: 0,
            tick_daemon,
        }
    }

    /// Advances the workload by one tick and applies its utilization to the
    /// CPU of a node from [`NodeSim::build`]. Returns the rank's state
    /// after the tick.
    pub fn tick_workload(&mut self, dt_s: f64) -> WorkState {
        let mut plant = self.node.view();
        let out = self.workload.advance(dt_s, plant.speed_factor());
        plant.set_load(out.utilization, out.activity);
        self.workload.state()
    }

    /// Advances a node from [`NodeSim::build`] by one tick: the per-tick
    /// daemons (CPUSPEED observes utilization every tick), then its
    /// one-slot batch (due faults, then the lane physics). `journal`
    /// additionally receives any events the per-tick daemons emit (None on
    /// the allocation-free default path).
    pub fn tick_hardware(
        &mut self,
        dt_s: f64,
        now_s: f64,
        mut journal: Option<&mut (dyn EventSink + 'static)>,
    ) {
        self.run_tick_daemons(None, dt_s, now_s, journal.as_deref_mut());
        self.node.tick(dt_s);
        self.emit_fault_events(now_s, journal);
    }

    /// The per-tick work the lane tick does not do, run on slot `slot` of
    /// `lanes` after the batch's `begin_tick` and before its `tick_all`:
    /// the per-tick daemons, then due faults, then their `FaultInjected`
    /// events — the order [`NodeSim::tick_hardware`] runs them in.
    pub(crate) fn on_tick_hook(
        &mut self,
        lanes: &mut PhysicsBatch,
        slot: usize,
        dt_s: f64,
        now_s: f64,
        mut journal: Option<&mut (dyn EventSink + 'static)>,
    ) {
        // A plane without per-tick daemons would only count a skipped
        // tick here; the report counts those from the tick count.
        if self.tick_daemon {
            self.run_tick_daemons(Some((&mut *lanes, slot)), dt_s, now_s, journal.as_deref_mut());
        }
        self.node.view_in(lanes, slot).deliver_due_faults();
        self.emit_fault_events(now_s, journal);
    }

    /// Hands one tick to the control plane's per-tick daemons and records
    /// a frequency they applied.
    fn run_tick_daemons(
        &mut self,
        at: PlantAt<'_>,
        dt_s: f64,
        now_s: f64,
        journal: Option<&mut (dyn EventSink + 'static)>,
    ) {
        let Self { node, plane, binding, rec, events, counters, index, .. } = self;
        let mut act = PlatformActuators { node: view(node, at), binding };
        let util = act.node.utilization();
        let applied = observed(events, counters, *index, now_s, journal, |obs| {
            plane.on_tick_observed(dt_s, util, &mut act, obs)
        });
        if let Some(mhz) = applied {
            rec.freq_event(now_s, mhz);
        }
    }

    /// Emits a `FaultInjected` event for every fault the node delivered
    /// since the last call. Runs in pass B at every pool width (shard 0
    /// tees directly, the other shards' scratch drains in node order), so
    /// the journal stream stays thread-count invariant. No-op — and
    /// allocation-free — on fault-free ticks.
    fn emit_fault_events(&mut self, now_s: f64, journal: Option<&mut (dyn EventSink + 'static)>) {
        let start = self.fault_log_seen;
        let end = self.node.fault_log().len();
        if start >= end {
            return;
        }
        self.fault_log_seen = end;
        let Self { node, events, counters, index, .. } = self;
        observed(events, counters, *index, now_s, journal, |obs| {
            for &(_, ev) in &node.fault_log()[start..] {
                let (kind, magnitude) = classify_fault(ev);
                obs.fault_injected(kind, magnitude);
            }
        });
    }

    /// Runs the 4 Hz sampling path of a node from [`NodeSim::build`]: read
    /// the sensor, hand the sample to the control plane (failsafe
    /// supervision + daemon pipeline), record traces. Emitted events land
    /// in this node's ring (and `journal`, when one is attached).
    pub fn on_sample(&mut self, now_s: f64, journal: Option<&mut (dyn EventSink + 'static)>) {
        self.sample(None, now_s, journal);
    }

    /// [`NodeSim::on_sample`] with the plant at `at`.
    pub(crate) fn sample(
        &mut self,
        at: PlantAt<'_>,
        now_s: f64,
        journal: Option<&mut (dyn EventSink + 'static)>,
    ) {
        let Self { node, lm, plane, binding, rec, events, counters, index, .. } = self;
        let mut plant = view(node, at);
        // Hottest-sensor read. `fresh` distinguishes a live reading from
        // the stale fallback the controllers tolerate — the failsafe cares
        // about the difference.
        let fresh = lm.read_hottest_celsius(&mut plant).ok();
        let temp =
            fresh.or_else(|| lm.last_good().map(unitherm_simnode::units::MilliCelsius::to_celsius));
        let sample = SensorSample {
            now_s,
            fresh_temp_c: fresh,
            temp_c: temp,
            utilization: plant.utilization(),
            die_temp_c: plant.die_temp_c(),
        };
        let mut act = PlatformActuators { node: plant, binding };
        let out = observed(events, counters, *index, now_s, journal, |obs| {
            plane.on_sample_observed(&sample, &mut act, obs)
        });
        let plant = act.node;
        // Daemon-confirmed frequency changes are trace events; frequencies
        // forced by a failsafe engagement are not (they bypass the driver).
        if let Some(mhz) = out.freq_mhz {
            rec.freq_event(now_s, mhz);
        }

        // Read the two summary inputs directly; a full state snapshot
        // recomputes the wall-power law per sample, which the
        // recording-off fast path never uses.
        let duty = f64::from(plant.fan_duty().percent());
        if let Some(t) = temp {
            rec.temp_stats.push(t);
        }
        rec.duty_stats.push(duty);
        if let Some(series) = &mut rec.series {
            if let Some(t) = temp {
                series.temp.push(now_s, t);
            }
            series.duty.push(now_s, duty);
            series.freq.push(now_s, f64::from(plant.requested_frequency_khz() / 1000));
            series.power.push(now_s, plant.wall_power_w());
            series.util.push(now_s, plant.utilization());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadSpec;
    use crate::scheme::{DvfsScheme, FanScheme, SchemeSpec};
    use unitherm_core::control_array::Policy;

    fn scenario_with(fan: FanScheme, dvfs: DvfsScheme) -> Scenario {
        Scenario::new("node-sim-test")
            .with_nodes(1)
            .with_fan(fan)
            .with_dvfs(dvfs)
            .with_workload(WorkloadSpec::CpuBurn)
    }

    /// The duty the node's fan driver last commanded.
    fn commanded_duty(ns: &NodeSim) -> u8 {
        ns.binding.fan_driver().expect("software fan scheme").last_commanded()
    }

    /// The series of a recording node.
    fn series(ns: &NodeSim) -> &RecordedSeries {
        ns.rec.series.as_deref().expect("recording is on")
    }

    /// Drives a lone node for `seconds`.
    fn run(ns: &mut NodeSim, seconds: f64) {
        let dt = 0.05;
        let per_sample = 5; // 0.25 s
        let steps = (seconds / dt).round() as usize;
        for i in 0..steps {
            let _ = ns.tick_workload(dt);
            let now = (i + 1) as f64 * dt;
            ns.tick_hardware(dt, now, None);
            if (i + 1) % per_sample == 0 {
                ns.on_sample(now, None);
            }
        }
    }

    #[test]
    fn chip_auto_needs_no_driver() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 75 }, DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 120.0);
        // Burn heats the node; the chip's auto curve raises duty but never
        // past the hardware cap.
        let duty = ns.node.view().state().fan_duty.percent();
        assert!(duty > 10, "auto curve responded: {duty}");
        assert!(duty <= 75);
    }

    #[test]
    fn constant_scheme_pins_duty() {
        let sc = scenario_with(FanScheme::Constant { duty: 75 }, DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 60.0);
        assert_eq!(ns.node.view().state().fan_duty.percent(), 75);
        assert_eq!(commanded_duty(&ns), 75);
    }

    #[test]
    fn dynamic_scheme_raises_duty_under_burn() {
        let sc = scenario_with(FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 200.0);
        assert!(
            commanded_duty(&ns) > 20,
            "dynamic controller should have engaged: {}",
            commanded_duty(&ns)
        );
    }

    #[test]
    fn static_software_follows_temperature() {
        let sc = scenario_with(
            FanScheme::SoftwareStatic {
                curve: unitherm_core::baseline::StaticFanCurve::with_max(75),
            },
            DvfsScheme::None,
        );
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 200.0);
        let temp = ns.node.view().die_temp_c();
        let expected = unitherm_core::baseline::StaticFanCurve::with_max(75).duty_for(temp);
        let actual = commanded_duty(&ns);
        assert!(
            (i32::from(actual) - i32::from(expected)).abs() <= 6,
            "static daemon tracks the curve: {actual} vs {expected} at {temp}°C"
        );
    }

    #[test]
    fn cpuspeed_daemon_changes_frequencies() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::cpuspeed());
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 250.0);
        // Burn alternates bursts and gaps; the governor must have reacted.
        assert!(
            ns.node.view().freq_transition_count() > 0,
            "CPUSPEED should transition on burn gaps"
        );
        assert!(!series(&ns).freq_events.is_empty());
    }

    #[test]
    fn tdvfs_daemon_scales_when_fan_capped() {
        let sc = scenario_with(
            FanScheme::dynamic(Policy::MODERATE, 20),
            DvfsScheme::tdvfs(Policy::MODERATE),
        );
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 280.0);
        // A 20 %-capped fan cannot hold burn below 51 °C, so tDVFS must have
        // scaled down at least once (it may legitimately have restored the
        // original frequency during a burn gap by the end of the run).
        assert!(ns.node.view().freq_transition_count() > 0, "tDVFS never engaged");
        assert!(
            series(&ns).freq_events.iter().any(|&(_, f)| f < 2400),
            "no scale-down recorded: {:?}",
            series(&ns).freq_events
        );
    }

    #[test]
    fn hybrid_scheme_runs_from_a_scenario() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::None)
            .with_scheme(SchemeSpec::hybrid(Policy::MODERATE, 20));
        let mut ns = NodeSim::build(&sc, 0);
        assert_eq!(ns.plane.labels(), vec!["dynamic-fan", "tdvfs"]);
        run(&mut ns, 280.0);
        // The capped hybrid fan saturates; coordination hands off to tDVFS.
        assert!(commanded_duty(&ns) >= 15, "fan arm engaged: {}", commanded_duty(&ns));
        assert!(
            series(&ns).freq_events.iter().any(|&(_, f)| f < 2400),
            "hybrid tDVFS arm never scaled down: {:?}",
            series(&ns).freq_events
        );
    }

    #[test]
    fn acpi_sleep_scheme_gates_the_cpu() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::None)
            .with_scheme(SchemeSpec::acpi_sleep(
                Policy::AGGRESSIVE,
                FanScheme::Constant { duty: 10 },
            ));
        let mut ns = NodeSim::build(&sc, 0);
        assert_eq!(ns.plane.labels(), vec!["constant-fan", "acpi-sleep"]);
        run(&mut ns, 280.0);
        // A 10 % fan cannot hold burn temperatures; the sleep controller
        // must have stepped out of C0 at some point.
        let daemon = ns
            .plane
            .daemon::<unitherm_core::control_plane::AcpiSleepDaemon>()
            .expect("sleep daemon attached");
        assert!(daemon.controller().stats().rounds > 0, "controller observed samples");
        assert!(
            ns.node.view().sleep_gate() < 1.0
                || daemon.current_state() != unitherm_core::acpi::SleepState::C0,
            "sleep controller never left C0 under a starved fan"
        );
    }

    #[test]
    fn recorder_captures_all_series() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 10.0);
        assert_eq!(series(&ns).temp.len(), 40);
        assert_eq!(series(&ns).duty.len(), 40);
        assert_eq!(series(&ns).freq.len(), 40);
        assert_eq!(series(&ns).power.len(), 40);
        assert_eq!(series(&ns).util.len(), 40);
    }

    #[test]
    fn events_and_counters_populate_under_dynamic_control() {
        let sc = scenario_with(FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 200.0);
        assert!(ns.counters.samples > 0);
        assert!(ns.counters.events_emitted > 0, "dynamic fan must emit mode changes");
        assert!(
            ns.counters.l1_decisions + ns.counters.l2_fallbacks > 0,
            "window decisions counted"
        );
        assert!(!ns.events.is_empty());
        assert!(ns.events.iter().all(|r| r.node == 0));
    }

    #[test]
    fn journal_receives_teed_events() {
        let sc = scenario_with(FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        let mut journal = unitherm_obs::VecSink::default();
        let dt = 0.05;
        for i in 0..4000usize {
            let _ = ns.tick_workload(dt);
            let now = (i + 1) as f64 * dt;
            ns.tick_hardware(dt, now, Some(&mut journal));
            if (i + 1) % 5 == 0 {
                ns.on_sample(now, Some(&mut journal));
            }
        }
        assert!(!journal.records.is_empty(), "journal captured the stream");
        assert_eq!(journal.records.len() as u64, ns.counters.events_emitted);
    }

    #[test]
    fn recording_can_be_disabled() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::None)
            .with_recording(false);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 10.0);
        assert!(ns.rec.series.is_none(), "a recording-off node allocates no series");
    }
}
