//! The assembled server node.
//!
//! A [`Node`] is the cold half of a simulated server — its configuration,
//! thermal sensors and their noise streams, fault schedule and log, and
//! the i2c bus's NACK latch and counters. The plant itself (die and sink
//! temperatures, fan, ADT7467 registers, CPU state, meter) lives in one
//! slot of a [`PhysicsBatch`]: a standalone node owns a one-slot batch,
//! and a cluster builds each node's plant straight into its shard's batch
//! ([`Node::in_slot`]). A [`NodeView`] joins the two halves and is the only
//! way to reach the plant, so every read and actuation acts on the slot in
//! place.
//!
//! The view exposes exactly the two control paths the paper's software
//! uses:
//!
//! * **out-of-band**: SMBus register transactions to the ADT7467
//!   ([`NodeView::smbus_read`] / [`NodeView::smbus_write`]) — the fan
//!   driver path,
//! * **in-band**: cpufreq-style frequency requests
//!   ([`NodeView::set_frequency_khz`]) and the lm-sensors-style sensor read
//!   ([`NodeView::read_sensor`]).
//!
//! Everything else (die temperature, fan RPM, power draw) is physics that
//! control software can only influence through those two paths, just like on
//! the real machine.

use serde::{Deserialize, Serialize};
use unitherm_metrics::RunningStats;

use crate::adt7467::Adt7467;
use crate::batch::{PhysicsBatch, COND_SHUTDOWN};
use crate::config::NodeConfig;
use crate::cpu::{InvalidFrequency, ThermalCondition};
use crate::fan;
use crate::faults::{FaultEvent, TickFaultSchedule};
use crate::i2c::{I2cBus, I2cError};
use crate::sensor::{SensorDropout, ThermalSensor};
use crate::units::{DutyCycle, MilliCelsius};

/// The 7-bit i2c address the ADT7467 occupies on the paper's motherboard
/// (the dBCool family responds at 0x2C–0x2E; we use 0x2E).
pub const ADT7467_ADDR: u8 = 0x2E;

/// Wall-meter sampling period in seconds (the Watts up? Pro samples at 1 Hz).
const METER_PERIOD_S: f64 = 1.0;

/// A point-in-time snapshot of the observable node state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    /// Simulation time in seconds.
    pub time_s: f64,
    /// True die temperature in °C (ground truth; controllers see the sensor).
    pub die_temp_c: f64,
    /// Heatsink temperature in °C.
    pub sink_temp_c: f64,
    /// Commanded fan duty cycle.
    pub fan_duty: DutyCycle,
    /// Actual fan speed in RPM.
    pub fan_rpm: f64,
    /// Effective CPU frequency in MHz (0 when shut down).
    pub freq_mhz: u32,
    /// CPU utilization in `[0, 1]`.
    pub utilization: f64,
    /// Instantaneous wall power in W.
    pub wall_power_w: f64,
    /// Hardware thermal-monitor condition.
    pub condition: ThermalCondition,
}

/// What a node holds besides its plant.
#[derive(Debug)]
struct Cold {
    cfg: NodeConfig,
    /// One DTS per core (index 0 is the coolest spot, the last the
    /// hottest); the paper's platform has exactly one.
    sensors: Vec<ThermalSensor>,
    /// The bus to the ADT7467, whose registers sit in the plant's slot.
    bus: I2cBus,
    /// The node's faults, by tick.
    faults: TickFaultSchedule,
    /// Every fault actually delivered, with the tick it landed on.
    /// Pre-reserved to the total scheduled count so steady-state ticks
    /// never allocate.
    fault_log: Vec<(u64, FaultEvent)>,
}

/// A simulated server node.
#[derive(Debug)]
pub struct Node {
    cold: Cold,
    /// The node's own one-slot plant; `None` when the plant lives in a
    /// slot of a shared batch ([`Node::in_slot`]).
    plant: Option<Box<PhysicsBatch>>,
}

impl Node {
    /// Builds a standalone node (with its own one-slot plant) from the
    /// configuration, pre-warmed to its idle operating point (CPU idle at
    /// top frequency, ADT7467 in automatic mode, thermal network settled).
    pub fn new(cfg: NodeConfig, seed: u64) -> Self {
        Self::with_faults(cfg, seed, TickFaultSchedule::none())
    }

    /// Builds a standalone node that delivers `faults`, each at the start
    /// of its tick.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`NodeConfig::validate`].
    pub fn with_faults(cfg: NodeConfig, seed: u64, faults: TickFaultSchedule) -> Self {
        let mut plant = Box::new(PhysicsBatch::with_len(1));
        let node = Self::in_slot(cfg, seed, faults, &mut plant, 0);
        Self { plant: Some(plant), ..node }
    }

    /// Builds a node whose plant lives in slot `slot` of `lanes`, pre-warmed
    /// like [`Node::new`] and delivering `faults` like
    /// [`Node::with_faults`]; the returned node holds only the cold parts.
    /// Reach the plant with [`Node::view_in`] on the same batch and slot.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`NodeConfig::validate`].
    pub fn in_slot(
        cfg: NodeConfig,
        seed: u64,
        faults: TickFaultSchedule,
        lanes: &mut PhysicsBatch,
        slot: usize,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid node config: {e}");
        }
        build_plant(lanes, slot, &cfg);
        let sensors = (0..cfg.sensor.count)
            .map(|i| {
                let mut per_sensor = cfg.sensor.clone();
                // Per-sensor hot-spot offset: sensor i sits i/(count−1) of
                // the spread above the lumped die temperature.
                if cfg.sensor.count > 1 {
                    per_sensor.offset_c +=
                        cfg.sensor.core_spread_c * i as f64 / (cfg.sensor.count - 1) as f64;
                }
                ThermalSensor::new(
                    per_sensor,
                    seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                )
            })
            .collect();
        let fault_log = Vec::with_capacity(faults.len());
        let cold = Cold { cfg, sensors, bus: I2cBus::new(ADT7467_ADDR), faults, fault_log };
        Self { cold, plant: None }
    }

    /// Every fault delivered so far, with the tick each landed on.
    pub fn fault_log(&self) -> &[(u64, FaultEvent)] {
        &self.cold.fault_log
    }

    /// True when this node has any scheduled faults. A batched simulation
    /// hooks such nodes so it can deliver their faults between lane ticks.
    pub fn has_fault_sources(&self) -> bool {
        !self.cold.faults.is_empty()
    }

    /// True when a fault is due at tick `tick`: what
    /// [`NodeView::deliver_due_faults`] would deliver on a plant at that
    /// tick.
    pub fn fault_due(&self, tick: u64) -> bool {
        self.cold.faults.has_due(tick)
    }

    /// The view of a standalone node: its cold parts with its own plant.
    ///
    /// # Panics
    /// Panics on a node built with [`Node::in_slot`]; use
    /// [`Node::view_in`] with its batch.
    pub fn view(&mut self) -> NodeView<'_> {
        let lanes = self.plant.as_deref_mut().expect("the node's plant lives in a shared batch");
        NodeView { cold: &mut self.cold, lanes, slot: 0 }
    }

    /// The view of a node whose plant lives in slot `slot` of `lanes`.
    pub fn view_in<'a>(&'a mut self, lanes: &'a mut PhysicsBatch, slot: usize) -> NodeView<'a> {
        NodeView { cold: &mut self.cold, lanes, slot }
    }

    /// Advances a standalone node by `dt_s` seconds: deliver due faults,
    /// then one tick of its one-slot batch (the fan controller evaluates —
    /// the chip sees the die temperature through its remote diode — then
    /// fan rotor dynamics, CPU heat into the thermal network, the hardware
    /// thermal monitor and power metering).
    pub fn tick(&mut self, dt_s: f64) {
        let mut view = self.view();
        view.lanes.begin_tick(dt_s);
        view.deliver_due_faults();
        view.lanes.tick_all(dt_s);
    }

    /// The node's own one-slot plant.
    pub(crate) fn plant(&self) -> &PhysicsBatch {
        self.plant.as_deref().expect("the node's plant lives in a shared batch")
    }

    /// The node's own one-slot plant, mutably.
    pub(crate) fn plant_mut(&mut self) -> &mut PhysicsBatch {
        self.plant.as_deref_mut().expect("the node's plant lives in a shared batch")
    }
}

/// Builds a node's plant into slot `i` of `lanes` from `cfg`, pre-warmed to
/// the idle fixed point of (temperature, automatic-curve duty).
fn build_plant(lanes: &mut PhysicsBatch, i: usize, cfg: &NodeConfig) {
    let t = &cfg.thermal;
    lanes.ambient_c[i] = t.ambient_c;
    lanes.g_ds[i] = t.die_sink_conductance_w_per_k;
    lanes.c_die[i] = t.die_capacity_j_per_k;
    lanes.c_sink[i] = t.sink_capacity_j_per_k;
    lanes.g_nat[i] = t.natural_conductance_w_per_k;
    lanes.g_air[i] = t.airflow_conductance_w_per_k;
    lanes.k_exp[i] = t.airflow_exponent;

    let f = &cfg.fan;
    lanes.fan_max_rpm[i] = f.max_rpm;
    lanes.fan_stall[i] = f.stall_fraction;
    lanes.fan_tau[i] = f.time_constant_s;
    lanes.fan_max_w[i] = f.max_power_w;

    let c = &cfg.cpu;
    let top = c.pstates[0];
    let min = *c.pstates.last().expect("non-empty pstates");
    lanes.top_v[i] = top.voltage_v;
    lanes.top_f[i] = f64::from(top.freq_mhz);
    lanes.req_idx[i] = 0;
    lanes.req_v[i] = top.voltage_v;
    lanes.req_f[i] = f64::from(top.freq_mhz);
    lanes.min_v[i] = min.voltage_v;
    lanes.min_f[i] = f64::from(min.freq_mhz);
    lanes.leak_ref_w[i] = c.leakage_power_ref_w;
    lanes.leak_coeff[i] = c.leakage_temp_coeff_per_k;
    lanes.leak_tref[i] = c.leakage_ref_temp_c;
    lanes.dyn_max_w[i] = c.dynamic_power_max_w;
    lanes.mon_throttle_c[i] = c.emergency_throttle_c;
    lanes.mon_shutdown_c[i] = c.emergency_shutdown_c;
    lanes.mon_hyst_c[i] = c.emergency_hysteresis_c;

    lanes.psu_eff[i] = cfg.board.psu_efficiency;
    lanes.base_w[i] = cfg.board.base_power_w;
    lanes.m_period[i] = METER_PERIOD_S;

    // The idle fixed point of (temperature, auto-curve duty): iterate the
    // steady-state map a few times; it is a contraction.
    let idle_power = lanes.cpu_power_w(i, t.ambient_c + 15.0);
    let mut chip = Adt7467::new(lanes, i);
    chip.power_on();
    let mut duty = chip.commanded_duty();
    for _ in 0..8 {
        let (die, _) = t.steady_state(idle_power, duty.fraction());
        duty = chip.static_curve_duty(die);
    }
    let (die, sink) = t.steady_state(idle_power, duty.fraction());
    chip.set_measured_temp_c(die);
    lanes.die_c[i] = die;
    lanes.sink_c[i] = sink;
    lanes.fan_duty_pct[i] = duty.percent();
    lanes.fan_rpm[i] = fan::target_rpm_raw(false, duty.fraction(), f.stall_fraction, f.max_rpm);
}

/// A node seen whole: its cold parts joined with its plant's batch slot.
/// Every read of the plant and every actuation — sensor reads, SMBus
/// register transactions, cpufreq and sleep-gate requests, fault delivery
/// — goes through here and acts on the slot in place.
#[derive(Debug)]
pub struct NodeView<'a> {
    cold: &'a mut Cold,
    lanes: &'a mut PhysicsBatch,
    slot: usize,
}

impl NodeView<'_> {
    /// Simulation time in seconds.
    pub fn time_s(&self) -> f64 {
        self.lanes.time_s
    }

    /// Ticks elapsed (the first tick is tick 1).
    pub fn ticks(&self) -> u64 {
        self.lanes.ticks
    }

    /// Delivers every fault due at the plant's current tick, in schedule
    /// order, each logged. Returns true when any fault landed. Call after
    /// the batch's [`PhysicsBatch::begin_tick`] and before its
    /// [`PhysicsBatch::tick_all`].
    pub fn deliver_due_faults(&mut self) -> bool {
        let before = self.cold.fault_log.len();
        while let Some(ev) = self.cold.faults.pop_due(self.lanes.ticks) {
            self.apply_fault(ev);
        }
        self.cold.fault_log.len() > before
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        let (cold, l, i) = (&mut *self.cold, &mut *self.lanes, self.slot);
        cold.fault_log.push((l.ticks, ev));
        match ev {
            FaultEvent::FanFailure => l.fan_failed[i] = true,
            FaultEvent::FanRepair => l.fan_failed[i] = false,
            // Sensor dropouts model the polling path failing (bus or hub),
            // which takes every DTS with it.
            FaultEvent::SensorDropout => cold.sensors.iter_mut().for_each(|s| s.drop_out()),
            FaultEvent::SensorRestore => cold.sensors.iter_mut().for_each(|s| s.restore()),
            FaultEvent::I2cFailure => cold.bus.inject_nack(true),
            FaultEvent::I2cRecovery => cold.bus.inject_nack(false),
            // An HVAC event or a hot spot forming in the rack.
            FaultEvent::AmbientStep(t) => {
                assert!(t.is_finite(), "ambient temperature must be finite");
                l.ambient_c[i] = t;
            }
            // A wedged controller output stage: the rotor keeps spinning
            // at the latched duty, and duty commands are ignored until the
            // release.
            FaultEvent::PwmStuck => l.fan_stuck[i] = true,
            FaultEvent::PwmRelease => l.fan_stuck[i] = false,
            FaultEvent::SensorJitter(std) => {
                cold.sensors.iter_mut().for_each(|s| s.set_extra_jitter(std));
            }
        }
    }

    // ---- in-band control path (cpufreq / lm-sensors style) ----

    /// Reads the primary die thermal sensor (noisy, quantized), as
    /// lm-sensors would.
    pub fn read_sensor(&mut self) -> Result<MilliCelsius, SensorDropout> {
        self.read_sensor_at(0)
    }

    /// Number of on-die thermal sensors.
    pub fn sensor_count(&self) -> usize {
        self.cold.sensors.len()
    }

    /// Reads sensor `idx` (0-based).
    ///
    /// # Panics
    /// Panics if `idx` is out of range — enumerate with
    /// [`NodeView::sensor_count`] first; a wrong index is a driver bug.
    pub fn read_sensor_at(&mut self, idx: usize) -> Result<MilliCelsius, SensorDropout> {
        let die = self.die_temp_c();
        let n = self.cold.sensors.len();
        self.cold
            .sensors
            .get_mut(idx)
            .unwrap_or_else(|| panic!("sensor index {idx} out of range (count {n})"))
            .read(die)
    }

    /// Reads every sensor and returns the hottest reading — the aggregation
    /// thermal controllers should act on for multi-core parts. Fails only
    /// when *no* sensor responds.
    pub fn read_hottest_sensor(&mut self) -> Result<MilliCelsius, SensorDropout> {
        let die = self.die_temp_c();
        self.cold.sensors.iter_mut().filter_map(|s| s.read(die).ok()).max().ok_or(SensorDropout)
    }

    /// Available DVFS frequencies in kHz, descending (cpufreq
    /// `scaling_available_frequencies`).
    pub fn available_frequencies_khz(&self) -> Vec<u32> {
        self.cold.cfg.cpu.pstates.iter().map(|p| p.freq_khz()).collect()
    }

    /// Requests a DVFS frequency in kHz (cpufreq `scaling_setspeed`).
    ///
    /// Returns `true` when this changed the requested P-state (and counts a
    /// frequency transition). Requests for unavailable frequencies are
    /// rejected with `Err` carrying the list of valid frequencies.
    pub fn set_frequency_khz(&mut self, khz: u32) -> Result<bool, InvalidFrequency> {
        let freq_mhz = khz / 1000;
        let pstates = &self.cold.cfg.cpu.pstates;
        let idx = pstates.iter().position(|p| p.freq_mhz == freq_mhz).ok_or_else(|| {
            InvalidFrequency {
                requested_mhz: freq_mhz,
                available_mhz: pstates.iter().map(|p| p.freq_mhz).collect(),
            }
        })?;
        let (l, i) = (&mut *self.lanes, self.slot);
        if idx == l.req_idx[i] {
            return Ok(false);
        }
        l.req_idx[i] = idx;
        l.req_v[i] = pstates[idx].voltage_v;
        l.req_f[i] = f64::from(pstates[idx].freq_mhz);
        l.freq_transitions[i] += 1;
        Ok(true)
    }

    /// Currently requested frequency in kHz (cpufreq `scaling_cur_freq`
    /// reports the governor request; hardware throttling is separate).
    pub fn requested_frequency_khz(&self) -> u32 {
        self.cold.cfg.cpu.pstates[self.lanes.req_idx[self.slot]].freq_khz()
    }

    /// Sets the CPU's ACPI sleep-state gate: the fraction of nominal power
    /// (and execution speed) the package retains, 1.0 for C0 down toward 0
    /// for deep sleep, clamped to `[0, 1]`. The in-band path an ACPI sleep
    /// daemon actuates through.
    pub fn set_sleep_gate(&mut self, gate: f64) {
        assert!(gate.is_finite(), "sleep gate must be finite");
        self.lanes.sleep_gate[self.slot] = gate.clamp(0.0, 1.0);
    }

    /// Current ACPI sleep-state gate in `[0, 1]`.
    pub fn sleep_gate(&self) -> f64 {
        self.lanes.sleep_gate[self.slot]
    }

    /// CPU utilization over the last tick, `[0, 1]` — what a daemon would
    /// derive from `/proc/stat`.
    pub fn utilization(&self) -> f64 {
        self.lanes.util[self.slot]
    }

    // ---- out-of-band control path (i2c fan driver style) ----

    /// SMBus byte read from a device on the node's i2c bus.
    pub fn smbus_read(&mut self, addr: u8, reg: u8) -> Result<u8, I2cError> {
        let mut chip = Adt7467::new(self.lanes, self.slot);
        self.cold.bus.read_byte(&mut chip, addr, reg)
    }

    /// SMBus byte write to a device on the node's i2c bus.
    pub fn smbus_write(&mut self, addr: u8, reg: u8, value: u8) -> Result<(), I2cError> {
        let mut chip = Adt7467::new(self.lanes, self.slot);
        self.cold.bus.write_byte(&mut chip, addr, reg, value)
    }

    /// The ADT7467's register file, bypassing the bus (simulator internal
    /// use: curve inspection and the Figure-1 sweep).
    pub fn chip(&mut self) -> Adt7467<'_> {
        Adt7467::new(self.lanes, self.slot)
    }

    // ---- workload / simulator-internal access ----

    /// Sets CPU utilization for the next tick (driven by the workload
    /// model); activity follows utilization.
    pub fn set_utilization(&mut self, u: f64) {
        self.set_load(u, u);
    }

    /// Sets the OS-visible utilization and the switching-activity factor
    /// separately (both clamped to `[0, 1]`). Utilization is what a
    /// governor observes; activity is what scales dynamic power.
    pub fn set_load(&mut self, utilization: f64, activity: f64) {
        self.lanes.set_load(self.slot, utilization, activity);
    }

    /// Relative execution speed vs. the top P-state (workload progress
    /// multiplier; 0 when shut down).
    pub fn speed_factor(&self) -> f64 {
        self.lanes.speed_factor(self.slot)
    }

    /// Ground-truth die temperature (for plots; controllers must use
    /// [`NodeView::read_sensor`]).
    pub fn die_temp_c(&self) -> f64 {
        self.lanes.die_c[self.slot]
    }

    /// Commanded fan duty cycle.
    pub fn fan_duty(&self) -> DutyCycle {
        DutyCycle::new(self.lanes.fan_duty_pct[self.slot])
    }

    /// True when the fan rotor has seized.
    pub fn is_fan_failed(&self) -> bool {
        self.lanes.fan_failed[self.slot]
    }

    /// True while the fan's PWM line is stuck.
    pub fn is_pwm_stuck(&self) -> bool {
        self.lanes.fan_stuck[self.slot]
    }

    /// Current thermal condition.
    pub fn condition(&self) -> ThermalCondition {
        self.lanes.condition(self.slot)
    }

    /// True once the die crossed the shutdown threshold.
    pub fn is_shut_down(&self) -> bool {
        self.lanes.cpu_cond[self.slot] == COND_SHUTDOWN
    }

    /// Number of accepted frequency transitions since construction
    /// (Table 1's "# freq changes" column).
    pub fn freq_transition_count(&self) -> u64 {
        self.lanes.freq_transitions[self.slot]
    }

    /// Number of times the hardware thermal monitor engaged.
    pub fn throttle_event_count(&self) -> u64 {
        self.lanes.throttle_events[self.slot]
    }

    /// Total wall energy the meter observed, in joules.
    pub fn energy_j(&self) -> f64 {
        self.lanes.m_total_e[self.slot]
    }

    /// True average wall power over the whole observation, in watts.
    pub fn average_power_w(&self) -> f64 {
        let (e, t) = (self.lanes.m_total_e[self.slot], self.lanes.m_total_t[self.slot]);
        if t > 0.0 {
            e / t
        } else {
            0.0
        }
    }

    /// Statistics over the meter's emitted 1 Hz samples.
    pub fn meter_samples(&self) -> RunningStats {
        self.lanes.m_stats[self.slot]
    }

    /// Heat currently dissipated into the air by this node, W (DC side:
    /// CPU + fan + board; PSU losses are dumped at the wall, outside the
    /// rack airflow model's control volume).
    pub fn heat_output_w(&self) -> f64 {
        self.lanes.heat_w(self.slot)
    }

    /// Instantaneous wall power in W.
    pub fn wall_power_w(&self) -> f64 {
        self.heat_output_w() / self.lanes.psu_eff[self.slot]
    }

    /// Full observable state snapshot.
    pub fn state(&self) -> NodeState {
        let (l, i) = (&*self.lanes, self.slot);
        let freq_mhz = match l.condition(i) {
            ThermalCondition::ShutDown => 0.0,
            ThermalCondition::Throttled => l.min_f[i],
            ThermalCondition::Nominal => l.req_f[i],
        };
        NodeState {
            time_s: l.time_s,
            die_temp_c: l.die_c[i],
            sink_temp_c: l.sink_c[i],
            fan_duty: self.fan_duty(),
            fan_rpm: l.fan_rpm[i],
            freq_mhz: freq_mhz as u32,
            utilization: l.util[i],
            wall_power_w: self.wall_power_w(),
            condition: l.condition(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt7467::{regs, PwmMode};

    fn node() -> Node {
        Node::new(NodeConfig::default(), 7)
    }

    fn run(node: &mut Node, seconds: f64) {
        let dt = 0.05;
        let steps = (seconds / dt).round() as usize;
        for _ in 0..steps {
            node.tick(dt);
        }
    }

    #[test]
    fn starts_settled_at_idle() {
        let mut n = node();
        let t0 = n.view().die_temp_c();
        run(&mut n, 60.0);
        assert!(
            (n.view().die_temp_c() - t0).abs() < 1.5,
            "idle node should stay settled: {t0} → {}",
            n.view().die_temp_c()
        );
        assert!((30.0..45.0).contains(&t0), "idle operating point {t0}");
    }

    #[test]
    fn auto_fan_responds_to_load() {
        let mut n = node();
        let duty0 = n.view().state().fan_duty;
        n.view().set_utilization(1.0);
        run(&mut n, 300.0);
        let s = n.view().state();
        assert!(s.die_temp_c > 45.0, "loaded die heats up: {}", s.die_temp_c);
        assert!(s.fan_duty > duty0, "auto mode speeds the fan up: {} → {}", duty0, s.fan_duty);
    }

    #[test]
    fn auto_fan_keeps_burn_out_of_emergency() {
        // The stock automatic curve must hold cpu-burn below the 70 °C
        // hardware throttle (it ramps to 100 % duty well before that).
        let mut n = node();
        n.view().set_utilization(1.0);
        run(&mut n, 600.0);
        assert!(n.view().die_temp_c() < 70.0, "auto-controlled burn at {}", n.view().die_temp_c());
        assert_eq!(n.view().throttle_event_count(), 0);
    }

    #[test]
    fn manual_stalled_fan_burn_throttles_then_shuts_down() {
        let mut n = node();
        // Switch chip to manual, command a duty below the stall threshold
        // (the rotor stops) and run cpu-burn: the die runs away, the
        // hardware monitor throttles — and with only natural convection even
        // the lowest P-state cannot dissipate the heat, so the node
        // ultimately shuts down. This is the "loss of availability" failure
        // mode the paper's introduction warns about.
        n.view().smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1).unwrap();
        n.view()
            .smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, DutyCycle::new(2).to_register())
            .unwrap();
        n.view().set_utilization(1.0);
        run(&mut n, 900.0);
        assert!(n.view().throttle_event_count() > 0, "expected a thermal emergency");
        assert!(n.view().is_shut_down(), "dead fan under sustained burn is fatal");
        assert_eq!(n.view().state().condition, ThermalCondition::ShutDown);
        // A shut-down node cools back toward ambient.
        assert!(n.view().die_temp_c() < 70.0, "cooling after shutdown: {}", n.view().die_temp_c());
    }

    #[test]
    fn smbus_path_controls_fan() {
        let mut n = node();
        n.view().smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1).unwrap();
        n.view()
            .smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, DutyCycle::new(80).to_register())
            .unwrap();
        run(&mut n, 10.0);
        assert_eq!(n.view().state().fan_duty.percent(), 80);
        assert!((n.view().state().fan_rpm - 0.8 * 4300.0).abs() < 50.0);
        let mode = n.view().smbus_read(ADT7467_ADDR, regs::PWM_CONFIG).unwrap();
        assert_eq!(mode, 1);
        let chip_duty = n.view().smbus_read(ADT7467_ADDR, regs::PWM_CURRENT).unwrap();
        assert_eq!(DutyCycle::from_register(chip_duty).percent(), 80);
    }

    #[test]
    fn cpufreq_path_scales_frequency_and_power() {
        let mut n = node();
        n.view().set_utilization(1.0);
        run(&mut n, 120.0);
        let hot = n.view().wall_power_w();
        assert_eq!(
            n.view().available_frequencies_khz(),
            vec![2_400_000, 2_200_000, 2_000_000, 1_800_000, 1_000_000]
        );
        n.view().set_frequency_khz(1_000_000).unwrap();
        assert_eq!(n.view().requested_frequency_khz(), 1_000_000);
        run(&mut n, 120.0);
        let cool = n.view().wall_power_w();
        assert!(cool < hot - 20.0, "downscaled power {cool} vs {hot}");
        assert!((n.view().speed_factor() - 1.0 / 2.4).abs() < 1e-9);
        assert!(n.view().set_frequency_khz(1_234_000).is_err());
    }

    #[test]
    fn sensor_reads_track_die() {
        let mut n = node();
        n.view().set_utilization(1.0);
        run(&mut n, 200.0);
        let reading = n.view().read_sensor().unwrap().to_celsius();
        assert!((reading - n.view().die_temp_c()).abs() < 2.0);
    }

    #[test]
    fn fan_failure_causes_runaway_and_throttle() {
        let faults = TickFaultSchedule::none().at_tick(200, FaultEvent::FanFailure);
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        n.view().set_utilization(1.0);
        run(&mut n, 600.0);
        assert!(n.view().is_fan_failed());
        assert_eq!(n.view().state().fan_rpm, 0.0);
        assert!(
            n.view().throttle_event_count() > 0,
            "dead fan under burn must trigger the thermal monitor (T={})",
            n.view().die_temp_c()
        );
    }

    #[test]
    fn sensor_dropout_fault_blocks_reads() {
        let faults = TickFaultSchedule::none()
            .at_tick(20, FaultEvent::SensorDropout)
            .at_tick(40, FaultEvent::SensorRestore);
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        run(&mut n, 1.5);
        assert!(n.view().read_sensor().is_err());
        run(&mut n, 1.0);
        assert!(n.view().read_sensor().is_ok());
    }

    #[test]
    fn i2c_fault_blocks_smbus() {
        let faults = TickFaultSchedule::none().at_tick(20, FaultEvent::I2cFailure);
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        run(&mut n, 2.0);
        assert!(matches!(
            n.view().smbus_read(ADT7467_ADDR, regs::PWM_CURRENT),
            Err(I2cError::Nack { .. })
        ));
    }

    #[test]
    fn ambient_step_heats_node() {
        let faults = TickFaultSchedule::none().at_tick(100, FaultEvent::AmbientStep(35.0));
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        let before = n.view().die_temp_c();
        run(&mut n, 600.0);
        assert!(n.view().die_temp_c() > before + 5.0, "{} → {}", before, n.view().die_temp_c());
    }

    #[test]
    fn tick_faults_land_on_their_exact_tick_and_are_logged() {
        let faults = TickFaultSchedule::none()
            .at_tick(10, FaultEvent::PwmStuck)
            .at_tick(20, FaultEvent::SensorJitter(1.5))
            .at_tick(30, FaultEvent::PwmRelease);
        let mut n = Node::with_faults(NodeConfig::default(), 7, faults);
        for _ in 0..9 {
            n.tick(0.05);
        }
        assert!(!n.view().is_pwm_stuck(), "nothing delivered before tick 10");
        assert!(n.fault_log().is_empty());
        n.tick(0.05);
        assert!(n.view().is_pwm_stuck(), "PwmStuck delivered on tick 10 exactly");
        assert_eq!(n.fault_log(), &[(10, FaultEvent::PwmStuck)]);
        for _ in 0..20 {
            n.tick(0.05);
        }
        assert!(!n.view().is_pwm_stuck(), "released on tick 30");
        assert_eq!(n.view().ticks(), 30);
        assert_eq!(
            n.fault_log(),
            &[
                (10, FaultEvent::PwmStuck),
                (20, FaultEvent::SensorJitter(1.5)),
                (30, FaultEvent::PwmRelease),
            ]
        );
    }

    #[test]
    fn faults_sharing_a_tick_deliver_in_schedule_order() {
        let faults = TickFaultSchedule::none()
            .at_tick(5, FaultEvent::SensorDropout)
            .at_tick(5, FaultEvent::FanFailure);
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        assert!(n.has_fault_sources());
        for _ in 0..4 {
            n.tick(0.05);
        }
        assert!(n.fault_due(5), "both wait for tick 5");
        n.tick(0.05);
        assert!(!n.fault_due(u64::MAX), "nothing left after delivery");
        assert_eq!(n.fault_log(), &[(5, FaultEvent::SensorDropout), (5, FaultEvent::FanFailure)]);
    }

    #[test]
    fn sensor_jitter_fault_degrades_then_recovers_readings() {
        let mut a = node();
        let mut b = Node::with_faults(
            NodeConfig::default(),
            7,
            TickFaultSchedule::none()
                .at_tick(1, FaultEvent::SensorJitter(5.0))
                .at_tick(50, FaultEvent::SensorJitter(0.0)),
        );
        let mut diverged = false;
        for _ in 0..49 {
            a.tick(0.05);
            b.tick(0.05);
            if a.view().read_sensor() != b.view().read_sensor() {
                diverged = true;
            }
        }
        assert!(diverged, "5 °C jitter must perturb readings");
        a.tick(0.05);
        b.tick(0.05);
        // Same seed, same draw count per read: once the jitter clears the
        // two nodes read identically again.
        assert_eq!(a.view().read_sensor(), b.view().read_sensor());
    }

    #[test]
    fn wall_power_in_table1_range_under_load() {
        // Table 1 reports ≈ 93–101 W per node for BT; check cpu-burn with a
        // mid fan duty lands in that neighbourhood.
        let mut n = node();
        n.view().smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1).unwrap();
        n.view()
            .smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, DutyCycle::new(50).to_register())
            .unwrap();
        n.view().set_utilization(1.0);
        run(&mut n, 400.0);
        let p = n.view().wall_power_w();
        assert!((85.0..115.0).contains(&p), "loaded wall power {p}");
    }

    #[test]
    fn meter_average_accumulates() {
        let mut n = node();
        n.view().set_utilization(0.5);
        run(&mut n, 30.0);
        let avg = n.view().average_power_w();
        assert!(avg > 40.0, "meter average {avg}");
        assert!(n.view().meter_samples().count() >= 29);
    }

    #[test]
    fn default_chip_mode_is_automatic() {
        let mut n = node();
        let mode = n.view().smbus_read(ADT7467_ADDR, regs::PWM_CONFIG).unwrap();
        assert_eq!(mode, 0, "chip boots in automatic mode");
        // The fan duty at boot reflects the automatic curve, not a manual
        // command — confirming PwmMode::Automatic semantics end to end.
        let die = n.view().die_temp_c();
        assert_eq!(n.view().chip().mode(), PwmMode::Automatic);
        let expected = n.view().chip().static_curve_duty(die);
        let actual = n.view().state().fan_duty;
        assert!(
            (i32::from(actual.percent()) - i32::from(expected.percent())).abs() <= 2,
            "boot duty {actual} vs curve {expected} ({:?})",
            PwmMode::Automatic
        );
    }

    #[test]
    fn multi_sensor_hottest_aggregation() {
        let mut cfg = NodeConfig::default();
        cfg.sensor.count = 4;
        cfg.sensor.core_spread_c = 3.0;
        cfg.sensor.noise_std_c = 0.0;
        cfg.sensor.quantization_c = 0.0;
        let mut n = Node::new(cfg, 21);
        assert_eq!(n.view().sensor_count(), 4);
        let die = n.view().die_temp_c();
        // Sensor offsets step 0, 1, 2, 3 °C above the lumped die temp.
        for i in 0..4 {
            let r = n.view().read_sensor_at(i).unwrap().to_celsius();
            assert!((r - (die + i as f64)).abs() < 1e-3, "sensor {i}: {r} vs die {die}");
        }
        let hottest = n.view().read_hottest_sensor().unwrap().to_celsius();
        assert!((hottest - (die + 3.0)).abs() < 1e-3, "hottest {hottest}");
    }

    #[test]
    fn hottest_survives_partial_information() {
        // With noise the hottest read is max over noisy sensors: it is at
        // least the primary sensor's reading on average.
        let mut cfg = NodeConfig::default();
        cfg.sensor.count = 2;
        let mut n = Node::new(cfg, 22);
        let mut hot_sum = 0.0;
        let mut primary_sum = 0.0;
        for _ in 0..200 {
            n.tick(0.05);
            hot_sum += n.view().read_hottest_sensor().unwrap().to_celsius();
            primary_sum += n.view().read_sensor().unwrap().to_celsius();
        }
        assert!(hot_sum > primary_sum, "hottest aggregation must dominate");
    }

    #[test]
    fn sensor_dropout_takes_all_sensors() {
        let mut cfg = NodeConfig::default();
        cfg.sensor.count = 3;
        let faults = TickFaultSchedule::none().at_tick(20, FaultEvent::SensorDropout);
        let mut n = Node::with_faults(cfg, 23, faults);
        run(&mut n, 2.0);
        assert!(n.view().read_hottest_sensor().is_err(), "no sensor should respond");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sensor_index_out_of_range_panics() {
        let mut n = node();
        let _ = n.view().read_sensor_at(5);
    }

    #[test]
    fn stuck_pwm_freezes_duty_until_release() {
        let mut n = Node::with_faults(
            NodeConfig::default(),
            7,
            TickFaultSchedule::none()
                .at_tick(200, FaultEvent::PwmStuck)
                .at_tick(401, FaultEvent::PwmRelease),
        );
        let duty = |n: &mut Node, pct: u8| {
            n.view().smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, DutyCycle::new(pct).to_register())
        };
        n.view().smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1).unwrap();
        duty(&mut n, 40).unwrap();
        run(&mut n, 10.0);
        assert!(n.view().is_pwm_stuck());
        duty(&mut n, 100).unwrap();
        run(&mut n, 10.0);
        assert_eq!(n.view().state().fan_duty.percent(), 40, "stuck PWM ignores commands");
        assert!((n.view().state().fan_rpm - 0.4 * 4300.0).abs() < 5.0, "rotor holds the duty");
        run(&mut n, 20.0);
        assert!(!n.view().is_pwm_stuck());
        assert_eq!(n.view().state().fan_duty.percent(), 100, "released fan tracks commands");
        assert!((n.view().state().fan_rpm - 4300.0).abs() < 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dt() {
        node().tick(0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = node();
        let mut b = node();
        a.view().set_utilization(0.8);
        b.view().set_utilization(0.8);
        run(&mut a, 50.0);
        run(&mut b, 50.0);
        assert_eq!(a.view().state(), b.view().state());
        assert_eq!(a.view().read_sensor(), b.view().read_sensor());
    }
}
