//! Structure-of-arrays physics batch: how a cluster ticks every node.
//!
//! [`PhysicsBatch`] owns the *hot* per-node scalar state — die/sink
//! temperatures, fan duty and RPM, CPU utilization/activity, thermal-monitor
//! condition, meter accumulators — as contiguous lanes (`Vec<f64>`,
//! `Vec<u8>`, …), so the per-tick RC-thermal update, CMOS power evaluation
//! and fan response run as tight loops over slices instead of chasing
//! pointers through a `Vec` of ~kilobyte node structs. The *cold* state
//! (control planes, recorders, fault plans, journals) stays in the scalar
//! [`Node`] and its owner; the two sides meet at explicit [`load`] /
//! [`store`] sync points.
//!
//! # Bit-identical by construction
//!
//! Every arithmetic step of a lane tick delegates to the same
//! `pub(crate)` raw functions the scalar path uses ([`thermal::euler_raw`],
//! [`cpu::power_raw`], [`fan::step_raw`], [`power::observe_raw`],
//! [`adt7467::static_curve_duty_raw`]) with operands in the same order.
//! What depends only on the step and a slot's configuration — the rotor-lag
//! coefficient and, for every slot that is not stiff, the RC sub-step split
//! ([`thermal::fixed_substeps_raw`] proves it constant) — is derived once
//! per step length and slot instead of once per tick. A batched tick
//! therefore produces *the same f64 bits* as [`Node::tick`] on every lane —
//! pinned by this module's tests against [`Node::tick`] and by the
//! cluster's report digests recorded from the scalar tick.
//!
//! # Hooked nodes
//!
//! Every node has a slot, and [`tick_all`] advances every slot on every
//! tick: it is the only physics a cluster runs. What the lanes do not
//! model — per-tick control daemons and fault
//! delivery — runs on the scalar [`Node`] between lane ticks: the owner
//! [`store`]s the slot, lets the daemon or fault act on the node, and
//! re-syncs the slot with [`reload_control`] (or a full [`load`] after a
//! fault, which may touch any lane) before the next [`tick_all`].
//!
//! [`load`]: PhysicsBatch::load
//! [`store`]: PhysicsBatch::store
//! [`tick_all`]: PhysicsBatch::tick_all
//! [`reload_control`]: PhysicsBatch::reload_control
//! [`Node::tick`]: crate::node::Node::tick
//! [`thermal::euler_raw`]: crate::thermal
//! [`thermal::fixed_substeps_raw`]: crate::thermal
//! [`cpu::power_raw`]: crate::cpu
//! [`fan::step_raw`]: crate::fan
//! [`power::observe_raw`]: crate::power
//! [`adt7467::static_curve_duty_raw`]: crate::adt7467

use unitherm_metrics::RunningStats;

use crate::adt7467::{self, PwmMode};
use crate::cpu::{self, ThermalCondition};
use crate::fan;
use crate::node::Node;
use crate::power;
use crate::thermal;
use crate::units::DutyCycle;

/// Lane encoding of [`ThermalCondition`].
const COND_NOMINAL: u8 = 0;
const COND_THROTTLED: u8 = 1;
const COND_SHUTDOWN: u8 = 2;

#[inline]
fn cond_to_u8(c: ThermalCondition) -> u8 {
    match c {
        ThermalCondition::Nominal => COND_NOMINAL,
        ThermalCondition::Throttled => COND_THROTTLED,
        ThermalCondition::ShutDown => COND_SHUTDOWN,
    }
}

#[inline]
fn cond_from_u8(c: u8) -> ThermalCondition {
    match c {
        COND_NOMINAL => ThermalCondition::Nominal,
        COND_THROTTLED => ThermalCondition::Throttled,
        _ => ThermalCondition::ShutDown,
    }
}

/// Structure-of-arrays mirror of the hot physics state of a node range.
///
/// See the [module docs](self) for the hot/cold split and the determinism
/// contract. Indices are positions within the owning range (a shard's
/// contiguous slice of the fleet), not global node ids.
#[derive(Debug, Default)]
pub struct PhysicsBatch {
    len: usize,
    /// Ticks elapsed — advances in lockstep with every member node.
    ticks: u64,
    /// Simulation time — accumulates `+= dt` exactly like each `Node`.
    time_s: f64,
    /// The step the per-step constants (`fan_alpha`, `sub_n`, `sub_h`) were
    /// derived for; 0 until the first tick.
    dt_s: f64,
    /// Batched ticks not yet flushed into per-node skip counters.
    skipped: Vec<u64>,

    // --- thermal lanes (state + config + per-step constants) ---
    die_c: Vec<f64>,
    sink_c: Vec<f64>,
    ambient_c: Vec<f64>,
    g_ds: Vec<f64>,
    c_die: Vec<f64>,
    c_sink: Vec<f64>,
    g_nat: Vec<f64>,
    g_air: Vec<f64>,
    k_exp: Vec<f64>,
    /// Sub-steps per tick, or 0 for a slot whose split is re-derived every
    /// tick (stiff, or more sub-steps than a `u32` holds).
    sub_n: Vec<u32>,
    /// Sub-step length in seconds where `sub_n` is not 0.
    sub_h: Vec<f64>,

    // --- fan lanes ---
    fan_duty_pct: Vec<u8>,
    fan_rpm: Vec<f64>,
    fan_failed: Vec<bool>,
    fan_stuck: Vec<bool>,
    fan_max_rpm: Vec<f64>,
    fan_stall: Vec<f64>,
    fan_tau: Vec<f64>,
    fan_max_w: Vec<f64>,
    fan_alpha: Vec<f64>,

    // --- ADT7467 lanes ---
    chip_auto: Vec<bool>,
    chip_measured: Vec<f64>,
    chip_pwm: Vec<u8>,
    chip_pwm_min: Vec<u8>,
    chip_pwm_max: Vec<u8>,
    chip_tmin: Vec<u8>,
    chip_tmax: Vec<u8>,

    // --- CPU lanes ---
    cpu_cond: Vec<u8>,
    throttle_events: Vec<u64>,
    util: Vec<f64>,
    activity: Vec<f64>,
    sleep_gate: Vec<f64>,
    top_v: Vec<f64>,
    top_f: Vec<f64>,
    /// Index into the node's P-state table of the requested P-state that
    /// `req_v`/`req_f` hold, so a sample reload reads the table only when a
    /// daemon changed the request.
    req_idx: Vec<usize>,
    req_v: Vec<f64>,
    req_f: Vec<f64>,
    min_v: Vec<f64>,
    min_f: Vec<f64>,
    leak_ref_w: Vec<f64>,
    leak_coeff: Vec<f64>,
    leak_tref: Vec<f64>,
    dyn_max_w: Vec<f64>,
    mon_throttle_c: Vec<f64>,
    mon_shutdown_c: Vec<f64>,
    mon_hyst_c: Vec<f64>,

    // --- meter / board lanes ---
    psu_eff: Vec<f64>,
    base_w: Vec<f64>,
    m_period: Vec<f64>,
    m_since: Vec<f64>,
    m_window: Vec<f64>,
    m_total_e: Vec<f64>,
    m_total_t: Vec<f64>,
    m_stats: Vec<RunningStats>,
    m_last: Vec<Option<f64>>,

    /// Scratch lane: per-slot CPU power for the current tick, filled by the
    /// CPU pass of [`PhysicsBatch::tick_all`] and consumed by the thermal
    /// and meter passes. Not part of any node's state.
    cpu_power: Vec<f64>,
    /// Scratch lane: per-slot sink-to-ambient conductance for the current
    /// tick, written and read by the thermal pass.
    g_sa: Vec<f64>,
}

impl PhysicsBatch {
    /// Builds a batch mirroring `nodes`, loading every slot.
    ///
    /// All nodes must share the same tick count and simulation time (the
    /// fleet advances in lockstep); the batch adopts them.
    pub fn from_nodes<'a, I>(nodes: I) -> Self
    where
        I: IntoIterator<Item = &'a Node>,
    {
        let mut b = Self::default();
        for node in nodes {
            if b.len == 0 {
                b.ticks = node.ticks;
                b.time_s = node.time_s;
            } else {
                debug_assert_eq!(b.ticks, node.ticks, "batch nodes must be in lockstep");
            }
            b.push_slot();
            b.load(b.len - 1, node);
        }
        b
    }

    /// Appends one zeroed slot to every lane.
    fn push_slot(&mut self) {
        self.len += 1;
        self.skipped.push(0);
        self.die_c.push(0.0);
        self.sink_c.push(0.0);
        self.ambient_c.push(0.0);
        self.g_ds.push(0.0);
        self.c_die.push(0.0);
        self.c_sink.push(0.0);
        self.g_nat.push(0.0);
        self.g_air.push(0.0);
        self.k_exp.push(0.0);
        self.sub_n.push(0);
        self.sub_h.push(0.0);
        self.fan_duty_pct.push(0);
        self.fan_rpm.push(0.0);
        self.fan_failed.push(false);
        self.fan_stuck.push(false);
        self.fan_max_rpm.push(0.0);
        self.fan_stall.push(0.0);
        self.fan_tau.push(0.0);
        self.fan_max_w.push(0.0);
        self.fan_alpha.push(0.0);
        self.chip_auto.push(false);
        self.chip_measured.push(0.0);
        self.chip_pwm.push(0);
        self.chip_pwm_min.push(0);
        self.chip_pwm_max.push(0);
        self.chip_tmin.push(0);
        self.chip_tmax.push(0);
        self.cpu_cond.push(COND_NOMINAL);
        self.throttle_events.push(0);
        self.util.push(0.0);
        self.activity.push(0.0);
        self.sleep_gate.push(1.0);
        self.top_v.push(0.0);
        self.top_f.push(0.0);
        self.req_idx.push(0);
        self.req_v.push(0.0);
        self.req_f.push(0.0);
        self.min_v.push(0.0);
        self.min_f.push(0.0);
        self.leak_ref_w.push(0.0);
        self.leak_coeff.push(0.0);
        self.leak_tref.push(0.0);
        self.dyn_max_w.push(0.0);
        self.mon_throttle_c.push(0.0);
        self.mon_shutdown_c.push(0.0);
        self.mon_hyst_c.push(0.0);
        self.psu_eff.push(1.0);
        self.base_w.push(0.0);
        self.m_period.push(1.0);
        self.m_since.push(0.0);
        self.m_window.push(0.0);
        self.m_total_e.push(0.0);
        self.m_total_t.push(0.0);
        self.m_stats.push(RunningStats::default());
        self.m_last.push(None);
        self.cpu_power.push(0.0);
        self.g_sa.push(0.0);
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ticks elapsed (lockstep with every member node).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Simulation time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Copies all hot state from `node` into slot `i` (bit-exact) and
    /// re-derives the slot's per-step constants. Call after any scalar-side
    /// mutation — daemon actuation, sampling — so the lanes resume from
    /// exactly the scalar state.
    pub fn load(&mut self, i: usize, node: &Node) {
        let t = &node.thermal;
        self.die_c[i] = t.die_c;
        self.sink_c[i] = t.sink_c;
        self.ambient_c[i] = t.cfg.ambient_c;
        self.g_ds[i] = t.cfg.die_sink_conductance_w_per_k;
        self.c_die[i] = t.cfg.die_capacity_j_per_k;
        self.c_sink[i] = t.cfg.sink_capacity_j_per_k;
        self.g_nat[i] = t.cfg.natural_conductance_w_per_k;
        self.g_air[i] = t.cfg.airflow_conductance_w_per_k;
        self.k_exp[i] = t.cfg.airflow_exponent;

        let f = &node.fan;
        self.fan_duty_pct[i] = f.duty.percent();
        self.fan_rpm[i] = f.rpm;
        self.fan_failed[i] = f.failed;
        self.fan_stuck[i] = f.pwm_stuck;
        self.fan_max_rpm[i] = f.cfg.max_rpm;
        self.fan_stall[i] = f.cfg.stall_fraction;
        self.fan_tau[i] = f.cfg.time_constant_s;
        self.fan_max_w[i] = f.cfg.max_power_w;

        let chip = node.bus.device();
        self.chip_auto[i] = chip.mode == PwmMode::Automatic;
        self.chip_measured[i] = chip.measured_temp_c;
        self.chip_pwm[i] = chip.pwm_current;
        self.chip_pwm_min[i] = chip.pwm_min;
        self.chip_pwm_max[i] = chip.pwm_max;
        self.chip_tmin[i] = chip.tmin_c;
        self.chip_tmax[i] = chip.tmax_c;

        let c = &node.cpu;
        self.cpu_cond[i] = cond_to_u8(c.condition);
        self.throttle_events[i] = c.throttle_events;
        self.util[i] = c.utilization;
        self.activity[i] = c.activity;
        self.sleep_gate[i] = c.sleep_gate;
        let top = c.cfg.pstates[0];
        let req = c.cfg.pstates[c.requested];
        let min = *c.cfg.pstates.last().expect("non-empty pstates");
        self.top_v[i] = top.voltage_v;
        self.top_f[i] = f64::from(top.freq_mhz);
        self.req_idx[i] = c.requested;
        self.req_v[i] = req.voltage_v;
        self.req_f[i] = f64::from(req.freq_mhz);
        self.min_v[i] = min.voltage_v;
        self.min_f[i] = f64::from(min.freq_mhz);
        self.leak_ref_w[i] = c.cfg.leakage_power_ref_w;
        self.leak_coeff[i] = c.cfg.leakage_temp_coeff_per_k;
        self.leak_tref[i] = c.cfg.leakage_ref_temp_c;
        self.dyn_max_w[i] = c.cfg.dynamic_power_max_w;
        self.mon_throttle_c[i] = c.cfg.emergency_throttle_c;
        self.mon_shutdown_c[i] = c.cfg.emergency_shutdown_c;
        self.mon_hyst_c[i] = c.cfg.emergency_hysteresis_c;

        let m = &node.meter;
        self.psu_eff[i] = m.psu_efficiency;
        self.base_w[i] = node.cfg.board.base_power_w;
        self.m_period[i] = m.sample_period_s;
        self.m_since[i] = m.since_sample_s;
        self.m_window[i] = m.window_energy_j;
        self.m_total_e[i] = m.total_energy_j;
        self.m_total_t[i] = m.total_time_s;
        self.m_stats[i] = m.stats;
        self.m_last[i] = m.last_sample_w;

        if self.dt_s > 0.0 {
            self.derive_step_constants(i);
        }
    }

    /// Derives slot `i`'s per-step constants for the batch's step: the
    /// rotor-lag coefficient, and the RC sub-step split unless the slot is
    /// stiff.
    fn derive_step_constants(&mut self, i: usize) {
        let dt_s = self.dt_s;
        self.fan_alpha[i] = fan::lag_alpha_raw(dt_s, self.fan_tau[i]);
        let (n, h) = thermal::fixed_substeps_raw(
            dt_s,
            self.c_die[i],
            self.c_sink[i],
            self.g_ds[i],
            self.g_nat[i],
            self.g_air[i],
        )
        .unwrap_or((0, 0.0));
        self.sub_n[i] = u32::try_from(n).unwrap_or(0);
        self.sub_h[i] = h;
    }

    /// Writes slot `i`'s mutable state back into `node` (bit-exact,
    /// including the lockstep tick/time counters). Call
    /// before any scalar-side read or mutation — sampling, reporting.
    ///
    /// Configuration lanes and states the batch never changes (fan
    /// failed/stuck flags, chip registers other than the duty output, the
    /// requested P-state) are not written back; they cannot have diverged.
    pub fn store(&self, i: usize, node: &mut Node) {
        node.ticks = self.ticks;
        node.time_s = self.time_s;

        let t = &mut node.thermal;
        t.die_c = self.die_c[i];
        t.sink_c = self.sink_c[i];
        t.cfg.ambient_c = self.ambient_c[i];

        let f = &mut node.fan;
        f.duty = DutyCycle::new(self.fan_duty_pct[i]);
        f.rpm = self.fan_rpm[i];

        let chip = node.bus.device_mut();
        chip.measured_temp_c = self.chip_measured[i];
        chip.pwm_current = self.chip_pwm[i];

        let c = &mut node.cpu;
        c.condition = cond_from_u8(self.cpu_cond[i]);
        c.throttle_events = self.throttle_events[i];
        c.utilization = self.util[i];
        c.activity = self.activity[i];

        let m = &mut node.meter;
        m.since_sample_s = self.m_since[i];
        m.window_energy_j = self.m_window[i];
        m.total_energy_j = self.m_total_e[i];
        m.total_time_s = self.m_total_t[i];
        m.stats = self.m_stats[i];
        m.last_sample_w = self.m_last[i];
    }

    /// Re-syncs slot `i` from `node` after a control-plane decision point,
    /// copying only the lanes an actuator can write: fan duty and fault
    /// latches, the ADT7467 registers and mode, the CPU's requested P-state
    /// (its voltage and frequency re-read from the P-state table only when
    /// the request changed), thermal condition, sleep gate, and load.
    /// Cheaper than a full [`PhysicsBatch::load`] at every sample tick; all
    /// other lanes are already bit-exact because [`PhysicsBatch::store`]
    /// just wrote them and sampling cannot touch them. Debug builds verify
    /// that claim against the full node state, so a future actuator that
    /// grows new side effects fails loudly under `cargo test` instead of
    /// silently diverging in release.
    pub fn reload_control(&mut self, i: usize, node: &Node) {
        let f = &node.fan;
        self.fan_duty_pct[i] = f.duty.percent();
        self.fan_failed[i] = f.failed;
        self.fan_stuck[i] = f.pwm_stuck;

        let chip = node.bus.device();
        self.chip_auto[i] = chip.mode == PwmMode::Automatic;
        self.chip_pwm[i] = chip.pwm_current;
        self.chip_pwm_min[i] = chip.pwm_min;
        self.chip_pwm_max[i] = chip.pwm_max;
        self.chip_tmin[i] = chip.tmin_c;
        self.chip_tmax[i] = chip.tmax_c;

        let c = &node.cpu;
        self.cpu_cond[i] = cond_to_u8(c.condition);
        self.sleep_gate[i] = c.sleep_gate;
        self.util[i] = c.utilization;
        self.activity[i] = c.activity;
        if self.req_idx[i] != c.requested {
            let req = c.cfg.pstates[c.requested];
            self.req_idx[i] = c.requested;
            self.req_v[i] = req.voltage_v;
            self.req_f[i] = f64::from(req.freq_mhz);
        }

        #[cfg(debug_assertions)]
        self.assert_slot_in_sync(i, node);
    }

    /// Debug-build check backing [`PhysicsBatch::reload_control`]: every
    /// lane that method does *not* copy must already match `node` bit for
    /// bit, and so must the requested-P-state lanes it copies only on a
    /// change. Comparisons go through `to_bits`, so a NaN matches itself.
    #[cfg(debug_assertions)]
    fn assert_slot_in_sync(&self, i: usize, node: &Node) {
        fn eq(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits()
        }
        let t = &node.thermal;
        assert!(eq(self.die_c[i], t.die_c), "die_c lane out of sync");
        assert!(eq(self.sink_c[i], t.sink_c), "sink_c lane out of sync");
        assert!(eq(self.ambient_c[i], t.cfg.ambient_c), "ambient_c lane out of sync");
        assert!(eq(self.g_ds[i], t.cfg.die_sink_conductance_w_per_k), "g_ds lane out of sync");
        assert!(eq(self.c_die[i], t.cfg.die_capacity_j_per_k), "c_die lane out of sync");
        assert!(eq(self.c_sink[i], t.cfg.sink_capacity_j_per_k), "c_sink lane out of sync");
        assert!(eq(self.g_nat[i], t.cfg.natural_conductance_w_per_k), "g_nat lane out of sync");
        assert!(eq(self.g_air[i], t.cfg.airflow_conductance_w_per_k), "g_air lane out of sync");
        assert!(eq(self.k_exp[i], t.cfg.airflow_exponent), "k_exp lane out of sync");

        let f = &node.fan;
        assert!(eq(self.fan_rpm[i], f.rpm), "fan rpm lane out of sync");
        assert!(eq(self.fan_max_rpm[i], f.cfg.max_rpm), "fan max rpm lane out of sync");
        assert!(eq(self.fan_stall[i], f.cfg.stall_fraction), "fan stall lane out of sync");
        assert!(eq(self.fan_tau[i], f.cfg.time_constant_s), "fan tau lane out of sync");
        assert!(eq(self.fan_max_w[i], f.cfg.max_power_w), "fan max power lane out of sync");

        let chip = node.bus.device();
        assert!(eq(self.chip_measured[i], chip.measured_temp_c), "chip measured lane out of sync");

        let c = &node.cpu;
        assert_eq!(self.throttle_events[i], c.throttle_events, "throttle events lane out of sync");
        let req = c.cfg.pstates[c.requested];
        assert_eq!(self.req_idx[i], c.requested, "requested P-state lane out of sync");
        assert!(eq(self.req_v[i], req.voltage_v), "requested voltage lane out of sync");
        assert!(eq(self.req_f[i], f64::from(req.freq_mhz)), "requested freq lane out of sync");
        let top = c.cfg.pstates[0];
        let min = *c.cfg.pstates.last().expect("non-empty pstates");
        assert!(eq(self.top_v[i], top.voltage_v), "top voltage lane out of sync");
        assert!(eq(self.top_f[i], f64::from(top.freq_mhz)), "top freq lane out of sync");
        assert!(eq(self.min_v[i], min.voltage_v), "min voltage lane out of sync");
        assert!(eq(self.min_f[i], f64::from(min.freq_mhz)), "min freq lane out of sync");
        assert!(eq(self.leak_ref_w[i], c.cfg.leakage_power_ref_w), "leakage ref lane out of sync");
        assert!(
            eq(self.leak_coeff[i], c.cfg.leakage_temp_coeff_per_k),
            "leakage coeff lane out of sync"
        );
        assert!(eq(self.leak_tref[i], c.cfg.leakage_ref_temp_c), "leakage tref lane out of sync");
        assert!(eq(self.dyn_max_w[i], c.cfg.dynamic_power_max_w), "dyn power lane out of sync");
        assert!(
            eq(self.mon_throttle_c[i], c.cfg.emergency_throttle_c),
            "throttle threshold lane out of sync"
        );
        assert!(
            eq(self.mon_shutdown_c[i], c.cfg.emergency_shutdown_c),
            "shutdown threshold lane out of sync"
        );
        assert!(
            eq(self.mon_hyst_c[i], c.cfg.emergency_hysteresis_c),
            "hysteresis lane out of sync"
        );

        let m = &node.meter;
        assert!(eq(self.psu_eff[i], m.psu_efficiency), "psu efficiency lane out of sync");
        assert!(eq(self.base_w[i], node.cfg.board.base_power_w), "base power lane out of sync");
        assert!(eq(self.m_period[i], m.sample_period_s), "meter period lane out of sync");
        assert!(eq(self.m_since[i], m.since_sample_s), "meter since lane out of sync");
        assert!(eq(self.m_window[i], m.window_energy_j), "meter window lane out of sync");
        assert!(eq(self.m_total_e[i], m.total_energy_j), "meter energy lane out of sync");
        assert!(eq(self.m_total_t[i], m.total_time_s), "meter time lane out of sync");
        assert_eq!(
            self.m_last[i].map(f64::to_bits),
            m.last_sample_w.map(f64::to_bits),
            "meter last sample lane out of sync"
        );
    }

    /// Advances the lockstep tick/time counters — call exactly once per
    /// simulation tick, before [`PhysicsBatch::tick_all`]. Mirrors the `ticks += 1; time_s += dt`
    /// prologue of `Node::tick` so stored-back nodes agree with scalar ones.
    pub fn begin_tick(&mut self, dt_s: f64) {
        assert!(dt_s > 0.0, "time step must be positive");
        self.ticks += 1;
        self.time_s += dt_s;
    }

    /// Relative execution speed for slot `i` — same law as
    /// `Node::speed_factor` (0 when shut down; throttled runs the lowest
    /// P-state).
    pub fn speed_factor(&self, i: usize) -> f64 {
        let cond = self.cpu_cond[i];
        if cond == COND_SHUTDOWN {
            return 0.0;
        }
        let eff_f = if cond == COND_NOMINAL { self.req_f[i] } else { self.min_f[i] };
        eff_f / self.top_f[i] * self.sleep_gate[i]
    }

    /// Sets utilization and switching activity for slot `i` (same clamp as
    /// `Cpu::set_load`).
    pub fn set_load(&mut self, i: usize, utilization: f64, activity: f64) {
        (self.util[i], self.activity[i]) = cpu::clamp_load(utilization, activity);
    }

    /// Sets the intake-air temperature on every slot (rack coupling).
    pub fn set_ambient_all(&mut self, ambient_c: f64) {
        assert!(ambient_c.is_finite(), "ambient temperature must be finite");
        for a in &mut self.ambient_c {
            *a = ambient_c;
        }
    }

    /// One physics tick for every slot — the exact `Node::tick` chain
    /// after fault delivery (chip remote diode → fan → CPU power → RC
    /// thermal → thermal monitor → meter) via the shared raw functions.
    /// The caller must have called [`PhysicsBatch::begin_tick`].
    pub fn tick_all(&mut self, dt_s: f64) {
        let len = self.len;
        assert!(dt_s > 0.0, "time step must be positive");
        if dt_s.to_bits() != self.dt_s.to_bits() {
            self.dt_s = dt_s;
            for i in 0..len {
                self.derive_step_constants(i);
            }
        }
        // The `Node::tick` operation order, restructured into one loop per
        // physics stage. Nodes are independent within a tick, so
        // interleaving stage N of node A with stage M of node B cannot
        // change any node's arithmetic — each slot still sees the exact
        // `Node::tick` sequence, bit for bit. Every lane is pinned as a
        // local slice once per stage: indexing the `Vec` fields through
        // `&mut self` would reload each lane's base pointer around every
        // store. The narrow loops keep live state in registers and let the
        // compiler vectorize the straight-line stages (one fused loop over
        // ~50 live lanes spills constantly).

        // Stage 1: monitoring chip — temp sensor, auto PWM curve, duty latch.
        {
            let skipped = &mut self.skipped[..len];
            let die_c = &self.die_c[..len];
            // Validate the whole lane up front (the scalar path asserts
            // per node mid-tick; a non-finite die aborts the run either
            // way) so the main loop below is branch-free and vectorizes.
            for &die in die_c {
                assert!(die.is_finite(), "measured temperature must be finite");
            }
            let chip_measured = &mut self.chip_measured[..len];
            let chip_auto = &self.chip_auto[..len];
            let chip_pwm = &mut self.chip_pwm[..len];
            let chip_pwm_min = &self.chip_pwm_min[..len];
            let chip_pwm_max = &self.chip_pwm_max[..len];
            let chip_tmin = &self.chip_tmin[..len];
            let chip_tmax = &self.chip_tmax[..len];
            let fan_stuck = &self.fan_stuck[..len];
            let fan_duty_pct = &mut self.fan_duty_pct[..len];
            for i in 0..len {
                skipped[i] += 1;
                let die = die_c[i];
                chip_measured[i] = die;
                // The curve only matters in automatic mode, and software
                // fan schemes (the common fleet configuration) run the
                // chip in manual mode — keep the branch so manual slots
                // skip the whole evaluation. Fleets are uniform in mode,
                // so the branch predicts essentially perfectly.
                let pwm = if chip_auto[i] {
                    adt7467::static_curve_duty_raw(
                        chip_pwm_min[i],
                        chip_pwm_max[i],
                        chip_tmin[i],
                        chip_tmax[i],
                        die,
                    )
                    .to_register()
                } else {
                    chip_pwm[i]
                };
                chip_pwm[i] = pwm;
                let duty = DutyCycle::from_register(pwm).percent();
                fan_duty_pct[i] = if fan_stuck[i] { fan_duty_pct[i] } else { duty };
            }
        }

        // Stage 2: fan rotor lag toward the commanded duty.
        {
            let fan_failed = &self.fan_failed[..len];
            let fan_duty_pct = &self.fan_duty_pct[..len];
            let fan_stall = &self.fan_stall[..len];
            let fan_max_rpm = &self.fan_max_rpm[..len];
            let fan_rpm = &mut self.fan_rpm[..len];
            let fan_alpha = &self.fan_alpha[..len];
            // Tabulated `DutyCycle::new(p).fraction()` — bit-identical,
            // skips the per-slot divide.
            let frac_lut = DutyCycle::percent_fraction_lut();
            for i in 0..len {
                let target = fan::target_rpm_raw(
                    fan_failed[i],
                    frac_lut[usize::from(fan_duty_pct[i])],
                    fan_stall[i],
                    fan_max_rpm[i],
                );
                fan::step_raw(&mut fan_rpm[i], target, fan_alpha[i]);
            }
        }

        // Stage 3: CPU power at the pre-step die temperature (scratch lane).
        {
            let cpu_power = &mut self.cpu_power[..len];
            let cpu_cond = &self.cpu_cond[..len];
            let req_v = &self.req_v[..len];
            let req_f = &self.req_f[..len];
            let min_v = &self.min_v[..len];
            let min_f = &self.min_f[..len];
            let top_v = &self.top_v[..len];
            let top_f = &self.top_f[..len];
            let leak_ref_w = &self.leak_ref_w[..len];
            let leak_coeff = &self.leak_coeff[..len];
            let leak_tref = &self.leak_tref[..len];
            let dyn_max_w = &self.dyn_max_w[..len];
            let activity = &self.activity[..len];
            let sleep_gate = &self.sleep_gate[..len];
            let die_c = &self.die_c[..len];
            for i in 0..len {
                let cond = cpu_cond[i];
                let (eff_v, eff_f) =
                    if cond == COND_NOMINAL { (req_v[i], req_f[i]) } else { (min_v[i], min_f[i]) };
                cpu_power[i] = cpu::power_raw(
                    cond == COND_SHUTDOWN,
                    top_v[i],
                    top_f[i],
                    eff_v,
                    eff_f,
                    leak_ref_w[i],
                    leak_coeff[i],
                    leak_tref[i],
                    dyn_max_w[i],
                    activity[i],
                    sleep_gate[i],
                    die_c[i],
                );
            }
        }

        // Stage 4: RC-thermal step under the new airflow, in two loops: the
        // conductance `powf` of every slot into a scratch lane, then the
        // Euler sub-steps at the slot's constant split, re-derived here only
        // for a stiff slot (`sub_n == 0`).
        {
            let fan_rpm = &self.fan_rpm[..len];
            let fan_max_rpm = &self.fan_max_rpm[..len];
            let g_nat = &self.g_nat[..len];
            let g_air = &self.g_air[..len];
            let k_exp = &self.k_exp[..len];
            let g_sa = &mut self.g_sa[..len];
            for i in 0..len {
                let airflow = (fan_rpm[i] / fan_max_rpm[i]).clamp(0.0, 1.0);
                g_sa[i] = thermal::sink_conductance_raw(g_nat[i], g_air[i], k_exp[i], airflow);
            }
        }
        {
            let cpu_power = &self.cpu_power[..len];
            for &power in cpu_power {
                assert!(power >= 0.0, "CPU power cannot be negative");
            }
            let die_c = &mut self.die_c[..len];
            let sink_c = &mut self.sink_c[..len];
            let ambient_c = &self.ambient_c[..len];
            let g_ds = &self.g_ds[..len];
            let c_die = &self.c_die[..len];
            let c_sink = &self.c_sink[..len];
            let g_sa = &self.g_sa[..len];
            let sub_n = &self.sub_n[..len];
            let sub_h = &self.sub_h[..len];
            for i in 0..len {
                let split = match sub_n[i] {
                    0 => thermal::substeps_raw(dt_s, c_die[i], c_sink[i], g_ds[i], g_sa[i]),
                    n => (n as usize, sub_h[i]),
                };
                thermal::euler_raw(
                    &mut die_c[i],
                    &mut sink_c[i],
                    ambient_c[i],
                    g_ds[i],
                    c_die[i],
                    c_sink[i],
                    g_sa[i],
                    cpu_power[i],
                    split,
                );
            }
        }

        // Stage 5: thermal-monitor state machine on the post-step die.
        {
            let cpu_cond = &mut self.cpu_cond[..len];
            let throttle_events = &mut self.throttle_events[..len];
            let die_c = &self.die_c[..len];
            let mon_throttle_c = &self.mon_throttle_c[..len];
            let mon_shutdown_c = &self.mon_shutdown_c[..len];
            let mon_hyst_c = &self.mon_hyst_c[..len];
            for i in 0..len {
                let mut cond = cond_from_u8(cpu_cond[i]);
                cpu::monitor_raw(
                    &mut cond,
                    &mut throttle_events[i],
                    die_c[i],
                    mon_throttle_c[i],
                    mon_shutdown_c[i],
                    mon_hyst_c[i],
                );
                cpu_cond[i] = cond_to_u8(cond);
            }
        }

        // Stage 6: wall-power metering of the DC draw.
        {
            let cpu_power = &self.cpu_power[..len];
            let fan_rpm = &self.fan_rpm[..len];
            let fan_max_rpm = &self.fan_max_rpm[..len];
            let fan_max_w = &self.fan_max_w[..len];
            let base_w = &self.base_w[..len];
            let psu_eff = &self.psu_eff[..len];
            let m_period = &self.m_period[..len];
            let m_since = &mut self.m_since[..len];
            let m_window = &mut self.m_window[..len];
            let m_total_e = &mut self.m_total_e[..len];
            let m_total_t = &mut self.m_total_t[..len];
            let m_stats = &mut self.m_stats[..len];
            let m_last = &mut self.m_last[..len];
            for i in 0..len {
                let dc_power = cpu_power[i]
                    + fan::power_raw(fan_rpm[i], fan_max_rpm[i], fan_max_w[i])
                    + base_w[i];
                power::observe_raw(
                    psu_eff[i],
                    m_period[i],
                    &mut m_since[i],
                    &mut m_window[i],
                    &mut m_total_e[i],
                    &mut m_total_t[i],
                    &mut m_stats[i],
                    &mut m_last[i],
                    dt_s,
                    dc_power,
                );
            }
        }
    }

    /// Writes every slot's heat output into `out` — the exact
    /// `Node::heat_output_w` law (post-tick condition and die temperature)
    /// over pinned slices, the companion of [`PhysicsBatch::tick_all`].
    pub fn write_heat(&self, out: &mut [f64]) {
        let len = self.len;
        let out = &mut out[..len];
        let cpu_cond = &self.cpu_cond[..len];
        let req_v = &self.req_v[..len];
        let req_f = &self.req_f[..len];
        let min_v = &self.min_v[..len];
        let min_f = &self.min_f[..len];
        let top_v = &self.top_v[..len];
        let top_f = &self.top_f[..len];
        let leak_ref_w = &self.leak_ref_w[..len];
        let leak_coeff = &self.leak_coeff[..len];
        let leak_tref = &self.leak_tref[..len];
        let dyn_max_w = &self.dyn_max_w[..len];
        let activity = &self.activity[..len];
        let sleep_gate = &self.sleep_gate[..len];
        let die_c = &self.die_c[..len];
        let fan_rpm = &self.fan_rpm[..len];
        let fan_max_rpm = &self.fan_max_rpm[..len];
        let fan_max_w = &self.fan_max_w[..len];
        let base_w = &self.base_w[..len];
        for i in 0..len {
            let cond = cpu_cond[i];
            let (eff_v, eff_f) =
                if cond == COND_NOMINAL { (req_v[i], req_f[i]) } else { (min_v[i], min_f[i]) };
            out[i] = cpu::power_raw(
                cond == COND_SHUTDOWN,
                top_v[i],
                top_f[i],
                eff_v,
                eff_f,
                leak_ref_w[i],
                leak_coeff[i],
                leak_tref[i],
                dyn_max_w[i],
                activity[i],
                sleep_gate[i],
                die_c[i],
            ) + fan::power_raw(fan_rpm[i], fan_max_rpm[i], fan_max_w[i])
                + base_w[i];
        }
    }

    /// Drains the batched-tick counter for slot `i`: the number of lane
    /// ticks since the last drain. The owner folds this into the
    /// node's `ticks_skipped` counter at sync points — each batched tick is
    /// exactly one control-plane tick that observed nothing, matching the
    /// scalar path's per-tick early-out accounting.
    pub fn take_skipped(&mut self, i: usize) -> u64 {
        std::mem::take(&mut self.skipped[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::faults::{FaultEvent, FaultPlan, TickFaultSchedule};

    /// Drives a scalar node and a 1-slot batch through the same tick
    /// sequence and asserts bit-identical state after store-back. Returns
    /// the slot's constant sub-step count (0: split re-derived per tick).
    fn assert_lockstep(mut cfg_mutate: impl FnMut(&mut NodeConfig), util: f64, ticks: u32) -> u32 {
        let mut cfg = NodeConfig::default();
        cfg_mutate(&mut cfg);
        let mut scalar = Node::new(cfg.clone(), 42);
        scalar.set_utilization(util);
        let mut batched = Node::new(cfg, 42);
        batched.set_utilization(util);

        let mut batch = PhysicsBatch::from_nodes([&batched]);
        let dt = 0.05;
        for _ in 0..ticks {
            scalar.tick(dt);
            batch.begin_tick(dt);
            batch.tick_all(dt);
        }
        batch.store(0, &mut batched);

        assert_eq!(scalar.state(), batched.state());
        assert_eq!(scalar.ticks(), batched.ticks());
        assert_eq!(scalar.time_s().to_bits(), batched.time_s().to_bits());
        assert_eq!(scalar.meter().energy_j().to_bits(), batched.meter().energy_j().to_bits());
        let mut heat = [0.0];
        batch.write_heat(&mut heat);
        assert_eq!(scalar.heat_output_w().to_bits(), heat[0].to_bits());
        assert_eq!(batch.take_skipped(0), u64::from(ticks));
        batch.sub_n[0]
    }

    #[test]
    fn idle_node_is_bit_identical() {
        assert_eq!(assert_lockstep(|_| {}, 0.0, 500), 1);
    }

    #[test]
    fn many_substep_node_is_bit_identical() {
        // A die this small takes dozens of sub-steps per tick, still at a
        // split fixed for every airflow.
        let n = assert_lockstep(|cfg| cfg.thermal.die_capacity_j_per_k = 0.05, 1.0, 2_000);
        assert!(n > 1, "sub-steps per tick: {n}");
    }

    #[test]
    fn stiff_node_is_bit_identical() {
        // A sink this small is the faster lump at high airflow, so the
        // split follows the fan: 2 sub-steps per tick at low airflow, 3 at
        // full. The lanes re-derive it every tick, like `Node::tick`.
        let n = assert_lockstep(|cfg| cfg.thermal.sink_capacity_j_per_k = 1.0, 1.0, 2_000);
        assert_eq!(n, 0, "a stiff slot has no constant split");
    }

    #[test]
    fn burn_node_is_bit_identical() {
        assert_lockstep(|_| {}, 1.0, 2_000);
    }

    #[test]
    fn throttling_node_is_bit_identical() {
        // Cap the fan via a tiny Tmax span so the monitor engages.
        assert_lockstep(
            |cfg| {
                cfg.thermal.airflow_conductance_w_per_k = 0.4;
            },
            1.0,
            5_000,
        );
    }

    #[test]
    fn a_new_step_length_re_derives_the_step_constants() {
        let mut scalar = Node::new(NodeConfig::default(), 3);
        let mut batched = Node::new(NodeConfig::default(), 3);
        scalar.set_utilization(1.0);
        batched.set_utilization(1.0);
        let mut batch = PhysicsBatch::from_nodes([&batched]);
        for dt in [0.05, 0.25, 1.0, 0.05] {
            for _ in 0..50 {
                scalar.tick(dt);
                batch.begin_tick(dt);
                batch.tick_all(dt);
            }
        }
        batch.store(0, &mut batched);
        assert_eq!(scalar.state(), batched.state());
        assert_eq!(scalar.meter().energy_j().to_bits(), batched.meter().energy_j().to_bits());
    }

    #[test]
    fn speed_factor_matches_scalar() {
        let node = Node::new(NodeConfig::default(), 7);
        let batch = PhysicsBatch::from_nodes([&node]);
        assert_eq!(batch.speed_factor(0).to_bits(), node.speed_factor().to_bits());
    }

    #[test]
    fn faults_delivered_between_lane_ticks_match_the_scalar_tick() {
        let node = || {
            let plan = FaultPlan::none()
                .at(1.0, FaultEvent::AmbientStep(35.0))
                .at(2.0, FaultEvent::FanFailure)
                .at(4.0, FaultEvent::FanRepair);
            let mut node = Node::with_faults(NodeConfig::default(), 5, plan);
            node.set_tick_faults(
                TickFaultSchedule::none()
                    .at_tick(30, FaultEvent::PwmStuck)
                    .at_tick(40, FaultEvent::FanFailure)
                    .at_tick(50, FaultEvent::PwmRelease),
            );
            node.set_utilization(1.0);
            node
        };
        let mut scalar = node();
        let mut hooked = node();
        let mut batch = PhysicsBatch::from_nodes([&hooked]);
        let dt = 0.05;
        let mut hook_ticks = 0;
        for _ in 0..200 {
            scalar.tick(dt);
            batch.begin_tick(dt);
            if hooked.fault_due(batch.ticks(), batch.time_s()) {
                batch.store(0, &mut hooked);
                assert!(hooked.deliver_due_faults());
                batch.load(0, &hooked);
                hook_ticks += 1;
            }
            batch.tick_all(dt);
        }
        batch.store(0, &mut hooked);
        assert_eq!(hook_ticks, 5, "one hook per tick with a due fault, tick 40's two merged");
        assert_eq!(scalar.fault_log(), hooked.fault_log());
        assert_eq!(scalar.state(), hooked.state());
        assert!(!hooked.fault_due(u64::MAX, f64::MAX), "every fault delivered");
    }

    /// The requested-P-state lanes of slot `i`, as bits.
    fn req_lanes(batch: &PhysicsBatch, i: usize) -> (usize, u64, u64) {
        (batch.req_idx[i], batch.req_v[i].to_bits(), batch.req_f[i].to_bits())
    }

    #[test]
    fn reload_carries_a_dvfs_change_and_nothing_else() {
        let dt = 0.05;
        let mut scalar = Node::new(NodeConfig::default(), 11);
        let mut batched = Node::new(NodeConfig::default(), 11);
        scalar.set_utilization(1.0);
        batched.set_utilization(1.0);
        let mut batch = PhysicsBatch::from_nodes([&batched]);
        let run = |scalar: &mut Node, batch: &mut PhysicsBatch| {
            for _ in 0..5 {
                scalar.tick(dt);
                batch.begin_tick(dt);
                batch.tick_all(dt);
            }
        };

        // A sample with no DVFS change leaves the lanes as they were.
        run(&mut scalar, &mut batch);
        batch.store(0, &mut batched);
        let unchanged = req_lanes(&batch, 0);
        batch.reload_control(0, &batched);
        assert_eq!(req_lanes(&batch, 0), unchanged);

        // A daemon steps the P-state down between two samples: the reload
        // carries it into the lanes bit for bit.
        run(&mut scalar, &mut batch);
        batch.store(0, &mut batched);
        assert!(scalar.set_frequency_khz(1_800_000).unwrap());
        assert!(batched.set_frequency_khz(1_800_000).unwrap());
        batch.reload_control(0, &batched);
        let req = batched.cpu().requested_pstate();
        assert_eq!(
            req_lanes(&batch, 0),
            (3, req.voltage_v.to_bits(), f64::from(req.freq_mhz).to_bits())
        );
        assert_ne!(req_lanes(&batch, 0), unchanged);

        // The lanes then tick exactly like the scalar node at the new state.
        run(&mut scalar, &mut batch);
        batch.store(0, &mut batched);
        assert_eq!(scalar.state(), batched.state());
        assert_eq!(batch.speed_factor(0).to_bits(), scalar.speed_factor().to_bits());
    }
}
