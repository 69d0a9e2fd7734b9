//! Structure-of-arrays physics batch: the one home of every node's plant.
//!
//! [`PhysicsBatch`] holds each node's plant state as contiguous lanes
//! (`Vec<f64>`, `Vec<u8>`, …), one slot per node: die and sink
//! temperatures, fan duty, RPM and fault latches, the ADT7467 registers,
//! the requested P-state, sleep gate, thermal condition and the meter. The
//! per-tick RC-thermal update, CMOS power evaluation and fan response run
//! as tight loops over slices instead of chasing pointers through a `Vec`
//! of node structs. A cluster shard owns one batch for all its nodes; a
//! standalone [`Node`] owns a one-slot batch. Nothing else holds a copy:
//! the node keeps only its cold parts (sensors, fault schedule, bus NACK
//! latch, configuration), and sensor reads, SMBus register writes, cpufreq
//! and sleep-gate actuation and fault delivery all act on the slot in place
//! through a [`NodeView`].
//!
//! # Bit-identical by construction
//!
//! Every arithmetic step of a lane tick delegates to the raw law functions
//! ([`thermal::euler_raw`], [`cpu::power_raw`], [`fan::step_raw`],
//! [`power::observe_raw`], [`adt7467::static_curve_duty_raw`]) with operands
//! in a fixed order. What depends only on the step and a slot's
//! configuration — the rotor-lag coefficient and, for every slot that is
//! not stiff, the RC sub-step split ([`thermal::fixed_substeps_raw`] proves
//! it constant) — is derived once per step length and slot instead of once
//! per tick. The end state of a one-slot batch is pinned against bits
//! recorded from the retired scalar node tick (`tests/pinned_scalar_reference.rs`),
//! and the cluster's report digests likewise (`tests/pinned_scalar_digests.rs`).
//!
//! [`Node`]: crate::node::Node
//! [`NodeView`]: crate::node::NodeView
//! [`thermal::euler_raw`]: crate::thermal::euler_raw
//! [`thermal::fixed_substeps_raw`]: crate::thermal
//! [`cpu::power_raw`]: crate::cpu
//! [`fan::step_raw`]: crate::fan
//! [`power::observe_raw`]: crate::power
//! [`adt7467::static_curve_duty_raw`]: crate::adt7467

use unitherm_metrics::RunningStats;

use crate::adt7467;
use crate::cpu::{self, ThermalCondition};
use crate::fan;
use crate::node::Node;
use crate::power;
use crate::thermal;
use crate::units::DutyCycle;

/// Lane encoding of [`ThermalCondition`].
pub(crate) const COND_NOMINAL: u8 = 0;
pub(crate) const COND_THROTTLED: u8 = 1;
pub(crate) const COND_SHUTDOWN: u8 = 2;

#[inline]
fn cond_to_u8(c: ThermalCondition) -> u8 {
    match c {
        ThermalCondition::Nominal => COND_NOMINAL,
        ThermalCondition::Throttled => COND_THROTTLED,
        ThermalCondition::ShutDown => COND_SHUTDOWN,
    }
}

#[inline]
pub(crate) fn cond_from_u8(c: u8) -> ThermalCondition {
    match c {
        COND_NOMINAL => ThermalCondition::Nominal,
        COND_THROTTLED => ThermalCondition::Throttled,
        _ => ThermalCondition::ShutDown,
    }
}

/// Declares the lanes once: the [`PhysicsBatch`] fields, the value a new
/// slot starts from, and the whole-slot copy.
macro_rules! lanes {
    ($($(#[$doc:meta])* $name:ident: $ty:ty = $init:expr,)*) => {
        /// Structure-of-arrays plant state of a node range, one slot per
        /// node.
        ///
        /// See the [module docs](self) for what the lanes hold and the
        /// determinism contract. Indices are positions within the owning
        /// range (a shard's contiguous slice of the fleet, or slot 0 of a
        /// standalone node), not global node ids.
        #[derive(Debug, Default)]
        pub struct PhysicsBatch {
            len: usize,
            /// Ticks elapsed — every slot advances in lockstep.
            pub(crate) ticks: u64,
            /// Simulation time — accumulates `+= dt` once per tick.
            pub(crate) time_s: f64,
            /// The step the per-step constants (`fan_alpha`, `sub_n`,
            /// `sub_h`) were derived for; 0 until the first tick.
            dt_s: f64,
            $($(#[$doc])* pub(crate) $name: Vec<$ty>,)*
        }

        impl PhysicsBatch {
            /// Sizes every lane to `len` slots, each new one at its start
            /// value. On an empty batch each lane allocates its `len` slots
            /// at once, with no growth slack.
            fn resize(&mut self, len: usize) {
                self.len = len;
                $(self.$name.resize(len, $init);)*
            }

            /// Copies every lane of slot `j` of `src` into slot `i`.
            fn copy_lanes(&mut self, i: usize, src: &Self, j: usize) {
                $(self.$name[i] = src.$name[j];)*
            }
        }
    };
}

lanes! {
    // --- thermal lanes (state + config + per-step constants) ---
    die_c: f64 = 0.0,
    sink_c: f64 = 0.0,
    ambient_c: f64 = 0.0,
    g_ds: f64 = 0.0,
    c_die: f64 = 0.0,
    c_sink: f64 = 0.0,
    g_nat: f64 = 0.0,
    g_air: f64 = 0.0,
    k_exp: f64 = 0.0,
    /// Sub-steps per tick, or 0 for a slot whose split is re-derived every
    /// tick (stiff, or more sub-steps than a `u32` holds).
    sub_n: u32 = 0,
    /// Sub-step length in seconds where `sub_n` is not 0.
    sub_h: f64 = 0.0,

    // --- fan lanes ---
    /// Commanded duty in percent (latched while the PWM line is stuck).
    fan_duty_pct: u8 = 0,
    fan_rpm: f64 = 0.0,
    /// Rotor seized (`FanFailure`).
    fan_failed: bool = false,
    /// PWM line latched (`PwmStuck`).
    fan_stuck: bool = false,
    fan_max_rpm: f64 = 0.0,
    fan_stall: f64 = 0.0,
    fan_tau: f64 = 0.0,
    fan_max_w: f64 = 0.0,
    fan_alpha: f64 = 0.0,

    // --- ADT7467 register lanes ---
    /// PWM1 in automatic mode (`PWM_CONFIG` = 0).
    chip_auto: bool = false,
    chip_measured: f64 = 0.0,
    chip_pwm: u8 = 0,
    chip_pwm_min: u8 = 0,
    chip_pwm_max: u8 = 0,
    chip_tmin: u8 = 0,
    chip_tmax: u8 = 0,

    // --- CPU lanes ---
    cpu_cond: u8 = COND_NOMINAL,
    throttle_events: u64 = 0,
    /// Accepted P-state changes (Table 1's "# freq changes").
    freq_transitions: u64 = 0,
    util: f64 = 0.0,
    activity: f64 = 0.0,
    sleep_gate: f64 = 1.0,
    top_v: f64 = 0.0,
    top_f: f64 = 0.0,
    /// Index into the node's P-state table of the requested P-state, whose
    /// voltage and frequency `req_v`/`req_f` hold.
    req_idx: usize = 0,
    req_v: f64 = 0.0,
    req_f: f64 = 0.0,
    min_v: f64 = 0.0,
    min_f: f64 = 0.0,
    leak_ref_w: f64 = 0.0,
    leak_coeff: f64 = 0.0,
    leak_tref: f64 = 0.0,
    dyn_max_w: f64 = 0.0,
    mon_throttle_c: f64 = 0.0,
    mon_shutdown_c: f64 = 0.0,
    mon_hyst_c: f64 = 0.0,

    // --- meter / board lanes ---
    psu_eff: f64 = 1.0,
    base_w: f64 = 0.0,
    m_period: f64 = 1.0,
    m_since: f64 = 0.0,
    m_window: f64 = 0.0,
    m_total_e: f64 = 0.0,
    m_total_t: f64 = 0.0,
    m_stats: RunningStats = RunningStats::new(),
    m_last: Option<f64> = None,

    /// Scratch lane: per-slot CPU power for the current tick, filled by the
    /// CPU pass of [`PhysicsBatch::tick_all`] and consumed by the thermal
    /// and meter passes.
    cpu_power: f64 = 0.0,
    /// Scratch lane: per-slot sink-to-ambient conductance for the current
    /// tick, written and read by the thermal pass.
    g_sa: f64 = 0.0,
}

impl PhysicsBatch {
    /// A batch of `len` blank slots; a node builds its plant into one with
    /// [`Node::in_slot`].
    pub fn with_len(len: usize) -> Self {
        let mut b = Self::default();
        b.resize(len);
        b
    }

    /// Builds a batch holding a copy of each standalone node's one-slot
    /// plant, adopting the first node's clock. Kept, with
    /// [`PhysicsBatch::store`] and [`PhysicsBatch::reload_control`], only
    /// for the benchmark's `batch` probe: no simulation copies plant state.
    pub fn from_nodes<'a, I>(nodes: I) -> Self
    where
        I: IntoIterator<Item = &'a Node>,
        I::IntoIter: ExactSizeIterator,
    {
        let nodes = nodes.into_iter();
        let mut b = Self::with_len(nodes.len());
        for (i, node) in nodes.enumerate() {
            let plant = node.plant();
            if i == 0 {
                b.ticks = plant.ticks;
                b.time_s = plant.time_s;
            }
            b.copy_slot(i, plant, 0);
        }
        b
    }

    /// Copies slot `i` and the clock into `node`'s one-slot plant. A
    /// whole-slot copy kept only for the benchmark's `batch` probe (see
    /// [`PhysicsBatch::from_nodes`]).
    pub fn store(&self, i: usize, node: &mut Node) {
        let plant = node.plant_mut();
        plant.ticks = self.ticks;
        plant.time_s = self.time_s;
        plant.copy_slot(0, self, i);
    }

    /// Copies `node`'s one-slot plant into slot `i`. A whole-slot copy kept
    /// only for the benchmark's `batch` probe (see
    /// [`PhysicsBatch::from_nodes`]).
    pub fn reload_control(&mut self, i: usize, node: &Node) {
        self.copy_slot(i, node.plant(), 0);
    }

    /// Copies slot `j` of `src` into slot `i`, re-deriving the per-step
    /// constants when the two batches last ticked at different steps.
    fn copy_slot(&mut self, i: usize, src: &Self, j: usize) {
        self.copy_lanes(i, src, j);
        if self.dt_s > 0.0 && self.dt_s.to_bits() != src.dt_s.to_bits() {
            self.derive_step_constants(i);
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ticks elapsed (lockstep with every slot).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Simulation time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Derives slot `i`'s per-step constants for the batch's step: the
    /// rotor-lag coefficient, and the RC sub-step split unless the slot is
    /// stiff.
    pub(crate) fn derive_step_constants(&mut self, i: usize) {
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

    /// Slot `i`'s thermal condition.
    pub(crate) fn condition(&self, i: usize) -> ThermalCondition {
        cond_from_u8(self.cpu_cond[i])
    }

    /// Slot `i`'s CPU power at die temperature `die_c`: the CMOS law at the
    /// effective P-state (the lowest one unless nominal).
    pub(crate) fn cpu_power_w(&self, i: usize, die_c: f64) -> f64 {
        let cond = self.cpu_cond[i];
        let (eff_v, eff_f) = if cond == COND_NOMINAL {
            (self.req_v[i], self.req_f[i])
        } else {
            (self.min_v[i], self.min_f[i])
        };
        cpu::power_raw(
            cond == COND_SHUTDOWN,
            self.top_v[i],
            self.top_f[i],
            eff_v,
            eff_f,
            self.leak_ref_w[i],
            self.leak_coeff[i],
            self.leak_tref[i],
            self.dyn_max_w[i],
            self.activity[i],
            self.sleep_gate[i],
            die_c,
        )
    }

    /// Heat slot `i` dissipates into the air, W (DC side: CPU + fan +
    /// board; PSU losses are dumped at the wall, outside the rack airflow
    /// model's control volume).
    pub(crate) fn heat_w(&self, i: usize) -> f64 {
        self.cpu_power_w(i, self.die_c[i])
            + fan::power_raw(self.fan_rpm[i], self.fan_max_rpm[i], self.fan_max_w[i])
            + self.base_w[i]
    }

    /// Advances the lockstep tick/time counters — call exactly once per
    /// simulation tick, before fault delivery and [`PhysicsBatch::tick_all`],
    /// so a fault due on this tick sees the tick's own count. The clock is
    /// the running sum `0.0 + dt_s + dt_s …`, which a scenario also walks
    /// to place its time-addressed faults on ticks.
    pub fn begin_tick(&mut self, dt_s: f64) {
        assert!(dt_s > 0.0, "time step must be positive");
        self.ticks += 1;
        self.time_s += dt_s;
    }

    /// Relative execution speed for slot `i` against the top P-state: 0
    /// when shut down, the lowest P-state while throttled, scaled by the
    /// sleep gate.
    pub fn speed_factor(&self, i: usize) -> f64 {
        let cond = self.cpu_cond[i];
        if cond == COND_SHUTDOWN {
            return 0.0;
        }
        let eff_f = if cond == COND_NOMINAL { self.req_f[i] } else { self.min_f[i] };
        eff_f / self.top_f[i] * self.sleep_gate[i]
    }

    /// Sets utilization and switching activity for slot `i`, each clamped
    /// to `[0, 1]`.
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

    /// One physics tick for every slot: chip remote diode → fan → CPU
    /// power → RC thermal → thermal monitor → meter, through the raw law
    /// functions. The caller must have called [`PhysicsBatch::begin_tick`]
    /// and delivered the tick's due faults.
    pub fn tick_all(&mut self, dt_s: f64) {
        let len = self.len;
        assert!(dt_s > 0.0, "time step must be positive");
        if dt_s.to_bits() != self.dt_s.to_bits() {
            self.dt_s = dt_s;
            for i in 0..len {
                self.derive_step_constants(i);
            }
        }
        // One loop per physics stage. Nodes are independent within a tick,
        // so interleaving stage N of node A with stage M of node B cannot
        // change any node's arithmetic — each slot sees the stage sequence
        // above in order, bit for bit. Every lane is pinned as a
        // local slice once per stage: indexing the `Vec` fields through
        // `&mut self` would reload each lane's base pointer around every
        // store. The narrow loops keep live state in registers and let the
        // compiler vectorize the straight-line stages (one fused loop over
        // ~50 live lanes spills constantly).

        // Stage 1: monitoring chip — temp sensor, auto PWM curve, duty latch.
        {
            let die_c = &self.die_c[..len];
            // Validate the whole lane up front (a non-finite die aborts the
            // run either way) so the main loop below is branch-free and
            // vectorizes.
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

    /// Writes every slot's heat output into `out`, the companion of
    /// [`PhysicsBatch::tick_all`] for rack coupling.
    pub fn write_heat(&self, out: &mut [f64]) {
        for (i, heat) in out[..self.len].iter_mut().enumerate() {
            *heat = self.heat_w(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;

    /// Slot 0's constant RC sub-step count after one tick of a burn node
    /// built from `cfg` (0: the split is re-derived every tick).
    fn split_after_one_tick(cfg: NodeConfig) -> u32 {
        let mut node = Node::new(cfg, 42);
        node.view().set_utilization(1.0);
        node.tick(0.05);
        node.plant().sub_n[0]
    }

    #[test]
    fn the_rc_split_is_constant_unless_the_slot_is_stiff() {
        assert_eq!(split_after_one_tick(NodeConfig::default()), 1);
        // A die this small takes dozens of sub-steps per tick, still at a
        // split fixed for every airflow.
        let mut small_die = NodeConfig::default();
        small_die.thermal.die_capacity_j_per_k = 0.05;
        assert!(split_after_one_tick(small_die) > 1);
        // A sink this small is the faster lump at high airflow, so the
        // split follows the fan and the lanes re-derive it every tick.
        let mut stiff = NodeConfig::default();
        stiff.thermal.sink_capacity_j_per_k = 1.0;
        assert_eq!(split_after_one_tick(stiff), 0);
    }

    #[test]
    #[should_panic(expected = "CPU power cannot be negative")]
    fn a_negative_cpu_power_aborts_the_tick() {
        // `NodeConfig::validate` keeps every real slot's power
        // non-negative; the lane tick still refuses one that is not.
        let mut node = Node::new(NodeConfig::default(), 1);
        node.view().set_utilization(1.0);
        node.plant_mut().dyn_max_w[0] = -1_000.0;
        node.tick(0.05);
    }

    #[test]
    fn whole_slot_copies_round_trip_through_a_node() {
        let mut a = Node::new(NodeConfig::default(), 11);
        let mut b = Node::new(NodeConfig::default(), 12);
        a.view().set_utilization(1.0);
        for _ in 0..40 {
            a.tick(0.05);
        }
        let mut batch = PhysicsBatch::from_nodes([&a, &b]);
        assert_eq!(batch.ticks(), 40, "the batch adopts the first node's clock");
        batch.begin_tick(0.05);
        batch.tick_all(0.05);
        a.tick(0.05);
        batch.store(0, &mut b);
        assert_eq!(b.view().state(), a.view().state());
        batch.reload_control(0, &b);
        assert_eq!(batch.speed_factor(0).to_bits(), a.view().speed_factor().to_bits());
    }
}
