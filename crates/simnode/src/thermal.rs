//! Lumped-parameter RC thermal network: die + heatsink.
//!
//! The model is the standard two-lump compact package model (the paper's
//! related work, Ferreira et al. \[20\], validates the RC approach for exactly
//! this use):
//!
//! ```text
//!   C_die · dT_die/dt  = P_cpu − G_ds · (T_die − T_sink)
//!   C_sink · dT_sink/dt = G_ds · (T_die − T_sink) − G_sa(airflow) · (T_sink − T_amb)
//! ```
//!
//! The sink-to-ambient conductance depends on fan airflow:
//! `G_sa = G_nat + G_air · airflow^k` with `airflow ∈ [0, 1]` the fan speed
//! fraction and `k ≈ 0.5` (sub-linear forced convection, fit to the paper's
//! operating points — see the calibration tests below). This is the single
//! physical coupling the paper's out-of-band technique exploits: more duty ⇒
//! more airflow ⇒ lower thermal resistance ⇒ lower die temperature.
//!
//! Integration is explicit Euler with sub-stepping: the fastest time constant
//! (die: `C_die / (G_ds + …) ≈ 2.4 s`) is far slower than the 50 ms tick, and
//! sub-steps keep the integration stable even for unusually stiff test
//! configurations.
//!
//! The two lumps' temperatures live in their node's physics-batch slot;
//! this module holds the laws the lane tick applies to them, public so that
//! property tests can drive them with a fixed power and airflow.

use crate::config::ThermalConfig;

/// The raw conductance law: sink-to-ambient conductance in W/K at an
/// airflow fraction in `[0, 1]`.
#[inline]
pub fn sink_conductance_raw(g_nat: f64, g_air: f64, exponent: f64, airflow: f64) -> f64 {
    let a = airflow.clamp(0.0, 1.0);
    g_nat + g_air * a.powf(exponent)
}

/// The sub-step split of a `dt_s` step at sink conductance `g_sa`: `n`
/// explicit Euler sub-steps of `h` seconds, so that the update stays well
/// inside the stability region (`h` at most a quarter of the fastest
/// lump's time constant).
#[inline]
pub fn substeps_raw(
    dt_s: f64,
    die_capacity: f64,
    sink_capacity: f64,
    g_ds: f64,
    g_sa: f64,
) -> (usize, f64) {
    let tau_die = die_capacity / g_ds;
    let tau_sink = sink_capacity / (g_ds + g_sa);
    let max_sub = (tau_die.min(tau_sink) * 0.25).max(1e-4);
    let n = (dt_s / max_sub).ceil() as usize;
    (n, dt_s / n as f64)
}

/// The split of a `dt_s` step when it is the same at every airflow, or
/// `None` for a stiff configuration whose sink lump can be the faster one.
///
/// `Some((n, h))` equals [`substeps_raw`] bit for bit at every `g_sa` that
/// [`sink_conductance_raw`] returns, given what `NodeConfig::validate`
/// guarantees (every value finite, `g_ds` and the capacities positive,
/// `g_nat` and `g_air` non-negative, `k` positive):
///
/// 1. `a = airflow.clamp(0, 1)` lies in `[0, 1]`, so `a^k` does too: the
///    exact power is at most 1, `pow(1, k)` is exactly 1, and a `powf`
///    accurate to within one ulp cannot round a value below 1 up past it
///    (the next `f64` above 1 is two ulps of `[0.5, 1)` away).
/// 2. IEEE rounding is monotone and `g_air · 1` is exact, so
///    `g_air · a^k ≤ g_air`, then `g_sa = g_nat + g_air · a^k ≤ g_nat +
///    g_air`, then `g_ds + g_sa ≤ g_ds + (g_nat + g_air)`, and dividing the
///    positive `sink_capacity` by the smaller positive sum gives the larger
///    quotient: `tau_sink(g_sa) ≥ tau_sink(g_nat + g_air)`.
/// 3. The test below is `tau_sink(g_nat + g_air) ≥ tau_die`, so
///    `tau_die.min(tau_sink)` is `tau_die` at every airflow (a NaN
///    `tau_sink` from a NaN airflow also yields `tau_die`), and `n` and `h`
///    depend on `dt_s`, `die_capacity` and `g_ds` alone.
#[inline]
pub(crate) fn fixed_substeps_raw(
    dt_s: f64,
    die_capacity: f64,
    sink_capacity: f64,
    g_ds: f64,
    g_nat: f64,
    g_air: f64,
) -> Option<(usize, f64)> {
    let g_max = g_nat + g_air;
    (sink_capacity / (g_ds + g_max) >= die_capacity / g_ds)
        .then(|| substeps_raw(dt_s, die_capacity, sink_capacity, g_ds, g_max))
}

/// The raw RC update: `n` explicit Euler sub-steps of `h` seconds on
/// caller-owned state. The expression order is the determinism contract.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn euler_raw(
    die_c: &mut f64,
    sink_c: &mut f64,
    ambient_c: f64,
    g_ds: f64,
    die_capacity: f64,
    sink_capacity: f64,
    g_sa: f64,
    power_w: f64,
    (n, h): (usize, f64),
) {
    for _ in 0..n {
        let flow_ds = g_ds * (*die_c - *sink_c);
        let flow_sa = g_sa * (*sink_c - ambient_c);
        *die_c += h * (power_w - flow_ds) / die_capacity;
        *sink_c += h * (flow_ds - flow_sa) / sink_capacity;
    }
}

impl ThermalConfig {
    /// Sink-to-ambient conductance for a given airflow fraction in `[0, 1]`.
    pub fn sink_conductance(&self, airflow: f64) -> f64 {
        sink_conductance_raw(
            self.natural_conductance_w_per_k,
            self.airflow_conductance_w_per_k,
            self.airflow_exponent,
            airflow,
        )
    }

    /// Steady-state `(die, sink)` temperatures for constant power and airflow.
    pub fn steady_state(&self, power_w: f64, airflow: f64) -> (f64, f64) {
        let g_sa = self.sink_conductance(airflow);
        let sink = self.ambient_c + power_w / g_sa;
        let die = sink + power_w / self.die_sink_conductance_w_per_k;
        (die, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ThermalConfig {
        ThermalConfig::default()
    }

    /// `(die, sink)` temperatures, both lumps starting at ambient.
    fn at_ambient(c: &ThermalConfig) -> (f64, f64) {
        (c.ambient_c, c.ambient_c)
    }

    /// One `dt_s` step of the RC laws at a fixed power and airflow.
    fn step(c: &ThermalConfig, (die, sink): &mut (f64, f64), dt_s: f64, power: f64, airflow: f64) {
        let g_sa = c.sink_conductance(airflow);
        let (g_ds, c_die, c_sink) =
            (c.die_sink_conductance_w_per_k, c.die_capacity_j_per_k, c.sink_capacity_j_per_k);
        let split = substeps_raw(dt_s, c_die, c_sink, g_ds, g_sa);
        euler_raw(die, sink, c.ambient_c, g_ds, c_die, c_sink, g_sa, power, split);
    }

    /// Runs the laws to convergence and returns the die temperature.
    fn settle(c: &ThermalConfig, t: &mut (f64, f64), power: f64, airflow: f64) -> f64 {
        for _ in 0..40_000 {
            step(c, t, 0.1, power, airflow);
        }
        t.0
    }

    #[test]
    fn steady_state_matches_settled_simulation() {
        let m = model();
        let settled = settle(&m, &mut at_ambient(&m), 60.0, 0.5);
        let (die, _) = m.steady_state(60.0, 0.5);
        assert!((settled - die).abs() < 0.05, "settled {settled} vs analytic {die}");
    }

    #[test]
    fn the_steady_state_is_a_fixed_point_of_the_step() {
        let m = model();
        let mut t = m.steady_state(20.0, 0.10);
        step(&m, &mut t, 0.05, 20.0, 0.10);
        let (die, sink) = m.steady_state(20.0, 0.10);
        assert!((t.0 - die).abs() < 1e-9);
        assert!((t.1 - sink).abs() < 1e-9);
    }

    #[test]
    fn idle_at_min_fan_sits_near_tmin() {
        // Calibration check: ~20 W idle, 10 % duty ⇒ around the ADT7467
        // Tmin of 38 °C (slightly above it, so the automatic curve idles
        // with a small duty margin).
        let (die, _) = model().steady_state(20.0, 0.10);
        assert!((36.0..44.0).contains(&die), "idle steady state {die}");
    }

    #[test]
    fn burn_at_full_fan_sits_in_low_50s() {
        // cpu-burn draws ≈ 70 W (48 W dynamic + 22 W static).
        let (die, _) = model().steady_state(70.0, 1.0);
        assert!((48.0..58.0).contains(&die), "full-fan burn steady state {die}");
    }

    #[test]
    fn bt_at_75_percent_cap_sits_just_above_dvfs_threshold() {
        // Table 1 calibration: NPB BT draws ≈ 60 W; even at a 75 %-capped
        // fan the steady state must land slightly above the 51 °C tDVFS
        // threshold (the paper's tDVFS makes 2 transitions at this cap).
        let (die, _) = model().steady_state(60.0, 0.75);
        assert!((51.0..55.0).contains(&die), "BT at 75% cap: {die}");
    }

    #[test]
    fn burn_with_stalled_fan_exceeds_emergency() {
        // With no airflow at all (seized rotor), a burn runs away past the
        // 70 °C hardware throttle point.
        let (die, _) = model().steady_state(70.0, 0.0);
        assert!(die > 70.0, "stalled-fan burn should run away, got {die}");
    }

    #[test]
    fn capped_25_percent_fan_cannot_hold_loads_below_threshold() {
        // Figure 9's setup: at a 25 % duty cap neither a full burn (70 W)
        // nor NPB BT (~60 W) stays below the 51 °C tDVFS threshold — DVFS
        // must act. BT additionally stays short of the 70 °C hardware
        // throttle so the DVFS layer (not the emergency monitor) does the
        // work.
        let (burn, _) = model().steady_state(70.0, 0.25);
        assert!(burn > 53.0, "25 %-duty burn steady state {burn}");
        let (bt, _) = model().steady_state(60.0, 0.25);
        assert!(bt > 53.0, "25 %-duty BT steady state {bt}");
        assert!(bt < 70.0, "BT should not reach the hardware throttle: {bt}");
    }

    #[test]
    fn more_airflow_means_cooler() {
        let m = model();
        let temps: Vec<f64> =
            [0.0, 0.25, 0.5, 0.75, 1.0].iter().map(|&a| m.steady_state(60.0, a).0).collect();
        assert!(temps.windows(2).all(|w| w[1] < w[0]), "monotone cooling: {temps:?}");
    }

    #[test]
    fn airflow_has_diminishing_returns() {
        // The paper's Figure 7 point: 50 % vs 75 % max duty differ little,
        // 25 % vs 100 % differ a lot. Check convexity of the cooling curve.
        let m = model();
        let t25 = m.steady_state(60.0, 0.25).0;
        let t50 = m.steady_state(60.0, 0.50).0;
        let t75 = m.steady_state(60.0, 0.75).0;
        let t100 = m.steady_state(60.0, 1.0).0;
        assert!(t25 - t50 > t50 - t75, "diminishing returns 25→50 vs 50→75");
        assert!(t50 - t75 > t75 - t100, "diminishing returns 50→75 vs 75→100");
    }

    #[test]
    fn die_reacts_faster_than_sink() {
        let m = model();
        let mut t = at_ambient(&m);
        // Step load from idle; after 3 s the die has moved much more than the sink.
        for _ in 0..30 {
            step(&m, &mut t, 0.1, 80.0, 0.3);
        }
        let die_rise = t.0 - 22.0;
        let sink_rise = t.1 - 22.0;
        assert!(die_rise > 3.0 * sink_rise, "die {die_rise} vs sink {sink_rise}");
    }

    #[test]
    fn zero_power_decays_to_ambient() {
        let m = model();
        let mut t = at_ambient(&m);
        settle(&m, &mut t, 60.0, 0.5);
        let settled = settle(&m, &mut t, 0.0, 0.5);
        assert!((settled - 22.0).abs() < 0.05, "decayed to {settled}");
    }

    #[test]
    fn ambient_step_shifts_operating_point() {
        let mut m = model();
        let mut t = at_ambient(&m);
        let before = settle(&m, &mut t, 40.0, 0.5);
        m.ambient_c = 32.0;
        let after = settle(&m, &mut t, 40.0, 0.5);
        assert!((after - before - 10.0).abs() < 0.1, "10 °C ambient step ⇒ 10 °C die shift");
    }

    #[test]
    fn energy_conservation_in_equilibrium() {
        // At steady state, heat in equals heat out through the sink.
        let m = model();
        let (die, sink) = m.steady_state(55.0, 0.6);
        let g_ds = 8.3;
        let flow_ds = g_ds * (die - sink);
        assert!((flow_ds - 55.0).abs() < 1e-9);
    }

    #[test]
    fn stable_for_large_steps() {
        // A 1 s macro step must not oscillate or blow up thanks to sub-stepping.
        let m = model();
        let mut t = at_ambient(&m);
        for _ in 0..5_000 {
            step(&m, &mut t, 1.0, 80.0, 0.2);
            assert!(t.0.is_finite());
            assert!(t.0 < 500.0);
        }
    }

    /// Checks `fixed_substeps_raw` against the per-tick split at both ends
    /// of the conductance range and at `powf` samples between; returns
    /// whether the configuration had a fixed split.
    fn check_fixed_split(c: &ThermalConfig, dt_s: f64, airflows: &[f64]) -> bool {
        let (g_ds, c_die, c_sink) =
            (c.die_sink_conductance_w_per_k, c.die_capacity_j_per_k, c.sink_capacity_j_per_k);
        let (g_nat, g_air) = (c.natural_conductance_w_per_k, c.airflow_conductance_w_per_k);
        let Some((n, h)) = fixed_substeps_raw(dt_s, c_die, c_sink, g_ds, g_nat, g_air) else {
            return false;
        };
        let ends = [g_nat, g_nat + g_air];
        let samples =
            airflows.iter().map(|&a| sink_conductance_raw(g_nat, g_air, c.airflow_exponent, a));
        for g_sa in ends.into_iter().chain(samples) {
            let (tick_n, tick_h) = substeps_raw(dt_s, c_die, c_sink, g_ds, g_sa);
            assert_eq!((tick_n, tick_h.to_bits()), (n, h.to_bits()), "{c:?} dt {dt_s} g_sa {g_sa}");
        }
        true
    }

    #[test]
    fn fixed_split_equals_the_per_tick_split_at_every_airflow() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0x5B_5711);
        let mut airflows = vec![0.0, 1.0, f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0];
        airflows.extend((0..200).map(|_| rng.gen::<f64>()));
        for dt_s in [0.05, 0.25, 1.0] {
            assert!(check_fixed_split(&ThermalConfig::default(), dt_s, &airflows));
        }
        let (mut fixed, mut stiff) = (0, 0);
        for _ in 0..2_000 {
            let c = ThermalConfig {
                die_capacity_j_per_k: rng.gen_range(0.01..100.0),
                sink_capacity_j_per_k: rng.gen_range(0.5..1_000.0),
                die_sink_conductance_w_per_k: rng.gen_range(0.1..20.0),
                natural_conductance_w_per_k: rng.gen_range(0.0..2.0),
                airflow_conductance_w_per_k: rng.gen_range(0.0..20.0),
                airflow_exponent: rng.gen_range(0.05..3.0),
                ambient_c: 22.0,
            };
            let dt_s = rng.gen_range(0.001..2.0);
            if check_fixed_split(&c, dt_s, &airflows[..24]) {
                fixed += 1;
            } else {
                stiff += 1;
            }
        }
        assert!(fixed > 500 && stiff > 100, "both kinds drawn: {fixed} fixed, {stiff} stiff");
    }
}
