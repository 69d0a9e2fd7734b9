//! Rack-level ambient coupling: the shared-air model behind the paper's
//! hot-spot motivation.
//!
//! The paper's introduction: *"hot spots or pockets of elevated
//! temperatures on the chips and system can be easily formed when room air
//! circulation is not effective."* With per-node models alone, each node
//! breathes constant-temperature air; this module closes the loop: a
//! fraction of every node's exhaust heat recirculates into the rack's
//! intake volume, which the room's CRAC flushes at a finite rate:
//!
//! ```text
//!   C_air · dT_air/dt = r · ΣQ_node − G_crac · (T_air − T_supply)
//! ```
//!
//! Poor circulation (small `G_crac`) lets the intake air ride up several
//! degrees under load — every node's operating point shifts with it, and
//! nodes' thermal fates become coupled through the air exactly as in a
//! dense rack.

use serde::{Deserialize, Serialize};
use unitherm_core::config::{check, ConfigError, Rule, POSITIVE, UNIT};
use unitherm_core::rule;

/// Rack air-volume parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackConfig {
    /// Thermal capacity of the rack's intake air volume, J/K.
    pub air_capacity_j_per_k: f64,
    /// CRAC supply-air temperature, °C.
    pub supply_air_c: f64,
    /// Conductance between rack air and the CRAC supply, W/K — the "room
    /// air circulation effectiveness" knob. Large = well-ventilated aisle;
    /// small = a hot pocket forms.
    pub crac_conductance_w_per_k: f64,
    /// Fraction of node exhaust heat that recirculates into the intake.
    pub recirculation_fraction: f64,
}

impl Default for RackConfig {
    fn default() -> Self {
        Self {
            air_capacity_j_per_k: 800.0,
            supply_air_c: 18.0,
            crac_conductance_w_per_k: 40.0,
            recirculation_fraction: 0.25,
        }
    }
}

impl RackConfig {
    /// A poorly ventilated rack: the configuration under which hot pockets
    /// form (CRAC conductance cut 4×).
    pub fn poor_circulation() -> Self {
        Self { crac_conductance_w_per_k: 10.0, ..Default::default() }
    }

    /// What [`RackConfig::validate`] checks, in order.
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(Finite air_capacity_j_per_k; "air capacity must be finite"),
        rule!(Finite supply_air_c; "supply air temperature must be finite"),
        rule!(Finite crac_conductance_w_per_k; "CRAC conductance must be finite"),
        rule!(Range air_capacity_j_per_k, POSITIVE; "air capacity must be positive"),
        rule!(Range crac_conductance_w_per_k, POSITIVE; "CRAC conductance must be positive"),
        rule!(Range recirculation_fraction, UNIT; "recirculation fraction must be in [0, 1]"),
    ];

    /// Validates the configuration against [`RackConfig::RULES`].
    ///
    /// # Errors
    /// Returns the first broken rule's error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(Self::RULES, self)
    }

    /// Steady-state intake-air temperature for a given recirculated heat
    /// load, °C.
    pub fn steady_air_c(&self, total_node_heat_w: f64) -> f64 {
        self.supply_air_c
            + self.recirculation_fraction * total_node_heat_w / self.crac_conductance_w_per_k
    }
}

/// The rack air state.
#[derive(Debug, Clone)]
pub struct RackModel {
    cfg: RackConfig,
    air_c: f64,
}

impl RackModel {
    /// Creates the rack with intake air at the steady state for the given
    /// initial heat load (idle nodes).
    ///
    /// # Panics
    /// Panics if `cfg` fails [`RackConfig::validate`].
    pub fn new(cfg: RackConfig, initial_heat_w: f64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid rack config: {e}");
        }
        let air_c = cfg.steady_air_c(initial_heat_w);
        Self { cfg, air_c }
    }

    /// Current intake-air temperature, °C.
    pub fn air_c(&self) -> f64 {
        self.air_c
    }

    /// The configuration.
    pub fn config(&self) -> &RackConfig {
        &self.cfg
    }

    /// Advances the air volume by `dt_s` with the given total node heat.
    pub fn step(&mut self, dt_s: f64, total_node_heat_w: f64) {
        assert!(dt_s > 0.0, "time step must be positive");
        assert!(total_node_heat_w >= 0.0, "heat cannot be negative");
        let inflow = self.cfg.recirculation_fraction * total_node_heat_w;
        let outflow = self.cfg.crac_conductance_w_per_k * (self.air_c - self.cfg.supply_air_c);
        // Exact first-order update toward the instantaneous equilibrium
        // (stable for any dt).
        let target = self.cfg.steady_air_c(total_node_heat_w);
        let tau = self.cfg.air_capacity_j_per_k / self.cfg.crac_conductance_w_per_k;
        let alpha = 1.0 - (-dt_s / tau).exp();
        self.air_c += (target - self.air_c) * alpha;
        debug_assert!(self.air_c.is_finite(), "air temp diverged ({inflow} in, {outflow} out)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_rack_sits_near_supply_plus_idle_load() {
        let cfg = RackConfig::default();
        // 4 idle nodes ≈ 4 × 45 W: 0.25·180/40 = 1.1 °C above supply.
        let r = RackModel::new(cfg, 180.0);
        assert!((r.air_c() - 19.125).abs() < 1e-9, "air {}", r.air_c());
    }

    #[test]
    fn loaded_rack_air_rises_with_poor_circulation() {
        let good = RackConfig::default();
        let poor = RackConfig::poor_circulation();
        // 4 loaded nodes ≈ 400 W.
        assert!((good.steady_air_c(400.0) - 20.5).abs() < 1e-9);
        assert!((poor.steady_air_c(400.0) - 28.0).abs() < 1e-9);
    }

    #[test]
    fn step_converges_to_steady_state() {
        let mut r = RackModel::new(RackConfig::poor_circulation(), 100.0);
        for _ in 0..10_000 {
            r.step(0.05, 400.0);
        }
        assert!((r.air_c() - 28.0).abs() < 0.05, "air {}", r.air_c());
    }

    #[test]
    fn large_steps_are_stable() {
        let mut r = RackModel::new(RackConfig::default(), 0.0);
        for _ in 0..100 {
            r.step(50.0, 500.0);
            assert!(r.air_c().is_finite());
            assert!(r.air_c() <= RackConfig::default().steady_air_c(500.0) + 1e-6);
        }
    }

    #[test]
    fn air_time_constant_is_tens_of_seconds() {
        // τ = C/G: 800/40 = 20 s (default), 800/10 = 80 s (poor).
        let mut r = RackModel::new(RackConfig::poor_circulation(), 0.0);
        let target = RackConfig::poor_circulation().steady_air_c(400.0);
        r.step(80.0, 400.0); // one τ
        let frac = (r.air_c() - 18.0) / (target - 18.0);
        assert!((frac - 0.632).abs() < 0.01, "after one tau: {frac}");
    }

    #[test]
    fn bad_fraction_rejected() {
        let cfg = RackConfig { recirculation_fraction: 1.5, ..Default::default() };
        assert!(cfg.validate().is_err_and(|e| e.message().contains("recirculation")));
    }
}
