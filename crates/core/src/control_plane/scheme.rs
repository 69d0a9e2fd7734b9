//! Serializable control-scheme descriptions and the single daemon factory.
//!
//! [`FanScheme`] and [`DvfsScheme`] name exactly the arms the paper's
//! experiments compare: traditional (chip-automatic) fan control, constant
//! speed, the dynamic history-based controller (± feedforward), tDVFS and
//! CPUSPEED. [`SchemeSpec`] composes them — either independently
//! (`Split`), as the paper's §4.4 coordinated hybrid, or with the ACPI
//! sleep-state daemon (§3.2.2) — and its [`SchemeSpec::build`] factory is
//! the **only** place in the workspace where a scheme description becomes
//! a daemon pipeline. The §4.4 rule (one `P_p` shared by the fan
//! controller and tDVFS, the fan ordered first) is stated once, in the
//! `Hybrid` arm of that factory.

use serde::{Deserialize, Serialize};

use super::daemons::{
    ChipAutoFan, ConstantFanDaemon, CpuSpeedDaemon, StaticCurveFan, TdvfsDaemon, UnifiedDaemon,
};
use super::ControlDaemon;
use crate::actuator::{FanDuty, FreqMhz};
use crate::baseline::StaticFanCurve;
use crate::config::{check, ConfigError, Rule};
use crate::control_array::Policy;
use crate::controller::ControllerConfig;
use crate::feedforward::FeedforwardConfig;
use crate::governor::CpuSpeedConfig;
use crate::tdvfs::TdvfsConfig;

/// Deserialization writes `Policy`'s inner value directly, so every scheme
/// validator re-checks the `[P_MIN, P_MAX]` range here before the value can
/// reach `Policy::n_p` (which underflows below `P_MIN`).
fn check_policy(policy: Policy) -> Result<(), ConfigError> {
    policy.validate().map_err(|e| ConfigError::new(e.to_string()))
}

/// The rule on a `Constant` arm's duty, percent.
const DUTY: &[Rule<FanDuty>] = &[crate::rule!("duty", AtMost(|d| usize::from(*d), 100);
    "duty must be at most {max} (got {got})")];

/// The rule on every other arm's duty cap, percent.
const MAX_DUTY: &[Rule<FanDuty>] = &[crate::rule!("max_duty", AtMost(|d| usize::from(*d), 100);
    "max_duty must be at most {max} (got {got})")];

/// Fan-side control scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FanScheme {
    /// Leave the ADT7467 in automatic mode — the paper's "traditional
    /// static method" — optionally capping the duty in hardware.
    ChipAutomatic {
        /// Maximum allowed duty, percent.
        max_duty: FanDuty,
    },
    /// The same static curve, but run as a software daemon through the
    /// manual-mode driver (useful for ablations; behaves like
    /// `ChipAutomatic` up to sensor noise).
    SoftwareStatic {
        /// The curve to apply.
        curve: StaticFanCurve,
    },
    /// Constant-speed control (Figure 6's third arm).
    Constant {
        /// The pinned duty, percent.
        duty: FanDuty,
    },
    /// The paper's dynamic, history-based fan controller.
    Dynamic {
        /// Aggressiveness policy `P_p`.
        policy: Policy,
        /// Maximum allowed duty, percent (Figure 7's knob).
        max_duty: FanDuty,
        /// Controller tuning.
        config: ControllerConfig,
    },
    /// The dynamic controller augmented with utilization feedforward —
    /// the paper's §5 future work (hardware-counter-assisted prediction).
    DynamicFeedforward {
        /// Aggressiveness policy `P_p`.
        policy: Policy,
        /// Maximum allowed duty, percent.
        max_duty: FanDuty,
        /// Reactive-controller tuning.
        config: ControllerConfig,
        /// Feedforward-predictor tuning.
        feedforward: FeedforwardConfig,
    },
}

impl FanScheme {
    /// The paper's default dynamic scheme: `P_p = 50`, uncapped.
    pub fn dynamic(policy: Policy, max_duty: FanDuty) -> Self {
        FanScheme::Dynamic { policy, max_duty, config: ControllerConfig::default() }
    }

    /// The feedforward-augmented dynamic scheme with default tuning.
    pub fn dynamic_feedforward(policy: Policy, max_duty: FanDuty) -> Self {
        FanScheme::DynamicFeedforward {
            policy,
            max_duty,
            config: ControllerConfig::default(),
            feedforward: FeedforwardConfig::default(),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            FanScheme::ChipAutomatic { max_duty } => format!("traditional(max={max_duty}%)"),
            FanScheme::SoftwareStatic { curve } => {
                format!("static-sw(max={}%)", curve.pwm_max)
            }
            FanScheme::Constant { duty } => format!("constant({duty}%)"),
            FanScheme::Dynamic { policy, max_duty, .. } => {
                format!("dynamic(P_p={}, max={max_duty}%)", policy.value())
            }
            FanScheme::DynamicFeedforward { policy, max_duty, .. } => {
                format!("dynamic+ff(P_p={}, max={max_duty}%)", policy.value())
            }
        }
    }

    /// Validates this arm's duty percent, then every controller
    /// configuration reachable from it.
    ///
    /// # Errors
    /// Returns the first invalid value found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            FanScheme::Dynamic { policy, max_duty, config } => {
                check(MAX_DUTY, max_duty)?;
                check_policy(*policy)?;
                config.validate()
            }
            FanScheme::DynamicFeedforward { policy, max_duty, config, feedforward } => {
                check(MAX_DUTY, max_duty)?;
                check_policy(*policy)?;
                config.validate()?;
                feedforward.validate()
            }
            FanScheme::SoftwareStatic { curve } => check(StaticFanCurve::RULES, curve),
            FanScheme::ChipAutomatic { max_duty } => check(MAX_DUTY, max_duty),
            FanScheme::Constant { duty } => check(DUTY, duty),
        }
    }

    fn binding(&self) -> FanBinding {
        match self {
            FanScheme::ChipAutomatic { max_duty } => FanBinding::ChipAuto { cap: *max_duty },
            FanScheme::SoftwareStatic { curve } => FanBinding::Manual { max_duty: curve.pwm_max },
            FanScheme::Constant { .. } => FanBinding::Manual { max_duty: 100 },
            FanScheme::Dynamic { max_duty, .. }
            | FanScheme::DynamicFeedforward { max_duty, .. } => {
                FanBinding::Manual { max_duty: *max_duty }
            }
        }
    }

    fn daemon(&self) -> Box<dyn ControlDaemon> {
        match self {
            FanScheme::ChipAutomatic { .. } => Box::new(ChipAutoFan::new()),
            FanScheme::SoftwareStatic { curve } => Box::new(StaticCurveFan::new(*curve)),
            FanScheme::Constant { duty } => Box::new(ConstantFanDaemon::new(*duty)),
            FanScheme::Dynamic { policy, max_duty, config } => {
                Box::new(UnifiedDaemon::fan(*policy, *max_duty, *config, None))
            }
            FanScheme::DynamicFeedforward { policy, max_duty, config, feedforward } => {
                Box::new(UnifiedDaemon::fan(*policy, *max_duty, *config, Some(*feedforward)))
            }
        }
    }
}

/// DVFS-side control scheme.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum DvfsScheme {
    /// No frequency scaling: always the highest P-state.
    #[default]
    None,
    /// The paper's temperature-aware tDVFS daemon.
    Tdvfs {
        /// Aggressiveness policy `P_p`.
        policy: Policy,
        /// Daemon tuning (threshold, confirmation rounds).
        config: TdvfsConfig,
    },
    /// The CPUSPEED utilization governor (baseline).
    CpuSpeed {
        /// Governor tuning.
        config: CpuSpeedConfig,
    },
}

impl DvfsScheme {
    /// tDVFS with default tuning (51 °C threshold).
    pub fn tdvfs(policy: Policy) -> Self {
        DvfsScheme::Tdvfs { policy, config: TdvfsConfig::default() }
    }

    /// CPUSPEED with default tuning.
    pub fn cpuspeed() -> Self {
        DvfsScheme::CpuSpeed { config: CpuSpeedConfig::default() }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            DvfsScheme::None => "no-dvfs".to_string(),
            DvfsScheme::Tdvfs { policy, config } => {
                format!("tDVFS(P_p={}, T={}°C)", policy.value(), config.threshold_c)
            }
            DvfsScheme::CpuSpeed { .. } => "CPUSPEED".to_string(),
        }
    }

    /// Validates every controller configuration reachable from this arm.
    ///
    /// # Errors
    /// Returns the first invalid configuration found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            DvfsScheme::Tdvfs { policy, config } => {
                check_policy(*policy)?;
                config.validate()
            }
            DvfsScheme::CpuSpeed { config } => config.validate(),
            DvfsScheme::None => Ok(()),
        }
    }

    fn daemon(&self, ctx: &BuildContext) -> Option<Box<dyn ControlDaemon>> {
        match self {
            DvfsScheme::None => None,
            DvfsScheme::Tdvfs { policy, config } => {
                Some(Box::new(TdvfsDaemon::new(&ctx.available_mhz, *policy, *config)))
            }
            DvfsScheme::CpuSpeed { config } => {
                Some(Box::new(CpuSpeedDaemon::new(&ctx.available_mhz, *config)))
            }
        }
    }
}

/// How the fan hardware must be bound for a scheme: left on the chip's
/// automatic curve (with a hardware duty cap), or taken over by the
/// manual-mode driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanBinding {
    /// The chip's automatic curve runs the fan; only the `PWM_MAX` cap is
    /// written at probe time.
    ChipAuto {
        /// Hardware duty cap, percent.
        cap: FanDuty,
    },
    /// Software owns the fan through the manual-mode driver, which clamps
    /// commands to `max_duty`.
    Manual {
        /// Driver-enforced maximum duty, percent.
        max_duty: FanDuty,
    },
}

/// Platform facts the factory needs to build daemons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildContext {
    /// Available CPU frequencies in descending MHz.
    pub available_mhz: Vec<FreqMhz>,
}

/// A complete, serializable control scheme for one node.
///
/// `build()` is the single point where a scheme becomes daemons: the
/// cluster node simulator, the one host of a `ControlPlane`, instantiates
/// every node's pipeline through it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchemeSpec {
    /// Independent fan and DVFS arms (every pre-existing experiment).
    Split {
        /// Fan-side scheme.
        fan: FanScheme,
        /// DVFS-side scheme.
        dvfs: DvfsScheme,
    },
    /// The paper's §4.4 coordinated hybrid: the dynamic fan runs first in
    /// the pipeline and absorbs what out-of-band cooling can; tDVFS (same
    /// policy) only sacrifices performance for what remains.
    Hybrid {
        /// Aggressiveness policy `P_p` shared by both daemons.
        policy: Policy,
        /// Maximum allowed fan duty, percent.
        max_duty: FanDuty,
        /// Fan-controller tuning.
        config: ControllerConfig,
        /// tDVFS tuning.
        tdvfs: TdvfsConfig,
    },
    /// A fan arm plus the ACPI processor sleep-state daemon (§3.2.2): the
    /// unified controller walks C0–C3 as temperature history dictates.
    AcpiSleep {
        /// Aggressiveness policy `P_p` for the sleep controller.
        policy: Policy,
        /// Sleep-controller tuning.
        config: ControllerConfig,
        /// Fan-side scheme run ahead of the sleep daemon.
        fan: FanScheme,
    },
}

impl SchemeSpec {
    /// Composes independent fan and DVFS arms.
    pub fn split(fan: FanScheme, dvfs: DvfsScheme) -> Self {
        SchemeSpec::Split { fan, dvfs }
    }

    /// The §4.4 hybrid with default tuning.
    pub fn hybrid(policy: Policy, max_duty: FanDuty) -> Self {
        SchemeSpec::Hybrid {
            policy,
            max_duty,
            config: ControllerConfig::default(),
            tdvfs: TdvfsConfig::default(),
        }
    }

    /// ACPI sleep-state control with default tuning over the given fan arm.
    pub fn acpi_sleep(policy: Policy, fan: FanScheme) -> Self {
        SchemeSpec::AcpiSleep { policy, config: ControllerConfig::default(), fan }
    }

    /// Builds the daemon pipeline, in coordination order (fan before DVFS
    /// before sleep). This is the only scheme-to-daemons factory.
    pub fn build(&self, ctx: &BuildContext) -> Vec<Box<dyn ControlDaemon>> {
        match self {
            SchemeSpec::Split { fan, dvfs } => {
                let mut daemons = vec![fan.daemon()];
                daemons.extend(dvfs.daemon(ctx));
                daemons
            }
            SchemeSpec::Hybrid { policy, max_duty, config, tdvfs } => vec![
                Box::new(UnifiedDaemon::fan(*policy, *max_duty, *config, None)),
                Box::new(TdvfsDaemon::new(&ctx.available_mhz, *policy, *tdvfs)),
            ],
            SchemeSpec::AcpiSleep { policy, config, fan } => {
                vec![fan.daemon(), Box::new(UnifiedDaemon::sleep(*policy, *config))]
            }
        }
    }

    /// How the fan hardware must be bound for this scheme.
    pub fn fan_binding(&self) -> FanBinding {
        match self {
            SchemeSpec::Split { fan, .. } | SchemeSpec::AcpiSleep { fan, .. } => fan.binding(),
            SchemeSpec::Hybrid { max_duty, .. } => FanBinding::Manual { max_duty: *max_duty },
        }
    }

    /// True when the scheme needs a cpufreq driver bound.
    pub fn wants_cpufreq(&self) -> bool {
        match self {
            SchemeSpec::Split { dvfs, .. } => *dvfs != DvfsScheme::None,
            SchemeSpec::Hybrid { .. } => true,
            SchemeSpec::AcpiSleep { .. } => false,
        }
    }

    /// Validates every controller configuration reachable from this scheme.
    ///
    /// # Errors
    /// Returns the first invalid configuration found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            SchemeSpec::Split { fan, dvfs } => {
                fan.validate()?;
                dvfs.validate()
            }
            SchemeSpec::Hybrid { policy, max_duty, config, tdvfs } => {
                check(MAX_DUTY, max_duty)?;
                check_policy(*policy)?;
                config.validate()?;
                tdvfs.validate()
            }
            SchemeSpec::AcpiSleep { policy, config, fan } => {
                check_policy(*policy)?;
                config.validate()?;
                fan.validate()
            }
        }
    }

    /// Fan-side label for reports.
    pub fn fan_label(&self) -> String {
        match self {
            SchemeSpec::Split { fan, .. } | SchemeSpec::AcpiSleep { fan, .. } => fan.label(),
            SchemeSpec::Hybrid { policy, max_duty, .. } => {
                format!("hybrid(P_p={}, max={max_duty}%)", policy.value())
            }
        }
    }

    /// DVFS/in-band-side label for reports.
    pub fn dvfs_label(&self) -> String {
        match self {
            SchemeSpec::Split { dvfs, .. } => dvfs.label(),
            SchemeSpec::Hybrid { policy, .. } => {
                format!("hybrid-tDVFS(P_p={})", policy.value())
            }
            SchemeSpec::AcpiSleep { policy, .. } => {
                format!("acpi-sleep(P_p={})", policy.value())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> BuildContext {
        BuildContext { available_mhz: vec![2400, 2200, 2000, 1800, 1000] }
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(FanScheme::ChipAutomatic { max_duty: 75 }.label(), "traditional(max=75%)");
        assert_eq!(FanScheme::Constant { duty: 75 }.label(), "constant(75%)");
        assert_eq!(FanScheme::dynamic(Policy::MODERATE, 25).label(), "dynamic(P_p=50, max=25%)");
        assert_eq!(DvfsScheme::None.label(), "no-dvfs");
        assert!(DvfsScheme::tdvfs(Policy::MODERATE).label().contains("51"));
        assert_eq!(DvfsScheme::cpuspeed().label(), "CPUSPEED");
    }

    #[test]
    fn software_static_label() {
        let s = FanScheme::SoftwareStatic { curve: StaticFanCurve::with_max(75) };
        assert_eq!(s.label(), "static-sw(max=75%)");
    }

    #[test]
    fn spec_labels_cover_all_arms() {
        let split = SchemeSpec::split(
            FanScheme::dynamic(Policy::MODERATE, 50),
            DvfsScheme::tdvfs(Policy::MODERATE),
        );
        assert_eq!(split.fan_label(), "dynamic(P_p=50, max=50%)");
        assert!(split.dvfs_label().starts_with("tDVFS"));

        let hybrid = SchemeSpec::hybrid(Policy::AGGRESSIVE, 80);
        assert_eq!(hybrid.fan_label(), "hybrid(P_p=25, max=80%)");
        assert_eq!(hybrid.dvfs_label(), "hybrid-tDVFS(P_p=25)");

        let acpi = SchemeSpec::acpi_sleep(Policy::MODERATE, FanScheme::Constant { duty: 40 });
        assert_eq!(acpi.fan_label(), "constant(40%)");
        assert_eq!(acpi.dvfs_label(), "acpi-sleep(P_p=50)");
    }

    #[test]
    fn build_produces_expected_pipelines() {
        let cases: Vec<(SchemeSpec, Vec<&str>)> = vec![
            (
                SchemeSpec::split(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::None),
                vec!["chip-auto-fan"],
            ),
            (
                SchemeSpec::split(
                    FanScheme::SoftwareStatic { curve: StaticFanCurve::default() },
                    DvfsScheme::cpuspeed(),
                ),
                vec!["static-curve-fan", "cpuspeed"],
            ),
            (
                SchemeSpec::split(
                    FanScheme::dynamic_feedforward(Policy::MODERATE, 100),
                    DvfsScheme::tdvfs(Policy::MODERATE),
                ),
                vec!["feedforward-fan", "tdvfs"],
            ),
            (SchemeSpec::hybrid(Policy::MODERATE, 100), vec!["dynamic-fan", "tdvfs"]),
            (
                SchemeSpec::acpi_sleep(Policy::MODERATE, FanScheme::Constant { duty: 30 }),
                vec!["constant-fan", "acpi-sleep"],
            ),
        ];
        for (spec, expected) in cases {
            let labels: Vec<String> = spec.build(&ctx()).iter().map(|d| d.label()).collect();
            assert_eq!(labels, expected, "spec {spec:?}");
        }
    }

    #[test]
    fn fan_binding_per_arm() {
        assert_eq!(
            SchemeSpec::split(FanScheme::ChipAutomatic { max_duty: 75 }, DvfsScheme::None)
                .fan_binding(),
            FanBinding::ChipAuto { cap: 75 }
        );
        assert_eq!(
            SchemeSpec::split(
                FanScheme::SoftwareStatic { curve: StaticFanCurve::with_max(80) },
                DvfsScheme::None
            )
            .fan_binding(),
            FanBinding::Manual { max_duty: 80 }
        );
        assert_eq!(
            SchemeSpec::split(FanScheme::Constant { duty: 40 }, DvfsScheme::None).fan_binding(),
            FanBinding::Manual { max_duty: 100 }
        );
        assert_eq!(
            SchemeSpec::hybrid(Policy::MODERATE, 60).fan_binding(),
            FanBinding::Manual { max_duty: 60 }
        );
        assert_eq!(
            SchemeSpec::acpi_sleep(Policy::MODERATE, FanScheme::dynamic(Policy::MODERATE, 70))
                .fan_binding(),
            FanBinding::Manual { max_duty: 70 }
        );
    }

    #[test]
    fn wants_cpufreq_per_arm() {
        assert!(!SchemeSpec::split(FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None)
            .wants_cpufreq());
        assert!(SchemeSpec::split(
            FanScheme::dynamic(Policy::MODERATE, 100),
            DvfsScheme::cpuspeed()
        )
        .wants_cpufreq());
        assert!(SchemeSpec::hybrid(Policy::MODERATE, 100).wants_cpufreq());
        assert!(!SchemeSpec::acpi_sleep(Policy::MODERATE, FanScheme::Constant { duty: 40 })
            .wants_cpufreq());
    }

    #[test]
    fn validate_rejects_bad_controller_configs() {
        let bad = ControllerConfig { t_min_c: 60.0, t_max_c: 50.0, ..Default::default() };
        let spec = SchemeSpec::Split {
            fan: FanScheme::Dynamic { policy: Policy::MODERATE, max_duty: 100, config: bad },
            dvfs: DvfsScheme::None,
        };
        let err = spec.validate().expect_err("inverted range must be rejected");
        assert!(err.to_string().contains("temperature range"), "{err}");

        let hybrid = SchemeSpec::Hybrid {
            policy: Policy::MODERATE,
            max_duty: 100,
            config: ControllerConfig::default(),
            tdvfs: TdvfsConfig { controller: bad, ..Default::default() },
        };
        assert!(hybrid.validate().is_err());

        assert!(SchemeSpec::hybrid(Policy::MODERATE, 100).validate().is_ok());
    }

    #[test]
    fn out_of_range_policy_from_json_is_rejected() {
        // Deserialization bypasses Policy::new, so a scenario file can carry
        // P_p = 0 — validate() must catch it before n_p underflows.
        for raw in [0u32, 101] {
            let json = format!(
                "{{\"Hybrid\":{{\"policy\":{raw},\"max_duty\":60,\
                 \"config\":{},\"tdvfs\":{}}}}}",
                serde_json::to_string(&ControllerConfig::default()).expect("serialize"),
                serde_json::to_string(&TdvfsConfig::default()).expect("serialize"),
            );
            let spec: SchemeSpec = serde_json::from_str(&json).expect("deserialize");
            let err = spec.validate().expect_err("out-of-range policy must be rejected");
            assert!(err.to_string().contains("outside [1, 100]"), "{err}");
        }

        let tdvfs = DvfsScheme::Tdvfs { policy: Policy::MODERATE, config: TdvfsConfig::default() };
        assert!(tdvfs.validate().is_ok());
    }

    #[test]
    fn specs_round_trip_through_serde() {
        let specs = vec![
            SchemeSpec::split(
                FanScheme::dynamic_feedforward(Policy::AGGRESSIVE, 85),
                DvfsScheme::tdvfs(Policy::WEAK),
            ),
            SchemeSpec::split(
                FanScheme::SoftwareStatic { curve: StaticFanCurve::with_max(70) },
                DvfsScheme::cpuspeed(),
            ),
            SchemeSpec::hybrid(Policy::MODERATE, 60),
            SchemeSpec::acpi_sleep(Policy::MODERATE, FanScheme::ChipAutomatic { max_duty: 90 }),
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).expect("serialize");
            let back: SchemeSpec = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, spec);
            // Labels (and therefore reports) survive the round trip.
            assert_eq!(back.fan_label(), spec.fan_label());
            assert_eq!(back.dvfs_label(), spec.dvfs_label());
        }
    }
}
