//! Every validation rule's error text, pinned byte for byte.
//!
//! Each case changes one field of a fully populated scenario document (or
//! replaces one block), feeds the text back through the scenario-file path
//! and expects `Scenario::validate` to fail with exactly the given message.
//! The service and the CLI print these messages verbatim (`POST /jobs`
//! 400 bodies, `unusable scenario: …`), so a refactor of the rules must
//! keep every one of them.

mod json_doc;

use unitherm::cluster::{DvfsScheme, FanScheme, Scenario, WorkloadSpec};
use unitherm::core::baseline::StaticFanCurve;
use unitherm::core::control_array::Policy;
use unitherm::core::failsafe::FailsafeConfig;
use unitherm::simnode::faults::{FaultEvent, FaultPlan, TickFaultSchedule};
use unitherm::simnode::NodeConfig;
use unitherm::workload::burn::BurnConfig;

/// A document with every block a rule reads: the feedforward fan arm,
/// tDVFS, one override of each kind, failsafe, rack, a tuned cpu-burn and
/// both kinds of fault entry.
fn base() -> serde_json::Value {
    let scenario = Scenario::new("pins")
        .with_nodes(4)
        .with_fan(FanScheme::dynamic_feedforward(Policy::MODERATE, 100))
        .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
        .with_node_fan(1, FanScheme::SoftwareStatic { curve: StaticFanCurve::default() })
        .with_node_config(2, NodeConfig::default())
        .with_failsafe(FailsafeConfig::default())
        .with_rack(Default::default())
        .with_workload(WorkloadSpec::CpuBurnTuned(BurnConfig::default()))
        .with_fault(0, FaultPlan::none().at(1.0, FaultEvent::AmbientStep(30.0)))
        .with_tick_faults(0, TickFaultSchedule::none().at_tick(5, FaultEvent::SensorJitter(0.5)));
    json_doc::tree(&scenario)
}

/// A block setting the full control scheme, with the fan overrides it
/// refuses removed.
fn scheme(json: &str) -> Vec<(String, String)> {
    vec![("fan_overrides".into(), "[]".into()), ("scheme".into(), json.into())]
}

const CONTROLLER: &str = r#"{"array_len":100,"t_min_c":38.0,"t_max_c":82.0,
    "window":{"l1_len":4,"l2_len":5},"l1_deadband_c":0.75}"#;
const BAD_CONTROLLER: &str = r#"{"array_len":0,"t_min_c":38.0,"t_max_c":82.0,
    "window":{"l1_len":4,"l2_len":5},"l1_deadband_c":0.75}"#;

/// The single-field cases: `(path, new value, full message)`.
fn field_cases() -> Vec<(String, &'static str, &'static str)> {
    let cases: &[(&str, &str, &str)] = &[
        // Top level.
        ("nodes", "0", "need at least one node"),
        ("threads", "0", "need at least one worker thread"),
        ("max_time_s", "0.0", "time limit must be finite and positive"),
        ("max_time_s", "-5.0", "time limit must be finite and positive"),
        ("max_time_s", "1e999", "time limit must be finite and positive"),
        ("cooldown_s", "1e999", "cooldown must be finite"),
        ("cooldown_s", "-1e999", "cooldown must be finite"),
        ("dt_s", "0.0", "tick must be positive"),
        ("dt_s", "1e999", "tick must be finite"),
        ("sample_period_s", "0.01", "sampling cannot outpace the tick"),
        ("sample_period_s", "0.13", "sample period must be a whole number of ticks"),
        ("event_capacity", "65537", "event_capacity must be at most 65536 records (got 65537)"),
        (
            "event_capacity",
            "100000000000000",
            "event_capacity must be at most 65536 records (got 100000000000000)",
        ),
        // Workload.
        ("workload", r#"{"Script": []}"#, "workload: script must not be empty"),
        (
            "workload",
            r#"{"Script": [{"duration_s": -1.0, "utilization": 0.5}]}"#,
            "workload: segment 0: duration_s must be positive (got -1)",
        ),
        (
            "workload",
            r#"{"Script": [{"duration_s": 1.0, "utilization": 0.5},
                {"duration_s": 1.0, "utilization": 2.0}]}"#,
            "workload: segment 1: utilization must be in [0,1] (got 2)",
        ),
        (
            "workload",
            r#"{"Trace": {"points": [], "looped": false}}"#,
            "workload: trace must not be empty",
        ),
        (
            "workload",
            r#"{"Trace": {"points": [[-1.0, 0.5, 0.5]], "looped": false}}"#,
            "workload: trace point 0: timestamps must be finite and non-negative",
        ),
        (
            "workload",
            r#"{"Trace": {"points": [[1.0, 0.5, 0.5], [0.5, 0.5, 0.5]], "looped": false}}"#,
            "workload: trace point 1: timestamps must be strictly increasing",
        ),
        (
            "workload",
            r#"{"Trace": {"points": [[0.0, 2.0, 0.5]], "looped": false}}"#,
            "workload: trace point 0: utilization must be in [0,1]",
        ),
        (
            "workload",
            r#"{"Trace": {"points": [[0.0, 0.5, -0.5]], "looped": true}}"#,
            "workload: trace point 0: activity must be in [0,1]",
        ),
        (
            "workload.CpuBurnTuned.burst_s",
            "[5.0, 1.0]",
            "workload: invalid burst range: burst_s (5, 1) must be finite, positive and ordered",
        ),
        (
            "workload.CpuBurnTuned.gap_s",
            "[0.0, 1.0]",
            "workload: invalid gap range: gap_s (0, 1) must be finite, positive and ordered",
        ),
        (
            "workload.CpuBurnTuned.gap_util",
            "1.5",
            "workload: burst_util and gap_util must be in [0,1] (got 1 and 1.5)",
        ),
        (
            "workload.CpuBurnTuned.jitter",
            "-1.0",
            "workload: jitter must be finite and non-negative (got -1)",
        ),
        // Fault entries.
        ("faults.0.0", "9", "fault plan for nonexistent node 9"),
        (
            "faults.0.1.events.0.0",
            "-1.0",
            "fault plan (node 0): event time must be finite and non-negative",
        ),
        (
            "faults.0.1.events",
            r#"[[2.0, "FanFailure"], [1.0, "FanRepair"]]"#,
            "fault plan (node 0): event times must be in order",
        ),
        (
            "faults.0.1.events.0.1.AmbientStep",
            "1e999",
            "fault plan (node 0): ambient step must be finite",
        ),
        (
            "faults.0.1.events.0.1",
            r#"{"SensorJitter": -1.0}"#,
            "fault plan (node 0): sensor jitter must be finite and non-negative",
        ),
        ("tick_faults.0.0", "9", "tick-fault schedule for nonexistent node 9"),
        (
            "tick_faults.0.1.events.0.0",
            "0",
            "tick-fault schedule (node 0): tick faults are 1-based (delivered at the start of \
             that tick)",
        ),
        (
            "tick_faults.0.1.events",
            r#"[[7, "FanFailure"], [6, "FanRepair"]]"#,
            "tick-fault schedule (node 0): event ticks must be in order",
        ),
        (
            "tick_faults.0.1.events.0.1",
            r#"{"AmbientStep": -1e999}"#,
            "tick-fault schedule (node 0): ambient step must be finite",
        ),
        // Overrides.
        ("fan_overrides.0.0", "9", "fan override for nonexistent node 9"),
        ("node_config_overrides.0.0", "9", "config override for nonexistent node 9"),
        (
            "node_config_overrides.0.1.thermal.die_capacity_j_per_k",
            "0.0",
            "node_config_overrides (node 2): die capacity must be positive",
        ),
        (
            "fan_overrides",
            r#"[[1, {"Constant": {"duty": 50}}], [1, {"Constant": {"duty": 60}}]]"#,
            "fan_overrides: node 1 has more than one entry",
        ),
        // Rack.
        ("rack.air_capacity_j_per_k", "1e999", "rack: air capacity must be finite"),
        ("rack.supply_air_c", "-1e999", "rack: supply air temperature must be finite"),
        ("rack.crac_conductance_w_per_k", "1e999", "rack: CRAC conductance must be finite"),
        ("rack.air_capacity_j_per_k", "0.0", "rack: air capacity must be positive"),
        ("rack.crac_conductance_w_per_k", "0.0", "rack: CRAC conductance must be positive"),
        ("rack.recirculation_fraction", "1.5", "rack: recirculation fraction must be in [0, 1]"),
        ("rack.recirculation_fraction", "-1e999", "rack: recirculation fraction must be in [0, 1]"),
        // Failsafe.
        ("failsafe.max_stale_samples", "0", "need a stale budget of at least 1 sample"),
        ("failsafe.release_temp_c", "65.0", "release temperature must be below panic temperature"),
        ("failsafe.panic_temp_c", "-1e999", "release temperature must be below panic temperature"),
        // The fan arm: policy, controller, window, feedforward.
        ("fan.DynamicFeedforward.policy", "0", "policy P_p = 0 outside [1, 100]"),
        ("fan.DynamicFeedforward.policy", "101", "policy P_p = 101 outside [1, 100]"),
        ("fan.DynamicFeedforward.config.array_len", "0", "array length must be at least 1"),
        (
            "fan.DynamicFeedforward.config.array_len",
            "4097",
            "array_len must be at most 4096 (got 4097)",
        ),
        (
            "fan.DynamicFeedforward.config.t_min_c",
            "90.0",
            "temperature range must be positive (90 .. 82)",
        ),
        (
            "fan.DynamicFeedforward.config.t_max_c",
            "-1e999",
            "temperature range must be positive (38 .. -inf)",
        ),
        (
            "fan.DynamicFeedforward.config.t_min_c",
            "82.5",
            "temperature range must be positive (82.5 .. 82)",
        ),
        ("fan.DynamicFeedforward.config.l1_deadband_c", "-1.0", "deadband must be non-negative"),
        (
            "fan.DynamicFeedforward.config.window.l1_len",
            "1",
            "level-one window needs at least 2 entries",
        ),
        (
            "fan.DynamicFeedforward.config.window.l1_len",
            "4097",
            "level-one window length must be even",
        ),
        (
            "fan.DynamicFeedforward.config.window.l2_len",
            "1",
            "level-two window needs at least 2 entries",
        ),
        (
            "fan.DynamicFeedforward.config.window.l1_len",
            "4098",
            "l1_len must be at most 4096 (got 4098)",
        ),
        (
            "fan.DynamicFeedforward.config.window.l2_len",
            "4097",
            "l2_len must be at most 4096 (got 4097)",
        ),
        (
            "fan.DynamicFeedforward.feedforward.samples_per_round",
            "0",
            "need at least one sample per round",
        ),
        (
            "fan.DynamicFeedforward.feedforward.samples_per_round",
            "4097",
            "samples_per_round must be at most 4096 (got 4097)",
        ),
        ("fan.DynamicFeedforward.feedforward.gain_c_per_util", "-1.0", "gain must be non-negative"),
        (
            "fan.DynamicFeedforward.feedforward.deadband_util",
            "-1.0",
            "deadband must be non-negative",
        ),
        // The DVFS arm: tDVFS with its embedded controller.
        ("dvfs.Tdvfs.policy", "0", "policy P_p = 0 outside [1, 100]"),
        ("dvfs.Tdvfs.config.samples_per_round", "0", "need at least one sample per round"),
        ("dvfs.Tdvfs.config.consecutive_rounds", "0", "need at least one confirmation round"),
        (
            "dvfs.Tdvfs.config.samples_per_round",
            "4097",
            "samples_per_round must be at most 4096 (got 4097)",
        ),
        (
            "dvfs.Tdvfs.config.consecutive_rounds",
            "4097",
            "consecutive_rounds must be at most 4096 (got 4097)",
        ),
        ("dvfs.Tdvfs.config.hysteresis_c", "-1.0", "hysteresis must be non-negative"),
        ("dvfs.Tdvfs.config.escalation_margin_c", "-1.0", "escalation margin must be non-negative"),
        (
            "dvfs.Tdvfs.config.controller.t_max_c",
            "10.0",
            "temperature range must be positive (38 .. 10)",
        ),
        (
            "dvfs.Tdvfs.config.controller.window.l2_len",
            "0",
            "level-two window needs at least 2 entries",
        ),
        // CPUSPEED.
        (
            "dvfs",
            r#"{"CpuSpeed": {"config": {"interval_s": 0.0, "up_threshold": 0.85,
                "down_threshold": 0.5}}}"#,
            "interval must be positive",
        ),
        (
            "dvfs",
            r#"{"CpuSpeed": {"config": {"interval_s": -1e999, "up_threshold": 0.85,
                "down_threshold": 0.5}}}"#,
            "interval must be positive",
        ),
        (
            "dvfs",
            r#"{"CpuSpeed": {"config": {"interval_s": 1.0, "up_threshold": 1.5,
                "down_threshold": 0.5}}}"#,
            "thresholds must be within [0, 1]",
        ),
        (
            "dvfs",
            r#"{"CpuSpeed": {"config": {"interval_s": 1.0, "up_threshold": 0.85,
                "down_threshold": -0.1}}}"#,
            "thresholds must be within [0, 1]",
        ),
        (
            "dvfs",
            r#"{"CpuSpeed": {"config": {"interval_s": 1.0, "up_threshold": 0.5,
                "down_threshold": 0.5}}}"#,
            "down threshold must be below up threshold",
        ),
        // Control-config numbers that must be finite (these ran at ±∞
        // before their rows existed).
        ("fan.DynamicFeedforward.config.t_max_c", "1e999", "t_max_c must be finite"),
        ("fan.DynamicFeedforward.config.t_min_c", "-1e999", "t_min_c must be finite"),
        ("fan.DynamicFeedforward.config.l1_deadband_c", "1e999", "l1_deadband_c must be finite"),
        ("dvfs.Tdvfs.config.controller.t_max_c", "1e999", "t_max_c must be finite"),
        ("dvfs.Tdvfs.config.controller.t_min_c", "-1e999", "t_min_c must be finite"),
        ("dvfs.Tdvfs.config.controller.l1_deadband_c", "1e999", "l1_deadband_c must be finite"),
        ("dvfs.Tdvfs.config.threshold_c", "1e999", "threshold_c must be finite"),
        ("dvfs.Tdvfs.config.threshold_c", "-1e999", "threshold_c must be finite"),
        ("dvfs.Tdvfs.config.hysteresis_c", "1e999", "hysteresis_c must be finite"),
        ("dvfs.Tdvfs.config.rising_threshold_c", "1e999", "rising_threshold_c must be finite"),
        ("dvfs.Tdvfs.config.rising_threshold_c", "-1e999", "rising_threshold_c must be finite"),
        ("dvfs.Tdvfs.config.escalation_margin_c", "1e999", "escalation_margin_c must be finite"),
        ("failsafe.panic_temp_c", "1e999", "panic_temp_c must be finite"),
        ("failsafe.release_temp_c", "-1e999", "release_temp_c must be finite"),
        (
            "fan.DynamicFeedforward.feedforward.gain_c_per_util",
            "1e999",
            "gain_c_per_util must be finite",
        ),
        (
            "fan.DynamicFeedforward.feedforward.deadband_util",
            "1e999",
            "deadband_util must be finite",
        ),
        (
            "dvfs",
            r#"{"CpuSpeed": {"config": {"interval_s": 1e999, "up_threshold": 0.85,
                "down_threshold": 0.5}}}"#,
            "interval_s must be finite",
        ),
        ("fan_overrides.0.1.SoftwareStatic.curve.t_min_c", "1e999", "t_min_c must be finite"),
        ("fan_overrides.0.1.SoftwareStatic.curve.t_min_c", "-1e999", "t_min_c must be finite"),
        ("fan_overrides.0.1.SoftwareStatic.curve.t_max_c", "1e999", "t_max_c must be finite"),
        ("fan_overrides.0.1.SoftwareStatic.curve.t_max_c", "-1e999", "t_max_c must be finite"),
        // Fan duties are percents.
        ("fan.DynamicFeedforward.max_duty", "101", "max_duty must be at most 100 (got 101)"),
        (
            "fan",
            r#"{"ChipAutomatic": {"max_duty": 250}}"#,
            "max_duty must be at most 100 (got 250)",
        ),
        ("fan", r#"{"Constant": {"duty": 250}}"#, "duty must be at most 100 (got 250)"),
        (
            "fan",
            r#"{"Dynamic": {"policy": 50, "max_duty": 101, "config": {"array_len": 100,
                "t_min_c": 38.0, "t_max_c": 82.0, "window": {"l1_len": 4, "l2_len": 5},
                "l1_deadband_c": 0.75}}}"#,
            "max_duty must be at most 100 (got 101)",
        ),
        (
            "fan_overrides.0.1.SoftwareStatic.curve.pwm_min",
            "101",
            "pwm_min must be at most 100 (got 101)",
        ),
        (
            "fan_overrides.0.1.SoftwareStatic.curve.pwm_max",
            "255",
            "pwm_max must be at most 100 (got 255)",
        ),
    ];
    let mut out: Vec<(String, &str, &str)> =
        cases.iter().map(|&(path, value, want)| (path.to_string(), value, want)).collect();
    out.extend(node_config_cases().into_iter().map(|(p, v, w)| (format!("node_config.{p}"), v, w)));
    out
}

/// `NodeConfig` cases, relative to the block; the full message carries
/// the `node_config: ` prefix.
fn node_config_cases() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("thermal.die_capacity_j_per_k", "1e999", "node_config: die capacity must be finite"),
        ("thermal.sink_capacity_j_per_k", "-1e999", "node_config: sink capacity must be finite"),
        (
            "thermal.die_sink_conductance_w_per_k",
            "1e999",
            "node_config: die-sink conductance must be finite",
        ),
        (
            "thermal.natural_conductance_w_per_k",
            "1e999",
            "node_config: natural conductance must be finite",
        ),
        (
            "thermal.airflow_conductance_w_per_k",
            "1e999",
            "node_config: airflow conductance must be finite",
        ),
        ("thermal.airflow_exponent", "1e999", "node_config: airflow exponent must be finite"),
        ("thermal.ambient_c", "-1e999", "node_config: ambient temperature must be finite"),
        ("thermal.die_capacity_j_per_k", "0.0", "node_config: die capacity must be positive"),
        ("thermal.sink_capacity_j_per_k", "-1.0", "node_config: sink capacity must be positive"),
        (
            "thermal.die_sink_conductance_w_per_k",
            "0.0",
            "node_config: die-sink conductance must be positive",
        ),
        (
            "thermal.natural_conductance_w_per_k",
            "-0.1",
            "node_config: natural conductance must be non-negative",
        ),
        (
            "thermal.airflow_conductance_w_per_k",
            "-0.1",
            "node_config: airflow conductance must be non-negative",
        ),
        ("thermal.airflow_exponent", "0.0", "node_config: airflow exponent must be positive"),
        ("cpu.pstates.2.voltage_v", "1e999", "node_config: P-state voltage must be finite"),
        ("cpu.dynamic_power_max_w", "1e999", "node_config: dynamic power must be finite"),
        ("cpu.leakage_power_ref_w", "1e999", "node_config: leakage power must be finite"),
        (
            "cpu.leakage_ref_temp_c",
            "-1e999",
            "node_config: leakage reference temperature must be finite",
        ),
        (
            "cpu.leakage_temp_coeff_per_k",
            "1e999",
            "node_config: leakage temperature coefficient must be finite",
        ),
        ("cpu.emergency_throttle_c", "1e999", "node_config: throttle threshold must be finite"),
        ("cpu.emergency_shutdown_c", "1e999", "node_config: shutdown threshold must be finite"),
        ("cpu.emergency_hysteresis_c", "1e999", "node_config: hysteresis must be finite"),
        ("cpu.pstates", "[]", "node_config: at least one P-state required"),
        ("cpu.pstates.4.voltage_v", "0.0", "node_config: P-state voltage must be positive"),
        ("cpu.pstates.4.freq_mhz", "0", "node_config: P-state frequency must be positive"),
        (
            "cpu.pstates.1.freq_mhz",
            "2400",
            "node_config: P-states must be in strictly descending frequency order",
        ),
        ("cpu.dynamic_power_max_w", "-1.0", "node_config: dynamic power must be non-negative"),
        ("cpu.leakage_power_ref_w", "-1.0", "node_config: leakage power must be non-negative"),
        (
            "cpu.emergency_throttle_c",
            "85.0",
            "node_config: throttle threshold must be below shutdown threshold",
        ),
        ("cpu.emergency_hysteresis_c", "-1.0", "node_config: hysteresis must be non-negative"),
        ("fan.max_rpm", "1e999", "node_config: fan max RPM must be finite"),
        ("fan.time_constant_s", "1e999", "node_config: fan time constant must be finite"),
        ("fan.max_power_w", "1e999", "node_config: fan power must be finite"),
        ("fan.stall_fraction", "-1e999", "node_config: stall fraction must be finite"),
        ("fan.max_rpm", "0.0", "node_config: fan max RPM must be positive"),
        ("fan.time_constant_s", "0.0", "node_config: fan time constant must be positive"),
        ("fan.max_power_w", "-1.0", "node_config: fan power must be non-negative"),
        ("fan.stall_fraction", "1.0", "node_config: stall fraction must be in [0,1)"),
        ("sensor.noise_std_c", "1e999", "node_config: sensor noise must be finite"),
        ("sensor.quantization_c", "1e999", "node_config: sensor quantization must be finite"),
        ("sensor.offset_c", "-1e999", "node_config: sensor offset must be finite"),
        ("sensor.core_spread_c", "1e999", "node_config: core spread must be finite"),
        ("sensor.noise_std_c", "-1.0", "node_config: sensor noise must be non-negative"),
        ("sensor.quantization_c", "-1.0", "node_config: sensor quantization must be non-negative"),
        ("sensor.count", "0", "node_config: need at least one thermal sensor"),
        ("sensor.count", "257", "node_config: sensor count must be at most 256"),
        ("sensor.core_spread_c", "-1.0", "node_config: core spread must be non-negative"),
        ("board.base_power_w", "1e999", "node_config: base power must be finite"),
        ("board.psu_efficiency", "1e999", "node_config: PSU efficiency must be finite"),
        ("board.base_power_w", "-1.0", "node_config: base power must be non-negative"),
        ("board.psu_efficiency", "0.4", "node_config: PSU efficiency must be in [0.5, 1]"),
    ]
}

/// Cases that replace several blocks at once: `(sets, full message)`.
fn block_cases() -> Vec<(Vec<(String, String)>, &'static str)> {
    let one = |path: &str, value: &str| vec![(path.to_string(), value.to_string())];
    let with = |mut sets: Vec<(String, String)>, path: &str, value: &str| {
        sets.push((path.to_string(), value.to_string()));
        sets
    };
    let hybrid = |policy: u32, config: &str| {
        format!(
            r#"{{"Hybrid": {{"policy": {policy}, "max_duty": 60, "config": {config},
                "tdvfs": {{"threshold_c": 51.0, "hysteresis_c": 1.0, "consecutive_rounds": 8,
                "samples_per_round": 4, "rising_threshold_c": 0.25, "escalation_margin_c": 6.0,
                "settle_rounds": 30, "controller": {CONTROLLER}}}}}}}"#
        )
    };
    let acpi = |policy: u32, config: &str, fan: &str| {
        format!(r#"{{"AcpiSleep": {{"policy": {policy}, "config": {config}, "fan": {fan}}}}}"#)
    };
    let dynamic = |config: &str| {
        format!(r#"{{"Dynamic": {{"policy": 50, "max_duty": 100, "config": {config}}}}}"#)
    };
    vec![
        (
            one("scheme", &hybrid(50, CONTROLLER)),
            "fan_overrides cannot be combined with a full `scheme`, which sets every node's fan \
             arm; use the split `fan`/`dvfs` fields",
        ),
        (
            one(
                "node_config_overrides",
                &format!(
                    "[[2, {0}], [0, {0}], [2, {0}]]",
                    serde_json::to_string(&NodeConfig::default()).expect("serializes")
                ),
            ),
            "node_config_overrides: node 2 has more than one entry",
        ),
        (scheme(&hybrid(0, CONTROLLER)), "policy P_p = 0 outside [1, 100]"),
        (
            with(scheme(&hybrid(50, CONTROLLER)), "scheme.Hybrid.max_duty", "101"),
            "max_duty must be at most 100 (got 101)",
        ),
        (scheme(&hybrid(50, BAD_CONTROLLER)), "array length must be at least 1"),
        (
            with(scheme(&hybrid(50, CONTROLLER)), "scheme.Hybrid.tdvfs.hysteresis_c", "-1.0"),
            "hysteresis must be non-negative",
        ),
        (scheme(&acpi(101, CONTROLLER, &dynamic(CONTROLLER))), "policy P_p = 101 outside [1, 100]"),
        (
            scheme(&acpi(50, BAD_CONTROLLER, &dynamic(CONTROLLER))),
            "array length must be at least 1",
        ),
        (
            scheme(&acpi(50, CONTROLLER, &dynamic(BAD_CONTROLLER))),
            "array length must be at least 1",
        ),
        (
            scheme(&format!(
                r#"{{"Split": {{"fan": {}, "dvfs": "None"}}}}"#,
                dynamic(BAD_CONTROLLER)
            )),
            "array length must be at least 1",
        ),
    ]
}

#[test]
fn the_base_document_is_valid() {
    assert_eq!(json_doc::validate(&base()), Ok(()));
}

#[test]
fn every_rule_fails_with_its_exact_message() {
    let mut failures = Vec::new();
    let field = field_cases().into_iter().map(|(p, v, w)| (vec![(p, v.to_string())], w));
    for (sets, want) in field.chain(block_cases()) {
        let mut doc = base();
        for (path, value) in &sets {
            json_doc::set(&mut doc, path, value);
        }
        let got = json_doc::validate(&doc);
        if got != Err(want.to_string()) {
            failures.push(format!("{sets:?}\n    want {want:?}\n    got  {got:?}"));
        }
    }
    assert!(failures.is_empty(), "{} messages changed:\n{}", failures.len(), failures.join("\n"));
}
