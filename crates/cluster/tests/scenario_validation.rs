//! Regression tests for scenario validation of deserialized configs.
//!
//! Scenario JSON files construct configs field-by-field, bypassing every
//! constructor assertion in the workspace. Two bug classes are pinned here:
//!
//! 1. A sampling period shorter than the physics tick used to floor
//!    `ticks_per_sample` to zero, silently disabling the whole control
//!    path (no samples → no controller ever runs).
//! 2. Config blocks reachable only through scenario files (failsafe,
//!    feedforward, tDVFS daemon tuning, CPUSPEED governor) were never
//!    validated after deserialization, so impossible tunings reached the
//!    daemons as-is.
//!
//! Every case must surface as a `ScenarioError` data error from
//! `Scenario::validate`, not as a panic deep inside a daemon.

use unitherm_cluster::scenario::Scenario;

fn validate_json(json: &str) -> Result<(), String> {
    let scenario: Scenario = serde_json::from_str(json).expect("scenario JSON deserializes");
    scenario.validate().map_err(|e| e.message().to_string())
}

#[test]
fn sampling_faster_than_tick_is_rejected() {
    // Builder path.
    let mut s = Scenario::new("fast-sampling");
    s.sample_period_s = 0.01; // dt_s defaults to 0.05
    let err = s.validate().expect_err("sub-tick sampling must be rejected");
    assert!(err.message().contains("sampling cannot outpace the tick"), "{err}");

    // JSON path: same flaw arriving from a scenario file.
    let err = validate_json(r#"{"name": "fast-sampling", "sample_period_s": 0.01}"#)
        .expect_err("sub-tick sampling from JSON must be rejected");
    assert!(err.contains("sampling cannot outpace the tick"), "{err}");

    // Sampling every tick is the legal lower bound.
    let mut s = Scenario::new("per-tick-sampling");
    s.sample_period_s = s.dt_s;
    s.validate().expect("sample_period_s == dt_s is valid");
}

#[test]
fn bad_failsafe_from_json_is_a_data_error() {
    // Release above panic would make the watchdog latch forever; the
    // constructor asserts this, but JSON bypasses the constructor.
    let err = validate_json(
        r#"{
            "name": "bad-failsafe",
            "failsafe": {
                "max_stale_samples": 20,
                "panic_temp_c": 60.0,
                "release_temp_c": 65.0
            }
        }"#,
    )
    .expect_err("inverted failsafe temperatures must be rejected");
    assert!(err.contains("release temperature must be below panic temperature"), "{err}");

    let err = validate_json(
        r#"{
            "name": "bad-failsafe",
            "failsafe": {
                "max_stale_samples": 0,
                "panic_temp_c": 65.0,
                "release_temp_c": 55.0
            }
        }"#,
    )
    .expect_err("zero stale budget must be rejected");
    assert!(err.contains("need a stale budget of at least 1 sample"), "{err}");
}

#[test]
fn bad_feedforward_from_json_is_a_data_error() {
    let controller = serde_json::to_string(&unitherm_core::controller::ControllerConfig::default())
        .expect("serialize controller config");
    let json = format!(
        r#"{{
            "name": "bad-feedforward",
            "fan": {{"DynamicFeedforward": {{
                "policy": 50,
                "max_duty": 100,
                "config": {controller},
                "feedforward": {{
                    "gain_c_per_util": -1.0,
                    "deadband_util": 0.25,
                    "samples_per_round": 1
                }}
            }}}}
        }}"#
    );
    let err = validate_json(&json).expect_err("negative feedforward gain must be rejected");
    assert!(err.contains("gain must be non-negative"), "{err}");
}

#[test]
fn bad_tdvfs_daemon_tuning_from_json_is_a_data_error() {
    // The non-controller half of TdvfsConfig (daemon tuning) used to skip
    // validation entirely: only `config.controller` was checked.
    let cfg = unitherm_core::tdvfs::TdvfsConfig { consecutive_rounds: 0, ..Default::default() };
    let tdvfs = serde_json::to_string(&cfg).expect("serialize tdvfs config");
    let json = format!(
        r#"{{
            "name": "bad-tdvfs",
            "dvfs": {{"Tdvfs": {{"policy": 50, "config": {tdvfs}}}}}
        }}"#
    );
    let err = validate_json(&json).expect_err("zero confirmation rounds must be rejected");
    assert!(err.contains("need at least one confirmation round"), "{err}");
}

#[test]
fn bad_cpuspeed_governor_from_json_is_a_data_error() {
    let err = validate_json(
        r#"{
            "name": "bad-governor",
            "dvfs": {"CpuSpeed": {"config": {
                "interval_s": 0.0,
                "up_threshold": 0.85,
                "down_threshold": 0.5
            }}}
        }"#,
    )
    .expect_err("non-positive governor interval must be rejected");
    assert!(err.contains("interval must be positive"), "{err}");

    let err = validate_json(
        r#"{
            "name": "bad-governor",
            "dvfs": {"CpuSpeed": {"config": {
                "interval_s": 1.0,
                "up_threshold": 0.5,
                "down_threshold": 0.85
            }}}
        }"#,
    )
    .expect_err("inverted governor thresholds must be rejected");
    assert!(err.contains("down threshold must be below up threshold"), "{err}");
}

/// A one-node document with `workload` as its workload block.
fn one_node_with(workload: &str) -> String {
    format!(r#"{{"name": "bad-workload", "nodes": 1, "max_time_s": 5.0, "workload": {workload}}}"#)
}

#[test]
fn bad_workloads_from_json_are_data_errors() {
    // Each of these used to pass validation and then panic while the
    // simulation built its workloads (or, for the negative segment, run
    // and report a -inf maximum temperature).
    let burn = |burst: &str| {
        format!(
            r#"{{"CpuBurnTuned": {{"burst_s": {burst}, "gap_s": [4.0, 12.0],
                "burst_util": 1.0, "gap_util": 0.18, "jitter": 0.06}}}}"#
        )
    };
    let cases = [
        (r#"{"Script": []}"#.to_string(), "workload: script must not be empty"),
        (
            r#"{"Script": [{"duration_s": -1.0, "utilization": 0.5}]}"#.to_string(),
            "workload: segment 0: duration_s must be positive",
        ),
        (
            r#"{"Trace": {"points": [], "looped": false}}"#.to_string(),
            "workload: trace must not be empty",
        ),
        (
            r#"{"Trace": {"points": [[0.0, 2.0, 0.5]], "looped": false}}"#.to_string(),
            "workload: trace point 0: utilization must be in [0,1]",
        ),
        (
            r#"{"Trace": {"points": [[1.0, 0.5, 0.5], [0.5, 0.5, 0.5]], "looped": false}}"#
                .to_string(),
            "workload: trace point 1: timestamps must be strictly increasing",
        ),
        (burn("[0.0, 0.0]"), "workload: invalid burst range"),
        (burn("[5.0, 1.0]"), "workload: invalid burst range"),
    ];
    for (workload, want) in cases {
        let json = one_node_with(&workload);
        let err = validate_json(&json).expect_err(&json);
        assert!(err.contains(want), "{json}: {err}");
        // The simulation refuses it by name instead of panicking.
        let scenario: Scenario = serde_json::from_str(&json).expect("deserializes");
        let err = unitherm_cluster::Simulation::try_new(scenario).err().expect("refused");
        assert!(err.message().contains(want), "{err}");
    }

    // The valid forms of the same blocks still pass.
    for workload in [
        r#"{"Script": [{"duration_s": 1.0, "utilization": 0.5}]}"#.to_string(),
        r#"{"Trace": {"points": [[0.0, 0.5, 0.5], [1.0, 0.9, 0.9]], "looped": true}}"#.to_string(),
        burn("[5.0, 5.0]"),
    ] {
        validate_json(&one_node_with(&workload)).expect("valid workload");
    }
}

#[test]
fn control_schemes_validate_once_with_the_per_node_error_text() {
    // A cluster of 100,000 nodes validates its schemes as fast as a
    // 1-node one: each distinct scheme is checked once, not per node.
    let err = validate_json(
        r#"{"name": "wide", "nodes": 100000, "dvfs": {"CpuSpeed": {"config": {
            "interval_s": 0.0, "up_threshold": 0.85, "down_threshold": 0.5}}}}"#,
    )
    .expect_err("the shared DVFS arm is still checked");
    assert!(err.contains("interval must be positive"), "{err}");

    // An override is checked; the default fan is not when every node
    // overrides it. A second override for a node is refused by name.
    let controller = serde_json::to_string(&unitherm_core::controller::ControllerConfig::default())
        .expect("serialize controller config");
    let bad_fan =
        format!(r#"{{"Dynamic": {{"policy": 0, "max_duty": 100, "config": {controller}}}}}"#);
    let bad_fan = bad_fan.as_str();
    let good_fan = r#"{"Constant": {"duty": 50}}"#;
    let doc = |fan: &str, overrides: &str| {
        format!(r#"{{"name": "o", "nodes": 2, "fan": {fan}, "fan_overrides": {overrides}}}"#)
    };
    let err = validate_json(&doc(good_fan, &format!("[[1, {bad_fan}]]")))
        .expect_err("an invalid override in effect is refused");
    assert!(err.contains("policy"), "{err}");
    validate_json(&doc(bad_fan, &format!("[[0, {good_fan}], [1, {good_fan}]]")))
        .expect("a default fan no node uses is not checked");
    let err = validate_json(&doc(good_fan, &format!("[[1, {good_fan}], [1, {bad_fan}]]")))
        .expect_err("a second override for a node is refused");
    assert!(err.contains("fan_overrides") && err.contains("node 1"), "{err}");
}

#[test]
fn a_second_node_config_override_for_a_node_is_refused_by_name() {
    let cfg = serde_json::to_string(&unitherm_simnode::NodeConfig::default())
        .expect("serialize node config");
    let doc = |overrides: &str| {
        format!(r#"{{"name": "c", "nodes": 3, "node_config_overrides": {overrides}}}"#)
    };
    validate_json(&doc(&format!("[[0, {cfg}], [2, {cfg}]]"))).expect("one entry per node");
    let err = validate_json(&doc(&format!("[[2, {cfg}], [0, {cfg}], [2, {cfg}]]")))
        .expect_err("a second config override for a node is refused");
    assert!(err.contains("node_config_overrides") && err.contains("node 2"), "{err}");
}

#[test]
fn fan_overrides_next_to_a_full_scheme_are_refused_by_name() {
    // A full scheme sets every node's fan arm, so an override would be
    // silently ignored: refuse it.
    let doc = include_str!("../../../examples/scenarios/hybrid_burn.json");
    validate_json(doc).expect("the example itself is valid");
    let with_override =
        doc.replacen('{', r#"{"fan_overrides": [[1, {"Constant": {"duty": 100}}]],"#, 1);
    let err = validate_json(&with_override).expect_err("an override under a full scheme");
    assert!(err.contains("fan_overrides"), "{err}");

    // The builder path gets the same error.
    use unitherm_cluster::{FanScheme, SchemeSpec};
    use unitherm_core::control_array::Policy;
    let err = Scenario::new("hybrid")
        .with_nodes(2)
        .with_scheme(SchemeSpec::hybrid(Policy::MODERATE, 30))
        .with_node_fan(1, FanScheme::Constant { duty: 100 })
        .validate()
        .expect_err("an override under a full scheme");
    assert!(err.message().contains("fan_overrides"), "{err}");
}
